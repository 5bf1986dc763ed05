"""Acceptance gate: the eleven headline identities, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` to see the per-criterion lines.
Each test invokes the same check the CLI `verify` subcommand runs, asserts the
check passed at tolerance zero (transport: 1e-6), and enforces the runtime
budget where one is stated.

The dehn-twists criterion is expected to fail as specified: it demands both
that the A1 level-1 label-1 twist equal -i (true, exponent 1/2) and that
3(l+h)r be an integer for every label, but 3*(1+2)*(1/2) = 9/2 is not an
integer. The twist values themselves are correct; the integrality clause is
arithmetically unsatisfiable, so the criterion is marked strict-xfail rather
than weakened.
"""

import time

import pytest

from wzw import checks

BUDGETS = {
    "virasoro-bracket": 10.0,
    "sugawara-identities": 60.0,
    "oracle-equivalence": 60.0,
    "fusion-axioms": 1.0,
    "block-dimensions": 30.0,
    "propagation": 5.0,
    "dehn-twists": None,
    "kz-flatness": 30.0,
    "kz-transport": 60.0,
    "gluing-recursion": 15.0,
    "rank-z-independence": 1.0,
}

_params = [
    pytest.param(name, id=name) if name != "dehn-twists" else
    pytest.param(name, id=name, marks=pytest.mark.xfail(
        strict=True, reason="3(l+h)r integrality fails: 3*(1+2)*(1/2) = 9/2"))
    for name, _ in checks.ALL_CHECKS
]


@pytest.mark.parametrize("name", _params)
def test_criterion(name):
    t0 = time.perf_counter()
    result = checks.run_all([name])[0]
    elapsed = time.perf_counter() - t0
    print(f"{result.name}: {'pass' if result.passed else 'FAIL'} - {result.detail} "
          f"({elapsed:.2f}s)")
    budget = BUDGETS[name]
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    assert result.passed, result.detail
