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

# seconds: 10x the slowest of three cold `python -m wzw.cli verify <name>` runs,
# rounded up, at least 2 s; fusion-axioms and rank-z-independence keep a tighter 1 s
BUDGETS = {
    "virasoro-bracket": 2.0,
    "sugawara-identities": 17.0,
    "oracle-equivalence": 2.0,
    "fusion-axioms": 1.0,
    "block-dimensions": 2.0,
    "propagation": 3.0,
    "dehn-twists": None,
    "kz-flatness": 3.0,
    "kz-transport": 5.0,
    "gluing-recursion": 7.0,
    "rank-z-independence": 1.0,
}

# the pass line of every exact check, as `verify all` prints it; kz-transport
# prints floats and dehn-twists fails by design
PASS_LINES = {
    "virasoro-bracket": "49 bracket pairs, |k|,|l| <= 3, degree bound 12, all residuals 0",
    "sugawara-identities": "535 identities (brackets, currents, L0 spectra) at degree bound 6, "
                           "all residuals 0",
    "oracle-equivalence": "225 triples across levels 0..4, fusion coefficient == block rank "
                          "everywhere",
    "fusion-axioms": "2927 axiom instances over 8 rings, all pass",
    "block-dimensions": "369 dimension identities, all agree",
    "propagation": "894 propagation instances, dimension and rank preserved",
    "kz-flatness": "484 systems, Kohno relations and residue sums exact",
    "gluing-recursion": "134 recursion and pairing identities, all residuals 0",
    "rank-z-independence": "154 cases x 3 configurations, ranks independent of z",
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
    result = dict(checks.ALL_CHECKS)[name]()
    elapsed = time.perf_counter() - t0
    print(f"{result.name}: {'pass' if result.passed else 'FAIL'} - {result.detail} "
          f"({elapsed:.2f}s)")
    budget = BUDGETS[name]
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    assert result.passed, result.detail
    if name in PASS_LINES:
        assert result.detail == PASS_LINES[name]
