"""Tests of the benchmark's independent output checks.

Run with `python -m pytest perfbench -q` from the repository root; they sit
outside the package's testpaths, so the tier-1 run does not collect them.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import validate
import verlinde

ROOT = Path(__file__).resolve().parent.parent


def test_published_block_dimensions():
    assert verlinde.verlinde_dimension(1, 1, 2) == 4   # su(2)_1, genus 2: 2^g
    assert verlinde.verlinde_dimension(1, 2, 2) == 10  # su(2)_2, genus 2


def test_su2_closed_form_agrees_with_verlinde():
    for k in range(7):
        for a, b, c in itertools.product(range(k + 1), repeat=3):
            assert verlinde.verlinde_coefficient(1, k, (a,), (b,), (c,)) \
                == verlinde.su2_fusion(k, a, b, c)


def test_a2_level_one_fusion_is_z3():
    alph = verlinde.alphabet(2, 1)
    assert alph == ((0, 0), (0, 1), (1, 0))
    triality = [(a + 2 * b) % 3 for a, b in alph]
    want = {(i, j, k): 1 for i in range(3) for j in range(3) for k in range(3)
            if (triality[i] + triality[j] + triality[k]) % 3 == 0}
    assert verlinde.fusion_coefficients(2, 1) == want


def test_clebsch_gordan_invariants():
    assert verlinde.su2_invariants((1, 1)) == 1
    assert verlinde.su2_invariants((2, 2, 2)) == 1
    assert verlinde.su2_invariants((1, 1, 1)) == 0
    assert verlinde.su2_invariants((1, 1, 1, 1)) == 2


def _fusion_payload(algebra, level):
    rank = verlinde.rank_of(algebra)
    coeffs = verlinde.fusion_coefficients(rank, level)
    return {"algebra": algebra, "level": level,
            "labels": [list(mu) for mu in verlinde.alphabet(rank, level)],
            "coeffs": [{"labels": list(t), "n": n} for t, n in sorted(coeffs.items())]}


@pytest.mark.parametrize("algebra,level", [("A1", 3), ("A2", 2)])
def test_fusion_table_rejects_perturbed_coefficients(algebra, level):
    good = _fusion_payload(algebra, level)
    validate.fusion_table(good, algebra, level)
    bumped = json.loads(json.dumps(good))
    bumped["coeffs"][3]["n"] += 1
    dropped = json.loads(json.dumps(good))
    del dropped["coeffs"][-1]
    for bad in (bumped, dropped):
        with pytest.raises(validate.Mismatch):
            validate.fusion_table(bad, algebra, level)


def test_dim_rejects_wrong_dimension():
    validate.dim({"dimension": 10}, "A1", 2, 2, "")
    with pytest.raises(validate.Mismatch):
        validate.dim({"dimension": 11}, "A1", 2, 2, "")


def test_npoint_readme_example_and_perturbation():
    # README: the classical triple (2,2,2) has one invariant, level 2 kills it
    validate.npoint({"rank": 0, "classical_rank": 1}, 2, (2, 2, 2))
    with pytest.raises(validate.Mismatch):
        validate.npoint({"rank": 1, "classical_rank": 1}, 2, (2, 2, 2))


def _readme_kz_matrices(a02="1/2"):
    mats = {(0, 1): "-1/8", (0, 2): a02, (1, 2): "1/2"}
    return {"dim": 1, "classical_dim": 1,
            "matrices": [{"i": i, "j": j, "entries": [[v]]} for (i, j), v in mats.items()]}


def test_kz_matrices_readme_example_and_perturbation():
    validate.kz_matrices(_readme_kz_matrices(), 2, (1, 1, 2))
    with pytest.raises(validate.Mismatch):
        validate.kz_matrices(_readme_kz_matrices(a02="1/3"), 2, (1, 1, 2))


def test_kz_matrices_rejects_a_non_flat_connection():
    out = subprocess.run([sys.executable, "-m", "wzw.cli", "kz", "matrices", "--level", "2",
                          "--labels", "1,1,1,1"], capture_output=True, check=True, cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).stdout
    good = json.loads(out)
    validate.kz_matrices(good, 2, (1, 1, 1, 1))
    # A01 and A02 trade places: a connection no longer flat and Casimir-compatible
    bad = json.loads(out)
    m = {(x["i"], x["j"]): x for x in bad["matrices"]}
    m[0, 1]["entries"], m[0, 2]["entries"] = m[0, 2]["entries"], m[0, 1]["entries"]
    assert m[0, 1]["entries"] != m[0, 2]["entries"]
    with pytest.raises(validate.Mismatch):
        validate.kz_matrices(bad, 2, (1, 1, 1, 1))


def _readme_holonomy(re_, im):
    return {"matrix": [[[re_, im]]], "steps": 4000, "error_estimate": 1.86e-11,
            "converged": True}


def test_kz_transport_readme_holonomy_is_exp_minus_i_pi_over_4():
    validate.kz_transport(_readme_holonomy(0.707106781187419, -0.7071067811856674), 2, (1, 1, 2))
    with pytest.raises(validate.Mismatch):  # the opposite orientation
        validate.kz_transport(_readme_holonomy(0.707106781187419, 0.7071067811856674),
                              2, (1, 1, 2))


def test_verify_rejects_failures_and_nonzero_residuals():
    validate.verify({"checks": [{"name": "fusion-axioms", "status": "pass", "detail": ""}]},
                    "fusion-axioms")
    validate.verify({"checks": [{"name": "virasoro[k=0,l=1]", "window": "[0,12]",
                                 "residual_norm": "0"}]}, "virasoro")
    for bad in ({"checks": [{"name": "fusion-axioms", "status": "fail", "detail": ""}]},
                {"checks": [{"name": "x", "window": "[0,12]", "residual_norm": "1/2"}]},
                {"checks": []}):
        with pytest.raises(validate.Mismatch):
            validate.verify(bad, "fusion-axioms")
