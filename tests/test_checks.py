"""The failure branch of each check: one fault, monkeypatched into a name the
check imports, must fail the check and name the first failing case.  Each check
imports its layer functions when it runs, so a fault goes into the module that
defines the function."""

import cmath
from fractions import Fraction

import pytest

from wzw import checks, fock, kz, oracle, surface
from wzw.errors import InternalError
from wzw.kz import TransportResult


def test_oracle_equivalence_names_its_first_disagreement(monkeypatch):
    real = oracle.three_point_ranks

    def off_by_one(level, m1, m2, m3):
        rank, classical = real(level, m1, m2, m3)
        return rank + ((level, m1, m2, m3) == (2, 1, 1, 2)), classical

    monkeypatch.setattr(oracle, "three_point_ranks", off_by_one)
    result = checks.oracle_equivalence()
    assert result.passed is False
    assert result.detail == "1/225 disagreements, first l=2,labels=(1,1,2)"


def test_kz_flatness_names_its_first_failure(monkeypatch):
    real = kz.residue_check

    def fails_once(system):
        return (system.level, system.labels) != (1, (1, 1)) and real(system)

    monkeypatch.setattr(kz, "residue_check", fails_once)
    result = checks.kz_flatness()
    assert result.passed is False
    assert result.detail == "1/484 failures, first l=1,labels=(1, 1)"


def test_kz_transport_names_the_liouville_row(monkeypatch):
    real = kz.parallel_transport

    def turned_around_z1(system, path, **kwargs):
        # a phase on the holonomy around z_1 keeps it a non-identity monodromy
        # but moves its determinant off exp(2 pi i tr A_01)
        res = real(system, path, **kwargs)
        if path[1] == (2 + 3j, 0, -2):
            phase = cmath.exp(0.05j * cmath.pi)
            res = TransportResult([[phase * v for v in row] for row in res.matrix],
                                  res.steps, res.path, res.error_estimate, res.converged)
        return res

    monkeypatch.setattr(kz, "parallel_transport", turned_around_z1)
    result = checks.kz_transport()
    assert result.passed is False
    assert result.detail.startswith("failed: liouville-determinant ({'name': "
                                    "'liouville-determinant', 'trace': '-1/8', 'gap': 0.156")


def test_kz_transport_names_a_trivial_monodromy(monkeypatch):
    real = kz.parallel_transport
    contractible = [(2, 0, -2), (2 + 1j, 0, -2), (3 + 1j, 0, -2), (3, 0, -2), (2, 0, -2)]

    def never_around_z1(system, path, **kwargs):
        # the loop around z_1 comes back with the contractible loop's holonomy
        return real(system, contractible if path[1] == (2 + 3j, 0, -2) else path, **kwargs)

    monkeypatch.setattr(kz, "parallel_transport", never_around_z1)
    result = checks.kz_transport()
    assert result.passed is False
    assert result.detail.startswith("failed: encircling-loop ({'name': 'encircling-loop', "
                                    "'difference': 0.0})")


def test_kz_transport_integrates_each_loop_once(monkeypatch):
    real = kz.parallel_transport
    paths = []

    def counted(system, path, **kwargs):
        paths.append(path)
        return real(system, path, **kwargs)

    monkeypatch.setattr(kz, "parallel_transport", counted)
    assert checks.kz_transport().passed
    # contractible loop, two homotopic paths, the encircling loop, three order runs
    assert len(paths) == 7
    assert paths.count(paths[0]) == 1


def test_dehn_twists_counts_a_wrong_special_text(monkeypatch):
    real = surface.TwistEigenvalue.eigenvalue_text
    assert checks.dehn_twists().detail.startswith("6/23 failures, first A1,l=1,mu=(1,)")

    def off_at_one_half(self):
        return "exp(i*pi/2)" if self.exponent == Fraction(1, 2) else real(self)

    monkeypatch.setattr(surface.TwistEigenvalue, "eigenvalue_text", off_at_one_half)
    result = checks.dehn_twists()
    assert result.passed is False
    assert result.detail == ("7/23 failures, first A1,l=1,mu=(1,): 3(l+h)r not an "
                             "integer (3(l+h)r = 9/2)")


def test_gluing_recursion_counts_its_rows(monkeypatch):
    # the count is pinned on correct code, so a gluing tensor that checks the
    # recursion for |n| <= 1 only shows; a bad eps_0 fails inside gluing_tensor,
    # which verifies eps_d H_d^T = I at every degree, as an internal error
    assert checks.gluing_recursion() == (
        "gluing-recursion", True, "134 recursion and pairing identities, all residuals 0")
    real = fock.invert

    def doubled_eps0(a):
        out = real(a)
        # H_0 of b_1 pairs v_0 with v_1 and v_1 with v_0, with the sign (-1)^i
        return [[2 * x for x in row] for row in out] if a == [[0, 1], [-1, 0]] else out

    monkeypatch.setattr(fock, "invert", doubled_eps0)
    with pytest.raises(InternalError, match="^eps_0 does not invert the degree-0 quotient"):
        checks.gluing_recursion()


def test_rank_z_independence_names_its_first_varying_case(monkeypatch):
    real = oracle.npoint_block_ranks
    seen = set()

    def first_point_differs(problem):
        key = (problem.level, tuple(problem.labels))
        bump = key == (2, (1, 1)) and key not in seen
        seen.add(key)
        rank, classical = real(problem)
        return rank + bump, classical

    monkeypatch.setattr(oracle, "npoint_block_ranks", first_point_differs)
    result = checks.rank_z_independence()
    assert result.passed is False
    assert result.detail == "1/154 cases vary, first l=2,labels=(1, 1)"


def test_block_dimensions_names_its_first_mismatch(monkeypatch):
    real = surface.block_dimension

    def torus_off(surface, graph=None):
        dim = real(surface, graph)
        return dim + ((surface.level, surface.genus, surface.boundary_labels) == (2, 1, ()))

    monkeypatch.setattr(surface, "block_dimension", torus_off)
    result = checks.block_dimensions()
    assert result.passed is False
    # the torus count and the genus-1 factorization both read the torus
    assert result.detail == "2/369 mismatches, first torus,l=2"


def test_propagation_names_its_first_violation(monkeypatch):
    real = oracle.propagation_check

    def fails_on(level, labels, z):
        return (level, tuple(labels)) != (1, (0, 1)) and real(level, labels, z)

    monkeypatch.setattr(oracle, "propagation_check", fails_on)
    result = checks.propagation()
    assert result.passed is False
    # three point configurations each; the names print the sampled z
    assert result.detail == ("3/894 violations, first npoint,l=1,labels=(0, 1),"
                             "z=(Fraction(37, 1), Fraction(-13, 1))")


def test_virasoro_bracket_names_its_first_nonzero_residual(monkeypatch):
    real = fock.check_sugawara_bracket

    def skewed(k, l, module):
        if (k, l) != (1, -1):
            return real(k, l, module)
        # the residual [L_1, L_-1] - 2 L_0 (no central term at k = 1), plus L_0
        t1, t_1, t0 = (fock.sugawara_op(j, module) for j in (1, -1, 0))
        return fock.commutator(t1, t_1, (-2, t0), (-1, t0))

    monkeypatch.setattr(fock, "check_sugawara_bracket", skewed)
    result = checks.virasoro_bracket()
    assert result.passed is False
    assert result.detail == "1/49 nonzero residuals, first virasoro[k=1,l=-1]"


def test_sugawara_identities_names_its_first_nonzero_residual(monkeypatch):
    def rows(level, mu, degree):
        return [{"name": "zero", "window": "[0,0]", "residual_norm": "0"},
                {"name": "one", "window": "[0,0]", "residual_norm": "1"}]

    monkeypatch.setattr(checks, "sugawara_rows", rows)
    result = checks.sugawara_identities()
    assert result.passed is False
    assert result.detail == "5/10 nonzero residuals, first l=1,mu=0:one"
