"""The failure branch of each check: one fault, monkeypatched into a name the
check imports, must fail the check and name the first failing case."""

from wzw import checks
from wzw.fock import GluingTensorSeries


def test_oracle_equivalence_names_its_first_disagreement(monkeypatch):
    real = checks.three_point_rank

    def off_by_one(level, m1, m2, m3):
        return real(level, m1, m2, m3) + ((level, m1, m2, m3) == (2, 1, 1, 2))

    monkeypatch.setattr(checks, "three_point_rank", off_by_one)
    result = checks.oracle_equivalence()
    assert result.passed is False
    assert result.detail == "1/225 disagreements, first l=2,labels=(1,1,2)"


def test_kz_flatness_names_its_first_failure(monkeypatch):
    real = checks.residue_check

    def fails_once(system):
        return (system.level, system.labels) != (1, (1, 1)) and real(system)

    monkeypatch.setattr(checks, "residue_check", fails_once)
    result = checks.kz_flatness()
    assert result.passed is False
    assert result.detail == "1/484 failures, first l=1,labels=(1, 1)"


def test_gluing_recursion_counts_its_rows(monkeypatch):
    real = checks.gluing_tensor

    def doubled_eps0(level, mu, d):
        series = real(level, mu, d)
        if mu == 1:
            terms = [[[2 * v for v in row] for row in series.terms[0]]] + series.terms[1:]
            series = GluingTensorSeries(series.quotient, terms, series.residuals)
        return series

    monkeypatch.setattr(checks, "gluing_tensor", doubled_eps0)
    result = checks.gluing_recursion()
    assert result.passed is False
    assert result.detail == "1/134 nonzero, first mu=1,eps0-inverse-pairing"


def test_rank_z_independence_names_its_first_varying_case(monkeypatch):
    real = checks.npoint_block_rank
    seen = set()

    def first_point_differs(problem):
        key = (problem.level, tuple(problem.labels))
        bump = key == (2, (1, 1)) and key not in seen
        seen.add(key)
        return real(problem) + bump

    monkeypatch.setattr(checks, "npoint_block_rank", first_point_differs)
    result = checks.rank_z_independence()
    assert result.passed is False
    assert result.detail == "1/154 cases vary, first l=2,labels=(1, 1)"


def test_block_dimensions_names_its_first_mismatch(monkeypatch):
    real = checks.block_dimension

    def torus_off(surface, graph=None):
        dim = real(surface, graph)
        return dim + ((surface.level, surface.genus, surface.boundary_labels) == (2, 1, ()))

    monkeypatch.setattr(checks, "block_dimension", torus_off)
    result = checks.block_dimensions()
    assert result.passed is False
    # the torus count and the genus-1 factorization both read the torus
    assert result.detail == "2/369 mismatches, first torus,l=2"


def test_propagation_names_its_first_violation(monkeypatch):
    real = checks.propagation_check

    def fails_on(level, labels, z):
        return (level, tuple(labels)) != (1, (0, 1)) and real(level, labels, z)

    monkeypatch.setattr(checks, "propagation_check", fails_on)
    result = checks.propagation()
    assert result.passed is False
    # three point configurations each; the names print the sampled z
    assert result.detail == ("3/894 violations, first npoint,l=1,labels=(0, 1),"
                             "z=(Fraction(37, 1), Fraction(-13, 1))")


def test_virasoro_bracket_names_its_first_nonzero_residual(monkeypatch):
    real = checks.check_sugawara_bracket

    def skewed(k, l, module):
        res = real(k, l, module)
        return res.add(checks.sugawara_op(0, module)) if (k, l) == (1, -1) else res

    monkeypatch.setattr(checks, "check_sugawara_bracket", skewed)
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
