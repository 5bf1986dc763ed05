"""Root systems, Casimir eigenvalues, Freudenthal multiplicities, tensor products."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzw import cli
from wzw.errors import InputError, InternalError
from wzw.fusion import alphabet
from wzw.liealg import (_root_system, build_root_system, casimir_eigenvalue,
                        dominant_with_sign, dual_weight, level_of, parse_algebra,
                        weight_multiplicities, weyl_dim)
from wzw.linalg import sl2_irrep_matrices

ALL_SMALL = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
             ("D", 4), ("G", 2), ("F", 4), ("E", 6)]

# Cartan matrices of types the package rejects: the generic root-data
# construction behind the five supported algebras is checked on them too
UNSUPPORTED_CARTAN = {
    ("A", 3): ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    ("A", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    ("B", 3): ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    ("C", 3): ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    ("F", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
    ("E", 6): ((2, 0, -1, 0, 0, 0), (0, 2, 0, -1, 0, 0), (-1, 0, 2, -1, 0, 0),
               (0, -1, -1, 2, -1, 0), (0, 0, 0, -1, 2, -1), (0, 0, 0, 0, -1, 2)),
}


def root_data(series, rank):
    cartan = UNSUPPORTED_CARTAN.get((series, rank))
    if cartan is None:
        return build_root_system(series, rank)
    return _root_system(series, rank, cartan)


@pytest.mark.parametrize("cartan", [((2, -2), (-2, 2)), ((2, -3), (-3, 2))],
                         ids=["affine", "hyperbolic"])
def test_root_data_rejects_a_cartan_matrix_not_of_finite_type(cartan):
    with pytest.raises(InternalError, match="X2"):
        _root_system("X", 2, cartan)


def test_parse_algebra():
    assert parse_algebra("A1") == ("A", 1)
    assert parse_algebra(" G2 ") == ("G", 2)
    with pytest.raises(InputError, match="A1, A2, B2, G2, D4"):
        parse_algebra("H3")
    with pytest.raises(InputError):
        parse_algebra("A")


def test_invalid_ranks_rejected():
    for series, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 9),
                         ("F", 3), ("G", 1)]:
        with pytest.raises(InputError):
            build_root_system(series, rank)


@pytest.mark.parametrize("name", ["A3", "A4", "B3", "C2", "C3", "D5", "E6", "E8", "F4"])
def test_unchecked_algebras_rejected(name, capsys):
    with pytest.raises(InputError, match="A1, A2, B2, G2, D4"):
        build_root_system(*parse_algebra(name))
    assert cli.main(["fusion-table", "--algebra", name, "--level", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: algebra ")


def test_cartan_matrices():
    assert build_root_system("A", 2).cartan_matrix == ((2, -1), (-1, 2))
    # G2 and B2: the short root is alpha_2 in this numbering
    g2 = build_root_system("G", 2).cartan_matrix
    assert sorted((g2[0][1], g2[1][0])) == [-3, -1]
    assert build_root_system("B", 2).cartan_matrix == ((2, -1), (-2, 2))
    d4 = build_root_system("D", 4).cartan_matrix
    assert [sum(1 for x in row if x == -1) for row in d4] == [1, 3, 1, 1]


@pytest.mark.parametrize("series,rank", ALL_SMALL)
def test_highest_root_has_length_two(series, rank):
    rs = root_data(series, rank)
    theta = rs.highest_root
    assert rs.form(theta, theta) == 2


@pytest.mark.parametrize("name,denominator", [("A1", 2), ("A2", 3), ("B2", 2),
                                              ("G2", 3), ("D4", 2)])
def test_form_is_an_integer_gram_matrix_over_one_denominator(name, denominator):
    rs = build_root_system(*parse_algebra(name))
    assert rs.denominator == denominator
    assert all(type(g) is int for row in rs.gram for g in row)
    # the denominator is the least one: the entries share no factor with it
    assert gcd(denominator, *(g for row in rs.gram for g in row)) == 1
    for i in range(rs.rank):
        omega = tuple(int(i == j) for j in range(rs.rank))
        for j in range(rs.rank):
            other = tuple(int(j == k) for k in range(rs.rank))
            assert rs.form(omega, other) == Fraction(rs.gram[i][j], denominator)


@pytest.mark.parametrize("series,rank", ALL_SMALL)
def test_adjoint_casimir_is_twice_dual_coxeter(series, rank):
    rs = root_data(series, rank)
    assert casimir_eigenvalue(rs, rs.highest_root) == 2 * rs.dual_coxeter


@pytest.mark.parametrize("series,rank,h", [("A", 1, 2), ("A", 2, 3), ("A", 4, 5),
                                           ("B", 3, 5), ("C", 3, 4), ("D", 4, 6),
                                           ("G", 2, 4), ("F", 4, 9), ("E", 6, 12)])
def test_dual_coxeter_numbers(series, rank, h):
    assert root_data(series, rank).dual_coxeter == h


@pytest.mark.parametrize("series,rank", ALL_SMALL)
def test_rho_and_adjoint_dimension(series, rank):
    rs = root_data(series, rank)
    assert rs.rho == (1,) * rank
    # the adjoint representation has dimension rank + 2 |positive roots|
    assert weyl_dim(rs, rs.highest_root) == rank + 2 * len(rs.pos_roots)


def test_weyl_dim_small():
    a1 = build_root_system("A", 1)
    assert [weyl_dim(a1, (m,)) for m in range(5)] == [1, 2, 3, 4, 5]
    a2 = build_root_system("A", 2)
    assert weyl_dim(a2, (1, 0)) == 3
    assert weyl_dim(a2, (1, 1)) == 8
    assert weyl_dim(a2, (3, 0)) == 10
    assert weyl_dim(build_root_system("G", 2), (0, 1)) == 7


def test_freudenthal_multiplicities():
    a1 = build_root_system("A", 1)
    assert weight_multiplicities(a1, (3,)) == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}
    a2 = build_root_system("A", 2)
    adj = weight_multiplicities(a2, (1, 1))
    assert adj[(0, 0)] == 2
    assert sum(adj.values()) == 8
    # multiplicity is constant on Weyl orbits: all six roots appear once
    assert sorted(adj.values()) == [1, 1, 1, 1, 1, 1, 2]


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_weight_multiplicities_sum_to_weyl_dim(series, rank):
    rs = build_root_system(series, rank)
    for mu in [(1,) * rank, (2,) + (0,) * (rank - 1)]:
        assert sum(weight_multiplicities(rs, mu).values()) == weyl_dim(rs, mu)


def test_weight_diagram_is_read_only():
    diagram = weight_multiplicities(build_root_system("A", 2), (1, 1))
    with pytest.raises(TypeError):
        diagram[(0, 0)] = 3
    assert diagram[(0, 0)] == 2


def tensor_decompose(rs, mu, nu):
    """The classical V_mu (x) V_nu: the fusion row at level(mu) + level(nu), where
    every summand has level at most l, so none reaches the affine wall."""
    alph = alphabet(rs, level_of(rs, mu) + level_of(rs, nu))
    row = alph.row(alph.index(mu), alph.index(nu))  # N(mu, nu, k) counts labels[k]*
    return {alph.labels[alph.dual[k]]: n for k, n in enumerate(row) if n}


def test_tensor_decompose_clebsch_gordan():
    a1 = build_root_system("A", 1)
    assert tensor_decompose(a1, (2,), (3,)) == {(5,): 1, (3,): 1, (1,): 1}
    assert tensor_decompose(a1, (1,), (1,)) == {(2,): 1, (0,): 1}


def test_tensor_decompose_a2():
    a2 = build_root_system("A", 2)
    assert tensor_decompose(a2, (1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}
    assert tensor_decompose(a2, (1, 0), (1, 0)) == {(2, 0): 1, (0, 1): 1}
    adj = tensor_decompose(a2, (1, 1), (1, 1))
    assert adj[(1, 1)] == 2  # 8x8 contains the adjoint twice
    assert sum(n * weyl_dim(a2, w) for w, n in adj.items()) == 64


@pytest.mark.parametrize("series,rank,mu,expected", [
    ("B", 2, (0, 1), {(0, 0): 1, (1, 0): 1, (0, 2): 1}),  # 4 x 4 = 1 + 5 + 10
    ("G", 2, (0, 1), {(0, 0): 1, (0, 1): 1, (1, 0): 1, (0, 2): 1}),  # 7 x 7 = 1 + 7 + 14 + 27
    ("D", 4, (1, 0, 0, 0), {(0, 0, 0, 0): 1, (0, 1, 0, 0): 1, (2, 0, 0, 0): 1}),  # 8v x 8v
])
def test_tensor_decompose_beyond_type_a(series, rank, mu, expected):
    rs = build_root_system(series, rank)
    assert tensor_decompose(rs, mu, mu) == expected
    assert sum(n * weyl_dim(rs, w) for w, n in expected.items()) == weyl_dim(rs, mu) ** 2


small_weight = st.tuples(st.integers(min_value=0, max_value=3),
                         st.integers(min_value=0, max_value=3))


@settings(max_examples=25, deadline=None)
@given(small_weight, small_weight)
def test_tensor_dimension_count(mu, nu):
    rs = build_root_system("A", 2)
    dec = tensor_decompose(rs, mu, nu)
    assert all(n > 0 for n in dec.values())
    assert (sum(n * weyl_dim(rs, w) for w, n in dec.items())
            == weyl_dim(rs, mu) * weyl_dim(rs, nu))


@settings(max_examples=25, deadline=None)
@given(small_weight, small_weight)
def test_tensor_decompose_symmetric(mu, nu):
    rs = build_root_system("A", 2)
    assert tensor_decompose(rs, mu, nu) == tensor_decompose(rs, nu, mu)


def test_dual_weight():
    a2 = build_root_system("A", 2)
    assert dual_weight(a2, (1, 0)) == (0, 1)
    assert dual_weight(a2, (2, 1)) == (1, 2)
    for rs in (build_root_system("A", 1), build_root_system("B", 2),
               build_root_system("G", 2)):
        assert dual_weight(rs, rs.highest_root) == rs.highest_root


def test_level_of():
    assert level_of(build_root_system("A", 1), (3,)) == 3
    a2 = build_root_system("A", 2)
    assert level_of(a2, (1, 1)) == 2
    assert level_of(a2, (2, 0)) == 2


def test_casimir_values():
    a1 = build_root_system("A", 1)
    assert [casimir_eigenvalue(a1, (m,)) for m in range(4)] == [
        0, Fraction(3, 2), 4, Fraction(15, 2)]
    assert casimir_eigenvalue(build_root_system("A", 2), (1, 0)) == Fraction(8, 3)


def test_dominant_with_sign():
    # the dominant representative with sign (-1)^reflections; on rho-shifted
    # coordinates a chamber wall is a zero coordinate of the representative
    a1 = build_root_system("A", 1)
    assert dominant_with_sign(a1, (3,)) == ((3,), 1)
    assert dominant_with_sign(a1, (0,)) == ((0,), 1)
    assert dominant_with_sign(a1, (-2,)) == ((2,), -1)
    a2 = build_root_system("A", 2)
    assert dominant_with_sign(a2, (-1, -1)) == ((1, 1), -1)  # w_0 has length 3
    assert dominant_with_sign(a2, (2, -1)) == ((1, 1), -1)
    w, sign = dominant_with_sign(a2, (1, -1))  # orthogonal to theta: on a wall
    assert 0 in w and a2.is_dominant(w)


def test_nondominant_weight_rejected():
    rs = build_root_system("A", 1)
    with pytest.raises(InputError):
        casimir_eigenvalue(rs, (-1,))
    with pytest.raises(InputError):
        weyl_dim(rs, (-2,))


def test_irrep_matrices_bracket():
    for m in range(5):
        rep = sl2_irrep_matrices(m)
        d = m + 1
        ef = [[sum(rep.E[i][k] * rep.F[k][j] for k in range(d)) -
               sum(rep.F[i][k] * rep.E[k][j] for k in range(d))
               for j in range(d)] for i in range(d)]
        assert ef == [list(r) for r in rep.H]
        assert [rep.H[i][i] for i in range(d)] == [m - 2 * j for j in range(d)]
