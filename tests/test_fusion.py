"""Fusion alphabets, Kac-Walton coefficients, and ring axioms."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzw.errors import InputError
from wzw.fusion import FusionRing, _truncated_product, alphabet, fusion_coeff, fusion_table
from wzw.liealg import build_root_system, dual_weight


def a1_rule(level, l, m, n):
    """Closed-form A1 fusion: parity plus the level-truncated triangle window."""
    if (l + m + n) % 2:
        return 0
    return int(abs(l - m) <= n <= min(l + m, 2 * level - l - m))


def test_alphabet_a1():
    rs = build_root_system("A", 1)
    alph = alphabet(rs, 3)
    assert alph.labels == ((0,), (1,), (2,), (3,))
    assert (3,) in alph and (4,) not in alph


def test_fusion_rows_are_memoized_once_per_product():
    alph = alphabet(build_root_system("A", 2), 3)
    _truncated_product.cache_clear()
    fusion_table(alph)
    assert _truncated_product.cache_info().currsize == len(alph.labels) ** 2
    hits = _truncated_product.cache_info().hits
    alph.row(1, 2)
    assert _truncated_product.cache_info().hits == hits + 1


def test_alphabet_a2():
    rs = build_root_system("A", 2)
    assert len(alphabet(rs, 1).labels) == 3
    assert len(alphabet(rs, 2).labels) == 6


@pytest.mark.parametrize("level", range(5))
def test_a1_matches_closed_form(level):
    rs = build_root_system("A", 1)
    alph = alphabet(rs, level)
    for l, m, n in itertools.product(range(level + 1), repeat=3):
        assert fusion_coeff(alph, (l,), (m,), (n,)) == a1_rule(level, l, m, n), \
            (level, l, m, n)


def test_a2_level_one_is_z3():
    # charge (a,b) -> a+2b mod 3; the coefficient is 1 exactly on zero total charge
    rs = build_root_system("A", 2)
    alph = alphabet(rs, 1)
    for lam, mu, nu in itertools.product(alph.labels, repeat=3):
        charge = sum(w[0] + 2 * w[1] for w in (lam, mu, nu)) % 3
        assert fusion_coeff(alph, lam, mu, nu) == int(charge == 0)


def test_unit_row_is_duality():
    rs = build_root_system("A", 2)
    alph = alphabet(rs, 2)
    for lam, mu in itertools.product(alph.labels, repeat=2):
        want = int(mu == dual_weight(rs, lam))
        assert fusion_coeff(alph, (0, 0), lam, mu) == want


def test_level_zero_is_trivial():
    rs = build_root_system("A", 1)
    alph = alphabet(rs, 0)
    assert alph.labels == ((0,),)
    assert fusion_coeff(alph, (0,), (0,), (0,)) == 1


def test_label_outside_alphabet_rejected():
    rs = build_root_system("A", 1)
    alph = alphabet(rs, 2)
    with pytest.raises(InputError):
        fusion_coeff(alph, (3,), (0,), (1,))
    with pytest.raises(InputError):
        fusion_coeff(alph, (0,), (1,), (3,))
    with pytest.raises(InputError):
        alphabet(rs, -1)


def test_fusion_table_round_trip():
    rs = build_root_system("A", 1)
    alph = alphabet(rs, 4)
    ring = fusion_table(alph)
    assert isinstance(ring, FusionRing)
    for l, m, n in itertools.product(range(5), repeat=3):
        i, j, k = (alph.index((a,)) for a in (l, m, n))
        assert ring.table[i][j][k] == fusion_coeff(alph, (l,), (m,), (n,))
    triples = ring.nonzero_ordered()
    assert triples == sorted(triples)
    assert all(n > 0 for _, n in triples)


a1_label = st.integers(min_value=0, max_value=4)


@settings(max_examples=40, deadline=None)
@given(a1_label, a1_label, a1_label)
def test_coefficient_fully_symmetric(l, m, n):
    rs = build_root_system("A", 1)
    alph = alphabet(rs, 4)
    vals = {fusion_coeff(alph, (a,), (b,), (c,))
            for a, b, c in itertools.permutations((l, m, n))}
    assert len(vals) == 1


@settings(max_examples=40, deadline=None)
@given(a1_label, a1_label)
def test_level_monotone_in_window(l, m):
    # raising the level can only grow the truncated product
    rs = build_root_system("A", 1)
    lo, hi = alphabet(rs, 4), alphabet(rs, 6)
    for n in range(5):
        assert (fusion_coeff(lo, (l,), (m,), (n,))
                <= fusion_coeff(hi, (l,), (m,), (n,)))


def test_a2_level_two_spot_values():
    rs = build_root_system("A", 2)
    alph = alphabet(rs, 2)
    # 3x3 = 6 + 3bar inside the level-2 alphabet
    assert fusion_coeff(alph, (1, 0), (1, 0), dual_weight(rs, (2, 0))) == 1
    assert fusion_coeff(alph, (1, 0), (1, 0), dual_weight(rs, (0, 1))) == 1
    # 8x8 sees the adjoint once only at level 2 (one copy dies by truncation)
    assert fusion_coeff(alph, (1, 1), (1, 1), (1, 1)) == 1


def ising(names):
    sigmas = names.count("sigma")
    return int(sigmas == 2 or (sigmas == 0 and names.count("psi") % 2 == 0))


def fibonacci(names):
    return int(names.count("tau") != 1)


def z2_squared(elements):
    return int(all(sum(g[c] for g in elements) % 2 == 0 for c in range(2)))


@pytest.mark.parametrize("series,rank,names,rule", [
    # B2 level 1 is Ising: sigma.sigma = 1 + psi, sigma.psi = sigma, psi.psi = 1
    ("B", 2, {(0, 0): "1", (0, 1): "sigma", (1, 0): "psi"}, ising),
    # G2 level 1 is Fibonacci: tau.tau = 1 + tau
    ("G", 2, {(0, 0): "1", (0, 1): "tau"}, fibonacci),
    # D4 level 1 is the group ring of Z2 x Z2
    ("D", 4, {(0, 0, 0, 0): (0, 0), (0, 0, 0, 1): (1, 0), (0, 0, 1, 0): (0, 1),
              (1, 0, 0, 0): (1, 1)}, z2_squared),
], ids=["B2", "G2", "D4"])
def test_level_one_rings_match_closed_forms(series, rank, names, rule):
    alph = alphabet(build_root_system(series, rank), 1)
    assert set(alph.labels) == set(names)
    ring = fusion_table(alph)
    for triple in itertools.product(alph.labels, repeat=3):
        i, j, k = map(alph.index, triple)
        assert ring.table[i][j][k] == rule([names[w] for w in triple]), triple


@pytest.mark.parametrize("series,rank,level", [
    ("A", 1, 4), ("A", 2, 3), ("B", 2, 2), ("G", 2, 2), ("D", 4, 1)])
def test_dual_permutation_is_dual_weight(series, rank, level):
    rs = build_root_system(series, rank)
    alph = alphabet(rs, level)
    for i, mu in enumerate(alph.labels):
        assert alph.labels[alph.dual[i]] == dual_weight(rs, mu)
        assert alph.dual[alph.dual[i]] == i
