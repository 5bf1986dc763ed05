"""Fusion alphabets, Kac-Walton coefficients, and ring axioms."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzw import fusion
from wzw.errors import InputError, InternalError
from wzw.fusion import FusionRing, _truncated_product, alphabet, fusion_coeff, fusion_table
from wzw.liealg import build_root_system, dual_weight, weight_multiplicities


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


def test_alphabet_is_not_a_sequence_of_its_fields():
    # the record is a tuple of six fields underneath; nothing may read them as
    # if they were the labels
    alph = alphabet(build_root_system("A", 1), 1)
    reads = [len, list, iter, tuple, sorted, lambda a: a.count(1), lambda a: a[0],
             lambda a: a < a, lambda a: a >= a, lambda a: () < a, lambda a: a + a,
             lambda a: 2 * a]
    for read in reads:
        with pytest.raises(TypeError):
            read(alph)
    assert alph and alph == alph and hash(alph) == hash(alph)
    assert alph.level == 1 and alph.labels == ((0,), (1,)) and (1,) in alph
    assert alph.index((1,)) == 1
    assert repr(alph).startswith("FusionAlphabet(rs=RootSystem(A1), level=1, labels=((0,), (1,))")


def test_fusion_rows_are_memoized_once_per_product():
    alph = alphabet(build_root_system("A", 2), 3)
    _truncated_product.cache_clear()
    weight_multiplicities.cache_clear()
    fusion_table(alph)
    assert _truncated_product.cache_info().currsize == len(alph.labels) ** 2 == 100
    # each label's weight diagram is built once, not once per product
    assert 0 < weight_multiplicities.cache_info().misses <= len(alph.labels)
    hits = _truncated_product.cache_info().hits
    alph.row(1, 2)
    assert _truncated_product.cache_info().hits == hits + 1


@pytest.fixture
def fresh_memos():
    """Empty row and diagram memos, before and after: a memoized row would hide
    an injected fault, and a broken one would leak into later tests."""
    for memo in (_truncated_product, weight_multiplicities):
        memo.cache_clear()
    yield
    for memo in (_truncated_product, weight_multiplicities):
        memo.cache_clear()


def break_rows(monkeypatch, entries):
    """Route every row through fusion._truncated_product with +1 at each (i, j, k)."""
    real = fusion._truncated_product

    def broken(alph, i, j):
        row = list(real(alph, i, j))
        for a, b, k in entries:
            if (a, b) == (i, j):
                row[k] += 1
        return tuple(row)

    monkeypatch.setattr(fusion, "_truncated_product", broken)


def s3_orbit(triple):
    return set(itertools.permutations(triple))


@pytest.mark.parametrize("entries,level,message", [
    # (12)-symmetric, so only the (23) transposition sees it
    ({(1, 2, 3), (2, 1, 3)}, 3, "fusion axiom 'symmetry' violated at ((1,),(2,),(3,))"),
    (s3_orbit((0, 1, 1)), 3, "fusion axiom 'unit/duality' violated at (0,(1,))"),
    # fully symmetric and off the unit row: only M_1 M_2 = M_2 M_1 can fail, at
    # the pair with the last label (1) x (2)
    (s3_orbit((2, 2, 2)), 2, "fusion axiom 'associativity' violated: "
                             "M_(1,) and M_(2,) do not commute"),
], ids=["symmetry-23", "unit-duality", "associativity-last-label"])
def test_fusion_table_rejects_a_broken_row(monkeypatch, fresh_memos, entries, level,
                                           message):
    break_rows(monkeypatch, entries)
    with pytest.raises(InternalError, match=f"^{re.escape(message)}$"):
        fusion_table(alphabet(build_root_system("A", 1), level))


def test_kac_walton_rejects_a_negative_multiplicity(monkeypatch, fresh_memos):
    real = fusion.weight_multiplicities
    monkeypatch.setattr(fusion, "weight_multiplicities",
                        lambda rs, mu: {w: -m for w, m in real(rs, mu).items()})
    message = "negative fusion multiplicity in (1,) x (1,) at level 2"
    with pytest.raises(InternalError, match=f"^{re.escape(message)}$"):
        alphabet(build_root_system("A", 1), 2).row(1, 1)


def test_kac_walton_rejects_a_product_outside_the_alphabet(fresh_memos):
    # the level-2 A1 alphabet without its top label: (1,) x (1,) = (0,) + (2,)
    rs = build_root_system("A", 1)
    full = alphabet(rs, 2)
    short = fusion.FusionAlphabet(rs, 2, full.labels[:2], (0, 1), full.weyl_dims[:2],
                                  {(0,): 0, (1,): 1})
    assert short.row(0, 1) == (0, 1)
    message = "fusion axiom 'closure' violated: (1,) x (1,) contains (2,) outside the alphabet"
    with pytest.raises(InternalError, match=f"^{re.escape(message)}$"):
        short.row(1, 1)


def test_each_weyl_dimension_is_read_once_per_label(monkeypatch, fresh_memos):
    # the alphabet tabulates them; a product picks its smaller factor from the table
    calls = []
    real = fusion.weyl_dim
    monkeypatch.setattr(fusion, "weyl_dim", lambda rs, mu: calls.append(mu) or real(rs, mu))
    alph = alphabet.__wrapped__(build_root_system("A", 2), 4)  # a fresh instance
    fusion_table(alph)
    assert alph.weyl_dims == tuple(real(alph.rs, mu) for mu in alph.labels)
    assert sorted(calls) == list(alph.labels)


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
