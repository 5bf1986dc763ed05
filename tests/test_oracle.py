"""Coinvariant-rank oracles for labeled points on the line."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from wzw.errors import InputError
from wzw.linalg import IntSpan, strides
from wzw.oracle import (CoinvariantProblem, npoint_block_rank, npoint_block_ranks,
                        propagation_check, three_point_rank, three_point_ranks)


def classical_triple(l, m, n):
    # dimension of invariants in V_l (x) V_m (x) V_n: triangle window, no truncation
    if (l + m + n) % 2:
        return 0
    return int(abs(l - m) <= n <= l + m)


def test_three_point_classical_rank():
    for l, m, n in itertools.product(range(4), repeat=3):
        _, classical = three_point_ranks(3, l, m, n)
        assert classical == classical_triple(l, m, n), (l, m, n)


def test_three_point_inserts_each_truncation_target_once(monkeypatch):
    # 354 diagonal rows, then at most one row per basis vector of the 125-dim
    # V_4 (x) V_4 (x) V_4
    calls = []
    add = IntSpan.add
    monkeypatch.setattr(IntSpan, "add", lambda self, row: calls.append(row) or add(self, row))
    assert three_point_ranks(4, 4, 4, 4) == (0, 1)
    assert len(calls) <= 354 + 125


@pytest.fixture
def added_rows(monkeypatch):
    """Every row the oracle passes to IntSpan.add, in order."""
    calls = []
    add = IntSpan.add
    monkeypatch.setattr(IntSpan, "add", lambda self, row: calls.append(row) or add(self, row))
    return calls


def _weight(labels, flat):
    """H-weight of the basis vector at a flat index of V_1 (x) ... (x) V_n."""
    idx = [flat // s % (m + 1) for m, s in zip(labels, strides([m + 1 for m in labels]))]
    return sum(m - 2 * j for m, j in zip(labels, idx))


@pytest.mark.parametrize("query,labels", [
    (lambda: three_point_ranks(4, 4, 4, 4), (4, 4, 4)),
    (lambda: npoint_block_ranks(CoinvariantProblem(
        5, (4, 4, 4, 2), tuple(Fraction(p) for p in (-3, 1, 7, 2)))), (4, 4, 4, 2)),
], ids=["three-point", "npoint"])
def test_only_weight_zero_rows_are_eliminated(added_rows, query, labels):
    query()
    assert added_rows
    assert {_weight(labels, c) for row in added_rows for c in row} == {0}


def test_three_point_row_count_is_read_off_the_weights(added_rows):
    # the E rows of the weight -2 vectors, the F rows of the weight +2 vectors,
    # and one unit row per weight-zero truncation target: each weight-zero
    # v_{j1} (x) v_{j2} (x) v_{j3} of V_4 (x) V_4 (x) V_4 is E^p (x) E^q (x) E^r
    # of some basis vector with p + q + r = 12 - (j1 + j2 + j3) = 6 > 4
    assert three_point_ranks(4, 4, 4, 4) == (0, 1)
    weights = Counter(12 - 2 * sum(idx) for idx in itertools.product(range(5), repeat=3))
    assert len(added_rows) == weights[-2] + weights[2] + weights[0] == 18 + 18 + 19


def test_three_point_level_truncation_bites():
    # (1,1,0) fits at level 1; (1,1,2) needs level 2
    assert three_point_rank(1, 1, 1, 0) == 1
    assert three_point_rank(1, 1, 1, 1) == 0
    assert three_point_rank(2, 1, 1, 2) == 1
    # classical rank ignores the level: these couple classically but not fused
    rank, classical = three_point_ranks(2, 2, 2, 2)
    assert (rank, classical) == (0, 1)
    rank, classical = three_point_ranks(3, 3, 3, 2)
    assert (rank, classical) == (0, 1)


def test_npoint_matches_three_point():
    z = (Fraction(0), Fraction(1), Fraction(3))
    for l, m, n in itertools.product(range(3), repeat=3):
        p = CoinvariantProblem(2, (l, m, n), z)
        assert npoint_block_ranks(p) == three_point_ranks(2, l, m, n)


def test_npoint_four_point_values():
    z = (Fraction(0), Fraction(1), Fraction(2), Fraction(5))
    rank, classical = npoint_block_ranks(CoinvariantProblem(1, (1, 1, 1, 1), z))
    assert (rank, classical) == (1, 2)
    rank, classical = npoint_block_ranks(CoinvariantProblem(2, (1, 1, 1, 1), z))
    assert (rank, classical) == (2, 2)


def test_rank_independent_of_points():
    configs = [(Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
               (Fraction(-5), Fraction(1, 3), Fraction(2), Fraction(11)),
               (Fraction(7), Fraction(-2), Fraction(1, 2), Fraction(-9))]
    ranks = {npoint_block_rank(CoinvariantProblem(1, (1, 1, 1, 1), z))
             for z in configs}
    assert ranks == {1}


def test_ranks_invariant_under_scaling_the_points():
    # T^{1+l} only scales by c^{1+l}, so its image, and both ranks, stay put
    z = (Fraction(1, 2), Fraction(-3, 7), Fraction(5), Fraction(2, 3))
    for level, labels in [(1, (1, 1, 1, 1)), (2, (2, 1, 2, 1)), (3, (1, 2, 3, 2))]:
        want = npoint_block_ranks(CoinvariantProblem(level, labels, z))
        for c in (Fraction(-1), Fraction(3, 5), Fraction(-7, 2), Fraction(42)):
            scaled = tuple(c * p for p in z)
            assert npoint_block_ranks(CoinvariantProblem(level, labels, scaled)) == want


def test_propagation_preserves_rank():
    assert propagation_check(1, (1, 1), (Fraction(0), Fraction(1)))
    assert propagation_check(2, (2, 1, 1), (Fraction(0), Fraction(1), Fraction(4)))


def test_input_validation():
    with pytest.raises(InputError):
        npoint_block_rank(CoinvariantProblem(1, (2,), (Fraction(0),)))
    with pytest.raises(InputError):
        npoint_block_rank(CoinvariantProblem(1, (1, 1), (Fraction(0), Fraction(0))))
    with pytest.raises(InputError):
        npoint_block_rank(CoinvariantProblem(1, (1, 1), (Fraction(0),)))
    with pytest.raises(InputError):
        npoint_block_rank(CoinvariantProblem(1, (1, 1), None))
    with pytest.raises(InputError):
        three_point_rank(-1, 0, 0, 0)


@pytest.mark.parametrize("level,labels,want", [
    (4, (2, 2, 2, 2, 2, 2), (11, 15)),
    (5, (3, 3, 3, 3, 2), (6, 9)),
    (5, (4, 4, 4, 2), (1, 3)),
])
def test_benchmark_sized_ranks(level, labels, want):
    # the Verlinde and Clebsch-Gordan numbers, at two point sets each
    n = len(labels)
    for z in (range(n), (-20, 17, Fraction(3, 2), -5, 11, 8)[:n]):
        problem = CoinvariantProblem(level, labels, tuple(Fraction(p) for p in z))
        assert npoint_block_ranks(problem) == want


# -- the full-span oracle, kept as a reference ------------------------------
# It eliminates the diagonal E, F, H rows and the truncation or T^{1+l} rows of
# every basis vector, over every weight; the oracle keeps only weight zero.

def _reference_diagonal_rows(labels):
    dims = [m + 1 for m in labels]
    stride = strides(dims)
    rows = []
    for idx in itertools.product(*(range(d) for d in dims)):
        flat = sum(i * s for i, s in zip(idx, stride))
        e_row, f_row, h_row = {}, {}, {}
        for slot, (m, j) in enumerate(zip(labels, idx)):
            if j >= 1:
                e_row[flat - stride[slot]] = e_row.get(flat - stride[slot], 0) \
                    + j * (m - j + 1)
            if j < m:
                f_row[flat + stride[slot]] = f_row.get(flat + stride[slot], 0) + 1
            h_row[flat] = h_row.get(flat, 0) + (m - 2 * j)
        rows.extend(r for r in (e_row, f_row, h_row) if any(r.values()))
    return sorted(rows, key=len)


def reference_three_point_ranks(level, m1, m2, m3):
    labels = (m1, m2, m3)
    dims = [m + 1 for m in labels]
    stride = strides(dims)
    total = dims[0] * dims[1] * dims[2]
    span = IntSpan()
    for row in _reference_diagonal_rows(labels):
        span.add(row)
    classical = total - span.rank
    targets = set()
    for p, q, r in itertools.product(range(m1 + 1), range(m2 + 1), range(m3 + 1)):
        if p + q + r <= level:
            continue
        for j1, j2, j3 in itertools.product(range(p, dims[0]), range(q, dims[1]),
                                            range(r, dims[2])):
            targets.add((j1 - p) * stride[0] + (j2 - q) * stride[1] + (j3 - r) * stride[2])
    for tgt in sorted(targets):
        span.add({tgt: 1})
    return total - span.rank, classical


def reference_npoint_block_ranks(problem):
    labels = tuple(problem.labels)
    z = tuple(Fraction(p) for p in problem.points)
    lcm = 1
    for p in z:
        lcm = lcm // gcd(lcm, p.denominator) * p.denominator
    zint = tuple(int(p * lcm) for p in z)
    dims = [m + 1 for m in labels]
    stride = strides(dims)
    total = 1
    for d in dims:
        total *= d
    span = IntSpan()
    for row in _reference_diagonal_rows(labels):
        span.add(row)
    classical = total - span.rank
    t_table = [[(flat - stride[slot], zint[slot] * j * (m - j + 1))
                for slot, (m, j) in enumerate(zip(labels, idx)) if j >= 1 and zint[slot]]
               for flat, idx in enumerate(itertools.product(*(range(d) for d in dims)))]
    for start in range(total):
        vec = {start: 1}
        for _ in range(problem.level + 1):
            out = {}
            for flat, coeff in vec.items():
                for tgt, w in t_table[flat]:
                    out[tgt] = out.get(tgt, 0) + coeff * w
            vec = {k: v for k, v in out.items() if v}
            if not vec:
                break
        if vec:
            span.add(vec)
    return total - span.rank, classical


def _assert_npoint_matches_reference(level, labels, z):
    problem = CoinvariantProblem(level, labels, tuple(Fraction(p) for p in z))
    assert npoint_block_ranks(problem) == reference_npoint_block_ranks(problem), \
        (level, labels, z)


@pytest.mark.parametrize("level", range(5))
def test_three_point_matches_the_full_span_reference(level):
    for labels in itertools.product(range(level + 1), repeat=3):
        assert three_point_ranks(level, *labels) == \
            reference_three_point_ranks(level, *labels), (level, labels)


def test_npoint_matches_the_full_span_reference_on_the_rank_z_grid():
    # the grid of `verify rank-z-independence`: every label tuple at l <= 2,
    # n <= 4, three sampled point sets each
    rng = random.Random(271828)
    for level in range(3):
        for n in range(1, 5):
            for labels in itertools.product(range(level + 1), repeat=n):
                for _ in range(3):
                    _assert_npoint_matches_reference(level, labels,
                                                     rng.sample(range(-40, 41), n))


@pytest.mark.parametrize("level", range(4))
def test_npoint_matches_the_full_span_reference_up_to_five_points(level):
    # every ordering of the labels up to four points; at five, one ordering
    # of each multiset (all 1024 at l = 3 take the reference seconds)
    point_sets = [(0, 1, 3, -2, 7),
                  (Fraction(1, 2), Fraction(-3, 7), 5, Fraction(2, 3), Fraction(-11, 4))]
    cases = [labels for n in range(1, 5)
             for labels in itertools.product(range(level + 1), repeat=n)]
    cases += itertools.combinations_with_replacement(range(level + 1), 5)
    for labels in cases:
        for z in point_sets:
            _assert_npoint_matches_reference(level, labels, z[:len(labels)])


@pytest.mark.parametrize("level,labels", [
    (4, (2, 2, 2, 2, 2, 2)), (5, (3, 3, 3, 3, 2)), (5, (4, 4, 4, 2))])
def test_benchmark_inputs_match_the_full_span_reference(level, labels):
    n = len(labels)
    for z in (range(n), (-20, 17, Fraction(3, 2), -5, 11, 8)[:n]):
        _assert_npoint_matches_reference(level, labels, tuple(z))
