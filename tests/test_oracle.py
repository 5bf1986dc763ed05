"""Coinvariant-rank oracles for labeled points on the line."""

import itertools
from fractions import Fraction

import pytest

from wzw.errors import InputError
from wzw.linalg import IntSpan
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
