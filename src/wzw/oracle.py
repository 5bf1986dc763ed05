"""Brute-force ground truth for A1 conformal-block ranks.

Everything here is deliberately dumb: explicit spanning sets, exact
fraction-free rank.  The fast paths elsewhere are validated against these
numbers: the fusion rules by the oracle-equivalence check, the KZ block and
classical dimensions by the test suite.  So this module must not share code
or cleverness with them, nor they with it; it uses nothing of the package
but errors and the linalg kernel.

The genus-zero characterization implemented verbatim: the three-point block
is the biggest quotient of V_1 (x) V_2 (x) V_3 killed by the diagonal action
and by every E^p (x) E^q (x) E^r with p+q+r > l; the n-point block at distinct
points z_i is the quotient of the classical coinvariants by the image of
(sum_i z_i E^(i))^(1+l).  T = sum_i z_i E^(i) is tabulated once per query as a
sparse table, one list of (target, z_i j(m-j+1)) pairs per basis vector, and
the image of each basis vector is read off by l+1 passes through the table.

Only the weight-zero part of the span is eliminated.  Every spanning row has a
single H-weight, and the H row of a basis vector of weight w != 0 is w times
that vector, so the H rows span every nonzero-weight column and any row of
nonzero weight reduces to zero against them.  A rank is therefore the number
of weight-zero basis vectors minus the rank of the rows that land in weight
zero: the E rows of the weight -2 vectors, the F rows of the weight +2 vectors,
and the truncation targets or the T^(1+l) images of the weight -2(1+l) vectors.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import gcd

from .errors import InputError
from .linalg import IntSpan, strides


class CoinvariantProblem(namedtuple("CoinvariantProblem", "level labels points",
                                    defaults=(None,))):
    """One block-rank query: sl2 labels at a level, at the points z_i when given."""

    __slots__ = ()


def _validate_labels(level, labels):
    if not isinstance(level, int) or level < 0:
        raise InputError(f"level must be a nonnegative integer, got {level!r}")
    for m in labels:
        if not isinstance(m, int) or m < 0:
            raise InputError(f"labels must be nonnegative integers, got {m!r}")
        if m > level:
            raise InputError(f"label {m} exceeds level {level}; not in the alphabet")


def _classical_span(labels):
    """Basis vectors grouped by H-weight, and the span of the diagonal rows.

    v_j in V_m has weight m - 2j, and a basis vector of the tensor product the
    sum over its slots.  E raises a weight by 2 and F lowers it by 2, so the
    diagonal E rows of the weight -2 vectors and the F rows of the weight +2
    vectors are the ones that land in weight zero.  Returns (vectors by weight,
    strides, span of those rows); a vector is a (flat index, multi-index) pair.
    """
    stride = strides([m + 1 for m in labels])
    top = sum(labels)
    spaces: dict[int, list] = {}
    for flat, idx in enumerate(product(*(range(m + 1) for m in labels))):
        spaces.setdefault(top - 2 * sum(idx), []).append((flat, idx))
    rows = [{flat - stride[slot]: j * (m - j + 1)  # E v_j = j(m-j+1) v_{j-1}
             for slot, (m, j) in enumerate(zip(labels, idx)) if j >= 1}
            for flat, idx in spaces.get(-2, ())]
    rows += [{flat + stride[slot]: 1  # F v_j = v_{j+1}
              for slot, (m, j) in enumerate(zip(labels, idx)) if j < m}
             for flat, idx in spaces.get(2, ())]
    # latest lead column first: a row whose lead holds no pivot yet is stored
    # without a reduction step.  The order cannot change a rank.
    span = IntSpan()
    for row in sorted(rows, key=min, reverse=True):
        span.add(row)
    return spaces, stride, span


def three_point_rank(level: int, m1: int, m2: int, m3: int) -> int:
    rank, _ = three_point_ranks(level, m1, m2, m3)
    return rank


def three_point_ranks(level: int, m1: int, m2: int, m3: int) -> tuple[int, int]:
    """(block rank, classical coinvariant rank) for the 3-holed sphere."""
    labels = (m1, m2, m3)
    _validate_labels(level, labels)
    spaces, stride, span = _classical_span(labels)
    zero = {flat for flat, _ in spaces.get(0, ())}
    classical = len(zero) - span.rank

    # E^p v_j is a nonzero multiple of v_{j-p} exactly when p <= j, so the
    # rows E^p (x) E^q (x) E^r applied to the basis span the basis vectors
    # they hit; each weight-zero one is added once
    targets = set()
    for p, q, r in product(range(m1 + 1), range(m2 + 1), range(m3 + 1)):
        if p + q + r <= level:
            continue
        for j1, j2, j3 in product(range(p, m1 + 1), range(q, m2 + 1), range(r, m3 + 1)):
            targets.add((j1 - p) * stride[0] + (j2 - q) * stride[1] + (j3 - r) * stride[2])
    for tgt in sorted(targets & zero):
        span.add({tgt: 1})
    return len(zero) - span.rank, classical


def npoint_block_rank(problem: CoinvariantProblem) -> int:
    rank, _ = npoint_block_ranks(problem)
    return rank


def npoint_block_ranks(problem: CoinvariantProblem) -> tuple[int, int]:
    """(block rank, classical coinvariant rank) for labeled points on the line."""
    labels = tuple(problem.labels)
    _validate_labels(problem.level, labels)
    if problem.points is None:
        raise InputError("n-point problem needs explicit points")
    z = tuple(Fraction(p) for p in problem.points)
    if len(z) != len(labels):
        raise InputError(f"{len(labels)} labels but {len(z)} points")
    if len(set(z)) != len(z):
        raise InputError("points must be pairwise distinct, got "
                         + ",".join(str(p) for p in z))
    # (D T)^{1+l} = D^{1+l} T^{1+l} spans the same rows, so scaling the points
    # by the lcm D of their denominators keeps every coefficient an integer
    lcm = 1
    for p in z:
        lcm = lcm // gcd(lcm, p.denominator) * p.denominator
    zint = tuple(int(p * lcm) for p in z)

    spaces, stride, span = _classical_span(labels)
    zero = len(spaces.get(0, ()))
    classical = zero - span.rank

    # T raises the weight by 2, so T^{1+l} takes exactly the vectors of weight
    # -2(1+l) into weight zero, through the weights -2(1+l), ..., -2.  T as a
    # sparse table on those: the (target, coefficient) pairs of the image of
    # each, E v_j = j(m-j+1) v_{j-1}
    steps = problem.level + 1
    t_table = {flat: [(flat - stride[slot], zint[slot] * j * (m - j + 1))
                      for slot, (m, j) in enumerate(zip(labels, idx))
                      if j >= 1 and zint[slot]]
               for weight in range(-2 * steps, 0, 2) for flat, idx in spaces.get(weight, ())}

    # image of T^{1+l} by iterated application
    for start, _ in spaces.get(-2 * steps, ()):
        vec = {start: 1}
        for _ in range(steps):
            out: dict[int, int] = {}
            for flat, coeff in vec.items():
                for tgt, w in t_table[flat]:
                    out[tgt] = out.get(tgt, 0) + coeff * w
            vec = {k: v for k, v in out.items() if v}
            if not vec:
                break
        if vec:
            span.add(vec)
    return zero - span.rank, classical


def propagation_check(level: int, labels, z) -> bool:
    """Does inserting a trivially labeled fresh point preserve the block rank?"""
    labels = tuple(labels)
    z = tuple(Fraction(p) for p in z)
    base = npoint_block_rank(CoinvariantProblem(level, labels, z))
    fresh = Fraction(0)
    while fresh in z:
        fresh += 1
    grown = npoint_block_rank(CoinvariantProblem(level, labels + (0,), z + (fresh,)))
    return base == grown
