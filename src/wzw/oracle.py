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
(sum_i z_i E^(i))^(1+l).
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


def _diagonal_rows(labels):
    """Images of every basis vector under diagonal E, F, H as sparse rows."""
    dims = [m + 1 for m in labels]
    stride = strides(dims)
    rows = []
    for idx in product(*(range(d) for d in dims)):
        flat = sum(i * s for i, s in zip(idx, stride))
        e_row, f_row, h_row = {}, {}, {}
        for slot, (m, j) in enumerate(zip(labels, idx)):
            if j >= 1:  # E v_j = j(m-j+1) v_{j-1}
                e_row[flat - stride[slot]] = e_row.get(flat - stride[slot], 0) \
                    + j * (m - j + 1)
            if j < m:   # F v_j = v_{j+1}
                f_row[flat + stride[slot]] = f_row.get(flat + stride[slot], 0) + 1
            h_row[flat] = h_row.get(flat, 0) + (m - 2 * j)
        rows.extend(r for r in (e_row, f_row, h_row) if any(r.values()))
    return rows


def three_point_rank(level: int, m1: int, m2: int, m3: int) -> int:
    rank, _ = three_point_ranks(level, m1, m2, m3)
    return rank


def three_point_ranks(level: int, m1: int, m2: int, m3: int) -> tuple[int, int]:
    """(block rank, classical coinvariant rank) for the 3-holed sphere."""
    labels = (m1, m2, m3)
    _validate_labels(level, labels)
    dims = [m + 1 for m in labels]
    stride = strides(dims)
    total = dims[0] * dims[1] * dims[2]

    span = IntSpan()
    for row in _diagonal_rows(labels):
        span.add(row)
    classical = total - span.rank

    # E^p v_j is a nonzero multiple of v_{j-p} exactly when p <= j, so the
    # rows E^p (x) E^q (x) E^r applied to the basis span the basis vectors
    # they hit; each is added once
    targets = set()
    for p, q, r in product(range(m1 + 1), range(m2 + 1), range(m3 + 1)):
        if p + q + r <= level:
            continue
        for j1, j2, j3 in product(range(p, dims[0]), range(q, dims[1]), range(r, dims[2])):
            targets.add((j1 - p) * stride[0] + (j2 - q) * stride[1] + (j3 - r) * stride[2])
    for tgt in sorted(targets):
        span.add({tgt: 1})
    return total - span.rank, classical


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

    dims = [m + 1 for m in labels]
    stride = strides(dims)
    total = 1
    for d in dims:
        total *= d

    span = IntSpan()
    for row in _diagonal_rows(labels):
        span.add(row)
    classical = total - span.rank

    # image of T^{1+l}, T = sum_i z_i E^{(i)}, by iterated application
    def apply_t(vec: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for flat, coeff in vec.items():
            idx = []
            rest = flat
            for s in stride:
                idx.append(rest // s)
                rest %= s
            for slot, (m, j) in enumerate(zip(labels, idx)):
                if j >= 1:
                    tgt = flat - stride[slot]
                    out[tgt] = out.get(tgt, 0) + coeff * zint[slot] * j * (m - j + 1)
        return {k: v for k, v in out.items() if v}

    for start in range(total):
        vec = {start: 1}
        for _ in range(problem.level + 1):
            vec = apply_t(vec)
            if not vec:
                break
        if vec:
            span.add(vec)
    return total - span.rank, classical


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
