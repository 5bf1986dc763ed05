"""Exact linear algebra: dense Fraction routines and the integer echelon span."""

import itertools
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wzw.linalg import (IntSpan, commutator, det, identity, invert, is_zero, mat_mul,
                        mat_sub, strides, transpose)


def fr(rows):
    return [[Fraction(v) for v in row] for row in rows]


def rref(a):
    """Reduced row echelon form, the dense reference; returns (R, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in a]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(a):
    return len(rref(a)[1])


def test_rref_reports_pivots():
    a = fr([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    reduced, pivots = rref(a)
    assert pivots == [0, 1]
    # pivot columns carry unit vectors after reduction
    for r, c in enumerate(pivots):
        assert reduced[r][c] == 1
        assert all(reduced[i][c] == 0 for i in range(len(reduced)) if i != r)


def test_rank_small_cases():
    assert rank(fr([[1, 2], [2, 4]])) == 1
    assert rank(fr([[1, 0], [0, 1]])) == 2
    assert rank([[0] * 5 for _ in range(3)]) == 0
    assert rank(fr([[Fraction(1, 2), Fraction(1, 3)]])) == 1


def test_invert_roundtrip():
    a = fr([[2, 1, 0], [1, 3, 1], [0, 1, 1]])
    inv = invert(a)
    assert mat_mul(a, inv) == identity(3)
    assert mat_mul(inv, a) == identity(3)


def test_integer_product_stays_integer():
    a, b = [[1, 2], [0, 3]], [[0, 1], [4, 0]]
    prod = mat_mul(a, b)
    assert prod == [[8, 1], [12, 0]]
    assert all(type(x) is int for row in prod for x in row)
    assert all(type(x) is int for row in identity(3) for x in row)
    # rational factors still give the exact rational product
    assert mat_mul(fr([[Fraction(1, 2), 0]]), [[2], [5]]) == [[1]]
    assert mat_mul([[Fraction(1, 3)]], [[Fraction(3, 7)]]) == [[Fraction(1, 7)]]


def test_invert_rejects_singular():
    with pytest.raises(ValueError):
        invert(fr([[1, 2], [2, 4]]))


def test_matrix_helpers():
    a = fr([[1, 2], [3, 4]])
    assert transpose(a) == fr([[1, 3], [2, 4]])
    assert is_zero(mat_sub(a, a))
    assert not is_zero(a)
    assert is_zero(commutator(a, a))
    assert commutator(fr([[0, 1], [0, 0]]), fr([[0, 0], [1, 0]])) == fr([[1, 0], [0, -1]])


def test_det_small_cases():
    assert det([]) == 1
    assert det(fr([[2, 1], [1, 3]])) == 5
    assert det(fr([[0, 1], [1, 0]])) == -1       # needs a row swap
    assert det(fr([[1, 2], [2, 4]])) == 0
    assert det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)


def test_strides_flatten_row_major():
    assert strides([]) == []
    assert strides([5]) == [1]
    assert strides([2, 3, 4]) == [12, 4, 1]
    dims = (2, 3, 2)
    steps = strides(dims)
    flat = [sum(i * s for i, s in zip(idx, steps))
            for idx in itertools.product(*(range(d) for d in dims))]
    assert flat == list(range(2 * 3 * 2))


entries = st.integers(min_value=-7, max_value=7)
int_matrix = st.lists(st.lists(entries, min_size=4, max_size=4),
                      min_size=2, max_size=5)


@st.composite
def square_pair(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    square = st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                               min_size=n, max_size=n), min_size=n, max_size=n)
    return fr(draw(square)), fr(draw(square))


@settings(max_examples=80, deadline=None)
@given(square_pair())
def test_det_is_the_rank_test_and_multiplicative(pair):
    a, b = pair
    n = len(a)
    assert (det(a) == 0) == (rank(a) < n)
    if det(a):
        assert det(a) * det(invert(a)) == 1
    assert det(mat_mul(a, b)) == det(a) * det(b)


@settings(max_examples=60, deadline=None)
@given(int_matrix)
def test_intspan_rank_matches_dense(rows):
    span = IntSpan()
    for row in rows:
        span.add({j: v for j, v in enumerate(row) if v})
    assert span.rank == rank(fr(rows))


@settings(max_examples=60, deadline=None)
@given(int_matrix, st.lists(entries, min_size=2, max_size=5))
def test_intspan_reduce_detects_membership(rows, coeffs):
    span = IntSpan()
    for row in rows:
        span.add({j: v for j, v in enumerate(row) if v})
    combo = {}
    for c, row in zip(coeffs, rows):
        for j, v in enumerate(row):
            if c * v:
                combo[j] = combo.get(j, 0) + Fraction(c * v)
    combo = {j: v for j, v in combo.items() if v}
    assert span.reduce(combo) == {}


@settings(max_examples=60, deadline=None)
@given(int_matrix, st.lists(entries, min_size=4, max_size=4))
def test_intspan_reduce_is_a_projection(rows, probe):
    span = IntSpan()
    for row in rows:
        span.add({j: v for j, v in enumerate(row) if v})
    residual = span.reduce({j: Fraction(v) for j, v in enumerate(probe) if v})
    assert span.reduce(residual) == residual
    # the residual touches no pivot column
    assert not set(residual) & set(span.pivots)


# entries up to 10^6 in size, so that pivot leads are rarely +-1 and add() takes
# its scaled branch; small values and zeros make rows sparse and dependent
coeff = st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                  st.integers(min_value=-3, max_value=3), st.just(0))


@st.composite
def int_rows(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(coeff, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    # integer combinations of earlier rows, which must reduce to zero
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i, j = (draw(st.integers(min_value=0, max_value=len(rows) - 1)) for _ in "ij")
        a, b = draw(coeff), draw(coeff)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return rows


def filled_span(rows):
    span = IntSpan()
    for row in rows:
        span.add({j: v for j, v in enumerate(row) if v})
    return span


# pivot lead 2 against row lead 3: the row is scaled by 2 before the step
SCALED = [[2, 3, 0], [3, 1, 5], [6, 0, 4], [0, 4, 6]]


@settings(max_examples=150, deadline=None)
@given(int_rows())
@example(SCALED)
def test_intspan_pivots_are_the_dense_pivot_columns(rows):
    assert sorted(filled_span(rows).pivots) == rref(rows)[1]


@settings(max_examples=150, deadline=None)
@given(int_rows())
@example(SCALED)
def test_intspan_stored_rows_are_primitive_with_a_positive_lead(rows):
    for lead, piv in filled_span(rows).pivots.items():
        assert min(piv) == lead and piv[lead] > 0
        assert all(piv.values())
        assert reduce(gcd, piv.values()) == 1


@settings(max_examples=150, deadline=None)
@given(int_rows())
@example(SCALED)
def test_intspan_add_reports_growth_and_keeps_its_argument(rows):
    span = IntSpan()
    for row in rows:
        arg = {j: v for j, v in enumerate(row) if v}
        before = list(arg.items())
        rank = span.rank
        grew = span.add(arg)
        assert list(arg.items()) == before
        assert span.rank == rank + grew
        assert grew is (span.rank > rank)
