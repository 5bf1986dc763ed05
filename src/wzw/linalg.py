"""Exact linear algebra over the rationals: the package's one matrix kernel.

Every dense exact matrix product, transpose, inverse and determinant in the
package goes through here.  Two layers:

* dense exact matrices (lists of lists of ``int`` or ``Fraction``):
  products, commutators, transposes, inverse and determinant for the Cartan
  data and the sl2 irreps (liealg), the fusion matrices (fusion), the KZ
  connection (kz) and the Shapovalov projections and gluing tensor (fock).
  A product of integer matrices stays integer;
* ``IntSpan``, an incremental fraction-free row-space accumulator over the
  integers, used for the large sparse rank computations in the oracle, kz and
  fock.  Rows are combined by integer cross-multiplication; the working row
  is stripped of its gcd only after a step that scaled it, and a stored row
  always is, so no rounding or rank tolerance ever enters.

``strides`` gives the row-major strides that flatten a multi-index on a
tensor product V_1 (x) ... (x) V_n into one basis index.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Mat = list[list[int | Fraction]]


def identity(n: int) -> Mat:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Mat, b: Mat) -> Mat:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]  # int zeros: integer factors give an integer product
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def commutator(a: Mat, b: Mat) -> Mat:
    """[a, b] = ab - ba."""
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def is_zero(a: Mat) -> bool:
    return all(not x for row in a for x in row)


def invert(a: Mat) -> Mat:
    """Inverse of a square nonsingular matrix; raises ValueError if singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            raise ValueError("singular matrix")
        m[c], m[pr] = m[pr], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def det(a) -> Fraction:
    """Determinant of a square matrix of rationals (or integers)."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            out = -out
        out *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def strides(dims) -> list[int]:
    """Row-major strides: index (i_1, ..., i_n) flattens to sum i_k * strides[k]."""
    out = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        out[i] = out[i + 1] * dims[i + 1]
    return out


def _gcd_normalize(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    lead = row[min(row)]
    if lead < 0:
        row = {c: -v for c, v in row.items()}
    return row


class IntSpan:
    """Incremental row space over the integers, fraction-free.

    Insertion reduces a copy of the new row against the stored pivot rows.
    With pivot lead a and row lead b, both are first divided by g = gcd(a, b);
    the step is r <- (a/g) r - (b/g) p, and it walks the pivot's entries only.
    The working row is scaled, and its gcd stripped, only when a/g != 1; the
    row that is stored is always stripped of its gcd and given a positive
    lead.  rank() is exact; no rounding or rank tolerance ever enters.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: dict[int, int]) -> bool:
        """Insert a sparse integer row; returns True iff the rank grew.

        The argument is not modified.
        """
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = _gcd_normalize(row)
                return True
            a, b = piv[lead], row[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in piv.items():
                nv = row.get(c, 0) - b * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
            if a != 1 and row:
                row = _gcd_normalize(row)
        return False

    def reduce(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        """Residual of a rational row modulo the span (no pivot columns left).

        Pivot rows are echelon, so eliminating in ascending column order
        terminates: each elimination only touches columns to the right.
        """
        out = {c: Fraction(v) for c, v in row.items() if v}
        while True:
            hit = [c for c in out if c in self.pivots]
            if not hit:
                return out
            c = min(hit)
            piv = self.pivots[c]
            f = out[c] / piv[c]
            for col, v in piv.items():
                nv = out.get(col, 0) - f * v
                if nv:
                    out[col] = nv
                else:
                    out.pop(col, None)
