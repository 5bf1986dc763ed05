"""Independent expectations for wzw outputs: Verlinde numbers and friends.

Nothing here imports wzw. Fusion rules of su(2)_k come from their closed form,
everything else from the Kac-Peterson S-matrix of A_r at level k and the
Verlinde formula (Beauville, arXiv:alg-geom/9405001), in floating point and
rounded to the nearest integer with a tolerance check. Weights are tuples of
fundamental-weight coordinates, as in wzw.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache

ROUND_TOL = 1e-6


def _nearest_int(x: complex) -> int:
    n = round(x.real)
    if abs(x - n) > ROUND_TOL:
        raise ArithmeticError(f"Verlinde sum {x} is not an integer")
    return n


def rank_of(algebra: str) -> int:
    if len(algebra) < 2 or algebra[0] != "A" or not algebra[1:].isdigit():
        raise ValueError(f"only A-series algebras are modelled, got {algebra!r}")
    return int(algebra[1:])


def alphabet(rank: int, level: int) -> tuple[tuple[int, ...], ...]:
    """Dominant weights of A_rank with level (sum of coordinates) <= level."""
    return tuple(mu for mu in itertools.product(range(level + 1), repeat=rank)
                 if sum(mu) <= level)


def _cartan(rank: int) -> list[list[int]]:
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank)]
            for i in range(rank)]


def _weyl_group(rank: int) -> list[tuple[tuple[int, ...], int]]:
    """Every Weyl group element as (matrix, sign).

    The matrix acts on fundamental-weight coordinates; the group is generated
    by s_i(x) = x - x_i alpha_i, with alpha_i the i-th row of the Cartan matrix.
    """
    cartan = _cartan(rank)
    ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))

    def reflect(mat, i):
        # columns of mat are images of the fundamental weights
        cols = list(zip(*mat))
        new_cols = [tuple(col[k] - col[i] * cartan[i][k] for k in range(rank))
                    for col in cols]
        return tuple(zip(*new_cols))

    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for mat in frontier:
            for i in range(rank):
                r = reflect(mat, i)
                if r not in seen:
                    seen[r] = -seen[mat]
                    nxt.append(r)
        frontier = nxt
    return list(seen.items())


def _inverse_cartan(rank: int) -> list[list[Fraction]]:
    # A_r: (w_i, w_j) = min(i, j) (r + 1 - max(i, j)) / (r + 1), 1-based
    n = rank + 1
    return [[Fraction(min(i, j) * (n - max(i, j)), n) for j in range(1, n)]
            for i in range(1, n)]


@lru_cache(maxsize=None)
def s_matrix(rank: int, level: int) -> tuple[tuple[complex, ...], ...]:
    """Kac-Peterson modular S-matrix of A_rank at `level`, alphabet order.

    S_{lam,mu} is proportional to sum_w eps(w) exp(-2 pi i (w(lam+rho),
    mu+rho) / (level + h)); rows are normalised to unit length and the
    common phase is fixed so that S_00 is real and positive.
    """
    labels = alphabet(rank, level)
    shifted = level + rank + 1
    form = _inverse_cartan(rank)
    weyl = _weyl_group(rank)

    def pair(x, y):
        return sum(x[i] * form[i][j] * y[j] for i in range(rank) for j in range(rank))

    raw = []
    for lam in labels:
        lr = tuple(c + 1 for c in lam)
        images = [(tuple(sum(mat[i][j] * lr[j] for j in range(rank))
                         for i in range(rank)), sign) for mat, sign in weyl]
        row = []
        for mu in labels:
            mr = tuple(c + 1 for c in mu)
            row.append(sum(sign * cmath.exp(-2j * math.pi * float(pair(img, mr)) / shifted)
                           for img, sign in images))
        raw.append(row)
    norm = math.sqrt(sum(abs(v) ** 2 for v in raw[0]))
    phase = abs(raw[0][0]) / raw[0][0]
    return tuple(tuple(v * phase / norm for v in row) for row in raw)


def verlinde_dimension(rank: int, level: int, genus: int, labels=()) -> int:
    """dim of the genus-g block with incoming labels: sum_mu S_0mu^(2-2g-n) prod S_lam,mu."""
    alph = alphabet(rank, level)
    index = {mu: a for a, mu in enumerate(alph)}
    s = s_matrix(rank, level)
    total = 0j
    for b in range(len(alph)):
        term = s[0][b] ** (2 - 2 * genus - len(labels))
        for lam in labels:
            term *= s[index[tuple(lam)]][b]
        total += term
    return _nearest_int(total)


def verlinde_coefficient(rank: int, level: int, lam, mu, nu) -> int:
    """N_{lam,mu,nu}: the three-holed sphere, all labels incoming."""
    return verlinde_dimension(rank, level, 0, (lam, mu, nu))


def su2_fusion(level: int, a: int, b: int, c: int) -> int:
    """Closed-form su(2)_k rule: |a-b| <= c <= min(a+b, 2k-a-b), a+b+c even."""
    return int((a + b + c) % 2 == 0 and abs(a - b) <= c <= min(a + b, 2 * level - a - b))


def fusion_coefficients(rank: int, level: int) -> dict[tuple[int, int, int], int]:
    """Every nonzero N over ordered index triples of the alphabet."""
    alph = alphabet(rank, level)
    out = {}
    for i, j, k in itertools.product(range(len(alph)), repeat=3):
        if rank == 1:
            n = su2_fusion(level, alph[i][0], alph[j][0], alph[k][0])
        else:
            n = verlinde_coefficient(rank, level, alph[i], alph[j], alph[k])
        if n:
            out[i, j, k] = n
    return out


def su2_invariants(labels) -> int:
    """Multiplicity of the trivial sl2 module in V_m1 (x) ... (x) V_mn (Clebsch-Gordan)."""
    spins = {0: 1}
    for m in labels:
        nxt: dict[int, int] = {}
        for j, mult in spins.items():
            for k in range(abs(j - m), j + m + 1, 2):
                nxt[k] = nxt.get(k, 0) + mult
        spins = nxt
    return spins.get(0, 0)


def su2_casimir(m: int) -> Fraction:
    """(mu, mu + 2 rho) for the weight m of sl2, long roots of length 2."""
    return Fraction(m * (m + 2), 2)


def kz_exponents(level: int, labels) -> dict[Fraction, int]:
    """Eigenvalues of A_01 on the genus-0 block space, with multiplicities.

    A_01 = -Omega_01 / (l + 2) acts on the fusion channel nu of m0 (x) m1 by
    -(C(nu) - C(m0) - C(m1)) / (2 (l + 2)); the channel's multiplicity is
    the block dimension of (nu, m2, ..., m_{n-1}).
    """
    m0, m1, rest = labels[0], labels[1], tuple(labels[2:])
    out: dict[Fraction, int] = {}
    for nu in range(level + 1):
        if not su2_fusion(level, m0, m1, nu):
            continue
        mult = verlinde_dimension(1, level, 0, ((nu,),) + tuple((m,) for m in rest))
        if mult:
            lam = -(su2_casimir(nu) - su2_casimir(m0) - su2_casimir(m1)) / (2 * (level + 2))
            out[lam] = out.get(lam, 0) + mult
    return out
