"""Root systems, weights, and finite-dimensional representation combinatorics.

Conventions used throughout the package:

* weights are tuples of integers in fundamental-weight coordinates, so the
  i-th coordinate of x is the pairing with the i-th simple coroot;
* cartan[i][j] = 2(a_i, a_j)/(a_i, a_i) for simple roots a_i, so the
  coordinate vector of a_j is column j of the Cartan matrix;
* `dominant_with_sign` is the one chamber walk (duals, Freudenthal and the
  Kac-Walton fold); on rho-shifted weights a zero coordinate is a wall;
* the invariant form is normalized so long roots have squared length 2
  (equivalently, the dual form on the algebra gives c(theta, theta) = 2);
  it is stored as the integer Gram matrix `gram` = D * form on fundamental
  weights over its one denominator D (A1 2, A2 3, B2 2, G2 3, D4 2).

Everything runs on integers: `pair` is D times the form, the D cancels in
the Weyl-dimension and Freudenthal quotients, and every quotient that must
be integral is taken with `divmod` and its remainder checked.  Only `form`
and `casimir_eigenvalue` return the rational value, as `Fraction(., D)`;
nothing in this module floats.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from .errors import InputError, InternalError
from .linalg import commutator, identity, invert, is_zero, mat_mul

Weight = tuple[int, ...]

# the algebras some check or test covers: A1 and A2 through `verify`, B2, G2
# and D4 through the ring and genus-2 tests; a_2 is the short root of B2 and G2
_CARTAN = {
    ("A", 1): ((2,),),
    ("A", 2): ((2, -1), (-1, 2)),
    ("B", 2): ((2, -1), (-2, 2)),
    ("G", 2): ((2, -1), (-3, 2)),
    ("D", 4): ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
}
_NAMES = ", ".join(f"{series}{rank}" for series, rank in _CARTAN)


def _half_lengths(cartan: list[list[int]]) -> list[Fraction]:
    """d_i = (a_i,a_i)/2, propagated along the Dynkin graph, long roots -> 1."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan[i][j] and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                stack.append(j)
    if any(x is None for x in d):
        raise InternalError("disconnected Dynkin diagram")
    top = max(d)
    return [x / top for x in d]


class RootSystem(namedtuple("RootSystem", "series rank cartan_matrix simple_roots gram denominator "
                            "pos_roots root_columns highest_root rho dual_coxeter")):
    """The root data of one algebra; `simple_roots[i]` is a_i, column i of the
    Cartan matrix, and `root_columns[k]` is column(pos_roots[k])."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return f"{self.series}{self.rank}"

    def column(self, y) -> tuple[int, ...]:
        """gram * y, so that pair(x, y) is the dot product of x with it."""
        return tuple(sum(gij * yj for gij, yj in zip(row, y)) for row in self.gram)

    def pair(self, x, y) -> int:
        """denominator * form(x, y), an integer on integral weights."""
        return sum(xi * ci for xi, ci in zip(x, self.column(y)))

    def form(self, x, y) -> Fraction:
        return Fraction(self.pair(x, y), self.denominator)

    def is_dominant(self, mu) -> bool:
        return len(mu) == self.rank and all(isinstance(c, int) and c >= 0 for c in mu)

    def reflect(self, x: tuple, i: int) -> tuple:
        """Simple reflection s_i(x) = x - <x, coroot_i> a_i."""
        return tuple(xj - x[i] * aij for xj, aij in zip(x, self.simple_roots[i]))

    def __repr__(self) -> str:
        return f"RootSystem({self.name})"


def parse_algebra(name: str) -> tuple[str, int]:
    m = re.fullmatch(r"([A-G])(\d+)", name.strip())
    if not m:
        raise InputError(f"cannot parse algebra name {name!r}; choose one of {_NAMES}")
    return m.group(1), int(m.group(2))


@lru_cache(maxsize=None)
def build_root_system(series: str, rank: int) -> RootSystem:
    cartan = _CARTAN.get((series, rank))
    if cartan is None:
        raise InputError(f"algebra {series}{rank} is not supported; choose one of {_NAMES}")
    return _root_system(series, rank, cartan)


def root_system(name: str) -> RootSystem:
    """The root system of an algebra name such as 'A1'."""
    return build_root_system(*parse_algebra(name))


def _root_system(series: str, rank: int, cartan) -> RootSystem:
    """Root data of a Cartan matrix, with its finite type and normalization checked."""
    d = _half_lengths(cartan)

    # a connected Cartan matrix A is of finite type exactly when A^-1 has
    # positive entries (Kac, Infinite-dimensional Lie algebras, Thm 4.3: then
    # u = A^-1 (1, ..., 1) > 0 and A u > 0); a singular A is not
    try:
        ainv = invert(cartan)
        finite = all(x > 0 for row in ainv for x in row)
    except ValueError:
        finite = False
    if not finite:
        raise InternalError(f"Cartan matrix of {series}{rank} is not of finite type")
    form = [[ainv[j][i] * d[j] for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        for j in range(rank):
            if form[i][j] != form[j][i]:
                raise InternalError("invariant form is not symmetric")
    denominator = lcm(*(f.denominator for row in form for f in row))
    gram = [[int(f * denominator) for f in row] for row in form]

    simple = tuple(zip(*cartan))
    pos = _positive_roots(simple)
    max_ht = max(pos.values())
    tops = [b for b, h in pos.items() if h == max_ht]
    if len(tops) != 1:
        raise InternalError("highest root is not unique")
    theta = tops[0]

    def column(y):
        return tuple(sum(g * yj for g, yj in zip(row, y)) for row in gram)

    def pair(x, y):
        return sum(xi * ci for xi, ci in zip(x, column(y)))

    if pair(theta, theta) != 2 * denominator:
        raise InternalError("form(theta,theta) != 2; normalization broken")
    rho = (1,) * rank
    h_minus_one, rem = divmod(pair(rho, theta), denominator)
    if rem:
        raise InternalError("dual Coxeter number is not an integer")

    pos_roots = tuple(sorted(pos, key=lambda b: (pos[b], b)))
    return RootSystem(series=series, rank=rank,
                      cartan_matrix=tuple(tuple(r) for r in cartan), simple_roots=simple,
                      gram=tuple(tuple(r) for r in gram), denominator=denominator,
                      pos_roots=pos_roots,
                      root_columns=tuple(column(alpha) for alpha in pos_roots),
                      highest_root=theta, rho=rho,
                      dual_coxeter=1 + h_minus_one)


def _positive_roots(simple: tuple[Weight, ...]) -> dict[Weight, int]:
    """All positive roots (fundamental-weight coordinates) with their heights.

    Built by height via root strings: beta + a_i is a root iff q >= 1 where
    q = p - <beta, coroot_i> and p is how far the string extends downward.
    """
    n = len(simple)
    roots: dict[Weight, int] = {simple[i]: 1 for i in range(n)}
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            h = roots[beta]
            for i in range(n):
                p = 0
                down = tuple(b - a for b, a in zip(beta, simple[i]))
                while down in roots:
                    p += 1
                    down = tuple(b - a for b, a in zip(down, simple[i]))
                if p - beta[i] >= 1:
                    up = tuple(b + a for b, a in zip(beta, simple[i]))
                    if up not in roots:
                        roots[up] = h + 1
                        nxt.append(up)
        frontier = nxt
    return roots


def _require_dominant(rs: RootSystem, mu) -> Weight:
    mu = tuple(mu)
    if not rs.is_dominant(mu):
        raise InputError(f"weight {mu} is not dominant for {rs.name} "
                         "(needs nonnegative integer fundamental-weight coordinates)")
    return mu


def casimir_eigenvalue(rs: RootSystem, mu) -> Fraction:
    """Quadratic Casimir eigenvalue form(mu, mu + 2*rho) on the irrep V_mu."""
    mu = _require_dominant(rs, mu)
    shifted = tuple(c + 2 for c in mu)
    return rs.form(mu, shifted)


def level_of(rs: RootSystem, mu) -> int:
    """Level mu(theta-coroot) = form(mu, theta) under the long-root normalization."""
    mu = _require_dominant(rs, mu)
    lv, rem = divmod(rs.pair(mu, rs.highest_root), rs.denominator)
    if rem:
        raise InternalError(f"level of {mu} is not an integer")
    return lv


def dominant_with_sign(rs: RootSystem, x: tuple) -> tuple[tuple, int]:
    """Weyl-reflect x to its dominant representative, with sign (-1)^reflections.

    On rho-shifted coordinates, x lies on a chamber wall exactly when the
    representative has a zero coordinate.
    """
    sign = 1
    fuel = 100000
    while True:
        i = next((k for k, c in enumerate(x) if c < 0), None)
        if i is None:
            return x, sign
        x = rs.reflect(x, i)
        sign = -sign
        fuel -= 1
        if fuel == 0:
            raise InternalError("dominant-chamber reduction did not terminate")


def dual_weight(rs: RootSystem, mu) -> Weight:
    """mu* = -w_0(mu): the highest weight of the contragredient representation."""
    mu = _require_dominant(rs, mu)
    return dominant_with_sign(rs, tuple(-c for c in mu))[0]


def weyl_dim(rs: RootSystem, mu) -> int:
    mu = _require_dominant(rs, mu)
    shifted = tuple(m + r for m, r in zip(mu, rs.rho))
    num = den = 1
    for column in rs.root_columns:
        num *= sum(s * c for s, c in zip(shifted, column))
        den *= sum(r * c for r, c in zip(rs.rho, column))
    dim, rem = divmod(num, den)
    if rem:
        raise InternalError("Weyl dimension formula returned a non-integer")
    return dim


@lru_cache(maxsize=None)
def _dominant_weights(rs: RootSystem, mu: Weight) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of V_mu (Freudenthal recursion)."""
    n = rs.rank
    rho = rs.rho
    # enumerate c >= 0 with mu - sum c_i a_i dominant, using sum c_i d_i <= (mu, rho)
    d = [rs.pair(alpha, rho) for alpha in rs.simple_roots]
    budget = rs.pair(mu, rho)
    bounds = [budget // di for di in d]
    cand = []
    for c in product(*(range(b + 1) for b in bounds)):
        if sum(ci * di for ci, di in zip(c, d)) > budget:
            continue
        lam = tuple(mu[j] - sum(rs.cartan_matrix[j][i] * c[i] for i in range(n))
                    for j in range(n))
        if all(x >= 0 for x in lam):
            cand.append((sum(c), lam))
    cand.sort()

    # Freudenthal's quotient with both sides scaled by the denominator of the form
    mults: dict[Weight, int] = {}
    mu_norm = rs.pair(tuple(m + 1 for m in mu), tuple(m + 1 for m in mu))

    def mult_any(w) -> int:
        return mults.get(dominant_with_sign(rs, w)[0], 0)

    for dist, lam in cand:
        if dist == 0:
            mults[lam] = 1
            continue
        num = 0
        for alpha, column in zip(rs.pos_roots, rs.root_columns):
            k = 1
            while True:
                w = tuple(l + k * a for l, a in zip(lam, alpha))
                m = mult_any(w)
                if m == 0:
                    break
                num += 2 * m * sum(x * c for x, c in zip(w, column))
                k += 1
        den = mu_norm - rs.pair(tuple(l + 1 for l in lam), tuple(l + 1 for l in lam))
        if den <= 0:
            continue  # lam is not a weight of V_mu after all
        m, rem = divmod(num, den)
        if rem or m < 0:
            raise InternalError(f"Freudenthal multiplicity {Fraction(num, den)} at {lam} "
                                "is not a nonneg integer")
        if m:
            mults[lam] = m
    return mults


def _weyl_orbit(rs: RootSystem, lam: Weight) -> set[tuple]:
    orbit = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                if w[i]:
                    r = rs.reflect(w, i)
                    if r not in orbit:
                        orbit.add(r)
                        nxt.append(r)
        frontier = nxt
    return orbit


def weight_multiplicities(rs: RootSystem, mu) -> dict[tuple, int]:
    """The full weight diagram of V_mu as a map weight -> multiplicity."""
    mu = _require_dominant(rs, mu)
    out: dict[tuple, int] = {}
    for lam, m in _dominant_weights(rs, mu).items():
        for w in _weyl_orbit(rs, lam):
            out[w] = m
    total = sum(out.values())
    if total != weyl_dim(rs, mu):
        raise InternalError(f"weight diagram of {mu} sums to {total}, not weyl_dim")
    return out


# ---------------------------------------------------------------------------
# explicit sl2 irreps

class RepMatrices(namedtuple("RepMatrices", "E F H")):
    """Weight-basis matrices of the (m+1)-dimensional sl2 irrep, as int tuples."""

    __slots__ = ()


def sl2_irrep_matrices(m: int) -> RepMatrices:
    """E, F, H on the basis v_0 (highest) .. v_m, with F v_j = v_{j+1}."""
    if not isinstance(m, int) or m < 0:
        raise InputError(f"sl2 label must be a nonnegative integer, got {m!r}")
    n = m + 1
    E = tuple(tuple(j * (m - j + 1) if i == j - 1 else 0 for j in range(n))
              for i in range(n))
    F = tuple(tuple(1 if i == j + 1 else 0 for j in range(n)) for i in range(n))
    H = tuple(tuple(m - 2 * j if i == j else 0 for j in range(n)) for i in range(n))

    if commutator(H, E) != [[2 * x for x in r] for r in E]:
        raise InternalError(f"[H,E] != 2E for m={m}")
    if commutator(H, F) != [[-2 * x for x in r] for r in F]:
        raise InternalError(f"[H,F] != -2F for m={m}")
    if commutator(E, F) != [list(r) for r in H]:
        raise InternalError(f"[E,F] != H for m={m}")
    power = identity(n)
    for _ in range(m):
        power = mat_mul(power, E)
    if m > 0 and is_zero(power):
        raise InternalError(f"E^m vanished for m={m}")
    if not is_zero(mat_mul(power, E)):
        raise InternalError(f"E^(m+1) nonzero for m={m}")
    return RepMatrices(E=E, F=F, H=H)
