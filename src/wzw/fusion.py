"""Level-truncated fusion rings on integer index tables.

The alphabet P_l is the finite set of dominant weights of level <= l, sorted,
and a label is its position in that tuple: every table below is indexed by
positions, and weights are translated once, at the boundary, by `index`.
`dual` is the permutation sending a label to its dual.  Fusion coefficients
are computed by the Kac-Walton rule, with no classical decomposition: each
weight of the smaller factor plus the other highest weight plus rho is folded
into the level-(l + h) alcove in one signed walk of simple reflections and
x -> x - ((x,theta) - (l+h)) theta, dropping anything that lands on a wall.
Rows N(i, j, .) are filled lazily, on first use, so a point lookup pays for
one product and not for the whole ring.
`fusion_table` fills every row and verifies each ring axiom once (full
symmetry, unit and duality, associativity) before returning; a violated
axiom is an implementation bug, not user error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product

from .errors import InputError, InternalError
from .liealg import (RootSystem, Weight, dominant_with_sign, dual_weight,
                     level_of, weight_multiplicities, weyl_dim)
from .linalg import mat_mul


@dataclass(frozen=True)
class FusionAlphabet:
    """The labels of one (algebra, level); `dual[i]` is the position of labels[i]*."""

    rs: RootSystem
    level: int
    labels: tuple[Weight, ...]
    dual: tuple[int, ...]
    _pos: dict = field(compare=False, repr=False)
    _rows: dict = field(default_factory=dict, compare=False, repr=False)

    def __contains__(self, mu) -> bool:
        return tuple(mu) in self._pos

    def index(self, mu) -> int:
        try:
            return self._pos[tuple(mu)]
        except KeyError:
            raise InputError(f"label {tuple(mu)} is not in the level-{self.level} "
                             f"alphabet of {self.rs.name}") from None

    def row(self, i: int, j: int) -> tuple[int, ...]:
        """N(labels[i], labels[j], labels[k]) for every position k, memoized."""
        row = self._rows.get((i, j))
        if row is None:
            lam, mu = self.labels[i], self.labels[j]
            counts = [0] * len(self.labels)
            for sigma, m in _truncated_product(self.rs, self.level, lam, mu).items():
                if sigma not in self._pos:
                    raise InternalError(f"fusion axiom 'closure' violated: {lam} x {mu} "
                                        f"contains {sigma} outside the alphabet")
                counts[self.dual[self._pos[sigma]]] = m
            row = self._rows[i, j] = tuple(counts)
        return row


@lru_cache(maxsize=None)
def alphabet(rs: RootSystem, level: int) -> FusionAlphabet:
    """All dominant weights of level <= `level`, sorted lexicographically."""
    if not isinstance(level, int) or level < 0:
        raise InputError(f"level must be a nonnegative integer, got {level!r}")
    fund_levels = [level_of(rs, tuple(int(i == j) for j in range(rs.rank)))
                   for i in range(rs.rank)]
    bounds = [level // fl for fl in fund_levels]
    labels = sorted(mu for mu in product(*(range(b + 1) for b in bounds))
                    if level_of(rs, mu) <= level)
    pos = {mu: i for i, mu in enumerate(labels)}
    dual = []
    for mu in labels:
        star = dual_weight(rs, mu)
        if star not in pos:
            raise InternalError(f"alphabet of {rs.name} level {level} not dual-closed at {mu}")
        dual.append(pos[star])
    return FusionAlphabet(rs=rs, level=level, labels=tuple(labels), dual=tuple(dual),
                          _pos=pos)


@lru_cache(maxsize=None)
def _truncated_product(rs: RootSystem, level: int, lam: Weight, mu: Weight) -> dict[Weight, int]:
    """Kac-Walton: fold the weights of the smaller factor, shifted by the other + rho."""
    small, big = (lam, mu) if weyl_dim(rs, lam) <= weyl_dim(rs, mu) else (mu, lam)
    # heights are pair(x, theta) = D * (x, theta), compared against (l + h) * D
    denominator = rs.denominator
    wall = (level + rs.dual_coxeter) * denominator
    theta = rs.highest_root
    theta_column = rs.column(theta)
    shifted = tuple(c + 1 for c in big)
    out: dict[Weight, int] = {}
    for eta, m in weight_multiplicities(rs, small).items():
        x = tuple(e + s for e, s in zip(eta, shifted))
        sign = 1
        fuel = 10000
        while True:
            x, s = dominant_with_sign(rs, x)
            sign *= s
            if 0 in x:
                break  # finite wall
            height = sum(c * t for c, t in zip(x, theta_column))
            if height < wall:
                key = tuple(c - 1 for c in x)
                out[key] = out.get(key, 0) + sign * m
                break
            if height == wall:
                break  # affine wall
            over, rem = divmod(height - wall, denominator)
            if rem:
                raise InternalError(f"height of {x} over the affine wall is not an integer")
            x = tuple(c - over * t for c, t in zip(x, theta))
            sign = -sign
            fuel -= 1
            if fuel == 0:
                raise InternalError("affine alcove reduction did not terminate")
    out = {nu: m for nu, m in out.items() if m}
    if any(m < 0 for m in out.values()):
        raise InternalError(f"negative fusion multiplicity in {lam} x {mu} at level {level}")
    return out


def fusion_coeff(alph: FusionAlphabet, lam, mu, nu) -> int:
    """N_{lam,mu,nu}: the dimension of the three-holed-sphere block."""
    i, j, k = alph.index(lam), alph.index(mu), alph.index(nu)
    return alph.row(i, j)[k]


@dataclass(frozen=True)
class FusionRing:
    """A verified ring: table[i][j][k] = N(labels[i], labels[j], labels[k])."""

    alphabet: FusionAlphabet
    table: tuple = field(compare=False)

    def nonzero_ordered(self):
        """All ordered index triples (i,j,k) with N != 0, sorted; for serialization."""
        return [((i, j, k), n) for i, plane in enumerate(self.table)
                for j, row in enumerate(plane) for k, n in enumerate(row) if n]


def fusion_table(alph: FusionAlphabet) -> FusionRing:
    """Fill every row and verify each fusion-ring axiom once."""
    labels, dual = alph.labels, alph.dual
    size = len(labels)
    table = tuple(tuple(alph.row(i, j) for j in range(size)) for i in range(size))

    # the transpositions (12) and (23) generate every reordering of a triple
    for i, j, k in product(range(size), repeat=3):
        if not table[i][j][k] == table[j][i][k] == table[i][k][j]:
            raise InternalError(f"fusion axiom 'symmetry' violated at "
                                f"({labels[i]},{labels[j]},{labels[k]})")

    # labels[0] is the zero weight: N(0, j, k) = 1 exactly when k = j*
    for j in range(size):
        if table[0][j] != tuple(int(k == dual[j]) for k in range(size)):
            raise InternalError(f"fusion axiom 'unit/duality' violated at (0,{labels[j]})")

    # with full symmetry, associativity is the commuting of the fusion
    # matrices M_a[b][c] = N(a, b, c*)
    mats = [[[plane[b][dual[c]] for c in range(size)] for b in range(size)]
            for plane in table]
    for a, b in combinations(range(size), 2):
        if mat_mul(mats[a], mats[b]) != mat_mul(mats[b], mats[a]):
            raise InternalError(f"fusion axiom 'associativity' violated: "
                                f"M_{labels[a]} and M_{labels[b]} do not commute")
    return FusionRing(alphabet=alph, table=table)
