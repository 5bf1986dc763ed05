"""Knizhnik-Zamolodchikov connection on genus-zero blocks.

The connection form is -1/(l+2) sum_{i<j} c^(ij) dlog(z_i - z_j) with c^(ij)
the Casimir acting in tensor slots i and j.  The matrices are computed exactly
on the block: V_1 (x) ... (x) V_n modulo one integer span, the images of the
diagonal action of g and of T^{l+1} = (sum_i z_i E^(i))^{l+1} at a fixed
integer base point.  The block basis is the span's non-pivot columns and
``IntSpan.reduce`` is the quotient map; the classical coinvariant dimension
is read off before the T^{l+1} rows go in.
Parallel transport is the single floating-point boundary of the package.
It runs RK4 at the requested steps and, for the halving error estimate, at
half of them, in lockstep: two full steps, then one halved step.  The halved
step is twice the full one bit for bit, so both runs read the connection form
at the same float times, and each form is evaluated once and shared (3617
forms on a 1600-step segment, where two separate runs took 7200).
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from itertools import combinations

from .errors import InputError
from .liealg import casimir_eigenvalue, root_system, sl2_irrep_matrices
from .linalg import IntSpan, commutator, identity, is_zero, mat_sub, strides, transpose


class _TensorOps:
    """Sparse slot-wise operator application on V_1 (x) ... (x) V_n.

    The nonzero entries of each slot's E, F and H are tabulated once:
    moves[slot][gen][j] lists the (flat offset, coefficient) pairs of the
    image of v_j, so an application walks the nonzero entries only.
    """

    def __init__(self, labels):
        self.labels = labels
        self.dims = [m + 1 for m in labels]
        self.strides = strides(self.dims)
        self.D = 1
        for d in self.dims:
            self.D *= d
        self.moves = []
        for m, st in zip(labels, self.strides):
            reps = sl2_irrep_matrices(m)
            self.moves.append({gen: [[((i - j) * st, mat[i][j])
                                      for i in range(m + 1) if mat[i][j]]
                                     for j in range(m + 1)]
                               for gen, mat in (("E", reps.E), ("F", reps.F),
                                                ("H", reps.H))})

    def apply_slot(self, vec: dict, slot: int, gen: str, scale=1, out=None) -> dict:
        """Add scale * gen acting in `slot` on vec into out (a new dict by default).

        The returned dict may hold zeros; the callers below drop them once.
        """
        out = {} if out is None else out
        st, dim, moves = self.strides[slot], self.dims[slot], self.moves[slot][gen]
        for idx, c in vec.items():
            c *= scale
            for off, v in moves[(idx // st) % dim]:
                out[idx + off] = out.get(idx + off, 0) + c * v
        return out

    def diagonal(self, vec: dict, gen: str) -> dict:
        out: dict = {}
        for s in range(len(self.labels)):
            self.apply_slot(vec, s, gen, 1, out)
        return {k: v for k, v in out.items() if v}

    def casimir_pair(self, vec: dict, i: int, j: int) -> dict:
        # 2 c^(ij) = 2 E_i F_j + 2 F_i E_j + H_i H_j, integral on integral vectors
        out: dict = {}
        for a, b, coef in (("E", "F", 2), ("F", "E", 2), ("H", "H", 1)):
            self.apply_slot(self.apply_slot(vec, j, b), i, a, coef, out)
        return {k: v for k, v in out.items() if v}

    def t_power(self, vec: dict, z, power: int) -> dict:
        for _ in range(power):
            if not vec:
                break
            out: dict = {}
            for s in range(len(self.labels)):
                self.apply_slot(vec, s, "E", z[s], out)
            vec = {k: v for k, v in out.items() if v}
        return vec


def _validate_labels(labels) -> tuple:
    labels = tuple(labels)
    if len(labels) < 2:
        raise InputError(f"need at least 2 marked points, got {len(labels)}")
    for m in labels:
        if not isinstance(m, int) or m < 0:
            raise InputError(f"label {m!r} is not a nonnegative integer")
    return labels


class KZSystem:
    """Exact KZ data on the block quotient of a labeled configuration.

    `a_matrices` maps (i, j) with i < j, 0-based, to a dim x dim matrix.
    """

    def __init__(self, level: int, labels: tuple, dim: int, classical_dim: int,
                 a_matrices: dict, truncated: bool, base_point: tuple):
        self.level = level
        self.labels = labels
        self.dim = dim
        self.classical_dim = classical_dim
        self.a_matrices = a_matrices
        self.truncated = truncated
        self.base_point = base_point

    @property
    def n(self) -> int:
        return len(self.labels)


def kz_system(level: int, labels) -> KZSystem:
    """Connection matrices A_ij = -c^(ij)/(l+2) on the block quotient."""
    labels = _validate_labels(labels)
    if not isinstance(level, int) or level < 0:
        raise InputError(f"level must be a nonnegative integer, got {level!r}")
    for m in labels:
        if m > level:
            raise InputError(f"label {m} exceeds level {level}")
    n = len(labels)
    ops = _TensorOps(labels)
    D = ops.D

    # one integer span: the diagonal action of g, then the image of T^{l+1}
    span = IntSpan()
    for b in range(D):
        for gen in "EFH":
            row = ops.diagonal({b: 1}, gen)
            if row:
                span.add(row)
    classical_dim = D - span.rank
    base_point = tuple(n - 1 - 2 * i for i in range(n))
    for b in range(D):
        w = ops.t_power({b: 1}, base_point, level + 1)
        if w:
            span.add(w)
    basis = [b for b in range(D) if b not in span.pivots]
    basis_pos = {b: a for a, b in enumerate(basis)}

    def to_block(vec: dict) -> list:
        out = [0] * len(basis)
        for c, v in span.reduce(vec).items():
            out[basis_pos[c]] = v   # KeyError here would mean reduce() is broken
        return out

    # column k of A_ij is the image of the basis vector basis[k]
    a_matrices = {(i, j): transpose([[Fraction(-v, 2 * (level + 2)) for v in
                                      to_block(ops.casimir_pair({b: 1}, i, j))]
                                     for b in basis])
                  for i, j in combinations(range(n), 2)}
    return KZSystem(level=level, labels=labels, dim=len(basis),
                    classical_dim=classical_dim, a_matrices=a_matrices,
                    truncated=len(basis) < classical_dim, base_point=base_point)


def flatness_check(system: KZSystem) -> bool:
    """Kohno relations: exact flatness of the log-form connection."""
    n, mats = system.n, system.a_matrices
    if system.dim == 0 or n == 2:
        return True
    # [A_one, A_two + A_three] = 0, written as [A_one, A_two] = [A_three, A_one]
    for i, j, k in combinations(range(n), 3):
        trips = (((i, j), (i, k), (j, k)), ((i, k), (i, j), (j, k)),
                 ((j, k), (i, j), (i, k)))
        for one, two, three in trips:
            if commutator(mats[one], mats[two]) != commutator(mats[three], mats[one]):
                return False
    for (i, j), (k, l) in combinations(mats.keys(), 2):
        if len({i, j, k, l}) == 4 and not is_zero(commutator(mats[(i, j)], mats[(k, l)])):
            return False
    return True


def residue_check(system: KZSystem) -> bool:
    """Residue sums: sum_{j != i} A_ij = c(lambda_i)/(l+2) on the block, every i.

    g acts as zero on the block, so there sum_{j != i} c^(ij) acts as minus
    the Casimir of slot i, whose eigenvalue on V_lambda_i is c(lambda_i).
    """
    rs = root_system("A1")
    for i, m in enumerate(system.labels):
        want = casimir_eigenvalue(rs, (m,)) / (system.level + 2)
        rest = [[want * v for v in row] for row in identity(system.dim)]
        for pair, mat in system.a_matrices.items():
            if i in pair:
                rest = mat_sub(rest, mat)
        if not is_zero(rest):
            return False
    return True


# ---------------------------------------------------------------------------
# numeric parallel transport

class TransportResult:
    """Holonomy matrix of a piecewise-linear path, with a halving estimate.

    `matrix` is a dim x dim list of complex rows.
    """

    def __init__(self, matrix: list, steps: int, path: str, error_estimate: float,
                 converged: bool):
        # a holonomy is invertible, so |det| inside the error estimate means the
        # steps do not resolve the path, not a broken invariant
        d = abs(_det(matrix))
        if matrix and d <= error_estimate:
            raise InputError(f"transport matrix is not resolved by the steps: "
                             f"|det| = {d:.3e} <= error {error_estimate:.3e}; "
                             f"use more --steps or a path farther from the "
                             f"diagonals z_i = z_j")
        self.matrix = matrix
        self.steps = steps
        self.path = path
        self.error_estimate = error_estimate
        self.converged = converged


def _det(m: list) -> complex:
    q = len(m)
    if q == 0:
        return 1.0
    a = [row[:] for row in m]
    det = 1.0 + 0j
    for c in range(q):
        p = max(range(c, q), key=lambda r: abs(a[r][c]))
        if abs(a[p][c]) == 0:
            return 0.0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, q):
            f = a[r][c] / a[c][c]
            for cc in range(c, q):
                a[r][cc] -= f * a[c][cc]
    return det


def _segment_guard(p, q):
    """Reject a segment that meets a diagonal z_i = z_j or overflows a float."""
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            u = p[i] - p[j]
            v = q[i] - q[j]
            du = v - u
            try:
                if not (cmath.isfinite(u) and cmath.isfinite(v) and cmath.isfinite(du)):
                    raise OverflowError
                scale = max(abs(u), abs(v), 1.0)
                # min_t |(1-t)u + t v| over [0,1]
                if abs(du) == 0:
                    dist = abs(u)
                else:
                    t = max(0.0, min(1.0, -(u * du.conjugate()).real / abs(du) ** 2))
                    dist = abs(u + t * du)
            except OverflowError:
                raise InputError(f"path coordinates too large for floating point: "
                                 f"z_{i} - z_{j} overflows") from None
            if dist < 1e-12 * scale:
                raise InputError(f"path touches the diagonal z_{i} = z_{j}")


def _omega(z, pairs, size: int) -> list:
    """The form sum_ij c_ij A_ij at the configuration z, flat and row-major.

    `pairs` holds (i, j, dz_i - dz_j, flat A_ij) for the pairs that move,
    in `a_matrices` order, and the sum starts from 0j.
    """
    om = [0j] * size
    for i, j, dij, m in pairs:
        c = dij / (z[i] - z[j])
        if c:
            om = [o + c * v for o, v in zip(om, m)]
    return om


def _transport_fixed(system: KZSystem, waypoints, per_seg: int) -> tuple:
    """The RK4 holonomies at per_seg and at per_seg // 2 steps a segment (per_seg even).

    The two runs go in lockstep: two full steps, then one halved step.  The
    halved step H = 1/(per_seg // 2) is 2h bit for bit, so both runs read the
    form at the same floats t.  Each form is evaluated once, keyed by t, and
    dropped once t falls behind the halved run.
    """
    dim = system.dim
    mats = {key: [complex(v) for row in m for v in row]
            for key, m in system.a_matrices.items()}

    def rows(flat):
        return [flat[r * dim:(r + 1) * dim] for r in range(dim)]

    def form(t):
        om = forms.get(t)
        if om is None:
            om = forms[t] = rows(_omega([a + t * d for a, d in zip(p, dz)], pairs, dim * dim))
        return om

    def mul(om, y):
        cols = [y[c::dim] for c in range(dim)]
        return [sum(map(operator.mul, row, col)) for row in om for col in cols]

    def step(y, t0, h):
        k1 = mul(form(t0), y)
        # k2 and k3 are both taken at the midpoint
        om_h = form(t0 + h / 2)
        k2 = mul(om_h, [a + h / 2 * b for a, b in zip(y, k1)])
        k3 = mul(om_h, [a + h / 2 * b for a, b in zip(y, k2)])
        k4 = mul(form(t0 + h), [a + h * b for a, b in zip(y, k3)])
        return [a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]

    full = half = [1.0 + 0j if r == c else 0j for r in range(dim) for c in range(dim)]
    for s in range(len(waypoints) - 1):
        p = [complex(x) for x in waypoints[s]]
        q = [complex(x) for x in waypoints[s + 1]]
        dz = [b - a for a, b in zip(p, q)]
        if all(abs(d) == 0 for d in dz):
            continue
        pairs = [(i, j, dz[i] - dz[j], m) for (i, j), m in mats.items() if dz[i] - dz[j]]
        forms = {}
        h, big_h = 1.0 / per_seg, 1.0 / (per_seg // 2)
        for k in range(per_seg // 2):
            full = step(full, 2 * k * h, h)
            full = step(full, (2 * k + 1) * h, h)
            half = step(half, k * big_h, big_h)
            forms = {t: om for t, om in forms.items() if t >= (k + 1) * big_h}
    return rows(full), rows(half)


def parallel_transport(system: KZSystem, path, steps: int = 1000,
                       tolerance: float = 1e-6) -> TransportResult:
    """RK4 holonomy along a piecewise-linear path (list of configurations).

    A truncated system is refused: its matrices are the quotient at one base
    point, so its transport is not the block holonomy.
    """
    if system.truncated:
        raise InputError(f"level truncation is not supported for transport: labels "
                         f"{system.labels} at level {system.level} truncate the block; "
                         f"`wzw oracle npoint` gives its rank")
    waypoints = [tuple(p) for p in path]
    if len(waypoints) < 1:
        raise InputError("path needs at least one configuration")
    for p in waypoints:
        if len(p) != system.n:
            raise InputError(f"configuration has {len(p)} points, expected {system.n}")
        _segment_guard([complex(x) for x in p], [complex(x) for x in p])
    if steps < 100:
        raise InputError(f"need at least 100 steps, got {steps}")
    if not 0 < tolerance < cmath.inf:
        raise InputError(f"tolerance must be a finite number > 0, got {tolerance}")
    for s in range(len(waypoints) - 1):
        _segment_guard([complex(x) for x in waypoints[s]],
                       [complex(x) for x in waypoints[s + 1]])
    segs = len(waypoints) - 1
    per_seg = max(2, 2 * ((steps + 2 * segs - 1) // (2 * segs))) if segs else 0
    full, half = _transport_fixed(system, waypoints, per_seg)
    err = max((abs(a - b) for ra, rb in zip(full, half) for a, b in zip(ra, rb)),
              default=0.0)
    desc = f"{len(waypoints)} waypoints, {segs} segments"
    return TransportResult(matrix=full, steps=per_seg * segs, path=desc,
                           error_estimate=err, converged=err < tolerance)
