"""Knizhnik-Zamolodchikov connection on genus-zero blocks.

The connection form is -1/(l+2) sum_{i<j} c^(ij) dlog(z_i - z_j) with c^(ij)
the Casimir acting in tensor slots i and j.  The matrices are computed exactly
on the block: V_1 (x) ... (x) V_n modulo the diagonal action of g and the
image of T^{l+1} = (sum_i z_i E^(i))^{l+1} at a fixed integer base point.
The block lives in weight zero, so it is built there: the H rows span every
nonzero weight, and E maps the weight -2 space onto the weight-zero part of
the image of g.  One integer span holds the E rows of the weight -2 vectors
and the T^{l+1} rows of the weight -2(l+1) vectors; the block basis is its
weight-zero non-pivot columns and ``IntSpan.reduce`` is the quotient map.
The pivots and the reduced form depend on the span only, so this is the
quotient of the whole tensor product.  The classical coinvariant dimension is
read off before the T^{l+1} rows go in.
Parallel transport is the single floating-point boundary of the package.
It runs RK4 at the requested steps and, for the halving error estimate, at
half of them, in lockstep: two full steps, then one halved step, which is
twice the full one bit for bit, so both runs share each evaluation of the
connection form (3617 on a 1600-step segment; two separate runs took 7200).
A segment reads only the zero pattern of its moving pairs, the union of the
nonzero entries of their A_ij (7 of 9 entries on the benchmark's l=4 loop).
The form, per (pattern, each pair's nonzero entries), takes t and sums each
pair over its nonzero entries only; the step, per (block dimension,
pattern), writes out one column's matrix-vector products over the pattern
only, O(dim^2) source, each row sum started from its first product.
Only integers reach either source.  Skipping the other terms and the 0
seed is exact.  A skipped term is c*0j or 0j*y with c and y finite, which
is (+-0, +-0), so a row sum here may end in -0.0 where the seeded full sum
ends in +0.0, and is otherwise the same; finite products and sums of such
values differ at most in the sign of a zero too.  They reach the holonomy
columns y and the RK4 stages u only as y + x, and y and u never hold -0.0:
each starts from 1.0 or +0.0 and is a sum y + x, which is -0.0 only when
both terms are.  So y + x is the same bit for bit, and neither the missing
seed nor a skipped pattern term changes a bit of the holonomy.  The two can
differ only where the full sums give a non-finite holonomy, and
`TransportResult` refuses every non-finite holonomy.
"""

from __future__ import annotations

import cmath
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .errors import InputError
from .linalg import (IntSpan, commutator, identity, is_zero, mat_sub, sl2_irrep_matrices,
                     strides, transpose)


class _TensorOps:
    """Sparse slot-wise operator application on V_1 (x) ... (x) V_n.

    The nonzero entries of each slot's E, F and H are tabulated once:
    moves[slot][gen][j] lists the (flat offset, coefficient) pairs of the
    image of v_j, so an application walks the nonzero entries only.
    """

    def __init__(self, labels):
        self.dims = [m + 1 for m in labels]
        self.strides = strides(self.dims)
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
            for s in range(len(self.dims)):
                self.apply_slot(vec, s, "E", z[s], out)
            vec = {k: v for k, v in out.items() if v}
        return vec


class KZSystem(namedtuple("KZSystem", "level labels dim classical_dim a_matrices "
                                       "truncated base_point")):
    """Exact KZ data on the block quotient of a labeled configuration.

    `a_matrices` maps (i, j) with i < j, 0-based, to a dim x dim matrix.
    """

    __slots__ = ()


def kz_system(level: int, labels) -> KZSystem:
    """Connection matrices A_ij = -c^(ij)/(l+2) on the block quotient."""
    labels = tuple(labels)
    if len(labels) < 2:
        raise InputError(f"need at least 2 marked points, got {len(labels)}")
    for m in labels:
        if not isinstance(m, int) or m < 0:
            raise InputError(f"label {m!r} is not a nonnegative integer")
    if not isinstance(level, int) or level < 0:
        raise InputError(f"level must be a nonnegative integer, got {level!r}")
    for m in labels:
        if m > level:
            raise InputError(f"label {m} exceeds level {level}")
    n = len(labels)
    ops = _TensorOps(labels)
    # v_j in V_m has weight m - 2j; E, and so T, raises a weight by 2
    weights = [sum(labels) - 2 * sum(idx) for idx in product(*(range(d) for d in ops.dims))]
    # one integer span: the E rows that land in weight zero, then the image of T^{l+1}
    span = IntSpan()
    for b, w in enumerate(weights):
        if w == -2:
            span.add(ops.t_power({b: 1}, (1,) * n, 1))
    zero = [b for b, w in enumerate(weights) if w == 0]
    classical_dim = len(zero) - span.rank
    base_point = tuple(n - 1 - 2 * i for i in range(n))
    for b, w in enumerate(weights):
        if w == -2 * (level + 1):
            span.add(ops.t_power({b: 1}, base_point, level + 1))
    basis = [b for b in zero if b not in span.pivots]
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
    """Kohno relations, exact: [A_ij, S] = [A_ik, S] = 0 on each triple i<j<k,
    with S = A_ij + A_ik + A_jk, and [A_ij, A_kl] = 0 on disjoint pairs."""
    n, mats = len(system.labels), system.a_matrices
    # [A_one, A_two + A_three] = 0, written as [A_one, A_two] = [A_three, A_one]; the
    # third ordering, [A_jk, S] = 0, is implied: the three [A_x, S] sum to [S, S] = 0
    for i, j, k in combinations(range(n), 3):
        for one, two, three in (((i, j), (i, k), (j, k)), ((i, k), (i, j), (j, k))):
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
    from .liealg import casimir_eigenvalue, root_system

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

class TransportResult(namedtuple("TransportResult", "matrix steps path error_estimate "
                                                     "converged determinant")):
    """Holonomy matrix of a piecewise-linear path, with a halving estimate.

    `matrix` is a dim x dim list of complex rows and `determinant` its
    determinant, computed on construction from the other five fields.
    """

    __slots__ = ()

    def __new__(cls, matrix: list, steps: int, path: str, error_estimate: float,
                converged: bool):
        # a holonomy is finite and invertible, so a non-finite entry or |det|
        # inside the error estimate means the steps do not resolve the path,
        # not a broken invariant
        advice = "use more --steps or a path farther from the diagonals z_i = z_j"
        if not (cmath.isfinite(error_estimate)
                and all(cmath.isfinite(v) for row in matrix for v in row)):
            raise InputError(f"transport matrix is not resolved by the steps: an entry "
                             f"or the error estimate is not finite; {advice}")
        determinant = _det(matrix)
        d = abs(determinant)
        if matrix and d <= error_estimate:
            raise InputError(f"transport matrix is not resolved by the steps: "
                             f"|det| = {d:.3e} <= error {error_estimate:.3e}; {advice}")
        return super().__new__(cls, matrix, steps, path, error_estimate, converged, determinant)


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
    """Reject a segment of complex tuples p, q that meets a diagonal z_i = z_j or is not finite."""
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
                raise InputError(f"path coordinates must be finite numbers whose differences "
                                 f"fit a float: z_{i} - z_{j} does not") from None
            if dist < 1e-12 * scale:
                raise InputError(f"path touches the diagonal z_{i} = z_{j}")


@lru_cache(maxsize=None)
def _connection_form(pattern: tuple, supports: tuple):
    """The form sum_ij c_ij A_ij on its zero pattern, generated from the flat entry indices.

    form(t, pairs) reads the (p_i, dz_i, p_j, dz_j, dz_i - dz_j, values) of
    the moving pairs in `a_matrices` order, values being A_ij's nonzero
    entries at the flat indices supports[p], and returns the form's entries
    at the indices in `pattern`, the union of the supports, on the segment
    z = p + t dz.  Each pair's z_i - z_j is (p_i + t dz_i) - (p_j + t dz_j),
    and each entry is summed from 0j in pair order, over the pairs nonzero
    there, skipping a pair whose c_ij = (dz_i - dz_j)/(z_i - z_j) is 0.
    """
    entries = "".join(f"e{e}, " for e in pattern)
    unpack = ", ".join(f"(p{p}, dp{p}, q{p}, dq{p}, d{p}, m{p})" for p in range(len(supports)))
    src = ["def form(t, pairs):", f"    [{entries}] = [0j] * {len(pattern)}",
           f"    [{unpack}] = pairs"]
    for p, support in enumerate(supports):
        src += [f"    c = d{p} / ((p{p} + t * dp{p}) - (q{p} + t * dq{p}))", "    if c:",
                f"        [{''.join(f'v{e}, ' for e in support)}] = m{p}"]
        src += [f"        e{e} += c * v{e}" for e in support]
    src.append(f"    return ({entries})")
    scope: dict = {}
    exec(compile("\n".join(src), f"<kz form, {len(pattern)} entries, {len(supports)} pairs>",
                 "exec"), scope)
    return scope["form"]


@lru_cache(maxsize=None)
def _rk4_step(dim: int, pattern: tuple):
    """The RK4 step of dY/dt = Omega(t) Y for dim x dim holonomies, Omega zero off pattern.

    step(cols, oa, ob, oc, h) takes Y as dim column tuples and the forms at
    t0, t0 + h/2 and t0 + h, each given at the flat indices r * dim + c in
    `pattern`, and returns the stepped columns.  The equation is linear, so
    the source writes out one column's matrix-vector products, O(dim^2)
    characters, each entry the float expression o[r,c]*y(c) + ... over the c
    with (r, c) in the pattern, in increasing c, with no 0 seed; a row with
    none is 0j.  A row sum may so end in -0.0, but each enters the columns
    and stages only as y + h * k, and those never hold -0.0 (module
    docstring), so the step is bit for bit the seeded full sum's.
    """
    idx = range(dim)
    row_cols = [[e % dim for e in pattern if e // dim == r] for r in idx]

    def names(fmt):
        return ", ".join(fmt.format(r) for r in idx) + ","

    def products(k, o, y):
        return [f"        {k}{r} = " + (" + ".join(f"{o}{r}_{c} * {y}{c}" for c in cols)
                                        if cols else "0j")
                for r, cols in enumerate(row_cols)]

    src = ["def step(cols, oa, ob, oc, h):"]
    src += [f"    [{''.join(f'{o}{e // dim}_{e % dim}, ' for e in pattern)}] = o{o}"
            for o in "abc"]
    src += ["    h2, h6 = h / 2, h / 6", "    out = []", f"    for {names('y{}')} in cols:"]
    # k2 and k3 both read the midpoint form ob
    src += products("ka", "a", "y") + [f"        u{r} = y{r} + h2 * ka{r}" for r in idx]
    src += products("kb", "b", "u") + [f"        u{r} = y{r} + h2 * kb{r}" for r in idx]
    src += products("kc", "b", "u") + [f"        u{r} = y{r} + h * kc{r}" for r in idx]
    src += products("kd", "c", "u")
    src += [f"        out.append(({names('y{0} + h6 * (ka{0} + 2 * kb{0} + 2 * kc{0} + kd{0})')}))",
            "    return out"]
    scope: dict = {}
    exec(compile("\n".join(src), f"<kz rk4 step, dim {dim}, {len(pattern)} entries>", "exec"),
         scope)
    return scope["step"]


def _transport_fixed(system: KZSystem, waypoints, per_seg: int) -> tuple:
    """The RK4 holonomies at per_seg and at per_seg // 2 steps a segment (per_seg even).

    The two runs go in lockstep: two full steps, then one halved step.  The
    halved step H = 1/(per_seg // 2) is 2h bit for bit, so both runs read the
    form at the same floats t.  The segment's `_connection_form` is evaluated
    once per t, on a miss in the segment's cache keyed by t, whose entries
    are dropped once t falls behind the halved run.  The holonomies are
    stepped as columns by `_rk4_step(dim, pattern)`, returned as rows; the
    pattern is the union of the moving pairs' nonzero entries.
    """
    dim = system.dim
    if not dim:
        return [], []
    # each A_ij as its flat nonzero indices and their values
    mats = {}
    for key, m in system.a_matrices.items():
        flat = [complex(v) for row in m for v in row]
        support = tuple(e for e, v in enumerate(flat) if v)
        mats[key] = support, tuple(flat[e] for e in support)

    full = half = [tuple(1.0 + 0j if r == c else 0j for r in range(dim)) for c in range(dim)]
    for p, q in zip(waypoints, waypoints[1:]):
        dz = [b - a for a, b in zip(p, q)]
        if all(abs(d) == 0 for d in dz):
            continue
        moving = [(i, j) for (i, j), (support, _) in mats.items() if support and dz[i] - dz[j]]
        pairs = [(p[i], dz[i], p[j], dz[j], dz[i] - dz[j], mats[i, j][1]) for i, j in moving]
        supports = tuple(mats[i, j][0] for i, j in moving)
        pattern = tuple(sorted(set().union(*supports)))
        omega = _connection_form(pattern, supports)
        step = _rk4_step(dim, pattern)
        forms = {}
        h, big_h = 1.0 / per_seg, 1.0 / (per_seg // 2)
        for k in range(per_seg // 2):
            t0, t1, big_t = 2 * k * h, (2 * k + 1) * h, k * big_h
            om = []
            for t in (t0, t0 + h / 2, t0 + h, t1, t1 + h / 2, t1 + h,
                      big_t, big_t + big_h / 2, big_t + big_h):
                o = forms.get(t)
                if o is None:
                    o = forms[t] = omega(t, pairs)
                om.append(o)
            full = step(step(full, om[0], om[1], om[2], h), om[3], om[4], om[5], h)
            half = step(half, om[6], om[7], om[8], big_h)
            forms = {t: o for t, o in forms.items() if t >= (k + 1) * big_h}
    return [list(row) for row in zip(*full)], [list(row) for row in zip(*half)]


def max_difference(a: list, b: list) -> float:
    """The largest |a_ij - b_ij| over two matrices of one shape, 0.0 when they are empty."""
    return max((abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)), default=0.0)


def parallel_transport(system: KZSystem, path, steps: int = 10000,
                       tolerance: float = 1e-6) -> TransportResult:
    """RK4 holonomy along a piecewise-linear path (list of configurations).

    A truncated system is refused: its matrices are the quotient at one base
    point, so its transport is not the block holonomy.
    """
    if system.truncated:
        raise InputError(f"level truncation is not supported for transport: labels "
                         f"{system.labels} at level {system.level} truncate the block; "
                         f"`wzw oracle npoint` gives its rank")
    waypoints = [tuple(complex(x) for x in p) for p in path]
    if len(waypoints) < 1:
        raise InputError("path needs at least one configuration")
    for p in waypoints:
        if len(p) != len(system.labels):
            raise InputError(f"configuration has {len(p)} points, expected {len(system.labels)}")
    if steps < 100:
        raise InputError(f"need at least 100 steps, got {steps}")
    if not 0 < tolerance < cmath.inf:
        raise InputError(f"tolerance must be a finite number > 0, got {tolerance}")
    # a segment is no farther from a diagonal than its ends and no smaller in
    # scale, so it guards them; a lone configuration is the segment (p, p)
    for p, q in zip(waypoints, waypoints[1:] or waypoints):
        _segment_guard(p, q)
    segs = len(waypoints) - 1
    per_seg = max(2, 2 * ((steps + 2 * segs - 1) // (2 * segs))) if segs else 0
    full, half = _transport_fixed(system, waypoints, per_seg)
    err = max_difference(full, half)
    desc = f"{len(waypoints)} waypoints, {segs} segments"
    return TransportResult(matrix=full, steps=per_seg * segs, path=desc,
                           error_estimate=err, converged=err < tolerance)
