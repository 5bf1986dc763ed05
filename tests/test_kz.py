"""KZ connection matrices, Kohno flatness, residue sums, and numeric parallel transport."""

import cmath
import itertools
import json
import math
import operator
from collections import Counter
from fractions import Fraction

import pytest

from wzw import cli, kz
from wzw.checks import KZ_LEVEL_MAX, KZ_NMAX
from wzw.errors import InputError
from wzw.kz import KZSystem, flatness_check, kz_system, parallel_transport, residue_check
from wzw.linalg import IntSpan, sl2_irrep_matrices, strides
from wzw.oracle import CoinvariantProblem, npoint_block_ranks

F = Fraction


def test_two_point_example():
    system = kz_system(1, (1, 1))
    assert system.dim == 1
    assert system.classical_dim == 1
    assert not system.truncated
    assert system.a_matrices[(0, 1)] == [[F(1, 2)]]


def test_casimir_pair_matrix_minimal_polynomial():
    # on V_1 (x) V_1 the pair Casimir E(x)F + F(x)E + H(x)H/2 has eigenvalues
    # 1/2 (triplet) and -3/2 (singlet)
    rep = sl2_irrep_matrices(1)

    def kron(a, b):
        return [[a[i // 2][j // 2] * b[i % 2][j % 2] for j in range(4)] for i in range(4)]

    e_f, f_e, h_h = kron(rep.E, rep.F), kron(rep.F, rep.E), kron(rep.H, rep.H)
    c = [[e_f[i][j] + f_e[i][j] + F(h_h[i][j], 2) for j in range(4)] for i in range(4)]
    d = 4
    prod = [[sum((c[i][k] + (F(3, 2) if i == k else 0))
                 * (c[k][j] - (F(1, 2) if k == j else 0)) for k in range(d))
             for j in range(d)] for i in range(d)]
    assert all(v == 0 for row in prod for v in row)
    assert sum(c[i][i] for i in range(d)) == 3 * F(1, 2) - F(3, 2)  # one singlet


FOUR_POINT_L2 = {
    (0, 1): [[F(3, 8), F(0)], [F(1, 4), F(-1, 8)]],
    (0, 2): [[F(-1, 8), F(1, 4)], [F(0), F(3, 8)]],
    (0, 3): [[F(1, 8), F(-1, 4)], [F(-1, 4), F(1, 8)]],
}


def test_four_point_level_two_matrices():
    system = kz_system(2, (1, 1, 1, 1))
    assert system.dim == 2 and system.classical_dim == 2
    assert not system.truncated
    for key, want in FOUR_POINT_L2.items():
        assert system.a_matrices[key] == want
    # the opposite pair acts identically: (2,3) with (0,1), etc.
    assert system.a_matrices[(2, 3)] == FOUR_POINT_L2[(0, 1)]
    assert system.a_matrices[(1, 3)] == FOUR_POINT_L2[(0, 2)]
    assert system.a_matrices[(1, 2)] == FOUR_POINT_L2[(0, 3)]


def test_four_point_total_casimir_scalar():
    # sum of all A_ij acts by the total-Casimir scalar on the invariant block
    system = kz_system(2, (1, 1, 1, 1))
    total = [[sum(system.a_matrices[key][i][j] for key in system.a_matrices)
              for j in range(2)] for i in range(2)]
    assert total == [[F(3, 4), F(0)], [F(0), F(3, 4)]]


def test_four_point_level_one_truncated():
    system = kz_system(1, (1, 1, 1, 1))
    assert system.dim == 1
    assert system.classical_dim == 2
    assert system.truncated
    assert system.a_matrices[(0, 1)] == [[F(-1, 6)]]
    assert system.a_matrices[(0, 2)] == [[F(-5, 6)]]
    assert system.a_matrices[(0, 3)] == [[F(3, 2)]]
    assert system.a_matrices[(1, 2)] == [[F(3, 2)]]
    assert system.a_matrices[(1, 3)] == [[F(-5, 6)]]
    assert system.a_matrices[(2, 3)] == [[F(-1, 6)]]


TRUNCATED_DIMS = [
    ((1, 1, 1, 1), 1, 1, 2),
    ((2, 2, 2, 2), 2, 1, 3),
    ((2, 2, 2, 2), 3, 2, 3),
    ((3, 3, 3), 3, 0, 0),  # odd total weight: no invariants at all
    ((3, 3, 3, 3), 3, 1, 4),
]


@pytest.mark.parametrize("labels,level,dim,classical", TRUNCATED_DIMS)
def test_truncated_dimensions(labels, level, dim, classical):
    system = kz_system(level, labels)
    assert system.dim == dim
    assert system.classical_dim == classical
    assert system.truncated == (dim != classical)


def test_block_and_classical_dimensions_match_the_oracle():
    # every kz-flatness system, and the two level-5 systems the benchmark times
    cases = [(level, marks) for level in range(KZ_LEVEL_MAX + 1)
             for n in range(2, KZ_NMAX + 1)
             for marks in itertools.product(range(level + 1), repeat=n)]
    cases += [(5, (3, 3, 3, 3)), (5, (2, 2, 2, 2, 2))]
    for level, marks in cases:
        system = kz_system(level, marks)
        want = npoint_block_ranks(CoinvariantProblem(level, marks, system.base_point))
        assert (system.dim, system.classical_dim) == want, (level, marks)


# -- the full-tensor-product build, kept as a reference ---------------------
# It eliminates the diagonal E, F, H rows and the T^{l+1} rows of every basis
# vector, over every weight; kz_system keeps only the rows that land in weight
# zero.  The pivots and IntSpan.reduce's normal form depend only on the span.

def reference_kz_system(level, labels):
    """(dim, classical_dim, truncated, base_point, a_matrices) on the whole tensor product."""
    n = len(labels)
    stride = strides([m + 1 for m in labels])
    D = stride[0] * (labels[0] + 1)
    # moves[slot][gen][j]: the (flat offset, coefficient) pairs of gen v_j
    moves = [{gen: [[((i - j) * st, mat[i][j]) for i in range(m + 1) if mat[i][j]]
                    for j in range(m + 1)]
              for gen, mat in zip("EFH", sl2_irrep_matrices(m))}
             for m, st in zip(labels, stride)]

    def apply(vec, slot, gen, scale, out):
        st, dim = stride[slot], labels[slot] + 1
        for idx, c in vec.items():
            for off, v in moves[slot][gen][idx // st % dim]:
                out[idx + off] = out.get(idx + off, 0) + scale * c * v
        return out

    def diagonal(vec, gen, z):
        out = {}
        for slot in range(n):
            apply(vec, slot, gen, z[slot], out)
        return {k: v for k, v in out.items() if v}

    span = IntSpan()
    for b in range(D):
        for gen in "EFH":
            span.add(diagonal({b: 1}, gen, (1,) * n))
    classical_dim = D - span.rank
    base_point = tuple(n - 1 - 2 * i for i in range(n))
    for b in range(D):
        vec = {b: 1}
        for _ in range(level + 1):
            vec = diagonal(vec, "E", base_point)
        span.add(vec)
    basis = [b for b in range(D) if b not in span.pivots]
    pos = {b: a for a, b in enumerate(basis)}
    a_matrices = {}
    for i, j in itertools.combinations(range(n), 2):
        cols = []
        for b in basis:
            out = {}
            for gi, gj, coef in (("E", "F", 2), ("F", "E", 2), ("H", "H", 1)):
                apply(apply({b: 1}, j, gj, 1, {}), i, gi, coef, out)
            col = [F(0)] * len(basis)
            for c, v in span.reduce(out).items():
                col[pos[c]] = v
            cols.append([F(-v, 2 * (level + 2)) for v in col])
        a_matrices[(i, j)] = [list(row) for row in zip(*cols)]
    return len(basis), classical_dim, len(basis) < classical_dim, base_point, a_matrices


def as_tuple(system):
    return (system.dim, system.classical_dim, system.truncated, system.base_point,
            system.a_matrices)


# every kz-flatness system, the four systems the benchmark runs, and a block of
# dimension 24 whose weight-zero space is 580 of the 4096 basis vectors
REFERENCE_CASES = [(level, marks) for level in range(KZ_LEVEL_MAX + 1)
                   for n in range(2, KZ_NMAX + 1)
                   for marks in itertools.product(range(level + 1), repeat=n)]
REFERENCE_CASES += [(5, (3, 3, 3, 3)), (5, (2, 2, 2, 2, 2)), (2, (1, 1, 2)),
                    (4, (2, 2, 2, 2)), (6, (3, 3, 3, 3, 3, 3))]


def test_kz_system_matches_the_full_tensor_product_reference():
    for level, marks in REFERENCE_CASES:
        assert as_tuple(kz_system(level, marks)) == reference_kz_system(level, marks), \
            (level, marks)


def test_kz_system_adds_only_rows_that_land_in_weight_zero(monkeypatch):
    # V_3 (x4): the E rows of the 40 weight -2 vectors and T^6 of the one
    # weight -12 vector; the whole-tensor-product build passed up to 4 * 256
    rows = []
    add = IntSpan.add
    monkeypatch.setattr(IntSpan, "add", lambda self, row: rows.append(row) or add(self, row))
    labels = (3, 3, 3, 3)
    kz_system(5, labels)
    weights = Counter(12 - 2 * sum(idx) for idx in itertools.product(range(4), repeat=4))
    assert len(rows) == weights[-2] + weights[-12] == 40 + 1
    stride = strides([4] * 4)
    assert {sum(3 - 2 * (c // st % 4) for st in stride) for row in rows for c in row} == {0}


def test_dropping_the_e_rows_breaks_the_block(monkeypatch):
    # the E rows are sum_i E^(i), one step of T at z = (1, ..., 1); without them
    # the weight-zero space is not divided by the image of g
    t_power = kz._TensorOps.t_power
    monkeypatch.setattr(kz._TensorOps, "t_power",
                        lambda self, vec, z, power: {} if set(z) == {1}
                        else t_power(self, vec, z, power))
    broken = kz_system(2, (1, 1, 1, 1))
    assert (broken.dim, broken.classical_dim) == (6, 6)
    assert as_tuple(broken) != reference_kz_system(2, (1, 1, 1, 1))


def test_flatness_samples():
    for level, labels in [(1, (1, 1, 1, 1)), (2, (1, 1, 2)), (2, (2, 2, 2, 2)),
                          (3, (1, 2, 3)), (3, (3, 3, 3, 3))]:
        assert flatness_check(kz_system(level, labels))


# two 2 x 2 matrices that do not commute: [N, H] = -2N
NILPOTENT, CARTAN = [[0, 1], [0, 0]], [[1, 0], [0, -1]]
ZERO = [[0, 0], [0, 0]]


def hand_built(n, nonzero):
    """A KZSystem on a 2-dimensional block with A_ij = nonzero.get((i, j), 0)."""
    mats = {pair: nonzero.get(pair, ZERO) for pair in itertools.combinations(range(n), 2)}
    return KZSystem(1, (1,) * n, 2, 2, mats, False, tuple(range(n)))


def test_flatness_check_reads_the_disjoint_pairs():
    # only A_01 and A_23 are nonzero: every triple relation holds, [A_01, A_23] != 0
    assert not flatness_check(hand_built(4, {(0, 1): NILPOTENT, (2, 3): CARTAN}))
    assert flatness_check(hand_built(4, {(0, 1): NILPOTENT, (2, 3): NILPOTENT}))


def test_flatness_check_reads_the_second_ordering():
    # A_01 = 0, so [A_01, S] = 0 holds and only [A_02, S] = [A_02, A_12] != 0 fails
    assert not flatness_check(hand_built(3, {(0, 2): NILPOTENT, (1, 2): CARTAN}))
    assert flatness_check(hand_built(3, {(0, 2): NILPOTENT, (1, 2): NILPOTENT}))


def test_sl2_irreps_are_built_once_per_label():
    sl2_irrep_matrices.cache_clear()
    for level, labels in [(2, (1, 1, 2)), (3, (1, 2, 3)), (2, (2, 2)), (3, (3, 1, 1, 3))]:
        kz_system(level, labels)
    assert sl2_irrep_matrices.cache_info().misses == 3


RESIDUE_SAMPLES = [(1, (1, 1, 1, 1)), (2, (1, 1, 2)), (2, (2, 2, 2, 2)), (3, (1, 2, 3)),
                   (3, (3, 3, 3, 3)), (5, (3, 3, 3, 3)), (5, (2, 2, 2, 2, 2))]


@pytest.mark.parametrize("level,labels", RESIDUE_SAMPLES)
def test_residue_sums_hold(level, labels):
    assert residue_check(kz_system(level, labels))


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0)])
def test_residue_check_detects_a_perturbed_entry(entry):
    system = kz_system(2, (1, 1, 1, 1))
    mats = {key: [row[:] for row in m] for key, m in system.a_matrices.items()}
    r, c = entry
    mats[(1, 3)][r][c] += F(1, 7)
    perturbed = KZSystem(system.level, system.labels, system.dim, system.classical_dim,
                         mats, system.truncated, system.base_point)
    assert not residue_check(perturbed)
    assert residue_check(system)


def test_residue_check_reads_the_last_slot():
    # +I on A_(1,2) and A_(0,2), -I on A_(0,1): slots 0 and 1 keep their
    # residue sums, slot 2's is off by 2I, and every commutator is unchanged
    system = kz_system(2, (1, 1, 2))
    mats = {key: [row[:] for row in m] for key, m in system.a_matrices.items()}
    for key, shift in [((1, 2), 1), ((0, 2), 1), ((0, 1), -1)]:
        for i in range(system.dim):
            mats[key][i][i] += shift
    perturbed = KZSystem(system.level, system.labels, system.dim, system.classical_dim,
                         mats, system.truncated, system.base_point)
    assert flatness_check(perturbed)
    assert not residue_check(perturbed)
    assert residue_check(system)


def test_system_validation():
    with pytest.raises(InputError):
        kz_system(1, (2, 0))
    with pytest.raises(InputError):
        kz_system(1, (1,))
    with pytest.raises(InputError):
        kz_system(-1, (1, 1))


def test_transport_constant_path_is_identity():
    system = kz_system(2, (1, 1, 2))
    res = parallel_transport(system, [(2, 0, -2)], steps=1000)
    assert res.matrix == [[1 + 0j]]
    assert res.error_estimate == 0.0


def test_transport_contractible_loop():
    system = kz_system(2, (1, 1, 2))
    loop = [(2, 0, -2), (2 + 1j, 0, -2), (3 + 1j, 0, -2), (3, 0, -2), (2, 0, -2)]
    res = parallel_transport(system, loop, steps=2000)
    assert res.converged
    assert abs(res.matrix[0][0] - 1) < 1e-9


def test_transport_reversal_inverts():
    system = kz_system(2, (1, 1, 1, 1))
    path = [(3, 1, 0, -2), (3 + 1j, 1, 0, -2), (4, 1, 0, -2)]
    fwd = parallel_transport(system, path, steps=2000).matrix
    back = parallel_transport(system, path[::-1], steps=2000).matrix
    prod = [[sum(fwd[i][k] * back[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert abs(prod[0][0] - 1) < 1e-9 and abs(prod[1][1] - 1) < 1e-9
    assert abs(prod[0][1]) < 1e-9 and abs(prod[1][0]) < 1e-9


def test_transport_convergence_is_fourth_order():
    system = kz_system(2, (1, 1, 2))
    tight = [(0.3, 0, -2), (0.3 + 0.6j, 0, -2), (0.9 + 0.6j, 0, -2),
             (0.9, 0, -2), (0.3, 0, -2)]
    devs = [abs(parallel_transport(system, tight, steps=s).matrix[0][0] - 1)
            for s in (100, 200, 400)]
    orders = [math.log2(devs[i] / devs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5


def test_transport_rejects_bad_paths():
    system = kz_system(2, (1, 1, 2))
    # z_0 crosses z_1 at t = 2/3, which no RK4 sample point t = k/2000 hits,
    # so only the guard can name it
    with pytest.raises(InputError, match="touches the diagonal z_0 = z_1"):
        parallel_transport(system, [(1, 0, -2), (-0.5, 0, -2)], steps=1000)
    with pytest.raises(InputError, match="touches the diagonal z_0 = z_1"):
        parallel_transport(system, [(1, 0, -2), (-1, 0, -2)], steps=1000)
    # a lone configuration is guarded as the zero-length segment to itself
    with pytest.raises(InputError, match="touches the diagonal z_0 = z_1"):
        parallel_transport(system, [(1, 1, -2)], steps=1000)
    # a non-finite coordinate makes a difference non-finite, and the message says so
    with pytest.raises(InputError, match="finite"):
        parallel_transport(system, [(2, 0, -2), (math.nan, 0, -2)], steps=1000)
    with pytest.raises(InputError):
        parallel_transport(system, [(2, 0, -2), (3, 0, -2)], steps=50)
    with pytest.raises(InputError):
        parallel_transport(system, [(2, 0), (3, 0)], steps=1000)
    with pytest.raises(InputError):
        parallel_transport(system, [], steps=1000)


def test_all_two_point_systems_are_scalars():
    for level in range(1, 4):
        for m1, m2 in itertools.product(range(level + 1), repeat=2):
            system = kz_system(level, (m1, m2))
            if system.dim:
                mat = system.a_matrices[(0, 1)]
                assert len(mat) == system.dim
                assert flatness_check(system)


# z_0 circles z_1 alone, counterclockwise
LOOP = [(3, 1, -1, -3), (1 + 2j, 1, -1, -3), (-0.2, 1, -1, -3), (1 - 2j, 1, -1, -3),
        (3, 1, -1, -3)]
TRUNCATED_SYSTEMS = [(1, (1, 1, 1, 1)), (2, (2, 2, 2, 2)), (2, (1, 1, 2, 2)),
                     (3, (2, 2, 2, 2))]


@pytest.mark.parametrize("level,labels", TRUNCATED_SYSTEMS,
                         ids=[f"l{level}-{','.join(map(str, labels))}"
                              for level, labels in TRUNCATED_SYSTEMS])
def test_truncated_transport_is_refused(level, labels, tmp_path, capsys):
    # a truncated system is the quotient at one base point, so its transport
    # is not the block holonomy: on LOOP at l=1, labels 1,1,1,1, it gave
    # e^{-i pi/3} where the level-1 fusion rules give -1
    system = kz_system(level, labels)
    assert system.truncated
    with pytest.raises(InputError, match="truncation is not supported"):
        parallel_transport(system, LOOP, steps=4000)
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(
        {"points": [[[complex(z).real, complex(z).imag] for z in config] for config in LOOP]}))
    code = cli.main(["kz", "transport", "--level", str(level),
                     "--labels", ",".join(map(str, labels)), "--path", str(path)])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("error:") and out.err.count("\n") == 1
    assert "wzw oracle npoint" in out.err


def reference_transport_fixed(system, waypoints, per_seg):
    """The RK4 holonomy as it was before the lockstep runs: one run at per_seg
    steps a segment, three fresh forms a step, rows of complex numbers."""
    dim = system.dim
    mats = {key: [[complex(v) for v in row] for row in m]
            for key, m in system.a_matrices.items()}
    y = [[1.0 + 0j if i == j else 0j for j in range(dim)] for i in range(dim)]

    def omega(zt, dz):
        om = [[0j] * dim for _ in range(dim)]
        for (i, j), m in mats.items():
            c = (dz[i] - dz[j]) / (zt[i] - zt[j])
            if c:
                for a in range(dim):
                    ra, rm = om[a], m[a]
                    for b in range(dim):
                        ra[b] += c * rm[b]
        return om

    def mul(a, b):
        cols = list(zip(*b))
        return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]

    for s in range(len(waypoints) - 1):
        p = [complex(x) for x in waypoints[s]]
        q = [complex(x) for x in waypoints[s + 1]]
        dz = [b - a for a, b in zip(p, q)]
        if all(abs(d) == 0 for d in dz):
            continue
        h = 1.0 / per_seg
        for step in range(per_seg):
            t0 = step * h
            z0 = [a + t0 * d for a, d in zip(p, dz)]
            zh = [a + (t0 + h / 2) * d for a, d in zip(p, dz)]
            z1 = [a + (t0 + h) * d for a, d in zip(p, dz)]
            k1 = mul(omega(z0, dz), y)
            y1 = [[y[i][j] + h / 2 * k1[i][j] for j in range(dim)] for i in range(dim)]
            om_h = omega(zh, dz)
            k2 = mul(om_h, y1)
            y2 = [[y[i][j] + h / 2 * k2[i][j] for j in range(dim)] for i in range(dim)]
            k3 = mul(om_h, y2)
            y3 = [[y[i][j] + h * k3[i][j] for j in range(dim)] for i in range(dim)]
            k4 = mul(omega(z1, dz), y3)
            y = [[y[i][j] + h / 6 * (k1[i][j] + 2 * k2[i][j] + 2 * k3[i][j] + k4[i][j])
                  for j in range(dim)] for i in range(dim)]
    return y


def benchmark_loop(s, n):
    """The perfbench loop scaled by s: z_0 once around z_1 = 0, the rest at -2, -4, ..."""
    rest = [-2 * k for k in range(1, n - 1)]
    corners = [(2, 0), (2, 3), (-1, 3), (-1, -3), (2, -3), (2, 0)]
    return [tuple([complex(s * x, s * y), 0] + rest) for x, y in corners]


def moving_path(n):
    """A closed path on which every point moves on every segment, so every pair is summed."""
    base = [complex(3 - 2 * k, 0.3 * k) for k in range(n)]
    return [tuple(base)] + [tuple(z + 0.4 * cmath.exp(1j * (1.7 * r + k)) * (k + 1) / n
                                  for k, z in enumerate(base)) for r in (1, 2, 3)] + [tuple(base)]


# (level, labels, path, per_seg): block dimensions 1, 2, 3, 4, 5, 6 and 15,
# each a differently shaped generated RK4 step
LOCKSTEP_CASES = [
    (2, (1, 1, 2), benchmark_loop(0.8, 3), 1600),
    (2, (1, 1, 2), moving_path(3), 1600),
    (4, (2, 2, 2, 2), benchmark_loop(1.0, 4), 400),
    (4, (2, 2, 2, 2), benchmark_loop(1.2, 4), 2),
    (4, (2, 2, 2, 2), moving_path(4), 246),
    (4, (1, 1, 2, 2, 2), benchmark_loop(1.0, 5), 246),
    (4, (1, 1, 2, 2, 2), moving_path(5), 2),
    (2, (1, 1, 1, 1), moving_path(4), 40),
    (3, (1, 1, 1, 1, 1, 1), benchmark_loop(1.0, 6), 10),
    (5, (2, 2, 2, 2, 2), moving_path(5), 8),
    (6, (2, 2, 2, 2, 2, 2), moving_path(6), 4),
    # z_0's pairs are nonzero at 13 of the 25 entries
    (8, (4, 4, 4, 4), benchmark_loop(1.1, 4), 40),
    # z_0 carries the trivial label, so the pairs it moves are zero: an empty pattern
    (3, (0, 1, 1), benchmark_loop(1.0, 3), 40),
]


@pytest.mark.parametrize("level,labels,path,per_seg", LOCKSTEP_CASES,
                         ids=[f"l{c[0]}-{','.join(map(str, c[1]))}-{c[3]}-{i}"
                              for i, c in enumerate(LOCKSTEP_CASES)])
def test_lockstep_transport_is_bit_identical_to_two_separate_runs(level, labels, path, per_seg):
    system = kz_system(level, labels)
    assert system.dim in (1, 2, 3, 4, 5, 6, 15) and not system.truncated
    want = (reference_transport_fixed(system, path, per_seg),
            reference_transport_fixed(system, path, per_seg // 2))
    assert repr(kz._transport_fixed(system, path, per_seg)) == repr(want)


def test_transport_of_an_empty_block_is_empty():
    system = kz_system(3, (3, 3, 3))
    assert system.dim == 0 and not system.truncated
    assert kz._transport_fixed(system, moving_path(3), 2) == ([], [])


def test_lockstep_transport_evaluates_each_form_once(monkeypatch):
    # two separate runs take 3 * (1600 + 800) = 7200 forms on a 1600-step
    # segment; in lockstep the runs share every form at the same float t
    calls = []
    generate = kz._connection_form

    def counting(*key):
        form = generate(*key)
        return lambda *args: calls.append(args) or form(*args)

    monkeypatch.setattr(kz, "_connection_form", counting)
    kz._transport_fixed(kz_system(2, (1, 1, 2)), benchmark_loop(1.0, 3)[:2], 1600)
    assert len(calls) == 3617


def flat_support(m):
    """The flat indices r * dim + c of the nonzero entries of a square matrix."""
    return tuple(r * len(m) + c for r, row in enumerate(m) for c, v in enumerate(row) if v)


def test_connection_form_is_generated_from_integers_only():
    # the forms of two systems with the same zero patterns differ only in their
    # arguments, so they share one function
    a, b = kz_system(4, (2, 2, 2, 2)), kz_system(5, (2, 2, 2, 2))
    assert a.dim == b.dim == 3 and a.a_matrices != b.a_matrices
    # z_0 moves on the first segment: pairs (0, 1), (0, 2) and (0, 3)
    supports = tuple(flat_support(a.a_matrices[0, j]) for j in (1, 2, 3))
    assert supports == tuple(flat_support(b.a_matrices[0, j]) for j in (1, 2, 3))
    segment = benchmark_loop(1.0, 4)[:2]
    kz._connection_form.cache_clear()
    kz._transport_fixed(a, segment, 4)
    size = kz._connection_form.cache_info().currsize
    kz._transport_fixed(b, segment, 4)
    assert kz._connection_form.cache_info().currsize == size == 1
    # no matrix entry, dz difference or point is a constant of the code
    pattern = tuple(sorted(set().union(*supports)))
    consts = kz._connection_form(pattern, supports).__code__.co_consts
    assert kz._connection_form.cache_info().currsize == 1
    assert all(type(c) is int or c in (None, 0j) for c in consts), consts


def test_rk4_step_reads_only_the_zero_pattern():
    # on the benchmark loop only z_0 moves; its three pairs leave A[0][2] and
    # A[2][0] zero, so the step reads 7 of the 9 entries of each form
    system = kz_system(4, (2, 2, 2, 2))
    pattern = tuple(sorted(set().union(*(flat_support(system.a_matrices[0, j])
                                         for j in (1, 2, 3)))))
    assert pattern == (0, 1, 3, 4, 5, 7, 8)
    kz._rk4_step.cache_clear()
    kz._transport_fixed(system, benchmark_loop(1.0, 4), 40)
    assert kz._rk4_step.cache_info().currsize == 1
    names = kz._rk4_step(3, pattern).__code__.co_varnames
    assert kz._rk4_step.cache_info().currsize == 1
    for r, c in itertools.product(range(3), repeat=2):
        read = {f"{o}{r}_{c}" in names for o in "abc"}
        assert read == {r * 3 + c in pattern}, (r, c)


def test_lockstep_transport_with_pairs_zero_where_others_are_not():
    # A_01 is zero where A_02 is not and the reverse, A_12 is zero, and the
    # middle row is zero in every pair, so each of its products is 0j
    mats = {(0, 1): [[F(1), F(0), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(2)]],
            (0, 2): [[F(0), F(1, 2), F(0)], [F(0), F(0), F(0)], [F(-1), F(0), F(1)]],
            (1, 2): [[F(0)] * 3 for _ in range(3)]}
    system = KZSystem(3, (2, 2, 2), 3, 3, mats, False, (2, 0, -2))
    path = moving_path(3)
    want = (reference_transport_fixed(system, path, 40),
            reference_transport_fixed(system, path, 20))
    assert repr(kz._transport_fixed(system, path, 40)) == repr(want)
