"""KZ connection matrices, Kohno flatness, residue sums, and numeric parallel transport."""

import cmath
import itertools
import json
import math
import operator
from fractions import Fraction

import pytest

from wzw import cli, kz
from wzw.checks import KZ_LEVEL_MAX, KZ_NMAX
from wzw.errors import InputError
from wzw.kz import KZSystem, flatness_check, kz_system, parallel_transport, residue_check
from wzw.liealg import sl2_irrep_matrices
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


def test_flatness_samples():
    for level, labels in [(1, (1, 1, 1, 1)), (2, (1, 1, 2)), (2, (2, 2, 2, 2)),
                          (3, (1, 2, 3)), (3, (3, 3, 3, 3))]:
        assert flatness_check(kz_system(level, labels))


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
    with pytest.raises(InputError):
        parallel_transport(system, [(1, 0, -2), (-1, 0, -2)], steps=1000)
    with pytest.raises(InputError):
        parallel_transport(system, [(1, 1, -2)], steps=1000)
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


# (level, labels, path, per_seg): block dimensions 1, 3 and 4
LOCKSTEP_CASES = [
    (2, (1, 1, 2), benchmark_loop(0.8, 3), 1600),
    (2, (1, 1, 2), moving_path(3), 1600),
    (4, (2, 2, 2, 2), benchmark_loop(1.0, 4), 400),
    (4, (2, 2, 2, 2), benchmark_loop(1.2, 4), 2),
    (4, (2, 2, 2, 2), moving_path(4), 246),
    (4, (1, 1, 2, 2, 2), benchmark_loop(1.0, 5), 246),
    (4, (1, 1, 2, 2, 2), moving_path(5), 2),
]


@pytest.mark.parametrize("level,labels,path,per_seg", LOCKSTEP_CASES,
                         ids=[f"l{c[0]}-{','.join(map(str, c[1]))}-{c[3]}-{i}"
                              for i, c in enumerate(LOCKSTEP_CASES)])
def test_lockstep_transport_is_bit_identical_to_two_separate_runs(level, labels, path, per_seg):
    system = kz_system(level, labels)
    assert system.dim in (1, 3, 4) and not system.truncated
    want = (reference_transport_fixed(system, path, per_seg),
            reference_transport_fixed(system, path, per_seg // 2))
    assert repr(kz._transport_fixed(system, path, per_seg)) == repr(want)


def test_lockstep_transport_evaluates_each_form_once(monkeypatch):
    # two separate runs take 3 * (1600 + 800) = 7200 forms on a 1600-step
    # segment; in lockstep the runs share every form at the same float t
    calls = []
    omega = kz._omega

    def counted(*args):
        calls.append(args)
        return omega(*args)

    monkeypatch.setattr(kz, "_omega", counted)
    kz._transport_fixed(kz_system(2, (1, 1, 2)), benchmark_loop(1.0, 3)[:2], 1600)
    assert len(calls) <= 3700
