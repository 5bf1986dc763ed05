"""Batch verification suite: every identity the package promises, in ALL_CHECKS.

Each check returns a CheckResult, a pass/fail with one detail line, for the
`verify` subcommand; the test suite reuses the same functions so the CLI
report and CI agree by construction. `virasoro_rows` and `sugawara_rows`
give the per-identity rows of `verify virasoro|sugawara`. Every check runs
on fixed ranges, the module constants below, and randomized point
configurations use a fixed seed, keeping output byte-identical across runs.
A check of many cases yields (case name, ok) pairs to `_verdict`, the one tally.

Each check imports the layer functions it calls on its first lines, so a
`verify` command loads only the layers its check runs.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .errors import InputError

# fixed seed for the randomized z-configurations; the suite must be reproducible
POINT_SEED = 271828

# the fixed ranges of the checks; the detail lines print them
VIRASORO_KMAX, VIRASORO_DEGREE = 3, 12
SUGAWARA_DEGREE, SUGAWARA_KMAX, SUGAWARA_MMAX = 6, 2, 2
ORACLE_LEVEL_MAX = 4
KZ_NMAX, KZ_LEVEL_MAX = 4, 3
TRANSPORT_TOLERANCE = 1e-6
GLUING_DEGREE, GLUING_DMAX = 6, 4


class CheckResult(namedtuple("CheckResult", "name passed detail")):
    __slots__ = ()

    def to_report(self) -> dict:
        # deliberately no timing: report bytes must not vary between runs
        return {"name": self.name, "status": "pass" if self.passed else "fail",
                "detail": self.detail}


def _row(name: str, window: tuple, residual) -> dict:
    return {"name": name, "window": f"[{window[0]},{window[1]}]",
            "residual_norm": str(residual)}


def _verdict(name: str, outcomes, passed: str, noun: str) -> CheckResult:
    """A check's result from its (case name, ok) pairs, streamed: the case count
    and `passed` if every case holds, else how many failed and the first by name."""
    cases, bad = 0, []
    for cases, (case, ok) in enumerate(outcomes, 1):
        if not ok:
            bad.append(case)
    detail = f"{cases} {passed}" if not bad else f"{len(bad)}/{cases} {noun}, first {bad[0]}"
    return CheckResult(name, not bad, detail)


def _sample_points(rng, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in rng.sample(range(-40, 41), n))


def virasoro_rows(kmax: int, degree: int) -> list[dict]:
    from .fock import check_sugawara_bracket, fock_space
    if kmax < 0:
        raise InputError(f"kmax must be nonnegative, got {kmax}")
    rows = []
    for k in range(-kmax, kmax + 1):
        for l in range(-kmax, kmax + 1):
            res = check_sugawara_bracket(k, l, fock_space(degree))
            rows.append(_row(f"virasoro[k={k},l={l}]", (0, res.hi), res.max_abs()))
    return rows


def virasoro_bracket() -> CheckResult:
    """[L_k, L_l] = (l-k)L_{k+l} + central term, exactly, on the Fock window."""
    rows = virasoro_rows(VIRASORO_KMAX, VIRASORO_DEGREE)
    return _verdict("virasoro-bracket", ((r["name"], r["residual_norm"] == "0") for r in rows),
                    f"bracket pairs, |k|,|l| <= {VIRASORO_KMAX}, degree bound "
                    f"{VIRASORO_DEGREE}, all residuals 0", "nonzero residuals")


def sugawara_rows(level: int, mu: int, degree: int) -> list[dict]:
    from .fock import (SL2, check_current_bracket, check_sugawara_bracket, induced_module,
                       sugawara_op)
    module = induced_module(level, mu, degree)
    rows = []
    ks = range(-SUGAWARA_KMAX, SUGAWARA_KMAX + 1)
    for k in ks:
        for l in ks:
            if degree < 2 * max(abs(k), abs(l)) + 2:
                continue
            res = check_sugawara_bracket(k, l, module)
            rows.append(_row(f"sugawara-bracket[k={k},l={l}]", (0, res.hi), res.max_abs()))
    for k in ks:
        for m in range(-SUGAWARA_MMAX, SUGAWARA_MMAX + 1):
            if degree - max(0, -k) - max(0, -m) < 0:
                continue
            for g, gen in enumerate(SL2.gen_names):
                res = check_current_bracket(k, m, g, module)
                rows.append(_row(f"current[k={k},m={m},gen={gen}]",
                                 (0, res.hi), res.max_abs()))
    t0 = sugawara_op(0, module)
    c_mu = Fraction(mu * (mu + 2), 2)
    for n in range(degree + 1):
        want = -(n + c_mu / (2 * (level + 2)))
        # the entries of T(D_0) - want on degree n; any not listed are 0
        diff = t0.entries(n)
        for i in range(module.dim(n)):
            diff[i, i] = diff.get((i, i), 0) - want
        worst = max(abs(v) for v in diff.values())
        rows.append(_row(f"L0-spectrum[deg={n}]", (n, n), worst))
    return rows


def sugawara_identities() -> CheckResult:
    """Current brackets and the L0 spectrum for A1, levels 1 and 2, all labels."""
    outcomes = ((f"l={level},mu={mu}:{r['name']}", r["residual_norm"] == "0")
                for level in (1, 2) for mu in range(level + 1)
                for r in sugawara_rows(level, mu, SUGAWARA_DEGREE))
    return _verdict("sugawara-identities", outcomes,
                    "identities (brackets, currents, L0 spectra) at "
                    f"degree bound {SUGAWARA_DEGREE}, all residuals 0", "nonzero residuals")


def oracle_equivalence() -> CheckResult:
    """fusion_coeff agrees with the coinvariant three-point rank, all A1 triples."""
    from .fusion import alphabet, fusion_coeff
    from .liealg import root_system
    from .oracle import three_point_ranks
    rs = root_system("A1")

    def outcomes():
        for level in range(ORACLE_LEVEL_MAX + 1):
            alph = alphabet(rs, level)
            for m1, m2, m3 in itertools.product(range(level + 1), repeat=3):
                yield (f"l={level},labels=({m1},{m2},{m3})",
                       fusion_coeff(alph, (m1,), (m2,), (m3,))
                       == three_point_ranks(level, m1, m2, m3)[0])
    return _verdict("oracle-equivalence", outcomes(),
                    f"triples across levels 0..{ORACLE_LEVEL_MAX}, "
                    "fusion coefficient == block rank everywhere", "disagreements")


def fusion_axioms() -> CheckResult:
    """Unit, duality, symmetry, associativity for A1 l<=4 and A2 l<=2.

    `fusion_table` verifies the axioms once and raises InternalError on a
    violation; a ring of L labels counts L^2 unit and duality, L^3 symmetry
    and L^4 associativity instances.
    """
    from .fusion import alphabet, fusion_table
    from .liealg import root_system
    cases = [("A1", level) for level in range(5)] + [("A2", level) for level in range(3)]
    total = 0
    for name, level in cases:
        alph = alphabet(root_system(name), level)
        fusion_table(alph)
        size = len(alph.labels)
        total += size ** 2 + size ** 3 + size ** 4
    return CheckResult("fusion-axioms", True,
                       f"{total} axiom instances over {len(cases)} rings, all pass")


def block_dimensions() -> CheckResult:
    """Torus counts, graph independence, channel agreement, factorization."""
    from .fusion import alphabet
    from .liealg import root_system
    from .surface import (MarkedSurface, block_dimension, dumbbell_graph, four_point_graph,
                          theta_graph)
    rs = root_system("A1")

    def outcomes():
        for level in range(5):
            yield (f"torus,l={level}",
                   block_dimension(MarkedSurface(rs, level, 1, ())) == level + 1)
        g2 = MarkedSurface(rs, 1, 2, ())
        yield "genus2-theta,l=1", block_dimension(g2, theta_graph()) == 4
        yield "genus2-dumbbell,l=1", block_dimension(g2, dumbbell_graph()) == 4
        for level in range(4):
            labels = [(m,) for m in range(level + 1)]
            for bound in itertools.product(labels, repeat=4):
                surf = MarkedSurface(rs, level, 0, bound)
                s = block_dimension(surf, four_point_graph("s"))
                t = block_dimension(surf, four_point_graph("t"))
                yield f"channels,l={level},labels={bound}", s == t
        for level in range(4):
            alph = alphabet(rs, level)
            for genus in (1, 2):
                whole = block_dimension(MarkedSurface(rs, level, genus, ()))
                parts = sum(block_dimension(MarkedSurface(rs, level, genus - 1,
                                                          (mu, alph.labels[alph.dual[i]])))
                            for i, mu in enumerate(alph.labels))
                yield f"factorization,l={level},g={genus}", whole == parts
    return _verdict("block-dimensions", outcomes(), "dimension identities, all agree",
                    "mismatches")


def propagation() -> CheckResult:
    """Appending a trivial label changes neither surface dims nor block ranks."""
    import random

    from .fusion import alphabet
    from .liealg import root_system
    from .oracle import propagation_check
    from .surface import MarkedSurface, block_dimension
    rs = root_system("A1")

    def outcomes():
        for level in range(4):
            labels = alphabet(rs, level).labels
            for genus in range(3):
                for n in range(4):
                    for bound in itertools.product(labels, repeat=n):
                        base = block_dimension(MarkedSurface(rs, level, genus, bound))
                        grown = block_dimension(
                            MarkedSurface(rs, level, genus, bound + (labels[0],)))
                        yield f"surface,l={level},g={genus},labels={bound}", base == grown
        rng = random.Random(POINT_SEED)
        for level in range(3):
            for n in range(1, 5):
                for marks in itertools.product(range(level + 1), repeat=n):
                    for _ in range(3):
                        z = _sample_points(rng, n)
                        yield (f"npoint,l={level},labels={marks},z={z}",
                               propagation_check(level, marks, z))
    return _verdict("propagation", outcomes(),
                    "propagation instances, dimension and rank preserved", "violations")


def dehn_twists() -> CheckResult:
    """Twist exponents, text forms, the -i special value, and the stated
    integrality of 3(l+h)r, which fails for A1 at odd labels."""
    from .fusion import alphabet
    from .liealg import casimir_eigenvalue, root_system
    from .surface import dehn_twist_eigenvalue
    cases = [("A1", level) for level in range(1, 5)] + [("A2", level) for level in (1, 2)]
    count, bad = 0, []
    for name, level in cases:
        rs = root_system(name)
        h = rs.dual_coxeter
        for mu in alphabet(rs, level).labels:
            count += 1
            r = dehn_twist_eigenvalue(rs, level, mu).exponent
            triple = 3 * (level + h) * r
            if r != casimir_eigenvalue(rs, mu) / (level + h) % 2:
                status = "wrong exponent"
            elif triple.denominator != 1:
                status = "3(l+h)r not an integer"
            else:
                continue
            bad.append(f"{name},l={level},mu={mu}: {status} (3(l+h)r = {triple})")
    special = dehn_twist_eigenvalue(root_system("A1"), 1, (1,))
    if (special.exponent != Fraction(1, 2)
            or special.eigenvalue_text() != "exp(-i*pi/2)"):
        bad.append("A1,l=1,mu=(1,): expected exactly -i ()")
    detail = (f"{count} twist eigenvalues, exponents and integrality all hold" if not bad
              else f"{len(bad)}/{count} failures, first {bad[0]}")
    return CheckResult("dehn-twists", not bad, detail)


def kz_flatness() -> CheckResult:
    """Kohno relations and residue sums for every A1 system in range."""
    from .kz import flatness_check, kz_system, residue_check

    def outcomes():
        for level in range(KZ_LEVEL_MAX + 1):
            for n in range(2, KZ_NMAX + 1):
                for marks in itertools.product(range(level + 1), repeat=n):
                    system = kz_system(level, marks)
                    flat = flatness_check(system)
                    residues = residue_check(system)
                    yield f"l={level},labels={marks}", flat and residues
    return _verdict("kz-flatness", outcomes(),
                    "systems, Kohno relations and residue sums exact", "failures")


def kz_transport() -> CheckResult:
    """Holonomy of the numeric KZ transport: identity on contractible loops,
    homotopy invariance, Liouville's det = exp(2 pi i tr A_01) once around
    z_1, and fourth-order step convergence."""
    import cmath
    import math

    from .kz import kz_system, max_difference, parallel_transport
    from .linalg import identity
    system = kz_system(2, (1, 1, 2))
    one = identity(system.dim)
    bad = []

    loop = [(2, 0, -2), (2 + 1j, 0, -2), (3 + 1j, 0, -2), (3, 0, -2), (2, 0, -2)]
    res = parallel_transport(system, loop)
    dev = max_difference(res.matrix, one)
    if dev > TRANSPORT_TOLERANCE or not res.converged:
        bad.append({"name": "contractible-loop", "deviation": dev,
                    "steps": res.steps, "converged": res.converged})

    upper = [(2, 0, -2), (2 + 1j, 0, -2), (4 + 1j, 0, -2), (4, 0, -2)]
    lower = [(2, 0, -2), (2 - 1j, 0, -2), (4 - 1j, 0, -2), (4, 0, -2)]
    diff = max_difference(parallel_transport(system, upper).matrix,
                          parallel_transport(system, lower).matrix)
    if diff > TRANSPORT_TOLERANCE:
        bad.append({"name": "homotopic-paths", "difference": diff})

    around = [(2, 0, -2), (2 + 3j, 0, -2), (-1 + 3j, 0, -2), (-1 - 3j, 0, -2),
              (2 - 3j, 0, -2), (2, 0, -2)]
    # res is the contractible loop, transported at the same default steps
    encircling = parallel_transport(system, around)
    monodromy = max_difference(encircling.matrix, res.matrix)
    if monodromy < 1e-3:
        bad.append({"name": "encircling-loop", "difference": monodromy})

    # Liouville: det Y = exp of the integral of tr Omega, and on `around` only
    # z_0 - z_1 winds, once counterclockwise
    trace = sum(system.a_matrices[(0, 1)][r][r] for r in range(system.dim))
    gap = abs(encircling.determinant - cmath.exp(2j * math.pi * float(trace)))
    if gap > TRANSPORT_TOLERANCE:
        bad.append({"name": "liouville-determinant", "trace": str(trace), "gap": gap})

    # convergence order must be read off at coarse steps: finer grids sit at
    # the rounding floor where halving ratios are noise
    tight = [(0.3, 0, -2), (0.3 + 0.6j, 0, -2), (0.9 + 0.6j, 0, -2),
             (0.9, 0, -2), (0.3, 0, -2)]
    devs = [max_difference(parallel_transport(system, tight, steps=s).matrix, one)
            for s in (100, 200, 400)]
    orders = [math.log2(devs[i] / devs[i + 1]) for i in range(2)]
    if min(orders) < 3.5:
        bad.append({"name": "convergence-order", "deviations": devs, "orders": orders})

    detail = (f"loop deviation {dev:.3e}, homotopy gap {diff:.3e}, "
              f"order {min(orders):.2f}" if not bad else
              f"failed: {bad[0]['name']} ({bad[0]})")
    return CheckResult("kz-transport", not bad, detail)


def gluing_recursion() -> CheckResult:
    """Recursion identity for the gluing series and eps_0 = inverse pairing.

    gluing_tensor verifies eps_d H_d^T = I at every degree and every recursion
    residual, and raises InternalError on the first that fails; eps_0 and the
    residuals with dp <= dmax are counted.
    """
    from .fock import gluing_tensor
    cases = 0
    for mu in (0, 1):
        series = gluing_tensor(1, mu, GLUING_DEGREE)
        # eps_0 is the first term
        cases += sum(dp <= GLUING_DMAX for _, _, dp in series.residuals) + len(series.terms[:1])
    return CheckResult("gluing-recursion", True,
                       f"{cases} recursion and pairing identities, all residuals 0")


def rank_z_independence() -> CheckResult:
    """Block rank is the same for every choice of distinct marked points."""
    import random

    from .oracle import CoinvariantProblem, npoint_block_ranks
    rng = random.Random(POINT_SEED)

    def outcomes():
        for level in range(3):
            for n in range(1, 5):
                for marks in itertools.product(range(level + 1), repeat=n):
                    ranks = {npoint_block_ranks(CoinvariantProblem(level, marks,
                                                                   _sample_points(rng, n)))[0]
                             for _ in range(3)}
                    yield f"l={level},labels={marks}", len(ranks) == 1
    return _verdict("rank-z-independence", outcomes(),
                    "cases x 3 configurations, ranks independent of z", "cases vary")


ALL_CHECKS = (
    ("virasoro-bracket", virasoro_bracket),
    ("sugawara-identities", sugawara_identities),
    ("oracle-equivalence", oracle_equivalence),
    ("fusion-axioms", fusion_axioms),
    ("block-dimensions", block_dimensions),
    ("propagation", propagation),
    ("dehn-twists", dehn_twists),
    ("kz-flatness", kz_flatness),
    ("kz-transport", kz_transport),
    ("gluing-recursion", gluing_recursion),
    ("rank-z-independence", rank_z_independence),
)
