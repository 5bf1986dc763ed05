"""Batch verification suite: every identity the package promises, as one runner.

Each check returns a CheckResult, a pass/fail with one detail line, for the
`verify` subcommand; the test suite reuses the same functions so the CLI
report and CI agree by construction. `virasoro_rows` and `sugawara_rows`
give the per-identity rows of `verify virasoro|sugawara`. Every check runs
on fixed ranges, the module constants below, and randomized point
configurations use a fixed seed, keeping output byte-identical across runs.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

from .errors import InputError
from .fock import (SL2, check_current_bracket, check_sugawara_bracket, fock_space,
                   gluing_tensor, induced_module, sugawara_op)
from .fusion import alphabet, fusion_coeff, fusion_table
from .kz import flatness_check, kz_system, parallel_transport, residue_check
from .liealg import casimir_eigenvalue, dual_weight, root_system
from .linalg import mat_mul, transpose
from .oracle import (CoinvariantProblem, npoint_block_rank, propagation_check,
                     three_point_rank)
from .surface import (MarkedSurface, block_dimension, dehn_twist_eigenvalue,
                      dumbbell_graph, four_point_graph, theta_graph)

# fixed seed for the randomized z-configurations; the suite must be reproducible
POINT_SEED = 271828

# the fixed ranges of the checks; the detail lines print them
VIRASORO_KMAX, VIRASORO_DEGREE = 3, 12
SUGAWARA_DEGREE, SUGAWARA_KMAX, SUGAWARA_MMAX = 6, 2, 2
ORACLE_LEVEL_MAX = 4
KZ_NMAX, KZ_LEVEL_MAX = 4, 3
TRANSPORT_STEPS, TRANSPORT_TOLERANCE = 10000, 1e-6
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


def _failures(cases: int, bad: list, noun: str) -> str:
    """The failure line: how many of the cases failed, and the first by name."""
    return f"{len(bad)}/{cases} {noun}, first {bad[0]}"


def _sample_points(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in rng.sample(range(-40, 41), n))


def virasoro_rows(kmax: int, degree: int) -> list[dict]:
    if kmax < 0:
        raise InputError(f"kmax must be nonnegative, got {kmax}")
    rows = []
    for k in range(-kmax, kmax + 1):
        for l in range(-kmax, kmax + 1):
            res = check_sugawara_bracket(k, l, fock_space(degree))
            rows.append(_row(f"virasoro[k={k},l={l}]", res.window, res.max_abs()))
    return rows


def virasoro_bracket() -> CheckResult:
    """[L_k, L_l] = (l-k)L_{k+l} + central term, exactly, on the Fock window."""
    rows = virasoro_rows(VIRASORO_KMAX, VIRASORO_DEGREE)
    bad = [r["name"] for r in rows if r["residual_norm"] != "0"]
    detail = (f"{len(rows)} bracket pairs, |k|,|l| <= {VIRASORO_KMAX}, degree bound "
              f"{VIRASORO_DEGREE}, all residuals 0" if not bad else
              _failures(len(rows), bad, "nonzero residuals"))
    return CheckResult("virasoro-bracket", not bad, detail)


def sugawara_rows(level: int, mu: int, degree: int) -> list[dict]:
    module = induced_module(level, mu, degree)
    rows = []
    ks = range(-SUGAWARA_KMAX, SUGAWARA_KMAX + 1)
    for k in ks:
        for l in ks:
            if degree < 2 * max(abs(k), abs(l)) + 2:
                continue
            res = check_sugawara_bracket(k, l, module)
            rows.append(_row(f"sugawara-bracket[k={k},l={l}]", res.window, res.max_abs()))
    for k in ks:
        for m in range(-SUGAWARA_MMAX, SUGAWARA_MMAX + 1):
            if degree - max(0, -k) - max(0, -m) < 0:
                continue
            for g, gen in enumerate(SL2.gen_names):
                res = check_current_bracket(k, m, g, module)
                rows.append(_row(f"current[k={k},m={m},gen={gen}]",
                                 res.window, res.max_abs()))
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
    cases, bad = 0, []
    for level in (1, 2):
        for mu in range(level + 1):
            rows = sugawara_rows(level, mu, SUGAWARA_DEGREE)
            cases += len(rows)
            bad += [f"l={level},mu={mu}:{r['name']}" for r in rows
                    if r["residual_norm"] != "0"]
    detail = (f"{cases} identities (brackets, currents, L0 spectra) at "
              f"degree bound {SUGAWARA_DEGREE}, all residuals 0" if not bad else
              _failures(cases, bad, "nonzero residuals"))
    return CheckResult("sugawara-identities", not bad, detail)


def oracle_equivalence() -> CheckResult:
    """fusion_coeff agrees with the coinvariant three-point rank, all A1 triples."""
    rs = root_system("A1")
    cases, bad = 0, []
    for level in range(ORACLE_LEVEL_MAX + 1):
        alph = alphabet(rs, level)
        for m1, m2, m3 in itertools.product(range(level + 1), repeat=3):
            cases += 1
            if fusion_coeff(alph, (m1,), (m2,), (m3,)) != three_point_rank(level, m1, m2, m3):
                bad.append(f"l={level},labels=({m1},{m2},{m3})")
    detail = (f"{cases} triples across levels 0..{ORACLE_LEVEL_MAX}, "
              f"fusion coefficient == block rank everywhere" if not bad else
              _failures(cases, bad, "disagreements"))
    return CheckResult("oracle-equivalence", not bad, detail)


def fusion_axioms() -> CheckResult:
    """Unit, duality, symmetry, associativity for A1 l<=4 and A2 l<=2.

    `fusion_table` verifies the axioms once and raises InternalError on a
    violation; a ring of L labels counts L^2 unit and duality, L^3 symmetry
    and L^4 associativity instances.
    """
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
    rs = root_system("A1")
    cases, bad = 0, []

    def record(name, got, want):
        nonlocal cases
        cases += 1
        if got != want:
            bad.append(name)

    for level in range(5):
        record(f"torus,l={level}",
               block_dimension(MarkedSurface(rs, level, 1, ())), level + 1)
    g2 = MarkedSurface(rs, 1, 2, ())
    record("genus2-theta,l=1", block_dimension(g2, theta_graph()), 4)
    record("genus2-dumbbell,l=1", block_dimension(g2, dumbbell_graph()), 4)
    for level in range(4):
        labels = [(m,) for m in range(level + 1)]
        for bound in itertools.product(labels, repeat=4):
            surf = MarkedSurface(rs, level, 0, bound)
            s = block_dimension(surf, four_point_graph("s"))
            t = block_dimension(surf, four_point_graph("t"))
            record(f"channels,l={level},labels={bound}", s, t)
    for level in range(4):
        for genus in (1, 2):
            whole = block_dimension(MarkedSurface(rs, level, genus, ()))
            parts = sum(
                block_dimension(MarkedSurface(rs, level, genus - 1,
                                              (mu, dual_weight(rs, mu))))
                for mu in alphabet(rs, level).labels)
            record(f"factorization,l={level},g={genus}", whole, parts)
    detail = (f"{cases} dimension identities, all agree" if not bad else
              _failures(cases, bad, "mismatches"))
    return CheckResult("block-dimensions", not bad, detail)


def propagation() -> CheckResult:
    """Appending a trivial label changes neither surface dims nor block ranks."""
    rs = root_system("A1")
    cases, bad = 0, []
    for level in range(4):
        labels = alphabet(rs, level).labels
        for genus in range(3):
            for n in range(4):
                for bound in itertools.product(labels, repeat=n):
                    base = block_dimension(MarkedSurface(rs, level, genus, bound))
                    grown = block_dimension(
                        MarkedSurface(rs, level, genus, bound + (labels[0],)))
                    cases += 1
                    if base != grown:
                        bad.append(f"surface,l={level},g={genus},labels={bound}")
    rng = random.Random(POINT_SEED)
    for level in range(3):
        for n in range(1, 5):
            for marks in itertools.product(range(level + 1), repeat=n):
                for _ in range(3):
                    z = _sample_points(rng, n)
                    cases += 1
                    if not propagation_check(level, marks, z):
                        bad.append(f"npoint,l={level},labels={marks},z={z}")
    detail = (f"{cases} propagation instances, dimension and rank preserved"
              if not bad else _failures(cases, bad, "violations"))
    return CheckResult("propagation", not bad, detail)


def dehn_twists() -> CheckResult:
    """Twist exponents, text forms, the -i special value, and the stated
    integrality of 3(l+h)r, which fails for A1 at odd labels."""
    cases = [("A1", level) for level in range(1, 5)] + [("A2", level) for level in (1, 2)]
    rows, bad = [], []
    for name, level in cases:
        rs = root_system(name)
        h = rs.dual_coxeter
        for mu in alphabet(rs, level).labels:
            tw = dehn_twist_eigenvalue(rs, level, mu)
            r = tw.exponent
            want = casimir_eigenvalue(rs, mu) / (level + h) % 2
            triple = 3 * (level + h) * r
            entry = {"name": f"{name},l={level},mu={mu}", "exponent": str(r),
                     "eigenvalue": tw.eigenvalue_text(),
                     "integrality": f"3(l+h)r = {triple}"}
            rows.append(entry)
            if r != want or not (0 <= r < 2):
                entry["status"] = "wrong exponent"
                bad.append(entry)
            elif triple.denominator != 1:
                entry["status"] = "3(l+h)r not an integer"
                bad.append(entry)
    special = dehn_twist_eigenvalue(root_system("A1"), 1, (1,))
    if (special.exponent != Fraction(1, 2)
            or special.eigenvalue_text() != "exp(-i*pi/2)"
            or abs(special.eigenvalue() - (-1j)) > 1e-15):
        bad.append({"name": "A1,l=1,mu=(1,)", "status": "expected exactly -i"})
    detail = (f"{len(rows)} twist eigenvalues, exponents and integrality all hold"
              if not bad else
              f"{len(bad)}/{len(rows)} failures, first {bad[0]['name']}: "
              f"{bad[0]['status']} ({bad[0].get('integrality', '')})")
    return CheckResult("dehn-twists", not bad, detail)


def kz_flatness() -> CheckResult:
    """Kohno relations and residue sums for every A1 system in range."""
    cases, bad = 0, []
    for level in range(KZ_LEVEL_MAX + 1):
        for n in range(2, KZ_NMAX + 1):
            for marks in itertools.product(range(level + 1), repeat=n):
                system = kz_system(level, marks)
                flat = flatness_check(system)
                residues = residue_check(system)
                cases += 1
                if not (flat and residues):
                    bad.append(f"l={level},labels={marks}")
    detail = (f"{cases} systems, Kohno relations and residue sums exact"
              if not bad else _failures(cases, bad, "failures"))
    return CheckResult("kz-flatness", not bad, detail)


def _identity_deviation(matrix):
    return max((abs(v - (1 if i == j else 0))
                for i, row in enumerate(matrix) for j, v in enumerate(row)),
               default=0.0)


def _max_diff(a, b) -> float:
    return max((abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)),
               default=0.0)


def kz_transport() -> CheckResult:
    """Holonomy of the numeric KZ transport: identity on contractible loops,
    homotopy invariance, and fourth-order step convergence."""
    system = kz_system(2, (1, 1, 2))
    rows, bad = [], []

    loop = [(2, 0, -2), (2 + 1j, 0, -2), (3 + 1j, 0, -2), (3, 0, -2), (2, 0, -2)]
    res = parallel_transport(system, loop, steps=TRANSPORT_STEPS,
                             tolerance=TRANSPORT_TOLERANCE)
    dev = _identity_deviation(res.matrix)
    rows.append({"name": "contractible-loop", "deviation": dev,
                 "steps": res.steps, "converged": res.converged})
    if dev > TRANSPORT_TOLERANCE or not res.converged:
        bad.append(rows[-1])

    upper = [(2, 0, -2), (2 + 1j, 0, -2), (4 + 1j, 0, -2), (4, 0, -2)]
    lower = [(2, 0, -2), (2 - 1j, 0, -2), (4 - 1j, 0, -2), (4, 0, -2)]
    diff = _max_diff(parallel_transport(system, upper, steps=TRANSPORT_STEPS).matrix,
                     parallel_transport(system, lower, steps=TRANSPORT_STEPS).matrix)
    rows.append({"name": "homotopic-paths", "difference": diff})
    if diff > TRANSPORT_TOLERANCE:
        bad.append(rows[-1])

    around = [(2, 0, -2), (2 + 3j, 0, -2), (-1 + 3j, 0, -2), (-1 - 3j, 0, -2),
              (2 - 3j, 0, -2), (2, 0, -2)]
    monodromy = _max_diff(parallel_transport(system, around, steps=TRANSPORT_STEPS).matrix,
                          parallel_transport(system, loop, steps=TRANSPORT_STEPS).matrix)
    rows.append({"name": "encircling-loop", "difference": monodromy})
    if monodromy < 1e-3:
        bad.append(rows[-1])

    # convergence order must be read off at coarse steps: finer grids sit at
    # the rounding floor where halving ratios are noise
    tight = [(0.3, 0, -2), (0.3 + 0.6j, 0, -2), (0.9 + 0.6j, 0, -2),
             (0.9, 0, -2), (0.3, 0, -2)]
    devs = [_identity_deviation(parallel_transport(system, tight, steps=s).matrix)
            for s in (100, 200, 400)]
    orders = [math.log2(devs[i] / devs[i + 1]) for i in range(2)]
    rows.append({"name": "convergence-order", "deviations": devs,
                 "orders": orders})
    if min(orders) < 3.5:
        bad.append(rows[-1])

    detail = (f"loop deviation {dev:.3e}, homotopy gap {diff:.3e}, "
              f"order {min(orders):.2f}" if not bad else
              f"failed: {bad[0]['name']} ({bad[0]})")
    return CheckResult("kz-transport", not bad, detail)


def gluing_recursion() -> CheckResult:
    """Recursion identity for the gluing series and eps_0 = inverse pairing.

    gluing_tensor has verified every recursion residual; the ones with
    dp <= dmax are counted from series.residuals.
    """
    cases, bad = 0, []
    for mu in (0, 1):
        series = gluing_tensor(1, mu, GLUING_DEGREE)
        cases += sum(dp <= GLUING_DMAX for _, _, dp, _ in series.residuals) + 1
        if _identity_deviation(mat_mul(transpose(series.quotient.gram[0]), series.terms[0])):
            bad.append(f"mu={mu},eps0-inverse-pairing")
    detail = (f"{cases} recursion and pairing identities, all residuals 0"
              if not bad else _failures(cases, bad, "nonzero"))
    return CheckResult("gluing-recursion", not bad, detail)


def rank_z_independence() -> CheckResult:
    """Block rank is the same for every choice of distinct marked points."""
    rng = random.Random(POINT_SEED)
    cases, bad = 0, []
    for level in range(3):
        for n in range(1, 5):
            for marks in itertools.product(range(level + 1), repeat=n):
                ranks = {npoint_block_rank(CoinvariantProblem(level, marks,
                                                              _sample_points(rng, n)))
                         for _ in range(3)}
                cases += 1
                if len(ranks) != 1:
                    bad.append(f"l={level},labels={marks}")
    detail = (f"{cases} cases x 3 configurations, ranks independent of z"
              if not bad else _failures(cases, bad, "cases vary"))
    return CheckResult("rank-z-independence", not bad, detail)


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


def run_all(names=None) -> list[CheckResult]:
    table = dict(ALL_CHECKS)
    if names is None:
        names = [name for name, _ in ALL_CHECKS]
    results = []
    for name in names:
        if name not in table:
            raise InputError(f"unknown check {name!r}; choose from "
                             + ", ".join(table))
        results.append(table[name]())
    return results
