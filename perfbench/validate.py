"""Checks of wzw's JSON outputs against the independent values in verlinde.py.

Each function takes the parsed stdout of one command and raises Mismatch
when the output disagrees with what the formulas predict. No stored copy of
any earlier output is consulted.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

from verlinde import (alphabet, fusion_coefficients, kz_exponents, rank_of,
                      su2_invariants, verlinde_dimension)

TRANSPORT_TOL = 1e-6


class Mismatch(Exception):
    """An output that disagrees with its independent expectation."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _parse_weights(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(c) for c in w.split(":")) for w in text.split(",")) if text else ()


def fusion_table(out: dict, algebra: str, level: int) -> None:
    rank = rank_of(algebra)
    _expect(out.get("algebra") == algebra and out.get("level") == level,
            f"header {out.get('algebra')!r} level {out.get('level')!r}")
    _expect(out.get("labels") == [list(mu) for mu in alphabet(rank, level)],
            f"alphabet of {algebra} level {level} differs")
    got = {tuple(c["labels"]): c["n"] for c in out["coeffs"]}
    _expect(len(got) == len(out["coeffs"]), "repeated coefficient triple")
    want = fusion_coefficients(rank, level)
    bad = sorted(set(got.items()) ^ set(want.items()))
    _expect(not bad, f"{len(bad)} coefficients differ from the Verlinde values, "
                     f"first {bad[:1]}")


def dim(out: dict, algebra: str, level: int, genus: int, labels: str) -> None:
    want = verlinde_dimension(rank_of(algebra), level, genus, _parse_weights(labels))
    _expect(out == {"dimension": want}, f"dimension {out} != Verlinde {want}")


def _genus0(level: int, labels) -> tuple[int, int]:
    return (verlinde_dimension(1, level, 0, tuple((m,) for m in labels)),
            su2_invariants(labels))


def npoint(out: dict, level: int, labels) -> None:
    rank, classical = _genus0(level, labels)
    _expect(out == {"rank": rank, "classical_rank": classical},
            f"{out} != Verlinde rank {rank}, Clebsch-Gordan count {classical}")


def _mat(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _comm_is_zero(a, b) -> bool:
    return _mul(a, b) == _mul(b, a)


def kz_matrices(out: dict, level: int, labels) -> None:
    dim_, classical = _genus0(level, labels)
    _expect((out.get("dim"), out.get("classical_dim")) == (dim_, classical),
            f"dim {out.get('dim')}/{out.get('classical_dim')} != "
            f"Verlinde {dim_}, Clebsch-Gordan {classical}")
    n = len(labels)
    a = {(m["i"], m["j"]): _mat(m["entries"]) for m in out["matrices"]}
    _expect(sorted(a) == list(itertools.combinations(range(n), 2)),
            f"matrix pairs {sorted(a)}")
    for key, m in a.items():
        _expect(len(m) == dim_ and all(len(r) == dim_ for r in m),
                f"A{key} is not {dim_} x {dim_}")

    def pair(i, j):
        return a[(i, j) if i < j else (j, i)]

    for (i, j), aij in a.items():
        for k in range(n):
            if k in (i, j):
                continue
            s = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(pair(i, k), pair(j, k))]
            _expect(_comm_is_zero(aij, s), f"Kohno: [A{i}{j}, A{i}{k} + A{j}{k}] != 0")
        for (k, l), akl in a.items():
            if len({i, j, k, l}) == 4:
                _expect(_comm_is_zero(aij, akl), f"[A{i}{j}, A{k}{l}] != 0")
    for i, m in enumerate(labels):
        total = [[sum(pair(i, j)[r][c] for j in range(n) if j != i)
                  for c in range(dim_)] for r in range(dim_)]
        want = Fraction(m * (m + 2), 2 * (level + 2))
        ident = [[want if r == c else 0 for c in range(dim_)] for r in range(dim_)]
        _expect(total == ident, f"sum over j of A{i}j != {want} I")


def _det(m) -> complex:
    a = [row[:] for row in m]
    det = 1 + 0j
    for c in range(len(a)):
        p = max(range(c, len(a)), key=lambda r: abs(a[r][c]))
        if a[p][c] == 0:
            return 0j
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def kz_transport(out: dict, level: int, labels) -> None:
    """A loop of z_0 once around z_1 alone: holonomy ~ exp(2 pi i A_01)."""
    _expect(out.get("converged") is True, f"not converged: {out.get('error_estimate')}")
    dim_, _ = _genus0(level, labels)
    h = [[complex(re, im) for re, im in row] for row in out["matrix"]]
    _expect(len(h) == dim_ and all(len(r) == dim_ for r in h),
            f"holonomy is not {dim_} x {dim_}")
    exps = kz_exponents(level, labels)
    _expect(sum(exps.values()) == dim_, "channel multiplicities do not sum to dim")
    trace = sum(lam * mult for lam, mult in exps.items())
    det_want = cmath.exp(2j * math.pi * trace)
    _expect(abs(_det(h) - det_want) < TRANSPORT_TOL,
            f"det {_det(h)} != exp(2 pi i tr A01) = {det_want}")
    power = h
    for k in range(1, dim_ + 1):
        got = sum(power[i][i] for i in range(dim_))
        want = sum(mult * cmath.exp(2j * math.pi * k * lam) for lam, mult in exps.items())
        _expect(abs(got - want) < TRANSPORT_TOL * dim_,
                f"tr(H^{k}) = {got} != {want} from the exponents of A01")
        power = _mul(power, h)


def verify(out: dict, name: str) -> None:
    rows = out.get("checks") or []
    _expect(rows != [], f"verify {name} printed no checks")
    for row in rows:
        if "status" in row:
            _expect(row["name"] == name and row["status"] == "pass",
                    f"check {row['name']} {row['status']}: {row.get('detail')}")
        else:
            _expect(row.get("residual_norm") == "0",
                    f"{row.get('name')} residual {row.get('residual_norm')}")
