"""The benchmark's workloads: fixed lists of wzw commands and their checks.

The seed only draws the inputs whose answer is known not to depend on them:
the marked points of `oracle npoint` (the rank is independent of z) and the
size of the transport loops (the holonomy's eigenvalues depend only on which
puncture the loop encircles). Everything else is fixed, so every seed runs
the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import validate

# `wzw verify` checks that run many small instances, one process each; a
# change that speeds up large instances by adding set-up cost to every
# instance shows in them. The other checks are left out: sugawara-identities
# (38 s), propagation (28 s), gluing-recursion (19 s) and kz-flatness (6 s)
# would each be most of a pass, and the ruler that normalises the times only
# samples the core between processes; dehn-twists exits 1 by design;
# oracle-equivalence, virasoro-bracket and kz-transport reach no layer the
# commands below leave out.
SMALL_INSTANCE_CHECKS = ("fusion-axioms", "block-dimensions", "rank-z-independence")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[dict], None]  # raises validate.Mismatch on a wrong output


def _fusion_table(algebra: str, level: int) -> Command:
    return Command(("fusion-table", "--algebra", algebra, "--level", str(level)),
                   partial(validate.fusion_table, algebra=algebra, level=level))


def _dim(algebra: str, level: int, genus: int, labels: str = "") -> Command:
    argv = ("dim", "--algebra", algebra, "--level", str(level), "--genus", str(genus))
    if labels:
        argv += ("--labels", labels)
    return Command(argv, partial(validate.dim, algebra=algebra, level=level,
                                 genus=genus, labels=labels))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _npoint(rng: random.Random, level: int, labels: tuple[int, ...]) -> Command:
    points = rng.sample(range(-20, 21), len(labels))
    # one token, so that a leading minus sign is not read as an option
    return Command(("oracle", "npoint", "--level", str(level), "--labels", _csv(labels),
                    f"--points={_csv(points)}"),
                   partial(validate.npoint, level=level, labels=labels))


def _kz_matrices(level: int, labels: tuple[int, ...]) -> Command:
    return Command(("kz", "matrices", "--level", str(level), "--labels", _csv(labels)),
                   partial(validate.kz_matrices, level=level, labels=labels))


def _loop_file(rng: random.Random, n: int, out_dir: Path) -> Path:
    """z_0 once counterclockwise around z_1 = 0; z_2, z_3, ... sit at -2, -4, ...

    The loop is the README's rectangle scaled by s in [0.8, 1.2], so it
    always encloses 0 and never reaches -2.
    """
    s = round(rng.uniform(0.8, 1.2), 3)
    rest = [[-2 * k, 0] for k in range(1, n - 1)]
    corners = [(2, 0), (2, 3), (-1, 3), (-1, -3), (2, -3)]
    data = {"points": [[[s * x, s * y], [0, 0]] + rest for x, y in corners],
            "closed": True}
    path = out_dir / f"loop{n}.json"
    path.write_text(json.dumps(data))
    return path


def _kz_transport(rng: random.Random, out_dir: Path, level: int,
                  labels: tuple[int, ...], steps: int) -> Command:
    path = _loop_file(rng, len(labels), out_dir)
    return Command(("kz", "transport", "--level", str(level), "--labels", _csv(labels),
                    "--path", str(path), "--steps", str(steps)),
                   partial(validate.kz_transport, level=level, labels=labels))


def _verify(name: str, *flags: str) -> Command:
    return Command(("verify", name) + flags, partial(validate.verify, name=name))


def fusion_surface(rng: random.Random, out_dir: Path) -> list[Command]:
    """Fusion rings (the associativity loop) and state sums (point lookups)."""
    return [
        _fusion_table("A1", 12), _fusion_table("A1", 8),
        _fusion_table("A2", 3), _fusion_table("A2", 2),
        _dim("A1", 5, 3), _dim("A2", 2, 3),
        _dim("A1", 4, 2, "1,1,2,2"), _dim("A2", 3, 1, "1:0,0:1,1:1,1:1"),
        _dim("A1", 10, 0, "1,2,3,4,5,6,1"),
        _verify("fusion-axioms"), _verify("block-dimensions"),
    ]


def oracle_kz_fock(rng: random.Random, out_dir: Path) -> list[Command]:
    """Exact linear algebra: coinvariant ranks, KZ systems, Fock operators."""
    return [
        _npoint(rng, 4, (2, 2, 2, 2, 2, 2)), _npoint(rng, 5, (3, 3, 3, 3, 2)),
        _npoint(rng, 5, (4, 4, 4, 2)),
        _kz_matrices(5, (3, 3, 3, 3)), _kz_matrices(5, (2, 2, 2, 2, 2)),
        _kz_transport(rng, out_dir, 2, (1, 1, 2), 4000),
        _kz_transport(rng, out_dir, 4, (2, 2, 2, 2), 8000),
        _verify("sugawara", "--level", "2", "--label", "2", "--degree", "4"),
        _verify("sugawara", "--level", "1", "--label", "0", "--degree", "5"),
        _verify("virasoro", "--kmax", "3", "--degree", "10"),
        _verify("rank-z-independence"),
    ]


WORKLOADS = {
    "fusion-surface": fusion_surface,
    "oracle-kz-fock": oracle_kz_fock,
}
