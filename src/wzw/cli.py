"""Command line front end.

Six subcommands (fusion-table, dim, dehn, oracle, kz, verify) expose the
library for batch use. JSON is the machine format, TSV the human one;
rational numbers are printed as "p/q" strings except in `kz transport`,
whose output is explicitly floating point. Runs with identical flags
produce byte-identical output. Exit codes: 0 success, 1 rejected input, a
failed verification or a closed stdout, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import re
import sys
from fractions import Fraction

from . import checks
from .errors import InputError, InternalError
from .fusion import alphabet, fusion_table
from .kz import flatness_check, kz_system, parallel_transport
from .liealg import root_system
from .oracle import (CoinvariantProblem, npoint_block_ranks,
                     propagation_check, three_point_ranks)
from .surface import MarkedSurface, block_dimension, dehn_twist_eigenvalue


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value that starts like a negative number, such as the point list
        # -5,17,14 or -3/2,0, is a value and not an option (no option here
        # looks like a number)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_weight(text: str, rank: int) -> tuple:
    parts = text.split(":") if text else []
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
        raise InputError(f"weight {text!r} must be colon-separated integers") from None
    if len(coords) != rank:
        raise InputError(f"weight {text!r} has {len(coords)} coordinates, "
                         f"rank {rank} needs exactly {rank}")
    return coords


def _parse_weights(text: str, rank: int) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_weight(part, rank) for part in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"labels {text!r} must be comma-separated integers") from None


def _parse_points(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(p) for p in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"points {text!r} must be comma-separated rationals "
                         "like 0,1,3/2,-2") from None


def _render(payload: dict, tsv_rows: list, fmt: str) -> str:
    """The stdout text of a result, whole, so that a failure prints none of it."""
    try:
        if fmt == "json":
            return json.dumps(payload, indent=2) + "\n"
        return "".join("\t".join(str(x) for x in row) + "\n" for row in tsv_rows)
    except ValueError as e:
        if "integer string conversion" not in str(e):
            raise
        raise InputError(f"the answer has more than {sys.get_int_max_str_digits()} "
                         "digits, Python's limit for printing an integer") from None


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, tsv rows, exit code)

def _cmd_fusion_table(args):
    rs = root_system(args.algebra)
    alph = alphabet(rs, args.level)
    ring = fusion_table(alph)
    coeffs = [{"labels": list(triple), "n": n}
              for triple, n in ring.nonzero_ordered()]
    payload = {"algebra": args.algebra, "level": args.level,
               "labels": [list(mu) for mu in alph.labels], "coeffs": coeffs}
    rows = [("labels",) + tuple(":".join(map(str, mu)) for mu in alph.labels)]
    rows += [(c["labels"][0], c["labels"][1], c["labels"][2], c["n"])
             for c in coeffs]
    return payload, rows, 0


def _cmd_dim(args):
    rs = root_system(args.algebra)
    bound = _parse_weights(args.labels, rs.rank)
    dim = block_dimension(MarkedSurface(rs, args.level, args.genus, bound))
    return {"dimension": dim}, [("dimension", dim)], 0


def _cmd_dehn(args):
    rs = root_system(args.algebra)
    mu = _parse_weight(args.label, rs.rank)
    tw = dehn_twist_eigenvalue(rs, args.level, mu)
    payload = {"exponent": str(tw.exponent), "eigenvalue": tw.eigenvalue_text()}
    return payload, list(payload.items()), 0


def _read_flags(args, name: str, reads: dict, optional) -> dict:
    """The flags `name` reads, defaults filled in; any other of `optional` given is an error.

    Each flag in `optional` defaults to None in the parser, so a flag given on
    the command line is told apart from one left out.
    """
    for flag in optional:
        if getattr(args, flag) is not None and flag not in reads:
            raise InputError(f"{name} does not read --{flag}")
    return {flag: default if getattr(args, flag) is None else getattr(args, flag)
            for flag, default in reads.items()}


def _cmd_oracle(args):
    reads = {} if args.problem == "three-point" else {"points": ""}
    flags = _read_flags(args, f"oracle {args.problem}", reads, ("points",))
    if args.problem == "three-point":
        marks = _parse_ints(args.labels)
        if len(marks) != 3:
            raise InputError(f"three-point needs exactly 3 labels, got {len(marks)}")
        rank, classical = three_point_ranks(args.level, *marks)
        payload = {"rank": rank, "classical_rank": classical}
    elif args.problem == "npoint":
        marks = _parse_ints(args.labels)
        points = _parse_points(flags["points"])
        rank, classical = npoint_block_ranks(
            CoinvariantProblem(args.level, marks, points))
        payload = {"rank": rank, "classical_rank": classical}
    else:
        marks = _parse_ints(args.labels)
        points = _parse_points(flags["points"])
        payload = {"preserved": propagation_check(args.level, marks, points)}
    return payload, list(payload.items()), 0


def _frac_matrix(mat):
    return [[str(Fraction(v)) for v in row] for row in mat]


def _kz_system(args):
    """The system of the flags, rejected when its level truncation is not flat."""
    if args.algebra != "A1":
        raise InputError(f"kz supports algebra A1 only, got {args.algebra!r}")
    system = kz_system(args.level, _parse_ints(args.labels))
    if system.truncated and not flatness_check(system):
        raise InputError(f"level truncation is not supported for labels {system.labels} "
                         f"at level {system.level}: the truncated connection is not flat")
    return system


def _cmd_kz_matrices(args):
    system = _kz_system(args)
    matrices = [{"i": i, "j": j, "entries": _frac_matrix(system.a_matrices[(i, j)])}
                for (i, j) in sorted(system.a_matrices)]
    payload = {"algebra": args.algebra, "level": args.level,
               "labels": list(system.labels), "dim": system.dim,
               "classical_dim": system.classical_dim,
               "truncated": system.truncated,
               "base_point": [str(z) for z in system.base_point],
               "matrices": matrices}
    rows = [("dim", system.dim), ("classical_dim", system.classical_dim),
            ("truncated", system.truncated)]
    for m in matrices:
        rows.append((f"A({m['i']},{m['j']})",))
        rows += [tuple(r) for r in m["entries"]]
    return payload, rows, 0


def _load_path(filename: str, n: int) -> list:
    try:
        with open(filename, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read path file: {e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:  # JSON text is UTF-8
        raise InputError(f"path file is not valid JSON: {e}") from None
    pts = data.get("points") if isinstance(data, dict) else None
    if not isinstance(pts, list) or not pts:
        raise InputError('path file needs "points": a list of configurations')
    waypoints = []
    for config in pts:
        if not isinstance(config, list) or len(config) != n:
            raise InputError(f"each configuration needs {n} [re,im] pairs")
        try:
            waypoints.append(tuple(complex(x, y) for x, y in config))
        except (TypeError, ValueError):
            raise InputError("points must be [re,im] number pairs") from None
        if not all(cmath.isfinite(z) for z in waypoints[-1]):
            raise InputError("path coordinates must be finite numbers")
    if data.get("closed"):
        waypoints.append(waypoints[0])
    return waypoints


def _cmd_kz_transport(args, path, steps, tolerance):
    system = _kz_system(args)
    waypoints = _load_path(path, system.n)
    res = parallel_transport(system, waypoints, steps=steps, tolerance=tolerance)
    payload = {"matrix": [[[v.real, v.imag] for v in row] for row in res.matrix],
               "steps": res.steps, "path": res.path,
               "error_estimate": res.error_estimate, "converged": res.converged}
    rows = [("steps", res.steps), ("error_estimate", res.error_estimate),
            ("converged", res.converged)]
    rows += [tuple(f"{v.real}{v.imag:+}j" for v in row) for row in res.matrix]
    return payload, rows, 0


# the flags each kz action reads beyond --algebra, --level and --labels
_KZ_FLAGS = {"matrices": {},
             "transport": {"path": None, "steps": 10000, "tolerance": 1e-6}}


def _cmd_kz(args):
    flags = _read_flags(args, f"kz {args.action}", _KZ_FLAGS[args.action],
                        ("path", "steps", "tolerance"))
    if args.action == "matrices":
        return _cmd_kz_matrices(args)
    return _cmd_kz_transport(args, **flags)


# the flags each verify target reads, with their defaults; the named checks read none
_VERIFY_FLAGS = {"virasoro": {"kmax": checks.VIRASORO_KMAX, "degree": checks.VIRASORO_DEGREE},
                 "sugawara": {"algebra": "A1", "level": 1, "label": 1,
                              "degree": checks.SUGAWARA_DEGREE}}


def _cmd_verify(args):
    flags = _read_flags(args, f"verify {args.what}", _VERIFY_FLAGS.get(args.what, {}),
                        ("kmax", "degree", "algebra", "level", "label"))
    if args.what == "virasoro":
        rows = checks.virasoro_rows(flags["kmax"], flags["degree"])
    elif args.what == "sugawara":
        if flags["algebra"] != "A1":
            raise InputError(f"verify sugawara supports A1 only, got {flags['algebra']!r}")
        rows = checks.sugawara_rows(flags["level"], flags["label"], flags["degree"])
    else:
        names = None if args.what == "all" else [args.what]
        results = checks.run_all(names)
        payload = {"checks": [r.to_report() for r in results]}
        tsv = [(c["name"], c["status"], c["detail"]) for c in payload["checks"]]
        code = 0 if all(r.passed for r in results) else 1
        return payload, tsv, code
    payload = {"checks": rows}
    tsv = [(r["name"], r["window"], r["residual_norm"]) for r in rows]
    code = 0 if all(r["residual_norm"] == "0" for r in rows) else 1
    return payload, tsv, code


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(prog="wzw", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_format(p):
        p.add_argument("--format", choices=("json", "tsv"), default="json",
                       help="json (machine) or tsv (human); default json")

    p = sub.add_parser("fusion-table", help="full fusion ring of an alphabet")
    p.add_argument("--algebra", required=True, help="e.g. A1, A2")
    p.add_argument("--level", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_fusion_table)

    p = sub.add_parser("dim", help="conformal-block dimension of a surface")
    p.add_argument("--algebra", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--labels", default="", help="boundary labels, comma-separated "
                   "weights with colon-separated coordinates, e.g. 1,0 or 1:0,0:1")
    add_format(p)
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser("dehn", help="Dehn twist eigenvalue on a block summand")
    p.add_argument("--algebra", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--label", required=True, help="one weight, e.g. 1 or 1:0")
    add_format(p)
    p.set_defaults(handler=_cmd_dehn)

    p = sub.add_parser("oracle", help="coinvariant ranks on the line (A1)")
    p.add_argument("problem", choices=("three-point", "npoint", "propagation"))
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--labels", required=True, help="e.g. 1,1,0")
    p.add_argument("--points", help="rational points, e.g. 0,1,3/2")
    add_format(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("kz", help="KZ connection matrices and transport (A1)")
    p.add_argument("action", choices=("matrices", "transport"))
    p.add_argument("--algebra", default="A1")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--labels", required=True, help="e.g. 1,1,2")
    p.add_argument("--path", help="JSON file {points: [[ [re,im], ...], ...], "
                   "closed: bool} (transport only)")
    p.add_argument("--steps", type=int)
    p.add_argument("--tolerance", type=float)
    add_format(p)
    p.set_defaults(handler=_cmd_kz)

    p = sub.add_parser("verify", help="identity checks; 'all' runs the full suite")
    p.add_argument("what", choices=("all", "virasoro", "sugawara")
                   + tuple(name for name, _ in checks.ALL_CHECKS))
    p.add_argument("--kmax", type=int, help="virasoro only; default 3")
    p.add_argument("--degree", type=int,
                   help="window bound; defaults to 12 for virasoro, 6 for sugawara")
    p.add_argument("--algebra", help="sugawara only; A1, the default")
    p.add_argument("--level", type=int, help="sugawara only; default 1")
    p.add_argument("--label", type=int, help="sugawara only; default 1")
    add_format(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "kz" and args.action == "transport" and not args.path:
        parser.error("kz transport requires --path")
    try:
        payload, rows, code = args.handler(args)
        text = _render(payload, rows, args.format)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # any other escape is a bug, never an input problem
        print(f"internal error: {e!r}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, so the output is lost: exit 1, and point
        # stdout at devnull so that the flush at shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
