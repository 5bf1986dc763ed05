"""Command line front end.

Six subcommands (fusion-table, dim, dehn, oracle, kz, verify) expose the
library for batch use. JSON is the machine format, TSV the human one;
rational numbers are printed as "p/q" strings except in `kz transport`,
whose output is explicitly floating point. Runs with identical flags
produce byte-identical output. Exit codes: 0 success, 1 rejected input, a
failed verification or a closed stdout, 2 internal invariant violation.
At module top only what parsing needs is imported; each handler imports the
layers it calls, so `--help` and every command load no layer they do not run.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys

from .errors import InputError, InternalError

# the names of checks.ALL_CHECKS, in order, so that building the parser loads
# no layer; a test holds the two equal
_CHECK_NAMES = ("virasoro-bracket", "sugawara-identities", "oracle-equivalence",
                "fusion-axioms", "block-dimensions", "propagation", "dehn-twists",
                "kz-flatness", "kz-transport", "gluing-recursion", "rank-z-independence")


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


def _parse_points(text: str) -> tuple:
    from fractions import Fraction
    try:
        return tuple(Fraction(p) for p in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"points {text!r} must be comma-separated rationals "
                         "like 0,1,3/2,-2") from None


def _render(payload: dict, tsv_rows: list, fmt: str) -> str:
    """The stdout text of a result, whole, so that a failure prints none of it."""
    import json
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
# subcommand handlers: each returns (payload, tsv rows, exit code); _render
# reads only the one --format asks for

def _cmd_fusion_table(args):
    from .fusion import alphabet, fusion_table
    from .liealg import root_system
    rs = root_system(args.algebra)
    alph = alphabet(rs, args.level)
    coeffs = fusion_table(alph).nonzero_ordered()
    # the largest output of any command: build only the form that is printed
    if args.format == "json":
        payload = {"algebra": args.algebra, "level": args.level,
                   "labels": [list(mu) for mu in alph.labels],
                   "coeffs": [{"labels": list(triple), "n": n} for triple, n in coeffs]}
        return payload, None, 0
    rows = [("labels",) + tuple(":".join(map(str, mu)) for mu in alph.labels)]
    rows += [(*triple, n) for triple, n in coeffs]
    return None, rows, 0


def _cmd_dim(args):
    from .liealg import root_system
    from .surface import MarkedSurface, block_dimension
    rs = root_system(args.algebra)
    bound = _parse_weights(args.labels, rs.rank)
    dim = block_dimension(MarkedSurface(rs, args.level, args.genus, bound))
    return {"dimension": dim}, [("dimension", dim)], 0


def _cmd_dehn(args):
    from .liealg import root_system
    from .surface import dehn_twist_eigenvalue
    rs = root_system(args.algebra)
    mu = _parse_weight(args.label, rs.rank)
    tw = dehn_twist_eigenvalue(rs, args.level, mu)
    payload = {"exponent": str(tw.exponent), "eigenvalue": tw.eigenvalue_text()}
    return payload, list(payload.items()), 0


def _read_flags(args, name: str, reads, optional, needs=()) -> dict:
    """The flags of `optional` given on the command line; one not in `reads`,
    or one of `needs` left out, is an error.

    Each flag in `optional` defaults to None in the parser, so a flag given on
    the command line is told apart from one left out, which takes the default
    of the code that reads it.
    """
    given = {flag: getattr(args, flag) for flag in optional if getattr(args, flag) is not None}
    for flag in given:
        if flag not in reads:
            raise InputError(f"{name} does not read --{flag}")
    for flag in needs:
        if flag not in given:
            raise InputError(f"{name} requires --{flag}")
    return given


def _cmd_oracle(args):
    from .oracle import (CoinvariantProblem, npoint_block_ranks,
                         propagation_check, three_point_ranks)
    reads = () if args.problem == "three-point" else ("points",)
    flags = _read_flags(args, f"oracle {args.problem}", reads, ("points",), needs=reads)
    marks = _parse_ints(args.labels)
    if args.problem == "three-point":
        if len(marks) != 3:
            raise InputError(f"three-point needs exactly 3 labels, got {len(marks)}")
        rank, classical = three_point_ranks(args.level, *marks)
        payload = {"rank": rank, "classical_rank": classical}
    elif args.problem == "npoint":
        points = _parse_points(flags["points"])
        rank, classical = npoint_block_ranks(
            CoinvariantProblem(args.level, marks, points))
        payload = {"rank": rank, "classical_rank": classical}
    else:
        points = _parse_points(flags["points"])
        payload = {"preserved": propagation_check(args.level, marks, points)}
    return payload, list(payload.items()), 0


def _load_path(filename: str) -> list:
    """The configurations of a path file as tuples of complex, the first repeated
    at the end when "closed"; `kz.parallel_transport` checks their lengths and
    finiteness."""
    import json
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
        try:
            if (not isinstance(config, list)
                    or any(isinstance(c, bool) for pair in config for c in pair)):
                raise TypeError
            waypoints.append(tuple(complex(x, y) for x, y in config))
        except (TypeError, ValueError, OverflowError):  # an int too large for a float
            raise InputError("points must be [re,im] number pairs") from None
    if not isinstance(data.get("closed", False), bool):
        raise InputError('"closed" must be true or false')
    if data.get("closed"):
        waypoints.append(waypoints[0])
    return waypoints


def _cmd_kz(args):
    """`matrices`: the matrices of the system, refused when its level truncation
    is not flat; `transport`: its holonomy along the --path file, with the
    step and tolerance defaults of `kz.parallel_transport`."""
    from .kz import flatness_check, kz_system, parallel_transport
    reads = ("path", "steps", "tolerance") if args.action == "transport" else ()
    flags = _read_flags(args, f"kz {args.action}", reads, ("path", "steps", "tolerance"),
                        needs=("path",) if reads else ())
    if args.algebra != "A1":
        raise InputError(f"kz supports algebra A1 only, got {args.algebra!r}")
    system = kz_system(args.level, _parse_ints(args.labels))
    if args.action == "transport":
        res = parallel_transport(system, _load_path(flags.pop("path")), **flags)
        payload = {"matrix": [[[v.real, v.imag] for v in row] for row in res.matrix],
                   "steps": res.steps, "path": res.path,
                   "error_estimate": res.error_estimate, "converged": res.converged}
        rows = [("steps", res.steps), ("error_estimate", res.error_estimate),
                ("converged", res.converged)]
        rows += [tuple(f"{v.real}{v.imag:+}j" for v in row) for row in res.matrix]
        return payload, rows, 0
    if system.truncated and not flatness_check(system):
        raise InputError(f"level truncation is not supported for labels {system.labels} "
                         f"at level {system.level}: the truncated connection is not flat")
    matrices = [{"i": i, "j": j, "entries": [[str(v) for v in row] for row in mat]}
                for (i, j), mat in sorted(system.a_matrices.items())]
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


def _cmd_verify(args):
    from .checks import (ALL_CHECKS, SUGAWARA_DEGREE, VIRASORO_DEGREE, VIRASORO_KMAX,
                         sugawara_rows, virasoro_rows)
    # the flags each verify target reads, with their defaults; the named checks read none
    verify_flags = {"virasoro": {"kmax": VIRASORO_KMAX, "degree": VIRASORO_DEGREE},
                    "sugawara": {"algebra": "A1", "level": 1, "label": 1,
                                 "degree": SUGAWARA_DEGREE}}
    reads = verify_flags.get(args.what, {})
    flags = {**reads, **_read_flags(args, f"verify {args.what}", reads,
                                    ("kmax", "degree", "algebra", "level", "label"))}
    if args.what == "virasoro":
        rows = virasoro_rows(flags["kmax"], flags["degree"])
    elif args.what == "sugawara":
        if flags["algebra"] != "A1":
            raise InputError(f"verify sugawara supports A1 only, got {flags['algebra']!r}")
        rows = sugawara_rows(flags["level"], flags["label"], flags["degree"])
    else:
        results = [check() for name, check in ALL_CHECKS if args.what in ("all", name)]
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
    p.add_argument("what", choices=("all", "virasoro", "sugawara") + _CHECK_NAMES)
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
    args = build_parser().parse_args(argv)
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


def run() -> None:
    """The process entry (`python -m wzw.cli`, the `wzw` script): main(), then exit.

    The heap is frozen just before the interpreter tears down, on every path
    out of main() including argparse's SystemExit, so that the collections
    run at exit do not walk every object start-up made. main() itself leaves
    the collector alone, since tests and tracers call it in process.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
