"""Run one wzw command in-process with a span around every layer boundary.

usage: python perfbench/tracer.py OUT_PREFIX ARG...   (PYTHONPATH=src)

Every public module-level function of each wzw module is replaced by a
wrapper, and so is every name other modules imported it under (`from .x
import y` copies the reference), so calls inside and across modules are both
seen. Each call records a span (function, parent span, start, end); spans stay
in memory and are written to OUT_PREFIX.spans when the command ends, next to
OUT_PREFIX.json with the per-layer self times, per-function calls and
inclusive times, and the work counts read from call arguments, return values
and cache_info(). The command itself runs through wzw.cli.main(argv), so its
stdout is the program's own and is compared byte for byte with an untraced run.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import math
import sys
import time

LAYERS = ("cli", "liealg", "fusion", "surface", "oracle", "linalg", "fock", "kz", "checks")
# callables outside the public surface, wrapped because a count is read from them
PRIVATE = {"surface": ("_state_sum",), "kz": ("_transport_fixed",)}
METHODS = {"linalg": (("IntSpan", "add"),), "fock": (("GradedOperator", "compose"),)}


def _wrappable(obj, module_name: str) -> bool:
    if hasattr(obj, "cache_info"):  # functools.lru_cache wrapper
        obj = obj.__wrapped__
    return callable(obj) and not isinstance(obj, type) \
        and getattr(obj, "__module__", None) == module_name


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.self_time = [0.0] * len(LAYERS)
        self.span_fn = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = [[-1, 0.0]]  # [span id, time covered by child spans]
        self.counts = {"surface.labelings": 0, "oracle.rank_calls": 0,
                       "oracle.basis_dim": 0, "linalg.intspan_rows": 0,
                       "linalg.intspan_pivots": 0, "linalg.max_coeff_bits": 0,
                       "fock.compose.nnz": 0, "kz.rk4_steps": 0}
        self.fock_modules: dict[int, object] = {}  # InducedModules, each with a _memo

    def wrap(self, fn, name: str, layer: int, hook=None):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.inclusive.append(0.0)
        stack, calls, inclusive, self_time = self.stack, self.calls, self.inclusive, self.self_time
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(span_fn)
            frame = [sid, 0.0]
            span_fn.append(fid)
            span_parent.append(parent[0])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[sid] = t0
                span_end[sid] = t1
                dur = t1 - t0
                parent[1] += dur
                self_time[layer] += dur - frame[1]
                inclusive[fid] += dur
                calls[fid] += 1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- count hooks: each reads only the call's arguments and result --------

    def _state_sum(self, args, result):
        surface, graph = args
        rank = surface.rs.rank
        alphabet_size = math.comb(surface.level + rank, rank)  # A-series: C(l + r, r)
        self.counts["surface.labelings"] += alphabet_size ** len(graph.edges)

    def _rank(self, labels):
        self.counts["oracle.rank_calls"] += 1
        self.counts["oracle.basis_dim"] += math.prod(m + 1 for m in labels)

    def _intspan_add(self, args, result):
        row = args[1]
        self.counts["linalg.intspan_rows"] += 1
        self.counts["linalg.intspan_pivots"] += bool(result)
        bits = max((abs(v).bit_length() for v in row.values()), default=0)
        if bits > self.counts["linalg.max_coeff_bits"]:
            self.counts["linalg.max_coeff_bits"] = bits

    def _compose(self, args, result):
        self.counts["fock.compose.nnz"] += sum(len(b) for b in result.blocks.values())

    def _transport_fixed(self, args, result):
        _, waypoints, per_seg = args
        self.counts["kz.rk4_steps"] += per_seg * (len(waypoints) - 1)

    def hooks(self) -> dict:
        return {
            "surface._state_sum": self._state_sum,
            "oracle.npoint_block_ranks": lambda a, r: self._rank(a[0].labels),
            "oracle.three_point_ranks": lambda a, r: self._rank(a[1:]),
            "linalg.IntSpan.add": self._intspan_add,
            "fock.GradedOperator.compose": self._compose,
            "fock.induced_module": lambda a, r: self.fock_modules.setdefault(id(r), r),
            "kz._transport_fixed": self._transport_fixed,
        }

    def install(self, modules: dict) -> dict:
        """Wrap every public function; return the originals for cache_info()."""
        hooks = self.hooks()
        originals, wrappers = {}, {}
        for layer, (short, mod) in enumerate(modules.items()):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") and attr not in PRIVATE.get(short, ())) \
                        or not _wrappable(obj, mod.__name__):
                    continue
                name = f"{short}.{attr}"
                originals[name] = obj
                wrappers[id(obj)] = self.wrap(obj, name, layer, hooks.get(name))
            for cls_name, meth in METHODS.get(short, ()):
                cls = getattr(mod, cls_name)
                name = f"{short}.{cls_name}.{meth}"
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, layer, hooks.get(name)))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
        checks = modules["checks"]
        checks.ALL_CHECKS = tuple((n, wrappers.get(id(f), f)) for n, f in checks.ALL_CHECKS)
        return originals

    def summary(self, modules: dict, originals: dict) -> dict:
        # wrapped caches are reached through the originals, unwrapped ones directly
        fock_caches = [f for name, f in originals.items() if name.startswith("fock.")]
        fock_caches += vars(modules["fock"]).values()
        fock_lru = sum(f.cache_info().currsize for f in fock_caches if hasattr(f, "cache_info"))
        counts = dict(self.counts)
        counts["liealg.dominant_weights.misses"] = \
            modules["liealg"]._dominant_weights.cache_info().misses
        counts["fusion.products"] = modules["fusion"]._truncated_product.cache_info().currsize
        counts["fock.memo_entries"] = fock_lru + sum(
            len(m._memo) for m in self.fock_modules.values())
        return {
            "layers": dict(zip(LAYERS, self.self_time)),
            "functions": {n: {"calls": c, "inclusive_s": t}
                          for n, c, t in zip(self.names, self.calls, self.inclusive) if c},
            "counts": counts,
            "spans": len(self.span_fn),
            "function_names": self.names,
        }

    def write_spans(self, path: str) -> None:
        """Binary columns: function id, parent span id, start, end (native order)."""
        with open(path, "wb") as fh:
            for col in (self.span_fn, self.span_parent, self.span_start, self.span_end):
                col.tofile(fh)


def main(prefix: str, argv: list[str]) -> int:
    modules = {short: importlib.import_module(f"wzw.{short}") for short in LAYERS}
    tracer = Tracer()
    originals = tracer.install(modules)
    code = 0
    try:
        code = modules["cli"].main(argv)
    except SystemExit as e:  # argparse rejections exit from inside main
        code = e.code if isinstance(e.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(prefix + ".json", "w") as fh:
            json.dump(tracer.summary(modules, originals), fh)
        tracer.write_spans(prefix + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
