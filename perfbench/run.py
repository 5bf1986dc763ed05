"""Cold-process benchmark of the wzw command line.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each command of the workload runs in a fresh
`python -m wzw.cli` process with PYTHONPATH=src, one at a time, and every
output is checked against independent formulas (validate.py). The run repeats
whole passes over the command list while the next pass still fits in
--seconds, always at least one. In untraced passes a cold `wzw --help` runs
after every command; setup_s is the median of those samples.

Times are normalised to a reference machine speed. The speed of the machine
is measured by a fixed pure-Python loop (the ruler) run in this process just
before every command and after the last; every time of a run is multiplied
by RULER_REF_S / (mean ruler time of the run). On a shared host the speed of
a core drifts by +-20% over minutes, and the ruler drifts with it (see
README.md).

--trace 0 reports the end-to-end metrics: setup_s, the median over passes of
a pass's wall_s and cpu_s, and the largest peak_rss_mb of any command.
--trace 1 alternates an untraced pass with a pass under tracer.py and reports
the per-layer metrics; each traced command's stdout must be byte-identical to
its untraced run. The last line of stdout is one JSON object; the same
object, and the traced runs' span files, are kept under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from tracer import LAYERS
from validate import Mismatch
from workloads import SMALL_INSTANCE_CHECKS, WORKLOADS, Command

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
COMMAND_TIMEOUT_S = 120.0
RULER_REF_S = 0.090  # the ruler's time on the reference machine

COUNTS = {  # per-layer metric -> traced function whose calls it counts
    "liealg.tensor_decompose.calls": "liealg.tensor_decompose",
    "liealg.dual_weight.calls": "liealg.dual_weight",
    "fusion.fusion_coeff.calls": "fusion.fusion_coeff",
    "surface.block_dimension.calls": "surface.block_dimension",
    "linalg.invert.calls": "linalg.invert",
    "fock.compose.calls": "fock.GradedOperator.compose",
}
INCLUSIVE = {  # per-layer metric -> traced function whose total time it is
    "fusion.fusion_table_s": "fusion.fusion_table",
    "kz.kz_system_s": "kz.kz_system",
    "kz.transport_s": "kz.parallel_transport",
}
INCLUSIVE.update({f"checks.{name}_s": "checks." + name.replace("-", "_")
                  for name in SMALL_INSTANCE_CHECKS})
UNITS = {"cli.stdout_bytes": "bytes", "linalg.max_coeff_bits": "bits"}


@dataclass
class Sample:
    wall: float
    cpu: float
    maxrss_kb: int
    code: int
    stdout: bytes
    stderr: bytes


def run_process(argv: list[str]) -> Sample:
    """Run one process to its end; CPU and peak RSS come from its wait4 rusage."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "stdout", OUT / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: end the child first
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  proc.returncode, out_path.read_bytes(), err_path.read_bytes())


def wzw(argv) -> list[str]:
    return [sys.executable, "-m", "wzw.cli", *argv]


def ruler() -> float:
    """Seconds taken by a fixed loop of Fraction and dict work, about RULER_REF_S."""
    gc.collect()
    gc.disable()  # a collection inside the loop would time the heap, not the core
    try:
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 24000):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            key = (i % 97, i % 5)
            table[key] = table.get(key, 0) + i
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_series(argvs: list[list[str]], rulers: list[float],
               setup_walls: list[float] | None = None) -> list[Sample]:
    """Run processes one after another, a ruler before each and after the last.

    With `setup_walls`, a cold `wzw --help` runs after each process's ruler
    and its wall time is appended there: set-up samples spread over the whole
    run, like the rulers, rather than bunched in its first seconds.
    """
    rulers.append(ruler())
    samples = []
    for argv in argvs:
        samples.append(run_process(argv))
        rulers.append(ruler())
        if setup_walls is not None:
            setup_walls.append(setup_sample())
    return samples


class Run:
    """Counts of attempted and failed commands, and whether outputs were right."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rulers: list[float] = []

    def speed(self) -> float:
        """Factor from this run's measured times to the reference speed."""
        return RULER_REF_S / statistics.mean(self.rulers)

    def command(self, cmd: Command, sample: Sample) -> None:
        self.attempted += 1
        what = " ".join(cmd.argv)
        if sample.code != 0:
            self.failed += 1
            tail = sample.stderr.decode(errors="replace").strip().splitlines()[-1:]
            log(f"FAILED (exit {sample.code}): {what}: {tail}")
            return
        try:
            cmd.check(json.loads(sample.stdout))
        except (Mismatch, ValueError, KeyError, TypeError) as e:
            self.failed += 1
            self.correct = False
            log(f"WRONG OUTPUT: {what}: {type(e).__name__}: {e}")

    def mismatch(self, message: str) -> None:
        self.correct = False
        log(f"MISMATCH: {message}")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def setup_sample() -> float:
    """Wall time of one cold `wzw --help`: interpreter, imports, parser."""
    s = run_process(wzw(["--help"]))
    if s.code != 0 or not s.stdout.startswith(b"usage:"):
        raise RuntimeError(f"wzw --help failed (exit {s.code}): {s.stderr[-500:]!r}")
    return s.wall


def untraced_pass(commands: list[Command], run: Run,
                  setup_walls: list[float] | None) -> tuple[float, float, int, list[Sample]]:
    """(measured wall, measured cpu, peak RSS in KB, samples) of one pass."""
    samples = run_series([wzw(cmd.argv) for cmd in commands], run.rulers, setup_walls)
    for cmd, s in zip(commands, samples):
        run.command(cmd, s)
    wall, cpu = sum(s.wall for s in samples), sum(s.cpu for s in samples)
    log(f"pass: wall {wall:.3f} s, cpu {cpu:.3f} s")
    return wall, cpu, max(s.maxrss_kb for s in samples), samples


def traced_pass(commands: list[Command], reference: list[Sample], run: Run):
    """Every command under tracer.py; returns (measured wall, per-command stats)."""
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    prefixes = [str(trace_dir / f"cmd{i:02d}") for i in range(len(commands))]
    samples = run_series([[sys.executable, str(BENCH / "tracer.py"), prefix, *cmd.argv]
                          for prefix, cmd in zip(prefixes, commands)], run.rulers)
    stats = []
    for cmd, ref, s, prefix in zip(commands, reference, samples, prefixes):
        run.command(cmd, s)
        if (s.code, s.stdout) != (ref.code, ref.stdout):
            run.mismatch(f"traced stdout or exit code differs: {' '.join(cmd.argv)}")
        with open(prefix + ".json") as fh:
            st = json.load(fh)
        st["stdout_bytes"] = len(s.stdout)
        stats.append(st)
    wall = sum(s.wall for s in samples)
    log(f"traced pass: wall {wall:.3f} s")
    return wall, stats


def layer_metrics(stats: list[dict]) -> tuple[dict, dict]:
    """(self and inclusive times, work counts), summed over one traced pass."""
    times = {f"{layer}.self_s": sum(st["layers"][layer] for st in stats) for layer in LAYERS}

    def fn_total(name, key):
        return sum(st["functions"].get(name, {}).get(key, 0) for st in stats)

    times.update({m: fn_total(f, "inclusive_s") for m, f in INCLUSIVE.items()})
    counts = {"cli.stdout_bytes": sum(st["stdout_bytes"] for st in stats)}
    counts.update({m: fn_total(f, "calls") for m, f in COUNTS.items()})
    for name in stats[0]["counts"]:
        values = [st["counts"][name] for st in stats]
        counts[name] = max(values) if name == "linalg.max_coeff_bits" else sum(values)
    return times, counts


def measure(commands: list[Command], seconds: float, trace: bool, run: Run) -> dict:
    setup_sample()  # warm-up: the first process after a build compiles bytecode
    setup_walls = None if trace else []
    walls, cpus, rss, traced_walls, times, counts = [], [], [], [], [], None
    start = time.perf_counter()
    longest = 0.0
    while not walls or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        wall, cpu, maxrss, samples = untraced_pass(commands, run, setup_walls)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(maxrss)
        if trace:
            twall, stats = traced_pass(commands, samples, run)
            traced_walls.append(twall)
            t, c = layer_metrics(stats)
            times.append(t)
            if counts is not None and c != counts:
                run.mismatch("work counts differ between two traced passes")
            counts = counts or c
        longest = max(longest, time.perf_counter() - t0)
    speed = run.speed()
    log(f"speed factor of the run: {speed:.4f} from {len(run.rulers)} rulers")
    if not trace:
        log(f"setup: median {statistics.median(setup_walls):.4f} s of {len(setup_walls)}")
        return {"setup_s": (statistics.median(setup_walls) * speed, "s"),
                "wall_s": (statistics.median(walls) * speed, "s"),
                "cpu_s": (statistics.median(cpus) * speed, "s"),
                "peak_rss_mb": (max(rss) / 1024, "MB")}
    metrics = {m: (statistics.median(t[m] for t in times), "s") for m in times[0]}
    metrics.update({m: (v, UNITS.get(m, "count")) for m, v in counts.items()})
    metrics["trace.overhead_s"] = (speed * statistics.median(
        tw - w for tw, w in zip(traced_walls, walls)), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "wzw" / "cli.py").is_file():
        log(f"no wzw sources under {ROOT / 'src'}; run from a checkout of the repository")
        return 2
    OUT.mkdir(exist_ok=True)
    commands = WORKLOADS[args.workload](random.Random(args.seed), OUT)
    run = Run()
    try:
        metrics = measure(commands, args.seconds, bool(args.trace), run)
    except RuntimeError as e:
        log(str(e))
        return 2
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    line = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
