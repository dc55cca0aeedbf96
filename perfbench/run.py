"""latdft benchmark: one seeded workload per process, outputs checked, metrics printed.

    python3 perfbench/run.py --workload sample-fine --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; latdft is imported from its ``src``.
With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median time of fresh processes to import latdft and build the inputs),
``wall_s`` (median pass time), ``wall_s.tail`` and ``peak_rss_mb``; the
times are calibrated against a reference kernel (see ``_measure``).
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, writing the spans to ``.perfbench/``.  Human-readable
lines come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 5
MIN_PASSES = 3
TAIL_BEYOND = 10
TAIL_MIN_PERCENTILE = 90
# Nominal time of one run of _reference_kernel's loop; about its median on a 2.1 GHz Xeon KVM guest.
REFERENCE_SECONDS = 0.1
REFERENCE_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", type=float, metavar="SPAWN_TIME",
                   help="build the inputs, print seconds since SPAWN_TIME (time.monotonic) and exit")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")
    return args


def _import_workloads():
    """Import latdft from this checkout only, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "latdft" / "__init__.py").is_file():
        sys.exit(f"latdft sources not found under {src}")
    sys.path.insert(0, str(src))
    import latdft
    import workloads

    if Path(latdft.__file__).resolve().parent != src / "latdft":
        sys.exit(f"imported latdft from {latdft.__file__}, not from {src}")
    return workloads


def _reference_kernel() -> float:
    """Mean seconds of fixed pure-Python Fraction arithmetic, a probe of machine speed.

    The loop runs REFERENCE_REPEATS times: one run alone is about as noisy
    as the passes it calibrates.
    """
    t0 = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        x = Fraction(1, 3)
        for i in range(3000):
            x = (x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)) % 7
    return (time.perf_counter() - t0) / REFERENCE_REPEATS


def _setup_seconds(args) -> list[float]:
    """Seconds from the start of fresh processes to their built inputs, calibrated.

    Each probe is given the CLOCK_MONOTONIC time just before it is spawned
    and reports the same clock once its inputs are built, so process exit
    and the parent's wait are not counted.  Times are calibrated like pass
    times (see ``_measure``).
    """
    times = []
    before = _reference_kernel()
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", repr(time.monotonic())]
        out = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        after = _reference_kernel()
        times.append(float(out.stdout) * 2 * REFERENCE_SECONDS / (before + after))
        before = after
    return times


class Runner:
    """Times passes over the operations; checks the first pass, fingerprints the rest."""

    def __init__(self, ops):
        self.ops = ops
        self.digests = None
        self.attempted = 0
        self.failures: list[str] = []
        self.stats: dict[str, float] = {}

    def run_pass(self, tracer=None) -> float:
        first = self.digests is None
        if first:
            self.digests = [None] * len(self.ops)
        elapsed = 0.0
        for i, op in enumerate(self.ops):
            self.attempted += 1
            if tracer is not None:
                tracer.op = self.attempted
            try:
                seconds, fails = self._run_op(i, op, first)
                elapsed += seconds
            except Exception as exc:  # a raising operation is a failed operation
                fails = [f"raised {exc!r}"]
            if fails:
                self.failures.append(f"{op.label}: {fails[0]}")
        return elapsed

    def _run_op(self, i, op, first) -> tuple[float, list[str]]:
        t0 = time.perf_counter()
        out = op.call()
        seconds = time.perf_counter() - t0
        if not first:
            same = op.digest(out) == self.digests[i]
            return seconds, [] if same else ["output differs from the checked first pass"]
        fails, stats = op.check(out)
        for key, value in stats.items():
            self.stats[key] = max(self.stats.get(key, value), value)
        self.digests[i] = op.digest(out)
        return seconds, fails


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten passes beyond it.

    That percentile is p90 or higher only from 100 passes on; with fewer the
    slowest pass is reported, as percentile 100.
    """
    ordered = sorted(times)
    k = len(ordered)
    pct = 100 * (k - TAIL_BEYOND) / k
    if pct < TAIL_MIN_PERCENTILE:
        return ordered[-1], 100.0
    return ordered[k - TAIL_BEYOND - 1], pct


def _environment() -> str:
    import numpy

    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} {threads}")


def _measure(runner: Runner, seconds: float) -> tuple[list[float], list[float]]:
    """Warm-up pass (checked, not counted), then passes until the budget is spent.

    Returns raw pass times and the same times calibrated to a machine on
    which the reference kernel takes REFERENCE_SECONDS: each pass is divided
    by the kernel's mean time just before and just after it, over that
    nominal.  The kernel runs between passes, outside the timed region.
    """
    start = time.perf_counter()
    runner.run_pass()
    before = _reference_kernel()
    raw, calibrated = [], []
    while True:
        raw.append(runner.run_pass())
        after = _reference_kernel()
        calibrated.append(raw[-1] * 2 * REFERENCE_SECONDS / (before + after))
        before = after
        spent = time.perf_counter() - start
        if len(raw) >= MIN_PASSES and spent + statistics.median(raw) > seconds:
            return raw, calibrated


def _measure_traced(runner: Runner, tracer, seconds: float):
    """Warm-up pass, then alternating untraced and traced passes."""
    start = time.perf_counter()
    runner.run_pass()
    plain, traced, layers = [], [], []
    while True:
        plain.append(runner.run_pass())
        first = len(tracer.spans)
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.summarize(first))
        spent = time.perf_counter() - start
        if spent + statistics.median(plain) + statistics.median(traced) > seconds:
            return plain, traced, layers


def _traced_metrics(args, runner: Runner) -> dict:
    import spans

    tracer = spans.Tracer()
    plain, traced, layers = _measure_traced(runner, tracer, args.seconds)
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": _environment()})
    print(f"passes: {len(plain)} untraced (median {statistics.median(plain):.4f} s), "
          f"{len(traced)} traced (median {statistics.median(traced):.4f} s); spans: {path}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {spans.unit(name)}")
    return {name: {"value": value, "unit": spans.unit(name)} for name, value in metrics.items()}


def _end_to_end_metrics(args, runner: Runner, setup: list[float]) -> dict:
    raw, times = _measure(runner, args.seconds)
    tail, pct = _tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(times), "s"),
        "wall_s.tail": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes, start to built inputs, calibrated",
        "wall_s": f"median of {len(times)} calibrated passes after one warm-up pass; "
                  f"raw median {statistics.median(raw):.4f} s",
        "wall_s.tail": f"p{pct:.1f} of {len(times)} calibrated passes; raw {_tail(raw)[0]:.4f} s",
        "peak_rss_mb": "this process only",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:12s} {value:.4f} {unit}  ({notes[name]})")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only is not None:
        workloads.WORKLOADS[args.workload](args.seed)
        print(time.monotonic() - args.setup_only)
        return 0

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env: {_environment()}")
    setup = [] if args.trace else _setup_seconds(args)
    runner = Runner(workloads.WORKLOADS[args.workload](args.seed))
    if args.trace:
        metrics = _traced_metrics(args, runner)
    else:
        metrics = _end_to_end_metrics(args, runner, setup)

    failed = len(runner.failures)
    print(f"fail_rate    {failed / runner.attempted:.6g} 1  ({failed} of {runner.attempted} operations)")
    for key, value in sorted(runner.stats.items()):
        print(f"{key:12s} {value:.6g} 1  (largest over the checked pass)")
    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
