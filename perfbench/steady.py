"""Steadiness self-check: run the benchmark twice over fresh seeds and compare with its bounds.

    python3 perfbench/steady.py

Two sets of ten runs each of every workload in BENCHMARK.json, for its
run_seconds, one process at a time, seeds rotating across workloads so slow
spells of a shared machine spread over all of them.  Set 1 uses seeds 1-10,
set 2 seeds 11-20.  For each end-to-end metric the check reports, per set,
the median and the spread (distance between first and third quartile over
the median), and the drift between the two medians (their difference over
the first).  It fails when any spread or drift exceeds the metric's bound;
it flags spreads above a third of the bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def _run(command, workload, seed, seconds) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def _spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]

    values = {(s, w): [] for s in range(SETS) for w in names}
    for s in range(SETS):
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in names:
                metrics = _run(bench["command"], w, seed, bench["run_seconds"])
                values[(s, w)].append(metrics)
                print(f"set {s + 1} seed {seed:3d} {w:16s} "
                      + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)

    ok = True
    print(f"\n{'workload':16s} {'metric':12s} {'bound':>6s} "
          + " ".join(f"{'median' + str(s + 1):>9s} {'spread' + str(s + 1):>8s}" for s in range(SETS))
          + "   drift")
    for w in names:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, medians = [], []
            for s in range(SETS):
                series = [run[name] for run in values[(s, w)]]
                med, spread = statistics.median(series), _spread(series)
                medians.append(med)
                flag = " "
                if spread > bound:
                    flag, ok = "!", False
                elif spread > bound / 3:
                    flag = "~"
                cells.append(f"{med:9.4g} {spread:7.3f}{flag}")
            drift = abs(medians[1] - medians[0]) / medians[0]
            ok &= drift <= bound
            print(f"{w:16s} {name:12s} {bound:6.3f} " + " ".join(cells)
                  + f" {drift:7.3f}" + ("!" if drift > bound else ""))
    print("\n! exceeds the bound, ~ spread above a third of the bound")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
