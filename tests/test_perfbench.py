"""One checked pass of the benchmark's lattice-algebra workload.

The benchmark checks every operation of its first pass against independent
references (brute-force enumeration, Hermite forms, exact certificate
checks).  Running that pass here makes a kernel break a test failure rather
than only a failed operation in a benchmark run.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_lattice_algebra_pass_has_no_failures(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports workloads by name
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    workloads = run._import_workloads()
    runner = run.Runner(workloads.WORKLOADS["lattice-algebra"](1))
    runner.run_pass()
    assert runner.attempted == 240
    assert runner.failures == []
