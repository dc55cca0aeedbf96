"""One checked pass of the benchmark's lattice-algebra and transform workloads,
and one traced pass of sample-coarse.

The benchmark checks every operation of its first pass against independent
references (brute-force enumeration, Hermite forms, exact certificate
checks, exact-phase character sums and Fourier oracles).  Running that pass
here makes a kernel break a test failure rather than only a failed operation
in a benchmark run.  The traced pass (``--trace 1``) wraps latdft functions
by name, so a rename there shows up here as a missing layer.
"""

import importlib.util
import json
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Largest array a transform operation may build here: the dense M x M matrix
# of dft_matrix, the N^n statevector of simulate_sysnf_qft, the |L_N| = N^(n-1)
# values of lattice_qft_values.
TRANSFORM_MAX_POINTS = 2**21


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports workloads by name
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run, run._import_workloads()


def test_lattice_algebra_pass_has_no_failures(monkeypatch):
    run, workloads = _workloads(monkeypatch)
    runner = run.Runner(workloads.WORKLOADS["lattice-algebra"](1))
    runner.run_pass()
    assert runner.attempted == 240
    assert runner.failures == []


def _transform_points(label: str) -> int:
    kind, n, big_n = re.fullmatch(r"(\w+) n=(\d+) N=(\d+)", label).groups()
    exponent = {"dft_matrix": 2 * (int(n) - 1), "simulate_sysnf_qft": int(n), "lattice_qft_values": int(n) - 1}
    return int(big_n) ** exponent[kind]


def test_transform_pass_has_no_failures(monkeypatch):
    run, workloads = _workloads(monkeypatch)
    ops = workloads.WORKLOADS["transform"](1)
    runner = run.Runner([op for op in ops if _transform_points(op.label) <= TRANSFORM_MAX_POINTS])
    runner.run_pass()
    assert (len(ops), runner.attempted) == (11, 9)
    assert runner.failures == []


def test_traced_pass_reports_the_declared_layers(monkeypatch):
    run, workloads = _workloads(monkeypatch)
    runner = run.Runner(workloads.WORKLOADS["sample-coarse"](1))
    tracer = importlib.import_module("spans").Tracer()
    runner.run_pass()
    tracer.install()
    try:
        runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert runner.failures == []
    layers = tracer.summarize(0)
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(layers) == sorted(m["name"] for m in declared if m["name"] != "trace.overhead_s")
    # The sampler's reductions are seen, and so is their note on cert.T.
    assert layers["sampler.sample.calls"] == layers["sysnf.reduce_to_sysnf.calls"] > 0
    assert 0 < layers["sysnf.reduce_to_sysnf.useful_ratio"] <= 1
