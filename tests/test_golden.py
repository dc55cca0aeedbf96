"""Pinned outputs for fixed seeds.

``golden_outputs.json`` was recorded from the implementation that enumerated
coefficient boxes and L_N indices separately in each caller, before both were
shared; the ``decode_mismatch_rate`` entries were recorded from the
sampler that checked closest tags against a growing set of short dual
vectors, before the Voronoi-cell test; the ``reduction`` entries were
recorded from the reduction that rebuilt H^-1 and its row-norm bounds at
every scale, before they were computed once per call.  ``golden_sample/``
holds the artefacts of ``latdft sample`` on the README's example config at
100 shots, recorded before the acceptance battery became one table; its
``tv_distance`` was re-recorded to the last bit once ``pac_distance`` summed
with ``math.fsum`` in any listing order (the old value differed in the
seventeenth significant digit, inside the 1e-12 comparison, which stays
because CI runs more than one numpy).  These tests make
"bit-identical for fixed seeds" a checked property: support points and draws
must match exactly, probabilities to 1e-15, mismatch rates exactly, the exact
CVP / first-minimum values must be equal as rationals, reduction
certificates must serialize to the same bytes, and ``samples.csv`` must
match byte for byte, with the report's integers, flags and hash exact and its
floats to 1e-12.
"""

import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from latdft.cli import main
from latdft.intlat import ExactMatrix, cvp_exact, lambda1_sq
from latdft.sampler import QESSpec, brute_force_target, gaussian_spec, sample
from latdft.sysnf import reduce_to_sysnf

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())
GOLDEN_SAMPLE = Path(__file__).parent / "golden_sample"


def _matrix(rows):
    return ExactMatrix([[Fraction(x) for x in row] for row in rows])


def test_sample_identity_lattice():
    g = GOLDEN["sample_identity"]
    spec = gaussian_spec(g["s_f"], grid_radius=g["grid_radius"])
    res = sample(spec, ExactMatrix.identity(2), Fraction(g["epsilon"]), shots=g["shots"], seed=g["seed"])
    dist = res.distribution
    assert [list(p) for p in dist.points] == g["points"]
    assert [list(p) for p in res.samples] == g["samples"]
    assert np.abs(dist.probs - np.array(g["probs"])).max() <= 1e-15


def test_brute_force_target_accept_basis():
    g = GOLDEN["brute_force_target"]
    s = g["s"]
    dist = brute_force_target(
        lambda p: math.exp(-math.pi * sum(c * c for c in p) / (2 * s * s)),
        ExactMatrix([[2, 1], [0, 1]]),
        g["box_radius"],
    )
    assert [list(p) for p in dist.points] == g["points"]
    assert np.abs(dist.probs - np.array(g["probs"])).max() <= 1e-15


@pytest.mark.parametrize("case", GOLDEN["cvp_exact"], ids=lambda c: str(c["basis"]))
def test_cvp_exact(case):
    res = cvp_exact(_matrix(case["basis"]), tuple(Fraction(x) for x in case["target"]))
    assert res.point == tuple(Fraction(x) for x in case["point"])
    assert res.dist_sq == Fraction(case["dist_sq"])


@pytest.mark.parametrize("case", GOLDEN["lambda1_sq"], ids=lambda c: str(c["basis"]))
def test_lambda1_sq(case):
    assert lambda1_sq(_matrix(case["basis"])) == Fraction(case["lambda1_sq"])


@pytest.mark.parametrize("case", GOLDEN["decode_mismatch_rate"], ids=lambda c: f"{c['spec']}-{c['grid_radius']}")
def test_decode_mismatch_rate(case):
    if case["spec"] == "flat":
        spec = QESSpec(amplitude=lambda p: np.ones(len(p)), grid_radius=case["grid_radius"])
    else:
        spec = gaussian_spec(case["s"], grid_radius=case["grid_radius"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sample(spec, ExactMatrix.identity(2), Fraction(case["epsilon"]), shots=0, seed=0)
    assert res.decode_mismatch_rate == case["rate"]


@pytest.mark.parametrize("case", GOLDEN["reduction"], ids=lambda c: f"{c['basis']}-{c['epsilon']}")
def test_reduction_certificate(case):
    # The sampler's reductions, one T doubling (I_2 at 1/2), n = 3 and 4, and delta = 4.
    cert = reduce_to_sysnf(ExactMatrix(case["basis"]), Fraction(case["epsilon"]))
    assert cert.to_json() == case["certificate"]


def test_cli_sample_artefacts(tmp_path, monkeypatch):
    # The README's example config at 100 shots, as the CI smoke step runs it.
    monkeypatch.chdir(tmp_path)
    Path("basis.txt").write_text("2 2\n2 1\n0 1\n")
    config = {"basis": "basis.txt", "spec": {"kind": "gaussian", "s": 16.0}, "epsilon": "1/16", "shots": 100, "seed": 31}
    Path("config.json").write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the run must raise no warning of any kind
        assert main(["sample", "--config", "config.json", "--out", "out"]) == 0
    assert Path("out/samples.csv").read_bytes() == (GOLDEN_SAMPLE / "samples.csv").read_bytes()
    got = json.loads(Path("out/sample_report.json").read_text())
    want = json.loads((GOLDEN_SAMPLE / "sample_report.json").read_text())
    assert list(got) == list(want)
    for key, value in want.items():
        assert type(got[key]) is type(value), key
        if isinstance(value, float):
            assert abs(got[key] - value) <= 1e-12, key
        else:
            assert got[key] == value, key
