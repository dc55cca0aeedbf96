"""Pinned outputs for fixed seeds.

``golden_outputs.json`` was recorded from the implementation that enumerated
coefficient boxes and L_N indices separately in each caller, before both were
shared; the ``decode_mismatch_rate`` entries were recorded from the
sampler that checked closest tags against a growing set of short dual
vectors, before the Voronoi-cell test; the ``reduction`` entries were
recorded from the reduction that rebuilt H^-1 and its row-norm bounds at
every scale, before they were computed once per call.  These tests make
"bit-identical for fixed seeds" a checked property: support points and draws
must match exactly, probabilities to 1e-15, mismatch rates exactly, the exact
CVP / first-minimum values must be equal as rationals, and reduction
certificates must serialize to the same bytes.
"""

import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from latdft.intlat import ExactMatrix, cvp_exact, lambda1_sq
from latdft.sampler import QESSpec, brute_force_target, gaussian_spec, sample
from latdft.sysnf import reduce_to_sysnf

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())


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
