"""Pinned outputs for fixed seeds.

``golden_outputs.json`` was recorded from the implementation that enumerated
coefficient boxes and L_N indices separately in each caller, before both were
shared.  These tests make "bit-identical for fixed seeds" a checked property:
support points and draws must match exactly, probabilities to 1e-15, and the
exact CVP / first-minimum values must be equal as rationals.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from latdft.intlat import ExactMatrix, cvp_exact, lambda1_sq
from latdft.sampler import brute_force_target, gaussian_spec, sample

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
