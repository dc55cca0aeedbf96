import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from latdft import intlat
from latdft.errors import ParameterError, RankError, SizeGuardError, ZeroMassError
from latdft.intlat import ExactMatrix, lambda1_sq, membership
from latdft.sampler import (
    DiscreteDistribution,
    QESSpec,
    brute_force_target,
    gaussian_spec,
    pac_distance,
    sample,
)

B_ACCEPT = ExactMatrix([[2, 1], [0, 1]])


def target_gaussian(s):
    return lambda p: math.exp(-math.pi * sum(c * c for c in p) / (2 * s * s))


class TestGaussianSpec:
    def test_unit_at_origin(self):
        spec = gaussian_spec(4.0, grid_radius=10.0)
        assert spec.amplitude(np.zeros((1, 2))).tolist() == [1.0]

    def test_density_ratio_identity(self):
        s = 3.5
        spec = gaussian_spec(s, grid_radius=10.0)
        pts = np.array([(0, 0), (1, 0), (2, 2), (0, 3)], dtype=float)
        amps = spec.amplitude(pts)
        for x, a in zip(pts[1:], amps[1:]):
            expected = math.exp(-math.pi * (x @ x) / (s * s))
            assert abs(abs(a) ** 2 / abs(amps[0]) ** 2 - expected) < 1e-12

    def test_radial_monotonicity(self):
        spec = gaussian_spec(2.0, grid_radius=10.0)
        pts = np.array([(0, 0), (1, 0), (1, 1), (2, 1), (3, 3)], dtype=float)
        vals = np.abs(spec.amplitude(pts)).tolist()
        assert vals == sorted(vals, reverse=True)

    def test_invalid_width(self):
        with pytest.raises(ParameterError):
            gaussian_spec(0.0, grid_radius=1.0)


class TestBruteForceTarget:
    def test_single_point(self):
        dist = brute_force_target(target_gaussian(5.0), ExactMatrix.identity(2), 0.5)
        assert dist.points == ((0, 0),) and dist.probs[0] == 1.0

    def test_box_growth_changes_little(self):
        f = target_gaussian(2.0)
        small = brute_force_target(f, B_ACCEPT, 8.0).as_dict()
        large = brute_force_target(f, B_ACCEPT, 16.0).as_dict()
        tail = sum(abs(small.get(p, 0.0) - large.get(p, 0.0)) for p in set(small) | set(large))
        assert tail < 1e-6

    def test_symmetry(self):
        dist = brute_force_target(target_gaussian(3.0), B_ACCEPT, 9.0)
        d = dist.as_dict()
        for p, q in d.items():
            neg = tuple(-c for c in p)
            assert abs(q - d[neg]) < 1e-15

    def test_vanishing_density(self):
        with pytest.raises(ZeroMassError):
            brute_force_target(lambda p: 0.0, ExactMatrix.identity(2), 2.0)

    def test_empty_box(self):
        with pytest.raises(ZeroMassError):
            brute_force_target(target_gaussian(5.0), ExactMatrix.identity(2), -1.0)


class TestPacDistance:
    def test_identical(self):
        d = DiscreteDistribution(((0, 0), (1, 1)), np.array([0.5, 0.5]))
        assert pac_distance(d, d, match_radius=0.1) == (0.0, 0.0)

    def test_shifted_within_radius(self):
        obs = DiscreteDistribution(((0, 0), (4, 0)), np.array([0.25, 0.75]))
        tgt = DiscreteDistribution(((0, 1), (4, 1)), np.array([0.25, 0.75]))
        tv, disp = pac_distance(obs, tgt, match_radius=1.5)
        assert tv == 0.0 and disp == 1.0

    def test_disjoint_beyond_radius(self):
        obs = DiscreteDistribution(((0, 0),), np.array([1.0]))
        tgt = DiscreteDistribution(((10, 10),), np.array([1.0]))
        tv, disp = pac_distance(obs, tgt, match_radius=2.0)
        assert tv == 1.0 and disp == 0.0

    def test_partial_mismatch(self):
        obs = DiscreteDistribution(((0, 0), (9, 9)), np.array([0.6, 0.4]))
        tgt = DiscreteDistribution(((0, 0),), np.array([1.0]))
        tv, _ = pac_distance(obs, tgt, match_radius=1.0)
        assert abs(tv - 0.4) < 1e-15


class TestDiscreteDistribution:
    def test_invariants(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(((0,), (0,)), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            DiscreteDistribution(((0,), (1,)), np.array([0.9, 0.2]))
        with pytest.raises(ValueError):
            DiscreteDistribution(((0,),), np.array([-1.0]))


class TestSample:
    def test_constant_spectrum_concentrates_at_origin(self):
        spec = QESSpec(amplitude=lambda p: np.ones(len(p)), grid_radius=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = sample(spec, ExactMatrix.identity(2), Fraction(1, 2), shots=32, seed=5)
        assert res.distribution.as_dict().get((0, 0), 0.0) >= 0.99
        assert all(v == (0, 0) for v in res.samples)

    def test_gaussian_acceptance_quality(self):
        lam1 = float(lambda1_sq(B_ACCEPT)) ** 0.5
        s_target = 8 * math.sqrt(2) * lam1
        spec = gaussian_spec(1 / (2 * s_target), grid_radius=6 / (2 * s_target))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no decode or boundedness warnings allowed
            res = sample(spec, B_ACCEPT, Fraction(1, 16), shots=0, seed=1)
        assert res.decode_mismatch_rate == 0.0
        assert res.ancilla_residual == 0.0
        assert res.norm_defect <= 1e-10
        assert res.boundedness_ok
        target = brute_force_target(target_gaussian(s_target), B_ACCEPT, 6 * s_target)
        tv, disp = pac_distance(res.distribution, target, match_radius=1 / 16)
        assert tv <= 0.05
        assert disp <= 1 / 16
        for p in res.distribution.points:
            assert membership(B_ACCEPT, p)
        diag = res.diagnostics
        assert diag["support_points"] == len(res.distribution.points)
        assert diag["ancilla_points"] == diag["off_cell_points"] == 0
        assert 0 < diag["carrying_points"] <= res.grid_points
        assert 2 <= diag["relevant_vectors"] <= 6  # at most 2 (2^n - 1)
        s = res.certificate.basis
        assert diag["lambda1_scaled_dual_sq"] == lambda1_sq(intlat.dual_basis(s.to_matrix()).scale(s.N))

    def test_determinism_and_seed_sensitivity(self):
        spec = gaussian_spec(1 / 16, grid_radius=6 / 16)
        a = sample(spec, B_ACCEPT, Fraction(1, 8), shots=64, seed=1234)
        b = sample(spec, B_ACCEPT, Fraction(1, 8), shots=64, seed=1234)
        c = sample(spec, B_ACCEPT, Fraction(1, 8), shots=64, seed=1235)
        assert a.samples == b.samples
        assert a.distribution.points == b.distribution.points
        assert np.array_equal(a.distribution.probs, b.distribution.probs)
        assert a.samples != c.samples

    def test_chi_square_sanity(self):
        lam1 = float(lambda1_sq(B_ACCEPT)) ** 0.5
        s_target = 8 * math.sqrt(2) * lam1
        spec = gaussian_spec(1 / (2 * s_target), grid_radius=6 / (2 * s_target))
        res = sample(spec, B_ACCEPT, Fraction(1, 16), shots=100_000, seed=777)
        counts: dict = {}
        for v in res.samples:
            counts[v] = counts.get(v, 0) + 1
        d = res.distribution.as_dict()
        heavy = [p for p in res.distribution.points if d[p] * 100_000 >= 25]
        obs = np.array([counts.get(p, 0) for p in heavy], dtype=float)
        exp = np.array([d[p] * 100_000 for p in heavy])
        obs = np.append(obs, 100_000 - obs.sum())
        exp = np.append(exp, 100_000 - exp.sum())
        result = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert result.pvalue > 1e-3

    def test_epsilon_bounds(self):
        spec = gaussian_spec(1 / 16, grid_radius=1.0)
        for eps in (Fraction(0), Fraction(1)):
            with pytest.raises(ParameterError):
                sample(spec, B_ACCEPT, eps, shots=1, seed=0)

    def test_singular_basis(self):
        spec = gaussian_spec(1 / 16, grid_radius=1.0)
        with pytest.raises(RankError):
            sample(spec, ExactMatrix([[1, 2], [2, 4]]), Fraction(1, 4), shots=1, seed=0)

    def test_zero_shots(self):
        spec = gaussian_spec(1 / 16, grid_radius=6 / 16)
        res = sample(spec, B_ACCEPT, Fraction(1, 8), shots=0, seed=0)
        assert res.samples == []
        assert abs(res.distribution.probs.sum() - 1.0) < 1e-12

    def test_zero_mass_oracle(self):
        spec = QESSpec(amplitude=lambda p: np.zeros(len(p)), grid_radius=3.0)
        with pytest.raises(ZeroMassError):
            sample(spec, ExactMatrix.identity(2), Fraction(1, 2), shots=1, seed=0)

    @pytest.mark.parametrize(
        "spec",
        [
            QESSpec(amplitude=lambda p: np.ones(len(p)), grid_radius=math.inf),
            QESSpec(amplitude=lambda p: np.ones(len(p)), grid_radius=math.nan),
            QESSpec(amplitude=lambda p: np.ones(len(p)), grid_radius=-1.0),
            QESSpec(amplitude=lambda p: np.full(len(p), np.nan), grid_radius=3.0),
            QESSpec(amplitude=lambda p: np.full(len(p), 1e300), grid_radius=3.0),
        ],
        ids=["radius-inf", "radius-nan", "radius-negative", "mass-nan", "mass-overflow"],
    )
    def test_non_finite_spec_rejected(self, spec):
        with pytest.raises(ParameterError), np.errstate(over="ignore"):
            sample(spec, ExactMatrix.identity(2), Fraction(1, 2), shots=1, seed=0)

    def test_sub_unit_support_flagged(self):
        # The whole declared support lies inside the unit ball of the oracle's
        # space, yet the prepared grid carries mass too wide to decode.
        spec = gaussian_spec(0.5, grid_radius=0.99)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = sample(spec, ExactMatrix.identity(2), Fraction(1, 2), shots=0, seed=0)
        assert any("mass radius" in str(w.message) for w in caught)
        assert res.boundedness_ok is False
        assert res.decode_mismatch_rate > 0
        diag = res.diagnostics
        assert 0 < diag["off_cell_points"] <= diag["carrying_points"] <= res.grid_points
        assert 2 <= diag["relevant_vectors"] <= 6

    def test_grid_guard(self, monkeypatch):
        # |L_N| = 1026 fits the guard; the 65 x 65 residue box does not.
        monkeypatch.setattr(intlat, "BOX_GUARD", 2000)
        spec = gaussian_spec(1 / 16, grid_radius=1.0)
        with pytest.raises(SizeGuardError, match="box of 4225"):
            sample(spec, ExactMatrix.identity(2), Fraction(1, 4), shots=0, seed=0)

    def test_ln_guard(self, monkeypatch):
        # I_2 at epsilon 1/4 reduces to N = 1026, so |L_N| = 1026.
        monkeypatch.setattr(intlat, "BOX_GUARD", 1000)
        spec = gaussian_spec(1 / 16, grid_radius=6 / 16)
        with pytest.raises(SizeGuardError, match=r"\|L_N\| = N\^\(n-1\) = 1026"):
            sample(spec, ExactMatrix.identity(2), Fraction(1, 4), shots=0, seed=0)
