import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from latdft import intlat, sampler
from latdft.errors import ParameterError, RankError, SizeGuardError, ZeroMassError
from latdft.intlat import ExactMatrix, lambda1_sq, lex_box, membership
from latdft.sampler import (
    DiscreteDistribution,
    QESSpec,
    brute_force_target,
    gaussian_spec,
    pac_distance,
    sample,
    sample_gaussian,
)

B_ACCEPT = ExactMatrix([[2, 1], [0, 1]])


def target_gaussian(s):
    return lambda p: math.exp(-math.pi * sum(c * c for c in p) / (2 * s * s))


def pac_distance_loop(observed, target, match_radius):
    """The scalar reference for pac_distance: one observed point at a time, over the point tuples."""
    if not 0 <= match_radius < math.inf:
        raise ParameterError(f"match radius must be finite and non-negative, got {match_radius!r}")
    tgt = target.as_dict()
    tgt_pts = np.array(target.points, dtype=np.int64)
    rad_sq = Fraction(match_radius) ** 2
    relocated: dict[tuple[int, ...], list[float]] = {}
    max_disp_sq = 0
    for p, mass in zip(observed.points, observed.probs.tolist()):
        if p not in tgt:
            diffs = tgt_pts - np.array(p, dtype=np.int64)
            d2 = (diffs * diffs).sum(axis=1)
            j = min(np.flatnonzero(d2 == d2.min()).tolist(), key=target.points.__getitem__)
            if int(d2[j]) <= rad_sq:
                p = target.points[j]
                max_disp_sq = max(max_disp_sq, int(d2[j]))
        relocated.setdefault(p, []).append(mass)
    l1 = math.fsum(abs(math.fsum(relocated.get(p, ())) - tgt.get(p, 0.0)) for p in set(relocated) | set(tgt))
    return 0.5 * l1, math.sqrt(max_disp_sq)


def _distribution(points, weights):
    """From distinct tuples, as listed."""
    return DiscreteDistribution(tuple(points), np.array(weights, dtype=float) / sum(weights))


@st.composite
def overlapping_supports(draw):
    """Observed and target supports in a small box: some points shared, some not, many equidistant."""
    n = draw(st.integers(2, 3))
    point = st.tuples(*[st.integers(-3, 3)] * n)
    target = draw(st.lists(point, min_size=1, max_size=25, unique=True))
    shared = draw(st.lists(st.sampled_from(target), max_size=len(target), unique=True))
    own = draw(st.lists(point.filter(lambda p: p not in target), max_size=25, unique=True))
    observed = draw(st.permutations(shared + own).filter(len))
    weight = st.integers(0, 1000)
    sides = []
    for points in (observed, target):
        weights = draw(st.lists(weight, min_size=len(points), max_size=len(points)).filter(any))
        sides.append(_distribution(points, weights))
    return tuple(sides)


# Radii whose square is a lattice distance d^2 (1, 4, 9), below 1, arbitrary, and square roots of integers.
match_radii = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(0, 6) | st.integers(0, 30).map(math.sqrt)


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

    def test_rational_basis_rejected_before_enumeration(self):
        # The box at this radius would hold about 8e10 vectors, past the size guard.
        half = ExactMatrix([[Fraction(1, 2), 0], [0, 1]])
        with pytest.raises(ParameterError, match="integer basis"):
            brute_force_target(target_gaussian(5.0), half, 1e5)


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

    @pytest.mark.parametrize("listed", [((1, 0), (-1, 0)), ((-1, 0), (1, 0))])
    def test_tie_goes_to_lexicographically_smallest(self, listed):
        # (0, 0) is at distance 1 from both target points, whichever is listed first.
        obs = DiscreteDistribution(((0, 0), (1, 0)), np.array([0.5, 0.5]))
        tgt = DiscreteDistribution(listed, np.array([0.5, 0.5]))
        tv, disp = pac_distance(obs, tgt, match_radius=1.0)
        assert tv == 0.0 and disp == 1.0  # (0, 0) went to (-1, 0), (1, 0) stayed

    def test_observed_order_does_not_matter(self):
        # Each point's destination is its own, and the sums are exactly rounded: shuffling moves nothing.
        rng = np.random.default_rng(5)
        tgt = brute_force_target(target_gaussian(3.0), B_ACCEPT, 8.0)
        pts = rng.integers(-9, 10, size=(60, 2))
        pts = np.unique(pts[(pts[:, 0] + pts[:, 1]) % 2 == 0], axis=0)  # lattice points of B_ACCEPT
        shifted = np.vstack([pts, pts[:20] + (0, 1)])  # off-lattice, relocated within radius 1
        points = list(map(tuple, np.unique(shifted, axis=0).tolist()))
        probs = rng.random(len(points))
        tv, disp = pac_distance(DiscreteDistribution(tuple(points), probs / probs.sum()), tgt, 1.0)
        assert disp == 1.0
        for _ in range(5):
            perm = rng.permutation(len(points))
            obs = DiscreteDistribution(tuple(points[i] for i in perm), probs[perm] / probs.sum())
            tv_p, disp_p = pac_distance(obs, tgt, 1.0)
            assert tv_p == tv and disp_p == disp

    def test_relocated_masses_sum_in_any_order(self):
        # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 round differently in floats; all three land on (0, 0).
        tgt = DiscreteDistribution(((0, 0),), np.array([1.0]))
        near = [((1, 0), 0.1), ((0, 1), 0.2), ((-1, 0), 0.3)]
        results = []
        for listed in (near, near[::-1]):
            points, probs = zip(*listed, ((9, 9), 0.4))
            results.append(pac_distance(DiscreteDistribution(points, np.array(probs)), tgt, 1.0))
        assert results[0] == results[1] == (0.4, 1.0)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(overlapping_supports(), match_radii)
    @example(  # (0, 0) is at distance 1 from four target points; d^2 = r^2
        (
            _distribution([(0, 0), (2, 0)], [1, 1]),
            _distribution([(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 2, 3, 4]),
        ),
        1.0,
    )
    @example(  # d^2 = 11 lies just above the exact square of the float sqrt(11), whose float square is 11.0
        (
            _distribution([(0, 0, 0)], [1]),
            _distribution([(3, 1, 1), (3, 3, 3)], [1, 1]),
        ),
        math.sqrt(11),
    )
    def test_matches_scalar_loop(self, supports, radius):
        observed, target = supports
        got, want = pac_distance(observed, target, radius), pac_distance_loop(observed, target, radius)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_off_support_scratch_is_bounded(self):
        # 5,000 observed points, none on the 5,000-point target and each at distance 1
        # from up to four of its points: the distances go through bounded blocks,
        # not one 200 MB observed-by-target array.
        box = lex_box([(-50, 49)] * 2)
        even = box.sum(axis=1) % 2 == 0
        obs = DiscreteDistribution(box[~even], np.full(5000, 1 / 5000))
        tgt = DiscreteDistribution(box[even], np.full(5000, 1 / 5000))
        tracemalloc.start()
        try:
            tv, disp = pac_distance(obs, tgt, match_radius=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert disp == 1.0 and (tv, disp) == pac_distance_loop(obs, tgt, 1.0)

    def test_int64_guard(self):
        # Coordinates 2^31 - 1 apart in two dimensions fit int64; 2^32 apart, whose
        # squared distance 2^65 would wrap, are refused.
        near = DiscreteDistribution(((2**30, 0),), np.array([1.0]))
        far = DiscreteDistribution(((1 - 2**30, 0),), np.array([1.0]))
        assert pac_distance(near, far, match_radius=1.0) == (1.0, 0.0)
        with pytest.raises(SizeGuardError, match="squared distances"):
            pac_distance(DiscreteDistribution(((2**31, 2**31),), np.array([1.0])),
                         DiscreteDistribution(((-(2**31), -(2**31)),), np.array([1.0])), 1.0)

    @pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
    def test_bad_radius_rejected(self, radius):
        # -1.0 would act as 1.0 once squared; NaN and inf cannot become a Fraction.
        obs = DiscreteDistribution(((0, 0),), np.array([1.0]))
        tgt = DiscreteDistribution(((1, 0),), np.array([1.0]))
        with pytest.raises(ParameterError, match="match radius"):
            pac_distance(obs, tgt, match_radius=radius)


class TestSampleGaussian:
    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
    def test_bad_width_rejected(self, s):
        with pytest.raises(ParameterError, match="target width"):
            sample_gaussian(B_ACCEPT, s, Fraction(1, 16), shots=0, seed=1)

    @pytest.mark.parametrize(
        "b, s, epsilon",
        [
            # Selftest criterion 10: s = 2^(n/2 + 2) sqrt(n) lambda_1 = 16 on the acceptance basis.
            (B_ACCEPT, 2**3 * 2**0.5 * float(lambda1_sq(B_ACCEPT)) ** 0.5, Fraction(1, 16)),
            (ExactMatrix.identity(2), 4.0, Fraction(1, 4)),
        ],
    )
    def test_target_is_the_per_point_gaussian(self, monkeypatch, b, s, epsilon):
        # The target comes from gaussian_spec's array oracle; it equals the per-point
        # density on the same ball, bit for bit, and so does the score against it.
        targets = []

        def spy(observed, target, match_radius):
            targets.append(target)
            return pac_distance(observed, target, match_radius)

        monkeypatch.setattr(sampler, "pac_distance", spy)
        res, tv, disp = sample_gaussian(b, s, epsilon, shots=0, seed=1)
        want = brute_force_target(lambda p: np.exp(-np.pi * sum(c * c for c in p) / (2 * s**2)), b, 6 * s)
        (got,) = targets
        assert repr(got.points) == repr(want.points)
        assert got.probs.tobytes() == want.probs.tobytes()
        want_tv, want_disp = pac_distance(res.distribution, want, match_radius=float(epsilon))
        assert (tv.hex(), disp) == (want_tv.hex(), want_disp)


class TestPhasePath:
    # gaussian_spec is real and even, and for real input |F psi| = |F^-1 psi| pointwise, so no
    # Gaussian run tells the lattice DFT from its inverse.  The transform of a Gaussian centred
    # at c carries the phase exp(+2 pi i <c, xi>), and the mirrored sampler lands near -c.
    @pytest.mark.parametrize("s, epsilon", [(16, Fraction(1, 16)), (4, Fraction(1, 4))])
    def test_off_centre_gaussian(self, s, epsilon):
        c = np.array([3.3, -1.7])
        centred = gaussian_spec(1 / (2 * s), grid_radius=6 / (2 * s))
        spec = QESSpec(
            amplitude=lambda xi: centred.amplitude(xi) * np.exp(2j * np.pi * (xi @ c)),
            grid_radius=centred.grid_radius,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sample(spec, B_ACCEPT, epsilon, shots=0, seed=0)
        target = brute_force_target(
            lambda p: math.exp(-math.pi * float(((np.array(p) - c) ** 2).sum()) / (2 * s * s)),
            B_ACCEPT,
            6 * s + float(np.hypot(*c)),
        )
        tv, _ = pac_distance(res.distribution, target, match_radius=float(epsilon))
        assert tv <= 0.05


class TestDiscreteDistribution:
    def test_invariants(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(((0,), (0,)), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            DiscreteDistribution(((0,), (1,)), np.array([0.9, 0.2]))
        with pytest.raises(ValueError):
            DiscreteDistribution(((0,),), np.array([-1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN fails no comparison, so the sum check alone let these through.
        with pytest.raises(ValueError, match="non-finite probability"):
            DiscreteDistribution(((0, 0), (1, 0)), np.array([1.0, bad]))

    @pytest.mark.parametrize("rows", [[[0, 1], [0, 0]], [[1, 0], [0, 5]]])
    def test_unsorted_rows_come_back_sorted(self, rows):
        probs = np.array([0.25, 0.75])
        for points in (np.array(rows, dtype=np.int64), tuple(map(tuple, rows))):
            dist = DiscreteDistribution(points, probs)
            assert dist.points == tuple(map(tuple, rows[::-1]))
            assert dist.probs.tolist() == [0.75, 0.25]
            assert dist.as_dict() == {(*rows[0],): 0.25, (*rows[1],): 0.75}

    @pytest.mark.parametrize("rows", [[[0, 0], [0, 0]], [[3, 0], [-1, 2], [3, 0]]])
    def test_repeated_rows_rejected(self, rows):
        probs = np.full(len(rows), 1 / len(rows))
        for points in (np.array(rows, dtype=np.int64), tuple(map(tuple, rows))):
            with pytest.raises(ValueError, match="pairwise distinct"):
                DiscreteDistribution(points, probs)

    def test_sorted_rows_checks_probabilities(self):
        with pytest.raises(ValueError, match="sum to"):
            DiscreteDistribution(np.array([[0, 1], [0, 0]], dtype=np.int64), np.array([0.9, 0.2]))
        with pytest.raises(ValueError, match="length mismatch"):
            DiscreteDistribution(np.array([[0, 0]], dtype=np.int64), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("big", [2**63, -(2**63) - 1])
    def test_coordinates_past_int64_refused(self, big):
        with pytest.raises(SizeGuardError, match="int64"):
            DiscreteDistribution(((0, 0), (big, 1)), np.array([0.5, 0.5]))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data())
    def test_any_listing_gives_the_same_distribution(self, data):
        n = data.draw(st.integers(1, 3))
        coord = st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3)
        points = data.draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=30, unique=True))
        weights = np.array(data.draw(st.lists(st.integers(1, 1000), min_size=len(points), max_size=len(points))))
        probs = weights / weights.sum()
        perm = np.array(data.draw(st.permutations(range(len(points)))), dtype=np.intp)
        listed = [points[i] for i in perm]
        first = DiscreteDistribution(tuple(points), probs)
        second = DiscreteDistribution(listed if data.draw(st.booleans()) else np.array(listed), probs[perm])
        for dist in (first, second):
            assert {type(c) for p in dist.points for c in p} == {int}
            assert list(dist.points) == sorted(points)
        assert first._rows.tobytes() == second._rows.tobytes()
        assert first.probs.tobytes() == second.probs.tobytes()
        assert repr(first.points) == repr(second.points)

    def test_sorted_rows_equal_tuple_constructor_on_sample_support(self):
        spec = gaussian_spec(1 / 16, grid_radius=6 / 16)
        dist = sample(spec, B_ACCEPT, Fraction(1, 8), shots=0, seed=1).distribution
        rows = np.array(dist.points, dtype=np.int64)
        shuffled = np.random.default_rng(2).permutation(len(rows))
        for got in (dist, DiscreteDistribution(rows[shuffled], dist.probs[shuffled])):
            want = DiscreteDistribution(tuple(map(tuple, rows.tolist())), dist.probs)
            assert repr(got.points) == repr(want.points)  # Python ints, not numpy scalars
            assert got.probs.tobytes() == want.probs.tobytes()

    def test_support_tuples_built_on_first_read(self):
        spec = gaussian_spec(1 / 16, grid_radius=6 / 16)
        res = sample(spec, B_ACCEPT, Fraction(1, 8), shots=64, seed=1)
        dist = res.distribution
        assert "points" not in vars(dist)  # sample() built no tuple per support point
        points = dist.points
        assert dist.points is points
        assert list(points) == sorted(set(points)) and len(points) == len(dist.probs)
        assert {type(c) for p in points + tuple(res.samples) for c in p} == {int}
        assert set(res.samples) <= set(points)

    def test_brute_force_target_rejects_nan_density(self):
        for bad in (math.nan, math.inf, -math.inf):
            def f(p):
                return bad if p == (1, 0) else 1.0

            with pytest.raises(ValueError, match="non-finite weight"):
                brute_force_target(f, ExactMatrix.identity(2), 2.0)


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
            warnings.simplefilter("error")  # no warning of any kind allowed
            res = sample(spec, B_ACCEPT, Fraction(1, 16), shots=0, seed=1)
        assert res.decode_mismatch_rate == 0.0
        assert res.ancilla_residual == 0.0
        assert res.norm_defect <= 1e-10
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

    def test_one_dimensional_basis(self, monkeypatch):
        # L_N is one point for n = 1; the basis is refused before any reduction.
        def no_reduction(*args):
            raise AssertionError("reduce_to_sysnf was called")

        monkeypatch.setattr(sampler, "reduce_to_sysnf", no_reduction)
        spec = gaussian_spec(1 / 16, grid_radius=1.0)
        with pytest.raises(ParameterError, match="dimension at least 2, got 1"):
            sample(spec, ExactMatrix([[7]]), Fraction(1, 4), shots=1, seed=0)

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

    @pytest.mark.parametrize(
        "amplitude",
        [
            lambda p: 1.0,
            lambda p: np.ones((len(p), 1)),
            lambda p: np.ones(len(p) - 1),
        ],
        ids=["scalar", "column", "one-short"],
    )
    def test_malformed_oracle_rejected(self, amplitude):
        # One amplitude per grid point, or a ParameterError naming both shapes.
        grid = []

        def oracle(p):
            grid.append(p)
            return amplitude(p)

        spec = QESSpec(amplitude=oracle, grid_radius=0.25)
        with pytest.raises(ParameterError) as info:
            sample(spec, ExactMatrix.identity(2), Fraction(1, 4), shots=1, seed=0)
        (p,) = grid
        assert f"shape {np.shape(amplitude(p))}, expected ({len(p)},)" in str(info.value)

    def test_sub_unit_support_flagged(self):
        # The whole declared support lies inside the unit ball of the oracle's
        # space, yet the prepared grid carries mass too wide to decode.
        spec = gaussian_spec(0.5, grid_radius=0.99)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = sample(spec, ExactMatrix.identity(2), Fraction(1, 2), shots=0, seed=0)
        assert any("decode mismatch rate" in str(w.message) for w in caught)
        assert res.decode_mismatch_rate > 0
        diag = res.diagnostics
        assert 0 < diag["off_cell_points"] <= diag["carrying_points"] <= res.grid_points
        assert 0 < diag["ancilla_points"] <= res.grid_points
        assert 2 <= diag["relevant_vectors"] <= 6

    @pytest.mark.parametrize(
        "s, mismatch, ancilla",
        [
            # Carrying points just past the Voronoi cell: the exact masses warn.
            (2.75, 8.53e-12, 1.54e-11),
            # No carrying point off the cell, and the ancilla mass is below 1e-10.
            (3.0, 0.0, 1.72e-13),
        ],
    )
    def test_decode_warning_boundary(self, s, mismatch, ancilla):
        # I2 at epsilon 1/4 (N = 1026); the exact masses are the one decode verdict.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res, tv, _ = sample_gaussian(ExactMatrix.identity(2), s, Fraction(1, 4), shots=0, seed=0)
        assert res.decode_mismatch_rate == pytest.approx(mismatch, rel=1e-2, abs=0)
        assert res.ancilla_residual == pytest.approx(ancilla, rel=1e-2)
        assert [str(w.message).startswith("decode mismatch rate ") for w in caught] == [True] * (mismatch > 0)
        assert tv <= 0.05

    def test_grid_guard(self, monkeypatch):
        # |L_N| = 1026 fits the guard; the 65 x 65 residue box does not.
        monkeypatch.setattr(intlat, "BOX_GUARD", 2000)
        spec = gaussian_spec(1 / 16, grid_radius=1.0)
        with pytest.raises(SizeGuardError, match="box of 4225"):
            sample(spec, ExactMatrix.identity(2), Fraction(1, 4), shots=0, seed=0)

    def test_shots_guard(self, monkeypatch):
        # As many shots as the guard are drawn; one more is refused before any work.
        monkeypatch.setattr(intlat, "BOX_GUARD", 1100)
        spec = gaussian_spec(1 / 16, grid_radius=6 / 16)
        res = sample(spec, ExactMatrix.identity(2), Fraction(1, 4), shots=1100, seed=0)
        assert len(res.samples) == 1100

        def no_reduction(*args):
            raise AssertionError("reduce_to_sysnf was called")

        monkeypatch.setattr(sampler, "reduce_to_sysnf", no_reduction)
        with pytest.raises(SizeGuardError, match="1101 shots exceed guard 1100"):
            sample(spec, ExactMatrix.identity(2), Fraction(1, 4), shots=1101, seed=0)

    def test_ln_guard(self, monkeypatch):
        # I_2 at epsilon 1/4 reduces to N = 1026, so |L_N| = 1026.
        monkeypatch.setattr(intlat, "BOX_GUARD", 1000)
        spec = gaussian_spec(1 / 16, grid_radius=6 / 16)
        with pytest.raises(SizeGuardError, match=r"\|L_N\| = N\^\(n-1\) = 1026"):
            sample(spec, ExactMatrix.identity(2), Fraction(1, 4), shots=0, seed=0)
