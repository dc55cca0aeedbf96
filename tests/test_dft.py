import json
import tracemalloc

import numpy as np
import pytest

from latdft import dft, intlat
from latdft.dft import (
    LatticeFunction,
    apply_dft,
    character,
    check_fourth_power,
    check_shift_phase,
    dft_matrix,
    eigen_explore,
    export_character_matrix_csv,
    full_grid_dft_restricted,
    smoothness_estimate,
)
from latdft.errors import ConditionError, MembershipError, SizeGuardError, ZeroMassError
from latdft.sysnf import SysNFBasis, ln_index, ln_points

S5 = SysNFBasis(5, (1,))
S52 = SysNFBasis(5, (1, 2))
S75 = SysNFBasis(7, (2, 5))
S82 = SysNFBasis(8, (2,))


def classical_dft(n_points: int) -> np.ndarray:
    # Independent construction of the standard transform on Z_N.
    return np.fft.fft(np.eye(n_points)) / np.sqrt(n_points)


# Dense reference operators on the L_N index: the permutation and diagonal
# matrices that check_shift_phase and check_fourth_power avoid building.


def _permutation(s: SysNFBasis, image) -> np.ndarray:
    """Permutation matrix of |x> -> |image(x) mod N>, indexed by a point dict."""
    pts = ln_points(s)
    index = {p: i for i, p in enumerate(map(tuple, pts.tolist()))}
    mat = np.zeros((len(pts), len(pts)))
    for j, p in enumerate(pts):
        mat[index[tuple((image(p) % s.N).tolist())], j] = 1.0
    return mat


def shift_operator(s: SysNFBasis, v) -> np.ndarray:
    """Permutation matrix of |x> -> |x + v mod N> on the L_N index."""
    return _permutation(s, lambda p: p + np.asarray(v))


def phase_operator(s: SysNFBasis, v) -> np.ndarray:
    """Diagonal matrix of |x> -> exp(-2 pi i <v, x> / N) |x>."""
    phases = ln_points(s) @ (np.asarray(v, dtype=np.int64) % s.N) % s.N
    return np.diag(np.exp(-2j * np.pi * phases / s.N))


def negation_permutation(s: SysNFBasis) -> np.ndarray:
    return _permutation(s, lambda p: -p)


def reference_shift_phase(s: SysNFBasis, v) -> float:
    f = dft_matrix(s).matrix
    return float(np.abs(f @ shift_operator(s, v) - phase_operator(s, v) @ f).max())


def reference_fourth_power(s: SysNFBasis) -> tuple[float, float]:
    f = dft_matrix(s).matrix
    f2 = f @ f
    dev2 = float(np.abs(f2 - negation_permutation(s)).max())
    f4 = f2 @ f2
    dev4 = float(np.abs(f4 - np.eye(len(f))).max())
    return dev2, dev4


class TestCharacter:
    def test_zero_arguments(self):
        z, x = (0, 0), (2, 2)
        assert character(S5, z, x) == 1
        assert character(S5, x, z) == 1

    def test_worked_value(self):
        val = character(S5, (1, 1), (1, 1))
        assert abs(val - np.exp(-4j * np.pi / 5)) < 1e-14
        assert character(S5, (6, -4), (1, 1)) == val  # any integer representative

    def test_symmetry(self):
        pts = ln_points(S52).tolist()
        for x in pts[:5]:
            for z in pts[5:10]:
                assert character(S52, x, z) == character(S52, z, x)

    def test_membership_enforced(self):
        with pytest.raises(MembershipError, match=r"\(1, 0\) is not a point"):
            character(S5, (1, 0), (0, 0))


class TestDftMatrix:
    def test_zero_tail_is_classical_transform(self):
        cm = dft_matrix(SysNFBasis(6, (0,)))
        assert np.abs(cm.matrix - classical_dft(6)).max() < 1e-12

    def test_zero_tail_tensor_product(self):
        cm = dft_matrix(SysNFBasis(3, (0, 0)))
        w = classical_dft(3)
        assert np.abs(cm.matrix - np.kron(w, w)).max() < 1e-12

    def test_unitary_5x5(self):
        cm = dft_matrix(S5)
        assert cm.order == 5
        dev = np.abs(cm.matrix.conj().T @ cm.matrix - np.eye(5)).max()
        assert dev < 1e-12

    def test_entry_modulus(self):
        cm = dft_matrix(S52)
        assert np.abs(np.abs(cm.matrix) - 1 / np.sqrt(25)).max() < 1e-12

    def test_row_orthogonality(self):
        cm = dft_matrix(S75)
        gram = cm.matrix.conj() @ cm.matrix.T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-10 * cm.order

    def test_negative_control_not_unitary(self):
        cm = dft_matrix(SysNFBasis(4, (1,)))
        dev = np.abs(cm.matrix.conj().T @ cm.matrix - np.eye(4)).max()
        assert dev >= 0.5

    def test_size_guard(self, monkeypatch):
        # The dense matrix holds |L_N|^2 = 25 entries.
        monkeypatch.setattr(intlat, "BOX_GUARD", 25)
        assert dft_matrix(S5).order == 5
        monkeypatch.setattr(intlat, "BOX_GUARD", 24)
        with pytest.raises(SizeGuardError, match=r"\|L_N\|\^2 = 25 entries"):
            dft_matrix(S5)
        # Refused before anything |L_N|-sized is built, even one byte a point.
        monkeypatch.undo()
        s = SysNFBasis(2237, (2,))  # 2237^2 just exceeds the default guard
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError):
                dft_matrix(s)
            assert tracemalloc.get_traced_memory()[1] < s.N
        finally:
            tracemalloc.stop()
        assert dft_matrix(SysNFBasis(2039, (2,))).order == 2039

    @pytest.mark.parametrize("big_n", [5, 4 * 10**6, 10**20])
    def test_one_point_lattice(self, big_n):
        # n = 1: L_N = {0} and F = [[1]] at any N, even past int64, with
        # nothing N-sized allocated along the way.
        s = SysNFBasis(big_n, ())
        tracemalloc.start()
        try:
            assert ln_points(s).tolist() == [[0]]
            assert dft_matrix(s).matrix.tolist() == [[1]]
            assert eigen_explore(s) == {"+1": 1, "+i": 0, "-1": 0, "-i": 0}
            assert tracemalloc.get_traced_memory()[1] < 10**5
        finally:
            tracemalloc.stop()

    def test_index_lookup(self):
        # Row and column i belong to point i of ln_points, which ln_index inverts.
        pts = ln_points(S52)
        assert np.array_equal(ln_index(S52, pts[:, 1:]), np.arange(25))
        cm = dft_matrix(S52)
        for i, p in enumerate(pts.tolist()):
            assert cm.matrix[i, 7] == cm.matrix[7, i]
            assert abs(cm.matrix[i, 7] - character(S52, p, pts[7]) / 5) < 1e-15


class TestApplyDft:
    def test_delta_to_constant(self):
        f = LatticeFunction(S5, np.eye(5, dtype=complex)[0])
        out = apply_dft(S5, f)
        assert np.abs(out.values - 1 / np.sqrt(5)).max() < 1e-12

    def test_constant_to_delta(self):
        f = LatticeFunction(S5, np.full(5, 2.0, dtype=complex))
        out = apply_dft(S5, f)
        expected = np.zeros(5, dtype=complex)
        expected[0] = 2.0 * np.sqrt(5)
        assert np.abs(out.values - expected).max() < 1e-12

    @pytest.mark.parametrize("s", [S5, S82])
    def test_matches_full_grid_oracle(self, s):
        rng = np.random.default_rng(99)
        m = s.N ** (s.n - 1)
        for _ in range(20):
            f = LatticeFunction(s, rng.normal(size=m) + 1j * rng.normal(size=m))
            lhs = apply_dft(s, f).values
            rhs = full_grid_dft_restricted(s, f)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_full_grid_guard(self, monkeypatch):
        # The grid has N^n = 25 entries, five times the input.
        f = LatticeFunction(S5, np.ones(5, dtype=complex))
        monkeypatch.setattr(intlat, "BOX_GUARD", 25)
        assert np.abs(full_grid_dft_restricted(S5, f) - apply_dft(S5, f).values).max() < 1e-12
        monkeypatch.setattr(intlat, "BOX_GUARD", 24)
        with pytest.raises(SizeGuardError, match=r"N\^n = 25"):
            full_grid_dft_restricted(S5, f)

    def test_basis_mismatch(self):
        f = LatticeFunction(S5, np.ones(5, dtype=complex))
        with pytest.raises(ValueError):
            apply_dft(SysNFBasis(5, (2,)), f)


class TestShiftPhase:
    def test_zero_shift_exact(self):
        assert check_shift_phase(S5, (0, 0)) == 0.0

    def test_small_instances(self):
        assert check_shift_phase(S5, (1, 1)) <= 1e-10
        assert check_shift_phase(S5, (-4, 6)) == check_shift_phase(S5, (1, 1))
        rng = np.random.default_rng(3)
        pts = ln_points(S75)
        v = tuple(pts[int(rng.integers(len(pts)))])
        assert check_shift_phase(S75, v) <= 1e-10

    def test_exhaustive_small(self, monkeypatch):
        # One call per basis covers every shift and builds F once.
        builds = []
        monkeypatch.setattr(dft, "dft_matrix", lambda s: builds.append(s) or dft_matrix(s))
        for s in (S5, S52):
            assert check_shift_phase(s, ln_points(s)) <= 1e-10
        assert builds == [S5, S52]

    def test_stack_is_max_over_single_shifts(self):
        shifts = ln_points(S75)[5:17]
        worst = check_shift_phase(S75, shifts)
        assert worst == max(check_shift_phase(S75, v) for v in shifts)
        assert check_shift_phase(S75, shifts.reshape(3, 4, 3)) == worst

    @pytest.mark.parametrize("s", [S5, S52, S75])
    def test_matches_dense_reference(self, s):
        # The gather and the row scaling skip BLAS's fused complex products,
        # so the deviations agree with the dense operators to rounding only.
        for v in ln_points(s):
            assert abs(check_shift_phase(s, v) - reference_shift_phase(s, v)) <= 1e-15

    def test_non_member_rejected(self):
        with pytest.raises(MembershipError):
            check_shift_phase(S5, (1, 0))
        with pytest.raises(MembershipError, match=r"\(1, 0\)"):
            check_shift_phase(S5, [(1, 1), (1, 0), (2, 2)])


class TestFourthPower:
    def test_zero_tail_classical_identity(self):
        d2, d4 = check_fourth_power(SysNFBasis(7, (0,)))
        assert d2 <= 1e-10 and d4 <= 1e-10

    def test_valid_instances(self):
        for s in (S5, S52, S75):
            d2, d4 = check_fourth_power(s)
            assert d2 <= 1e-10 and d4 <= 1e-10

    @pytest.mark.parametrize("s", [S5, S52, S75, SysNFBasis(4, (1,))])
    def test_matches_dense_reference(self, s):
        # Subtracting each permutation at its entries is the same arithmetic as
        # subtracting the dense permutation matrix, bit for bit.
        assert check_fourth_power(s) == reference_fourth_power(s)

    def test_spectrum_on_fourth_roots(self):
        vals = np.linalg.eigvals(dft_matrix(S5).matrix)
        roots = np.array([1, 1j, -1, -1j])
        assert np.abs(vals[:, None] - roots[None, :]).min(axis=1).max() <= 1e-8


class TestEigenExplore:
    def test_zero_tail_matches_classical_multiplicities(self):
        for big_n in (5, 8):
            vals = np.linalg.eigvals(classical_dft(big_n))
            roots = {"+1": 1, "+i": 1j, "-1": -1, "-i": -1j}
            expected = {k: 0 for k in roots}
            for v in vals:
                expected[min(roots, key=lambda k: abs(v - roots[k]))] += 1
            assert eigen_explore(SysNFBasis(big_n, (0,))) == expected

    def test_counts_sum_to_order(self):
        # Even N: +i and -i differ, so a swapped label shows here.
        assert eigen_explore(S82) == {"+1": 2, "+i": 2, "-1": 3, "-i": 1}
        assert eigen_explore(SysNFBasis(5, ())) == {"+1": 1, "+i": 0, "-1": 0, "-i": 0}
        # Far past the dense ceiling of |L_N| = 2236.
        for s in (SysNFBasis(130817, (3,)), SysNFBasis(2039, (5, 7))):
            counts = eigen_explore(s)
            assert all(type(c) is int for c in counts.values())
            assert sum(counts.values()) == s.N ** (s.n - 1)

    def test_invalid_basis(self):
        with pytest.raises(ConditionError):
            eigen_explore(SysNFBasis(4, (1,)))

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(intlat, "BOX_GUARD", 25)
        assert sum(eigen_explore(S52).values()) == 25
        monkeypatch.setattr(intlat, "BOX_GUARD", 24)
        with pytest.raises(SizeGuardError, match=r"\|L_N\| = N\^\(n-1\) = 25 points"):
            eigen_explore(S52)
        # Refused before anything |L_N|-sized is built, even one byte a point.
        monkeypatch.undo()
        s = SysNFBasis(2237, (2, 3))  # 2237^2 exceeds the default guard
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError):
                eigen_explore(s)
            assert tracemalloc.get_traced_memory()[1] < s.N**2
        finally:
            tracemalloc.stop()


class TestSmoothness:
    def test_constant_grid_function(self):
        fhat = np.ones((8, 8))
        assert smoothness_estimate(S82, fhat) == 0.0

    def test_wide_gaussian_small_defect(self):
        coords = np.indices((8, 8)).reshape(2, -1).T
        centered = np.where(coords > 4, coords - 8, coords)
        r2 = (centered**2).sum(axis=1).reshape(8, 8)
        wide = np.exp(-np.pi * r2 / 80.0**2)
        assert smoothness_estimate(S82, wide) < 0.1

    def test_delta_defect_near_one(self):
        fhat = np.zeros((8, 8))
        fhat[0, 0] = 1.0
        assert smoothness_estimate(S82, fhat) > 0.9

    def test_zero_mass(self):
        with pytest.raises(ZeroMassError):
            smoothness_estimate(S82, np.zeros((8, 8)))


class TestExports:
    def test_character_matrix_csv_roundtrip(self, tmp_path):
        cm = dft_matrix(S5)
        csv_path = tmp_path / "m.csv"
        hdr_path = tmp_path / "m.json"
        export_character_matrix_csv(cm, csv_path, hdr_path)
        header = json.loads(hdr_path.read_text())
        assert header == {"N": 5, "n": 2, "b": [1], "order": 5}
        rows = []
        for line in csv_path.read_text().splitlines():
            vals = [float(t) for t in line.split(",")]
            rows.append([complex(re, im) for re, im in zip(vals[::2], vals[1::2])])
        assert np.abs(np.array(rows) - cm.matrix).max() == 0.0
