import json

import numpy as np
import pytest

from latdft import intlat
from latdft.dft import (
    CharacterMatrix,
    LatticeFunction,
    apply_dft,
    character,
    check_fourth_power,
    check_shift_phase,
    dft_matrix,
    eigen_explore,
    export_character_matrix_csv,
    export_lattice_function_csv,
    full_grid_dft_restricted,
    smoothness_estimate,
)
from latdft.errors import MembershipError, SizeGuardError, ZeroMassError
from latdft.sysnf import ModVector, SysNFBasis, enumerate_ln

S5 = SysNFBasis(5, (1,))
S52 = SysNFBasis(5, (1, 2))
S75 = SysNFBasis(7, (2, 5))
S82 = SysNFBasis(8, (2,))


def classical_dft(n_points: int) -> np.ndarray:
    # Independent construction of the standard transform on Z_N.
    return np.fft.fft(np.eye(n_points)) / np.sqrt(n_points)


class TestCharacter:
    def test_zero_arguments(self):
        z = ModVector(5, (0, 0))
        x = ModVector(5, (2, 2))
        assert character(S5, z, x) == 1
        assert character(S5, x, z) == 1

    def test_worked_value(self):
        x = ModVector(5, (1, 1))
        val = character(S5, x, x)
        assert abs(val - np.exp(-4j * np.pi / 5)) < 1e-14

    def test_symmetry(self):
        pts = enumerate_ln(S52)
        for x in pts[:5]:
            for z in pts[5:10]:
                assert character(S52, x, z) == character(S52, z, x)

    def test_membership_enforced(self):
        with pytest.raises(MembershipError):
            character(S5, ModVector(5, (1, 0)), ModVector(5, (0, 0)))


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

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            dft_matrix(S5, size_guard=3)

    def test_index_lookup(self):
        cm = dft_matrix(S5)
        for i, p in enumerate(cm.points):
            assert cm.index_of(p) == i
        with pytest.raises(MembershipError):
            cm.index_of(ModVector(5, (1, 0)))


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
        assert check_shift_phase(S5, ModVector(5, (0, 0))) == 0.0

    def test_small_instances(self):
        assert check_shift_phase(S5, ModVector(5, (1, 1))) <= 1e-10
        rng = np.random.default_rng(3)
        pts = enumerate_ln(S75)
        v = pts[int(rng.integers(len(pts)))]
        assert check_shift_phase(S75, v) <= 1e-10

    def test_exhaustive_small(self):
        for s in (S5, S52):
            for v in enumerate_ln(s):
                assert check_shift_phase(s, v) <= 1e-10

    def test_non_member_rejected(self):
        with pytest.raises(MembershipError):
            check_shift_phase(S5, ModVector(5, (1, 0)))


class TestFourthPower:
    def test_zero_tail_classical_identity(self):
        d2, d4 = check_fourth_power(SysNFBasis(7, (0,)))
        assert d2 <= 1e-10 and d4 <= 1e-10

    def test_valid_instances(self):
        for s in (S5, S52, S75):
            d2, d4 = check_fourth_power(s)
            assert d2 <= 1e-10 and d4 <= 1e-10

    def test_spectrum_on_fourth_roots(self):
        vals = np.linalg.eigvals(dft_matrix(S5).matrix)
        roots = np.array([1, 1j, -1, -1j])
        assert np.abs(vals[:, None] - roots[None, :]).min(axis=1).max() <= 1e-8


class TestEigenExplore:
    def test_zero_tail_matches_classical_multiplicities(self):
        for big_n in (5, 8):
            rep = eigen_explore(SysNFBasis(big_n, (0,)))
            vals = np.linalg.eigvals(classical_dft(big_n))
            roots = {"+1": 1, "+i": 1j, "-1": -1, "-i": -1j}
            expected = {k: 0 for k in roots}
            for v in vals:
                expected[min(roots, key=lambda k: abs(v - roots[k]))] += 1
            assert rep.multiplicities == expected

    def test_residuals_and_total(self):
        rep = eigen_explore(S52)
        assert rep.max_residual <= 1e-8
        assert rep.total_multiplicity() == 25
        for label, space in rep.eigenvectors.items():
            assert space.shape == (25, rep.multiplicities[label])


class TestSmoothness:
    def test_constant_grid_function(self):
        fhat = np.ones((8, 8))
        assert smoothness_estimate(S82, fhat, samples=100, seed=0) == 0.0

    def test_wide_gaussian_small_defect(self):
        coords = np.indices((8, 8)).reshape(2, -1).T
        centered = np.where(coords > 4, coords - 8, coords)
        r2 = (centered**2).sum(axis=1).reshape(8, 8)
        wide = np.exp(-np.pi * r2 / 80.0**2)
        assert smoothness_estimate(S82, wide, samples=1000, seed=1) < 0.1

    def test_delta_defect_near_one(self):
        fhat = np.zeros((8, 8))
        fhat[0, 0] = 1.0
        assert smoothness_estimate(S82, fhat, samples=1000, seed=1) > 0.9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        fhat = rng.random((8, 8))
        a = smoothness_estimate(S82, fhat, samples=64, seed=9)
        b = smoothness_estimate(S82, fhat, samples=64, seed=9)
        assert a == b

    def test_zero_mass(self):
        with pytest.raises(ZeroMassError):
            smoothness_estimate(S82, np.zeros((8, 8)), samples=10, seed=0)


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

    def test_lattice_function_csv(self, tmp_path):
        f = LatticeFunction(S5, np.arange(5, dtype=complex))
        path = tmp_path / "f.csv"
        export_lattice_function_csv(f, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        first = lines[0].split(",")
        assert len(first) == 3  # x2, re, im
        assert float(first[1]) == 0.0
