import numpy as np
import pytest

from latdft import intlat, qcirc
from latdft.dft import dft_matrix
from latdft.errors import ConditionError, ModulusMismatchError, SizeGuardError, UncomputeError
from latdft.qcirc import (
    Statevector,
    basis_state,
    lattice_membership_mask,
    lattice_qft_values,
    load_snapshot,
    qft_mod_n,
    save_snapshot,
    simulate_sysnf_qft,
    step_apply_basis,
    step_shear,
    step_uncompute_first,
)
from latdft.sysnf import ModVector, SysNFBasis, enumerate_ln

S5 = SysNFBasis(5, (1,))
S75 = SysNFBasis(7, (2, 5))


def random_state(rng, n_mod, n_regs):
    amps = rng.normal(size=n_mod**n_regs) + 1j * rng.normal(size=n_mod**n_regs)
    amps /= np.linalg.norm(amps)
    return Statevector(n_mod, n_regs, amps)


class TestShear:
    def test_zero_tail_identity(self):
        s = SysNFBasis(5, (0,))
        rng = np.random.default_rng(0)
        psi = random_state(rng, 5, 2)
        assert np.array_equal(step_shear(s, psi).amps, psi.amps)

    def test_single_basis_state(self):
        psi = basis_state(5, 2, (1, 0))
        out = step_shear(S5, psi)
        assert out.amplitude((1, 1)) == 1.0
        assert abs(out.norm() - 1) < 1e-12

    def test_inverse_restores(self):
        rng = np.random.default_rng(1)
        psi = random_state(rng, 5, 3)
        s = SysNFBasis(5, (1, 2))
        s_inv = SysNFBasis(5, tuple(-bj for bj in s.b))
        back = step_shear(s_inv, step_shear(s, psi))
        assert np.abs(back.amps - psi.amps).max() < 1e-14

    def test_permutation_preserves_amplitude_multiset(self):
        rng = np.random.default_rng(2)
        psi = random_state(rng, 5, 2)
        out = step_shear(S5, psi)
        assert sorted(map(complex, psi.amps), key=lambda z: (z.real, z.imag)) == sorted(
            map(complex, out.amps), key=lambda z: (z.real, z.imag)
        )

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            step_shear(S5, basis_state(7, 2, (0, 0)))


class TestUncompute:
    def test_composition_over_lattice_states(self):
        for x in enumerate_ln(S5):
            psi = step_shear(S5, basis_state(5, 2, x.coords))
            out = step_uncompute_first(S5, psi)
            assert out.n == 1
            y2 = (x.coords[1] + 1 * x.coords[0]) % 5
            assert out.amplitude((y2,)) == 1.0

    def test_zero_tail_support(self):
        s = SysNFBasis(5, (0,))
        psi = basis_state(5, 2, (0, 3))
        out = step_uncompute_first(s, psi)
        assert out.amplitude((3,)) == 1.0
        with pytest.raises(UncomputeError):
            step_uncompute_first(s, basis_state(5, 2, (1, 3)))

    def test_corrupted_state_detected(self):
        psi = step_shear(S5, basis_state(5, 2, (1, 1)))
        amps = psi.amps.copy()
        # (1, 0) is inconsistent: the tail y = (0,) forces x_1 = 0.
        amps[psi.index_of((1, 0))] += 1e-6
        with pytest.raises(UncomputeError):
            step_uncompute_first(S5, Statevector(5, 2, amps))

    def test_invalid_basis_has_no_uncompute_rule(self):
        with pytest.raises(ConditionError):
            step_uncompute_first(SysNFBasis(4, (1,)), basis_state(4, 2, (0, 0)))


class TestQftModN:
    def test_zero_to_uniform(self):
        out = qft_mod_n(basis_state(5, 1, (0,)), 0)
        assert np.abs(out.amps - 1 / np.sqrt(5)).max() < 1e-14

    def test_four_point_kernel(self):
        out = qft_mod_n(basis_state(4, 1, (1,)), 0)
        expected = np.array([1, -1j, -1, 1j]) / 2
        assert np.abs(out.amps - expected).max() < 1e-14

    def test_double_application_is_negation(self):
        rng = np.random.default_rng(3)
        psi = random_state(rng, 6, 2)
        out = qft_mod_n(qft_mod_n(psi, 1), 1)
        grid_in, grid_out = psi.grid(), out.grid()
        for j in range(6):
            assert np.abs(grid_out[:, j] - grid_in[:, (-j) % 6]).max() < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        psi = random_state(rng, 7, 2)
        assert abs(qft_mod_n(psi, 0).norm() - 1) < 1e-12

    def test_register_range(self):
        with pytest.raises(ValueError):
            qft_mod_n(basis_state(5, 2, (0, 0)), 2)


class TestApplyBasis:
    def test_zero_tail_prepends_zero(self):
        s = SysNFBasis(5, (0,))
        out = step_apply_basis(s, basis_state(5, 1, (3,)))
        assert out.amplitude((0, 3)) == 1.0

    def test_example(self):
        out = step_apply_basis(S5, basis_state(5, 1, (3,)))
        assert out.amplitude((3, 3)) == 1.0

    def test_output_support_on_lattice(self):
        rng = np.random.default_rng(5)
        psi = random_state(rng, 5, 1)
        out = step_apply_basis(S5, psi)
        mask = lattice_membership_mask(S5)
        assert np.abs(out.amps[~mask]).max() == 0.0


class TestSimulate:
    def test_zero_state_to_uniform_superposition(self):
        out = simulate_sysnf_qft(S5, basis_state(5, 2, (0, 0)))
        mask = lattice_membership_mask(S5)
        assert np.abs(out.amps[mask] - 1 / np.sqrt(5)).max() < 1e-12
        assert np.abs(out.amps[~mask]).max() == 0.0

    def test_matches_character_matrix_columns(self):
        cm = dft_matrix(S5)
        probe = basis_state(5, 2, (0, 0))
        for j, x in enumerate(cm.points):
            out = simulate_sysnf_qft(S5, basis_state(5, 2, x.coords))
            expected = np.zeros(25, dtype=complex)
            for i, p in enumerate(cm.points):
                expected[probe.index_of(p.coords)] = cm.matrix[i, j]
            assert np.abs(out.amps - expected).max() <= 1e-10

    def test_random_superposition_three_registers(self):
        cm = dft_matrix(S75)
        rng = np.random.default_rng(6)
        vec = rng.normal(size=cm.order) + 1j * rng.normal(size=cm.order)
        vec /= np.linalg.norm(vec)
        amps = np.zeros(7**3, dtype=complex)
        probe = basis_state(7, 3, (0, 0, 0))
        for i, p in enumerate(cm.points):
            amps[probe.index_of(p.coords)] = vec[i]
        out = simulate_sysnf_qft(S75, Statevector(7, 3, amps))
        expected_vec = cm.matrix @ vec
        expected = np.zeros(7**3, dtype=complex)
        for i, p in enumerate(cm.points):
            expected[probe.index_of(p.coords)] = expected_vec[i]
        assert np.abs(out.amps - expected).max() <= 1e-10

    def test_off_lattice_states_unchanged(self):
        psi = basis_state(5, 2, (1, 0))  # not in L_5
        out = simulate_sysnf_qft(S5, psi)
        assert np.abs(out.amps - psi.amps).max() == 0.0
        rng = np.random.default_rng(7)
        mixed = random_state(rng, 5, 2)
        mask = lattice_membership_mask(S5)
        out = simulate_sysnf_qft(S5, mixed)
        assert np.abs(out.amps[~mask] - mixed.amps[~mask]).max() == 0.0

    def test_norm_drift_through_steps(self):
        rng = np.random.default_rng(8)
        amps = np.zeros(5**2, dtype=complex)
        mask = lattice_membership_mask(S5)
        amps[mask] = rng.normal(size=5) + 1j * rng.normal(size=5)
        amps /= np.linalg.norm(amps)
        psi = Statevector(5, 2, amps)
        for step in (
            lambda p: step_shear(S5, p),
            lambda p: step_uncompute_first(S5, p),
            lambda p: qft_mod_n(p, 0),
            lambda p: step_apply_basis(S5, p),
        ):
            psi = step(psi)
            assert abs(psi.norm() - 1) <= 1e-10


class TestCompressedPath:
    @pytest.mark.parametrize("s", [S5, S75, SysNFBasis(9, (2,))])
    def test_matches_dense_matrix(self, s):
        cm = dft_matrix(s)
        rng = np.random.default_rng(9)
        vec = rng.normal(size=cm.order) + 1j * rng.normal(size=cm.order)
        vec /= np.linalg.norm(vec)
        assert np.abs(lattice_qft_values(s, vec) - cm.matrix @ vec).max() < 1e-10

    def test_invalid_basis_rejected(self):
        with pytest.raises(ConditionError):
            lattice_qft_values(SysNFBasis(4, (1,)), np.ones(4, dtype=complex))

    def test_ln_guard(self, monkeypatch):
        # |L_N| = 9: the guard fires before L_N is enumerated.
        s, vec = SysNFBasis(9, (2,)), np.ones(9, dtype=complex) / 3
        monkeypatch.setattr(intlat, "BOX_GUARD", 9)
        assert abs(np.linalg.norm(lattice_qft_values(s, vec)) - 1) < 1e-12
        monkeypatch.setattr(intlat, "BOX_GUARD", 8)
        monkeypatch.setattr(qcirc, "ln_points", None)
        with pytest.raises(SizeGuardError, match=r"\|L_N\| = N\^\(n-1\) = 9"):
            lattice_qft_values(s, vec)


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        psi = random_state(rng, 5, 2)
        save_snapshot(psi, tmp_path / "state")
        clone = load_snapshot(tmp_path / "state")
        assert clone.N == 5 and clone.n == 2
        assert np.array_equal(clone.amps, psi.amps)

    def test_binary_layout(self, tmp_path):
        psi = basis_state(3, 1, (1,))
        save_snapshot(psi, tmp_path / "s")
        raw = (tmp_path / "s.bin").read_bytes()
        assert len(raw) == 3 * 16  # interleaved float64 pairs
        vals = np.frombuffer(raw, dtype="<f8")
        assert vals[2] == 1.0 and vals[3] == 0.0  # re, im of |1>
