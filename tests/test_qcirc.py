import json
import math
import tracemalloc

import numpy as np
import pytest

from latdft import intlat, qcirc
from latdft.dft import LatticeFunction, apply_dft, dft_matrix
from latdft.errors import ConditionError, ModulusMismatchError, SizeGuardError, UncomputeError
from latdft.qcirc import (
    Statevector,
    basis_state,
    dense_deviation,
    lattice_membership_mask,
    lattice_qft_values,
    qft_mod_n,
    save_snapshot,
    simulate_sysnf_qft,
    step_apply_basis,
    step_shear,
    step_uncompute_first,
)
from latdft.sysnf import SysNFBasis, ln_points

S5 = SysNFBasis(5, (1,))
S75 = SysNFBasis(7, (2, 5))


def random_state(rng, n_mod, n_regs):
    amps = rng.normal(size=n_mod**n_regs) + 1j * rng.normal(size=n_mod**n_regs)
    amps /= np.linalg.norm(amps)
    return Statevector(n_mod, n_regs, amps)


def _peak_bytes(call) -> int:
    """Traced peak allocation of ``call()`` above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestShear:
    def test_zero_tail_identity(self):
        s = SysNFBasis(5, (0,))
        rng = np.random.default_rng(0)
        psi = random_state(rng, 5, 2)
        assert np.array_equal(step_shear(s, psi).amps, psi.amps)

    def test_single_basis_state(self):
        psi = basis_state(5, 2, (1, 0))
        out = step_shear(S5, psi)
        assert out.amps[out.index_of((1, 1))] == 1.0
        assert abs(np.linalg.norm(out.amps) - 1) < 1e-12

    @pytest.mark.parametrize("coords", [(1, 2), (1, 2, 3, 4)])
    def test_basis_state_needs_n_coordinates(self, coords):
        # index_of folds any number of coordinates: (1, 2) at n = 3 would be |0,1,2>.
        with pytest.raises(ValueError, match="needs 3 coordinates"):
            basis_state(5, 3, coords)

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

    @pytest.mark.parametrize(
        "s", [S5, SysNFBasis(4, (1,)), SysNFBasis(5, (1, 2)), SysNFBasis(3, (1, 2, 0))]
    )
    def test_matches_roll_reference(self, s):
        # Reference: roll each x_1 block along every tail axis j by b_j x_1.
        psi = random_state(np.random.default_rng(3), s.N, s.n)
        grid = psi.grid()
        want = np.empty_like(grid)
        for x1 in range(s.N):
            block = grid[x1]
            for axis, bj in enumerate(s.b):
                block = np.roll(block, shift=bj * x1 % s.N, axis=axis)
            want[x1] = block
        assert np.array_equal(step_shear(s, psi).amps, want.reshape(-1))


class TestUncompute:
    def test_composition_over_lattice_states(self):
        for x in ln_points(S5).tolist():
            psi = step_shear(S5, basis_state(5, 2, x))
            out = step_uncompute_first(S5, psi)
            assert out.n == 1
            y2 = (x[1] + 1 * x[0]) % 5
            assert out.amps[out.index_of((y2,))] == 1.0

    def test_zero_tail_support(self):
        s = SysNFBasis(5, (0,))
        psi = basis_state(5, 2, (0, 3))
        out = step_uncompute_first(s, psi)
        assert out.amps[out.index_of((3,))] == 1.0
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
        assert abs(np.linalg.norm(qft_mod_n(psi, 0).amps) - 1) < 1e-12

    def test_register_range(self):
        with pytest.raises(ValueError):
            qft_mod_n(basis_state(5, 2, (0, 0)), 2)


class TestApplyBasis:
    def test_zero_tail_prepends_zero(self):
        s = SysNFBasis(5, (0,))
        out = step_apply_basis(s, basis_state(5, 1, (3,)))
        assert out.amps[out.index_of((0, 3))] == 1.0

    def test_example(self):
        out = step_apply_basis(S5, basis_state(5, 1, (3,)))
        assert out.amps[out.index_of((3, 3))] == 1.0

    def test_output_support_on_lattice(self):
        rng = np.random.default_rng(5)
        psi = random_state(rng, 5, 1)
        out = step_apply_basis(S5, psi)
        mask = lattice_membership_mask(S5)
        assert np.abs(out.amps[~mask]).max() == 0.0


class TestSimulate:
    @pytest.mark.parametrize("s", [SysNFBasis(61, (2, 3)), SysNFBasis(19, (2, 3, 5))])
    def test_working_set(self, s):
        # The circuit's steps hold two statevectors and a little more; no
        # on- or off-lattice copy is held across them, and the uncompute check
        # scans one float magnitude array rather than a complex copy.
        psi = random_state(np.random.default_rng(11), s.N, s.n)
        assert _peak_bytes(lambda: simulate_sysnf_qft(s, psi)) <= 2.5 * psi.amps.nbytes

    def test_zero_state_to_uniform_superposition(self):
        out = simulate_sysnf_qft(S5, basis_state(5, 2, (0, 0)))
        mask = lattice_membership_mask(S5)
        assert np.abs(out.amps[mask] - 1 / np.sqrt(5)).max() < 1e-12
        assert np.abs(out.amps[~mask]).max() == 0.0

    def test_matches_character_matrix_columns(self):
        assert dense_deviation(S5, dft_matrix(S5).matrix) <= 1e-10
        # A column from the wrong point order is caught.
        assert dense_deviation(S5, dft_matrix(S5).matrix[:, ::-1]) > 0.1

    def test_random_superposition_three_registers(self):
        cm = dft_matrix(S75)
        rng = np.random.default_rng(6)
        vec = rng.normal(size=cm.order) + 1j * rng.normal(size=cm.order)
        vec /= np.linalg.norm(vec)
        # Full-grid index of L_N point i: x_1 N^(n-1) plus its tail index i.
        on_l = ln_points(S75)[:, 0] * cm.order + np.arange(cm.order)
        amps = np.zeros(7**3, dtype=complex)
        amps[on_l] = vec
        out = simulate_sysnf_qft(S75, Statevector(7, 3, amps))
        expected = np.zeros(7**3, dtype=complex)
        expected[on_l] = cm.matrix @ vec
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
            assert abs(np.linalg.norm(psi.amps) - 1) <= 1e-10


class TestDenseDeviation:
    def test_runs_circuit_once(self, monkeypatch):
        calls = []

        def counted(s, psi):
            calls.append(psi.N**psi.n)
            return simulate_sysnf_qft(s, psi)

        monkeypatch.setattr(qcirc, "simulate_sysnf_qft", counted)
        assert dense_deviation(S75, dft_matrix(S75).matrix) <= 1e-10
        assert calls == [7**3]

    def test_dropped_off_lattice_amplitudes_caught(self, monkeypatch):
        def lossy(s, psi):
            on_l = Statevector(s.N, s.n, np.where(lattice_membership_mask(s), psi.amps, 0.0))
            return simulate_sysnf_qft(s, on_l)

        monkeypatch.setattr(qcirc, "simulate_sysnf_qft", lossy)
        assert dense_deviation(S5, dft_matrix(S5).matrix) > 0.1

    def test_moved_entry_caught(self):
        f = dft_matrix(S75).matrix.copy()
        f[3, 17] += 1e-9
        assert 0.9e-9 < dense_deviation(S75, f) < 1.1e-9

    def test_statevector_guard(self, monkeypatch):
        # N^n = 25 amplitudes fit a guard of 25 and not one of 24.
        f = dft_matrix(S5).matrix
        monkeypatch.setattr(intlat, "BOX_GUARD", 25)
        psi = basis_state(5, 2, (3, 3))
        assert psi.amps[psi.index_of((3, 3))] == 1.0
        assert dense_deviation(S5, f) <= 1e-10
        monkeypatch.setattr(intlat, "BOX_GUARD", 24)
        for call in (lambda: basis_state(5, 2, (3, 3)), lambda: dense_deviation(S5, f)):
            with pytest.raises(SizeGuardError, match=r"N\^n = 25 amplitudes exceed guard 24"):
                call()

    @pytest.mark.parametrize("s", [SysNFBasis(1021, (3,)), SysNFBasis(10**20, ())])
    def test_guard_before_allocation(self, monkeypatch, s):
        # N^n just above 10^6 and past int64: refused before the first
        # N^n-sized array, even one byte an amplitude.
        monkeypatch.setattr(intlat, "BOX_GUARD", 10**6)
        for call in (
            lambda: basis_state(s.N, s.n, (0,) * s.n),
            lambda: dense_deviation(s, np.ones((1, 1), dtype=complex)),
        ):
            peak = _peak_bytes(lambda: pytest.raises(SizeGuardError, call))
            assert peak < 10**6


class TestCompressedPath:
    @pytest.mark.parametrize("s", [S5, S75, SysNFBasis(9, (2,))])
    def test_matches_dense_matrix(self, s):
        cm = dft_matrix(s)
        rng = np.random.default_rng(9)
        vec = rng.normal(size=cm.order) + 1j * rng.normal(size=cm.order)
        vec /= np.linalg.norm(vec)
        assert np.abs(lattice_qft_values(s, vec) - cm.matrix @ vec).max() < 1e-10

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.complex64])
    @pytest.mark.parametrize("s", [S5, S75])
    def test_any_numeric_dtype(self, s, dtype):
        # The gather writes into a complex128 output, so other inputs are converted first.
        m = s.N ** (s.n - 1)
        values = np.random.default_rng(3).integers(-5, 6, size=m).astype(dtype)
        want = apply_dft(s, LatticeFunction(s, values)).values
        assert np.abs(lattice_qft_values(s, values) - want).max() < 1e-12

    def test_one_register(self):
        # n = 1: L_N is the single point 0 and the transform is the identity.
        assert lattice_qft_values(SysNFBasis(5, ()), np.array([0.6 - 0.8j])).tolist() == [0.6 - 0.8j]

    def test_invalid_basis_rejected(self):
        with pytest.raises(ConditionError):
            lattice_qft_values(SysNFBasis(4, (1,)), np.ones(4, dtype=complex))
        # 1 + b.b = 2 shares the factor 2 with N: refused before any |L_N|-sized array.
        s = SysNFBasis(1022, (1, 0))
        vec = np.ones(s.N**2, dtype=complex)
        peak = _peak_bytes(lambda: pytest.raises(ConditionError, lattice_qft_values, s, vec))
        assert peak < s.N**2

    def test_ln_guard(self, monkeypatch):
        # |L_N| = 9 fits a guard of 9 and not one of 8.
        s, vec = SysNFBasis(9, (2,)), np.ones(9, dtype=complex) / 3
        monkeypatch.setattr(intlat, "BOX_GUARD", 9)
        assert abs(np.linalg.norm(lattice_qft_values(s, vec)) - 1) < 1e-12
        monkeypatch.setattr(intlat, "BOX_GUARD", 8)
        with pytest.raises(SizeGuardError, match=r"\|L_N\| = N\^\(n-1\) = 9"):
            lattice_qft_values(s, vec)
        # The guard fires before the first |L_N|-sized array, even one byte a point.
        s = SysNFBasis(1021, (2, 3))
        vec = np.ones(s.N**2, dtype=complex)
        monkeypatch.setattr(intlat, "BOX_GUARD", s.N**2 - 1)
        peak = _peak_bytes(lambda: pytest.raises(SizeGuardError, lattice_qft_values, s, vec))
        assert peak < s.N**2
        # At n = 2 and a chirp-z modulus it also fires before the plan and the buffer.
        s = SysNFBasis(130817, (5,))
        assert qcirc._chirp_length(s.N)
        vec = np.ones(s.N, dtype=complex)
        monkeypatch.setattr(qcirc, "_plans", {})
        monkeypatch.setattr(intlat, "BOX_GUARD", s.N - 1)
        peak = _peak_bytes(lambda: pytest.raises(SizeGuardError, lattice_qft_values, s, vec))
        assert peak < s.N and not qcirc._plans

    @pytest.mark.parametrize(
        "s", [SysNFBasis(130817, (5,)), SysNFBasis(1021, (3, 7)), SysNFBasis(67, (2, 3, 5))]
    )
    def test_working_set(self, monkeypatch, s):
        # Outputs of 2 MB and more: the output plus slab-sized temporaries and
        # the FFT scratch that numpy traces, with no room for an |L_N|-sized
        # index (half the output).  The n = 2 chirp-z transform adds its
        # buffer of L complex points, and on a call that builds it a plan of
        # N + 2L points: chirp, twiddle and kernel; their row pads, 8 points
        # in each of L1 = 512 rows, fit in the 1 MiB slack.  pocketfft's own
        # scratch for the smooth lengths it is left with is not traced.
        vec = np.ones(s.N ** (s.n - 1), dtype=complex)
        assert vec.nbytes >= 2 * 10**6
        L = qcirc._chirp_length(s.N) if s.n == 2 else 0
        assert (L > 0) == (s.n == 2)
        buffer = 16 * L
        plan = 16 * (s.N + 2 * L) if L else 0
        monkeypatch.setattr(qcirc, "_plans", {})
        cold = _peak_bytes(lambda: lattice_qft_values(s, vec))
        warm = _peak_bytes(lambda: lattice_qft_values(s, vec))
        assert cold <= vec.nbytes + buffer + plan + 2**20
        assert warm <= vec.nbytes + buffer + 2**20


def _plan_bytes(N: int) -> int:
    L1, L2 = qcirc._chirp_split(N)
    return 16 * (N + 2 * L1 * (L2 + qcirc._PAD))


class TestChirpPlans:
    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(qcirc, "_plans", {})

    @staticmethod
    def transform(N: int) -> np.ndarray:
        s = SysNFBasis(N, (2,))
        assert qcirc._chirp_length(N) and s.is_valid
        return lattice_qft_values(s, np.random.default_rng(N).normal(size=2 * N).view(complex))

    def test_hit_and_miss_agree_bitwise(self):
        # Plans are keyed by (N, C), C = 1 + b^2 mod N = 5 here.
        miss = self.transform(1999)
        plan = qcirc._plans[1999, 5]
        assert sum(a.nbytes for a in plan) == _plan_bytes(1999)
        hit = self.transform(1999)
        assert qcirc._plans[1999, 5] is plan
        qcirc._plans.clear()
        assert miss.tobytes() == hit.tobytes() == self.transform(1999).tobytes()

    def test_ratio_keys_its_own_plan(self):
        # b = 2 and b = 3 give C = 5 and C = 10: two plans, each with its own chirp.
        s = SysNFBasis(1999, (3,))
        values = np.random.default_rng(1999).normal(size=2 * 1999).view(complex)
        out = lattice_qft_values(s, values)
        self.transform(1999)
        assert list(qcirc._plans) == [(1999, 10), (1999, 5)]
        assert out.tobytes() != self.transform(1999).tobytes()

    def test_cached_arrays_are_read_only(self):
        self.transform(1999)
        for array in qcirc._plans[1999, 5]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize(
        "N, split", [(97, (10, 20)), (739, (30, 50)), (4098, (90, 96)), (8129, (128, 128)), (130817, (512, 512))]
    )
    def test_four_step_split(self, N, split):
        # L = L1 L2 with L1 the largest divisor of L not above sqrt(L); the
        # twiddle and the kernel are both held as (L1, L2 + 8) arrays whose
        # pad columns are zero.
        L = qcirc._chirp_length(N)
        assert qcirc._chirp_split(N) == split and split[0] * split[1] == L
        assert split[0] == max(d for d in range(1, math.isqrt(L) + 1) if L % d == 0)
        _, twiddle, kernel = qcirc._chirp_plan(N, 5 % N, split)
        assert twiddle.shape == kernel.shape == (split[0], split[1] + 8)
        assert not twiddle[:, split[1] :].any() and not kernel[:, split[1] :].any()

    def test_padded_rows_never_span_4_kib(self):
        # Every 5-smooth L whose plan could fit _PLAN_BYTES (2 L points of
        # 16 bytes at least) splits into rows of L2 points whose padded
        # stride is not a multiple of 4 KiB, the period of the cache sets.
        top = qcirc._PLAN_BYTES // 32
        lengths = {2**i * 3**j * 5**k for i in range(21) for j in range(14) for k in range(10)}
        for L in sorted(x for x in lengths if 50 <= x <= top):
            L2 = L // max(d for d in range(1, math.isqrt(L) + 1) if L % d == 0)
            assert 16 * (L2 + qcirc._PAD) % 4096

    def test_least_recently_used_evicted_and_oversized_not_kept(self, monkeypatch):
        oversized_bytes = _plan_bytes(1999)
        monkeypatch.setattr(qcirc, "_PLAN_BYTES", _plan_bytes(97) + _plan_bytes(127) + _plan_bytes(211) - 1)
        self.transform(97)
        self.transform(127)
        self.transform(97)
        assert list(qcirc._plans) == [(127, 5), (97, 5)]
        self.transform(211)
        assert list(qcirc._plans) == [(97, 5), (211, 5)]
        # A length whose plan exceeds the budget goes to np.fft, bit for bit,
        # and neither builds a plan nor evicts one.
        monkeypatch.setattr(qcirc, "_PLAN_BYTES", _plan_bytes(97) + _plan_bytes(211))
        assert oversized_bytes > qcirc._PLAN_BYTES and qcirc._chirp_split(1999) is None
        kept = dict(qcirc._plans)
        oversized = self.transform(1999)
        assert qcirc._plans == kept and all(qcirc._plans[N] is kept[N] for N in kept)
        monkeypatch.setattr(qcirc, "_chirp_length", lambda N: 0)
        values = np.random.default_rng(1999).normal(size=2 * 1999).view(complex)
        assert oversized.tobytes() == lattice_qft_values(SysNFBasis(1999, (2,)), values).tobytes()


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        psi = random_state(rng, 5, 2)
        save_snapshot(psi, tmp_path / "state")
        # The documented format: little-endian complex128 amplitudes, N and n in the sidecar.
        amps = np.frombuffer((tmp_path / "state.bin").read_bytes(), dtype="<c16")
        assert json.loads((tmp_path / "state.json").read_text()) == {"N": 5, "n": 2}
        assert np.array_equal(amps, psi.amps)

    def test_binary_layout(self, tmp_path):
        psi = basis_state(3, 1, (1,))
        save_snapshot(psi, tmp_path / "s")
        raw = (tmp_path / "s.bin").read_bytes()
        assert len(raw) == 3 * 16  # interleaved float64 pairs
        vals = np.frombuffer(raw, dtype="<f8")
        assert vals[2] == 1.0 and vals[3] == 0.0  # re, im of |1>
