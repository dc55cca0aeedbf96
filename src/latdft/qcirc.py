"""Statevector simulation of the four-step circuit implementing the lattice DFT.

Registers are n qudits over Z_N; the statevector is the full length-N^n
complex array, indexed row-major with the first register most significant.
Basis states off L_N pass through the composite circuit unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ModulusMismatchError, UncomputeError
from .sysnf import SysNFBasis, ln_index, ln_points

SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class Statevector:
    """Amplitudes of an n-register Z_N system, length N^n."""

    N: int
    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape != (self.N**self.n,):
            raise ValueError(f"expected {self.N ** self.n} amplitudes")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def grid(self) -> np.ndarray:
        return self.amps.reshape((self.N,) * self.n)

    def index_of(self, coords) -> int:
        idx = 0
        for c in coords:
            idx = idx * self.N + (int(c) % self.N)
        return idx

    def amplitude(self, coords) -> complex:
        return complex(self.amps[self.index_of(coords)])


def basis_state(N: int, n: int, coords) -> Statevector:
    amps = np.zeros(N**n, dtype=complex)
    sv = Statevector(N, n, amps)
    amps[sv.index_of(coords)] = 1.0
    return sv


def _check_registers(s: SysNFBasis, psi: Statevector, n_regs: int) -> None:
    if psi.N != s.N:
        raise ModulusMismatchError(f"state modulus {psi.N} != basis modulus {s.N}")
    if psi.n != n_regs:
        raise ModulusMismatchError(f"expected {n_regs} registers, got {psi.n}")


def step_shear(s: SysNFBasis, psi: Statevector) -> Statevector:
    """Basis-state permutation x -> (x_1, x_2 + b_2 x_1, ..., x_n + b_n x_1) mod N.

    Inverse is the shear with negated tail.
    """
    _check_registers(s, psi, s.n)
    grid = psi.grid()
    out = np.empty_like(grid)
    for x1 in range(s.N):
        block = grid[x1]
        for axis, bj in enumerate(s.b):
            block = np.roll(block, shift=(bj * x1) % s.N, axis=axis)
        out[x1] = block
    return Statevector(s.N, s.n, out.reshape(-1))


def step_uncompute_first(s: SysNFBasis, psi: Statevector) -> Statevector:
    """Drop the first register of a state supported on sheared lattice states.

    Any amplitude above the support tolerance on a state whose first register
    disagrees with the value recomputable from the tail raises
    :class:`UncomputeError`.
    """
    _check_registers(s, psi, s.n)
    m = s.N ** (s.n - 1)
    flat = psi.amps.reshape(s.N, m)
    # x_1 forced by the uncompute rule for post-shear tails y: (b . y) / (b . b + 1) mod N.
    first = ln_points(s)[:, 0] * s.condition_inverse() % s.N
    gathered = flat[first, np.arange(m)]
    residue = flat.copy()
    residue[first, np.arange(m)] = 0.0
    worst = np.abs(residue).max() if residue.size else 0.0
    if worst > SUPPORT_TOL:
        raise UncomputeError(
            f"amplitude {worst:.3e} on a state inconsistent with the uncompute rule"
        )
    return Statevector(s.N, s.n - 1, gathered.copy())


def qft_mod_n(psi: Statevector, register: int) -> Statevector:
    """N-point transform with kernel exp(-2 pi i y z / N)/sqrt(N) on one register."""
    if not 0 <= register < psi.n:
        raise ValueError(f"register {register} out of range for {psi.n} registers")
    grid = psi.grid()
    out = np.fft.fft(grid, axis=register) / np.sqrt(psi.N)
    return Statevector(psi.N, psi.n, out.reshape(-1))


def step_apply_basis(s: SysNFBasis, psi: Statevector) -> Statevector:
    """Prepend a register holding sum_j b_j z_j mod N; output lands on L_N."""
    _check_registers(s, psi, s.n - 1)
    m = s.N ** (s.n - 1)
    out = np.zeros((s.N, m), dtype=complex)
    out[ln_points(s)[:, 0], np.arange(m)] = psi.amps
    return Statevector(s.N, s.n, out.reshape(-1))


def lattice_membership_mask(s: SysNFBasis) -> np.ndarray:
    """Boolean mask over the full N^n index selecting the L_N basis states."""
    m = s.N ** (s.n - 1)
    mask = np.zeros((s.N, m), dtype=bool)
    mask[ln_points(s)[:, 0], np.arange(m)] = True
    return mask.reshape(-1)


def simulate_sysnf_qft(s: SysNFBasis, psi: Statevector) -> Statevector:
    """Run the four-step circuit; basis states off L_N are returned unchanged."""
    _check_registers(s, psi, s.n)
    mask = lattice_membership_mask(s)
    on_l = Statevector(s.N, s.n, np.where(mask, psi.amps, 0.0))
    off_l = np.where(mask, 0.0, psi.amps)

    state = step_shear(s, on_l)
    state = step_uncompute_first(s, state)
    for reg in range(state.n):
        state = qft_mod_n(state, reg)
    state = step_apply_basis(s, state)
    return Statevector(s.N, s.n, state.amps + off_l)


def dense_deviation(s: SysNFBasis, matrix: np.ndarray) -> float:
    """Largest amplitude gap between the circuit and a dense transform of L_N.

    Every L_N basis state runs through :func:`simulate_sysnf_qft`; the output
    is compared with the matching column of ``matrix`` (canonical order),
    embedded in the full grid.
    """
    pts = ln_points(s)
    m = len(pts)
    on_l = pts[:, 0] * m + np.arange(m)
    worst = 0.0
    for j, x in enumerate(pts.tolist()):
        out = simulate_sysnf_qft(s, basis_state(s.N, s.n, x))
        expected = np.zeros(s.N**s.n, dtype=complex)
        expected[on_l] = matrix[:, j]
        worst = max(worst, float(np.abs(out.amps - expected).max()))
    return worst


def lattice_qft_values(s: SysNFBasis, values: np.ndarray) -> np.ndarray:
    """Circuit action restricted to the L_N subspace, in compressed form.

    Input and output are length-|L_N| arrays in the canonical point order
    (lexicographic tails).  Equivalent to simulate_sysnf_qft on the embedded
    state but needs only N^(n-1) memory, which is what the sampler requires
    for the large moduli produced by basis reduction.
    """
    m = s.N ** (s.n - 1)
    if values.shape != (m,):
        raise ValueError(f"expected {m} values")
    s.condition_inverse()  # the compressed shear is a permutation only when valid
    pts = ln_points(s)
    # Shear + uncompute: tail x goes to y with y_j = x_j + b_j x_1.
    y = (pts[:, 1:] + pts[:, :1] * np.array(s.b, dtype=np.int64)[None, :]) % s.N
    sheared = np.zeros(m, dtype=complex)
    sheared[ln_index(s, y)] = values
    grid = np.fft.fftn(sheared.reshape((s.N,) * (s.n - 1))) / np.sqrt(m)
    return grid.reshape(-1)


# -- snapshots -----------------------------------------------------------------


def save_snapshot(psi: Statevector, path_base) -> None:
    """Binary little-endian interleaved float64 (re, im) plus a JSON sidecar."""
    base = Path(path_base)
    base.with_suffix(".bin").write_bytes(psi.amps.astype("<c16").tobytes())
    base.with_suffix(".json").write_text(json.dumps({"N": psi.N, "n": psi.n}))


def load_snapshot(path_base) -> Statevector:
    base = Path(path_base)
    meta = json.loads(base.with_suffix(".json").read_text())
    amps = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<c16").copy()
    return Statevector(int(meta["N"]), int(meta["n"]), amps)
