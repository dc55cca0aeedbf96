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

from . import intlat
from .errors import ModulusMismatchError, SizeGuardError, UncomputeError
from .sysnf import SysNFBasis, ln_first, ln_points

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
    # Gather: the output at (x_1, y) is the input at (x_1, y - b x_1 mod N).
    x1, *tails = np.indices(grid.shape, sparse=True)
    out = grid[(x1, *((t - bj * x1) % s.N for bj, t in zip(s.b, tails)))]
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
    first = ln_first(s) * s.condition_inverse() % s.N
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
    out = np.fft.fft(psi.grid(), axis=register)
    out /= np.sqrt(psi.N)
    return Statevector(psi.N, psi.n, out.reshape(-1))


def step_apply_basis(s: SysNFBasis, psi: Statevector) -> Statevector:
    """Prepend a register holding sum_j b_j z_j mod N; output lands on L_N."""
    _check_registers(s, psi, s.n - 1)
    m = s.N ** (s.n - 1)
    out = np.zeros((s.N, m), dtype=complex)
    out[ln_first(s), np.arange(m)] = psi.amps
    return Statevector(s.N, s.n, out.reshape(-1))


def lattice_membership_mask(s: SysNFBasis) -> np.ndarray:
    """Boolean mask over the full N^n index selecting the L_N basis states."""
    m = s.N ** (s.n - 1)
    mask = np.zeros((s.N, m), dtype=bool)
    mask[ln_first(s), np.arange(m)] = True
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


def shear_index(s: SysNFBasis) -> np.ndarray:
    """Canonical L_N index of the sheared tail y = (I + b b^T) t mod N, for every tail t.

    Shear followed by uncompute, as one map on tails: y_j = t_j + b_j x_1 with
    x_1 = b . t mod N.  The result is an int64 array in the canonical order of
    the tails t; it is a permutation of range(N^(n-1)) exactly when the basis is valid.
    """
    k = s.n - 1
    x1 = ln_first(s).reshape((s.N,) * k)
    index = np.zeros_like(x1)
    y = np.empty_like(x1)
    # No int64 overflow: b_j x_1 + t_j < N^2 and index < N^(n-1), and the
    # guard in lattice_qft_values keeps N <= N^(n-1) <= BOX_GUARD, so N^2 < 2^63.
    for bj, t in zip(s.b, np.indices((s.N,) * k, dtype=np.int64, sparse=True)):
        np.multiply(x1, bj, out=y)
        y += t
        y %= s.N
        index *= s.N
        index += y
    return index.reshape(-1)


def lattice_qft_values(s: SysNFBasis, values: np.ndarray) -> np.ndarray:
    """Circuit action restricted to the L_N subspace, in compressed form.

    Input and output are length-|L_N| arrays in the canonical point order
    (lexicographic tails).  Equivalent to simulate_sysnf_qft on the embedded
    state, but the working set is one complex |L_N| array (the output) plus
    one int64 |L_N| index, which is what the sampler requires for the large
    moduli produced by basis reduction.
    """
    m = s.N ** (s.n - 1)
    if m > intlat.BOX_GUARD:
        raise SizeGuardError(f"|L_N| = N^(n-1) = {m} points exceed guard {intlat.BOX_GUARD}")
    if values.shape != (m,):
        raise ValueError(f"expected {m} values")
    s.condition_inverse()  # the compressed shear is a permutation only when valid
    index = shear_index(s)
    out = np.zeros(m, dtype=complex)
    out[index] = values
    del index
    grid = out.reshape((s.N,) * (s.n - 1))
    np.fft.fftn(grid, out=grid)
    out /= np.sqrt(m)
    return out


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
