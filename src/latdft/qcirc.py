"""Statevector simulation of the four-step circuit implementing the lattice DFT.

Registers are n qudits over Z_N; the statevector is the full length-N^n
complex array, indexed row-major with the first register most significant.
Basis states off L_N pass through the composite circuit unchanged.

:func:`lattice_qft_values` is the compressed path on the L_N subspace alone:
shear and uncompute as one slab-wise gather through the inverse shear, then
one in-place FFT, in one complex |L_N| array plus slab-sized temporaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ModulusMismatchError, UncomputeError
from .sysnf import SysNFBasis, grid_size, ln_first, ln_size

SUPPORT_TOL = 1e-12
# Output points per slab of the inverse-shear gather: about 128 KiB of int64 index.
_SLAB = 2**14


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
    amps = np.zeros(grid_size(N, n), dtype=complex)
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
    rule = (ln_first(s) * s.condition_inverse() % s.N, np.arange(m))
    # One float magnitude array, not a complex copy, holds what lies off the rule.
    off_rule = np.abs(flat)
    off_rule[rule] = 0.0
    worst = off_rule.max()
    if worst > SUPPORT_TOL:
        raise UncomputeError(
            f"amplitude {worst:.3e} on a state inconsistent with the uncompute rule"
        )
    return Statevector(s.N, s.n - 1, flat[rule])


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
    out = np.zeros(grid_size(s.N, s.n), dtype=complex)
    out.reshape(s.N, -1)[ln_first(s), np.arange(len(psi.amps))] = psi.amps
    return Statevector(s.N, s.n, out)


def lattice_membership_mask(s: SysNFBasis) -> np.ndarray:
    """Boolean mask over the full N^n index selecting the L_N basis states."""
    mask = np.zeros(grid_size(s.N, s.n), dtype=bool)
    mask.reshape(s.N, -1)[ln_first(s), np.arange(s.N ** (s.n - 1))] = True
    return mask


def circuit_steps(s: SysNFBasis, psi: Statevector) -> Iterator[tuple[str, Statevector]]:
    """The four-step circuit on a state supported on L_N, one named state per step.

    Yields ``step0_input`` (psi itself), ``step1_shear``, ``step2_uncompute``,
    ``step3_qft`` (after the transform of every register) and ``step4_output``.
    Each state is computed when the next one is asked for, so a caller that
    drops the previous state holds two at most.
    """
    yield "step0_input", psi
    psi = step_shear(s, psi)
    yield "step1_shear", psi
    psi = step_uncompute_first(s, psi)
    yield "step2_uncompute", psi
    for reg in range(psi.n):
        psi = qft_mod_n(psi, reg)
    yield "step3_qft", psi
    yield "step4_output", step_apply_basis(s, psi)


def simulate_sysnf_qft(s: SysNFBasis, psi: Statevector) -> Statevector:
    """Run the four-step circuit; basis states off L_N are returned unchanged."""
    _check_registers(s, psi, s.n)
    mask = lattice_membership_mask(s)
    # The on- and off-lattice parts are formed only where they are used, so
    # neither is held across the circuit.
    for _, state in circuit_steps(s, Statevector(s.N, s.n, np.where(mask, psi.amps, 0.0))):
        pass
    out = state.amps
    out += np.where(mask, 0.0, psi.amps)
    return Statevector(s.N, s.n, out)


def dense_deviation(s: SysNFBasis, matrix: np.ndarray) -> float:
    """Largest amplitude gap between the circuit and a dense transform of L_N.

    Each L_N basis state runs through :func:`lattice_qft_values` against its
    column of ``matrix`` (canonical order).  Then :func:`simulate_sysnf_qft`
    runs once on a seeded probe over all of Z_N^n, which must match
    :func:`lattice_qft_values` on L_N and pass through unchanged elsewhere.
    More than ``intlat.BOX_GUARD`` amplitudes raise :class:`SizeGuardError` first.
    """
    size = grid_size(s.N, s.n)
    m = s.N ** (s.n - 1)
    unit = np.zeros(m, dtype=complex)
    worst = 0.0
    for j in range(m):
        unit[j] = 1.0
        worst = max(worst, float(np.abs(lattice_qft_values(s, unit) - matrix[:, j]).max()))
        unit[j] = 0.0
    # Standard normal, not normalized: an error in one amplitude shows at about its own size.
    probe = np.random.default_rng(0).standard_normal(2 * size).view(complex)
    out = simulate_sysnf_qft(s, Statevector(s.N, s.n, probe)).amps
    # The probe becomes the expected output in place; L_N point i sits at
    # full-grid index x_1 N^(n-1) + i.
    on_l = ln_first(s) * m + np.arange(m)
    probe[on_l] = lattice_qft_values(s, probe[on_l])
    out -= probe
    return max(worst, float(np.abs(out).max()))


def unshear_slabs(s: SysNFBasis) -> Iterator[tuple[int, np.ndarray]]:
    """Gather index of the compressed shear, one slab of output rows at a time.

    Shear followed by uncompute maps the tail t to y = C t mod N with
    C = I + b b^T, so the output at y reads the input at t = C^-1 y mod N,
    where C^-1 = I - (1 + b.b)^-1 b b^T: the uncompute rule x_1 = (b.y)(1 + b.b)^-1
    followed by t = y - b x_1.  Yields ``(lo, index)`` for consecutive ranges of
    the canonical output order: output ``lo + i`` reads input ``index[i]``.
    Each slab spans whole rows of the leading tail axis, as many as fit in
    ``_SLAB`` points and at least one.  An invalid basis raises
    :class:`ConditionError` at the first slab.
    """
    N, k = s.N, s.n - 1
    inv = s.condition_inverse()
    if k == 0:  # n = 1: the only tail is the empty one
        yield 0, np.zeros(1, dtype=np.int64)
        return
    width = N ** (k - 1)
    step = min(N, max(1, _SLAB // width))
    # coords[j] holds coordinate j of t = C^-1 y mod N, times its index weight
    # N^(k-1-j), over the current slab; the next slab's rows are step further
    # along the leading axis, which adds row j of C^-1, column 0, times step.
    grids = np.indices((step,) + (N,) * (k - 1), dtype=np.uint64, sparse=True)
    coords, shifts, bounds = [], [], []
    for j, bj in enumerate(s.b):
        row = [(int(i == j) - inv * bj * bi) % N for i, bi in enumerate(s.b)]
        weight = N ** (k - 1 - j)
        c = np.zeros((step,) + (N,) * (k - 1), dtype=np.uint64)
        for cij, axis in zip(row, grids):
            c += cij * axis
        c %= N
        c *= weight
        coords.append(c.reshape(-1))
        shifts.append(np.uint64(row[0] * step % N * weight))
        bounds.append(np.uint64(N * weight))
    # No overflow: the first slab's products stay below N^2 and their sum
    # below (n-1) N^2; after that a weighted coordinate plus its shift stays
    # below 2 N^(n-1), and the index below N^(n-1) <= BOX_GUARD (guarded by
    # lattice_qft_values).
    scratch = np.empty_like(coords[0])
    for lo in range(0, N, step):
        size = (min(N, lo + step) - lo) * width
        index = coords[0][:size].copy()
        for c in coords[1:]:
            index += c[:size]
        yield lo * width, index.view(np.int64)
        for c, shift, bound in zip(coords, shifts, bounds):
            c += shift
            # Subtract the bound where c reaches it: below it, c - bound wraps
            # above c in unsigned arithmetic and the minimum keeps c.
            np.subtract(c, bound, out=scratch)
            np.minimum(c, scratch, out=c)


def lattice_qft_values(s: SysNFBasis, values: np.ndarray) -> np.ndarray:
    """Circuit action restricted to the L_N subspace, in compressed form.

    Input and output are length-|L_N| arrays in the canonical point order
    (lexicographic tails).  Equivalent to simulate_sysnf_qft on the embedded
    state.  Shear and uncompute become one gather through the inverse shear
    (:func:`unshear_slabs`), then one in-place FFT follows, so the working set
    is one complex |L_N| array (the output) plus slab-sized temporaries; that
    is what the sampler requires for the large moduli produced by basis
    reduction.
    """
    m = ln_size(s)
    if values.shape != (m,):
        raise ValueError(f"expected {m} values")
    # The compressed shear is a permutation only when valid; unshear_slabs
    # checks that lazily, so check here, before the output is allocated.
    s.condition_inverse()
    out = np.empty(m, dtype=complex)
    for lo, index in unshear_slabs(s):
        # The index lies in range(m) by construction; mode "raise" would stage
        # every slab in a copy of its output before writing it.
        np.take(values, index, out=out[lo : lo + len(index)], mode="clip")
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
