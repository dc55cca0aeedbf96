"""Statevector simulation of the four-step circuit implementing the lattice DFT.

Registers are n qudits over Z_N; the statevector is the full length-N^n
complex array, indexed row-major with the first register most significant.
Basis states off L_N pass through the composite circuit unchanged.

:func:`lattice_qft_values` is the compressed path on the L_N subspace alone:
shear and uncompute as one slab-wise gather through the inverse shear, then
one in-place FFT; it holds one complex |L_N| array plus slab-sized
temporaries.  At n = 2 with N of a large prime factor the shear folds into
the ratio of one chirp-z transform instead, with no gather: a four-step
convolution in row-padded (L1, L2 + 8) arrays whose sizes follow from N (see
:func:`lattice_qft_values`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ModulusMismatchError, UncomputeError
from .sysnf import SysNFBasis, grid_size, ln_first, ln_size

SUPPORT_TOL = 1e-12
# Output points per slab of the inverse-shear gather: about 128 KiB of int64 index.
_SLAB = 2**14
# Bytes of chirp-z plans kept between calls, least recently used evicted first.
_PLAN_BYTES = 2**25
_plans: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}  # in order of last use
# Pad points per row of the chirp-z four-step arrays.  A row of L2 points is a
# multiple of 4 KiB at L2 = 512 (N = 130,817), so a column pass strides
# through one cache set; a row of L2 + 8 points spans a multiple of 4 KiB only
# where L2 + 8 is a multiple of 256, and the first 5-smooth such L2 is 9,720,
# beyond the 3,125 of any plan that fits _PLAN_BYTES.
_PAD = 8


@dataclass(frozen=True)
class Statevector:
    """Amplitudes of an n-register Z_N system, length N^n."""

    N: int
    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape != (self.N**self.n,):
            raise ValueError(f"expected {self.N ** self.n} amplitudes")

    def grid(self) -> np.ndarray:
        return self.amps.reshape((self.N,) * self.n)

    def index_of(self, coords) -> int:
        idx = 0
        for c in coords:
            idx = idx * self.N + (int(c) % self.N)
        return idx


def basis_state(N: int, n: int, coords) -> Statevector:
    if len(coords) != n:
        raise ValueError(f"basis state needs {n} coordinates, got {len(coords)}")
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
    out = np.fft.fft(psi.grid(), axis=register, norm="ortho")
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


def _pass_cost(n: int) -> tuple[float, int]:
    """pocketfft's cost estimate of a length-n FFT by direct passes, and n's largest prime factor.

    Per point, a pass of radix 4 or 2 costs 2, of radix 3 or 5 its radix and
    of a larger prime p 1.1 p (pocketfft's ``cost_guess``).
    """
    cost, rest, largest = 0.0, n, 1
    while rest % 4 == 0:
        cost, rest, largest = cost + 2, rest // 4, 2
    p = 2
    while p * p <= rest:
        while rest % p == 0:
            cost, rest, largest = cost + (p if p <= 5 else 1.1 * p), rest // p, p
        p += 1 if p == 2 else 2
    if rest > 1:
        cost, largest = cost + (rest if rest <= 5 else 1.1 * rest), rest
    return cost * n, largest


def _chirp_length(N: int) -> int:
    """Padded length L of the chirp-z transform of length N, or 0 where direct passes pay.

    L is the smallest 2^a 3^b 5^c >= 2N - 1.  The test is the one pocketfft
    makes before it builds a Bluestein plan: N >= 50, a prime factor above
    sqrt(N), and direct passes that cost more than two length-L FFTs times
    its fudge factor 1.5.
    """
    direct, largest = _pass_cost(N)
    if N < 50 or largest * largest <= N:
        return 0
    target = 2 * N - 1
    length = 1 << (target - 1).bit_length()
    f5 = 1
    while f5 < length:
        f35 = f5
        while f35 < length:
            x = f35
            while x < target:
                x *= 2
            length = min(length, x)
            f35 *= 3
        f5 *= 5
    return length if 3 * _pass_cost(length)[0] < direct else 0


def _chirp_split(N: int) -> tuple[int, int] | None:
    """Four-step split (L1, L2) of the length-N chirp-z convolution, or None where ``np.fft`` runs.

    L = L1 L2 is ``_chirp_length(N)`` and L1 its largest divisor not above
    sqrt(L).  None where L = 0, or where the plan, 16 (N + 2 L1 (L2 + _PAD))
    bytes, would not fit ``_PLAN_BYTES``: a plan that cannot be kept would be
    rebuilt on every call, at more cost than numpy's own Bluestein.
    """
    L = _chirp_length(N)
    if not L:
        return None
    L1 = next(d for d in range(math.isqrt(L), 0, -1) if L % d == 0)
    L2 = L // L1
    return (L1, L2) if 16 * (N + 2 * L1 * (L2 + _PAD)) <= _PLAN_BYTES else None


def _row_blocks(buf: np.ndarray, width: int, lo: int, hi: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Points lo..hi-1 of the row-major array held in the first ``width`` columns of ``buf``.

    Yields ``(a, b, block)``, at most three 2-D views in order: the rest of a
    partial first row, the whole rows, the start of a last row; ``block``
    holds points a..b-1 in C order.
    """
    while lo < hi:
        row, col = divmod(lo, width)
        rows = 0 if col else (hi - lo) // width
        if rows:
            b = lo + rows * width
            yield lo, b, buf[row : row + rows, :width]
        else:
            b = min(hi, lo - col + width)
            yield lo, b, buf[row : row + 1, col : col + b - lo]
        lo = b


def _four_step(buf: np.ndarray, twiddle: np.ndarray, first: int) -> None:
    """Unscaled FFT of the (L1, L2) view of a padded (L1, L2 + _PAD) array in place by Bailey's
    four-step (1990): ``first = 0`` maps natural order to transposed order ([k1, k2] holds index
    k1 + L1 k2), ``first = 1`` back.  The twiddle multiply runs over the whole padded arrays,
    whose pad columns stay zero."""
    view = buf[:, : buf.shape[1] - _PAD]
    np.fft.fft(view, axis=first, out=view)
    buf *= twiddle
    np.fft.fft(view, axis=1 - first, out=view)


def _chirp_plan(N: int, C: int, split: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only chirp w_k = exp(-i pi C k^2 / N), four-step twiddle and FFT of the padded conjugate chirp over L sqrt(N).

    Twiddle exp(-2 pi i k1 n2 / L) and kernel (in transposed order) are held in the first L2 columns
    of (L1, L2 + _PAD) arrays, ``split = (L1, L2)`` from :func:`_chirp_split`, with zero pad columns.
    Plans are keyed by (N, C) and stay in ``_plans`` while their bytes fit ``_PLAN_BYTES``, least
    recently used evicted first.  The caller asks only for plans that fit.
    """
    plan = _plans.pop((N, C), None)
    if plan is None:
        # The phase integer C (k^2 mod 2N) mod 2N gives the same phase; both
        # products stay below 2 N^2, exact in int64 for any N whose plan fits
        # _PLAN_BYTES.
        k = np.arange(N, dtype=np.int64)
        k *= k
        k %= 2 * N
        k *= C
        k %= 2 * N
        w = np.empty(N, dtype=complex)
        np.multiply(k, -np.pi / N, out=w.real)
        np.sin(w.real, out=w.imag)
        np.cos(w.real, out=w.real)
        L1, L2 = split
        L = L1 * L2
        twiddle = np.zeros((L1, L2 + _PAD), dtype=complex)
        cells = twiddle[:, :L2]
        np.multiply.outer(np.arange(L1) * (-2 * np.pi / L), np.arange(L2), out=cells.imag)
        np.exp(cells, out=cells)  # in place: no temporary
        # conj(w) at lags -(N-1)..N-1 from index 0, so lag j of the convolution lands at -(N-1) - j mod L.
        kernel = np.zeros_like(twiddle)
        for lags, lo in ((w[::-1], 0), (w[1:], N)):
            for a, b, block in _row_blocks(kernel, L2, lo, lo + len(lags)):
                np.conjugate(lags[a - lo : b - lo].reshape(block.shape), out=block)
        _four_step(kernel, twiddle, 0)
        kernel /= L * np.sqrt(N)  # 1/L for the inverse, 1/sqrt(N) for unitarity
        w.flags.writeable = twiddle.flags.writeable = kernel.flags.writeable = False
        plan = w, twiddle, kernel
    _plans[N, C] = plan
    while sum(a.nbytes for kept in _plans.values() for a in kept) > _PLAN_BYTES:
        del _plans[next(iter(_plans))]
    return plan


def _chirp_z(values: np.ndarray, w: np.ndarray, twiddle: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """X_j = w_j sum_k (x_k w_k) conj(w_(j-k)) / sqrt(N) by Bluestein (1970), for a plan of :func:`_chirp_plan`.

    One cyclic convolution in a padded buffer of the plan's shape by two
    four-step FFTs; the second, axes swapped, is forward too and so reads
    the lags backwards, with 1/(L sqrt(N)) folded into the kernel.
    """
    N, L2 = len(w), twiddle.shape[1] - _PAD
    L = twiddle.shape[0] * L2
    buf = np.zeros_like(twiddle)
    for a, b, block in _row_blocks(buf, L2, 0, N):
        np.multiply(values[a:b].reshape(block.shape), w[a:b].reshape(block.shape), out=block)
    _four_step(buf, twiddle, 0)
    buf *= kernel
    _four_step(buf, twiddle, 1)
    # Lag j sits at point top - j: read points top-N+1..top backwards.
    out = np.empty(N, dtype=complex)
    top = L - N + 1
    for a, b, block in _row_blocks(buf, L2, top - N + 1, top + 1):
        j = slice(top + 1 - b, top + 1 - a)
        np.multiply(block[::-1, ::-1], w[j].reshape(block.shape), out=out[j].reshape(block.shape))
    return out


def lattice_qft_values(s: SysNFBasis, values: np.ndarray) -> np.ndarray:
    """Circuit action restricted to the L_N subspace, in compressed form.

    Input and output are length-|L_N| arrays in the canonical point order
    (lexicographic tails); any numeric input dtype is taken, and one other
    than complex128 costs one complex |L_N| copy.  Equivalent to
    simulate_sysnf_qft on the embedded state, and unitary, with 1/sqrt(|L_N|)
    applied inside the transform.  Shear and uncompute become one gather
    through the inverse shear (:func:`unshear_slabs`), then one in-place
    ``np.fft.fftn`` follows.  Its memory is one complex |L_N| array (the
    output) plus slab-sized temporaries and the FFT's scratch, a few rows of
    N points (for a prime N at n >= 3, pocketfft's Bluestein plan of about
    2N); this is what the sampler requires for the large moduli produced by
    basis reduction.

    At n = 2 the character is <x, z> = C t t' mod N on tails t, t', with
    C = 1 + b^2, so the output is psi_j = N^-1/2 sum_t v_t exp(-2 pi i C j t / N):
    a length-N DFT at ratio exp(-2 pi i C / N).  Where N has a large prime
    factor and the plan fits ``_PLAN_BYTES`` (32 MiB, N up to about 420,000;
    :func:`_chirp_split`), that is one chirp-z transform (Rabiner, Schafer and
    Rader 1969) with the chirp w_k = exp(-i pi C k^2 / N) (:func:`_chirp_z`),
    with no gather and no index.  It adds a complex buffer of L1 (L2 + 8) points, L = L1 L2 < 4N
    being the smallest 2^a 3^b 5^c >= 2N - 1, and on a plan miss a plan of
    N + 2 L1 (L2 + 8) points; plans of up to ``_PLAN_BYTES`` in all stay
    cached between calls, keyed by (N, C).  As N = |L_N| there, the |L_N|
    guard bounds that scratch and fires before any of it is allocated.
    """
    m = ln_size(s)
    values = np.asarray(values, dtype=complex)
    if values.shape != (m,):
        raise ValueError(f"expected {m} values")
    # The compressed shear is a permutation only when valid; unshear_slabs
    # checks that lazily, so check here, before the output is allocated.
    s.condition_inverse()
    split = _chirp_split(s.N) if s.n == 2 else None
    if split:
        return _chirp_z(values, *_chirp_plan(s.N, s.condition_sum % s.N, split))
    out = np.empty(m, dtype=complex)
    for lo, index in unshear_slabs(s):
        # The index lies in range(m) by construction; mode "raise" would stage
        # every slab in a copy of its output before writing it.
        np.take(values, index, out=out[lo : lo + len(index)], mode="clip")
    grid = out.reshape((s.N,) * (s.n - 1))
    np.fft.fftn(grid, out=grid, norm="ortho")
    return out


# -- snapshots -----------------------------------------------------------------


def save_snapshot(psi: Statevector, path_base) -> None:
    """Binary little-endian interleaved float64 (re, im) plus a JSON sidecar."""
    base = Path(path_base)
    base.with_suffix(".bin").write_bytes(psi.amps.astype("<c16").tobytes())
    base.with_suffix(".json").write_text(json.dumps({"N": psi.N, "n": psi.n}))
