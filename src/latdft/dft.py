"""The lattice discrete Fourier transform on L_N as an explicit dense unitary.

Entries are complex double precision, but the phase integer <x, z> mod N is
always computed exactly over the integers; floating point enters only in the
final twiddle e^(-2 pi i k / N).  Index order over L_N is the canonical one
of :func:`latdft.sysnf.ln_points`: lexicographic in (x_2, ..., x_n).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import intlat
from .errors import MembershipError, SizeGuardError, ZeroMassError
from .sysnf import SysNFBasis, grid_size, ln_first, ln_index, ln_membership, ln_points, ln_size


@dataclass(frozen=True)
class CharacterMatrix:
    """Dense matrix of normalized characters chi_x(z) over L_N.

    ``matrix[i, j] = exp(-2 pi i <p_i, p_j> / N) / sqrt(|L_N|)`` with points
    in canonical order; symmetric because the inner product is.
    """

    basis: SysNFBasis
    matrix: np.ndarray

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class LatticeFunction:
    """Complex amplitudes over L_N, one per point in canonical order."""

    basis: SysNFBasis
    values: np.ndarray

    def __post_init__(self):
        m = self.basis.N ** (self.basis.n - 1)
        if self.values.shape != (m,):
            raise ValueError(f"expected {m} values, got {self.values.shape}")


def _check_member(s: SysNFBasis, x) -> None:
    """Raise MembershipError unless every point of x (one point or a stack) lies in L_N."""
    ok = ln_membership(s, x)
    if not ok.all():
        bad = np.asarray(x).reshape(-1, s.n)[~ok.reshape(-1)][0]
        raise MembershipError(f"{tuple(bad.tolist())} is not a point of L_N")


def character(s: SysNFBasis, x, z) -> complex:
    """chi_x(z) = exp(-2 pi i <x, z> / N) for points x, z of L_N given as coordinates."""
    _check_member(s, x)
    _check_member(s, z)
    phase = sum(int(a) * int(b) for a, b in zip(x, z)) % s.N
    return complex(np.exp(-2j * np.pi * phase / s.N))


def dft_matrix(s: SysNFBasis) -> CharacterMatrix:
    """Dense lattice DFT matrix; unitary exactly when the basis is valid.

    The |L_N|^2 matrix is the allocation: more than ``intlat.BOX_GUARD``
    entries raise :class:`SizeGuardError` before anything |L_N|-sized is built.
    """
    m = s.N ** (s.n - 1)
    if m * m > intlat.BOX_GUARD:
        raise SizeGuardError(f"dense |L_N|^2 = {m * m} entries exceed guard {intlat.BOX_GUARD}")
    if s.n == 1:  # L_N = {0}: F = [[1]] at any N, with no N-entry twiddle table
        return CharacterMatrix(s, np.ones((1, 1), dtype=complex))
    pts = ln_points(s)
    phases = pts @ pts.T
    phases %= s.N
    # Normalized once per twiddle rather than per matrix entry: the same division of each entry.
    twiddles = np.exp(-2j * np.pi * np.arange(s.N) / s.N) / np.sqrt(m)
    return CharacterMatrix(s, twiddles[phases])


def apply_dft(s: SysNFBasis, f: LatticeFunction) -> LatticeFunction:
    """Transform a function on L_N by the dense character matrix.

    Equals the full Z_N^n DFT of the extension-by-zero of f, restricted back
    to L_N and scaled by 1/sqrt(|L_N|).
    """
    if f.basis != s:
        raise ValueError("function was built over a different basis")
    return LatticeFunction(s, dft_matrix(s).matrix @ f.values)


def full_grid_dft_restricted(s: SysNFBasis, f: LatticeFunction) -> np.ndarray:
    """Independent oracle: n-dimensional N-point DFT of the L_N extension of f,
    restricted to L_N and scaled by 1/sqrt(|L_N|).

    The grid holds N^n entries, N times the input; more than
    ``intlat.BOX_GUARD`` raises :class:`SizeGuardError` before it is allocated.
    """
    grid = np.zeros(grid_size(s.N, s.n), dtype=complex).reshape((s.N,) * s.n)
    pts = ln_points(s)
    grid[tuple(pts.T)] = f.values
    hat = np.fft.fftn(grid)
    return hat[tuple(pts.T)] / np.sqrt(pts.shape[0])


def check_shift_phase(s: SysNFBasis, v) -> float:
    """Max entrywise deviation of F U_v - W_v F over all basis states and shifts v.

    v is one point of L_N or a stack of them, coordinates along the last axis.
    U_v is the lattice shift |x> -> |x + v mod N>, W_v the matching character
    phase |x> -> exp(-2 pi i <v, x> / N) |x>; the two are conjugate through
    the transform whenever v lies in L_N.  F U_v gathers the columns of F at
    the shifted points and W_v F scales its rows, so neither operator is built;
    F itself is built once for all shifts, which are checked one at a time.
    """
    _check_member(s, v)
    f = dft_matrix(s).matrix
    pts = ln_points(s)
    worst = 0.0
    for shift in np.asarray(v, dtype=np.int64).reshape(-1, s.n) % s.N:
        lhs = f[:, ln_index(s, (pts[:, 1:] + shift[1:]) % s.N)]
        rhs = np.exp(-2j * np.pi * (pts @ shift % s.N) / s.N)[:, None] * f
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def check_fourth_power(s: SysNFBasis) -> tuple[float, float]:
    """(max |F^2 - negation|, max |F^4 - I|).

    F^2 permutes x to -x because the only point of L_N annihilated by every
    character is 0; F^4 is then the identity.  Each permutation is subtracted
    in place, at its one entry per column.
    """
    f = dft_matrix(s).matrix
    f2 = f @ f
    f4 = f2 @ f2
    cols = np.arange(len(f))
    f2[ln_index(s, -ln_points(s)[:, 1:] % s.N), cols] -= 1
    f4[cols, cols] -= 1
    return float(np.abs(f2).max()), float(np.abs(f4).max())


def eigen_explore(s: SysNFBasis) -> dict[str, int]:
    """Exact multiplicity of each eigenvalue +1, +i, -1, -i of the transform.

    F^4 = I, so the multiplicity of i^k is m_k = 1/4 sum_j i^(-jk) tr F^j
    (McClellan & Parks 1972 for the classical DFT), with tr F^0 = |L_N|,
    tr F^2 the number of points with 2x = 0 (1 for odd N, 2^(n-1) for even
    N), tr F^3 = conj(tr F), and tr F the Gauss sum
    |L_N|^(-1/2) sum_x exp(-2 pi i <x, x> / N), taken from a histogram of
    <x, x> mod N.  More than ``intlat.BOX_GUARD`` points raise
    :class:`SizeGuardError` before the histogram is built; an invalid basis,
    where F^2 is not the negation, raises :class:`ConditionError`.
    """
    m = ln_size(s)
    if s.n == 1:  # L_N = {0}: F = [[1]] at any N
        return {"+1": 1, "+i": 0, "-1": 0, "-i": 0}
    s.condition_inverse()
    norm_sq = ln_first(s).reshape((s.N,) * (s.n - 1))
    norm_sq *= norm_sq
    for axis in np.indices((s.N,) * (s.n - 1), dtype=np.int64, sparse=True):
        norm_sq += axis * axis
    counts = np.bincount(norm_sq.reshape(-1) % s.N)
    trace1 = counts @ np.exp(np.arange(len(counts)) * (-2j * np.pi / s.N)) / np.sqrt(m)
    traces = [m, trace1, 2 ** (s.n - 1) if s.N % 2 == 0 else 1, np.conj(trace1)]
    mult = {}
    for k, label in enumerate(("+1", "+i", "-1", "-i")):
        value = sum(t * 1j ** (-j * k) for j, t in enumerate(traces)).real / 4
        mult[label] = round(value)
        if abs(value - mult[label]) > 1e-6:
            raise RuntimeError(f"multiplicity of {label} = {value} is not an integer")
    if sum(mult.values()) != m:
        raise RuntimeError(f"multiplicities {mult} do not sum to |L_N| = {m}")
    return mult


def smoothness_estimate(s: SysNFBasis, fhat: np.ndarray) -> float:
    """Shift-smoothness defect of a grid function, exact over every shift.

    The integer shifts v = (k, 0, ..., 0), k in Z_N, are exactly the integer
    points of the fundamental parallelotope; returns the largest shortfall
    1 - sum_L fhat(x - v)^2 / sum_L fhat(x)^2 over all of them, clipped at 0.
    With the grid viewed as (x_1, tail) rows, the L_N point of each tail moves
    to row x_1 - k, so every shift is one gather.
    """
    if fhat.shape != (s.N,) * s.n:
        raise ValueError(f"expected grid of shape {(s.N,) * s.n}")
    power = (np.abs(fhat) ** 2).reshape(s.N, -1)
    x1 = ln_first(s)
    shifted = power[(x1 - np.arange(s.N)[:, None]) % s.N, np.arange(len(x1))].sum(axis=1)
    if shifted[0] == 0:
        raise ZeroMassError("grid function has zero squared mass on the lattice")
    return max(0.0, float((1.0 - shifted / shifted[0]).max()))


# -- exports -------------------------------------------------------------------


def export_character_matrix_csv(cm: CharacterMatrix, csv_path, header_path) -> None:
    """Row-major CSV of re,im pairs plus a JSON header {"N","n","b","order"}."""
    with open(csv_path, "w") as fh:
        for row in cm.matrix:
            fh.write(",".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) + "\n")
    with open(header_path, "w") as fh:
        json.dump(
            {"N": cm.basis.N, "n": cm.basis.n, "b": list(cm.basis.b), "order": cm.order},
            fh,
            indent=2,
        )
