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
from .sysnf import SysNFBasis, ln_index, ln_membership, ln_points


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
    pts = ln_points(s)
    phases = (pts @ pts.T) % s.N
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
    n, N = s.n, s.N
    if N**n > intlat.BOX_GUARD:
        raise SizeGuardError(f"full grid N^n = {N ** n} entries exceed guard {intlat.BOX_GUARD}")
    grid = np.zeros((N,) * n, dtype=complex)
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


@dataclass(frozen=True)
class EigenReport:
    """Numerically computed spectrum of the transform; diagnostic only."""

    eigenvalues: np.ndarray
    multiplicities: dict
    eigenvectors: dict
    max_residual: float

    def total_multiplicity(self) -> int:
        return sum(self.multiplicities.values())


_FOURTH_ROOTS = {"+1": 1.0 + 0j, "+i": 1j, "-1": -1.0 + 0j, "-i": -1j}


def eigen_explore(s: SysNFBasis) -> EigenReport:
    """Eigenvalue multiplicity table and per-eigenspace bases of the transform.

    Since F^4 = I on a valid basis, eigenvalues cluster on the fourth roots of
    unity; vectors are grouped by the nearest root.
    """
    cm = dft_matrix(s)
    vals, vecs = np.linalg.eig(cm.matrix)
    residuals = np.abs(cm.matrix @ vecs - vecs * vals).max(axis=0)
    mult: dict[str, int] = {}
    spaces: dict[str, np.ndarray] = {}
    for label in _FOURTH_ROOTS:
        sel = np.array(
            [min(_FOURTH_ROOTS, key=lambda k: abs(v - _FOURTH_ROOTS[k])) == label for v in vals]
        )
        mult[label] = int(sel.sum())
        spaces[label] = vecs[:, sel]
    return EigenReport(vals, mult, spaces, float(residuals.max()))


def smoothness_estimate(
    s: SysNFBasis, fhat: np.ndarray, samples: int, seed: int
) -> float:
    """Monte Carlo estimate of the shift-smoothness defect of a grid function.

    Samples integer shifts v = (k, 0, ..., 0) from the fundamental
    parallelotope (its integer points are exactly those) and returns the
    largest observed shortfall 1 - sum_L fhat(x - v)^2 / sum_L fhat(x)^2,
    clipped at 0.  Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if fhat.shape != (s.N,) * s.n:
        raise ValueError(f"expected grid of shape {(s.N,) * s.n}")
    power = np.abs(fhat) ** 2
    pts = ln_points(s)
    base = power[tuple(pts.T)].sum()
    if base == 0:
        raise ZeroMassError("grid function has zero squared mass on the lattice")
    rng = np.random.default_rng(seed)
    shifts = rng.integers(0, s.N, size=samples)
    worst = 0.0
    for k in set(int(k) for k in shifts):
        shifted = pts.copy()
        shifted[:, 0] = (shifted[:, 0] - k) % s.N
        ratio = power[tuple(shifted.T)].sum() / base
        worst = max(worst, 1.0 - float(ratio))
    return worst


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


def export_lattice_function_csv(f: LatticeFunction, path) -> None:
    """One line per point: x2,...,xn,re,im."""
    pts = ln_points(f.basis)
    with open(path, "w") as fh:
        for row, z in zip(pts, f.values):
            tail = ",".join(str(int(c)) for c in row[1:])
            prefix = tail + "," if tail else ""
            fh.write(f"{prefix}{float(z.real)!r},{float(z.imag)!r}\n")
