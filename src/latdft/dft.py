"""The lattice discrete Fourier transform on L_N as an explicit dense unitary.

Entries are complex double precision, but the phase integer <x, z> mod N is
always computed exactly over the integers; floating point enters only in the
final twiddle e^(-2 pi i k / N).  Index order over L_N is the canonical one
of :func:`latdft.sysnf.ln_points`: lexicographic in (x_2, ..., x_n).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import intlat
from .errors import MembershipError, SizeGuardError, ZeroMassError
from .sysnf import ModVector, SysNFBasis, enumerate_ln, ln_membership, ln_points

DEFAULT_SIZE_GUARD = 4096


@dataclass(frozen=True)
class CharacterMatrix:
    """Dense matrix of normalized characters chi_x(z) over L_N.

    ``matrix[i, j] = exp(-2 pi i <p_i, p_j> / N) / sqrt(|L_N|)`` with points
    in canonical order; symmetric because the inner product is.
    """

    basis: SysNFBasis
    points: tuple[ModVector, ...]
    matrix: np.ndarray
    index: dict = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.points)

    def index_of(self, x: ModVector) -> int:
        try:
            return self.index[x.coords]
        except KeyError:
            raise MembershipError(f"{x.coords} is not a point of L_N")


@dataclass(frozen=True)
class LatticeFunction:
    """Complex amplitudes over L_N, one per point in canonical order."""

    basis: SysNFBasis
    values: np.ndarray

    def __post_init__(self):
        m = self.basis.N ** (self.basis.n - 1)
        if self.values.shape != (m,):
            raise ValueError(f"expected {m} values, got {self.values.shape}")


def character(s: SysNFBasis, x: ModVector, z: ModVector) -> complex:
    """chi_x(z) = exp(-2 pi i <x, z> / N) for points of L_N."""
    for p in (x, z):
        if not ln_membership(s, p):
            raise MembershipError(f"{p.coords} is not a point of L_N")
    phase = sum(a * b for a, b in zip(x.coords, z.coords)) % s.N
    return complex(np.exp(-2j * np.pi * phase / s.N))


def dft_matrix(s: SysNFBasis, size_guard: int = DEFAULT_SIZE_GUARD) -> CharacterMatrix:
    """Dense lattice DFT matrix; unitary exactly when the basis is valid."""
    points = tuple(enumerate_ln(s, size_guard))
    pts = ln_points(s)
    phases = (pts @ pts.T) % s.N
    # Normalized once per twiddle rather than per matrix entry: the same division of each entry.
    twiddles = np.exp(-2j * np.pi * np.arange(s.N) / s.N) / np.sqrt(len(points))
    mat = twiddles[phases]
    index = {p.coords: i for i, p in enumerate(points)}
    return CharacterMatrix(s, points, mat, index)


def apply_dft(s: SysNFBasis, f: LatticeFunction, size_guard: int = DEFAULT_SIZE_GUARD) -> LatticeFunction:
    """Transform a function on L_N by the dense character matrix.

    Equals the full Z_N^n DFT of the extension-by-zero of f, restricted back
    to L_N and scaled by 1/sqrt(|L_N|).
    """
    if f.basis != s:
        raise ValueError("function was built over a different basis")
    cm = dft_matrix(s, size_guard)
    return LatticeFunction(s, cm.matrix @ f.values)


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


def _permutation(cm: CharacterMatrix, image) -> np.ndarray:
    """Permutation matrix of |x> -> |image(x)> on the L_N index."""
    mat = np.zeros((cm.order, cm.order))
    for j, p in enumerate(cm.points):
        mat[cm.index_of(image(p)), j] = 1.0
    return mat


def shift_operator(cm: CharacterMatrix, v: ModVector) -> np.ndarray:
    """Permutation matrix of |x> -> |x + v mod N> on the L_N index."""
    return _permutation(cm, lambda p: p + v)


def phase_operator(cm: CharacterMatrix, v: ModVector) -> np.ndarray:
    """Diagonal matrix of |x> -> exp(-2 pi i <v, x> / N) |x>."""
    phases = ln_points(cm.basis) @ np.array(v.coords, dtype=np.int64) % cm.basis.N
    return np.diag(np.exp(-2j * np.pi * phases / cm.basis.N))


def check_shift_phase(s: SysNFBasis, v: ModVector, size_guard: int = DEFAULT_SIZE_GUARD) -> float:
    """Max entrywise deviation of F U_v - W_v F over all basis states.

    U_v is the lattice shift by v, W_v the matching character phase; the two
    are conjugate through the transform whenever v lies in L_N.
    """
    if not ln_membership(s, v):
        raise MembershipError(f"{v.coords} is not a point of L_N")
    cm = dft_matrix(s, size_guard)
    lhs = cm.matrix @ shift_operator(cm, v)
    rhs = phase_operator(cm, v) @ cm.matrix
    return float(np.abs(lhs - rhs).max())


def negation_permutation(cm: CharacterMatrix) -> np.ndarray:
    return _permutation(cm, lambda p: -p)


def check_fourth_power(
    s: SysNFBasis, size_guard: int = DEFAULT_SIZE_GUARD
) -> tuple[float, float]:
    """(max |F^2 - negation|, max |F^4 - I|).

    F^2 permutes x to -x because the only point of L_N annihilated by every
    character is 0; F^4 is then the identity.
    """
    cm = dft_matrix(s, size_guard)
    f2 = cm.matrix @ cm.matrix
    dev2 = float(np.abs(f2 - negation_permutation(cm)).max())
    f4 = f2 @ f2
    dev4 = float(np.abs(f4 - np.eye(cm.order)).max())
    return dev2, dev4


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


def eigen_explore(s: SysNFBasis, size_guard: int = DEFAULT_SIZE_GUARD) -> EigenReport:
    """Eigenvalue multiplicity table and per-eigenspace bases of the transform.

    Since F^4 = I on a valid basis, eigenvalues cluster on the fourth roots of
    unity; vectors are grouped by the nearest root.
    """
    cm = dft_matrix(s, size_guard)
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
