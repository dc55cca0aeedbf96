"""Exact-amplitude simulation of the lattice sampling algorithm.

The pipeline reduces the input basis to a nearby SysNF lattice, prepares the
transform-side amplitudes on the residue grid, aligns each grid point onto
the finite lattice through the coset bijection, decodes the coset tag with
the nearest-plane algorithm, applies the lattice DFT through the circuit
simulator, and finally maps the exact output distribution back through the
inverse of the reduction map.  Physical measurement is replaced by exact
bookkeeping plus seeded draws, so total-variation statements can be checked
directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import intlat
from .errors import ParameterError, RankError, SizeGuardError, ZeroMassError
from .intlat import (
    ExactMatrix,
    box_points,
    determinant,
    dual_basis,
    in_voronoi_cell,
    integral_rows,
    lambda1_sq,
    lex_box,
    lll_reduce,
    nearest_plane_rows,
    scaled_offsets,
    voronoi_relevant,
)
from .qcirc import lattice_qft_values
from .sysnf import ReductionCertificate, ln_index, ln_size, phi3, reduce_to_sysnf

CARRYING_MASS = 1e-12
PRUNE_MASS = 1e-13


@dataclass(frozen=True)
class QESSpec:
    """Amplitude oracle for a state preparable on the integer grid.

    ``amplitude`` maps a (points, n) float array of oracle arguments to one
    amplitude per row; the sampler evaluates it once, on its scaled grid.
    ``grid_radius`` declares the support radius in the oracle's own argument
    space: squared mass outside it is treated as negligible.
    """

    amplitude: Callable[[np.ndarray], np.ndarray]
    grid_radius: float


def gaussian_spec(s: float, grid_radius: float) -> QESSpec:
    """Gaussian amplitude F(x) = exp(-pi ||x||^2 / (2 s^2)).

    The square |F|^2 is then the Gaussian density with width parameter s, so
    measured probabilities track the density directly.
    """
    if not (s > 0 and 0 < 2 * s * s < math.inf and math.isfinite(grid_radius)):
        raise ParameterError("gaussian width needs s > 0 and 0 < 2 s^2 < inf, grid radius finite")

    def amp(pts):
        r2 = np.sum(np.asarray(pts, dtype=float) ** 2, axis=1)
        return np.exp(-np.pi * r2 / (2 * s * s))

    return QESSpec(amplitude=amp, grid_radius=float(grid_radius))


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite distribution over integer lattice vectors."""

    points: tuple[tuple[int, ...], ...]
    probs: np.ndarray

    def __post_init__(self):
        if len(self.points) != len(self.probs):
            raise ValueError("points/probs length mismatch")
        if len(set(self.points)) != len(self.points):
            raise ValueError("support points must be pairwise distinct")
        if np.any(self.probs < 0):
            raise ValueError("negative probability")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, not 1")

    @classmethod
    def from_weights(cls, points: Sequence[tuple[int, ...]], weights: np.ndarray) -> "DiscreteDistribution":
        weights = np.asarray(weights, dtype=float)
        total = weights.sum()
        if total <= 0:
            raise ZeroMassError("empty or zero-mass support")
        return cls(tuple(points), weights / total)

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return {p: float(q) for p, q in zip(self.points, self.probs)}


def brute_force_target(
    f: Callable[[Sequence[float]], complex], b: ExactMatrix, box_radius: float
) -> DiscreteDistribution:
    """P(x) proportional to |f(x)|^2 over lattice points within the radius.

    Enumeration oracle: the coefficient box is derived from the rows of the
    basis inverse, so every lattice point inside the ball is visited.
    """
    origin = (0,) * b.ncols
    coeffs = box_points(b, origin, box_radius)
    if not b.is_integer():
        raise ParameterError("target enumeration expects an integer basis")
    pts, _ = scaled_offsets(b, coeffs, origin)
    keep = (pts.astype(float) ** 2).sum(axis=1) <= float(box_radius) ** 2 + 1e-12
    pts = pts[keep]
    if len(pts) == 0:
        raise ZeroMassError("no lattice points inside the box")
    weights = np.array([abs(f(tuple(int(c) for c in p))) ** 2 for p in pts], dtype=float)
    if weights.sum() == 0:
        raise ZeroMassError("target density vanishes on the box")
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    weights = weights[order]
    points = tuple(tuple(int(c) for c in p) for p in pts)
    return DiscreteDistribution.from_weights(points, weights)


def pac_distance(
    observed: DiscreteDistribution,
    target: DiscreteDistribution,
    match_radius: float,
) -> tuple[float, float]:
    """Greedy support matching within the radius; returns (tv, max displacement).

    Each observed point relocates its mass to the nearest target support
    point within ``match_radius`` (exact hits first); the total-variation
    distance of the relocated distribution from the target is returned along
    with the largest displacement used.
    """
    tgt = target.as_dict()
    tgt_pts = np.array(target.points, dtype=np.int64)
    relocated: dict[tuple[int, ...], float] = {}
    rad_sq = Fraction(match_radius) ** 2
    max_disp_sq = Fraction(0)
    order = sorted(range(len(observed.points)), key=lambda i: (-observed.probs[i], observed.points[i]))
    for i in order:
        p = observed.points[i]
        mass = float(observed.probs[i])
        if p in tgt:
            relocated[p] = relocated.get(p, 0.0) + mass
            continue
        diffs = tgt_pts - np.array(p, dtype=np.int64)
        d2 = (diffs * diffs).sum(axis=1)
        j = int(np.argmin(d2))
        ties = np.flatnonzero(d2 == d2[j])
        if len(ties) > 1:
            j = min(ties, key=lambda t: target.points[t])
        if Fraction(int(d2[j])) <= rad_sq:
            dest = target.points[j]
            relocated[dest] = relocated.get(dest, 0.0) + mass
            max_disp_sq = max(max_disp_sq, Fraction(int(d2[j])))
        else:
            relocated[p] = relocated.get(p, 0.0) + mass
    l1 = 0.0
    for p in set(relocated) | set(tgt):
        l1 += abs(relocated.get(p, 0.0) - tgt.get(p, 0.0))
    return 0.5 * l1, math.sqrt(float(max_disp_sq))


@dataclass(frozen=True)
class SampleResult:
    """Everything the sampling run produced, exact distribution included."""

    samples: list[tuple[int, ...]]
    distribution: DiscreteDistribution
    certificate: ReductionCertificate
    decode_mismatch_rate: float
    ancilla_residual: float
    norm_defect: float
    boundedness_ok: bool
    grid_points: int = 0
    diagnostics: dict = field(default_factory=dict)


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n > 0 else 0


def sample(spec: QESSpec, b: ExactMatrix, epsilon, shots: int, seed: int) -> SampleResult:
    """Run the sampling algorithm with exact amplitude bookkeeping.

    ``spec`` is the transform-side amplitude oracle of the target density
    (the state prepared on the integer grid); the returned distribution lives
    on the input lattice after the inverse reduction map, and ``shots`` seeded
    draws from it are included.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ParameterError("epsilon must lie strictly between 0 and 1")
    if shots < 0:
        raise ParameterError("shots must be non-negative")
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    if shots > intlat.BOX_GUARD:
        raise SizeGuardError(f"{shots} shots exceed guard {intlat.BOX_GUARD}")
    if not 0 <= spec.grid_radius < math.inf:
        raise ParameterError("grid radius must be finite and non-negative")
    n = b.ncols
    if n < 2:
        # L_N is the single point 0 there, so every spec gives the point mass at 0.
        raise ParameterError(f"sampling needs a basis of dimension at least 2, got {n}")

    # Step 1: nearby SysNF lattice with accuracy epsilon / (sqrt(n) det(B)),
    # using an integer upper bound for sqrt(n) (a smaller parameter only
    # tightens the certificate).
    det_abs = abs(determinant(b))
    if det_abs == 0:
        raise RankError("basis is singular")
    eps_reduce = epsilon / (_ceil_sqrt(n) * det_abs)
    cert = reduce_to_sysnf(b, eps_reduce)
    s = cert.basis
    big_n, t_scale = s.N, cert.T
    # Within the |L_N| guard, (n - 1) N^2 <= BOX_GUARD^2: the modular dot
    # products below stay inside int64.
    lattice_points = ln_size(s)

    # Step 2: amplitudes F(T x / N) on the centered residue grid, truncated to
    # the declared support radius.
    r_grid = spec.grid_radius * big_n / t_scale
    lo_cap, hi_cap = -((big_n - 1) // 2), big_n // 2
    r_int = min(int(math.floor(r_grid)), max(-lo_cap, hi_cap))
    u = lex_box([(max(-r_int, lo_cap), min(r_int, hi_cap))] * n)
    norm_u_sq = (u * u).sum(axis=1)
    keep = norm_u_sq.astype(float) <= r_grid * r_grid + 1e-12
    u, norm_u_sq = u[keep], norm_u_sq[keep]
    amps = np.asarray(spec.amplitude(u.astype(float) * (t_scale / big_n)), dtype=complex)
    total_mass = float((np.abs(amps) ** 2).sum())
    if not math.isfinite(total_mass):
        raise ParameterError("spec has non-finite squared mass on the prepared grid")
    if total_mass == 0:
        raise ZeroMassError("spec has zero squared mass on the prepared grid")
    amps = amps / math.sqrt(total_mass)
    mass = np.abs(amps) ** 2

    # Hypothesis check (warning only): the radius holding 1 - 2^-n of the
    # prepared mass, |u| T / N in the oracle's space, against lambda_1 of the
    # dual scaled by 2^(n/2 + 2).
    order = np.argsort(norm_u_sq, kind="stable")
    cum = np.cumsum(mass[order])
    idx = min(int(np.searchsorted(cum, (1.0 - 2.0**-n) * cum[-1])), len(order) - 1)
    t_mass_sq = Fraction(int(norm_u_sq[order[idx]]) * t_scale**2, big_n**2)
    try:
        boundedness_ok = t_mass_sq * 2 ** (n + 4) <= lambda1_sq(dual_basis(b))
    except SizeGuardError:
        boundedness_ok = False
    else:
        if not boundedness_ok:
            warnings.warn(
                f"mass radius {math.sqrt(t_mass_sq):.4g} exceeds lambda1(dual)/2^(n/2+2); "
                "decoding guarantees may fail",
                stacklevel=2,
            )

    # Step 3: coset alignment x = u + y with y the scaled-dual tag of u's coset.
    y = phi3(s, u)
    x = (u + y) % big_n

    # Step 4: nearest-plane decode of the tag against the reduced scaled dual.
    dual_red = lll_reduce(dual_basis(s.to_matrix()).scale(big_n))

    carrying = mass >= CARRYING_MASS
    tag_ok = (nearest_plane_rows(dual_red, x) % big_n == y).all(axis=1)
    acc = np.zeros(lattice_points, dtype=complex)
    # add.at and the row-order sum add in grid order, as a per-point loop would.
    np.add.at(acc, ln_index(s, x[tag_ok, 1:]), amps[tag_ok])
    ancilla_mass = sum(mass[~tag_ok].tolist(), 0.0)

    # Correct-closest check on amplitude-carrying points: x - y = u modulo
    # N Z^n, inside N L'*, so the tag is a closest point of N L'* to x exactly
    # when u lies in the closed Voronoi cell of N L'*.
    relevant = voronoi_relevant(dual_red)
    off_cell = np.zeros(len(u), dtype=bool)
    off_cell[carrying] = ~in_voronoi_cell(relevant, u[carrying])
    mismatch_mass = float(mass[off_cell | (carrying & ~tag_ok)].sum())
    carrying_mass = float(mass[carrying].sum())
    decode_mismatch_rate = mismatch_mass / carrying_mass if carrying_mass > 0 else 0.0
    if decode_mismatch_rate > 0 or ancilla_mass > 1e-10:
        warnings.warn(
            f"decode mismatch rate {decode_mismatch_rate:.3e}, "
            f"ancilla residual {ancilla_mass:.3e}",
            stacklevel=2,
        )

    # Step 5: lattice DFT on the finite lattice through the circuit.
    psi4 = lattice_qft_values(s, acc)
    probs = np.abs(psi4) ** 2
    total_prob = float(probs.sum())
    norm_defect = abs(total_prob - 1.0)
    if total_prob == 0:
        raise ZeroMassError("no amplitude survived decoding")

    # Step 6: exact output distribution mapped through the inverse reduction.
    # Pruning removes at most PRUNE_MASS of the conditional mass, and the
    # heaviest point always survives.
    keep_idx = np.flatnonzero(probs >= PRUNE_MASS * total_prob / len(probs))
    kept = probs[keep_idx] / probs[keep_idx].sum()
    # The kept rows of ln_points(s): x_1 = b . tail mod N for the kept tails only.
    tails = np.column_stack(np.unravel_index(keep_idx, (big_n,) * (n - 1)))
    w = np.column_stack([tails @ np.array(s.b, dtype=np.int64) % big_n, tails])
    # Centred representatives in (-N/2, N/2] go through sigma^-1 and must land in L(B).
    points = integral_rows(cert.sigma_inverse, np.where(w > big_n // 2, w - big_n, w))
    try:
        integral_rows(b.inverse(), points)
    except ValueError as exc:
        raise RuntimeError(f"support point escaped the input lattice: {exc}") from exc
    order = np.lexsort(points.T[::-1])
    dist = DiscreteDistribution(tuple(map(tuple, points[order].tolist())), kept[order])

    rng = np.random.default_rng(seed)
    if shots and len(dist.points):
        draws = rng.choice(len(dist.points), size=shots, p=dist.probs / dist.probs.sum())
        samples = list(map(dist.points.__getitem__, draws.tolist()))
    else:
        samples = []

    return SampleResult(
        samples=samples,
        distribution=dist,
        certificate=cert,
        decode_mismatch_rate=decode_mismatch_rate,
        ancilla_residual=float(ancilla_mass),
        norm_defect=norm_defect,
        boundedness_ok=boundedness_ok,
        grid_points=len(u),
        diagnostics={
            "lambda1_scaled_dual_sq": float((relevant * relevant).sum(axis=1).min()),
            "carrying_points": int(carrying.sum()),
            "relevant_vectors": len(relevant),
            "off_cell_points": int(off_cell.sum()),
            "ancilla_points": int((~tag_ok).sum()),
            "support_points": len(dist.points),
        },
    )
