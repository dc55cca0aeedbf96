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
from dataclasses import dataclass
from functools import cached_property
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
# int64 squared distances per block in pac_distance: 1 MiB, and as much again for one coordinate's differences.
PAC_BLOCK = 2**17


@dataclass(frozen=True)
class QESSpec:
    """Amplitude oracle for a state preparable on the integer grid.

    ``amplitude`` maps a (points, n) float array of oracle arguments to one
    amplitude per row (any other shape is a ``ParameterError``); the sampler
    evaluates it once, on its scaled grid.
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


class DiscreteDistribution:
    """Finite distribution over integer lattice vectors.

    The support is held as int64 rows in strictly increasing lexicographic
    order, with ``probs`` in the same order, whatever order the points were
    given in; ``points``, the same support as tuples of Python ints, is built
    on its first read and kept.
    """

    def __init__(self, points: Sequence[Sequence[int]] | np.ndarray, probs: np.ndarray):
        if len(points) != len(probs):
            raise ValueError("points/probs length mismatch")
        if not np.isfinite(probs).all():
            raise ValueError("non-finite probability")
        if np.any(probs < 0):
            raise ValueError("negative probability")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        try:
            rows = np.asarray(points, dtype=np.int64)
        except OverflowError:
            raise SizeGuardError("support coordinates must fit int64") from None
        order = np.lexsort(rows.T[::-1])
        self._rows, self.probs = rows[order], probs[order]
        if (self._rows[1:] == self._rows[:-1]).all(axis=1).any():
            raise ValueError("support points must be pairwise distinct")

    @cached_property
    def points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self._rows.T.tolist()))

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return {p: float(q) for p, q in zip(self.points, self.probs)}


def _ball_target(b: ExactMatrix, radius: float, amplitude: Callable[[np.ndarray], np.ndarray]) -> DiscreteDistribution:
    """P(x) proportional to |amplitude(x)|^2 over the lattice points within the radius.

    The coefficient box is derived from the rows of the basis inverse, so
    every lattice point inside the ball is visited; ``amplitude`` maps their
    int64 rows to one amplitude each.
    """
    if not b.is_integer():
        raise ParameterError("target enumeration expects an integer basis")
    origin = (0,) * b.ncols
    pts, _ = scaled_offsets(b, box_points(b, origin, radius), origin)
    pts = pts[(pts.astype(float) ** 2).sum(axis=1) <= float(radius) ** 2 + 1e-12]
    if len(pts) == 0:
        raise ZeroMassError("no lattice points inside the box")
    weights = np.abs(amplitude(pts)) ** 2
    if not np.isfinite(weights).all():
        raise ValueError("non-finite weight")
    total = math.fsum(weights.tolist())  # exactly rounded: no dependence on the enumeration order
    if total == 0:
        raise ZeroMassError("target density vanishes on the box")
    return DiscreteDistribution(pts, weights / total)


def brute_force_target(
    f: Callable[[Sequence[float]], complex], b: ExactMatrix, box_radius: float
) -> DiscreteDistribution:
    """P(x) proportional to |f(x)|^2 over lattice points within the radius.

    Enumeration oracle: ``f`` is called once per lattice point of the ball,
    on a tuple of Python ints.
    """
    return _ball_target(b, box_radius, lambda pts: np.array([f(p) for p in zip(*pts.T.tolist())]))


def pac_distance(
    observed: DiscreteDistribution,
    target: DiscreteDistribution,
    match_radius: float,
) -> tuple[float, float]:
    """Support matching within the radius; returns (tv, max displacement).

    An observed point off the target's support moves its mass to the nearest
    target point (the lexicographically smallest of equally near ones) if that
    lies within ``match_radius``, which must be finite and non-negative, and
    otherwise stays put; no point's destination depends on another point, and
    ``math.fsum`` makes every sum independent of the order points are listed in.
    Works on the int64 rows of both supports: exact matches come from one
    stable sort of both, and the squared distances from off-support points
    to the target are taken in blocks of about ``PAC_BLOCK`` entries (one
    row each past that many target points).  Raises SizeGuardError unless
    every squared distance provably fits int64.
    """
    if not 0 <= match_radius < math.inf:
        raise ParameterError(f"match radius must be finite and non-negative, got {match_radius!r}")
    tgt, tgt_probs = target._rows, target.probs
    obs, obs_probs = observed._rows, observed.probs
    span = max(int(obs.max()), int(tgt.max())) - min(int(obs.min()), int(tgt.min()))
    if tgt.shape[1] * span * span >= 2**63:
        raise SizeGuardError(f"squared distances up to {tgt.shape[1] * span * span} overflow int64")
    # In a stable sort of target then observed rows, an observed row equal to a
    # target row comes right after it; within one support no two rows are equal.
    both = np.concatenate([tgt, obs])
    order = np.lexsort(both.T[::-1])
    equal = np.logical_and.reduce([col[order[1:]] == col[order[:-1]] for col in both.T])
    dest = np.full(len(obs), -1, dtype=np.intp)
    dest[order[1:][equal] - len(tgt)] = order[:-1][equal]
    # An integer d^2 is at most r^2 exactly when it is at most floor(r^2).
    limit = min(math.floor(Fraction(match_radius) ** 2), 2**63 - 1)
    max_disp_sq = 0
    off = np.flatnonzero(dest < 0)
    step = max(1, PAC_BLOCK // len(tgt))
    d2_block, diff_block = np.empty((2, min(step, len(off)), len(tgt)), dtype=np.int64)  # reused by every block
    for start in range(0, len(off), step):
        idx = off[start : start + step]
        d2, diff = d2_block[: len(idx)], diff_block[: len(idx)]
        d2.fill(0)
        for o, t in zip(obs[idx].T, tgt.T):
            np.subtract.outer(o, t, out=diff)
            d2 += np.multiply(diff, diff, out=diff)
        j = d2.argmin(axis=1)  # the first nearest of the sorted target: the smallest
        near = d2[np.arange(len(idx)), j]
        moved = near <= limit
        dest[idx[moved]] = j[moved]
        if moved.any():
            max_disp_sq = max(max_disp_sq, int(near[moved].max()))
    landed = dest >= 0
    order = np.argsort(dest[landed])
    into, masses = dest[landed][order], obs_probs[landed][order]
    gathered = np.zeros(len(tgt))
    gathered[into] = masses
    # Where several masses land on one target point, their sum is exactly rounded.
    starts = np.flatnonzero(np.r_[True, into[1:] != into[:-1], True])
    for k in np.flatnonzero(np.diff(starts) > 1).tolist():
        gathered[into[starts[k]]] = math.fsum(masses[starts[k] : starts[k + 1]].tolist())
    gaps = np.concatenate([np.abs(gathered - tgt_probs), np.abs(obs_probs[~landed])])
    return 0.5 * math.fsum(gaps.tolist()), math.sqrt(max_disp_sq)


@dataclass(frozen=True)
class SampleResult:
    """Everything the sampling run produced, exact distribution included."""

    samples: list[tuple[int, ...]]
    distribution: DiscreteDistribution
    certificate: ReductionCertificate
    decode_mismatch_rate: float
    ancilla_residual: float
    norm_defect: float
    grid_points: int
    diagnostics: dict


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
    # using the integer upper bound isqrt(n - 1) + 1 for sqrt(n) (a smaller
    # parameter only tightens the certificate).
    det_abs = abs(determinant(b))
    if det_abs == 0:
        raise RankError("basis is singular")
    eps_reduce = epsilon / ((math.isqrt(n - 1) + 1) * det_abs)
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
    lo, hi = max(-r_int, lo_cap), min(r_int, hi_cap)
    u = lex_box([(lo, hi)] * n)
    # The box is a product, so its squared norms are one axis's squares summed over every axis.
    side = np.arange(lo, hi + 1, dtype=np.int64)
    norm_u_sq = sum(np.ix_(*[side * side] * n)).reshape(-1)
    keep = norm_u_sq.astype(float) <= r_grid * r_grid + 1e-12
    # Coordinate-major from here on: each coordinate of u, y and x is one contiguous array.
    u = np.stack([col[keep] for col in u.T]).T
    amps = np.asarray(spec.amplitude(u.astype(float) * (t_scale / big_n)), dtype=complex)
    if amps.shape != (len(u),):
        raise ParameterError(f"spec amplitude has shape {amps.shape}, expected {(len(u),)}: one per grid point")
    total_mass = float((np.abs(amps) ** 2).sum())
    if not math.isfinite(total_mass):
        raise ParameterError("spec has non-finite squared mass on the prepared grid")
    if total_mass == 0:
        raise ZeroMassError("spec has zero squared mass on the prepared grid")
    amps = amps / math.sqrt(total_mass)
    mass = np.abs(amps) ** 2

    # Step 3: coset alignment x = u + y with y the scaled-dual tag of u's coset.
    y = phi3(s, u)
    # u is centred and y lies in [0, N), so x lies in (-N/2, 3N/2): one conditional +-N reduces it.
    x = u + y
    x[x < 0] += big_n
    x[x >= big_n] -= big_n

    # Step 4: nearest-plane decode of the tag against the reduced scaled dual.
    dual_red = lll_reduce(dual_basis(s.to_matrix()).scale(big_n))

    carrying = mass >= CARRYING_MASS
    decoded = nearest_plane_rows(dual_red, x)
    tag_ok = np.logical_and.reduce([decoded[:, k] % big_n == y[:, k] for k in range(n)])
    acc = np.zeros(lattice_points, dtype=complex)
    # add.at and the row-order sum add in grid order, as a per-point loop would.
    np.add.at(acc, ln_index(s, x[:, 1:])[tag_ok], amps[tag_ok])
    ancilla_mass = sum(mass[~tag_ok].tolist(), 0.0)

    # Correct-closest check on amplitude-carrying points: x - y = u modulo
    # N Z^n, inside N L'*, so the tag is a closest point of N L'* to x exactly
    # when u lies in the closed Voronoi cell of N L'*.
    relevant = voronoi_relevant(dual_red)
    off_cell = np.zeros(len(u), dtype=bool)
    off_cell[carrying] = ~in_voronoi_cell(relevant, np.stack([col[carrying] for col in u.T]).T)
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
    probs = np.abs(psi4)
    probs *= probs
    total_prob = float(probs.sum())
    norm_defect = abs(total_prob - 1.0)
    if total_prob == 0:
        raise ZeroMassError("no amplitude survived decoding")

    # Step 6: exact output distribution mapped through the inverse reduction.
    # Pruning removes at most PRUNE_MASS of the conditional mass, and the
    # heaviest point always survives.
    keep_idx = np.flatnonzero(probs >= PRUNE_MASS * total_prob / len(probs))
    kept = probs[keep_idx] / probs[keep_idx].sum()
    # The kept rows of ln_points(s), coordinate-major: x_1 = b . tail mod N for the kept tails only.
    w = np.empty((n, len(keep_idx)), dtype=np.int64)
    w[1:] = np.unravel_index(keep_idx, (big_n,) * (n - 1))
    w[0] = np.array(s.b, dtype=np.int64) @ w[1:] % big_n
    # Centred representatives in (-N/2, N/2] go through sigma^-1 and must land in L(B).
    w[w > big_n // 2] -= big_n
    points = integral_rows(cert.sigma_inverse, w.T)
    try:
        integral_rows(b.inverse(), points)
    except ValueError as exc:
        raise RuntimeError(f"support point escaped the input lattice: {exc}") from exc
    dist = DiscreteDistribution(points, kept)

    # Draws on the rows: only the drawn points become tuples.
    draws = np.random.default_rng(seed).choice(len(dist.probs), size=shots, p=dist.probs / dist.probs.sum())
    samples = list(zip(*dist._rows[draws].T.tolist()))

    return SampleResult(
        samples=samples,
        distribution=dist,
        certificate=cert,
        decode_mismatch_rate=decode_mismatch_rate,
        ancilla_residual=float(ancilla_mass),
        norm_defect=norm_defect,
        grid_points=len(u),
        diagnostics={
            "lambda1_scaled_dual_sq": float((relevant * relevant).sum(axis=1).min()),
            "carrying_points": int(carrying.sum()),
            "relevant_vectors": len(relevant),
            "off_cell_points": int(off_cell.sum()),
            "ancilla_points": int((~tag_ok).sum()),
            "support_points": len(dist.probs),
        },
    )


def sample_gaussian(b: ExactMatrix, s: float, epsilon, shots: int, seed: int) -> tuple[SampleResult, float, float]:
    """The Gaussian experiment: sample P(x) ~ exp(-pi ||x||^2 / s^2) on L(b), score it by brute force.

    The oracle is the target's transform, a width-1/(2s) Gaussian on a grid of
    radius 6/(2s); the target is the width-s ``gaussian_spec`` on the lattice
    points within radius 6s.  Returns the result and (tv, max displacement) at
    match radius epsilon.
    """
    if not 0 < s < math.inf:
        raise ParameterError(f"target width must satisfy 0 < s < inf, got {s!r}")
    s_f = 1 / (2 * s)
    result = sample(gaussian_spec(s_f, grid_radius=6 * s_f), b, epsilon, shots=shots, seed=seed)
    target = _ball_target(b, 6 * s, gaussian_spec(s, grid_radius=6 * s).amplitude)
    tv, disp = pac_distance(result.distribution, target, match_radius=float(Fraction(epsilon)))
    return result, tv, disp
