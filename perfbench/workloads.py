"""Seeded inputs, timed operations and output checks of the benchmark workloads.

A workload is a builder from a seed to a list of operations.  An operation's
``call`` holds only calls into latdft and is the part that is timed; the
calls go through module attributes (``sampler.sample``, ``intlat.hnf``, ...)
so that the tracer's wrappers see them.  ``check`` verifies one output
against an independent reference and is never timed; ``digest`` fingerprints
an output so that later passes can be compared with the checked first pass.
References (brute-force targets, Fourier oracles) are computed lazily inside
``check``, so building a workload costs only the inputs.
"""

from __future__ import annotations

import hashlib
import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from latdft import dft, intlat, qcirc, sampler, sysnf
from latdft.intlat import ExactMatrix

TV_LIMIT = 0.05
NORM_DEFECT_LIMIT = 1e-10
FLOAT_TOL = 1e-10
ORACLE_MAX_ENTRIES = 2**21  # full_grid_dft_restricted holds N^n complex entries
SPOT_POINTS = 3  # output entries re-derived by exact-phase character sums
SHOTS = 1000


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict[str, float]]]
    digest: Callable[[object], str]


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, (bytes, memoryview)) else repr(p).encode())
    return h.hexdigest()


# -- sampler workloads ------------------------------------------------------------

# (basis, epsilon, (reduced modulus, grid points, support points)).  The counts
# are properties of the lattice, so they hold for every seed.
FINE = [([[2, 1], [0, 1]], Fraction(1, 16), (130817, 28841, 4713))]
COARSE = [
    ([[1, 0], [0, 1]], Fraction(1, 4), (1026, 225, 1026)),
    ([[1, 0], [0, 1]], Fraction(1, 8), (4098, 889, 3800)),
    ([[2, 1], [0, 1]], Fraction(1, 4), (8129, 1781, 4403)),
]


def _unimodular(rng: random.Random, n: int) -> ExactMatrix:
    """One shear per ordered pair of columns, multipliers +-1, in seeded order.

    Every seed gets the same amount of skew, so the sampler's work per seed
    stays the same while its input basis changes.
    """
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    for i, j in pairs:
        a = rng.choice([-1, 1])
        for row in u:
            row[j] += a * row[i]
    return ExactMatrix(u)


def _sampler_op(rows, eps: Fraction, expect, rng: random.Random, shots_seed: int) -> Op:
    base = ExactMatrix(rows)
    # The sampler sees B U: same lattice and HNF, so N, grid and support stay fixed.
    b = base @ _unimodular(rng, base.ncols)
    n = b.ncols
    s_target = 2 ** (n / 2 + 2) * n**0.5 * float(intlat.lambda1_sq(base)) ** 0.5
    s_f = 1.0 / (2.0 * s_target)
    spec = sampler.gaussian_spec(s_f, grid_radius=6 * s_f)
    big_n, grid_pts, support_pts = expect
    reference = []

    def call():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = sampler.sample(spec, b, eps, shots=SHOTS, seed=shots_seed)
        return res, [str(w.message) for w in caught]

    def check(out):
        res, warned = out
        if not reference:
            hnf_basis, _ = intlat.hnf(b)
            reference.append(
                sampler.brute_force_target(
                    lambda p: np.exp(-np.pi * sum(c * c for c in p) / (2 * s_target**2)),
                    hnf_basis,
                    box_radius=6 * s_target,
                )
            )
        tv, _ = sampler.pac_distance(res.distribution, reference[0], match_radius=float(eps))
        dist = res.distribution
        support = set(dist.points)
        fails = [f"warning: {w}" for w in warned]
        for ok, what in [
            (tv <= TV_LIMIT, f"tv_distance {tv} > {TV_LIMIT}"),
            (res.decode_mismatch_rate == 0, f"decode_mismatch_rate {res.decode_mismatch_rate}"),
            (res.ancilla_residual == 0, f"ancilla_residual {res.ancilla_residual}"),
            (res.norm_defect <= NORM_DEFECT_LIMIT, f"norm_defect {res.norm_defect}"),
            (res.certificate.basis.N == big_n, f"reduced modulus {res.certificate.basis.N} != {big_n}"),
            (res.grid_points == grid_pts, f"grid points {res.grid_points} != {grid_pts}"),
            (len(dist.points) == support_pts, f"support points {len(dist.points)} != {support_pts}"),
            (len(res.samples) == SHOTS and support.issuperset(res.samples), "draws off the support"),
        ]:
            if not ok:
                fails.append(what)
        return fails, {"tv_distance": tv}

    def digest(out):
        res, warned = out
        dist = res.distribution
        return _sha(dist.points, dist.probs.tobytes(), res.samples, warned)

    label = f"sample B={rows} eps={eps}"
    return Op(label, call, check, digest)


def _build_sampler(instances):
    def build(seed: int) -> list[Op]:
        rng = random.Random(seed)
        return [
            _sampler_op(rows, eps, expect, rng, shots_seed=seed * 1000 + k)
            for k, (rows, eps, expect) in enumerate(instances)
        ]

    return build


# -- lattice-algebra workload ----------------------------------------------------


def _random_bases(rng: random.Random, dim: int, count: int, bound: int) -> list[ExactMatrix]:
    out = []
    while len(out) < count:
        m = ExactMatrix([[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)])
        if intlat.determinant(m) != 0:
            out.append(m)
    return out


def _reduction_op(b: ExactMatrix, eps: Fraction, coeffs) -> Op:
    """Reduce to SysNF, then test the certificate on random lattice vectors."""

    def call():
        cert = sysnf.reduce_to_sysnf(b, eps)
        bprime = sysnf.validate(cert.basis.to_matrix()).to_matrix()
        member, rel = [], []
        for c in coeffs:
            v = b.mul_vec(c)
            member.append(intlat.membership(bprime, cert.apply_sigma(v)))
            rel.append(cert.relative_error_holds(v))
        return cert, member, rel

    def check(out):
        cert, member, rel = out
        fails = []
        if not all(member):
            fails.append(f"{member.count(False)} sigma images outside L(B')")
        if not all(rel):
            fails.append(f"{rel.count(False)} relative-error bounds fail")
        return fails, {}

    def digest(out):
        cert, member, rel = out
        return _sha(cert.to_json(), member, rel)

    return Op(f"reduce dim={b.ncols} eps={eps}", call, check, digest)


def _brute_force_minima(m: ExactMatrix, target, cvp_sq, svp_sq) -> tuple[Fraction, Fraction]:
    """Exact squared CVP distance of ``target`` and lambda_1^2 of L(m), by numpy enumeration.

    A lattice point within radius r of a centre c has coefficients within
    ||row_i(m^-1)|| r of m^-1 c; each box is widened by one coefficient to
    absorb float rounding.  ``cvp_sq`` and ``svp_sq`` must bound the minima
    from above.  Distances are computed in integers, with the target scaled
    by its common denominator.  The box is walked one value of the first
    coefficient at a time, so the check's memory stays below the process's
    peak and does not show in ``peak_rss_mb``.
    """
    basis = np.array([[int(x) for x in row] for row in m.rows()], dtype=np.int64)
    inv = np.linalg.inv(basis.astype(float))
    widths = np.linalg.norm(inv, axis=1)
    den = math.lcm(*(t.denominator for t in target))
    scaled = np.array([int(t * den) for t in target], dtype=np.int64)

    def slices(centre, radius_sq):
        half = widths * math.sqrt(radius_sq) + 1
        axes = [np.arange(math.floor(c - h), math.ceil(c + h) + 1) for c, h in zip(centre, half)]
        rest = np.stack(np.meshgrid(*axes[1:], indexing="ij"), axis=-1).reshape(-1, len(axes) - 1)
        rest = rest @ basis[:, 1:].T
        for c0 in axes[0]:
            yield c0 * basis[:, 0] + rest

    centre = inv @ np.array([float(t) for t in target])
    cvp = min(int(((p * den - scaled) ** 2).sum(axis=1).min()) for p in slices(centre, float(cvp_sq)))
    lengths = ((p**2).sum(axis=1) for p in slices(np.zeros(len(target)), float(svp_sq)))
    lam = min(int(d[d > 0].min()) for d in lengths if (d > 0).any())
    return Fraction(cvp, den * den), Fraction(lam)


def _kernel_op(m: ExactMatrix, target: tuple[Fraction, ...]) -> Op:
    """HNF, LLL, Babai, exact CVP and lambda_1 on one basis."""
    n = m.ncols

    def call():
        h, u = intlat.hnf(m)
        red = intlat.lll_reduce(m)
        babai = intlat.nearest_plane(red, target)
        best = intlat.cvp_exact(red, target)
        lam = intlat.lambda1_sq(m)
        return h, u, red, babai, best, lam

    def check(out):
        h, u, red, babai, best, lam = out
        babai_sq = intlat.norm_sq(intlat.vec_sub(target, babai))
        shortest_col = min(intlat.norm_sq(c) for c in m.columns() + red.columns())
        cvp_sq, lam_sq = _brute_force_minima(m, target, babai_sq, shortest_col)
        fails = []
        for ok, what in [
            (intlat.is_hnf(h) and m @ u == h, "HNF output is not H = B U in Hermite form"),
            (abs(intlat.determinant(u)) == 1, "HNF transform is not unimodular"),
            (intlat.is_size_reduced(red), "LLL output is not size-reduced"),
            (intlat.satisfies_lovasz(red), "LLL output fails the Lovasz condition"),
            (intlat.hnf(red)[0] == h, "LLL output spans another lattice"),
            (intlat.membership(m, babai) and intlat.membership(m, best.point), "CVP point off the lattice"),
            (best.dist_sq == intlat.norm_sq(intlat.vec_sub(target, best.point)), "CVP distance is not the point's"),
            (best.dist_sq == cvp_sq, f"exact CVP {best.dist_sq} != brute force {cvp_sq}"),
            (babai_sq <= 2**n * cvp_sq, "Babai outside 2^n of exact CVP"),
            (lam == lam_sq, f"lambda_1^2 {lam} != brute force {lam_sq}"),
        ]:
            if not ok:
                fails.append(what)
        return fails, {}

    def digest(out):
        h, u, red, babai, best, lam = out
        return _sha(h, u, red, babai, best, lam)

    return Op(f"kernels dim={n}", call, check, digest)


def _build_lattice_algebra(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for dim in (2, 3):
        for b in _random_bases(rng, dim, 10, 9):
            for eps in (Fraction(1, 16), Fraction(1, 256)):
                coeffs = [[rng.randint(-100, 100) for _ in range(dim)] for _ in range(100)]
                ops.append(_reduction_op(b, eps, coeffs))
    for dim in (2, 3):
        for m in _random_bases(rng, dim, 100, 5):
            target = tuple(Fraction(rng.randint(-160, 160), 8) for _ in range(dim))
            ops.append(_kernel_op(m, target))
    return ops


# -- transform workload -------------------------------------------------------------


def _valid_basis(rng: np.random.Generator, n: int, big_n: int) -> sysnf.SysNFBasis:
    while True:
        s = sysnf.SysNFBasis(big_n, tuple(int(x) for x in rng.integers(0, big_n, n - 1)))
        if s.is_valid:
            return s


def _unit_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def _character_sum(s: sysnf.SysNFBasis, values: np.ndarray, z_index: int) -> complex:
    """Entry z of the lattice DFT of ``values``, summed directly with exact phases.

    Points of L_N are in canonical order (lexicographic tails); the phase
    <x, z> mod N is computed in int64, in blocks of the leading tail
    coordinate to bound memory.
    """
    big_n, k = s.N, s.n - 1
    b = np.array(s.b, dtype=np.int64)
    z_tail = np.array(np.unravel_index(z_index, (big_n,) * k), dtype=np.int64)
    z_first = int(z_tail @ b) % big_n
    width = big_n ** (k - 1)
    rest = np.indices((big_n,) * (k - 1), dtype=np.int64).reshape(k - 1, width)
    rest_first, rest_dot = b[1:] @ rest, z_tail[1:] @ rest
    step = max(1, 2**18 // width)
    total = 0j
    for lo in range(0, big_n, step):
        lead = np.arange(lo, min(big_n, lo + step), dtype=np.int64)[:, None]
        first = (b[0] * lead + rest_first[None, :]) % big_n
        phase = (first * z_first + lead * z_tail[0] + rest_dot[None, :]) % big_n
        block = values[lo * width : (lo + len(lead)) * width].reshape(len(lead), width)
        total += complex((np.exp(-2j * np.pi * phase / big_n) * block).sum())
    return total / math.sqrt(big_n**k)


def _gathered_dft_deviation(s: sysnf.SysNFBasis, values: np.ndarray, out: np.ndarray) -> float:
    """Largest deviation of ``out`` from the lattice DFT of ``values`` at every entry.

    Expanding the character sum gives <x, z> = t . w with w = z_tail +
    (b . z_tail) b mod N over tails t, so entry z is the plain (n-1)-dim DFT
    of ``values`` at frequency w.  That DFT is taken once and gathered, in
    blocks of entries to bound memory.
    """
    big_n, k = s.N, s.n - 1
    grid = np.fft.fftn(values.reshape((big_n,) * k)) / math.sqrt(len(values))
    b = np.array(s.b, dtype=np.int64)[:, None]
    worst = 0.0
    for lo in range(0, len(values), 2**18):
        z = np.array(np.unravel_index(np.arange(lo, min(len(values), lo + 2**18)), grid.shape))
        w = (z + (b * z).sum(axis=0) % big_n * b) % big_n
        worst = max(worst, float(np.abs(grid[tuple(w)] - out[lo : lo + z.shape[1]]).max()))
    return worst


def _transform_check(s, values, out) -> list[str]:
    """Norm preservation, exact-phase character sums at sampled entries, every entry by FFT."""
    fails = []
    if abs(np.linalg.norm(out) - np.linalg.norm(values)) > FLOAT_TOL:
        fails.append("transform does not preserve the norm")
    picks = np.random.default_rng(s.N).integers(0, len(values), SPOT_POINTS)
    worst = max(abs(_character_sum(s, values, int(z)) - out[z]) for z in picks)
    if worst > FLOAT_TOL:
        fails.append(f"character sums differ by {worst:.2e}")
    dev = _gathered_dft_deviation(s, values, out)
    if dev > FLOAT_TOL:
        fails.append(f"gathered DFT differs by {dev:.2e}")
    if s.N**s.n <= ORACLE_MAX_ENTRIES:
        oracle = dft.full_grid_dft_restricted(s, dft.LatticeFunction(s, values))
        dev = float(np.abs(oracle - out).max())
        if dev > FLOAT_TOL:
            fails.append(f"full-grid oracle differs by {dev:.2e}")
    return fails


def _array_digest(out) -> str:
    return _sha(np.ascontiguousarray(out).data)


def _vector_op(label, transform, s, values) -> Op:
    """``transform(s, values)`` must look latdft functions up when called."""
    return Op(
        f"{label} n={s.n} N={s.N}",
        lambda: transform(s, values),
        lambda out: (_transform_check(s, values, out), {}),
        _array_digest,
    )


def _circuit_op(s, psi: qcirc.Statevector) -> Op:
    m = s.N ** (s.n - 1)
    tails = np.indices((s.N,) * (s.n - 1), dtype=np.int64).reshape(s.n - 1, -1).T
    on_l = (tails @ np.array(s.b, dtype=np.int64)) % s.N * m + np.arange(m)

    def call():
        return qcirc.simulate_sysnf_qft(s, psi).amps

    def check(out):
        off_l = np.ones(len(out), dtype=bool)
        off_l[on_l] = False
        fails = _transform_check(s, psi.amps[on_l], out[on_l])
        if not np.array_equal(out[off_l], psi.amps[off_l]):
            fails.append("circuit moved amplitude off L_N")
        return fails, {}

    return Op(f"simulate_sysnf_qft n={s.n} N={s.N}", call, check, _array_digest)


def _build_transform(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n, big_n in [(2, 1021), (2, 2039), (3, 31), (4, 11)]:
        s = _valid_basis(rng, n, big_n)
        values = _unit_vector(rng, big_n ** (n - 1))
        ops.append(_vector_op("dft_matrix", lambda s, v: dft.dft_matrix(s).matrix @ v, s, values))
    for n, big_n in [(3, 61), (3, 127), (4, 19)]:
        s = _valid_basis(rng, n, big_n)
        ops.append(_circuit_op(s, qcirc.Statevector(big_n, n, _unit_vector(rng, big_n**n))))
    for n, big_n in [(2, 130817), (3, 1021), (3, 2039), (4, 127)]:
        s = _valid_basis(rng, n, big_n)
        values = _unit_vector(rng, big_n ** (n - 1))
        ops.append(_vector_op("lattice_qft_values", lambda s, v: qcirc.lattice_qft_values(s, v), s, values))
    return ops


# Workload name -> builder from seed to operations.
WORKLOADS = {
    "sample-fine": _build_sampler(FINE),
    "sample-coarse": _build_sampler(COARSE),
    "lattice-algebra": _build_lattice_algebra,
    "transform": _build_transform,
}
