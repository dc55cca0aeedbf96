"""Desk-scale acceptance battery.

Each criterion is a plain check returning ``(passed, details)``.
``ALL_CRITERIA`` is the one table of the battery: number, name, check and
time budget per row.  :meth:`Criterion.run` times one row, turning an
exception or an overrun budget into a failure.  The pytest acceptance
module, the CLI tests and the ``latdft selftest`` subcommand all iterate
that table.  Every random quantity is derived from fixed seeds.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .dft import (
    LatticeFunction,
    apply_dft,
    check_fourth_power,
    check_shift_phase,
    dft_matrix,
    eigen_explore,
    full_grid_dft_restricted,
    smoothness_estimate,
)
from .errors import ConditionError
from .intlat import (
    ExactMatrix,
    cvp_exact,
    determinant,
    lambda1_sq,
    lex_box,
    lll_reduce,
    membership,
    nearest_plane,
    vec_integer_form,
)
from .qcirc import dense_deviation
from .sampler import sample_gaussian
from .sysnf import (
    SysNFBasis,
    enumerate_scaled_dual,
    ln_membership,
    ln_points,
    phi3,
    reduce_to_sysnf,
    scaled_dual_membership,
    validate,
)

# The battery's seed, recorded in the selftest summary; criteria 8 and 10 draw
# from it, the others from seeds of their own.
SEED = 20260810

# (n, N, b): the unitarity instance set.  Two members violate the coprimality
# condition and are expected to be rejected by validation.
INSTANCE_SET = [
    (2, 4, (3,)),
    (2, 5, (1,)),
    (2, 9, (2,)),
    (3, 5, (1, 2)),
    (3, 7, (2, 3)),
    (4, 3, (1, 1, 1)),
]
EXPECTED_VALID = {(2, 5, (1,)), (2, 9, (2,)), (3, 5, (1, 2)), (4, 3, (1, 1, 1))}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} ({self.name}): {self.details} [{self.seconds:.2f}s]"


def _validated_instances() -> list[SysNFBasis]:
    out = []
    for n, N, b in INSTANCE_SET:
        try:
            out.append(validate(SysNFBasis(N, b).to_matrix()))
        except ConditionError:
            continue
    return out


def criterion_1_unitarity() -> tuple[bool, str]:
    valid = _validated_instances()
    if {(s.n, s.N, s.b) for s in valid} != EXPECTED_VALID:
        return False, "validated set does not match the expected subset"
    fs = [dft_matrix(s).matrix for s in valid]
    worst = max(float(np.abs(f.conj().T @ f - np.eye(len(f))).max()) for f in fs)
    return worst <= 1e-10, f"{len(valid)} validated instances, max ||F*F - I|| = {worst:.2e}"


def criterion_2_circuit_equivalence() -> tuple[bool, str]:
    worst = max(dense_deviation(s, dft_matrix(s).matrix) for s in _validated_instances())
    return worst <= 1e-10, f"max circuit/matrix amplitude deviation = {worst:.2e}"


def criterion_3_negative_control() -> tuple[bool, str]:
    s = SysNFBasis(4, (1,))
    try:
        validate(s.to_matrix())
        return False, "validator accepted N=4, b=(1)"
    except ConditionError as exc:
        if exc.gcd != 2:
            return False, f"rejection carried gcd {exc.gcd}, expected 2"
    cm = dft_matrix(s)  # force-built despite invalidity
    dev = float(np.abs(cm.matrix.conj().T @ cm.matrix - np.eye(cm.order)).max())
    return dev >= 0.5, f"rejected with gcd 2; forced transform deviates by {dev:.3f}"


def criterion_4_cardinalities() -> tuple[bool, str]:
    extra = [SysNFBasis(101, (5,)), SysNFBasis(31, (3, 7))]
    for s in _validated_instances() + extra:
        if s.N**s.n > 10**6:
            continue
        want = s.N ** (s.n - 1)
        grid = lex_box([(0, s.N - 1)] * s.n)
        count = int(ln_membership(s, grid).sum())
        dual_count = int(scaled_dual_membership(s, grid).sum())
        if count != want:
            return False, f"|L_N| = {count} != {want} at N={s.N}"
        if dual_count != s.N:
            return False, f"|(NL*)_N| = {dual_count} != {s.N} at N={s.N}"
        duals = enumerate_scaled_dual(s)
        if len(np.unique(duals, axis=0)) != s.N:
            return False, f"scaled dual enumeration not N distinct points at N={s.N}"
        if duals[ln_membership(s, duals)].tolist() != [[0] * s.n]:
            return False, f"L_N and (NL*)_N intersect beyond 0 at N={s.N}"
    return True, "exhaustive counts N^(n-1) and N confirmed; intersection trivial"


def criterion_5_phi3_bijection() -> tuple[bool, str]:
    cases = [SysNFBasis(5, (1,)), SysNFBasis(9, (2,)), SysNFBasis(5, (1, 2))]
    for s in cases:
        x = lex_box([(0, s.N - 1)] * s.n)
        y = phi3(s, x)
        if not ln_membership(s, x + y).all():
            return False, f"x + phi3(x) escapes L_N at N={s.N}"
        if not scaled_dual_membership(s, y).all():
            return False, f"phi3 image off the scaled dual at N={s.N}"
        # Every residue x against every lattice point ell: phi3(x + ell) = phi3(x).
        if not (phi3(s, x[:, None, :] + ln_points(s)) == y[:, None, :]).all():
            return False, f"phi3 not coset-constant at N={s.N}"
        images = len(np.unique(y, axis=0))
        if images != s.N:
            return False, f"phi3 image has {images} values, expected {s.N}"
    return True, "section property, coset constancy, and N-value image all exhaustive"


def criterion_6_shift_phase() -> tuple[bool, str]:
    cases = [SysNFBasis(5, (1,)), SysNFBasis(5, (1, 2))]
    worst = max(check_shift_phase(s, ln_points(s)) for s in cases)
    return worst <= 1e-10, f"max conjugacy deviation over all lattice shifts = {worst:.2e}"


def criterion_7_fourth_power() -> tuple[bool, str]:
    worst2 = worst4 = worst_eig = 0.0
    roots = np.array([1, 1j, -1, -1j])
    instances = _validated_instances()
    for s in instances:
        d2, d4 = check_fourth_power(s)
        worst2, worst4 = max(worst2, d2), max(worst4, d4)
        dist = np.abs(np.linalg.eigvals(dft_matrix(s).matrix)[:, None] - roots)
        worst_eig = max(worst_eig, float(dist.min(axis=1).max()))
        # The dense spectrum, grouped by nearest root, against the exact counts.
        counts = np.bincount(dist.argmin(axis=1), minlength=4).tolist()
        exact = eigen_explore(s)
        if counts != [exact[label] for label in ("+1", "+i", "-1", "-i")]:
            return False, f"dense multiplicities {counts} != exact {exact} at N={s.N}"
    ok = worst2 <= 1e-10 and worst4 <= 1e-10 and worst_eig <= 1e-8
    return ok, (
        f"||F^2 - negation|| = {worst2:.2e}, ||F^4 - I|| = {worst4:.2e}, "
        f"spectrum distance to 4th roots = {worst_eig:.2e}, "
        f"nearest-root counts equal the exact multiplicities on {len(instances)} instances"
    )


def criterion_8_reduction_contract() -> tuple[bool, str]:
    rng = random.Random(SEED)
    bases = []
    for dim in (2, 3):
        while sum(1 for b in bases if b.nrows == dim) < 10:
            m = ExactMatrix(
                [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
            )
            if determinant(m) != 0:
                bases.append(m)
    checked = 0
    for b in bases:
        for eps in (Fraction(1, 16), Fraction(1, 256)):
            cert = reduce_to_sysnf(b, eps)
            validate(cert.basis.to_matrix())
            bprime = cert.basis.to_matrix()
            for _ in range(100):
                c = [rng.randint(-100, 100) for _ in range(b.nrows)]
                v = b.mul_vec(c)
                w = cert.apply_sigma(v)
                if not membership(bprime, w):
                    return False, f"sigma(v) not in L(B') for coefficients {c}"
                if not cert.relative_error_holds(v):
                    return False, f"relative error bound fails for coefficients {c}"
                checked += 1
    return True, f"20 bases x 2 tolerances, {checked} exact vector checks"


def criterion_9_nearest_plane_bound() -> tuple[bool, str]:
    rng = random.Random(987654321)
    violations = 0
    for dim in (2, 3):
        done = 0
        while done < 100:
            m = ExactMatrix(
                [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(dim)]
            )
            if determinant(m) == 0:
                continue
            red = lll_reduce(m)
            u = tuple(Fraction(rng.randint(-160, 160), 8) for _ in range(dim))
            v = nearest_plane(red, u)  # ints, as red is an integer basis
            e, w = vec_integer_form(u)
            err_sq = sum((x - e * y) ** 2 for x, y in zip(w, v))  # e^2 ||u - v||^2
            best = cvp_exact(red, u)
            if err_sq > (2**dim) * e * e * best.dist_sq:
                violations += 1
            done += 1
    return violations == 0, f"200 instances, {violations} violations of the 2^(n/2) bound"


def criterion_10_sampler_pac() -> tuple[bool, str]:
    b = ExactMatrix([[2, 1], [0, 1]])
    n = 2
    s_target = 2 ** (n / 2 + 2) * n**0.5 * float(lambda1_sq(b)) ** 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res, tv, disp = sample_gaussian(b, s_target, Fraction(1, 16), shots=0, seed=SEED)
    ok = (
        tv <= 0.05
        and res.decode_mismatch_rate == 0.0
        and res.ancilla_residual == 0.0
        and res.norm_defect <= 1e-10
    )
    return ok, (
        f"TV = {tv:.4f} (limit 0.05), displacement = {disp}, "
        f"decode mismatch = {res.decode_mismatch_rate}, norm defect = {res.norm_defect:.1e}"
    )


def criterion_11_restriction_identity() -> tuple[bool, str]:
    cases = [SysNFBasis(5, (1,)), SysNFBasis(8, (2,))]
    rng = np.random.default_rng(4242)
    worst = 0.0
    for s in cases:
        m = s.N ** (s.n - 1)
        for _ in range(20):
            f = LatticeFunction(s, rng.normal(size=m) + 1j * rng.normal(size=m))
            lhs = apply_dft(s, f).values
            rhs = full_grid_dft_restricted(s, f)
            rel = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
            worst = max(worst, rel)
    return worst <= 1e-10, f"max relative L2 error vs full-grid oracle = {worst:.2e}"


def criterion_12_smoothness() -> tuple[bool, str]:
    s = SysNFBasis(8, (2,))
    coords = np.indices((8, 8)).reshape(2, -1).T
    centered = np.where(coords > 4, coords - 8, coords)
    r2 = (centered**2).sum(axis=1).reshape(8, 8)
    wide = np.exp(-np.pi * r2 / (80.0**2))
    est_wide = smoothness_estimate(s, wide)
    delta = np.zeros((8, 8))
    delta[0, 0] = 1.0
    est_delta = smoothness_estimate(s, delta)
    ok = est_wide < 0.1 and est_delta > 0.9
    return ok, f"wide gaussian estimate = {est_wide:.4f} (< 0.1), delta estimate = {est_delta:.4f} (> 0.9)"


@dataclass(frozen=True)
class Criterion:
    """One row of the battery; a run slower than ``budget`` seconds fails."""

    number: int
    name: str
    check: Callable[[], tuple[bool, str]]
    budget: float | None = None

    def run(self) -> CriterionResult:
        t0 = time.perf_counter()
        try:
            passed, details = self.check()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, details = False, f"exception: {exc!r}"
        seconds = time.perf_counter() - t0
        if self.budget is not None and seconds > self.budget:
            passed, details = False, f"{details} (over {self.budget:g}s budget)"
        return CriterionResult(self.number, self.name, passed, details, seconds)


ALL_CRITERIA = [
    Criterion(1, "unitarity", criterion_1_unitarity, 10),
    Criterion(2, "circuit equals dense transform", criterion_2_circuit_equivalence, 30),
    Criterion(3, "negative control N=4 b=(1)", criterion_3_negative_control),
    Criterion(4, "cardinalities", criterion_4_cardinalities),
    Criterion(5, "quotient-dual bijection", criterion_5_phi3_bijection),
    Criterion(6, "shift-phase conjugacy", criterion_6_shift_phase),
    Criterion(7, "fourth-power structure", criterion_7_fourth_power),
    Criterion(8, "reduction contract", criterion_8_reduction_contract, 60),
    Criterion(9, "nearest-plane bound", criterion_9_nearest_plane_bound),
    Criterion(10, "sampler PAC quality", criterion_10_sampler_pac, 300),
    Criterion(11, "restriction identity", criterion_11_restriction_identity),
    Criterion(12, "smoothness estimator sanity", criterion_12_smoothness),
]
