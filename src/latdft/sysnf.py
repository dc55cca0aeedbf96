"""Systematic normal form: representation, validation, the quotient/dual
bijection, and reduction of an arbitrary integer basis to a nearby SysNF basis.

A SysNF basis over modulus N is the column basis

    [ N  b_2  b_3 ... b_n ]
    [ 0   1    0  ...  0  ]
    [ 0   0    1  ...  0  ]
    [           ...       ]
    [ 0   0    0  ...  1  ]

whose lattice is the set of integer vectors with x_1 = sum_j b_j x_j (mod N).
Validity additionally demands gcd(sum_j b_j^2 + 1, N) = 1, which is what makes
the modular inverse used by the coset bijection and the Fourier circuit exist.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    ConditionError,
    ModulusMismatchError,
    ParameterError,
    SearchExhaustedError,
    SizeGuardError,
    StructureError,
)
from .intlat import (
    ExactMatrix,
    Vec,
    as_fraction_vec,
    hnf,
    norm_sq,
    sqrt_upper_bound,
    vec_sub,
)

DELTA_SEARCH_CAP = 2**20
SCALE_CAP = 2**512


@dataclass(frozen=True)
class SysNFBasis:
    """Modulus N plus the first-row tail (b_2, ..., b_n), stored reduced mod N.

    Direct construction performs only shape normalization; use
    :func:`validate` (or check :attr:`is_valid`) for the full gcd condition.
    That split is deliberate: negative controls need to build the dense DFT
    of a condition-violating basis.
    """

    N: int
    b: tuple[int, ...]

    def __post_init__(self):
        if self.N < 1:
            raise StructureError("modulus must be a positive integer")
        object.__setattr__(self, "b", tuple(int(x) % self.N for x in self.b))

    @property
    def n(self) -> int:
        return len(self.b) + 1

    @cached_property
    def condition_sum(self) -> int:
        return sum(x * x for x in self.b) + 1

    @cached_property
    def condition_gcd(self) -> int:
        return math.gcd(self.condition_sum, self.N)

    @property
    def is_valid(self) -> bool:
        return self.condition_gcd == 1

    def condition_inverse(self) -> int:
        """Inverse of sum(b_j^2) + 1 modulo N; exists exactly when valid."""
        if not self.is_valid:
            raise ConditionError(
                f"gcd(sum(b^2)+1, N) = {self.condition_gcd} != 1; no modular inverse",
                gcd=self.condition_gcd,
            )
        return pow(self.condition_sum % self.N, -1, self.N) if self.N > 1 else 0

    def to_matrix(self) -> ExactMatrix:
        n = self.n
        rows = [[self.N] + list(self.b)]
        for i in range(1, n):
            rows.append([int(j == i) for j in range(n)])
        return ExactMatrix(rows)

    def first_coordinate(self, tail: Sequence[int]) -> int:
        """The x_1 forced by membership for the tail (x_2, ..., x_n)."""
        return sum(bj * xj for bj, xj in zip(self.b, tail)) % self.N


def validate(m: ExactMatrix) -> SysNFBasis:
    """Accept a matrix iff it has the SysNF shape and passes the gcd condition.

    The first-row tail may be any integers; it is reduced mod N for storage
    (subtracting multiples of the first column does not change the lattice).
    """
    if not m.is_square:
        raise StructureError("SysNF matrix must be square")
    if not m.is_integer():
        raise StructureError("SysNF matrix must have integer entries")
    n = m.nrows
    if m[0, 0] < 1:
        raise StructureError("top-left modulus entry must be positive")
    for i in range(1, n):
        for j in range(n):
            want = 1 if i == j else 0
            if m[i, j] != want:
                raise StructureError(
                    f"rows below the first must be the identity; entry ({i},{j}) is {m[i, j]}"
                )
    basis = SysNFBasis(int(m[0, 0]), tuple(int(m[0, j]) for j in range(1, n)))
    if not basis.is_valid:
        raise ConditionError(
            f"gcd(sum(b^2)+1, N) = gcd({basis.condition_sum}, {basis.N}) = "
            f"{basis.condition_gcd} != 1",
            gcd=basis.condition_gcd,
        )
    return basis


@dataclass(frozen=True)
class ModVector:
    """Element of Z_N^n with coordinates stored reduced into [0, N)."""

    N: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "coords", tuple(int(x) % self.N for x in self.coords))

    @property
    def n(self) -> int:
        return len(self.coords)

    def __add__(self, other: "ModVector") -> "ModVector":
        if other.N != self.N:
            raise ModulusMismatchError(f"moduli differ: {self.N} vs {other.N}")
        return ModVector(self.N, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "ModVector":
        return ModVector(self.N, tuple(-a for a in self.coords))

    def centered(self) -> tuple[int, ...]:
        """Representative with each coordinate in (-N/2, N/2]."""
        half = self.N // 2
        return tuple(c - self.N if c > half else c for c in self.coords)


def _check_point(s: SysNFBasis, x: ModVector) -> None:
    if x.N != s.N:
        raise ModulusMismatchError(f"point modulus {x.N} != basis modulus {s.N}")
    if x.n != s.n:
        raise ModulusMismatchError(f"point dimension {x.n} != basis dimension {s.n}")


def ln_membership(s: SysNFBasis, x: ModVector) -> bool:
    """True iff x_1 = sum_j b_j x_j (mod N), i.e. x is a point of L_N."""
    _check_point(s, x)
    return x.coords[0] == s.first_coordinate(x.coords[1:])


def ln_points(s: SysNFBasis) -> np.ndarray:
    """All N^(n-1) points of L_N as an (N^(n-1), n) int64 array in canonical order.

    The one definition of the L_N index order used across the package: tails
    (x_2, ..., x_n) in lexicographic order, each with x_1 = b . tail mod N.
    """
    k = s.n - 1
    # Coordinate-major storage: each column is contiguous, and the sparse
    # index grids broadcast straight into it without a full-size temporary.
    cols = np.empty((s.n,) + (s.N,) * k, dtype=np.int64)
    for i, axis in enumerate(np.indices((s.N,) * k, dtype=np.int64, sparse=True)):
        cols[1 + i] = axis
    cols = cols.reshape(s.n, s.N**k)
    cols[0] = np.array(s.b, dtype=np.int64) @ cols[1:] % s.N
    return cols.T


def ln_index(s: SysNFBasis, tails: np.ndarray) -> np.ndarray:
    """Canonical L_N index of each row of tails (x_2, ..., x_n); inverse of ln_points."""
    return tails @ np.array([s.N**i for i in range(s.n - 2, -1, -1)], dtype=np.int64)


def enumerate_ln(s: SysNFBasis, size_guard: int = 10**6) -> list[ModVector]:
    """All N^(n-1) points of L_N as ModVectors, in the order of :func:`ln_points`."""
    count = s.N ** (s.n - 1)
    if count > size_guard:
        raise SizeGuardError(f"|L_N| = {count} exceeds size guard {size_guard}")
    return [ModVector(s.N, tuple(p)) for p in ln_points(s).tolist()]


def enumerate_scaled_dual(s: SysNFBasis) -> list[ModVector]:
    """The N points of (N L*)_N, parameterized as (a, -b_2 a, ..., -b_n a) mod N."""
    return [
        ModVector(s.N, (a, *(-bj * a for bj in s.b))) for a in range(s.N)
    ]


def scaled_dual_membership(s: SysNFBasis, x: ModVector) -> bool:
    """Independent membership predicate for (N L*)_N: B^T x = 0 (mod N)."""
    _check_point(s, x)
    if (s.N * x.coords[0]) % s.N != 0:  # first row of B^T: always 0 mod N
        return False
    return all(
        (bj * x.coords[0] + xj) % s.N == 0 for bj, xj in zip(s.b, x.coords[1:])
    )


def phi3(s: SysNFBasis, x: ModVector) -> ModVector:
    """The unique y in (N L*)_N with x + y in L_N.

    Writing y = (a, -b_2 a, ..., -b_n a), membership of x + y forces
    a = -(sum b_j^2 + 1)^{-1} (x_1 - sum_j b_j x_j) mod N.  Constant on cosets
    of L_N and bijective from the quotient onto the scaled dual.
    """
    _check_point(s, x)
    inv = s.condition_inverse()
    residue = (x.coords[0] - sum(bj * xj for bj, xj in zip(s.b, x.coords[1:]))) % s.N
    a = (-inv * residue) % s.N
    return ModVector(s.N, (a, *(-bj * a for bj in s.b)))


# -- reduction to SysNF ------------------------------------------------------------


@dataclass(frozen=True)
class ReductionCertificate:
    """Output of :func:`reduce_to_sysnf`: a SysNF basis close to T times the input.

    ``sigma`` maps input-lattice vectors to output-lattice vectors exactly;
    for every v in L(B), sigma(v) is in L(basis) and ||sigma(v)/T - v|| is at
    most epsilon * ||v||.  ``delta`` is the offset added to the would-be
    modulus to reach a coprime one.
    """

    basis: SysNFBasis
    sigma: ExactMatrix
    T: int
    delta: int
    epsilon: Fraction

    @cached_property
    def sigma_inverse(self) -> ExactMatrix:
        return self.sigma.inverse()

    def apply_sigma(self, v: Sequence) -> tuple[int, ...]:
        w = self.sigma.mul_vec(v)
        if any(x.denominator != 1 for x in w):
            raise ValueError(f"sigma({tuple(v)}) is not an integer vector")
        return tuple(int(x) for x in w)

    def apply_sigma_inverse(self, w: Sequence) -> tuple[int, ...]:
        v = self.sigma_inverse.mul_vec(w)
        if any(x.denominator != 1 for x in v):
            raise ValueError(f"sigma^-1({tuple(w)}) is not an integer vector")
        return tuple(int(x) for x in v)

    def relative_error_holds(self, v: Sequence) -> bool:
        """Exact check of ||sigma(v)/T - v||^2 <= epsilon^2 ||v||^2."""
        vf = as_fraction_vec(v)
        w = [Fraction(x, self.T) for x in self.apply_sigma(v)]
        return norm_sq(vec_sub(w, vf)) <= self.epsilon**2 * norm_sq(vf)

    def to_json(self) -> str:
        payload = {
            "n": self.basis.n,
            "N": self.basis.N,
            "b": list(self.basis.b),
            "T": self.T,
            "delta": self.delta,
            "sigma": [[str(x) for x in row] for row in self.sigma.rows()],
            "epsilon": str(self.epsilon),
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ReductionCertificate":
        d = json.loads(text)
        basis = SysNFBasis(int(d["N"]), tuple(int(x) for x in d["b"]))
        sigma = ExactMatrix([[Fraction(x) for x in row] for row in d["sigma"]])
        return cls(basis, sigma, int(d["T"]), int(d["delta"]), Fraction(d["epsilon"]))


def _rotation_to_front(n: int) -> ExactMatrix:
    """Permutation matrix R with (M @ R) having M's last column first."""
    cols = []
    for j in range(n):
        src = n - 1 if j == 0 else j - 1
        cols.append([int(i == src) for i in range(n)])
    return ExactMatrix.from_columns(cols)


def reduce_to_sysnf(
    b: ExactMatrix,
    epsilon: Fraction,
    delta_cap: int = DELTA_SEARCH_CAP,
    scale_cap: int = SCALE_CAP,
) -> ReductionCertificate:
    """Reduce a full-rank integer basis to a nearby SysNF lattice.

    Pipeline: (1) column-style HNF; (2) scale by T, put 1s on the
    sub-diagonal (entries are held as integers scaled by T); (3) integer column
    operations clear rows 2..n right of the sub-diagonal; (4) scan
    delta = 1, 2, ... until the would-be modulus is coprime to the validity
    sum; (5) move the last column to the front and reduce the first row,
    giving the SysNF matrix; (6) assemble sigma as one exact rational matrix
    transporting coefficient vectors through every step.

    T starts at ceil(n * |det| / epsilon) and doubles until both the
    per-basis-vector error bound and a global operator bound (which makes the
    certificate hold for *every* lattice vector) verify exactly.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ParameterError("epsilon must lie strictly between 0 and 1")
    if not b.is_square:
        raise ParameterError("basis must be square")
    if not b.is_integer():
        raise ParameterError("basis must have integer entries")

    n = b.nrows
    h, _ = hnf(b)  # raises RankError on singular input
    det_abs = 1
    for i in range(n):
        det_abs *= int(h[i, i])

    t = max(1, math.ceil(Fraction(n) * det_abs / epsilon))
    while True:
        cert = _reduce_with_scale(b, h, t, epsilon, delta_cap)
        if cert is not None:
            return cert
        t *= 2
        if t > scale_cap:
            raise SearchExhaustedError(f"scale doubling exceeded cap {scale_cap}")


def _reduce_with_scale(
    b: ExactMatrix, h: ExactMatrix, t: int, epsilon: Fraction, delta_cap: int
) -> ReductionCertificate | None:
    """One pass of the pipeline at fixed scale t; None if the bound fails."""
    n = b.nrows

    # Columns of the scaled working matrix t*B2: t*H (upper triangular) plus
    # 1 on the sub-diagonal.
    cols = [[int(h[i, j]) * t + int(i == j + 1) for i in range(n)] for j in range(n)]
    p1 = [[int(i == j) for i in range(n)] for j in range(n)]  # columns of P1

    # Clear row i (i >= 1, 0-indexed) at columns i..n-1 using column i-1,
    # whose only nonzero in that row is the sub-diagonal 1.
    for i in range(1, n):
        for j in range(i, n):
            q = cols[j][i]
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[i - 1])]
                p1[j] = [x - q * y for x, y in zip(p1[j], p1[i - 1])]

    # cols now realize t*B3: first row (t*b''_{1,1}, ..., t*b''_{1,n}),
    # sub-diagonal 1s, zeros elsewhere.  Column n-1 is (t*b''_{1,n}, 0, ..., 0);
    # negate it if needed so the future modulus is positive.  The flip is
    # folded into p1, which therefore tracks the full column transform.
    if cols[n - 1][0] < 0:
        cols[n - 1] = [-x for x in cols[n - 1]]
        p1[n - 1] = [-x for x in p1[n - 1]]
    modulus_base = cols[n - 1][0]
    if modulus_base == 0:
        raise RuntimeError("unexpected zero modulus for a full-rank basis")

    first_row = [cols[j][0] for j in range(n)]
    cond_sum = sum(x * x for x in first_row[: n - 1]) + 1
    delta = None
    for d in range(1, delta_cap + 1):
        if math.gcd(cond_sum, modulus_base + d) == 1:
            delta = d
            break
    if delta is None:
        raise SearchExhaustedError(
            f"no coprime modulus offset within {delta_cap} candidates"
        )
    modulus = modulus_base + delta

    # Assemble the SysNF basis: modulus first, then the other first-row
    # entries reduced mod the modulus (each reduction is a column operation).
    raw_b = first_row[: n - 1]
    reduction_q = [x // modulus for x in raw_b]
    basis = SysNFBasis(modulus, tuple(x % modulus for x in raw_b))

    # Coefficient transport: sigma sends the vector with coefficients c in
    # H P1 R P3 (p1 already includes the sign flip) to the SysNF vector with
    # coefficients c.  B U1 = H spans the input lattice, so one exact inverse
    # does it.
    p1_mat = ExactMatrix.from_columns(p1)
    r_mat = _rotation_to_front(n)
    # P3 subtracts reduction_q[j] copies of column 0 from column j+1 of B4.
    p3_rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for j, q in enumerate(reduction_q):
        p3_rows[0][j + 1] = -q
    p3_mat = ExactMatrix(p3_rows)

    sigma = basis.to_matrix() @ (h @ p1_mat @ r_mat @ p3_mat).inverse()
    cert = ReductionCertificate(basis, sigma, t, delta, epsilon)

    # Exact verification.  Per-basis-vector bound first, then a global
    # operator bound: the error of any v equals Delta @ c(v) with c = H^-1 v
    # and Delta the per-column perturbation (1/T on the sub-diagonal of
    # columns 1..n-1, delta/T on column n), so
    #   sup ||err|| / ||v|| <= sum_i ||Delta_i|| * ||row_i(H^-1)||.
    for j in range(n):
        if not cert.relative_error_holds(b.column(j)):
            return None
    h_inv = h.inverse()
    bound = Fraction(0)
    for i in range(n):
        delta_norm = Fraction(delta, t) if i == n - 1 else Fraction(1, t)
        bound += delta_norm * sqrt_upper_bound(norm_sq(h_inv.row(i)))
    if bound > epsilon:
        return None
    return cert
