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

Points of Z_N^n are integer arrays with coordinates along the last axis: the
predicates and phi3 take one point or any stack of them, and one point gives
one bool or one row.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from . import intlat
from .errors import (
    ConditionError,
    ModulusMismatchError,
    ParameterError,
    SearchExhaustedError,
    SizeGuardError,
    StructureError,
)
from .intlat import _INT64_LIMIT, ExactMatrix, _column_dot, hnf, sqrt_upper_bound, vec_integer_form

DELTA_SEARCH_CAP = 2**20
SCALE_CAP = 2**512


@dataclass(frozen=True)
class SysNFBasis:
    """Modulus N plus the first-row tail (b_2, ..., b_n), stored reduced mod N.

    Direct construction checks only integer type and shape; use
    :func:`validate` (or check :attr:`is_valid`) for the full gcd condition.
    That split is deliberate: negative controls need to build the dense DFT
    of a condition-violating basis.
    """

    N: int
    b: tuple[int, ...]

    def __post_init__(self):
        try:
            big_n, tail = operator.index(self.N), tuple(map(operator.index, self.b))
        except TypeError:
            raise StructureError(f"modulus and tail must be integers, got {self.N!r}, {self.b!r}") from None
        if big_n < 1:
            raise StructureError("modulus must be a positive integer")
        object.__setattr__(self, "N", big_n)
        object.__setattr__(self, "b", tuple(x % big_n for x in tail))

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
        """Inverse of sum(b_j^2) + 1 modulo N: the one check of the gcd condition."""
        if not self.is_valid:
            raise ConditionError(
                f"gcd(sum(b^2)+1, N) = gcd({self.condition_sum}, {self.N}) = "
                f"{self.condition_gcd} != 1",
                gcd=self.condition_gcd,
            )
        return pow(self.condition_sum % self.N, -1, self.N) if self.N > 1 else 0

    def to_matrix(self) -> ExactMatrix:
        n = self.n
        rows = [[self.N] + list(self.b)]
        for i in range(1, n):
            rows.append([int(j == i) for j in range(n)])
        return ExactMatrix(rows)


def validate(m: ExactMatrix) -> SysNFBasis:
    """Accept a matrix iff it has the SysNF shape and passes the gcd condition.

    The first-row tail may be any integers; it is reduced mod N for storage
    (subtracting multiples of the first column does not change the lattice).
    """
    if not m.is_square:
        raise StructureError("SysNF matrix must be square")
    if not m.is_integer():
        raise StructureError("SysNF matrix must have integer entries")
    rows = m.integer_form()[1]
    if rows[0][0] < 1:
        raise StructureError("top-left modulus entry must be positive")
    for i in range(1, m.nrows):
        for j, x in enumerate(rows[i]):
            if x != int(i == j):
                raise StructureError(
                    f"rows below the first must be the identity; entry ({i},{j}) is {x}"
                )
    basis = SysNFBasis(rows[0][0], rows[0][1:])
    basis.condition_inverse()
    return basis


def ln_size(s: SysNFBasis) -> int:
    """|L_N| = N^(n-1), the one size check for arrays over L_N, made before they are built."""
    m = s.N ** (s.n - 1)
    if m > intlat.BOX_GUARD:
        raise SizeGuardError(f"|L_N| = N^(n-1) = {m} points exceed guard {intlat.BOX_GUARD}")
    return m


def grid_size(N: int, n: int) -> int:
    """N^n, the one size check for statevectors and grids over Z_N^n, made before they are built."""
    size = N**n
    if size > intlat.BOX_GUARD:
        raise SizeGuardError(f"statevector N^n = {size} amplitudes exceed guard {intlat.BOX_GUARD}")
    return size


def _points(s: SysNFBasis, x) -> np.ndarray:
    """Integer points along the last axis as int64, reduced into [0, N)."""
    x = np.asarray(x, dtype=np.int64)
    if x.ndim == 0 or x.shape[-1] != s.n:
        raise ModulusMismatchError(f"point shape {x.shape} does not end in basis dimension {s.n}")
    # Every product below is of two reduced coordinates, summed n times at most.
    if s.n * (s.N - 1) ** 2 >= _INT64_LIMIT:
        raise SizeGuardError(f"N = {s.N} is too large for exact int64 point arithmetic")
    return x % s.N


def _coset_residue(s: SysNFBasis, x: np.ndarray) -> np.ndarray:
    """x_1 - sum_j b_j x_j mod N for reduced points x, a new array; zero exactly on L_N."""
    r = _column_dot(s.b, np.moveaxis(x[..., 1:], -1, 0))
    return np.remainder(np.subtract(x[..., 0], r, out=r), s.N, out=r)


def ln_membership(s: SysNFBasis, x) -> np.ndarray:
    """True iff x_1 = sum_j b_j x_j (mod N), i.e. x is a point of L_N."""
    return _coset_residue(s, _points(s, x)) == 0


def ln_points(s: SysNFBasis) -> np.ndarray:
    """All N^(n-1) points of L_N as an (N^(n-1), n) int64 array in canonical order.

    The one definition of the L_N index order used across the package: tails
    (x_2, ..., x_n) in lexicographic order, each with x_1 = b . tail mod N.
    """
    k = s.n - 1
    x1 = ln_first(s)  # guards |L_N| before the n |L_N| entries below
    # Coordinate-major storage: each column is contiguous, and the sparse
    # index grids broadcast straight into it without a full-size temporary.
    cols = np.empty((s.n,) + (s.N,) * k, dtype=np.int64)
    cols[0] = x1.reshape((s.N,) * k)
    for i, axis in enumerate(np.indices((s.N,) * k, dtype=np.int64, sparse=True)):
        cols[1 + i] = axis
    return cols.reshape(s.n, s.N**k).T


def ln_first(s: SysNFBasis) -> np.ndarray:
    """Column 0 of :func:`ln_points`: x_1 = b . tail mod N for every tail, as int64.

    Accumulated from broadcast sparse index grids, so the only full-size array
    is the result.  Entries stay below (n-1) N^2, which int64 holds for every
    N with N^(n-1) <= intlat.BOX_GUARD; :func:`ln_size` refuses the rest.
    """
    ln_size(s)
    k = s.n - 1
    if k == 0:  # n = 1: the one point 0, at any N (N >= 2^63 has no int64)
        return np.zeros(1, dtype=np.int64)
    x1 = np.zeros((s.N,) * k, dtype=np.int64)
    for bj, axis in zip(s.b, np.indices((s.N,) * k, dtype=np.int64, sparse=True)):
        x1 += bj * axis
    x1 %= s.N
    return x1.reshape(-1)


def ln_index(s: SysNFBasis, tails: np.ndarray) -> np.ndarray:
    """Canonical L_N index of each row of tails (x_2, ..., x_n), a scalar for one tail; inverse of ln_points."""
    return _column_dot([s.N**i for i in range(s.n - 2, -1, -1)], np.moveaxis(tails, -1, 0))[()]


def _dual_points(s: SysNFBasis, a: np.ndarray) -> np.ndarray:
    """The points (a, -b_2 a, ..., -b_n a) mod N of (N L*)_N, one per a in [0, N), coordinate-major."""
    out = np.stack([a, *(-bj * a for bj in s.b)])
    out[1:] %= s.N
    return np.moveaxis(out, 0, -1)


def enumerate_scaled_dual(s: SysNFBasis) -> np.ndarray:
    """The N points of (N L*)_N as an (N, n) int64 array, in order a = 0, ..., N-1."""
    if s.N > intlat.BOX_GUARD:
        raise SizeGuardError(f"(N L*)_N: N = {s.N} dual vectors exceed guard {intlat.BOX_GUARD}")
    return _dual_points(s, np.arange(s.N, dtype=np.int64))


def scaled_dual_membership(s: SysNFBasis, x) -> np.ndarray:
    """Independent membership predicate for (N L*)_N: B^T x = 0 (mod N)."""
    x = _points(s, x)
    # Row 1 of B^T is (N, 0, ..., 0), always 0 mod N; row j is (b_j, e_j).
    rows = x[..., :1] * np.array(s.b, dtype=np.int64) + x[..., 1:]
    return (rows % s.N == 0).all(axis=-1)


def phi3(s: SysNFBasis, x) -> np.ndarray:
    """The unique y in (N L*)_N with x + y in L_N.

    Writing y = (a, -b_2 a, ..., -b_n a), membership of x + y forces
    a = -(sum b_j^2 + 1)^{-1} (x_1 - sum_j b_j x_j) mod N.  Constant on cosets
    of L_N and bijective from the quotient onto the scaled dual.
    """
    a = _coset_residue(s, _points(s, x))
    a *= -s.condition_inverse()
    return _dual_points(s, np.remainder(a, s.N, out=a))


# -- reduction to SysNF ------------------------------------------------------------


@dataclass(frozen=True)
class ReductionCertificate:
    """Output of :func:`reduce_to_sysnf`: a SysNF basis close to T times the input.

    ``sigma`` maps input-lattice vectors to output-lattice vectors exactly;
    for every v in L(B), sigma(v) is in L(basis) and ||sigma(v)/T - v|| is at
    most epsilon * ||v||.  ``delta`` is the offset added to the would-be
    modulus to reach a coprime one.  ``apply_sigma``, ``apply_sigma_inverse``
    and ``relative_error_holds`` compute in integers, on the integer forms
    that sigma and its inverse keep.
    """

    basis: SysNFBasis
    sigma: ExactMatrix
    T: int
    delta: int
    epsilon: Fraction

    @cached_property
    def sigma_inverse(self) -> ExactMatrix:
        return self.sigma.inverse()

    @cached_property
    def _epsilon_sq(self) -> tuple[int, int]:
        """(p^2, q^2) for epsilon = p / q, squared once per certificate."""
        return self.epsilon.numerator ** 2, self.epsilon.denominator ** 2

    def apply_sigma(self, v: Sequence) -> tuple[int, ...]:
        return _integral_image(self.sigma, v, "sigma")

    def apply_sigma_inverse(self, w: Sequence) -> tuple[int, ...]:
        return _integral_image(self.sigma_inverse, w, "sigma^-1")

    def relative_error_holds(self, v: Sequence) -> bool:
        """Exact check of ||sigma(v)/T - v||^2 <= epsilon^2 ||v||^2.

        With v = u / e, epsilon = p / q and sigma(u) = y / d, so that
        e sigma(v) = y / d, in integers:
        q^2 ||y - d T u||^2 <= p^2 (d T)^2 ||u||^2.
        Raises ValueError, as ``apply_sigma`` does, unless sigma(v) is integral.
        """
        e, u = vec_integer_form(v)
        y, d = self.sigma.mul_vec_scaled(u)
        de = d * e
        if de != 1 and any(x % de for x in y):
            raise ValueError(f"sigma({tuple(v)}) is not an integer vector")
        dt = d * self.T
        err = norm = 0
        for a, b in zip(y, u):
            a -= dt * b
            err += a * a
            norm += b * b
        p2, q2 = self._epsilon_sq
        return q2 * err <= p2 * dt * dt * norm

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
        sigma = ExactMatrix([[Fraction(x) for x in row] for row in d["sigma"]])
        t, delta = operator.index(d["T"]), operator.index(d["delta"])
        return cls(SysNFBasis(d["N"], d["b"]), sigma, t, delta, Fraction(d["epsilon"]))


def _integral_image(m: ExactMatrix, v: Sequence, name: str) -> tuple[int, ...]:
    """m @ v as integers, in integer arithmetic; ValueError if it is not integral."""
    y, den = m.mul_vec_scaled(v)
    if den == 1:
        return tuple(y)
    if any(x % den for x in y):
        raise ValueError(f"{name}({tuple(v)}) is not an integer vector")
    return tuple(x // den for x in y)


def reduce_to_sysnf(b: ExactMatrix, epsilon: Fraction) -> ReductionCertificate:
    """Reduce a full-rank integer basis to a nearby SysNF lattice.

    Pipeline: (1) column-style HNF; (2) scale by T, put 1s on the
    sub-diagonal (entries are held as integers scaled by T); (3) integer column
    operations clear rows 2..n right of the sub-diagonal; (4) scan
    delta = 1, 2, ... until the would-be modulus is coprime to the validity
    sum; (5) the SysNF basis has that modulus and the other first-row
    entries reduced mod it, and sigma = T I + Delta H^-1, with Delta the
    perturbation E + s delta e1 e_n^T (E the sub-diagonal ones, s the sign
    of the cleared last column).

    T starts at ceil(n * |det| / epsilon) and doubles until a global operator
    bound (which makes the certificate hold for *every* lattice vector) and
    the per-basis-vector error bound both verify exactly.  The scale-free parts
    (H, |det|, the row-norm bounds r_i of H^-1, the input's columns) are
    computed once; at each T the operator bound costs O(1) and is checked
    before the per-column checks.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ParameterError("epsilon must lie strictly between 0 and 1")
    if not b.is_square:
        raise ParameterError("basis must be square")
    if not b.is_integer():
        raise ParameterError("basis must have integer entries")

    h, _ = hnf(b)  # raises RankError on singular input
    h_rows = h.integer_form()[1]
    det_abs = math.prod(row[i] for i, row in enumerate(h_rows))
    # The error sigma(v)/T - v of any v is Delta c(v) / T with c = H^-1 v and
    # Delta the perturbation (ones on the sub-diagonal, +-delta at (1, n)), so
    # sup ||err|| / ||v|| <= (sum_{i<n} r_i + delta r_n) / T
    # with r_i >= ||row_i(H^-1)||.  H^-1 = rows / d_inv.
    d_inv, inv_rows = h_inv = h.inverse().integer_form()
    r = [sqrt_upper_bound(Fraction(sum(x * x for x in row), d_inv * d_inv)) for row in inv_rows]
    r_head, r_last = sum(r[:-1]), r[-1]
    columns = list(zip(*b.integer_form()[1]))

    t = max(1, math.ceil(Fraction(b.nrows) * det_abs / epsilon))
    while True:
        cert = _reduce_with_scale(h_rows, h_inv, t, epsilon)
        if (r_head + cert.delta * r_last) / t <= epsilon and all(
            map(cert.relative_error_holds, columns)
        ):
            return cert
        t *= 2
        if t > SCALE_CAP:
            raise SearchExhaustedError(f"scale doubling exceeded cap {SCALE_CAP}")


def _reduce_with_scale(
    h_rows: list[list[int]], h_inv: tuple[int, list[list[int]]], t: int, epsilon: Fraction
) -> ReductionCertificate:
    """The candidate certificate at fixed scale t for H = h_rows, unverified; h_inv = (d, d H^-1)."""
    n = len(h_rows)

    # Columns of the scaled working matrix t*B2: t*H (upper triangular) plus
    # 1 on the sub-diagonal.  Clear row i (i >= 1, 0-indexed) at columns
    # i..n-1 using column i-1, whose only nonzero in that row is the
    # sub-diagonal 1.
    cols = [[x * t + (i == j + 1) for i, x in enumerate(col)] for j, col in enumerate(zip(*h_rows))]
    for i in range(1, n):
        for j in range(i, n):
            q = cols[j][i]
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[i - 1])]

    # cols now realize t*B3: first row (t*b''_{1,1}, ..., t*b''_{1,n}),
    # sub-diagonal 1s, zeros elsewhere.  Column n-1 is (t*b''_{1,n}, 0, ..., 0);
    # the modulus is its absolute value, and s its sign.
    sign = -1 if cols[n - 1][0] < 0 else 1
    modulus_base = sign * cols[n - 1][0]
    if modulus_base == 0:
        raise RuntimeError("unexpected zero modulus for a full-rank basis")

    raw_b = [col[0] for col in cols[: n - 1]]
    cond_sum = sum(x * x for x in raw_b) + 1
    for delta in range(1, DELTA_SEARCH_CAP + 1):
        if math.gcd(cond_sum, modulus_base + delta) == 1:
            break
    else:
        raise SearchExhaustedError(f"no coprime modulus offset within {DELTA_SEARCH_CAP} candidates")
    basis = SysNFBasis(modulus_base + delta, tuple(raw_b))

    # sigma = S M^-1, with S the SysNF matrix and M = H P1 R P3 the input
    # basis it corresponds to column for column (P1: the clearing, then the
    # sign s on column n; R: last column to the front; P3: the first-row
    # reduction mod N).  That is t B2 H^-1 + delta e1 e_n^T P1^-1 H^-1, and
    # the clearing only adds earlier columns to later ones, so
    # e_n^T P1^-1 = s e_n^T: sigma = t I + Delta H^-1.
    d, inv_rows = h_inv
    rows = [[sign * delta * x for x in inv_rows[-1]], *map(list, inv_rows[:-1])]
    for i, row in enumerate(rows):
        row[i] += t * d
    return ReductionCertificate(basis, ExactMatrix._from_integer_form(d, rows), t, delta, epsilon)
