"""Exact integer/rational lattice linear algebra.

Lattices are integer spans of the *columns* of a basis matrix.  All
arithmetic is carried out over Python integers and ``fractions.Fraction``,
or over int64 arrays under a bound checked before they are built; nothing
in this module rounds.  Operations that need floating point (statevectors,
DFT matrices) live elsewhere and convert at the boundary.

An ``ExactMatrix`` is held as its canonical integer form (D, D A): D is the
least common denominator of the entries, so gcd(D, entries) = 1 and equal
matrices have equal forms.  All-``int`` input is stored as (1, rows), and
numpy integers and bools are read as Python ints.  ``@``, ``inverse``,
``transpose`` and ``scale`` build their result from integer forms and
reduce it with one gcd; ``==``, ``hash`` and ``is_integer`` read the form,
and the ``Fraction`` entries (``rows``, ``row``, ``column``, ``m[i, j]``)
are built on first use.  The scalar kernels are fraction-free.  A matrix
keeps one Bareiss elimination pass (det, adj) of D A, computed on first
use; ``inverse``, ``solve``, ``determinant``, ``membership``,
``coefficients_in_basis`` and ``box_points`` read it in integer arithmetic.
``mul_vec`` and ``solve`` take integer dot products of D A or of the
adjugate with the vector's integer form (e, w) from ``vec_integer_form``;
``mul_vec`` returns Python ints when D e = 1 and ``Fraction``s otherwise,
so ``nearest_plane`` and ``cvp_exact`` points on an integer basis are ints.
``hnf``, ``lll_reduce`` and ``nearest_plane_rows`` take their columns from
the integer form, and the enumeration bounds of ``box_points``,
``cvp_exact``, ``lambda1_sq`` and ``voronoi_relevant`` are integer sums and
integer floor and ceil.  There is one Gram-Schmidt, held as integers
(Cohen's integral data d and lam): ``lll_reduce`` updates it in place,
``nearest_plane`` and ``nearest_plane_rows`` run Babai's rounding on it,
and the ``is_size_reduced`` and ``satisfies_lovasz`` oracles read it.

The int64 kernels work on many rows at once: ``lex_box`` and ``box_points``
build coefficient boxes, ``scaled_offsets`` gives exact scaled offsets,
``nearest_plane_rows`` runs Babai's nearest plane on every target row,
``integral_rows`` maps every row through a rational matrix and
``in_voronoi_cell`` tests every row against the ``voronoi_relevant``
vectors.  Each derives an a-priori magnitude bound from its inputs with
Python integers and raises ``SizeGuardError`` before computing if any
intermediate could overflow int64.  The scalar routines they batch
(``nearest_plane``, ``ExactMatrix.mul_vec``, ``membership``, ``cvp_exact``)
stay as their test oracles; on integer input the points that
``nearest_plane``, ``mul_vec`` and ``cvp_exact`` return are Python ints.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import MembershipError, RankError, SizeGuardError

Vec = tuple[Fraction, ...]


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v, strict=True)), Fraction(0))


def norm_sq(v: Sequence) -> Fraction:
    return dot(v, v)


def vec_sub(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v, strict=True))


_SQRT_SCALE = 2**24


def sqrt_upper_bound(r: Fraction) -> Fraction:
    """Rational upper bound on sqrt(r), tight to about 2^-24 relative."""
    if r < 0:
        raise ValueError("negative radicand")
    p, q = r.numerator, r.denominator
    return Fraction(_sqrt_numerator(p, q), q * _SQRT_SCALE)


def _sqrt_numerator(p: int, q: int) -> int:
    """ceil(sqrt(p q K^2)) for p / q in lowest terms: sqrt(p / q) <= this / (q K)."""
    m = p * q * _SQRT_SCALE**2
    s = math.isqrt(m)
    return s + (s * s < m)


class ExactMatrix:
    """Immutable matrix with arbitrary-precision rational entries.

    Held as its canonical integer form (D, D * self): D is the least positive
    integer that clears every denominator, so gcd(D, entries) = 1 and equal
    matrices have equal forms.  The ``Fraction`` rows are built on first use.
    """

    __slots__ = ("_den", "_ints", "_rows", "_adj")

    def __init__(self, rows: Iterable[Iterable]):
        data = [tuple(row) for row in rows]
        if not data or not data[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        den, flat = vec_integer_form([x for row in data for x in row])
        self._den = den
        self._ints = tuple(tuple(flat[i : i + width]) for i in range(0, len(flat), width))
        self._rows = None  # Fraction rows, built on first use
        self._adj = None  # (det, adj) of the integer form, built on first use

    @classmethod
    def _from_integer_form(cls, den: int, rows: Iterable[Iterable[int]]) -> "ExactMatrix":
        """The matrix rows / den for integer rows and a nonzero integer den, reduced to least D."""
        rows = [tuple(row) for row in rows]
        g = math.gcd(den, *(x for row in rows for x in row))
        if den < 0:
            g = -g
        m = cls.__new__(cls)
        m._den = den // g
        m._ints = tuple(tuple(x // g for x in row) for row in rows) if g != 1 else tuple(rows)
        m._rows = m._adj = None
        return m

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "ExactMatrix":
        return cls(zip(*cols))

    # -- basic access ------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self._ints)

    @property
    def ncols(self) -> int:
        return len(self._ints[0])

    @property
    def is_square(self) -> bool:
        return len(self._ints) == len(self._ints[0])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.rows()[i][j]

    def row(self, i: int) -> Vec:
        return self.rows()[i]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows())

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.ncols)]

    def rows(self) -> tuple[Vec, ...]:
        if self._rows is None:
            den = self._den
            self._rows = tuple(tuple(Fraction(x, den) for x in row) for row in self._ints)
        return self._rows

    def is_integer(self) -> bool:
        return self._den == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self.integer_form() == other.integer_form()

    def __hash__(self):
        return hash(self.integer_form())

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows())
        return f"ExactMatrix[{body}]"

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        # (A_a / D_a) @ (A_b / D_b) = (A_a @ A_b) / (D_a D_b), reduced once.
        cols = list(zip(*other._ints))
        return ExactMatrix._from_integer_form(
            self._den * other._den,
            [[sum(map(operator.mul, row, col)) for col in cols] for row in self._ints],
        )

    def mul_vec(self, v: Sequence) -> tuple:
        """self @ v exactly: Python ints when the common denominator D e of self and v is 1.

        Otherwise every entry is a ``Fraction``, also where its value is integral.
        """
        y, den = self.mul_vec_scaled(v)
        if den == 1:
            return tuple(y)
        return tuple(Fraction(x, den) for x in y)

    def mul_vec_scaled(self, v: Sequence) -> tuple[list[int], int]:
        """Integers y and a positive integer d with self @ v = y / d, in integer arithmetic."""
        if len(v) != len(self._ints[0]):
            raise ValueError("dimension mismatch")
        e, w = vec_integer_form(v)
        return [sum(map(operator.mul, row, w)) for row in self._ints], self._den * e

    def scale(self, c) -> "ExactMatrix":
        p, q = Fraction(c).as_integer_ratio()
        rows = [[p * x for x in row] for row in self._ints]
        return ExactMatrix._from_integer_form(q * self._den, rows)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._from_integer_form(self._den, zip(*self._ints))

    # -- the fraction-free kernels -----------------------------------------
    #
    # The matrix is immutable, so the one elimination pass below is computed
    # on first use and kept: inverse, solve, determinant, membership and
    # coefficients_in_basis all read it.

    def integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, rows of D * self) with D the least common denominator of the entries."""
        return self._den, self._ints

    def _det_adj(self) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
        """(det M, adj M) of the square integer form M = D * self; adj is None when det is 0.

        One fraction-free Gauss-Jordan pass (Bareiss, Math. Comp. 22, 1968)
        on [M | I]: each step cross-multiplies by the pivot and divides
        exactly by the previous pivot, so every entry stays an integer minor.
        It ends at [p I | X] with M X = p I and p = +-det M.
        """
        if self._adj is None:
            n = self.nrows
            aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self._ints)]
            prev, sign = 1, 1
            for k in range(n):
                piv = next((r for r in range(k, n) if aug[r][k]), None)
                if piv is None:
                    self._adj = (0, None)
                    return self._adj
                if piv != k:
                    aug[k], aug[piv] = aug[piv], aug[k]
                    sign = -sign
                top = aug[k]
                p = top[k]
                for i in range(n):
                    if i != k:
                        f = aug[i][k]
                        aug[i] = [(p * x - f * y) // prev for x, y in zip(aug[i], top)]
                prev = p
            self._adj = (sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in aug))
        return self._adj

    def _adjugate(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(det M, adj M) of the integer form; RankError unless it is invertible."""
        if not self.is_square:
            raise RankError("inverse requires a square matrix")
        det, adj = self._det_adj()
        if adj is None:
            raise RankError("matrix is singular")
        return det, adj

    def _solve_scaled(self, v: Sequence) -> tuple[list[int], int]:
        """Integers y and a positive integer d with self @ (y / d) = v."""
        # The kept pass when it is there and invertible; _adjugate raises otherwise.
        det, adj = self._adj if self._adj and self._adj[1] else self._adjugate()
        if len(v) != len(adj):
            raise ValueError("dimension mismatch")
        # self^-1 = D adj(M) / det(M), and v = w / e.
        e, w = vec_integer_form(v)
        den = self._den
        y = [den * sum(map(operator.mul, row, w)) for row in adj]
        if det < 0:
            return [-x for x in y], -det * e
        return y, det * e

    def inverse(self) -> "ExactMatrix":
        """Exact inverse, D adj(M) / det(M) from the kept elimination pass."""
        det, adj = self._adjugate()
        den = self._den
        return ExactMatrix._from_integer_form(det, [[den * x for x in row] for row in adj])

    def solve(self, v: Sequence) -> Vec:
        """Exact solution x of self @ x = v."""
        y, den = self._solve_scaled(v)
        return tuple(Fraction(x, den) for x in y)


def vec_integer_form(v: Sequence) -> tuple[int, list[int]]:
    """(e, w): the least positive integer e and the vector w of Python ints with v = w / e."""
    for x in v:
        if type(x) is not int:
            break
    else:
        return 1, list(v)
    ratios = [x.as_integer_ratio() if type(x) is Fraction else _ratio(x) for x in v]
    e = math.lcm(*[q for _, q in ratios])
    if e == 1:
        return 1, [p for p, _ in ratios]
    return e, [p * (e // q) for p, q in ratios]


def _ratio(x) -> tuple[int, int]:
    """(p, q) in Python ints with x = p / q; Fraction keeps a numpy integer's type, int() does not."""
    p, q = Fraction(x).as_integer_ratio()
    return int(p), q


# -- text format -------------------------------------------------------------
#
# The matrix file format: first line "rows cols", then one line per row with
# entries separated by whitespace; rationals written "p/q".


def parse_matrix_text(text: str) -> ExactMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'rows cols'")
    nrows, ncols = int(head[0]), int(head[1])
    if len(lines) - 1 != nrows:
        raise ValueError(f"expected {nrows} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1 : nrows + 1]:
        toks = ln.split()
        if len(toks) != ncols:
            raise ValueError(f"expected {ncols} entries per row")
        try:
            rows.append([Fraction(t) for t in toks])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in row {ln.strip()!r}") from None
    return ExactMatrix(rows)


# -- determinant ---------------------------------------------------------------


def determinant(m: ExactMatrix):
    """Exact signed determinant; returns int for integer-valued results."""
    if not m.is_square:
        raise RankError("determinant requires a square matrix")
    det = Fraction(m._det_adj()[0], m.integer_form()[0] ** m.nrows)
    return int(det) if det.denominator == 1 else det


def _require_square_integer(m: ExactMatrix, op: str) -> None:
    if not m.is_square:
        raise RankError(f"{op} requires a square matrix")
    if not m.is_integer():
        raise ValueError(f"{op} requires integer entries")


# -- Hermite normal form -------------------------------------------------------


def hnf(m: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Column-style Hermite normal form of a full-rank integer matrix.

    Returns (H, U) with H = m @ U, U unimodular.  H is the canonical
    upper-triangular basis of the column-span lattice: positive diagonal
    and 0 <= H[i][j] < H[i][i] for j > i.  Invariant under any right
    unimodular transform of the input, so it doubles as a same-lattice test.
    """
    _require_square_integer(m, "hnf")
    n = m.nrows
    cols = [list(col) for col in zip(*m.integer_form()[1])]
    u = [[int(i == j) for i in range(n)] for j in range(n)]  # u[j] = column j of U

    def combine(ci, cj, a, b, c, d):
        # (col_i, col_j) <- (a*col_i + b*col_j, c*col_i + d*col_j); det must be +-1
        for arr in (cols, u):
            x, y = arr[ci], arr[cj]
            arr[ci] = [a * p + b * q for p, q in zip(x, y)]
            arr[cj] = [c * p + d * q for p, q in zip(x, y)]

    # Triangularize from the bottom row up; pivots end on the diagonal.
    for i in range(n - 1, -1, -1):
        for j in range(i):
            p, q = cols[i][i], cols[j][i]
            if q == 0:
                continue
            g, a, b = _xgcd(p, q)
            combine(i, j, a, b, -(q // g), p // g)
        if cols[i][i] == 0:
            raise RankError("matrix is singular")
        if cols[i][i] < 0:
            cols[i] = [-x for x in cols[i]]
            u[i] = [-x for x in u[i]]
    # Reduce entries right of each pivot into [0, pivot).
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            q = cols[j][i] // cols[i][i]
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[i])]
                u[j] = [x - q * y for x, y in zip(u[j], u[i])]
    h_mat = ExactMatrix.from_columns(cols)
    u_mat = ExactMatrix.from_columns(u)
    return h_mat, u_mat


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g = gcd(a, b) > 0 (for (a, b) != (0, 0))."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def is_hnf(m: ExactMatrix) -> bool:
    if not m.is_square or not m.is_integer():
        return False
    n = m.nrows
    for i in range(n):
        if m[i, i] <= 0:
            return False
        for j in range(n):
            if j < i and m[i, j] != 0:
                return False
            if j > i and not (0 <= m[i, j] < m[i, i]):
                return False
    return True


# -- duals, membership, coefficients ------------------------------------------


def dual_basis(b: ExactMatrix) -> ExactMatrix:
    """Exact rational basis of the dual lattice: the transposed inverse."""
    if not b.is_square:
        raise RankError("dual basis requires a square matrix")
    return b.inverse().transpose()


def membership(b: ExactMatrix, v: Sequence) -> bool:
    """True iff v lies in the column-span lattice of b: adj(B) v = 0 (mod det B)."""
    y, den = b._solve_scaled(v)
    return all(x % den == 0 for x in y)


def coefficients_in_basis(b: ExactMatrix, v: Sequence) -> tuple[int, ...]:
    """Integer coefficients z with b @ z = v; raises if v is not a lattice point."""
    y, den = b._solve_scaled(v)
    if any(x % den for x in y):
        raise MembershipError(f"{tuple(v)} is not in the lattice")
    return tuple(x // den for x in y)


# -- LLL ----------------------------------------------------------------------


def lll_reduce(b: ExactMatrix) -> ExactMatrix:
    """LLL reduction of an integer column basis in exact integer arithmetic.

    The output spans the same lattice, is size-reduced (|mu_ij| <= 1/2) and
    satisfies the Lovasz condition with delta = 3/4.  The Gram-Schmidt
    data is held integrally (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7): d[i] is the Gram determinant of the first i
    columns and lam[i][j] = d[j+1] mu_ij, updated in place on each swap.
    """
    _require_square_integer(b, "lll_reduce")
    n = b.ncols
    cols = [list(col) for col in zip(*b.integer_form()[1])]
    d, lam = _integral_gram(cols)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            c = _round_half_even(lam[k][j], d[j + 1])
            if c:
                cols[k] = [x - c * y for x, y in zip(cols[k], cols[j])]
                for t in range(j):
                    lam[k][t] -= c * lam[j][t]
                lam[k][j] -= c * d[j + 1]
        # ||b*_k||^2 >= (3/4 - mu^2) ||b*_{k-1}||^2, times 4 d[k] d[k-1].
        m = lam[k][k - 1]
        if 4 * (d[k + 1] * d[k - 1] + m * m) >= 3 * d[k] * d[k]:
            k += 1
        else:
            cols[k], cols[k - 1] = cols[k - 1], cols[k]
            lam[k][: k - 1], lam[k - 1][: k - 1] = lam[k - 1][: k - 1], lam[k][: k - 1]
            new = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (new * t + m * lam[i][k]) // d[k + 1]
            d[k] = new
            k = max(k - 1, 1)
    return ExactMatrix.from_columns(cols)


def _integral_gram(cols: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data (d, lam) of integer columns; RankError if dependent.

    d[i] is the Gram determinant of the first i columns and lam[i][j] =
    d[j+1] mu_ij for j < i, both integers (Cohen, Alg. 2.6.7).
    """
    n = len(cols)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        # mu_ii = 1, so the recurrence's last entry is d[i+1] itself.
        _integral_projections(cols[i], cols[: i + 1], d, lam, lam[i])
        d[i + 1], lam[i][i] = lam[i][i], 0
        if d[i + 1] == 0:
            raise RankError("linearly dependent columns")
    return d, lam


def _integral_projections(
    v: Sequence[int], cols: Sequence[Sequence[int]], d: list[int], lam: list[list[int]], row: list[int]
) -> None:
    """Set row[j] = d[j+1] mu_vj = d[j+1] <v, b*_j> / ||b*_j||^2 for each j < len(cols).

    Each value is an integer, reached by exact divisions.  lam[j][:j] must
    hold column j's coefficients; when v is cols[-1], that last lam[j] is
    row itself, whose entries the loop fills before it reads them.
    """
    for j, col in enumerate(cols):
        s = sum(x * y for x, y in zip(v, col))
        for t in range(j):
            s = (d[t + 1] * s - row[t] * lam[j][t]) // d[t]
        row[j] = s


def _round_half_even(num: int, den: int) -> int:
    """round(Fraction(num, den)) for den > 0: nearest integer, ties to even."""
    f, r = divmod(num, den)
    return f + (2 * r > den or (2 * r == den and f % 2 == 1))


def is_size_reduced(b: ExactMatrix) -> bool:
    """|mu_ij| <= 1/2 for all j < i, read as 2 |lam_ij| <= d[j+1] on the integer form.

    Scaling a basis leaves every mu_ij unchanged, so rational bases are
    judged by their integer form D b.
    """
    d, lam = _integral_gram(list(zip(*b.integer_form()[1])))
    return all(2 * abs(lam[i][j]) <= d[j + 1] for i in range(b.ncols) for j in range(i))


def satisfies_lovasz(b: ExactMatrix) -> bool:
    """||b*_k||^2 >= (3/4 - mu_k,k-1^2) ||b*_k-1||^2 for every k, in integers.

    This is the test :func:`lll_reduce` makes, 4 (d[k+1] d[k-1] +
    lam_k,k-1^2) >= 3 d[k]^2, on the integer form D b; the condition is
    invariant under scaling the basis.
    """
    d, lam = _integral_gram(list(zip(*b.integer_form()[1])))
    return all(4 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) >= 3 * d[k] ** 2 for k in range(1, b.ncols))


# -- Babai nearest plane ---------------------------------------------------------


def nearest_plane(b: ExactMatrix, u: Sequence) -> tuple:
    """Babai's nearest-plane lattice point for target u, in integer arithmetic.

    The approximation factor 2^(n/2) against the true closest vector holds
    when the caller passes an LLL-reduced basis; the routine itself runs on
    any basis of independent columns, rational or not square.  It reads the
    integral Gram-Schmidt data (d, lam) of the integer form D b, as
    :func:`lll_reduce` does: with u = w / e and lam_u the integral
    projections of D w, the coefficient of b_j is lam_u[j] / (e d[j+1]),
    rounded as ``round`` rounds a Fraction, and subtracting c_j b_j from the
    target is one size-reduction step on lam_u.  The point is b @ c as
    :meth:`ExactMatrix.mul_vec` returns it: Python ints on an integer basis.
    """
    if len(u) != b.nrows:
        raise ValueError("dimension mismatch")
    den, rows = b.integer_form()
    cols = list(zip(*rows))
    d, lam = _integral_gram(cols)
    e, w = vec_integer_form(u)
    n = len(cols)
    lu = [0] * n
    _integral_projections([den * x for x in w], cols, d, lam, lu)
    c = [0] * n
    for j in range(n - 1, -1, -1):
        c[j] = _round_half_even(lu[j], e * d[j + 1])
        if c[j]:
            step = c[j] * e
            for t in range(j):
                lu[t] -= step * lam[j][t]
    return b.mul_vec(c)


# -- integer boxes ---------------------------------------------------------------

BOX_GUARD = 5 * 10**6  # most vectors one integer box (or the sampler's L_N) may hold
_INT64_LIMIT = 2**63


def lex_box(bounds: Sequence[tuple[int, int]]) -> np.ndarray:
    """All integer vectors with lo_i <= z_i <= hi_i as int64 rows, lexicographic."""
    count = math.prod(max(0, hi - lo + 1) for lo, hi in bounds)
    if count > BOX_GUARD or max(max(-lo, hi) for lo, hi in bounds) >= _INT64_LIMIT // 2:
        raise SizeGuardError(f"box of {count} integer vectors exceeds guard {BOX_GUARD} or int64")
    n = len(bounds)
    out = np.empty((count, n), dtype=np.int64)
    grid = out.reshape([max(0, hi - lo + 1) for lo, hi in bounds] + [n])
    for i, (lo, hi) in enumerate(bounds):
        axis = [1] * n
        axis[i] = -1
        grid[..., i] = np.arange(lo, hi + 1, dtype=np.int64).reshape(axis)
    return out


def box_points(b: ExactMatrix, center: Sequence, radius) -> np.ndarray:
    """Coefficient vectors z covering every lattice point b @ z within radius of center.

    By Cauchy-Schwarz such z satisfy |z_i - (B^-1 c)_i| <= ||row_i(B^-1)|| r,
    so the box below is a superset of the ball; callers filter it.  Rows are
    int64 in lexicographic order, the tie-break order of the CVP oracles.
    Raises SizeGuardError before allocating a box larger than BOX_GUARD.
    """
    zc, d = b._solve_scaled(center)
    det, adj = b._adjugate()
    den = b.integer_form()[0]
    rp, rq = Fraction(radius).as_integer_ratio()
    bounds = []
    for y, row in zip(zc, adj):
        # ||row_i(B^-1)||^2 = D^2 ||row_i(adj M)||^2 / det(M)^2 = p / q in lowest
        # terms; the slack is sqrt_upper_bound(p / q) r = u / v in integers.
        p, q = den * den * sum(x * x for x in row), det * det
        g = math.gcd(p, q)
        u, v = _sqrt_numerator(p // g, q // g) * rp, q // g * _SQRT_SCALE * rq
        # floor and ceil of (B^-1 c)_i -+ slack = (y v -+ d u) / (d v)
        bounds.append(((y * v - d * u) // (d * v), -((-y * v - d * u) // (d * v))))
    return lex_box(bounds)


def scaled_offsets(b: ExactMatrix, z: np.ndarray, center: Sequence) -> tuple[np.ndarray, int]:
    """Exact offsets D (b @ z - c) as int64 rows, with D the common denominator of b and c.

    Raises SizeGuardError unless every squared row norm provably fits int64.
    """
    e, cd = vec_integer_form(center)
    d_b, rows = b.integer_form()
    den = math.lcm(e, d_b)
    bd = [[x * (den // d_b) for x in row] for row in rows]
    cd = [x * (den // e) for x in cd]
    zmax = int(np.abs(z).max()) if len(z) else 0
    reach = max(sum(abs(x) for x in row) * zmax + abs(ci) for row, ci in zip(bd, cd))
    if len(cd) * reach * reach >= _INT64_LIMIT:
        raise SizeGuardError(f"lattice offsets up to {reach} overflow int64 distances")
    return z @ np.array(bd, dtype=np.int64).T - np.array(cd, dtype=np.int64), den


def _column_dot(coeffs: Sequence[int], cols: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] cols[k] over the first axis of int64 cols, as a new array; zero terms are skipped."""
    out = np.zeros(cols.shape[1:], dtype=np.int64)
    for c, col in zip(coeffs, cols):
        if c:
            out += c * col
    return out


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


def nearest_plane_rows(b: ExactMatrix, targets: np.ndarray) -> np.ndarray:
    """Babai's nearest-plane lattice point for every int64 row of targets.

    Exactly :func:`nearest_plane` row by row for an integer basis.  Each
    b*_j / ||b*_j||^2 is the integer vector a_j = d[j] b*_j over the positive
    integer q_j = d[j+1], from the integral Gram-Schmidt data (d, lam), both
    divided by their gcd so that the bounds below are the least possible.
    Every coefficient is p / q_j with p = <rem, a_j>, rounded as ``round``
    rounds a Fraction: p // q_j, plus one when the remainder is above half,
    or exactly half and the quotient odd.  Works per coordinate: the rows are
    read as n contiguous columns, and the result is stored coordinate-major.
    Raises SizeGuardError unless every intermediate provably fits int64.
    """
    if not b.is_integer():
        raise ValueError("nearest_plane_rows requires an integer basis")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 2 or targets.shape[1] != b.ncols:
        raise ValueError(f"targets must be rows of length {b.ncols}")
    cols = list(zip(*b.integer_form()[1]))
    d, lam = _integral_gram(cols)
    # Coordinate k of a_j is d[j+1] <e_k, b*_j> / ||b*_j||^2, the projection of e_k.
    coords = [[0] * b.ncols for _ in range(b.nrows)]
    for k, row in enumerate(coords):
        _integral_projections([int(i == k) for i in range(b.nrows)], cols, d, lam, row)
    planes = []
    for j, a in enumerate(zip(*coords)):
        g = math.gcd(d[j + 1], *a)
        planes.append(([x // g for x in a], d[j + 1] // g))
    # |rem| <= reach entrywise before each step; every product below is bounded by it.
    reach = max(_max_abs(targets), 1)
    for j in range(b.ncols - 1, -1, -1):
        a, q = planes[j]
        dot_bound = reach * sum(abs(x) for x in a)
        reach += (dot_bound // q + 1) * max(abs(x) for x in cols[j])
        bound = max(dot_bound, reach, 2 * q)
        if bound >= _INT64_LIMIT:
            raise SizeGuardError(f"nearest-plane values up to {bound} overflow int64")
    rem = targets.T.copy()  # row k: coordinate k of every target, contiguous
    for j in range(b.ncols - 1, -1, -1):
        a, q = planes[j]
        f, r = np.divmod(_column_dot(a, rem), q)
        f += 2 * r + (f & 1) > q  # half to even: up when 2 r > q, or 2 r = q and f is odd
        for k, x in enumerate(cols[j]):
            if x:
                rem[k] -= x * f
    return np.subtract(targets.T, rem, out=rem).T


def integral_rows(m: ExactMatrix, rows: np.ndarray) -> np.ndarray:
    """m @ row for every int64 row, exactly; ValueError if any image is not integral.

    One common denominator D turns m into the integer matrix D m, and an
    image is integral exactly when D divides it.  Works per coordinate, as
    ``nearest_plane_rows`` does: one dot product of the input columns and one
    ``np.divmod`` by D per output column, and the result is stored
    coordinate-major.  Raises SizeGuardError unless every product provably
    fits int64.
    """
    den, md = m.integer_form()
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != m.ncols:
        raise ValueError(f"rows must have length {m.ncols}")
    reach = max(_max_abs(rows), 1) * max(sum(abs(x) for x in row) for row in md)
    if max(reach, den) >= _INT64_LIMIT:
        raise SizeGuardError(f"rational images up to {reach} over {den} overflow int64")
    cols = np.ascontiguousarray(rows.T)  # row k: coordinate k of every row, contiguous
    images = np.empty((m.nrows, len(rows)), dtype=np.int64)
    rem = np.empty(len(rows), dtype=np.int64)
    ragged = np.zeros(len(rows), dtype=bool)
    for image, coeffs in zip(images, md):
        np.divmod(_column_dot(coeffs, cols), den, out=(image, rem))
        ragged |= rem != 0
    bad = np.flatnonzero(ragged)
    if len(bad):
        raise ValueError(f"{tuple(rows[bad[0]].tolist())} has a non-integral image")
    return images.T


def voronoi_relevant(b: ExactMatrix) -> np.ndarray:
    """The Voronoi-relevant vectors of an integer basis, as int64 rows.

    v is relevant exactly when +-v are the only shortest vectors of the coset
    v + 2L (Conway & Sloane, SPLAG ch. 21), and the closed Voronoi cell is cut
    out by them alone.  Each coset B c + 2L, c in {0, 1}^n, holds B c, so its
    minimum is at most sum ||b_i||: one coefficient box of that radius sees
    every coset minimum with all its attainers, and the parity of z names the
    coset.  At most 2 (2^n - 1) rows, in the box's lexicographic order.
    """
    if not b.is_integer():
        raise ValueError("voronoi_relevant requires an integer basis")
    n = b.ncols
    origin = (0,) * n
    cols = zip(*b.integer_form()[1])
    z = box_points(b, origin, sum(sqrt_upper_bound(Fraction(sum(x * x for x in col))) for col in cols))
    pts, _ = scaled_offsets(b, z, origin)
    d = (pts * pts).sum(axis=1)
    coset = (z % 2) @ (1 << np.arange(n, dtype=np.int64))
    least = np.full(2**n, _INT64_LIMIT - 1, dtype=np.int64)
    np.minimum.at(least, coset, d)
    attains = d == least[coset]
    # The zero coset's minimum is the origin alone, so it never has two attainers.
    return pts[attains & (np.bincount(coset[attains], minlength=2**n)[coset] == 2)]


def in_voronoi_cell(relevant: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """True for each int64 row u with 2 <u, v> <= ||v||^2 for every relevant row v.

    With the relevant vectors of :func:`voronoi_relevant` this is the closed
    Voronoi cell: the origin is a closest lattice point to u, ties included.
    Works per coordinate, on the rows read as n contiguous columns.
    Raises SizeGuardError unless every product provably fits int64.
    """
    reach = max(_max_abs(rows), _max_abs(relevant), 1)
    if 2 * relevant.shape[1] * reach * reach >= _INT64_LIMIT:
        raise SizeGuardError(f"Voronoi-cell products of entries up to {reach} overflow int64")
    cols = np.ascontiguousarray(rows.T)
    # 2 <u, v> <= ||v||^2 exactly when <u, v> <= floor(||v||^2 / 2).
    inside = [_column_dot(v, cols) <= sum(x * x for x in v) // 2 for v in relevant.tolist()]
    return np.logical_and.reduce(inside)


# -- brute-force CVP / SVP oracles ------------------------------------------------


class CVPResult(NamedTuple):
    point: tuple
    dist_sq: Fraction


def _closest(b: ExactMatrix, u: Sequence, z: np.ndarray) -> CVPResult:
    """Exact closest of the points b @ z to u; ties go to the earliest row of z."""
    off, den = scaled_offsets(b, z, u)
    d = (off * off).sum(axis=1)
    k = int(np.argmin(d))
    return CVPResult(b.mul_vec(z[k].tolist()), Fraction(int(d[k]), den * den))


def brute_force_cvp(b: ExactMatrix, u: Sequence, coeff_bound: int) -> CVPResult:
    """Exact closest vector among all b @ z with |z_i| <= coeff_bound.

    Enumeration oracle for desk-scale tests; ties broken toward the
    lexicographically smallest coefficient vector.
    """
    return _closest(b, u, lex_box([(-coeff_bound, coeff_bound)] * b.ncols))


def cvp_exact(b: ExactMatrix, u: Sequence) -> CVPResult:
    """True closest vector, with the enumeration box derived so it must contain it.

    Any lattice point at least as close as the Babai point lies in the
    coefficient box of radius ||u - v_babai|| around u, so enumerating that
    box is guaranteed to see the optimum.  Ties go to the lexicographically
    smallest coefficient vector, as in :func:`brute_force_cvp`.
    """
    v0 = nearest_plane(b, u)
    # ||u - v0||^2 with u = w / e and v0 = y / f is sum (f w - e y)^2 / (e f)^2.
    (e, w), (f, y) = vec_integer_form(u), vec_integer_form(v0)
    r_sq = Fraction(sum((f * a - e * c) ** 2 for a, c in zip(w, y)), (e * f) ** 2)
    return _closest(b, u, box_points(b, u, sqrt_upper_bound(r_sq)))


def lambda1_sq(b: ExactMatrix) -> Fraction:
    """Exact squared first minimum by guaranteed enumeration (n <= 4 scale).

    LLL gives an upper bound ||b1||; every nonzero vector at most that long
    has coefficients inside the Cauchy-Schwarz box below, so the minimum over
    the box is the true lambda_1.  Rational bases are scaled to integers
    first; lengths scale uniformly.
    """
    den, rows = b.integer_form()
    red = lll_reduce(ExactMatrix(rows))
    origin = (0,) * red.ncols
    b1 = [row[0] for row in red.integer_form()[1]]
    z = box_points(red, origin, sqrt_upper_bound(Fraction(sum(x * x for x in b1))))
    pts, _ = scaled_offsets(red, z, origin)
    d = (pts * pts).sum(axis=1)
    return Fraction(int(d[d > 0].min()), den * den)
