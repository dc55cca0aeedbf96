"""Exact integer/rational lattice linear algebra.

Lattices are integer spans of the *columns* of a basis matrix.  All
arithmetic is carried out over Python integers and ``fractions.Fraction``,
or over int64 arrays under a bound checked before they are built; nothing
in this module rounds.  Operations that need floating point (statevectors,
DFT matrices) live elsewhere and convert at the boundary.

The int64 kernels work on many rows at once: ``lex_box`` and ``box_points``
build coefficient boxes, ``scaled_offsets`` gives exact scaled offsets,
``nearest_plane_rows`` runs Babai's nearest plane on every target row,
``integral_rows`` maps every row through a rational matrix and
``in_voronoi_cell`` tests every row against the ``voronoi_relevant``
vectors.  Each derives an a-priori magnitude bound from its inputs with
Python integers and raises ``SizeGuardError`` before computing if any
intermediate could overflow int64.  The scalar Fraction routines they batch
(``nearest_plane``, ``ExactMatrix.mul_vec``, ``membership``, ``cvp_exact``)
stay as their test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import MembershipError, RankError, SizeGuardError

Vec = tuple[Fraction, ...]


def as_fraction_vec(v: Sequence) -> Vec:
    return tuple(Fraction(x) for x in v)


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v, strict=True)), Fraction(0))


def norm_sq(v: Sequence) -> Fraction:
    return dot(v, v)


def vec_sub(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v, strict=True))


def vec_add(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(u, v, strict=True))


def vec_scale(v: Sequence, c) -> Vec:
    c = Fraction(c)
    return tuple(c * Fraction(a) for a in v)


_SQRT_SCALE = 2**24


def sqrt_upper_bound(r: Fraction) -> Fraction:
    """Rational upper bound on sqrt(r), tight to about 2^-24 relative."""
    if r < 0:
        raise ValueError("negative radicand")
    p, q = r.numerator, r.denominator
    # sqrt(p/q) = sqrt(p*q*K^2) / (q*K) <= ceil(sqrt(p*q*K^2)) / (q*K)
    m = p * q * _SQRT_SCALE**2
    s = math.isqrt(m)
    if s * s < m:
        s += 1
    return Fraction(s, q * _SQRT_SCALE)


class ExactMatrix:
    """Immutable matrix with arbitrary-precision rational entries."""

    __slots__ = ("_rows", "_nrows", "_ncols")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        self._rows = data
        self._nrows = len(data)
        self._ncols = width

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "ExactMatrix":
        n = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    # -- basic access ------------------------------------------------------

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def is_square(self) -> bool:
        return self._nrows == self._ncols

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._rows[i][j]

    def row(self, i: int) -> Vec:
        return self._rows[i]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self._rows)

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self._ncols)]

    def rows(self) -> tuple[Vec, ...]:
        return self._rows

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self._rows for x in row)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"ExactMatrix[{body}]"

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self._ncols != other._nrows:
            raise ValueError("dimension mismatch")
        ot = list(zip(*other._rows))
        return ExactMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self._rows]
        )

    def mul_vec(self, v: Sequence) -> Vec:
        if len(v) != self._ncols:
            raise ValueError("dimension mismatch")
        vf = [Fraction(x) for x in v]
        return tuple(sum(a * b for a, b in zip(row, vf)) for row in self._rows)

    def scale(self, c) -> "ExactMatrix":
        c = Fraction(c)
        return ExactMatrix([[c * x for x in row] for row in self._rows])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self._rows)))

    def inverse(self) -> "ExactMatrix":
        """Exact inverse by Gauss-Jordan elimination."""
        if not self.is_square:
            raise RankError("inverse requires a square matrix")
        n = self._nrows
        aug = [list(self._rows[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if piv is None:
                raise RankError("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv_p = 1 / aug[col][col]
            aug[col] = [x * inv_p for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return ExactMatrix([row[n:] for row in aug])

    def solve(self, v: Sequence) -> Vec:
        """Exact solution x of self @ x = v."""
        return self.inverse().mul_vec(v)


# -- text format -------------------------------------------------------------
#
# Shared file format: first line "rows cols", then one line per row with
# entries separated by single spaces; rationals rendered "p/q".


def format_matrix_text(m: ExactMatrix) -> str:
    lines = [f"{m.nrows} {m.ncols}"]
    for i in range(m.nrows):
        lines.append(" ".join(str(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"


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
    n = m.nrows
    a = [list(m.row(i)) for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv_p = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv_p
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
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
    cols = [[int(x) for x in m.column(j)] for j in range(n)]
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
    """True iff v lies in the column-span lattice of b."""
    return all(x.denominator == 1 for x in b.solve(v))


def coefficients_in_basis(b: ExactMatrix, v: Sequence) -> tuple[int, ...]:
    """Integer coefficients z with b @ z = v; raises if v is not a lattice point."""
    z = b.solve(v)
    if any(x.denominator != 1 for x in z):
        raise MembershipError(f"{tuple(v)} is not in the lattice")
    return tuple(int(x) for x in z)


# -- Gram-Schmidt ---------------------------------------------------------------


@dataclass(frozen=True)
class GramSchmidtData:
    """Exact Gram-Schmidt orthogonalization of basis columns.

    ``orthogonal[i]`` is b*_i; ``mu[i][j]`` (j < i) are the projection
    coefficients, so b_i = b*_i + sum_j mu[i][j] b*_j holds exactly.
    """

    orthogonal: tuple[Vec, ...]
    mu: tuple[tuple[Fraction, ...], ...]

    def reconstruct_column(self, i: int) -> Vec:
        v = self.orthogonal[i]
        for j in range(i):
            v = vec_add(v, vec_scale(self.orthogonal[j], self.mu[i][j]))
        return v


def gram_schmidt(b: ExactMatrix) -> GramSchmidtData:
    cols = b.columns()
    ortho: list[Vec] = []
    mus: list[tuple[Fraction, ...]] = []
    for i, v in enumerate(cols):
        row = []
        w = as_fraction_vec(v)
        for j in range(i):
            m_ij = dot(v, ortho[j]) / norm_sq(ortho[j])
            row.append(m_ij)
            w = vec_sub(w, vec_scale(ortho[j], m_ij))
        if norm_sq(w) == 0:
            raise RankError("linearly dependent columns")
        ortho.append(w)
        mus.append(tuple(row))
    return GramSchmidtData(tuple(ortho), tuple(mus))


# -- LLL ----------------------------------------------------------------------


def lll_reduce(b: ExactMatrix, delta: Fraction = Fraction(3, 4)) -> ExactMatrix:
    """LLL reduction of an integer column basis in exact rational arithmetic.

    The output spans the same lattice, is size-reduced (|mu_ij| <= 1/2) and
    satisfies the Lovasz condition with the given delta.
    """
    _require_square_integer(b, "lll_reduce")
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta <= 1:
        raise ValueError("delta must lie in (1/4, 1]")
    n = b.ncols
    cols = [list(map(int, b.column(j))) for j in range(n)]

    def gso():
        gs = gram_schmidt(ExactMatrix.from_columns(cols))
        return gs.orthogonal, [list(r) for r in gs.mu]

    ortho, mu = gso()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[j])]
                for t in range(j):
                    mu[k][t] -= q * mu[j][t]
                mu[k][j] -= q
        if norm_sq(ortho[k]) >= (delta - mu[k][k - 1] ** 2) * norm_sq(ortho[k - 1]):
            k += 1
        else:
            cols[k], cols[k - 1] = cols[k - 1], cols[k]
            ortho, mu = gso()
            k = max(k - 1, 1)
    return ExactMatrix.from_columns(cols)


def is_size_reduced(b: ExactMatrix) -> bool:
    gs = gram_schmidt(b)
    return all(
        abs(gs.mu[i][j]) <= Fraction(1, 2) for i in range(b.ncols) for j in range(i)
    )


def satisfies_lovasz(b: ExactMatrix, delta: Fraction = Fraction(3, 4)) -> bool:
    gs = gram_schmidt(b)
    for k in range(1, b.ncols):
        lhs = norm_sq(gs.orthogonal[k])
        rhs = (Fraction(delta) - gs.mu[k][k - 1] ** 2) * norm_sq(gs.orthogonal[k - 1])
        if lhs < rhs:
            return False
    return True


# -- Babai nearest plane ---------------------------------------------------------


def nearest_plane(b: ExactMatrix, u: Sequence, gs: GramSchmidtData | None = None) -> Vec:
    """Babai's nearest-plane lattice point for target u.

    The approximation factor 2^(n/2) against the true closest vector holds
    when the caller passes an LLL-reduced basis; the routine itself runs on
    any full-rank basis.  A precomputed Gram-Schmidt decomposition of b can
    be supplied by callers decoding many targets against one basis.
    """
    if gs is None:
        gs = gram_schmidt(b)
    n = b.ncols
    rem = as_fraction_vec(u)
    for j in range(n - 1, -1, -1):
        c = round(dot(rem, gs.orthogonal[j]) / norm_sq(gs.orthogonal[j]))
        rem = vec_sub(rem, vec_scale(b.column(j), c))
    return vec_sub(as_fraction_vec(u), rem)


# -- integer boxes ---------------------------------------------------------------

BOX_GUARD = 5 * 10**6  # most vectors one integer box (or the sampler's L_N) may hold
_INT64_LIMIT = 2**63


def lex_box(bounds: Sequence[tuple[int, int]]) -> np.ndarray:
    """All integer vectors with lo_i <= z_i <= hi_i as int64 rows, lexicographic."""
    count = math.prod(max(0, hi - lo + 1) for lo, hi in bounds)
    if count > BOX_GUARD or max(max(-lo, hi) for lo, hi in bounds) >= _INT64_LIMIT // 2:
        raise SizeGuardError(f"box of {count} integer vectors exceeds guard {BOX_GUARD} or int64")
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in bounds]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(count, len(bounds))


def box_points(b: ExactMatrix, center: Sequence, radius) -> np.ndarray:
    """Coefficient vectors z covering every lattice point b @ z within radius of center.

    By Cauchy-Schwarz such z satisfy |z_i - (B^-1 c)_i| <= ||row_i(B^-1)|| r,
    so the box below is a superset of the ball; callers filter it.  Rows are
    int64 in lexicographic order, the tie-break order of the CVP oracles.
    Raises SizeGuardError before allocating a box larger than BOX_GUARD.
    """
    binv = b.inverse()
    zc = binv.mul_vec(center)
    radius = Fraction(radius)
    bounds = []
    for i in range(b.ncols):
        slack = sqrt_upper_bound(norm_sq(binv.row(i))) * radius
        bounds.append((math.floor(zc[i] - slack), math.ceil(zc[i] + slack)))
    return lex_box(bounds)


def scaled_offsets(b: ExactMatrix, z: np.ndarray, center: Sequence) -> tuple[np.ndarray, int]:
    """Exact offsets D (b @ z - c) as int64 rows, with D the common denominator of b and c.

    Raises SizeGuardError unless every squared row norm provably fits int64.
    """
    c = as_fraction_vec(center)
    den = math.lcm(*(x.denominator for x in c), *(x.denominator for r in b.rows() for x in r))
    bd = [[int(x * den) for x in row] for row in b.rows()]
    cd = [int(x * den) for x in c]
    zmax = int(np.abs(z).max()) if len(z) else 0
    reach = max(sum(abs(x) for x in row) * zmax + abs(ci) for row, ci in zip(bd, cd))
    if len(cd) * reach * reach >= _INT64_LIMIT:
        raise SizeGuardError(f"lattice offsets up to {reach} overflow int64 distances")
    return z @ np.array(bd, dtype=np.int64).T - np.array(cd, dtype=np.int64), den


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


def nearest_plane_rows(b: ExactMatrix, targets: np.ndarray) -> np.ndarray:
    """Babai's nearest-plane lattice point for every int64 row of targets.

    Exactly :func:`nearest_plane` row by row for an integer basis.  Each
    b*_j / ||b*_j||^2 is scaled once to an integer vector a_j over a positive
    integer q_j, so every coefficient is p / q_j with p = <rem, a_j>, rounded
    as ``round`` rounds a Fraction: p // q_j, plus one when the remainder is
    above half, or exactly half and the quotient odd.  Raises SizeGuardError
    unless every intermediate provably fits int64.
    """
    if not b.is_integer():
        raise ValueError("nearest_plane_rows requires an integer basis")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 2 or targets.shape[1] != b.ncols:
        raise ValueError(f"targets must be rows of length {b.ncols}")
    planes = []
    for v in gram_schmidt(b).orthogonal:
        h = vec_scale(v, 1 / norm_sq(v))
        q = math.lcm(*(x.denominator for x in h))
        planes.append(([int(x * q) for x in h], q))
    cols = [[int(x) for x in b.column(j)] for j in range(b.ncols)]
    # |rem| <= reach entrywise before each step; every product below is bounded by it.
    reach = max(_max_abs(targets), 1)
    for j in range(b.ncols - 1, -1, -1):
        a, q = planes[j]
        dot_bound = reach * sum(abs(x) for x in a)
        reach += (dot_bound // q + 1) * max(abs(x) for x in cols[j])
        bound = max(dot_bound, reach, 2 * q)
        if bound >= _INT64_LIMIT:
            raise SizeGuardError(f"nearest-plane values up to {bound} overflow int64")
    rem = targets.copy()
    point = np.zeros_like(rem)
    for j in range(b.ncols - 1, -1, -1):
        a, q = planes[j]
        f, r = np.divmod(rem @ np.array(a, dtype=np.int64), q)
        c = f + ((2 * r > q) | ((2 * r == q) & (f % 2 == 1)))
        step = c[:, None] * np.array(cols[j], dtype=np.int64)
        rem -= step
        point += step
    return point


def integral_rows(m: ExactMatrix, rows: np.ndarray) -> np.ndarray:
    """m @ row for every int64 row, exactly; ValueError if any image is not integral.

    One common denominator D turns m into the integer matrix D m, and an
    image is integral exactly when D divides it.  Raises SizeGuardError
    unless every product provably fits int64.
    """
    den = math.lcm(*(x.denominator for r in m.rows() for x in r))
    md = [[int(x * den) for x in row] for row in m.rows()]
    rows = np.asarray(rows, dtype=np.int64)
    reach = max(_max_abs(rows), 1) * max(sum(abs(x) for x in row) for row in md)
    if max(reach, den) >= _INT64_LIMIT:
        raise SizeGuardError(f"rational images up to {reach} over {den} overflow int64")
    images = rows @ np.array(md, dtype=np.int64).T
    bad = np.flatnonzero((images % den).any(axis=1))
    if len(bad):
        raise ValueError(f"{tuple(rows[bad[0]].tolist())} has a non-integral image")
    return images // den


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
    z = box_points(b, origin, sum(sqrt_upper_bound(norm_sq(col)) for col in b.columns()))
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
    Raises SizeGuardError unless every product provably fits int64.
    """
    reach = max(_max_abs(rows), _max_abs(relevant), 1)
    if 2 * relevant.shape[1] * reach * reach >= _INT64_LIMIT:
        raise SizeGuardError(f"Voronoi-cell products of entries up to {reach} overflow int64")
    return (2 * (rows @ relevant.T) <= (relevant * relevant).sum(axis=1)).all(axis=1)


# -- brute-force CVP / SVP oracles ------------------------------------------------


class CVPResult(NamedTuple):
    point: Vec
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
    r_ub = sqrt_upper_bound(norm_sq(vec_sub(as_fraction_vec(u), v0)))
    return _closest(b, u, box_points(b, u, r_ub))


def lambda1_sq(b: ExactMatrix) -> Fraction:
    """Exact squared first minimum by guaranteed enumeration (n <= 4 scale).

    LLL gives an upper bound ||b1||; every nonzero vector at most that long
    has coefficients inside the Cauchy-Schwarz box below, so the minimum over
    the box is the true lambda_1.  Rational bases are scaled to integers
    first; lengths scale uniformly.
    """
    den = math.lcm(*[x.denominator for row in b.rows() for x in row])
    red = lll_reduce(b.scale(den))
    origin = (0,) * red.ncols
    z = box_points(red, origin, sqrt_upper_bound(norm_sq(red.column(0))))
    pts, _ = scaled_offsets(red, z, origin)
    d = (pts * pts).sum(axis=1)
    return Fraction(int(d[d > 0].min()), den * den)
