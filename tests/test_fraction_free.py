"""The fraction-free kernels against the Fraction algorithms they replaced.

``intlat`` inverts, solves and takes determinants through one Bareiss pass on
the integer form of a matrix, multiplies matrices and vectors on their
integer forms, runs LLL, Babai's nearest plane (scalar and batched) and the
size-reduction and Lovasz oracles on integral Gram-Schmidt data, and
``ReductionCertificate`` checks sigma and its error bound in integers.  The
references below are the Fraction matrix product, the Fraction Gauss-Jordan
elimination, the rational Gram-Schmidt, the LLL that recomputes it after
every swap, the nearest plane that rounds Fraction projections on its
vectors and the oracles that read its mu and squared norms; every property
asserts exact equality, types included, against them.  ``mul_vec``, and so
the points of ``nearest_plane`` and ``cvp_exact``, return Python ints when
the common denominator of the matrix and the vector is 1, so those references
are typed the same way.  Derandomized.
"""

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import latdft
from latdft import intlat
from latdft.errors import MembershipError, RankError, SizeGuardError
from latdft.intlat import (
    ExactMatrix,
    box_points,
    brute_force_cvp,
    coefficients_in_basis,
    cvp_exact,
    determinant,
    dot,
    is_size_reduced,
    lll_reduce,
    membership,
    nearest_plane,
    nearest_plane_rows,
    norm_sq,
    satisfies_lovasz,
    sqrt_upper_bound,
    vec_integer_form,
    vec_sub,
)
from latdft.sysnf import reduce_to_sysnf

PROPS = settings(derandomize=True, deadline=None, max_examples=30)


# -- Fraction references ----------------------------------------------------------


def vec_scale(v, c) -> tuple:
    c = Fraction(c)
    return tuple(c * Fraction(a) for a in v)


@dataclass(frozen=True)
class GramSchmidtData:
    """Exact Gram-Schmidt orthogonalization of basis columns.

    ``orthogonal[i]`` is b*_i; ``mu[i][j]`` (j < i) are the projection
    coefficients, so b_i = b*_i + sum_j mu[i][j] b*_j holds exactly.
    """

    orthogonal: tuple
    mu: tuple

    def reconstruct_column(self, i: int) -> tuple:
        v = self.orthogonal[i]
        for j in range(i):
            v = vec_sub(v, vec_scale(self.orthogonal[j], -self.mu[i][j]))
        return v


def gram_schmidt(b: ExactMatrix) -> GramSchmidtData:
    cols = b.columns()
    ortho = []
    mus = []
    for i, v in enumerate(cols):
        row = []
        w = v
        for j in range(i):
            m_ij = dot(v, ortho[j]) / norm_sq(ortho[j])
            row.append(m_ij)
            w = vec_sub(w, vec_scale(ortho[j], m_ij))
        if norm_sq(w) == 0:
            raise RankError("linearly dependent columns")
        ortho.append(w)
        mus.append(tuple(row))
    return GramSchmidtData(tuple(ortho), tuple(mus))


def ref_is_size_reduced(b: ExactMatrix) -> bool:
    gs = gram_schmidt(b)
    return all(abs(gs.mu[i][j]) <= Fraction(1, 2) for i in range(b.ncols) for j in range(i))


def ref_satisfies_lovasz(b: ExactMatrix) -> bool:
    gs = gram_schmidt(b)
    for k in range(1, b.ncols):
        lhs = norm_sq(gs.orthogonal[k])
        rhs = (Fraction(3, 4) - gs.mu[k][k - 1] ** 2) * norm_sq(gs.orthogonal[k - 1])
        if lhs < rhs:
            return False
    return True


def ref_matmul(a: ExactMatrix, b: ExactMatrix) -> tuple:
    """Rows of a @ b, each entry a Fraction sum of Fraction products."""
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b.rows()))
        for row in a.rows()
    )


def ref_mul_vec(m: ExactMatrix, v) -> tuple:
    vf = [Fraction(x) for x in v]
    return tuple(sum(a * b for a, b in zip(row, vf)) for row in m.rows())


def as_mul_vec_types(m: ExactMatrix, v, w) -> tuple:
    """The Fraction reference w for m @ v, typed as ``mul_vec`` returns it.

    Python ints when every entry of m and v is an integer, so that their
    common denominator D e is 1; Fractions otherwise.
    """
    entries = [x for row in m.rows() for x in row] + [Fraction(x) for x in v]
    if all(x.denominator == 1 for x in entries):
        return tuple(int(x) for x in w)
    return w


def ref_typed_mul_vec(m: ExactMatrix, v) -> tuple:
    return as_mul_vec_types(m, v, ref_mul_vec(m, v))


def ref_inverse(m: ExactMatrix) -> ExactMatrix:
    """Gauss-Jordan elimination over Fraction."""
    if not m.is_square:
        raise RankError("inverse requires a square matrix")
    n = m.nrows
    aug = [list(m.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
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


def ref_determinant(m: ExactMatrix):
    """Gaussian elimination over Fraction; int for integer-valued results."""
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


def ref_lll(b: ExactMatrix) -> ExactMatrix:
    """LLL at delta = 3/4 with rational Gram-Schmidt recomputed after every swap."""
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
        if norm_sq(ortho[k]) >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norm_sq(ortho[k - 1]):
            k += 1
        else:
            cols[k], cols[k - 1] = cols[k - 1], cols[k]
            ortho, mu = gso()
            k = max(k - 1, 1)
    return ExactMatrix.from_columns(cols)


def ref_nearest_plane(b: ExactMatrix, u) -> tuple:
    """Babai's nearest plane on rational Gram-Schmidt vectors, rounding Fractions."""
    gs = gram_schmidt(b)
    rem = tuple(map(Fraction, u))
    for j in range(b.ncols - 1, -1, -1):
        c = round(dot(rem, gs.orthogonal[j]) / norm_sq(gs.orthogonal[j]))
        rem = vec_sub(rem, vec_scale(b.column(j), c))
    return vec_sub(u, rem)


def ref_typed_nearest_plane(b: ExactMatrix, u) -> tuple:
    """ref_nearest_plane typed as ``nearest_plane`` returns it: b @ c for integer coefficients c."""
    return as_mul_vec_types(b, (), ref_nearest_plane(b, u))


def ref_planes(b: ExactMatrix) -> list:
    """Each b*_j / ||b*_j||^2 as (integer vector, least common denominator)."""
    planes = []
    for v in gram_schmidt(b).orthogonal:
        h = vec_scale(v, 1 / norm_sq(v))
        q = math.lcm(*(x.denominator for x in h))
        planes.append(([int(x * q) for x in h], q))
    return planes


def ref_row_bound(b: ExactMatrix, target_reach: int) -> int:
    """Largest intermediate of the batched nearest plane on the reference planes.

    The a-priori bound :func:`intlat.nearest_plane_rows` must keep below
    2^63 for targets with entries up to target_reach.
    """
    reach, worst = max(target_reach, 1), 0
    for j, (a, q) in reversed(list(enumerate(ref_planes(b)))):
        dot_bound = reach * sum(abs(x) for x in a)
        reach += (dot_bound // q + 1) * max(abs(int(x)) for x in b.column(j))
        worst = max(worst, dot_bound, reach, 2 * q)
    return worst


def ref_box_bounds(b: ExactMatrix, center, radius) -> list:
    """Coefficient box of :func:`intlat.box_points` from the Fraction inverse and Fraction slacks."""
    inv = ref_inverse(b)
    zc = ref_mul_vec(inv, center)
    radius = Fraction(radius)
    bounds = []
    for i in range(b.nrows):
        slack = sqrt_upper_bound(norm_sq(inv.row(i))) * radius
        bounds.append((math.floor(zc[i] - slack), math.ceil(zc[i] + slack)))
    return bounds


def ref_integral_image(m: ExactMatrix, v) -> tuple:
    w = ref_mul_vec(m, v)
    if any(x.denominator != 1 for x in w):
        raise ValueError("not an integer vector")
    return tuple(int(x) for x in w)


def ref_relative_error_holds(cert, v) -> bool:
    vf = [Fraction(x) for x in v]
    w = [Fraction(x, cert.T) for x in ref_integral_image(cert.sigma, v)]
    return norm_sq(vec_sub(w, vf)) <= cert.epsilon**2 * norm_sq(vf)


def outcome(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except (ValueError, RankError, MembershipError) as exc:
        return type(exc)


def same(got, want) -> bool:
    """Equal values of the same types, entry by entry for tuples."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(same, got, want))
    return type(got) is type(want) and got == want


# -- strategies ---------------------------------------------------------------------


def square(n: int, entries) -> st.SearchStrategy:
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).map(
        ExactMatrix
    )


small_ints = st.integers(-6, 6)
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)
dims = st.integers(1, 4)
integer_matrices = dims.flatmap(lambda n: square(n, small_ints))
any_matrices = dims.flatmap(lambda n: square(n, st.one_of(small_ints, rationals)))
# Mostly zeros, so the elimination often has to swap rows to find a pivot.
sparse_matrices = dims.flatmap(lambda n: square(n, st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])))


@st.composite
def nonsingular_integer(draw, lo=2, hi=4, bound=6):
    n = draw(st.integers(lo, hi))
    b = draw(square(n, st.integers(-bound, bound)))
    assume(ref_determinant(b) != 0)
    return b


# -- determinant and inverse ---------------------------------------------------------


@PROPS
@given(st.one_of(integer_matrices, any_matrices, sparse_matrices))
def test_determinant_and_inverse_match_gauss_jordan(m):
    assert same(determinant(m), ref_determinant(m))
    assert outcome(m.inverse) == outcome(ref_inverse, m)


@PROPS
@given(dims.flatmap(lambda n: st.tuples(square(n, st.one_of(small_ints, rationals)), st.integers(0, n - 1))))
def test_singular_matrices_raise(params):
    m, j = params
    # Repeat a column, so the matrix is singular whatever its entries.
    rows = [list(r) for r in m.rows()]
    for r in rows:
        r[j] = r[(j + 1) % len(r)] if len(r) > 1 else 0
    m = ExactMatrix(rows)
    assert determinant(m) == 0 and type(determinant(m)) is int
    with pytest.raises(RankError):
        m.inverse()
    with pytest.raises(RankError):
        m.solve((0,) * m.ncols)
    with pytest.raises(RankError):
        membership(m, (0,) * m.ncols)


def test_non_square_raises():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    for f in (m.inverse, lambda: determinant(m), lambda: m.solve((1, 2)), lambda: membership(m, (1, 2))):
        with pytest.raises(RankError):
            f()


# -- solve, membership and coefficients ------------------------------------------------


@PROPS
@given(any_matrices, st.data())
def test_solve_mul_vec_membership_and_coefficients_match(m, data):
    assume(ref_determinant(m) != 0)
    n = m.ncols
    inv = ref_inverse(m)
    vecs = [
        data.draw(st.lists(small_ints, min_size=n, max_size=n)),
        data.draw(st.lists(rationals, min_size=n, max_size=n)),
        list(ref_mul_vec(m, data.draw(st.lists(small_ints, min_size=n, max_size=n)))),
    ]
    for v in vecs:
        x = ref_mul_vec(inv, v)
        assert same(m.solve(v), x)
        assert same(m.mul_vec(v), ref_typed_mul_vec(m, v))
        on_lattice = all(c.denominator == 1 for c in x)
        assert membership(m, v) is on_lattice
        if on_lattice:
            assert same(coefficients_in_basis(m, v), tuple(int(c) for c in x))
        else:
            with pytest.raises(MembershipError):
                coefficients_in_basis(m, v)


# -- products and vector integer forms ---------------------------------------------

shapes = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
# Integer entries only, rationals only (unit denominators included), or a mix.
entry_kinds = st.sampled_from([small_ints, rationals, st.one_of(small_ints, rationals)])


def rect(nrows: int, ncols: int, entries) -> st.SearchStrategy:
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows).map(
        ExactMatrix
    )


@PROPS
@given(shapes, entry_kinds, entry_kinds, st.data())
def test_matmul_matches_fraction_product(shape, kind_a, kind_b, data):
    r, k, c = shape
    a = data.draw(rect(r, k, kind_a))
    b = data.draw(rect(k, c, kind_b))
    got = a @ b
    assert (got.nrows, got.ncols) == (r, c)
    assert same(got.rows(), ref_matmul(a, b))
    assert got == ExactMatrix(ref_matmul(a, b))


def test_matmul_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ExactMatrix([[1, 2, 3]]) @ ExactMatrix([[1, 2]])


def plain(v) -> list:
    """v with numpy integers and bools as Python ints, the way the reference reads them."""
    return [int(x) if isinstance(x, (bool, np.integer)) else x for x in v]


def ref_vec_integer_form(v) -> tuple:
    f = [Fraction(x) for x in plain(v)]
    e = math.lcm(*(x.denominator for x in f))
    return e, tuple(int(x * e) for x in f)


def vectors_of(n: int) -> st.SearchStrategy:
    """Length-n vectors of Python ints, Fractions, numpy int64 past 2^31, bools or a mix of all."""
    big = st.integers(-(2**62), 2**62)
    fracs = st.builds(Fraction, st.integers(-80, 80), st.integers(1, 8))
    return st.one_of(
        st.lists(st.integers(-(2**70), 2**70), min_size=n, max_size=n),
        st.lists(fracs, min_size=n, max_size=n),
        st.lists(big, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.one_of(small_ints, fracs, big.map(np.int64), st.booleans()), min_size=n, max_size=n),
    )


@PROPS
@given(any_matrices, st.data())
def test_vec_integer_form_mul_vec_and_solve_on_every_input_type(m, data):
    n = m.ncols
    for _ in range(4):
        v = data.draw(vectors_of(n))
        e, w = vec_integer_form(v)
        assert same((e, tuple(w)), ref_vec_integer_form(v))
        assert same(m.mul_vec(v), ref_typed_mul_vec(m, plain(v)))
        if ref_determinant(m) != 0:
            assert same(m.solve(v), ref_mul_vec(ref_inverse(m), plain(v)))


def test_solve_rejects_wrong_length():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ExactMatrix([[2, 1], [0, 1]]).solve((1, 2, 3))


# -- the canonical integer form ------------------------------------------------------


def fraction_rows(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def assert_canonical(m: ExactMatrix, want: tuple) -> None:
    """m holds (D, D m) in lowest terms and reads back as the Fraction rows want."""
    den, ints = m.integer_form()
    assert type(den) is int and den > 0
    assert all(type(x) is int for row in ints for x in row)
    assert math.gcd(den, *(x for row in ints for x in row)) == 1
    # Entry access before rows(): both build the Fraction rows on first use.
    assert all(same(m[i, j], want[i][j]) for i in range(len(want)) for j in range(len(want[0])))
    assert same(m.rows(), want)
    assert ints == tuple(tuple(int(x * den) for x in row) for row in want)


def routes(rows: list) -> list:
    """The matrix of the given entries, built by every construction route."""
    base = ExactMatrix(rows)
    n, k = base.nrows, base.ncols
    out = [
        base,
        ExactMatrix(fraction_rows(rows)),
        ExactMatrix([[str(Fraction(x)) for x in row] for row in rows]),
        ExactMatrix.identity(n) @ base @ ExactMatrix.identity(k),
        base.transpose().transpose(),
        ExactMatrix.from_columns(base.columns()),
        base.scale(Fraction(3, 7)).scale(Fraction(7, 3)),
        base.scale(-1).scale(-1),
    ]
    if all(Fraction(x).denominator == 1 for row in rows for x in row):
        out.append(ExactMatrix(np.array([[int(x) for x in row] for row in rows], dtype=np.int64)))
    if n == k and ref_determinant(base) != 0:
        out.append(ExactMatrix(rows).inverse().inverse())
    return out


@PROPS
@given(shapes, entry_kinds, entry_kinds, st.data())
def test_every_route_gives_the_canonical_integer_form(shape, kind_a, kind_b, data):
    r, k, c = shape
    rows = data.draw(st.lists(st.lists(kind_a, min_size=k, max_size=k), min_size=r, max_size=r))
    other = data.draw(rect(k, c, kind_b))
    want = fraction_rows(rows)
    built = routes(rows)
    for m in built:
        assert_canonical(m, want)
        assert m == built[0] and hash(m) == hash(built[0])
        assert repr(m) == repr(built[0])
        assert m.is_integer() is all(x.denominator == 1 for row in want for x in row)
    # Every result of arithmetic is canonical too, and equals its Fraction reference.
    a = ExactMatrix(rows)
    cst = data.draw(st.one_of(small_ints, rationals))
    results = [
        (a @ other, ref_matmul(a, other)),
        (a.transpose(), tuple(zip(*want))),
        (a.scale(cst), tuple(tuple(cst * x for x in row) for row in want)),
    ]
    if r == k and ref_determinant(a) != 0:
        results.append((a.inverse(), ref_inverse(a).rows()))
    for got, ref in results:
        assert_canonical(got, fraction_rows(ref))
        assert got == ExactMatrix(ref) and hash(got) == hash(ExactMatrix(ref))


def test_numpy_integer_entries_do_not_wrap_past_int64():
    a = ExactMatrix(np.array([[2**40, 1], [0, 1]]))
    assert (a @ a)[0, 0] == 2**80
    assert a @ a == ExactMatrix([[2**80, 2**40 + 1], [0, 1]])
    got = determinant(ExactMatrix(np.array([[2**40, 3], [5, 2**40]])))
    assert same(got, 2**80 - 15)
    b = ExactMatrix(np.array([[True, False], [np.int32(3), np.uint8(4)]], dtype=object))
    assert_canonical(b, fraction_rows([[1, 0], [3, 4]]))


# -- LLL -------------------------------------------------------------------------------

@PROPS
@given(nonsingular_integer())
def test_lll_matches_recompute_on_swap_reference(b):
    got = lll_reduce(b)
    assert got == ref_lll(b)
    assert got.is_integer()


@PROPS
@given(nonsingular_integer(lo=2, hi=3, bound=40))
def test_lll_matches_reference_on_skewed_bases(b):
    # Larger entries mean more swaps and deeper integral updates.
    assert lll_reduce(b) == ref_lll(b)


@pytest.mark.parametrize(
    "second, reduced",
    [
        # mu = 1/2 and -1/2 round to 0 (ties to even): no size reduction.
        ((1, 5), (1, 5)),
        ((-1, 5), (-1, 5)),
        # mu = 3/2 and -3/2 round to 2 and -2.
        ((3, 5), (-1, 5)),
        ((-3, 5), (1, 5)),
        # mu = 5/2 rounds to 2, not 3.
        ((5, 5), (1, 5)),
    ],
)
def test_lll_rounds_half_to_even(second, reduced):
    b = ExactMatrix.from_columns([(2, 0), second])
    got = lll_reduce(b)
    assert got == ref_lll(b)
    assert got == ExactMatrix.from_columns([(2, 0), reduced])


def test_lll_rejects_dependent_columns():
    with pytest.raises(RankError, match="linearly dependent"):
        lll_reduce(ExactMatrix([[1, 2], [2, 4]]))


# -- Babai nearest plane ---------------------------------------------------------------

def targets_of(n: int) -> st.SearchStrategy:
    """Target vectors of length n with denominators 1 to 8."""
    entry = st.builds(Fraction, st.integers(-80, 80), st.integers(1, 8))
    return st.lists(entry, min_size=n, max_size=n)


@st.composite
def basis_and_targets(draw, bound=6):
    """A basis with 1-4 columns and as many or one more rows, integer or rational, and targets."""
    ncols = draw(st.integers(1, 4))
    nrows = ncols + draw(st.sampled_from([0, 1]))
    entries = draw(st.sampled_from([st.integers(-bound, bound), st.one_of(small_ints, rationals)]))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    return ExactMatrix(rows), draw(st.lists(targets_of(nrows), min_size=1, max_size=6))


@PROPS
@given(basis_and_targets())
def test_nearest_plane_matches_fraction_reference(bt):
    b, targets = bt
    for u in targets:
        assert same(outcome(nearest_plane, b, u), outcome(ref_typed_nearest_plane, b, u))


@PROPS
@given(nonsingular_integer(lo=2, hi=4, bound=40), st.data())
def test_nearest_plane_matches_reference_on_skewed_bases(b, data):
    # Unreduced bases with large entries give large coefficients and deep updates.
    for u in data.draw(st.lists(targets_of(b.nrows), min_size=1, max_size=4)):
        assert same(nearest_plane(b, u), ref_typed_nearest_plane(b, u))


@pytest.mark.parametrize(
    "rows, target, point",
    [
        # On I_2, mu = (1/2, 3/2) and (-1/2, -3/2): ties go to the even integer.
        ([[1, 0], [0, 1]], ("1/2", "3/2"), (0, 2)),
        ([[1, 0], [0, 1]], ("-1/2", "-3/2"), (0, -2)),
        # b*_1 = (0, 1): mu_1 = 3/2 rounds to 2, which leaves mu_0 = -1/2, rounded to 0.
        ([[2, 1], [0, 1]], ("1", "3/2"), (2, 2)),
        # mu_1 = +-1/2 rounds to 0, then mu_0 = 3/2, -3/2 and 5/2 round to 2, -2 and 2.
        ([[2, 1], [0, 1]], ("3", "1/2"), (4, 0)),
        ([[2, 1], [0, 1]], ("-3", "-1/2"), (-4, 0)),
        ([[2, 1], [0, 1]], ("5", "1/2"), (4, 0)),
        # A rational basis: mu = (1/2, 3/2).
        ([["1/2", 0], [0, "1/3"]], ("1/4", "1/2"), (0, "2/3")),
        # A 3x2 basis: mu = (3/2, -1/2); the component off the span is dropped.
        ([[1, 0], [0, 1], [0, 0]], ("3/2", "-1/2", "7"), (2, 0, 0)),
    ],
)
def test_nearest_plane_rounds_half_to_even(rows, target, point):
    b = ExactMatrix(rows)
    u = tuple(map(Fraction, target))
    got = nearest_plane(b, u)
    assert same(got, ref_typed_nearest_plane(b, u))
    assert got == tuple(map(Fraction, point))


@pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[1, 0], [0, 0]], [[1, 0, 1], [0, 1, 1]]])
def test_nearest_plane_rejects_dependent_columns(rows):
    b = ExactMatrix(rows)
    u = (Fraction(1, 3),) * b.nrows
    for f in (nearest_plane, ref_nearest_plane):
        with pytest.raises(RankError, match="linearly dependent"):
            f(b, u)


def test_nearest_plane_rejects_wrong_length():
    with pytest.raises(ValueError, match="dimension mismatch"):
        nearest_plane(ExactMatrix([[2, 1], [0, 1]]), (1, 2, 3))


def test_babai_and_cvp_build_no_fraction_gram_schmidt():
    for module in (intlat, latdft):
        assert not hasattr(module, "gram_schmidt") and not hasattr(module, "GramSchmidtData")
    b = lll_reduce(ExactMatrix([[7, 3, 1], [2, 9, 4], [1, 5, 8]]))
    u = (Fraction(17, 3), Fraction(-5, 2), Fraction(11, 8))
    babai = ref_nearest_plane(b, u)
    best = brute_force_cvp(b, u, 6)
    assert nearest_plane(b, u) == babai
    assert cvp_exact(b, u) == best
    assert best.dist_sq <= norm_sq(vec_sub(u, babai))


def test_nearest_plane_rows_guard_trips_where_reference_bound_reaches_int64():
    # The integral planes must be the least ones: any larger a_j / q_j pair
    # gives a larger a-priori bound and trips the guard earlier.
    bases = [
        ExactMatrix([[2, 1], [0, 1]]),
        lll_reduce(ExactMatrix([[7, 3, 1], [2, 9, 4], [1, 5, 8]])),
        lll_reduce(intlat.dual_basis(ExactMatrix([[130817, 3, 5], [0, 1, 0], [0, 0, 1]])).scale(130817)),
    ]
    for b in bases:
        lo, hi = 0, 2**62  # the bound stays below 2^63 at lo and reaches it at hi
        assert ref_row_bound(b, lo) < 2**63 <= ref_row_bound(b, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if ref_row_bound(b, mid) >= 2**63 else (mid, hi)
        with pytest.raises(SizeGuardError):
            nearest_plane_rows(b, np.array([[hi] + [0] * (b.ncols - 1)], dtype=np.int64))
        target = [lo] + [0] * (b.ncols - 1)
        got = nearest_plane_rows(b, np.array([target], dtype=np.int64))
        assert got.tolist() == [[int(x) for x in ref_nearest_plane(b, target)]]


class TestGramSchmidt:
    def test_exact_orthogonality_and_reconstruction(self):
        rng = random.Random(8)
        checked = 0
        while checked < 10:
            b = ExactMatrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
            if determinant(b) == 0:
                continue
            gs = gram_schmidt(b)
            for i in range(3):
                for j in range(i):
                    assert sum(a * c for a, c in zip(gs.orthogonal[i], gs.orthogonal[j])) == 0
                assert gs.reconstruct_column(i) == b.column(i)
            checked += 1

    def test_dependent_columns(self):
        with pytest.raises(RankError):
            gram_schmidt(ExactMatrix([[1, 2], [2, 4]]))


# -- enumeration boxes ---------------------------------------------------------------


@PROPS
@given(basis_and_targets(), st.data())
def test_box_points_bounds_match_fraction_formula(bt, data):
    b, centres = bt
    assume(b.is_square and ref_determinant(b) != 0)
    radii = st.one_of(
        st.fractions(min_value=0, max_value=6, max_denominator=9),
        st.integers(0, 6),
        st.floats(min_value=0, max_value=6, allow_nan=False),
    )
    n = b.ncols
    centres = centres + [data.draw(st.lists(small_ints, min_size=n, max_size=n))]
    with mock.patch.object(intlat, "lex_box", lambda bounds: bounds):
        for centre in centres:
            radius = data.draw(radii)
            assert box_points(b, centre, radius) == ref_box_bounds(b, centre, radius)


# -- size-reduction and Lovasz oracles ---------------------------------------------------

oracle_bases = st.one_of(
    nonsingular_integer(lo=1, hi=4, bound=9),
    nonsingular_integer(lo=1, hi=4, bound=9).map(lll_reduce),
    # Integer or rational, square or with one more row, dependent columns included.
    basis_and_targets().map(lambda bt: bt[0]),
)


@PROPS
@given(oracle_bases)
def test_reduction_oracles_match_fraction_reference(b):
    assert same(outcome(is_size_reduced, b), outcome(ref_is_size_reduced, b))
    assert same(outcome(satisfies_lovasz, b), outcome(ref_satisfies_lovasz, b))


@pytest.mark.parametrize(
    "cols, reduced",
    [
        # |mu_10| = 1/2 exactly is size-reduced; 3/2 is not.
        ([(2, 0), (1, 5)], True),
        ([(2, 0), (-1, 5)], True),
        ([(2, 0), (3, 5)], False),
        ([("1/2", 0), ("1/4", "1/3")], True),
        # mu_10 = 1/2, mu_20 = -1/2 and mu_21 = 1/2, then 3/2.
        ([(2, 0, 0), (1, 2, 0), (-1, 1, 3)], True),
        ([(2, 0, 0), (1, 2, 0), (-1, 3, 3)], False),
    ],
)
def test_size_reduced_boundary(cols, reduced):
    b = ExactMatrix.from_columns(cols)
    assert is_size_reduced(b) is reduced
    assert ref_is_size_reduced(b) is reduced


@pytest.mark.parametrize(
    "cols, holds",
    [
        # ||b*_1||^2 >= (3/4 - mu^2) ||b_0||^2 at mu = 1/2 is ||b*_1||^2 >= ||b_0||^2 / 2: equality holds.
        ([(2, 0, 0), (1, 1, 1)], True),
        ([(2, 0, 0), (1, 1, 0)], False),
        ([(4, 0, 0), (2, 2, 2)], True),
        ([(4, 0, 0), (2, 2, 1)], False),
        ([(1, 0, 0), ("1/2", "1/2", "1/2")], True),
        # The second pair fails: mu_21 = 1/2 and ||b*_2||^2 = 1 < 2 = ||b*_1||^2 / 2.
        ([(1, 0, 0), (0, 2, 0), (0, 1, 1)], False),
    ],
)
def test_lovasz_boundary(cols, holds):
    b = ExactMatrix.from_columns(cols)
    assert satisfies_lovasz(b) is holds
    assert ref_satisfies_lovasz(b) is holds


# -- reduction certificate ---------------------------------------------------------------


@st.composite
def certificate_and_vectors(draw):
    b = draw(nonsingular_integer(lo=2, hi=3, bound=9))
    eps = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 16), Fraction(3, 64)]))
    cert = reduce_to_sysnf(b, eps)
    n = b.ncols
    coeffs = st.lists(st.integers(-50, 50), min_size=n, max_size=n)
    on_lattice = [b.mul_vec(c) for c in draw(st.lists(coeffs, min_size=1, max_size=5))]
    integral = [tuple(c) for c in draw(st.lists(coeffs, min_size=1, max_size=5))]
    rational = [tuple(v) for v in draw(st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=4))]
    # sigma^-1 of an integer vector: a rational v whose sigma image is integral.
    pulled = [ref_mul_vec(cert.sigma_inverse, w) for w in integral]
    return cert, on_lattice + integral + rational + pulled


@PROPS
@given(certificate_and_vectors())
def test_certificate_checks_match_fraction_reference(cv):
    cert, vectors = cv
    assert cert.sigma_inverse == ref_inverse(cert.sigma)
    for v in vectors:
        assert same(outcome(cert.apply_sigma, v), outcome(ref_integral_image, cert.sigma, v))
        assert same(
            outcome(cert.apply_sigma_inverse, v), outcome(ref_integral_image, cert.sigma_inverse, v)
        )
        assert same(outcome(cert.relative_error_holds, v), outcome(ref_relative_error_holds, cert, v))
        if outcome(ref_integral_image, cert.sigma, v) is ValueError or not any(v):
            continue
        # Epsilons just above and just below this vector's own relative error.
        vf = [Fraction(x) for x in v]
        w = [Fraction(x, cert.T) for x in ref_integral_image(cert.sigma, v)]
        ratio = norm_sq(vec_sub(w, vf)) / norm_sq(vf)
        above = sqrt_upper_bound(ratio)
        for eps in (above, above * Fraction(1023, 1024)):
            tight = replace(cert, epsilon=eps)
            assert tight.relative_error_holds(v) is ref_relative_error_holds(tight, v)
        assert replace(cert, epsilon=above).relative_error_holds(v)


# -- integer results on integer input ------------------------------------------------


@PROPS
@given(shapes, entry_kinds, st.data())
def test_mul_vec_returns_ints_exactly_at_unit_denominator(shape, kind, data):
    r, k, _ = shape
    m = data.draw(rect(r, k, kind))
    for _ in range(4):
        v = data.draw(vectors_of(k))
        got = m.mul_vec(v)
        want = ref_mul_vec(m, plain(v))
        unit = math.lcm(*(x.denominator for row in m.rows() for x in row)) * ref_vec_integer_form(v)[0] == 1
        assert {type(x) for x in got} == {int if unit else Fraction}
        assert got == want


def test_mul_vec_keeps_fractions_for_integral_values_at_larger_denominator():
    got = ExactMatrix([[Fraction(1, 2), 0], [0, 1]]).mul_vec((2, 3))
    assert same(got, (Fraction(1), Fraction(3)))
    assert same(ExactMatrix([[2, 1], [0, 1]]).mul_vec((Fraction(1), Fraction(2))), (4, 2))


@PROPS
@given(nonsingular_integer(lo=1, hi=3, bound=9), st.data())
def test_babai_and_cvp_points_are_ints_on_integer_bases(b, data):
    red = lll_reduce(b)
    n = b.nrows
    for u in data.draw(st.lists(targets_of(n), min_size=1, max_size=3)) + [[3] * n]:
        babai, best = nearest_plane(red, u), cvp_exact(red, u).point
        assert all(type(x) is int for x in babai + best)
        assert babai == ref_nearest_plane(red, u)


@PROPS
@given(certificate_and_vectors())
def test_certificate_maps_agree_on_int_and_fraction_vectors(cv):
    cert, vectors = cv
    bprime = cert.basis.to_matrix()
    integral = [v for v in vectors if all(Fraction(x).denominator == 1 for x in v)]
    # One entry too many: the dimension check must fire on both types.
    integral.append(tuple(integral[0]) + (1,))
    for v in integral:
        ints = tuple(int(x) for x in v)
        fracs = tuple(map(Fraction, v))
        for f in (cert.apply_sigma, cert.relative_error_holds, lambda w: membership(bprime, w)):
            assert same(outcome(f, ints), outcome(f, fracs))
