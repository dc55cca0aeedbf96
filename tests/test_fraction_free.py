"""The fraction-free kernels against the Fraction algorithms they replaced.

``intlat`` inverts, solves and takes determinants through one Bareiss pass on
the integer form of a matrix, runs LLL and Babai's nearest plane on integral
Gram-Schmidt data, and ``ReductionCertificate`` checks sigma and its error
bound in integers.  The references below are the Fraction Gauss-Jordan
elimination, the LLL that recomputes rational Gram-Schmidt after every swap
and the nearest plane that rounds Fraction projections on rational
Gram-Schmidt vectors; every property asserts exact equality, types included,
against them.  Derandomized.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latdft import intlat
from latdft.errors import MembershipError, RankError
from latdft.intlat import (
    ExactMatrix,
    as_fraction_vec,
    brute_force_cvp,
    coefficients_in_basis,
    cvp_exact,
    determinant,
    dot,
    gram_schmidt,
    lll_reduce,
    membership,
    nearest_plane,
    norm_sq,
    sqrt_upper_bound,
    vec_scale,
    vec_sub,
)
from latdft.sysnf import reduce_to_sysnf

PROPS = settings(derandomize=True, deadline=None, max_examples=30)


# -- Fraction references ----------------------------------------------------------


def ref_mul_vec(m: ExactMatrix, v) -> tuple:
    vf = [Fraction(x) for x in v]
    return tuple(sum(a * b for a, b in zip(row, vf)) for row in m.rows())


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


def ref_lll(b: ExactMatrix, delta=Fraction(3, 4)) -> ExactMatrix:
    """LLL with rational Gram-Schmidt recomputed after every swap."""
    delta = Fraction(delta)
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


def ref_nearest_plane(b: ExactMatrix, u) -> tuple:
    """Babai's nearest plane on rational Gram-Schmidt vectors, rounding Fractions."""
    gs = gram_schmidt(b)
    rem = as_fraction_vec(u)
    for j in range(b.ncols - 1, -1, -1):
        c = round(dot(rem, gs.orthogonal[j]) / norm_sq(gs.orthogonal[j]))
        rem = vec_sub(rem, vec_scale(b.column(j), c))
    return vec_sub(as_fraction_vec(u), rem)


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
        assert same(m.mul_vec(v), ref_mul_vec(m, v))
        on_lattice = all(c.denominator == 1 for c in x)
        assert membership(m, v) is on_lattice
        if on_lattice:
            assert same(coefficients_in_basis(m, v), tuple(int(c) for c in x))
        else:
            with pytest.raises(MembershipError):
                coefficients_in_basis(m, v)


def test_solve_rejects_wrong_length():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ExactMatrix([[2, 1], [0, 1]]).solve((1, 2, 3))


# -- LLL -------------------------------------------------------------------------------

deltas = st.sampled_from([Fraction(3, 4), Fraction(99, 100), Fraction(1), Fraction(1, 3)])


@PROPS
@given(nonsingular_integer(), deltas)
def test_lll_matches_recompute_on_swap_reference(b, delta):
    got = lll_reduce(b, delta)
    assert got == ref_lll(b, delta)
    assert got.is_integer()


@PROPS
@given(nonsingular_integer(lo=2, hi=3, bound=40), deltas)
def test_lll_matches_reference_on_skewed_bases(b, delta):
    # Larger entries mean more swaps and deeper integral updates.
    assert lll_reduce(b, delta) == ref_lll(b, delta)


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
        assert same(outcome(nearest_plane, b, u), outcome(ref_nearest_plane, b, u))


@PROPS
@given(nonsingular_integer(lo=2, hi=4, bound=40), st.data())
def test_nearest_plane_matches_reference_on_skewed_bases(b, data):
    # Unreduced bases with large entries give large coefficients and deep updates.
    for u in data.draw(st.lists(targets_of(b.nrows), min_size=1, max_size=4)):
        assert same(nearest_plane(b, u), ref_nearest_plane(b, u))


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
    u = as_fraction_vec(target)
    got = nearest_plane(b, u)
    assert same(got, ref_nearest_plane(b, u))
    assert got == as_fraction_vec(point)


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


def test_babai_and_cvp_build_no_fraction_gram_schmidt(monkeypatch):
    b = lll_reduce(ExactMatrix([[7, 3, 1], [2, 9, 4], [1, 5, 8]]))
    u = (Fraction(17, 3), Fraction(-5, 2), Fraction(11, 8))
    babai = ref_nearest_plane(b, u)
    best = brute_force_cvp(b, u, 6)

    def refuse(_):
        raise AssertionError("Fraction Gram-Schmidt built on the decode path")

    monkeypatch.setattr(intlat, "gram_schmidt", refuse)
    assert nearest_plane(b, u) == babai
    assert cvp_exact(b, u) == best
    assert best.dist_sq <= norm_sq(vec_sub(u, babai))


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
