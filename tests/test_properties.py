"""Property tests of the shared enumeration core, the int64 row kernels, the
Voronoi-cell test and the canonical L_N order.

Derandomized, so every run draws the same examples.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latdft import intlat
from latdft.errors import SizeGuardError
from latdft.intlat import (
    ExactMatrix,
    box_points,
    brute_force_cvp,
    cvp_exact,
    determinant,
    in_voronoi_cell,
    integral_rows,
    lll_reduce,
    nearest_plane,
    nearest_plane_rows,
    norm_sq,
    scaled_offsets,
    sqrt_upper_bound,
    vec_sub,
    voronoi_relevant,
)
from latdft.sysnf import ModVector, SysNFBasis, ln_index, ln_membership, ln_points

PROPS = settings(derandomize=True, deadline=None, max_examples=30)

coords = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@st.composite
def basis_and_centre(draw):
    n = draw(st.integers(2, 3))
    entry = st.integers(-5, 5)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    b = ExactMatrix(rows)
    assume(determinant(b) != 0)
    return b, tuple(draw(st.lists(coords, min_size=n, max_size=n)))


def _padded_ball(b: ExactMatrix, centre, radius: Fraction) -> dict:
    """Exact squared distance of every lattice point within radius of centre, by coefficients.

    The coefficient box comes from a float inverse, padded by 2 on each side;
    distances are exact Fractions.
    """
    binv = np.linalg.inv(np.array([[float(x) for x in row] for row in b.rows()]))
    zc = binv @ np.array([float(c) for c in centre])
    half = np.linalg.norm(binv, axis=1) * float(radius) + 2
    axes = [range(math.floor(c - h), math.ceil(c + h) + 1) for c, h in zip(zc, half)]
    inside = {}
    for z in itertools.product(*axes):
        d = norm_sq(vec_sub(b.mul_vec(z), centre))
        if d <= radius * radius:
            inside[z] = d
    return inside


@PROPS
@given(basis_and_centre(), st.fractions(min_value=0, max_value=4, max_denominator=4))
def test_box_points_covers_ball(bc, radius):
    b, centre = bc
    box = box_points(b, centre, radius)
    assert box.dtype == np.int64
    rows = [tuple(z) for z in box.tolist()]
    assert rows == sorted(rows)
    assert set(_padded_ball(b, centre, radius)) <= set(rows)


@PROPS
@given(basis_and_centre())
def test_cvp_exact_matches_brute_force(bc):
    b, u = bc
    red = lll_reduce(b)
    # 0 is a lattice point, so the closest vector v has ||v|| <= 2 ||u||.
    binv = np.linalg.inv(np.array([[float(x) for x in row] for row in red.rows()]))
    u_norm = math.sqrt(sum(float(c) ** 2 for c in u))
    bound = math.ceil(2 * u_norm * np.linalg.norm(binv, axis=1).max()) + 1
    assume(bound <= 12)
    best = cvp_exact(red, u)
    assert best == brute_force_cvp(red, u, bound)
    # Independent check in Fractions: nothing closer, ties to the smallest coefficients.
    ball = _padded_ball(red, u, sqrt_upper_bound(best.dist_sq))
    assert min(ball.values()) == best.dist_sq
    z_best = min(z for z, d in ball.items() if d == best.dist_sq)
    assert best.point == red.mul_vec(z_best)


@PROPS
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.integers(1, 12 if n <= 3 else 6),
            st.lists(st.integers(-20, 20), min_size=n - 1, max_size=n - 1),
        )
    )
)
def test_ln_points_order_membership_and_index(params):
    big_n, b = params
    s = SysNFBasis(big_n, tuple(b))
    pts = ln_points(s)
    assert pts.shape == (big_n ** (s.n - 1), s.n) and pts.dtype == np.int64
    tails = [tuple(t) for t in pts[:, 1:].tolist()]
    assert tails == list(itertools.product(range(big_n), repeat=s.n - 1))
    assert all(ln_membership(s, ModVector(big_n, tuple(p))) for p in pts.tolist())
    assert np.array_equal(ln_index(s, pts[:, 1:]), np.arange(len(pts)))


@PROPS
@given(basis_and_centre(), st.integers(1, 60))
def test_box_guard_raises_before_allocating(bc, guard):
    b, centre = bc
    radius = Fraction(3)
    count = len(box_points(b, centre, radius))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlat, "BOX_GUARD", guard)
        if count > guard:
            with pytest.raises(SizeGuardError):
                box_points(b, centre, radius)
        else:
            assert len(box_points(b, centre, radius)) == count


def test_box_guard_stops_oracles(monkeypatch):
    monkeypatch.setattr(intlat, "BOX_GUARD", 8)
    b = ExactMatrix([[3, 1], [1, 2]])
    with pytest.raises(SizeGuardError):
        brute_force_cvp(b, (Fraction(1, 2), 0), 2)
    with pytest.raises(SizeGuardError):
        intlat.lambda1_sq(ExactMatrix([[1, 0], [0, 5]]))


def test_int64_guards():
    huge = 2**40
    b = ExactMatrix([[huge, 0], [0, huge]])
    z = box_points(b, (0, 0), 2 * huge)
    with pytest.raises(SizeGuardError):
        scaled_offsets(b, z, (0, 0))
    with pytest.raises(SizeGuardError):
        box_points(ExactMatrix.identity(2), (10**30, 0), 1)


reduced_basis = basis_and_centre().map(lambda bc: lll_reduce(bc[0]))


def _int_rows(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=12)


def _scalar_decode(b, targets):
    return [[int(x) for x in nearest_plane(b, t)] for t in targets]


@PROPS
@given(reduced_basis, st.data())
def test_nearest_plane_rows_matches_scalar(b, data):
    entries = st.one_of(st.integers(-60, 60), st.integers(-(2**62), 2**62))
    targets = data.draw(_int_rows(b.ncols, entries))
    try:
        got = nearest_plane_rows(b, np.array(targets, dtype=np.int64))
    except SizeGuardError:
        assert max(abs(x) for t in targets for x in t) > 2**40  # small targets never trip it
        return
    assert got.dtype == np.int64
    assert got.tolist() == _scalar_decode(b, targets)


@PROPS
@given(reduced_basis, st.data())
def test_nearest_plane_rows_ties_round_half_even(b, data):
    # Against 2B the target B(2z + e_n) sits exactly half-way between two
    # planes of the last Gram-Schmidt vector, so the first rounding is a tie.
    zs = data.draw(_int_rows(b.ncols, st.integers(-20, 20)))
    tie_coeffs = [[2 * z for z in zz[:-1]] + [2 * zz[-1] + 1] for zz in zs]
    targets = [[int(x) for x in b.mul_vec(z)] for z in tie_coeffs]
    doubled = b.scale(2)
    got = nearest_plane_rows(doubled, np.array(targets, dtype=np.int64))
    assert got.tolist() == _scalar_decode(doubled, targets)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@PROPS
@given(
    st.integers(1, 3).flatmap(
        lambda c: st.tuples(
            st.lists(st.lists(rationals, min_size=c, max_size=c), min_size=1, max_size=3),
            _int_rows(c, st.integers(-30, 30)),
        )
    )
)
def test_integral_rows_matches_mul_vec(params):
    rows, zs = params
    m = ExactMatrix(rows)
    den = math.lcm(*(x.denominator for r in m.rows() for x in r))
    scaled = np.array(zs, dtype=np.int64) * den  # every image integral
    want = [[int(x) for x in m.mul_vec(z)] for z in scaled.tolist()]
    assert integral_rows(m, scaled).tolist() == want
    images = [m.mul_vec(z) for z in zs]
    if all(x.denominator == 1 for v in images for x in v):
        want = [[int(x) for x in v] for v in images]
        assert integral_rows(m, np.array(zs, dtype=np.int64)).tolist() == want
    else:
        with pytest.raises(ValueError, match="non-integral image"):
            integral_rows(m, np.array(zs, dtype=np.int64))


def test_row_kernel_int64_guards():
    with pytest.raises(SizeGuardError):  # 2 q_j = 2^63
        nearest_plane_rows(ExactMatrix([[2**62, 0], [0, 1]]), np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(SizeGuardError):  # |rem| could pass 2^63 after one step
        nearest_plane_rows(ExactMatrix.identity(2), np.array([[2**62, 0]], dtype=np.int64))
    with pytest.raises(SizeGuardError):  # one image sum reaches 2^63
        integral_rows(ExactMatrix([[2**62, 2**62]]), np.ones((1, 2), dtype=np.int64))
    with pytest.raises(SizeGuardError):  # the common denominator itself
        integral_rows(ExactMatrix([[Fraction(1, 2**63)]]), np.ones((1, 1), dtype=np.int64))


@st.composite
def reduced_basis_2_to_4(draw):
    n = draw(st.integers(2, 4))
    entry = st.integers(-3, 3)
    b = ExactMatrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(determinant(b) != 0)
    return lll_reduce(b)


def _brute_force_relevant(b: ExactMatrix) -> set:
    """Nonzero v with ||w||^2 > <w, v> for every lattice w other than 0 and v.

    Only w with ||w|| <= ||v|| can fail that (Cauchy-Schwarz), and every
    relevant v is a coset minimum of L / 2L, so ||v|| <= sum ||b_i|| = R:
    every lattice point of norm at most R is enumerated from a padded float
    coefficient box, and the definition is checked pairwise.
    """
    bf = np.array([[float(x) for x in row] for row in b.rows()])
    radius = sum(math.sqrt(float(norm_sq(col))) for col in b.columns())
    half = np.linalg.norm(np.linalg.inv(bf), axis=1) * radius + 2
    axes = [np.arange(-math.ceil(h), math.ceil(h) + 1) for h in half]
    assume(math.prod(len(a) for a in axes) <= 200_000)
    z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, b.ncols)
    pts = z @ np.array([[int(x) for x in row] for row in b.rows()], dtype=np.int64).T
    d = (pts * pts).sum(axis=1)
    pts, d = pts[d <= radius**2 + 1e-6], d[d <= radius**2 + 1e-6]
    gram = pts @ pts.T
    ok = (d[:, None] > gram) | (d[:, None] == 0) | np.eye(len(pts), dtype=bool)
    return {tuple(v) for v in pts[ok.all(axis=0) & (d > 0)].tolist()}


@PROPS
@given(reduced_basis_2_to_4())
def test_voronoi_relevant_matches_definition(b):
    rel = voronoi_relevant(b)
    assert rel.dtype == np.int64
    got = [tuple(v) for v in rel.tolist()]
    assert len(got) == len(set(got)) <= 2 * (2**b.ncols - 1)
    assert set(got) == _brute_force_relevant(b)


def test_voronoi_relevant_skips_cosets_with_several_minimal_pairs():
    # In Z^n the coset of a sum of k >= 2 unit vectors has 2^k minimal vectors.
    for n in (1, 2, 3):
        rel = voronoi_relevant(ExactMatrix.identity(n))
        assert sorted(map(tuple, rel.tolist())) == sorted(
            tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (-1, 1)
        )


def _cell_agrees_with_cvp(b: ExactMatrix, targets) -> None:
    got = in_voronoi_cell(voronoi_relevant(b), np.array(targets, dtype=np.int64))
    want = [cvp_exact(b, u).dist_sq == norm_sq(u) for u in targets]
    assert got.tolist() == want


@PROPS
@given(reduced_basis, st.data())
def test_voronoi_cell_matches_cvp(b, data):
    _cell_agrees_with_cvp(b, data.draw(_int_rows(b.ncols, st.integers(-8, 8))))


@PROPS
@given(reduced_basis, st.data())
def test_voronoi_cell_facet_ties(b, data):
    # Against 2B every point B z is half a vector of 2L, so the targets with
    # z a coset minimum of L / 2L lie exactly on a facet of the cell.
    zs = data.draw(_int_rows(b.ncols, st.integers(-2, 2)))
    _cell_agrees_with_cvp(b.scale(2), [[int(x) for x in b.mul_vec(z)] for z in zs])


def test_voronoi_cell_closed_at_a_tie():
    b = ExactMatrix([[2, 0], [0, 2]])
    assert cvp_exact(b, (1, 0)).dist_sq == 1  # 0 and (2, 0) are both closest
    rows = np.array([[1, 0], [1, 1], [0, -1], [2, 1], [0, 0]], dtype=np.int64)
    assert in_voronoi_cell(voronoi_relevant(b), rows).tolist() == [True, True, True, False, True]


def test_voronoi_cell_int64_guard():
    rel = voronoi_relevant(ExactMatrix.identity(2))
    assert in_voronoi_cell(rel, np.array([[2**30, 0]], dtype=np.int64)).tolist() == [False]
    with pytest.raises(SizeGuardError):  # 2 <u, v> bound 2 n |u|^2 = 2^64
        in_voronoi_cell(rel, np.array([[2**31, 0]], dtype=np.int64))
