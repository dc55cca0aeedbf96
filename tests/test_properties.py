"""Property tests of the shared enumeration core, the int64 row kernels, the
Voronoi-cell test, the canonical L_N order, the compressed lattice QFT, the
exact spectrum and smoothness defect of the lattice DFT, HNF, LLL, the
reduction certificate and the coset bijection phi3.

Derandomized, so every run draws the same examples.
"""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latdft import intlat, qcirc
from latdft.errors import ConditionError, ModulusMismatchError, SizeGuardError
from latdft.intlat import (
    ExactMatrix,
    box_points,
    brute_force_cvp,
    cvp_exact,
    determinant,
    hnf,
    in_voronoi_cell,
    integral_rows,
    is_hnf,
    is_size_reduced,
    lex_box,
    lll_reduce,
    membership,
    nearest_plane,
    nearest_plane_rows,
    norm_sq,
    satisfies_lovasz,
    scaled_offsets,
    sqrt_upper_bound,
    vec_sub,
    voronoi_relevant,
)
from latdft.dft import (
    LatticeFunction,
    dft_matrix,
    eigen_explore,
    full_grid_dft_restricted,
    smoothness_estimate,
)
from latdft.qcirc import lattice_qft_values, unshear_slabs
from latdft.sysnf import (
    SysNFBasis,
    enumerate_scaled_dual,
    ln_first,
    ln_index,
    ln_membership,
    ln_points,
    phi3,
    reduce_to_sysnf,
    scaled_dual_membership,
    validate,
)

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


@pytest.mark.parametrize(
    "bounds",
    [
        [(-2, 3)],
        [(4, 4)],
        [(-1, 1), (0, 2)],
        [(-3, -2), (5, 7), (0, 0)],
        [(0, 1), (-1, 1), (2, 3), (-2, 0)],
        # An empty axis empties the box, wherever it sits.
        [(1, 0)],
        [(0, 2), (3, 1)],
        [(-1, 1), (2, -5), (0, 3), (1, 1)],
    ],
)
def test_lex_box_matches_product_order(bounds):
    got = lex_box(bounds)
    want = list(itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)))
    assert got.dtype == np.int64 and got.shape == (len(want), len(bounds))
    assert got.tolist() == [list(z) for z in want]


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
    assert ln_membership(s, pts).all()
    assert np.array_equal(ln_index(s, pts[:, 1:]), np.arange(len(pts)))


@PROPS
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.integers(1, 30),
            st.lists(st.integers(-40, 40), min_size=n - 1, max_size=n - 1),
            st.lists(st.lists(st.integers(-100, 100), min_size=n, max_size=n), min_size=1, max_size=12),
        )
    )
)
def test_point_predicates_match_scalar_definitions(params):
    big_n, b, points = params
    s = SysNFBasis(big_n, tuple(b))
    basis = s.to_matrix()
    member = ln_membership(s, points)
    dual = scaled_dual_membership(s, points)
    assert member.shape == dual.shape == (len(points),)
    for p, m, d in zip(points, member, dual):
        assert m == ((p[0] - sum(bj * xj for bj, xj in zip(b, p[1:]))) % big_n == 0)
        # B^T x = 0 (mod N), column by column of the SysNF matrix.
        assert d == all(sum(c * x for c, x in zip(basis.column(j), p)) % big_n == 0 for j in range(s.n))
        # One point gives a scalar.
        assert np.ndim(ln_membership(s, tuple(p))) == 0 and ln_membership(s, tuple(p)) == m
        assert np.ndim(scaled_dual_membership(s, tuple(p))) == 0
    if s.is_valid:
        y = phi3(s, points)
        inv = pow(s.condition_sum, -1, big_n)
        for p, row in zip(points, y.tolist()):
            a = -inv * (p[0] - sum(bj * xj for bj, xj in zip(s.b, p[1:]))) % big_n
            assert row == [a] + [-bj * a % big_n for bj in s.b]
            assert phi3(s, tuple(p)).tolist() == row
    else:
        with pytest.raises(ConditionError):
            phi3(s, points)
    for bad in (points[0] + [0], points[0][:-1], [points[0] + [0]]):
        for predicate in (ln_membership, scaled_dual_membership, phi3):
            with pytest.raises(ModulusMismatchError):
                predicate(s, bad)


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


# Largest N per dimension n that keeps |L_N| = N^(n-1) at about 2000 or less.
_LN_CAP = {2: 2000, 3: 44, 4: 12}


@st.composite
def sysnf_basis(draw):
    n = draw(st.integers(2, 4))
    big_n = draw(st.integers(1, _LN_CAP[n]))
    b = draw(st.lists(st.integers(0, big_n - 1), min_size=n - 1, max_size=n - 1))
    return SysNFBasis(big_n, tuple(b))


def _shear_index_oracle(s: SysNFBasis) -> np.ndarray:
    pts = ln_points(s)
    return ln_index(s, (pts[:, 1:] + pts[:, :1] * np.array(s.b, dtype=np.int64)) % s.N)


def _shear_index_reference(s: SysNFBasis) -> np.ndarray:
    """Canonical index of y = (I + b b^T) t mod N for every tail t, from broadcast index grids.

    The shear index lattice_qft_values once built in full; the reference for
    its slab-wise gather below.
    """
    k = s.n - 1
    x1 = ln_first(s).reshape((s.N,) * k)
    index = np.zeros_like(x1)
    y = np.empty_like(x1)
    for bj, t in zip(s.b, np.indices((s.N,) * k, dtype=np.int64, sparse=True)):
        np.multiply(x1, bj, out=y)
        y += t
        y %= s.N
        index *= s.N
        index += y
    return index.reshape(-1)


def _scatter_qft_reference(s: SysNFBasis, values: np.ndarray) -> np.ndarray:
    """Scatter through the full shear index, then the unitary np.fft.fftn in place."""
    m = s.N ** (s.n - 1)
    out = np.zeros(m, dtype=complex)
    out[_shear_index_reference(s)] = values
    grid = out.reshape((s.N,) * (s.n - 1))
    np.fft.fftn(grid, out=grid, norm="ortho")
    return out


def _check_gather(s: SysNFBasis, shear: np.ndarray, seed: int) -> tuple[np.ndarray, ...]:
    """The slabs of unshear_slabs tile the output in order and invert ``shear``;
    lattice_qft_values equals the scatter reference bit for bit where it
    gathers, and to 1e-12 relative where n = 2 takes the chirp-z path."""
    m = s.N ** (s.n - 1)
    los, slabs = zip(*unshear_slabs(s))
    assert list(los) == np.cumsum([0] + [len(x) for x in slabs[:-1]]).tolist()
    assert all(x.dtype == np.int64 for x in slabs)
    inverse = np.empty(m, dtype=np.int64)
    inverse[shear] = np.arange(m)
    assert np.array_equal(np.concatenate(slabs), inverse)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    out, ref = lattice_qft_values(s, v), _scatter_qft_reference(s, v)
    if s.n == 2 and qcirc._chirp_split(s.N):
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    else:
        assert out.tobytes() == ref.tobytes()
    return slabs


@PROPS
@given(sysnf_basis(), st.integers(0, 2**32 - 1))
def test_unshear_slabs_invert_the_shear_exactly_when_valid(s, seed):
    m = s.N ** (s.n - 1)
    shear = _shear_index_oracle(s)
    assert np.array_equal(_shear_index_reference(s), shear)
    # (I + b b^T) is invertible mod N iff det = 1 + |b|^2 is a unit mod N.
    assert np.array_equal(np.sort(shear), np.arange(m)) == s.is_valid
    if s.is_valid:
        _check_gather(s, shear, seed)
        return
    with pytest.raises(ConditionError):
        next(unshear_slabs(s))
    with pytest.raises(ConditionError):
        lattice_qft_values(s, np.ones(m, dtype=complex))


@pytest.mark.parametrize("slab", [1, 3, 7, 16, 25, 26, 60])
@pytest.mark.parametrize("s", [SysNFBasis(29, (3,)), SysNFBasis(7, (2, 5)), SysNFBasis(5, (1, 2, 4))])
def test_unshear_slab_edges(monkeypatch, s, slab):
    # Small slabs: several rows per slab with a partial last slab, and rows
    # wider than a slab (one row each).
    monkeypatch.setattr(qcirc, "_SLAB", slab)
    width = s.N ** (s.n - 2)
    rows = max(1, slab // width)
    slabs = _check_gather(s, _shear_index_oracle(s), slab)
    assert [len(x) for x in slabs[:-1]] == [rows * width] * (len(slabs) - 1)
    assert len(slabs) == -(-s.N // rows)


@pytest.mark.parametrize(
    "s, count, last",
    [
        (SysNFBasis(40009, (123,)), 3, 40009 - 2 * qcirc._SLAB),  # partial last slab
        (SysNFBasis(131, (2, 3, 5)), 131, 131**2),  # one row of 131^2 points per slab
    ],
)
def test_unshear_slab_edges_at_module_slab(s, count, last):
    slabs = _check_gather(s, _shear_index_reference(s), 0)
    assert len(slabs) == count and len(slabs[-1]) == last


@pytest.mark.parametrize(
    "s, chirp",
    [
        (SysNFBasis(1026, (2,)), False),  # 2 * 3^3 * 19: direct passes
        (SysNFBasis(131072, (2,)), False),  # 2^17
        (SysNFBasis(97, (2,)), True),  # L = 200 = 10 * 20
        (SysNFBasis(739, (2,)), True),  # L = 1500 = 30 * 50
        (SysNFBasis(4098, (2,)), True),  # 2 * 3 * 683, L = 8640 = 90 * 96
        (SysNFBasis(8129, (2,)), True),  # 11 * 739, L = 16384 = 128 * 128
        (SysNFBasis(40009, (123,)), True),  # prime
        (SysNFBasis(130817, (5,)), True),  # prime, the acceptance instance's N
    ],
)
def test_one_axis_fft_against_numpy(s, chirp):
    # Both sides of the chirp-z selection against np.fft: bit for bit where
    # np.fft runs, to 1e-12 relative where the chirp-z transform runs, over
    # square and non-square four-step splits of its padded length.
    assert (qcirc._chirp_length(s.N) > 0) == chirp
    v = np.random.default_rng(s.N).normal(size=2 * s.N).view(complex)
    out = lattice_qft_values(s, v)
    ref = _scatter_qft_reference(s, v)
    if chirp:
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    else:
        assert out.tobytes() == ref.tobytes()


@PROPS
@given(
    st.integers(1, 5000).flatmap(lambda N: st.tuples(st.just(N), st.integers(0, N - 1))),
    st.sampled_from(["module", "none"]),
    st.integers(0, 2**32 - 1),
)
@example((1999, 2), "module", 0)  # chirp-z path, C = 5
@example((1026, 2), "module", 0)  # 2 * 3^3 * 19: direct passes in np.fft
@example((1999, 2), "none", 0)  # a plan over the budget: np.fft
def test_two_register_qft_is_dft_at_ratio_c(nb, budget, seed):
    # At n = 2, <x, z> = C t t' with C = 1 + b^2, so psi_j is the unitary DFT
    # of v read at index C j mod N, on every path: chirp-z at ratio C, or
    # gather and np.fft with no plan room.
    N, b = nb
    s = SysNFBasis(N, (b,))
    assume(s.is_valid)
    v = np.random.default_rng(seed).normal(size=2 * N).view(complex)
    with mock.patch.object(qcirc, "_PLAN_BYTES", qcirc._PLAN_BYTES if budget == "module" else 0):
        out = lattice_qft_values(s, v)
    ref = np.fft.fft(v, norm="ortho")[(1 + b * b) * np.arange(N) % N]
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@PROPS
@given(sysnf_basis().filter(lambda s: s.is_valid), st.integers(0, 2**32 - 1))
def test_lattice_qft_values_equals_dense_dft(s, seed):
    m = s.N ** (s.n - 1)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    v /= np.linalg.norm(v)
    out = lattice_qft_values(s, v)
    assert np.abs(out - dft_matrix(s).matrix @ v).max() <= 1e-10
    assert np.abs(out - full_grid_dft_restricted(s, LatticeFunction(s, v))).max() <= 1e-10


# Largest N per dimension n that keeps |L_N| = N^(n-1) at 400 or less.
_SPECTRUM_CAP = {1: 60, 2: 400, 3: 20, 4: 7}


@st.composite
def small_sysnf_basis(draw):
    n = draw(st.integers(1, 4))
    big_n = draw(st.integers(1, _SPECTRUM_CAP[n]))
    b = draw(st.lists(st.integers(0, big_n - 1), min_size=n - 1, max_size=n - 1))
    return SysNFBasis(big_n, tuple(b))


@PROPS
@given(small_sysnf_basis())
def test_eigen_explore_equals_dense_nearest_root_counts(s):
    if not s.is_valid:
        with pytest.raises(ConditionError):
            eigen_explore(s)
        return
    roots = np.array([1, 1j, -1, -1j])
    vals = np.linalg.eigvals(dft_matrix(s).matrix)
    counts = np.bincount(np.abs(vals[:, None] - roots).argmin(axis=1), minlength=4)
    assert eigen_explore(s) == dict(zip(("+1", "+i", "-1", "-i"), counts.tolist()))


@PROPS
@given(small_sysnf_basis(), st.integers(0, 2**32 - 1))
def test_smoothness_estimate_equals_per_shift_loop(s, seed):
    rng = np.random.default_rng(seed)
    shape = (s.N,) * s.n
    fhat = rng.random(shape) ** 4 * np.exp(2j * np.pi * rng.random(shape))
    pts = ln_points(s)
    power = np.abs(fhat) ** 2
    base = power[tuple(pts.T)].sum()
    worst = 0.0
    for k in range(s.N):
        shifted = pts.copy()
        shifted[:, 0] = (shifted[:, 0] - k) % s.N
        worst = max(worst, 1.0 - float(power[tuple(shifted.T)].sum() / base))
    assert smoothness_estimate(s, fhat) == worst


@st.composite
def integer_basis(draw, lo=2, hi=4, bound=6):
    n = draw(st.integers(lo, hi))
    entry = st.integers(-bound, bound)
    b = ExactMatrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(determinant(b) != 0)
    return b


@st.composite
def basis_and_unimodular(draw):
    """A basis and a random product of column shears and sign flips."""
    b = draw(integer_basis())
    n = b.ncols
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    for i, j, q in draw(st.lists(steps, max_size=10)):
        for row in u:
            row[j] = row[j] + q * row[i] if i != j else -row[j]
    return b, ExactMatrix(u)


@PROPS
@given(basis_and_unimodular())
def test_hnf_invariant_under_unimodular_transforms(bu):
    b, u = bu
    assert abs(determinant(u)) == 1
    h, v = hnf(b @ u)
    assert is_hnf(h) and b @ u @ v == h
    assert h == hnf(b)[0]


@PROPS
@given(integer_basis())
def test_lll_output_reduced_and_same_lattice(b):
    red = lll_reduce(b)
    assert is_size_reduced(red)
    assert satisfies_lovasz(red)
    assert hnf(red)[0] == hnf(b)[0]


@PROPS
@given(
    integer_basis(hi=3, bound=9),
    st.sampled_from([Fraction(1, 4), Fraction(1, 16), Fraction(1, 256)]),
    st.lists(st.lists(st.integers(-100, 100), min_size=3, max_size=3), min_size=1, max_size=8),
)
def test_reduction_certificate_holds_on_random_bases(b, eps, coeffs):
    cert = reduce_to_sysnf(b, eps)
    bprime = validate(cert.basis.to_matrix()).to_matrix()
    for c in coeffs:
        v = b.mul_vec(c[: b.ncols])
        w = cert.apply_sigma(v)
        assert membership(bprime, w)
        assert cert.relative_error_holds(v)
        # The same bound, restated in Fractions.
        assert norm_sq(vec_sub([Fraction(x, cert.T) for x in w], v)) <= eps**2 * norm_sq(v)
        assert cert.apply_sigma_inverse(w) == tuple(int(x) for x in v)


@PROPS
@given(integer_basis(), st.sampled_from([Fraction(1, 2), Fraction(1, 16), Fraction(1, 256)]))
def test_sigma_maps_the_input_lattice_onto_the_sysnf_lattice(b, eps):
    # sigma B integral puts sigma L(B) inside L(B'); equal HNFs make it all of L(B').
    cert = reduce_to_sysnf(b, eps)
    image = cert.sigma @ b
    assert image.is_integer()
    assert hnf(image)[0] == cert.basis.to_matrix()


def _layouts(rows: np.ndarray) -> list[np.ndarray]:
    """The rows C-ordered, Fortran-ordered, every other row, as a slice of wider rows, and none of them."""
    wide = np.zeros((len(rows), rows.shape[1] + 3), dtype=np.int64)
    wide[:, : rows.shape[1]] = rows
    return [rows, np.asfortranarray(rows), rows[::2], wide[:, : rows.shape[1]], rows[:0]]


@PROPS
@given(reduced_basis, sysnf_basis().filter(lambda s: s.is_valid), st.data())
def test_row_kernels_ignore_memory_layout(b, s, data):
    # The per-coordinate kernels read columns of whatever layout they are given;
    # the C-ordered results are checked against the scalar oracles above.
    rows = np.array(data.draw(_int_rows(b.ncols, st.integers(-60, 60))), dtype=np.int64)
    points = np.array(data.draw(_int_rows(s.n, st.integers(-3 * s.N, 3 * s.N))), dtype=np.int64)
    relevant = voronoi_relevant(b)
    for base, kernel in [
        (rows, lambda r: nearest_plane_rows(b, r)),
        (rows, lambda r: in_voronoi_cell(relevant, r)),
        (points, lambda r: phi3(s, r)),
        (points, lambda r: ln_membership(s, r)),
        (rows, lambda r: integral_rows(b, r)),
    ]:
        for view in _layouts(base):
            got, want = kernel(view), kernel(np.ascontiguousarray(view))
            assert got.dtype == want.dtype and got.shape == want.shape and len(got) == len(view)
            assert np.array_equal(got, want)


@PROPS
@given(sysnf_basis().filter(lambda s: s.is_valid), st.data())
def test_phi3_is_a_bijection_onto_the_scaled_dual(s, data):
    # (a, 0, ..., 0) for a in Z_N is one representative of each coset of L_N.
    tail = data.draw(st.lists(st.integers(0, s.N - 1), min_size=s.n - 1, max_size=s.n - 1))
    shift = np.array([ln_first(s)[ln_index(s, np.array(tail))], *tail])
    assert ln_membership(s, shift)
    x = np.zeros((s.N, s.n), dtype=np.int64)
    x[:, 0] = np.arange(s.N)
    y = phi3(s, x)
    assert ln_membership(s, x + y).all()
    assert np.array_equal(phi3(s, x + shift), y)  # constant on the coset
    images = sorted(map(tuple, y.tolist()))
    assert images == sorted(map(tuple, enumerate_scaled_dual(s).tolist()))
    assert len(set(images)) == s.N
