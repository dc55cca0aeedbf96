import math
import random
from fractions import Fraction

import pytest

from latdft.errors import MembershipError, RankError
from latdft.intlat import (
    CVPResult,
    ExactMatrix,
    brute_force_cvp,
    coefficients_in_basis,
    cvp_exact,
    determinant,
    dual_basis,
    hnf,
    is_hnf,
    is_size_reduced,
    lambda1_sq,
    lll_reduce,
    membership,
    nearest_plane,
    norm_sq,
    parse_matrix_text,
    satisfies_lovasz,
    sqrt_upper_bound,
    vec_sub,
)


def random_full_rank(rng, n, lo=-5, hi=5):
    while True:
        m = ExactMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if determinant(m) != 0:
            return m


def random_unimodular(rng, n, steps=12):
    u = [[int(i == j) for j in range(n)] for i in range(n)]  # rows
    m = ExactMatrix(u)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        elem = [[int(a == b) for b in range(n)] for a in range(n)]
        elem[i][j] = q
        m = m @ ExactMatrix(elem)
    return m


class TestHNF:
    def test_identity_fixed_point(self):
        i3 = ExactMatrix.identity(3)
        h, u = hnf(i3)
        assert h == i3 and u == i3

    def test_example_2x2(self):
        m = ExactMatrix([[2, 0], [1, 1]])
        h, u = hnf(m)
        assert is_hnf(h)
        assert abs(determinant(u)) == 1
        assert h == m @ u
        assert abs(determinant(h)) == 2

    def test_column_permutation_invariance(self):
        rng = random.Random(1)
        for _ in range(20):
            m = random_full_rank(rng, 3)
            perm = list(range(3))
            rng.shuffle(perm)
            p = ExactMatrix([[int(perm[j] == i) for j in range(3)] for i in range(3)])
            assert hnf(m)[0] == hnf(m @ p)[0]

    def test_unimodular_invariance(self):
        rng = random.Random(2)
        for _ in range(20):
            m = random_full_rank(rng, 3)
            v = random_unimodular(rng, 3)
            assert hnf(m)[0] == hnf(m @ v)[0]

    def test_factorization_and_predicate(self):
        rng = random.Random(3)
        for _ in range(25):
            m = random_full_rank(rng, 3)
            h, u = hnf(m)
            assert h == m @ u
            assert abs(determinant(u)) == 1
            assert is_hnf(h)

    def test_singular_rejected(self):
        with pytest.raises(RankError):
            hnf(ExactMatrix([[1, 2], [2, 4]]))

    def test_det_invariance_up_to_sign(self):
        rng = random.Random(4)
        for _ in range(10):
            m = random_full_rank(rng, 3)
            assert abs(determinant(m)) == determinant(hnf(m)[0])


class TestDeterminant:
    def test_identity(self):
        assert determinant(ExactMatrix.identity(4)) == 1

    def test_sysnf_diagonal_product(self):
        m = ExactMatrix([[7, 2, 3], [0, 1, 0], [0, 0, 1]])
        assert determinant(m) == 7

    def test_triangular(self):
        assert determinant(ExactMatrix([[2, 1], [0, 1]])) == 2

    def test_rational_entries(self):
        m = ExactMatrix([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])
        assert determinant(m) == Fraction(1, 3)

    def test_non_square(self):
        with pytest.raises(RankError):
            determinant(ExactMatrix([[1, 2, 3], [4, 5, 6]]))


class TestDual:
    def test_identity(self):
        assert dual_basis(ExactMatrix.identity(3)) == ExactMatrix.identity(3)

    def test_sysnf_scaled_dual_shape(self):
        b = ExactMatrix([[5, 1], [0, 1]])
        scaled = dual_basis(b).scale(5)
        assert scaled == ExactMatrix([[1, 0], [-1, 5]])

    def test_biorthogonality(self):
        rng = random.Random(5)
        for _ in range(15):
            b = random_full_rank(rng, 3)
            assert b @ dual_basis(b).transpose() == ExactMatrix.identity(3)

    def test_singular(self):
        with pytest.raises(RankError):
            dual_basis(ExactMatrix([[1, 1], [1, 1]]))


class TestMembership:
    B = ExactMatrix([[5, 1], [0, 1]])

    def test_zero(self):
        assert membership(self.B, (0, 0))

    def test_examples(self):
        assert membership(self.B, (3, 3))
        assert not membership(self.B, (1, 0))

    def test_basis_columns(self):
        for j in range(2):
            assert membership(self.B, self.B.column(j))

    def test_coefficients_unit(self):
        assert coefficients_in_basis(self.B, self.B.column(0)) == (1, 0)

    def test_coefficients_roundtrip(self):
        rng = random.Random(6)
        for _ in range(50):
            b = random_full_rank(rng, 3)
            z = tuple(rng.randint(-10, 10) for _ in range(3))
            assert coefficients_in_basis(b, b.mul_vec(z)) == z

    def test_coefficients_rejects_non_member(self):
        with pytest.raises(MembershipError):
            coefficients_in_basis(self.B, (1, 0))

    def test_cramer_bound_on_hnf_instances(self):
        # Tested in the form the reduction uses: coefficients taken in an
        # HNF basis satisfy max |z_i| <= ||v|| * det, compared exactly via squares.
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            m = random_full_rank(rng, 3)
            h, _ = hnf(m)
            z = tuple(rng.randint(-10, 10) for _ in range(3))
            v = h.mul_vec(z)
            coeffs = coefficients_in_basis(h, v)
            det = determinant(h)
            bound_sq = norm_sq(v) * det * det
            assert all(Fraction(c) ** 2 <= bound_sq for c in coeffs)
            checked += 1


class TestLLL:
    def test_reduced_orthogonal_basis_unchanged_up_to_sign(self):
        # Columns ordered by length, so the basis already satisfies the
        # reduction conditions and must come back unchanged up to sign.
        b = ExactMatrix([[2, 0], [0, 3]])
        red = lll_reduce(b)
        for j in range(2):
            col = red.column(j)
            assert col in (b.column(j), tuple(-x for x in b.column(j)))

    def test_skewed_first_vector_vs_bruteforce(self):
        b = ExactMatrix.from_columns([(1, 10), (0, 1)])
        red = lll_reduce(b)
        shortest = min(
            norm_sq(b.mul_vec((z1, z2)))
            for z1 in range(-20, 21)
            for z2 in range(-20, 21)
            if (z1, z2) != (0, 0)
        )
        assert norm_sq(red.column(0)) <= shortest

    def test_same_lattice_and_predicates(self):
        rng = random.Random(9)
        for _ in range(15):
            b = random_full_rank(rng, 3)
            red = lll_reduce(b)
            assert hnf(b)[0] == hnf(red)[0]
            assert is_size_reduced(red)
            assert satisfies_lovasz(red)
            assert abs(determinant(red)) == abs(determinant(b))


class TestNearestPlane:
    def test_lattice_point_recovered(self):
        b = lll_reduce(ExactMatrix([[5, 1], [0, 1]]))
        v = b.mul_vec((2, -3))
        assert nearest_plane(b, v) == v

    def test_2d_example_within_factor(self):
        b = lll_reduce(ExactMatrix([[5, 1], [0, 1]]))
        u = (Fraction(12, 5), Fraction(13, 5))
        v = nearest_plane(b, u)
        best = cvp_exact(b, u)
        assert norm_sq(vec_sub(u, v)) <= 4 * best.dist_sq

    def test_small_perturbation_recovery(self):
        b = lll_reduce(ExactMatrix([[5, 1], [0, 1]]))
        lam_sq = lambda1_sq(b)
        point = b.mul_vec((1, 2))
        # ||eps|| < lambda_1 / 2^(n/2 + 1) guarantees exact recovery.
        eps = (Fraction(1, 100), Fraction(-1, 100))
        assert 4 * 4 * norm_sq(eps) < lam_sq
        u = tuple(p + e for p, e in zip(point, eps))
        assert nearest_plane(b, u) == point


class TestBruteForceCVP:
    def test_origin(self):
        res = brute_force_cvp(ExactMatrix.identity(2), (0, 0), 3)
        assert res == CVPResult((Fraction(0), Fraction(0)), Fraction(0))

    def test_monotone_in_bound(self):
        b = ExactMatrix([[5, 1], [0, 1]])
        u = (Fraction(7, 2), Fraction(1, 3))
        d_small = brute_force_cvp(b, u, 2).dist_sq
        d_large = brute_force_cvp(b, u, 4).dist_sq
        assert d_large <= d_small

    def test_oracle_vs_nearest_plane(self):
        rng = random.Random(10)
        for _ in range(100):
            b = lll_reduce(random_full_rank(rng, 2))
            u = tuple(Fraction(rng.randint(-40, 40), 4) for _ in range(2))
            v = nearest_plane(b, u)
            best = cvp_exact(b, u)
            assert norm_sq(vec_sub(u, v)) <= 4 * best.dist_sq
            assert best.dist_sq <= norm_sq(vec_sub(u, v))


class TestLambda1:
    def test_known_values(self):
        assert lambda1_sq(ExactMatrix.identity(2)) == 1
        assert lambda1_sq(ExactMatrix([[2, 1], [0, 1]])) == 2
        assert lambda1_sq(dual_basis(ExactMatrix([[2, 1], [0, 1]]))) == Fraction(1, 2)


class TestTextFormat:
    def test_roundtrip_integers(self):
        assert parse_matrix_text("2 2\n5 1\n0 1\n") == ExactMatrix([[5, 1], [0, 1]])

    def test_roundtrip_rationals(self):
        m = ExactMatrix([[Fraction(1, 2), 3], [Fraction(-7, 5), 0]])
        assert parse_matrix_text("2 2\n1/2 3\n-7/5 0\n") == m

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_matrix_text("nonsense\n")
        with pytest.raises(ValueError):
            parse_matrix_text("2 2\n1 2\n3\n")


def test_sqrt_upper_bound():
    for r in (Fraction(2), Fraction(9), Fraction(5, 7), Fraction(0)):
        ub = sqrt_upper_bound(r)
        assert ub * ub >= r
        assert ub == 0 or (ub * (1 - Fraction(1, 2**20))) ** 2 <= r
