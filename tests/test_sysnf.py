import json
import random
from fractions import Fraction

import numpy as np
import pytest

from latdft import intlat, sysnf
from latdft.dft import dft_matrix
from latdft.qcirc import Statevector, lattice_membership_mask, step_apply_basis
from latdft.errors import (
    ConditionError,
    ModulusMismatchError,
    ParameterError,
    RankError,
    SearchExhaustedError,
    SizeGuardError,
    StructureError,
)
from latdft.intlat import (
    ExactMatrix,
    determinant,
    hnf,
    membership,
    norm_sq,
    vec_sub,
)
from latdft.sysnf import (
    ReductionCertificate,
    SysNFBasis,
    enumerate_scaled_dual,
    ln_first,
    ln_membership,
    ln_points,
    phi3,
    reduce_to_sysnf,
    scaled_dual_membership,
    validate,
)


class TestValidate:
    def test_valid_small(self):
        s = validate(SysNFBasis(5, (1,)).to_matrix())
        assert (s.N, s.b) == (5, (1,))
        assert s.condition_sum == 2 and s.condition_gcd == 1

    def test_condition_rejection_carries_gcd(self):
        # sum(b^2)+1 = 2 is nonzero mod 4, yet shares a factor with 4.
        with pytest.raises(ConditionError) as exc:
            validate(SysNFBasis(4, (1,)).to_matrix())
        assert exc.value.gcd == 2

    def test_forced_character_matrix_has_duplicate_rows(self):
        # The rejected N=4, b=(1) instance yields a visibly degenerate
        # transform: rows for the points with tail 0 and tail 2 coincide.
        cm = dft_matrix(SysNFBasis(4, (1,)))
        assert np.abs(cm.matrix[0] - cm.matrix[2]).max() < 1e-12

    def test_n4_b3_also_rejected(self):
        with pytest.raises(ConditionError) as exc:
            validate(SysNFBasis(4, (3,)).to_matrix())
        assert exc.value.gcd == 2

    def test_zero_tail_always_valid(self):
        for big_n in (2, 3, 4, 9, 12):
            s = validate(SysNFBasis(big_n, (0, 0)).to_matrix())
            assert s.condition_sum == 1

    def test_structure_errors(self):
        with pytest.raises(StructureError):
            validate(ExactMatrix([[5, 1, 0], [0, 1, 0]]))  # not square
        with pytest.raises(StructureError):
            validate(ExactMatrix([[5, 1], [0, 2]]))  # off identity block
        with pytest.raises(StructureError):
            validate(ExactMatrix([[5, 1], [1, 1]]))  # nonzero below diagonal
        with pytest.raises(StructureError):
            validate(ExactMatrix([[-5, 1], [0, 1]]))  # negative modulus
        with pytest.raises(StructureError):
            validate(ExactMatrix([[Fraction(5, 2), 0], [0, 1]]))

    @pytest.mark.parametrize(
        "big_n, tail",
        [(5, (2.7,)), (5, (Fraction(1, 2),)), (5, (np.float64(2.0),)), (5.0, (1,)), (Fraction(5), (1,))],
    )
    def test_non_integer_entries_rejected(self, big_n, tail):
        # int() would silently read (2.7,) as (2,) and (1/2,) as (0,): a different lattice.
        with pytest.raises(StructureError, match="must be integers"):
            SysNFBasis(big_n, tail)

    def test_numpy_integers_accepted(self):
        s = SysNFBasis(np.int64(5), (np.int32(7), np.int64(-1)))
        assert (s.N, s.b) == (5, (2, 4)) and type(s.N) is int and all(type(x) is int for x in s.b)

    def test_tail_reduced_mod_modulus(self):
        s = validate(ExactMatrix([[5, 6], [0, 1]]))
        assert s.b == (1,)
        assert SysNFBasis(5, (-3,)).b == (2,)


class TestLnMembership:
    S = SysNFBasis(5, (1,))

    def test_zero(self):
        assert ln_membership(self.S, (0, 0))

    def test_examples(self):
        assert ln_membership(self.S, (3, 3))
        assert ln_membership(self.S, (8, -2))  # any integer representative
        assert not ln_membership(self.S, (1, 0))

    def test_count_matches_group_order(self):
        for s in (SysNFBasis(5, (1,)), SysNFBasis(7, (1,)), SysNFBasis(5, (1, 2))):
            grid = np.indices((s.N,) * s.n).reshape(s.n, -1).T
            member = ln_membership(s, grid)
            assert member.shape == (s.N**s.n,)
            assert member.sum() == s.N ** (s.n - 1)

    def test_modulus_mismatch(self):
        # A point of the wrong dimension cannot be over this basis's Z_N^n.
        for x in [(0, 0, 0), (0,), 0, np.zeros((4, 3))]:
            with pytest.raises(ModulusMismatchError):
                ln_membership(self.S, x)

    def test_int64_range_guard(self):
        # Reduced coordinates multiply in int64: refuse a modulus whose products could overflow.
        with pytest.raises(SizeGuardError):
            ln_membership(SysNFBasis(2**32, (1,)), (0, 0))
        assert ln_membership(SysNFBasis(2**31, (1,)), (5, 5))


class TestEnumerateLn:
    def test_diagonal_example(self):
        pts = ln_points(SysNFBasis(5, (1,)))
        assert pts.tolist() == [[0, 0], [1, 1], [2, 2], [3, 3], [4, 4]]

    def test_zero_tail(self):
        pts = ln_points(SysNFBasis(3, (0, 0)))
        assert (pts[:, 0] == 0).all()
        assert len(pts) == 9

    def test_lexicographic_tails(self):
        tails = ln_points(SysNFBasis(3, (1, 2)))[:, 1:].tolist()
        assert tails == sorted(tails)

    def test_cardinality_and_membership(self):
        for s in (SysNFBasis(9, (2,)), SysNFBasis(5, (1, 2))):
            pts = ln_points(s)
            assert len(pts) == s.N ** (s.n - 1)
            assert ln_membership(s, pts).all()


class TestScaledDual:
    def test_zero_parameter(self):
        assert enumerate_scaled_dual(SysNFBasis(5, (1,)))[0].tolist() == [0, 0]

    def test_example_point(self):
        assert enumerate_scaled_dual(SysNFBasis(5, (1,)))[2].tolist() == [2, 3]

    def test_cardinality_and_membership(self):
        for s in (SysNFBasis(5, (1,)), SysNFBasis(7, (1, 2))):
            duals = enumerate_scaled_dual(s)
            assert duals.shape == (s.N, s.n) and duals.dtype == np.int64
            assert len(np.unique(duals, axis=0)) == s.N
            assert scaled_dual_membership(s, duals).all()


class TestPhi3:
    def test_lattice_points_map_to_zero(self):
        s = SysNFBasis(5, (1,))
        assert (phi3(s, ln_points(s)) == 0).all()

    def test_worked_example(self):
        s = SysNFBasis(5, (1,))
        y = phi3(s, (1, 0))
        assert y.tolist() == [2, 3]
        assert ln_membership(s, (1, 0) + y)
        # Brute force: the parameter value is the unique one that works.
        good = [a for a in range(5) if ln_membership(s, (1 + a, -a))]
        assert good == [2]

    @pytest.mark.parametrize("s", [SysNFBasis(5, (1,)), SysNFBasis(7, (1,))])
    def test_exhaustive_section_and_injectivity(self, s):
        images = set()
        reps = {}
        for x1 in range(s.N):
            for x2 in range(s.N):
                x = (x1, x2)
                y = phi3(s, x)
                assert ln_membership(s, x + y)
                assert scaled_dual_membership(s, y)
                images.add(tuple(y.tolist()))
                coset = (x1 - x2 * s.b[0]) % s.N
                if coset in reps:
                    assert reps[coset] == tuple(y.tolist())  # constant on cosets
                reps[coset] = tuple(y.tolist())
        assert len(images) == s.N

    def test_invalid_basis_raises(self):
        with pytest.raises(ConditionError):
            phi3(SysNFBasis(4, (1,)), (1, 0))


class TestReduction:
    def test_parameter_errors(self):
        b = ExactMatrix([[2, 1], [0, 1]])
        for eps in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ParameterError):
                reduce_to_sysnf(b, eps)
        with pytest.raises(ParameterError):
            reduce_to_sysnf(ExactMatrix([[Fraction(1, 2), 0], [0, 1]]), Fraction(1, 4))

    def test_singular_rejected(self):
        with pytest.raises(RankError):
            reduce_to_sysnf(ExactMatrix([[1, 2], [2, 4]]), Fraction(1, 4))

    def test_already_sysnf_input(self):
        b = ExactMatrix([[5, 1], [0, 1]])
        cert = reduce_to_sysnf(b, Fraction(1, 16))
        validate(cert.basis.to_matrix())
        bprime = cert.basis.to_matrix()
        for c in [(1, 0), (0, 1), (3, -2), (10, 7)]:
            v = b.mul_vec(c)
            w = cert.apply_sigma(v)
            assert membership(bprime, w)
            assert cert.relative_error_holds(v)
            assert cert.apply_sigma_inverse(w) == tuple(int(x) for x in v)

    def test_worked_example_2x2(self):
        b = ExactMatrix([[2, 1], [0, 1]])
        cert = reduce_to_sysnf(b, Fraction(1, 16))
        validate(cert.basis.to_matrix())
        bprime = cert.basis.to_matrix()
        for v in [(2, 0), (1, 1), (3, 1)]:
            assert membership(bprime, cert.apply_sigma(v))
            assert cert.relative_error_holds(v)

    def test_modulus_matches_determinant_structure(self):
        # det(B4) = N equals the scaled entry plus the coprime offset.
        b = ExactMatrix([[2, 1], [0, 1]])
        cert = reduce_to_sysnf(b, Fraction(1, 16))
        assert determinant(cert.basis.to_matrix()) == cert.basis.N

    def test_periodicity_of_output_lattice(self):
        cert = reduce_to_sysnf(ExactMatrix([[3, 1], [1, 2]]), Fraction(1, 8))
        bprime = cert.basis.to_matrix()
        for i in range(2):
            e = [0, 0]
            e[i] = cert.basis.N
            assert membership(bprime, tuple(e))

    def test_close_basis_error_amplification(self):
        # Transported basis vectors stay within alpha of the triangular
        # basis, and every tested vector obeys the n * ||v|| * alpha * det bound.
        rng = random.Random(123)
        b = ExactMatrix([[3, 1], [1, 2]])
        cert = reduce_to_sysnf(b, Fraction(1, 32))
        h, _ = hnf(b)
        det = determinant(h)
        n = 2
        alpha_sq = Fraction(0)
        for j in range(n):
            hv = h.column(j)
            w = [Fraction(x, cert.T) for x in cert.apply_sigma(hv)]
            alpha_sq = max(alpha_sq, norm_sq(vec_sub(w, hv)))
        for _ in range(50):
            c = [rng.randint(-30, 30) for _ in range(n)]
            v = h.mul_vec(c)
            w = [Fraction(x, cert.T) for x in cert.apply_sigma(v)]
            err_sq = norm_sq(vec_sub(w, v))
            assert err_sq <= n**2 * norm_sq(v) * alpha_sq * det**2

    def test_sigma_rejects_non_lattice_vectors(self):
        cert = reduce_to_sysnf(ExactMatrix([[2, 1], [0, 1]]), Fraction(1, 16))
        with pytest.raises(ValueError):
            cert.apply_sigma((1, 0))  # not in L(B)

    def test_json_roundtrip_bit_exact(self):
        cert = reduce_to_sysnf(ExactMatrix([[3, 1], [1, 2]]), Fraction(1, 16))
        text = cert.to_json()
        clone = ReductionCertificate.from_json(text)
        assert clone == cert
        assert clone.to_json() == text
        payload = json.loads(text)
        assert set(payload) == {"n", "N", "b", "T", "delta", "sigma", "epsilon"}
        assert payload["epsilon"] == "1/16"

    @pytest.mark.parametrize(
        "key, value, error",
        [("N", 2.5, StructureError), ("N", "5", StructureError), ("b", [2.5], StructureError),
         ("T", 2.5, TypeError), ("delta", 1.5, TypeError)],
    )
    def test_json_non_integer_rejected(self, key, value, error):
        # int() truncated each of these: a JSON 2.5 became 2.
        payload = json.loads(reduce_to_sysnf(ExactMatrix([[3, 1], [1, 2]]), Fraction(1, 16)).to_json())
        payload[key] = value
        with pytest.raises(error):
            ReductionCertificate.from_json(json.dumps(payload))

    def test_delta_cap_exhaustion(self, monkeypatch):
        monkeypatch.setattr(sysnf, "DELTA_SEARCH_CAP", 0)
        with pytest.raises(SearchExhaustedError, match="within 0 candidates"):
            reduce_to_sysnf(ExactMatrix([[2, 1], [0, 1]]), Fraction(1, 16))

    def test_scale_cap_exhaustion(self, monkeypatch):
        # I_2 at epsilon 1/2 starts at T = 4 and needs one doubling to T = 8.
        i2 = ExactMatrix([[1, 0], [0, 1]])
        monkeypatch.setattr(sysnf, "SCALE_CAP", 8)
        assert reduce_to_sysnf(i2, Fraction(1, 2)).T == 8
        monkeypatch.setattr(sysnf, "SCALE_CAP", 7)
        with pytest.raises(SearchExhaustedError, match="exceeded cap 7"):
            reduce_to_sysnf(i2, Fraction(1, 2))

    def test_random_bases_full_contract(self):
        rng = random.Random(77)
        for dim in (2, 3):
            for _ in range(3):
                while True:
                    b = ExactMatrix(
                        [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
                    )
                    if determinant(b) != 0:
                        break
                cert = reduce_to_sysnf(b, Fraction(1, 64))
                validate(cert.basis.to_matrix())
                bprime = cert.basis.to_matrix()
                for _ in range(25):
                    c = [rng.randint(-100, 100) for _ in range(dim)]
                    v = b.mul_vec(c)
                    w = cert.apply_sigma(v)
                    assert membership(bprime, w)
                    assert cert.relative_error_holds(v)


S523 = SysNFBasis(5, (1, 2))  # |L_N| = 25, N^n = 125


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: ln_points(S523), id="ln_points"),
        pytest.param(lambda: ln_first(S523), id="ln_first"),
        pytest.param(
            lambda: step_apply_basis(S523, Statevector(5, 2, np.zeros(25, dtype=complex))),
            id="step_apply_basis",
        ),
        pytest.param(lambda: lattice_membership_mask(S523), id="lattice_membership_mask"),
        pytest.param(lambda: enumerate_scaled_dual(SysNFBasis(29, (1,))), id="enumerate_scaled_dual"),
    ],
)
def test_size_guard_before_building(monkeypatch, build):
    # Each array holds more than 24 entries: 25 points of L_N, 125 of Z_5^3, or 29 dual points.
    monkeypatch.setattr(intlat, "BOX_GUARD", 24)
    with pytest.raises(SizeGuardError, match="exceed guard 24"):
        build()
