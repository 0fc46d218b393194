import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rpolar as rp
from rpolar.errors import Degenerate, DimensionMismatch, NonInvertibleOrReflective, NotSkew

RNG = np.random.default_rng(20240817)


def square(n, elements=st.floats(-10, 10, allow_nan=False)):
    return arrays(float, (n, n), elements=elements)


class TestSymSkew:
    def test_definitions(self):
        x = np.array([[0.0, 2.0], [0.0, 0.0]])
        np.testing.assert_array_equal(rp.sym(x), [[0, 1], [1, 0]])
        np.testing.assert_array_equal(rp.skew(x), [[0, 1], [-1, 0]])

    def test_fixed_points(self):
        s = np.array([[1.0, 2.0], [2.0, 5.0]])
        np.testing.assert_array_equal(rp.sym(s), s)
        np.testing.assert_array_equal(rp.skew(s), np.zeros((2, 2)))
        a = np.array([[0.0, 3.0], [-3.0, 0.0]])
        np.testing.assert_array_equal(rp.sym(a), np.zeros((2, 2)))

    @settings(max_examples=25)
    @given(square(4), square(4))
    def test_parts_orthogonal(self, x, y):
        assert abs(rp.frob_inner(rp.sym(x), rp.skew(y))) <= 1e-12 * (
            1 + rp.frob_norm(x) * rp.frob_norm(y)
        )

    @settings(max_examples=25)
    @given(square(5, elements=st.integers(-640, 640).map(lambda k: k / 64.0)))
    def test_parts_sum_exactly_for_exact_arithmetic(self, x):
        # dyadic entries of bounded exponent make (a +- b)/2 exact, so the
        # identity holds bit for bit
        np.testing.assert_array_equal(rp.sym(x) + rp.skew(x), x)

    @settings(max_examples=25)
    @given(square(5))
    def test_parts_sum_within_ulp(self, x):
        # independent roundings of (a + b)/2 and (a - b)/2 can each be off
        # by half an ulp, so bit-exactness cannot hold for arbitrary floats
        err = rp.sym(x) + rp.skew(x) - x
        assert np.max(np.abs(err)) <= 1e-15 * (1.0 + np.max(np.abs(x)))

    def test_orthogonality_random(self):
        for n in range(2, 11):
            x = RNG.standard_normal((n, n))
            y = RNG.standard_normal((n, n))
            assert abs(rp.frob_inner(rp.sym(x), rp.skew(y))) <= 1e-12


class TestFrobenius:
    def test_identity_inner(self):
        for n in (1, 3, 7):
            assert rp.frob_inner(np.eye(n), np.eye(n)) == pytest.approx(n)

    def test_norm_sq_is_entry_sum(self):
        x = RNG.standard_normal((4, 4))
        assert rp.frob_inner(x, x) == pytest.approx(np.sum(x**2))
        assert rp.frob_norm_sq(x) == pytest.approx(rp.frob_inner(x, x))

    def test_worked_4x4_norm(self):
        y = np.array([[1, 0, 1, 1], [0, 1, 1, 1], [0, 0, -1, 0], [0, 0, 0, -1]], float)
        assert rp.frob_norm_sq(y) == pytest.approx(8.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rp.frob_inner(np.eye(2), np.eye(3))

    def test_conjugation_preserves_norm(self):
        for n in (2, 5, 9):
            x = RNG.standard_normal((n, n))
            t = rp.random_rotation(n, RNG)
            assert abs(rp.frob_norm(t.T @ x @ t) - rp.frob_norm(x)) <= 1e-12 * (
                1 + rp.frob_norm(x)
            )


class TestPolar:
    def test_identity(self):
        pf = rp.polar_decompose(np.eye(3))
        np.testing.assert_allclose(pf.rot, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(pf.stretch, np.eye(3), atol=1e-14)

    def test_already_psym(self):
        pf = rp.polar_decompose(np.diag([4.0, 2.0]))
        np.testing.assert_allclose(pf.rot, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(pf.stretch, np.diag([4.0, 2.0]), atol=1e-12)
        np.testing.assert_allclose(pf.singular_values, [4.0, 2.0])

    def test_construct_then_recover(self):
        g = rp.random_rotation(2, 7)
        f = g @ np.diag([3.0, 1.0])
        pf = rp.polar_decompose(f)
        np.testing.assert_allclose(pf.rot, g, atol=1e-12)
        np.testing.assert_allclose(pf.stretch, np.diag([3.0, 1.0]), atol=1e-12)

    def test_round_trip_residual(self):
        for n in (2, 4, 6):
            f = RNG.standard_normal((n, n)) + 3.0 * np.eye(n)
            if np.linalg.det(f) <= 0:
                f = -f
            pf = rp.polar_decompose(f)
            assert rp.frob_norm(pf.rot @ pf.stretch - f) <= 1e-10 * rp.frob_norm(f)
            assert rp.is_rotation(pf.rot)
            assert np.all(np.linalg.eigvalsh(pf.stretch) > 0)
            assert np.all(np.diff(pf.singular_values) <= 0)

    def test_reflective_rejected(self):
        with pytest.raises(NonInvertibleOrReflective):
            rp.polar_decompose(np.diag([1.0, -2.0]))

    def test_rank_deficient_rejected(self):
        with pytest.raises(Degenerate):
            rp.polar_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            rp.polar_decompose(np.zeros((0, 0)))


class TestExpSkew:
    def test_zero(self):
        np.testing.assert_allclose(rp.exp_skew(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_planar_closed_form(self):
        alpha = 0.73
        a = np.array([[0.0, -alpha], [alpha, 0.0]])
        expected = np.array(
            [[np.cos(alpha), -np.sin(alpha)], [np.sin(alpha), np.cos(alpha)]]
        )
        np.testing.assert_allclose(rp.exp_skew(a), expected, atol=1e-14)

    def test_group_inverse(self):
        for n in (2, 3, 5):
            a = rp.skew(RNG.standard_normal((n, n)))
            r = rp.exp_skew(a) @ rp.exp_skew(a, scale=-1.0)
            np.testing.assert_allclose(r, np.eye(n), atol=1e-13)

    def test_output_orthogonality(self):
        for _ in range(10):
            a = rp.skew(RNG.standard_normal((4, 4)) * 3)
            r = rp.exp_skew(a)
            assert rp.frob_norm(r.T @ r - np.eye(4)) <= 1e-12
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkew):
            rp.exp_skew(np.eye(2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_scale_without_warnings(self, scale):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(Degenerate):
            rp.exp_skew(a, scale=scale)


class TestRandomRotation:
    def test_so1_trivial(self):
        np.testing.assert_array_equal(rp.random_rotation(1, 0), [[1.0]])

    def test_invariants(self):
        for n in (2, 3, 6):
            r = rp.random_rotation(n, 123)
            assert rp.is_rotation(r)

    def test_deterministic(self):
        a = rp.random_rotation(4, 99)
        b = rp.random_rotation(4, 99)
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(rp.random_rotation(3, 1), rp.random_rotation(3, 2))


class TestAsRotation:
    def test_repairs_small_drift(self):
        r = rp.random_rotation(3, 5)
        noisy = r + 1e-10 * RNG.standard_normal((3, 3))
        fixed = rp.as_rotation(noisy)
        assert rp.frob_norm(fixed.T @ fixed - np.eye(3)) <= 1e-12

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            rp.as_rotation(np.eye(3) * 1.5)
