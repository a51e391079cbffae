import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lportho.banach_geometry import (
    DimensionMismatch,
    DiscreteFunction,
    GeometryResult,
    PExponent,
    angle,
    dualize,
    is_orthogonal,
    pair_geometry,
    pythagorean_defect,
    weak_inner_product,
)


def norm_p_power(v, p, w=1.0):
    return w * np.sum(np.abs(np.asarray(v, dtype=float)) ** p)


class TestPExponent:
    def test_conjugate_pairs(self):
        assert PExponent(1).q == math.inf
        assert PExponent(2).q == 2.0
        for p in (1.5, 3.0, 10.0):
            e = PExponent(p)
            assert 1.0 / e.p + 1.0 / e.q == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.nan, math.inf, True, False, "2", None])
    def test_rejects_bad_exponent(self, bad):
        with pytest.raises(ValueError, match=r"^exponent p must be a finite number >= 1, got "):
            PExponent(bad)

    def test_bool_exponent_rejected_by_every_function_taking_p(self):
        with pytest.raises(ValueError, match="exponent p"):
            dualize([1.0, -2.0], True)
        with pytest.raises(ValueError, match="exponent p"):
            angle([1.0, 0.0], [0.0, 1.0], True)


class TestDualize:
    def test_sign_map_at_p1(self):
        assert np.array_equal(dualize([2, -3], 1).values, [1.0, -1.0])

    def test_identity_at_p2(self):
        assert np.array_equal(dualize([2, -3], 2).values, [2.0, -3.0])

    def test_p3_by_hand(self):
        # sign(f) |f|^2 and the normalization sum f f* = ||f||_3^3 = 35
        f = [2, -3]
        fstar = dualize(f, 3)
        assert np.array_equal(fstar.values, [4.0, -9.0])
        assert np.dot(f, fstar.values) == pytest.approx(35.0, rel=1e-15)

    def test_sign_of_zero_is_zero(self):
        assert np.array_equal(dualize([0.0, -2.0, 0.0], 1).values, [0.0, -1.0, 0.0])

    def test_complex_unimodular_direction(self):
        f = np.array([3 + 4j, 0.0, -2j])
        fstar = dualize(f, 1).values
        assert fstar[1] == 0
        np.testing.assert_allclose(np.abs(fstar[[0, 2]]), 1.0, rtol=1e-15)
        # pairing recovers the l1 norm
        paired = np.sum(f * np.conj(fstar)).real
        assert paired == pytest.approx(7.0, rel=1e-14)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_duality_normalization(self, p):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = rng.standard_normal(rng.integers(1, 40))
            paired = np.dot(f, dualize(f, p).values)
            expect = norm_p_power(f, p)
            assert paired == pytest.approx(expect, rel=1e-12, abs=1e-13)


class TestWeakInnerProduct:
    def test_p2_is_dot_product(self):
        assert weak_inner_product([1, 2], [3, -1], 2) == pytest.approx(1.0, abs=1e-14)

    def test_disjoint_supports_vanish(self):
        assert weak_inner_product([5, 0], [0, -7], 1) == 0.0

    def test_opposite_singletons(self):
        assert weak_inner_product([1], [-1], 1) == pytest.approx(-1.0, abs=1e-15)

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            weak_inner_product([1, 2], [1], 1)

    def test_weight_mismatch_raises(self):
        f = DiscreteFunction(np.ones(3), weight=1.0)
        g = DiscreteFunction(np.ones(3), weight=0.5)
        with pytest.raises(DimensionMismatch):
            weak_inner_product(f, g, 2)

    def test_quadrature_weight_scales_p2(self):
        rng = np.random.default_rng(3)
        f, g = rng.standard_normal(17), rng.standard_normal(17)
        w = 0.25
        got = weak_inner_product(DiscreteFunction(f, w), DiscreteFunction(g, w), 2)
        assert got == pytest.approx(w * np.dot(f, g), rel=1e-13)

    def test_l1_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(1, 64)
            f, g = rng.standard_normal(n), rng.standard_normal(n)
            closed = 0.5 * (
                np.abs(f + g).sum() - np.abs(f).sum() - np.abs(g).sum()
            )
            got = weak_inner_product(f, g, 1)
            scale = max(1.0, np.abs(f).sum(), np.abs(g).sum())
            assert abs(got - closed) <= 1e-12 * scale


class TestPythagoreanDefect:
    def test_hand_example(self):
        # ||f+g||_1 - ||f||_1 - ||g||_1 = 5 - 3 - 4
        assert pythagorean_defect([2, -1], [1, 3], 1) == pytest.approx(-2.0, abs=1e-15)

    def test_disjoint_supports(self):
        assert pythagorean_defect([5, 0], [0, -7], 1) == 0.0

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_defect_is_twice_wip(self, p):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = rng.integers(1, 64)
            f, g = rng.standard_normal(n), rng.standard_normal(n)
            d = pythagorean_defect(f, g, p)
            w = weak_inner_product(f, g, p)
            scale = max(1.0, norm_p_power(f, p), norm_p_power(g, p))
            assert abs(d - 2.0 * w) <= 1e-12 * scale

    @given(
        arrays(np.float64, st.integers(1, 32), elements=st.floats(-50, 50)),
        arrays(np.float64, st.integers(1, 32), elements=st.floats(-50, 50)),
    )
    @settings(max_examples=60, deadline=None)
    def test_l1_defect_never_positive(self, f, g):
        if len(f) != len(g):
            f = f[: min(len(f), len(g))]
            g = g[: min(len(f), len(g))]
        assert pythagorean_defect(f, g, 1) <= 1e-10

    @given(
        arrays(np.float64, st.integers(1, 32), elements=st.floats(-50, 50)),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_sign_flip_symmetry(self, f, p):
        g = np.roll(f, 1) * 0.5 - 0.25
        lhs = weak_inner_product(f, g, p)
        rhs = weak_inner_product(-f, -g, p)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestAngle:
    def test_orthogonal_pair_is_right_angle(self):
        assert angle([1, 0], [0, 1], 1) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_arccot_of_minus_two(self):
        expect = math.pi - math.atan(0.5)
        assert angle([1], [-1], 1) == pytest.approx(expect, abs=1e-12)
        assert angle([1], [-1], 1) == pytest.approx(2.67795, abs=1e-5)

    def test_p2_example(self):
        assert angle([1, 2], [3, -1], 2) == pytest.approx(0.46365, abs=1e-5)

    def test_range_is_open_zero_pi(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f, g = rng.standard_normal(8), rng.standard_normal(8)
            a = angle(f, g, 2)
            assert 0.0 < a < math.pi

    def test_monotone_decreasing_in_defect(self):
        # bigger defect, smaller angle
        a_pos = angle([1, 1], [1, 1], 2)
        a_zero = angle([1, 0], [0, 1], 2)
        a_neg = angle([1], [-1], 2)
        assert a_pos < a_zero < a_neg


class TestIsOrthogonal:
    def test_disjoint_supports(self):
        assert is_orthogonal([5, 0], [0, -7], 1, 1e-12)

    def test_opposite_singletons_not_orthogonal(self):
        assert not is_orthogonal([1], [-1], 1, 1e-12)

    def test_same_sign_pair_is_l1_orthogonal(self):
        # l1 norms add along equal signs even though the l2 dot is positive
        assert is_orthogonal([1, 1], [1, 1], 1, 1e-12)
        assert not is_orthogonal([1, 1], [1, 1], 2, 1e-12)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            is_orthogonal([1], [1], 1, 0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, True])
    def test_non_finite_tol_rejected(self, tol):
        # an infinite tol used to call any pair orthogonal
        with pytest.raises(ValueError, match="tol"):
            is_orthogonal([1.0, 2.0], [3.0, -1.0], 1, tol)

    def test_consistent_with_angle(self):
        rng = np.random.default_rng(17)
        tol = 1e-10
        for _ in range(200):
            n = rng.integers(1, 32)
            f, g = rng.standard_normal(n), rng.standard_normal(n)
            p = rng.choice([1.0, 1.5, 2.0, 3.0])
            scale = max(1.0, norm_p_power(f, p), norm_p_power(g, p))
            ortho = is_orthogonal(f, g, p, tol)
            off_axis = abs(angle(f, g, p) - math.pi / 2)
            if ortho:
                assert off_axis <= math.atan(2.0 * tol * scale) + 1e-15
            else:
                assert off_axis > math.atan(tol * scale / 2.0)


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DiscreteFunction(np.array([1.0, math.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteFunction(np.array([]))

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan, True, False, "1", None])
    def test_rejects_a_weight_that_is_not_a_positive_number(self, weight):
        # True used to build with weight 1.0
        with pytest.raises(ValueError, match="weight"):
            DiscreteFunction(np.ones(2), weight=weight)

    @pytest.mark.parametrize("weight", [2, 2.0, np.float32(2.0), np.int64(2)])
    def test_any_positive_real_weight_is_a_float(self, weight):
        # np.float32(2.0) used to be a ValueError
        f = DiscreteFunction(np.ones(2), weight=weight)
        assert type(f.weight) is float and f.weight == 2.0

    def test_values_read_only(self):
        f = DiscreteFunction(np.ones(3))
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestPairGeometry:
    def test_fields_cohere(self):
        result = pair_geometry([1], [-1], 1)
        assert isinstance(result, GeometryResult)
        assert result.defect == pytest.approx(2.0 * result.weak_inner_product, abs=1e-14)
        assert result.angle == math.atan2(1.0, result.defect)  # cot(angle) is the defect

    def test_complex_pair_real_outputs(self):
        f = np.array([1 + 1j, 2 - 1j])
        g = np.array([0.5j, -1.0 + 0j])
        result = pair_geometry(f, g, 1)
        for value in (result.weak_inner_product, result.defect, result.angle):
            assert isinstance(value, float)
        assert 0.0 < result.angle < math.pi


# The pairing as it was written on DiscreteFunction round trips: each
# quantity rebuilt through dualize and the constructor's checks. The raw-array
# core must give the same bits and raise the same errors.


def reference_weak_inner_product(f, g, p):
    fn, gn = DiscreteFunction(f), DiscreteFunction(g)
    if len(fn) != len(gn):
        raise DimensionMismatch("length")
    h = dualize(DiscreteFunction(fn.values + gn.values), p).values
    fstar, gstar = dualize(fn, p).values, dualize(gn, p).values
    pair = lambda u, v: float(np.sum((u * np.conj(v)).real))  # noqa: E731
    return 0.5 * (pair(fn.values, h - fstar) + pair(gn.values, h - gstar))


def reference_defect(f, g, p):
    fn, gn = DiscreteFunction(f), DiscreteFunction(g)
    if len(fn) != len(gn):
        raise DimensionMismatch("length")
    s = DiscreteFunction(fn.values + gn.values)
    return float(np.sum(np.abs(s.values) ** p)) - float(np.sum(np.abs(fn.values) ** p)) - float(
        np.sum(np.abs(gn.values) ** p)
    )


class TestRawArrayCore:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.5])
    @pytest.mark.parametrize("kind", ["real", "complex", "sparse"])
    def test_bits_match_function_round_trip(self, p, kind):
        rng = np.random.default_rng(int(10 * p))
        for _ in range(50):
            n = int(rng.integers(1, 65))
            f, g = rng.standard_normal(n), rng.standard_normal(n)
            if kind == "complex":
                f = f + 1j * rng.standard_normal(n)
            if kind == "sparse":
                f[rng.random(n) < 0.5] = 0.0
            wip, defect = weak_inner_product(f, g, p), pythagorean_defect(f, g, p)
            assert wip == reference_weak_inner_product(f, g, p)
            assert defect == reference_defect(f, g, p)
            result = pair_geometry(f, g, p)
            assert (result.weak_inner_product, result.defect) == (wip, defect)

    def test_errors_match_function_round_trip(self):
        message = "values must be finite"
        with np.errstate(over="ignore"):
            big = [1.7e308, 1.0]  # f + g overflows
            for fun in (weak_inner_product, pythagorean_defect, reference_weak_inner_product, reference_defect):
                with pytest.raises(ValueError, match=message):
                    fun(big, big, 2.0)
            for fun in (weak_inner_product, reference_weak_inner_product):  # a duality map overflows
                with pytest.raises(ValueError, match=message):
                    fun([1e200], [1.0], 3.0)
        for fun in (weak_inner_product, pythagorean_defect, pair_geometry):
            with pytest.raises(DimensionMismatch):
                fun([1.0, 2.0], [1.0], 2.0)
