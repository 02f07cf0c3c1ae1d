"""Utility math against high-precision and bisection reference values."""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from bandalloc.utility import (
    capacity_coefficient,
    curvature,
    derivative,
    evaluate,
    invert_derivative,
    inverse_from_constants,
)

C100 = capacity_coefficient(100.0)

mpmath.mp.dps = 50


def mp_evaluate(omega: float, snr: float, price: float, x: float) -> float:
    c = mpmath.log(1 + mpmath.mpf(snr), 2)
    xm = mpmath.mpf(x)
    return float(omega * mpmath.log(c * xm + 1) - price * xm * xm)


def mp_derivative(omega: float, snr: float, price: float, x: float) -> float:
    c = mpmath.log(1 + mpmath.mpf(snr), 2)
    xm = mpmath.mpf(x)
    return float(omega * c / (c * xm + 1) - 2 * price * xm)


def hex_or_overflow(f, *args):
    """``f(*args)`` as hex, or the arguments of the ``OverflowError`` it raises."""
    try:
        return f(*args).hex()
    except OverflowError as exc:
        return exc.args


def bisect_inverse(omega: float, c: float, price: float, v: float) -> float:
    """Independent inverse of the derivative by plain bisection."""
    lo, hi = -1.0 / c + 1e-12, 1.0
    while derivative(omega, c, price, hi) > v:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if derivative(omega, c, price, mid) > v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCapacityCoefficient:
    def test_power_of_two_points(self):
        assert capacity_coefficient(1.0) == 1.0
        assert capacity_coefficient(3.0) == 2.0

    def test_snr_100(self):
        assert C100 == pytest.approx(6.658211482751795, rel=1e-15)
        assert C100 == pytest.approx(float(mpmath.log(101, 2)), rel=1e-15)

    @pytest.mark.parametrize("snr", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_snr(self, snr):
        with pytest.raises(ValueError):
            capacity_coefficient(snr)


class TestEvaluate:
    def test_zero_bandwidth_zero_utility(self):
        assert evaluate(1.0, C100, 0.01, 0.0) == 0.0

    def test_reference_points(self):
        got = evaluate(1.0, C100, 0.01, 1.0)
        assert got == pytest.approx(2.0257784685985479, rel=1e-12)
        assert got == pytest.approx(mp_evaluate(1.0, 100.0, 0.01, 1.0), rel=1e-12)
        got = evaluate(3.0, C100, 0.01, 3.0)
        assert got == pytest.approx(9.039941472683638, rel=1e-12)
        assert got == pytest.approx(mp_evaluate(3.0, 100.0, 0.01, 3.0), rel=1e-12)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            evaluate(1.0, C100, 0.01, -1.0 / C100)
        with pytest.raises(ValueError):
            evaluate(1.0, C100, 0.01, -0.2)


class TestDerivative:
    def test_value_at_zero_is_omega_c(self):
        assert derivative(1.0, C100, 0.01, 0.0) == C100
        assert derivative(2.5, C100, 0.01, 0.0) == pytest.approx(2.5 * C100, rel=1e-15)

    def test_reference_points(self):
        got = derivative(3.0, C100, 0.01, 2.55)
        assert got == pytest.approx(1.0600327284830577, rel=1e-12)
        assert got == pytest.approx(mp_derivative(3.0, 100.0, 0.01, 2.55), rel=1e-12)
        got = derivative(2.0, C100, 0.01, 1.67)
        assert got == pytest.approx(1.0653860987262479, rel=1e-12)

    def test_matches_finite_difference_on_grid(self):
        h = 1e-6
        for k in range(100):
            x = 10.0 * k / 99.0
            numeric = (
                evaluate(2.0, C100, 0.01, x + h) - evaluate(2.0, C100, 0.01, x - h)
            ) / (2.0 * h)
            exact = derivative(2.0, C100, 0.01, x)
            assert abs(exact - numeric) <= 1e-5 * max(1.0, abs(exact))

    @given(
        x1=st.floats(min_value=-0.14, max_value=50.0),
        x2=st.floats(min_value=-0.14, max_value=50.0),
    )
    def test_strictly_decreasing(self, x1, x2):
        if x1 == x2:
            return
        lo, hi = min(x1, x2), max(x1, x2)
        d_lo = derivative(1.5, C100, 0.01, lo)
        d_hi = derivative(1.5, C100, 0.01, hi)
        assert d_lo >= d_hi
        # strictness is only resolvable above rounding granularity
        if hi - lo > 1e-9:
            assert d_lo > d_hi

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            derivative(1.0, C100, 0.01, -0.5)


class TestCurvature:
    @given(
        omega=st.floats(min_value=-4.0, max_value=4.0).map(lambda e: 10.0**e),
        x=st.floats(min_value=-0.14, max_value=1e3),
    )
    def test_is_the_derivative_of_the_marginal(self, omega, x):
        c = mpmath.log(101, 2)
        xm = mpmath.mpf(x)
        want = mpmath.diff(lambda t: omega * c / (c * t + 1) - mpmath.mpf("0.02") * t, xm)
        assert curvature(omega, C100, 0.01, x) == pytest.approx(float(want), rel=1e-12)

    def test_reciprocal_is_the_inverse_slope(self):
        h = 1e-6
        for v in (-50.0, -1.0, 0.0, 1.0617, 5.0, 6.0, 1e3):
            def inverse(v):
                return invert_derivative(3.0, C100, 0.01, v)

            numeric = (inverse(v + h) - inverse(v - h)) / (2.0 * h)
            slope = 1.0 / curvature(3.0, C100, 0.01, inverse(v))
            assert slope == pytest.approx(numeric, rel=1e-6), v

    def test_domain_checked(self):
        with pytest.raises(ValueError, match="outside the utility domain"):
            curvature(1.0, C100, 0.01, -1.0 / C100)


class TestInvertDerivative:
    def test_matches_bisection_oracle(self):
        got = invert_derivative(3.0, C100, 0.01, 1.0617)
        assert got == pytest.approx(bisect_inverse(3.0, C100, 0.01, 1.0617), abs=1e-9)
        assert got == pytest.approx(2.5461410527031902, rel=1e-12)

    def test_inverse_of_derivative_at_zero(self):
        v = 1.0 * C100
        assert invert_derivative(1.0, C100, 0.01, v) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("x0", [0.1, 1.234, 4.9])
    def test_round_trip_named_points(self, x0):
        v = derivative(2.0, C100, 0.01, x0)
        assert invert_derivative(2.0, C100, 0.01, v) == pytest.approx(x0, abs=1e-9)

    @given(x=st.floats(min_value=-0.149, max_value=50.0))
    def test_round_trip_over_domain(self, x):
        v = derivative(1.0, C100, 0.01, x)
        assert abs(invert_derivative(1.0, C100, 0.01, v) - x) <= 1e-9

    @given(v=st.floats(min_value=-1e3, max_value=1e3), wide=st.floats())
    @example(v=0.0, wide=-(2.0**512))
    def test_result_stays_in_log_domain(self, v, wide):
        x = invert_derivative(2.0, C100, 0.01, v)
        assert x > -1.0 / C100
        # and it really is the inverse
        assert derivative(2.0, C100, 0.01, x) == pytest.approx(v, abs=1e-6 * max(1.0, abs(v)))
        # the unchecked form on hoisted constants: the same bits, or the same
        # OverflowError, which c = 1 and price = 0.5 raise from |wide| = 2**512 on
        for c, price, u in ((C100, 0.01, v), (capacity_coefficient(1.0), 0.5, wide)):
            constants = 2.0 * c, 8.0 * 2.0 * price * c * c, 2.0 * price, 2.0 * price * c
            got = hex_or_overflow(inverse_from_constants, *constants, c, u)
            assert got == hex_or_overflow(invert_derivative, 2.0, c, price, u)

    def test_extreme_negative_v_far_right_root(self):
        x = invert_derivative(1.0, C100, 0.01, -1e3)
        assert derivative(1.0, C100, 0.01, x) == pytest.approx(-1e3, rel=1e-9)

    @pytest.mark.parametrize("omega", [3.0, 8.0, 0.7, 2.0])
    def test_zero_linear_coefficient(self, omega):
        # snr 1, price 0.5 and v = -1 give c = 1 and b = 2*price + v*c == +0.0,
        # where x**2 + (v - omega*c) = 0 has the root sqrt(omega + 1)
        c, price, v = capacity_coefficient(1.0), 0.5, -1.0
        b = 2.0 * price + v * c
        assert c == 1.0 and b == 0.0 and math.copysign(1.0, b) == 1.0
        x = invert_derivative(omega, c, price, v)
        assert x == pytest.approx(math.sqrt(omega + 1.0), rel=1e-15)
        if omega in (3.0, 8.0):  # every operation is exact
            assert x == math.sqrt(omega + 1.0)
        # the same bits as the quotient pair taken with q = -root/2 at b == 0
        q = -0.5 * math.sqrt((2.0 * price - v * c) ** 2 + 8.0 * omega * price * c * c)
        assert x.hex() == max(q / (2.0 * price * c), (v - omega * c) / q).hex()
        np = pytest.importorskip("numpy")
        from bandalloc.array_kernel import inverse_for

        xs = inverse_for(np.array([omega]), c, price, None)(v)
        assert [got.hex() for got in xs.tolist()] == [x.hex()]

    def test_overflows_where_pow_does(self):
        # c = 1 and price = 0.5 make the base t = 2*price - v*c = 1 - v;
        # t*t first overflows at |t| = 2**512
        c, price = capacity_coefficient(1.0), 0.5
        edge = 2.0**512
        below = math.nextafter(edge, 0.0)
        raised = []
        for v in (-below, below, -edge, edge, -1e200, 1e300, -math.inf, math.inf, math.nan):
            t = 2.0 * price - v * c
            try:
                t**2
            except OverflowError as exc:
                with pytest.raises(OverflowError) as excinfo:
                    invert_derivative(2.0, c, price, v)
                assert excinfo.value.args == exc.args == (34, "Numerical result out of range")
                raised.append(v)
            else:
                invert_derivative(2.0, c, price, v)
        # an infinite base squares to inf without raising, as in pow
        assert raised == [-edge, edge, -1e200, 1e300]

    @pytest.mark.parametrize("price", [0.0, -0.01])
    def test_rejects_nonpositive_price(self, price):
        with pytest.raises(ValueError):
            invert_derivative(1.0, C100, price, 1.0)
        with pytest.raises(ValueError, match="^capacity coefficient must be positive, got 0.0$"):
            invert_derivative(1.0, 0.0, 0.01, 1.0)
