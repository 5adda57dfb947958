"""Closed-form symmetric pricers: bonds, notes, swaps, par rates."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_rates.curve import DiscountCurve, flat_curve
from robust_rates.errors import DomainError
from robust_rates.linear_pricing import (
    LinearContract,
    TenorSchedule,
    annuity,
    price_fixed_coupon_bond,
    price_floating_rate_note,
    price_swap,
    swap_rate,
)


def fcb(schedule, rate, notional=1.0):
    return LinearContract(kind="fixed-coupon-bond", schedule=schedule, fixed_rate=rate, notional=notional)


def frn(schedule):
    return LinearContract(kind="floating-rate-note", schedule=schedule)


def swap(schedule, rate):
    return LinearContract(kind="payer-swap", schedule=schedule, fixed_rate=rate)


class TestSchedule:
    def test_accruals(self):
        s = TenorSchedule(dates=(1.0, 1.5, 2.25))
        assert s.accruals == (0.5, 0.75)

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            TenorSchedule(dates=(1.0, 0.5))

    def test_rejects_nonpositive_start(self):
        with pytest.raises(DomainError):
            TenorSchedule(dates=(0.0, 1.0))

    def test_needs_two_dates(self):
        with pytest.raises(DomainError):
            TenorSchedule(dates=(1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rejects_non_finite_dates_naming_the_schedule(self, position, bad):
        # NaN passes the ordering checks; the error must name the schedule,
        # not the curve a later pricing call would trip over.
        dates = [1.0, 1.5, 2.0]
        dates[position] = bad
        with pytest.raises(DomainError, match=rf"schedule dates must be finite, got "
                                              rf"\({', '.join(map(str, dates))}\)"):
            TenorSchedule(dates=tuple(dates))

    @given(st.lists(st.floats(0.1, 5.0), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_cumulative_dates_always_valid(self, gaps):
        import numpy as np

        dates = tuple(np.cumsum(gaps))
        s = TenorSchedule(dates=dates)
        assert s.periods == len(dates) - 1


class TestFixedCouponBond:
    def test_zero_coupon_limit(self):
        c = flat_curve(0.02)
        s = TenorSchedule(dates=(1.0, 2.0))
        assert price_fixed_coupon_bond(c, fcb(s, 0.0)).upper == pytest.approx(
            c.bond_price(2.0), rel=1e-15
        )

    def test_flat_curve_closed_form(self):
        # Coupons at 1y and 2y with unit accruals: the accrual clock starts
        # at T_0 -> 0 (no cashflow at the first schedule date).
        c = flat_curve(0.02)
        s = TenorSchedule(dates=(1e-9, 1.0, 2.0))
        expected = math.exp(-0.04) + 0.05 * (math.exp(-0.02) + math.exp(-0.04))
        got = price_fixed_coupon_bond(c, fcb(s, 0.05))
        assert got.upper == pytest.approx(expected, abs=1e-9)
        assert got.symmetric and got.lower == got.upper

    def test_single_period_pays_final_coupon_only(self):
        c = flat_curve(0.02)
        s = TenorSchedule(dates=(1.0, 2.0))
        got = price_fixed_coupon_bond(c, fcb(s, 0.05))
        assert got.upper == pytest.approx(math.exp(-0.04) * 1.05, rel=1e-14)

    def test_is_linear_combination_of_bonds(self):
        c = DiscountCurve(knots=((0.0, 0.01), (10.0, 0.03)), horizon=30.0)
        s = TenorSchedule(dates=(1.0, 2.0))
        direct = c.bond_price(2.0) + 0.05 * annuity(c, s)
        assert price_fixed_coupon_bond(c, fcb(s, 0.05)).upper == pytest.approx(direct, rel=1e-15)

    def test_notional_scaling(self):
        c = flat_curve(0.02)
        s = TenorSchedule(dates=(1.0, 2.0))
        one = price_fixed_coupon_bond(c, fcb(s, 0.05)).upper
        two = price_fixed_coupon_bond(c, fcb(s, 0.05, notional=2.0)).upper
        assert two == pytest.approx(2 * one, rel=1e-15)

    def test_negative_coupon_rejected(self):
        with pytest.raises(DomainError):
            fcb(TenorSchedule(dates=(1.0, 2.0)), -0.01)


class TestFloatingRateNote:
    def test_flat_curve(self):
        c = flat_curve(0.02)
        got = price_floating_rate_note(c, frn(TenorSchedule(dates=(1.0, 1.5, 2.0))))
        assert got.upper == pytest.approx(math.exp(-0.02), rel=1e-15)

    def test_par_limit_at_short_start(self):
        c = flat_curve(0.02)
        got = price_floating_rate_note(c, frn(TenorSchedule(dates=(1e-9, 1.0))))
        assert got.upper == pytest.approx(1.0, abs=1e-10)

    def test_wrong_kind_rejected(self):
        with pytest.raises(DomainError):
            price_floating_rate_note(flat_curve(0.02), fcb(TenorSchedule(dates=(1.0, 2.0)), 0.05))


class TestSwap:
    def test_zero_fixed_rate(self):
        c = flat_curve(0.02)
        s = TenorSchedule(dates=(1.0, 1.5, 2.0))
        got = price_swap(c, swap(s, 0.0))
        assert got.upper == pytest.approx(c.bond_price(1.0) - c.bond_price(2.0), rel=1e-14)

    def test_flat_curve_closed_form(self):
        c = flat_curve(0.02)
        s = TenorSchedule(dates=(1.0, 1.5, 2.0))
        expected = (
            math.exp(-0.02)
            - math.exp(-0.04)
            - 0.04 * 0.5 * (math.exp(-0.03) + math.exp(-0.04))
        )
        assert price_swap(c, swap(s, 0.04)).upper == pytest.approx(expected, rel=1e-14)

    def test_par_rate_round_trip(self):
        c = DiscountCurve(knots=((0.0, 0.01), (10.0, 0.03)), horizon=30.0)
        s = TenorSchedule(dates=(1.0, 1.5, 2.0, 2.5, 3.0))
        k = swap_rate(c, s)
        assert abs(price_swap(c, swap(s, k)).upper) <= 1e-12


class TestSwapRate:
    def test_single_period_flat(self):
        r, t0, t1 = 0.03, 1.0, 1.75
        c = flat_curve(r)
        delta = t1 - t0
        expected = (math.exp(r * delta) - 1.0) / delta
        assert swap_rate(c, TenorSchedule(dates=(t0, t1))) == pytest.approx(expected, rel=1e-13)

    def test_zero_rates(self):
        assert swap_rate(flat_curve(0.0), TenorSchedule(dates=(1.0, 2.0))) == 0.0


class TestConsistency:
    def test_fcb_equals_frn_minus_swap(self):
        # A coupon bond replicates a floating rate note minus a payer swap
        # struck at the coupon (both legs share the schedule and principal).
        c = DiscountCurve(knots=((0.0, 0.015), (5.0, 0.035)), horizon=30.0)
        s = TenorSchedule(dates=(0.5, 1.0, 1.5, 2.0))
        K = 0.04
        lhs = price_fixed_coupon_bond(c, fcb(s, K)).upper
        rhs = price_floating_rate_note(c, frn(s)).upper - price_swap(c, swap(s, K)).upper
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_bounds_always_coincide(self):
        c = flat_curve(0.02)
        s = TenorSchedule(dates=(1.0, 2.0, 3.0))
        for b in (
            price_fixed_coupon_bond(c, fcb(s, 0.03)),
            price_floating_rate_note(c, frn(s)),
            price_swap(c, swap(s, 0.03)),
        ):
            assert b.symmetric and b.lower == b.upper

    def test_horizon_violation_rejected(self):
        c = flat_curve(0.02, horizon=1.5)
        with pytest.raises(DomainError):
            price_swap(c, swap(TenorSchedule(dates=(1.0, 2.0)), 0.03))
