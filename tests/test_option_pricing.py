"""Caps, floors, in-arrears swaps, swaptions: closed forms and their oracles."""

import math

import numpy as np
import pytest

from robust_rates.curve import flat_curve
from robust_rates.errors import DomainError, UnsupportedMethodError
from robust_rates.linear_pricing import LinearContract, TenorSchedule, price_swap
from robust_rates.lognormal import (
    lognormal_call,
    lognormal_put,
    lognormal_second_moment,
)
from robust_rates.mc import MCConfig
from robust_rates.option_pricing import (
    OptionContract,
    price_cap,
    price_caplet_sigma,
    price_floor,
    price_floorlet_sigma,
    price_in_arrears_swap,
    price_swaption,
    transformed_strike,
)
from robust_rates.oracle import lattice_price
from robust_rates.uncertainty import UncertaintyBand, degenerate_band
from robust_rates.vol_structure import HoLeeFactor, HullWhiteFactor, VolStructure, ho_lee, hull_white

CURVE = flat_curve(0.02)
VS = ho_lee(0.01)
BAND = UncertaintyBand((0.5,), (1.5,))
SCHED = TenorSchedule(dates=(1.0, 1.5, 2.0))


def cap(k=0.04, sched=SCHED):
    return OptionContract(kind="cap", schedule=sched, strike_rate=k)


def floor(k=0.04, sched=SCHED):
    return OptionContract(kind="floor", schedule=sched, strike_rate=k)


class TestTransformedStrike:
    def test_value(self):
        assert transformed_strike(0.5, 0.04) == pytest.approx(1 / 1.02, rel=1e-15)

    def test_in_unit_interval(self):
        for d, k in ((0.25, 0.01), (1.0, 0.2), (2.0, 0.07)):
            assert 0.0 < transformed_strike(d, k) < 1.0

    def test_positivity_required(self):
        with pytest.raises(DomainError):
            transformed_strike(0.0, 0.04)
        with pytest.raises(DomainError):
            transformed_strike(0.5, -0.01)


class TestLognormalDegenerate:
    # v = 0 collapses the option values to intrinsics.
    def test_put_out_of_the_money(self):
        assert lognormal_put(1.01, 0.98, 0.0) == 0.0

    def test_put_in_the_money(self):
        assert lognormal_put(0.95, 0.98, 0.0) == pytest.approx(0.03, rel=1e-15)

    def test_parity(self):
        for v in (0.0, 0.05, 0.4):
            c = lognormal_call(0.99, 0.97, v)
            p = lognormal_put(0.99, 0.97, v)
            assert c - p == pytest.approx(0.02, abs=1e-15)


class TestCaplet:
    def test_closed_form_vs_lattice_oracle(self):
        # Degenerate lattice at the same constant scaling is the independent
        # numerical route; agreement to 4 significant digits.
        closed = price_caplet_sigma(CURVE, VS, (1.5,), 0, SCHED, 0.04)
        ki = transformed_strike(0.5, 0.04)
        lat = (
            CURVE.bond_price(1.0)
            / ki
            * lattice_price(
                CURVE, VS, degenerate_band((1.5,)), 1.0, 1.0, 1.5,
                lambda x: np.maximum(ki - x, 0.0), 2000,
            )
        )
        assert lat == pytest.approx(closed, rel=5e-4)

    def test_monotone_in_scaling(self):
        vals = [price_caplet_sigma(CURVE, VS, (s,), 0, SCHED, 0.04) for s in (0.5, 1.0, 1.5)]
        assert vals[0] < vals[1] < vals[2]

    def test_period_index_checked(self):
        with pytest.raises(DomainError):
            price_caplet_sigma(CURVE, VS, (1.0,), 2, SCHED, 0.04)


class TestCap:
    def test_degenerate_band_collapses_to_classical(self):
        deg = degenerate_band((1.2,))
        b = price_cap(CURVE, VS, deg, cap())
        classical = sum(price_caplet_sigma(CURVE, VS, (1.2,), i, SCHED, 0.04) for i in range(2))
        assert b.symmetric
        assert b.upper == pytest.approx(classical, rel=1e-14)
        assert b.lower == b.upper

    def test_upper_nondecreasing_in_band_width(self):
        uppers = [
            price_cap(CURVE, VS, UncertaintyBand((0.5,), (hi,)), cap()).upper
            for hi in (1.0, 1.25, 1.5, 2.0)
        ]
        assert all(b > a for a, b in zip(uppers, uppers[1:]))

    def test_scenario_dominance_on_sigma_grid(self):
        b = price_cap(CURVE, VS, BAND, cap())
        for s in np.linspace(0.5, 1.5, 5):
            classical = sum(
                price_caplet_sigma(CURVE, VS, (s,), i, SCHED, 0.04) for i in range(2)
            )
            assert b.lower - 1e-14 <= classical <= b.upper + 1e-14

    def test_strictly_asymmetric_for_wide_band(self):
        b = price_cap(CURVE, VS, BAND, cap())
        assert not b.symmetric
        assert b.upper > b.lower


class TestFloorParity:
    def test_parity_at_both_bounds(self):
        cb = price_cap(CURVE, VS, BAND, cap())
        fb = price_floor(CURVE, VS, BAND, floor())
        sw = price_swap(
            CURVE, LinearContract(kind="payer-swap", schedule=SCHED, fixed_rate=0.04)
        )
        assert cb.upper - fb.upper == pytest.approx(sw.upper, abs=1e-14)
        assert cb.lower - fb.lower == pytest.approx(sw.lower, abs=1e-14)

    def test_deep_strike_limits(self):
        K = 5.0
        cb = price_cap(CURVE, VS, BAND, cap(K))
        fb = price_floor(CURVE, VS, BAND, floor(K))
        sw = price_swap(CURVE, LinearContract(kind="payer-swap", schedule=SCHED, fixed_rate=K))
        assert cb.upper <= 1e-12  # hopeless cap
        assert fb.upper == pytest.approx(-sw.upper, abs=1e-10)  # pure fixed-minus-float

    def test_degenerate_band_classical_floor(self):
        deg = degenerate_band((0.8,))
        fb = price_floor(CURVE, VS, deg, floor())
        classical = sum(price_floorlet_sigma(CURVE, VS, (0.8,), i, SCHED, 0.04) for i in range(2))
        assert fb.upper == pytest.approx(classical, rel=1e-14)
        assert fb.symmetric


class TestInArrears:
    def contract(self, k=0.04):
        return OptionContract(kind="in-arrears-payer-swap", schedule=SCHED, strike_rate=k)

    def test_zero_vol_limit_formula(self):
        # With V -> 0 each period contributes P(T_i)(x^2 - x/K_i).
        vs_tiny = ho_lee(1e-9)
        b = price_in_arrears_swap(CURVE, vs_tiny, BAND, self.contract())
        expected = 0.0
        for i in range(SCHED.periods):
            tr, tp = SCHED.dates[i], SCHED.dates[i + 1]
            ki = transformed_strike(tp - tr, 0.04)
            x = CURVE.forward_price(tp, tr)
            expected += CURVE.bond_price(tp) * (x * x - x / ki)
        assert b.upper == pytest.approx(expected, abs=1e-12)
        assert b.lower == pytest.approx(expected, abs=1e-12)

    def test_spread_strictly_positive_for_wide_band(self):
        b = price_in_arrears_swap(CURVE, VS, BAND, self.contract())
        assert b.upper - b.lower > 1e-6

    def test_per_period_vs_lattice_at_extremes(self):
        b = price_in_arrears_swap(CURVE, VS, BAND, self.contract())
        for scale, bound in ((1.5, b.upper), (0.5, b.lower)):
            total = 0.0
            for i in range(SCHED.periods):
                tr, tp = SCHED.dates[i], SCHED.dates[i + 1]
                ki = transformed_strike(tp - tr, 0.04)
                total += CURVE.bond_price(tp) * lattice_price(
                    CURVE, VS, degenerate_band((scale,)), tp, tr, tr,
                    lambda x: x * (x - 1.0 / ki), 1500,
                )
            assert bound == pytest.approx(total, rel=1e-6)

    def test_vol_pair_order_is_immaterial(self):
        # The driver vol enters squared, so (T_i, T_{i-1}) vs (T_{i-1}, T_i)
        # give the same integrated variance.
        a = VS.integrated_variance((1.5,), 0.0, 1.0, 1.5, 1.0)
        b = VS.integrated_variance((1.5,), 0.0, 1.0, 1.0, 1.5)
        assert a == pytest.approx(b, rel=1e-15)

    def test_second_moment_identity(self):
        assert lognormal_second_moment(1.01, 0.3) == pytest.approx(
            1.01**2 * math.exp(0.09), rel=1e-15
        )


class TestSwaption:
    def contract(self, k=0.04, sched=SCHED):
        return OptionContract(kind="swaption-payer", schedule=sched, strike_rate=k)

    def test_single_period_equals_caplet(self):
        s1 = TenorSchedule(dates=(1.0, 1.5))
        q = price_swaption(CURVE, VS, BAND, self.contract(sched=s1))
        c1 = price_cap(CURVE, VS, BAND, cap(sched=s1))
        assert q.upper == pytest.approx(c1.upper, abs=1e-10)
        assert q.lower == pytest.approx(c1.lower, abs=1e-10)

    def test_tiny_strike_is_bond_put(self):
        # K -> 0 leaves (1 - X^N)^+: a put struck at 1 on the long forward price.
        s = TenorSchedule(dates=(1.0, 2.0))
        q = price_swaption(CURVE, VS, BAND, self.contract(k=1e-12, sched=s))
        x = CURVE.forward_price(1.0, 2.0)
        for scale, bound in ((1.5, q.upper), (0.5, q.lower)):
            v = math.sqrt(VS.integrated_variance((scale,), 0.0, 1.0, 1.0, 2.0))
            ref = CURVE.bond_price(1.0) * lognormal_put(x, 1.0, v)
            assert bound == pytest.approx(ref, abs=1e-10)

    def test_deep_out_of_the_money(self):
        q = price_swaption(CURVE, VS, BAND, self.contract(k=5.0))
        assert q.lower == 0.0 and q.upper == 0.0

    def test_quadrature_agrees_with_monte_carlo(self):
        sched = TenorSchedule(dates=(1.0, 1.5, 2.0, 2.5))
        c = self.contract(sched=sched)
        q = price_swaption(CURVE, VS, BAND, c, method="quadrature-1f")
        m = price_swaption(
            CURVE, VS, BAND, c, method="monte-carlo", mc=MCConfig(paths=1_000_000, seed=42)
        )
        assert abs(q.upper - m.upper) <= 3.0 * m.diagnostics["se_upper"]
        assert abs(q.lower - m.lower) <= 3.0 * m.diagnostics["se_lower"]

    def test_quadrature_needs_one_factor(self):
        vs2 = VolStructure(factors=(HoLeeFactor(c=0.01), HullWhiteFactor(c=0.01, kappa=0.2)))
        band2 = UncertaintyBand((0.5, 0.5), (1.5, 1.5))
        with pytest.raises(UnsupportedMethodError):
            price_swaption(CURVE, vs2, band2, self.contract(), method="quadrature-1f")

    def test_two_factor_monte_carlo_brackets_classicals(self):
        vs2 = VolStructure(factors=(HoLeeFactor(c=0.007), HullWhiteFactor(c=0.007, kappa=0.2)))
        band2 = UncertaintyBand((0.5, 0.5), (1.5, 1.5))
        m = price_swaption(
            CURVE, vs2, band2, self.contract(), method="monte-carlo",
            mc=MCConfig(paths=200_000, seed=3),
        )
        mid = price_swaption(
            CURVE, vs2, degenerate_band((1.0, 1.0)), self.contract(), method="monte-carlo",
            mc=MCConfig(paths=200_000, seed=3),
        )
        se = 3 * max(m.diagnostics["se_upper"], mid.diagnostics["se_upper"])
        assert m.lower - se <= mid.upper <= m.upper + se

    def test_unknown_method(self):
        with pytest.raises(UnsupportedMethodError):
            price_swaption(CURVE, VS, BAND, self.contract(), method="binomial")

    @pytest.mark.parametrize("c", [1e3, 1e150])
    def test_huge_factor_level_stays_within_no_arbitrage_range(self, c):
        # Every w_i is far beyond the root bracket, so the swap rate is
        # ~surely below the strike and the payer pays the whole bond: the
        # tail formula gives P(T_0), never the negative intrinsic value.
        s = TenorSchedule(dates=(1.0, 2.0))
        q = price_swaption(CURVE, ho_lee(c), BAND, self.contract(sched=s))
        assert 0.0 <= q.lower <= q.upper <= CURVE.bond_price(1.0)

    def test_non_separable_mc_agrees_with_quadrature(self):
        # A constant tabulated surface is a ho-lee factor in disguise but
        # routes through the eigen-factorized joint-covariance sampler.
        from robust_rates.vol_structure import TabulatedFactor

        tab = VolStructure(
            factors=(
                TabulatedFactor(
                    t_grid=(0.0, 30.0), maturity_grid=(0.0, 30.0),
                    values=((0.01, 0.01), (0.01, 0.01)),
                ),
            )
        )
        assert not tab.is_separable()
        c = self.contract()
        q = price_swaption(CURVE, VS, BAND, c, method="quadrature-1f")
        m = price_swaption(
            CURVE, tab, BAND, c, method="monte-carlo", mc=MCConfig(paths=400_000, seed=13)
        )
        assert abs(q.upper - m.upper) <= 3.0 * m.diagnostics["se_upper"]
        assert abs(q.lower - m.lower) <= 3.0 * max(m.diagnostics["se_lower"], 1e-12)

    def test_hull_white_quadrature_vs_mc(self):
        vs = hull_white(0.012, 0.3)
        c = self.contract()
        q = price_swaption(CURVE, vs, BAND, c, method="quadrature-1f")
        m = price_swaption(CURVE, vs, BAND, c, method="monte-carlo", mc=MCConfig(paths=500_000, seed=9))
        assert abs(q.upper - m.upper) <= 3.0 * m.diagnostics["se_upper"]


class TestBoundsInvariants:
    def test_upper_at_least_lower_everywhere(self):
        contracts = [
            cap(), floor(),
            OptionContract(kind="in-arrears-payer-swap", schedule=SCHED, strike_rate=0.04),
            OptionContract(kind="swaption-payer", schedule=SCHED, strike_rate=0.04),
        ]
        from robust_rates.option_pricing import price_option

        for c in contracts:
            b = price_option(CURVE, VS, BAND, c)
            assert b.upper >= b.lower
            assert not b.symmetric

    def test_degenerate_band_collapse_within_tolerance(self):
        from robust_rates.option_pricing import price_option

        deg = degenerate_band((1.0,))
        for kind in ("cap", "floor", "in-arrears-payer-swap", "swaption-payer"):
            c = OptionContract(kind=kind, schedule=SCHED, strike_rate=0.04)
            b = price_option(CURVE, VS, deg, c)
            assert b.symmetric
            assert abs(b.upper - b.lower) <= 1e-9

    def test_band_dimension_checked(self):
        band2 = UncertaintyBand((0.5, 0.5), (1.5, 1.5))
        with pytest.raises(DomainError):
            price_cap(CURVE, VS, band2, cap())
