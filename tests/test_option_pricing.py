"""Caps, floors, in-arrears swaps, swaptions: closed forms, their oracles, and
properties over random markets."""

import dataclasses
import math
import re
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr

from robust_rates import option_pricing
from robust_rates.config import ConfiguredContract, PricingSetup, price_configured
from robust_rates.curve import DiscountCurve, flat_curve
from robust_rates.errors import ConvergenceError, DomainError, UnsupportedMethodError
from robust_rates.linear_pricing import LinearContract, TenorSchedule, price_linear, price_swap
from robust_rates.lognormal import (
    lognormal_call,
    lognormal_put,
    lognormal_second_moment,
    norm_cdf,
)
from robust_rates.mc import MCConfig
from robust_rates.option_pricing import (
    OPTION_KINDS,
    OptionContract,
    _brentq,
    _swaption_value_comonotone,
    as_stream,
    price_cap,
    price_floor,
    price_in_arrears_swap,
    price_option,
    price_swaption,
)
from robust_rates.oracle import lattice_price
from robust_rates.stream import (
    CashflowStream,
    ConstantLeg,
    FloatingLinearLeg,
    caplet_leg,
    capped_call_spread_leg,
    capped_forward_leg,
    closed_form_bounds,
    floorlet_leg,
    in_arrears_leg,
    leg_bounds,
    price_leg_bounds,
    price_stream,
    transformed_strike,
)
from robust_rates.uncertainty import UncertaintyBand, degenerate_band
from robust_rates.vol_structure import (
    HoLeeFactor,
    HullWhiteFactor,
    TabulatedFactor,
    VolStructure,
    ho_lee,
    hull_white,
)

CURVE = flat_curve(0.02)
VS = ho_lee(0.01)
BAND = UncertaintyBand((0.5,), (1.5,))
SCHED = TenorSchedule(dates=(1.0, 1.5, 2.0))


# -- per-period closed forms coded directly, as references for the pricers ----
# The pricers build the same values from the stream's leg constructors; these
# keep the textbook forms, the in-arrears one on the reversed forward price
# under the payment-date measure.


def price_caplet_sigma(curve, vs, sigma, i, schedule, strike_rate):
    """P(T_{i-1}) / K_i * E[(K_i - X)^+], X = P(T_i)/P(T_{i-1}) at scaling sigma."""
    t_reset, t_pay = schedule.dates[i], schedule.dates[i + 1]
    ki = transformed_strike(t_pay - t_reset, strike_rate)
    x = curve.forward_price(t_reset, t_pay)
    v2 = vs.integrated_variance(sigma, 0.0, t_reset, t_reset, t_pay)
    return curve.bond_price(t_reset) / ki * lognormal_put(x, ki, math.sqrt(v2))


def price_floorlet_sigma(curve, vs, sigma, i, schedule, strike_rate):
    """The call counterpart of price_caplet_sigma."""
    t_reset, t_pay = schedule.dates[i], schedule.dates[i + 1]
    ki = transformed_strike(t_pay - t_reset, strike_rate)
    x = curve.forward_price(t_reset, t_pay)
    v2 = vs.integrated_variance(sigma, 0.0, t_reset, t_reset, t_pay)
    return curve.bond_price(t_reset) / ki * lognormal_call(x, ki, math.sqrt(v2))


def inarrears_period_sigma(curve, vs, sigma, i, schedule, strike_rate):
    """P(T_i) * (x^2 e^V - x / K_i), x = P(T_{i-1})/P(T_i) the reversed forward."""
    t_reset, t_pay = schedule.dates[i], schedule.dates[i + 1]
    ki = transformed_strike(t_pay - t_reset, strike_rate)
    x = curve.forward_price(t_pay, t_reset)
    v2 = vs.integrated_variance(sigma, 0.0, t_reset, t_pay, t_reset)
    return curve.bond_price(t_pay) * (lognormal_second_moment(x, math.sqrt(v2)) - x / ki)


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

    @pytest.mark.parametrize("accrual, rate", [(0.5, math.inf), (math.inf, 0.03), (0.5, math.nan),
                                               (math.nan, 0.03)])
    def test_finiteness_required(self, accrual, rate):
        # An infinite rate or accrual would make K_i = 0.0, and the leg a
        # ZeroDivisionError or a DomainError about k=0.0 at pricing time.
        message = f"finite positive accrual and rate, got {accrual}, {rate}"
        for make in (transformed_strike, caplet_leg, floorlet_leg, in_arrears_leg):
            with pytest.raises(DomainError, match=re.escape(message)):
                make(accrual, rate)

    def test_overflowing_gross_rate_is_named(self):
        # 1 + 2.0 * 1e308 is inf: K_i would be 1/inf = 0.0, and a cap on the
        # period a DomainError about k=0.0 from lognormal_put.
        message = ("transformed strike: 1 + accrual * strike rate is not finite for accrual 2.0, "
                   "strike rate 1e+308")
        for make in (transformed_strike, caplet_leg, floorlet_leg, in_arrears_leg):
            with pytest.raises(DomainError, match=re.escape(message)):
                make(2.0, 1e308)
        contract = cap(k=1e308, sched=TenorSchedule(dates=(1.0, 3.0)))
        with pytest.raises(DomainError, match=re.escape(message)):
            price_cap(CURVE, VS, BAND, contract)

    @pytest.mark.parametrize("kind", OPTION_KINDS)
    @pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan, 0.0])
    def test_contract_strike_must_be_finite_and_positive(self, kind, rate):
        with pytest.raises(DomainError, match=f"strike rate must be finite and positive, got {rate}"):
            OptionContract(kind=kind, schedule=SCHED, strike_rate=rate)


def _plain_period(curve, vs, lower, upper, leg, t_reset, t_pay):
    """A closed-form period from the four scalar calls, each past its memo."""
    p_reset = DiscountCurve.bond_price.__wrapped__(curve, t_reset)
    x0 = DiscountCurve.forward_price.__wrapped__(curve, t_reset, t_pay)
    return tuple(
        p_reset * leg.expected_value(x0, math.sqrt(VolStructure.integrated_variance.__wrapped__(
            vs, s, 0.0, t_reset, t_reset, t_pay)))
        for s in (lower, upper))


def _fresh(vs):
    """A copy of vs whose memos, and its factors' memos, start cold."""
    return VolStructure(factors=tuple(map(dataclasses.replace, vs.factors)))


PERIOD_STRUCTURES = [
    ho_lee(0.01),
    hull_white(0.012, 0.1),
    VolStructure(factors=(HullWhiteFactor(c=0.012, kappa=0.1), HoLeeFactor(c=0.007))),
    VolStructure(factors=(TabulatedFactor(t_grid=(0.0, 1.2, 4.0), maturity_grid=(0.0, 2.0, 7.5),
                                          values=((0.011, 0.009, 0.008), (0.012, 0.01, 0.007),
                                                  (0.009, 0.01, 0.006))),)),
]


class TestClosedFormPeriods:
    """closed_form_bounds reads each period from two memo lookups
    (DiscountCurve.period_prices, VolStructure.extreme_variance) and keeps
    every bit of the scalar calls they replace."""

    DATES = (1.0, 1.5, 2.0, 3.0, 3.25)
    ALIASES = (1, np.float64(1.5), 2, np.float64(3.0), np.float64(3.25))

    @pytest.mark.parametrize("vs", PERIOD_STRUCTURES, ids=["ho-lee", "hull-white", "two-factor",
                                                           "tabulated"])
    def test_periods_are_the_four_plain_scalar_calls(self, vs):
        curve = DiscountCurve(knots=((0.0, 0.015), (2.0, 0.025), (10.0, 0.03)), horizon=30.0)
        lower, upper = (0.5,) * vs.dim, (1.5,) * vs.dim
        legs = [make(0.25, k) for make in (caplet_leg, floorlet_leg, in_arrears_leg)
                for k in (0.01, 0.04)]
        curve, vs = dataclasses.replace(curve), _fresh(vs)  # cold memos
        # A band, its swapped extremes (a concave leg's) and a degenerate band;
        # float dates fill the memos, then int and np.float64 aliases read them.
        for dates in (self.DATES, self.ALIASES, self.DATES):
            for scales in ((lower, upper), (upper, lower), (upper, upper)):
                for leg in legs:
                    periods = [(i, leg, a, b) for i, (a, b) in enumerate(zip(dates, dates[1:]))]
                    want_lo = want_hi = -0.0
                    for _, _, a, b in periods:
                        lo, hi = _plain_period(curve, vs, *scales, leg, float(a), float(b))
                        want_lo += lo
                        want_hi += hi
                    got = closed_form_bounds(curve, vs, *scales, periods)
                    assert tuple(map(float.hex, got)) == (want_lo.hex(), want_hi.hex())
                    [(i, _, a, b)] = periods[2:3]
                    single = closed_form_bounds(curve, vs, *scales, [(i, leg, a, b)])
                    plain = _plain_period(curve, vs, *scales, leg, float(a), float(b))
                    assert tuple(map(float.hex, single)) == tuple(map(float.hex, plain))

    def test_used_market_equals_a_fresh_one(self):
        curve, vs = flat_curve(0.02), PERIOD_STRUCTURES[3]
        fresh_curve = dataclasses.replace(curve)
        fresh_vs = _fresh(vs)
        price_cap(curve, vs, BAND, cap())
        assert vars(curve) != vars(fresh_curve) and vars(vs) != vars(fresh_vs)  # filled memos
        for used, fresh in ((curve, fresh_curve), (vs, fresh_vs), (vs.factors[0], fresh_vs.factors[0])):
            assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
            assert vars(dataclasses.replace(used)) == vars(dataclasses.replace(fresh))

    @pytest.mark.parametrize("vs", PERIOD_STRUCTURES[1::2], ids=["hull-white", "tabulated"])
    def test_shared_by_threads_returns_serial_bits(self, vs):
        """More threads than cores on one market, switching often, each
        pricing caps and floors under two bands (as a stress run's two bands
        read one memo): every thread reads the serial bits."""
        curve = DiscountCurve(knots=((0.0, 0.015), (2.0, 0.025), (10.0, 0.03)), horizon=30.0)
        bands = UncertaintyBand((0.5,), (1.5,)), UncertaintyBand((0.7,), (1.2,))
        jobs = [(b, OptionContract(kind=kind, schedule=TenorSchedule(
                     dates=tuple(0.5 + 0.25 * (j + k) for k in range(6))), strike_rate=0.03))
                for j in range(12) for kind in ("cap", "floor") for b in bands]

        def bits(curve, vs, jobs):
            return [(b.lower.hex(), b.upper.hex())
                    for b in (price_option(curve, vs, band_, c) for band_, c in jobs)]

        expected = bits(dataclasses.replace(curve), _fresh(vs), jobs)
        shared_curve, shared_vs = dataclasses.replace(curve), _fresh(vs)
        results = {}

        def work(i):
            order = 1 if i % 2 else -1
            results[i] = bits(shared_curve, shared_vs, jobs[::order])[::order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {i: expected for i in range(8)}


@pytest.mark.parametrize("vs", PERIOD_STRUCTURES, ids=["ho-lee", "hull-white", "two-factor",
                                                       "tabulated"])
def test_swaption_inputs_read_each_forward_price(vs):
    """_swaption_inputs reads a schedule's forward prices from one integral
    per date (DiscountCurve.forward_prices): the bits of forward_price(T_0,
    T_k), on a cold curve and on a warm one."""
    curve = DiscountCurve(knots=((0.0, 0.015), (2.0, 0.025), (10.0, 0.03)), horizon=30.0)
    band = UncertaintyBand((0.5,) * vs.dim, (1.5,) * vs.dim)
    for dates in ((1.0, 1.5, 2.0, 3.0, 3.25), tuple(0.75 + 0.25 * k for k in range(41))):
        contract = OptionContract(kind="swaption-payer", schedule=TenorSchedule(dates=dates),
                                  strike_rate=0.03)
        want = [DiscountCurve.forward_price.__wrapped__(curve, dates[0], t).hex() for t in dates[1:]]
        fresh = dataclasses.replace(curve)
        for _ in range(2):
            xs = option_pricing._swaption_inputs(fresh, vs, band, contract)[0]
            assert [x.hex() for x in xs.tolist()] == want
            assert [fresh.forward_price(dates[0], t).hex() for t in dates[1:]] == want


class TestOverflowingPeriods:
    """A period whose variance is not finite, or overflows, stores nothing in
    a memo: a cap and a stream's closed-form leg fail alike on every call."""

    STREAM = CashflowStream(schedule=TenorSchedule(dates=(0.5, 1.0, 1.5)),
                            legs=[ConstantLeg(0.01), caplet_leg(0.5, 0.04)])

    @pytest.mark.parametrize("kind", ["cap", "floor", "in-arrears-payer-swap"])
    def test_infinite_variance_names_the_period_every_time(self, kind):
        vs = hull_white(1e160, 0.1)
        contract = OptionContract(kind=kind, schedule=SCHED, strike_rate=0.04)
        message = ("period 0 [1.0, 1.5]: variance over [0, 1.0] is not finite "
                   "(a factor level too large for its variance integral)")
        for _ in range(3):
            with pytest.raises(DomainError, match=re.escape(message)):
                price_option(CURVE, vs, BAND, contract)

    @pytest.mark.parametrize("tag", ["convex", "concave"])
    def test_stream_leg_names_its_period_every_time(self, tag):
        vs = hull_white(1e160, 0.1)
        message = "period 1 [1.0, 1.5]: variance over [0, 1.0] is not finite"
        for _ in range(3):
            with pytest.raises(DomainError, match=re.escape(message)):
                leg_bounds(CURVE, vs, BAND, self.STREAM, {1: tag})

    @pytest.mark.parametrize("legs, message", [
        ((ConstantLeg(0.01), caplet_leg(0.5, 0.04)), "period 1 [1.0, 1.5]: variance over [0, 1.0]"),
        ((capped_forward_leg(0.99), capped_forward_leg(0.99)),
         "period 0 [0.5, 1.0]: variance over [0, 0.5]"),
        ((ConstantLeg(0.01), capped_call_spread_leg(0.98, 0.01)),
         "period 1 [1.0, 1.5]: variance over [0, 1.0]"),
        ((capped_call_spread_leg(0.98, 0.01), caplet_leg(0.5, 0.04)),
         "period 1 [1.0, 1.5]: variance over [0, 1.0]"),
        # Two general legs reach the coupled recursion without a chord check.
        ((capped_call_spread_leg(0.98, 0.01), capped_call_spread_leg(0.98, 0.02)),
         "period 1 [1.0, 1.5]: variance over [0, 0.5]"),
    ], ids=["constant-caplet", "two-capped-forwards", "capped-call-spread", "spread-caplet-pair",
            "spread-spread-pair"])
    def test_stream_grid_names_its_period_every_time(self, legs, message):
        # A grid six upper stdevs wide would start at x_min = 0.0: the stream
        # names the period instead, as a cap does.
        stream = CashflowStream(schedule=self.STREAM.schedule, legs=legs)
        setup = PricingSetup(curve=CURVE, vol=hull_white(1e160, 0.1), band=BAND, contracts=())
        cc = ConfiguredContract(name="st", contract=stream, nx=41, nt=30)
        message = (f"contract 'st': {message} is not finite "
                   "(a factor level too large for its variance integral)")
        for _ in range(3):
            with pytest.raises(DomainError, match=re.escape(message)):
                price_configured(setup, cc)

    def test_stacked_leg_names_its_period(self):
        stream = CashflowStream(schedule=self.STREAM.schedule,
                                legs=[ConstantLeg(0.01), capped_forward_leg(0.99)])
        with pytest.raises(DomainError, match=re.escape("period 1 [1.0, 1.5]: variance over")):
            leg_bounds(CURVE, hull_white(1e160, 0.1), BAND, stream, {1: "concave"}, nx=41, nt=30)

    def test_level_overflow_is_named_every_time(self):
        # c^2 overflows in the variance integral itself: an OverflowError,
        # which price_configured names with the contract.
        vs = ho_lee(1e160)
        setup = PricingSetup(curve=CURVE, vol=vs, band=BAND, contracts=())
        message = ("contract 'x': numerical overflow (a factor level too large for its "
                   "variance integral)")
        for contract in (cap(), self.STREAM):
            for _ in range(3):
                with pytest.raises(DomainError, match=re.escape(message)):
                    price_configured(setup, ConfiguredContract(name="x", contract=contract))
        for _ in range(3):
            with pytest.raises(OverflowError):
                leg_bounds(CURVE, vs, BAND, self.STREAM, {1: "convex"})


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
        caplet = cap(sched=TenorSchedule(dates=(1.0, 1.5)))
        closed = price_cap(CURVE, VS, degenerate_band((1.5,)), caplet).upper
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
        caplet = cap(sched=TenorSchedule(dates=(1.0, 1.5)))
        vals = [price_cap(CURVE, VS, degenerate_band((s,)), caplet).upper for s in (0.5, 1.0, 1.5)]
        assert vals[0] < vals[1] < vals[2]


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

    @pytest.mark.parametrize("band, solves", [(BAND, 2), (degenerate_band((1.2,)), 1)],
                             ids=["wide", "degenerate"])
    def test_quadrature_solves_each_distinct_extreme_once(self, monkeypatch, band, solves):
        calls = []
        kernel = option_pricing._swaption_value_comonotone

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(option_pricing, "_swaption_value_comonotone", counted)
        q = price_swaption(CURVE, VS, band, self.contract())
        assert len(calls) == solves
        assert (q.lower == q.upper) == band.is_degenerate

    def test_unknown_method(self):
        with pytest.raises(UnsupportedMethodError):
            price_swaption(CURVE, VS, BAND, self.contract(), method="binomial")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [30.0, 1e3, 1e150])
    def test_huge_factor_level_stays_within_no_arbitrage_range(self, c):
        # Every w_i is far beyond the root bracket, so the swap rate is
        # ~surely below the strike and the payer pays the whole bond: the
        # tail formula gives P(T_0), never the negative intrinsic value.
        # At c = 30 the upper extreme's w = 45 overflows e^{-w z - w^2/2}
        # near z = -40, which must not warn.
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
        for c in contracts:
            b = price_option(CURVE, VS, BAND, c)
            assert b.upper >= b.lower
            assert not b.symmetric

    def test_degenerate_band_collapse_within_tolerance(self):
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


# -- properties over random markets ---------------------------------------------

SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@st.composite
def markets(draw):
    """A random curve (flat or linear knots), ho-lee or hull-white factor,
    schedule of 1-40 periods and strike rate."""
    accrual = draw(st.sampled_from((0.25, 0.5, 1.0)))
    start = draw(st.sampled_from((0.25, 0.5, 1.0, 2.0, 5.0)))
    periods = draw(st.integers(1, 40))
    dates = tuple(start + accrual * k for k in range(periods + 1))
    horizon = dates[-1] + 1.0
    rates = draw(st.lists(st.floats(0.0, 0.06), min_size=1, max_size=2))
    knots = ((0.0, rates[0]),) if len(rates) == 1 else ((0.0, rates[0]), (horizon, rates[1]))
    c = draw(st.floats(0.001, 0.02))
    vs = hull_white(c, draw(st.floats(0.01, 0.5))) if draw(st.booleans()) else ho_lee(c)
    strike = draw(st.floats(0.005, 0.05))
    return DiscountCurve(knots=knots, horizon=horizon), vs, TenorSchedule(dates=dates), strike


@st.composite
def bands(draw):
    """A one-factor band, degenerate about one time in five."""
    lo = draw(st.floats(0.1, 1.5))
    widen = 0.0 if draw(st.integers(0, 4)) == 0 else draw(st.floats(0.0, 2.0))
    return UncertaintyBand((lo,), (lo * (1.0 + widen),))


@st.composite
def nested_bands(draw):
    """(inner, outer) with inner inside outer."""
    outer = draw(bands())
    lo, hi = outer.lower[0], outer.upper[0]
    a, b = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
    inner = UncertaintyBand((lo + a * (hi - lo),), (min(lo + b * (hi - lo), hi),))
    return inner, outer


@st.composite
def leg_markets(draw):
    """A random curve, a Ho-Lee, Hull-White or two-factor structure with a
    band of its dimension (degenerate about one time in five), a schedule of
    1-40 periods whose accruals may differ, a strike rate and a notional."""
    steps = draw(st.lists(st.sampled_from((0.25, 0.5, 1.0)), min_size=1, max_size=40))
    dates = [draw(st.sampled_from((0.25, 0.5, 1.0, 2.0, 5.0)))]
    for step in steps:
        dates.append(dates[-1] + step)
    horizon = dates[-1] + 1.0
    rates = draw(st.lists(st.floats(0.0, 0.06), min_size=2, max_size=2))
    curve = DiscountCurve(knots=((0.0, rates[0]), (horizon, rates[1])), horizon=horizon)
    hw = HullWhiteFactor(c=draw(st.floats(0.001, 0.02)), kappa=draw(st.floats(0.01, 0.5)))
    hl = HoLeeFactor(c=draw(st.floats(0.001, 0.02)))
    factors = draw(st.sampled_from(((hl,), (hw,), (hw, hl))))
    lower = tuple(draw(st.floats(0.1, 1.5)) for _ in factors)
    degenerate = draw(st.integers(0, 4)) == 0
    upper = lower if degenerate else tuple(lo * (1.0 + draw(st.floats(0.0, 2.0))) for lo in lower)
    strike = draw(st.floats(1e-6, 0.2))
    notional = draw(st.sampled_from((1.0, -2.5, 1e6)))
    return (curve, VolStructure(factors=factors), UncertaintyBand(lower, upper),
            TenorSchedule(dates=tuple(dates)), strike, notional)


LEG_OF_KIND = {"cap": caplet_leg, "floor": floorlet_leg, "in-arrears-payer-swap": in_arrears_leg}


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(market=leg_markets())
def test_leg_contracts_are_streams_of_their_legs(market):
    """Each bound of a cap, floor or in-arrears swap is, to the last bit,
    the period-order sum of price_leg_bounds over the stream of its legs,
    scaled by the notional as PriceBounds.scaled does."""
    curve, vs, band, sched, strike, notional = market
    for kind, make_leg in LEG_OF_KIND.items():
        b = price_option(curve, vs, band, OptionContract(kind=kind, schedule=sched,
                                                          strike_rate=strike, notional=notional))
        stream = CashflowStream(schedule=sched, legs=[make_leg(d, strike) for d in sched.accruals])
        legs = [price_leg_bounds(curve, vs, band, stream, i) for i in range(sched.periods)]
        lower = notional * sum(leg.lower for leg in legs)
        upper = notional * sum(leg.upper for leg in legs)
        if notional < 0:
            lower, upper = upper, lower
        assert (float.hex(b.lower), float.hex(b.upper)) == (float.hex(lower), float.hex(upper)), kind


@SETTINGS
@given(market=leg_markets())
def test_as_stream_prices_as_the_contract(market):
    """Every contract but the swaption, lowered to its stream of legs and
    priced by price_stream, has the bounds price_option or price_linear
    gives it, within 1e-12 per unit notional."""
    curve, vs, band, sched, strike, notional = market
    contracts = [OptionContract(kind=kind, schedule=sched, strike_rate=strike, notional=notional)
                 for kind in LEG_OF_KIND]
    contracts += [LinearContract(kind=kind, schedule=sched, fixed_rate=rate, notional=notional)
                  for kind, rate in (("fixed-coupon-bond", strike), ("floating-rate-note", None),
                                     ("payer-swap", strike))]
    for contract in contracts:
        want = (price_option(curve, vs, band, contract) if isinstance(contract, OptionContract)
                else price_linear(curve, contract))
        got = price_stream(curve, vs, band, as_stream(contract))
        assert abs(got.lower - want.lower) <= 1e-12 * abs(notional), contract.kind
        assert abs(got.upper - want.upper) <= 1e-12 * abs(notional), contract.kind


def test_as_stream_returns_a_stream_as_it_is_and_rejects_the_rest():
    stream = CashflowStream(schedule=SCHED, legs=(ConstantLeg(0.01), caplet_leg(0.5, 0.04)))
    assert as_stream(stream) is stream
    swaption = OptionContract(kind="swaption-payer", schedule=SCHED, strike_rate=0.03)
    with pytest.raises(DomainError, match="swaption-payer is not a stream"):
        as_stream(swaption)
    with pytest.raises(DomainError, match="TenorSchedule is not a stream"):
        as_stream(SCHED)


REFERENCES = {
    "cap": price_caplet_sigma,
    "floor": price_floorlet_sigma,
    "in-arrears-payer-swap": inarrears_period_sigma,
}
ALL_KINDS = tuple(REFERENCES) + ("swaption-payer",)


class TestRandomMarkets:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(market=markets(), band=bands())
    def test_leg_streams_equal_reference_sums(self, market, band):
        curve, vs, sched, strike = market
        for kind, reference in REFERENCES.items():
            b = price_option(curve, vs, band, OptionContract(kind=kind, schedule=sched, strike_rate=strike))
            for sigma, bound in ((band.lower, b.lower), (band.upper, b.upper)):
                ref = sum(reference(curve, vs, sigma, i, sched, strike) for i in range(sched.periods))
                assert abs(bound - ref) <= 1e-13, (kind, sigma, bound, ref)
            assert b.diagnostics["periods"] == sched.periods

    @SETTINGS
    @given(market=markets(), band=bands())
    def test_cap_minus_floor_is_payer_swap(self, market, band):
        curve, vs, sched, strike = market
        cb = price_cap(curve, vs, band, cap(strike, sched))
        fb = price_floor(curve, vs, band, floor(strike, sched))
        sw = price_swap(curve, LinearContract(kind="payer-swap", schedule=sched, fixed_rate=strike))
        assert abs(cb.upper - fb.upper - sw.upper) <= 1e-12
        assert abs(cb.lower - fb.lower - sw.lower) <= 1e-12

    @SETTINGS
    @given(market=markets(), nested=nested_bands())
    def test_nested_bands_give_nested_bounds(self, market, nested):
        curve, vs, sched, strike = market
        inner, outer = nested
        for kind in ALL_KINDS:
            c = OptionContract(kind=kind, schedule=sched, strike_rate=strike)
            bi, bo = price_option(curve, vs, inner, c), price_option(curve, vs, outer, c)
            tol = 1e-12 if kind == "swaption-payer" else 1e-14
            assert bo.lower <= bi.lower + tol, (kind, bo.lower, bi.lower)
            assert bi.upper <= bo.upper + tol, (kind, bi.upper, bo.upper)
            assert bi.lower <= bi.upper

    @SETTINGS
    @given(market=markets(), sigma=st.floats(0.1, 3.0))
    def test_degenerate_band_collapses(self, market, sigma):
        curve, vs, sched, strike = market
        for kind in ALL_KINDS:
            c = OptionContract(kind=kind, schedule=sched, strike_rate=strike)
            b = price_option(curve, vs, degenerate_band((sigma,)), c)
            assert b.lower == b.upper and b.symmetric, kind

    @SETTINGS
    @given(market=markets(), band_a=bands(), band_b=bands())
    def test_symmetric_prices_do_not_depend_on_the_band(self, market, band_a, band_b):
        """FCB, FRN and swap through the configured-pricing entry point, and
        the same cashflows as streams of constant and floating legs."""
        curve, vs, sched, strike = market
        deltas = sched.accruals
        n = sched.periods
        cases = {
            "fixed-coupon-bond": [ConstantLeg(strike * d + (i == n - 1)) for i, d in enumerate(deltas)],
            "floating-rate-note": [FloatingLinearLeg(d, float(i == n - 1)) for i, d in enumerate(deltas)],
            "payer-swap": [FloatingLinearLeg(d, -strike * d) for d in deltas],
        }
        for kind, legs in cases.items():
            rate = None if kind == "floating-rate-note" else strike
            contract = LinearContract(kind=kind, schedule=sched, fixed_rate=rate)
            setup = PricingSetup(curve=curve, vol=vs, band=band_a,
                                 contracts=(ConfiguredContract(name=kind, contract=contract),))
            stream = CashflowStream(schedule=sched, legs=legs)
            prices = []
            for band in (band_a, band_b):
                b = price_configured(setup, setup.contracts[0], band=band)
                s = price_stream(curve, vs, band, stream)
                assert b.lower == b.upper and s.lower == s.upper and s.symmetric
                assert abs(s.upper - b.upper) <= 1e-12, (kind, s.upper, b.upper)
                prices.append((b.upper, s.upper))
            assert prices[0] == prices[1], kind


# -- the in-package ports of scipy.special.ndtr and scipy.optimize.brentq --------
# scipy is the reference: every value and every root must carry its bits.

MAXLOG = 7.09782712893383996732e2  # Cephes: ln(DBL_MAX)
# |a| where norm_cdf changes branch, x = a/sqrt(2): erf or erfc at |x| = 1/sqrt(2),
# 1 - erf or P/Q at 1, P/Q or R/S at 8, and the erfc underflow at x^2 = MAXLOG.
BRANCH_POINTS = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * MAXLOG))
SPECIAL_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -1e-310,
                  2.2250738585072014e-308, -2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308)


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


def ulp_sweep(center: float, n: int = 64) -> list[float]:
    """center and its n nearest doubles on each side."""
    i = int(np.float64(center).view(np.int64))
    return np.arange(i - n, i + n + 1, dtype=np.int64).view(np.float64).tolist()


def ref_swaption_inputs(curve, vs, sigma, contract):
    """Forward prices x_i = P(T_i)/P(T_0), total stdevs w_i at the scaling
    sigma and exercise coefficients a_i, from one scalar forward_price and
    integrated_variance call per date: the reference for the one-pass inputs
    the pricer builds for both extremes."""
    s = contract.schedule
    t0 = s.start
    xs = np.array([curve.forward_price(t0, t) for t in s.dates[1:]])
    w2 = np.array([vs.integrated_variance(sigma, 0.0, t0, t0, t) for t in s.dates[1:]])
    coefs = np.array(s.accruals) * contract.strike_rate
    coefs[-1] += 1.0
    return xs, np.sqrt(np.maximum(w2, 0.0)), coefs


def scipy_swaption_value(xs, ws, coefs) -> float:
    """The comonotone one-factor swaption value on scipy's brentq and ndtr:
    the reference that ``_swaption_value_comonotone`` reproduces."""
    if np.max(ws) <= 1e-14:
        return max(1.0 - float(np.dot(coefs, xs)), 0.0)

    def gap(z):
        return 1.0 - float(np.dot(coefs * xs, np.exp(-ws * z - 0.5 * ws**2)))

    if gap(40.0) <= 0.0:
        return 0.0
    if gap(-40.0) >= 0.0:
        z_star = -40.0
    else:
        z_star = brentq(gap, -40.0, 40.0, xtol=1e-15, rtol=8.9e-16)
    return float(ndtr(-z_star) - np.dot(coefs * xs, ndtr(-z_star - ws)))


def recorded(f, calls: list):
    def g(x):
        calls.append(x)
        return f(x)
    return g


TEXTBOOK_ROOTS = [
    (lambda x: x * x - 1.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 2.0, -1.0, 3.0),
    (lambda x: (x - 1.0 / 3.0) ** 3, -1.0, 1.0),  # triple root: no convergence in 100
    (lambda x: (x - 0.2) ** 3 + 1e-3 * (x - 0.2), -1.0, 1.0),
    (lambda x: math.atan(x - 0.1), -40.0, 40.0),
    (lambda x: x, 0.0, 1.0),  # the root is an endpoint
    (lambda x: 1.0 if x > 0.25 else -1.0, -2.0, 3.0),  # a jump, no root
]


class TestScipyPorts:
    def test_norm_cdf_at_branch_points_and_special_values(self):
        points = [s * a for c in BRANCH_POINTS + (0.0,) for a in ulp_sweep(c) for s in (1.0, -1.0)]
        points += SPECIAL_VALUES
        for a in points:
            assert same_bits(norm_cdf(a), float(ndtr(a))), a

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(a=st.floats() | st.floats(-40.0, 40.0))
    def test_norm_cdf_matches_scipy(self, a):
        assert same_bits(norm_cdf(a), float(ndtr(a)))

    @pytest.mark.parametrize("xtol, rtol", [(1e-15, 8.9e-16), (2e-12, 8.881784197001252e-16)])
    @pytest.mark.parametrize("k", range(len(TEXTBOOK_ROOTS)))
    def test_brentq_takes_scipys_iterates(self, k, xtol, rtol):
        f, a, b = TEXTBOOK_ROOTS[k]
        mine, theirs = [], []
        ref, info = brentq(recorded(f, theirs), a, b, xtol=xtol, rtol=rtol,
                           full_output=True, disp=False)
        # Handed f(a) and f(b), _brentq evaluates f at scipy's later points only.
        if info.converged:
            assert same_bits(_brentq(recorded(f, mine), a, b, f(a), f(b), xtol, rtol, 100), ref)
        else:
            with pytest.raises(ConvergenceError, match=f"last iterate {ref}"):
                _brentq(recorded(f, mine), a, b, f(a), f(b), xtol, rtol, 100)
        assert theirs[:2] == [a, b] and mine == theirs[2:]

    @SETTINGS
    @given(market=markets(), band=bands())
    def test_swaption_root_and_value_match_scipy(self, market, band):
        curve, vs, sched, strike = market
        contract = OptionContract(kind="swaption-payer", schedule=sched, strike_rate=strike)
        bounds = price_swaption(curve, vs, band, contract)
        p0 = curve.bond_price(sched.start)
        for scale, bound in ((band.lower, bounds.lower), (band.upper, bounds.upper)):
            xs, ws, coefs = ref_swaption_inputs(curve, vs, scale, contract)
            ref_value = scipy_swaption_value(xs, ws, coefs)
            assert same_bits(_swaption_value_comonotone(xs, coefs, coefs * xs, ws), ref_value)
            assert same_bits(bound, p0 * ref_value)

            def gap(z):
                return 1.0 - float(np.dot(coefs * xs, np.exp(-ws * z - 0.5 * ws**2)))

            if gap(40.0) > 0.0 > gap(-40.0):
                mine, theirs = [], []
                root = _brentq(recorded(gap, mine), -40.0, 40.0, gap(-40.0), gap(40.0),
                               1e-15, 8.9e-16, 100)
                ref = brentq(recorded(gap, theirs), -40.0, 40.0, xtol=1e-15, rtol=8.9e-16)
                assert root == ref and mine == theirs[2:]

    def test_brentq_failures_are_convergence_errors(self):
        nan_inside = lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5
        with pytest.raises(ConvergenceError, match="NaN"):
            _brentq(nan_inside, -1.0, 2.0, -1.5, 1.5, 1e-15, 8.9e-16, 100)
        # A NaN endpoint value is refused before f is evaluated anywhere.
        for fa, fb in ((math.nan, 1.0), (-1.0, math.nan), (math.nan, math.nan)):
            calls = []
            with pytest.raises(ConvergenceError, match="NaN"):
                _brentq(recorded(lambda x: x - 0.5, calls), -1.0, 2.0, fa, fb, 1e-15, 8.9e-16, 100)
            assert calls == []
        with pytest.raises(ConvergenceError, match="no sign change"):
            _brentq(lambda x: 1.0 + x * x, -1.0, 2.0, 2.0, 5.0, 1e-15, 8.9e-16, 100)
