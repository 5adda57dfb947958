"""Stream engine: dispatch paths, decoupling theorems, the coupled recursion."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robust_rates import pde, stream
from robust_rates.curve import DiscountCurve, flat_curve
from robust_rates.errors import DomainError, UnsupportedMethodError
from robust_rates.linear_pricing import LinearContract, TenorSchedule
from robust_rates.lognormal import lognormal_call
from robust_rates.mc import MCConfig
from robust_rates.option_pricing import OptionContract, price_cap, price_in_arrears_swap
from robust_rates.oracle import PiecewiseControls, scenario_sup
from robust_rates.stream import (
    CashflowStream,
    ConstantLeg,
    FloatingLinearLeg,
    OptionLeg,
    capped_call_spread_leg,
    capped_forward_leg,
    caplet_leg,
    floorlet_leg,
    in_arrears_leg,
    price_leg_bounds,
    price_stream,
)
from robust_rates.linear_pricing import (
    price_fixed_coupon_bond,
    price_floating_rate_note,
)
from robust_rates.pde import default_grid, solve_lower, solve_single_option
from robust_rates.uncertainty import UncertaintyBand, degenerate_band
from robust_rates.vol_structure import TabulatedFactor, VolStructure, ho_lee, hull_white

CURVE = flat_curve(0.02)
VS = ho_lee(0.01)
VS2 = ho_lee(0.02)
BAND = UncertaintyBand((0.5,), (1.5,))
SCHED = TenorSchedule(dates=(1.0, 1.5, 2.0))


def as_general(leg: OptionLeg) -> OptionLeg:
    return OptionLeg(payoff=leg.payoff, convexity="general", label=leg.label)


class TestSymmetricPath:
    def test_constant_legs_reproduce_fixed_coupon_bond(self):
        K = 0.05
        legs = (ConstantLeg(amount=0.5 * K), ConstantLeg(amount=0.5 * K + 1.0))
        st = CashflowStream(schedule=SCHED, legs=legs)
        got = price_stream(CURVE, VS, BAND, st)
        ref = price_fixed_coupon_bond(
            CURVE, LinearContract(kind="fixed-coupon-bond", schedule=SCHED, fixed_rate=K)
        )
        assert got.symmetric
        assert got.upper == pytest.approx(ref.upper, abs=1e-14)

    def test_floating_legs_reproduce_frn(self):
        legs = (FloatingLinearLeg(slope=0.5), FloatingLinearLeg(slope=0.5, intercept=1.0))
        st = CashflowStream(schedule=SCHED, legs=legs)
        got = price_stream(CURVE, VS, BAND, st)
        ref = price_floating_rate_note(
            CURVE, LinearContract(kind="floating-rate-note", schedule=SCHED)
        )
        assert got.upper == pytest.approx(ref.upper, abs=1e-14)

    def test_band_never_read(self):
        legs = (ConstantLeg(0.03), ConstantLeg(1.03))
        st = CashflowStream(schedule=SCHED, legs=legs)
        a = price_stream(CURVE, VS, BAND, st)
        b = price_stream(CURVE, VS, degenerate_band((1.0,)), st)
        assert a.upper == b.upper


class TestConvexDecoupling:
    def test_caplet_legs_reproduce_cap(self):
        st = CashflowStream(schedule=SCHED, legs=(caplet_leg(0.5, 0.04), caplet_leg(0.5, 0.04)))
        got = price_stream(CURVE, VS, BAND, st)
        ref = price_cap(CURVE, VS, BAND, OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04))
        assert got.upper == pytest.approx(ref.upper, abs=1e-10)
        assert got.lower == pytest.approx(ref.lower, abs=1e-10)

    def test_in_arrears_legs_reproduce_engine(self):
        st = CashflowStream(
            schedule=SCHED, legs=(in_arrears_leg(0.5, 0.04), in_arrears_leg(0.5, 0.04))
        )
        got = price_stream(CURVE, VS, BAND, st)
        ref = price_in_arrears_swap(
            CURVE, VS, BAND,
            OptionContract(kind="in-arrears-payer-swap", schedule=SCHED, strike_rate=0.04),
        )
        assert got.upper == pytest.approx(ref.upper, abs=1e-12)
        assert got.lower == pytest.approx(ref.lower, abs=1e-12)

    def test_concave_stream_uses_lower_extreme_for_upper(self):
        st = CashflowStream(
            schedule=SCHED, legs=(capped_forward_leg(0.99), capped_forward_leg(0.99))
        )
        got = price_stream(CURVE, VS2, BAND, st)
        # classical value at a constant scaling, per leg, via the PDE-free
        # formula E[min(X, c)] = x - E[(X - c)^+]
        def classical(scale):
            total = 0.0
            for i in range(2):
                tr, tp = SCHED.dates[i], SCHED.dates[i + 1]
                x0 = CURVE.forward_price(tr, tp)
                v = np.sqrt(VS2.integrated_variance((scale,), 0.0, tr, tr, tp))
                total += CURVE.bond_price(tr) * (x0 - lognormal_call(x0, 0.99, v))
            return total

        assert got.upper == pytest.approx(classical(0.5), rel=2e-3)
        assert got.lower == pytest.approx(classical(1.5), rel=2e-3)
        assert got.diagnostics["method"] == "concave-decoupled"

    def test_mixed_symmetric_and_option_legs(self):
        st = CashflowStream(schedule=SCHED, legs=(ConstantLeg(0.02), caplet_leg(0.5, 0.04)))
        got = price_stream(CURVE, VS, BAND, st)
        const_part = 0.02 * CURVE.bond_price(1.5)
        cap1 = price_cap(
            CURVE, VS, BAND,
            OptionContract(kind="cap", schedule=TenorSchedule(dates=(1.5, 2.0)), strike_rate=0.04),
        )
        assert got.upper == pytest.approx(const_part + cap1.upper, abs=1e-12)


class TestChordCheck:
    def test_mistagged_leg_downgraded_with_warning(self):
        bad = OptionLeg(
            payoff=lambda p: np.minimum(np.maximum(p - 0.97, 0.0), 0.02),
            convexity="convex",  # wrong on purpose: the cap side is concave
            label="mistagged-spread",
        )
        st = CashflowStream(schedule=SCHED, legs=(bad, caplet_leg(0.5, 0.04)))
        got = price_stream(CURVE, VS2, BAND, st, nx=121, nt=120)
        assert any("chord" in w for w in got.diagnostics.get("warnings", ()))
        assert got.diagnostics["method"] == "coupled-pair-pde"

    def test_mistagged_single_leg_priced_as_general(self):
        # A downgraded tag must reach the pricer: the capped spread is not
        # convex, so its bounds are the single-option PDE's, not the
        # band-extreme values a convex tag would give.
        def spread(p):
            return np.minimum(np.maximum(p - 0.975, 0.0), 0.02)

        sched = TenorSchedule(dates=(1.0, 2.0))
        bad = CashflowStream(schedule=sched, legs=(OptionLeg(payoff=spread, convexity="convex"),))
        ref = CashflowStream(schedule=sched, legs=(OptionLeg(payoff=spread, convexity="general"),))
        want = price_stream(CURVE, VS2, BAND, ref)
        got = price_stream(CURVE, VS2, BAND, bad)
        assert (got.lower, got.upper) == (want.lower, want.upper)
        assert got.diagnostics["method"] == "single-option-pde"
        assert any("chord" in w for w in got.diagnostics["warnings"])
        leg = price_leg_bounds(CURVE, VS2, BAND, bad, 0)
        assert (leg.lower, leg.upper) == (want.lower, want.upper)

    @pytest.mark.parametrize("vs", [VS2, hull_white(0.02, 0.3)], ids=["ho-lee", "hull-white"])
    @pytest.mark.parametrize("start", [0.5, 1.0, 3.0])
    def test_builtin_legs_keep_their_tags(self, vs, start):
        sched = TenorSchedule(dates=(start, start + 0.5))
        for leg in (caplet_leg(0.5, 0.04), floorlet_leg(0.5, 0.02), in_arrears_leg(0.5, 0.025),
                    capped_forward_leg(0.985)):
            got = price_stream(CURVE, vs, BAND, CashflowStream(schedule=sched, legs=(leg,)))
            assert got.diagnostics["method"] == f"{leg.convexity}-decoupled"
            assert "warnings" not in got.diagnostics


class TestCoupledRecursion:
    def test_reproduces_decoupled_sum_for_convex_pair(self):
        # Two caplets forced down the general path must agree with the
        # decoupling theorem's closed-form sum within grid accuracy.
        st_gen = CashflowStream(
            schedule=SCHED,
            legs=(as_general(caplet_leg(0.5, 0.04)), as_general(caplet_leg(0.5, 0.04))),
        )
        got = price_stream(CURVE, VS, BAND, st_gen, nx=241, nt=240)
        ref = price_cap(CURVE, VS, BAND, OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04))
        assert got.upper == pytest.approx(ref.upper, rel=3e-3)
        assert got.lower == pytest.approx(ref.lower, abs=2e-7)

    def test_hull_white_coupled_matches_decoupled(self):
        # Time-growing vols stress the sub-step stability sizing of the
        # coupled solve; the decoupling theorem is the exact reference.
        from robust_rates.vol_structure import hull_white

        vs = hull_white(0.02, 0.3)
        st_gen = CashflowStream(
            schedule=SCHED,
            legs=(as_general(caplet_leg(0.5, 0.04)), as_general(caplet_leg(0.5, 0.04))),
        )
        got = price_stream(CURVE, vs, BAND, st_gen, nx=241, nt=240)
        ref = price_cap(CURVE, vs, BAND, OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04))
        assert got.upper == pytest.approx(ref.upper, rel=3e-3)
        assert got.lower == pytest.approx(ref.lower, abs=1e-5)

    def test_concave_convex_pair_sandwich(self):
        st = CashflowStream(
            schedule=SCHED, legs=(capped_forward_leg(0.99), caplet_leg(0.5, 0.04))
        )
        sb = price_stream(CURVE, VS2, BAND, st, nx=241, nt=240)
        legs = [price_leg_bounds(CURVE, VS2, BAND, st, i, nx=241, nt=240) for i in range(2)]
        lo_sum = sum(l.lower for l in legs)
        hi_sum = sum(l.upper for l in legs)
        assert lo_sum <= sb.lower + 1e-9 and sb.upper <= hi_sum + 1e-9
        assert sb.lower - lo_sum > 5e-4  # strict: the legs want opposite extremes
        assert hi_sum - sb.upper > 5e-4

    def test_single_general_leg_uses_pde(self):
        st = CashflowStream(
            schedule=TenorSchedule(dates=(1.0, 1.5)), legs=(capped_call_spread_leg(0.985, 0.01),)
        )
        got = price_stream(CURVE, VS2, BAND, st)
        leg = price_leg_bounds(CURVE, VS2, BAND, st, 0)
        assert got.upper == pytest.approx(leg.upper, abs=1e-12)
        assert got.diagnostics["method"] == "single-option-pde"

    def test_sandwich_between_per_leg_sums(self):
        st = CashflowStream(
            schedule=SCHED, legs=(capped_call_spread_leg(0.985, 0.01), caplet_leg(0.5, 0.04))
        )
        sb = price_stream(CURVE, VS2, BAND, st, nx=241, nt=240)
        legs = [price_leg_bounds(CURVE, VS2, BAND, st, i, nx=241, nt=240) for i in range(2)]
        lo_sum = sum(l.lower for l in legs)
        hi_sum = sum(l.upper for l in legs)
        assert lo_sum <= sb.lower + 1e-9
        assert sb.lower <= sb.upper
        assert sb.upper <= hi_sum + 1e-9
        # strict inner inequalities for this mixed-curvature pair
        assert sb.lower - lo_sum > 5e-5
        assert hi_sum - sb.upper > 1e-4

    def test_backward_recursion_dominates_scenario_oracle(self):
        # A reversed or otherwise broken recursion would undershoot the
        # scenario family's supremum; the backward order must dominate it.
        st = CashflowStream(
            schedule=SCHED, legs=(capped_call_spread_leg(0.985, 0.01), caplet_leg(0.5, 0.04))
        )
        sb = price_stream(CURVE, VS2, BAND, st, nx=241, nt=240)
        res = scenario_sup(
            CURVE, VS2, BAND, st,
            PiecewiseControls(k=3, switch_dates=(1.0,)),
            MCConfig(paths=100_000, seed=21),
        )
        assert res.value <= sb.upper + 3.0 * res.se
        floor_est = min(v for _, v, _ in res.table)
        assert sb.lower <= floor_est + 3.0 * res.se

    def test_degenerate_band_symmetry(self):
        st = CashflowStream(
            schedule=SCHED,
            legs=(as_general(caplet_leg(0.5, 0.04)), as_general(caplet_leg(0.5, 0.04))),
        )
        got = price_stream(CURVE, VS, degenerate_band((1.0,)), st, nx=121, nt=120)
        assert got.symmetric
        assert got.lower == got.upper


def reference_leg_bounds(curve, vs, band, st, i, tag, nx, nt):
    """Leg i's (lower, upper) priced leg by leg: one single-option solve per
    band extreme, each building its own tables (the loop the stacked sweep
    replaced)."""
    leg = st.legs[i]
    t_reset, t_pay = st.schedule.dates[i], st.schedule.dates[i + 1]
    if tag == "general":
        grid = stream._leg_grid(curve, vs, band, st, i, nx, nt)
        upper = solve_single_option(curve, vs, band, t_reset, t_reset, t_pay, leg, grid).cash_price
        lower = solve_lower(curve, vs, band, t_reset, t_reset, t_pay, leg, grid).cash_price
        return lower, upper
    x0 = curve.forward_price(t_reset, t_pay)

    def classical(scale):
        v = np.sqrt(vs.integrated_variance(scale, 0.0, t_reset, t_reset, t_pay))
        if leg.expected_value is not None:
            return curve.bond_price(t_reset) * leg.expected_value(x0, v)
        grid = default_grid(x0, v, nx=nx, nt=nt)
        return solve_single_option(
            curve, vs, degenerate_band(scale), t_reset, t_reset, t_pay, leg, grid
        ).cash_price

    hi, lo = (band.upper, band.lower) if tag == "convex" else (band.lower, band.upper)
    return classical(lo), classical(hi)


def squared_call_leg(strike):
    """A convex leg with no closed form, so it is priced by the PDE."""
    return OptionLeg(payoff=lambda p: np.maximum(p - strike, 0.0) ** 2, convexity="convex")


DECOUPLED_STREAMS = {
    "concave": CashflowStream(
        schedule=TenorSchedule(dates=(0.25, 0.5, 1.0, 1.5, 2.0)),
        legs=tuple(capped_forward_leg(c) for c in (0.99, 0.985, 0.98, 0.975)),
    ),
    "convex": CashflowStream(
        schedule=TenorSchedule(dates=(0.5, 1.0, 1.5, 2.0, 2.5)),
        legs=(squared_call_leg(0.98), caplet_leg(0.5, 0.03), ConstantLeg(0.01),
              squared_call_leg(0.975)),
    ),
}


class TestStackedLegSolves:
    """Every degenerate-band PDE solve of a stream goes through one stacked
    sweep; the bounds must equal the leg-by-leg solves to the last bit."""

    @pytest.mark.parametrize("vs", [VS2, hull_white(0.02, 0.3)], ids=["ho-lee", "hull-white"])
    @pytest.mark.parametrize("name", DECOUPLED_STREAMS)
    def test_stream_equals_leg_by_leg(self, vs, name):
        st = DECOUPLED_STREAMS[name]
        option_idx = [i for i, leg in enumerate(st.legs) if isinstance(leg, OptionLeg)]
        ref = [reference_leg_bounds(CURVE, vs, BAND, st, i, name, 41, 40) for i in option_idx]
        sym = sum(stream._symmetric_leg_value(CURVE, st, i)
                  for i in range(len(st.legs)) if i not in option_idx)
        got = price_stream(CURVE, vs, BAND, st, nx=41, nt=40)
        assert got.diagnostics["method"] == f"{name}-decoupled"
        assert got.lower == sym + sum(lo for lo, _ in ref)
        assert got.upper == sym + sum(hi for _, hi in ref)
        for i, want in zip(option_idx, ref):
            leg = price_leg_bounds(CURVE, vs, BAND, st, i, nx=41, nt=40)
            assert (leg.lower, leg.upper) == want

    def test_general_leg_equals_its_own_solves(self):
        legs = (capped_call_spread_leg(0.97, 0.02), ConstantLeg(0.5))
        st = CashflowStream(schedule=SCHED, legs=legs)
        got = price_leg_bounds(CURVE, VS2, BAND, st, 0, nx=41, nt=40)
        want = reference_leg_bounds(CURVE, VS2, BAND, st, 0, "general", 41, 40)
        assert (got.lower, got.upper) == want

    def test_concave_stream_is_one_sweep(self, monkeypatch):
        calls = [0]
        solve = pde._solve_tridiagonal

        def counted(*args):
            calls[0] += 1
            return solve(*args)

        monkeypatch.setattr(pde, "_solve_tridiagonal", counted)
        price_stream(CURVE, VS2, BAND, DECOUPLED_STREAMS["concave"], nx=41, nt=40)
        assert calls == [40]

    def test_nan_payoff_on_one_leg_raises_value_error(self):
        # NaN only between the nodes of the leg's grid: the convexity check,
        # which reads the nodes, passes, and the cell averages are NaN.
        base = DECOUPLED_STREAMS["concave"]
        xs = stream._leg_grid(CURVE, VS2, BAND, base, 2, 41, 40).xs
        lo, hi = xs[20] + 0.25 * (xs[21] - xs[20]), xs[20] + 0.75 * (xs[21] - xs[20])
        legs = list(base.legs)
        legs[2] = OptionLeg(
            payoff=lambda p: np.where((p > lo) & (p < hi), np.nan, np.minimum(p, 0.98)),
            convexity="concave",
        )
        st = CashflowStream(schedule=base.schedule, legs=tuple(legs))
        with pytest.raises(ValueError, match="infs or NaNs") as info:
            price_stream(CURVE, VS2, BAND, st, nx=41, nt=40)
        assert type(info.value) is ValueError


def full_grid_pair_sweep(u, h1, h2, drift2, vu, vd):
    """Reference: the explicit pair steps over the whole interior, one fresh
    grid per step."""
    n = len(u)
    for k in range(len(vu) - 1, -1, -1):
        c = u[1:-1, 1:-1]
        diag = (u[2:, 2:] - 2.0 * c + u[:-2, :-2]) / h1**2
        up1 = (c - u[:-2, 1:-1]) / h1
        up2 = (c - u[1:-1, :-2]) / h2
        hh = diag - up1 - drift2 * up2
        gen = np.maximum(0.5 * vu[k] * hh, 0.5 * vd[k] * hh)
        u = u.copy()
        u[1:-1, 1:-1] = c + gen
    return float(u[n // 2, n // 2])


class TestPairSweepBitExact:
    """The pair sweep steps one flat range around the centre's domain of
    dependence, in place; it must reproduce the full-grid steps exactly, not
    approximately."""

    @pytest.mark.parametrize("vs", [VS2, hull_white(0.02, 0.3)], ids=["ho-lee", "hull-white"])
    @pytest.mark.parametrize("part", [0, 1], ids=["upper", "lower"])
    def test_pair_recursion_matches_full_grid(self, monkeypatch, vs, part):
        g1, g2 = capped_call_spread_leg(0.985, 0.01), caplet_leg(0.5, 0.04)

        def values():
            return stream._pair_recursion(CURVE, vs, BAND, SCHED, 0, g1, g2, 37, 36)

        got = values()
        monkeypatch.setattr(stream, "_pair_sweep", full_grid_pair_sweep)
        # part 0 is the upper value, part 1 the value of the negated payoffs
        assert got[part] == values()[part]

    @pytest.mark.parametrize("n, steps", [
        pytest.param(21, 3, id="unclipped"),
        pytest.param(21, 30, id="clipped"),
        pytest.param(21, 20, id="21-m-to-3m"),
        pytest.param(21, 40, id="21-above-3m"),
        pytest.param(41, 10, id="41-below-m"),
        pytest.param(41, 40, id="41-m-to-3m"),
        pytest.param(41, 70, id="41-above-3m"),
    ])
    def test_sweep_matches_full_grid_on_random_grid(self, n, steps):
        # Below m steps the updated range never reaches the boundary; from m
        # steps on, the full-interior steps read the boundary columns.
        rng = np.random.Generator(np.random.Philox(key=7))
        u = rng.normal(size=(n, n))
        vu = rng.uniform(0.05, 0.1, size=steps)
        vd = vu * rng.uniform(0.1, 0.9, size=steps)
        # Unit-order spacings keep every term of the stencil at the same
        # scale, so a change in any one rounding shows in the result.
        args = (1.0, 0.7, 1.3, vu, vd)
        assert stream._pair_sweep(u.copy(), *args) == full_grid_pair_sweep(u, *args)

    @pytest.mark.parametrize("layout", ["transposed", "strided"])
    def test_non_contiguous_input(self, layout):
        rng = np.random.Generator(np.random.Philox(key=11))
        raw = rng.normal(size=(41, 41))
        u = raw.T if layout == "transposed" else raw[::2, ::2]
        assert not u.flags.c_contiguous
        steps = 25
        vu = rng.uniform(0.05, 0.1, size=steps)
        vd = vu * rng.uniform(0.1, 0.9, size=steps)
        args = (1.0, 0.7, 1.3, vu, vd)
        assert stream._pair_sweep(u, *args) == full_grid_pair_sweep(np.array(u), *args)

    @pytest.mark.parametrize("vs", [VS2, hull_white(0.02, 0.3)], ids=["ho-lee", "hull-white"])
    def test_even_nx_pair_path(self, monkeypatch, vs):
        # An even nx runs on nx + 1 nodes, and the diagnostics say so.
        st = CashflowStream(
            schedule=SCHED, legs=(capped_call_spread_leg(0.985, 0.01), caplet_leg(0.5, 0.04))
        )
        got = price_stream(CURVE, vs, BAND, st, nx=36, nt=36)
        assert got.diagnostics["nx"] == 37
        monkeypatch.setattr(stream, "_pair_sweep", full_grid_pair_sweep)
        ref = price_stream(CURVE, vs, BAND, st, nx=36, nt=36)
        assert (got.lower, got.upper) == (ref.lower, ref.upper)


ZERO_LEG = OptionLeg(payoff=np.zeros_like, convexity="general", label="zero")


@st.composite
def mixed_pairs(draw):
    """A capped spread next to a caplet or floorlet on two adjacent periods,
    in either order, with a random curve, ho-lee or hull-white factor, band
    (degenerate about one time in five) and coarse grid."""
    accrual = draw(st.sampled_from((0.25, 0.5, 1.0)))
    start = draw(st.sampled_from((0.25, 0.5, 1.0, 2.0, 5.0)))
    dates = (start, start + accrual, start + 2.0 * accrual)
    horizon = dates[-1] + 1.0
    rates = draw(st.lists(st.floats(0.0, 0.06), min_size=1, max_size=2))
    knots = ((0.0, rates[0]),) if len(rates) == 1 else ((0.0, rates[0]), (horizon, rates[1]))
    curve = DiscountCurve(knots=knots, horizon=horizon)
    c = draw(st.floats(0.001, 0.02))
    vs = hull_white(c, draw(st.floats(0.01, 0.5))) if draw(st.booleans()) else ho_lee(c)
    spread_at = draw(st.integers(0, 1))
    x0 = curve.forward_price(dates[spread_at], dates[spread_at + 1])
    spread = capped_call_spread_leg(x0 * (1.0 + draw(st.floats(-0.03, 0.01))),
                                    draw(st.floats(0.001, 0.03)))
    other = draw(st.sampled_from((caplet_leg, floorlet_leg)))(accrual, draw(st.floats(0.005, 0.05)))
    legs = (spread, other) if spread_at == 0 else (other, spread)
    lo = draw(st.floats(0.1, 1.5))
    widen = 0.0 if draw(st.integers(0, 4)) == 0 else draw(st.floats(0.0, 2.0))
    band = UncertaintyBand((lo,), (lo * (1.0 + widen),))
    nx = draw(st.sampled_from((21, 31, 41)))
    return curve, vs, band, CashflowStream(schedule=TenorSchedule(dates=dates), legs=legs), nx


class TestRandomMixedPairs:
    """The sublinearity sandwich as a property of the coupled recursion.

    Each leg alone is priced by the same recursion, the other leg replaced by
    a zero payoff, so both sides of the sandwich carry the same grid error.
    Per-leg solves on their own grids differ from the pair by grid error
    (about 1e-3 at these node counts), far above rounding.
    """

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(case=mixed_pairs())
    def test_sandwich_between_leg_bounds(self, case):
        curve, vs, band, pair, nx = case
        sb = price_stream(curve, vs, band, pair, nx=nx, nt=nx - 1)
        method = "classical-legs" if band.is_degenerate else "coupled-pair-pde"
        assert sb.diagnostics["method"] == method
        alone = [
            CashflowStream(schedule=pair.schedule, legs=(pair.legs[0], ZERO_LEG)),
            CashflowStream(schedule=pair.schedule, legs=(ZERO_LEG, pair.legs[1])),
        ]
        legs = [price_stream(curve, vs, band, s, nx=nx, nt=nx - 1) for s in alone]
        lo_sum = sum(b.lower for b in legs)
        hi_sum = sum(b.upper for b in legs)
        assert lo_sum <= sb.lower + 1e-9
        assert sb.lower <= sb.upper + 1e-9
        assert sb.upper <= hi_sum + 1e-9
        if band.is_degenerate:  # linear: the pair is the sum of its legs, to the bit
            assert sb.symmetric and sb.lower == sb.upper == lo_sum == hi_sum


LEG_KINDS = ("caplet", "floorlet", "in-arrears", "capped-spread", "capped-forward")
TABULATED = VolStructure(factors=(TabulatedFactor(
    t_grid=(0.0, 1.2, 4.0, 10.0), maturity_grid=(0.0, 2.0, 7.5, 15.0),
    values=((0.011, 0.009, 0.008, 0.007), (0.012, 0.01, 0.007, 0.006),
            (0.009, 0.01, 0.006, 0.006), (0.008, 0.008, 0.006, 0.005)),
),))


@st.composite
def degenerate_streams(draw):
    """1-4 option legs of every config leg type, among 0-2 constant or
    floating legs in any order (so adjacent or not), on a Ho-Lee, Hull-White
    or tabulated factor under a degenerate band, with a coarse grid.  Also
    returns, per capped leg, E[g(X)] of a lognormal X as a function of (x, v)."""
    kinds = draw(st.lists(st.sampled_from(LEG_KINDS), min_size=1, max_size=4))
    kinds += draw(st.lists(st.sampled_from(("constant", "floating")), max_size=2))
    kinds = draw(st.permutations(kinds))
    accrual = draw(st.sampled_from((0.25, 0.5, 1.0)))
    start = draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)))
    dates = tuple(start + accrual * k for k in range(len(kinds) + 1))
    curve = flat_curve(draw(st.floats(0.0, 0.06)))
    c = draw(st.floats(0.002, 0.02))
    vs = draw(st.sampled_from((ho_lee(c), hull_white(c, draw(st.floats(0.01, 0.5))), TABULATED)))
    legs, closed = [], {}
    for i, kind in enumerate(kinds):
        x0 = curve.forward_price(dates[i], dates[i + 1])
        rate, shift = draw(st.floats(0.005, 0.05)), x0 * (1.0 + draw(st.floats(-0.03, 0.01)))
        if kind == "capped-spread":
            cap = draw(st.floats(0.001, 0.03))
            legs.append(capped_call_spread_leg(shift, cap))
            closed[i] = lambda x, v, k=shift, c=cap: lognormal_call(x, k, v) - lognormal_call(x, k + c, v)
        elif kind == "capped-forward":
            legs.append(capped_forward_leg(shift))
            closed[i] = lambda x, v, c=shift: x - lognormal_call(x, c, v)
        else:
            legs.append({"caplet": caplet_leg, "floorlet": floorlet_leg, "in-arrears": in_arrears_leg,
                         "constant": lambda a, r: ConstantLeg(a * r),
                         "floating": lambda a, r: FloatingLinearLeg(a, -a * r)}[kind](accrual, rate))
    band = degenerate_band((draw(st.floats(0.3, 2.0)),))
    nx = draw(st.sampled_from((31, 41, 61)))
    return curve, vs, band, CashflowStream(schedule=TenorSchedule(dates=dates), legs=tuple(legs)), nx, closed


def _no_call(name):
    return mock.patch.object(stream, name, side_effect=AssertionError(f"{name} called"))


DEGENERATE_SWEEP = {
    "caplet": (SCHED, (ConstantLeg(0.01), caplet_leg(0.5, 0.04))),
    "floorlet": (SCHED, (ConstantLeg(0.01), floorlet_leg(0.5, 0.03))),
    "in-arrears": (SCHED, (ConstantLeg(0.01), in_arrears_leg(0.5, 0.04))),
    "capped-spread": (SCHED, (ConstantLeg(0.01), capped_call_spread_leg(0.985, 0.01))),
    "capped-forward": (SCHED, (ConstantLeg(0.01), capped_forward_leg(0.99))),
    "general-caplet": (SCHED, (ConstantLeg(0.01), as_general(caplet_leg(0.5, 0.04)))),
    "mistagged-spread": (SCHED, (ConstantLeg(0.01), OptionLeg(
        payoff=capped_call_spread_leg(0.985, 0.01).payoff, convexity="convex"))),
    "caplets": (SCHED, (caplet_leg(0.5, 0.03), caplet_leg(0.5, 0.04))),
    "floorlet-in-arrears": (DECOUPLED_STREAMS["convex"].schedule, (
        floorlet_leg(0.5, 0.02), FloatingLinearLeg(0.5, 0.001), in_arrears_leg(0.5, 0.03), ConstantLeg(0.02))),
    "capped-forwards": (DECOUPLED_STREAMS["convex"].schedule, DECOUPLED_STREAMS["concave"].legs),
    "squared-and-caplet": (DECOUPLED_STREAMS["convex"].schedule, DECOUPLED_STREAMS["convex"].legs),
}

# float.hex of both bounds (always equal) of each DEGENERATE_SWEEP stream
# under degenerate bands 0.8 and 1.3, nx = 41, nt = 40, as priced before the
# classical route: one closed-form leg, one PDE leg or legs of one convexity.
DEGENERATE_SWEEP_HEX = {
    "ho-lee/0.8/caplet": "0x1.580ed56bafbeap-7",
    "ho-lee/0.8/floorlet": "0x1.0bdb232b2c9b4p-6",
    "ho-lee/0.8/in-arrears": "0x1.2b72bafa911c0p-13",
    "ho-lee/0.8/capped-spread": "0x1.dd072797d3296p-7",
    "ho-lee/0.8/capped-forward": "0x1.eef13131d58e5p-1",
    "ho-lee/0.8/general-caplet": "0x1.5930113a4706bp-7",
    "ho-lee/0.8/mistagged-spread": "0x1.dd072797d3296p-7",
    "ho-lee/0.8/caplets": "0x1.12ed93d1d0854p-9",
    "ho-lee/0.8/floorlet-in-arrears": "0x1.be70669f5494cp-6",
    "ho-lee/0.8/capped-forwards": "0x1.ea15521a34920p+1",
    "ho-lee/0.8/squared-and-caplet": "0x1.74da2b8453d08p-7",
    "ho-lee/1.3/caplet": "0x1.91a57478999c2p-7",
    "ho-lee/1.3/floorlet": "0x1.2fee4e2cc4426p-6",
    "ho-lee/1.3/in-arrears": "0x1.37a2051fb5580p-12",
    "ho-lee/1.3/capped-spread": "0x1.dc5555fee8165p-7",
    "ho-lee/1.3/capped-forward": "0x1.edc2b07cbf0f4p-1",
    "ho-lee/1.3/general-caplet": "0x1.91cf7602fb3bcp-7",
    "ho-lee/1.3/mistagged-spread": "0x1.dc5555fee8165p-7",
    "ho-lee/1.3/caplets": "0x1.6f35237a8d0f2p-8",
    "ho-lee/1.3/floorlet-in-arrears": "0x1.d7d8cd6a8f522p-6",
    "ho-lee/1.3/capped-forwards": "0x1.e9473c901bb9cp+1",
    "ho-lee/1.3/squared-and-caplet": "0x1.b53a32594e566p-7",
    "hull-white/0.8/caplet": "0x1.482565ee0a3d4p-7",
    "hull-white/0.8/floorlet": "0x1.fdb841653e074p-7",
    "hull-white/0.8/in-arrears": "0x1.ac9d101389a00p-14",
    "hull-white/0.8/capped-spread": "0x1.dd69bf7060c43p-7",
    "hull-white/0.8/capped-forward": "0x1.ef6b4a491ec7ap-1",
    "hull-white/0.8/general-caplet": "0x1.48f58eed82803p-7",
    "hull-white/0.8/mistagged-spread": "0x1.dd69bf7060c43p-7",
    "hull-white/0.8/caplets": "0x1.278c70103e26ap-10",
    "hull-white/0.8/floorlet-in-arrears": "0x1.b8c39002af369p-6",
    "hull-white/0.8/capped-forwards": "0x1.ea4a0a52945f8p+1",
    "hull-white/0.8/squared-and-caplet": "0x1.62d42f414a588p-7",
    "hull-white/1.3/caplet": "0x1.6ac978a7d030cp-7",
    "hull-white/1.3/floorlet": "0x1.1889f6ef6ea7ap-6",
    "hull-white/1.3/in-arrears": "0x1.8e69578cb6040p-13",
    "hull-white/1.3/capped-spread": "0x1.dcca19550cfeap-7",
    "hull-white/1.3/capped-forward": "0x1.ee82f7f5ebce8p-1",
    "hull-white/1.3/general-caplet": "0x1.6bea986efc68ap-7",
    "hull-white/1.3/mistagged-spread": "0x1.dcca19550cfeap-7",
    "hull-white/1.3/caplets": "0x1.cbd590f17f3fep-9",
    "hull-white/1.3/floorlet-in-arrears": "0x1.cdf2e5297ec03p-6",
    "hull-white/1.3/capped-forwards": "0x1.e9c19012326c5p+1",
    "hull-white/1.3/squared-and-caplet": "0x1.92736cec6a793p-7",
}


class TestDegenerateBandIsLinear:
    """Under a degenerate band pricing is linear: a stream is the sum of its
    legs' classical values, whatever their tags, count or positions, and
    neither the chord check nor the pair solve runs."""

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(case=degenerate_streams())
    def test_stream_is_sum_of_classical_legs(self, case):
        curve, vs, band, st_, nx, closed = case
        with _no_call("_pair_recursion"), _no_call("_checked_tag"):
            got = price_stream(curve, vs, band, st_, nx=nx, nt=nx - 1)
            legs = [price_leg_bounds(curve, vs, band, st_, i, nx=nx, nt=nx - 1)
                    for i in range(len(st_.legs))]
        assert got.symmetric and got.lower == got.upper
        assert got.diagnostics["method"] == "classical-legs"
        option = [i for i, leg in enumerate(st_.legs) if isinstance(leg, OptionLeg)]
        sym = sum(legs[i].lower for i in range(len(legs)) if i not in option)
        assert got.lower == sym + sum(legs[i].lower for i in option)
        for i in option:
            assert legs[i].symmetric and legs[i].lower == legs[i].upper
            assert legs[i].diagnostics["method"] == "classical-legs"
        for i, expected_value in closed.items():
            t_reset, t_pay = st_.schedule.dates[i:i + 2]
            x0 = curve.forward_price(t_reset, t_pay)
            sd = np.sqrt(vs.integrated_variance(band.upper, 0.0, t_reset, t_reset, t_pay))
            want = curve.bond_price(t_reset) * expected_value(x0, sd)
            assert abs(legs[i].lower - want) <= 1e-2 * x0 * sd  # grid error at nx <= 61

    @pytest.mark.parametrize("vs", [VS2, hull_white(0.02, 0.3)], ids=["ho-lee", "hull-white"])
    @pytest.mark.parametrize("scale", [0.8, 1.3])
    @pytest.mark.parametrize("name", DEGENERATE_SWEEP)
    def test_one_leg_or_one_convexity_keeps_its_bits(self, vs, scale, name):
        schedule, legs = DEGENERATE_SWEEP[name]
        got = price_stream(CURVE, vs, degenerate_band((scale,)), CashflowStream(schedule, legs),
                           nx=41, nt=40)
        model = "ho-lee" if vs is VS2 else "hull-white"
        want = DEGENERATE_SWEEP_HEX[f"{model}/{scale}/{name}"]
        assert (got.lower.hex(), got.upper.hex()) == (want, want)

    def test_one_sweep_row_per_pde_leg(self, monkeypatch):
        # Both extremes of a degenerate band are the one scale, so each PDE
        # leg is one row of the stacked sweep, read for both bounds, and a
        # stacked row has the bits of its own solve.
        legs = tuple(capped_call_spread_leg(0.98 + 0.005 * k, 0.01) for k in range(3))
        st_ = CashflowStream(TenorSchedule(dates=(1.0, 1.5, 2.0, 2.5)), legs)
        band, rows, sweep = degenerate_band((1.2,)), [], stream.window_values

        def spied(payoffs, grids, tables):
            rows.append(len(payoffs))
            return sweep(payoffs, grids, tables)

        monkeypatch.setattr(stream, "window_values", spied)
        got = price_stream(CURVE, VS2, band, st_, nx=41, nt=40)
        assert rows == [3]
        ref = [reference_leg_bounds(CURVE, VS2, band, st_, i, "convex", 41, 40) for i in range(3)]
        assert all(lo == hi for lo, hi in ref)
        assert got.lower == got.upper == sum(lo for lo, _ in ref)

    def test_demo_mixed_stream_matches_lognormal_closed_form(self):
        # Capped spread then caplet at unit volatility in the demo book's
        # market (its mixed stream): the pair solve was 5.8e-7 away.
        st_ = CashflowStream(SCHED, (capped_call_spread_leg(0.985, 0.01), caplet_leg(0.5, 0.04)))
        got = price_stream(CURVE, VS, degenerate_band((1.0,)), st_)
        (p1, x1, v1), (p2, x2, v2) = [
            (CURVE.bond_price(a), CURVE.forward_price(a, b),
             np.sqrt(VS.integrated_variance((1.0,), 0.0, a, a, b)))
            for a, b in zip(SCHED.dates, SCHED.dates[1:])
        ]
        want = (p1 * (lognormal_call(x1, 0.985, v1) - lognormal_call(x1, 0.995, v1))
                + p2 * st_.legs[1].expected_value(x2, v2))
        assert got.lower == got.upper
        assert abs(got.upper - want) <= 5e-8


class TestUnsupportedShapes:
    def test_three_general_legs_rejected(self):
        s4 = TenorSchedule(dates=(1.0, 1.5, 2.0, 2.5))
        legs = tuple(as_general(caplet_leg(0.5, 0.04)) for _ in range(3))
        with pytest.raises(UnsupportedMethodError, match="at most 2"):
            price_stream(CURVE, VS, BAND, CashflowStream(schedule=s4, legs=legs))

    def test_non_adjacent_general_pair_rejected(self):
        s4 = TenorSchedule(dates=(1.0, 1.5, 2.0, 2.5))
        legs = (
            as_general(caplet_leg(0.5, 0.04)),
            ConstantLeg(0.0),
            as_general(caplet_leg(0.5, 0.04)),
        )
        with pytest.raises(UnsupportedMethodError, match="adjacent"):
            price_stream(CURVE, VS, BAND, CashflowStream(schedule=s4, legs=legs))

    def test_tabulated_factor_rejected_on_coupled_path(self):
        tab = VolStructure(
            factors=(
                TabulatedFactor(
                    t_grid=(0.0, 15.0), maturity_grid=(0.0, 15.0),
                    values=((0.01, 0.01), (0.01, 0.01)),
                ),
            )
        )
        legs = (as_general(caplet_leg(0.5, 0.04)), as_general(caplet_leg(0.5, 0.04)))
        with pytest.raises(UnsupportedMethodError, match="separable"):
            price_stream(CURVE, tab, BAND, CashflowStream(schedule=SCHED, legs=legs))

    # Degenerate twins: one volatility makes each shape linear, so it prices.
    @pytest.mark.parametrize("shape", ["three", "non-adjacent", "tabulated"])
    def test_degenerate_band_prices_every_shape(self, shape):
        s4 = TenorSchedule(dates=(1.0, 1.5, 2.0, 2.5))
        general = as_general(caplet_leg(0.5, 0.04))
        st_, vs = {
            "three": (CashflowStream(schedule=s4, legs=(general,) * 3), VS),
            "non-adjacent": (CashflowStream(schedule=s4, legs=(general, ConstantLeg(0.0), general)), VS),
            "tabulated": (CashflowStream(schedule=SCHED, legs=(general, general)), TABULATED),
        }[shape]
        band = degenerate_band((1.0,))
        with _no_call("_pair_recursion"), _no_call("_checked_tag"):
            got = price_stream(CURVE, vs, band, st_)
            legs = [price_leg_bounds(CURVE, vs, band, st_, i) for i in range(len(st_.legs))]
        assert got.symmetric and got.lower == got.upper == sum(b.lower for b in legs)
        assert got.diagnostics == {"method": "classical-legs", "option_legs": 3 if shape == "three" else 2}

    def test_leg_count_must_match_periods(self):
        with pytest.raises(DomainError):
            CashflowStream(schedule=SCHED, legs=(ConstantLeg(1.0),))

    def test_bad_convexity_tag(self):
        with pytest.raises(DomainError):
            OptionLeg(payoff=lambda p: p, convexity="monotone")


class TestNotional:
    def test_scaling(self):
        st1 = CashflowStream(schedule=SCHED, legs=(caplet_leg(0.5, 0.04), caplet_leg(0.5, 0.04)))
        st2 = CashflowStream(
            schedule=SCHED, legs=(caplet_leg(0.5, 0.04), caplet_leg(0.5, 0.04)), notional=100.0
        )
        a = price_stream(CURVE, VS, BAND, st1)
        b = price_stream(CURVE, VS, BAND, st2)
        assert b.upper == pytest.approx(100.0 * a.upper, rel=1e-14)


class TestLegHelpers:
    def test_floorlet_leg_closed_form(self):
        st = CashflowStream(schedule=SCHED, legs=(floorlet_leg(0.5, 0.04), floorlet_leg(0.5, 0.04)))
        got = price_stream(CURVE, VS, BAND, st)
        from robust_rates.option_pricing import price_floor

        ref = price_floor(
            CURVE, VS, BAND, OptionContract(kind="floor", schedule=SCHED, strike_rate=0.04)
        )
        assert got.upper == pytest.approx(ref.upper, abs=1e-12)

    @pytest.mark.parametrize("make, field", [
        (lambda: capped_forward_leg(np.nan), "cap"),
        (lambda: capped_forward_leg(np.inf), "cap"),
        (lambda: capped_forward_leg(0.0), "cap"),
        (lambda: capped_call_spread_leg(np.nan, 0.01), "strike"),
        (lambda: capped_call_spread_leg(-np.inf, 0.01), "strike"),
        (lambda: capped_call_spread_leg(0.98, np.nan), "cap"),
        (lambda: capped_call_spread_leg(0.98, np.inf), "cap"),
        (lambda: capped_call_spread_leg(0.98, -0.01), "cap"),
    ])
    def test_capped_legs_need_finite_parameters(self, make, field):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            make()

    def test_payoff_shapes(self):
        p = np.array([0.9, 0.97, 0.975, 0.99, 1.05])
        spread = capped_call_spread_leg(0.97, 0.02)
        assert np.allclose(spread(p), [0.0, 0.0, 0.005, 0.02, 0.02])
        capped = capped_forward_leg(0.99)
        assert np.allclose(capped(p), [0.9, 0.97, 0.975, 0.99, 0.99])
