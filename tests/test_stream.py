"""Stream engine: dispatch paths, decoupling theorems, the coupled recursion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robust_rates import pde, stream
from robust_rates.curve import DiscountCurve, flat_curve
from robust_rates.errors import DomainError, UnsupportedMethodError
from robust_rates.linear_pricing import LinearContract, TenorSchedule
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
from robust_rates.vol_structure import ho_lee, hull_white

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
        from robust_rates.lognormal import lognormal_call

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
        assert abs(got.upper - got.lower) <= 1e-9


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
        assert sb.diagnostics["method"] == "coupled-pair-pde"
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
        if band.is_degenerate:
            assert sb.lower == sb.upper and sb.symmetric


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
        from robust_rates.vol_structure import TabulatedFactor, VolStructure

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

    def test_payoff_shapes(self):
        p = np.array([0.9, 0.97, 0.975, 0.99, 1.05])
        spread = capped_call_spread_leg(0.97, 0.02)
        assert np.allclose(spread(p), [0.0, 0.0, 0.005, 0.02, 0.02])
        capped = capped_forward_leg(0.99)
        assert np.allclose(capped(p), [0.9, 0.97, 0.975, 0.99, 0.99])
