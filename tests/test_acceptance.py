"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; the independent sides of each check are
recomputed inside the tests (quadrature bond prices, normal-density
integrals, lattice and scenario oracles) rather than taken from the
engines under test.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from robust_rates.cli import main
from robust_rates.curve import DiscountCurve, flat_curve
from robust_rates.linear_pricing import (
    LinearContract,
    TenorSchedule,
    price_fixed_coupon_bond,
    price_floating_rate_note,
    price_swap,
)
from robust_rates.lognormal import lognormal_call, lognormal_put, lognormal_second_moment
from robust_rates.mc import MCConfig
from robust_rates.option_pricing import (
    OptionContract,
    price_cap,
    price_floor,
    price_in_arrears_swap,
    price_swaption,
)
from robust_rates.oracle import (
    ConstantControls,
    expectations_hypothesis_check,
    lattice_price,
    scenario_sup,
)
from robust_rates.pde import default_grid, solve_single_option
from robust_rates.stream import (
    CashflowStream,
    capped_call_spread_leg,
    caplet_leg,
    price_leg_bounds,
    price_stream,
    transformed_strike,
)
from robust_rates.uncertainty import UncertaintyBand, degenerate_band
from robust_rates.vol_structure import ho_lee

BAND = UncertaintyBand((0.5,), (1.5,))
SCHED = TenorSchedule(dates=(1.0, 1.5, 2.0))


def report(criterion: int, detail: str) -> None:
    print(f"[ACCEPTANCE {criterion}] PASS  {detail}")


def assert_runtime(start: float, budget: float, criterion: int) -> float:
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s: {elapsed:.1f}s"
    return elapsed


# -- criterion 1: linear-contract exactness -----------------------------------


def quad_bond_price(curve: DiscountCurve, T: float) -> float:
    """Independent bond price: adaptive quadrature of the forward curve."""
    if T == 0.0:
        return 1.0
    pts = [m for m, _ in curve.knots if 0.0 < m < T]
    integral, _ = quad(curve.forward_rate, 0.0, T, points=pts or None,
                       epsabs=1e-14, epsrel=1e-13, limit=200)
    return math.exp(-integral)


def linear_fixtures():
    curves = [
        flat_curve(0.02),
        flat_curve(0.0),
        DiscountCurve(knots=((0.0, 0.01), (10.0, 0.03)), horizon=30.0),
        DiscountCurve(knots=((0.0, 0.01), (2.0, 0.02), (10.0, 0.015)), horizon=30.0,
                      interpolation="flat-left"),
        DiscountCurve(knots=((0.5, 0.005), (3.0, 0.025), (7.0, 0.02)), horizon=30.0),
    ]
    schedules = [
        TenorSchedule(dates=(1.0, 1.5, 2.0)),
        TenorSchedule(dates=(0.25, 0.5, 0.75, 1.0, 1.25)),
    ]
    return [(c, s) for c in curves for s in schedules]


def test_criterion_1_linear_exactness():
    start = time.perf_counter()
    fixtures = linear_fixtures()
    assert len(fixtures) == 10
    worst = 0.0
    for curve, sched in fixtures:
        K = 0.04
        p = {t: quad_bond_price(curve, t) for t in sched.dates}
        ann = sum(d * p[t] for d, t in zip(sched.accruals, sched.dates[1:]))
        refs = {
            "fcb": p[sched.end] + K * ann,
            "frn": p[sched.start],
            "swap": p[sched.start] - p[sched.end] - K * ann,
        }
        got = {
            "fcb": price_fixed_coupon_bond(
                curve, LinearContract(kind="fixed-coupon-bond", schedule=sched, fixed_rate=K)
            ),
            "frn": price_floating_rate_note(
                curve, LinearContract(kind="floating-rate-note", schedule=sched)
            ),
            "swap": price_swap(
                curve, LinearContract(kind="payer-swap", schedule=sched, fixed_rate=K)
            ),
        }
        for name, bounds in got.items():
            scale = max(abs(refs[name]), 1.0)
            rel = abs(bounds.upper - refs[name]) / scale
            worst = max(worst, rel)
            assert rel <= 1e-12, f"{name}: rel error {rel:.2e}"
            assert bounds.upper == bounds.lower  # bounds coincide exactly
            assert bounds.symmetric
    elapsed = assert_runtime(start, 1.0, 1)
    report(1, f"10 fixtures, worst rel err {worst:.2e} <= 1e-12, bounds exact ({elapsed:.2f}s)")


# -- criterion 2: cap/floor/swap parity ----------------------------------------


def test_criterion_2_parity_identity():
    start = time.perf_counter()
    vs = ho_lee(0.01)
    worst = 0.0
    for curve in (flat_curve(0.02), DiscountCurve(knots=((0.0, 0.01), (10.0, 0.03)), horizon=30.0)):
        for band in (BAND, UncertaintyBand((0.8,), (1.2,))):
            for sched in (SCHED, TenorSchedule(dates=(0.5, 1.0, 1.5, 2.0, 2.5))):
                for K in (0.01, 0.04, 0.1):
                    cap = price_cap(curve, vs, band,
                                    OptionContract(kind="cap", schedule=sched, strike_rate=K))
                    flo = price_floor(curve, vs, band,
                                      OptionContract(kind="floor", schedule=sched, strike_rate=K))
                    swp = price_swap(curve, LinearContract(kind="payer-swap", schedule=sched,
                                                           fixed_rate=K))
                    err = max(abs(cap.upper - flo.upper - swp.upper),
                              abs(cap.lower - flo.lower - swp.lower))
                    worst = max(worst, err)
                    assert err <= 1e-10
    elapsed = assert_runtime(start, 1.0, 2)
    report(2, f"24 fixtures, worst |cap-floor-swap| {worst:.2e} <= 1e-10 ({elapsed:.2f}s)")


# -- criterion 3: convex reduction of the PDE engine ----------------------------


def test_criterion_3_convex_reduction():
    start = time.perf_counter()
    curve, vs = flat_curve(0.02), ho_lee(0.01)
    ki = transformed_strike(0.5, 0.04)
    x0 = curve.forward_price(1.0, 1.5)
    v_up = math.sqrt(vs.integrated_variance((1.5,), 0.0, 1.0, 1.0, 1.5))
    black = lognormal_put(x0, ki, v_up)
    payoff = lambda x: np.maximum(ki - x, 0.0)
    errs = {}
    for n in (100, 200, 400):
        grid = default_grid(x0, v_up, nx=n, nt=n)
        sol = solve_single_option(curve, vs, BAND, 1.0, 1.0, 1.5, payoff, grid)
        errs[n] = abs(sol.value / black - 1.0)
    assert errs[400] <= 2e-3, f"400x400 rel err {errs[400]:.2e} > 0.2%"
    order = 0.5 * math.log2(errs[100] / errs[400])
    assert order >= 1.0, f"empirical order {order:.2f} < 1"
    elapsed = assert_runtime(start, 30.0, 3)
    report(3, f"400x400 rel err {errs[400]:.2e} <= 2e-3, order {order:.2f} >= 1 ({elapsed:.1f}s)")


# -- criterion 4: lattice and PDE agree on a non-convex payoff -------------------


def test_criterion_4_oracle_agreement():
    start = time.perf_counter()
    curve, vs = flat_curve(0.02), ho_lee(0.02)
    T, Ti = 1.0, 2.0
    lo_strike, width = 0.97, 0.02
    payoff = lambda x: np.minimum(np.maximum(x - lo_strike, 0.0), width)
    x0 = curve.forward_price(T, Ti)
    details = []
    for bl, bu in ((0.5, 1.5), (0.8, 1.2)):
        band = UncertaintyBand((bl,), (bu,))
        v_up = math.sqrt(vs.integrated_variance((bu,), 0.0, T, T, Ti))
        grid = default_grid(x0, v_up, nx=700, nt=700)
        pde = solve_single_option(curve, vs, band, T, T, Ti, payoff, grid).value
        lat = lattice_price(curve, vs, band, T, T, Ti, payoff, 2000)
        rel = abs(pde / lat - 1.0)
        assert rel <= 1e-3, f"band ({bl},{bu}): PDE vs lattice rel {rel:.2e} > 0.1%"
        classics = [
            lognormal_call(x0, lo_strike, math.sqrt(vs.integrated_variance((s,), 0, T, T, Ti)))
            - lognormal_call(x0, lo_strike + width, math.sqrt(vs.integrated_variance((s,), 0, T, T, Ti)))
            for s in np.linspace(bl, bu, 5)
        ]
        for value, tag in ((pde, "pde"), (lat, "lattice")):
            margin = value - max(classics)
            assert margin > 1e-5, f"band ({bl},{bu}): {tag} does not strictly dominate ({margin:.1e})"
        details.append(f"({bl},{bu}): rel {rel:.1e}, dominance margin {pde - max(classics):.1e}")
    elapsed = assert_runtime(start, 60.0, 4)
    report(4, "; ".join(details) + f" ({elapsed:.1f}s)")


# -- criterion 5: sublinearity sandwich for the mixed stream ---------------------


def test_criterion_5_sublinearity_sandwich():
    start = time.perf_counter()
    curve, vs = flat_curve(0.02), ho_lee(0.02)
    stream = CashflowStream(
        schedule=SCHED,
        legs=(capped_call_spread_leg(0.985, 0.01), caplet_leg(0.5, 0.04)),
    )
    bounds = price_stream(curve, vs, BAND, stream, nx=241, nt=240)
    legs = [price_leg_bounds(curve, vs, BAND, stream, i, nx=241, nt=240) for i in range(2)]
    lo_sum = sum(l.lower for l in legs)
    hi_sum = sum(l.upper for l in legs)
    assert lo_sum <= bounds.lower + 1e-9
    assert bounds.lower <= bounds.upper
    assert bounds.upper <= hi_sum + 1e-9
    # Strictness when the leg curvatures differ: margins far above the
    # ~1e-5 grid sensitivity of the coupled solve.
    assert bounds.lower - lo_sum > 5e-5
    assert bounds.upper - bounds.lower > 1e-3
    assert hi_sum - bounds.upper > 1e-4
    elapsed = assert_runtime(start, 120.0, 5)
    report(5, f"{lo_sum:.6g} < {bounds.lower:.6g} < {bounds.upper:.6g} < {hi_sum:.6g} ({elapsed:.1f}s)")


# -- criterion 6: scenario Monte Carlo never beats the engine upper bound --------


def test_criterion_6_scenario_sup_soundness():
    start = time.perf_counter()
    curve, vs = flat_curve(0.02), ho_lee(0.01)
    mc = MCConfig(paths=100_000, seed=7)
    contracts = {
        "cap": OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04),
        "floor": OptionContract(kind="floor", schedule=SCHED, strike_rate=0.04),
        "in-arrears": OptionContract(kind="in-arrears-payer-swap", schedule=SCHED, strike_rate=0.04),
        "swaption": OptionContract(kind="swaption-payer", schedule=SCHED, strike_rate=0.04),
    }
    engines = {
        "cap": price_cap(curve, vs, BAND, contracts["cap"]),
        "floor": price_floor(curve, vs, BAND, contracts["floor"]),
        "in-arrears": price_in_arrears_swap(curve, vs, BAND, contracts["in-arrears"]),
        "swaption": price_swaption(curve, vs, BAND, contracts["swaption"]),
    }
    details = []
    for name, contract in contracts.items():
        res = scenario_sup(curve, vs, BAND, contract, ConstantControls(3), mc)
        gap = (res.value - engines[name].upper) / max(res.se, 1e-30)
        assert res.value <= engines[name].upper + 3.0 * res.se, f"{name}: sup exceeds upper by {gap:.1f} se"
        if name in ("cap", "floor"):
            sigma_bar_price, sigma_bar_se = res.table[-1][1], res.table[-1][2]
            dev = abs(sigma_bar_price - engines[name].upper)
            assert dev <= 3.0 * sigma_bar_se, f"{name}: sigma-bar scenario off by {dev / sigma_bar_se:.1f} se"
        details.append(f"{name} {gap:+.1f}se")
    elapsed = assert_runtime(start, 300.0, 6)
    report(6, "sup-upper gaps: " + ", ".join(details) + f" ({elapsed:.1f}s)")


# -- criterion 7: robust expectations hypothesis ---------------------------------


def test_criterion_7_expectations_hypothesis():
    start = time.perf_counter()
    curve, vs = flat_curve(0.02), ho_lee(0.01)
    details = []
    for s in (0.5, 1.0, 1.5):
        res = expectations_hypothesis_check(
            curve, vs, (s,), 2.0, MCConfig(paths=100_000, seed=11, antithetic=False)
        )
        assert res.gap <= 3.0 * res.se, f"sigma={s}: gap {res.gap:.2e} > 3se {3 * res.se:.2e}"
        details.append(f"sigma={s}: {res.gap / res.se:.2f}se")
    elapsed = assert_runtime(start, 60.0, 7)
    report(7, ", ".join(details) + f" ({elapsed:.1f}s)")


# -- criterion 8: degenerate band reproduces classical prices --------------------


def classical_swaption_quad(curve, vs, sigma, contract) -> float:
    """Independent integration of the swaption payoff against the normal density."""
    s = contract.schedule
    t0 = s.start
    xs = np.array([curve.forward_price(t0, t) for t in s.dates[1:]])
    ws = np.sqrt([vs.integrated_variance((sigma,), 0.0, t0, t0, t) for t in s.dates[1:]])
    coefs = np.array(s.accruals) * contract.strike_rate
    coefs[-1] += 1.0

    def integrand(z):
        terminal = xs * np.exp(-ws * z - 0.5 * ws**2)
        return max(1.0 - float(np.dot(coefs, terminal)), 0.0) * norm.pdf(z)

    value, _ = quad(integrand, -12.0, 12.0, limit=400, epsabs=1e-14, epsrel=1e-12)
    return curve.bond_price(t0) * value


def test_criterion_8_degenerate_band_collapse():
    start = time.perf_counter()
    curve, vs = flat_curve(0.02), ho_lee(0.01)
    deg = degenerate_band((1.0,))
    K = 0.04

    cap = price_cap(curve, vs, deg, OptionContract(kind="cap", schedule=SCHED, strike_rate=K))
    flo = price_floor(curve, vs, deg, OptionContract(kind="floor", schedule=SCHED, strike_rate=K))
    ia = price_in_arrears_swap(
        curve, vs, deg, OptionContract(kind="in-arrears-payer-swap", schedule=SCHED, strike_rate=K)
    )
    swn = price_swaption(
        curve, vs, deg, OptionContract(kind="swaption-payer", schedule=SCHED, strike_rate=K)
    )
    for b in (cap, flo, ia, swn):
        assert abs(b.upper - b.lower) <= 1e-9
        assert b.symmetric

    # classical closed forms recomputed from scratch
    cap_ref = flo_ref = ia_ref = 0.0
    for i in range(SCHED.periods):
        tr, tp = SCHED.dates[i], SCHED.dates[i + 1]
        ki = transformed_strike(tp - tr, K)
        x = curve.forward_price(tr, tp)
        v = math.sqrt(vs.integrated_variance((1.0,), 0.0, tr, tr, tp))
        cap_ref += curve.bond_price(tr) / ki * lognormal_put(x, ki, v)
        flo_ref += curve.bond_price(tr) / ki * lognormal_call(x, ki, v)
        xr = curve.forward_price(tp, tr)
        ia_ref += curve.bond_price(tp) * (lognormal_second_moment(xr, v) - xr / ki)
    swn_ref = classical_swaption_quad(
        curve, vs, 1.0, OptionContract(kind="swaption-payer", schedule=SCHED, strike_rate=K)
    )
    assert abs(cap.upper - cap_ref) <= 1e-9
    assert abs(flo.upper - flo_ref) <= 1e-9
    assert abs(ia.upper - ia_ref) <= 1e-9
    assert abs(swn.upper - swn_ref) <= 1e-9

    # linear prices unaffected by the band machinery
    frn = price_floating_rate_note(
        curve, LinearContract(kind="floating-rate-note", schedule=SCHED)
    )
    assert frn.upper == curve.bond_price(1.0)
    elapsed = assert_runtime(start, 10.0, 8)
    report(8, f"cap/floor/in-arrears/swaption match classical forms to 1e-9 ({elapsed:.1f}s)")


# -- criterion 9: byte-identical reports ------------------------------------------


def test_criterion_9_determinism(tmp_path, capsys):
    start = time.perf_counter()
    cfg = {
        "curve": {"knots": [[0.0, 0.02], [30.0, 0.02]]},
        "vol_structure": {"factors": [{"kind": "ho-lee", "c": 0.01}]},
        "band": {"sigma_lower": [0.5], "sigma_upper": [1.5]},
        "contracts": [
            {"name": "frn", "kind": "floating-rate-note", "schedule": [1.0, 1.5, 2.0]},
            {"name": "cap", "kind": "cap", "schedule": [1.0, 1.5, 2.0], "strike_rate": 0.04},
            {"name": "swn-mc", "kind": "swaption-payer", "schedule": [1.0, 1.5, 2.0],
             "strike_rate": 0.04, "method": "monte-carlo"},
        ],
    }
    path = tmp_path / "book.json"
    path.write_text(json.dumps(cfg))
    outputs = []
    for threads in ("1", "4", "1"):
        assert main(["--format", "json", "--seed", "42", "--threads", threads,
                     "price", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    elapsed = assert_runtime(start, 10.0, 9)
    with capsys.disabled():
        report(9, f"three runs byte-identical across thread counts ({elapsed:.1f}s)")
