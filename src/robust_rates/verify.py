"""Built-in verification suites run by ``robust-rates verify <suite>``.

Each suite runs named checks over a fixed fixture set and reports the margin
by which every check clears its tolerance.  These are quick-turnaround
self-tests; the exhaustive versions live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curve import DiscountCurve, flat_curve
from .errors import DomainError
from .linear_pricing import LinearContract, TenorSchedule, price_swap
from .lognormal import lognormal_put
from .mc import MCConfig, child_seed
from .option_pricing import OptionContract, price_cap, price_floor, price_swaption
from .oracle import (ConstantControls, PiecewiseControls, expectations_hypothesis_check,
                     lattice_price, scenario_sup)
from .pde import default_grid, solve_single_option
from .stream import (
    CashflowStream,
    capped_call_spread_leg,
    caplet_leg,
    price_leg_bounds,
    price_stream,
    transformed_strike,
)
from .uncertainty import UncertaintyBand, degenerate_band
from .vol_structure import ho_lee

SUITES = ("parity", "sublinearity", "oracle", "expectations-hypothesis", "convergence")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _fixture():
    curve = flat_curve(0.02)
    vs = ho_lee(0.01)
    band = UncertaintyBand((0.5,), (1.5,))
    sched = TenorSchedule(dates=(1.0, 1.5, 2.0))
    return curve, vs, band, sched


def suite_parity(seed: int = 0) -> list[CheckResult]:
    out = []
    curves = [flat_curve(0.02), DiscountCurve(knots=((0.0, 0.01), (10.0, 0.03)), horizon=30.0)]
    vs = ho_lee(0.01)
    bands = [UncertaintyBand((0.5,), (1.5,)), UncertaintyBand((0.9,), (1.1,))]
    scheds = [TenorSchedule(dates=(1.0, 1.5, 2.0)), TenorSchedule(dates=(0.5, 1.0, 1.5, 2.5))]
    tol = 1e-10
    for ci, curve in enumerate(curves):
        for bi, band in enumerate(bands):
            for si, sched in enumerate(scheds):
                for K in (0.01, 0.04):
                    cap = price_cap(curve, vs, band, OptionContract(kind="cap", schedule=sched, strike_rate=K))
                    flo = price_floor(curve, vs, band, OptionContract(kind="floor", schedule=sched, strike_rate=K))
                    swp = price_swap(curve, LinearContract(kind="payer-swap", schedule=sched, fixed_rate=K))
                    err = max(
                        abs(cap.upper - flo.upper - swp.upper),
                        abs(cap.lower - flo.lower - swp.lower),
                    )
                    out.append(CheckResult(
                        name=f"parity curve{ci} band{bi} sched{si} K={K}",
                        passed=err <= tol,
                        detail=f"|cap-floor-swap|={err:.3e} tol={tol:.0e}",
                    ))
    return out


def suite_sublinearity(seed: int = 0) -> list[CheckResult]:
    out = []
    rng = np.random.Generator(np.random.Philox(key=seed + 17))
    band = UncertaintyBand((0.5, 0.8), (1.5, 1.2))
    ok_hom = ok_sub = ok_mono = True
    for _ in range(200):
        a = rng.uniform(-3, 3, size=2)
        b = rng.uniform(-3, 3, size=2)
        lam = rng.uniform(0, 4)
        if abs(band.generator(lam * a) - lam * band.generator(a)) > 1e-12 * (1 + lam):
            ok_hom = False
        if band.generator(a + b) > band.generator(a) + band.generator(b) + 1e-12:
            ok_sub = False
        if band.generator(np.minimum(a, b)) > band.generator(np.maximum(a, b)) + 1e-12:
            ok_mono = False
    out.append(CheckResult("generator positive homogeneity", ok_hom, "200 samples"))
    out.append(CheckResult("generator subadditivity", ok_sub, "200 samples"))
    out.append(CheckResult("generator monotonicity", ok_mono, "200 samples"))

    deg = degenerate_band((1.3, 0.7))
    a = np.array([2.0, -1.0])
    lin = 0.5 * (1.3**2 * 2.0 + 0.7**2 * (-1.0))
    out.append(CheckResult(
        "degenerate band collapses to linear generator",
        abs(deg.generator(a) - lin) <= 1e-15,
        f"|G(a) - linear|={abs(deg.generator(a) - lin):.1e}",
    ))

    # Sandwich on a small mixed stream (coarse grid, tolerance-aware).
    curve = flat_curve(0.02)
    vs = ho_lee(0.02)
    band1 = UncertaintyBand((0.5,), (1.5,))
    sched = TenorSchedule(dates=(1.0, 1.5, 2.0))
    st = CashflowStream(schedule=sched, legs=(capped_call_spread_leg(0.985, 0.01), caplet_leg(0.5, 0.04)))
    sb = price_stream(curve, vs, band1, st, nx=121, nt=120)
    legs = [price_leg_bounds(curve, vs, band1, st, i, nx=121, nt=120) for i in range(2)]
    lo_sum = sum(l.lower for l in legs)
    hi_sum = sum(l.upper for l in legs)
    slack = 1e-5
    chain_ok = (lo_sum <= sb.lower + slack) and (sb.lower <= sb.upper) and (sb.upper <= hi_sum + slack)
    out.append(CheckResult(
        "stream sandwich (per-leg sums bracket stream bounds)",
        chain_ok,
        f"{lo_sum:.6g} <= {sb.lower:.6g} <= {sb.upper:.6g} <= {hi_sum:.6g}",
    ))
    return out


def suite_oracle(seed: int = 0) -> list[CheckResult]:
    out = []
    curve, vs, _, _ = _fixture()
    K = 0.04

    # Caplet closed form (a one-period cap) vs the collapsed-band lattice (4 digits).
    caplet = OptionContract(kind="cap", schedule=TenorSchedule(dates=(1.0, 1.5)), strike_rate=K)
    closed = price_cap(curve, vs, degenerate_band((1.5,)), caplet).upper
    ki = transformed_strike(0.5, K)
    lat = (
        curve.bond_price(1.0) / ki
        * lattice_price(curve, vs, degenerate_band((1.5,)), 1.0, 1.0, 1.5,
                        lambda x: np.maximum(ki - x, 0.0), 2000)
    )
    rel = abs(lat / closed - 1.0)
    out.append(CheckResult(
        "caplet closed form vs degenerate lattice",
        rel <= 5e-4,
        f"rel={rel:.2e} tol=5e-4",
    ))

    # Capped call spread: PDE vs lattice at two bands.
    vs2 = ho_lee(0.02)
    payoff = lambda x: np.minimum(np.maximum(x - 0.97, 0.0), 0.02)
    x0 = curve.forward_price(1.0, 2.0)
    for lo, hi in ((0.5, 1.5), (0.8, 1.2)):
        b = UncertaintyBand((lo,), (hi,))
        v_up = math.sqrt(vs2.integrated_variance((hi,), 0.0, 1.0, 1.0, 2.0))
        grid = default_grid(x0, v_up, nx=500, nt=500)
        pde = solve_single_option(curve, vs2, b, 1.0, 1.0, 2.0, payoff, grid).value
        lat = lattice_price(curve, vs2, b, 1.0, 1.0, 2.0, payoff, 1200)
        rel = abs(pde / lat - 1.0)
        out.append(CheckResult(
            f"capped spread PDE vs lattice, band ({lo},{hi})",
            rel <= 2e-3,
            f"rel={rel:.2e} tol=2e-3",
        ))

    # Monte Carlo swaption vs the quadrature at both bounds, over several path blocks.
    band = UncertaintyBand((0.5,), (1.5,))
    mc = MCConfig(paths=40_000, seed=child_seed(seed, 0))
    swaption = OptionContract(kind="swaption-payer",
                              schedule=TenorSchedule(dates=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5)),
                              strike_rate=0.02)
    quad = price_swaption(curve, vs, band, swaption, method="quadrature-1f")
    sim = price_swaption(curve, vs, band, swaption, method="monte-carlo", mc=mc)
    for side in ("lower", "upper"):
        gap = abs(getattr(sim, side) - getattr(quad, side))
        se = sim.diagnostics[f"se_{side}"]
        out.append(CheckResult(
            f"Monte Carlo swaption vs quadrature-1f, {side} bound ({mc.paths} paths)",
            gap <= 4.0 * se,
            f"gap={gap:.2e} 4se={4 * se:.2e}",
        ))

    # Scenario families on a cap (one-pair blocks, one draw column or one per
    # segment) and on the swaption (multi-pair blocks): a maximum is a lower
    # estimate of the upper bound.
    cap = OptionContract(kind="cap", schedule=TenorSchedule(dates=(1.0, 1.5, 2.0)), strike_rate=K)
    cap_upper = price_cap(curve, vs, band, cap).upper
    for i, (what, contract, controls, upper) in enumerate((
            ("constant scenario family on a cap <= engine", cap, ConstantControls(3), cap_upper),
            ("piecewise scenario family on the swaption <= quadrature-1f", swaption,
             PiecewiseControls(2, (0.25, 0.5, 0.75)), quad.upper),
            ("piecewise scenario family on a cap <= engine", cap,
             PiecewiseControls(2, (0.5, 1.0, 1.5)), cap_upper)), start=1):
        res = scenario_sup(curve, vs, band, contract, controls,
                           MCConfig(paths=40_000, seed=child_seed(seed, i)))
        out.append(CheckResult(
            f"{what} upper bound + 3 se",
            res.value <= upper + 3.0 * res.se,
            f"family max={res.value:.6g} upper={upper:.6g} 3se={3 * res.se:.2e}",
        ))
    return out


def suite_expectations_hypothesis(seed: int = 0) -> list[CheckResult]:
    out = []
    curve, vs, band, _ = _fixture()
    for s in (band.lower[0], 1.0, band.upper[0]):
        r = expectations_hypothesis_check(
            curve, vs, (s,), 2.0, MCConfig(paths=30_000, seed=seed + 11, antithetic=False)
        )
        out.append(CheckResult(
            f"forward-measure mean of r_T at sigma={s}",
            r.gap <= 3.0 * r.se,
            f"gap={r.gap:.2e} 3se={3 * r.se:.2e}",
        ))
    return out


def suite_convergence(seed: int = 0) -> list[CheckResult]:
    out = []
    curve, vs, band, sched = _fixture()
    K = 0.04
    ki = transformed_strike(0.5, K)
    x0 = curve.forward_price(1.0, 1.5)
    v2 = vs.integrated_variance((1.5,), 0.0, 1.0, 1.0, 1.5)
    black = lognormal_put(x0, ki, math.sqrt(v2))
    payoff = lambda x: np.maximum(ki - x, 0.0)
    errs = []
    for n in (100, 200, 400):
        grid = default_grid(x0, math.sqrt(v2), nx=n, nt=n)
        sol = solve_single_option(curve, vs, band, 1.0, 1.0, 1.5, payoff, grid)
        errs.append(abs(sol.value - black))
    ratio = errs[0] / max(errs[-1], 1e-300)
    out.append(CheckResult(
        "PDE error vs Black shrinks with refinement (order >= 1)",
        ratio >= 4.0,
        f"err(100)={errs[0]:.2e} err(400)={errs[2]:.2e} ratio={ratio:.1f} (need >= 4)",
    ))
    lat_errs = []
    for steps in (50, 2000):
        lat = lattice_price(curve, vs, degenerate_band((1.5,)), 1.0, 1.0, 1.5,
                            lambda x: np.maximum(ki - x, 0.0), steps)
        lat_errs.append(abs(lat - black))
    fine_rel = lat_errs[1] / black
    out.append(CheckResult(
        "lattice vs Black: refinement helps and 2000 steps within 0.05%",
        lat_errs[1] <= lat_errs[0] and fine_rel <= 5e-4,
        f"err(50)={lat_errs[0]:.2e} err(2000)={lat_errs[1]:.2e} rel={fine_rel:.2e}",
    ))
    return out


_SUITE_FNS: dict[str, Callable[[int], list[CheckResult]]] = {
    "parity": suite_parity,
    "sublinearity": suite_sublinearity,
    "oracle": suite_oracle,
    "expectations-hypothesis": suite_expectations_hypothesis,
    "convergence": suite_convergence,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in _SUITE_FNS:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITES}")
    return _SUITE_FNS[name](seed)
