"""Backward-induction pricing of cashflow streams.

A stream attaches one leg to each accrual period [T_{i-1}, T_i]:

  * ConstantLeg(amount)            -- fixed cash at T_i,
  * FloatingLinearLeg(a, b)        -- a * L_{T_{i-1}}(T_i) + b at T_i,
  * OptionLeg(g, tag)              -- cash g(P_{T_{i-1}}(T_i)) at T_{i-1},
                                      i.e. a function of the period bond
                                      price, settled in advance.

Dispatch, in order.  Constant and floating-linear legs are symmetric, so
they separate exactly and price in closed form.  Under a degenerate band
(one volatility) pricing is linear, so every option leg, whatever its tag
or position, adds its classical value.  Otherwise option legs sharing one
convexity tag decouple into single-option prices at the band extremes;
legs without a closed form take them from one fixed-volatility stack of
the 1D PDE sweep (each step one solve of all rows).  Mixed or general tags
force the backward recursion: the last option leg is a band row of the
same sweep, and the coupling of two adjacent option legs lives on a 2D
tensor grid whose single driver makes the diffusion rank one (the grid
aspect ratio absorbs the perfect correlation into a diagonal stencil).
Each explicit step updates, in place, only the cells that can still reach
the wanted centre value (a square shrinking by one cell per step), as one
contiguous range of the flattened grid; the boundary columns it overwrites
get their terminal values back.  Because pricing is sublinear, the result
is sandwiched between the per-leg lower- and upper-bound sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Union

import numpy as np

from .curve import DiscountCurve
from .errors import DomainError, UnsupportedMethodError
from .linear_pricing import TenorSchedule
from .lognormal import lognormal_call, lognormal_put, lognormal_reciprocal_mean
from .pde import (
    PDEGrid,
    cell_average,
    default_grid,
    solve_lower,
    solve_single_option,
    window_tables,
    window_values,
)
from .uncertainty import PriceBounds, UncertaintyBand, degenerate_band, symmetric_price
from .vol_structure import VolStructure

CONVEXITY_TAGS = ("convex", "concave", "general")
MAX_CONTROL_DIM = 2  # live forward prices carried on the tensor grid


@dataclass(frozen=True)
class ConstantLeg:
    """Fixed cash amount paid at the period end."""

    amount: float


@dataclass(frozen=True)
class FloatingLinearLeg:
    """slope * L + intercept paid at the period end, L the simple spot rate
    fixed at the period start."""

    slope: float
    intercept: float = 0.0


@dataclass(frozen=True)
class OptionLeg:
    """g(p) settled at the period start, p the period-end bond price there.

    convexity is caller-asserted ('convex' | 'concave' | 'general') and
    checked against the signs of g's second differences on the leg's own
    grid; a contradiction downgrades the tag to 'general' with a warning in
    the diagnostics.  expected_value(x, v), when provided, is the
    closed-form lognormal expectation E[g(X)] used on the decoupled path.
    """

    payoff: Callable[[np.ndarray], np.ndarray]
    convexity: str
    expected_value: Callable[[float, float], float] | None = None
    label: str = "option"

    def __post_init__(self) -> None:
        if self.convexity not in CONVEXITY_TAGS:
            raise DomainError(f"convexity must be one of {CONVEXITY_TAGS}, got {self.convexity!r}")

    def __call__(self, p):
        return np.asarray(self.payoff(np.asarray(p, dtype=float)), dtype=float)


Leg = Union[ConstantLeg, FloatingLinearLeg, OptionLeg]


@dataclass(frozen=True)
class CashflowStream:
    """One leg per accrual period of the schedule."""

    schedule: TenorSchedule
    legs: tuple[Leg, ...]
    notional: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "legs", tuple(self.legs))
        if len(self.legs) != self.schedule.periods:
            raise DomainError(
                f"stream needs one leg per period: {self.schedule.periods} periods, "
                f"{len(self.legs)} legs"
            )


# -- standard leg constructors -----------------------------------------------


def transformed_strike(accrual: float, strike_rate: float) -> float:
    """K_i = 1 / (1 + delta_i K), the bond-price strike of a rate option."""
    if not (0.0 < accrual < math.inf and 0.0 < strike_rate < math.inf):
        raise DomainError(
            f"transformed strike needs finite positive accrual and rate, got {accrual}, {strike_rate}"
        )
    gross = 1.0 + accrual * strike_rate
    if gross == math.inf:
        raise DomainError(
            f"transformed strike: 1 + accrual * strike rate is not finite for accrual {accrual}, "
            f"strike rate {strike_rate}"
        )
    return 1.0 / gross


def _excess_per_strike(a, b, ki):
    """max(a - b, 0) / ki in one new array, a 0-d one for scalars."""
    t = np.subtract(a, b, out=np.empty(np.broadcast(a, b).shape))
    np.maximum(t, 0.0, out=t)
    return np.divide(t, ki, out=t)


def caplet_leg(accrual: float, strike_rate: float) -> OptionLeg:
    """(1/K_i) (K_i - p)^+ : the advance-settled caplet, convex."""
    ki = transformed_strike(accrual, strike_rate)
    return OptionLeg(
        payoff=lambda p: _excess_per_strike(ki, p, ki),
        convexity="convex",
        expected_value=lambda x, v: lognormal_put(x, ki, v) / ki,
        label=f"caplet(K={strike_rate})",
    )


def floorlet_leg(accrual: float, strike_rate: float) -> OptionLeg:
    """(1/K_i) (p - K_i)^+ : the advance-settled floorlet, convex."""
    ki = transformed_strike(accrual, strike_rate)
    return OptionLeg(
        payoff=lambda p: _excess_per_strike(p, ki, ki),
        convexity="convex",
        expected_value=lambda x, v: lognormal_call(x, ki, v) / ki,
        label=f"floorlet(K={strike_rate})",
    )


def in_arrears_leg(accrual: float, strike_rate: float) -> OptionLeg:
    """1/p - 1/K_i : the in-arrears payer exchange, convex in p."""
    ki = transformed_strike(accrual, strike_rate)

    def payoff(p):  # 1 / p - 1 / ki in one array
        t = np.divide(1.0, p, out=np.empty(np.shape(p)))
        return np.subtract(t, 1.0 / ki, out=t)

    return OptionLeg(
        payoff=payoff,
        convexity="convex",
        expected_value=lambda x, v: lognormal_reciprocal_mean(x, v) - 1.0 / ki,
        label=f"in-arrears(K={strike_rate})",
    )


def capped_call_spread_leg(strike: float, cap: float) -> OptionLeg:
    """min((p - strike)^+, cap): convex then concave, tagged general."""
    if not math.isfinite(strike):
        raise DomainError(f"capped spread strike must be finite, got {strike}")
    if not 0.0 < cap < math.inf:
        raise DomainError(f"capped spread cap must be finite and positive, got {cap}")
    return OptionLeg(
        payoff=lambda p: np.minimum(np.maximum(p - strike, 0.0), cap),
        convexity="general",
        label=f"capped-spread({strike},{cap})",
    )


def capped_forward_leg(cap: float) -> OptionLeg:
    """min(p, cap): concave."""
    if not 0.0 < cap < math.inf:
        raise DomainError(f"capped forward cap must be finite and positive, got {cap}")
    return OptionLeg(
        payoff=lambda p: np.minimum(p, cap),
        convexity="concave",
        label=f"capped-forward({cap})",
    )


# -- dispatch helpers ----------------------------------------------------------


def _symmetric_leg_value(curve: DiscountCurve, stream: CashflowStream, i: int) -> float:
    leg = stream.legs[i]
    t_reset, t_pay = stream.schedule.dates[i], stream.schedule.dates[i + 1]
    delta = t_pay - t_reset
    if isinstance(leg, ConstantLeg):
        return leg.amount * curve.bond_price(t_pay)
    # a L + b at T_i: the floating part replicates to (a/delta)(P(T_{i-1}) - P(T_i)).
    return (
        leg.slope / delta * (curve.bond_price(t_reset) - curve.bond_price(t_pay))
        + leg.intercept * curve.bond_price(t_pay)
    )


def _variance_error(i, t_reset, t_pay, t0, t1) -> DomainError:
    """The error for a variance of period i's forward price P(T_i)/P(T_{i-1})
    over [t0, t1] that is not finite, raised before any grid or closed form
    reads it."""
    return DomainError(
        f"period {i} [{t_reset}, {t_pay}]: variance over [{t0}, {t1}] is not finite "
        "(a factor level too large for its variance integral)"
    )


def _finite_variance(vs, scale, i, t0, t1, T, T_tilde) -> float:
    """vs.integrated_variance(scale, t0, t1, T, T~) of period i's forward
    price P(T~)/P(T), raising _variance_error if it is not finite."""
    var = vs.integrated_variance(scale, t0, t1, T, T_tilde)
    if not math.isfinite(var):
        raise _variance_error(i, T, T_tilde, t0, t1)
    return var


def _leg_grid(curve, vs, band, stream, i, nx: int, nt: int) -> PDEGrid:
    """Period i's single-option grid: six sigma of the band's upper variance
    around the spot forward price."""
    t_reset, t_pay = stream.schedule.dates[i], stream.schedule.dates[i + 1]
    var = _finite_variance(vs, band.upper, i, 0, t_reset, t_reset, t_pay)
    return default_grid(curve.forward_price(t_reset, t_pay), math.sqrt(var), nx=nx, nt=nt)


def _checked_tag(curve, vs, band, stream, i, nx: int, nt: int) -> str:
    """Leg i's declared convexity if the second differences of its payoff on
    its own grid all have that sign (up to rounding), else 'general'."""
    leg = stream.legs[i]
    if leg.convexity == "general":
        return "general"
    g = leg(_leg_grid(curve, vs, band, stream, i, nx, nt).xs)
    d2 = g[2:] - 2.0 * g[1:-1] + g[:-2]
    tol = 1e-9 * (1.0 + float(np.max(np.abs(g))))
    holds = (d2 >= -tol).all() if leg.convexity == "convex" else (d2 <= tol).all()
    return leg.convexity if holds else "general"


def _downgrade_warning(stream, i) -> str:
    leg = stream.legs[i]
    return (
        f"leg {i} ({leg.label}): declared {leg.convexity} failed the chord "
        "(second-difference) check; treated as general"
    )


def closed_form_bounds(curve, vs, lower_scale, upper_scale, periods) -> tuple[float, float]:
    """(lower, upper): the sums, in the order of periods, of P(T_{i-1}) E[g(X)]
    for each option period (i, leg, T_{i-1}, T_i), from the leg's closed form
    at lower_scale and at upper_scale, its inputs from curve.period_prices and
    vs.extreme_variance.  A variance of X that is not finite raises
    DomainError naming period i, before either closed form reads it."""
    lower = upper = -0.0  # the additive identity: one period's sum is its value
    for i, leg, t_reset, t_pay in periods:
        p_reset, x0 = curve.period_prices(t_reset, t_pay)
        var_lo, var_hi = vs.extreme_variance(lower_scale, upper_scale, 0.0, t_reset, t_reset, t_pay)
        if not (math.isfinite(var_lo) and math.isfinite(var_hi)):
            raise _variance_error(i, t_reset, t_pay, 0, t_reset)
        lower += p_reset * leg.expected_value(x0, math.sqrt(var_lo))
        upper += p_reset * leg.expected_value(x0, math.sqrt(var_hi))
    return lower, upper


def leg_bounds(
    curve, vs, band, stream, tags: dict[int, str], nx: int = 241, nt: int = 240
) -> list[tuple[float, float]]:
    """(lower, upper) of each option leg i in tags (leg index -> checked tag),
    each leg on its own, in the order of tags.

    A convex (concave) leg's bounds are its classical values at the band
    extremes, the upper bound at the upper (lower) one: ``closed_form_bounds``
    (which caps, floors and in-arrears swaps sum) when the leg has a closed
    form, else the single-option PDE at that one scaling.  Those PDE solves,
    both extremes of every such leg (one row under a degenerate band, whose
    extremes are one scale), are the rows of one fixed-volatility stack
    (``pde.window_values``), each read at the spot forward price and
    discounted by P(T_{i-1}).  A general leg needs the single-option PDE over
    the band: its upper and lower solves share one grid and one pair of
    variance tables, each a band row of the sweep.
    """
    bounds = {i: [None, None] for i in tags}  # [lower, upper] per leg
    stacked = []  # (leg index, sides: 0 lower, 1 upper, x0, P(T_{i-1}), payoff, grid, tables)
    for i, tag in tags.items():
        leg = stream.legs[i]
        t_reset, t_pay = pair = stream.schedule.dates[i:i + 2]
        if tag == "general":
            grid = _leg_grid(curve, vs, band, stream, i, nx, nt)
            tables = window_tables(vs, band, pair, 0.0, t_reset, grid.nt)
            args = (curve, vs, band, t_reset, t_reset, t_pay, leg, grid, tables)
            bounds[i][1] = solve_single_option(*args).cash_price
            bounds[i][0] = solve_lower(*args).cash_price
            continue
        extremes = (band.lower, band.upper) if tag == "convex" else (band.upper, band.lower)
        if leg.expected_value is not None:
            bounds[i] = closed_form_bounds(curve, vs, *extremes, ((i, leg, t_reset, t_pay),))
            continue
        x0, p_reset = curve.forward_price(t_reset, t_pay), curve.bond_price(t_reset)
        # The bounds each row fills: a degenerate band's one scale fills both.
        fills = ((0, 1),) if band.is_degenerate else ((0,), (1,))
        for sides, scale in zip(fills, extremes):
            var = _finite_variance(vs, scale, i, 0, t_reset, t_reset, t_pay)
            grid = default_grid(x0, math.sqrt(var), nx=nx, nt=nt)
            tables = window_tables(vs, degenerate_band(scale), pair, 0.0, t_reset, nt)
            stacked.append((i, sides, x0, p_reset, leg, grid, tables))
    if stacked:
        indices, sides, spots, discounts, payoffs, grids, tables = zip(*stacked)
        rows = window_values(payoffs, grids, tables)
        for i, row_sides, x0, p_reset, grid, u in zip(indices, sides, spots, discounts, grids, rows):
            value = p_reset * float(np.interp(x0, grid.xs, u))
            for side in row_sides:
                bounds[i][side] = value
    return [(lower, upper) for lower, upper in bounds.values()]


def _leg_method(tag: str) -> str:
    return "single-option-pde" if tag == "general" else f"{tag}-decoupled"


def price_leg_bounds(
    curve: DiscountCurve,
    vs: VolStructure,
    band: UncertaintyBand,
    stream: CashflowStream,
    i: int,
    nx: int = 241,
    nt: int = 240,
) -> PriceBounds:
    """Robust bounds for leg i priced on its own (unit stream notional)."""
    leg = stream.legs[i]
    if not isinstance(leg, OptionLeg):
        return symmetric_price(_symmetric_leg_value(curve, stream, i), method="closed-form")
    if band.is_degenerate:  # its classical value, as price_stream adds it
        tag, diag = "convex", {"method": "classical-legs"}
    else:
        tag = _checked_tag(curve, vs, band, stream, i, nx, nt)
        diag = {"method": _leg_method(tag)}
        if tag != leg.convexity:
            diag["warnings"] = [_downgrade_warning(stream, i)]
    [(lower, upper)] = leg_bounds(curve, vs, band, stream, {i: tag}, nx, nt)
    return PriceBounds(lower=lower, upper=upper, symmetric=band.is_degenerate, diagnostics=diag)


# -- the coupled two-leg recursion ---------------------------------------------


def _pair_nodes(nx: int) -> int:
    """Nodes per axis of the pair grid: nx, made odd so that the spot lies on
    the centre cell."""
    return nx if nx % 2 == 1 else nx + 1


def _pair_recursion(
    curve: DiscountCurve,
    vs: VolStructure,
    band: UncertaintyBand,
    schedule: TenorSchedule,
    i: int,
    g1: OptionLeg,
    g2: OptionLeg,
    nx: int,
    nt: int,
) -> tuple[float, float]:
    """Upper expectations of g1 settled at T_{i-1} plus g2 settled at T_i,
    and of their negation, for adjacent periods i and i+1 (0-based), via the
    backward recursion; the lower bound is minus the second value.

    Step 1 solves the one-dimensional problem for g2 over [T_{i-1}, T_i]
    under its own forward measure; step 2 couples it into the terminal
    condition g1(x1) + x1 * h(x2) of a two-state solve over [0, T_{i-1}].
    Both signs share the grids and the variance tables (each sign's inner
    solve is its own one-row sweep).
    """
    if vs.dim != 1:
        raise UnsupportedMethodError(
            "the coupled stream recursion supports one-factor volatility structures only"
        )
    if not vs.is_separable():
        raise UnsupportedMethodError(
            "the coupled stream recursion needs a time-separable factor "
            "(ho-lee or hull-white), not a tabulated surface"
        )
    t_start, t_mid, t_end = schedule.dates[i], schedule.dates[i + 1], schedule.dates[i + 2]
    pair1 = (t_start, t_mid)
    pair2 = (t_mid, t_end)
    x1_0 = curve.forward_price(*pair1)
    x2_0 = curve.forward_price(*pair2)

    # Inner solve: h(x2) = upper value of g2 at t = T_{i-1}, on a domain wide
    # enough to cover the outer grid plus the diffusion left until T_i.
    var2_outer = _finite_variance(vs, band.upper, i + 1, 0, t_start, *pair2)
    var2_inner = _finite_variance(vs, band.upper, i + 1, t_start, t_mid, *pair2)
    half_width = 6.0 * max(math.sqrt(var2_outer), 1e-6) + 6.0 * max(math.sqrt(var2_inner), 1e-6)
    inner_grid = PDEGrid(
        x_min=x2_0 * math.exp(-half_width),
        x_max=x2_0 * math.exp(half_width),
        nx=nx,
        nt=max(nt // 2, 40),
    )

    # Outer two-state solve on log coordinates with aspect locked to the
    # constant vol ratio rho = sigma2 / sigma1.
    ref_t = 0.5 * t_start
    s1 = vs.forward_price_vol(0, ref_t, *pair1)
    s2 = vs.forward_price_vol(0, ref_t, *pair2)
    if s1 <= 0.0 or s2 <= 0.0:
        raise DomainError("coupled recursion requires positive forward-price vols")
    rho = s2 / s1

    v1_up = _finite_variance(vs, band.upper, i, 0, t_start, *pair1)
    half1 = 6.0 * max(math.sqrt(v1_up), 1e-6)
    n = _pair_nodes(nx)
    y1 = np.linspace(math.log(x1_0) - half1, math.log(x1_0) + half1, n)
    h1 = y1[1] - y1[0]
    h2 = rho * h1
    y2 = math.log(x2_0) + (np.arange(n) - n // 2) * h2
    x1g = np.exp(y1)[:, None]
    x2 = np.exp(y2)

    # Per-step variances of the driver integrated against sigma1^2.  The
    # stability bound must hold at the *peak* local variance, not just on
    # average.  The forward-price vol is G * h(t) with h = 1 (ho-lee) or
    # e^{kappa t}, kappa > 0 (hull-white): nondecreasing, so the peak over
    # [0, T_{i-1}] sits at T_{i-1}.
    drift2 = rho * (rho + 2.0)
    weight = 2.0 / h1**2 + 1.0 / h1 + drift2 / h2
    peak_rate = band.upper[0] ** 2 * vs.forward_price_vol(0, t_start, *pair1) ** 2
    nt_eff = max(nt, int(math.ceil(0.5 * peak_rate * t_start * weight * 1.05)), 1)
    vd, vu = vs.extreme_variances(band.lower, band.upper, np.linspace(0.0, t_start, nt_eff + 1), *pair1)

    inner_tables = window_tables(vs, band, pair2, t_start, t_mid, inner_grid.nt)
    values = []
    for sign in (1.0, -1.0):
        h_values = window_values([lambda x: sign * g2(x)], [inner_grid], [inner_tables])[0]
        # Cell-average the (possibly kinked) own payoff along y1; the coupling
        # factor x1 * h(x2) is smooth, so pointwise sampling suffices there.
        g1_avg = cell_average(lambda y: sign * g1(np.exp(y)), y1, h1)
        terminal = g1_avg[:, None] + x1g * np.interp(x2, inner_grid.xs, h_values)
        values.append(curve.bond_price(t_start) * _pair_sweep(terminal, h1, h2, drift2, vu, vd))
    return values[0], values[1]


def _pair_sweep(u, h1, h2, drift2, vu, vd) -> float:
    """Explicit backward steps of the two-state solve from the terminal grid
    u (overwritten when C-contiguous); returns the value at the centre cell.

    The stencil reaches one cell per step, so the centre value after step k
    depends only on the cells within Chebyshev radius k of it.  Each step
    updates, in place, one contiguous range of the flattened grid: from the
    corner (m - r, m - r) of that square (clipped to the interior, radius r)
    to its corner (m + r, m + r).  The four neighbours are the same range
    shifted by +-(n + 1), -n and -1.  The range also covers cells outside the
    square; they lie outside the centre's domain of dependence, so what they
    hold never reaches it.  The exception is the boundary columns, which a
    full-interior step reads: their terminal values are copied back after
    every step.  Every square cell sees the full-grid update's operations in
    the same order, so the result is the same to the last bit.
    """
    u = np.ascontiguousarray(u)
    n = len(u)
    m = n // 2
    f = u.reshape(-1)
    first, last = u[:, 0].copy(), u[:, -1].copy()
    h1_sq = h1**2
    hh_buf = np.empty((n - 2) * n)
    tmp_buf = np.empty((n - 2) * n)
    for k in range(len(vu) - 1, -1, -1):
        r = min(k, m - 1)
        lo, hi = (m - r) * (n + 1), (m + r) * (n + 1) + 1
        c = f[lo:hi]
        hh = hh_buf[:hi - lo]
        tmp = tmp_buf[:hi - lo]
        # hh = (u[i+1,j+1] - 2c + u[i-1,j-1]) / h1^2 - (c - u[i-1,j]) / h1
        #      - drift2 * ((c - u[i,j-1]) / h2)
        np.multiply(2.0, c, out=tmp)
        np.subtract(f[lo + n + 1:hi + n + 1], tmp, out=hh)
        np.add(hh, f[lo - n - 1:hi - n - 1], out=hh)
        np.divide(hh, h1_sq, out=hh)
        np.subtract(c, f[lo - n:hi - n], out=tmp)
        np.divide(tmp, h1, out=tmp)
        np.subtract(hh, tmp, out=hh)
        np.subtract(c, f[lo - 1:hi - 1], out=tmp)
        np.divide(tmp, h2, out=tmp)
        np.multiply(drift2, tmp, out=tmp)
        np.subtract(hh, tmp, out=hh)
        # c += max(vu/2 * hh, vd/2 * hh)
        np.multiply(0.5 * vu[k], hh, out=tmp)
        np.multiply(0.5 * vd[k], hh, out=hh)
        np.maximum(tmp, hh, out=tmp)
        np.add(c, tmp, out=c)
        u[:, 0] = first
        u[:, -1] = last
    return float(u[m, m])


# -- public pricer ---------------------------------------------------------------


def price_stream(
    curve: DiscountCurve,
    vs: VolStructure,
    band: UncertaintyBand,
    stream: CashflowStream,
    nx: int = 241,
    nt: int = 240,
) -> PriceBounds:
    """Robust bounds for the whole stream.

    Dispatch, in order: symmetric legs always separate exactly; under a
    degenerate band every option leg adds its classical value (pricing is
    linear), whatever its tag or position; option legs sharing a convexity
    tag decouple into per-leg values at the band extremes; mixed or general
    tags trigger the backward PDE recursion, supported for at most two
    option legs on adjacent periods.
    """
    stream.schedule.check_within(curve)
    band.check_factors(vs)

    diag: dict[str, Any] = {}
    sym_value = sum(
        _symmetric_leg_value(curve, stream, i)
        for i, leg in enumerate(stream.legs)
        if not isinstance(leg, OptionLeg)
    )
    option_idx = [i for i, leg in enumerate(stream.legs) if isinstance(leg, OptionLeg)]

    if not option_idx:
        return symmetric_price(sym_value, method="symmetric-closed-form").scaled(stream.notional)
    if band.is_degenerate:  # both "convex" extremes are the one scale: equal to the bit
        bounds = leg_bounds(curve, vs, band, stream, dict.fromkeys(option_idx, "convex"), nx, nt)
        diag.update(method="classical-legs", option_legs=len(option_idx))
        return PriceBounds(
            lower=sym_value + sum(lo for lo, _ in bounds),
            upper=sym_value + sum(hi for _, hi in bounds),
            symmetric=True, diagnostics=diag,
        ).scaled(stream.notional)

    # The checked tags pick the method.  A downgrade is not silent: its
    # warning lands in the diagnostics.
    tags = {i: _checked_tag(curve, vs, band, stream, i, nx, nt) for i in option_idx}
    warnings = [
        _downgrade_warning(stream, i) for i in option_idx if tags[i] != stream.legs[i].convexity
    ]

    tag_set = set(tags.values())
    if len(option_idx) == 1 or tag_set == {"convex"} or tag_set == {"concave"}:
        # One leg, or legs sharing a convexity: every leg is priced on its own.
        bounds = leg_bounds(curve, vs, band, stream, tags, nx, nt)
        upper = sym_value + sum(hi for _, hi in bounds)
        lower = sym_value + sum(lo for lo, _ in bounds)
        diag.update(method=_leg_method(tag_set.pop()), option_legs=len(option_idx))
    else:
        if len(option_idx) > MAX_CONTROL_DIM:
            raise UnsupportedMethodError(
                f"mixed-curvature streams support at most {MAX_CONTROL_DIM} option legs "
                f"(got {len(option_idx)}): larger instances exceed the tensor-grid "
                "state dimension this engine carries"
            )
        i, j = option_idx
        if j != i + 1:
            raise UnsupportedMethodError(
                "two general-tag option legs must sit on adjacent periods; "
                "non-adjacent pairs add a third coupling state beyond the "
                "tensor grid carried here"
            )
        pair_upper, pair_neg = _pair_recursion(
            curve, vs, band, stream.schedule, i, stream.legs[i], stream.legs[j], nx, nt
        )
        upper = sym_value + pair_upper
        lower = sym_value - pair_neg
        diag.update(method="coupled-pair-pde", option_legs=2, nx=_pair_nodes(nx), nt=nt)
    if warnings:
        diag["warnings"] = warnings
    return PriceBounds(
        lower=lower, upper=upper, symmetric=False, diagnostics=diag
    ).scaled(stream.notional)
