"""Robust bounds for caps, floors, in-arrears swaps, and swaptions.

Each contract reduces to a sum of expectations of forward bond prices under
their natural forward measures.  With a deterministic diffusion the forward
prices are driftless lognormals, and the payoffs are convex in them, so the
upper (lower) bound is a classical closed form at the band's upper (lower)
extreme.  With X = P(T_i)/P(T_{i-1}) under the reset-date measure,
K_i = 1/(1 + delta_i K), and each period discounted by P(T_{i-1}):

  * caplet i   : (1/K_i) E[(K_i - X)^+], a put on X;
  * floorlet i : the matching call, via put-call parity against the swap;
  * in-arrears : E[1/X - 1/K_i] = e^V/x - 1/K_i;
  * swaption   : E[(1 - X^N - K sum_i delta_i X^i)^+] on the family
                 X^i = P(T_i)/P(T_0), discounted by P(T_0).

A cap, floor or in-arrears swap is priced in one pass over its periods
(``_leg_stream_bounds``): one leg per distinct accrual from its constructor
(``stream.caplet_leg``, ``floorlet_leg``, ``in_arrears_leg``), valued at
both extremes by ``stream.closed_form_bounds``, the loop over closed-form
periods that ``stream.leg_bounds`` uses too, so a cap and the stream of its
caplets have the same bits.  A period there is two memo lookups and two
closed forms.  ``as_stream`` builds that stream, and the legs of a linear
contract, for the oracles; the engine does not.

The one-factor swaption locates the exercise boundary of the comonotone
payoff with ``_brentq``, a step-for-step port of scipy's C ``brentq``, and
sums Gaussian tail integrals with ``lognormal.norm_cdf``: it loads no scipy
module and returns scipy's bits.  The multi-factor case falls back to Monte
Carlo on the joint terminal law: ``mc``'s one sampler prices the constant
scenario family of the band extremes on one draw, a column per factor (per
forward price on a non-separable structure), x0 exp(-L z - v/2) with v the
row sums of L^2, as ``oracle.scenario_sup`` prices a family, and streams
each extreme's mean and sum of squared deviations M2 one path block at a
time (``mc._block_moments``); the standard error is
P(T_0) sqrt(M2 / (n - 1) / n) over n paths.  Both read
both extremes' inputs from one pass over the schedule
(``_swaption_inputs``), which raises ``DomainError`` for a total variance
that is not finite; a degenerate band is solved once.
That pass reads the forward prices P(T_k)/P(T_0) from
``DiscountCurve.forward_prices``: one memoized curve integral per date,
shared by every contract of the market on that date, with
``forward_price``'s bits.
A root-find that does not converge within ``_ROOT_ITERATION_CAP``
iterations, or that meets a NaN, raises ``ConvergenceError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .curve import DiscountCurve
from .errors import ConvergenceError, DomainError, UnsupportedMethodError
from .linear_pricing import LinearContract, TenorSchedule
from .lognormal import norm_cdf
from .mc import MCConfig, _block_moments, _member_moves, _se_of_mean
from .stream import (CashflowStream, ConstantLeg, FloatingLinearLeg, caplet_leg,
                     closed_form_bounds, floorlet_leg, in_arrears_leg)
from .uncertainty import PriceBounds, UncertaintyBand
from .vol_structure import VolStructure

OPTION_KINDS = ("cap", "floor", "swaption-payer", "in-arrears-payer-swap")
SWAPTION_METHODS = ("quadrature-1f", "monte-carlo")

_W_FLOOR = 1e-14
_ROOT_ITERATION_CAP = 100  # scipy.optimize.brentq's default maxiter


@dataclass(frozen=True)
class OptionContract:
    """An asymmetric tenor-structured contract with a positive strike rate."""

    kind: str
    schedule: TenorSchedule
    strike_rate: float
    notional: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in OPTION_KINDS:
            raise DomainError(f"kind must be one of {OPTION_KINDS}, got {self.kind!r}")
        if not 0.0 < self.strike_rate < math.inf:
            raise DomainError(f"strike rate must be finite and positive, got {self.strike_rate}")


# kind -> (leg constructor, method label) of each contract priced as a leg stream
_LEG_STREAMS = {
    "cap": (caplet_leg, "caplet-closed-form"),
    "floor": (floorlet_leg, "floorlet-closed-form"),
    "in-arrears-payer-swap": (in_arrears_leg, "inarrears-second-moment"),
}


def as_stream(contract) -> CashflowStream:
    """The contract as its stream of one leg per period, notional kept: the
    _LEG_STREAMS leg of a cap, floor or in-arrears swap; ConstantLeg(delta K),
    FloatingLinearLeg(delta) or FloatingLinearLeg(delta, -delta K) for a bond,
    note or payer swap, the bond and the note adding their principal 1 in the
    last period.  A stream comes back as it is; a swaption or any other type
    raises DomainError."""
    if isinstance(contract, CashflowStream):
        return contract
    kind = getattr(contract, "kind", type(contract).__name__)
    if isinstance(contract, OptionContract) and kind in _LEG_STREAMS:
        legs = [_LEG_STREAMS[kind][0](d, contract.strike_rate) for d in contract.schedule.accruals]
    elif isinstance(contract, LinearContract):
        k, (*ds, last) = contract.fixed_rate, contract.schedule.accruals
        if kind == "fixed-coupon-bond":
            legs = [ConstantLeg(d * k) for d in ds] + [ConstantLeg(last * k + 1.0)]
        elif kind == "floating-rate-note":
            legs = [FloatingLinearLeg(d) for d in ds] + [FloatingLinearLeg(last, 1.0)]
        else:
            legs = [FloatingLinearLeg(d, -d * k) for d in (*ds, last)]
    else:
        raise DomainError(f"{kind} is not a stream of period legs")
    return CashflowStream(schedule=contract.schedule, legs=legs, notional=contract.notional)


def _leg_stream_bounds(curve, vs, band, contract, kind: str) -> PriceBounds:
    """The contract as a stream of one leg per period, priced without
    building the stream: ``stream.closed_form_bounds`` sums its periods'
    closed forms at the band extremes in period order, as it does for the
    closed-form legs of ``stream.leg_bounds``."""
    if contract.kind != kind:
        raise DomainError(f"expected {kind}, got {contract.kind}")
    make_leg, label = _LEG_STREAMS[kind]
    schedule = contract.schedule
    schedule.check_within(curve)
    band.check_factors(vs)
    dates = schedule.dates

    def periods():
        legs = {}  # periods of one accrual share one (immutable) leg
        for i, (t_reset, t_pay) in enumerate(zip(dates, dates[1:])):
            if (leg := legs.get(t_pay - t_reset)) is None:
                leg = legs[t_pay - t_reset] = make_leg(t_pay - t_reset, contract.strike_rate)
            yield i, leg, t_reset, t_pay

    lower, upper = closed_form_bounds(curve, vs, band.lower, band.upper, periods())
    diag = {"method": label, "periods": schedule.periods}
    return PriceBounds(lower=lower, upper=upper, symmetric=band.is_degenerate,
                       diagnostics=diag).scaled(contract.notional)


def price_cap(curve: DiscountCurve, vs: VolStructure, band: UncertaintyBand,
              contract: OptionContract) -> PriceBounds:
    """Sum of caplet closed forms at the band extremes."""
    return _leg_stream_bounds(curve, vs, band, contract, "cap")


def price_floor(curve: DiscountCurve, vs: VolStructure, band: UncertaintyBand,
                contract: OptionContract) -> PriceBounds:
    """Sum of floorlet closed forms; satisfies cap - floor = swap at each bound."""
    return _leg_stream_bounds(curve, vs, band, contract, "floor")


def price_in_arrears_swap(curve: DiscountCurve, vs: VolStructure, band: UncertaintyBand,
                          contract: OptionContract) -> PriceBounds:
    """Payer swap with the floating rate fixed and paid at the same date.

    The convexity of 1/x - 1/K_i makes the bounds sit at the band extremes;
    E[1/X] = e^V/x grows with the variance, so the spread is strictly
    positive whenever the band is nondegenerate and some variance accrues.
    """
    return _leg_stream_bounds(curve, vs, band, contract, "in-arrears-payer-swap")


# -- swaptions ---------------------------------------------------------------


def exercise_coefficients(schedule, strike_rate: float) -> np.ndarray:
    """a_i = delta_i K in a payer swaption's exercise value 1 - sum_i a_i x_i,
    x_i = P(T_i)/P(T_0); a_N carries the final 1."""
    coefs = np.array(schedule.accruals) * strike_rate
    coefs[-1] += 1.0
    return coefs


def _swaption_inputs(curve, vs, band, contract):
    """Both band extremes' inputs from one pass over the schedule: the forward
    prices x_i = P(T_i)/P(T_0) (curve.forward_prices), their exercise
    coefficients a_i (exercise_coefficients), and the total stdevs w_i of
    the x_i over [0, T_0] at the lower and at the upper extreme (one array
    twice for a degenerate band), from VolStructure.extreme_variances.  A total variance that is not finite
    raises DomainError here, before any pricing arithmetic reads it.
    """
    s = contract.schedule
    t0 = s.start
    xs = np.array(curve.forward_prices(t0, s.dates[1:]))
    coefs = exercise_coefficients(s, contract.strike_rate)
    w2_lower, w2_upper = vs.extreme_variances(band.lower, band.upper, (0.0, t0), t0, s.dates[1:])
    if not (np.isfinite(w2_lower).all() and np.isfinite(w2_upper).all()):
        raise DomainError(
            f"swaption total variance over [0, {t0}] is not finite "
            "(a factor level too large for its variance integral)"
        )
    ws_lower = np.sqrt(np.maximum(w2_lower, 0.0))
    ws_upper = ws_lower if w2_upper is w2_lower else np.sqrt(np.maximum(w2_upper, 0.0))
    return xs, coefs, ws_lower, ws_upper


def _swaption_value_comonotone(xs, coefs, weights, ws) -> float:
    """E[(1 - sum_i a_i x_i e^{-w_i Z - w_i^2/2})^+] for one common Z, where
    weights = coefs * xs (a_i x_i).

    The exercise region is {Z >= z*} because every w_i >= 0, so the value
    splits into exact Gaussian tail integrals:
        N(-z*) - sum_i a_i x_i N(-z* - w_i).
    """
    if np.max(ws) <= _W_FLOOR:
        return max(1.0 - float(np.dot(coefs, xs)), 0.0)
    neg_ws = -ws
    half_w2 = 0.5 * ws**2

    def gap(z):
        return 1.0 - float(np.dot(weights, np.exp(neg_ws * z - half_w2)))

    zmax = 40.0
    # For a large finite w_i, e^{-w_i z - w_i^2/2} overflows at some z < 0:
    # the gap is then -inf, and the root-find takes it as it is.
    with np.errstate(over="ignore"):
        gap_hi = gap(zmax)
        if gap_hi <= 0.0:
            return 0.0  # never exercised within machine-precision tail mass
        gap_lo = gap(-zmax)
        if gap_lo >= 0.0:
            z_star = -zmax  # always exercised; the N(zmax - w_i) vanish once w_i >> zmax
        else:
            z_star = _brentq(gap, -zmax, zmax, gap_lo, gap_hi, 1e-15, 8.9e-16, _ROOT_ITERATION_CAP)
    tails = np.array([norm_cdf(d) for d in (-z_star - ws).tolist()])
    return norm_cdf(-z_star) - float(np.dot(weights, tails))


def _brentq(f, xa: float, xb: float, fa: float, fb: float, xtol: float, rtol: float,
            maxiter: int) -> float:
    """A root of f in [xa, xb], given fa = f(xa) and fb = f(xb) of opposite signs.

    A port of scipy's C ``brentq`` (Brent 1973: inverse quadratic
    interpolation or secant steps, falling back to bisection), step for step,
    so it evaluates f at the same points after the two endpoints (which the
    caller has evaluated) and returns the same root.  Where scipy raises a
    bare ValueError for a NaN value or RuntimeError for non-convergence, this
    raises ConvergenceError.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fa, fb
    if fpre != fpre or fcur != fcur:
        raise ConvergenceError(f"Brent root-find: NaN function value on [{xa}, {xb}]")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ConvergenceError(f"Brent root-find: no sign change on [{xa}, {xb}]")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise ConvergenceError(f"Brent root-find: NaN function value at {xcur}")
    raise ConvergenceError(
        f"Brent root-find: no convergence in {maxiter} iterations (last iterate {xcur})"
    )


def price_swaption(
    curve: DiscountCurve,
    vs: VolStructure,
    band: UncertaintyBand,
    contract: OptionContract,
    method: str = "quadrature-1f",
    mc: MCConfig | None = None,
) -> PriceBounds:
    """Payer swaption: P(T_0) E[(1 - X^N - K sum delta_i X^i)^+] at both extremes.

    method "quadrature-1f" (d == 1 only) is deterministic and exact up to
    root-finding tolerance; "monte-carlo" works for any d and reports the
    standard error of each bound in the diagnostics.
    """
    if contract.kind != "swaption-payer":
        raise DomainError(f"expected swaption-payer, got {contract.kind}")
    contract.schedule.check_within(curve)
    band.check_factors(vs)
    p0 = curve.bond_price(contract.schedule.start)
    diag: dict[str, Any] = {"method": method}
    if method == "quadrature-1f":
        if vs.dim != 1:
            raise UnsupportedMethodError(
                f"quadrature-1f requires a one-factor volatility structure, got d={vs.dim}"
            )
        xs, coefs, ws_lower, ws_upper = _swaption_inputs(curve, vs, band, contract)
        weights = coefs * xs
        lower = p0 * _swaption_value_comonotone(xs, coefs, weights, ws_lower)
        if band.is_degenerate:  # one belief: both bounds are the same value
            upper = lower
        else:
            upper = p0 * _swaption_value_comonotone(xs, coefs, weights, ws_upper)
    elif method == "monte-carlo":
        # A one-segment constant scenario family, the lower extreme then the
        # upper (one member under a degenerate band), on one shared draw.
        mc = mc or MCConfig()
        xs, coefs, _, _ = _swaption_inputs(curve, vs, band, contract)
        t0 = contract.schedule.start
        extremes = (band.lower,) if band.is_degenerate else (band.lower, band.upper)
        moves = _member_moves(vs, [[(0.0, t0, s)] for s in extremes], t0,
                             [(t0, t) for t in contract.schedule.dates[1:]])

        def payoff(x):  # max(1 - coefs @ x, 0), in the one vector coefs @ x
            v = coefs @ x
            return np.maximum(np.subtract(1.0, v, out=v), 0.0, out=v)

        stats = _block_moments(mc.seed, mc.paths, mc.antithetic, moves, xs[:, None], payoff)
        (lo_mean, lo_m2), (hi_mean, hi_m2) = stats[0], stats[-1]
        lower, upper = p0 * lo_mean, p0 * hi_mean
        diag.update(
            paths=mc.paths,
            seed=mc.seed,
            antithetic=mc.antithetic,
            se_lower=p0 * _se_of_mean(lo_m2, mc.paths),
            se_upper=p0 * _se_of_mean(hi_m2, mc.paths),
        )
    else:
        raise UnsupportedMethodError(
            f"unknown swaption method {method!r}; use one of {SWAPTION_METHODS}"
        )
    return PriceBounds(
        lower=lower, upper=upper, symmetric=band.is_degenerate, diagnostics=diag
    ).scaled(contract.notional)


def price_option(
    curve: DiscountCurve,
    vs: VolStructure,
    band: UncertaintyBand,
    contract: OptionContract,
    method: str = "quadrature-1f",
    mc: MCConfig | None = None,
) -> PriceBounds:
    """Dispatch on the contract kind."""
    if contract.kind in _LEG_STREAMS:
        return _leg_stream_bounds(curve, vs, band, contract, contract.kind)
    return price_swaption(curve, vs, band, contract, method=method, mc=mc)
