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
both extremes by ``stream.closed_form_bounds``, the routine
``stream.leg_bounds`` prices closed-form stream legs with, so a cap and the
stream of its caplets have the same bits.

The one-factor swaption locates the exercise boundary of the comonotone
payoff with ``_brentq``, a step-for-step port of scipy's C ``brentq``, and
sums Gaussian tail integrals with ``lognormal.norm_cdf``: it loads no scipy
module and returns scipy's bits.  The multi-factor case falls back to Monte
Carlo on the joint terminal law.  Both read both extremes' inputs from one
pass over the schedule (``_swaption_inputs``), which raises ``DomainError``
for a total variance that is not finite; a degenerate band is solved once.
A root-find that does not converge within ``_ROOT_ITERATION_CAP``
iterations, or that meets a NaN, raises ``ConvergenceError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .curve import DiscountCurve
from .errors import ConvergenceError, DomainError, UnsupportedMethodError
from .linear_pricing import TenorSchedule
from .lognormal import norm_cdf
from .mc import MCConfig, mean_and_se, normals, path_blocks
from .stream import caplet_leg, closed_form_bounds, floorlet_leg, in_arrears_leg
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
        if not self.strike_rate > 0.0:
            raise DomainError(f"strike rate must be positive, got {self.strike_rate}")


# kind -> (leg constructor, method label) of each contract priced as a leg stream
_LEG_STREAMS = {
    "cap": (caplet_leg, "caplet-closed-form"),
    "floor": (floorlet_leg, "floorlet-closed-form"),
    "in-arrears-payer-swap": (in_arrears_leg, "inarrears-second-moment"),
}


def _leg_stream_bounds(curve, vs, band, contract, kind: str) -> PriceBounds:
    """The contract as a stream of one leg per period, priced in one pass
    over the periods without building the stream: each bound is the sum, in
    period order, of the legs' ``stream.closed_form_bounds`` at the band
    extremes, as ``stream.leg_bounds`` values closed-form legs."""
    if contract.kind != kind:
        raise DomainError(f"expected {kind}, got {contract.kind}")
    make_leg, label = _LEG_STREAMS[kind]
    schedule = contract.schedule
    schedule.check_within(curve)
    band.check_factors(vs)
    dates = schedule.dates
    legs = {}  # periods of one accrual share one (immutable) leg
    bounds = []
    for i, (delta, t_reset, t_pay) in enumerate(zip(schedule.accruals, dates, dates[1:])):
        leg = legs.get(delta)
        if leg is None:
            leg = legs[delta] = make_leg(delta, contract.strike_rate)
        bounds.append(closed_form_bounds(curve, vs, band.lower, band.upper, leg, i, t_reset, t_pay))
    lower, upper = map(sum, zip(*bounds))
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


def _swaption_inputs(curve, vs, band, contract):
    """Both band extremes' inputs from one pass over the schedule: the forward
    prices x_i = P(T_i)/P(T_0), the coefficient a_i of each term in the
    exercise value 1 - sum_i a_i x_i e^{.} (a_N carries the final 1), and the
    total stdevs w_i of the x_i over [0, T_0] at the lower and at the upper
    extreme (one array twice for a degenerate band), from
    VolStructure.extreme_variances.  A total variance that is not finite
    raises DomainError here, before any pricing arithmetic reads it.
    """
    s = contract.schedule
    t0 = s.start
    xs = np.array([curve.forward_price(t0, t) for t in s.dates[1:]])
    coefs = np.array(s.accruals) * contract.strike_rate
    coefs[-1] += 1.0
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


def _swaption_value_mc(vs, sigma, schedule, xs, coefs, ws, z: np.ndarray) -> tuple[float, float]:
    """Monte Carlo on the joint lognormal terminal vector (mean, standard error)
    at the scaling sigma, from _swaption_inputs' xs, coefs and ws at sigma and
    standard normals z, one column per factor for separable factors and one
    per forward price otherwise; z is left unchanged.

    Separable factors (Ho-Lee, Hull-White) admit an exact one-normal-per-
    factor representation; otherwise the exact per-pair covariance matrix is
    factorized and the joint Gaussian drawn from it.

    The terminal vectors are built one path block at a time (mc.path_blocks)
    in one reused (block, n) buffer, and each block's payoffs go to its rows
    of one (paths,) vector that mean_and_se reads whole.  Every path takes
    the same operations in the same order as in one (paths, n) array, and
    the blocks start where BLAS groups the rows anyway, so every bit is the
    same as unblocked.
    """
    t0 = schedule.start
    n = len(xs)
    sig = np.atleast_1d(np.asarray(sigma, dtype=float))
    if vs.is_separable():
        # log X^i = -sum_j load[j, i] Z_j - w_i^2/2 with one Z per factor.
        # Separability makes within-factor correlation exactly 1; signs are
        # all positive because T_i > T_0.
        window, ends = np.array([0.0, t0]), np.array(schedule.dates[1:])
        mix = np.array([np.sqrt(np.maximum(sig[j] ** 2 * f.fp_var_steps(window, (t0, ends)), 0.0))
                        for j, f in enumerate(vs.factors)])
    else:
        cov = np.zeros((n, n))
        pairs = [(t0, t) for t in schedule.dates[1:]]
        for a in range(n):
            for b in range(a, n):
                cov[a, b] = cov[b, a] = vs.integrated_covariance(
                    sigma, 0.0, t0, pairs[a], pairs[b]
                )
        # Symmetric PSD factorization tolerant of rank deficiency.
        evals, evecs = np.linalg.eigh(cov)
        mix = (evecs @ np.diag(np.sqrt(np.maximum(evals, 0.0)))).T
    half_var = 0.5 * ws**2
    width, blocks = path_blocks(z.shape[0])
    buf = np.empty((width, n))
    payoff = np.empty(z.shape[0])
    for rows in blocks:
        # terminal = xs * exp(-(z @ mix) - w^2/2) for this block's paths.
        terminal = buf[:rows.stop - rows.start]
        np.matmul(z[rows], mix, out=terminal)
        np.negative(terminal, out=terminal)
        terminal -= half_var
        np.exp(terminal, out=terminal)
        terminal *= xs
        np.matmul(terminal, coefs, out=payoff[rows])
    np.subtract(1.0, payoff, out=payoff)
    np.maximum(payoff, 0.0, out=payoff)
    return mean_and_se(payoff)


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
        mc = mc or MCConfig()
        xs, coefs, ws_lower, ws_upper = _swaption_inputs(curve, vs, band, contract)
        # Both extremes read the same draws, so they are drawn once.
        n_cols = vs.dim if vs.is_separable() else contract.schedule.periods
        z = normals(mc.seed, mc.paths, n_cols, mc.antithetic)
        schedule = contract.schedule
        lo_mean, lo_se = _swaption_value_mc(vs, band.lower, schedule, xs, coefs, ws_lower, z)
        if band.is_degenerate:  # one belief: both bounds are the same estimate
            hi_mean, hi_se = lo_mean, lo_se
        else:
            hi_mean, hi_se = _swaption_value_mc(vs, band.upper, schedule, xs, coefs, ws_upper, z)
        lower, upper = p0 * lo_mean, p0 * hi_mean
        diag.update(
            paths=mc.paths,
            seed=mc.seed,
            antithetic=mc.antithetic,
            se_lower=p0 * lo_se,
            se_upper=p0 * hi_se,
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
