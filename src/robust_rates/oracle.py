"""Independent numerical ground truth for the closed forms and PDE solves.

Three tools, all deliberately distinct from the engines they police:

  * lattice_price -- a recombining trinomial tree on the log forward price
    whose backward step takes, at every node, the better of the two
    transition kernels built from the band extremes.  Probabilities match
    the exact multiplicative mean (martingale preservation to round-off)
    and lognormal second moment per step, so the tree converges to the same
    nonlinear PDE value the engine computes.

  * scenario_sup -- Monte Carlo prices under a finite family of admissible
    deterministic volatility scenarios (constant or switching at given
    dates).  Every scenario's linear price is a lower estimate of the upper
    bound, so the family maximum must sit below the engine's upper bound up
    to sampling error.

  * expectations_hypothesis_check -- simulates the terminal short rate under
    the forward-measure dynamics (drift removed) and compares its sample
    mean against today's forward rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .curve import DiscountCurve
from .errors import DomainError, StabilityError, UnsupportedMethodError
from .linear_pricing import LinearContract
from .mc import MCConfig, child_seed, mean_and_se, normals
from .option_pricing import OptionContract
from .pde import step_variances
from .stream import CashflowStream, ConstantLeg, FloatingLinearLeg, transformed_strike
from .uncertainty import UncertaintyBand
from .vol_structure import VolStructure

LATTICE_STRETCH = 1.2
MIN_LATTICE_STEPS = 10


# -- trinomial lattice ---------------------------------------------------------


def _branch_probabilities(v: float, h: float) -> tuple[float, float, float]:
    """(p_up, p_mid, p_down) for a +h/0/-h move of log X matching the exact
    lognormal relative moments E[X'/X] = 1 and E[(X'/X)^2] = e^v."""
    a = math.exp(h)
    p_d = (math.exp(v) - 1.0) * a * a / ((a - 1.0) ** 2 * (a + 1.0))
    p_u = p_d / a
    p_m = 1.0 - p_u - p_d
    return p_u, p_m, p_d


def lattice_price(
    curve: DiscountCurve,
    vs: VolStructure,
    band: UncertaintyBand,
    T: float,
    t1: float,
    T_i: float,
    payoff: Callable[[np.ndarray], np.ndarray],
    steps: int,
) -> float:
    """Upper expectation of payoff(X_{t1}) for X = P(T_i)/P(T) on a trinomial
    lattice; the lower expectation is -lattice_price(..., -payoff, ...).

    One-factor structures only.  The node spacing is pinned to the band's
    upper extreme with stretch 1.2; per-step local variances handle
    time-dependent factor vols.
    """
    if vs.dim != 1 or band.dim != 1:
        raise UnsupportedMethodError(
            f"lattice supports one-factor structures only, got d={vs.dim}"
        )
    if steps < MIN_LATTICE_STEPS:
        raise DomainError(f"lattice needs at least {MIN_LATTICE_STEPS} steps, got {steps}")
    if t1 > min(T, T_i):
        raise DomainError(f"expiry t1={t1} must not exceed min(T, T_i)=({T}, {T_i})")

    x0 = curve.forward_price(T, T_i)
    v_up, v_dn = step_variances(vs, band, np.linspace(0.0, t1, steps + 1), T, T_i)
    v_max = float(np.max(v_up))
    if v_max <= 0.0:
        return float(np.asarray(payoff(np.array([x0])), dtype=float)[0])
    h = LATTICE_STRETCH * math.sqrt(v_max)

    probs = []  # per step: the (p_up, p_mid, p_down) of the lower, then the upper extreme
    for k in range(steps):
        probs.append((_branch_probabilities(v_dn[k], h), _branch_probabilities(v_up[k], h)))
        for p in probs[k]:
            if min(p) < 0.0 or max(p) > 1.0:
                total = float(np.sum(v_up))
                suggested = max(MIN_LATTICE_STEPS, math.ceil(total / 0.04))
                raise StabilityError(
                    f"branch probabilities out of [0, 1] at step {k}; "
                    f"use at least {suggested} steps"
                )

    # The backward loop overwrites values in place, so it starts from a copy:
    # the payoff may return an array it keeps.
    nodes = np.arange(-steps, steps + 1)
    values = np.array(payoff(x0 * np.exp(h * nodes)), dtype=float)
    cands = (np.empty_like(values), np.empty_like(values))
    term = np.empty_like(values)
    for k in range(steps - 1, -1, -1):
        n = 2 * k + 1
        child_d, child_m, child_u, t = values[:n], values[1:n + 1], values[2:n + 2], term[:n]
        for (pu, pm, pd), cand in zip(probs[k], cands):
            # cand = pu * child_u + pm * child_m + pd * child_d, summed left to right
            cand = cand[:n]
            np.multiply(child_u, pu, out=cand)
            np.multiply(child_m, pm, out=t)
            cand += t
            np.multiply(child_d, pd, out=t)
            cand += t
        np.maximum(cands[0][:n], cands[1][:n], out=values[:n])
    return float(values[0])


# -- scenario Monte Carlo --------------------------------------------------------


@dataclass(frozen=True)
class ConstantControls:
    """k constant scenarios per factor along the band diagonal."""

    k: int = 3

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"need at least one control, got k={self.k}")


@dataclass(frozen=True)
class PiecewiseControls:
    """All combinations of k diagonal levels over the segments cut by the
    switch dates (family size k^(segments), capped)."""

    k: int = 2
    switch_dates: tuple[float, ...] = ()
    max_family: int = 256

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"need at least one level, got k={self.k}")
        dates = tuple(sorted(float(d) for d in self.switch_dates))
        if any(d <= 0 for d in dates):
            raise DomainError("switch dates must be positive")
        object.__setattr__(self, "switch_dates", dates)


def _diagonal_levels(band: UncertaintyBand, k: int) -> list[tuple[float, ...]]:
    if k == 1:
        return [band.midpoint()]
    lams = np.linspace(0.0, 1.0, k)
    return [
        tuple(lo + lam * (hi - lo) for lo, hi in zip(band.lower, band.upper))
        for lam in lams
    ]


def _control_family(band, controls, horizon: float):
    """List of scenarios; each is a list of (t_lo, t_hi, scale) segments."""
    if isinstance(controls, ConstantControls):
        return [
            [(0.0, horizon, lvl)] for lvl in _diagonal_levels(band, controls.k)
        ], ["constant"] * controls.k
    if isinstance(controls, PiecewiseControls):
        cuts = [0.0] + [d for d in controls.switch_dates if d < horizon] + [horizon]
        nseg = len(cuts) - 1
        levels = _diagonal_levels(band, controls.k)
        if controls.k ** nseg > controls.max_family:
            raise DomainError(
                f"piecewise family size {controls.k}^{nseg} exceeds cap {controls.max_family}"
            )
        fam, labels = [], []
        idx = np.indices([controls.k] * nseg).reshape(nseg, -1).T
        for combo in idx:
            fam.append([(cuts[s], cuts[s + 1], levels[combo[s]]) for s in range(nseg)])
            labels.append("piecewise" + str(tuple(int(c) for c in combo)))
        return fam, labels
    raise DomainError(f"unknown control family {controls!r}")


def _segment_stdevs(vs, segments, t_end: float, pair) -> np.ndarray:
    """Per-(segment, factor) stdevs of log X over [0, t_end] for a forward
    price with maturity pair, under a piecewise-constant scaling."""
    out = []
    for lo, hi, scale in segments:
        lo_c, hi_c = max(lo, 0.0), min(hi, t_end)
        if hi_c <= lo_c:
            out.append(np.zeros(vs.dim))
            continue
        sds = [
            abs(scale[j])
            * math.sqrt(
                max(vs.factors[j].fp_cov_integral(lo_c, hi_c, pair, pair), 0.0)
            )
            for j in range(vs.dim)
        ]
        out.append(np.array(sds))
    return np.array(out)  # (n_segments, d)


def _terminal_forward_prices(vs, segments, t_end, pairs, x0s, z) -> np.ndarray:
    """(paths, len(pairs)) terminal forward prices sharing the per-segment
    driver draws z of shape (paths, n_segments, d): comonotone within each
    factor, exact marginals for every pair."""
    n_paths = z.shape[0]
    z_flat = z.reshape(n_paths, -1)
    out = np.empty((n_paths, len(pairs)))
    for a, (pair, x0) in enumerate(zip(pairs, x0s)):
        sds = _segment_stdevs(vs, segments, t_end, pair)  # (nseg, d)
        # The one dot product np.tensordot(z, sds, axes=([1, 2], [0, 1])) makes.
        log_move = np.dot(z_flat, sds.reshape(-1, 1))[:, 0]
        log_move -= 0.5 * float(np.sum(sds**2))
        np.exp(log_move, out=log_move)
        np.multiply(log_move, x0, out=out[:, a])
    return out


@dataclass(frozen=True)
class ScenarioResult:
    """Family maximum with the standard error of the maximizing scenario."""

    value: float
    se: float
    control: str
    table: tuple[tuple[str, float, float], ...] = field(default=())


def _scenario_price(curve, vs, segments, contract, mc: MCConfig, seed: int) -> tuple[float, float]:
    """Linear Monte Carlo price of one contract under one scenario."""
    def forwards(t_end, pairs, key):
        """(paths, len(pairs)) forward prices at t_end from the draws keyed by key."""
        nseg = len(segments)
        z = normals(key, mc.paths, nseg * vs.dim, mc.antithetic).reshape(mc.paths, nseg, vs.dim)
        x0s = [curve.forward_price(*p) for p in pairs]
        return _terminal_forward_prices(vs, segments, t_end, pairs, x0s, z)

    def period(i, pair):
        return forwards(contract.schedule.dates[i], [pair], child_seed(seed, i))[:, 0]

    if isinstance(contract, OptionContract):
        s = contract.schedule
        if contract.kind == "swaption-payer":
            t0 = s.start
            x = forwards(t0, [(t0, t) for t in s.dates[1:]], seed)
            coefs = np.array(s.accruals) * contract.strike_rate
            coefs[-1] += 1.0
            samples = curve.bond_price(t0) * np.maximum(1.0 - x @ coefs, 0.0)
        else:
            per = []
            for i in range(s.periods):
                t_reset, t_pay = s.dates[i], s.dates[i + 1]
                ki = transformed_strike(t_pay - t_reset, contract.strike_rate)
                if contract.kind == "in-arrears-payer-swap":
                    x = period(i, (t_pay, t_reset))  # reversed: the T_i-forward measure
                    per.append(curve.bond_price(t_pay) * x * (x - 1.0 / ki))
                    continue
                x = period(i, (t_reset, t_pay))
                raw = np.maximum(ki - x, 0.0) if contract.kind == "cap" else np.maximum(x - ki, 0.0)
                per.append(curve.bond_price(t_reset) / ki * raw)
            samples = np.sum(per, axis=0)
        mean, se = mean_and_se(samples)
        return contract.notional * mean, abs(contract.notional) * se

    if isinstance(contract, LinearContract):
        s = contract.schedule
        samples = np.zeros(mc.paths)
        principal = 0.0
        for i in range(s.periods):
            t_reset, t_pay = s.dates[i], s.dates[i + 1]
            delta = t_pay - t_reset
            if contract.kind == "fixed-coupon-bond":  # deterministic cashflows
                principal += curve.bond_price(t_pay) * delta * contract.fixed_rate
                continue
            float_leg = curve.bond_price(t_pay) * (period(i, (t_pay, t_reset)) - 1.0)  # delta * L
            if contract.kind == "floating-rate-note":
                samples += float_leg
            else:  # payer-swap
                samples += float_leg - curve.bond_price(t_pay) * delta * contract.fixed_rate
        if contract.kind in ("floating-rate-note", "fixed-coupon-bond"):
            principal += curve.bond_price(s.end)
        mean, se = mean_and_se(samples)
        return contract.notional * (mean + principal), abs(contract.notional) * se

    if isinstance(contract, CashflowStream):
        s = contract.schedule
        samples = np.zeros(mc.paths)
        fixed = 0.0
        for i, leg in enumerate(contract.legs):
            t_reset, t_pay = s.dates[i], s.dates[i + 1]
            if isinstance(leg, ConstantLeg):
                fixed += leg.amount * curve.bond_price(t_pay)
            elif isinstance(leg, FloatingLinearLeg):
                x = period(i, (t_pay, t_reset))
                samples += curve.bond_price(t_pay) * (
                    leg.slope / (t_pay - t_reset) * (x - 1.0) + leg.intercept
                )
            else:
                samples += curve.bond_price(t_reset) * leg(period(i, (t_reset, t_pay)))
        mean, se = mean_and_se(samples)
        return contract.notional * (mean + fixed), abs(contract.notional) * se

    raise DomainError(f"scenario pricing does not understand {type(contract).__name__}")


def scenario_sup(
    curve: DiscountCurve,
    vs: VolStructure,
    band: UncertaintyBand,
    contract,
    controls: ConstantControls | PiecewiseControls = ConstantControls(3),
    mc: MCConfig | None = None,
) -> ScenarioResult:
    """Maximum linear Monte Carlo price over the admissible scenario family:
    a lower estimate of the engine's upper bound (up to sampling error)."""
    mc = mc or MCConfig()
    horizon = contract.schedule.end
    family, labels = _control_family(band, controls, horizon)
    if not family:
        raise DomainError("empty control family")
    table = []
    best: tuple[float, float, str] | None = None
    for idx, (segments, label) in enumerate(zip(family, labels)):
        value, se = _scenario_price(curve, vs, segments, contract, mc, child_seed(mc.seed, idx))
        table.append((label, value, se))
        if best is None or value > best[0]:
            best = (value, se, label)
    return ScenarioResult(value=best[0], se=best[1], control=best[2], table=tuple(table))


# -- robust expectations hypothesis ------------------------------------------------


@dataclass(frozen=True)
class ExpectationsCheck:
    simulated_mean: float
    forward_rate: float
    gap: float
    se: float


def expectations_hypothesis_check(
    curve: DiscountCurve,
    vs: VolStructure,
    sigma,
    T: float,
    mc: MCConfig | None = None,
    n_steps: int = 16,
) -> ExpectationsCheck:
    """Simulate r_T = f_T(T) under the T-forward dynamics (driftless forward
    rate) at a constant scaling sigma and report |sample mean - f_0(T)|.

    Antithetic draws cancel a linear Gaussian statistic exactly, which makes
    the check vacuous, so the default here is plain sampling; the standard
    error respects pairing when antithetics are requested anyway.
    """
    mc = mc or MCConfig(antithetic=False)
    f0 = curve.forward_rate(T)
    ts = np.linspace(0.0, T, n_steps + 1)
    sds = np.array(
        [
            math.sqrt(max(vs.short_rate_var_integral(sigma, ts[k], ts[k + 1], T), 0.0))
            for k in range(n_steps)
        ]
    )
    z = normals(mc.seed, mc.paths, n_steps, mc.antithetic)
    terminal = f0 + z @ sds
    if mc.antithetic and mc.paths % 2 == 0:
        half = mc.paths // 2
        terminal = 0.5 * (terminal[:half] + terminal[half:])
    mean, se = mean_and_se(terminal)
    return ExpectationsCheck(simulated_mean=mean, forward_rate=f0, gap=abs(mean - f0), se=se)
