"""Independent numerical ground truth for the closed forms and PDE solves.

Three tools, all deliberately distinct from the engines they police:

  * lattice_price -- a recombining trinomial tree on the log forward price
    whose backward step takes, at every node, the better of the two
    transition kernels built from the band extremes.  Probabilities match
    the exact multiplicative mean (martingale preservation to round-off)
    and lognormal second moment per step, so the tree converges to the same
    nonlinear PDE value the engine computes.  Only nodes within +-12 sigma
    of the root are stepped back (Hull & White 1994); the walk leaves that
    window with probability below about e^-50 at 2000 steps.  Each backward
    step is one BLAS product, the step's (2, 3) kernel matrix (rows the band
    extremes, columns p_down, p_mid, p_up) times the (3, n) child values,
    then the nodewise max.

  * scenario_sup -- Monte Carlo prices under a finite family of admissible
    deterministic volatility scenarios (constant or switching at given
    dates).  Every scenario's linear price is a lower estimate of the upper
    bound, so the family maximum must sit below the engine's upper bound up
    to sampling error.  Every contract but the swaption samples the legs
    option_pricing.as_stream lowers it to.  The family samples through mc's
    one sampler (mc._member_moves, mc._block_moments), as the Monte Carlo
    swaption does: the members share their draws (common random numbers, one
    draw per sampling block) and price them one path block at a time, each
    member one (pairs, block) product, a row per forward price, folded into
    the member's running mean and sum of squared deviations, so memory is
    one draw and one block buffer whatever the family size.  A swaption on
    a non-separable (tabulated) structure draws its forward prices' exact
    joint law, not a comonotone one.  A one-pair block (a leg) is a gemv,
    a swaption's several rows a gemm.

  * expectations_hypothesis_check -- simulates the terminal short rate under
    the forward-measure dynamics (drift removed) and compares its sample
    mean against today's forward rate.

The BLAS products and np.exp decide the last bits of the lattice and Monte
Carlo values, as the mc module docstring's Bits paragraph says.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curve import DiscountCurve
from .errors import DomainError, StabilityError, UnsupportedMethodError
from .mc import (MCConfig, _block_moments, _member_moves, _se_of_mean, child_seed, mean_and_se,
                 normals)
from .option_pricing import OptionContract, as_stream, exercise_coefficients
from .stream import ConstantLeg, FloatingLinearLeg
from .uncertainty import UncertaintyBand
from .vol_structure import VolStructure

LATTICE_STRETCH = 1.2
LATTICE_WINDOW_SIGMAS = 12.0
MIN_LATTICE_STEPS = 10
MAX_FAMILY = 256  # largest piecewise scenario family


# -- trinomial lattice ---------------------------------------------------------


def _branch_probabilities(v, h: float):
    """(p_up, p_mid, p_down) for a +h/0/-h move of log X over a step of
    variance v, matching the exact lognormal relative moments E[X'/X] = 1
    and E[(X'/X)^2] = e^v.  Elementwise on an array v; exp(v) is math.exp
    of each element, so every element has the scalar call's bits."""
    a = math.exp(h)
    p_d = (np.vectorize(math.exp, otypes=[float])(v) - 1.0) * a * a / ((a - 1.0) ** 2 * (a + 1.0))
    p_u = p_d / a
    return p_u, 1.0 - p_u - p_d, p_d


def _payoff_values(payoff, x: np.ndarray) -> np.ndarray:
    """payoff(x) copied (the lattice overwrites it), one finite float per node of x."""
    values = np.array(payoff(x), dtype=float)
    if values.shape != x.shape or not np.isfinite(values).all():
        raise DomainError(f"the payoff must give one finite value per lattice node, shape "
                          f"{x.shape}; got shape {values.shape}, {np.sum(~np.isfinite(values))} "
                          f"not finite")
    return values


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
    time-dependent factor vols.  A payoff must give one finite value per
    node, else DomainError.

    Every step updates the nodes |j| <= J = ceil(12 sigma / h) (|j| < steps
    if J >= steps), sigma^2 being the upper extreme's total variance; nodes
    +-(J + 1) keep their payoff values (Hull & White 1994).  By Freedman's
    martingale inequality the walk leaves +-J, under any kernels, with
    probability below 2 exp(-72 / (1 + 12 h / sigma)), about e^-52 at 2000
    steps, so the root moves by at most that times the payoff's range.  At
    step k the root reads only the nodes |j| <= k, so the other nodes
    updated there cannot reach it.

    Each step copies the three child rows (down, mid, up) into one
    contiguous (3, n) buffer, multiplies it by that step's (2, 3) kernel
    matrix, rows (v_dn, v_up), and keeps the nodewise max of the two rows.
    The product's order of summation (Bits, in the mc module docstring)
    moves a value from the elementwise sum p_up u + p_mid m + p_down d by
    rounding only (each tested lattice is within steps * 2^-52 *
    max|payoff| of it); the node prices come from np.exp.
    """
    if vs.dim != 1 or band.dim != 1:
        raise UnsupportedMethodError(f"lattice supports one factor only, got d={vs.dim}")
    if not isinstance(steps, (int, np.integer)) or steps < MIN_LATTICE_STEPS:
        raise DomainError(f"lattice needs an integer number of steps, at least "
                          f"{MIN_LATTICE_STEPS}, got {steps!r}")
    if not (math.isfinite(t1) and 0.0 <= t1 <= min(T, T_i)):
        raise DomainError(f"expiry t1={t1} must be finite, nonnegative and at most "
                          f"min(T, T_i)=({T}, {T_i})")

    x0 = curve.forward_price(T, T_i)
    v_dn, v_up = vs.extreme_variances(band.lower, band.upper, np.linspace(0.0, t1, steps + 1), T, T_i)
    v_max = float(np.max(v_up))
    if v_max <= 0.0:
        return float(_payoff_values(payoff, np.array([x0]))[0])
    h = LATTICE_STRETCH * math.sqrt(v_max)
    total = float(np.sum(v_up))

    # kernel[k]: rows (v_dn, v_up), columns (p_down, p_mid, p_up) of step k
    kernel = np.stack(_branch_probabilities(np.stack((v_dn, v_up), axis=1), h)[::-1], axis=2)
    bad = ((kernel < 0.0) | (kernel > 1.0)).any(axis=(1, 2))
    if bad.any():
        suggested = max(MIN_LATTICE_STEPS, math.ceil(total / 0.04))
        raise StabilityError(f"branch probabilities out of [0, 1] at step {int(np.argmax(bad))}; "
                             f"use at least {suggested} steps")

    # values[i] is node i - outer; every step updates nodes -(outer - 1)..outer - 1.
    outer = min(math.ceil(LATTICE_WINDOW_SIGMAS * math.sqrt(total) / h) + 1, steps)
    values = _payoff_values(payoff, x0 * np.exp(h * np.arange(-outer, outer + 1)))
    children, child_m = sliding_window_view(values, 3).T, values[1:-1]  # rows d, m, u
    stacked, cand = np.empty((3, 2 * outer - 1)), np.empty((2, 2 * outer - 1))
    for step_kernel in kernel[::-1]:
        np.copyto(stacked, children)  # contiguous, so matmul stays in BLAS
        np.matmul(step_kernel, stacked, out=cand)
        np.maximum(cand[0], cand[1], out=child_m)
    return float(values[outer])


# -- scenario Monte Carlo --------------------------------------------------------


@dataclass(frozen=True)
class ConstantControls:
    """k constant scenarios per factor along the band diagonal."""

    k: int = 3

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise DomainError(f"need an integer count of at least one control, got k={self.k!r}")


@dataclass(frozen=True)
class PiecewiseControls:
    """All combinations of k diagonal levels over the segments cut by the
    distinct switch dates (family size k^(segments), at most MAX_FAMILY)."""

    k: int = 2
    switch_dates: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise DomainError(f"need an integer count of at least one level, got k={self.k!r}")
        dates = tuple(sorted({float(d) for d in self.switch_dates}))  # a repeat cuts no segment
        if not all(0.0 < d < math.inf for d in dates):
            raise DomainError(f"switch dates must be finite and positive, got {self.switch_dates}")
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
        if controls.k ** nseg > MAX_FAMILY:
            raise DomainError(
                f"piecewise family size {controls.k}^{nseg} exceeds MAX_FAMILY = {MAX_FAMILY}"
            )
        fam, labels = [], []
        idx = np.indices([controls.k] * nseg).reshape(nseg, -1).T
        for combo in idx:
            fam.append([(cuts[s], cuts[s + 1], levels[combo[s]]) for s in range(nseg)])
            labels.append("piecewise" + str(tuple(int(c) for c in combo)))
        return fam, labels
    raise DomainError(f"unknown control family {controls!r}")


@dataclass(frozen=True)
class ScenarioResult:
    """Family maximum with the standard error of the maximizing scenario."""

    value: float
    se: float
    control: str
    table: tuple[tuple[str, float, float], ...] = field(default=())


def _sampling_blocks(curve, contract, seed: int) -> tuple[list, float]:
    """The contract's sampling blocks and the deterministic part of its price.

    A block is (key, t_end, pairs, payoff): the forward prices with maturity
    pairs are simulated to t_end from the normals keyed by key, and
    payoff(x) returns the block's (paths,) prices for their (len(pairs),
    paths) array x, a row per pair, overwriting x as it likes and
    allocating at most one (paths,) vector.  A swaption is one block keyed
    seed, its payoff reading coefs @ x.  Every other contract prices as its
    stream of legs (option_pricing.as_stream), period i keyed
    child_seed(seed, i), a leg's payoff reading x[0]: a
    constant leg is deterministic, a floating-linear leg samples
    P(T_{i-1})/P(T_i) under the T_i-forward measure and an option leg
    P(T_i)/P(T_{i-1}) under the T_{i-1}-forward measure.  Each payoff makes
    the operations of its plain formula in the same order.
    """
    s = contract.schedule
    if isinstance(contract, OptionContract) and contract.kind == "swaption-payer":
        t0 = s.start
        coefs = exercise_coefficients(s, contract.strike_rate)
        bond = curve.bond_price(t0)

        def swaption(x):  # bond * max(1 - coefs @ x, 0)
            v = coefs @ x
            return np.multiply(np.maximum(np.subtract(1.0, v, out=v), 0.0, out=v), bond, out=v)

        return [(seed, t0, [(t0, t) for t in s.dates[1:]], swaption)], 0.0
    blocks, fixed = [], 0.0
    for i, leg in enumerate(as_stream(contract).legs):
        t_reset, t_pay = s.dates[i], s.dates[i + 1]
        if isinstance(leg, ConstantLeg):
            fixed += leg.amount * curve.bond_price(t_pay)
            continue
        if isinstance(leg, FloatingLinearLeg):  # b * (g * (x - 1) + c)
            b, g = curve.bond_price(t_pay), leg.slope / (t_pay - t_reset)
            pair, payoff = (t_pay, t_reset), lambda x, b=b, g=g, c=leg.intercept: np.multiply(
                np.add(np.multiply(np.subtract(x, 1.0, out=x), g, out=x), c, out=x), b, out=x)
        else:  # b * leg(x)
            b = curve.bond_price(t_reset)
            pair, payoff = (t_reset, t_pay), lambda x, b=b, leg=leg: np.multiply(leg(x), b, out=x)
        blocks.append((child_seed(seed, i), t_reset, [pair], lambda x, f=payoff: f(x[0])))
    return blocks, fixed


def scenario_sup(
    curve: DiscountCurve,
    vs: VolStructure,
    band: UncertaintyBand,
    contract,
    controls: ConstantControls | PiecewiseControls = ConstantControls(3),
    mc: MCConfig | None = None,
) -> ScenarioResult:
    """Maximum linear Monte Carlo price over the admissible scenario family:
    a lower estimate of the engine's upper bound (up to sampling error).

    Every member prices on the same draws (common random numbers: every
    scenario lives on one Wiener space).  Each sampling block is drawn once,
    keyed child_seed(mc.seed, i) for period i and mc.seed for a swaption's
    single block, and every member prices from that draw.  Sampling blocks
    run outermost and only one block's draw is held at a time.  Within it,
    each member fills one reused (pairs, block) buffer per path block
    (mc.path_blocks) with one product of its (pairs, columns) loadings
    (mc._member_moves) and the block's (columns, block) draws, and folds the
    payoff's (block,) prices into its mean and M2, the sum of squared
    deviations (mc._block_moments: the pairwise update of Chan, Golub &
    LeVeque).  The sampling blocks' keys are independent, so a member's
    mean is the sum of its blocks' means and its se sqrt(sum M2 / (n - 1) /
    n) over the n = mc.paths paths.  Memory is one draw (8 bytes per path
    and column: a column per segment and factor, or per segment and forward
    price for a swaption on a non-separable structure), the (pairs, block)
    buffer and the payoff's own (one block vector for the swaption and the
    caplet, floorlet and in-arrears legs), whatever the number of members
    or periods; nothing of path size is held per member.  The reported se
    is the maximizing member's own.
    """
    band.check_factors(vs)
    mc = mc or MCConfig()
    family, labels = _control_family(band, controls, contract.schedule.end)
    if not family:
        raise DomainError("empty control family")
    blocks, fixed = _sampling_blocks(curve, contract, mc.seed)
    totals = np.zeros((len(family), 2))  # each member's summed (mean, M2)
    for key, t_end, pairs, payoff in blocks:
        totals += _block_moments(key, mc.paths, mc.antithetic,
                                 _member_moves(vs, family, t_end, pairs),
                                 np.array([[curve.forward_price(*p)] for p in pairs]), payoff)
    table = tuple((label, contract.notional * (mean + fixed),
                   abs(contract.notional) * _se_of_mean(m2, mc.paths))
                  for label, (mean, m2) in zip(labels, totals.tolist()))
    label, value, se = max(table, key=lambda row: row[1])  # the first maximizing member
    return ScenarioResult(value=value, se=se, control=label, table=table)


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
    the check vacuous, so the default here is plain sampling.  When
    antithetics are requested anyway, the mean and standard error are those
    of the pair means of the first 2 * (paths // 2) draws; an odd trailing
    draw has no pair and is dropped.
    """
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise DomainError(f"need an integer number of at least one time step, "
                          f"got n_steps={n_steps!r}")
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
    terminal = f0 + sds @ z
    if mc.antithetic:
        half = mc.paths // 2
        terminal = 0.5 * (terminal[:half] + terminal[half:2 * half])
    mean, se = mean_and_se(terminal)
    return ExpectationsCheck(simulated_mean=mean, forward_rate=f0, gap=abs(mean - f0), se=se)
