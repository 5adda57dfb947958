"""Finite-difference solver for single options on one forward bond price.

The value u(t, x) of the upper expectation of phi(X_{t1}) solves the
uncertain-volatility PDE

    du/dt + 1/2 x^2 [ a_up(t) (u_xx)^+  -  a_dn(t) (u_xx)^- ] = 0,
    u(t1, x) = phi(x),

where a_up(t) = sum_j upper_j^2 s_j(t)^2 and a_dn(t) uses the lower band,
with s_j(t) the forward-price vol of X = P(T_i)/P(T) on factor j.  The
diffusion coefficient switches between the band extremes on the sign of the
second derivative, which is the scalar form of the band's generator.  The
fully implicit discretization with Howard policy iteration is monotone, the
standard sufficient condition for convergence to the unique viscosity
solution.  Each solve is a direct LAPACK ?gtsv call, the routine
``scipy.linalg.solve_banded`` uses for (1, 1) bands, so the results are
those of that call without its per-call argument handling.  The routine is
looked up through ``scipy.linalg`` on the first solve, not at import, so
importing the package and pricing closed-form contracts loads no scipy
module.

``window_values`` is the one 1D core and the one place that picks a sweep:
it cell-averages each terminal payoff and reads the step-variance tables of
its window [t_from, t_to] (``window_tables``, one exact array pass for
every factor kind).  Rows whose band extremes coincide at every step
(fixed volatility) all go through ``_stacked_sweep``, one block-diagonal
solve a step, so a stacked row equals its own sweep to the last bit; the
stream pricer sends both band extremes of its PDE-priced convex or concave
legs through one such stack.  Any other problem is one band row, which
``_implicit_sweep`` solves by policy iteration at every step; it builds the
systems of up to 32 steps at once at both band extremes
(``_coefficient_tables``), so an iteration is one ``np.where``, a copy of
the previous level, two scalar boundary adds and one ?gtsv solve in place.
Both sweeps check input once where it enters.  ``solve_single_option``
prices one option; the lower expectation (``solve_lower``) is the negated
solve of -phi on the same grid and tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg raises

from .curve import DiscountCurve
from .errors import ConvergenceError, DomainError
from .uncertainty import UncertaintyBand
from .vol_structure import VolStructure

POLICY_ITERATION_CAP = 50
POLICY_VALUE_TOL = 1e-12

# Gauss-Legendre 5 on [-1, 1]: used to average the terminal payoff over each
# grid cell, which removes the strike-placement noise of pointwise sampling.
_GL5_NODES = np.array([-0.9061798459386640, -0.5384693101056831, 0.0,
                       0.5384693101056831, 0.9061798459386640])
_GL5_WEIGHTS = np.array([0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
                         0.4786286704993665, 0.2369268850561891])


@cache
def _gtsv():
    """The float64 LAPACK ?gtsv, looked up on the first solve.  Threads
    racing here both import scipy.linalg under the import lock and get the
    same routine."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("gtsv",), (np.empty(0),))[0]


def check_resolution(nx: int, nt: int) -> None:
    """Smallest usable grid: three space nodes and one time step."""
    if nx < 3:
        raise DomainError(f"nx must be at least 3, got {nx}")
    if nt < 1:
        raise DomainError(f"nt must be at least 1, got {nt}")


@dataclass(frozen=True)
class PDEGrid:
    """Spatial/temporal resolution of one solve."""

    x_min: float
    x_max: float
    nx: int
    nt: int

    def __post_init__(self) -> None:
        if not self.x_min > 0.0:
            raise DomainError(f"x_min must be positive, got {self.x_min}")
        if not self.x_max > self.x_min:
            raise DomainError(f"need x_max > x_min, got [{self.x_min}, {self.x_max}]")
        check_resolution(self.nx, self.nt)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)


def default_grid(
    x0: float,
    v_total: float,
    nx: int = 400,
    nt: int = 400,
) -> PDEGrid:
    """Six-standard-deviation truncation around the spot forward price:
    x in [x0 e^{-6v}, x0 e^{6v}] bounds the truncation error far below the
    grid error."""
    v = max(v_total, 1e-6)
    return PDEGrid(
        x_min=x0 * math.exp(-6.0 * v),
        x_max=x0 * math.exp(6.0 * v),
        nx=nx,
        nt=nt,
    )


@dataclass(frozen=True)
class PDESolution:
    """Value at the spot forward price plus the full t=0 grid slice."""

    value: float
    x0: float
    cash_price: float
    xs: np.ndarray
    u0: np.ndarray


def cell_average(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray, dx: float) -> np.ndarray:
    """f on the grid xs, its interior values replaced by their Gauss-Legendre
    averages over the cells [x - dx/2, x + dx/2]."""
    u = np.array(f(xs), dtype=float)
    if len(xs) < 3:
        return u
    interior = xs[1:-1]
    acc = np.zeros_like(interior)
    for node, weight in zip(_GL5_NODES, _GL5_WEIGHTS):
        acc += weight * f(interior + 0.5 * dx * node)
    u[1:-1] = 0.5 * acc
    return u


def step_variances(
    vs: VolStructure, band: UncertaintyBand, ts: np.ndarray, T: float, T_i: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integrated variances of X = P(T_i)/P(T) over each step [ts[k], ts[k+1]]
    at the band extremes (exact in time), as (upper, lower), from
    ``VolStructure.extreme_variances`` (one exact array pass for every
    factor kind).

    A degenerate band has one extreme, so both tables are the same array:
    callers only read them."""
    a_dn, a_up = vs.extreme_variances(band.lower, band.upper, ts, T, T_i)
    return a_up, a_dn


def window_tables(
    vs: VolStructure,
    band: UncertaintyBand,
    pair: tuple[float, float],
    t_from: float,
    t_to: float,
    nt: int,
) -> tuple[np.ndarray, np.ndarray]:
    """step_variances of X = P(pair[1])/P(pair[0]) over nt equal steps of
    [t_from, t_to]: the tables a sweep over that window reads."""
    return step_variances(vs, band, np.linspace(t_from, t_to, nt + 1), *pair)


def solve_banded(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and superdiagonals
    (dl, d, du) and right-hand side b, overwriting all four arrays.

    This is the LAPACK ?gtsv call that ``scipy.linalg.solve_banded`` makes
    for (1, 1) bands, without its argument handling, so the solution is the
    same to the last bit.  Like it, a non-finite input raises ValueError and
    a singular matrix LinAlgError, and a 1x1 system is a division.
    """
    _require_finite(np.concatenate((dl, d, du, b)))
    return _solve_tridiagonal(dl, d, du, b)


def _solve_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``solve_banded`` without the input check: the one solve of every
    sweep step.  Contiguous float64 arrays are overwritten in place, so b
    then holds the solution."""
    if len(b) == 1:
        b /= d[0]
        return b
    _, _, _, x, info = _gtsv()(dl, d, du, b, 1, 1, 1, 1)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


_NON_FINITE = "array must not contain infs or NaNs"


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError(_NON_FINITE)


def _convex(u: np.ndarray, dx2: float) -> np.ndarray:
    """Where u has a nonnegative second difference: the policy that picks the
    upper band extreme."""
    return (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx2 >= 0.0


def _coefficient_tables(half: np.ndarray, x2: np.ndarray, dx2: float, lo, hi) -> np.ndarray:
    """The implicit-step systems of a block of steps at both band extremes,
    from half (B, 2, 1), each step's 0.5 * a_up and 0.5 * a_dn: rows 1 + 2
    alpha, -alpha and -alpha of shape (B, 2, 3, m), alpha = half * x2 / dx2.
    The sub-diagonal is row 1 without its first entry and the
    super-diagonal row 2 without its last, so those entries hold the
    boundary terms alpha[0] * lo and alpha[-1] * hi, and one selection by
    the policy picks the whole system.  Raises ValueError on a non-finite
    entry."""
    alpha = half * x2 / dx2
    tables = np.empty(alpha.shape[:2] + (3, alpha.shape[-1]))
    tables[:, :, 0] = 1.0 + 2.0 * alpha
    np.negative(alpha, out=tables[:, :, 1])
    tables[:, :, 2] = tables[:, :, 1]
    tables[:, :, 1, 0] = alpha[..., 0] * lo
    tables[:, :, 2, -1] = alpha[..., -1] * hi
    _require_finite(tables)
    return tables


def _solve_step(system: np.ndarray, level: np.ndarray, out: np.ndarray) -> None:
    """One implicit step: out's interior becomes the solution of system (a
    (3, m) selection of ``_coefficient_tables``, overwritten) with the
    interior of level plus the two boundary terms on the right-hand side."""
    rhs = out[1:-1]
    rhs[:] = level[1:-1]
    first = level.item(1) + system.item(1, 0)
    rhs[0] = first
    last = rhs.item(-1) + system.item(2, -1)
    rhs[-1] = last
    if not (math.isfinite(first) and math.isfinite(last)):
        raise ValueError(_NON_FINITE)
    _solve_tridiagonal(system[1, 1:], system[0], system[2, :-1], rhs)


def _policy_iteration(k, level, out, spare, up, dn, dx2, policy, tol):
    """Howard policy iteration of time step k from the previous level and
    the policy `policy`, with the systems up and dn at the band extremes.
    The iterates go into out and spare in turn, so the stop rule compares
    the last two; returns the last one's policy and buffer, then the other
    buffer.  Stops on a stable policy or on a value change below tol."""
    prev = level[1:-1]
    for _ in range(POLICY_ITERATION_CAP):
        _solve_step(np.where(policy, up, dn), level, out)
        solved = out[1:-1]
        new = _convex(out, dx2)
        if (new == policy).all() or np.abs(solved - prev).max() < tol:
            return new, out, spare
        policy, prev = new, solved
        out, spare = spare, out
    raise ConvergenceError(
        f"policy iteration did not converge within {POLICY_ITERATION_CAP} "
        f"iterations at time step {k}"
    )


# Steps whose coefficient tables are built at once: the build is amortised
# over the block, and a block's tables (2 * 3 * m floats a step) stay small
# where a whole sweep's would not.
_TABLE_BLOCK = 32


def _implicit_sweep(u, xs, dx, a_up, a_dn):
    """Step one band problem back from its terminal values u (shape (nx,),
    nodes xs, spacing dx) over the step-variance tables a_up, a_dn (shape
    (nt,)), by policy iteration at every step.  A step whose extremes
    coincide has a system that does not depend on the policy, so its second
    iterate repeats the first.  The value-change stop is POLICY_VALUE_TOL
    times the largest terminal magnitude (at least 1), which bounds every
    later level.  Input is checked where it enters (each table block, each
    level a step starts from, each right-hand side's boundary entries), so
    a non-finite value raises ValueError before any solve reads it, with
    numpy warnings off."""
    x2 = xs[1:-1] ** 2
    dx2 = dx**2
    lo, hi = u[0], u[-1]
    # u holds the previous time level; each step's last iterate, in w,
    # becomes the next u, and spare keeps the iterate before it.
    u, w, spare = u.copy(), u.copy(), u.copy()
    with np.errstate(all="ignore"):
        tol = POLICY_VALUE_TOL * max(1.0, float(np.abs(u).max()))
        half = 0.5 * np.stack((a_up, a_dn), axis=1)[..., None]
        # A step starts from the policy of the previous step's last iterate.
        policy = _convex(u, dx2)
        for top in range(len(half), 0, -_TABLE_BLOCK):
            base = max(top - _TABLE_BLOCK, 0)
            tables = _coefficient_tables(half[base:top], x2, dx2, lo, hi)
            for k in range(top - 1, base - 1, -1):
                # A finite sum shows every entry finite: only a sum that is
                # not (a non-finite entry, or an overflow) needs the full check.
                if not math.isfinite(u.sum()):
                    _require_finite(u)
                up, dn = tables[k - base, 0], tables[k - base, 1]
                policy, w, spare = _policy_iteration(k, u, w, spare, up, dn, dx2, policy, tol)
                u, w = w, u
    return u


def _stacked_sweep(u, xs, dx, a):
    """Step a stack of independent fixed-volatility problems back: row s
    has terminal values u[s], nodes xs[s], spacing dx[s] and one
    step-variance table a[s].  Each step is one tridiagonal solve of all
    rows with zeroed couplings between consecutive rows; ?gtsv eliminates a
    block-diagonal system block by block, so each row equals its own sweep
    to the last bit.  Each step's diagonal and right-hand side, from which
    every solve input derives, are checked as in ``_implicit_sweep``."""
    rows, m = u.shape[0], u.shape[1] - 2
    edges = list(zip(range(0, rows * m, m), u[:, 0].tolist(), u[:, -1].tolist()))
    u = u.copy()
    with np.errstate(all="ignore"):
        x2 = xs[:, 1:-1] ** 2
        # Each row squares dx as a scalar power, as one problem does: an
        # array square can differ from it in the last bit.
        dx2 = np.array([d**2 for d in dx.tolist()])[:, None]
        half = 0.5 * a.T[..., None]
        for k in range(len(half) - 1, -1, -1):
            alpha = (half[k] * x2 / dx2).reshape(-1)
            b = u[:, 1:-1].flatten()
            for first, lo, hi in edges:
                b[first] += alpha[first] * lo
                b[first + m - 1] += alpha[first + m - 1] * hi
            d = 1.0 + 2.0 * alpha
            if not math.isfinite(d.sum() + b.sum()):
                _require_finite(d)
                _require_finite(b)
            dl, du = -alpha[1:], -alpha[:-1]
            dl[m - 1::m] = 0.0
            du[m - 1::m] = 0.0
            u[:, 1:-1] = _solve_tridiagonal(dl, d, du, b).reshape(rows, m)
    return u


def window_values(
    payoffs: list[Callable[[np.ndarray], np.ndarray]],
    grids: list[PDEGrid],
    tables: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Upper value functions at the start of their windows, one row per
    payoff: payoffs[s] cell-averaged on grids[s].xs and swept back over the
    window tables tables[s] (``window_tables``).  If every row has fixed
    volatility (its tables are one array, as ``step_variances`` gives a
    degenerate band, or equal entry for entry, NaN to NaN), all rows go
    through one ``_stacked_sweep``, so the grids share nx and nt.
    Otherwise the list must be one band row, which goes through
    ``_implicit_sweep``."""
    u = [cell_average(f, g.xs, g.dx) for f, g in zip(payoffs, grids)]
    if all(up is dn or np.array_equal(up, dn, equal_nan=True) for up, dn in tables):
        xs = np.array([g.xs for g in grids])
        dx = np.array([g.dx for g in grids])
        return _stacked_sweep(np.array(u), xs, dx, np.array([up for up, _ in tables]))
    if len(grids) > 1:
        raise ValueError("a stacked sweep needs fixed volatility: a_up == a_dn at every step")
    (grid,), ((a_up, a_dn),) = grids, tables
    return _implicit_sweep(u[0], grid.xs, grid.dx, a_up, a_dn)[None]


def solve_single_option(
    curve: DiscountCurve,
    vs: VolStructure,
    band: UncertaintyBand,
    T: float,
    t1: float,
    T_i: float,
    payoff: Callable[[np.ndarray], np.ndarray],
    grid: PDEGrid,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> PDESolution:
    """Upper expectation of phi(X_{t1}) for X = P(T_i)/P(T), plus the cash
    price P(T) * u(0, x0).

    T is the maturity of the pricing measure (X is a driftless martingale
    under it), t1 <= min(T, T_i) the option expiry.  The terminal condition
    is averaged over grid cells (monotone and consistent), which removes the
    O(dx) noise a kink otherwise injects.  tables are the window's
    ``window_tables(vs, band, (T, T_i), 0.0, t1, grid.nt)`` when the caller
    already has them (the upper and lower solves of one leg share them).
    """
    band.check_factors(vs)
    if t1 > min(T, T_i):
        raise DomainError(f"expiry t1={t1} must not exceed min(T, T_i)=({T}, {T_i})")
    if not t1 >= 0.0:  # also NaN
        raise DomainError(f"expiry must be nonnegative, got {t1}")
    if max(T, T_i) > curve.horizon:
        raise DomainError(f"maturities ({T}, {T_i}) exceed curve horizon {curve.horizon}")
    x0 = curve.forward_price(T, T_i)
    if not (grid.x_min <= x0 <= grid.x_max):
        raise DomainError(
            f"spot forward price {x0} lies outside the grid [{grid.x_min}, {grid.x_max}]"
        )
    xs = grid.xs
    if t1 == 0.0:
        u = np.asarray(payoff(xs), dtype=float)
    else:
        if tables is None:
            tables = window_tables(vs, band, (T, T_i), 0.0, t1, grid.nt)
        u = window_values([payoff], [grid], [tables])[0]
    value = float(np.interp(x0, xs, u))
    return PDESolution(value=value, x0=x0, cash_price=curve.bond_price(T) * value, xs=xs, u0=u)


def solve_lower(
    curve: DiscountCurve,
    vs: VolStructure,
    band: UncertaintyBand,
    T: float,
    t1: float,
    T_i: float,
    payoff: Callable[[np.ndarray], np.ndarray],
    grid: PDEGrid,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> PDESolution:
    """Lower expectation: the negated upper solve of -phi (equivalently the
    band extremes swap roles on the Hessian sign)."""
    sol = solve_single_option(curve, vs, band, T, t1, T_i, lambda x: -payoff(x), grid, tables)
    return PDESolution(
        value=-sol.value,
        x0=sol.x0,
        cash_price=-sol.cash_price,
        xs=sol.xs,
        u0=-sol.u0,
    )
