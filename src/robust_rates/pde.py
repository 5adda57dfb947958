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
solution.  Each policy iteration solves one tridiagonal system with a
direct LAPACK ?gtsv call (``solve_banded`` below), the routine
``scipy.linalg.solve_banded`` uses for (1, 1) bands, so the results are
those of that call without its per-call argument handling.  The routine is
looked up through ``scipy.linalg`` on the first solve, not at import, so
importing the package and pricing closed-form contracts loads no scipy
module.  A step whose band extremes coincide gives a system that does not
depend on the policy, so it takes one solve.

``window_values`` is the one 1D core: it cell-averages each terminal payoff
and runs the implicit sweep over the step-variance tables of its window
[t_from, t_to] (``window_tables``, closed form for Ho-Lee and Hull-White
factors).  The sweep takes one problem or a stack of independent ones, each
row with its own grid and tables: every policy iteration solves the rows
still iterating as one block-diagonal tridiagonal system, and each row stops
on its own rule, so a stacked row equals its own sweep to the last bit.
Stacking pays at degenerate bands, where every step is one solve:
``solve_options`` prices many such options with one sweep, and the stream
pricer sends both band extremes of its PDE-priced convex or concave legs
through it.  ``solve_single_option`` prices one option; the lower
expectation (``solve_lower``) is the negated solve of -phi on the same grid
and tables.
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
    at the band extremes (exact in time), from
    ``VolStructure.integrated_variances`` (closed form for Ho-Lee and
    Hull-White factors).

    A degenerate band has one extreme, so both tables are the same array:
    callers only read them."""
    a_up = vs.integrated_variances(band.upper, ts, T, T_i)
    if band.is_degenerate:
        return a_up, a_up
    return a_up, vs.integrated_variances(band.lower, ts, T, T_i)


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
    if not np.isfinite(np.concatenate((dl, d, du, b))).all():
        raise ValueError("array must not contain infs or NaNs")
    if len(b) == 1:
        b /= d[0]
        return b
    _, _, _, x, info = _gtsv()(dl, d, du, b, 1, 1, 1, 1)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


def _convex(u: np.ndarray, dx2) -> np.ndarray:
    """Where u has a nonnegative second difference along its last axis: the
    policy that picks the upper band extreme."""
    return (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dx2 >= 0.0


def _solve_rows(alpha: np.ndarray, u: np.ndarray, edges: list) -> np.ndarray:
    """One implicit step of each row: coefficients alpha (m,) or (S, m),
    right-hand sides the interior of u plus the boundary terms of each row's
    (lo, hi) boundary values in edges.  A stack goes into one tridiagonal
    solve with zeroed couplings between consecutive rows; ?gtsv eliminates a
    block-diagonal system block by block, so each row gets the values of its
    own solve."""
    m = alpha.shape[-1]
    a = alpha.reshape(-1)
    b = u[..., 1:-1].flatten()
    for first, (lo, hi) in zip(range(0, len(b), m), edges):
        b[first] += a[first] * lo
        b[first + m - 1] += a[first + m - 1] * hi
    dl, du = -a[1:], -a[:-1]
    if alpha.ndim > 1:
        dl[m - 1::m] = 0.0
        du[m - 1::m] = 0.0
    return solve_banded(dl, 1.0 + 2.0 * a, du, b).reshape(alpha.shape)


def _policy_iteration(k, u, work, up, dn, edges, dx2, degenerate, policy, prev, first=0):
    """Howard policy iteration of time step k for the rows of the previous
    level u, from iteration number `first` and the policy `policy`, with
    coefficients up and dn at the band extremes.  Each iterate goes into
    work; returns the last one's interior values and policy.

    A row stops on its own: on a stable policy, on a step whose extremes
    coincide (degenerate) or on a value change below POLICY_VALUE_TOL.  The
    rows that go on iterate as a smaller stack, so every row takes the
    iterates of its one-row sweep."""
    for it in range(first, POLICY_ITERATION_CAP):
        solved = _solve_rows(np.where(policy, up, dn), u, edges)
        work[..., 1:-1] = solved
        new = _convex(work, dx2)
        # The tests over the whole stack come first: they decide a single row.
        if (new == policy).all():
            return solved, new
        change = np.abs(solved - prev)
        if change.max() < POLICY_VALUE_TOL:
            return solved, new
        if solved.ndim > 1:
            stable = (new == policy).all(axis=1)
            done = stable | degenerate | (change.max(axis=1) < POLICY_VALUE_TOL)
            if done.any():
                go = ~done
                if go.any():
                    solved[go], new[go] = _policy_iteration(
                        k, u[go], work[go], up[go], dn[go],
                        [e for e, g in zip(edges, go) if g], dx2[go], degenerate[go],
                        new[go], solved[go], it + 1,
                    )
                    work[go, 1:-1] = solved[go]
                return solved, new
        policy, prev = new, solved
    raise ConvergenceError(
        f"policy iteration did not converge within {POLICY_ITERATION_CAP} "
        f"iterations at time step {k}"
    )


def _implicit_sweep(u, xs, dx, a_up, a_dn):
    """Step one problem, or a stack of independent ones, back from its
    terminal values u over the step-variance tables a_up, a_dn.

    One problem has u and xs of shape (nx,), a spacing dx and tables of
    shape (nt,).  A stack has u and xs of shape (S, nx), dx of shape (S,)
    and tables of shape (S, nt): its rows share nx and nt but have their own
    grids and tables, and each row's result equals its one-problem sweep to
    the last bit.  A step at which every row's band extremes coincide is one
    solve with no policy work.  (One problem runs on 1D arrays: at these
    sizes a numpy call on a stack of one costs more.)
    """
    x2 = xs[..., 1:-1] ** 2
    # Each row squares dx as a scalar power, as one problem does: an array
    # square can differ from it in the last bit.
    dx2 = dx**2 if u.ndim == 1 else np.array([d**2 for d in dx.tolist()])[:, None]
    edges = list(zip(u[..., 0].reshape(-1).tolist(), u[..., -1].reshape(-1).tolist()))
    # u holds the previous time level; work takes each policy iterate with
    # the boundary values in place and becomes the next u.
    u = u.copy()
    work = u.copy()
    # half[k] holds both extremes' 0.5 * a[k], shaped to scale x2 / dx2.
    half = np.moveaxis(0.5 * np.stack((a_up, a_dn)), -1, 0)[..., None]
    degenerate = a_up == a_dn
    one_system = degenerate.reshape(-1, degenerate.shape[-1]).all(axis=0)
    # The policy a step starts from is read off the previous level, which is
    # the last iterate of the previous step: its policy carries over.  After
    # a step without policy work it is read off u when next needed.
    policy = None
    for k in range(len(half) - 1, -1, -1):
        if one_system[k]:
            work[..., 1:-1] = _solve_rows(half[k, 0] * x2 / dx2, u, edges)
            policy = None
        else:
            if policy is None:
                policy = _convex(u, dx2)
            up, dn = half[k] * x2 / dx2
            _, policy = _policy_iteration(
                k, u, work, up, dn, edges, dx2, degenerate[..., k], policy, u[..., 1:-1]
            )
        u, work = work, u
    return u


def window_values(
    payoffs: list[Callable[[np.ndarray], np.ndarray]],
    grids: list[PDEGrid],
    tables: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Upper value functions at the start of their windows, one row per
    payoff: payoffs[s] cell-averaged on grids[s].xs and swept back over the
    window tables tables[s] (``window_tables``).  The rows go through one
    stacked sweep, so the grids share nx and nt."""
    if len(grids) == 1:
        (grid,), (payoff,), ((a_up, a_dn),) = grids, payoffs, tables
        u = cell_average(payoff, grid.xs, grid.dx)
        return _implicit_sweep(u, grid.xs, grid.dx, a_up, a_dn)[None]
    u = np.array([cell_average(f, g.xs, g.dx) for f, g in zip(payoffs, grids)])
    xs = np.array([g.xs for g in grids])
    dx = np.array([g.dx for g in grids])
    a_up = np.array([up for up, _ in tables])
    a_dn = np.array([dn for _, dn in tables])
    return _implicit_sweep(u, xs, dx, a_up, a_dn)


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
    return solve_options(curve, vs, [(band, T, t1, T_i, payoff, grid, tables)])[0]


def solve_options(
    curve: DiscountCurve, vs: VolStructure, options: list[tuple]
) -> list[PDESolution]:
    """``solve_single_option`` for each (band, T, t1, T_i, payoff, grid,
    tables) of options, tables None when the caller has none, with the
    sweeps of all of them stacked into one (their grids share nx and nt).
    Each solution equals that option's own sweep to the last bit.

    Meant for degenerate bands, whose every step is one stacked solve.
    Options that iterate on the policy are cheaper swept one by one: at
    these grid sizes an iteration costs its number of numpy calls, and the
    stack iterates until its slowest row stops.
    """
    spots = []
    for band, T, t1, T_i, _, grid, _ in options:
        if vs.dim != band.dim:
            raise DomainError(f"volatility structure has {vs.dim} factors but band has {band.dim}")
        if t1 > min(T, T_i):
            raise DomainError(f"expiry t1={t1} must not exceed min(T, T_i)=({T}, {T_i})")
        if t1 < 0.0:
            raise DomainError(f"expiry must be nonnegative, got {t1}")
        if max(T, T_i) > curve.horizon:
            raise DomainError(f"maturities ({T}, {T_i}) exceed curve horizon {curve.horizon}")
        x0 = curve.forward_price(T, T_i)
        if not (grid.x_min <= x0 <= grid.x_max):
            raise DomainError(
                f"spot forward price {x0} lies outside the grid [{grid.x_min}, {grid.x_max}]"
            )
        spots.append(x0)
    swept = [opt for opt in options if opt[2] != 0.0]
    rows = iter(window_values(
        [payoff for *_, payoff, _, _ in swept],
        [grid for *_, grid, _ in swept],
        [tables if tables is not None else window_tables(vs, band, (T, T_i), 0.0, t1, grid.nt)
         for band, T, t1, T_i, _, grid, tables in swept],
    ) if swept else ())
    solutions = []
    for (_, T, t1, _, payoff, grid, _), x0 in zip(options, spots):
        xs = grid.xs
        u = next(rows) if t1 != 0.0 else np.asarray(payoff(xs), dtype=float)
        value = float(np.interp(x0, xs, u))
        solutions.append(PDESolution(
            value=value, x0=x0, cash_price=curve.bond_price(T) * value, xs=xs, u0=u
        ))
    return solutions


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
