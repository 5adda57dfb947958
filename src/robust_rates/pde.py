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
those of that call without its per-call argument handling.  A step whose
band extremes coincide gives a system that does not depend on the policy, so
it takes one solve.

``window_value`` is the one 1D core: it cell-averages the terminal payoff,
builds the per-step variance tables (``step_variances``) and runs the
implicit sweep over any window [t_from, t_to].  ``solve_single_option`` and
the stream recursion both call it.  The lower expectation is the negated
solve of -phi on the same grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

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

_GTSV, = get_lapack_funcs(("gtsv",), (np.empty(0),))


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
    at the band extremes (exact in time).

    A degenerate band has one extreme, so both tables are the same array:
    callers only read them."""
    steps = range(len(ts) - 1)
    a_up = np.array([vs.integrated_variance(band.upper, ts[k], ts[k + 1], T, T_i) for k in steps])
    if band.is_degenerate:
        return a_up, a_up
    a_dn = np.array([vs.integrated_variance(band.lower, ts[k], ts[k + 1], T, T_i) for k in steps])
    return a_up, a_dn


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
    _, _, _, x, info = _GTSV(dl, d, du, b, 1, 1, 1, 1)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


def _implicit_sweep(u, xs, dx, a_up, a_dn):
    nt = len(a_up)
    x2 = xs[1:-1] ** 2
    dx2 = dx**2
    lo_bc, hi_bc = u[0], u[-1]
    # u holds the previous time level; work takes each policy iterate with
    # the boundary values in place and becomes the next u.
    u = u.copy()
    work = u.copy()
    d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx2
    # The policy a step starts from is read off the previous level, which is
    # the last iterate of the previous step: its policy carries over.
    policy = d2 >= 0.0
    for k in range(nt - 1, -1, -1):
        # The step's coefficients at both band extremes; each policy
        # iteration picks one of the two per cell.
        alpha_up = 0.5 * a_up[k] * x2 / dx2
        alpha_dn = 0.5 * a_dn[k] * x2 / dx2
        prev = u[1:-1]
        for _ in range(POLICY_ITERATION_CAP):
            alpha = np.where(policy, alpha_up, alpha_dn)
            rhs = u[1:-1].copy()
            rhs[0] += alpha[0] * lo_bc
            rhs[-1] += alpha[-1] * hi_bc
            solved = solve_banded(-alpha[1:], 1.0 + 2.0 * alpha, -alpha[:-1], rhs)
            work[1:-1] = solved
            d2 = (work[2:] - 2.0 * solved + work[:-2]) / dx2
            new_policy = d2 >= 0.0
            stable = (new_policy == policy).all()
            policy = new_policy
            # At a degenerate step both extremes give the same system, so a
            # second iteration would repeat this solve exactly.
            if (stable or a_up[k] == a_dn[k]
                    or float(np.max(np.abs(solved - prev))) < POLICY_VALUE_TOL):
                break
            prev = solved
        else:
            raise ConvergenceError(
                f"policy iteration did not converge within {POLICY_ITERATION_CAP} "
                f"iterations at time step {k}"
            )
        u, work = work, u
    return u


def window_value(
    vs: VolStructure,
    band: UncertaintyBand,
    pair: tuple[float, float],
    t_from: float,
    t_to: float,
    payoff: Callable[[np.ndarray], np.ndarray],
    grid: PDEGrid,
) -> np.ndarray:
    """Upper value function at t_from of payoff(X_{t_to}) for the forward
    price X = P(pair[1])/P(pair[0]), on grid.xs with grid.nt steps."""
    xs = grid.xs
    dx = grid.dx
    u = cell_average(payoff, xs, dx)
    a_up, a_dn = step_variances(vs, band, np.linspace(t_from, t_to, grid.nt + 1), *pair)
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
) -> PDESolution:
    """Upper expectation of phi(X_{t1}) for X = P(T_i)/P(T), plus the cash
    price P(T) * u(0, x0).

    T is the maturity of the pricing measure (X is a driftless martingale
    under it), t1 <= min(T, T_i) the option expiry.  The terminal condition
    is averaged over grid cells (monotone and consistent), which removes the
    O(dx) noise a kink otherwise injects.
    """
    if vs.dim != band.dim:
        raise DomainError(f"volatility structure has {vs.dim} factors but band has {band.dim}")
    if t1 > min(T, T_i):
        raise DomainError(f"expiry t1={t1} must not exceed min(T, T_i)=({T}, {T_i})")
    if t1 < 0.0:
        raise DomainError(f"expiry must be nonnegative, got {t1}")
    if max(T, T_i) > curve.horizon:
        raise DomainError(f"maturities ({T}, {T_i}) exceed curve horizon {curve.horizon}")

    x0 = curve.forward_price(T, T_i)
    xs = grid.xs
    if not (grid.x_min <= x0 <= grid.x_max):
        raise DomainError(f"spot forward price {x0} lies outside the grid [{grid.x_min}, {grid.x_max}]")

    if t1 == 0.0:
        u = np.asarray(payoff(xs), dtype=float)
    else:
        u = window_value(vs, band, (T, T_i), 0.0, t1, payoff, grid)
    value = float(np.interp(x0, xs, u))
    return PDESolution(
        value=value,
        x0=x0,
        cash_price=curve.bond_price(T) * value,
        xs=xs,
        u0=u,
    )


def solve_lower(
    curve: DiscountCurve,
    vs: VolStructure,
    band: UncertaintyBand,
    T: float,
    t1: float,
    T_i: float,
    payoff: Callable[[np.ndarray], np.ndarray],
    grid: PDEGrid,
) -> PDESolution:
    """Lower expectation: the negated upper solve of -phi (equivalently the
    band extremes swap roles on the Hessian sign)."""
    sol = solve_single_option(curve, vs, band, T, t1, T_i, lambda x: -payoff(x), grid)
    return PDESolution(
        value=-sol.value,
        x0=sol.x0,
        cash_price=-sol.cash_price,
        xs=sol.xs,
        u0=-sol.u0,
    )
