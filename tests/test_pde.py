"""Nonlinear PDE engine: martingale identity, convex reduction, the implicit sweep."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from robust_rates import pde
from robust_rates.curve import flat_curve
from robust_rates.errors import ConvergenceError, DomainError
from robust_rates.lognormal import lognormal_call, lognormal_put
from robust_rates.oracle import lattice_price
from robust_rates.pde import (
    PDEGrid,
    default_grid,
    solve_lower,
    solve_single_option,
)
from robust_rates.uncertainty import UncertaintyBand, degenerate_band
from robust_rates.vol_structure import ho_lee, hull_white

CURVE = flat_curve(0.02)
VS = ho_lee(0.01)
BAND = UncertaintyBand((0.5,), (1.5,))
KI = 1.0 / 1.02  # transformed strike for delta=0.5, K=0.04


def put_payoff():
    return lambda x: np.maximum(KI - x, 0.0)


def identity_payoff():
    return lambda x: x


def spread_payoff(lo=0.97, width=0.02):
    return lambda x: np.minimum(np.maximum(x - lo, 0.0), width)


def v_total(vs, scale, t1, T, Ti):
    return math.sqrt(vs.integrated_variance((scale,), 0.0, t1, T, Ti))


class TestMartingaleIdentity:
    def test_identity_payoff_returns_spot_forward_price(self):
        x0 = CURVE.forward_price(1.0, 1.5)
        grid = default_grid(x0, v_total(VS, 1.5, 1.0, 1.0, 1.5), nx=201, nt=900)
        sol = solve_single_option(CURVE, VS, BAND, 1.0, 1.0, 1.5, identity_payoff(), grid)
        assert sol.value == pytest.approx(x0, abs=1e-10)

    def test_linear_payoff_lower_equals_upper(self):
        x0 = CURVE.forward_price(1.0, 1.5)
        grid = default_grid(x0, v_total(VS, 1.5, 1.0, 1.0, 1.5), nx=201, nt=200)
        up = solve_single_option(CURVE, VS, BAND, 1.0, 1.0, 1.5, identity_payoff(), grid)
        lo = solve_lower(CURVE, VS, BAND, 1.0, 1.0, 1.5, identity_payoff(), grid)
        assert up.value == pytest.approx(lo.value, abs=1e-10)


class TestConvexReduction:
    def test_put_matches_black_at_upper_extreme(self):
        x0 = CURVE.forward_price(1.0, 1.5)
        v = v_total(VS, 1.5, 1.0, 1.0, 1.5)
        grid = default_grid(x0, v, nx=400, nt=400)
        sol = solve_single_option(CURVE, VS, BAND, 1.0, 1.0, 1.5, put_payoff(), grid)
        black = lognormal_put(x0, KI, v)
        assert abs(sol.value / black - 1.0) <= 2e-3

    def test_lower_matches_black_at_lower_extreme(self):
        # At-the-money strike keeps the sigma-lower value well scaled.
        x0 = CURVE.forward_price(1.0, 1.5)
        atm = lambda x: np.maximum(x0 - x, 0.0)
        v_up = v_total(VS, 1.5, 1.0, 1.0, 1.5)
        grid = default_grid(x0, v_up, nx=400, nt=400)
        sol = solve_lower(CURVE, VS, BAND, 1.0, 1.0, 1.5, atm, grid)
        black = lognormal_put(x0, x0, v_total(VS, 0.5, 1.0, 1.0, 1.5))
        assert abs(sol.value / black - 1.0) <= 2e-3

    def test_cash_price_discounts_with_measure_bond(self):
        x0 = CURVE.forward_price(1.0, 1.5)
        grid = default_grid(x0, v_total(VS, 1.5, 1.0, 1.0, 1.5), nx=200, nt=200)
        sol = solve_single_option(CURVE, VS, BAND, 1.0, 1.0, 1.5, put_payoff(), grid)
        assert sol.cash_price == pytest.approx(CURVE.bond_price(1.0) * sol.value, rel=1e-15)

    def test_hull_white_time_dependent_vol(self):
        vs = hull_white(0.015, 0.4)
        x0 = CURVE.forward_price(1.0, 1.5)
        v_up = math.sqrt(vs.integrated_variance((1.5,), 0.0, 1.0, 1.0, 1.5))
        grid = default_grid(x0, v_up, nx=400, nt=400)
        sol = solve_single_option(CURVE, vs, BAND, 1.0, 1.0, 1.5, put_payoff(), grid)
        assert abs(sol.value / lognormal_put(x0, KI, v_up) - 1.0) <= 2e-3


class TestNonConvexPayoff:
    def classical_spread(self, vs, scale, T, Ti, lo=0.97, width=0.02):
        x0 = CURVE.forward_price(T, Ti)
        v = math.sqrt(vs.integrated_variance((scale,), 0.0, T, T, Ti))
        return lognormal_call(x0, lo, v) - lognormal_call(x0, lo + width, v)

    def test_value_brackets_and_dominates_classicals(self):
        vs = ho_lee(0.02)
        x0 = CURVE.forward_price(1.0, 2.0)
        v_up = math.sqrt(vs.integrated_variance((1.5,), 0.0, 1.0, 1.0, 2.0))
        grid = default_grid(x0, v_up, nx=500, nt=500)
        up = solve_single_option(CURVE, vs, BAND, 1.0, 1.0, 2.0, spread_payoff(), grid).value
        lo = solve_lower(CURVE, vs, BAND, 1.0, 1.0, 2.0, spread_payoff(), grid).value
        classics = [self.classical_spread(vs, s, 1.0, 2.0) for s in np.linspace(0.5, 1.5, 5)]
        tol = 1e-6
        assert lo <= up
        for c in classics:
            assert lo - tol <= c <= up + tol
        assert up > max(classics) + 1e-5
        assert lo < min(classics) - 1e-5

    def test_spec_example_payoff_brackets_classicals(self):
        # Shallow-vol instance: the capped region dominates and the bracket
        # holds within grid tolerance.
        x0 = CURVE.forward_price(1.0, 1.5)
        v_up = v_total(VS, 1.5, 1.0, 1.0, 1.5)
        grid = default_grid(x0, v_up, nx=400, nt=400)
        payoff = spread_payoff(0.95, 0.02)
        up = solve_single_option(CURVE, VS, BAND, 1.0, 1.0, 1.5, payoff, grid).value
        classics = [
            self.classical_spread(VS, s, 1.0, 1.5, 0.95, 0.02) for s in np.linspace(0.5, 1.5, 5)
        ]
        assert up >= max(classics) - 1e-6
        assert min(classics) - 1e-6 <= up <= max(classics) + 1e-5 + (up - max(classics))

    def test_refinement_against_lattice_oracle(self):
        vs = ho_lee(0.02)
        x0 = CURVE.forward_price(1.0, 2.0)
        v_up = math.sqrt(vs.integrated_variance((1.5,), 0.0, 1.0, 1.0, 2.0))
        ref = lattice_price(
            CURVE, vs, BAND, 1.0, 1.0, 2.0,
            lambda x: np.minimum(np.maximum(x - 0.97, 0.0), 0.02), 4000,
        )
        errs = []
        for n in (125, 250, 500):
            grid = default_grid(x0, v_up, nx=n, nt=n)
            val = solve_single_option(CURVE, vs, BAND, 1.0, 1.0, 2.0, spread_payoff(), grid).value
            errs.append(abs(val - ref))
        assert errs[0] / errs[1] >= 1.5
        assert errs[1] / errs[2] >= 1.5


class TestComparisonPrinciple:
    def test_pointwise_ordered_payoffs_give_ordered_values(self):
        x0 = CURVE.forward_price(1.0, 1.5)
        grid = default_grid(x0, v_total(VS, 1.5, 1.0, 1.0, 1.5), nx=151, nt=150)
        lo_strike = lambda x: np.maximum(0.97 - x, 0.0)
        hi_strike = lambda x: np.maximum(0.99 - x, 0.0)
        a = solve_single_option(CURVE, VS, BAND, 1.0, 1.0, 1.5, lo_strike, grid)
        b = solve_single_option(CURVE, VS, BAND, 1.0, 1.0, 1.5, hi_strike, grid)
        assert np.all(a.u0 <= b.u0 + 1e-14)


class TestSchemes:
    def test_degenerate_band_matches_black_within_dt_error(self):
        # Backward Euler is O(dx^2 + dt); on this out-of-the-money fixture
        # the dt term dominates and halves with the step count.
        deg = degenerate_band((1.0,))
        x0 = CURVE.forward_price(1.0, 1.5)
        v = v_total(VS, 1.0, 1.0, 1.0, 1.5)
        black = lognormal_put(x0, KI, v)
        errs = []
        for nt in (800, 3200):
            grid = default_grid(x0, v, nx=800, nt=nt)
            sol = solve_single_option(CURVE, VS, deg, 1.0, 1.0, 1.5, put_payoff(), grid)
            errs.append(abs(sol.value / black - 1.0))
        assert errs[0] <= 5e-3
        assert errs[1] <= errs[0] / 2.0

    def test_immediate_expiry_returns_payoff(self):
        x0 = CURVE.forward_price(1.0, 1.5)
        grid = default_grid(x0, 0.01, nx=101, nt=10)
        sol = solve_single_option(CURVE, VS, BAND, 1.0, 0.0, 1.5, put_payoff(), grid)
        assert sol.value == pytest.approx(max(KI - x0, 0.0), abs=1e-12)


def reference_implicit_sweep(u, xs, dx, a_up, a_dn=None):
    """Reference: the policy-iteration sweep with a fresh banded matrix per
    iteration, solved by scipy.linalg.solve_banded.  The value-change stop
    is POLICY_VALUE_TOL times the largest terminal magnitude, at least 1.
    A missing a_dn is a_up, as in pde._implicit_sweep's fixed volatility."""
    a_dn = a_up if a_dn is None else a_dn
    nx = len(xs)
    x2 = xs[1:-1] ** 2
    lo_bc, hi_bc = u[0], u[-1]
    tol = pde.POLICY_VALUE_TOL * max(1.0, float(np.abs(u).max()))
    for k in range(len(a_up) - 1, -1, -1):
        d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
        policy = d2 >= 0.0
        prev = u[1:-1]
        for _ in range(pde.POLICY_ITERATION_CAP):
            alpha = 0.5 * np.where(policy, a_up[k], a_dn[k]) * x2 / dx**2
            band_mat = np.zeros((3, nx - 2))
            band_mat[0, 1:] = -alpha[:-1]
            band_mat[1, :] = 1.0 + 2.0 * alpha
            band_mat[2, :-1] = -alpha[1:]
            rhs = u[1:-1].copy()
            rhs[0] += alpha[0] * lo_bc
            rhs[-1] += alpha[-1] * hi_bc
            solved = scipy.linalg.solve_banded((1, 1), band_mat, rhs)
            full = np.concatenate(([lo_bc], solved, [hi_bc]))
            d2 = (full[2:] - 2.0 * full[1:-1] + full[:-2]) / dx**2
            new_policy = d2 >= 0.0
            value_change = float(np.max(np.abs(solved - prev)))
            if np.array_equal(new_policy, policy) or value_change < tol:
                policy = new_policy
                break
            policy = new_policy
            prev = solved
        else:
            raise ConvergenceError(f"no convergence at time step {k}")
        u = np.concatenate(([lo_bc], solved, [hi_bc]))
    return u


def count_banded_solves(monkeypatch) -> list[int]:
    """Wrap pde._solve_tridiagonal, the one solve of every sweep step; the
    returned one-element list counts its calls."""
    calls = [0]
    solve = pde._solve_tridiagonal

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(pde, "_solve_tridiagonal", counted)
    return calls


class TestImplicitSweepBitExact:
    """The sweep calls LAPACK gtsv directly and reuses its buffers; it must
    reproduce the solve_banded loop exactly, not approximately."""

    @pytest.mark.parametrize("vs", [VS, hull_white(0.015, 0.4)], ids=["ho-lee", "hull-white"])
    @pytest.mark.parametrize("nx", [3, 4, 41])
    @pytest.mark.parametrize("solve", [solve_single_option, solve_lower], ids=["upper", "lower"])
    def test_matches_solve_banded_loop(self, monkeypatch, vs, nx, solve):
        x0 = CURVE.forward_price(1.0, 1.5)
        grid = default_grid(x0, v_total(vs, 1.5, 1.0, 1.0, 1.5), nx=nx, nt=30)

        def run():
            return solve(CURVE, vs, BAND, 1.0, 1.0, 1.5, spread_payoff(), grid)

        got = run()
        monkeypatch.setattr(pde, "_implicit_sweep", reference_implicit_sweep)
        ref = run()
        assert got.value.hex() == ref.value.hex()
        assert got.u0.tobytes() == ref.u0.tobytes()

    @pytest.mark.parametrize("vs", [VS, hull_white(0.015, 0.4)], ids=["ho-lee", "hull-white"])
    @pytest.mark.parametrize("nx", [3, 4, 41])
    @pytest.mark.parametrize("solve", [solve_single_option, solve_lower], ids=["upper", "lower"])
    def test_degenerate_band_one_solve_per_step(self, monkeypatch, vs, nx, solve):
        # Both band extremes give the same system, so the sweep makes one
        # solve a step, and its result is the reference's, whose second
        # iteration repeats it.
        x0 = CURVE.forward_price(1.0, 1.5)
        nt = 30
        grid = default_grid(x0, v_total(vs, 1.2, 1.0, 1.0, 1.5), nx=nx, nt=nt)
        band = degenerate_band((1.2,))
        calls = count_banded_solves(monkeypatch)
        got = solve(CURVE, vs, band, 1.0, 1.0, 1.5, spread_payoff(), grid)
        assert calls == [nt]
        sign = 1.0 if solve is solve_single_option else -1.0
        u = pde.cell_average(lambda x: sign * spread_payoff()(x), grid.xs, grid.dx)
        tables = pde.window_tables(vs, band, (1.0, 1.5), 0.0, 1.0, nt)
        ref = reference_implicit_sweep(u, grid.xs, grid.dx, *tables)
        assert got.value.hex() == (sign * float(np.interp(x0, grid.xs, ref))).hex()
        assert got.u0.tobytes() == (sign * ref).tobytes()

    @pytest.mark.parametrize("vs", [VS, hull_white(0.015, 0.4)], ids=["ho-lee", "hull-white"])
    def test_degenerate_band_builds_one_variance_table(self, vs):
        ts = np.linspace(0.0, 1.0, 31)
        a_up, a_dn = pde.window_tables(vs, degenerate_band((1.2,)), (1.0, 1.5), 0.0, 1.0, 30)
        assert a_dn is a_up
        want = [vs.integrated_variance((1.2,), ts[k], ts[k + 1], 1.0, 1.5) for k in range(30)]
        assert a_up.tolist() == want

    def test_kinked_payoff_on_a_band_iterates(self, monkeypatch):
        x0 = CURVE.forward_price(1.0, 1.5)
        nt = 30
        grid = default_grid(x0, v_total(VS, 1.5, 1.0, 1.0, 1.5), nx=41, nt=nt)
        calls = count_banded_solves(monkeypatch)
        solve_single_option(CURVE, VS, BAND, 1.0, 1.0, 1.5, spread_payoff(), grid)
        assert calls[0] > nt

    def test_tridiagonal_solve_matches_scipy(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        for n in (1, 2, 7, 50):
            dl, du = rng.normal(size=n - 1), rng.normal(size=n - 1)
            d, b = rng.normal(size=n) + 4.0, rng.normal(size=n)
            band_mat = np.zeros((3, n))
            band_mat[0, 1:], band_mat[1], band_mat[2, :-1] = du, d, dl
            ref = scipy.linalg.solve_banded((1, 1), band_mat, b)
            assert pde.solve_banded(dl.copy(), d.copy(), du.copy(), b.copy()).tobytes() == ref.tobytes()

    def test_tridiagonal_solve_errors(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            pde.solve_banded(np.ones(2), np.array([1.0, np.inf, 1.0]), np.ones(2), np.ones(3))
        with pytest.raises(scipy.linalg.LinAlgError, match="singular"):
            pde.solve_banded(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))

    def test_nan_payoff_raises_value_error(self):
        x0 = CURVE.forward_price(1.0, 1.5)
        grid = default_grid(x0, v_total(VS, 1.5, 1.0, 1.0, 1.5), nx=41, nt=10)
        nan_above = lambda x: np.where(x > x0, np.nan, x)
        with pytest.raises(ValueError, match="infs or NaNs") as info:
            solve_single_option(CURVE, VS, BAND, 1.0, 1.0, 1.5, nan_above, grid)
        assert type(info.value) is ValueError


def _problem(vs, band, payoff, nx, t1=1.0, shift=1.0, nt=30):
    """Terminal values, grid and window tables of the option on X = P(1.5)/P(1.0)
    expiring at t1, on a grid around shift times its spot."""
    x0 = shift * CURVE.forward_price(1.0, 1.5)
    grid = default_grid(x0, v_total(vs, max(band.upper), t1, 1.0, 1.5), nx=nx, nt=nt)
    a_up, a_dn = pde.window_tables(vs, band, (1.0, 1.5), 0.0, t1, nt)
    return pde.cell_average(payoff, grid.xs, grid.dx), grid.xs, grid.dx, a_up, a_dn


def stacked(problems):
    """pde._implicit_sweep of problems stacked one row each, at each row's
    a_dn table alone (one of the two equal tables of a fixed-volatility
    problem)."""
    u, xs, dx, _, a_dn = (np.array(part) for part in zip(*problems))
    return pde._implicit_sweep(u, xs, dx, a_dn)


# The sweep on one problem's (u, xs, dx, a_up, a_dn): with both tables, by
# policy iteration even where they are one array, and as a one-row
# fixed-volatility stack of its a_dn table.
SWEEPS = {
    "policy": lambda *problem: pde._implicit_sweep(*problem),
    "stacked": lambda *problem: stacked([problem])[0],
}


HW = hull_white(0.015, 0.4)
STACKS = {
    # Every row's band is degenerate: each step is one solve.
    "degenerate": lambda nx: [
        _problem(VS, degenerate_band((1.2,)), spread_payoff(), nx),
        _problem(HW, degenerate_band((0.7,)), put_payoff(), nx, t1=0.4),
        _problem(VS, degenerate_band((0.5,)), lambda x: np.minimum(x, KI), nx, shift=1.02),
    ],
}


def one_row_loop(u, xs, dx, a_up, a_dn):
    """Reference: the one-row sweep before coefficient tables.  Each policy
    iteration builds its system from the step's coefficients and solves it
    with the checked pde.solve_banded; a step whose band extremes coincide
    is one solve, and the policy carries over between steps.  The policy
    and the stop are those of reference_implicit_sweep: the sign of the
    second difference divided by dx**2, and a stop scaled by the terminal
    values.  Returns the last level and the number of solves."""
    x2, dx2 = xs[1:-1] ** 2, dx**2
    tol = pde.POLICY_VALUE_TOL * max(1.0, float(np.abs(u).max()))
    u, solves, policy = u.copy(), 0, None

    def step(alpha):
        b = u[1:-1].copy()
        b[0] += alpha[0] * u[0]
        b[-1] += alpha[-1] * u[-1]
        level = u.copy()
        level[1:-1] = pde.solve_banded(-alpha[1:], 1.0 + 2.0 * alpha, -alpha[:-1], b)
        return level

    for k in range(len(a_up) - 1, -1, -1):
        up, dn = 0.5 * np.array([[a_up[k]], [a_dn[k]]]) * x2 / dx2
        if a_up[k] == a_dn[k]:
            u, solves, policy = step(up), solves + 1, None
            continue
        if policy is None:
            policy = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx2 >= 0.0
        prev = u[1:-1]
        for _ in range(pde.POLICY_ITERATION_CAP):
            level = step(np.where(policy, up, dn))
            solves += 1
            new = (level[2:] - 2.0 * level[1:-1] + level[:-2]) / dx2 >= 0.0
            if (new == policy).all() or np.abs(level[1:-1] - prev).max() < tol:
                break
            policy, prev = new, level[1:-1]
        else:
            raise ConvergenceError(f"no convergence at time step {k}")
        u, policy = level, new
    return u, solves


def random_case(seed, nx):
    """A derandomized problem: Ho-Lee or Hull-White, a band or a degenerate
    one, a payoff with one to three kinks near the spot, and a step count
    that is often not a multiple of the table block."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    vs = ho_lee(rng.uniform(0.005, 0.02)) if seed % 2 else hull_white(rng.uniform(0.005, 0.02),
                                                                       rng.uniform(0.05, 0.5))
    lower = rng.uniform(0.2, 1.0)
    band = degenerate_band((lower,)) if seed % 3 == 0 else UncertaintyBand((lower,),
                                                                          (lower + rng.uniform(0.1, 1.0),))
    x0 = CURVE.forward_price(1.0, 1.5)
    k1, k2, k3 = np.sort(x0 * (1.0 + rng.uniform(-0.01, 0.01, size=3)))
    payoff = [
        lambda x: np.maximum(k1 - x, 0.0),
        lambda x: np.minimum(np.maximum(x - k1, 0.0), k2 - k1),
        lambda x: np.maximum(x - k1, 0.0) - 2.0 * np.maximum(x - k2, 0.0) + np.maximum(x - k3, 0.0),
        lambda x: np.minimum(x, k2),
    ][seed % 4]
    return vs, band, payoff, rng.uniform(0.3, 1.0), (33, 70, 1, 64, 45, 97)[seed % 6]


RANDOM_CASES = [(seed, nx) for nx in (3, 4, 41, 241) for seed in range(6)]


def solves_before_value_error(monkeypatch, sweep, *sweep_args) -> int:
    """Checks that sweep (a SWEEPS entry) raises the non-finite ValueError
    before any solve reads a non-finite input, and that numpy warns
    nothing; returns the number of solves made."""
    solve = pde._solve_tridiagonal
    inputs_finite = []

    def watched(*arrays):
        inputs_finite.append(all(np.isfinite(a).all() for a in arrays))
        return solve(*arrays)

    with monkeypatch.context() as m:
        m.setattr(pde, "_solve_tridiagonal", watched)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="infs or NaNs") as info:
                SWEEPS[sweep](*sweep_args)
    assert type(info.value) is ValueError
    assert all(inputs_finite)
    return len(inputs_finite)


def count_solves(monkeypatch, sweep, *sweep_args) -> int:
    """The number of solves sweep (a SWEEPS entry) makes on a problem."""
    with monkeypatch.context() as m:
        calls = count_banded_solves(m)
        SWEEPS[sweep](*sweep_args)
    return calls[0]


class TestTableDrivenSweep:
    """The one-row sweep reads its systems from per-block coefficient tables
    and solves in place: every value, policy and solve count is that of the
    one-row loop it replaced, and input is checked where it enters."""

    @pytest.mark.parametrize("seed, nx", RANDOM_CASES)
    def test_random_problems_match_reference_bytes(self, monkeypatch, seed, nx):
        vs, band, payoff, t1, nt = random_case(seed, nx)
        x0 = CURVE.forward_price(1.0, 1.5)
        grid = default_grid(x0, v_total(vs, max(band.upper), t1, 1.0, 1.5), nx=nx, nt=nt)
        for solve in (solve_single_option, solve_lower):
            got = solve(CURVE, vs, band, 1.0, t1, 1.5, payoff, grid)
            with monkeypatch.context() as m:
                m.setattr(pde, "_implicit_sweep", reference_implicit_sweep)
                ref = solve(CURVE, vs, band, 1.0, t1, 1.5, payoff, grid)
            assert got.value.hex() == ref.value.hex()
            assert got.u0.tobytes() == ref.u0.tobytes()

    @pytest.mark.parametrize("seed, nx", RANDOM_CASES)
    def test_solve_count_is_the_one_row_loops(self, monkeypatch, seed, nx):
        vs, band, payoff, t1, nt = random_case(seed, nx)
        problem = _problem(vs, band, payoff, nx, t1=t1, nt=nt)
        ref, ref_solves = one_row_loop(*problem)
        calls = count_banded_solves(monkeypatch)
        # A degenerate band's one table is a one-row fixed-volatility stack.
        got = SWEEPS["stacked" if problem[3] is problem[4] else "policy"](*problem)
        assert got.tobytes() == ref.tobytes()
        assert calls == [ref_solves]

    def test_convergence_error_names_the_step_in_a_later_block(self, monkeypatch):
        # Steps 69..30 carry no variance, so they keep the payoff's kinks,
        # and the first step that iterates on the policy is 29, in the
        # sweep's second table block.
        u, xs, dx, a_up, a_dn = _problem(VS, BAND, spread_payoff(), 41, nt=70)
        a_up, a_dn = a_up.copy(), a_dn.copy()
        a_up[30:] = a_dn[30:] = 0.0
        monkeypatch.setattr(pde, "POLICY_ITERATION_CAP", 1)
        with pytest.raises(ConvergenceError, match="within 1 iterations at time step 29"):
            pde._implicit_sweep(u, xs, dx, a_up, a_dn)

    @pytest.mark.parametrize("band", [BAND, degenerate_band((1.2,))], ids=["band", "degenerate"])
    def test_nan_terminal_value(self, monkeypatch, band):
        u, xs, dx, a_up, a_dn = _problem(VS, band, spread_payoff(), 41)
        u[20] = np.nan
        for sweep in SWEEPS:
            assert solves_before_value_error(monkeypatch, sweep, u, xs, dx, a_up, a_dn) == 0

    @pytest.mark.parametrize("band", [BAND, degenerate_band((1.2,))], ids=["band", "degenerate"])
    def test_inf_variance_table_entry(self, monkeypatch, band):
        # In the second table block, at the lower extreme: the payoff is
        # flat at both ends of the grid, where the policy picks the upper
        # extreme, so no boundary entry of a right-hand side is inf.
        u, xs, dx, a_up, a_dn = _problem(VS, band, spread_payoff(), 41, nt=70)
        a_dn = a_dn.copy()
        a_dn[20] = np.inf
        for sweep in SWEEPS:
            solves_before_value_error(monkeypatch, sweep, u, xs, dx, a_up, a_dn)

    def test_overflowing_boundary_sum(self, monkeypatch):
        # alpha[0] is 2, so alpha[0] * lo is 1e308; the first right-hand
        # side's entry u[1] + alpha[0] * lo is not finite.
        xs = np.linspace(1.0, 2.0, 11)
        dx = xs[1] - xs[0]
        a = np.full(5, 4.0 * dx**2 / xs[1] ** 2)
        u = np.zeros(11)
        u[0], u[1] = 5e307, 1e308
        for sweep in SWEEPS:
            assert solves_before_value_error(monkeypatch, sweep, u, xs, dx, a, a) == 0

    def test_finite_levels_whose_sums_overflow_solve(self):
        # Each level's sum is inf; the entrywise check behind it finds
        # every entry finite.
        xs = np.linspace(1.0, 2.0, 41)
        u = np.full(41, 1e308)
        a = np.full(30, 1e-8)
        want = one_row_loop(u, xs, xs[1] - xs[0], a, a)[0].tobytes()
        for sweep in SWEEPS.values():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = sweep(u, xs, xs[1] - xs[0], a, a)
            assert got.tobytes() == want

    def test_nan_inside_a_level_mid_sweep(self, monkeypatch):
        # From the third solve on, each solve leaves a NaN inside its level,
        # away from the entries the boundary terms are added to: no step may
        # solve from such a level.  The stacked sweep makes one solve a step,
        # so its fourth step must not solve.  (The policy sweep discards an
        # iterate that is not a step's last, so its count depends on where
        # the policy settles.)
        u, xs, dx, a_up, a_dn = _problem(VS, degenerate_band((1.2,)), spread_payoff(), 41)
        solve, calls = pde._solve_tridiagonal, [0]

        def leaving_a_nan(*arrays):
            x = solve(*arrays)
            calls[0] += 1
            if calls[0] >= 3:
                x[20] = np.nan
            return x

        monkeypatch.setattr(pde, "_solve_tridiagonal", leaving_a_nan)
        solves = {}
        for sweep in SWEEPS:
            calls[0] = 0
            solves[sweep] = solves_before_value_error(monkeypatch, sweep, u, xs, dx, a_up, a_dn)
        assert solves["stacked"] == 3 and solves["policy"] >= 3

    def test_overflowing_level_mid_sweep(self, monkeypatch):
        # Every input is finite; step 3's solve overflows (elimination of a
        # large-alpha system scales its right-hand side up), and step 2
        # must not solve from that level.
        xs = np.linspace(1.0, 2.0, 41)
        u = np.full(41, 1e307)
        u[0] = u[-1] = 0.0
        a = np.full(30, 1e-8)
        a[3] = 1e4
        dx = xs[1] - xs[0]
        for sweep in SWEEPS:
            # Every solve of steps 29..3, and none after.
            want = count_solves(monkeypatch, sweep, u, xs, dx, a[3:], a[3:])
            assert solves_before_value_error(monkeypatch, sweep, u, xs, dx, a, a) == want
        assert count_solves(monkeypatch, "stacked", u, xs, dx, a[3:], a[3:]) == 27

    def test_zero_variance_steps_in_a_band_problem(self, monkeypatch):
        # A step without variance is the identity system at both extremes:
        # the policy sweep iterates on it and keeps the one-row loop's bits.
        u, xs, dx, a_up, a_dn = _problem(VS, BAND, spread_payoff(), 41)
        a_up, a_dn = a_up.copy(), a_dn.copy()
        a_up[[0, 7, 8, 29]] = a_dn[[0, 7, 8, 29]] = 0.0
        ref, ref_solves = one_row_loop(u, xs, dx, a_up, a_dn)
        calls = count_banded_solves(monkeypatch)
        got = pde._implicit_sweep(u, xs, dx, a_up, a_dn)
        assert got.tobytes() == ref.tobytes()
        assert calls == [ref_solves]

    def test_policy_stop_scales_with_the_terminal_values(self):
        # Levels near 1e300 change by more than 1e-12 between iterates that
        # agree to the last few bits: an absolute stop never ends the first
        # step, and the iteration runs into its cap.
        xs = np.linspace(1.0, 2.0, 41)
        u = np.full(41, 1e300)
        u[0] = u[-1] = 0.0
        a_up = np.full(30, 1e-8)
        got = pde._implicit_sweep(u, xs, xs[1] - xs[0], a_up, 0.25 * a_up)
        assert got.tobytes() == one_row_loop(u, xs, xs[1] - xs[0], a_up, 0.25 * a_up)[0].tobytes()
        assert np.isfinite(got).all() and got.max() <= 1e300 * (1.0 + 1e-12)


def special_terminal_values(xs):
    """A kinked payoff whose level also holds +-0.0 (three of them in a row
    give a -0.0 second difference), subnormals and entries near 1e300 and
    1e307, where a second difference divided by dx**2 overflows to inf."""
    u = np.minimum(np.maximum(xs - 1.4, 0.0), 0.2)
    u[2:5] = -0.0, 0.0, -0.0
    u[6:10] = 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310
    u[12:15] = 1e300, -1e300, 1e300
    u[-4] = 1e307
    return u


# (terminal values, nodes) of problems on which the policy's sign rule is
# at an edge: spacing above 1 (the division stays) at ordinary magnitudes
# and at magnitudes up to the smallest normal, whose levels have second
# differences of a few subnormal units that a division by dx**2 = 6.25
# rounds to -0.0, and special terminal values on spacing below 1.
_WIDE = np.linspace(10.0, 110.0, 41)
_KINKED = (np.minimum(np.maximum(_WIDE - 55.0, 0.0), 20.0) - np.maximum(_WIDE - 80.0, 0.0)) / 20.0
SIGN_EDGES = {
    "wide": (_KINKED, _WIDE),
    "wide-tiny": (1e-308 * _KINKED, _WIDE),
    "special-values": (special_terminal_values(np.linspace(1.0, 2.0, 41)), np.linspace(1.0, 2.0, 41)),
}


class TestCurvatureSign:
    """The policy is the sign of the undivided second difference where
    0 < dx**2 <= 1 and of its quotient by dx**2 elsewhere: either way every
    value, policy and solve count is the divided reference's."""

    @pytest.mark.parametrize("name", SIGN_EDGES)
    def test_edges_match_the_divided_references(self, monkeypatch, name):
        u, xs = SIGN_EDGES[name]
        dx = (xs[-1] - xs[0]) / (len(xs) - 1)
        a = np.full(30, 1e-3 if dx > 1.0 else 2.5e-4)
        a_up, a_dn = 2.25 * a, 0.25 * a
        with np.errstate(over="ignore"):
            ref = reference_implicit_sweep(u, xs, dx, a_up, a_dn)
            row, ref_solves = one_row_loop(u, xs, dx, a_up, a_dn)
        assert row.tobytes() == ref.tobytes()
        calls = count_banded_solves(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pde._implicit_sweep(u, xs, dx, a_up, a_dn)
        assert got.tobytes() == ref.tobytes()
        assert calls == [ref_solves]

    def test_wide_spacing_divides(self):
        # Second differences of -5e-324 divided by 6.25 round to -0.0, so
        # the divided sign picks the upper extreme where the undivided one
        # would not (and would give other bytes than the reference).
        u, xs = SIGN_EDGES["wide-tiny"]
        dx = (xs[-1] - xs[0]) / (len(xs) - 1)
        v = u[2:] - 2.0 * u[1:-1] + u[:-2]
        assert dx > 1.0 and ((v / dx**2 >= 0.0) != (v >= 0.0)).any()

    def test_underflowing_spacing_raises_as_the_references(self, monkeypatch):
        # dx**2 is 0, so every coefficient is 0 / 0 or inf: each sweep
        # raises the non-finite ValueError before any solve.
        xs = np.linspace(1e-300, 2e-300, 41)
        dx = (xs[-1] - xs[0]) / 40
        assert dx > 0.0 and dx**2 == 0.0
        u = np.maximum(xs - 1.5e-300, 0.0)
        a = np.full(30, 1e-3)
        for reference in (reference_implicit_sweep, one_row_loop):
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
                reference(u, xs, dx, 2.25 * a, 0.25 * a)
        assert solves_before_value_error(monkeypatch, "policy", u, xs, dx, 2.25 * a, 0.25 * a) == 0


class TestStackedSweep:
    """The rows of a stack are independent fixed-volatility problems with
    their own grids and tables: each must equal its own sweep, the policy
    sweep and the reference, to the last bit.  window_values reads fixed
    volatility from the tables."""

    @pytest.mark.parametrize("name", STACKS)
    @pytest.mark.parametrize("nx", [3, 4, 41])
    def test_rows_equal_their_own_sweeps(self, name, nx):
        problems = STACKS[name](nx)
        got = stacked(problems)
        for row, problem in zip(got, problems):
            assert row.tobytes() == stacked([problem])[0].tobytes()
            assert row.tobytes() == pde._implicit_sweep(*problem).tobytes()
            assert row.tobytes() == reference_implicit_sweep(*problem).tobytes()

    def test_spacing_squared_as_in_one_problem(self):
        # On this grid dx**2 (a scalar power) and dx * dx differ in the last
        # bit: a stacked row must square its spacing as one problem does.
        grid = PDEGrid(x_min=1.0889, x_max=1.1, nx=41, nt=30)
        assert grid.dx**2 != grid.dx * grid.dx
        band = degenerate_band((1.2,))
        problem = (pde.cell_average(spread_payoff(1.094, 0.002), grid.xs, grid.dx), grid.xs,
                   grid.dx, *pde.window_tables(VS, band, (1.0, 1.5), 0.0, 1.0, 30))
        got = stacked([problem, _problem(VS, band, spread_payoff(), 41)])
        assert got[0].tobytes() == pde._implicit_sweep(*problem).tobytes()

    @pytest.mark.parametrize("nx", [3, 41])
    def test_degenerate_stack_is_one_solve_per_step(self, monkeypatch, nx):
        calls = count_banded_solves(monkeypatch)
        stacked(STACKS["degenerate"](nx))
        assert calls == [30]

    @pytest.mark.parametrize("nx", [(41, 41), (41, 81)], ids=["same-shape", "other-shape"])
    def test_stack_off_fixed_volatility_raises(self, nx):
        # The band row is named even where the shapes differ too.
        x0 = CURVE.forward_price(1.0, 1.5)
        grids = [default_grid(x0, 0.01, nx=n, nt=30) for n in nx]
        tables = [pde.window_tables(VS, band, (1.0, 1.5), 0.0, 1.0, 30)
                  for band in (degenerate_band((1.2,)), BAND)]
        with pytest.raises(ValueError, match="fixed volatility"):
            pde.window_values([spread_payoff()] * 2, grids, tables)

    @pytest.mark.parametrize("case", ["one-table", "equal-tables", "band"])
    def test_window_values_picks_the_sweep_from_the_tables(self, monkeypatch, case):
        # Fixed volatility, whether the tables are one array or two equal
        # ones, is one solve a step, even for a single row; a band iterates
        # on the policy as the one-row loop does.
        a_up, a_dn = pde.window_tables(VS, BAND, (1.0, 1.5), 0.0, 1.0, 30)
        tables = {"one-table": (a_up, a_up), "equal-tables": (a_up, a_up.copy()),
                  "band": (a_up, a_dn)}[case]
        grid = default_grid(CURVE.forward_price(1.0, 1.5), 0.01, nx=41, nt=30)
        u = pde.cell_average(spread_payoff(), grid.xs, grid.dx)
        ref_solves = one_row_loop(u, grid.xs, grid.dx, *tables)[1]
        calls = count_banded_solves(monkeypatch)
        got = pde.window_values([spread_payoff()], [grid], [tables])
        assert calls == [30 if case != "band" else ref_solves]
        assert case != "band" or ref_solves > 30
        assert got[0].tobytes() == reference_implicit_sweep(u, grid.xs, grid.dx, *tables).tobytes()

    def test_nan_in_equal_tables_is_a_non_finite_error(self):
        # Two equal tables with a NaN are fixed volatility as much as one
        # such table is: the stack names the NaN, not the band.
        grid = default_grid(CURVE.forward_price(1.0, 1.5), 0.01, nx=41, nt=30)
        a = pde.window_tables(VS, degenerate_band((1.2,)), (1.0, 1.5), 0.0, 1.0, 30)[0].copy()
        a[3] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            pde.window_values([spread_payoff()] * 2, [grid] * 2, [(a, a), (a, a.copy())])

    def test_non_converging_row_names_the_step(self, monkeypatch):
        problem = _problem(VS, BAND, spread_payoff(), 41, t1=0.8)
        monkeypatch.setattr(pde, "POLICY_ITERATION_CAP", 1)
        with pytest.raises(ConvergenceError, match="within 1 iterations at time step 29"):
            pde._implicit_sweep(*problem)

    @pytest.mark.parametrize("name", STACKS)
    def test_nan_in_one_row_raises_value_error(self, name):
        problems = STACKS[name](41)
        u = problems[1][0].copy()
        u[20] = np.nan
        problems[1] = (u, *problems[1][1:])
        with pytest.raises(ValueError, match="infs or NaNs"):
            stacked(problems)

    @pytest.mark.parametrize("nx, nt", [((41, 81), (30, 30)), ((41, 41), (30, 40))],
                             ids=["nx", "steps"])
    def test_rows_of_other_shapes_raise(self, nx, nt):
        x0 = CURVE.forward_price(1.0, 1.5)
        band = degenerate_band((1.2,))
        grids = [default_grid(x0, 0.01, nx=n, nt=k) for n, k in zip(nx, nt)]
        tables = [pde.window_tables(VS, band, (1.0, 1.5), 0.0, 1.0, k) for k in nt]
        want = rf"row 0 has \({nx[0]}, {nt[0]}\), row 1 has \({nx[1]}, {nt[1]}\)"
        with pytest.raises(ValueError, match=want):
            pde.window_values([spread_payoff()] * 2, grids, tables)


@st.composite
def fixed_stacks(draw):
    """One to four fixed-volatility problems on one nx and step count: Ho-Lee
    or Hull-White factors, degenerate bands, and payoffs of either sign,
    shifted in strike, level and grid centre."""
    nx = draw(st.sampled_from([3, 4, 41]))
    nt = draw(st.sampled_from([1, 7, 30, 70]))
    unit = st.floats(0.0, 1.0)
    problems = []
    for _ in range(draw(st.integers(1, 4))):
        c = 0.005 + 0.015 * draw(unit)
        vs = hull_white(c, 0.05 + 0.45 * draw(unit)) if draw(st.booleans()) else ho_lee(c)
        band = degenerate_band((0.05 + 1.95 * draw(unit),))
        strike = CURVE.forward_price(1.0, 1.5) * (0.99 + 0.02 * draw(unit))
        sign = draw(st.sampled_from([1.0, -1.0]))
        level = 0.02 * draw(unit) - 0.01
        kink = draw(st.sampled_from([
            lambda x, k: np.maximum(k - x, 0.0),
            lambda x, k: np.minimum(np.maximum(x - k, 0.0), 0.01),
            lambda x, k: np.minimum(x, k),
        ]))
        payoff = lambda x, kink=kink, k=strike, sign=sign, level=level: sign * kink(x, k) + level
        problems.append(_problem(vs, band, payoff, nx, t1=0.3 + 0.7 * draw(unit),
                                 shift=0.97 + 0.06 * draw(unit), nt=nt))
    return problems


class TestFixedVolatilityStacks:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(problems=fixed_stacks())
    def test_rows_equal_their_own_sweeps_and_the_reference(self, problems):
        with pytest.MonkeyPatch.context() as m:
            calls = count_banded_solves(m)
            got = stacked(problems)
        assert calls == [len(problems[0][3])]
        for row, problem in zip(got, problems):
            assert row.tobytes() == stacked([problem])[0].tobytes()
            assert row.tobytes() == pde._implicit_sweep(*problem).tobytes()
            assert row.tobytes() == reference_implicit_sweep(*problem).tobytes()


class TestSolveOptions:
    """Checks and shared tables of single-option solves."""

    def test_spot_outside_a_row_grid_raises(self):
        grid = PDEGrid(x_min=0.5, x_max=0.9, nx=41, nt=30)
        with pytest.raises(DomainError, match="outside the grid"):
            solve_single_option(CURVE, VS, degenerate_band((1.5,)), 1.0, 0.7, 1.5,
                                put_payoff(), grid)

    def test_shared_tables_change_nothing(self):
        x0 = CURVE.forward_price(1.0, 1.5)
        grid = default_grid(x0, v_total(VS, 1.5, 1.0, 1.0, 1.5), nx=41, nt=30)
        tables = pde.window_tables(VS, BAND, (1.0, 1.5), 0.0, 1.0, 30)
        for solve in (solve_single_option, solve_lower):
            own = solve(CURVE, VS, BAND, 1.0, 1.0, 1.5, spread_payoff(), grid)
            shared = solve(CURVE, VS, BAND, 1.0, 1.0, 1.5, spread_payoff(), grid, tables)
            assert own.value.hex() == shared.value.hex()
            assert own.u0.tobytes() == shared.u0.tobytes()


class TestValidation:
    def test_grid_invariants(self):
        with pytest.raises(DomainError):
            PDEGrid(x_min=0.0, x_max=1.0, nx=10, nt=10)
        with pytest.raises(DomainError):
            PDEGrid(x_min=0.5, x_max=1.0, nx=2, nt=10)
        with pytest.raises(DomainError):
            PDEGrid(x_min=0.5, x_max=1.0, nx=10, nt=0)

    def test_expiry_ordering(self):
        grid = PDEGrid(x_min=0.5, x_max=1.5, nx=11, nt=10)
        with pytest.raises(DomainError):
            solve_single_option(CURVE, VS, BAND, 1.0, 2.0, 1.5, put_payoff(), grid)

    def test_nan_expiry_is_a_domain_error(self):
        grid = PDEGrid(x_min=0.5, x_max=1.5, nx=11, nt=10)
        with pytest.raises(DomainError, match="nonnegative, got nan"):
            solve_single_option(CURVE, VS, BAND, 1.0, math.nan, 1.5, put_payoff(), grid)
