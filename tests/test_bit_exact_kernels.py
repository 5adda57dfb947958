"""The oracle and Monte Carlo kernels against straightforward reference
copies of themselves, compared by float.hex() or bytes (== for the Monte
Carlo swaption's bounds).

The package kernels write into preallocated buffers and draw each seed
once; the references below allocate a fresh array per operation, as the
kernels did before.  Every floating-point operation and its order are the
same, so every output must be the same to the last bit.

The lattice reference steps the whole tree back with the lattice's own
(2, 3) @ (3, m) kernel product; the bits of a product element depend on the
BLAS build.  The elementwise kernel the lattice used before stays as a
second reference, within the rounding bound steps * 2^-52 * max|payoff|.
Likewise the scenario and Monte Carlo swaption references fill one
(pairs, paths) product over all paths at once, as the one sampler
(mc._member_moves, mc._block_moments) does per path block, from loadings
built by scalar integrals, and fold its statistics one path block at a time
as the sampler does; the (paths, pairs) forms and whole-array statistics
the kernels used before stay as second references within stated bounds.
"""

import math
import tracemalloc

import numpy as np
import pytest

from robust_rates import mc as mc_module, option_pricing
from robust_rates.curve import DiscountCurve
from robust_rates.errors import DomainError, StabilityError, UnsupportedMethodError
from robust_rates.linear_pricing import LinearContract, TenorSchedule
from robust_rates.mc import (MCConfig, _member_moves, mean_and_se, normals, path_blocks,
                              terminal_prices)
from robust_rates.option_pricing import OptionContract, price_swaption
from robust_rates.oracle import (
    LATTICE_STRETCH,
    LATTICE_WINDOW_SIGMAS,
    MIN_LATTICE_STEPS,
    PiecewiseControls,
    _branch_probabilities,
    _control_family,
    lattice_price,
    scenario_sup,
)
from robust_rates.stream import (
    capped_call_spread_leg,
    caplet_leg,
    floorlet_leg,
    in_arrears_leg,
    transformed_strike,
)
from robust_rates.uncertainty import UncertaintyBand, degenerate_band
from robust_rates.vol_structure import (
    HoLeeFactor,
    HullWhiteFactor,
    TabulatedFactor,
    VolStructure,
    ho_lee,
    hull_white,
    single_factor,
)

from streamed_moments import streamed_moments

CURVE = DiscountCurve(knots=((0.0, 0.015), (2.0, 0.025), (10.0, 0.03)))
TAB = TabulatedFactor(t_grid=(0.0, 0.3, 3.0), maturity_grid=(0.0, 1.5, 10.0),
                      values=((0.01, 0.008, 0.007), (0.011, 0.012, 0.006), (0.012, 0.009, 0.01)))
BAND = UncertaintyBand((0.5,), (1.5,))
VS_2F = VolStructure(factors=(HullWhiteFactor(c=0.01, kappa=0.2), HoLeeFactor(c=0.006)))
BAND_2F = UncertaintyBand((0.5, 0.8), (1.5, 1.2))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- reference kernels -------------------------------------------------------------


def ref_normals(seed, n_paths, n_cols, antithetic=False):
    gen = np.random.Generator(np.random.Philox(key=seed))
    if not antithetic:
        return gen.standard_normal((n_paths, n_cols))
    half = n_paths // 2
    z = gen.standard_normal((half, n_cols))
    blocks = [z, -z]
    if n_paths % 2:
        blocks.append(gen.standard_normal((1, n_cols)))
    return np.vstack(blocks)


def product_step(kernel, values):
    """One backward step over the whole tree: the (2, 3) kernel, rows (v_dn,
    v_up) and columns (p_down, p_mid, p_up), times the (3, m) children.  The
    last step has one column, where numpy leaves the matrix product for
    another BLAS path, so the children are padded to three columns."""
    m = len(values) - 2
    children = np.stack((values[:-2], values[1:-1], values[2:]))
    if m < 3:
        children = np.pad(children, ((0, 0), (0, 3 - m)))
    cand = np.matmul(kernel, children)
    return np.maximum(cand[0], cand[1])[:m]


def elementwise_step(kernel, values):
    """One backward step as the lattice took it before the kernel product:
    p_up * child_u + p_mid * child_m + p_down * child_d, left to right, for
    both kernels at once."""
    pd, pm, pu = kernel.T[..., None]
    cand = pu * values[2:] + pm * values[1:-1] + pd * values[:-2]
    return np.maximum(cand[0], cand[1])


def ref_lattice_price(curve, vs, band, T, t1, T_i, payoff, steps, step=product_step):
    if vs.dim != 1 or band.dim != 1:
        raise UnsupportedMethodError("one factor only")
    if steps < MIN_LATTICE_STEPS:
        raise DomainError("too few steps")
    x0 = curve.forward_price(T, T_i)
    v_dn, v_up = vs.extreme_variances(band.lower, band.upper, np.linspace(0.0, t1, steps + 1), T, T_i)
    v_max = float(np.max(v_up))
    if v_max <= 0.0:
        return float(np.asarray(payoff(np.array([x0])), dtype=float)[0])
    h = LATTICE_STRETCH * math.sqrt(v_max)
    pu, pm, pd = _branch_probabilities(np.array([v_dn, v_up]), h)  # each (2, steps)
    kernels = np.stack((pd.T, pm.T, pu.T), axis=-1)
    if kernels.min() < 0.0 or kernels.max() > 1.0:
        raise StabilityError("branch probabilities out of [0, 1]")
    nodes = np.arange(-steps, steps + 1)
    values = np.asarray(payoff(x0 * np.exp(h * nodes)), dtype=float)
    for k in range(steps - 1, -1, -1):
        values = step(kernels[k], values)
    return float(values[0])


def assert_rounds_to_elementwise(got, args):
    """got is within steps * 2^-52 * max|payoff| (over the tree's nodes) of
    the elementwise kernel's value."""
    *market, payoff, steps = args
    peak = []

    def recorded(p):
        values = payoff(p)
        peak.append(float(np.max(np.abs(values))))
        return values

    want = ref_lattice_price(*market, recorded, steps, step=elementwise_step)
    assert abs(got - want) <= steps * 2.0**-52 * peak[0]


def segment_loadings(vs, segments, t_end, pairs) -> np.ndarray:
    """(pairs, columns) loadings L of the log forward prices over [0, t_end]
    (zero on a segment outside it), from scalar integrals.  For one pair or
    a separable structure, one column per segment and factor: the stdev
    |level| sqrt(fp_cov_integral).  Otherwise, per segment, the columns of
    the eigen-factor of the pairs' covariance matrix, one
    integrated_covariance call per entry on and above the diagonal."""
    windows = [(max(lo, 0.0), min(hi, t_end), scale) for lo, hi, scale in segments]
    if len(pairs) == 1 or vs.is_separable():
        return np.array([[abs(s) * math.sqrt(max(f.fp_cov_integral(lo, hi, p, p), 0.0)) if hi > lo else 0.0
                          for lo, hi, scale in windows for s, f in zip(scale, vs.factors)] for p in pairs])
    n, blocks = len(pairs), []
    for lo, hi, scale in windows:
        cov = np.array([[vs.integrated_covariance(scale, lo, hi, pairs[min(a, b)], pairs[max(a, b)])
                         if hi > lo else 0.0 for b in range(n)] for a in range(n)])
        evals, evecs = np.linalg.eigh(cov)
        blocks.append(evecs @ np.diag(np.sqrt(np.maximum(evals, 0.0))))
    return np.hstack(blocks)


def ref_terminal_forward_prices(loads, x0s, z):
    """(pairs, paths) prices x0 exp(-L z - v/2) for draws z of shape
    (columns, paths), v the row sums of L^2: one loading matrix times the
    draws, over all paths at once."""
    log_move = np.matmul(-loads, z)
    total_var = np.sum(loads**2, axis=1, keepdims=True)
    return np.array(x0s)[:, None] * np.exp(log_move - 0.5 * total_var)


def column_terminal_forward_prices(loads, x0s, z):
    """The same (pairs, paths) prices, each pair's log move its own dot over
    the draws' columns, as the kernel made them before."""
    out = np.empty((len(x0s), z.shape[1]))
    for a, (row, x0) in enumerate(zip(loads, x0s)):
        out[a] = x0 * np.exp(np.dot(-row, z) - 0.5 * float(np.sum(row**2)))
    return out


def ref_swaption_value_mc(curve, vs, sigma, contract, mc):
    """The streamed (mean, se) on a (periods, paths) array; then mean_and_se
    of that array and of the (paths, periods) array the kernel filled
    before, the forms it took before: the one-segment constant member at
    sigma, its loadings from segment_loadings."""
    s = contract.schedule
    t0 = s.start
    pairs = [(t0, t) for t in s.dates[1:]]
    xs = np.array([curve.forward_price(*p) for p in pairs])
    coefs = np.array(s.accruals) * contract.strike_rate
    coefs[-1] += 1.0
    loads = segment_loadings(vs, [(0.0, t0, sigma)], t0, pairs)
    half_var = 0.5 * np.sum(loads**2, axis=1, keepdims=True)
    z = ref_normals(mc.seed, mc.paths, loads.shape[1], antithetic=mc.antithetic)
    log_x = np.matmul(-loads, z.T) - half_var
    periods_major = np.maximum(1.0 - coefs @ (xs[:, None] * np.exp(log_x)), 0.0)
    log_x = -(z @ loads.T) - half_var.T
    paths_major = np.maximum(1.0 - (xs * np.exp(log_x)) @ coefs, 0.0)
    mean, m2 = streamed_moments(periods_major)
    return ((mean, math.sqrt(m2 / (mc.paths - 1) / mc.paths)), mean_and_se(periods_major),
            mean_and_se(paths_major))


# -- normals -----------------------------------------------------------------------


class TestNormals:
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("n_cols", [1, 4, 40])
    @pytest.mark.parametrize("n_paths", [1, 2, 7, 10, 1001, 20001])
    def test_matches_reference(self, n_paths, n_cols, antithetic):
        for seed in (0, 5, 2**127 + 3):
            got = normals(seed, n_paths, n_cols, antithetic)
            assert same_bits(got, ref_normals(seed, n_paths, n_cols, antithetic).T)
            assert got.flags.c_contiguous


# -- lattice -----------------------------------------------------------------------

LEG = capped_call_spread_leg(0.97, 0.02)


class TestLattice:
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("vs", [ho_lee(0.015), hull_white(0.012, 0.1)], ids=["ho-lee", "hull-white"])
    @pytest.mark.parametrize("steps", [10, 57, 300])
    def test_matches_reference(self, steps, vs, side):
        sign = 1.0 if side == "upper" else -1.0
        args = (CURVE, vs, BAND, 1.0, 1.0, 1.5, lambda p: sign * LEG.payoff(p), steps)
        got = lattice_price(*args)
        assert got.hex() == ref_lattice_price(*args).hex()
        assert_rounds_to_elementwise(got, args)

    def test_degenerate_band_matches_reference(self):
        args = (CURVE, hull_white(0.012, 0.1), degenerate_band(1.2), 1.0, 1.0, 1.5, LEG.payoff, 57)
        got = lattice_price(*args)
        assert got.hex() == ref_lattice_price(*args).hex()
        assert_rounds_to_elementwise(got, args)

    def test_cached_payoff_array_comes_back_unmodified(self):
        cache = {}

        def payoff(p):
            # Hands out the same array object on every call, as a memoizing
            # payoff would.
            if "v" not in cache:
                cache["v"] = LEG.payoff(p)
                cache["as_returned"] = cache["v"].copy()
            return cache["v"]

        args = (CURVE, ho_lee(0.015), BAND, 1.0, 1.0, 1.5, payoff, 57)
        v = lattice_price(*args)
        assert same_bits(cache["v"], cache["as_returned"])
        assert v.hex() == lattice_price(*args).hex() == ref_lattice_price(*args).hex()


# The audit's lattices: 2000 steps, one 6-month period starting at 2y; the node
# window (+-12 sigma) covers about 450 of the 2001 terminal nodes either side.
AUDIT_MODELS = {"ho-lee": ho_lee(0.01), "hull-white": hull_white(0.012, 0.1)}
AUDIT_LEGS = {"caplet": caplet_leg(0.5, 0.03), "spread": capped_call_spread_leg(0.985, 0.01)}


def window_half_width(vs, band, T, t1, T_i, steps) -> int:
    """J: the lattice updates the nodes |j| <= J, from the same step tables."""
    _, v_up = vs.extreme_variances(band.lower, band.upper, np.linspace(0.0, t1, steps + 1), T, T_i)
    h = LATTICE_STRETCH * math.sqrt(float(np.max(v_up)))
    return math.ceil(LATTICE_WINDOW_SIGMAS * math.sqrt(float(np.sum(v_up))) / h)


def grid_sizes(payoff, sizes):
    def recorded(p):
        sizes.append(len(p))
        return payoff(p)
    return recorded


class TestTruncatedLattice:
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("model", AUDIT_MODELS)
    @pytest.mark.parametrize("what", AUDIT_LEGS)
    def test_audit_lattices_match_reference(self, what, model, side):
        sign = 1.0 if side == "upper" else -1.0
        leg, vs, sizes = AUDIT_LEGS[what], AUDIT_MODELS[model], []
        args = (CURVE, vs, BAND, 2.0, 2.0, 2.5, lambda p: sign * leg.payoff(p), 2000)
        got = lattice_price(*args[:6], grid_sizes(args[6], sizes), 2000)
        assert got.hex() == ref_lattice_price(*args).hex()
        assert_rounds_to_elementwise(got, args)
        J = window_half_width(vs, BAND, 2.0, 2.0, 2.5, 2000)
        assert J < 500 and sizes == [2 * J + 3]

    @pytest.mark.parametrize("band", [BAND, degenerate_band((1.2,))], ids=["band", "degenerate"])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("model", AUDIT_MODELS)
    @pytest.mark.parametrize("excess", [-2, -1, 0, 1])
    def test_window_edges_match_reference(self, model, excess, side, band):
        # Step counts where J = steps + excess: at excess -2 the outermost
        # nodes +-(steps - 1) are first held at their payoff values; from
        # excess -1 on the window spans the whole tree.  The lower side
        # takes the other row of the (2, n) pass at the kinks; at a
        # degenerate band both rows are the same.
        vs, sign = AUDIT_MODELS[model], 1.0 if side == "upper" else -1.0
        steps = next(n for n in range(MIN_LATTICE_STEPS, 400)
                     if window_half_width(vs, band, 2.0, 2.0, 2.5, n) == n + excess)
        payoff, sizes = lambda p: sign * AUDIT_LEGS["spread"].payoff(p), []
        args = (CURVE, vs, band, 2.0, 2.0, 2.5, payoff, steps)
        got = lattice_price(*args[:6], grid_sizes(payoff, sizes), steps)
        assert got.hex() == ref_lattice_price(*args).hex()
        assert_rounds_to_elementwise(got, args)
        assert sizes == [2 * min(steps + excess + 1, steps) + 1]

    @pytest.mark.parametrize("model", AUDIT_MODELS)
    def test_non_affine_tails_within_tail_bound(self, model):
        # Held outer nodes are exact for a payoff affine in its tails (both
        # kernels keep the mean); -cos(40 log x) oscillates out to +-J and
        # beyond (a +-4 sigma window moves this lower bound by about 1e-7).
        # A path leaves the window with probability below e^-50, so the root
        # moves by at most that times the payoff's range, 2.
        payoff = lambda p: -np.cos(40.0 * np.log(p))
        args = (CURVE, AUDIT_MODELS[model], BAND, 2.0, 2.0, 2.5, payoff, 2000)
        got = lattice_price(*args)
        assert abs(got - ref_lattice_price(*args)) <= 2.0 * math.exp(-50.0)
        assert_rounds_to_elementwise(got, args)


# -- leg payoffs ---------------------------------------------------------------------


class TestLegPayoffs:
    """Caplet, floorlet and in-arrears payoffs work in one array: the plain
    formula's operations, in its order, on the scalars it accepts too."""

    KI = transformed_strike(0.5, 0.04)
    PLAIN = {
        caplet_leg: lambda p, ki: np.maximum(ki - p, 0.0) / ki,
        floorlet_leg: lambda p, ki: np.maximum(p - ki, 0.0) / ki,
        in_arrears_leg: lambda p, ki: 1.0 / p - 1.0 / ki,
    }

    @pytest.mark.parametrize("make_leg", list(PLAIN), ids=lambda f: f.__name__)
    def test_same_bits_as_the_plain_formula(self, make_leg):
        ki, plain = self.KI, self.PLAIN[make_leg]
        leg = make_leg(0.5, 0.04)
        p = np.concatenate((np.random.default_rng(3).uniform(0.9, 1.1, 10_000),
                            [ki, np.nextafter(ki, 0.0), np.nextafter(ki, 2.0), math.nan]))
        assert same_bits(leg.payoff(p), plain(p, ki))
        assert same_bits(leg.payoff(p[:7].reshape(7, 1)), plain(p[:7].reshape(7, 1), ki))
        for x in (0.97, ki, np.float64(1.02), np.asarray(0.99)):
            assert same_bits(leg.payoff(x), np.asarray(plain(x, ki)))
            assert same_bits(leg(x), np.asarray(plain(x, ki)))


# -- terminal forward prices ----------------------------------------------------------


def terminal_forward_prices(moves, x0s, z):
    """The kernel's (pairs, paths) prices for one member's moves and draws z
    of shape (columns, paths), in a fresh array."""
    out = np.empty((len(x0s), z.shape[1]))
    terminal_prices(*moves, np.array(x0s)[:, None], z, out)
    return out


class TestTerminalForwardPrices:
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("vs, band", [(ho_lee(0.015), BAND), (VS_2F, BAND_2F), (single_factor(TAB), BAND)],
                             ids=["1f", "2f", "tabulated"])
    @pytest.mark.parametrize("switches", [(), (0.7, 1.2)], ids=["constant", "piecewise"])
    def test_matches_reference(self, switches, vs, band, antithetic):
        t_end = 2.0
        pairs = [(2.0, 2.5), (2.0, 3.0), (2.0, 4.0)]
        x0s = [CURVE.forward_price(*p) for p in pairs]
        family, _ = _control_family(band, PiecewiseControls(2, switches), t_end)
        moves, first_moves = (_member_moves(vs, family, t_end, p) for p in (pairs, pairs[:1]))
        for segments, member, first in zip(family, moves, first_moves):
            loads, first_loads = (segment_loadings(vs, segments, t_end, p) for p in (pairs, pairs[:1]))
            z = normals(9, 1001, loads.shape[1], antithetic)
            got = terminal_forward_prices(member, x0s, z)
            assert same_bits(got, ref_terminal_forward_prices(loads, x0s, z))
            # One pair's row is the gemv of the per-column form, bit for bit.
            z_first = z[:first_loads.shape[1]]
            assert same_bits(terminal_forward_prices(first, x0s[:1], z_first),
                             column_terminal_forward_prices(first_loads, x0s[:1], z_first))
            # Several pairs' rows sum their k <= 9 terms in BLAS's order: the
            # log moves (|move| < 1) then differ by under an ulp of the exp's
            # input, and the prices by at most 4 ulp.
            columns = column_terminal_forward_prices(loads, x0s, z)
            assert np.all(np.abs(got - columns) <= 4 * np.spacing(columns))


    @pytest.mark.parametrize("vs", [
        ho_lee(0.015), hull_white(0.012, 0.1), VS_2F, single_factor(TAB),
        VolStructure(factors=(TAB, HullWhiteFactor(c=0.01, kappa=0.2))),
        VolStructure(factors=(HoLeeFactor(c=1e153), HullWhiteFactor(c=1e160, kappa=0.1))),
    ], ids=["ho-lee", "hull-white", "2f", "tabulated", "tabulated-hw", "overflowing"])
    @pytest.mark.parametrize("switches", [(), (0.7,), (0.7, 1.2, 1.2), (0.3, 1.0, 2.5)],
                             ids=["constant", "one", "repeated", "past-t-end"])
    @pytest.mark.parametrize("pairs", [[(1.0, 1.5), (1.0, 2.0), (1.0, 4.0)], [(1.5, 1.0)]],
                             ids=["swaption", "floating-leg"])
    def test_member_moves_equal_scalar_loadings(self, vs, switches, pairs):
        """One unscaled stdev table scaled by each member's |levels|, or per
        segment the eigen-factor of one covariance table per factor, has the
        bits of the loadings from scalar integrals (negated), and the half
        variances those of their row sums of squares."""
        band = UncertaintyBand((0.5,) * vs.dim, (1.5,) * vs.dim)
        family, _ = _control_family(band, PiecewiseControls(2, switches), 2.0)
        for segments, (loads, half_var) in zip(family, _member_moves(vs, family, 1.0, pairs)):
            want = segment_loadings(vs, segments, 1.0, pairs)
            assert same_bits(loads, -want)
            assert same_bits(half_var, 0.5 * np.sum(want**2, axis=1, keepdims=True))

    @pytest.mark.parametrize("n_paths", [8191, 8193, 20001])
    @pytest.mark.parametrize("k", [1, 3, 4, 8])
    def test_one_row_is_independent_of_block_width(self, monkeypatch, k, n_paths):
        """One row's product reads contiguous draw rows (a gemv, or the
        broadcast multiply for one column), so 64-path blocks give every
        path its unblocked bits."""
        loads = -np.abs(np.random.default_rng(k).normal(0.0, 0.1, (1, k)))
        moves = (loads, 0.5 * np.sum(loads**2, axis=1, keepdims=True))
        z = normals(11, n_paths, k, True)
        whole = terminal_forward_prices(moves, [0.98], z)
        monkeypatch.setattr(mc_module, "_PATH_BLOCK", 64)
        width, blocks = path_blocks(n_paths)
        x, blocked = np.empty((1, width)), np.empty((1, n_paths))
        for cols in blocks:  # as the sampler fills its (pairs, block) buffer
            x_cols = x[:, :cols.stop - cols.start]
            terminal_prices(*moves, np.array([[0.98]]), z[:, cols], x_cols)
            blocked[:, cols] = x_cols
        assert same_bits(blocked, whole)

    def test_non_finite_covariance_is_a_domain_error(self):
        huge = UncertaintyBand((1e160,), (1e160,))
        family, _ = _control_family(huge, PiecewiseControls(1), 2.0)
        with pytest.raises(DomainError, match="factor level too large"):
            _member_moves(single_factor(TAB), family, 1.0, [(1.0, 1.5), (1.0, 2.0)])


# -- Monte Carlo swaption -----------------------------------------------------------------

SWAPTION = OptionContract(
    kind="swaption-payer", schedule=TenorSchedule(dates=(1.0, 1.5, 2.0, 3.0, 4.0)),
    strike_rate=0.025, notional=-3.0,
)
# 40 periods, as the benchmark's two-factor swaption: BLAS groups the rows of
# a 40-column product differently from a 4-column one.
LONG_SWAPTION = OptionContract(
    kind="swaption-payer", schedule=TenorSchedule(dates=tuple(1.0 + 0.2 * k for k in range(41))),
    strike_rate=0.03, notional=-3.0,
)


class TestMonteCarloSwaption:
    @pytest.fixture
    def normals_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return normals(*args, **kwargs)

        monkeypatch.setattr(mc_module, "normals", counted)
        return calls

    def check(self, vs, band, mc, normals_calls, swaption=SWAPTION):
        b = price_swaption(CURVE, vs, band, swaption, method="monte-carlo", mc=mc)
        assert len(normals_calls) == 1
        p0 = CURVE.bond_price(swaption.schedule.start)
        got = (b.lower, b.upper, b.diagnostics["se_lower"], b.diagnostics["se_upper"])
        refs = zip(ref_swaption_value_mc(CURVE, vs, band.lower, swaption, mc),
                   ref_swaption_value_mc(CURVE, vs, band.upper, swaption, mc))
        for form, ((lo_mean, lo_se), (hi_mean, hi_se)) in enumerate(refs):
            lo, hi = swaption.notional * (p0 * lo_mean), swaption.notional * (p0 * hi_mean)
            want = (min(lo, hi), max(lo, hi), p0 * lo_se, p0 * hi_se)
            if form == 0:
                assert got == want
            else:
                # The whole-array statistics sum the payoffs (in [0, 1]) and
                # their squared deviations in other orders: the means move by
                # a few ulp and the se, M2 a sum of paths nonnegative terms,
                # by at most paths * 2^-52 of itself.  A (paths, periods)
                # array also sums each path's n periods in another order; a
                # payoff is nonzero only where that sum is below 1, so the
                # payoffs move by at most n * 2^-52, and the scaling by 2 more.
                n = swaption.schedule.periods
                tol = (n + 2) * 2.0**-52 * p0 * abs(swaption.notional)
                assert max(abs(g - w) for g, w in zip(got[:2], want[:2])) <= tol
                assert all(abs(g - w) <= tol + mc.paths * 2.0**-52 * w
                           for g, w in zip(got[2:], want[2:]))

    @pytest.mark.parametrize("paths", [2000, 2001])
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("vs, band", [
        (ho_lee(0.015), BAND), (hull_white(0.012, 0.1), BAND), (VS_2F, BAND_2F),
    ], ids=["ho-lee", "hull-white", "2f"])
    def test_separable_matches_reference(self, vs, band, antithetic, paths, normals_calls):
        self.check(vs, band, MCConfig(paths=paths, seed=23, antithetic=antithetic), normals_calls)

    def test_degenerate_band_prices_one_extreme(self, monkeypatch, normals_calls):
        families = []

        def counted(vs, family, *args):
            families.append(family)
            return _member_moves(vs, family, *args)

        monkeypatch.setattr(option_pricing, "_member_moves", counted)
        self.check(VS_2F, degenerate_band((1.1, 0.9)), MCConfig(paths=2001, seed=3), normals_calls)
        assert [len(family) for family in families] == [1]

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_tabulated_matches_reference(self, antithetic, normals_calls):
        self.check(single_factor(TAB), BAND, MCConfig(paths=2001, seed=41, antithetic=antithetic),
                   normals_calls)

    # With 64-path blocks: one block short of full, one full block, one or
    # two paths over, and two blocks plus one or two paths.  A last block of
    # one path joins the block before it.
    BLOCK_EDGES = [63, 64, 65, 66, 129, 130]

    @pytest.mark.parametrize("paths", BLOCK_EDGES)
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("vs, band", [
        (ho_lee(0.015), BAND), (hull_white(0.012, 0.1), BAND), (VS_2F, BAND_2F),
    ], ids=["ho-lee", "hull-white", "2f"])
    def test_separable_block_edges_match_reference(self, monkeypatch, vs, band, antithetic,
                                                   paths, normals_calls):
        monkeypatch.setattr(mc_module, "_PATH_BLOCK", 64)
        self.check(vs, band, MCConfig(paths=paths, seed=29, antithetic=antithetic), normals_calls,
                   LONG_SWAPTION)

    @pytest.mark.parametrize("paths", BLOCK_EDGES)
    @pytest.mark.parametrize("antithetic", [True, False])
    def test_non_separable_block_edges_match_reference(self, monkeypatch, antithetic, paths,
                                                       normals_calls):
        monkeypatch.setattr(mc_module, "_PATH_BLOCK", 64)
        monkeypatch.setattr(VolStructure, "is_separable", lambda self: False)
        self.check(VS_2F, BAND_2F, MCConfig(paths=paths, seed=37, antithetic=antithetic),
                   normals_calls, LONG_SWAPTION)

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_non_separable_matches_reference(self, monkeypatch, antithetic, normals_calls):
        # A tabulated surface takes the eigen-factorized joint-covariance
        # path; routing the two-factor structure through it keeps the
        # covariances closed-form and the test fast.
        monkeypatch.setattr(VolStructure, "is_separable", lambda self: False)
        self.check(VS_2F, BAND_2F, MCConfig(paths=2001, seed=31, antithetic=antithetic),
                   normals_calls)


# -- Monte Carlo memory ---------------------------------------------------------------------


def traced_peak(f) -> int:
    """Peak traced bytes of one call of f, after a first call has warmed every cache."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMonteCarloMemory:
    """The Monte Carlo kernels work in path blocks and fold each member's
    statistics one path block at a time: no (paths, periods) array and
    nothing of path size per family member, only one draw, the (pairs,
    block) buffer and the payoff's own (block,) vector."""

    PATHS = 20_000

    @pytest.mark.parametrize("n_paths, n_cols, antithetic", [(100_001, 4, True), (20_001, 32, False)])
    def test_draw_holds_one_draw_and_one_chunk(self, n_paths, n_cols, antithetic):
        # The paths pass through one chunk of _PATH_BLOCK doubles on their
        # way to their columns; 4 kB more for the generator and the views.
        peak = traced_peak(lambda: normals(3, n_paths, n_cols, antithetic))
        draw = n_paths * n_cols * 8
        chunk = mc_module._PATH_BLOCK * 8
        assert draw < peak <= draw + chunk + 4 * 1024

    def test_swaption_holds_no_paths_by_periods_array(self):
        mc = MCConfig(paths=self.PATHS, seed=1)
        peak = traced_peak(lambda: price_swaption(CURVE, VS_2F, BAND_2F, LONG_SWAPTION,
                                                  method="monte-carlo", mc=mc))
        periods = LONG_SWAPTION.schedule.periods
        draw = self.PATHS * VS_2F.dim * 8  # one segment
        pairs_block = mc_module._PATH_BLOCK * periods * 8  # the 40 pairs' forward prices
        payoff = mc_module._PATH_BLOCK * 8  # coefs @ x
        assert peak < draw + pairs_block + payoff + 64 * 1024

    @pytest.mark.parametrize("kind", ["cap", "floor", "in-arrears-payer-swap", "payer-swap"])
    @pytest.mark.parametrize("vs, band", [(ho_lee(0.015), BAND), (VS_2F, BAND_2F)], ids=["1f", "2f"])
    def test_piecewise_family_holds_one_draw_and_block_buffers(self, vs, band, kind):
        schedule = TenorSchedule(dates=(1.0, 1.5, 2.0, 2.5))
        contract = (LinearContract(kind=kind, schedule=schedule, fixed_rate=0.04)
                    if kind == "payer-swap" else
                    OptionContract(kind=kind, schedule=schedule, strike_rate=0.04))
        controls = PiecewiseControls(2, (0.25, 0.5, 0.75))  # 16 members over 4 segments
        mc = MCConfig(paths=self.PATHS, seed=1)
        peak = traced_peak(lambda: scenario_sup(CURVE, vs, band, contract, controls, mc))
        draw = self.PATHS * 4 * vs.dim * 8
        block_buffers = mc_module._PATH_BLOCK * (1 + 1) * 8  # one pair, the payoff's prices
        assert peak < draw + block_buffers + 64 * 1024

    @pytest.mark.parametrize("vs, band", [(ho_lee(0.015), BAND), (VS_2F, BAND_2F)], ids=["1f", "2f"])
    def test_piecewise_swaption_family_holds_one_draw_and_one_pairs_block(self, vs, band):
        swaption = OptionContract(kind="swaption-payer", strike_rate=0.03,
                                  schedule=TenorSchedule(dates=tuple(1.0 + 0.25 * k for k in range(9))))
        controls = PiecewiseControls(2, (0.25, 0.5, 0.75))  # 16 members over 4 segments
        mc = MCConfig(paths=self.PATHS, seed=1)
        peak = traced_peak(lambda: scenario_sup(CURVE, vs, band, swaption, controls, mc))
        draw = self.PATHS * 4 * vs.dim * 8
        pairs_block = mc_module._PATH_BLOCK * 8 * 8  # the 8 pairs' forward prices
        payoff = mc_module._PATH_BLOCK * 8  # coefs @ x
        assert peak < draw + pairs_block + payoff + 64 * 1024

    def test_non_separable_swaption_family_holds_one_draw_and_one_pairs_block(self, monkeypatch):
        # A non-separable structure draws a column per segment and forward
        # price (the eigen-factor of their exact joint law): 32 columns here.
        monkeypatch.setattr(VolStructure, "is_separable", lambda self: False)
        swaption = OptionContract(kind="swaption-payer", strike_rate=0.03,
                                  schedule=TenorSchedule(dates=tuple(1.0 + 0.25 * k for k in range(9))))
        controls = PiecewiseControls(2, (0.25, 0.5, 0.75))  # 16 members over 4 segments
        mc = MCConfig(paths=self.PATHS, seed=1)
        peak = traced_peak(lambda: scenario_sup(CURVE, VS_2F, BAND_2F, swaption, controls, mc))
        members, pairs = 16, swaption.schedule.periods
        draw = self.PATHS * 4 * pairs * 8
        moves = members * pairs * (4 * pairs + 1) * 8  # each member's loadings and half variances
        pairs_block = mc_module._PATH_BLOCK * pairs * 8
        payoff = mc_module._PATH_BLOCK * 8  # coefs @ x
        assert draw < peak < draw + moves + pairs_block + payoff + 64 * 1024
