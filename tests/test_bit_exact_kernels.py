"""The oracle and Monte Carlo kernels against straightforward reference
copies of themselves, compared by float.hex() or bytes (== for the Monte
Carlo swaption's bounds).

The package kernels write into preallocated buffers and draw each seed
once; the references below allocate a fresh array per operation, as the
kernels did before.  Every floating-point operation and its order are the
same, so every output must be the same to the last bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from robust_rates import mc as mc_module, option_pricing
from robust_rates.curve import DiscountCurve
from robust_rates.errors import DomainError, StabilityError, UnsupportedMethodError
from robust_rates.linear_pricing import TenorSchedule
from robust_rates.mc import MCConfig, mean_and_se, normals
from robust_rates.option_pricing import OptionContract, price_swaption
from robust_rates.oracle import (
    LATTICE_STRETCH,
    LATTICE_WINDOW_SIGMAS,
    MIN_LATTICE_STEPS,
    PiecewiseControls,
    _branch_probabilities,
    _control_family,
    _member_moves,
    _segment_stdevs,
    _terminal_forward_prices,
    lattice_price,
    scenario_sup,
)
from robust_rates.pde import step_variances
from robust_rates.stream import capped_call_spread_leg, caplet_leg
from robust_rates.uncertainty import UncertaintyBand, degenerate_band
from robust_rates.vol_structure import HoLeeFactor, HullWhiteFactor, VolStructure, ho_lee, hull_white

CURVE = DiscountCurve(knots=((0.0, 0.015), (2.0, 0.025), (10.0, 0.03)))
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


def ref_lattice_price(curve, vs, band, T, t1, T_i, payoff, steps):
    if vs.dim != 1 or band.dim != 1:
        raise UnsupportedMethodError("one factor only")
    if steps < MIN_LATTICE_STEPS:
        raise DomainError("too few steps")
    x0 = curve.forward_price(T, T_i)
    v_up, v_dn = step_variances(vs, band, np.linspace(0.0, t1, steps + 1), T, T_i)
    v_max = float(np.max(v_up))
    if v_max <= 0.0:
        return float(np.asarray(payoff(np.array([x0])), dtype=float)[0])
    h = LATTICE_STRETCH * math.sqrt(v_max)
    probs = np.empty((steps, 2, 3))
    for k in range(steps):
        for c, v in enumerate((v_dn[k], v_up[k])):
            p = _branch_probabilities(v, h)
            if min(p) < 0.0 or max(p) > 1.0:
                raise StabilityError("branch probabilities out of [0, 1]")
            probs[k, c] = p
    nodes = np.arange(-steps, steps + 1)
    values = np.asarray(payoff(x0 * np.exp(h * nodes)), dtype=float)
    for k in range(steps - 1, -1, -1):
        child_d = values[:-2]
        child_m = values[1:-1]
        child_u = values[2:]
        best = None
        for c in range(2):
            pu, pm, pd = probs[k, c]
            cand = pu * child_u + pm * child_m + pd * child_d
            best = cand if best is None else np.maximum(best, cand)
        values = best
    return float(values[0])


def ref_terminal_forward_prices(vs, segments, t_end, pairs, x0s, z):
    n_paths = z.shape[0]
    out = np.empty((n_paths, len(pairs)))
    for a, (pair, x0) in enumerate(zip(pairs, x0s)):
        sds = _segment_stdevs(vs, segments, t_end, pair)
        log_move = np.tensordot(z, sds, axes=([1, 2], [0, 1]))
        total_var = float(np.sum(sds**2))
        out[:, a] = x0 * np.exp(log_move - 0.5 * total_var)
    return out


def ref_swaption_value_mc(curve, vs, sigma, contract, mc):
    s = contract.schedule
    t0 = s.start
    xs = np.array([curve.forward_price(t0, t) for t in s.dates[1:]])
    w2 = np.array([vs.integrated_variance(sigma, 0.0, t0, t0, t) for t in s.dates[1:]])
    ws = np.sqrt(np.maximum(w2, 0.0))
    coefs = np.array(s.accruals) * contract.strike_rate
    coefs[-1] += 1.0
    n = len(xs)
    sig = np.atleast_1d(np.asarray(sigma, dtype=float))
    if vs.is_separable():
        loads = np.zeros((vs.dim, n))
        for j, f in enumerate(vs.factors):
            cov_jj = [
                sig[j] ** 2 * f.fp_cov_integral(0.0, t0, (t0, t), (t0, t))
                for t in s.dates[1:]
            ]
            loads[j] = np.sqrt(np.maximum(cov_jj, 0.0))
        z = ref_normals(mc.seed, mc.paths, vs.dim, antithetic=mc.antithetic)
        log_x = -z @ loads - 0.5 * ws**2
    else:
        cov = np.zeros((n, n))
        pairs = [(t0, t) for t in s.dates[1:]]
        for a in range(n):
            for b in range(a, n):
                cov[a, b] = cov[b, a] = vs.integrated_covariance(
                    sigma, 0.0, t0, pairs[a], pairs[b]
                )
        evals, evecs = np.linalg.eigh(cov)
        root = evecs @ np.diag(np.sqrt(np.maximum(evals, 0.0)))
        z = ref_normals(mc.seed, mc.paths, n, antithetic=mc.antithetic)
        log_x = -(z @ root.T) - 0.5 * ws**2
    terminal = xs * np.exp(log_x)
    payoff = np.maximum(1.0 - terminal @ coefs, 0.0)
    return mean_and_se(payoff)


# -- normals -----------------------------------------------------------------------


class TestNormals:
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("n_cols", [1, 4])
    @pytest.mark.parametrize("n_paths", [1, 2, 7, 10, 1001])
    def test_matches_reference(self, n_paths, n_cols, antithetic):
        for seed in (0, 5, 2**127 + 3):
            got = normals(seed, n_paths, n_cols, antithetic)
            assert same_bits(got, ref_normals(seed, n_paths, n_cols, antithetic))
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
        assert lattice_price(*args).hex() == ref_lattice_price(*args).hex()

    def test_degenerate_band_matches_reference(self):
        args = (CURVE, hull_white(0.012, 0.1), degenerate_band(1.2), 1.0, 1.0, 1.5, LEG.payoff, 57)
        assert lattice_price(*args).hex() == ref_lattice_price(*args).hex()

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
    v_up, _ = step_variances(vs, band, np.linspace(0.0, t1, steps + 1), T, T_i)
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
        assert abs(lattice_price(*args) - ref_lattice_price(*args)) <= 2.0 * math.exp(-50.0)


# -- terminal forward prices ----------------------------------------------------------


def terminal_forward_prices(vs, segments, t_end, pairs, x0s, z):
    """The kernel's prices for draws z of shape (paths, n_segments, d), in a fresh array."""
    out, log = np.empty((z.shape[0], len(pairs))), np.empty((z.shape[0], 1))
    _terminal_forward_prices(_member_moves(vs, segments, t_end, pairs), x0s,
                             z.reshape(z.shape[0], -1), out, log)
    return out


class TestTerminalForwardPrices:
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("vs, band", [(ho_lee(0.015), BAND), (VS_2F, BAND_2F)], ids=["1f", "2f"])
    @pytest.mark.parametrize("switches", [(), (0.7, 1.2)], ids=["constant", "piecewise"])
    def test_matches_reference(self, switches, vs, band, antithetic):
        t_end = 2.0
        pairs = [(2.0, 2.5), (2.0, 3.0), (2.0, 4.0)]
        x0s = [CURVE.forward_price(*p) for p in pairs]
        family, _ = _control_family(band, PiecewiseControls(2, switches), t_end)
        for segments in family:
            z = normals(9, 1001, len(segments) * vs.dim, antithetic)
            z = z.reshape(1001, len(segments), vs.dim)
            got = terminal_forward_prices(vs, segments, t_end, pairs, x0s, z)
            assert same_bits(got, ref_terminal_forward_prices(vs, segments, t_end, pairs, x0s, z))
            assert same_bits(got[:, :1], terminal_forward_prices(
                vs, segments, t_end, pairs[:1], x0s[:1], z))


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

        monkeypatch.setattr(option_pricing, "normals", counted)
        return calls

    def check(self, vs, band, mc, normals_calls, swaption=SWAPTION):
        b = price_swaption(CURVE, vs, band, swaption, method="monte-carlo", mc=mc)
        assert len(normals_calls) == 1
        p0 = CURVE.bond_price(swaption.schedule.start)
        lo_mean, lo_se = ref_swaption_value_mc(CURVE, vs, band.lower, swaption, mc)
        hi_mean, hi_se = ref_swaption_value_mc(CURVE, vs, band.upper, swaption, mc)
        lo, hi = swaption.notional * (p0 * lo_mean), swaption.notional * (p0 * hi_mean)
        assert (b.lower, b.upper) == (min(lo, hi), max(lo, hi))
        assert (b.diagnostics["se_lower"], b.diagnostics["se_upper"]) == (p0 * lo_se, p0 * hi_se)

    @pytest.mark.parametrize("paths", [2000, 2001])
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("vs, band", [
        (ho_lee(0.015), BAND), (hull_white(0.012, 0.1), BAND), (VS_2F, BAND_2F),
    ], ids=["ho-lee", "hull-white", "2f"])
    def test_separable_matches_reference(self, vs, band, antithetic, paths, normals_calls):
        self.check(vs, band, MCConfig(paths=paths, seed=23, antithetic=antithetic), normals_calls)

    def test_degenerate_band_prices_one_extreme(self, monkeypatch, normals_calls):
        kernel_calls = []
        kernel = option_pricing._swaption_value_mc

        def counted(*args):
            kernel_calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(option_pricing, "_swaption_value_mc", counted)
        self.check(VS_2F, degenerate_band((1.1, 0.9)), MCConfig(paths=2001, seed=3), normals_calls)
        assert len(kernel_calls) == 1

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
    """The Monte Carlo kernels work in path blocks: no (paths, periods) array
    and nothing of path size per family member."""

    PATHS = 20_000

    def test_swaption_holds_no_paths_by_periods_array(self):
        mc = MCConfig(paths=self.PATHS, seed=1)
        peak = traced_peak(lambda: price_swaption(CURVE, VS_2F, BAND_2F, LONG_SWAPTION,
                                                  method="monte-carlo", mc=mc))
        assert peak < self.PATHS * LONG_SWAPTION.schedule.periods * 8  # 6.4 MB

    @pytest.mark.parametrize("vs, band", [(ho_lee(0.015), BAND), (VS_2F, BAND_2F)], ids=["1f", "2f"])
    def test_piecewise_family_holds_sums_one_draw_and_block_buffers(self, vs, band):
        cap = OptionContract(kind="cap", schedule=TenorSchedule(dates=(1.0, 1.5, 2.0, 2.5)),
                             strike_rate=0.04)
        controls = PiecewiseControls(2, (0.25, 0.5, 0.75))  # 16 members over 4 segments
        mc = MCConfig(paths=self.PATHS, seed=1)
        peak = traced_peak(lambda: scenario_sup(CURVE, vs, band, cap, controls, mc))
        sums = 16 * self.PATHS * 8
        draw = self.PATHS * 4 * vs.dim * 8
        block_buffers = mc_module._PATH_BLOCK * (1 + 2) * 8  # one pair, log, price
        assert peak < sums + draw + block_buffers + 64 * 1024
