"""The oracle and Monte Carlo kernels against straightforward reference
copies of themselves, compared with ==.

The package kernels write into preallocated buffers and draw each seed
once; the references below allocate a fresh array per operation, as the
kernels did before.  Every floating-point operation and its order are the
same, so every output must be the same to the last bit.
"""

import math

import numpy as np
import pytest

from robust_rates import option_pricing
from robust_rates.curve import DiscountCurve
from robust_rates.errors import DomainError, StabilityError, UnsupportedMethodError
from robust_rates.linear_pricing import TenorSchedule
from robust_rates.mc import MCConfig, mean_and_se, normals
from robust_rates.option_pricing import OptionContract, _swaption_inputs, price_swaption
from robust_rates.oracle import (
    LATTICE_STRETCH,
    MIN_LATTICE_STEPS,
    PiecewiseControls,
    _branch_probabilities,
    _control_family,
    _segment_stdevs,
    _terminal_forward_prices,
    lattice_price,
)
from robust_rates.pde import step_variances
from robust_rates.stream import capped_call_spread_leg
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
    xs, ws, coefs = _swaption_inputs(curve, vs, sigma, contract)
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
        assert lattice_price(*args) == ref_lattice_price(*args)

    def test_degenerate_band_matches_reference(self):
        args = (CURVE, hull_white(0.012, 0.1), degenerate_band(1.2), 1.0, 1.0, 1.5, LEG.payoff, 57)
        assert lattice_price(*args) == ref_lattice_price(*args)

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
        assert v == lattice_price(*args) == ref_lattice_price(*args)


# -- terminal forward prices ----------------------------------------------------------


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
            got = _terminal_forward_prices(vs, segments, t_end, pairs, x0s, z)
            assert same_bits(got, ref_terminal_forward_prices(vs, segments, t_end, pairs, x0s, z))
            assert same_bits(got[:, :1], _terminal_forward_prices(
                vs, segments, t_end, pairs[:1], x0s[:1], z))


# -- Monte Carlo swaption -----------------------------------------------------------------

SWAPTION = OptionContract(
    kind="swaption-payer", schedule=TenorSchedule(dates=(1.0, 1.5, 2.0, 3.0, 4.0)),
    strike_rate=0.025, notional=-3.0,
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

    def check(self, vs, band, mc, normals_calls):
        b = price_swaption(CURVE, vs, band, SWAPTION, method="monte-carlo", mc=mc)
        assert len(normals_calls) == 1
        p0 = CURVE.bond_price(SWAPTION.schedule.start)
        lo_mean, lo_se = ref_swaption_value_mc(CURVE, vs, band.lower, SWAPTION, mc)
        hi_mean, hi_se = ref_swaption_value_mc(CURVE, vs, band.upper, SWAPTION, mc)
        lo, hi = SWAPTION.notional * (p0 * lo_mean), SWAPTION.notional * (p0 * hi_mean)
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

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_non_separable_matches_reference(self, monkeypatch, antithetic, normals_calls):
        # A tabulated surface takes the eigen-factorized joint-covariance
        # path; routing the two-factor structure through it keeps the
        # covariances closed-form and the test fast.
        monkeypatch.setattr(VolStructure, "is_separable", lambda self: False)
        self.check(VS_2F, BAND_2F, MCConfig(paths=2001, seed=31, antithetic=antithetic),
                   normals_calls)
