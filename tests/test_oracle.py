"""Lattice, scenario Monte Carlo, and expectations-hypothesis oracles."""

import math

import numpy as np
import pytest

from robust_rates import mc as mc_module, oracle
from robust_rates.curve import DiscountCurve, flat_curve
from robust_rates.errors import DomainError, StabilityError, UnsupportedMethodError
from robust_rates.linear_pricing import LinearContract, TenorSchedule
from robust_rates.lognormal import lognormal_put
from robust_rates.mc import MCConfig, child_seed, mean_and_se, normals
from robust_rates.option_pricing import OptionContract, price_cap, price_floor, price_swaption
from robust_rates.oracle import (
    ConstantControls,
    PiecewiseControls,
    _branch_probabilities,
    expectations_hypothesis_check,
    lattice_price,
    scenario_sup,
)
from robust_rates.stream import (
    CashflowStream,
    ConstantLeg,
    FloatingLinearLeg,
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

CURVE = flat_curve(0.02)
VS = ho_lee(0.01)
BAND = UncertaintyBand((0.5,), (1.5,))
SCHED = TenorSchedule(dates=(1.0, 1.5, 2.0))
KI = transformed_strike(0.5, 0.04)
X0 = CURVE.forward_price(1.0, 1.5)
TAB = TabulatedFactor(t_grid=(0.0, 0.3, 3.0), maturity_grid=(0.0, 1.5, 10.0),
                      values=((0.01, 0.008, 0.007), (0.011, 0.012, 0.006), (0.012, 0.009, 0.01)))


class TestLatticeBasics:
    def test_constant_payoff_is_exact(self):
        got = lattice_price(CURVE, VS, BAND, 1.0, 1.0, 1.5, lambda x: np.full_like(x, 3.25), 50)
        assert got == pytest.approx(3.25, abs=1e-12)

    def test_martingale_preservation(self):
        x0 = CURVE.forward_price(1.0, 1.5)
        got = lattice_price(CURVE, VS, BAND, 1.0, 1.0, 1.5, lambda x: x, 400)
        assert got == pytest.approx(x0, abs=1e-10)

    def test_degenerate_put_matches_black(self):
        x0 = CURVE.forward_price(1.0, 1.5)
        v = math.sqrt(VS.integrated_variance((1.5,), 0.0, 1.0, 1.0, 1.5))
        got = lattice_price(
            CURVE, VS, degenerate_band((1.5,)), 1.0, 1.0, 1.5,
            lambda x: np.maximum(KI - x, 0.0), 2000,
        )
        assert abs(got / lognormal_put(x0, KI, v) - 1.0) <= 5e-4

    def test_upper_dominates_lower_via_negation(self):
        for payoff in (
            lambda x: np.maximum(KI - x, 0.0),
            lambda x: np.minimum(np.maximum(x - 0.97, 0.0), 0.02),
            lambda x: np.abs(x - 0.99),
        ):
            up = lattice_price(CURVE, VS, BAND, 1.0, 1.0, 1.5, payoff, 300)
            lo = -lattice_price(CURVE, VS, BAND, 1.0, 1.0, 1.5, lambda x: -payoff(x), 300)
            assert up >= lo - 1e-12

    def test_affine_payoff_bounds_coincide(self):
        payoff = lambda x: 2.0 * x - 0.5
        up = lattice_price(CURVE, VS, BAND, 1.0, 1.0, 1.5, payoff, 300)
        lo = -lattice_price(CURVE, VS, BAND, 1.0, 1.0, 1.5, lambda x: -payoff(x), 300)
        assert up == pytest.approx(lo, abs=1e-9)

    def test_degenerate_band_equals_classical_singleton_tree(self):
        # Rebuild the single-sigma tree independently; results must agree to
        # the bit since the max over identical candidates is a no-op.  Each
        # step is the lattice's kernel product: two identical kernel rows
        # times the (3, m) children, padded to three columns at the last
        # step, since numpy sends a one-column product to another BLAS path.
        band = degenerate_band((1.2,))
        steps = 120
        payoff = lambda x: np.maximum(KI - x, 0.0)
        got = lattice_price(CURVE, VS, band, 1.0, 1.0, 1.5, payoff, steps)

        x0 = CURVE.forward_price(1.0, 1.5)
        ts = np.linspace(0.0, 1.0, steps + 1)
        vs_step = [
            VS.integrated_variance((1.2,), ts[k], ts[k + 1], 1.0, 1.5) for k in range(steps)
        ]
        h = 1.2 * math.sqrt(max(vs_step))
        values = payoff(x0 * np.exp(h * np.arange(-steps, steps + 1)))
        for k in range(steps - 1, -1, -1):
            kernel = np.array([_branch_probabilities(vs_step[k], h)[::-1]] * 2)
            m = len(values) - 2
            children = np.zeros((3, max(m, 3)))
            children[0, :m], children[1, :m], children[2, :m] = values[:-2], values[1:-1], values[2:]
            values = (kernel @ children)[0, :m]
        assert got == values[0]


class TestLatticeValidation:
    def test_needs_ten_steps(self):
        with pytest.raises(DomainError):
            lattice_price(CURVE, VS, BAND, 1.0, 1.0, 1.5, lambda x: x, 5)

    def test_one_factor_only(self):
        vs2 = VolStructure(factors=(HoLeeFactor(c=0.01), HullWhiteFactor(c=0.01, kappa=0.1)))
        band2 = UncertaintyBand((0.5, 0.5), (1.5, 1.5))
        with pytest.raises(UnsupportedMethodError):
            lattice_price(CURVE, vs2, band2, 1.0, 1.0, 1.5, lambda x: x, 100)

    def test_oversized_step_variance_suggests_steps(self):
        vs_big = ho_lee(3.0)
        with pytest.raises(StabilityError, match="at least"):
            lattice_price(flat_curve(0.02), vs_big, BAND, 1.0, 1.0, 3.0, lambda x: x, 10)

    def test_stability_error_names_the_first_failing_step(self):
        # Hull-White step variances grow towards expiry, so the steps fail
        # from some k > 0 on; the vectorised check must name the first.
        vs, steps = hull_white(5.0, 1.0), 10
        v_dn, v_up = vs.extreme_variances(BAND.lower, BAND.upper, np.linspace(0.0, 1.0, steps + 1), 1.0, 3.0)
        h = oracle.LATTICE_STRETCH * math.sqrt(max(v_up))
        first = next(k for k in range(steps) for v in (v_dn[k], v_up[k])
                     if min(_branch_probabilities(v, h)) < 0.0
                     or max(_branch_probabilities(v, h)) > 1.0)
        assert first > 0
        with pytest.raises(StabilityError, match=f"at step {first};"):
            lattice_price(CURVE, vs, BAND, 1.0, 1.0, 3.0, lambda x: x, steps)

    @pytest.mark.parametrize("t1", [math.nan, -0.5, math.inf, -math.inf])
    def test_expiry_must_be_finite_and_nonnegative(self, t1):
        with pytest.raises(DomainError, match="finite, nonnegative"):
            lattice_price(CURVE, VS, BAND, 1.0, t1, 1.5, lambda x: x, 50)

    @pytest.mark.parametrize("steps", [50.0, 50.5, "50", None])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(DomainError, match="integer number of steps"):
            lattice_price(CURVE, VS, BAND, 1.0, 1.0, 1.5, lambda x: x, steps)

    @pytest.mark.parametrize("t1", [1.0, 0.0], ids=["tree", "zero-variance"])
    @pytest.mark.parametrize("payoff", [
        lambda x: np.where(x < X0, x, np.nan),
        lambda x: np.where(x < X0, x, np.inf),
        lambda x: 1.0,
        lambda x: x[1:],
        lambda x: np.stack((x, x)),
    ], ids=["nan", "inf", "scalar", "short", "2-d"])
    def test_malformed_payoff_raises_domain_error(self, payoff, t1):
        # Checked once, on the payoff grid: every node the loop computes is
        # then a convex combination of finite values.
        with pytest.raises(DomainError, match="the payoff"):
            lattice_price(CURVE, VS, BAND, 1.0, t1, 1.5, payoff, 57)

    def test_numpy_integer_steps_price_as_int(self):
        args = (CURVE, VS, BAND, 1.0, 1.0, 1.5, lambda x: np.maximum(KI - x, 0.0))
        assert lattice_price(*args, np.int64(57)) == lattice_price(*args, 57)


class TestScenarioSup:
    def test_symmetric_contract_is_control_independent(self):
        frn = LinearContract(kind="floating-rate-note", schedule=SCHED)
        res = scenario_sup(CURVE, VS, BAND, frn, ConstantControls(3), MCConfig(paths=50_000, seed=3))
        vals = [v for _, v, _ in res.table]
        ses = [s for _, _, s in res.table]
        target = CURVE.bond_price(1.0)
        for v, s in zip(vals, ses):
            assert abs(v - target) <= 4.0 * max(s, 1e-12)

    def test_cap_sup_attained_at_upper_extreme(self):
        c = OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04)
        engine = price_cap(CURVE, VS, BAND, c)
        res = scenario_sup(CURVE, VS, BAND, c, ConstantControls(2), MCConfig(paths=100_000, seed=5))
        assert res.value <= engine.upper + 3.0 * res.se
        assert abs(res.value - engine.upper) <= 3.0 * res.se  # sigma-bar scenario is the sup

    def test_floor_sup_soundness(self):
        c = OptionContract(kind="floor", schedule=SCHED, strike_rate=0.04)
        engine = price_floor(CURVE, VS, BAND, c)
        res = scenario_sup(CURVE, VS, BAND, c, ConstantControls(3), MCConfig(paths=100_000, seed=6))
        assert res.value <= engine.upper + 3.0 * res.se

    def test_fcb_deterministic_across_controls(self):
        fcb = LinearContract(kind="fixed-coupon-bond", schedule=SCHED, fixed_rate=0.05)
        res = scenario_sup(CURVE, VS, BAND, fcb, ConstantControls(3), MCConfig(paths=2_000, seed=1))
        vals = {round(v, 15) for _, v, _ in res.table}
        assert len(vals) == 1

    @pytest.mark.parametrize("vs, band", [
        (VolStructure(factors=(HoLeeFactor(c=0.01), HullWhiteFactor(c=0.01, kappa=0.1))), BAND),
        (VS, UncertaintyBand((0.5, 0.8), (1.5, 1.2))),
    ], ids=["2f-structure-1f-band", "1f-structure-2f-band"])
    @pytest.mark.parametrize("controls", [ConstantControls(2), PiecewiseControls(2, (0.7,))],
                             ids=["constant", "piecewise"])
    def test_band_must_match_the_structure(self, vs, band, controls):
        c = OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04)
        with pytest.raises(DomainError, match="factors but band has"):
            scenario_sup(CURVE, vs, band, c, controls, MCConfig(paths=1_000, seed=1))

    def test_piecewise_family_size_capped(self):
        with pytest.raises(DomainError, match=r"family size 5\^4 exceeds MAX_FAMILY = 256"):
            scenario_sup(
                CURVE, VS, BAND,
                OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04),
                PiecewiseControls(k=5, switch_dates=(0.5, 1.0, 1.5)),
                MCConfig(paths=1_000, seed=1),
            )

    def test_family_at_the_cap_builds(self):
        # 2^8 members is the cap itself; one more segment is past it.
        assert oracle.MAX_FAMILY == 256
        dates = tuple(0.25 * j for j in range(1, 8))
        family, _ = oracle._control_family(BAND, PiecewiseControls(2, dates), 2.0)
        assert len(family) == 256
        with pytest.raises(DomainError, match=r"2\^9 exceeds MAX_FAMILY"):
            oracle._control_family(BAND, PiecewiseControls(2, dates + (1.9,)), 2.0)

    @pytest.mark.parametrize("make", [
        lambda: ConstantControls(k=2.5),
        lambda: ConstantControls(k="3"),
        lambda: ConstantControls(k=0),
        lambda: PiecewiseControls(k=2.5),
        lambda: PiecewiseControls(k=3.0, switch_dates=(1.0,)),
        lambda: ConstantControls(k=True),
        lambda: PiecewiseControls(k=True),
    ], ids=["constant-float", "constant-str", "constant-zero", "piecewise-float", "piecewise-whole-float",
            "constant-bool", "piecewise-bool"])
    def test_control_count_must_be_a_positive_integer(self, make):
        with pytest.raises(DomainError, match="integer count"):
            make()

    @pytest.mark.parametrize("dates", [(math.nan,), (0.5, math.inf), (-math.inf,), (0.0,)])
    def test_switch_dates_must_be_finite_and_positive(self, dates):
        with pytest.raises(DomainError, match="switch dates must be finite and positive"):
            PiecewiseControls(k=2, switch_dates=dates)

    def test_repeated_switch_dates_cut_one_segment(self):
        # A repeat would add an empty segment and k times as many members,
        # each pricing as one of the others.
        controls = PiecewiseControls(2, (0.7, 0.7))
        assert controls.switch_dates == (0.7,)
        c = OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04)
        res = scenario_sup(CURVE, VS, BAND, c, controls, MCConfig(paths=1_000, seed=1))
        assert len(res.table) == 4
        assert len({value for _, value, _ in res.table}) == 4

    def test_numpy_integer_count_prices_as_int(self):
        c = OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04)
        mc = MCConfig(paths=1_000, seed=1)
        for make in (ConstantControls, lambda k: PiecewiseControls(k, (1.2,))):
            got = scenario_sup(CURVE, VS, BAND, c, make(np.int64(2)), mc)
            assert got.value == scenario_sup(CURVE, VS, BAND, c, make(2), mc).value

    def test_piecewise_labels_and_ordering(self):
        from robust_rates.stream import CashflowStream, capped_forward_leg, caplet_leg

        st = CashflowStream(
            schedule=SCHED, legs=(capped_forward_leg(0.99), caplet_leg(0.5, 0.04))
        )
        mc = MCConfig(paths=100_000, seed=5)
        const = scenario_sup(CURVE, ho_lee(0.02), BAND, st, ConstantControls(3), mc)
        pw = scenario_sup(
            CURVE, ho_lee(0.02), BAND, st, PiecewiseControls(k=3, switch_dates=(1.0,)), mc
        )
        # The piecewise family strictly improves on constants for this
        # mixed-curvature stream (low vol early, high vol late).
        assert pw.value > const.value + 3.0 * max(pw.se, const.se)


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


def ref_forward_prices(loads, x0s, z):
    """(len(x0s), paths) terminal forward prices x0 exp(-L z - v/2) from
    draws z of shape (columns, paths), v the row sums of L^2: one loading
    matrix times the draws, over all paths at once."""
    log_move = np.matmul(-loads, z)
    return np.array(x0s)[:, None] * np.exp(log_move - 0.5 * np.sum(loads**2, axis=1, keepdims=True))


def column_forward_prices(loads, x0s, z):
    """The same prices with each pair's log move its own dot over the
    draws' columns, the form the sampler used before."""
    out = np.empty((len(x0s), z.shape[1]))
    for a, (row, x0) in enumerate(zip(loads, x0s)):
        out[a] = x0 * np.exp(np.dot(-row, z) - 0.5 * float(np.sum(row**2)))
    return out


def reference_stream(contract):
    """The contract written out as its stream of one leg per period: a
    caplet, floorlet or in-arrears leg; a bond's coupon, the principal added
    in the last period; a note's floating rate, the principal as the last
    intercept; a payer swap's floating rate less its fixed coupon."""
    if isinstance(contract, CashflowStream):
        return contract
    s, last = contract.schedule, contract.schedule.periods - 1
    if isinstance(contract, OptionContract):
        make = {"cap": caplet_leg, "floor": floorlet_leg,
                "in-arrears-payer-swap": in_arrears_leg}[contract.kind]
        legs = [make(delta, contract.strike_rate) for delta in s.accruals]
    elif contract.kind == "fixed-coupon-bond":
        legs = [ConstantLeg(delta * contract.fixed_rate + 1.0) if i == last
                else ConstantLeg(delta * contract.fixed_rate) for i, delta in enumerate(s.accruals)]
    elif contract.kind == "floating-rate-note":
        legs = [FloatingLinearLeg(delta, 1.0 if i == last else 0.0)
                for i, delta in enumerate(s.accruals)]
    else:  # payer-swap
        legs = [FloatingLinearLeg(delta, -delta * contract.fixed_rate) for delta in s.accruals]
    return CashflowStream(schedule=s, legs=legs, notional=contract.notional)


def streamed_mean_and_se(blocks, n):
    """The sampler's statistics over n paths: the sum of the sampling
    blocks' means, and the se of the sum of their M2 (independent keys: the
    variances add); no block is a mean and se of 0."""
    mean = m2 = 0.0
    for samples in blocks:
        block_mean, block_m2 = streamed_moments(samples)
        mean, m2 = mean + block_mean, m2 + block_m2
    return mean, math.sqrt(m2 / (n - 1) / n)


def whole_array_mean_and_se(blocks, n):
    """The statistics the sampler took before: mean_and_se of the (n,) sum
    of the sampling blocks' samples."""
    samples = np.zeros(n)
    for block in blocks:
        samples += block
    return mean_and_se(samples)


def reference_scenario_price(curve, vs, segments, contract, mc, forward_prices=ref_forward_prices,
                             statistics=streamed_mean_and_se):
    """Reference: one member's sampling blocks written out one by one, each
    drawing its normals with the family's shared key (child_seed(mc.seed, i)
    for period i, mc.seed for the swaption), one column per loading of
    segment_loadings, and its forward prices itself, over all paths at once;
    statistics reduces the blocks' (paths,) samples to (mean, se).  Every
    contract but the swaption prices as its reference_stream."""
    seed = mc.seed

    def sample(key, t_end, pairs):
        loads = segment_loadings(vs, segments, t_end, pairs)
        z = normals(key, mc.paths, loads.shape[1], mc.antithetic)
        return forward_prices(loads, [curve.forward_price(*p) for p in pairs], z)

    if isinstance(contract, OptionContract) and contract.kind == "swaption-payer":
        s = contract.schedule
        t0 = s.start
        x = sample(seed, t0, [(t0, t) for t in s.dates[1:]])
        coefs = np.array(s.accruals) * contract.strike_rate
        coefs[-1] += 1.0
        mean, se = statistics([curve.bond_price(t0) * np.maximum(1.0 - coefs @ x, 0.0)], mc.paths)
        return contract.notional * mean, abs(contract.notional) * se

    stream = reference_stream(contract)
    s = stream.schedule
    blocks = []
    fixed = 0.0
    for i, leg in enumerate(stream.legs):
        t_reset, t_pay = s.dates[i], s.dates[i + 1]
        delta = t_pay - t_reset
        if isinstance(leg, ConstantLeg):
            fixed += leg.amount * curve.bond_price(t_pay)
            continue
        if isinstance(leg, FloatingLinearLeg):
            x = sample(child_seed(seed, i), t_reset, [(t_pay, t_reset)])[0]
            blocks.append(curve.bond_price(t_pay) * (leg.slope / delta * (x - 1.0) + leg.intercept))
        else:
            x = sample(child_seed(seed, i), t_reset, [(t_reset, t_pay)])[0]
            blocks.append(curve.bond_price(t_reset) * leg(x))
    mean, se = statistics(blocks, mc.paths)
    return stream.notional * (mean + fixed), abs(stream.notional) * se


SCENARIO_CONTRACTS = {
    "cap": OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04, notional=2.0),
    "floor": OptionContract(kind="floor", schedule=SCHED, strike_rate=0.03),
    "in-arrears": OptionContract(kind="in-arrears-payer-swap", schedule=SCHED, strike_rate=0.03),
    "swaption": OptionContract(
        kind="swaption-payer", schedule=TenorSchedule(dates=(1.0, 1.5, 2.0, 3.0)),
        strike_rate=0.025, notional=-3.0,
    ),
    "frn": LinearContract(kind="floating-rate-note", schedule=SCHED),
    "fixed-coupon-bond": LinearContract(kind="fixed-coupon-bond", schedule=SCHED, fixed_rate=0.05),
    "payer-swap": LinearContract(kind="payer-swap", schedule=SCHED, fixed_rate=0.03),
    "stream": CashflowStream(
        schedule=TenorSchedule(dates=(0.5, 1.2, 1.5, 2.0)),
        legs=(ConstantLeg(0.01), FloatingLinearLeg(1.3, 0.002), capped_call_spread_leg(0.97, 0.02)),
        notional=5.0,
    ),
}
SCENARIO_MODELS = {
    "1f-ho-lee": (ho_lee(0.015), BAND),
    "2f-hw-hl": (
        VolStructure(factors=(HullWhiteFactor(c=0.01, kappa=0.2), HoLeeFactor(c=0.006))),
        UncertaintyBand((0.5, 0.8), (1.5, 1.2)),
    ),
    # Non-separable: a swaption samples the eigen-factor of its exact
    # per-segment covariance, one column per segment and pair (a leg, one
    # pair, samples as on the separable models).
    "1f-tabulated": (single_factor(TAB), BAND),
}
SAMPLER_CASES = [(name, model) for model in SCENARIO_MODELS for name in SCENARIO_CONTRACTS
                 if name == "swaption" or model != "1f-tabulated"]
SAMPLER_IDS = [f"{name}-{model}" for name, model in SAMPLER_CASES]


class TestScenarioSamplerBitExact:
    """The scenario pricer draws each block once for the whole family; every
    member must reproduce its written-out blocks exactly, not approximately."""

    @pytest.mark.parametrize("controls", [ConstantControls(3), PiecewiseControls(2, (0.7, 1.2))],
                             ids=["constant", "piecewise"])
    @pytest.mark.parametrize("name, model", SAMPLER_CASES, ids=SAMPLER_IDS)
    def test_matches_reference(self, name, model, controls):
        vs, band = SCENARIO_MODELS[model]
        curve = DiscountCurve(knots=((0.0, 0.015), (2.0, 0.025), (10.0, 0.03)))
        contract, mc = SCENARIO_CONTRACTS[name], MCConfig(paths=500, seed=17)
        got = scenario_sup(curve, vs, band, contract, controls, mc)
        family, labels = oracle._control_family(band, controls, contract.schedule.end)
        table = tuple(
            (label, *reference_scenario_price(curve, vs, segments, contract, mc))
            for segments, label in zip(family, labels)
        )
        assert got.table == table
        best = max(table, key=lambda row: row[1])  # the first maximizing member
        assert (got.value, got.se, got.control) == (best[1], best[2], best[0])


    @pytest.mark.parametrize("controls", [ConstantControls(3), PiecewiseControls(2, (0.7, 1.2))],
                             ids=["constant", "piecewise"])
    @pytest.mark.parametrize("name, model", SAMPLER_CASES, ids=SAMPLER_IDS)
    def test_block_edges_match_reference(self, monkeypatch, name, model, controls):
        # With 64-path blocks: one block short of full, one full block, one
        # or two paths over, and two blocks plus one or two paths.  A last
        # block of one path joins the block before it.
        monkeypatch.setattr(mc_module, "_PATH_BLOCK", 64)
        vs, band = SCENARIO_MODELS[model]
        curve = DiscountCurve(knots=((0.0, 0.015), (2.0, 0.025), (10.0, 0.03)))
        contract = SCENARIO_CONTRACTS[name]
        family, labels = oracle._control_family(band, controls, contract.schedule.end)
        for paths in (63, 64, 65, 66, 129, 130):
            for antithetic in (True, False):
                mc = MCConfig(paths=paths, seed=23, antithetic=antithetic)
                got = scenario_sup(curve, vs, band, contract, controls, mc)
                assert got.table == tuple(
                    (label, *reference_scenario_price(curve, vs, segments, contract, mc))
                    for segments, label in zip(family, labels)
                )

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("name, model", SAMPLER_CASES, ids=SAMPLER_IDS)
    def test_whole_array_statistics_within_bounds(self, name, model, antithetic):
        # mean_and_se of the (paths,) sum of the blocks' samples, the form the
        # sampler took before.  The means sum the same K * n samples (below 1
        # in size here) in another order: within 64 ulp of |notional|.  One
        # sampling block's se is the same estimator, its M2 a sum of n
        # nonnegative terms in another order: within n ulp.  Over K blocks the
        # sampler adds the blocks' variances and the whole array adds their
        # sample covariances too: (se_old / se_new)^2 - 1 = 2 sum c / sum v,
        # at most (K - 1) max|rho| in size, the blocks' sample correlations
        # over n / 2 independent pairs; 4 sd is 4 / sqrt(n / 2).
        vs, band = SCENARIO_MODELS[model]
        curve = DiscountCurve(knots=((0.0, 0.015), (2.0, 0.025), (10.0, 0.03)))
        contract = SCENARIO_CONTRACTS[name]
        mc = MCConfig(paths=500, seed=17, antithetic=antithetic)
        controls = PiecewiseControls(2, (0.7, 1.2))
        got = scenario_sup(curve, vs, band, contract, controls, mc)
        k = len(oracle._sampling_blocks(curve, contract, mc.seed)[0])
        family, _ = oracle._control_family(band, controls, contract.schedule.end)
        for segments, (_, value, se) in zip(family, got.table):
            mean, old_se = reference_scenario_price(curve, vs, segments, contract, mc,
                                                    statistics=whole_array_mean_and_se)
            assert abs(value - mean) <= 64 * 2.0**-52 * abs(contract.notional)
            if k == 1:
                assert abs(se - old_se) <= mc.paths * 2.0**-52 * old_se
            elif k > 1:
                assert abs((old_se / se) ** 2 - 1.0) <= (k - 1) * 4.0 / math.sqrt(mc.paths / 2)
            else:
                assert se == old_se == 0.0

    @pytest.mark.parametrize("name, model", SAMPLER_CASES, ids=SAMPLER_IDS)
    def test_per_column_form_within_rounding(self, name, model):
        # The (paths, pairs) form the sampler used before: every one-pair
        # block keeps its bits.  The swaption's several pairs sum their
        # segments in BLAS's order (prices within 4 ulp) and coefs @ x its n
        # periods in another, so a member's mean and se move by at most
        # (n + 6) * 2^-52 of |notional| * P(T_0).
        vs, band = SCENARIO_MODELS[model]
        curve = DiscountCurve(knots=((0.0, 0.015), (2.0, 0.025), (10.0, 0.03)))
        contract, mc = SCENARIO_CONTRACTS[name], MCConfig(paths=500, seed=17)
        s = contract.schedule
        tol = ((s.periods + 6) * 2.0**-52 * abs(contract.notional) * curve.bond_price(s.start)
               if name == "swaption" else 0.0)
        family, _ = oracle._control_family(band, PiecewiseControls(2, (0.7, 1.2)), s.end)
        for segments in family:
            got = reference_scenario_price(curve, vs, segments, contract, mc)
            old = reference_scenario_price(curve, vs, segments, contract, mc, column_forward_prices)
            assert abs(got[0] - old[0]) <= tol and abs(got[1] - old[1]) <= tol


class TestMonteCarloSwaptionIsAConstantFamily:
    """price_swaption(method="monte-carlo") samples the one-segment constant
    family of its band extremes through the scenario oracle's sampler, so
    under a degenerate band it is ConstantControls(1) on the same seed: the
    same draw, loadings and per-path payoffs.  The oracle multiplies each
    path's payoff by P(T_0) before the pairwise sums (one rounding a path),
    the engine the mean after, so the value and the se move by rounding only:
    the sums' depth stays below 30 at 5001 paths."""

    TOL = 32 * 2.0**-52

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("model", list(SCENARIO_MODELS))
    def test_equals_the_one_member_family(self, model, antithetic):
        vs, band = SCENARIO_MODELS[model]
        curve = DiscountCurve(knots=((0.0, 0.015), (2.0, 0.025), (10.0, 0.03)))
        contract, mc = SCENARIO_CONTRACTS["swaption"], MCConfig(paths=5001, seed=43, antithetic=antithetic)
        point = degenerate_band(tuple(1.1 * level for level in band.midpoint()))
        family = scenario_sup(curve, vs, point, contract, ConstantControls(1), mc)
        engine = price_swaption(curve, vs, point, contract, method="monte-carlo", mc=mc)
        assert engine.lower == engine.upper
        assert abs(family.value - engine.upper) <= self.TOL * abs(family.value)
        se = abs(contract.notional) * engine.diagnostics["se_upper"]
        assert abs(family.se - se) <= self.TOL * family.se


class TestScenarioSharedDraws:
    """Every member of a family prices from one draw per sampling block."""

    def test_identical_members_price_identically(self):
        band = degenerate_band((1.0,))
        c = OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04)
        res = scenario_sup(CURVE, VS, band, c, PiecewiseControls(2, (0.7, 1.2)),
                           MCConfig(paths=2_000, seed=9))
        assert len(res.table) == 8  # 2 levels over 3 segments
        assert len({(v, s) for _, v, s in res.table}) == 1

    def count_draws(self, monkeypatch, contract, controls):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return normals(*args, **kwargs)

        monkeypatch.setattr(mc_module, "normals", counting)
        res = scenario_sup(CURVE, VS, BAND, contract, controls, MCConfig(paths=1_000, seed=5))
        return res, calls

    def test_one_draw_per_cap_period(self, monkeypatch):
        c = OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04)
        res, keys = self.count_draws(monkeypatch, c, PiecewiseControls(2, (0.5, 1.0, 1.5)))
        assert len(res.table) == 16
        assert keys == [child_seed(5, 0), child_seed(5, 1)]

    def test_one_draw_per_swaption_family(self, monkeypatch):
        c = SCENARIO_CONTRACTS["swaption"]
        res, keys = self.count_draws(monkeypatch, c, ConstantControls(3))
        assert len(res.table) == 3
        assert keys == [5]


class TestExpectationsHypothesis:
    def test_near_zero_vol_pins_forward_rate(self):
        res = expectations_hypothesis_check(
            CURVE, ho_lee(1e-12), (1.0,), 2.0, MCConfig(paths=1_000, seed=2, antithetic=False)
        )
        assert res.gap <= 1e-10

    def test_statistical_gap_within_three_se(self):
        for s in (0.5, 1.0, 1.5):
            res = expectations_hypothesis_check(
                CURVE, VS, (s,), 2.0, MCConfig(paths=100_000, seed=11, antithetic=False)
            )
            assert res.gap <= 3.0 * res.se
            assert res.forward_rate == pytest.approx(0.02)

    def test_antithetic_cancels_linear_statistic_exactly(self):
        res = expectations_hypothesis_check(
            CURVE, VS, (1.5,), 2.0, MCConfig(paths=10_000, seed=4, antithetic=True)
        )
        assert res.gap <= 1e-15

    @pytest.mark.parametrize("paths", [101, 10_001])
    def test_odd_antithetic_count_drops_the_unpaired_draw(self, paths):
        # The pairs of the first paths - 1 draws cancel the linear statistic
        # exactly; the unpaired last draw used to give an se of 1.5e-3 at 101.
        check = lambda n: expectations_hypothesis_check(
            CURVE, VS, (1.0,), 2.0, MCConfig(paths=n, seed=1, antithetic=True))
        assert check(paths) == check(paths - 1)
        assert check(paths).se <= 1e-15

    @pytest.mark.parametrize("n_steps", [0, -1, 2.5, 16.0, math.nan, "16", True])
    def test_step_count_must_be_a_positive_integer(self, n_steps):
        # At 0 steps the simulated mean is the forward rate itself, so the
        # check could never fail.
        with pytest.raises(DomainError, match="n_steps"):
            expectations_hypothesis_check(CURVE, VS, (1.0,), 2.0, MCConfig(paths=100, seed=2),
                                          n_steps=n_steps)

    def test_numpy_integer_step_count(self):
        mc = MCConfig(paths=1_000, seed=2, antithetic=False)
        got = expectations_hypothesis_check(CURVE, VS, (1.0,), 2.0, mc, n_steps=np.int64(4))
        assert got == expectations_hypothesis_check(CURVE, VS, (1.0,), 2.0, mc, n_steps=4)
