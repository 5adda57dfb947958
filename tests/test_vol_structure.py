"""Factor vols: closed forms, quadrature cross-checks, tabulated surfaces."""

import dataclasses
import itertools
import math
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robust_rates.errors import DomainError, ParseError
from robust_rates.pde import step_variances
from robust_rates.uncertainty import UncertaintyBand, degenerate_band
from robust_rates.vol_structure import (
    SIMPSON_PANELS,
    HoLeeFactor,
    HullWhiteFactor,
    TabulatedFactor,
    VolStructure,
    _simpson,
    ho_lee,
    hull_white,
    load_tabulated_factor,
)


class TestBondVol:
    def test_ho_lee_linear_in_tenor(self):
        assert ho_lee(0.01).bond_vol(0, 0.0, 5.0) == pytest.approx(0.05, rel=1e-15)

    def test_zero_at_equal_times(self):
        for vs in (ho_lee(0.01), hull_white(0.01, 0.1)):
            assert vs.bond_vol(0, 2.0, 2.0) == 0.0

    def test_hull_white_closed_form(self):
        vs = hull_white(0.01, 0.1)
        assert vs.bond_vol(0, 0.0, 10.0) == pytest.approx(0.1 * (1 - math.exp(-1.0)), rel=1e-14)

    def test_nondecreasing_in_maturity(self):
        vs = hull_white(0.02, 0.3)
        vals = [vs.bond_vol(0, 1.0, T) for T in np.linspace(1.0, 9.0, 15)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_reversed_times_rejected(self):
        with pytest.raises(DomainError):
            ho_lee(0.01).bond_vol(0, 3.0, 2.0)

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            ho_lee(0.01).bond_vol(1, 0.0, 1.0)


class TestForwardPriceVol:
    def test_ho_lee_value(self):
        assert ho_lee(0.01).forward_price_vol(0, 0.0, 1.0, 1.5) == pytest.approx(0.005, rel=1e-15)

    def test_zero_at_equal_maturities(self):
        assert hull_white(0.01, 0.2).forward_price_vol(0, 0.5, 2.0, 2.0) == 0.0

    def test_antisymmetry(self):
        vs = hull_white(0.015, 0.25)
        a = vs.forward_price_vol(0, 0.5, 1.0, 3.0)
        b = vs.forward_price_vol(0, 0.5, 3.0, 1.0)
        assert a == pytest.approx(-b, rel=1e-15)

    def test_time_ordering_enforced(self):
        with pytest.raises(DomainError):
            ho_lee(0.01).forward_price_vol(0, 2.0, 1.0, 1.5)


class TestIntegratedVariance:
    def test_ho_lee_example(self):
        vs = ho_lee(0.01)
        v = vs.integrated_variance((1.5,), 0.0, 1.0, 1.0, 1.5)
        assert v == pytest.approx(2.25 * 0.005**2, rel=1e-14)  # 5.625e-5

    def test_empty_window(self):
        assert ho_lee(0.01).integrated_variance((1.0,), 0.7, 0.7, 1.0, 2.0) == 0.0

    def test_additivity_over_abutting_windows(self):
        for vs in (ho_lee(0.01), hull_white(0.02, 0.4)):
            whole = vs.integrated_variance((1.2,), 0.0, 2.0, 2.0, 3.0)
            split = vs.integrated_variance((1.2,), 0.0, 1.0, 2.0, 3.0) + vs.integrated_variance(
                (1.2,), 1.0, 2.0, 2.0, 3.0
            )
            assert whole == pytest.approx(split, rel=1e-13)

    def test_monotone_in_scale_magnitude(self):
        vs = hull_white(0.02, 0.4)
        vals = [vs.integrated_variance((s,), 0.0, 1.0, 1.0, 2.0) for s in (0.2, 0.5, 1.0, 1.7)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_closed_forms_match_simpson(self):
        # Cross-validation of both code paths at 1e-10 relative.
        for factor in (HoLeeFactor(c=0.013), HullWhiteFactor(c=0.02, kappa=0.35)):
            pair = (1.0, 2.5)
            closed = factor.fp_cov_integral(0.2, 0.9, pair, pair)
            quad = _simpson(lambda u: factor.fp_vol(u, *pair) ** 2, 0.2, 0.9)
            assert quad == pytest.approx(closed, rel=1e-10)

    def test_ordering_violation_rejected(self):
        with pytest.raises(DomainError):
            ho_lee(0.01).integrated_variance((1.0,), 1.0, 0.5, 2.0, 3.0)
        with pytest.raises(DomainError):
            ho_lee(0.01).integrated_variance((1.0,), 0.0, 2.5, 2.0, 3.0)

    def test_multi_factor_sums(self):
        vs = VolStructure(factors=(HoLeeFactor(c=0.01), HullWhiteFactor(c=0.02, kappa=0.3)))
        both = vs.integrated_variance((1.0, 1.0), 0.0, 1.0, 1.0, 2.0)
        first = vs.integrated_variance((1.0, 1e-12), 0.0, 1.0, 1.0, 2.0)
        second = vs.integrated_variance((1e-12, 1.0), 0.0, 1.0, 1.0, 2.0)
        assert both == pytest.approx(first + second, rel=1e-9)


class TestTabulated:
    def constant_table(self, c=0.01):
        return TabulatedFactor(
            t_grid=(0.0, 15.0),
            maturity_grid=(0.0, 15.0),
            values=((c, c), (c, c)),
        )

    def test_matches_ho_lee_when_constant(self):
        tab = VolStructure(factors=(self.constant_table(),))
        hl = ho_lee(0.01)
        assert tab.bond_vol(0, 0.5, 3.0) == pytest.approx(hl.bond_vol(0, 0.5, 3.0), rel=1e-12)
        a = tab.integrated_variance((1.3,), 0.0, 1.0, 1.0, 2.0)
        b = hl.integrated_variance((1.3,), 0.0, 1.0, 1.0, 2.0)
        assert a == pytest.approx(b, rel=1e-10)

    def test_bilinear_interpolation(self):
        tab = TabulatedFactor(
            t_grid=(0.0, 2.0), maturity_grid=(0.0, 2.0),
            values=((0.01, 0.02), (0.03, 0.04)),
        )
        assert float(tab.beta(1.0, 1.0)) == pytest.approx(0.025, rel=1e-14)

    def test_fp_vol_bit_identical_to_point_loop(self):
        # Reference: one bond_vol Simpson rule per point.  The vector form
        # must give the same bits, also where a window [u, T] has zero width.
        rng = np.random.Generator(np.random.Philox(key=11))
        axis = (0.0, 0.7, 2.0, 5.0, 10.0)
        tab = TabulatedFactor(t_grid=axis, maturity_grid=(0.0, 1.0, 3.0, 6.0, 12.0),
                              values=rng.uniform(0.005, 0.02, (5, 5)).tolist())

        def loop(t, T, T_tilde):
            return np.array([tab.bond_vol(u, T_tilde) - tab.bond_vol(u, T) for u in t.tolist()])

        for _ in range(3):
            T = rng.uniform(0.5, 8.0)
            pair = (T, T + rng.uniform(0.1, 3.0))
            for t1 in (T, rng.uniform(0.0, T)):
                t0 = rng.uniform(0.0, t1)
                # The grid of the Simpson rule fp_cov_integral runs over [t0, t1].
                u = np.linspace(t0, t1, 2 * SIMPSON_PANELS + 1)
                want = loop(u, *pair)
                assert np.array_equal(tab.fp_vol(u, *pair), want)
                assert tab.fp_cov_integral(t0, t1, pair, pair) == _simpson(
                    lambda _: want * want, t0, t1)
            for x in (0.0, T, pair[1], pair[1] + 1.0):
                assert tab.fp_vol(x, *pair) == loop(np.array([x]), *pair)[0]

    def test_requires_full_grid(self):
        with pytest.raises(DomainError):
            TabulatedFactor(t_grid=(0.0, 1.0), maturity_grid=(0.0, 1.0), values=((0.01, 0.02),))

    def test_load_csv_round_trip(self, tmp_path):
        p = tmp_path / "beta.csv"
        rows = ["0,0,0.01", "0,10,0.01", "5,0,0.02", "5,10,0.02"]
        p.write_text("\n".join(rows) + "\n")
        f = load_tabulated_factor(str(p))
        assert f.t_grid == (0.0, 5.0)
        assert float(f.beta(0.0, 3.0)) == pytest.approx(0.01)

    def test_load_csv_incomplete_grid(self, tmp_path):
        p = tmp_path / "beta.csv"
        p.write_text("0,0,0.01\n0,10,0.01\n5,0,0.02\n")
        with pytest.raises(DomainError, match="rectangular"):
            load_tabulated_factor(str(p))

    def test_load_csv_bad_line(self, tmp_path):
        p = tmp_path / "beta.csv"
        p.write_text("0,0,0.01\n0,10\n")
        with pytest.raises(ParseError, match="line 2"):
            load_tabulated_factor(str(p))


class TestValidation:
    def test_positive_levels_required(self):
        with pytest.raises(DomainError):
            HoLeeFactor(c=0.0)
        with pytest.raises(DomainError):
            HullWhiteFactor(c=0.01, kappa=0.0)

    def test_needs_a_factor(self):
        with pytest.raises(DomainError):
            VolStructure(factors=())

    def test_scale_length_checked(self):
        with pytest.raises(DomainError):
            ho_lee(0.01).integrated_variance((1.0, 1.0), 0.0, 1.0, 1.0, 2.0)


# -- bit-exactness of the pure-Python scalar path ----------------------------


def _bits(x):
    """The IEEE bytes of a float result: equal bits, the sign of zero included."""
    assert type(x) is float
    return struct.pack("<d", x)


def _aliases(x):
    """x and the keys that compare equal to it, and so share its memo entry."""
    out = [x, np.float64(x)]
    if float(x).is_integer():
        out += [int(x), np.int64(x)]
    if x == 0.0:
        out += [-0.0, np.float64(-0.0)]
    return out


def _reference_integrated_variance(vs, scale, t0, t1, T, T_tilde):
    """Numpy evaluation of the same sum: numpy-scalar scales, left to right."""
    s = np.atleast_1d(np.asarray(scale, dtype=float))
    if t1 == t0:
        return 0.0
    pair = (float(T), float(T_tilde))
    return float(sum(
        s[j] ** 2 * vs.factors[j].fp_cov_integral(float(t0), float(t1), pair, pair)
        for j in range(vs.dim)
    ))


class TestScalarPathExactness:
    STRUCTURES = [
        ho_lee(0.01),
        hull_white(0.012, 0.1),
        VolStructure(factors=(HullWhiteFactor(c=0.012, kappa=0.1), HoLeeFactor(c=0.007))),
        VolStructure(factors=(HullWhiteFactor(c=0.02, kappa=0.7), HoLeeFactor(c=0.004),
                              HullWhiteFactor(c=0.011, kappa=0.05))),
    ]

    @pytest.mark.parametrize("vs", STRUCTURES, ids=lambda v: f"d{v.dim}-{v.factors[0].kind}")
    def test_integrated_variance_bit_identical(self, vs):
        """Every call, cold or warm (integrated_variance keeps a memo) and
        through every alias of its arguments, returns the reference's bits.
        A fresh copy fills its memo with the aliases in reverse order."""
        rng = np.random.default_rng(vs.dim)
        cases = []
        for _ in range(300):
            sc = rng.uniform(0.3, 2.0, vs.dim)
            T = rng.uniform(0.0, 30.0)
            Tt = T + rng.uniform(0.0, 10.0)
            t1 = rng.uniform(0.0, T)
            t0 = rng.uniform(0.0, t1)
            window = (t0, t1, T, Tt)
            cases.append((sc, window, [window, tuple(map(np.float64, window))]))
        # Integral and zero arguments, whose aliases include ints and -0.0.
        for window in ((0.0, 1.0, 2.0, 5.0), (0.0, 0.0, 0.0, 3.0), (-1.0, 0.0, 0.0, 0.0),
                       (1.0, 2.0, 2.0, 2.0), (0.0, 2.0, 3.0, 2.0)):
            for sc in (np.ones(vs.dim), np.zeros(vs.dim)):
                windows = [window[:i] + (a,) + window[i + 1:]
                           for i, x in enumerate(window) for a in _aliases(x)]
                cases.append((sc, window, windows))
        for fresh, order in ((vs, 1), (dataclasses.replace(vs), -1)):
            for sc, window, windows in cases:
                forms = [sc.tolist(), sc] + [tuple(a) for a in zip(*map(_aliases, sc.tolist()))]
                if vs.dim == 1:
                    forms += _aliases(float(sc[0])) + [np.array(sc[0])]
                expected = _bits(_reference_integrated_variance(vs, sc, *window))
                for form, args in list(itertools.product(forms, windows))[::order] * 2:
                    assert _bits(fresh.integrated_variance(form, *args)) == expected

    @pytest.mark.parametrize("vs, args, error", [
        (hull_white(0.012, 0.1), ((1.0, 1.0), 0.0, 1.0, 1.0, 2.0), DomainError),
        (hull_white(0.012, 0.1), (("a",), 0.0, 1.0, 1.0, 2.0), DomainError),
        (hull_white(0.012, 0.1), (1.0, 1.0, 0.5, 1.0, 2.0), DomainError),
        (hull_white(0.012, 0.1), (1.0, 0.0, 1.5, 1.0, 2.0), DomainError),
        (hull_white(0.01, 1e6), (1.0, 0.0, 1.0, 1.0, 2.0), OverflowError),
    ], ids=["scale-length", "scale-type", "t0-past-t1", "t1-past-maturity", "overflow"])
    def test_errors_raise_on_every_call(self, vs, args, error):
        for _ in range(2):
            with pytest.raises(error):
                vs.integrated_variance(*args)

    def test_memo_is_per_instance_and_not_part_of_the_value(self):
        low, high = ho_lee(0.01), ho_lee(0.02)
        assert low.integrated_variance(1.0, 0.0, 1.0, 1.0, 2.0) == 0.01**2 * 1.0 * 1.0 * 1.0
        assert high.integrated_variance(1.0, 0.0, 1.0, 1.0, 2.0) == 0.02**2 * 1.0 * 1.0 * 1.0
        used, fresh = self.STRUCTURES[3], dataclasses.replace(self.STRUCTURES[3])
        used.integrated_variance((1.0,) * 3, 0.0, 1.0, 1.0, 2.0)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert vars(dataclasses.replace(used)) == vars(fresh)

    def test_memo_shared_by_threads_returns_serial_bits(self):
        """More threads than cores on one structure, switching often, with
        two band scales as in stress: every thread reads the serial bits."""
        serial, shared = hull_white(0.012, 0.1), hull_white(0.012, 0.1)
        calls = [(s, 0.1 * k, 0.1 * k + 0.5, 0.1 * k + 1.0, 0.1 * k + 2.0)
                 for k in range(60) for s in (0.5, 1.5)]
        expected = [_bits(serial.integrated_variance(*c)) for c in calls]
        results = {}

        def work(i):
            order = 1 if i % 2 else -1
            results[i] = [_bits(shared.integrated_variance(*c)) for c in calls[::order]][::order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {i: expected for i in range(8)}

    def test_covariance_on_equal_pairs_is_the_variance(self):
        for vs in self.STRUCTURES:
            sc = (1.3,) * vs.dim
            v = vs.integrated_variance(sc, 0.2, 0.9, 1.0, 2.5)
            assert vs.integrated_covariance(sc, 0.2, 0.9, (1.0, 2.5), (1.0, 2.5)) == v
            assert type(vs.short_rate_var_integral(list(sc), 0.2, 0.9, 2.5)) is float

    @pytest.mark.parametrize("scale", [(1.0,), [1.0, 1.0, 1.0], np.ones(3), 1.0, [[1.0, 1.0]],
                                       ("a", "b")])
    def test_wrong_scale_rejected(self, scale):
        vs = self.STRUCTURES[2]
        with pytest.raises(DomainError):
            vs.integrated_variance(scale, 0.0, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            vs.integrated_covariance(scale, 0.0, 1.0, (1.0, 2.0), (1.0, 3.0))
        with pytest.raises(DomainError):
            vs.short_rate_var_integral(scale, 0.0, 1.0, 2.0)


# -- closed-form step tables ----------------------------------------------------


def _scalar_table(vs, scale, ts, T, T_tilde):
    """The loop the tables replace: one integrated_variance call per step."""
    return [vs.integrated_variance(scale, ts[k], ts[k + 1], T, T_tilde) for k in range(len(ts) - 1)]


_FACTORS = st.one_of(
    st.builds(HoLeeFactor, c=st.floats(1e-4, 0.05)),
    st.builds(HullWhiteFactor, c=st.floats(1e-4, 0.05), kappa=st.floats(1e-3, 2.0)),
)


@st.composite
def _table_cases(draw):
    factors = draw(st.lists(_FACTORS, min_size=1, max_size=3))
    T = draw(st.floats(0.05, 30.0))
    T_tilde = draw(st.floats(0.0, T + 5.0))
    t_to = draw(st.floats(0.0, min(T, T_tilde)))
    t_from = draw(st.floats(0.0, t_to))
    nt = draw(st.integers(1, 300))
    scale = tuple(draw(st.floats(0.1, 2.0)) for _ in factors)
    ts = np.linspace(t_from, t_to, nt + 1)
    return VolStructure(factors=tuple(factors)), scale, ts, T, T_tilde


class TestStepVarianceTables:
    """VolStructure.integrated_variances, and so pde.step_variances, must equal
    the scalar integrated_variance loop to the last bit."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(_table_cases())
    def test_tables_equal_scalar_loop(self, case):
        vs, scale, ts, T, T_tilde = case
        want = _scalar_table(vs, scale, ts, T, T_tilde)
        assert vs.integrated_variances(scale, ts, T, T_tilde).tolist() == want
        band = UncertaintyBand(lower=tuple(0.5 * s for s in scale), upper=scale)
        a_up, a_dn = step_variances(vs, band, ts, T, T_tilde)
        assert a_up.tolist() == want
        assert a_dn.tolist() == _scalar_table(vs, band.lower, ts, T, T_tilde)

    @pytest.mark.parametrize("vs", TestScalarPathExactness.STRUCTURES,
                             ids=lambda v: f"d{v.dim}-{v.factors[0].kind}")
    def test_degenerate_band_returns_one_array(self, vs):
        ts = np.linspace(0.0, 1.0, 31)
        band = degenerate_band((1.2,) * vs.dim)
        a_up, a_dn = step_variances(vs, band, ts, 1.0, 1.5)
        assert a_dn is a_up
        assert a_up.tolist() == _scalar_table(vs, band.upper, ts, 1.0, 1.5)

    @pytest.mark.parametrize("vs", TestScalarPathExactness.STRUCTURES + [ho_lee(1e153)],
                             ids=lambda v: f"d{v.dim}-{v.factors[0].kind}-{v.factors[0].c:g}")
    def test_zero_width_step_gives_zero(self, vs):
        # With c = 1e153, c^2 (T~ - T)^2 overflows to inf: inf * 0 would be NaN.
        ts = np.array([0.0, 0.4, 0.4, 0.9, 0.9])
        got = vs.integrated_variances((1.1,) * vs.dim, ts, 1.0, 31.0)
        assert got.tolist() == _scalar_table(vs, (1.1,) * vs.dim, ts, 1.0, 31.0)
        assert got[1] == 0.0 and got[3] == 0.0 and got[0] > 0.0

    def test_tabulated_factors_take_the_scalar_calls(self, monkeypatch):
        tab = TabulatedFactor(t_grid=(0.0, 3.0), maturity_grid=(0.0, 10.0),
                              values=((0.01, 0.008), (0.012, 0.009)))
        vs = VolStructure(factors=(HoLeeFactor(c=0.01), tab))
        calls = []
        scalar = VolStructure.integrated_variance

        def counted(self, *args):
            calls.append(args)
            return scalar(self, *args)

        ts = np.linspace(0.0, 1.0, 5)
        want = _scalar_table(vs, (1.0, 1.3), ts, 1.0, 2.0)
        monkeypatch.setattr(VolStructure, "integrated_variance", counted)
        assert vs.integrated_variances((1.0, 1.3), ts, 1.0, 2.0).tolist() == want
        assert len(calls) == 4

    @pytest.mark.parametrize("ts, match", [
        (np.array([0.0, 0.6, 0.5]), "t0 <= t1"),
        (np.array([0.0, 0.5, 1.2]), "t1 <= min"),
    ])
    def test_rejected_grids_raise_the_scalar_errors(self, ts, match):
        for vs in TestScalarPathExactness.STRUCTURES:
            with pytest.raises(DomainError, match=match):
                vs.integrated_variances((1.0,) * vs.dim, ts, 1.0, 2.0)
