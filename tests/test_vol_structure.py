"""Factor vols: closed forms, quadrature cross-checks, tabulated surfaces."""

import dataclasses
import itertools
import math
import re
import struct
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robust_rates.errors import DomainError, ParseError
from robust_rates.uncertainty import UncertaintyBand, degenerate_band
from robust_rates.vol_structure import (
    HoLeeFactor,
    HullWhiteFactor,
    TabulatedFactor,
    VolStructure,
    ho_lee,
    hull_white,
    load_tabulated_factor,
    single_factor,
)


def _simpson_rule(lo, hi, knots=(), panels=64):
    """Nodes and weights of the composite Simpson rule over [lo, hi] cut at
    the knots inside it, with at least `panels` panels in all, as many on
    each piece: the reference quadrature of these tests."""
    cuts = [lo] + sorted(k for k in knots if lo < k < hi) + [hi]
    per_piece = -(-panels // (len(cuts) - 1))
    coef = np.concatenate(([1.0], np.tile([4.0, 2.0], per_piece)[:-1], [1.0]))
    nodes = [np.linspace(a, b, 2 * per_piece + 1) for a, b in zip(cuts, cuts[1:])]
    weights = [(b - a) / (6 * per_piece) * coef for a, b in zip(cuts, cuts[1:])]
    return np.concatenate(nodes), np.concatenate(weights)


def _simpson(fn, lo, hi, knots=(), panels=64):
    nodes, weights = _simpson_rule(lo, hi, knots, panels)
    return float(weights @ fn(nodes))


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

    @pytest.mark.parametrize("T", [1.0, 2.0], ids=["equal-times", "later-maturity"])
    def test_index_out_of_range_at_any_maturity(self, T):
        # The index is checked before the T == t shortcut returns zero.
        with pytest.raises(DomainError, match="factor index 5 out of range"):
            ho_lee(0.01).bond_vol(5, 1.0, T)


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
        assert tab.bond_vol(0, 0.5, 3.0) == pytest.approx(hl.bond_vol(0, 0.5, 3.0), rel=1e-14)
        a = tab.integrated_variance((1.3,), 0.0, 1.0, 1.0, 2.0)
        b = hl.integrated_variance((1.3,), 0.0, 1.0, 1.0, 2.0)
        assert a == pytest.approx(b, rel=1e-14)

    def test_fp_cov_integral_keeps_the_bits_of_one_row_pass(self):
        """fp_cov_integral reads each maturity pair's row integrals from a
        per-factor memo, read-only: the bits of one _rows pass over all four
        maturities, cold or warm, through int and np.float64 aliases."""
        rng = np.random.Generator(np.random.Philox(key=5))
        tab = TabulatedFactor(t_grid=(0.0, 0.7, 2.0, 5.0), maturity_grid=(0.0, 1.0, 3.0, 6.0, 12.0),
                              values=rng.uniform(0.005, 0.02, (4, 5)).tolist())

        def one_pass(t0, t1, pair_a, pair_b):
            r = tab._rows((*pair_a, *pair_b))
            return float(tab._time_integral(t0, t1, r[1] - r[0], r[3] - r[2]))

        cases = [(0.0, 1.0, (1.0, 2.0), (1.0, 2.0)), (0.5, 3.0, (3.0, 7.0), (4.0, 13.0)),
                 (0.0, 0.0, (0.0, 2.0), (2.0, 0.0))]
        for _ in range(40):
            T, Tb = rng.uniform(0.0, 14.0, 2)
            pair_a, pair_b = (T, T + rng.uniform(0.0, 3.0)), (Tb, Tb + rng.uniform(0.0, 3.0))
            t1 = rng.uniform(0.0, min(T, Tb))
            cases.append((rng.uniform(0.0, t1), t1, pair_a, pair_b))
        expected = [_bits(one_pass(*case)) for case in cases]
        for used in (tab, dataclasses.replace(tab)):
            for forms in (lambda x: x, np.float64, lambda x: int(x) if float(x).is_integer() else x):
                for case, want in zip(cases, expected):
                    t0, t1, pair_a, pair_b = case
                    args = (t0, t1, tuple(map(forms, pair_a)), tuple(map(forms, pair_b)))
                    assert _bits(used.fp_cov_integral(*args)) == want
        rows = tab._fp_rows(1.0, 2.0)
        assert rows is tab._fp_rows(1, np.float64(2.0)) and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0] = 0.0
        assert tab == dataclasses.replace(tab) and hash(tab) == hash(dataclasses.replace(tab))
        assert repr(tab) == repr(dataclasses.replace(tab))

    def test_bilinear_interpolation(self):
        tab = TabulatedFactor(
            t_grid=(0.0, 2.0), maturity_grid=(0.0, 2.0),
            values=((0.01, 0.02), (0.03, 0.04)),
        )
        assert float(tab.beta(1.0, 1.0)) == pytest.approx(0.025, rel=1e-14)

    def test_fp_vol_bit_identical_to_point_loop(self):
        # The array form gives each point's scalar bits, also at the knots,
        # at the maturities and beyond the grid, and the differences of
        # bond_vol agree to round-off.
        rng = np.random.Generator(np.random.Philox(key=11))
        axis = (0.0, 0.7, 2.0, 5.0, 10.0)
        tab = TabulatedFactor(t_grid=axis, maturity_grid=(0.0, 1.0, 3.0, 6.0, 12.0),
                              values=rng.uniform(0.005, 0.02, (5, 5)).tolist())
        for _ in range(3):
            T = rng.uniform(0.5, 8.0)
            pair = (T, T + rng.uniform(0.1, 3.0))
            u = np.concatenate((rng.uniform(0.0, T, 50), axis[:-1], [0.0, T]))
            u = u[u <= T]
            got = tab.fp_vol(u, *pair)
            assert got.tolist() == [float(tab.fp_vol(x, *pair)) for x in u.tolist()]
            diffs = [tab.bond_vol(x, pair[1]) - tab.bond_vol(x, pair[0]) for x in u.tolist()]
            assert got == pytest.approx(diffs, rel=1e-14)
            assert tab.fp_vol(np.array([[12.5, 14.0]]), 13.0, 20.0).tolist() == [
                [float(tab.fp_vol(12.5, 13.0, 20.0)), float(tab.fp_vol(14.0, 13.0, 20.0))]]

    @pytest.mark.parametrize("axis", ["t_grid", "maturity_grid", "values"])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, axis, position, bad):
        grid = {"t_grid": [0.0, 1.0, 2.0], "maturity_grid": [0.0, 5.0, 10.0],
                "values": [[0.01, 0.011, 0.012], [0.013, 0.014, 0.015], [0.016, 0.017, 0.018]]}
        if axis == "values":
            grid["values"][position][2 - position] = bad
            match = re.escape(f"values[{position}, {2 - position}] (beta at t={float(position)}, T=")
        else:
            grid[axis][position] = bad
            match = re.escape(f"{axis}[{position}] must be finite")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match):
                TabulatedFactor(**grid)

    def test_exact_forms_match_simpson_split_at_every_knot(self):
        """On random grids, windows and maturities before, across and beyond
        the knots of both axes: fp_vol, bond_vol, the (co)variances and
        beta_var_integral equal a Simpson rule split at every knot, with 2e4
        panels per integral (fp_vol inside the time integrals takes one panel
        per piece, exact for beta linear in T), to 1e-12 relative."""
        rng = np.random.default_rng(22)
        seen = set()
        for _ in range(6):
            t_grid = tuple(rng.uniform(0.0, 1.5) + np.cumsum(rng.uniform(0.2, 3.0, rng.integers(2, 6))))
            maturity_grid = tuple(rng.uniform(0.5, 4.0) + np.cumsum(rng.uniform(0.3, 5.0, rng.integers(2, 6))))
            tab = TabulatedFactor(t_grid=t_grid, maturity_grid=maturity_grid,
                                  values=rng.uniform(1e-3, 0.05, (len(t_grid), len(maturity_grid))).tolist())

            def fp_vol(u, T, T_tilde):
                # One panel per piece between maturity knots: beta is linear in s there.
                if T_tilde < T:
                    return -fp_vol(u, T_tilde, T)
                s, w = _simpson_rule(T, T_tilde, maturity_grid, panels=1)
                return tab.beta(u[:, None], s) @ w

            for _ in range(3):
                T = rng.uniform(0.2, maturity_grid[-1] + 5.0)
                t1 = rng.uniform(0.0, T)
                t0 = rng.uniform(0.0, t1)
                pa = (T, T + rng.uniform(0.1, 6.0))
                pb = (rng.uniform(t1, t1 + 10.0), rng.uniform(t1, t1 + 16.0))
                nodes, weights = _simpson_rule(t0, t1, t_grid, panels=20000)
                fa, fb = fp_vol(nodes, *pa), fp_vol(nodes, *pb)
                assert tab.fp_cov_integral(t0, t1, pa, pa) == pytest.approx(weights @ (fa * fa), rel=1e-12)
                assert tab.fp_cov_integral(t0, t1, pa, pb) == pytest.approx(weights @ (fa * fb), rel=1e-12)
                assert tab.beta_var_integral(t0, t1, pb[1]) == pytest.approx(
                    weights @ tab.beta(nodes, pb[1]) ** 2, rel=1e-12)
                assert tab.fp_vol(nodes[::1999], *pa) == pytest.approx(fa[::1999], rel=1e-12)
                for u in (t0, t1):
                    assert tab.bond_vol(u, pa[1]) == pytest.approx(
                        _simpson(lambda s: tab.beta(u, s), u, pa[1], maturity_grid, panels=20000), rel=1e-12)
                seen.add(("t-knot inside", any(t0 < k < t1 for k in t_grid)))
                seen.add(("window beyond t-axis", t1 > t_grid[-1]))
                seen.add(("maturity beyond axis", max(pa + pb) > maturity_grid[-1]))
        assert seen == {(name, b) for name, _ in seen for b in (False, True)}

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

    @pytest.mark.parametrize("line", ["nan,10,0.01", "5,inf,0.01", "-inf,0,0.01"])
    def test_load_csv_non_finite_grid_point(self, tmp_path, line):
        p = tmp_path / "beta.csv"
        p.write_text("0,0,0.01\n0,10,0.01\n" + line + "\n5,0,0.02\n5,10,0.02\n")
        with pytest.raises(ParseError, match=r"line 3: grid point .* must be finite"):
            load_tabulated_factor(str(p))

    def test_load_csv_bad_line(self, tmp_path):
        p = tmp_path / "beta.csv"
        p.write_text("0,0,0.01\n0,10\n")
        with pytest.raises(ParseError, match="line 2"):
            load_tabulated_factor(str(p))

    def test_load_csv_byte_order_mark_skipped(self, tmp_path):
        # As a spreadsheet exports UTF-8 CSV; the messages keep their text.
        p = tmp_path / "beta.csv"
        p.write_bytes(b"\xef\xbb\xbf0,0,0.01\n0,10,0.01\n5,0,0.02\n5,10,0.02\n")
        f = load_tabulated_factor(str(p))
        assert (f.t_grid, f.maturity_grid, f.values) == ((0.0, 5.0), (0.0, 10.0),
                                                         ((0.01, 0.01), (0.02, 0.02)))
        p.write_bytes(b"\xef\xbb\xbf0,0\n")
        with pytest.raises(ParseError, match=r"line 1: expected 't,T,beta', got '0,0'$"):
            load_tabulated_factor(str(p))
        p.write_bytes(b"\xef\xbb\xbf0,0,x\n")
        with pytest.raises(ParseError, match=r"line 1: non-numeric field in '0,0,x'$"):
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
        assert high.extreme_variance(1.0, 2.0, 0.0, 1.0, 1.0, 2.0) == (0.02**2, 2.0**2 * 0.02**2)
        used, fresh = self.STRUCTURES[3], dataclasses.replace(self.STRUCTURES[3])
        used.integrated_variance((1.0,) * 3, 0.0, 1.0, 1.0, 2.0)
        used.extreme_variance((1.0,) * 3, (2.0,) * 3, 0.0, 1.0, 1.0, 2.0)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert vars(dataclasses.replace(used)) == vars(fresh)

    @pytest.mark.parametrize("vs", STRUCTURES, ids=lambda v: f"d{v.dim}-{v.factors[0].kind}")
    def test_extreme_variance_is_two_plain_calls(self, vs):
        """extreme_variance(lower, upper, window) is the pair of uncached
        integrated_variance calls, to the last bit: for a band, its swapped
        (concave) extremes and a degenerate band, cold or warm, through
        every alias of the window's ends."""
        plain = VolStructure.integrated_variance.__wrapped__
        lower, upper = (0.5,) * vs.dim, (1.5,) * vs.dim
        fresh = dataclasses.replace(vs)
        for window in ((0.0, 1.0, 1.0, 1.5), (0.0, 2.0, 2.0, 3.0), (0.0, 0.0, 0.0, 0.25),
                       (0.5, 1.25, 4.0, 2.0)):
            windows = [window[:i] + (a,) + window[i + 1:]
                       for i, x in enumerate(window) for a in _aliases(x)]
            for scales in ((lower, upper), (upper, lower), (upper, upper)):
                expected = tuple(_bits(plain(vs, s, *window)) for s in scales)
                for args in windows * 2:
                    assert tuple(map(_bits, fresh.extreme_variance(*scales, *args))) == expected
        with pytest.raises(DomainError, match="t0 <= t1"):
            fresh.extreme_variance(lower, upper, 1.0, 0.5, 1.0, 2.0)

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

    @pytest.mark.parametrize("t1, pair", [(1.0, (1.0, math.nan)), (1.0, (1.0, math.inf)),
                                          (2.0, (1.0, 2.0))], ids=["nan", "inf", "past-T"])
    def test_covariance_rejects_the_maturities_the_variance_rejects(self, t1, pair):
        # A non-finite maturity, or a window ending past a first maturity, in
        # either pair: integrated_variance's error, not a nan, inf or price.
        for vs in self.STRUCTURES:
            sc = (1.0,) * vs.dim
            with pytest.raises(DomainError, match="t1 <= min"):
                vs.integrated_variance(sc, 0.0, t1, *pair)
            for pairs in ((pair, (1.0, 1.5)), ((1.0, 1.5), pair)):
                with pytest.raises(DomainError, match="t1 <= min"):
                    vs.integrated_covariance(sc, 0.0, t1, *pairs)

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


def _table(vs, scale, ts, T, T_tilde):
    """extreme_variances at one scale."""
    return vs.extreme_variances(scale, scale, ts, T, T_tilde)[0]


def _band_tables(vs, band, ts, T, T_tilde):
    """extreme_variances at the band's extremes, as (upper, lower)."""
    a_dn, a_up = vs.extreme_variances(band.lower, band.upper, ts, T, T_tilde)
    return a_up, a_dn


@st.composite
def _tabulated_factors(draw):
    """A small tabulated factor: 2 to 4 knots on each axis, which the step
    windows and the maturities can fall before, between or beyond."""
    def axis(start):
        steps = draw(st.lists(st.floats(0.05, 6.0), min_size=1, max_size=3))
        return tuple(itertools.accumulate(steps, initial=draw(start)))

    t_grid, maturity_grid = axis(st.floats(0.0, 3.0)), axis(st.floats(0.0, 10.0))
    row = st.lists(st.floats(1e-4, 0.05), min_size=len(maturity_grid), max_size=len(maturity_grid))
    values = draw(st.lists(row, min_size=len(t_grid), max_size=len(t_grid)))
    return TabulatedFactor(t_grid=t_grid, maturity_grid=maturity_grid, values=values)


_FACTORS = st.one_of(
    st.builds(HoLeeFactor, c=st.floats(1e-4, 0.05)),
    st.builds(HullWhiteFactor, c=st.floats(1e-4, 0.05), kappa=st.floats(1e-3, 2.0)),
    _tabulated_factors(),
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
    """VolStructure.extreme_variances, at one scale and at a band's extremes,
    must equal the scalar integrated_variance loop to the last bit."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(_table_cases())
    def test_tables_equal_scalar_loop(self, case):
        vs, scale, ts, T, T_tilde = case
        want = _scalar_table(vs, scale, ts, T, T_tilde)
        assert _table(vs, scale, ts, T, T_tilde).tolist() == want
        band = UncertaintyBand(lower=tuple(0.5 * s for s in scale), upper=scale)
        a_up, a_dn = _band_tables(vs, band, ts, T, T_tilde)
        assert a_up.tolist() == want
        assert a_dn.tolist() == _scalar_table(vs, band.lower, ts, T, T_tilde)

    @pytest.mark.parametrize("vs", TestScalarPathExactness.STRUCTURES,
                             ids=lambda v: f"d{v.dim}-{v.factors[0].kind}")
    def test_degenerate_band_returns_one_array(self, vs):
        ts = np.linspace(0.0, 1.0, 31)
        band = degenerate_band((1.2,) * vs.dim)
        a_up, a_dn = _band_tables(vs, band, ts, 1.0, 1.5)
        assert a_dn is a_up
        assert a_up.tolist() == _scalar_table(vs, band.upper, ts, 1.0, 1.5)

    @pytest.mark.parametrize("vs", TestScalarPathExactness.STRUCTURES + [
        ho_lee(1e153), hull_white(1e160, 0.1),
        VolStructure(factors=(HoLeeFactor(c=1e153), HoLeeFactor(c=0.01))),
    ], ids=lambda v: f"d{v.dim}-{v.factors[0].kind}-{v.factors[0].c:g}")
    def test_zero_width_step_gives_zero(self, vs):
        # With c = 1e153, c^2 (T~ - T)^2 overflows to inf, and with c = 1e160
        # so does g^2: inf * 0 would be NaN.
        ts = np.array([0.0, 0.4, 0.4, 0.9, 0.9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow is inf without a warning
            got = _table(vs, (1.1,) * vs.dim, ts, 1.0, 31.0)
        assert got.tolist() == _scalar_table(vs, (1.1,) * vs.dim, ts, 1.0, 31.0)
        assert got[1] == 0.0 and got[3] == 0.0 and got[0] > 0.0

    def test_tabulated_tables_make_no_scalar_calls(self, monkeypatch):
        """A tabulated or mixed extreme_variances table is one array pass: no
        integrated_variance or fp_cov_integral call, the scalar calls' bits."""
        tab = TabulatedFactor(t_grid=(0.0, 0.3, 3.0), maturity_grid=(0.0, 1.5, 10.0),
                              values=((0.01, 0.008, 0.007), (0.011, 0.012, 0.006), (0.012, 0.009, 0.01)))
        band = UncertaintyBand(lower=(0.5, 0.7), upper=(1.0, 1.3))
        ts = np.linspace(0.0, 1.0, 241)
        calls = []
        scalar, fp_cov = VolStructure.integrated_variance, TabulatedFactor.fp_cov_integral

        def counted(method):
            def wrapper(self, *args):
                calls.append(args)
                return method(self, *args)
            return wrapper

        for vs in (single_factor(tab), VolStructure(factors=(HoLeeFactor(c=0.01), tab))):
            scales = (band.upper[:vs.dim], band.lower[:vs.dim])
            want = [_scalar_table(vs, s, ts, 1.0, 2.0) for s in scales]
            with monkeypatch.context() as m:
                m.setattr(VolStructure, "integrated_variance", counted(scalar))
                m.setattr(TabulatedFactor, "fp_cov_integral", counted(fp_cov))
                a_up, a_dn = _band_tables(vs, UncertaintyBand(scales[1], scales[0]), ts, 1.0, 2.0)
            assert calls == []
            assert [a_up.tolist(), a_dn.tolist()] == want

    @pytest.mark.parametrize("ts, match", [
        (np.array([0.0, 0.6, 0.5]), "t0 <= t1"),
        (np.array([0.0, 0.5, 1.2]), "t1 <= min"),
    ])
    def test_rejected_grids_raise_the_scalar_errors(self, ts, match):
        for vs in TestScalarPathExactness.STRUCTURES:
            with pytest.raises(DomainError, match=match):
                _table(vs, (1.0,) * vs.dim, ts, 1.0, 2.0)


# -- maturity-axis variances ----------------------------------------------------------


def _bits_list(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


_LEVELS = st.floats(1e-4, 0.05) | st.floats(1e150, 1e154)  # the second overflows c^2 (T~ - T)^2 t
_MATURITY_AXIS_FACTORS = st.one_of(
    st.builds(HoLeeFactor, c=_LEVELS),
    st.builds(HullWhiteFactor, c=_LEVELS | st.floats(1e155, 1e160), kappa=st.floats(1e-3, 2.0)),
)


@st.composite
def _maturity_axis_cases(draw):
    """A one-window grid (t0, t1) and maturities T~ >= t1 on a quarter-year
    lattice, each argument an int (where integral), a float or an np.float64,
    over a Ho-Lee, Hull-White or two-factor separable structure."""
    factors = draw(st.lists(_MATURITY_AXIS_FACTORS, min_size=1, max_size=2))
    vs = VolStructure(factors=tuple(factors))

    def arg(quarters):
        x = 0.25 * quarters
        cast = draw(st.sampled_from([float, np.float64] + ([int] if x.is_integer() else [])))
        return cast(x)

    q1 = draw(st.integers(1, 40))
    q0 = draw(st.integers(0, q1 - 1))
    qT = draw(st.integers(q1, 60))
    maturities = [arg(q) for q in draw(st.lists(st.integers(q1, 160), min_size=1, max_size=40))]
    scales = [tuple(draw(st.floats(0.1, 3.0)) for _ in factors) for _ in range(2)]
    as_given = draw(st.sampled_from([tuple, list, np.array]))
    return vs, [as_given(s) for s in scales], (arg(q0), arg(q1)), arg(qT), maturities


class TestMaturityAxisVariances:
    """extreme_variances over an array of maturities, at one scale and at two,
    must equal one integrated_variance call per maturity to the last bit."""

    @settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @given(_maturity_axis_cases())
    def test_equal_scalar_calls(self, case):
        vs, (lower, upper), window, T, maturities = case
        want = [_bits_list(vs.integrated_variance(s, *window, T, Tt) for Tt in maturities)
                for s in (lower, upper)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow gives inf silently, as in the scalar call
            got = _table(vs, upper, window, T, maturities)
            lo, up = vs.extreme_variances(lower, upper, window, T, np.array(maturities))
        assert got.shape == (len(maturities),)
        assert _bits_list(got.tolist()) == want[1]
        assert [_bits_list(lo.tolist()), _bits_list(up.tolist())] == want

    def test_overflowing_levels_give_inf_without_a_warning(self):
        vs = VolStructure(factors=(HoLeeFactor(c=1e153), HullWhiteFactor(c=1e160, kappa=0.1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _table(vs, (1.5, 1.5), (0.0, 5.0), 5.0, [5.25, 10.0, 35.0])
        assert got.tolist() == [math.inf] * 3

    def test_equal_scales_give_one_array(self):
        vs = TestScalarPathExactness.STRUCTURES[2]
        lo, up = vs.extreme_variances((1.2, 0.8), [1.2, 0.8], (0.0, 1.0), 1.0, [1.5, 2.0])
        assert lo is up

    def test_tabulated_factors_make_no_scalar_calls(self, monkeypatch):
        tab = TabulatedFactor(t_grid=(0.0, 3.0), maturity_grid=(0.0, 10.0),
                              values=((0.01, 0.008), (0.012, 0.009)))
        vs = VolStructure(factors=(HoLeeFactor(c=0.01), tab))
        maturities = [1.5, 2.0, 4.0, 12.0]
        want = [[vs.integrated_variance(s, 0.0, 1.0, 1.0, Tt) for Tt in maturities]
                for s in ((1.0, 1.3), (0.5, 0.7))]
        calls = []
        scalar = VolStructure.integrated_variance

        def counted(self, *args):
            calls.append(args)
            return scalar(self, *args)

        monkeypatch.setattr(VolStructure, "integrated_variance", counted)
        assert _table(vs, (1.0, 1.3), (0.0, 1.0), 1.0, maturities).tolist() == want[0]
        lo, up = vs.extreme_variances((0.5, 0.7), (1.0, 1.3), (0.0, 1.0), 1.0, maturities)
        assert [up.tolist(), lo.tolist()] == want
        assert calls == []

    @pytest.mark.parametrize("window, maturities, scale, match", [
        ((0.0, 1.0), [1.5, 0.9, 2.0], 1.0, "t1 <= min"),
        ((1.0, 0.5), [1.5, 2.0], 1.0, "t0 <= t1"),
        ((0.0, 1.0), [1.5, math.nan, 2.0], (1.0, 2.0), "scale must have"),
    ])
    def test_rejected_inputs_raise_the_scalar_errors(self, window, maturities, scale, match):
        for vs in (ho_lee(0.01), hull_white(0.012, 0.1)):
            with pytest.raises(DomainError, match=match):
                vs.integrated_variance(scale, *window, 1.0, maturities[1])
            with pytest.raises(DomainError, match=match):
                _table(vs, scale, window, 1.0, maturities)
            with pytest.raises(DomainError, match=match):
                vs.extreme_variances(1.0, scale, window, 1.0, maturities)


# -- tables on awkward grids, and covariance tables ---------------------------------

_EDGE_FACTORS = st.one_of(_MATURITY_AXIS_FACTORS, _tabulated_factors())


@st.composite
def _edge_grid_cases(draw):
    """A Ho-Lee, Hull-White, tabulated or mixed structure (levels that may
    overflow) and a short grid with repeated points, a NaN, a reversed step
    or an end past a maturity, against one maturity or a column of them."""
    factors = draw(st.lists(_EDGE_FACTORS, min_size=1, max_size=3))
    T = draw(st.floats(0.5, 20.0))
    points = sorted(draw(st.lists(st.floats(0.0, T), min_size=2, max_size=6)))
    for i in draw(st.lists(st.integers(0, len(points) - 1), max_size=2)):
        points.insert(i, points[i])  # a zero-width step
    edit = draw(st.sampled_from(["none", "nan", "reverse", "past-maturity"]))
    k = draw(st.integers(0, len(points) - 2))
    if edit == "nan":
        points[k] = math.nan
    elif edit == "reverse":
        points[k], points[k + 1] = points[k + 1] + 0.25, points[k]
    elif edit == "past-maturity":
        points[-1] = T + 1.0
    maturities = draw(st.lists(st.floats(T, T + 10.0) | st.just(math.nan), min_size=1, max_size=4))
    if draw(st.booleans()):
        maturities[-1] = draw(st.floats(0.0, T))  # may end before the grid
    T_tilde = np.array(maturities)[:, None] if draw(st.booleans()) else maturities[0]
    scales = [tuple(draw(st.floats(0.1, 3.0)) for _ in factors) for _ in range(2)]
    return VolStructure(factors=tuple(factors)), scales, np.array(points), T, T_tilde


class TestEdgeGridTables:
    """extreme_variances has no scalar fallback: on any grid it equals one
    integrated_variance call per window to the last bit (an overflow's inf or
    NaN included), or raises the first rejected window's error."""

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_edge_grid_cases())
    def test_equal_scalar_calls_or_their_error(self, case):
        vs, (lower, upper), ts, T, T_tilde = case
        t0s, t1s, Tts = np.broadcast_arrays(ts[:-1], ts[1:], T_tilde)
        windows = list(zip(t0s.ravel().tolist(), t1s.ravel().tolist(), Tts.ravel().tolist()))
        try:
            want = [_bits_list(vs.integrated_variance(s, t0, t1, T, Tt) for t0, t1, Tt in windows)
                    for s in (lower, upper)]
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                vs.extreme_variances(lower, upper, ts, T, T_tilde)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, up = vs.extreme_variances(lower, upper, ts, T, T_tilde)
        assert lo.shape == up.shape == t0s.shape
        assert [_bits_list(lo.ravel().tolist()), _bits_list(up.ravel().tolist())] == want


class TestNonFiniteWindows:
    """A window end or maturity that is not finite is a DomainError, never a
    NaN or inf variance: every comparison with a NaN is false, so a check
    written as "reject if t0 > t1" lets it through."""

    STRUCTURES = [ho_lee(0.01), hull_white(0.012, 0.1),
                  single_factor(TabulatedFactor(t_grid=(0.0, 3.0), maturity_grid=(0.0, 8.0),
                                                values=((0.01, 0.008), (0.011, 0.012))))]

    @pytest.mark.parametrize("position, bad, match", [
        (0, math.nan, "t0 <= t1"), (0, -math.inf, "t0 <= t1"), (1, math.nan, "t0 <= t1"),
        (2, math.nan, "t1 <= min"), (2, math.inf, "t1 <= min"),
        (3, math.nan, "t1 <= min"), (3, math.inf, "t1 <= min"),
    ], ids=["t0-nan", "t0-minus-inf", "t1-nan", "T-nan", "T-inf", "T~-nan", "T~-inf"])
    def test_integrated_variance_raises(self, position, bad, match):
        window = [0.0, 1.0, 1.0, 2.0]
        window[position] = bad
        for vs in self.STRUCTURES:
            with pytest.raises(DomainError, match=match):
                vs.integrated_variance(1.0, *window)
            with pytest.raises(DomainError, match=match):
                vs.extreme_variance(0.5, 1.5, *window)

    @pytest.mark.parametrize("window, match", [
        ((math.nan, 1.0, 2.0), "t0 <= t1"), ((-math.inf, 1.0, 2.0), "t0 <= t1"),
        ((0.0, math.nan, 2.0), "t0 <= t1"), ((1.0, 0.5, 2.0), "t0 <= t1"),
        ((0.0, 1.0, math.nan), "t1 <= T"), ((0.0, 1.0, math.inf), "t1 <= T"),
        ((0.0, 3.0, 2.0), "t1 <= T"),
    ], ids=["t0-nan", "t0-minus-inf", "t1-nan", "reversed", "T-nan", "T-inf", "past-T"])
    def test_short_rate_var_integral_raises(self, window, match):
        # f(T) accumulates variance only until T: a window past T, or one
        # with a point that is not finite, is refused, not a number.
        for vs in self.STRUCTURES:
            with pytest.raises(DomainError, match=match):
                vs.short_rate_var_integral(1.0, *window)
            assert vs.short_rate_var_integral(1.0, 0.0, 2.0, 2.0) > 0.0

    @pytest.mark.parametrize("ts, T, T_tilde, match", [
        ([math.nan, 0.5, 1.0], 1.0, 2.0, "t0 <= t1"),
        ([0.0, math.nan, 1.0], 1.0, 2.0, "t0 <= t1"),
        ([0.0, 0.5, math.nan], 1.0, 2.0, "t0 <= t1"),
        ([0.0, 0.5, 1.0], math.nan, 2.0, "t1 <= min"),
        ([0.0, 0.5, 1.0], 1.0, [[2.0], [math.nan]], "t1 <= min"),
        ([0.0, 0.5, 1.0], 1.0, [[2.0], [math.inf]], "t1 <= min"),
    ], ids=["first-point", "middle-point", "last-point", "T", "T~-nan", "T~-inf"])
    def test_extreme_variances_raise(self, ts, T, T_tilde, match):
        for vs in self.STRUCTURES:
            with pytest.raises(DomainError, match=match):
                vs.extreme_variances(0.5, 1.5, ts, T, T_tilde)


@st.composite
def _covariance_cases(draw):
    """A structure, a nonempty window [t0, t1] (a swaption's [0, T_0], T_0 >
    0) and 1 to 8 later maturities T~ of the forward prices P(T~)/P(t1)."""
    factors = draw(st.lists(_EDGE_FACTORS, min_size=1, max_size=3))
    t1 = draw(st.floats(0.05, 10.0))
    t0 = draw(st.floats(0.0, t1, exclude_max=True))
    ends = draw(st.lists(st.floats(t1, t1 + 30.0), min_size=1, max_size=8))
    scale = tuple(draw(st.floats(0.1, 3.0)) for _ in factors)
    return VolStructure(factors=tuple(factors)), scale, t0, t1, np.array(ends)


class TestCovarianceTables:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(_covariance_cases())
    def test_mirrored_upper_triangle_equals_scalar_calls(self, case):
        """The Monte Carlo swaption's covariance: one fp_cov_steps table per
        factor on (n, 1) x (1, n) maturities, summed in integrated_covariance's
        order and mirrored, has its bits on and above the diagonal."""
        vs, scale, t0, t1, ends = case
        n, window = len(ends), np.array([t0, t1])
        cov = np.zeros((n, n))
        with np.errstate(over="ignore", invalid="ignore"):
            for sj, f in zip(scale, vs.factors):
                cov = cov + sj ** 2 * f.fp_cov_steps(window, (t1, ends[:, None]), (t1, ends[None, :]))
        cov = np.where(np.tri(n, k=-1, dtype=bool), cov.T, cov)
        want = [[vs.integrated_covariance(scale, t0, t1, (t1, ends[min(a, b)]), (t1, ends[max(a, b)]))
                 for b in range(n)] for a in range(n)]
        assert _bits_list(cov.ravel().tolist()) == _bits_list(np.ravel(want).tolist())
