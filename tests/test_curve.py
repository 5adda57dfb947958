"""Forward-curve interpolation, exact bond-price integration, CSV loading."""

import dataclasses
import itertools
import math
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from robust_rates.curve import DiscountCurve, flat_curve, load_curve
from robust_rates.errors import DomainError, ParseError


def linear_curve():
    return DiscountCurve(knots=((0.0, 0.01), (10.0, 0.03)), horizon=30.0, interpolation="linear")


def steps_curve():
    return DiscountCurve(knots=((0.0, 0.01), (10.0, 0.03)), horizon=30.0, interpolation="flat-left")


class TestForwardRate:
    def test_flat_curve_constant(self):
        assert flat_curve(0.02).forward_rate(7.0) == 0.02

    def test_linear_midpoint(self):
        assert linear_curve().forward_rate(5.0) == pytest.approx(0.02, abs=1e-15)

    def test_flat_left_holds_left_value(self):
        assert steps_curve().forward_rate(5.0) == 0.01

    def test_exact_at_knots(self):
        c = DiscountCurve(knots=((1.0, 0.015), (2.0, 0.025), (4.0, 0.02)), horizon=10.0)
        for m, r in c.knots:
            assert c.forward_rate(m) == r

    def test_flat_extrapolation_past_last_knot(self):
        assert linear_curve().forward_rate(25.0) == 0.03

    def test_out_of_horizon_rejected(self):
        with pytest.raises(DomainError):
            flat_curve(0.02, horizon=30.0).forward_rate(31.0)
        with pytest.raises(DomainError):
            linear_curve().bond_price(30.0 + 1e-11)
        with pytest.raises(DomainError):
            linear_curve().forward_price(1.0, 30.0 + 1e-11)
        with pytest.raises(DomainError):
            flat_curve(0.02).forward_rate(-0.5)


class TestBondPrice:
    def test_at_zero(self):
        assert flat_curve(0.02).bond_price(0.0) == 1.0

    def test_flat_closed_form(self):
        assert flat_curve(0.02).bond_price(5.0) == pytest.approx(math.exp(-0.10), rel=1e-15)

    def test_linear_trapezoid(self):
        # area = 0.5 * (0.01 + 0.03) * 10 = 0.20
        assert linear_curve().bond_price(10.0) == pytest.approx(math.exp(-0.20), rel=1e-15)

    def test_multiplicativity_against_quadrature(self):
        for curve in (linear_curve(), steps_curve()):
            for s, t in ((0.0, 4.0), (2.5, 7.0), (6.0, 20.0)):
                integral, _ = quad(curve.forward_rate, s, t, points=[10.0], limit=200)
                lhs = curve.bond_price(t)
                rhs = curve.bond_price(s) * math.exp(-integral)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_log_derivative_recovers_forward_rate(self):
        curve = linear_curve()
        h = 1e-6
        for t in (1.0, 5.0, 8.0):
            fd = -(math.log(curve.bond_price(t + h)) - math.log(curve.bond_price(t - h))) / (2 * h)
            assert fd == pytest.approx(curve.forward_rate(t), abs=1e-6)


class TestForwardPrice:
    def test_equal_maturities(self):
        assert linear_curve().forward_price(3.3, 3.3) == 1.0

    def test_flat_ratio(self):
        c = flat_curve(0.02)
        assert c.forward_price(1.0, 1.5) == pytest.approx(math.exp(-0.01), rel=1e-15)
        assert c.forward_price(1.5, 1.0) == pytest.approx(math.exp(0.01), rel=1e-15)

    def test_reciprocal_symmetry(self):
        c = linear_curve()
        for a, b in ((0.5, 9.0), (2.0, 2.5), (7.0, 1.0)):
            assert abs(c.forward_price(a, b) * c.forward_price(b, a) - 1.0) <= 1e-14


class TestValidation:
    def test_needs_a_knot(self):
        with pytest.raises(DomainError):
            DiscountCurve(knots=())

    def test_unsorted_knots_rejected(self):
        with pytest.raises(DomainError):
            DiscountCurve(knots=((1.0, 0.02), (0.5, 0.01)))

    def test_duplicate_knots_rejected(self):
        with pytest.raises(DomainError):
            DiscountCurve(knots=((1.0, 0.02), (1.0, 0.03)))

    def test_nonfinite_rate_rejected(self):
        with pytest.raises(DomainError):
            DiscountCurve(knots=((0.0, float("nan")),))

    def test_bad_interpolation_tag(self):
        with pytest.raises(DomainError):
            DiscountCurve(knots=((0.0, 0.02),), interpolation="cubic")

    @pytest.mark.parametrize("call", [
        lambda c: c.bond_price(30.5),
        lambda c: c.bond_price(-1.0),
        lambda c: c.forward_price(1.0, 30.5),
        lambda c: c.forward_price(30.5, 1.0),
        lambda c: c.forward_integral(30.5),
        lambda c: c.forward_integral(-1.0),
        lambda c: c.forward_prices(1.0, [2.0, 30.5]),
        lambda c: c.forward_prices(30.5, [2.0]),
    ], ids=["bond-past-horizon", "bond-negative", "forward-past-horizon", "forward-first-past",
            "integral-past-horizon", "integral-negative", "schedule-past-horizon",
            "schedule-start-past"])
    def test_errors_raise_on_every_call(self, call):
        curve = linear_curve()
        for _ in range(2):
            with pytest.raises(DomainError, match="outside curve horizon"):
                call(curve)


class TestMemo:
    """forward_integral, bond_price and forward_price keep a per-instance memo
    of their results."""

    def test_curves_with_different_knots_never_share_values(self):
        a = DiscountCurve(knots=((0.0, 0.01), (10.0, 0.03)), horizon=30.0)
        b = DiscountCurve(knots=((0.0, 0.01), (10.0, 0.04)), horizon=30.0)
        for T, S in ((5.0, 20.0), (20.0, 5.0)):
            assert a.bond_price(T) != b.bond_price(T)
            assert b.bond_price(T) == math.exp(-b.forward_integral(T))
            assert a.forward_price(T, S) != b.forward_price(T, S)
            assert b.forward_price(T, S) == math.exp(b.forward_integral(T) - b.forward_integral(S))

    def test_memo_is_not_part_of_the_value(self):
        used, fresh = linear_curve(), linear_curve()
        used.bond_price(1.0)
        used.forward_price(1.0, 2.0)
        used.period_prices(1.0, 2.0)
        used.forward_integral(3.0)
        used.forward_prices(1.0, [2.0, 3.0])
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert vars(dataclasses.replace(used)) == vars(fresh)
        moved = dataclasses.replace(used, knots=((0.0, 0.02),))
        assert moved.bond_price(1.0) == math.exp(-0.02) != used.bond_price(1.0)

    def test_keyword_call_matches_positional(self):
        curve = linear_curve()
        assert curve.bond_price(T=7.0) == curve.bond_price(7.0)
        assert curve.forward_price(T=1.0, T_tilde=7.0) == curve.forward_price(1.0, 7.0)
        assert curve.period_prices(T=1.0, T_tilde=7.0) == curve.period_prices(1.0, 7.0)
        assert curve.forward_integral(T=7.0) == curve.forward_integral(7.0)

    @pytest.mark.parametrize("rate", [0.02, -0.01])
    def test_each_zero_maturity_keeps_its_own_sign(self, rate):
        # integral_0^T f = T * f(0) at T = +-0.0: 0.0 and -0.0 compare equal
        # and hash alike, so one memo entry would answer both with the sign
        # of whichever came first.
        curve = DiscountCurve(knots=((0.0, rate), (10.0, 0.03)), horizon=30.0)

        def want(z):
            return _bits(float(z) * rate)

        assert want(0.0) != want(-0.0)
        for order in ((0.0, -0.0), (-0.0, 0.0), (np.float64(-0.0), 0, np.float64(0.0))):
            fresh = dataclasses.replace(curve)
            for z in order * 2:
                assert _bits(fresh.forward_integral(z)) == want(z)

    def test_shared_by_threads_returns_serial_bits(self):
        """More threads than cores read one curve's integrals and schedules,
        switching often: every thread reads the serial bits."""
        curve = DiscountCurve(knots=((0.0, 0.015), (2.0, 0.025), (10.0, 0.03)), horizon=30.0)
        starts = (0.0, 0.5, 1.25, 2.0)
        jobs = [(t0, [t0 + 0.25 * k for k in range(1, 41)]) for t0 in starts]

        def bits(curve, order):
            out = [[x.hex() for x in curve.forward_prices(t0, dates)] for t0, dates in jobs[::order]]
            out += [[curve.forward_integral(t).hex() for t in dates] for _, dates in jobs[::order]]
            return out

        expected = bits(dataclasses.replace(curve), 1)
        shared = dataclasses.replace(curve)
        results = {}

        def work(i):
            order = 1 if i % 2 else -1
            got = bits(shared, order)
            results[i] = got[:len(jobs)][::order] + got[len(jobs):][::order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {i: expected for i in range(8)}


class TestLoadCurve:
    def test_round_trip_flat(self, tmp_path):
        p = tmp_path / "curve.csv"
        p.write_text("0,0.02\n30,0.02\n")
        c = load_curve(str(p))
        assert c.horizon == 30.0
        assert c.forward_rate(12.0) == 0.02

    def test_crlf_and_blank_lines(self, tmp_path):
        p = tmp_path / "curve.csv"
        p.write_bytes(b"0,0.01\r\n\r\n10,0.03\r\n")
        c = load_curve(str(p))
        assert c.knots == ((0.0, 0.01), (10.0, 0.03))

    def test_duplicate_maturity_rejected(self, tmp_path):
        p = tmp_path / "curve.csv"
        p.write_text("0,0.02\n0,0.03\n")
        with pytest.raises(DomainError, match="strictly increasing"):
            load_curve(str(p))

    def test_non_numeric_field_reports_line(self, tmp_path):
        p = tmp_path / "curve.csv"
        p.write_text("0,0.02\n1,abc\n")
        with pytest.raises(ParseError, match="line 2"):
            load_curve(str(p))

    def test_wrong_column_count_reports_line(self, tmp_path):
        p = tmp_path / "curve.csv"
        p.write_text("0,0.02\n1,0.02,9\n")
        with pytest.raises(ParseError, match="line 2"):
            load_curve(str(p))

    def test_byte_order_mark_skipped(self, tmp_path):
        # As a spreadsheet exports UTF-8 CSV; the messages keep their text.
        p = tmp_path / "curve.csv"
        p.write_bytes(b"\xef\xbb\xbf0.0,0.02\n30,0.03\n")
        assert load_curve(str(p)).knots == ((0.0, 0.02), (30.0, 0.03))
        p.write_bytes(b"\xef\xbb\xbf0.0,0.02\n1,abc\n")
        with pytest.raises(ParseError, match=r"line 2: non-numeric field in '1,abc'$"):
            load_curve(str(p))
        p.write_bytes(b"\xef\xbb\xbf0.0\n")
        with pytest.raises(ParseError, match=r"line 1: expected 'maturity,rate', got '0.0'$"):
            load_curve(str(p))


@given(
    rates=st.lists(st.floats(min_value=0.0, max_value=0.2), min_size=2, max_size=6),
    gaps=st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=5),
    interp=st.sampled_from(["flat-left", "linear"]),
)
@settings(max_examples=60, deadline=None)
def test_nonnegative_rates_give_nonincreasing_positive_prices(rates, gaps, interp):
    n = min(len(rates), len(gaps) + 1)
    mats = np.concatenate([[0.0], np.cumsum(gaps[: n - 1])])
    curve = DiscountCurve(
        knots=tuple(zip(mats, rates[:n])), horizon=float(mats[-1]) + 1.0, interpolation=interp
    )
    ts = np.linspace(0.0, curve.horizon, 40)
    prices = [curve.bond_price(t) for t in ts]
    assert all(p > 0.0 for p in prices)
    assert all(a >= b - 1e-12 for a, b in zip(prices, prices[1:]))


# -- bit-exactness of the pure-Python scalar path ----------------------------
#
# The reference functions below evaluate the same formulas with numpy arrays
# and searchsorted.  The pure-Python path must agree with them to the last
# bit, because byte-identical outputs across releases depend on it.


def _reference_forward_rate(curve, T):
    T = min(float(T), curve.horizon)
    mats = np.array([m for m, _ in curve.knots])
    rates = np.array([r for _, r in curve.knots])
    if T <= mats[0]:
        return float(rates[0])
    if T >= mats[-1]:
        return float(rates[-1])
    k = int(np.searchsorted(mats, T, side="right")) - 1
    if curve.interpolation == "flat-left":
        return float(rates[k])
    w = (T - mats[k]) / (mats[k + 1] - mats[k])
    return float(rates[k] + w * (rates[k + 1] - rates[k]))


def _reference_forward_integral(curve, T):
    T = min(float(T), curve.horizon)
    mats = np.array([m for m, _ in curve.knots])
    rates = np.array([r for _, r in curve.knots])
    cum = np.zeros(len(mats))
    cum[0] = mats[0] * rates[0]
    for k in range(1, len(mats)):
        dt = mats[k] - mats[k - 1]
        if curve.interpolation == "flat-left":
            seg = rates[k - 1] * dt
        else:
            seg = 0.5 * (rates[k - 1] + rates[k]) * dt
        cum[k] = cum[k - 1] + seg
    if T <= mats[0]:
        return float(T * rates[0])
    if T >= mats[-1]:
        return float(cum[-1] + (T - mats[-1]) * rates[-1])
    k = int(np.searchsorted(mats, T, side="right")) - 1
    dt = T - mats[k]
    if curve.interpolation == "flat-left":
        seg = rates[k] * dt
    else:
        seg = 0.5 * (rates[k] + _reference_forward_rate(curve, T)) * dt
    return float(cum[k] + seg)


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


def _exactness_curves():
    rng = np.random.default_rng(11)
    knot_sets = [
        ((0.0, 0.021),),
        ((2.5, 0.013),),
        ((0.0, 0.015), (5.0, 0.025), (10.0, 0.03), (30.0, 0.035)),
        tuple(zip(np.cumsum(rng.uniform(0.05, 3.0, 12)).tolist(),
                  rng.uniform(-0.01, 0.07, 12).tolist())),
    ]
    for knots in knot_sets:
        for interp in ("flat-left", "linear"):
            yield DiscountCurve(knots=knots, horizon=knots[-1][0] + 3.7, interpolation=interp)


@pytest.mark.parametrize("curve", list(_exactness_curves()),
                         ids=lambda c: f"{len(c.knots)}knots-{c.interpolation}")
def test_scalar_path_bit_identical_to_numpy_reference(curve):
    rng = np.random.default_rng(len(curve.knots))
    h = curve.horizon
    points = [0.0, h, h + 1e-13] + [m for m, _ in curve.knots]
    points += rng.uniform(0.0, h, 400).tolist()
    for T in points + [np.float64(points[-1]), np.int64(1)]:
        rate, integral = curve.forward_rate(T), curve.forward_integral(T)
        assert type(rate) is float and type(integral) is float
        assert rate == _reference_forward_rate(curve, T)
        assert integral == _reference_forward_integral(curve, T)
    # forward_integral, bond_price, forward_price and period_prices answer
    # from a memo, and forward_prices reads forward_integral's: each call,
    # cold or warm and through every alias of its arguments, returns the
    # reference's bits (each signed zero its own).  A fresh copy fills its
    # memo with the aliases in reverse order.
    integrals = [_reference_forward_integral(curve, S) for S in points]
    for fresh, order in ((curve, 1), (dataclasses.replace(curve), -1)):
        # Schedules from zero, the horizon, its slack and every knot, over
        # every point (between knots, past the last one, at the horizon).
        for T in points[:3 + len(curve.knots)][::order]:
            for start in _aliases(T)[::order]:
                base = _reference_forward_integral(curve, start)
                want = [_bits(math.exp(base - i)) for i in integrals]
                dates = points if order == 1 else [np.float64(S) for S in points]
                assert list(map(_bits, fresh.forward_prices(start, dates))) == want
        for T in points:
            expected = _bits(math.exp(-_reference_forward_integral(curve, T)))
            for alias in _aliases(T)[::order] * 2:
                assert _bits(fresh.forward_integral(alias)) == _bits(
                    _reference_forward_integral(curve, alias))
                assert _bits(fresh.bond_price(alias)) == expected
        for T, S in zip(points, reversed(points)):
            expected = _bits(math.exp(_reference_forward_integral(curve, T)
                                      - _reference_forward_integral(curve, S)))
            period = (_bits(math.exp(-_reference_forward_integral(curve, T))), expected)
            for pair in list(itertools.product(_aliases(T), _aliases(S)))[::order] * 2:
                assert _bits(fresh.forward_price(*pair)) == expected
                assert tuple(map(_bits, fresh.period_prices(*pair))) == period

