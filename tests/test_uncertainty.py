"""Uncertainty band, sublinear generator, price-bounds container."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_rates.errors import DomainError
from robust_rates.uncertainty import (
    SYMMETRIC_REPORTING_TOL,
    PriceBounds,
    UncertaintyBand,
    degenerate_band,
    symmetric_price,
)


class TestGenerator:
    def test_degenerate_band_halves(self):
        band = UncertaintyBand((1.0,), (1.0,))
        assert band.generator([2.0]) == 1.0

    def test_zero_hessian(self):
        band = UncertaintyBand((0.5, 0.7), (1.5, 1.1))
        assert band.generator([0.0, 0.0]) == 0.0

    def test_negative_entry_uses_lower_extreme(self):
        band = UncertaintyBand((0.5,), (1.5,))
        assert band.generator([-2.0]) == pytest.approx(-0.25, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            UncertaintyBand((0.5,), (1.5,)).generator([1.0, 2.0])

    def test_linear_collapse_when_degenerate(self):
        band = degenerate_band((1.3, 0.7))
        a = np.array([2.0, -1.0])
        assert band.generator(a) == pytest.approx(0.5 * (1.3**2 * 2 - 0.7**2), rel=1e-14)


@given(
    a=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    b=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    lam=st.floats(0, 10),
)
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_generator_is_sublinear(a, b, lam):
    band = UncertaintyBand((0.5, 0.8), (1.5, 1.2))
    a, b = np.array(a), np.array(b)
    assert band.generator(lam * a) == pytest.approx(lam * band.generator(a), abs=1e-9)
    assert band.generator(a + b) <= band.generator(a) + band.generator(b) + 1e-12


@given(a=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       bump=st.lists(st.floats(0, 5), min_size=2, max_size=2))
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_generator_is_monotone(a, bump):
    band = UncertaintyBand((0.5, 0.8), (1.5, 1.2))
    a = np.array(a)
    assert band.generator(a) <= band.generator(a + np.array(bump)) + 1e-12


class TestDegeneracy:
    def test_degenerate(self):
        assert UncertaintyBand((1.0,), (1.0,)).is_degenerate

    def test_widened(self):
        assert not UncertaintyBand((0.5,), (1.5,)).is_degenerate

    def test_any_coordinate_widens(self):
        assert not UncertaintyBand((1.0, 1.0), (1.0, 1.2)).is_degenerate


class TestBandValidation:
    def test_lower_must_be_positive(self):
        with pytest.raises(DomainError):
            UncertaintyBand((0.0,), (1.0,))

    def test_upper_at_least_lower(self):
        with pytest.raises(DomainError):
            UncertaintyBand((1.2,), (1.0,))

    def test_lengths_must_match(self):
        with pytest.raises(DomainError):
            UncertaintyBand((1.0,), (1.0, 1.1))


class TestPriceBounds:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            PriceBounds(lower=1.0, upper=0.5, symmetric=False)

    def test_symmetric_tolerance_enforced(self):
        with pytest.raises(DomainError):
            PriceBounds(lower=0.0, upper=1e-6, symmetric=True)

    def test_symmetric_bounds_one_ulp_apart_rejected(self):
        with pytest.raises(DomainError, match="unequal bounds"):
            PriceBounds(lower=0.01, upper=math.nextafter(0.01, 1.0), symmetric=True)

    def test_asymmetric_bounds_may_cross_by_the_tolerance(self):
        b = PriceBounds(lower=0.01, upper=0.01 - 0.5 * SYMMETRIC_REPORTING_TOL, symmetric=False)
        assert b.upper < b.lower

    def test_symmetric_price_helper(self):
        b = symmetric_price(3.14, method="closed-form")
        assert b.lower == b.upper == 3.14
        assert b.symmetric and b.diagnostics["method"] == "closed-form"

    def test_negative_notional_swaps_bounds(self):
        b = PriceBounds(lower=1.0, upper=2.0, symmetric=False).scaled(-1.0)
        assert (b.lower, b.upper) == (-2.0, -1.0)

    def test_spread_and_mid(self):
        b = PriceBounds(lower=1.0, upper=3.0, symmetric=False)
        assert b.spread == 2.0 and b.mid == 2.0
