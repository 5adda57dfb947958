"""Initial term structure: instantaneous forward curve and time-0 bond prices.

The curve is a piecewise description of the instantaneous forward rate
f(T) on [0, horizon].  Zero-coupon bond prices follow by exact integration,

    P(T) = exp(-integral_0^T f(s) ds),

and forward bond prices are ratios P(T_tilde)/P(T).  Both supported
interpolation modes (flat-left and linear) admit closed-form antiderivatives,
so no quadrature error enters at this layer.

Scalar evaluation is exact and runs in plain Python over cached tuples of
knot maturities, rates and cumulative integrals: on a handful of knots,
numpy's per-call overhead would dominate the cost.

The contracts of a book read P(T) and P(T~)/P(T) at the same schedule
dates over and over, so forward_integral, bond_price and forward_price keep
a per-instance memo (see _memoized): a private dict that lives and dies
with the curve, holds only values already returned, and never changes a bit
of one.  period_prices reads both prices of one closed-form option period in
one lookup, and forward_prices the forward prices of a whole schedule from
one integral per date.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, wraps

from .errors import DomainError, ParseError

INTERPOLATIONS = ("flat-left", "linear")


def _memoized(method):
    """method with a memo of its results in a private dict on the instance.

    The memo is keyed by the positional arguments and filled on first use.
    It suits only a method of a frozen instance whose result (a float, a
    tuple of floats or a read-only array) arguments comparing equal (1, 1.0
    and np.float64(1.0); 0.0 and -0.0) determine to the last bit.  A method
    whose result keeps the sign of a zero argument (T * f(0) at T = +-0.0)
    must not pass a zero to the memo: the first of the two zeros asked for
    would answer for both.  An exception propagates and is not stored, so a
    failing call fails every time.  An unhashable argument (a list or array
    scale) or a keyword argument takes the uncached call.  The memo sits in
    the instance's __dict__, as a cached_property does, so it is no
    dataclass field: ==, hash and repr ignore it, and dataclasses.replace
    starts a fresh one.  Threads share it through plain dict get/set: a race
    computes one value twice, with the same bits.
    """
    attr = f"_{method.__name__}_memo"

    @wraps(method)
    def memoized(self, *args, **kwargs):
        if kwargs:
            return method(self, *args, **kwargs)
        memo = self.__dict__.get(attr)
        if memo is None:
            memo = self.__dict__.setdefault(attr, {})
        try:
            return memo[args]
        except KeyError:
            pass
        except TypeError:
            return method(self, *args)
        value = memo[args] = method(self, *args)
        return value

    return memoized


@dataclass(frozen=True)
class DiscountCurve:
    """Immutable forward curve with exact bond-price integration.

    knots: ordered (maturity, instantaneous forward rate) pairs, maturities
        strictly increasing within [0, horizon], rates per annum as decimals.
    horizon: last usable maturity (years).  Defaults to the last knot.
    interpolation: "flat-left" holds each rate until the next knot;
        "linear" interpolates between knots.  Outside the knot range the
        curve extrapolates flat at the nearest knot's rate.
    """

    knots: tuple[tuple[float, float], ...]
    horizon: float | None = None
    interpolation: str = "linear"

    def __post_init__(self) -> None:
        if not self.knots:
            raise DomainError("curve requires at least one knot")
        knots = tuple((float(m), float(r)) for m, r in self.knots)
        object.__setattr__(self, "knots", knots)
        mats = [m for m, _ in knots]
        if any(not math.isfinite(m) or not math.isfinite(r) for m, r in knots):
            raise DomainError("curve knots must be finite")
        if any(m2 <= m1 for m1, m2 in zip(mats, mats[1:])):
            raise DomainError("curve maturities must be strictly increasing")
        if mats[0] < 0.0:
            raise DomainError("curve maturities must be nonnegative")
        horizon = float(self.horizon) if self.horizon is not None else mats[-1]
        if horizon <= 0.0:
            raise DomainError(f"curve horizon must be positive, got {horizon}")
        if mats[-1] > horizon:
            raise DomainError(
                f"last knot maturity {mats[-1]} exceeds horizon {horizon}"
            )
        object.__setattr__(self, "horizon", horizon)
        if self.interpolation not in INTERPOLATIONS:
            raise DomainError(
                f"interpolation must be one of {INTERPOLATIONS}, "
                f"got {self.interpolation!r}"
            )

    # -- cached knot tuples ------------------------------------------------

    @cached_property
    def _table(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """(maturities, rates, integral_0^{m_k} f(s) ds at each knot m_k)."""
        mats, rates = zip(*self.knots)
        # Segment before the first knot: flat at the first rate.
        cum = [mats[0] * rates[0]]
        for k in range(1, len(mats)):
            dt = mats[k] - mats[k - 1]
            if self.interpolation == "flat-left":
                seg = rates[k - 1] * dt
            else:
                seg = 0.5 * (rates[k - 1] + rates[k]) * dt
            cum.append(cum[-1] + seg)
        return mats, rates, tuple(cum)

    # -- operations ---------------------------------------------------------

    def _check_maturity(self, T: float) -> float:
        T = float(T)
        if not 0.0 <= T <= self.horizon + 1e-12:
            raise DomainError(
                f"maturity {T} outside curve horizon [0, {self.horizon}]"
            )
        return min(T, self.horizon)

    def forward_rate(self, T: float) -> float:
        """Instantaneous forward rate f(T), exact at knots."""
        T = self._check_maturity(T)
        mats, rates, _ = self._table
        if T <= mats[0]:
            return rates[0]
        if T >= mats[-1]:
            return rates[-1]
        k = bisect_right(mats, T) - 1
        if self.interpolation == "flat-left":
            return rates[k]
        w = (T - mats[k]) / (mats[k + 1] - mats[k])
        return rates[k] + w * (rates[k + 1] - rates[k])

    def forward_integral(self, T: float) -> float:
        """integral_0^T f(s) ds, evaluated with closed-form antiderivatives.

        Memoized at every maturity but zero, whose result T * f(0) keeps the
        sign of T: 0.0 and -0.0 would share one memo entry (see _memoized).
        """
        if T == 0.0:
            return self._integral(T)
        return self._memoized_integral(T)

    def _integral(self, T: float) -> float:
        T = self._check_maturity(T)
        mats, rates, cum = self._table
        if T <= mats[0]:
            return T * rates[0]
        if T >= mats[-1]:
            return cum[-1] + (T - mats[-1]) * rates[-1]
        k = bisect_right(mats, T) - 1
        dt = T - mats[k]
        if self.interpolation == "flat-left":
            seg = rates[k] * dt
        else:
            w = dt / (mats[k + 1] - mats[k])
            seg = 0.5 * (rates[k] + (rates[k] + w * (rates[k + 1] - rates[k]))) * dt
        return cum[k] + seg

    _memoized_integral = _memoized(_integral)

    @_memoized
    def bond_price(self, T: float) -> float:
        """Time-0 zero-coupon bond price P(T) = exp(-integral_0^T f)."""
        return math.exp(-self.forward_integral(T))

    @_memoized
    def forward_price(self, T: float, T_tilde: float) -> float:
        """Time-0 forward bond price P(T_tilde)/P(T).

        Satisfies forward_price(T, S) * forward_price(S, T) == 1 up to
        floating round-off.
        """
        return math.exp(self.forward_integral(T) - self.forward_integral(T_tilde))

    @_memoized
    def period_prices(self, T: float, T_tilde: float) -> tuple[float, float]:
        """(P(T), P(T_tilde)/P(T)), as bond_price and forward_price return them."""
        return self.bond_price(T), self.forward_price(T, T_tilde)

    def forward_prices(self, T: float, maturities) -> list[float]:
        """[P(T_k)/P(T) for T_k in maturities], each as forward_price(T, T_k)
        returns it, from one forward_integral read per date."""
        integral = self.forward_integral
        start = integral(T)
        return [math.exp(start - integral(t)) for t in maturities]


def flat_curve(rate: float, horizon: float = 30.0) -> DiscountCurve:
    """Constant forward curve at the given per-annum rate."""
    return DiscountCurve(knots=((0.0, rate),), horizon=horizon)


def _csv_rows(path: str, fields: str):
    """(line number, floats) of each non-blank line of a header-free CSV of
    fields (e.g. "maturity,rate"), skipping a leading UTF-8 byte-order mark
    as spreadsheets write one; ParseError on a malformed line."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != fields.count(",") + 1:
                raise ParseError(f"{path}: line {lineno}: expected {fields!r}, got {line!r}")
            try:
                row = tuple(map(float, parts))
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric field in {line!r}") from None
            yield lineno, row


def load_curve(
    path: str,
    interpolation: str = "linear",
    horizon: float | None = None,
) -> DiscountCurve:
    """Read a curve from a header-free CSV of ``maturity,rate`` lines.

    Maturities are year fractions, rates per-annum decimals with a ``.``
    separator.  Blank lines are ignored.  Raises ParseError with the
    offending line number on malformed input, DomainError on invariant
    violations (unsorted or duplicate maturities).
    """
    knots = [row for _, row in _csv_rows(path, "maturity,rate")]
    if not knots:
        raise ParseError(f"{path}: no curve rows found")
    mats = [m for m, _ in knots]
    if any(m2 <= m1 for m1, m2 in zip(mats, mats[1:])):
        raise DomainError(f"{path}: maturities must be strictly increasing")
    return DiscountCurve(knots=tuple(knots), horizon=horizon, interpolation=interpolation)

