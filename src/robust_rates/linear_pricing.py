"""Closed-form pricing of symmetric contracts.

Fixed coupon bonds, floating rate notes, and payer swaps have linear payoffs
in realized simple rates, so their upper and lower expectations coincide and
the time-0 prices are plain combinations of today's bond prices:

    FCB   : P(T_N) + K * sum_i delta_i P(T_i)
    FRN   : P(T_0)
    swap  : P(T_0) - P(T_N) - K * sum_i delta_i P(T_i)      (payer)

No volatility input appears anywhere; these prices are invariant under any
uncertainty band by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

from .curve import DiscountCurve
from .errors import DomainError
from .uncertainty import PriceBounds, symmetric_price

LINEAR_KINDS = ("fixed-coupon-bond", "floating-rate-note", "payer-swap")


@dataclass(frozen=True)
class TenorSchedule:
    """Strictly increasing payment dates 0 < T_0 < T_1 < ... < T_N."""

    dates: tuple[float, ...]

    def __post_init__(self) -> None:
        dates = tuple(float(d) for d in self.dates)
        object.__setattr__(self, "dates", dates)
        if len(dates) < 2:
            raise DomainError("schedule needs at least two dates (one accrual period)")
        if not all(map(math.isfinite, dates)):  # NaN passes the ordering checks below
            raise DomainError(f"schedule dates must be finite, got {dates}")
        if dates[0] <= 0.0:
            raise DomainError(f"first schedule date must be positive, got {dates[0]}")
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise DomainError(f"schedule dates must be strictly increasing, got {dates}")

    @property
    def accruals(self) -> tuple[float, ...]:
        """Year fractions delta_i = T_i - T_{i-1}."""
        return tuple(map(sub, self.dates[1:], self.dates))

    @property
    def periods(self) -> int:
        return len(self.dates) - 1

    @property
    def start(self) -> float:
        return self.dates[0]

    @property
    def end(self) -> float:
        return self.dates[-1]

    def check_within(self, curve: DiscountCurve) -> None:
        if self.end > curve.horizon:
            raise DomainError(
                f"schedule end {self.end} exceeds curve horizon {curve.horizon}"
            )


@dataclass(frozen=True)
class LinearContract:
    """A symmetric tenor-structured contract (unit notional by default)."""

    kind: str
    schedule: TenorSchedule
    fixed_rate: float | None = None
    notional: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in LINEAR_KINDS:
            raise DomainError(f"kind must be one of {LINEAR_KINDS}, got {self.kind!r}")
        needs_rate = self.kind in ("fixed-coupon-bond", "payer-swap")
        if needs_rate and self.fixed_rate is None:
            raise DomainError(f"{self.kind} requires fixed_rate")
        if not needs_rate and self.fixed_rate is not None:
            raise DomainError(f"{self.kind} takes no fixed_rate")
        if self.kind == "fixed-coupon-bond" and self.fixed_rate < 0.0:
            raise DomainError(f"coupon rate must be nonnegative, got {self.fixed_rate}")


def annuity(curve: DiscountCurve, schedule: TenorSchedule) -> float:
    """sum_i delta_i P(T_i) over the accrual periods."""
    schedule.check_within(curve)
    return sum(
        d * curve.bond_price(t) for d, t in zip(schedule.accruals, schedule.dates[1:])
    )


def price_fixed_coupon_bond(curve: DiscountCurve, contract: LinearContract) -> PriceBounds:
    """P(T_N) + K * annuity, both bounds equal."""
    if contract.kind != "fixed-coupon-bond":
        raise DomainError(f"expected fixed-coupon-bond, got {contract.kind}")
    s = contract.schedule
    s.check_within(curve)
    value = curve.bond_price(s.end) + contract.fixed_rate * annuity(curve, s)
    return symmetric_price(value, method="closed-form").scaled(contract.notional)


def price_floating_rate_note(curve: DiscountCurve, contract: LinearContract) -> PriceBounds:
    """P(T_0): the note reprices to par at the first reset."""
    if contract.kind != "floating-rate-note":
        raise DomainError(f"expected floating-rate-note, got {contract.kind}")
    s = contract.schedule
    s.check_within(curve)
    return symmetric_price(curve.bond_price(s.start), method="closed-form").scaled(contract.notional)


def price_swap(curve: DiscountCurve, contract: LinearContract) -> PriceBounds:
    """Payer swap: P(T_0) - P(T_N) - K * annuity; receiver swap is the negation."""
    if contract.kind != "payer-swap":
        raise DomainError(f"expected payer-swap, got {contract.kind}")
    s = contract.schedule
    s.check_within(curve)
    value = (
        curve.bond_price(s.start)
        - curve.bond_price(s.end)
        - contract.fixed_rate * annuity(curve, s)
    )
    return symmetric_price(value, method="closed-form").scaled(contract.notional)


def swap_rate(curve: DiscountCurve, schedule: TenorSchedule) -> float:
    """The fixed rate that zeroes the swap value:
    (P(T_0) - P(T_N)) / sum_i delta_i P(T_i)."""
    a = annuity(curve, schedule)
    if a <= 0.0:
        raise DomainError(f"degenerate schedule: annuity {a} is not positive")
    return (curve.bond_price(schedule.start) - curve.bond_price(schedule.end)) / a


def price_linear(curve: DiscountCurve, contract: LinearContract) -> PriceBounds:
    """Dispatch on the contract kind."""
    if contract.kind == "fixed-coupon-bond":
        return price_fixed_coupon_bond(curve, contract)
    if contract.kind == "floating-rate-note":
        return price_floating_rate_note(curve, contract)
    return price_swap(curve, contract)
