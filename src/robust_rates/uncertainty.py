"""Volatility uncertainty band, its sublinear generator, and price bounds.

The band [sigma_lower_i, sigma_upper_i] per factor describes every admissible
diagonal scaling of the diffusion.  Its generator

    G(a) = 1/2 * sum_i ( upper_i^2 * max(a_i, 0) - lower_i^2 * max(-a_i, 0) )

is the worst-case second-order coefficient that drives all the nonlinear
pricing PDEs: positively homogeneous, subadditive, and monotone in the
diagonal Hessian entries a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DomainError

# Absolute slack by which an asymmetric result's upper bound may sit below its lower one.
SYMMETRIC_REPORTING_TOL = 1e-9


@dataclass(frozen=True)
class UncertaintyBand:
    """Per-factor extremes 0 < lower_i <= upper_i of the volatility scaling."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        hi = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise DomainError(
                f"band bounds must have equal length, got {len(lo)} and {len(hi)}"
            )
        if not lo:
            raise DomainError("band must have at least one factor")
        for i, (a, b) in enumerate(zip(lo, hi)):
            if not (b >= a > 0.0):
                raise DomainError(
                    f"band requires upper_{i} >= lower_{i} > 0, got [{a}, {b}]"
                )

    @property
    def dim(self) -> int:
        return len(self.lower)

    def check_factors(self, vs) -> None:
        """DomainError unless the volatility structure vs has one factor per band entry."""
        if vs.dim != self.dim:
            raise DomainError(f"volatility structure has {vs.dim} factors but band has {self.dim}")

    @property
    def is_degenerate(self) -> bool:
        """True in the classical limit upper == lower (a single volatility)."""
        return all(a == b for a, b in zip(self.lower, self.upper))

    def generator(self, a_diag) -> float:
        """Worst-case generator G(a) for diagonal Hessian entries a.

        G(a) = 1/2 * sum_i (upper_i^2 a_i^+ - lower_i^2 a_i^-); collapses to
        the linear 1/2 * sum sigma_i^2 a_i when the band is degenerate.
        """
        a = np.atleast_1d(np.asarray(a_diag, dtype=float))
        if a.shape != (self.dim,):
            raise DomainError(
                f"generator expects {self.dim} diagonal entries, got shape {a.shape}"
            )
        hi = np.asarray(self.upper)
        lo = np.asarray(self.lower)
        return float(0.5 * np.sum(hi**2 * np.maximum(a, 0.0) - lo**2 * np.maximum(-a, 0.0)))

    def midpoint(self) -> tuple[float, ...]:
        return tuple(0.5 * (a + b) for a, b in zip(self.lower, self.upper))


def degenerate_band(sigma, dim: int | None = None) -> UncertaintyBand:
    """Band collapsed to a single scaling (classical model)."""
    s = np.atleast_1d(np.asarray(sigma, dtype=float))
    if dim is not None and s.shape == (1,):
        s = np.full(dim, s[0])
    return UncertaintyBand(lower=tuple(s), upper=tuple(s))


@dataclass(frozen=True)
class PriceBounds:
    """Lower/upper no-arbitrage price bounds with method metadata.

    ``symmetric`` is a structural fact set by the pricer (the payoff admits a
    single price, or the band is degenerate and pricing linear), never
    inferred from the numbers.  A symmetric result's bounds are one number,
    equal to the bit; an asymmetric one's may cross by SYMMETRIC_REPORTING_TOL.
    """

    lower: float
    upper: float
    symmetric: bool
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise DomainError(f"price bounds must be finite, got [{self.lower}, {self.upper}]")
        if not (self.upper >= self.lower - SYMMETRIC_REPORTING_TOL):
            raise DomainError(
                f"price bounds must satisfy upper >= lower, got [{self.lower}, {self.upper}]"
            )
        if self.symmetric and self.upper != self.lower:
            raise DomainError(f"symmetric result with unequal bounds: [{self.lower}, {self.upper}]")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def spread(self) -> float:
        return self.upper - self.lower

    def scaled(self, notional: float) -> "PriceBounds":
        """Apply a notional multiplier (swaps the bounds if negative)."""
        a, b = notional * self.lower, notional * self.upper
        if notional < 0:
            a, b = b, a
        return PriceBounds(lower=a, upper=b, symmetric=self.symmetric,
                           diagnostics=dict(self.diagnostics))


def symmetric_price(value: float, **diagnostics: Any) -> PriceBounds:
    """Bounds collapsed to a single price for a symmetric payoff."""
    return PriceBounds(lower=value, upper=value, symmetric=True, diagnostics=diagnostics)
