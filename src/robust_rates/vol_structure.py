"""Deterministic factor volatilities for the forward-rate dynamics.

Each factor carries a continuous diffusion surface beta(t, T).  Everything
the pricers need derives from it:

  * bond_vol        b(t, T)   = integral_t^T beta(t, s) ds
                    (the loading of the T-bond on the factor),
  * forward_price_vol(t, T, T~) = b(t, T~) - b(t, T)
                    (the loading of the forward bond price P(T~)/P(T)),
  * integrated (co)variances of forward-price vols over a time window,
    which are the total variances entering every lognormal closed form.

Ho-Lee and Hull-White factors use closed-form antiderivatives; tabulated
factors fall back on a fixed 64-panel composite Simpson rule.

The contracts of a book ask for the same windows and maturity pairs over
and over, so VolStructure.integrated_variance keeps a per-instance memo
(curve._memoized, shared with the curve's bond prices): it lives and dies
with the structure and returns the uncached call's float to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .curve import _memoized
from .errors import DomainError, ParseError

SIMPSON_PANELS = 64


def _simpson(fn, lo: float, hi: float, panels: int = SIMPSON_PANELS) -> float:
    """Composite Simpson rule with a fixed, even panel count."""
    if hi <= lo:
        return 0.0
    xs = np.linspace(lo, hi, 2 * panels + 1)
    ys = np.asarray(fn(xs), dtype=float)
    h = (hi - lo) / (2 * panels)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum() + 2.0 * ys[2:-1:2].sum()))


@dataclass(frozen=True)
class HoLeeFactor:
    """Constant diffusion beta(t, T) = c with c > 0."""

    c: float
    kind = "ho-lee"

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise DomainError(f"ho-lee level must be positive, got {self.c}")

    def beta(self, t, T):
        t = np.asarray(t, dtype=float)
        T = np.asarray(T, dtype=float)
        return np.full(np.broadcast_shapes(t.shape, T.shape), self.c)

    def bond_vol(self, t: float, T: float) -> float:
        return self.c * (T - t)

    def fp_vol(self, t, T: float, T_tilde: float):
        """sigma_t(T, T~) = c * (T~ - T), constant in t."""
        return self.c * (T_tilde - T) * np.ones_like(np.asarray(t, dtype=float))

    def fp_cov_integral(self, t0: float, t1: float, pair_a, pair_b) -> float:
        (Ta, Tta), (Tb, Ttb) = pair_a, pair_b
        return self.c**2 * (Tta - Ta) * (Ttb - Tb) * (t1 - t0)

    def fp_var_steps(self, ts: np.ndarray, pair) -> np.ndarray:
        """fp_cov_integral(ts[k], ts[k + 1], pair, pair) for every step k, in
        the same operations: c^2 (T~ - T)^2 times the step widths."""
        T, T_tilde = pair
        return self.c**2 * (T_tilde - T) * (T_tilde - T) * (ts[1:] - ts[:-1])

    def beta_var_integral(self, t0: float, t1: float, T: float) -> float:
        return self.c**2 * (t1 - t0)


@dataclass(frozen=True)
class HullWhiteFactor:
    """Exponentially damped diffusion beta(t, T) = c * exp(-kappa (T - t))."""

    c: float
    kappa: float
    kind = "hull-white"

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise DomainError(f"hull-white level must be positive, got {self.c}")
        if not self.kappa > 0.0:
            raise DomainError(f"hull-white mean reversion must be positive, got {self.kappa}")

    def beta(self, t, T):
        t = np.asarray(t, dtype=float)
        T = np.asarray(T, dtype=float)
        return self.c * np.exp(-self.kappa * (T - t))

    def bond_vol(self, t: float, T: float) -> float:
        return self.c / self.kappa * (1.0 - math.exp(-self.kappa * (T - t)))

    def fp_vol(self, t, T: float, T_tilde: float):
        """(c/kappa) * (exp(-kappa T) - exp(-kappa T~)) * exp(kappa t); the
        t-dependence is a common factor, so ratios across maturities are
        constant in t (time-separable)."""
        t = np.asarray(t, dtype=float)
        g = self.c / self.kappa * (math.exp(-self.kappa * T) - math.exp(-self.kappa * T_tilde))
        return g * np.exp(self.kappa * t)

    def fp_cov_integral(self, t0: float, t1: float, pair_a, pair_b) -> float:
        (Ta, Tta), (Tb, Ttb) = pair_a, pair_b
        k = self.kappa
        ga = self.c / k * (math.exp(-k * Ta) - math.exp(-k * Tta))
        gb = self.c / k * (math.exp(-k * Tb) - math.exp(-k * Ttb))
        return ga * gb * (math.exp(2.0 * k * t1) - math.exp(2.0 * k * t0)) / (2.0 * k)

    def fp_var_steps(self, ts: np.ndarray, pair) -> np.ndarray:
        """fp_cov_integral(ts[k], ts[k + 1], pair, pair) for every step k, in
        the same operations: one math.exp per grid time, then
        g^2 (E[k+1] - E[k]) / 2 kappa."""
        T, T_tilde = pair
        k = self.kappa
        g = self.c / k * (math.exp(-k * T) - math.exp(-k * T_tilde))
        e = np.array([math.exp(2.0 * k * t) for t in ts.tolist()])
        return g * g * (e[1:] - e[:-1]) / (2.0 * k)

    def beta_var_integral(self, t0: float, t1: float, T: float) -> float:
        k = self.kappa
        return self.c**2 * math.exp(-2.0 * k * T) * (math.exp(2.0 * k * t1) - math.exp(2.0 * k * t0)) / (2.0 * k)


@dataclass(frozen=True)
class TabulatedFactor:
    """Diffusion given on a full rectangular (t, T) grid, bilinear in between.

    t_grid, maturity_grid: strictly increasing axes; values[i, j] = beta at
    (t_grid[i], maturity_grid[j]).  Outside the grid the surface extends
    flat, preserving continuity.  All integrals use Simpson quadrature.
    """

    t_grid: tuple[float, ...]
    maturity_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    kind = "tabulated"

    def __post_init__(self) -> None:
        t = tuple(float(v) for v in self.t_grid)
        m = tuple(float(v) for v in self.maturity_grid)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "maturity_grid", m)
        object.__setattr__(self, "values", tuple(tuple(float(v) for v in row) for row in self.values))
        if len(t) < 2 or len(m) < 2:
            raise DomainError("tabulated factor needs at least a 2x2 grid")
        if any(b <= a for a, b in zip(t, t[1:])) or any(b <= a for a, b in zip(m, m[1:])):
            raise DomainError("tabulated grid axes must be strictly increasing")
        if len(self.values) != len(t) or any(len(row) != len(m) for row in self.values):
            raise DomainError(
                "tabulated factor requires a full rectangular grid: "
                f"got {len(self.values)} rows for {len(t)} t-points"
            )

    @cached_property
    def _vals(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    def beta(self, t, T):
        t = np.clip(np.asarray(t, dtype=float), self.t_grid[0], self.t_grid[-1])
        T = np.clip(np.asarray(T, dtype=float), self.maturity_grid[0], self.maturity_grid[-1])
        tg = np.asarray(self.t_grid)
        mg = np.asarray(self.maturity_grid)
        i = np.clip(np.searchsorted(tg, t, side="right") - 1, 0, len(tg) - 2)
        j = np.clip(np.searchsorted(mg, T, side="right") - 1, 0, len(mg) - 2)
        wt = (t - tg[i]) / (tg[i + 1] - tg[i])
        wm = (T - mg[j]) / (mg[j + 1] - mg[j])
        v = self._vals
        return (
            v[i, j] * (1 - wt) * (1 - wm)
            + v[i + 1, j] * wt * (1 - wm)
            + v[i, j + 1] * (1 - wt) * wm
            + v[i + 1, j + 1] * wt * wm
        )

    def bond_vol(self, t: float, T: float) -> float:
        return _simpson(lambda s: self.beta(np.full_like(s, t), s), t, T)

    def fp_vol(self, t, T: float, T_tilde: float):
        """bond_vol(u, T_tilde) - bond_vol(u, T) for every u of t, as one grid of
        ``_simpson`` windows (a zero-width window makes ``np.linspace`` divide
        every window by 2 * SIMPSON_PANELS first, exact for a power of two)."""
        t = np.asarray(t, dtype=float)
        ends = np.array([T_tilde, T]).reshape((2,) + (1,) * t.ndim)
        s = np.linspace(t, ends, 2 * SIMPSON_PANELS + 1, axis=-1)
        ys = self.beta(np.broadcast_to(t[..., None], s.shape), s)
        odd, even = ys[..., 1::2].sum(axis=-1), ys[..., 2:-1:2].sum(axis=-1)
        h = (ends - t) / (2 * SIMPSON_PANELS)
        vols = np.where(t < ends, h / 3.0 * (ys[..., 0] + ys[..., -1] + 4.0 * odd + 2.0 * even), 0)
        return vols[0] - vols[1]

    def fp_cov_integral(self, t0: float, t1: float, pair_a, pair_b) -> float:
        def integrand(u):
            return self.fp_vol(u, *pair_a) * self.fp_vol(u, *pair_b)

        return _simpson(integrand, t0, t1)

    def beta_var_integral(self, t0: float, t1: float, T: float) -> float:
        return _simpson(lambda u: self.beta(u, np.full_like(u, T)) ** 2, t0, t1)


VolFactor = Union[HoLeeFactor, HullWhiteFactor, TabulatedFactor]


def load_tabulated_factor(path: str) -> TabulatedFactor:
    """Read a tabulated factor from header-free ``t,T,beta`` CSV lines.

    The rows must fill a complete rectangular grid (every combination of the
    distinct t and T values exactly once, in any order).
    """
    entries: dict[tuple[float, float], float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ParseError(f"{path}: line {lineno}: expected 't,T,beta', got {line!r}")
            try:
                t, T, b = (float(p) for p in parts)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric field in {line!r}") from None
            if (t, T) in entries:
                raise ParseError(f"{path}: line {lineno}: duplicate grid point ({t}, {T})")
            entries[(t, T)] = b
    ts = sorted({t for t, _ in entries})
    ms = sorted({T for _, T in entries})
    if len(entries) != len(ts) * len(ms):
        raise DomainError(
            f"{path}: grid is not rectangular: {len(entries)} points for "
            f"{len(ts)} x {len(ms)} axes"
        )
    values = tuple(tuple(entries[(t, T)] for T in ms) for t in ts)
    return TabulatedFactor(t_grid=tuple(ts), maturity_grid=tuple(ms), values=values)


@dataclass(frozen=True)
class VolStructure:
    """Ordered collection of diffusion factors; dimension d = len(factors).

    A ``scale`` argument (factor j is multiplied by scale_j) is a sequence of
    d numbers (tuple, list or 1-D array) or, when d == 1, a single number.
    """

    factors: tuple[VolFactor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise DomainError("volatility structure needs at least one factor")

    @property
    def dim(self) -> int:
        return len(self.factors)

    def _factor(self, i: int) -> VolFactor:
        if not 0 <= i < self.dim:
            raise DomainError(f"factor index {i} out of range for d={self.dim}")
        return self.factors[i]

    def _check_scale(self, scale) -> tuple[float, ...]:
        """The d per-factor scales as a tuple of floats (see the class doc)."""
        if isinstance(scale, np.ndarray):
            scale = scale.tolist()
        try:
            s = tuple(map(float, scale if isinstance(scale, (tuple, list)) else (scale,)))
        except (TypeError, ValueError):
            raise DomainError(f"scale entries must be numbers, got {scale!r}") from None
        if len(s) != self.dim:
            raise DomainError(f"scale must have {self.dim} entries, got {len(s)}")
        return s

    def bond_vol(self, i: int, t: float, T: float) -> float:
        """b_i(t, T) = integral_t^T beta_i(t, s) ds; zero at T == t."""
        if T < t:
            raise DomainError(f"bond_vol requires t <= T, got t={t}, T={T}")
        if T == t:
            return 0.0
        return float(self._factor(i).bond_vol(float(t), float(T)))

    def forward_price_vol(self, i: int, t: float, T: float, T_tilde: float) -> float:
        """sigma_i(t; T, T~) = b_i(t, T~) - b_i(t, T); antisymmetric in (T, T~)."""
        if t > min(T, T_tilde):
            raise DomainError(
                f"forward_price_vol requires t <= min(T, T~), got t={t}, T={T}, T~={T_tilde}"
            )
        return float(self._factor(i).fp_vol(float(t), float(T), float(T_tilde)))

    @_memoized
    def integrated_variance(
        self, scale, t0: float, t1: float, T: float, T_tilde: float
    ) -> float:
        """Total variance sum_j scale_j^2 * integral_t0^t1 sigma_j(u; T, T~)^2 du.

        Additive over abutting windows and nonnegative; closed form for
        Ho-Lee / Hull-White factors, Simpson for tabulated ones.
        """
        s = self._check_scale(scale)
        if t0 > t1:
            raise DomainError(f"integrated_variance requires t0 <= t1, got {t0} > {t1}")
        if t1 > min(T, T_tilde):
            raise DomainError(
                f"integrated_variance requires t1 <= min(T, T~), got t1={t1}, T={T}, T~={T_tilde}"
            )
        if t1 == t0:
            return 0.0
        t0, t1, pair = float(t0), float(t1), (float(T), float(T_tilde))
        total = 0.0
        for sj, f in zip(s, self.factors):
            total += sj ** 2 * f.fp_cov_integral(t0, t1, pair, pair)
        return total

    def integrated_variances(self, scale, ts, T: float, T_tilde: float) -> np.ndarray:
        """integrated_variance(scale, ts[k], ts[k + 1], T, T~) for every step k
        of the time grid ts, equal to those calls to the last bit.

        Each Ho-Lee or Hull-White factor is one array expression over the
        steps, and the factor terms add in integrated_variance's order.
        Tabulated factors, grids with a zero-width step (which the scalar
        call sets to 0.0 before any arithmetic) and grids integrated_variance
        rejects take the scalar calls (which raise its errors)."""
        s = self._check_scale(scale)
        ts = np.asarray(ts, dtype=float)
        pair = (float(T), float(T_tilde))
        widths = ts[1:] - ts[:-1]
        if not (self.is_separable() and (widths > 0.0).all()
                and (len(ts) < 2 or ts[-1] <= min(pair))):
            return np.array([self.integrated_variance(s, ts[k], ts[k + 1], *pair)
                             for k in range(len(ts) - 1)])
        total = 0.0
        for sj, f in zip(s, self.factors):
            total = total + sj ** 2 * f.fp_var_steps(ts, pair)
        return total

    def integrated_covariance(
        self, scale, t0: float, t1: float, pair_a, pair_b
    ) -> float:
        """sum_j scale_j^2 * integral_t0^t1 sigma_j(u; pair_a) sigma_j(u; pair_b) du."""
        s = self._check_scale(scale)
        if t0 > t1:
            raise DomainError(f"integrated_covariance requires t0 <= t1, got {t0} > {t1}")
        if t1 == t0:
            return 0.0
        t0, t1 = float(t0), float(t1)
        a = (float(pair_a[0]), float(pair_a[1]))
        b = (float(pair_b[0]), float(pair_b[1]))
        total = 0.0
        for sj, f in zip(s, self.factors):
            total += sj ** 2 * f.fp_cov_integral(t0, t1, a, b)
        return total

    def short_rate_var_integral(self, scale, t0: float, t1: float, T: float) -> float:
        """sum_j scale_j^2 * integral_t0^t1 beta_j(u, T)^2 du: the variance of
        the forward rate f(T) accumulated over [t0, t1] under a constant
        scaling of each factor."""
        s = self._check_scale(scale)
        if t0 > t1:
            raise DomainError(f"short_rate_var_integral requires t0 <= t1, got {t0} > {t1}")
        t0, t1, T = float(t0), float(t1), float(T)
        total = 0.0
        for sj, f in zip(s, self.factors):
            total += sj ** 2 * f.beta_var_integral(t0, t1, T)
        return total

    def is_separable(self) -> bool:
        """True when every factor's forward-price vol factorizes as
        g(t) * h(maturity pair), so vol ratios across maturities are constant
        in time.  Holds for Ho-Lee and Hull-White, not in general for
        tabulated surfaces."""
        return all(f.kind in ("ho-lee", "hull-white") for f in self.factors)


def single_factor(factor: VolFactor) -> VolStructure:
    return VolStructure(factors=(factor,))


def ho_lee(c: float) -> VolStructure:
    return single_factor(HoLeeFactor(c=c))


def hull_white(c: float, kappa: float) -> VolStructure:
    return single_factor(HullWhiteFactor(c=c, kappa=kappa))
