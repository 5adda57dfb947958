"""Deterministic factor volatilities for the forward-rate dynamics.

Each factor carries a continuous diffusion surface beta(t, T).  Everything
the pricers need derives from it:

  * bond_vol        b(t, T)   = integral_t^T beta(t, s) ds
                    (the loading of the T-bond on the factor),
  * forward_price_vol(t, T, T~) = b(t, T~) - b(t, T)
                    (the loading of the forward bond price P(T~)/P(T)),
  * integrated (co)variances of forward-price vols over a time window,
    which are the total variances entering every lognormal closed form.

Ho-Lee and Hull-White factors use closed-form antiderivatives, and the
bilinear tabulated factors exact piecewise rules.

Each factor computes its (co)variance integrals in two forms, the same
operations term by term, so both give the same bits.  fp_cov_integral (one
window) is the scalar path: VolStructure.integrated_variance sums it over
the factors behind a per-instance memo (curve._memoized) that returns the
uncached call's float, as do extreme_variance (both band extremes of a
closed-form period in one lookup) and a tabulated factor's row integrals.
A book asks for the same windows over and over, and a memo miss, on the
vanilla book's hot path, costs less in floats than in an array set-up.
fp_cov_steps (every step of a grid, maturities in arrays) is the only
builder of tables: extreme_variances, the scenario loadings and the Monte
Carlo swaption's covariance.  Tables bypass the memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .curve import _csv_rows, _memoized
from .errors import DomainError, ParseError


def _math_exp(x: np.ndarray) -> np.ndarray:
    """math.exp of every element of x, as an array of x's shape.  np.exp
    differs from math.exp in the last bit on some inputs, and the closed
    forms below must equal the scalar ones to the last bit."""
    return np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)


@dataclass(frozen=True)
class HoLeeFactor:
    """Constant diffusion beta(t, T) = c with c > 0."""

    c: float
    kind = "ho-lee"

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise DomainError(f"ho-lee level must be positive, got {self.c}")

    def beta(self, t, T):
        return np.full(np.broadcast_shapes(np.shape(t), np.shape(T)), self.c)

    def bond_vol(self, t: float, T: float) -> float:
        return self.c * (T - t)

    def fp_vol(self, t, T: float, T_tilde: float):
        """sigma_t(T, T~) = c * (T~ - T), constant in t."""
        return self.c * (T_tilde - T) * np.ones_like(np.asarray(t, dtype=float))

    def fp_cov_integral(self, t0: float, t1: float, pair_a, pair_b) -> float:
        (Ta, Tta), (Tb, Ttb) = pair_a, pair_b
        return self.c**2 * (Tta - Ta) * (Ttb - Tb) * (t1 - t0)

    def fp_cov_steps(self, ts: np.ndarray, pair_a, pair_b) -> np.ndarray:
        """fp_cov_integral(ts[k], ts[k + 1], pair_a, pair_b) for every step k,
        in the same operations: c^2 (T~a - Ta)(T~b - Tb) times the step
        widths.  Each T~ may be an array that broadcasts against the steps."""
        (Ta, Tta), (Tb, Ttb) = pair_a, pair_b
        return self.c**2 * (Tta - Ta) * (Ttb - Tb) * (ts[1:] - ts[:-1])

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
        return self.c * np.exp(-self.kappa * (np.asarray(T, dtype=float) - np.asarray(t, dtype=float)))

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

    def fp_cov_steps(self, ts: np.ndarray, pair_a, pair_b) -> np.ndarray:
        """fp_cov_integral(ts[k], ts[k + 1], pair_a, pair_b) for every step k,
        in the same operations: one math.exp per grid time and per maturity,
        then ga gb (E[k+1] - E[k]) / 2 kappa, g computed once for a variance
        (pair_b is pair_a).  Each T~ may be an array that broadcasts against
        the steps; each T is a number."""
        k = self.kappa
        g = [self.c / k * (math.exp(-k * T) - _math_exp(-k * np.asarray(T_tilde)))
             for T, T_tilde in ((pair_a,) if pair_b is pair_a else (pair_a, pair_b))]
        e = _math_exp(2.0 * k * ts)
        return g[0] * g[-1] * (e[1:] - e[:-1]) / (2.0 * k)

    def beta_var_integral(self, t0: float, t1: float, T: float) -> float:
        k = self.kappa
        return self.c**2 * math.exp(-2.0 * k * T) * (math.exp(2.0 * k * t1) - math.exp(2.0 * k * t0)) / (2.0 * k)


def _cell(grid, x):
    """Each x's grid cell j and weight w there, in [0, 1]: flat outside the grid."""
    g, x = np.asarray(grid), np.asarray(x, dtype=float)
    j = np.minimum(np.maximum(np.searchsorted(g, x, side="right") - 1, 0), len(g) - 2)
    return j, np.minimum(np.maximum((x - g[j]) / (g[j + 1] - g[j]), 0.0), 1.0)


@dataclass(frozen=True)
class TabulatedFactor:
    """Diffusion given on a full rectangular (t, T) grid, bilinear in between.

    t_grid, maturity_grid: strictly increasing finite axes; values[i, j] =
    beta at (t_grid[i], maturity_grid[j]), finite; flat outside the grid.
    Integrals are exact: trapezoids along T, Simpson's rule between t-knots.
    """

    t_grid: tuple[float, ...]
    maturity_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    kind = "tabulated"

    def __post_init__(self) -> None:
        t, m = tuple(map(float, self.t_grid)), tuple(map(float, self.maturity_grid))
        fields = {"t_grid": t, "maturity_grid": m, "values": tuple(tuple(map(float, row)) for row in self.values)}
        for name, entries in fields.items():
            object.__setattr__(self, name, entries)
        if len(t) < 2 or len(m) < 2:
            raise DomainError("tabulated factor needs at least a 2x2 grid")
        if len(self.values) != len(t) or any(len(row) != len(m) for row in self.values):
            raise DomainError("tabulated factor requires a full rectangular grid: "
                              f"got {len(self.values)} rows for {len(t)} t-points")
        for name, entries in fields.items():
            for k, v in np.ndenumerate(entries):
                if not math.isfinite(v):
                    at = f" (beta at t={t[k[0]]}, T={m[k[1]]})" if name == "values" else ""
                    raise DomainError(f"tabulated {name}{list(k)}{at} must be finite, got {v}")
        if any(b <= a for a, b in zip(t, t[1:])) or any(b <= a for a, b in zip(m, m[1:])):
            raise DomainError("tabulated grid axes must be strictly increasing")

    @cached_property
    def _vals(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    @cached_property
    def _row_sums(self) -> np.ndarray:
        """[j, i]: integral of beta(t_grid[i], s) ds from maturity_grid[0] to maturity_grid[j]."""
        v = self._vals.T
        cells = np.diff(self.maturity_grid)[:, None] * (v[:-1] + v[1:]) / 2.0
        return np.concatenate((np.zeros((1, len(self.t_grid))), np.cumsum(cells, axis=0)))

    def _rows(self, T) -> np.ndarray:
        """integral of beta(t_grid[i], s) ds from maturity_grid[0] to each T, rows i on the last axis."""
        T, mg, v = np.asarray(T, dtype=float)[..., None], np.asarray(self.maturity_grid), self._vals.T
        (j, w), Tc = _cell(mg, T[..., 0]), np.minimum(np.maximum(T, mg[0]), mg[-1])
        end = v[j] * (1 - w[..., None]) + v[j + 1] * w[..., None]
        return self._row_sums[j] + (Tc - mg[j][..., None]) * (v[j] + end) / 2.0 + (T - Tc) * end

    @cached_property
    def _pieces(self) -> tuple[np.ndarray, ...]:
        """The cut points -inf, t_grid, inf and, for the piece between each
        two, its t-cell: the knot indices i and i + 1, knot i and the width."""
        tg = np.asarray(self.t_grid)
        i = np.clip(np.arange(-1, len(tg)), 0, len(tg) - 2)
        return np.concatenate(([-np.inf], tg, [np.inf])), i, i + 1, tg[i], tg[i + 1] - tg[i]

    @np.errstate(over="ignore", invalid="ignore")  # an overflow is inf, as in the closed forms
    def _time_integral(self, lo, hi, ya, yb):
        """integral_lo^hi a(u) b(u) du, a and b linear between t-knots (ya, yb there, last axis)
        and flat outside: Simpson's rule on each piece, added in order whatever lo's shape."""
        edges, i, i1, left, width = self._pieces
        cuts = np.minimum(np.maximum(edges, np.asarray(lo)[..., None]), np.asarray(hi)[..., None])
        w0, w1 = (np.minimum(np.maximum((x - left) / width, 0.0), 1.0) for x in (cuts[..., :-1], cuts[..., 1:]))
        ab = [[y[..., i] * (1 - w) + y[..., i1] * w for w in (w0, w1)]
              for y in ((ya,) if yb is ya else (ya, yb))]  # a variance interpolates once
        (a0, a1), (b0, b1) = ab[0], ab[-1]
        return np.cumsum(np.diff(cuts) / 6.0 * (a0 * b0 + (a0 + a1) * (b0 + b1) + a1 * b1), axis=-1)[..., -1]

    def beta(self, t, T):
        (i, wt), (j, wm), v = _cell(self.t_grid, t), _cell(self.maturity_grid, T), self._vals
        return (v[i, j] * (1 - wt) * (1 - wm) + v[i + 1, j] * wt * (1 - wm)
                + v[i, j + 1] * (1 - wt) * wm + v[i + 1, j + 1] * wt * wm)

    def bond_vol(self, t: float, T: float) -> float:
        return float(np.interp(t, self.t_grid, self._rows(T) - self._rows(t)))

    def fp_vol(self, t, T: float, T_tilde: float):
        """integral_T^T~ beta(t, s) ds, linear in t between t-knots."""
        return np.interp(t, self.t_grid, self._rows(T_tilde) - self._rows(T))

    @_memoized
    def _fp_rows(self, T: float, T_tilde: float) -> np.ndarray:
        """integral_T^T~ beta(t_grid[i], s) ds for every row i, read-only."""
        y = np.subtract(*self._rows((T_tilde, T)))
        y.flags.writeable = False
        return y

    def fp_cov_integral(self, t0: float, t1: float, pair_a, pair_b) -> float:
        return float(self._time_integral(t0, t1, self._fp_rows(*pair_a), self._fp_rows(*pair_b)))

    def fp_cov_steps(self, ts: np.ndarray, pair_a, pair_b) -> np.ndarray:
        """fp_cov_integral over every step of ts, in the same operations (each
        T~ may be an array); a variance (pair_b is pair_a) interpolates once."""
        ya = self._rows(pair_a[1]) - self._rows(pair_a[0])
        yb = ya if pair_b is pair_a else self._rows(pair_b[1]) - self._rows(pair_b[0])
        return self._time_integral(ts[:-1], ts[1:], ya, yb)

    def beta_var_integral(self, t0: float, t1: float, T: float) -> float:
        y = self.beta(self.t_grid, T)
        return float(self._time_integral(t0, t1, y, y))


VolFactor = Union[HoLeeFactor, HullWhiteFactor, TabulatedFactor]


def _check_window(name: str, t0, t1, *pairs) -> None:
    """-inf < t0 <= t1 < inf and t1 <= T < inf for each maturity of each pair,
    (T, T~) or (T,), else a DomainError naming name (a NaN fails every test)."""
    if not -math.inf < t0 <= t1 < math.inf:
        raise DomainError(f"{name} requires t0 <= t1, got {t0} > {t1}")
    for pair in pairs:
        if not (t1 <= pair[0] < math.inf and t1 <= pair[-1] < math.inf):
            bound = "min(T, T~)" if len(pair) == 2 else "T"
            got = ", ".join(f"{k}={v}" for k, v in zip(("T", "T~"), pair))
            raise DomainError(f"{name} requires t1 <= {bound}, got t1={t1}, {got}")


def load_tabulated_factor(path: str) -> TabulatedFactor:
    """Read a tabulated factor from header-free ``t,T,beta`` CSV lines.

    The rows must fill a complete rectangular grid (every combination of the
    distinct t and T values exactly once, in any order).
    """
    entries: dict[tuple[float, float], float] = {}
    for lineno, (t, T, b) in _csv_rows(path, "t,T,beta"):
        if not (math.isfinite(t) and math.isfinite(T)):  # NaN would break the sort and the grid
            raise ParseError(f"{path}: line {lineno}: grid point ({t}, {T}) must be finite")
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
        factor = self._factor(i)
        if T < t:
            raise DomainError(f"bond_vol requires t <= T, got t={t}, T={T}")
        if T == t:
            return 0.0
        return float(factor.bond_vol(float(t), float(T)))

    def forward_price_vol(self, i: int, t: float, T: float, T_tilde: float) -> float:
        """sigma_i(t; T, T~) = b_i(t, T~) - b_i(t, T); antisymmetric in (T, T~)."""
        if t > min(T, T_tilde):
            raise DomainError(
                f"forward_price_vol requires t <= min(T, T~), got t={t}, T={T}, T~={T_tilde}"
            )
        return float(self._factor(i).fp_vol(float(t), float(T), float(T_tilde)))

    def _scalar_sum(self, name, scale, t0, t1, pair_a, pair_b=None) -> float:
        """name's checks (_check_window on both pairs), then sum_j scale_j^2
        fp_cov_integral_j(t0, t1, pair_a, pair_b); pair_b=None is pair_a's variance."""
        s = self._check_scale(scale)
        pair_b = pair_a if pair_b is None else pair_b
        _check_window(name, t0, t1, pair_a, pair_b)
        if t1 == t0:
            return 0.0
        t0, t1, a = float(t0), float(t1), (float(pair_a[0]), float(pair_a[1]))
        b = a if pair_b is pair_a else (float(pair_b[0]), float(pair_b[1]))
        total = 0.0
        for sj, f in zip(s, self.factors):
            total += sj ** 2 * f.fp_cov_integral(t0, t1, a, b)
        return total

    @_memoized
    def integrated_variance(self, scale, t0: float, t1: float, T: float, T_tilde: float) -> float:
        """Total variance sum_j scale_j^2 * integral_t0^t1 sigma_j(u; T, T~)^2 du.

        Additive over abutting windows and nonnegative; exact for every
        factor kind (see the factor classes).
        """
        return self._scalar_sum("integrated_variance", scale, t0, t1, (T, T_tilde))

    @_memoized
    def extreme_variance(self, lower, upper, *window) -> tuple[float, float]:
        """integrated_variance(scale, t0, t1, T, T~) at the scales lower and
        upper (a band's extremes): the scalar twin of extreme_variances."""
        return self.integrated_variance(lower, *window), self.integrated_variance(upper, *window)

    def extreme_variances(self, lower, upper, ts, T: float, T_tilde) -> tuple[np.ndarray, np.ndarray]:
        """integrated_variance(scale, ts[k], ts[k + 1], T, T~) for every step k
        of the time grid ts, at the scales lower and upper (a band's
        extremes), equal to those calls to the last bit.  T~ may be an array
        of maturities that broadcasts against the steps: a one-step grid
        gives the variance of every P(T~[m])/P(T) over that window.

        Each factor's term is one array pass (fp_cov_steps), a total 0.0 +
        sum_j s_j^2 term_j; an overflow is inf without a warning, as in the
        scalar call.  A grid with a step that is not positive, an end past a
        maturity or a point or maturity that is not finite is checked window
        by window: the first window integrated_variance rejects raises its
        error, and a zero-width step is 0.0, an inf term too.  Equal scales
        give one array twice."""
        scales = [self._check_scale(lower), self._check_scale(upper)]
        if scales[1] == scales[0]:
            del scales[1]
        ts = np.asarray(ts, dtype=float)
        T, T_tilde = float(T), np.asarray(T_tilde, dtype=float)
        empty = None
        ends_ok = len(ts) < 2 or (-math.inf < ts[0] and ts[-1] <= T < math.inf
                                  and (ts[-1] <= T_tilde).all() and (T_tilde < math.inf).all())
        if not ((ts[1:] > ts[:-1]).all() and ends_ok):
            t0s, t1s, Tts = np.broadcast_arrays(ts[:-1], ts[1:], T_tilde)
            rejected = ~((-math.inf < t0s) & (t0s <= t1s) & (t1s <= T) & (T < math.inf)
                         & (t1s <= Tts) & (Tts < math.inf))  # as integrated_variance: NaN fails
            if rejected.any():  # integrated_variance raises its error for the first
                t0, t1, Tt = (float(a.flat[np.argmax(rejected)]) for a in (t0s, t1s, Tts))
                self.integrated_variance(scales[0], t0, t1, T, Tt)
            empty = t1s == t0s if (t1s == t0s).any() else None
        pair = (T, T_tilde)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = [f.fp_cov_steps(ts, pair, pair) for f in self.factors]
            tables = []
            for s in scales:
                total = 0.0
                for sj, term in zip(s, terms):
                    total = total + sj ** 2 * term
                tables.append(total if empty is None else np.where(empty, 0.0, total))
        return tables[0], tables[-1]

    def integrated_covariance(self, scale, t0: float, t1: float, pair_a, pair_b) -> float:
        """sum_j scale_j^2 * integral_t0^t1 sigma_j(u; pair_a) sigma_j(u; pair_b) du.

        The window must end by min(T, T~) of both pairs, whose maturities
        must be finite: integrated_variance's checks, pair by pair."""
        return self._scalar_sum("integrated_covariance", scale, t0, t1, pair_a, pair_b)

    def short_rate_var_integral(self, scale, t0: float, t1: float, T: float) -> float:
        """sum_j scale_j^2 * integral_t0^t1 beta_j(u, T)^2 du: the variance of
        the forward rate f(T) accumulated over [t0, t1], which must end by T
        (_check_window), under a constant scaling of each factor."""
        s = self._check_scale(scale)
        _check_window("short_rate_var_integral", t0, t1, (T,))
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
