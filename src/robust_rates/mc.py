"""Monte Carlo configuration, reproducible normal draws, and the one sampler
of terminal forward prices.

Draws come from a counter-based Philox stream keyed by the seed, each
path's numbers consecutive in the stream, and are stored column-major: a
(columns, paths) array, so every product of the sampler reads contiguous
rows.  The same (seed, n_paths, n_steps) request therefore yields
bit-identical numbers regardless of execution order, thread count, or how
callers batch the paths afterwards.  Antithetic sampling mirrors the first
half of the paths.

The one sampler (_member_moves, _block_moments) prices a family of
deterministic volatility scenarios on one draw, in path blocks that start
at fixed multiples of _PATH_BLOCK (path_blocks), and folds each member's
prices into its running mean and sum of squared deviations one path block
at a time (Chan, Golub & LeVeque), so no array of path size is held per
member and the statistics depend on the path count only; the scenario
oracle and the Monte Carlo swaption (a one-segment family of the band
extremes) both sample through it.  The draw has a column per segment and
factor, or per segment and forward price for several forward prices on a
non-separable structure (their exact joint law).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class MCConfig:
    """paths, seed, antithetic: the three reproducibility knobs."""

    paths: int = 100_000
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self) -> None:
        for name in ("paths", "seed"):  # Philox keyed a float or bool seed as int(seed)
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {name}={value!r}")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.antithetic, bool):
            raise DomainError(f"antithetic must be a bool, got antithetic={self.antithetic!r}")
        if self.paths < 2:
            raise DomainError(f"need at least 2 paths, got {self.paths}")
        if not 0 <= self.seed < 2**128:  # the Philox key is 128 bits
            raise DomainError(f"seed must be in [0, 2**128), got {self.seed}")


_MASK64 = 0xFFFFFFFFFFFFFFFF

# Paths per block of the Monte Carlo kernels: 64 kB per float64 row of a
# (rows, paths) block, so even a 40-row block buffer is only 2.6 MB.
_PATH_BLOCK = 8192


def child_seed(seed: int, *indices: int) -> int:
    """Stable derived seed for a sub-stream (contract index, control index...).

    Uses SplitMix64 mixing in 64-bit masked int arithmetic, so nearby
    parents do not collide.
    """
    h = seed & _MASK64
    for idx in indices:
        h = (h + 0x9E3779B97F4A7C15 * (idx + 1)) & _MASK64
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def normals(seed: int, n_paths: int, n_cols: int, antithetic: bool = False) -> np.ndarray:
    """(n_cols, n_paths) standard normals from Philox(key=seed), in C order:
    a row per column, so a product with (rows, n_cols) loadings reads
    contiguous rows.

    Path p's n_cols numbers are consecutive in the stream.  With
    antithetic=True, paths [0, n_paths // 2) are the first draws of the
    stream, paths [n_paths // 2, 2 * (n_paths // 2)) are their negatives in
    the same order, and an odd trailing path is drawn last from the stream.
    The paths pass through one chunk of _PATH_BLOCK doubles (64 kB) on their
    way to their columns, and a one-column draw is filled in place, so
    memory is the draw and at most that chunk.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    z = np.empty((n_cols, n_paths))
    chunk = np.empty((max(_PATH_BLOCK // n_cols, 1), n_cols)) if n_cols > 1 else None

    def fill(start: int, stop: int) -> None:  # paths [start, stop) from the stream
        if chunk is None:
            gen.standard_normal(out=z[0, start:stop])
            return
        for lo in range(start, stop, len(chunk)):
            rows = chunk[:min(len(chunk), stop - lo)]
            gen.standard_normal(out=rows)
            z[:, lo:lo + len(rows)] = rows.T

    half = n_paths // 2 if antithetic else n_paths
    fill(0, half)
    if antithetic:
        np.negative(z[:, :half], out=z[:, half:2 * half])
        fill(2 * half, n_paths)
    return z


def path_blocks(n_paths: int) -> tuple[int, list[slice]]:
    """The widest block and the path slices of consecutive path blocks:
    columns of the (cols, paths) draws and of the (rows, paths) products.

    Blocks start at multiples of _PATH_BLOCK, where the tested BLAS builds
    group a block's paths as they group the whole array's, so every path of
    a several-row product (a gemm) gets its unblocked bits at that width
    only (64-path blocks move a few tail columns of a 40-row product with 4
    draw columns in the last bit).  A one-row product (a gemv over the
    draw rows) and a one-column one (a broadcast multiply) give every path
    the same bits at any block width.  A last block of one path joins the
    block before it: numpy sends a one-path product to a different BLAS
    routine.  (A multi-threaded BLAS splits the paths between its threads at
    points of its own, which can move bits with or without blocks.)
    """
    starts = list(range(0, n_paths, _PATH_BLOCK))
    if len(starts) > 1 and n_paths - starts[-1] == 1:
        starts.pop()
    ends = starts[1:] + [n_paths]
    return max(e - s for s, e in zip(starts, ends)), [slice(s, e) for s, e in zip(starts, ends)]


def terminal_prices(loads, half_var, x0s, z, out) -> None:
    """Write into out (rows, paths) the terminal prices x0s * exp(loads @ z
    - half_var) of one path block's (k, paths) draws z, in four calls.  The
    product reads z's contiguous rows: a gemv for one row, a gemm for
    several (whose order of summation is BLAS's, so its last bits depend on
    the build), and for one draw column the broadcast loads * z, one
    rounding per element, as a rank-1 product has."""
    if z.shape[0] == 1:
        np.multiply(loads, z, out=out)
    else:
        np.matmul(loads, z, out=out)
    out -= half_var
    np.exp(out, out=out)
    out *= x0s


def _member_moves(vs, family, t_end: float, pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each member's loadings -L and (pairs, 1) half variances v/2 over [0,
    t_end] (v the row sums of L^2) for the terminal prices x0 exp(-L z - v/2)
    of the forward prices with maturity pairs, which share their first
    maturity; a member is a list of (t_lo, t_hi, levels) segments, the same
    switch dates for all.  A segment outside [0, t_end] loads nothing.  One
    pair or a separable structure takes a column per segment and factor: one
    stdev table, scaled by each member's |levels|.  Several pairs on a
    non-separable one take a column per segment and pair: the eigen-factor
    of their exact covariance at the member's levels (one fp_cov_steps table
    per factor, upper triangle mirrored), DomainError if it is not finite."""
    segments = family[0]
    ts = np.minimum([lo for lo, _, _ in segments] + [segments[-1][1]], t_end)
    live, T, ends = ts[1:] > ts[:-1], pairs[0][0], np.array([T_tilde for _, T_tilde in pairs])
    n, moves = len(pairs), []
    if n == 1 or vs.is_separable():
        pair = (T, ends[:, None])
        with np.errstate(over="ignore", invalid="ignore"):
            sds = np.stack([np.sqrt(np.maximum(f.fp_cov_steps(ts, pair, pair), 0.0))
                            for f in vs.factors], axis=-1)
        sds = np.where(live[:, None], sds, 0.0)
        for segments in family:
            moves.append((sds * -np.abs([scale for _, _, scale in segments])).reshape(n, -1))
    else:
        lower, eye = np.tri(n, k=-1, dtype=bool), np.eye(n)
        with np.errstate(over="ignore", invalid="ignore"):  # (segments, pairs, pairs) tables
            tables = [np.moveaxis(f.fp_cov_steps(ts, (T, ends[:, None, None]), (T, ends[None, :, None])),
                                  -1, 0) for f in vs.factors]
            tables = [np.where(live[:, None, None], np.where(lower, c.swapaxes(1, 2), c), 0.0)
                      for c in tables]
            for segments in family:
                levels, cov = np.array([scale for _, _, scale in segments]), 0.0
                for j, table in enumerate(tables):
                    cov = cov + levels[:, j, None, None] ** 2 * table
                if not np.isfinite(cov).all():
                    raise DomainError("scenario covariance is not finite "
                                      "(a factor level too large for its variance integral)")
                evals, evecs = np.linalg.eigh(cov)
                mix = evecs @ (np.sqrt(np.maximum(evals, 0.0))[:, :, None] * eye)
                moves.append(np.negative(mix).transpose(1, 0, 2).reshape(n, -1))
    return [(loads, 0.5 * np.sum(loads**2, axis=1, keepdims=True)) for loads in moves]


def _block_moments(key: int, n_paths: int, antithetic: bool, moves, x0s, payoff):
    """Each member's (mean, M2) of its per-path prices payoff(x) over one
    sampling block, M2 the sum of squared deviations from the mean: x the
    (pairs, block) terminal prices of the (pairs, 1) spot forward prices
    x0s on one draw normals(key, n_paths, columns, antithetic) and the
    member's moves (_member_moves), one path block (a column range of the
    draw, its rows contiguous) at a time in one buffer that payoff may
    overwrite.  payoff returns a writable (block,) vector (a
    row of x or its own), which _add_path_block folds in and overwrites.
    Nothing of path size is held but the draw, the buffer and the payoff's
    own vector."""
    z = normals(key, n_paths, moves[0][0].shape[1], antithetic)
    width, blocks = path_blocks(n_paths)
    x = np.empty((len(x0s), width))
    stats, seen = [(0.0, 0.0)] * len(moves), 0
    for cols in blocks:
        z_cols, x_cols = z[:, cols], x[:, :cols.stop - cols.start]
        for m, (loads, half_var) in enumerate(moves):
            terminal_prices(loads, half_var, x0s, z_cols, x_cols)
            # the prices die with the call: one payoff vector alive at a time
            stats[m] = _add_path_block(*stats[m], seen, payoff(x_cols))
        seen = cols.stop
    return stats


def _add_path_block(mean: float, m2: float, seen: int, prices: np.ndarray) -> tuple[float, float]:
    """(mean, M2) of seen paths and a path block's prices: the block's sum
    (pairwise) and mean, its M2 in one dot of the prices centred in place,
    combined by the pairwise update of Chan, Golub & LeVeque (1983), exact
    for seen = 0."""
    n = len(prices)
    block_mean = float(np.sum(prices)) / n
    prices -= block_mean
    delta, total = block_mean - mean, seen + n
    return (mean + delta * (n / total),
            m2 + float(np.dot(prices, prices)) + delta * delta * (seen * n / total))


def _se_of_mean(m2: float, n_paths: int) -> float:
    """Standard error of the mean of n_paths samples whose sum of squared
    deviations is m2, sqrt(m2 / (n - 1) / n): antithetic pairs taken as
    independent samples, as in mean_and_se."""
    return math.sqrt(m2 / (n_paths - 1) / n_paths)


def mean_and_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of the mean (pairwise summation).  The
    se takes antithetic pairs as independent samples: on 1e5 antithetic draws
    it is 1.37x the pair-based se for max(z, 0) and 0.71x for |z|."""
    n = samples.shape[0]
    mean = float(np.mean(samples))
    if n < 2:
        return mean, float("inf")
    var = float(np.var(samples, ddof=1))
    return mean, math.sqrt(var / n)
