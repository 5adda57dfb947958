"""Monte Carlo configuration and reproducible normal draws.

Draws come from a counter-based Philox stream keyed by the seed, generated
in a single vectorized call with a fixed path-major layout.  The same
(seed, n_paths, n_steps) request therefore yields bit-identical numbers
regardless of execution order, thread count, or how callers batch the
paths afterwards.  Antithetic sampling mirrors the first half of the
paths; aggregation should use numpy reductions (pairwise summation) so
totals do not depend on partitioning.
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
        if self.paths < 2:
            raise DomainError(f"need at least 2 paths, got {self.paths}")
        if not 0 <= self.seed < 2**128:  # the Philox key is 128 bits
            raise DomainError(f"seed must be in [0, 2**128), got {self.seed}")


def child_seed(seed: int, *indices: int) -> int:
    """Stable derived seed for a sub-stream (contract index, control index...).

    Uses SplitMix64-style mixing so nearby parents do not collide.
    """
    h = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    for idx in indices:
        h = np.uint64((int(h) + 0x9E3779B97F4A7C15 * (idx + 1)) & 0xFFFFFFFFFFFFFFFF)
        z = int(h)
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h = np.uint64(z ^ (z >> 31))
    return int(h)


def normals(seed: int, n_paths: int, n_cols: int, antithetic: bool = False) -> np.ndarray:
    """(n_paths, n_cols) standard normals from Philox(key=seed).

    The rows are path-major.  With antithetic=True, rows [0, n_paths // 2)
    are the first draws of the stream, rows [n_paths // 2, 2 * (n_paths // 2))
    are their negatives in the same order, and an odd trailing row is drawn
    last from the stream.  The array is filled in place, one allocation.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    if not antithetic:
        return gen.standard_normal((n_paths, n_cols))
    half = n_paths // 2
    z = np.empty((n_paths, n_cols))
    gen.standard_normal(out=z[:half])
    np.negative(z[:half], out=z[half:2 * half])
    if n_paths % 2:
        gen.standard_normal(out=z[2 * half:])
    return z


def mean_and_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of the mean (pairwise summation)."""
    n = samples.shape[0]
    mean = float(np.mean(samples))
    if n < 2:
        return mean, float("inf")
    var = float(np.var(samples, ddof=1))
    return mean, math.sqrt(var / n)
