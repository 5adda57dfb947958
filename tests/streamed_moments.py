"""A plain reference for the Monte Carlo sampler's streamed statistics,
shared by the bit-exact sampler tests."""

import numpy as np

from robust_rates import mc as mc_module


def streamed_moments(samples):
    """(mean, M2) of a sampling block's (paths,) samples, M2 the sum of
    squared deviations, folded one path block at a time as the sampler
    folds them: blocks from multiples of _PATH_BLOCK, a one-path tail joined
    to the block before; each block's pairwise sum and mean, its deviations'
    dot, then the pairwise update of Chan, Golub & LeVeque."""
    n, width = len(samples), mc_module._PATH_BLOCK
    starts = list(range(0, n, width))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    mean = m2 = 0.0
    seen = 0
    for lo, hi in zip(starts, starts[1:] + [n]):
        k = hi - lo
        block_mean = float(np.sum(samples[lo:hi])) / k
        dev = samples[lo:hi] - block_mean
        delta, total = block_mean - mean, seen + k
        mean = mean + delta * (k / total)
        m2 = m2 + float(np.dot(dev, dev)) + delta * delta * (seen * k / total)
        seen = total
    return mean, m2
