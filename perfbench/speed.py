"""Host-speed calibration for the timed measurements.

The shared virtual machines this benchmark runs on change speed by about
2x, in phases from a fraction of a second to minutes, which no run of a few
tens of seconds can average out.  So two fixed calibration kernels are run
between slices of the measured work, and each slice is rescaled to a
reference speed.  The kernels live here, not in ``src/``: a change to the
program moves the measured time and never the kernels, so only the host's
speed cancels.

The host does not slow all code alike.  Interpreted code -- scalar float
arithmetic, calls, and numpy or scipy calls on arrays of a few hundred
points -- slows more than arithmetic on large arrays does (about 2.1x
against 1.5x between the 5th and 95th percentiles of kernel samples).
Hence two kernels, ``interpreted`` and ``vector``, and an operation's
slowdown is modelled as

    slowdown = (1 - w) * interpreted_s / INTERPRETED_S + w * vector_s / VECTOR_S

where ``interpreted_s`` and ``vector_s`` are the kernels' CPU seconds, the
mean of the runs just before and just after the slice, and ``w`` is the
operation's vector share, fixed per kind of operation by the workload.
The reported time is the measured CPU time divided by the slowdown.
"""

from __future__ import annotations

import math
from array import array
from time import process_time

import numpy as np
from scipy.linalg import solve_banded

# Kernel CPU seconds at the reference speed: the usual speed of the 2-vCPU
# Intel Xeon virtual machine the benchmark was written on.
INTERPRETED_S = 0.020
VECTOR_S = 0.014
INTERVAL_S = 0.25  # CPU seconds of work between kernel runs

_N = 239


class _Leg:
    def __init__(self, t: float, rate: float) -> None:
        self.t = t
        self.rate = rate

    def discount(self, r: float) -> float:
        return math.exp(-r * self.t)


def _scalar_loops() -> float:
    legs = [_Leg(0.25 * k, 0.01 + 0.001 * k) for k in range(40)]
    acc = 0.0
    for i in range(330):
        r = 0.01 + 1e-4 * i
        for leg in legs:
            d = leg.discount(r)
            acc += max(leg.rate - r, 0.0) * d + math.sqrt(d) * 1e-3
    return acc


def _small_arrays(rhs: np.ndarray) -> float:
    band = np.empty((3, _N))
    u = rhs
    for k in range(140):
        a = np.where(u > 0.5, 1.5, 0.5)
        band[0] = -0.1 * a
        band[1] = 1.0 + 0.2 * a
        band[2] = -0.1 * a
        u = solve_banded((1, 1), band, np.maximum(u, 0.0) + 1e-3 * k)
    return float(np.max(np.abs(u)))


def interpreted() -> float:
    """Scalar loops and calls, then numpy/scipy calls on 239-point arrays."""
    return _scalar_loops() + _small_arrays(np.linspace(0.0, 1.0, _N))


def vector() -> float:
    """Normal draws and elementwise arithmetic on arrays of 60000 points."""
    rng = np.random.default_rng(7)
    acc = 0.0
    for _ in range(8):
        z = rng.standard_normal(60_000)
        acc += float(np.mean(np.maximum(np.exp(0.2 * z) - 1.0, 0.0)))
    return acc


class Clock:
    """Rescales the CPU time of a measured span to the reference speed.

    Between ``start`` and ``stop`` the work is cut into segments at the
    checkpoints where ``tick`` is called, once a segment holds INTERVAL_S
    CPU seconds.  Both kernels are timed at every cut, and a segment is
    rescaled with the mean of the kernel times at its two ends; the kernels'
    own time is left out.  Each operation given to ``record`` is rescaled
    with its vector share, and the rest of the segment's work as interpreted
    code; rescaled operation times are collected in ``latencies``.
    """

    def __init__(self) -> None:
        interpreted()  # warm caches and the allocator before the first sample
        vector()
        self.latencies = array("d")
        self.kernel_s: list[tuple[float, float]] = []  # every sample, for the result file

    def sample(self) -> tuple[float, float]:
        """CPU seconds of one run of each kernel."""
        start = process_time()
        interpreted()
        middle = process_time()
        vector()
        self.kernel_s.append((middle - start, process_time() - middle))
        return self.kernel_s[-1]

    @staticmethod
    def slowdown(before: tuple[float, float], after: tuple[float, float], w: float) -> float:
        return ((1.0 - w) * (before[0] + after[0]) / (2 * INTERPRETED_S)
                + w * (before[1] + after[1]) / (2 * VECTOR_S))

    def start(self) -> None:
        self._scaled = self._raw = 0.0
        self._pending: list[tuple[float, float]] = []
        self._edge = self.sample()
        self._segment_start = process_time()

    def record(self, seconds: float, w: float) -> None:
        self._pending.append((seconds, w))

    def tick(self) -> None:
        if process_time() - self._segment_start >= INTERVAL_S:
            self._cut()

    def _cut(self) -> None:
        work = process_time() - self._segment_start
        edge = self.sample()
        rest = work
        for seconds, w in self._pending:
            scaled = seconds / self.slowdown(self._edge, edge, w)
            self.latencies.append(scaled)
            self._scaled += scaled
            rest -= seconds
        self._scaled += max(rest, 0.0) / self.slowdown(self._edge, edge, 0.0)
        self._raw += work
        self._pending = []
        self._edge = edge
        self._segment_start = process_time()

    def stop(self) -> tuple[float, float]:
        """(rescaled, measured) CPU seconds since ``start``, kernel runs excluded."""
        self._cut()
        return self._scaled, self._raw
