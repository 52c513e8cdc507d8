"""Machine-speed correction for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within seconds, for CPU time as much as for wall time, so a
raw time says as much about the host as about ndslab.  The benchmark
therefore samples the host's speed while it measures: `reference_work` is a
fixed piece of pure Python in the style of ndslab's kernels (method calls on
small objects, dict updates, big-integer masks, rational sums) that never
calls ndslab and allocates nothing the garbage collector tracks, so that a
change to ndslab, or the size of its heap, cannot move it.  During the timed
region a `Sampler` runs it every INTERVAL_S from a SIGALRM handler, in the
measured thread, between two bytecodes of the program.  `scaled` then rates each
stretch of program time between two samples by REF_S over the mean time of
those two samples: a time reads as it would on a host that runs
`reference_work` in REF_S, and the samples' own time is left out.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

# the median time of a sample during the benchmark's runs on a 2-core 2.1 GHz
# x86 KVM guest; a scaled time reads in seconds at that speed.  Samples take
# about 6 % of the timed region.
REF_S = 0.00175
INTERVAL_S = 0.03


class _Cell:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def at(self, i):
        return self.lo if i & 1 else self.hi


# built once: reference_work allocates no object the garbage collector
# tracks, so it never triggers a collection over ndslab's heap
_CELLS = [_Cell(i & 7, (i >> 3) & 7) for i in range(64)]
_TABLE = dict.fromkeys(range(256), 0)
_MASK = (1 << 700) - 1


def reference_work(n: int = 3000) -> int:
    """The fixed reference workload; its result only keeps it from being
    optimised away."""
    cells, table, mask = _CELLS, _TABLE, _MASK
    num, den = 0, 1
    for i in range(n):
        cell = cells[i & 63]
        if cell.at(i) != cell.at(i + 1):
            table[i & 255] += 1
        mask = ((mask << 1) ^ i) & _MASK
        if not i % 64:
            # num/den += 1/(1 + i % 32), kept in lowest terms
            d = 1 + (i & 31)
            num, den = num * d + den, den * d
            g = math.gcd(num, den)
            num, den = num // g, den // g
    return mask.bit_count() + den


def sample() -> tuple:
    """(start, end) of one run of the reference workload."""
    t = time.perf_counter()
    reference_work()
    return t, time.perf_counter()


def median_sample_s(samples: list) -> float:
    return statistics.median(e - s for s, e in samples)


class Sampler:
    """Samples the reference workload at the start, every INTERVAL_S and at
    the end of a `with` block (the measured thread must be the main one)."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list = []
        self._previous = None

    def _on_alarm(self, _signum, _frame):
        self.samples.append(sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.samples.append(sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())
        return False


def scaled(t0: float, t1: float, samples: list, ref_s: float = REF_S) -> tuple:
    """(raw, scaled) seconds of the interval [t0, t1] outside the samples.
    `samples` are the (start, end) of consecutive samples and cover the
    interval; a stretch between two samples is scaled by ref_s over their
    mean duration."""
    raw = done = 0.0
    for (s0, e0), (s1, e1) in zip(samples, samples[1:]):
        part = min(t1, s1) - max(t0, e0)
        if part > 0:
            raw += part
            done += part * ref_s * 2 / ((e0 - s0) + (e1 - s1))
    return raw, done
