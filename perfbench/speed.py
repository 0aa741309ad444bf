"""Machine-speed sampler: times a fixed probe from a timer signal.

The benchmark runs on a few cores of a shared host, and other tenants slow
those cores by up to about 1.8x for tens of seconds at a time.  Wall and
CPU time move together, so neither tells a slower program from a busier
host.  `SpeedSampler` interrupts the process it runs in every `INTERVAL_S`
seconds and times `probe`, a fixed piece of pure-Python work, right there:
on the same core as the program and at the same moment.

`at_reference_speed` turns a time measured under the sampler into seconds
at the speed where the probe takes `REFERENCE_PROBE_S`.  It subtracts the
time spent in the sampler's handler, then scales by the mean speed over the
samples, each sample's speed being the reference over its probe time.  The
samples come at even steps of wall time, so the mean weighs each stretch of
the run by its length, and a run that is slow for half its time and fast
for the rest is scaled by the average of the two.  The probe is code of the
benchmark, never of the program, so a faster program still reads faster.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

INTERVAL_S = 0.025
# Fixes the unit, not the result: a round figure within the median probe
# times seen on an Intel Xeon with 2 vCPUs and CPython 3.11 (0.21-0.34 ms).
REFERENCE_PROBE_S = 0.0003


class _Table:
    """A small Cayley table behind a method, as crossconn's groups are."""

    __slots__ = ("rows",)

    def __init__(self, n: int):
        self.rows = [[(a * b + a) % n for b in range(n)] for a in range(n)]

    def mul(self, a: int, b: int) -> int:
        return self.rows[a][b]


_TABLE = _Table(12)


def probe() -> int:
    """A fixed mix of the interpreter work crossconn's checks do.

    Host load slows each kind of work by a different factor; the mix
    follows a verify run more closely than any one kind alone.
    """
    total = 0
    counts: dict[tuple[int, int], int] = {}  # tuple keys, dict updates
    for a in range(64):
        for b in range(5):
            key = (a & 7, b)
            counts[key] = counts.get(key, 0) + 1
    mul = _TABLE.mul  # method calls
    for a in range(12):
        for b in range(12):
            total += mul(mul(a, b), a)
    for k in range(10):  # generators, sets
        total += sum(x * x for x in range(40))
        total += len({(x, x & 7) for x in range(k, k + 40)})
    for i in range(1000):  # integer arithmetic
        total = (total * 31 + i) & 0xFFFF
    return total + len(counts)


class SpeedSampler:
    """Times `probe` from SIGALRM every `INTERVAL_S` seconds while started.

    Each sample runs the probe twice and keeps the second time: the first
    run refills the caches the program evicted.  `spent` is the handler's
    total time, to be subtracted from any interval it falls in.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        warm = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.spent += end - start

    def start(self) -> None:
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"samples": self.samples, "spent": self.spent}, handle)


def mean_speed(samples: list[float]) -> float:
    """Mean over the samples of the reference probe time over the sampled one."""
    return statistics.fmean(REFERENCE_PROBE_S / t for t in samples)


def at_reference_speed(seconds: float, spent: float, samples: list[float]) -> float:
    """`seconds` measured under a sampler, less its handler time, at reference speed."""
    return (seconds - spent) * mean_speed(samples)
