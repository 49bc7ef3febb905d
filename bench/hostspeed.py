"""Host-speed sampling, so that timings can be scaled to a reference speed.

On a shared host the speed of plain Python code drifts by 20-50 % within
seconds to minutes while nothing in the process changes.  ``HostSpeed``
runs a small fixed pure-Python loop on every ``SIGALRM`` of an interval
timer, interleaved with whatever the process is running.  Two loops take
turns: one of arithmetic only, one of random reads over a 2 MB list, so
that both slowdowns of the core and contention for the caches show.  For
any interval of the run it gives the host's speed over exactly that
interval, and the seconds the samples themselves took, which are taken out
of the measured time.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

INTERVAL_S = 0.05
#: Loop sizes, and the loop time (about 1 ms each) that defines the
#: reference speed adjusted times are scaled to.
ARITH_SIZE = 10_000
READS_SIZE = 5_000
REF_SAMPLE_S = 0.001
_TABLE = [i & 255 for i in range(1 << 18)]


def _arith(size: int) -> int:
    acc = 0
    for i in range(size):
        acc += i * i % 7
    return acc


def _reads(size: int) -> int:
    j = acc = 0
    table = _TABLE
    for _ in range(size):
        j = (j * 1103515245 + 12345) & 0x3FFFF
        acc += table[j]
    return acc


class HostSpeed:
    """Samples one of the two loops every ``INTERVAL_S`` seconds of wall time."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.monotonic()
        if len(self.starts) % 2:
            _reads(READS_SIZE)
        else:
            _arith(ARITH_SIZE)
        self.starts.append(t0)
        self.times.append(time.monotonic() - t0)

    def start(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def slowdown(self, lo: int = 0, hi: int | None = None) -> float:
        """Geometric mean of both loops' mean time over the reference time,
        for samples ``lo:hi``; a range lacking either loop uses all samples."""
        hi = len(self.times) if hi is None else hi
        means = []
        for parity in (0, 1):
            first = lo + (parity - lo) % 2
            picked = self.times[first:hi:2] or self.times[parity::2]
            if not picked:
                return 1.0
            means.append(sum(picked) / len(picked) / REF_SAMPLE_S)
        return math.sqrt(means[0] * means[1])

    def adjust(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1] (``time.monotonic``) without the samples, scaled
        to the reference speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = sum(self.times[lo:hi])
        return (t1 - t0 - busy) / self.slowdown(lo, hi)
