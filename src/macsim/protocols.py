"""Per-station slot-selection rules.

The schedule-based protocols (fixed-backoff, jump-to-idle and the learning
variants) all share one interface: after each schedule of ``schedule_len``
MAC slots the station learns whether its own slot worked out (a successful
transmission, or an idle observation of its chosen slot when it had nothing
to send) and which slot positions of that schedule were idle.  The protocol
then picks the slot for the next schedule.  DCF is counter-based and is
driven per transmission instead.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Sequence

import numpy as np

#: DCF contention window bounds and the retries before a packet is dropped.
CW_MIN, CW_MAX, RETRY_LIMIT = 32, 1024, 7

#: L-MAC learning strength a config leaves unset (``config.resolve``).
DEFAULT_BETA = 0.95


#: Values a ``ReadAhead`` draws from its generator at a time.  An
#: ``integers`` call costs about 10 us whether it draws 64 values or 1,024.
READ_AHEAD_BLOCK = 1024

#: The range of a read-ahead of 32-bit words.
_WORDS = 1 << 32


class ReadAhead:
    """One kind of draw from a generator, read ``READ_AHEAD_BLOCK`` values ahead.

    ``ReadAhead(rng)`` serves ``rng.random()`` and ``ReadAhead(rng, low,
    high)`` serves ``rng.integers(low, high)``: numpy fills a block with the
    values that single draws return and leaves the generator where they
    would.  A read-ahead of 32-bit words (``low, high = 0, 2**32``) also
    serves ``integers(0, 2**k)``, k <= 32, as the top k bits of a word:
    numpy draws that range by Lemire's method, which rejects nothing for a
    power of two.  The generator runs ahead of the values taken until
    ``rewind`` puts it where single draws would have left it; nothing else
    may draw from it before then.
    """

    __slots__ = ("rng", "low", "high", "_block", "_pos", "_saved")

    def __init__(self, rng: np.random.Generator, low: int | None = None, high: int | None = None):
        self.rng, self.low, self.high = rng, low, high
        self._block: list = []
        self._pos = 0
        self._saved = None  # the generator's state before ``_block`` was drawn

    def _draw(self, size: int) -> np.ndarray:
        if self.low is None:
            return self.rng.random(size)
        return self.rng.integers(self.low, self.high, size=size)

    def _refill(self, n: int) -> None:
        """Rewind, then draw a block that holds at least the next ``n`` values."""
        self.rewind()
        self._saved = self.rng.bit_generator.state
        self._block = self._draw(max(n, READ_AHEAD_BLOCK)).tolist()

    def take(self, n: int) -> list:
        """The next ``n`` values."""
        pos = self._pos
        end = pos + n
        block = self._block
        if end <= len(block):
            self._pos = end
            return block[pos:end]
        head = block[pos:]
        self._pos = len(block)  # the rest is taken, so the refill redraws none
        self._refill(n - len(head))
        return head + self.take(n - len(head))

    def peek(self, n: int) -> list:
        """The next ``n`` values, left to be taken."""
        if self._pos + n > len(self._block):
            self._refill(n)
        return self._block[self._pos : self._pos + n]

    def random(self) -> float:
        """The value ``rng.random()`` would return next."""
        pos = self._pos
        if pos == len(self._block):
            return self.take(1)[0]
        self._pos = pos + 1
        return self._block[pos]

    def integers(self, low: int, high: int) -> int:
        """The value ``rng.integers(low, high)`` would return next."""
        shift = 0
        if low != self.low or high != self.high:
            if self.high != _WORDS or low or not 0 < high <= _WORDS or high & (high - 1):
                raise ValueError(f"a read-ahead of integers({self.low}, {self.high}) "
                                 f"cannot serve integers({low}, {high})")
            shift = 33 - high.bit_length()
        pos = self._pos
        if pos == len(self._block):
            return self.take(1)[0] >> shift
        self._pos = pos + 1
        return self._block[pos] >> shift

    def rewind(self, unused: int = 0) -> None:
        """Put the generator where single draws of the values taken would
        have left it, and drop the values not taken.  The last ``unused``
        values taken, all from the last block drawn, count as not taken."""
        self._pos -= unused
        if self._pos < len(self._block):
            self.rng.bit_generator.state = self._saved
            self._draw(self._pos)
        self._block, self._pos = [], 0


def _uniform_slot(schedule_len: int, rng: np.random.Generator | ReadAhead) -> int:
    return int(rng.integers(1, schedule_len + 1))


class ScheduleProtocol:
    """Base for protocols that pick one slot per fixed-length schedule."""

    #: Whether ``on_schedule_end`` reads ``idle_positions``.  A rule that sets
    #: this False may be handed an empty sequence instead of the idle slots.
    reads_idle_positions = True

    def __init__(self, schedule_len: int, rng: np.random.Generator):
        if schedule_len < 1:
            raise ValueError("schedule_len must be at least 1")
        self.schedule_len = schedule_len
        self.slot = _uniform_slot(schedule_len, rng)

    def on_schedule_end(
        self, success: bool, idle_positions: Sequence[int], rng: np.random.Generator
    ) -> int:
        """Take one schedule's feedback and return the slot for the next one.

        Contract: a success keeps the slot and draws nothing, and a success
        reported right after a reported success changes nothing, not the
        state either.  So the schedule-synchronous kernel updates only the
        stations that failed in the schedule just played or in the one
        before, the latter with the success that followed.  It builds the
        idle positions only when some station's class sets
        ``reads_idle_positions``.  A rule that reads idle positions moves
        only onto them; with none, a failure keeps the slot and draws
        nothing.  So the slot engine copies a window with no idle slot when
        every station's rule reads idle positions, and reports no failure
        in the copies.
        """
        raise NotImplementedError

    def resize(self, new_len: int) -> None:
        """Adopt a new schedule length, mapping the slot into the new window."""
        if new_len < 1:
            raise ValueError("new_len must be at least 1")
        self.schedule_len = new_len
        self.slot = (self.slot - 1) % new_len + 1


class Lbeb(ScheduleProtocol):
    """Fixed backoff on success, uniform reselection over all slots on failure.

    In a run of only Lbeb stations, ``schedulesim._play`` redraws failed
    stations from a ``ReadAhead`` of uniform draws without calling
    ``on_schedule_end``.  Unlike L-MAC's failure step, which both take from
    ``lmac_failure``, that redraw is written out in ``_play``, so a change
    to the rule goes there too.
    """

    reads_idle_positions = False

    def on_schedule_end(self, success, idle_positions, rng):
        if not success:
            self.slot = _uniform_slot(self.schedule_len, rng)
        return self.slot


class Zc(ScheduleProtocol):
    """Jump-to-idle: on failure, choose uniformly among the failed slot and
    the slots that were idle in the schedule just completed."""

    def on_schedule_end(self, success, idle_positions, rng):
        if not success and idle_positions:
            pick = int(rng.integers(0, len(idle_positions) + 1))
            if pick > 0:
                self.slot = int(idle_positions[pick - 1])
        return self.slot


class Lzc(ScheduleProtocol):
    """Jump-to-idle with a tunable stay probability after a failure.

    On failure the station keeps its slot with probability ``gamma`` and
    otherwise moves to one of the just-observed idle slots uniformly.  With
    no idle slots to move to it stays put.
    """

    def __init__(self, schedule_len, gamma: float, rng):
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        super().__init__(schedule_len, rng)
        self.gamma = gamma

    def on_schedule_end(self, success, idle_positions, rng):
        if not success:
            n_idle = len(idle_positions)
            if n_idle > 0 and rng.random() >= self.gamma:
                self.slot = int(idle_positions[int(rng.integers(0, n_idle))])
        return self.slot


def sample_slot(p: Sequence[float], rng: np.random.Generator) -> int:
    """Draw a 1-based slot from a probability vector.

    ``accumulate`` adds left to right as ``np.cumsum`` does, and
    ``bisect_right`` is ``searchsorted(..., side="right")``, so draws equal
    the numpy form's bit for bit.  A draw past the last CDF value, which
    rounding can give, takes the last slot.
    """
    cdf = list(accumulate(p))
    idx = bisect_right(cdf, rng.random() * cdf[-1])
    return idx + 1 if idx < len(cdf) else idx


def updated_probabilities(
    p: Sequence[float], slot: int, beta: float, success: bool
) -> list[float]:
    """One slot-probability update for the learning protocol.

    Success concentrates all mass on ``slot``.  Failure shrinks the mass on
    ``slot`` by ``beta`` and redistributes the freed mass evenly over the
    other slots, preserving the total.  Each entry is rounded as
    ``out *= beta; out += share`` rounds it on an ndarray.
    """
    c = len(p)
    if success:
        out = [0.0] * c
        out[slot - 1] = 1.0
        return out
    if c == 1:
        return list(p)
    share = (1.0 - beta) / (c - 1)
    out = [x * beta + share for x in p]
    out[slot - 1] -= share
    return out


def lmac_failure(
    p: Sequence[float], slot: int, beta: float, rng: np.random.Generator
) -> tuple[list[float], int]:
    """L-MAC's failure step: the vector ``p`` updated for a failure in
    ``slot``, and the next slot drawn from it.  ``Lmac.on_schedule_end``
    and the all-L-MAC runs of ``schedulesim._play`` both take it."""
    p = updated_probabilities(p, slot, beta, False)
    return p, sample_slot(p, rng)


class Lmac(ScheduleProtocol):
    """Learning slot selection driven only by own success/failure feedback.

    Keeps a probability vector ``p`` (a list of floats) over the slots of
    the schedule.  The vector collapses to a point mass on success and
    decays multiplicatively on failure, so a station that recently held an
    uncontested slot tends to retry it even after an occasional loss.

    In a run of only Lmac stations with one ``beta``,
    ``schedulesim._play`` keeps the vectors and slots itself and applies
    ``lmac_failure`` without calling ``on_schedule_end``; it writes ``p``
    and ``slot`` back when the run ends.
    """

    reads_idle_positions = False

    def __init__(self, schedule_len, beta: float, rng):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        if schedule_len < 2:
            raise ValueError("learning update needs at least 2 slots")
        self.schedule_len = schedule_len
        self.beta = beta
        self.p = [1.0 / schedule_len] * schedule_len
        self.slot = sample_slot(self.p, rng)

    def on_schedule_end(self, success, idle_positions, rng):
        if success:
            self.p = updated_probabilities(self.p, self.slot, self.beta, True)
        else:
            self.p, self.slot = lmac_failure(self.p, self.slot, self.beta, rng)
        return self.slot

    def resize(self, new_len: int) -> None:
        if new_len < 2:
            raise ValueError("learning update needs at least 2 slots")
        super().resize(new_len)
        self.p = [1.0 / new_len] * new_len


class Dcf:
    """Binary exponential backoff with a doubling contention window.

    The counter is drawn uniformly in ``[0, CW - 1]``; the window doubles on
    failure up to ``CW_MAX`` and resets to ``CW_MIN`` after a success or
    after ``RETRY_LIMIT`` retries drop the packet.
    """

    def __init__(self, rng: np.random.Generator):
        self.cw = CW_MIN
        self.retries = 0
        self.counter = int(rng.integers(0, self.cw))

    def on_transmission(self, success: bool, rng: np.random.Generator) -> bool:
        """Update state after a transmission and redraw ``counter``; returns
        whether the retry limit dropped the packet."""
        dropped = False
        if success:
            self.cw = CW_MIN
            self.retries = 0
        else:
            self.retries += 1
            if self.retries > RETRY_LIMIT:
                dropped = True
                self.cw = CW_MIN
                self.retries = 0
            else:
                self.cw = min(2 * self.cw, CW_MAX)
        self.counter = int(rng.integers(0, self.cw))
        return dropped


def init_protocol(
    kind: str,
    schedule_len: int | None,
    rng: np.random.Generator,
    beta: float | None = None,
    gamma: float | None = None,
):
    """Build a protocol instance of the given kind with validated parameters."""
    if kind == "dcf":
        return Dcf(rng)
    if schedule_len is None:
        raise ValueError(f"protocol {kind!r} needs a schedule length")
    if kind == "lbeb":
        return Lbeb(schedule_len, rng)
    if kind == "zc":
        return Zc(schedule_len, rng)
    if kind == "lzc":
        if gamma is None:
            raise ValueError("lzc needs an explicit stay probability gamma")
        return Lzc(schedule_len, gamma, rng)
    if kind == "lmac":
        if beta is None:
            raise ValueError("lmac needs an explicit learning strength beta")
        return Lmac(schedule_len, beta, rng)
    raise ValueError(f"unknown protocol kind: {kind!r}")
