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


def _uniform_slot(schedule_len: int, rng: np.random.Generator) -> int:
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
        ``reads_idle_positions``.
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
    stations from blocks of uniform draws without calling ``on_schedule_end``,
    so a change to the rule goes there too.
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
        if not success:
            n_idle = len(idle_positions)
            pick = int(rng.integers(0, n_idle + 1))
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
    the numpy form's bit for bit.
    """
    cdf = list(accumulate(p))
    idx = bisect_right(cdf, rng.random() * cdf[-1])
    return min(idx, len(p) - 1) + 1


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


class Lmac(ScheduleProtocol):
    """Learning slot selection driven only by own success/failure feedback.

    Keeps a probability vector ``p`` (a list of floats) over the slots of
    the schedule.  The vector collapses to a point mass on success and
    decays multiplicatively on failure, so a station that recently held an
    uncontested slot tends to retry it even after an occasional loss.
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
        self.p = updated_probabilities(self.p, self.slot, self.beta, success)
        if not success:
            self.slot = sample_slot(self.p, rng)
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
