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

from typing import Sequence

import numpy as np

#: DCF contention window bounds and the retries before a packet is dropped.
CW_MIN, CW_MAX, RETRY_LIMIT = 32, 1024, 7


def backoff_from_slots(current_slot: int, next_slot: int, schedule_len: int) -> int:
    """Backoff counter, in MAC slots, between transmissions in consecutive schedules.

    Equals ``schedule_len`` exactly when the station keeps its slot.
    """
    c = schedule_len
    if not 1 <= current_slot <= c:
        raise ValueError(f"current_slot {current_slot} outside 1..{c}")
    if not 1 <= next_slot <= c:
        raise ValueError(f"next_slot {next_slot} outside 1..{c}")
    return c - current_slot + next_slot


def _uniform_slot(schedule_len: int, rng: np.random.Generator) -> int:
    return int(rng.integers(1, schedule_len + 1))


class ScheduleProtocol:
    """Base for protocols that pick one slot per fixed-length schedule."""

    kind = "base"

    def __init__(self, schedule_len: int, rng: np.random.Generator):
        if schedule_len < 1:
            raise ValueError("schedule_len must be at least 1")
        self.schedule_len = schedule_len
        self.slot = _uniform_slot(schedule_len, rng)

    def current_slot(self) -> int:
        return self.slot

    def on_schedule_end(
        self, success: bool, idle_positions: Sequence[int], rng: np.random.Generator
    ) -> int:
        raise NotImplementedError

    def resize(self, new_len: int) -> None:
        """Adopt a new schedule length, mapping the slot into the new window."""
        if new_len < 1:
            raise ValueError("new_len must be at least 1")
        self.schedule_len = new_len
        self.slot = (self.slot - 1) % new_len + 1


class Lbeb(ScheduleProtocol):
    """Fixed backoff on success, uniform reselection over all slots on failure."""

    kind = "lbeb"

    def on_schedule_end(self, success, idle_positions, rng):
        if not success:
            self.slot = _uniform_slot(self.schedule_len, rng)
        return self.slot


class Zc(ScheduleProtocol):
    """Jump-to-idle: on failure, choose uniformly among the failed slot and
    the slots that were idle in the schedule just completed."""

    kind = "zc"

    def on_schedule_end(self, success, idle_positions, rng):
        if not success:
            n_idle = len(idle_positions)
            pick = int(rng.integers(0, n_idle + 1))
            if pick > 0:
                self.slot = int(idle_positions[pick - 1])
        return self.slot

    def failure_distribution(self, idle_positions: Sequence[int]) -> dict[int, float]:
        """Exact next-slot distribution after a failure (for instrumentation)."""
        n_idle = len(idle_positions)
        dist = {self.slot: 1.0 / (n_idle + 1)}
        for pos in idle_positions:
            dist[int(pos)] = dist.get(int(pos), 0.0) + 1.0 / (n_idle + 1)
        return dist


class Lzc(ScheduleProtocol):
    """Jump-to-idle with a tunable stay probability after a failure.

    On failure the station keeps its slot with probability ``gamma`` and
    otherwise moves to one of the just-observed idle slots uniformly.  With
    no idle slots to move to it stays put.
    """

    kind = "lzc"

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

    def failure_distribution(self, idle_positions: Sequence[int]) -> dict[int, float]:
        n_idle = len(idle_positions)
        if n_idle == 0:
            return {self.slot: 1.0}
        dist = {self.slot: self.gamma}
        for pos in idle_positions:
            dist[int(pos)] = dist.get(int(pos), 0.0) + (1.0 - self.gamma) / n_idle
        return dist


def sample_slot(p: np.ndarray, rng: np.random.Generator) -> int:
    """Draw a 1-based slot from a probability vector."""
    cdf = np.cumsum(p)
    idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(idx, len(p) - 1) + 1


def updated_probabilities(
    p: np.ndarray, slot: int, beta: float, success: bool
) -> np.ndarray:
    """One slot-probability update for the learning protocol.

    Success concentrates all mass on ``slot``.  Failure shrinks the mass on
    ``slot`` by ``beta`` and redistributes the freed mass evenly over the
    other slots, preserving the total.
    """
    c = len(p)
    out = p.astype(float, copy=True)
    if success:
        out[:] = 0.0
        out[slot - 1] = 1.0
        return out
    if c == 1:
        return out
    share = (1.0 - beta) / (c - 1)
    out *= beta
    out += share
    out[slot - 1] -= share
    return out


class Lmac(ScheduleProtocol):
    """Learning slot selection driven only by own success/failure feedback.

    Keeps a probability vector over the slots of the schedule.  The vector
    collapses to a point mass on success and decays multiplicatively on
    failure, so a station that recently held an uncontested slot tends to
    retry it even after an occasional loss.
    """

    kind = "lmac"

    def __init__(self, schedule_len, beta: float, rng):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        if schedule_len < 2:
            raise ValueError("learning update needs at least 2 slots")
        self.schedule_len = schedule_len
        self.beta = beta
        self.p = np.full(schedule_len, 1.0 / schedule_len)
        self.slot = sample_slot(self.p, rng)
        #: True while ``p`` is the point mass on ``slot`` that a success left.
        self.settled = False

    def on_schedule_end(self, success, idle_positions, rng):
        if success and self.settled:
            return self.slot  # the update would rebuild the same point mass
        self.p = updated_probabilities(self.p, self.slot, self.beta, success)
        self.settled = success
        if not success:
            self.slot = sample_slot(self.p, rng)
        return self.slot

    def resize(self, new_len: int) -> None:
        if new_len < 2:
            raise ValueError("learning update needs at least 2 slots")
        self.schedule_len = new_len
        self.p = np.full(new_len, 1.0 / new_len)
        self.settled = False
        self.slot = (self.slot - 1) % new_len + 1


class Dcf:
    """Binary exponential backoff with a doubling contention window.

    The counter is drawn uniformly in ``[0, CW - 1]``; the window doubles on
    failure up to ``CW_MAX`` and resets to ``CW_MIN`` after a success or
    after ``RETRY_LIMIT`` retries drop the packet.
    """

    kind = "dcf"

    def __init__(self, rng: np.random.Generator):
        self.cw = CW_MIN
        self.retries = 0
        self.counter = int(rng.integers(0, self.cw))

    def on_transmission(
        self, success: bool, rng: np.random.Generator
    ) -> tuple[int, bool]:
        """Update state after a transmission; returns (new counter, dropped)."""
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
        return self.counter, dropped


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
        return Lmac(schedule_len, 0.95 if beta is None else beta, rng)
    raise ValueError(f"unknown protocol kind: {kind!r}")
