"""Schedule-synchronous simulation of the slot-reselection protocols.

All stations share one schedule frame: each round every station transmits in
its chosen slot, sees whether it was alone there, learns the idle positions,
and updates.  This is the exact dynamics of the absorbing-chain analysis for
saturated stations on a clean channel and runs orders of magnitude faster
than the slot-stepped engine, which it complements for convergence studies.
A run draws from one generator, its stations in station order.  One loop,
``_play``, plays every rule; a schedule updates only the stations that
failed in it or in the one before, and a run with more stations than slots
is censored without playing it.  The one choice by rule is where a
failed station's next slot comes from: in a run whose stations are all
L-BEB it is the next value of a block of uniform draws, with no protocol
call, and in any other run it is ``on_schedule_end``.  There, a success
that follows a failure is reported to every rule, though only L-MAC learns
from it, and the idle slots are listed only when some station's class sets
``reads_idle_positions`` (ZC, L-ZC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .phy import PhyParams
from .protocols import Lbeb, ScheduleProtocol

#: Convergence runs are abandoned (and flagged) beyond this many schedules.
DEFAULT_SCHEDULE_CAP = 10**6


@dataclass
class ConvergenceRun:
    """Outcome of one seeded run.

    ``schedules`` counts schedules played through the first collision-free
    one (the initial uniform pick counts as schedule 1); ``None`` means the
    cap was hit or there are more stations than slots.  ``seconds_before``
    is simulated time spent on the schedules preceding the first
    collision-free one.
    """

    schedules: int | None
    seconds_before: float | None


#: Slot draws an all-L-BEB run reads from its generator at a time.  An
#: ``integers`` call costs about 10 us whether it draws 64 values or 1,024;
#: the values a run leaves unread only advance a generator no caller reads.
LBEB_BLOCK = 1024


def _play(
    protocols: list[ScheduleProtocol],
    rng: np.random.Generator,
    cap: int,
    phy: PhyParams | None = None,
    visit: Callable[[list[int], list[int]], None] | None = None,
) -> tuple[int | None, float]:
    """Play shared schedules until the stations' slots are all distinct.

    Stations draw from ``rng`` in station order.  Returns the schedule count
    through the first collision-free schedule (None when ``cap`` schedules
    pass first, or at once when there are more stations than slots) and,
    with ``phy``, the seconds of the schedules before it.
    ``visit(slots, occupancy)`` sees each of those schedules; ``occupancy[j]``
    counts the stations in slot j.  Only stations that failed in a schedule
    or the one before it are updated, the first schedule counting as one
    after a failure.  In an all-L-BEB run the failed stations take, in
    station order, the next values of blocks of ``integers(1, c + 1,
    size=LBEB_BLOCK)``, which numpy fills with the values that many single
    draws return, and no protocol is called.  In other runs they call
    ``on_schedule_end``, after the stations that succeed right after a
    failure have reported that success; idle positions are built only when
    some station's class sets ``reads_idle_positions``.  The stations'
    slots are written back when the run ends, at convergence or at the cap.
    """
    c = protocols[0].schedule_len
    if any(p.schedule_len != c for p in protocols):
        raise ValueError("stations must share one schedule length")
    n = len(protocols)
    if n > c:
        cap = 0  # more stations than slots never converge: censor at once
    lbeb_only = all(type(p) is Lbeb for p in protocols)
    read_idle = any(p.reads_idle_positions for p in protocols)
    if phy is not None:
        t_success, t_collision, sigma = phy.t_success, phy.t_collision, phy.sigma_us
    slots = [p.slot for p in protocols]
    occupancy = [slots.count(j) for j in range(c + 1)]
    failed, block, pos, seconds = range(n), [], 0, 0.0
    for k in range(1, cap + 1):
        n_success = occupancy.count(1)
        if n_success == n:
            break
        if phy is not None:
            n_idle = occupancy.count(0) - 1
            n_collision = c - n_success - n_idle
            us = n_success * t_success + n_collision * t_collision + n_idle * sigma
            seconds += us / 1e6
        if visit is not None:
            visit(slots, occupancy)
        last_failed, failed = failed, [i for i, s in enumerate(slots) if occupancy[s] != 1]
        if lbeb_only:
            end = pos + len(failed)
            while end > len(block):
                block = block[pos:] + rng.integers(1, c + 1, size=LBEB_BLOCK).tolist()
                end, pos = end - pos, 0
            for i, s in zip(failed, block[pos:end]):
                occupancy[slots[i]] -= 1
                slots[i] = s
                occupancy[s] += 1
            pos = end
            continue
        idle = [j for j in range(1, c + 1) if occupancy[j] == 0] if read_idle else ()
        for i in last_failed:
            if occupancy[slots[i]] == 1:
                protocols[i].on_schedule_end(True, idle, rng)
        for i in failed:
            occupancy[slots[i]] -= 1
            slots[i] = protocols[i].on_schedule_end(False, idle, rng)
            occupancy[slots[i]] += 1
    else:
        k = None
    for p, s in zip(protocols, slots):
        p.slot = s
    return k, seconds


def converge(
    protocols: list[ScheduleProtocol],
    rng: np.random.Generator,
    cap: int = DEFAULT_SCHEDULE_CAP,
    phy: PhyParams | None = None,
) -> ConvergenceRun:
    """Run until the stations' slots are all distinct.

    Stations share one schedule length and draw from ``rng``, the run's one
    generator.  Timing is accumulated only when ``phy`` is given.
    """
    k, seconds = _play(protocols, rng, cap, phy)
    return ConvergenceRun(k, None if k is None or phy is None else seconds)


def success_sequence_until_converged(
    protocols: list[ScheduleProtocol],
    rng: np.random.Generator,
    cap: int = DEFAULT_SCHEDULE_CAP,
) -> tuple[list[int], int | None]:
    """Station ids of successful slots, in slot order, before convergence.

    Stations are numbered 1..N in list order.  Returns the sequence together
    with the convergence schedule count: ``None`` when the cap was hit, the
    sequence then covering the whole capped run, or at once, with an empty
    sequence, when there are more stations than slots.
    """
    seq: list[int] = []

    def add_successes(slots: list[int], occupancy: list[int]) -> None:
        by_slot = sorted(
            (slots[i], i + 1) for i in range(len(slots)) if occupancy[slots[i]] == 1
        )
        seq.extend(sid for _, sid in by_slot)

    return seq, _play(protocols, rng, cap, visit=add_successes)[0]
