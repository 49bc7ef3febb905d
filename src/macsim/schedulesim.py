"""Schedule-synchronous simulation of the slot-reselection protocols.

All stations share one schedule frame: each round every station transmits in
its chosen slot, sees whether it was alone there, learns the idle positions,
and updates.  This is the exact dynamics of the absorbing-chain analysis for
saturated stations on a clean channel and runs orders of magnitude faster
than the slot-stepped engine, which it complements for convergence studies.
A run draws from one generator, its stations in station order.  One loop,
``_play``, plays every rule.  Each schedule lists its failed stations once
and the run stops at the first schedule that lists none; only the stations
that failed in a schedule or in the one before are updated, and a run with
more stations than slots is censored without playing it.  The one choice
by rule, made once per run, is how a failed station's next slot is found.
In a run whose stations are all L-BEB it is the next value of a read-ahead
of uniform draws, taken a block at a time, and the generator is rewound to
where single draws leave it when the run ends.  In a run whose stations
are all L-MAC with one beta the run keeps the probability vectors and
applies ``protocols.lmac_failure``, the failure step ``Lmac`` takes too,
and writes the vectors back when it ends.  Neither calls a protocol.  In
any other run it is ``on_schedule_end``: a success that follows a failure
is reported to every rule, though only L-MAC learns from it, and the idle
slots are listed only when some station's class sets
``reads_idle_positions`` (ZC, L-ZC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .phy import PhyParams
from .protocols import (
    READ_AHEAD_BLOCK,
    Lbeb,
    Lmac,
    ReadAhead,
    ScheduleProtocol,
    lmac_failure,
    updated_probabilities,
)

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
    counts the stations in slot j.  Each schedule lists its failed stations
    once, and the run stops at the first schedule with none.  A schedule's
    seconds depend only on how many stations failed and how many slots were
    idle, so they are computed once per pair of counts, on first use.  Only
    stations that failed in a schedule or the one before it are updated,
    the first schedule counting as one after a failure.  The one choice by
    rule, made once per run, is how a failed station's next slot is found.
    In an all-L-BEB run the failed stations take,
    in station order, the next values of a ``ReadAhead`` of ``integers(1, c
    + 1)``, taken a block at a time and rewound, with the values left unused,
    when the run ends, and no protocol is called.  In an all-L-MAC run with
    one ``beta`` the run keeps the stations' vectors: a success right after
    a failure collapses the vector, and each failed station, in station
    order, takes ``lmac_failure``; no protocol is called, and each station's
    ``p`` is written back when the run ends.  In other runs they call
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
    kinds = {type(p) for p in protocols}
    lbeb_only = kinds == {Lbeb}
    lmac_only = kinds == {Lmac} and len({p.beta for p in protocols}) == 1
    if lmac_only:
        beta, probs = protocols[0].beta, [p.p for p in protocols]
        # the vector a success leaves on each slot, made once per run; only the
        # station settled on a slot holds it, and no rule changes a vector in place
        units = [None] * (c + 1)
    read_idle = any(kind.reads_idle_positions for kind in kinds)
    if phy is not None:
        t_success, t_collision, sigma = phy.t_success, phy.t_collision, phy.sigma_us
        seconds_of: dict[tuple[int, int], float] = {}  # by counts of failed and of zeros
    slots = [p.slot for p in protocols]
    occupancy = [slots.count(j) for j in range(c + 1)]
    failed, seconds = range(n), 0.0
    draws = ReadAhead(rng, 1, c + 1)
    values, left = iter(()), 0  # the values taken from ``draws`` and not used yet
    for k in range(1, cap + 1):
        last_failed, failed = failed, [i for i, s in enumerate(slots) if occupancy[s] != 1]
        if not failed:
            break
        if phy is not None:
            key = (len(failed), occupancy.count(0))
            schedule_s = seconds_of.get(key)
            if schedule_s is None:
                n_success, n_idle = n - key[0], key[1] - 1  # slot 0 is never occupied
                n_collision = c - n_success - n_idle
                us = n_success * t_success + n_collision * t_collision + n_idle * sigma
                schedule_s = seconds_of[key] = us / 1e6
            seconds += schedule_s
        if visit is not None:
            visit(slots, occupancy)
        if lbeb_only:
            if len(failed) > left:
                block = [*values, *draws.take(max(len(failed), READ_AHEAD_BLOCK))]
                values, left = iter(block), len(block)
            left -= len(failed)
            for i, s in zip(failed, values):
                occupancy[slots[i]] -= 1
                slots[i] = s
                occupancy[s] += 1
            continue
        if lmac_only:
            for i in last_failed:
                s = slots[i]
                if occupancy[s] == 1:
                    unit = units[s]
                    if unit is None:
                        unit = units[s] = updated_probabilities(probs[i], s, beta, True)
                    probs[i] = unit
            for i in failed:
                s = slots[i]
                occupancy[s] -= 1
                probs[i], s = lmac_failure(probs[i], s, beta, rng)
                slots[i] = s
                occupancy[s] += 1
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
    draws.rewind(left)
    for p, s in zip(protocols, slots):
        p.slot = s
    if lmac_only:
        for p, q in zip(protocols, probs):
            p.p = q
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
