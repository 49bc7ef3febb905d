"""Schedule-synchronous simulation of the slot-reselection protocols.

All stations share one schedule frame: each round every station transmits in
its chosen slot, sees whether it was alone there, learns the idle positions,
and updates.  This is the exact dynamics of the absorbing-chain analysis for
saturated stations on a clean channel and runs orders of magnitude faster
than the slot-stepped engine, which it complements for convergence studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .phy import PhyParams
from .protocols import ScheduleProtocol

#: Convergence runs are abandoned (and flagged) beyond this many schedules.
DEFAULT_SCHEDULE_CAP = 10**6


@dataclass
class ConvergenceRun:
    """Outcome of one seeded run.

    ``schedules`` counts schedules played through the first collision-free
    one (the initial uniform pick counts as schedule 1); ``None`` means the
    cap was hit.  ``seconds_before`` is simulated time spent on the schedules
    preceding the first collision-free one.
    """

    schedules: int | None
    seconds_before: float | None


def _schedule_seconds(occupancy: list[int], phy: PhyParams) -> float:
    n_success = sum(1 for o in occupancy[1:] if o == 1)
    n_collision = sum(1 for o in occupancy[1:] if o >= 2)
    n_idle = len(occupancy) - 1 - n_success - n_collision
    us = (
        n_success * phy.t_success
        + n_collision * phy.t_collision
        + n_idle * phy.sigma_us
    )
    return us / 1e6


def _play(
    protocols: list[ScheduleProtocol],
    rngs: list[np.random.Generator],
    cap: int,
    visit: Callable[[list[int], list[int]], None] | None,
) -> int | None:
    """Play shared schedules until the stations' slots are all distinct.

    Returns the schedule count through the first collision-free schedule, or
    None when ``cap`` schedules pass first.  ``visit(slots, occupancy)`` sees
    every schedule before that one; ``occupancy[j]`` counts the stations in
    slot j.
    """
    c = protocols[0].schedule_len
    if any(p.schedule_len != c for p in protocols):
        raise ValueError("stations must share one schedule length")
    slots = [p.current_slot() for p in protocols]
    for k in range(1, cap + 1):
        occupancy = [0] * (c + 1)
        for s in slots:
            occupancy[s] += 1
        if all(occupancy[s] == 1 for s in slots):
            return k
        if visit is not None:
            visit(slots, occupancy)
        idle = [j for j in range(1, c + 1) if occupancy[j] == 0]
        for i, proto in enumerate(protocols):
            slots[i] = proto.on_schedule_end(occupancy[slots[i]] == 1, idle, rngs[i])
    return None


def converge(
    protocols: list[ScheduleProtocol],
    rngs: list[np.random.Generator],
    cap: int = DEFAULT_SCHEDULE_CAP,
    phy: PhyParams | None = None,
) -> ConvergenceRun:
    """Run until the stations' slots are all distinct.

    Stations must share one schedule length.  Timing is accumulated only when
    ``phy`` is given.
    """
    seconds = 0.0

    def add_time(slots: list[int], occupancy: list[int]) -> None:
        nonlocal seconds
        seconds += _schedule_seconds(occupancy, phy)

    k = _play(protocols, rngs, cap, None if phy is None else add_time)
    if k is None or phy is None:
        return ConvergenceRun(k, None)
    return ConvergenceRun(k, seconds)


def converge_lbeb_batch(
    n_stations: int,
    schedule_len: int,
    n_runs: int,
    seed: int,
    phy: PhyParams | None = None,
    cap: int = DEFAULT_SCHEDULE_CAP,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorised convergence measurement for the fixed-backoff protocol.

    The fixed-backoff rule (keep the slot on success, redraw uniformly over
    the whole schedule on failure) needs tens of thousands of schedules to
    sort out a full schedule, so replications run as one array computation.
    Cross-validated against the per-station implementation in the tests.

    Returns per-run schedule counts (0 marks a run that hit the cap) and,
    when ``phy`` is given, seconds spent before the first collision-free
    schedule.
    """
    c = schedule_len
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_stations, c]))
    slots = rng.integers(1, c + 1, size=(n_runs, n_stations))
    schedules = np.zeros(n_runs, dtype=np.int64)
    seconds = np.zeros(n_runs) if phy is not None else None
    active = np.arange(n_runs)
    for k in range(1, cap + 1):
        if active.size == 0:
            break
        sl = slots[active]
        a = active.size
        offsets = (np.arange(a) * (c + 1))[:, None]
        occ = np.bincount(
            (sl + offsets).ravel(), minlength=a * (c + 1)
        ).reshape(a, c + 1)
        own = np.take_along_axis(occ, sl, axis=1)
        success = own == 1
        converged = success.all(axis=1)
        schedules[active[converged]] = k
        if seconds is not None:
            n_success = (occ[:, 1:] == 1).sum(axis=1)
            n_collision = (occ[:, 1:] >= 2).sum(axis=1)
            n_idle = c - n_success - n_collision
            dur = (
                n_success * phy.t_success
                + n_collision * phy.t_collision
                + n_idle * phy.sigma_us
            ) / 1e6
            seconds[active[~converged]] += dur[~converged]
        redraw = rng.integers(1, c + 1, size=sl.shape)
        slots[active] = np.where(success, sl, redraw)
        active = active[~converged]
    return schedules, seconds


def success_sequence_until_converged(
    protocols: list[ScheduleProtocol],
    rngs: list[np.random.Generator],
    cap: int = DEFAULT_SCHEDULE_CAP,
) -> tuple[list[int], int | None]:
    """Station ids of successful slots, in slot order, before convergence.

    Stations are numbered 1..N in list order.  Returns the sequence together
    with the convergence schedule count (``None`` when the cap was hit, in
    which case the sequence covers the whole capped run).
    """
    seq: list[int] = []

    def add_successes(slots: list[int], occupancy: list[int]) -> None:
        by_slot = sorted(
            (slots[i], i + 1) for i in range(len(slots)) if occupancy[slots[i]] == 1
        )
        seq.extend(sid for _, sid in by_slot)

    return seq, _play(protocols, rngs, cap, add_successes)
