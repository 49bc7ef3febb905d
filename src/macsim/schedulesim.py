"""Schedule-synchronous simulation of the slot-reselection protocols.

All stations share one schedule frame: each round every station transmits in
its chosen slot, sees whether it was alone there, learns the idle positions,
and updates.  This is the exact dynamics of the absorbing-chain analysis for
saturated stations on a clean channel and runs orders of magnitude faster
than the slot-stepped engine, which it complements for convergence studies.
A run draws from one generator, its stations in station order.  A schedule
updates only the stations that failed in it or in the one before, an
all-L-BEB run reads its redraws in blocks, and ``converge`` censors a run with
more stations than slots without playing it.  Per-schedule work that no rule
reads is skipped: the idle slots are listed only when some station's class
sets ``reads_idle_positions`` (ZC, L-ZC), and a success after a failure is
reported only when some station's class sets ``learns_from_success`` (L-MAC).
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


class _SlotDraws:
    """An all-L-BEB run's generator, read 64 uniform slot draws at a time.

    numpy fills ``integers(1, c + 1, size=64)`` with the values 64 single
    calls return, so only the generator's state runs ahead.  The run's
    stations keep their ``c`` and draw nothing else; other runs draw per call.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng, self.block = rng, []

    def integers(self, low: int, high: int) -> int:
        if not self.block:
            self.block = self.rng.integers(low, high, size=64).tolist()[::-1]
        return self.block.pop()


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
    pass first) and, with ``phy``, the seconds of the schedules before it.
    ``visit(slots, occupancy)`` sees each of those schedules; ``occupancy[j]``
    counts the stations in slot j.  Only stations that failed in a schedule
    or the one before it are updated, the first schedule counting as one
    after a failure.  Idle positions are built, and successes reported, only
    when some station's class reads them (``reads_idle_positions``,
    ``learns_from_success``).
    """
    c = protocols[0].schedule_len
    if any(p.schedule_len != c for p in protocols):
        raise ValueError("stations must share one schedule length")
    n = len(protocols)
    read_idle = any(p.reads_idle_positions for p in protocols)
    report_success = any(p.learns_from_success for p in protocols)
    if phy is not None:
        t_success, t_collision, sigma = phy.t_success, phy.t_collision, phy.sigma_us
    draws = _SlotDraws(rng) if all(isinstance(p, Lbeb) for p in protocols) else rng
    slots = [p.current_slot() for p in protocols]
    occupancy = [slots.count(j) for j in range(c + 1)]
    failed, seconds = range(n), 0.0
    for k in range(1, cap + 1):
        n_success = occupancy.count(1)
        if n_success == n:
            return k, seconds
        if phy is not None:
            n_idle = occupancy.count(0) - 1
            n_collision = c - n_success - n_idle
            us = n_success * t_success + n_collision * t_collision + n_idle * sigma
            seconds += us / 1e6
        if visit is not None:
            visit(slots, occupancy)
        idle = [j for j in range(1, c + 1) if occupancy[j] == 0] if read_idle else ()
        if report_success:
            for i in failed:
                if occupancy[slots[i]] == 1:
                    protocols[i].on_schedule_end(True, idle, draws)
        failed = [i for i, s in enumerate(slots) if occupancy[s] != 1]
        for i in failed:
            occupancy[slots[i]] -= 1
            slots[i] = protocols[i].on_schedule_end(False, idle, draws)
            occupancy[slots[i]] += 1
    return None, seconds


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
    if len(protocols) > protocols[0].schedule_len:
        cap = 0  # more stations than slots never converge: censor at once
    k, seconds = _play(protocols, rng, cap, phy)
    return ConvergenceRun(k, None if k is None or phy is None else seconds)


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
    rng: np.random.Generator,
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

    return seq, _play(protocols, rng, cap, visit=add_successes)[0]
