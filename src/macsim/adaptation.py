"""Schedule-length control.

Three mechanisms adjust how many slots a schedule has:

* an announced scheme where one observer (an access point) watches the shared
  schedule and broadcasts single-slot increments and decrements;
* a per-station doubling/halving rule driven by observed idle slots, for
  stations that can sense every slot;
* a per-station doubling/halving rule for stations that only sense busy
  versus decodable, driven by a precomputed table of how long convergence
  should take, with occasional one-schedule probes of the halved length.

Per-station lengths are kept at ``base * 2**k`` so any two schedules divide
evenly and relative phases cannot drift.  A station running ``m`` times the
base length sends ``m`` packets per transmission so long-run goodput stays
uniform across stations.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import write_csv
from .protocols import Lmac, Lzc
from .schedulesim import DEFAULT_SCHEDULE_CAP, converge

#: Default ceiling on per-station schedule length, as a multiple of the base.
MAX_LEN_FACTOR = 2**10

#: Share of f-table runs that must have converged by the tabulated count.
F_CONFIDENCE = 0.95


def ap_adapt(schedule_len: int, idle_count: int) -> int:
    """Announced single-slot adjustment from the observed idle-slot count.

    A full schedule grows by one slot; two or more idle slots shrink it by
    one (never below a single slot); exactly one idle slot is the target
    operating point and leaves the length unchanged.
    """
    if schedule_len < 1:
        raise ValueError("schedule length must be at least 1")
    if idle_count < 0:
        raise ValueError("idle count must be nonnegative")
    if idle_count == 0:
        return schedule_len + 1
    if idle_count >= 2:
        return max(1, schedule_len - 1)
    return schedule_len


def run_ap_announced(
    n_stations: int,
    start_len: int,
    gamma: float,
    seed: int,
    max_schedules: int = 10**4,
) -> list[int]:
    """Shared-schedule simulation under the announced adjustment scheme.

    Stations run the stay-or-jump rule on a common frame; after every
    schedule the announced length is updated from that schedule's idle count
    and everyone remaps into the new length.  Returns the announced length
    after each schedule.
    """
    ss = np.random.SeedSequence([seed, n_stations, start_len])
    rngs = [np.random.default_rng(c) for c in ss.spawn(n_stations)]
    protos = [Lzc(start_len, gamma, rngs[i]) for i in range(n_stations)]
    trajectory: list[int] = []
    c = start_len
    for _ in range(max_schedules):
        occupancy = [0] * (c + 1)
        for p in protos:
            occupancy[p.current_slot()] += 1
        idle = [j for j in range(1, c + 1) if occupancy[j] == 0]
        for i, p in enumerate(protos):
            p.on_schedule_end(occupancy[p.current_slot()] == 1, idle, rngs[i])
        new_c = ap_adapt(c, len(idle))
        if new_c != c:
            c = new_c
            for p in protos:
                p.resize(c)
        trajectory.append(c)
    return trajectory


def txop_packets(schedule_len: int, base_len: int) -> int:
    """Packets per transmission that equalise goodput across schedule lengths."""
    if base_len < 1:
        raise ValueError("base length must be at least 1")
    if schedule_len % base_len != 0:
        raise ValueError(f"{schedule_len} is not a multiple of base {base_len}")
    ratio = schedule_len // base_len
    if ratio & (ratio - 1):
        raise ValueError(f"{schedule_len}/{base_len} is not a power of two")
    return ratio


@dataclass(frozen=True)
class WindowSummary:
    """What a station saw during one completed schedule window."""

    idle_count: int
    busy_count: int
    saw_collision: bool
    own_success: bool
    was_probe: bool = False


class AlzcAdapter:
    """Doubling/halving driven directly by observed idle slots.

    Doubles when the window had no idle slot left; halves (never below the
    base) when at least half the window was idle and the two most recent
    windows agreed on their busy count, which avoids shrinking while the
    slot assignment is still churning.
    """

    def __init__(self, base_len: int, max_len: int | None = None):
        if base_len < 1:
            raise ValueError("base length must be at least 1")
        self.base_len = base_len
        self.max_len = max_len if max_len is not None else base_len * MAX_LEN_FACTOR
        self.current_len = base_len
        self._busy_history: deque[int] = deque(maxlen=2)

    def plan_next(self, summary: WindowSummary) -> tuple[int, bool]:
        self._busy_history.append(summary.busy_count)
        c = self.current_len
        if summary.idle_count == 0 and c * 2 <= self.max_len:
            self.current_len = c * 2
            self._busy_history.clear()
        elif (
            summary.idle_count >= c // 2
            and len(self._busy_history) == 2
            and self._busy_history[0] == self._busy_history[1]
            and c // 2 >= self.base_len
        ):
            self.current_len = c // 2
            self._busy_history.clear()
        return self.current_len, False


class AlmacAdapter:
    """Doubling/halving for stations without per-slot decode information.

    Every ``f(C)`` schedules (the tabulated time by which a population one
    short of filling the schedule should have converged) the station checks
    the just-finished window: any collision there means the length is too
    small, so it doubles.  Every ``probe_period``-th clean checkpoint the next
    window runs at half length as a probe; the halving is committed only if
    the station's own transmission survived the probe.  Probing at most one
    window out of every ``probe_period * f(C)`` keeps the average throughput
    within the configured budget even when every probe fails.
    """

    def __init__(
        self,
        base_len: int,
        f_table: "FTable",
        probe_period: int = 10,
        max_len: int | None = None,
    ):
        if probe_period < 1:
            raise ValueError("probe period must be at least 1")
        if not f_table.covers(base_len):
            raise ValueError(f"f-table does not cover base length {base_len}")
        self.base_len = base_len
        self.f_table = f_table
        self.probe_period = probe_period
        self.max_len = max_len if max_len is not None else base_len * MAX_LEN_FACTOR
        self.current_len = base_len
        self._since_check = 0
        self._clean_checkpoints = 0
        self._probe_origin: int | None = None

    def plan_next(self, summary: WindowSummary) -> tuple[int, bool]:
        if summary.was_probe:
            origin = self._probe_origin
            assert origin is not None
            if summary.own_success:
                self.current_len = origin // 2
            else:
                self.current_len = origin
            self._probe_origin = None
            self._since_check = 0
            self._clean_checkpoints = 0
            return self.current_len, False

        c = self.current_len
        self._since_check += 1
        if self._since_check >= self.f_table.lookup(c):
            self._since_check = 0
            if summary.saw_collision:
                grown = c * 2
                if grown <= self.max_len and self.f_table.covers(grown):
                    self.current_len = grown
                    self._clean_checkpoints = 0
            else:
                self._clean_checkpoints += 1
                if (
                    self._clean_checkpoints % self.probe_period == 0
                    and c // 2 >= self.base_len
                ):
                    self._probe_origin = c
                    return c // 2, True
        return self.current_len, False


@dataclass(frozen=True)
class FEntry:
    schedule_len: int
    schedules_needed: int
    ci_low: int
    ci_high: int


class FTable:
    """Schedules needed for C-1 learning stations to converge, by length C."""

    def __init__(self, entries: dict[int, FEntry]):
        self._entries = dict(entries)

    def covers(self, schedule_len: int) -> bool:
        return schedule_len in self._entries

    def lookup(self, schedule_len: int) -> int:
        if schedule_len not in self._entries:
            raise KeyError(f"f-table has no entry for schedule length {schedule_len}")
        return self._entries[schedule_len].schedules_needed

    @property
    def entries(self) -> list[FEntry]:
        return [self._entries[k] for k in sorted(self._entries)]

    def save_csv(self, path: str | Path) -> None:
        write_csv(
            path,
            ["schedule_len", "f", "ci_low", "ci_high"],
            [[e.schedule_len, e.schedules_needed, e.ci_low, e.ci_high]
             for e in self.entries],
        )

    @classmethod
    def load_csv(cls, path: str | Path) -> "FTable":
        entries = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                c = int(row["schedule_len"])
                entries[c] = FEntry(
                    c, int(row["f"]), int(row["ci_low"]), int(row["ci_high"])
                )
        return cls(entries)


def _quantile_count(sorted_counts: list[int]) -> int:
    """Smallest schedule count covering ``F_CONFIDENCE`` of the runs."""
    import math

    idx = math.ceil(F_CONFIDENCE * len(sorted_counts)) - 1
    return sorted_counts[idx]


def build_f_table(schedule_lengths: list[int], reps: int = 1000, seed: int = 1) -> FTable:
    """Monte Carlo tabulation of convergence horizons.

    For each length C, runs C-1 learning stations (beta 0.95) from uniform
    starts and records the smallest schedule count by which ``F_CONFIDENCE``
    of the replications had reached a collision-free schedule.  Runs that hit
    the schedule cap count as never converging.  Confidence bounds come from
    1000 bootstrap resamples of the replications.
    """
    if reps < 1000:
        raise ValueError("tabulation needs at least 1000 replications")
    entries: dict[int, FEntry] = {}
    for c in schedule_lengths:
        if c < 2:
            raise ValueError("schedule length must be at least 2")
        n = c - 1
        counts: list[int] = []
        failures = 0
        for r in range(reps):
            if n == 1:
                counts.append(1)
                continue
            ss = np.random.SeedSequence([seed, c, r])
            rngs = [np.random.default_rng(child) for child in ss.spawn(n)]
            protos = [Lmac(c, 0.95, rngs[i]) for i in range(n)]
            run = converge(protos, rngs)
            if run.schedules is None:
                failures += 1
                counts.append(DEFAULT_SCHEDULE_CAP + 1)
            else:
                counts.append(run.schedules)
        if failures > (1.0 - F_CONFIDENCE) * reps:
            raise RuntimeError(
                f"too many non-convergent runs ({failures}/{reps}) at C={c}"
            )
        counts.sort()
        f_value = _quantile_count(counts)
        boot_rng = np.random.default_rng(np.random.SeedSequence([seed, c, 10**9]))
        arr = np.array(counts)
        boots = []
        for _ in range(1000):
            sample = np.sort(arr[boot_rng.integers(0, reps, size=reps)])
            boots.append(_quantile_count(list(sample)))
        lo, hi = np.percentile(boots, [2.5, 97.5])
        entries[c] = FEntry(c, int(f_value), int(lo), int(hi))
    return FTable(entries)
