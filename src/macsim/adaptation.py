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

The per-station rules keep only their own counters: a station passes its
committed length and whether its last window was a probe to ``plan_next``,
the one statement of each rule: the slot engine asks it after every window,
copied ones included, until every adapter ends a copied period in the state
it began it in (``_Adapter``).
"""

from __future__ import annotations

import csv
import functools
import importlib.resources
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import write_csv
from .protocols import DEFAULT_BETA, Lmac, Lzc
from .schedulesim import DEFAULT_SCHEDULE_CAP, converge

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
    rng = np.random.default_rng([seed, n_stations, start_len])
    protos = [Lzc(start_len, gamma, rng) for _ in range(n_stations)]
    trajectory: list[int] = []
    c = start_len
    for _ in range(max_schedules):
        occupancy = [0] * (c + 1)
        for p in protos:
            occupancy[p.slot] += 1
        idle = [j for j in range(1, c + 1) if occupancy[j] == 0]
        for p in protos:
            p.on_schedule_end(occupancy[p.slot] == 1, idle, rng)
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


class _Adapter:
    """A per-station length rule whose state is its slots: two adapters of
    one rule compare equal when they hold the same values, and then plan
    alike from here on.  Slots, not an instance dict, keep ``copy`` and
    ``==`` from slowing the attribute reads of ``plan_next``."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(
            getattr(other, name) == getattr(self, name) for name in self.__slots__)

    def __copy__(self) -> _Adapter:
        twin = object.__new__(type(self))
        for name in self.__slots__:
            setattr(twin, name, getattr(self, name))
        return twin


class AlzcAdapter(_Adapter):
    """Doubling/halving driven directly by observed idle slots.

    Doubles when the window had no idle slot left; halves (never below the
    base) when at least half the window was idle and the last two windows
    since the length changed agreed on their busy count, which avoids
    shrinking while the slot assignment is still churning.
    """

    __slots__ = ("base_len", "max_len", "_last_busy")

    def __init__(self, base_len: int, max_len: int):
        if base_len < 1:
            raise ValueError("base length must be at least 1")
        self.base_len = base_len
        self.max_len = max_len
        self._last_busy: int | None = None

    def plan_next(
        self, c: int, probed: bool, idle_count: int, saw_collision: bool, own_success: bool
    ) -> tuple[int, bool]:
        """Length of the next window after one of the committed ``c`` slots,
        and whether it is a probe (never, here)."""
        busy, last = c - idle_count, self._last_busy
        self._last_busy = busy
        if idle_count == 0 and c * 2 <= self.max_len:
            self._last_busy = None
            return c * 2, False
        if idle_count >= c // 2 and busy == last and c // 2 >= self.base_len:
            self._last_busy = None
            return c // 2, False
        return c, False


class AlmacAdapter(_Adapter):
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

    __slots__ = ("base_len", "f_table", "probe_period", "max_len", "_since_check",
                 "_clean_checkpoints")

    def __init__(self, base_len: int, f_table: "FTable", probe_period: int, max_len: int):
        if probe_period < 1:
            raise ValueError("probe period must be at least 1")
        if not f_table.covers(base_len):
            raise ValueError(f"f-table does not cover base length {base_len}")
        self.base_len = base_len
        self.f_table = f_table
        self.probe_period = probe_period
        self.max_len = max_len
        self._since_check = 0
        self._clean_checkpoints = 0

    def plan_next(
        self, c: int, probed: bool, idle_count: int, saw_collision: bool, own_success: bool
    ) -> tuple[int, bool]:
        """Length of the next window after one at the committed length ``c``
        (half of it when ``probed``), and whether it is a probe.  A probe
        window is judged by ``own_success`` alone."""
        if probed:
            self._since_check = 0
            self._clean_checkpoints = 0
            return (c // 2 if own_success else c), False

        self._since_check += 1
        if self._since_check >= self.f_table.lookup(c):
            self._since_check = 0
            if saw_collision:
                if almac_may_double(self.f_table, c, self.max_len):
                    self._clean_checkpoints = 0
                    return c * 2, False
            else:
                self._clean_checkpoints += 1
                if (
                    self._clean_checkpoints % self.probe_period == 0
                    and c // 2 >= self.base_len
                ):
                    return c // 2, True
        return c, False


def almac_may_double(f_table: "FTable", c: int, max_len: int) -> bool:
    """Whether almac may double a window of ``c`` slots: the table covers the
    doubled length, and it is at most ``max_len``."""
    return c * 2 <= max_len and f_table.covers(c * 2)


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
        """Read a saved table; a repeated length, an f below 1 or an f outside
        its bounds ``[ci_low, ci_high]`` raises ``ValueError``."""
        entries = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                c, f = int(row["schedule_len"]), int(row["f"])
                low, high = int(row["ci_low"]), int(row["ci_high"])
                if c in entries:
                    raise ValueError(f"schedule length {c} has more than one row")
                if f < 1:
                    raise ValueError(f"schedule length {c} needs f >= 1, got {f}")
                if not low <= f <= high:
                    raise ValueError(
                        f"schedule length {c} has f = {f} outside [{low}, {high}]"
                    )
                entries[c] = FEntry(c, f, low, high)
        return cls(entries)


@functools.cache
def load_f_table(path: str) -> FTable:
    """``FTable.load_csv`` once per path, so a run's stations share one table."""
    return FTable.load_csv(path)


@functools.cache
def default_f_table() -> FTable:
    """Packaged convergence-horizon table for base length 16, loaded once."""
    ref = importlib.resources.files("macsim.data").joinpath("ftable_b16.csv")
    with importlib.resources.as_file(ref) as path:
        return FTable.load_csv(path)


def build_f_table(schedule_lengths: list[int], reps: int = 1000, seed: int = 1) -> FTable:
    """Monte Carlo tabulation of convergence horizons.

    For each length C, runs C-1 learning stations (``DEFAULT_BETA``) from uniform
    starts, replication r drawing from one generator seeded with (seed, C, r),
    and records the smallest schedule count by which ``F_CONFIDENCE``
    of the replications had reached a collision-free schedule.  Runs that hit
    the schedule cap count as never converging.  Confidence bounds come from
    1000 bootstrap resamples of the replications.  A length below 2 or given
    twice raises ``ValueError`` before any run, as a table with a repeated row
    does on load.
    """
    if reps < 1000:
        raise ValueError("tabulation needs at least 1000 replications")
    if any(c < 2 for c in schedule_lengths):
        raise ValueError("schedule length must be at least 2")
    repeated = [c for i, c in enumerate(schedule_lengths) if c in schedule_lengths[:i]]
    if repeated:
        raise ValueError(f"schedule length {repeated[0]} is given more than once")
    # index of the smallest count covering F_CONFIDENCE of the runs
    idx = math.ceil(F_CONFIDENCE * reps) - 1
    entries: dict[int, FEntry] = {}
    for c in schedule_lengths:
        n = c - 1
        counts: list[int] = []
        failures = 0
        for r in range(reps):
            rng = np.random.default_rng([seed, c, r])
            run = converge([Lmac(c, DEFAULT_BETA, rng) for _ in range(n)], rng)
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
        f_value = counts[idx]
        boot_rng = np.random.default_rng(np.random.SeedSequence([seed, c, 10**9]))
        # ``counts`` is sorted, so a resample's quantile is the count at that
        # order statistic of its drawn indices.  Ten blocks of 100 resamples
        # draw the same indices as one block of 1000 in a tenth of the memory.
        sorted_counts = np.array(counts)
        boots = []
        for _ in range(10):
            draws = boot_rng.integers(0, reps, size=(100, reps), dtype=np.int32)
            draws.sort(axis=1)
            boots.append(sorted_counts[draws[:, idx]])
        lo, hi = np.percentile(np.concatenate(boots), [2.5, 97.5])
        entries[c] = FEntry(c, int(f_value), int(lo), int(hi))
    return FTable(entries)
