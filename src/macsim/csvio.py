"""Deterministic CSV writing for traces, event logs and reports."""

from __future__ import annotations

import csv
from collections.abc import Iterable
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING

from .phy import SlotKind

if TYPE_CHECKING:  # engine imports adaptation, which writes through this module
    from .engine import Event, Trace

_KIND_NAMES = {
    int(SlotKind.IDLE): "idle",
    int(SlotKind.SUCCESS): "success",
    int(SlotKind.COLLISION): "collision",
    int(SlotKind.ERROR): "error",
}


def write_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    """Write a header and rows with LF line ends.

    ``csv`` writes None as an empty cell and every other value with
    ``str()``, which prints a float, ``np.float64`` included, as its
    shortest round-trip repr.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def trace_to_csv(trace: Trace, path: str | Path) -> None:
    # the running time adds durations left to right, exactly as the engine's clock
    times = accumulate(trace.durations, initial=0.0)
    transmitters = ["" if sid < 0 else str(sid) for sid in trace.tx_station]
    for i, who in trace.colliders.items():
        transmitters[i] = "|".join(map(str, who))
    kinds = map(_KIND_NAMES.__getitem__, trace.kinds)
    write_csv(
        path,
        ["slot_index", "sim_time_us", "kind", "transmitters", "duration_us"],
        zip(range(len(trace.kinds)), times, kinds, transmitters, trace.durations),
    )


def events_to_csv(events: list[Event], path: str | Path) -> None:
    write_csv(path, ["station", "schedule_index", "chosen_slot", "outcome"], events)
