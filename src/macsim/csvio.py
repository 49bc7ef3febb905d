"""Deterministic CSV writing for traces, event logs and reports."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING

from .phy import SlotKind

if TYPE_CHECKING:  # engine imports adaptation, which writes through this module
    from .engine import EventRecord, Trace

_KIND_NAMES = {
    int(SlotKind.IDLE): "idle",
    int(SlotKind.SUCCESS): "success",
    int(SlotKind.COLLISION): "collision",
    int(SlotKind.ERROR): "error",
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 too, whose repr is not a number
        return repr(float(value))
    return str(value)


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def trace_to_csv(trace: Trace, path: str | Path) -> None:
    rows = []
    t = 0.0
    for i, kind in enumerate(trace.kinds):
        tx = "|".join(str(s) for s in trace.transmitters_of(i))
        rows.append([i, t, _KIND_NAMES[kind], tx, trace.durations[i]])
        t += trace.durations[i]
    write_csv(path, ["slot_index", "sim_time_us", "kind", "transmitters", "duration_us"], rows)


def events_to_csv(events: list[EventRecord], path: str | Path) -> None:
    rows = [
        [ev.station, ev.schedule_index, ev.chosen_slot, ev.outcome] for ev in events
    ]
    write_csv(path, ["station", "schedule_index", "chosen_slot", "outcome"], rows)
