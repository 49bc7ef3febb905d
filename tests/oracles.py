"""Independent readings of engine output that the tests check the engine against."""

from __future__ import annotations

from macsim.engine import Event, Trace
from macsim.phy import SlotKind


def transmitters_of(trace: Trace, slot_index: int) -> tuple[int, ...]:
    """Station ids that transmitted in a slot of the trace."""
    kind = trace.kinds[slot_index]
    if kind in (SlotKind.SUCCESS, SlotKind.ERROR):
        return (trace.tx_station[slot_index],)
    if kind == SlotKind.COLLISION:
        return trace.colliders[slot_index]
    return ()


def detect_convergence_from_events(events: list[Event], n_stations: int) -> int | None:
    """Alternative detector: first schedule where stations hold distinct slots.

    Works off the per-station event log of aligned stations: schedule k is
    collision-free when all stations report success there with pairwise
    distinct slots.  Oracle for ``metrics.detect_convergence``.
    """
    by_schedule: dict[int, list[tuple[int, str]]] = {}
    for _, schedule_index, chosen_slot, outcome in events:
        by_schedule.setdefault(schedule_index, []).append((chosen_slot, outcome))
    k = 0
    while True:
        rows = by_schedule.get(k)
        if not rows or len(rows) < n_stations:
            return None
        slots = {slot for slot, _ in rows}
        if len(slots) == n_stations and all(outcome == "success" for _, outcome in rows):
            return k
        k += 1
