"""Event-stepped network simulator.

Advances the shared medium one MAC slot at a time but touches a station
only at its own events: its next transmission (``counter + 1`` slots after a
DCF station's last one, slot ``effective_slot`` of a schedule station's
window) and the end of its schedule window.  Due stations that hold a packet
transmit; zero transmitters make an idle slot, exactly one a success unless
a channel error fires, two or more collide.  A DCF station whose counter ran
out with an empty queue waits on a list checked every slot.  The per-slot
trace is the one medium history: at a window end a station reads its idle
positions, collision flag and own outcome back from it.  Poisson arrivals
are pulled at a station's events, before its random draws, so every random
stream is consumed as if stations were stepped every slot.  Simulated time
is the sum of slot durations, added left to right, and nothing else.

Once every station holds its own slot, the schedule repeats unchanged: a
saturated schedule station that succeeds draws nothing and keeps its slot.
When such a window closes on an error-free channel and the caller is not
watching for convergence, ``run`` appends whole copies of it in one step.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .adaptation import AlmacAdapter, AlzcAdapter, WindowSummary, txop_packets
from .phy import PhyParams, SlotKind
from .protocols import Dcf, ScheduleProtocol

_IDLE = int(SlotKind.IDLE)
_SUCCESS = int(SlotKind.SUCCESS)
_COLLISION = int(SlotKind.COLLISION)
_ERROR = int(SlotKind.ERROR)


def elapsed_us(durations) -> float:
    """Sum of slot durations added left to right, as the engine's clock adds them.

    Built-in ``sum`` of floats is compensated from Python 3.12 on, so it can
    differ from the clock in the last bits.
    """
    return reduce(add, durations, 0.0)


@dataclass
class Trace:
    """Per-slot record of a run."""

    kinds: list[int] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    tx_station: list[int] = field(default_factory=list)  # -1 unless success/error
    packets: list[int] = field(default_factory=list)  # delivered packets, success only
    colliders: dict[int, tuple[int, ...]] = field(default_factory=dict)
    coll_sizes: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def sim_time_us(self) -> float:
        return elapsed_us(self.durations)

    def transmitters_of(self, slot_index: int) -> tuple[int, ...]:
        kind = self.kinds[slot_index]
        if kind in (SlotKind.SUCCESS, SlotKind.ERROR):
            return (self.tx_station[slot_index],)
        if kind == SlotKind.COLLISION:
            return self.colliders[slot_index]
        return ()


@dataclass
class EventRecord:
    """One schedule of one station: which slot it held and how it went."""

    station: int
    schedule_index: int
    chosen_slot: int
    outcome: str  # "success" or "failure"


class Station:
    """A transmitter: protocol state, traffic queue and backoff counter.

    ``counter`` counts the slots between the station's last event (its last
    DCF transmission, or the start of its schedule window) and its next
    transmission.
    """

    def __init__(
        self,
        sid: int,
        protocol,
        rng: np.random.Generator,
        saturated: bool = True,
        lambda_pps: float = 0.0,
        buffer_packets: int = 50,
        adapter: AlzcAdapter | AlmacAdapter | None = None,
        txop_base: int | None = None,
        start_time_us: float = 0.0,
    ):
        self.sid = sid
        self.protocol = protocol
        self.rng = rng
        self.saturated = saturated
        self.lambda_pps = lambda_pps
        self.buffer_packets = buffer_packets
        self.adapter = adapter
        self.txop_base = txop_base

        self.queue: deque[float] = deque()
        self.head_since_us: float | None = None
        self.next_arrival_us = float("inf")
        if not saturated and lambda_pps > 0.0:
            self.next_arrival_us = start_time_us + rng.exponential(1e6 / lambda_pps)

        self.delivered = 0
        self.dropped = 0
        self.lost_arrivals = 0
        self.delays_us: list[float] = []

        self.is_dcf = isinstance(protocol, Dcf)
        if self.is_dcf:
            self.counter = protocol.counter
            self.window_len = 0
            self.txop_m = 1
        else:
            self.window_len = protocol.schedule_len
            self.counter = protocol.current_slot() - 1
            self.txop_m = (
                txop_packets(self.window_len, txop_base) if txop_base else 1
            )
        self.in_probe = False
        self.schedule_index = 0
        self.position = 0  # index in the simulator's station list
        self.window_start = 0
        self.tx_slot = 0

    # -- queue ----------------------------------------------------------

    def packets_ready(self) -> int:
        if self.saturated:
            return self.txop_m
        return min(self.txop_m, len(self.queue))

    def deliver(self, count: int, now_us: float) -> None:
        self.delivered += count
        if self.saturated:
            return
        for i in range(count):
            self.queue.popleft()
            head_at = self.head_since_us if i == 0 else now_us
            self.delays_us.append(now_us - (head_at if head_at is not None else now_us))
        self.head_since_us = now_us if self.queue else None

    def drop_head(self, now_us: float) -> None:
        self.dropped += 1
        if self.saturated:
            return
        if self.queue:
            self.queue.popleft()
        self.head_since_us = now_us if self.queue else None

    def pull_arrivals(self, now_us: float) -> None:
        while self.next_arrival_us <= now_us:
            arrival = self.next_arrival_us
            self.next_arrival_us = arrival + self.rng.exponential(
                1e6 / self.lambda_pps
            )
            if len(self.queue) >= self.buffer_packets:
                self.lost_arrivals += 1
                continue
            self.queue.append(arrival)
            if self.head_since_us is None:
                self.head_since_us = arrival

    # -- schedule windows -------------------------------------------------

    def close_window(
        self,
        success: bool,
        idle_positions: list[int],
        saw_collision: bool,
        events: list[EventRecord],
    ) -> None:
        """Log the finished window, update the slot choice, plan the next one."""
        proto: ScheduleProtocol = self.protocol
        held_slot = (
            (proto.current_slot() - 1) % self.window_len + 1
            if self.in_probe
            else proto.current_slot()
        )
        events.append(
            EventRecord(
                self.sid,
                self.schedule_index,
                held_slot,
                "success" if success else "failure",
            )
        )

        if not self.in_probe:
            proto.on_schedule_end(success, idle_positions, self.rng)

        next_len = self.window_len
        probe = False
        if self.adapter is not None:
            summary = WindowSummary(
                idle_count=len(idle_positions),
                busy_count=self.window_len - len(idle_positions),
                saw_collision=saw_collision,
                own_success=success,
                was_probe=self.in_probe,
            )
            next_len, probe = self.adapter.plan_next(summary)
            if not probe and next_len != proto.schedule_len:
                proto.resize(next_len)

        if probe:
            effective_slot = (proto.current_slot() - 1) % next_len + 1
        else:
            effective_slot = proto.current_slot()
        self.in_probe = probe
        self.window_len = next_len
        self.txop_m = txop_packets(next_len, self.txop_base) if self.txop_base else 1
        self.counter = effective_slot - 1
        self.schedule_index += 1


class Simulator:
    """Steps stations through MAC slots on one shared channel."""

    def __init__(
        self,
        stations: list[Station],
        phy: PhyParams,
        error_rate: float = 0.0,
        channel_rng: np.random.Generator | None = None,
    ):
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError("error rate must be in [0, 1]")
        if error_rate > 0.0 and channel_rng is None:
            raise ValueError("channel errors need a channel RNG")
        self.stations: list[Station] = []
        self.phy = phy
        self.error_rate = error_rate
        self.channel_rng = channel_rng
        self.trace = Trace()
        self.events: list[EventRecord] = []
        self.clock_us = 0.0
        self.slot_index = 0
        self._tx_due: dict[int, list[Station]] = {}
        self._end_due: dict[int, list[Station]] = {}
        self._waiting: list[Station] = []
        self._success_us: dict[int, float] = {}
        for st in stations:
            self.add_station(st)

    def add_station(self, station: Station) -> None:
        """A transmitter joins; its schedule phase starts at the next slot."""
        station.position = len(self.stations)
        self.stations.append(station)
        self._plan(station, self.slot_index)

    def _plan(self, st: Station, start: int) -> None:
        """Book the next transmission (and window end) counted from ``start``."""
        tx = start + st.counter
        self._tx_due.setdefault(tx, []).append(st)
        if not st.is_dcf:
            st.window_start = start
            st.tx_slot = tx
            self._end_due.setdefault(start + st.window_len - 1, []).append(st)

    def step(self) -> None:
        self.run(until_slot=self.slot_index + 1)

    def run(
        self,
        until_slot: float = math.inf,
        until_us: float = math.inf,
        watch_n: int | None = None,
        watch_len: int = 0,
        watch_from: int = 0,
    ) -> bool:
        """Advance at least one slot, until a bound or a collision-free schedule.

        Stops after the slot that reaches ``until_slot`` slots or
        ``until_us`` of simulated time.  With ``watch_n`` set it also stops,
        returning True, once the last ``watch_len`` slots, all at or after
        ``watch_from``, hold exactly ``watch_n`` successes and no collision
        or error.
        """
        phy, success_us = self.phy, self._success_us
        sigma, t_coll = phy.sigma_us, phy.t_collision
        error_rate, channel_rng = self.error_rate, self.channel_rng
        tx_due, end_due, waiting = self._tx_due, self._end_due, self._waiting
        tr = self.trace
        kinds = tr.kinds
        add_kind = kinds.append
        add_duration = tr.durations.append
        add_tx = tr.tx_station.append
        add_packets = tr.packets.append
        add_size = tr.coll_sizes.append

        watching = watch_n is not None
        n_good = n_bad = 0
        if watching:
            for k in kinds[max(watch_from, self.slot_index - watch_len) :]:
                n_good += k == _SUCCESS
                n_bad += k >= _COLLISION

        s = self.slot_index
        clock = self.clock_us
        hit = False
        while True:
            due = tx_due.pop(s, None)
            before = clock
            kind, duration, sid, packets, size = _IDLE, sigma, -1, 0, 0
            if due is not None or waiting:
                transmitters = []
                if waiting:
                    transmitters = [
                        st for st in waiting if st.queue or st.next_arrival_us <= clock
                    ]
                    if transmitters:
                        for st in transmitters:
                            st.pull_arrivals(clock)
                        waiting[:] = [st for st in waiting if not st.queue]
                for st in due or ():
                    if not st.saturated:
                        st.pull_arrivals(clock)
                    if st.saturated or st.queue:
                        transmitters.append(st)
                    elif st.is_dcf:
                        waiting.append(st)
                if len(transmitters) == 1:
                    sid = transmitters[0].sid
                    if error_rate > 0.0 and channel_rng.random() < error_rate:
                        kind, duration = _ERROR, t_coll
                    else:
                        kind = _SUCCESS
                        packets = transmitters[0].packets_ready()
                        duration = success_us.get(packets)
                        if duration is None:
                            duration = success_us[packets] = phy.success_duration(packets)
                elif transmitters:
                    kind, duration, size = _COLLISION, t_coll, len(transmitters)
                    transmitters.sort(key=_position)
                    tr.colliders[s] = tuple(st.sid for st in transmitters)
            clock += duration
            add_kind(kind)
            add_duration(duration)
            add_tx(sid)
            add_packets(packets)
            add_size(size)
            if kind != _IDLE:
                if packets:
                    transmitters[0].deliver(packets, clock)
                for st in transmitters:
                    if st.is_dcf:
                        counter, dropped = st.protocol.on_transmission(
                            kind == _SUCCESS, st.rng
                        )
                        if dropped:
                            st.drop_head(clock)
                        st.counter = counter
                        self._plan(st, s + 1)
            ending = end_due.pop(s, None)
            if ending is not None:
                absorbed = self._close_windows(ending, s, before)
                if absorbed and not watching:
                    s, clock = self._replay(s, clock, until_slot, until_us)
            s += 1
            if watching:
                n_good += kind == _SUCCESS
                n_bad += kind >= _COLLISION
                if s - watch_len > watch_from:
                    old = kinds[s - watch_len - 1]
                    n_good -= old == _SUCCESS
                    n_bad -= old >= _COLLISION
                if s - watch_from >= watch_len and n_good == watch_n and n_bad == 0:
                    hit = True
                    break
            if s >= until_slot or clock >= until_us:
                break

        self.slot_index = s
        self.clock_us = clock
        for st in self.stations:
            if not st.saturated:
                st.pull_arrivals(clock)
        return hit

    def _close_windows(self, ending: list[Station], s: int, before_us: float) -> bool:
        """Window ends at slot ``s``: read each window back from the trace.

        Returns True when the window is absorbed: the channel is error-free,
        every station is a saturated schedule station without adapter or
        probe, all of them end this window from one shared start, and every
        one succeeded.  The next window then repeats this one exactly.
        """
        if len(ending) > 1:
            ending.sort(key=_position)
        tr = self.trace
        kinds = tr.kinds
        seen: dict[int, tuple[list[int], bool]] = {}
        absorbed = self.error_rate == 0.0 and len(ending) == len(self.stations)
        for st in ending:
            if not st.saturated:
                st.pull_arrivals(before_us)
            start = st.window_start
            view = seen.get(start)
            if view is None:
                window = kinds[start : s + 1]
                view = seen[start] = (
                    [i + 1 for i, k in enumerate(window) if k == _IDLE],
                    max(window) >= _COLLISION,
                )
            own = st.tx_slot
            own_kind = kinds[own]
            success = own_kind == _IDLE or (
                own_kind == _SUCCESS and tr.tx_station[own] == st.sid
            )
            absorbed = absorbed and (
                success and st.saturated and st.adapter is None and not st.in_probe
            )
            st.close_window(success, view[0], view[1], self.events)
            self._plan(st, s + 1)
        return absorbed and len(seen) == 1

    def _replay(
        self, s: int, clock: float, until_slot: float, until_us: float
    ) -> tuple[int, float]:
        """Append whole copies of the absorbed window that ended at slot ``s``.

        Copies stop before the one that would reach ``until_slot`` or
        ``until_us``, so the stepped loop plays the rest.  Returns the last
        replayed slot and the clock after it.
        """
        stations = self.stations
        length = stations[0].window_len
        start = s + 1 - length
        windows = math.inf if until_slot == math.inf else (until_slot - 1 - s) // length
        tr = self.trace
        durations = tr.durations[start : s + 1]
        k = 0
        while k < windows:
            after = reduce(add, durations, clock)
            if after >= until_us:
                break
            clock = after
            k += 1
        if k == 0:
            return s, clock
        for column in (tr.kinds, tr.durations, tr.tx_station, tr.packets, tr.coll_sizes):
            column.extend(column[start : s + 1] * k)
        held = [(st.sid, st.schedule_index, st.protocol.current_slot()) for st in stations]
        self.events.extend(
            EventRecord(sid, index + j, slot, "success")
            for j in range(k)
            for sid, index, slot in held
        )
        # every station's only pending events are the ones planned from s + 1
        self._tx_due.clear()
        self._end_due.clear()
        s += k * length
        for st in stations:
            st.delivered += k * st.txop_m
            st.schedule_index += k
            self._plan(st, s + 1)
        return s, clock


def _position(st: Station) -> int:
    return st.position
