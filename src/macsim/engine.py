"""Event-stepped network simulator.

Advances the shared medium one MAC slot at a time but touches a station
only at its own events.  A DCF station is booked in a due table at its next
transmission, ``Dcf.counter + 1`` slots after its last one.  A schedule station
books nothing: ``window_start``, ``tx_slot`` and ``window_len`` say when it
transmits and when its window ends.  A run is played in segments, each up to
the next window end, whose schedule transmitters are looked up by slot.
Due stations that hold a packet transmit; zero transmitters make an idle
slot, exactly one a success unless a channel error fires, two or more
collide.  A DCF station whose counter ran out with an empty queue waits on a
list checked every slot.  The per-slot trace is the one medium history: at
a window end a station reads its idle positions, collision flag and own
outcome back from it.  Poisson arrivals are pulled at a station's events,
before its random draws, so every random stream is consumed as if stations
were stepped every slot.  Simulated time is the sum of slot durations, added
left to right, and nothing else.

When every station is a saturated schedule station, ``run`` plays a
segment per step: it extends the trace columns once and fills in the busy
slots in slot order, a lone transmitter drawing the channel's error number,
the only random number, in a played slot; a watch or a time bound cuts the
segment after exactly the slot where stepping would stop.  Other runs take
the general path, one slot per step, the independent reference for segment
play.  The windows that end are closed in one loop, and a protocol hears
only failures and the first success after a failure or a resize, never a
probe: by the ``on_schedule_end`` contract a success reported right after
a reported success changes nothing.

Where no slot can hold a random draw or a decision, ``run`` appends whole
spans in one step, byte for byte what stepping would write, and never past
a slot or time bound:

* Window repeats.  When every station is a schedule station, all saturated
  or none, and every window starts at the next slot with one shared length,
  none a probe and no station holding a packet, the next windows are known
  in advance.  Unsaturated, they are all idle up to the one whose last slot
  starts at or after the earliest next arrival.  Saturated, on an
  error-free channel, they are copies of the window every station just
  closed from one start, if it had that length and no collision: a
  station that succeeds draws nothing and keeps its slot.  A protocol
  whose last report was a failure gets one success report, which is all
  that any number of successes changes, and the copies stop where an
  adapter's ``hold`` count says its length or probe plan could change.
* DCF idle stretches.  In a run of DCF stations only, once a slot is idle
  with some station waiting, the slots up to the next booked transmission
  stay idle while no waiting station holds a packet or has one arrive.

A watched run jumps only while the trailing window holds fewer successes
than the watch needs, and copies no saturated window; jumped slots add no
success, so the watch cannot fire inside a jump, and its counters are
recounted after one.  The clock still adds one duration per slot.
Everything else is played segment by segment or, on the general path,
slot by slot: runs that mix DCF and schedule stations, saturated DCF runs
(whose idle stretches are a few slots, each cheap to step), windows of
stations on different phases or lengths, windows in which some station
holds a packet, and saturated windows with collisions or errors (so every
window at N > C).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .adaptation import AlmacAdapter, AlzcAdapter, txop_packets
from .config import MAX_LAMBDA_PPS
from .phy import PhyParams, SlotKind
from .protocols import Dcf

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

    def __len__(self) -> int:
        return len(self.kinds)

    def repeat(self, columns: tuple[list, list, list, list], times: int) -> None:
        """Append ``times`` copies of the slots whose kinds, durations,
        transmitters and packets are ``columns``."""
        for column, slots in zip((self.kinds, self.durations, self.tx_station, self.packets),
                                 columns):
            column.extend(slots * times)


#: One schedule of one station: (station, schedule_index, chosen_slot,
#: outcome), the outcome "success" or "failure".
Event = tuple[int, int, int, str]


class Station:
    """A transmitter: protocol state and traffic queue.

    A DCF station next transmits ``Dcf.counter + 1`` slots after its last
    transmission.  A schedule station's current window starts at slot
    ``window_start`` and it transmits in slot ``tx_slot`` of the run; with
    an adapter each transmission carries ``txop_packets(window_len,
    adapter.base_len)`` packets.  The committed length is
    ``protocol.schedule_len`` and ``in_probe`` marks a half-length probe
    window; the adapter holds neither.  ``window_len`` and ``txop_m`` are
    plain attributes, set when a window closes, because the segment
    builder and the segment players read them every segment.
    ``reported_success`` is True while the last outcome reported to the
    protocol was a success and no resize came after it: by the
    ``on_schedule_end`` contract another success report would change
    nothing, so the simulator skips it.
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
        start_time_us: float = 0.0,
    ):
        if not 0.0 <= lambda_pps <= MAX_LAMBDA_PPS:
            raise ValueError(f"lambda_pps must be in [0, {MAX_LAMBDA_PPS}] packets/s")
        self.sid = sid
        self.protocol = protocol
        self.rng = rng
        self.saturated = saturated
        self.lambda_pps = lambda_pps
        self.buffer_packets = buffer_packets
        self.adapter = adapter

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
        self.window_len = 0 if self.is_dcf else protocol.schedule_len
        self.txop_m = 1
        if adapter is not None:
            self.txop_m = txop_packets(self.window_len, adapter.base_len)
        self.in_probe = False
        self.reported_success = False
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
        self.events: list[Event] = []
        self.clock_us = 0.0
        self.slot_index = 0
        self._tx_due: dict[int, list[Station]] = {}  # DCF stations only
        self._waiting: list[Station] = []
        self._success_us: dict[int, float] = {}
        for st in stations:
            self.add_station(st)

    def add_station(self, station: Station) -> None:
        """A transmitter joins; its schedule phase starts at the next slot."""
        station.position = len(self.stations)
        self.stations.append(station)
        if station.is_dcf:
            self._plan(station, self.slot_index)
        else:
            station.window_start = self.slot_index
            station.tx_slot = self.slot_index + station.protocol.slot - 1

    def _plan(self, st: Station, start: int) -> None:
        """Book a DCF station's next transmission, counted from ``start``."""
        self._tx_due.setdefault(start + st.protocol.counter, []).append(st)

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
        or error.  A watch with ``watch_n > watch_len`` is no watch: that
        many successes cannot fit in ``watch_len`` slots, so the run goes
        on, and returns False, as an unwatched one.  After a window end, and
        in a run of DCF stations only after an idle slot, it may jump ahead
        (module docstring).
        """
        phy, success_us = self.phy, self._success_us
        sigma, t_coll = phy.sigma_us, phy.t_collision
        error_rate, channel_rng = self.error_rate, self.channel_rng
        tx_due, waiting = self._tx_due, self._waiting
        tr = self.trace
        kinds, colliders = tr.kinds, tr.colliders
        add_kind = kinds.append
        add_duration = tr.durations.append
        add_tx = tr.tx_station.append
        add_packets = tr.packets.append
        sched = [st for st in self.stations if not st.is_dcf]
        # with saturated schedule stations only, each step plays a segment
        segments = len(sched) == len(self.stations) and all(st.saturated for st in sched)
        dcf_only = not sched

        watching = watch_n is not None and watch_n <= watch_len
        n_good = n_bad = 0
        ready = math.inf  # in segments, the first slot at which the watch could fire
        if watching and segments:
            ready = max(_last_bad(kinds, self.slot_index, watch_len), watch_from - 1) + watch_len
        elif watching:
            n_good, n_bad = _watch_counts(kinds, max(watch_from, self.slot_index - watch_len))

        s = self.slot_index
        clock = self.clock_us
        end, sched_due = self._segment(sched, s)
        if dcf_only and not all(st.saturated for st in self.stations):
            end = -1  # look for an idle stretch after every slot
        hit = False
        while True:
            before = clock  # a window end pulls arrivals as of its last slot
            if segments:
                stop = end + 1 if end < until_slot else max(math.ceil(until_slot), s + 1)
                s, clock, hit, ready = self._play_segment(
                    s, stop, sched_due, clock, until_us, watch_n, watch_len, ready
                )
                if hit:
                    break
            else:
                due = tx_due.pop(s, None)
                if s in sched_due:
                    due = sched_due[s] if due is None else due + sched_due[s]
                kind, duration, sid, packets = _IDLE, sigma, -1, 0
                if due is not None or waiting:
                    transmitters = []
                    if waiting:
                        transmitters = [
                            st for st in waiting if st.queue or st.next_arrival_us <= clock
                        ]
                        if transmitters:
                            for st in transmitters:
                                if st.next_arrival_us <= clock:
                                    st.pull_arrivals(clock)
                            waiting[:] = [st for st in waiting if not st.queue]
                    for st in due or ():
                        if st.next_arrival_us <= clock:
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
                        kind, duration = _COLLISION, t_coll
                        transmitters.sort(key=_position)
                        colliders[s] = tuple(st.sid for st in transmitters)
                clock += duration
                add_kind(kind)
                add_duration(duration)
                add_tx(sid)
                add_packets(packets)
                if kind != _IDLE:
                    if packets:
                        transmitters[0].deliver(packets, clock)
                    for st in transmitters:
                        if st.is_dcf:
                            if st.protocol.on_transmission(kind == _SUCCESS, st.rng):
                                st.drop_head(clock)
                            self._plan(st, s + 1)
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
            if s > end:
                t = s
                # the watch cannot fire in a jump, and a watched run copies no
                # window with successes
                free = not watching or (not segments and n_good < watch_n)
                if dcf_only:
                    if kind == _IDLE and waiting and s not in tx_due and free:
                        t, clock = self._idle_stretch(s, clock, until_slot, until_us)
                else:
                    closed_from = self._close_windows(sched, s - 1, before)
                    if free:
                        t, clock = self._repeat_windows(
                            s, clock, None if watching else closed_from, until_slot, until_us
                        )
                    end, sched_due = self._segment(sched, t)
                if t > s:
                    s = t
                    if watching:
                        n_good, n_bad = _watch_counts(kinds, max(watch_from, s - watch_len))
                    if s >= until_slot:
                        break

        if s > end and not dcf_only:  # stopped right after a window end
            self._close_windows(sched, s - 1, before)
        self.slot_index = s
        self.clock_us = clock
        for st in self.stations:
            if st.next_arrival_us <= clock:
                st.pull_arrivals(clock)
        return hit

    def _play_segment(
        self, s: int, stop: int, due: dict[int, list[Station]], clock: float, until_us: float,
        watch_n: int | None, watch_len: int, ready: float,
    ) -> tuple[int, float, bool, float]:
        """Play slots ``s`` to ``stop - 1`` of a run of saturated schedule
        stations, whose transmissions by slot are ``due``: extend the trace
        columns once, then fill in the busy slots in slot order.  A slot held
        by two or more stations is a collision; a lone transmitter draws the
        channel's error number and otherwise succeeds.

        ``ready`` is the first slot at which a live watch could fire, the
        ``watch_len`` slots before it free of collisions and errors, and
        math.inf with no watch.  With a watch or a finite ``until_us`` the
        play stops after the slot where the watch fires or the clock reaches
        ``until_us``, and no later slot is filled or draws.  Returns the slot
        after the last one played, the clock there, whether the watch fired,
        and ``ready`` there."""
        phy, success_us = self.phy, self._success_us
        error_rate, channel_rng, t_coll = self.error_rate, self.channel_rng, phy.t_collision
        tr = self.trace
        kinds, durations, tx_station, packets = tr.kinds, tr.durations, tr.tx_station, tr.packets
        colliders = tr.colliders
        length = stop - s
        kinds.extend([_IDLE] * length)
        durations.extend([phy.sigma_us] * length)
        tx_station.extend([-1] * length)
        packets.extend([0] * length)
        timed = until_us < math.inf
        checked = timed or ready < math.inf
        busy = sorted(due.items())
        errors = ()
        if error_rate > 0.0 and not checked:  # every lone slot is played: draw at once
            lone = sum([len(group) == 1 for t, group in busy if t < stop])
            errors = iter((channel_rng.random(lone) < error_rate).tolist())
        hit, pos = False, s
        busy.append((stop, None))
        for t, group in busy:
            if t > stop:
                t = stop
            if checked:  # slots pos to t - 1 are final: does the run stop in them?
                last = t
                if ready < t:
                    for u in range(max(pos, ready), t):
                        if kinds[u + 1 - watch_len : u + 1].count(_SUCCESS) == watch_n:
                            last, hit = u + 1, True
                            break
                if timed:
                    for u in range(pos, last):
                        clock += durations[u]
                        if clock >= until_us:
                            hit = hit and u + 1 == last  # a watch in the same slot fires
                            last = u + 1
                            break
                if last < t or hit or clock >= until_us:
                    stop = last
                    break
                pos = t
            if t == stop:
                break
            if len(group) > 1:
                kinds[t] = _COLLISION
                colliders[t] = tuple([st.sid for st in group])
            else:
                st = group[0]
                tx_station[t] = st.sid
                error = error_rate > 0.0 and (
                    channel_rng.random() < error_rate if checked else next(errors)
                )
                if not error:
                    m = st.txop_m
                    duration = success_us.get(m)
                    if duration is None:
                        duration = success_us[m] = phy.success_duration(m)
                    kinds[t] = _SUCCESS
                    durations[t] = duration
                    packets[t] = m
                    st.delivered += m
                    continue
                kinds[t] = _ERROR
            durations[t] = t_coll
            if ready < t + watch_len:
                ready = t + watch_len
        if stop < s + length:
            for column in (kinds, durations, tx_station, packets):
                del column[stop:]
        if not timed:
            clock = reduce(add, durations[s:stop], clock)
        return stop, clock, hit, ready

    def _segment(self, sched: list[Station], s: int) -> tuple[float, dict[int, list[Station]]]:
        """The segment from slot ``s`` up to the first window end among
        ``sched``: its last slot, and the pending transmissions of ``sched``
        by slot, in position order."""
        end = min([st.window_start + st.window_len for st in sched], default=math.inf) - 1
        due: dict[int, list[Station]] = {}
        for st in sched:
            t = st.tx_slot
            if t >= s:
                group = due.get(t)
                if group is None:
                    due[t] = [st]
                else:
                    group.append(st)
        return end, due

    def _close_windows(self, sched: list[Station], s: int, before_us: float) -> int | None:
        """Close the windows of ``sched`` that end at slot ``s``, in position
        order, each read back from the trace: log the slot held and the
        outcome, report it to the protocol, let the adapter plan the next
        window, and start that at slot ``s + 1``.  A probe window is not
        reported, and a success is reported only after a failure or a
        resize (``Station.reported_success``); a station left unreported
        keeps its slot.  The idle positions are listed only when an adapter
        counts them or the protocol sets ``reads_idle_positions``.  A probe
        holds ``proto.slot`` wrapped into its shorter window.  Returns the
        start the windows share, or None when they started at different
        slots."""
        tr = self.trace
        kinds, tx_station = tr.kinds, tr.tx_station
        add_event = self.events.append
        after = s + 1
        shared = None  # the start of every window closed so far; -1 once two differ
        views: dict[int, tuple[list[int], bool]] = {}  # idle positions, collision
        for st in sched:
            start, length = st.window_start, st.window_len
            if start + length != after:
                continue
            if shared != start:
                shared = start if shared is None else -1
            if st.next_arrival_us <= before_us:
                st.pull_arrivals(before_us)
            own, sid = st.tx_slot, st.sid
            success = kinds[own] == _IDLE or (kinds[own] == _SUCCESS and tx_station[own] == sid)
            add_event((sid, st.schedule_index, own - start + 1,
                       "success" if success else "failure"))
            st.schedule_index += 1
            st.window_start = after
            adapter = st.adapter
            if success and st.reported_success and adapter is None:
                st.tx_slot = own + length
                continue
            proto = st.protocol
            report = not st.in_probe and not (success and st.reported_success)
            idle, saw_collision = (), False
            if adapter is not None or (report and proto.reads_idle_positions):
                view = views.get(start)
                if view is None:
                    window = kinds[start:after]
                    view = views[start] = (
                        [i + 1 for i, k in enumerate(window) if k == _IDLE],
                        max(window) >= _COLLISION,
                    )
                idle, saw_collision = view
            if report:
                proto.on_schedule_end(success, idle, st.rng)
                st.reported_success = success
            if adapter is not None:
                next_len, probe = adapter.plan_next(
                    proto.schedule_len, st.in_probe, len(idle), saw_collision, success
                )
                if not probe and next_len != proto.schedule_len:
                    proto.resize(next_len)
                    st.reported_success = False
                if next_len != length:
                    st.window_len = next_len
                    st.txop_m = txop_packets(next_len, adapter.base_len)
                st.in_probe = probe
            st.tx_slot = after + (proto.slot - 1) % st.window_len
        return None if shared == -1 else shared

    def _repeat_windows(
        self, s: int, clock: float, closed_from: int | None, until_slot: float, until_us: float
    ) -> tuple[int, float]:
        """Append whole windows that every station plays from slot ``s``, if
        their slots are known in advance.  Returns the slot after them and
        the clock there.

        Preconditions: every station is a schedule station, all saturated or
        none, whose window starts at ``s`` with one shared length, none in a
        probe and none holding a packet.  Unsaturated, the windows are all
        idle up to the one whose last slot starts at or after the earliest
        ``next_arrival_us``.  Saturated, they are copies of the window just
        closed, when the channel is error-free, every station closed it from
        ``closed_from == s - length`` and it held no collision: every
        station then succeeded, and a success draws nothing and keeps the
        slot.  Either window draws no random number.  Every station would
        report a success per window, and by the ``on_schedule_end`` contract
        only the first changes anything, so its protocol gets that one
        unless its last report was a success already.
        Windows stop where an adapter's ``hold`` count says its length or
        probe plan could change.
        """
        stations, tr = self.stations, self.trace
        length, saturated = stations[0].window_len, stations[0].saturated
        if saturated and (closed_from != s - length or self.error_rate > 0.0
                          or max(tr.kinds[closed_from:s]) >= _COLLISION):
            return s, clock
        arrival = math.inf
        for st in stations:
            if (st.is_dcf or st.saturated != saturated or st.queue or st.in_probe
                    or st.window_start != s or st.window_len != length):
                return s, clock
            arrival = min(arrival, st.next_arrival_us)
        if saturated:
            window = tuple(column[s - length : s]
                           for column in (tr.kinds, tr.durations, tr.tx_station, tr.packets))
        else:
            window = ([_IDLE] * length, [self.phy.sigma_us] * length, [-1] * length, [0] * length)
        idle = [i + 1 for i, k in enumerate(window[0]) if k == _IDLE]
        kept = min([st.adapter.hold(length, len(idle), False, True)
                    for st in stations if st.adapter is not None], default=math.inf)
        k, clock = self._fit_windows(s, clock, window[1], until_slot, until_us, arrival, kept)
        if k == 0:
            return s, clock
        tr.repeat(window, k)
        held = [(st.sid, st.schedule_index, st.tx_slot - st.window_start + 1) for st in stations]
        self.events.extend(
            (sid, index + j, slot, "success") for j in range(k) for sid, index, slot in held
        )
        shift = k * length
        for st in stations:
            if not st.reported_success:
                st.protocol.on_schedule_end(True, idle, st.rng)
                st.reported_success = True
            if st.adapter is not None:
                st.adapter.hold(length, len(idle), False, True, k)
            if saturated:
                st.delivered += k * st.txop_m
            st.schedule_index += k
            st.window_start += shift
            st.tx_slot += shift
        return s + shift, clock

    def _idle_stretch(
        self, s: int, clock: float, until_slot: float, until_us: float
    ) -> tuple[int, float]:
        """In a run of DCF stations only, with none booked at slot ``s`` and
        some waiting, append the idle slots from ``s`` on: those before the
        next booked transmission that start before the earliest next arrival
        of a waiting station, when none of them holds a packet.  Each DCF
        station is booked or waiting, so no one transmits there.  Stops at
        ``until_slot`` and before the slot that reaches ``until_us``.
        Returns the slot after them and the clock there."""
        tx_due = self._tx_due
        arrival = math.inf
        for st in self._waiting:
            if st.queue:
                return s, clock
            arrival = min(arrival, st.next_arrival_us)
        stop = min(min(tx_due, default=math.inf), until_slot)
        sigma = self.phy.sigma_us
        t = s
        while t < stop and clock < arrival:
            after = clock + sigma
            if after >= until_us:
                break
            clock = after
            t += 1
        self.trace.repeat(([_IDLE], [sigma], [-1], [0]), t - s)
        return t, clock

    @staticmethod
    def _fit_windows(
        s: int, clock: float, durations: list[float], until_slot: float, until_us: float,
        arrival_us: float, windows: float,
    ) -> tuple[int, float]:
        """How many of up to ``windows`` windows of ``durations``, from slot
        ``s`` at ``clock``, end by ``until_slot``, before ``until_us``, and
        start their last slot before ``arrival_us``; and the clock after
        them, added slot by slot."""
        if until_slot < math.inf:
            windows = min(windows, (until_slot - s) // len(durations))
        head, last = durations[:-1], durations[-1]
        k = 0
        while k < windows:
            start = reduce(add, head, clock)
            if start >= arrival_us or start + last >= until_us:
                break
            clock = start + last
            k += 1
        return k, clock


def _watch_counts(kinds: list[int], start: int) -> tuple[int, int]:
    """Successes, and collisions or errors, in ``kinds`` from ``start`` on."""
    good = bad = 0
    for k in kinds[start:]:
        good += k == _SUCCESS
        bad += k >= _COLLISION
    return good, bad


def _last_bad(kinds: list[int], s: int, length: int) -> int:
    """The last collision or error among the ``length`` slots before ``s``,
    or ``s - length - 1`` if there is none."""
    for u in range(s - 1, max(s - length, 0) - 1, -1):
        if kinds[u] >= _COLLISION:
            return u
    return s - length - 1


def _position(st: Station) -> int:
    return st.position
