"""Event-ordered network simulator.

A run is played in segments, each up to the next window end, that visit
only decision slots: the slot a schedule station holds in its window
(``tx_slot``), the slot a DCF station is booked at in a due table
(``Dcf.counter + 1`` slots after its last transmission), and the first slot
whose start reaches the next arrival of a DCF station waiting on an empty
queue.  The idle slots between them are written in bulk.  The stations due
pull their Poisson arrivals as of the slot's start, before their random
draws, so every random stream is consumed as if stations were stepped every
slot.  Streams that feed one kind of draw are read ahead in blocks
(``protocols.ReadAhead``): the channel's error numbers, saturated L-BEB
stations' slot redraws and saturated DCF stations' counters.  ``run``
rewinds each before it returns, so every generator ends where single draws
leave it.  One transmitter succeeds unless the channel's error draw fires,
two or more collide.  Simulated time is the sum of slot durations, added
left to right, and nothing else.  The per-slot trace is the one medium history:
at a window end a station reads its idle positions, collision flag and own
outcome back from it, and its protocol hears only failures and the first
success after a failure or a resize, never a probe (by the
``on_schedule_end`` contract a success right after a success changes
nothing).

After a window end ``run`` may append whole windows in one step, byte for
byte what playing them would write, never past a slot or time bound: when
every station is a schedule station, all saturated or none, every window
starts at the next slot with one shared length, none is a probe and no
station holds a packet.  Unsaturated, the windows are idle up to the one
whose last slot starts at or after the earliest next arrival.  Saturated,
they are copies of a unit, the last windows every station closed together
(``_unit``), if each station holds the slot it held where the unit starts,
no window of the unit has an error, and each has either no collision or no
idle slot with every station's rule one that reads idle positions (by the
``on_schedule_end`` contract such a rule keeps its slot and draws nothing
when none is idle).  On an error channel the copies end before the first
whose lone transmissions draw an error.  Each window appended is closed as
``_close_windows`` would close it, adapters planning from its idle count,
and the first after which some adapter plans otherwise than the source
did is the last; once every adapter ends a copied unit as it began it,
whole units follow with no plan.  A watched run jumps quiet windows only
while they cannot hold the successes the watch needs, and copies a unit
only after a window free of collisions and errors and only if the watch
cannot fire in the copies.
"""

from __future__ import annotations

import math
from collections import deque
from copy import copy
from dataclasses import dataclass, field
from functools import reduce
from heapq import heappop, heappush
from itertools import accumulate, repeat
from operator import add

import numpy as np

from .adaptation import AlmacAdapter, AlzcAdapter, txop_packets
from .config import MAX_LAMBDA_PPS
from .phy import PhyParams, SlotKind
from .protocols import Dcf, Lbeb, ReadAhead

_IDLE = int(SlotKind.IDLE)
_SUCCESS = int(SlotKind.SUCCESS)
_COLLISION = int(SlotKind.COLLISION)
_ERROR = int(SlotKind.ERROR)

#: DCF stations alone have no window end; their runs are played in segments
#: of at most this many slots, enough to spread a segment's setup thin and
#: few enough that a time-bounded run trims little of its last one.
_MAX_SEGMENT = 1 << 12

#: The most windows a copied unit spans: alzc's (b, 2b, 2b) cycle takes three.
_MAX_UNIT = 8

#: Copies check whether the adapters settled only if this many units fit.
_SETTLE_UNITS = 8


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

    def repeat(self, columns: tuple[list, list, list, list], count: int) -> None:
        """Append ``count`` slots of the slots whose kinds, durations,
        transmitters and packets are ``columns``, laid end to end."""
        times, rest = divmod(count, len(columns[0]))
        for column, slots in zip((self.kinds, self.durations, self.tx_station, self.packets),
                                 columns):
            column.extend(slots * times)
            if rest:
                column.extend(slots[:rest])


#: One schedule of one station: (station, schedule_index, chosen_slot,
#: outcome), the outcome "success" or "failure".
Event = tuple[int, int, int, str]


class Station:
    """A transmitter: protocol state and traffic queue.

    A DCF station next transmits ``Dcf.counter + 1`` slots after its last
    transmission.  A schedule station's current window starts at slot
    ``window_start`` and it transmits in slot ``tx_slot`` of the run; with
    an adapter each transmission carries ``txop_m = txop_packets(window_len,
    adapter.base_len)`` packets.  The committed length is
    ``protocol.schedule_len`` and ``in_probe`` marks a half-length probe
    window; the adapter holds neither.  ``reported_success`` is True while
    the last outcome reported to the protocol was a success and no resize
    came after it: by the ``on_schedule_end`` contract another success
    report would change nothing, so the simulator skips it.
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
        # a saturated station's stream feeds only its protocol's draws: L-BEB
        # slots and DCF counters are read ahead (``ReadAhead``)
        self.draws: np.random.Generator | ReadAhead = rng
        if saturated and self.is_dcf:
            self.draws = ReadAhead(rng, 0, 1 << 32)
        elif saturated and type(protocol) is Lbeb and adapter is None:
            self.draws = ReadAhead(rng, 1, protocol.schedule_len + 1)
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

    def start_window(self, start: int, length: int, probe: bool) -> None:
        """Start a window of ``length`` slots at slot ``start``, as the
        adapter planned it, a probe if ``probe``: a committed length change
        resizes the protocol, whose next success is then reported again."""
        proto = self.protocol
        if not probe and length != proto.schedule_len:
            proto.resize(length)
            self.reported_success = False
        if length != self.window_len:
            self.window_len = length
            self.txop_m = txop_packets(length, self.adapter.base_len)
        self.in_probe = probe
        self.tx_slot = start + (proto.slot - 1) % length

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
    """Plays stations through MAC slots on one shared channel."""

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
        # the channel's error numbers, read ahead
        self._errors = ReadAhead(channel_rng) if error_rate > 0.0 else None
        self.trace = Trace()
        self.events: list[Event] = []
        self.clock_us = 0.0
        self.slot_index = 0
        self._tx_due: dict[int, list[Station]] = {}  # DCF stations only
        self._waiting: list[Station] = []
        self._success_us: dict[int, float] = {}
        self._t_collision = phy.t_collision
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

    def _plan(self, st: Station, start: int) -> int | None:
        """Book a DCF station's next transmission, counted from ``start``.
        Returns the slot booked if no station was booked there before."""
        slot = start + st.protocol.counter
        due = self._tx_due.setdefault(slot, [])
        due.append(st)
        return slot if len(due) == 1 else None

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
        on, and returns False, as an unwatched one.  After a window end it
        may jump ahead (module docstring).
        """
        kinds = self.trace.kinds
        sched = [st for st in self.stations if not st.is_dcf]
        # saturated stations pull no arrivals, so no decision reads the clock
        saturated = all([st.saturated for st in self.stations])
        watch = None
        if watch_n is not None and watch_n <= watch_len:
            watch = _Watch(kinds, self.slot_index, watch_n, watch_len, watch_from)
        s, clock = self.slot_index, self.clock_us
        # starts of the last windows that every station, none a DCF one,
        # closed together back to back, and the slot after them
        grid: list[int] = []
        closes_together = len(sched) == len(self.stations)
        while True:
            end, due = self._segment(sched, s)
            stop = end + 1 if end < s + _MAX_SEGMENT else s + _MAX_SEGMENT
            if until_slot < stop:
                stop = max(math.ceil(until_slot), s + 1)
            s, before, clock, hit = self._play_segment(
                s, stop, due, clock, until_us, watch, saturated)
            if s > end:  # a window end pulls arrivals as of its last slot
                closed_from = self._close_windows(sched, end, before)
                if grid and grid[-1] == closed_from:
                    grid.append(s)
                    if len(grid) > 4 * _MAX_UNIT:
                        del grid[: -_MAX_UNIT - 1]
                else:
                    grid = [closed_from, s] if closed_from is not None and closes_together else []
            if hit or s >= until_slot or clock >= until_us:
                break
            # a watched run copies windows only after one free of collisions
            # and errors, and jumps quiet windows only while they cannot hold
            # the successes the watch needs
            if s > end and grid:
                t = s
                if not saturated:
                    if watch is None or s > watch.last():
                        t, clock = self._quiet_windows(s, clock, until_slot, until_us)
                elif watch is None or watch.ready < grid[-2] + watch_len:
                    unit = self._unit(s, grid, watch)
                    if unit is not None:
                        t, clock = self._repeat_windows(s, clock, grid, unit, until_slot,
                                                        until_us)
                        if watch is not None and t > s:  # copies may hold successes
                            watch = _Watch(kinds, t, watch_n, watch_len, watch_from)
                if t > s:
                    s = t
                    if s >= until_slot:
                        break

        self.slot_index = s
        self.clock_us = clock
        for st in self.stations:
            if st.next_arrival_us <= clock:
                st.pull_arrivals(clock)
            if st.draws is not st.rng:
                st.draws.rewind()
        if self._errors is not None:
            self._errors.rewind()
        return hit

    def _play_segment(
        self, s: int, stop: int, due: dict[int, list[Station]], clock: float, until_us: float,
        watch: _Watch | None, saturated: bool,
    ) -> tuple[int, float, float, bool]:
        """Play slots ``s`` to ``stop - 1``, visiting only decision slots: the
        schedule transmissions ``due`` by slot, the DCF bookings, made before
        or during the play, and wake-ups of waiting DCF stations.  The clock
        adds the slots up to each decision slot or, when every station is
        ``saturated`` and no time bound is set, once at the end.  The play
        stops after the slot where the ``watch`` fires or the clock reaches
        ``until_us``, and no later slot is filled or draws.  Returns the slot
        after the last one played, the clock at the start of that last slot
        and after it, and whether the watch fired."""
        phy, success_us = self.phy, self._success_us
        sigma, t_coll = phy.sigma_us, self._t_collision
        error_rate, errors = self.error_rate, self._errors
        tx_due, waiting, plan = self._tx_due, self._waiting, self._plan
        tr = self.trace
        kinds, durations, tx_station, packets = tr.kinds, tr.durations, tr.tx_station, tr.packets
        colliders = tr.colliders
        n = stop - s  # the segment's slots, idle until a decision slot fills one
        kinds.extend([_IDLE] * n)
        durations.extend([sigma] * n)
        tx_station.extend([-1] * n)
        packets.extend([0] * n)
        lazy = saturated and until_us == math.inf  # the clock is added up at the end
        plain = lazy and watch is None  # nothing to check after a slot
        # schedule transmissions in slot order, up to the end of the segment
        # (an empty group sorts first among equal slots)
        busy = sorted([*due.items(), (stop, [])])
        ready, last, length = math.inf, -math.inf, 0  # the watch fires in ready..last
        if watch is not None:
            ready, last, length, want, recent = (
                watch.ready, watch.last(), watch.length, watch.want, watch.recent)
        busy = iter(busy)
        t_sched, group = next(busy)
        booked = sorted(tx_due)  # a heap of the DCF bookings' slots
        t_dcf = booked[0] if booked else math.inf
        # ``clock`` is the start of slot ``at``; right after a decision slot
        # is added, ``before`` is the start of slot ``at - 1``
        at, pos, hit, before = s, s, False, clock
        while True:
            u = t_sched if t_sched < t_dcf else t_dcf
            if u > pos:  # idle up to u, unless a waiting station wakes first
                if not plain:
                    if not lazy:
                        after = math.inf if waiting else reduce(add, repeat(sigma, u - pos), clock)
                        if after >= until_us:  # a wake-up or the time bound may come first
                            u, after = _idle_walk(pos, u, clock, waiting, until_us, sigma)
                    if ready < u and pos <= last:
                        last = watch.last()
                        h = watch.first_hit(kinds, max(pos, ready), min(u, last + 1))
                        if h is not None:
                            end, hit = h + 1, True
                            break
                    if not lazy:
                        if after >= until_us and u > pos:
                            end = u
                            break
                        if u < stop:  # the last span is added up on return
                            clock, at = after, u
                pos = u
            if pos == stop:
                end = stop
                break
            if u == t_sched:
                transmitters = group
                t_sched, group = next(busy)
            else:  # a DCF booking or a waiting station's wake-up
                transmitters = []
            dcf = u == t_dcf
            if dcf:  # booked DCF stations first
                heappop(booked)
                transmitters = tx_due.pop(u) + transmitters
            if not saturated:
                listed, transmitters = transmitters, []
                if waiting:
                    transmitters = [st for st in waiting
                                    if st.queue or st.next_arrival_us <= clock]
                    if transmitters:
                        dcf = True  # the woken transmit
                        for st in transmitters:
                            if st.next_arrival_us <= clock:
                                st.pull_arrivals(clock)
                        waiting[:] = [st for st in waiting if not st.queue]
                for st in listed:
                    if st.next_arrival_us <= clock:
                        st.pull_arrivals(clock)
                    if st.saturated or st.queue:
                        transmitters.append(st)
                    elif st.is_dcf:
                        waiting.append(st)
            if len(transmitters) == 1:
                st = transmitters[0]
                tx_station[u] = st.sid
                if error_rate > 0.0 and errors.random() < error_rate:
                    kinds[u], durations[u] = _ERROR, t_coll
                else:
                    m = st.txop_m if saturated else st.packets_ready()
                    duration = success_us.get(m)
                    if duration is None:
                        duration = success_us[m] = phy.success_duration(m)
                    kinds[u], durations[u], packets[u] = _SUCCESS, duration, m
                    if saturated:
                        st.delivered += m
                    else:
                        st.deliver(m, clock + duration)
            elif transmitters:
                kinds[u], durations[u] = _COLLISION, t_coll
                if dcf:
                    transmitters.sort(key=_position)
                colliders[u] = tuple([st.sid for st in transmitters])
            else:
                kinds[u] = _IDLE  # nobody had anything to send
            pos = u + 1
            if dcf:
                success = kinds[u] == _SUCCESS
                for st in transmitters:
                    if st.is_dcf:
                        if st.protocol.on_transmission(success, st.draws):
                            st.drop_head(clock + durations[u])
                        b = plan(st, pos)
                        if b is not None:
                            heappush(booked, b)
                t_dcf = booked[0] if booked else math.inf
            if plain:
                continue
            if not lazy:
                before, clock, at = clock, clock + durations[u], pos
            if kinds[u] >= _COLLISION:
                if ready < u + length:
                    ready = u + length
            elif watch is not None:
                if kinds[u] == _SUCCESS:
                    recent.append(u)
                    last = math.inf  # recounted where the watch could fire
                if ready <= u <= last:
                    last = watch.last()
                    if u <= last and kinds[pos - length : pos].count(_SUCCESS) == want:
                        end, hit = pos, True
                        break
            if clock >= until_us:
                end = pos
                break
        if end < stop:
            for column in (kinds, durations, tx_station, packets):
                del column[end:]
        if watch is not None:
            watch.ready = ready
        if at < end:
            before = reduce(add, durations[at : end - 1], clock)
            clock = before + durations[end - 1]
        return end, before, clock, hit

    def _segment(self, sched: list[Station], s: int) -> tuple[float, dict[int, list[Station]]]:
        """The segment from slot ``s`` up to the first window end among
        ``sched``: its last slot, and the pending transmissions of ``sched``
        by slot, in position order."""
        end = min([st.window_start + st.window_len for st in sched], default=math.inf) - 1
        due: dict[int, list[Station]] = {}
        for st in sched:
            if st.tx_slot >= s:
                due.setdefault(st.tx_slot, []).append(st)
        return end, due

    def _close_windows(self, sched: list[Station], s: int, before_us: float) -> int | None:
        """Close the windows of ``sched`` that end at slot ``s``, in position
        order, each read back from the trace: log the slot held and the
        outcome, report it to the protocol (module docstring), let the
        adapter plan the next window, and start that at slot ``s + 1``; a
        station left unreported keeps its slot.  The idle positions are
        listed only when an adapter counts them or the protocol sets
        ``reads_idle_positions``.  A probe holds ``proto.slot`` wrapped into
        its shorter window.  Returns the start the windows share, or None
        when they started at different slots or some station closed none."""
        tr = self.trace
        kinds, tx_station = tr.kinds, tr.tx_station
        add_event = self.events.append
        after = s + 1
        shared = None  # the start of every window closed so far; -1 once two differ
        views: dict[int, tuple[list[int], bool]] = {}  # idle positions, collision
        for st in sched:
            start, length = st.window_start, st.window_len
            if start + length != after:
                shared = -1
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
                proto.on_schedule_end(success, idle, st.draws)
                st.reported_success = success
            if adapter is None:
                st.tx_slot = after + (proto.slot - 1) % length
            else:
                st.start_window(after, *adapter.plan_next(
                    proto.schedule_len, st.in_probe, len(idle), saw_collision, success))
        return None if shared == -1 else shared

    def _quiet_windows(
        self, s: int, clock: float, until_slot: float, until_us: float
    ) -> tuple[int, float]:
        """Append the idle windows that every station plays from slot ``s``,
        if all of them are unsaturated schedule stations with one shared
        length that hold no packet (module docstring), up to the one whose
        last slot starts at or after the earliest next arrival, and return
        the slot after them and the clock there.  Each station's protocol
        hears the first success, unless its last report was a success
        already; each adapter plans after every window, and a plan that
        differs from the window just appended starts the next window after
        it."""
        stations = self.stations
        length = stations[0].window_len
        arrival = math.inf
        for st in stations:
            if (st.saturated or st.queue or st.in_probe or st.window_start != s
                    or st.window_len != length):
                return s, clock
            arrival = min(arrival, st.next_arrival_us)
        sigma, same = self.phy.sigma_us, (length, False)
        adapters = [st.adapter for st in stations if st.adapter is not None]
        # windows that end by ``until_slot``, before ``until_us``, and start
        # their last slot before the arrival, the clock added slot by slot;
        # the first after which an adapter plans another window is the last
        kept = (until_slot - s) // length if until_slot < math.inf else math.inf
        head = [sigma] * (length - 1)
        k, plans = 0, []
        while k < kept and plans.count(same) == len(plans):
            start = reduce(add, head, clock)
            if start >= arrival or start + sigma >= until_us:
                break
            clock = start + sigma
            k += 1
            plans = [adapter.plan_next(length, False, length, False, True)
                     for adapter in adapters]
        if k == 0:
            return s, clock
        self.trace.repeat(([_IDLE] * length, [sigma] * length, [-1] * length, [0] * length),
                          k * length)
        held = [(st.sid, st.schedule_index, st.tx_slot - s + 1, "success") for st in stations]
        self.events.extend([(sid, index + j, slot, outcome)
                            for j in range(k) for sid, index, slot, outcome in held])
        shift, idle = k * length, list(range(1, length + 1))
        for st in stations:
            if not st.reported_success:
                st.protocol.on_schedule_end(True, idle, st.draws)
                st.reported_success = True
            st.schedule_index += k
            st.window_start += shift
            st.tx_slot += shift
        for st, plan in zip([st for st in stations if st.adapter is not None], plans):
            if plan != same:
                st.start_window(s + shift, *plan)
        return s + shift, clock

    def _unit(self, s: int, grid: list[int], watch: _Watch | None) -> tuple | None:
        """What the windows from slot ``s`` may copy, if every station is a
        saturated schedule station and their slots are known in advance
        (module docstring), or None: the starts of the unit's windows and
        ``s``, each station's slot in each window, and the unit's kinds.

        The unit is the last windows of ``grid``, the starts of windows
        every station closed together up to ``s``: the fewest whose first
        has the length that starts at ``s``, if each station holds the slot
        it held there.  In the unit no station moves, except where a resize
        wraps its slot, so each copy holds the slots of its source; with
        one window, the ``on_schedule_end`` contract keeps every slot.  A
        watched run copies the unit only if no ``watch.length`` slots of it
        laid twice end to end fire the watch.
        """
        stations, kinds = self.stations, self.trace.kinds
        length = stations[0].window_len
        m = 1
        while grid[-m] - grid[-m - 1] != length:
            m += 1
            if m == len(grid) or m > _MAX_UNIT:
                return None
        bounds = grid[-m - 1 :]
        unit = kinds[bounds[0] : s]
        if _ERROR in unit:
            return None
        collided = _COLLISION in unit
        if collided:
            for a, b in zip(bounds, bounds[1:]):
                window = kinds[a:b]
                if _COLLISION in window and _IDLE in window:
                    return None
        # every station closed a window at s - 1, none a DCF station (``grid``)
        for st in stations:
            if (st.in_probe or st.window_len != length
                    or collided and not st.protocol.reads_idle_positions):
                return None
        slots = [[st.tx_slot - s + 1 for st in stations]]
        if m > 1:
            n = len(stations)
            logged = self.events[len(self.events) - m * n :]
            slots += [[slot for _, _, slot, _ in logged[j * n : (j + 1) * n]] for j in range(m)]
            if slots.pop(1) != slots[0]:
                return None
        if watch is not None and (watch.length > s - bounds[0] or watch.fires_in(unit)):
            return None
        return bounds, slots, unit

    def _repeat_windows(
        self, s: int, clock: float, grid: list[int], unit: tuple, until_slot: float,
        until_us: float,
    ) -> tuple[int, float]:
        """Append copies of the windows of ``unit`` (``_unit``) from slot
        ``s`` on, return the slot after them and the clock there, and add
        the starts of the windows after them to ``grid``.

        On an error channel the copies end before the first whose lone
        transmissions draw an error.  Each window appended is closed as
        ``_close_windows`` would close it.  A station logs its source's slot
        and outcome.  A success is reported in the first window after a
        resize, when the last report was no success; later ones change
        nothing by the ``on_schedule_end`` contract.  A collider is reported
        nothing: the window has no idle slot, so its rule keeps the slot
        and draws nothing.  Each adapter plans after every window, and the
        first plan that differs from the source's next window starts the
        window after the last copy.  If every adapter ends the first copy
        of the unit in the state it began it in, the copies to come repeat
        that one, and whole ones are appended without a plan.
        """
        bounds, slots, kinds = unit
        stations, tr = self.stations, self.trace
        lo, m, n = bounds[0], len(slots), len(stations)
        period = s - lo
        durations, packets = tr.durations[lo:s], tr.packets[lo:s]
        errors, error_rate = self._errors, self.error_rate
        if errors is not None:  # often the first copy would draw an error already
            lone = kinds[: bounds[1] - lo].count(_SUCCESS)
            if lone and min(errors.peek(lone)) < error_rate:
                return s, clock
        adapters = [st.adapter for st in stations if st.adapter is not None]
        steps = []  # what a copy of each window of the unit needs
        lone_unit = 0
        for j, held in enumerate(slots):
            a, size = bounds[j] - lo, bounds[j + 1] - bounds[j]
            window = kinds[a : a + size]
            idle = [i + 1 for i, kind in enumerate(window) if kind == _IDLE]
            collided = _COLLISION in window
            ok = [window[slot - 1] != _COLLISION for slot in held] if collided else [True] * n
            lone = window.count(_SUCCESS) if errors is not None else 0
            lone_unit += lone
            steps.append((
                size, durations[a : a + size - 1], durations[a + size - 1], lone,
                idle, len(idle), collided, ok,
                [(st.adapter, won) for st, won in zip(stations, ok) if st.adapter is not None]
                if adapters else (),
                # the plan that started the next source window, and whether
                # a resize starts this one
                (bounds[(j + 1) % m + 1] - bounds[(j + 1) % m], False),
                bounds[j] - bounds[j - 1] != size if j else m > 1,
            ))
        # the adapters' states are compared only where enough whole units fit
        # to repay the copies of them
        settle = bool(adapters) and _SETTLE_UNITS <= min(
            (until_slot - s) / period, (until_us - clock) / sum(durations))
        # windows that end by ``until_slot`` and before ``until_us``, the
        # clock added slot by slot
        k, pos, began = 0, s, None
        size, head, last, lone, idle, n_idle, collided, ok, pairs, after, resized = steps[0]
        while pos + size <= until_slot:
            start = reduce(add, head, clock)
            if start + last >= until_us:
                break
            if lone:
                if min(errors.peek(lone)) < error_rate:
                    break
                errors.take(lone)
            clock, pos, k = start + last, pos + size, k + 1
            if resized or k == 1:  # the first success since a resize is reported
                if k == 1 and settle:  # the adapters as they begin the first copy
                    began = [copy(adapter) for adapter in adapters]
                for st, won in zip(stations, ok):
                    if won and not st.reported_success:
                        st.protocol.on_schedule_end(True, idle, st.draws)
                        st.reported_success = True
            plans = [adapter.plan_next(size, False, n_idle, collided, won)
                     for adapter, won in pairs]
            changed = plans.count(after) < len(plans)
            if changed or after[0] != size:
                for st, plan in zip([st for st in stations if st.adapter is not None], plans):
                    st.window_start = pos
                    st.start_window(pos, *plan)
                if changed:
                    break
            if m > 1:
                size, head, last, lone, idle, n_idle, collided, ok, pairs, after, resized = (
                    steps[k % m])
            if k == m and (not adapters or settle and began == adapters):
                # the copies to come repeat this one: whole units, with no plan
                unit_head, unit_last = durations[:-1], durations[-1]
                while pos + period <= until_slot:
                    start = reduce(add, unit_head, clock)
                    if start + unit_last >= until_us:
                        break
                    if lone_unit:
                        if min(errors.peek(lone_unit)) < error_rate:
                            break
                        errors.take(lone_unit)
                    clock, pos, k = start + unit_last, pos + period, k + m
                if m == 1:  # the next window is a whole unit too
                    break
        if k == 0:
            return s, clock
        tr.repeat((kinds, durations, tr.tx_station[lo:s], packets), pos - s)
        if _COLLISION in kinds:
            source = [(u, tr.colliders[lo + u]) for u, kind in enumerate(kinds)
                      if kind == _COLLISION]
            tr.colliders.update([(first + u, ids) for first in range(s, pos, period)
                                 for u, ids in source if first + u < pos])
        logged = [[(st.sid, st.schedule_index, slot, "success" if won else "failure")
                   for st, slot, won in zip(stations, held, step[7])]
                  for held, step in zip(slots, steps)]
        self.events.extend([(sid, index + w, slot, outcome) for w in range(k)
                            for sid, index, slot, outcome in logged[w % m]])
        # the packets each station delivered in the unit's windows
        if m == 1:
            grid.extend(range(s + period, pos + 1, period))
            totals = [k * packets[slot - 1] for slot in slots[0]]
        else:
            grid.extend([first + end - lo for first in range(s, pos, period)
                         for end in bounds[1:] if first + end - lo <= pos])
            units, rest = divmod(k, m)
            gains = list(zip(*[[packets[a - lo + slot - 1] for slot in held]
                               for a, held in zip(bounds, slots)]))
            totals = [units * sum(got) + sum(got[:rest]) for got in gains]
        for st, total in zip(stations, totals):
            st.delivered += total
            st.schedule_index += k
            st.tx_slot += pos - st.window_start
            st.window_start = pos
        return pos, clock


def _idle_walk(
    pos: int, t: int, clock: float, waiting: list[Station], until_us: float, sigma: float
) -> tuple[int, float]:
    """Add the idle slots from ``pos`` on to ``clock``, one at a time: those
    before slot ``t`` and before the first slot whose start reaches the
    earliest arrival of a ``waiting`` station (``pos`` if one holds a
    packet), up to and with the first whose end reaches ``until_us``.
    Returns the slot after them and the clock there."""
    wake = math.inf
    if waiting:
        wake = (-math.inf if any([st.queue for st in waiting])
                else min([st.next_arrival_us for st in waiting]))
    # add at once the slots that surely end before both, then walk on
    limit, k = min(wake, until_us), t - pos
    if limit < math.inf:
        k = min(k, max(int((limit - clock) / sigma) - 2, 0) if limit > clock else 0)
    u, after = pos + k, reduce(add, repeat(sigma, k), clock)
    if after >= limit:
        u, after = pos, clock
    while u < t and after < wake:
        after += sigma
        u += 1
        if after >= until_us:
            break
    return u, after


class _Watch:
    """A live watch.  It fires after the first slot whose ``length`` slots
    up to it, all at or after ``start``, hold exactly ``want`` successes and
    no collision or error.  ``ready`` is the first slot after which it could
    fire, the ``length`` slots up to it free of collisions and errors, and
    ``recent`` holds the last ``want`` success slots."""

    __slots__ = ("want", "length", "ready", "recent")

    def __init__(self, kinds: list[int], s: int, want: int, length: int, start: int):
        self.want, self.length = want, length
        bad = [u for u in range(max(s - length, 0), s) if kinds[u] >= _COLLISION]
        self.ready = max(bad[-1] if bad else s - length - 1, start - 1) + length
        lo = max(start, s - length)
        self.recent = deque([u for u in range(lo, s) if kinds[u] == _SUCCESS], maxlen=want)

    def last(self) -> float:
        """The last slot whose ``length`` slots up to it can hold ``want``
        successes while the slots after the last success are idle."""
        if not self.want:
            return math.inf
        return self.recent[0] + self.length - 1 if len(self.recent) == self.want else -math.inf

    def fires_in(self, unit: list[int]) -> bool:
        """Whether some ``length`` slots of the kinds ``unit`` laid twice
        end to end hold exactly ``want`` successes and no collision or
        error: the spans that copies of ``unit`` after itself can make, when
        ``length <= len(unit)``."""
        twice, length = unit + unit, self.length
        good = list(accumulate([k == _SUCCESS for k in twice], initial=0))
        bad = list(accumulate([k >= _COLLISION for k in twice], initial=0))
        return any([good[u] - good[u - length] == self.want and bad[u] == bad[u - length]
                    for u in range(len(unit) + 1, len(twice) + 1)])

    def first_hit(self, kinds: list[int], lo: int, hi: int) -> int | None:
        """The first slot from ``lo`` to ``hi - 1``, all idle, whose
        ``length`` slots up to it hold exactly ``want`` successes, or None.
        Over idle slots the count only falls, by one where a success leaves."""
        want, length = self.want, self.length
        good = kinds[lo + 1 - length : lo + 1].count(_SUCCESS)
        if good < want:
            return None
        u = p = lo
        if good > want:  # the first ``good - want`` successes must leave
            p -= length
            for _ in range(good - want):
                p = kinds.index(_SUCCESS, p + 1, lo + 1)
            u = p + length
        return u if u < hi else None


def _position(st: Station) -> int:
    return st.position
