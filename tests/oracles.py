"""Independent readings and reference runs that the tests check the simulators against."""

from __future__ import annotations

from math import comb, factorial, inf, perm

import numpy as np

from macsim import markov
from macsim.engine import Event, Simulator, Trace
from macsim.markov import ChainModel
from macsim.phy import PhyParams, SlotKind
from macsim.protocols import Lzc, ScheduleProtocol, Zc
from macsim.schedulesim import DEFAULT_SCHEDULE_CAP


def transmitters_of(trace: Trace, slot_index: int) -> tuple[int, ...]:
    """Station ids that transmitted in a slot of the trace."""
    kind = trace.kinds[slot_index]
    if kind in (SlotKind.SUCCESS, SlotKind.ERROR):
        return (trace.tx_station[slot_index],)
    if kind == SlotKind.COLLISION:
        return trace.colliders[slot_index]
    return ()


def step_slot(sim: Simulator) -> None:
    """Play slot ``sim.slot_index`` on its own: the stepping reference for
    ``Simulator.run``.

    The due stations are the DCF stations booked there in ``sim._tx_due``,
    then the schedule stations whose ``tx_slot`` it is, in position order.
    Waiting DCF stations that hold a packet or have one arrive by the slot's
    start transmit first; a due station pulls its arrivals as of the slot's
    start and transmits if it holds a packet, and a DCF station that does
    not starts waiting.  A lone transmitter draws the channel's error
    number; two or more collide, listed in position order.  Then DCF
    transmitters update and are booked again, the windows that end at the
    slot are closed with the clock at its start, and every station pulls
    its arrivals as of its end, as after any run.  Every number is drawn
    from its generator when it is needed, one call per number.
    """
    s, clock = sim.slot_index, sim.clock_us
    phy, tr, waiting = sim.phy, sim.trace, sim._waiting
    sched = [st for st in sim.stations if not st.is_dcf]
    due = sim._tx_due.pop(s, []) + [st for st in sched if st.tx_slot == s]
    transmitters = []
    if waiting:
        transmitters = [st for st in waiting if st.queue or st.next_arrival_us <= clock]
        for st in transmitters:
            if st.next_arrival_us <= clock:
                st.pull_arrivals(clock)
        if transmitters:
            waiting[:] = [st for st in waiting if not st.queue]
    for st in due:
        if st.next_arrival_us <= clock:
            st.pull_arrivals(clock)
        if st.saturated or st.queue:
            transmitters.append(st)
        elif st.is_dcf:
            waiting.append(st)
    kind, duration, sid, packets = SlotKind.IDLE, phy.sigma_us, -1, 0
    if len(transmitters) == 1:
        sid = transmitters[0].sid
        if sim.error_rate > 0.0 and sim.channel_rng.random() < sim.error_rate:
            kind, duration = SlotKind.ERROR, phy.t_collision
        else:
            kind, packets = SlotKind.SUCCESS, transmitters[0].packets_ready()
            duration = phy.success_duration(packets)
    elif transmitters:
        kind, duration = SlotKind.COLLISION, phy.t_collision
        transmitters.sort(key=lambda st: st.position)
        tr.colliders[s] = tuple(st.sid for st in transmitters)
    after = clock + duration
    tr.kinds.append(int(kind))
    tr.durations.append(duration)
    tr.tx_station.append(sid)
    tr.packets.append(packets)
    if packets:
        transmitters[0].deliver(packets, after)
    if kind != SlotKind.IDLE:
        for st in transmitters:
            if st.is_dcf:
                if st.protocol.on_transmission(kind == SlotKind.SUCCESS, st.rng):
                    st.drop_head(after)
                sim._plan(st, s + 1)
    sim.slot_index, sim.clock_us = s + 1, after
    for st in sched:  # the protocols draw from the generators, not ahead
        st.draws = st.rng
    sim._close_windows(sched, s, clock)
    for st in sim.stations:
        if st.next_arrival_us <= after:
            st.pull_arrivals(after)


def watch_fired(trace: Trace, s: int, want: int, length: int, start: int = 0) -> bool:
    """Whether the ``length`` slots before ``s``, all at or after ``start``,
    hold exactly ``want`` successes and no collision or error: the watch of
    ``Simulator.run``, read off the trace."""
    window = trace.kinds[s - length : s]
    return (s - start >= length and window.count(SlotKind.SUCCESS) == want
            and max(window, default=SlotKind.IDLE) <= SlotKind.SUCCESS)


def step_run(
    sim: Simulator,
    until_slot: float = inf,
    until_us: float = inf,
    watch_n: int | None = None,
    watch_len: int = 0,
    watch_from: int = 0,
) -> bool:
    """``sim.run`` with the same arguments, played one ``step_slot`` at a
    time: at least one slot, then on until a bound or, with a watch that
    ``watch_len`` slots can hold, until ``watch_fired``, which returns True."""
    watching = watch_n is not None and watch_n <= watch_len
    while True:
        step_slot(sim)
        if watching and watch_fired(sim.trace, sim.slot_index, watch_n, watch_len, watch_from):
            return True
        if sim.slot_index >= until_slot or sim.clock_us >= until_us:
            return False


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


def play_every_station(
    protocols: list[ScheduleProtocol],
    rngs: list[np.random.Generator],
    cap: int,
    phy: PhyParams | None = None,
) -> tuple[int | None, float | None, list[int]]:
    """Reference schedule-synchronous run that updates every station every schedule.

    Returns the schedule count through the first collision-free schedule
    (None at the cap), the seconds before it (None without ``phy`` or at the
    cap) and the station ids of the successful slots before it, in slot
    order.  Oracle for ``schedulesim.converge`` and
    ``success_sequence_until_converged``.
    """
    c = protocols[0].schedule_len
    slots = [p.slot for p in protocols]
    seconds, seq = 0.0, []
    for k in range(1, cap + 1):
        occupancy = [0] * (c + 1)
        for s in slots:
            occupancy[s] += 1
        if all(occupancy[s] == 1 for s in slots):
            return k, None if phy is None else seconds, seq
        if phy is not None:
            seconds += _schedule_seconds(occupancy, phy)
        seq.extend(sid for _, sid in sorted(
            (s, i + 1) for i, s in enumerate(slots) if occupancy[s] == 1))
        idle = [j for j in range(1, c + 1) if occupancy[j] == 0]
        for i, proto in enumerate(protocols):
            slots[i] = proto.on_schedule_end(occupancy[slots[i]] == 1, idle, rngs[i])
    return None, None, seq


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
    sort out a full schedule, so replications run as one array computation
    on their own generator.  Independent oracle, in law, for
    ``schedulesim._play``'s block redraws in an all-L-BEB run.

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


def sample_slot(p: np.ndarray, rng: np.random.Generator) -> int:
    """The ndarray form of ``protocols.sample_slot``: ``cumsum`` and ``searchsorted``.

    Oracle for the float-list rule, which must draw the same slots.
    """
    cdf = np.cumsum(p)
    idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(idx, len(p) - 1) + 1


def updated_probabilities(
    p: np.ndarray, slot: int, beta: float, success: bool
) -> np.ndarray:
    """The ndarray form of ``protocols.updated_probabilities`` (in-place ``*=``, ``+=``).

    Oracle for the float-list rule, which must round every entry the same way.
    """
    c = len(p)
    out = p.astype(float, copy=True)
    if success:
        out[:] = 0.0
        out[slot - 1] = 1.0
        return out
    if c == 1:
        return out
    share = (1.0 - beta) / (c - 1)
    out *= beta
    out += share
    out[slot - 1] -= share
    return out


def backoff_from_slots(current_slot: int, next_slot: int, schedule_len: int) -> int:
    """Backoff counter, in MAC slots, between transmissions in consecutive schedules.

    Equals ``schedule_len`` exactly when the station keeps its slot.
    """
    c = schedule_len
    if not 1 <= current_slot <= c:
        raise ValueError(f"current_slot {current_slot} outside 1..{c}")
    if not 1 <= next_slot <= c:
        raise ValueError(f"next_slot {next_slot} outside 1..{c}")
    return c - current_slot + next_slot


def zc_failure_distribution(proto: Zc, idle_positions: list[int]) -> dict[int, float]:
    """Exact next-slot distribution of a ZC station after a failure."""
    n_idle = len(idle_positions)
    dist = {proto.slot: 1.0 / (n_idle + 1)}
    for pos in idle_positions:
        dist[int(pos)] = dist.get(int(pos), 0.0) + 1.0 / (n_idle + 1)
    return dist


def lzc_failure_distribution(proto: Lzc, idle_positions: list[int]) -> dict[int, float]:
    """Exact next-slot distribution of an L-ZC station after a failure."""
    n_idle = len(idle_positions)
    if n_idle == 0:
        return {proto.slot: 1.0}
    dist = {proto.slot: proto.gamma}
    for pos in idle_positions:
        dist[int(pos)] = dist.get(int(pos), 0.0) + (1.0 - proto.gamma) / n_idle
    return dist


def chain_block(chain: ChainModel, n_colliding: int) -> np.ndarray:
    """The chain's diagonal block of states with ``n_colliding`` colliding stations."""
    lo, hi = chain.block_ranges[n_colliding]
    return chain.pi[lo:hi, lo:hi]


def second_eigenvalue_every_block(chain: ChainModel) -> tuple[float, int]:
    """``markov.second_eigenvalue`` with every diagonal block's root computed,
    visited in ``block_ranges`` order: the first block with the largest root
    wins, and a chain without blocks gives ``(0.0, 0)``."""
    best = 0.0
    best_k = 0
    for k, (lo, hi) in chain.block_ranges.items():
        lam = markov._dominant_eigenvalue(chain.pi[lo:hi, lo:hi])
        if lam > best:
            best, best_k = lam, k
    return best, best_k


def stay_outcomes(parts: tuple[int, ...]) -> tuple:
    """How many occupants stay per collision slot, as tuples
    ``(kept_parts, stay_total, weight)`` in first-seen order.

    ``kept_parts`` are the slots still holding >= 2 stations, ``stay_total``
    counts every staying station (including ones left alone, who become
    successful), and ``weight`` is the product of binomial coefficients for
    choosing who stays.
    """
    acc: dict[tuple[tuple[int, ...], int], int] = {((), 0): 1}
    for occupancy in parts:
        nxt: dict[tuple[tuple[int, ...], int], int] = {}
        for (kept, stay), w in acc.items():
            for stays_here in range(occupancy + 1):
                kept2 = tuple(sorted(kept + (stays_here,))) if stays_here >= 2 else kept
                key = (kept2, stay + stays_here)
                nxt[key] = nxt.get(key, 0) + w * comb(occupancy, stays_here)
        acc = nxt
    return tuple((kept, stay, w) for (kept, stay), w in acc.items())


def jump_outcomes(movers: int, n_idle: int) -> tuple:
    """Placements of ``movers`` labelled stations on ``n_idle`` empty slots,
    as tuples ``(collision_parts, ways)`` out of ``n_idle**movers``."""
    out = []
    for lam in markov._bounded_partitions(movers, n_idle):
        station_ways = factorial(movers)
        for c in lam:
            station_ways //= factorial(c)
        slot_ways = perm(n_idle, len(lam)) // markov._multiset_perms(lam)
        out.append((tuple(p for p in lam if p >= 2), station_ways * slot_ways))
    return tuple(out)


def chain_layout_by_terms(schedule_len: int, n_stations: int) -> markov._ChainLayout:
    """``markov._chain_layout`` one term at a time, each next state a sorted
    tuple and each row's entries summed in a dict in the loop's order.

    Oracle for the code-space layout, which must equal it byte for byte.
    """
    groups = [g for g in (markov.collision_states_for(k) for k in range(n_stations, 1, -1)) if g]
    states = tuple(s for g in groups for s in g)
    index = {s.parts: i + 1 for i, s in enumerate(states)}  # row 0 is the start
    size = len(states) + 2
    index[()] = size - 1
    block_ranges = {}
    offset = 1
    for g in groups:
        block_ranges[g[0].colliding_stations] = (offset, offset + len(g))
        offset += len(g)
    colliding = np.zeros(size, dtype=np.int64)
    coef = np.zeros((n_stations + 1, size, size))
    starts = schedule_len**n_stations
    for parts, ways in jump_outcomes(n_stations, schedule_len):
        coef[0, 0, index[parts]] = ways / starts
    coef[0, -1, -1] = 1.0
    for row, state in enumerate(states, start=1):
        colliding[row] = state.colliding_stations
        n_idle = state.idle_slots(schedule_len, n_stations)
        acc: dict[tuple[int, tuple[int, ...]], float] = {}
        for kept, stay, w in stay_outcomes(state.parts):
            movers = state.colliding_stations - stay
            denom = float(n_idle) ** movers
            for jump_parts, ways in jump_outcomes(movers, n_idle):
                key = (stay, tuple(sorted(kept + jump_parts)))
                acc[key] = acc.get(key, 0.0) + w * (ways / denom)
        for (stay, nxt), c in acc.items():
            coef[stay, row, index[nxt]] = c
    return markov._ChainLayout(states, block_ranges, colliding, coef)


def lmac_bound(beta: float, schedule_len: int, n_stations: int):
    """Two-schedule convergence probability bound for the learning protocol.

    Returns ``K`` such that from any state the chance of reaching a
    collision-free schedule within two schedules is at least ``K``, plus the
    implied geometric tail ``n -> (1 - K)**n`` bounding the probability that
    convergence takes at least ``2 n`` schedules.  Very loose, but positive.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
    if schedule_len < 2:
        raise ValueError("need at least 2 slots")
    if not 1 <= n_stations <= schedule_len:
        raise ValueError("need 1 <= N <= C")
    c1 = schedule_len - 1
    k = ((1.0 - beta) / c1) ** n_stations * (beta * (1.0 - beta) / c1) ** n_stations
    if k <= 0.0:
        raise AssertionError("bound must be positive")

    def tail(n: int) -> float:
        return (1.0 - k) ** n

    return k, tail
