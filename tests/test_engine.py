"""Slot engine mechanics: resolution, observation windows, counters, traffic."""

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from macsim.adaptation import AlmacAdapter, AlzcAdapter
from macsim.config import MAX_LAMBDA_PPS, PROTOCOLS, SimConfig, derive_seed
from macsim.engine import Simulator, Station, elapsed_us
from macsim.phy import TABLE_PHY, PhyParams, SlotKind
from macsim.protocols import RETRY_LIMIT, Dcf, Lbeb, Lmac, Lzc, Zc, init_protocol
from macsim.runner import default_f_table, run_simulation
from macsim import metrics, protocols
from oracles import backoff_from_slots, step_run, transmitters_of


def rng(seed):
    return np.random.default_rng(seed)


def saturated_station(sid, proto, seed):
    return Station(sid, proto, rng(seed), saturated=True)


def pinned_lzc(schedule_len, slot, seed, gamma=0.5):
    proto = Lzc(schedule_len, gamma, rng(seed))
    proto.slot = slot
    return proto


def make_sim(stations, phy=TABLE_PHY, **kw):
    return Simulator(stations, phy, **kw)


# --- slot resolution ---------------------------------------------------------


def test_two_ready_stations_collide():
    sts = [
        Station(1, pinned_lzc(4, 1, 1), rng(11)),
        Station(2, pinned_lzc(4, 1, 2), rng(12)),
    ]
    sim = make_sim(sts)
    sim.step()
    assert sim.trace.kinds == [SlotKind.COLLISION]
    assert set(transmitters_of(sim.trace, 0)) == {1, 2}
    assert sim.trace.durations[0] == pytest.approx(TABLE_PHY.t_collision)


def test_single_ready_station_succeeds():
    sts = [Station(1, pinned_lzc(4, 1, 3), rng(13))]
    sim = make_sim(sts)
    sim.step()
    assert sim.trace.kinds == [SlotKind.SUCCESS]
    assert transmitters_of(sim.trace, 0) == (1,)
    assert sim.trace.packets == [1]
    assert sim.trace.durations[0] == pytest.approx(896.0, abs=1e-9)


def test_no_ready_station_idles():
    sts = [Station(1, pinned_lzc(4, 4, 4), rng(14))]
    sim = make_sim(sts)
    sim.step()
    assert sim.trace.kinds == [SlotKind.IDLE]
    assert sim.trace.durations == [20.0]


def test_error_rate_one_turns_success_into_error():
    sts = [Station(1, pinned_lzc(4, 1, 5), rng(15))]
    sim = make_sim(sts, error_rate=1.0, channel_rng=rng(16))
    sim.step()
    assert sim.trace.kinds == [SlotKind.ERROR]
    assert sim.trace.durations[0] == pytest.approx(TABLE_PHY.t_collision)
    assert sts[0].delivered == 0


# --- observation window ------------------------------------------------------


class RecordingProtocol:
    """Captures schedule-end callbacks for window inspection."""

    kind = "recording"
    reads_idle_positions = True

    def __init__(self, schedule_len, slot):
        self.schedule_len = schedule_len
        self.slot = slot
        self.calls = []

    def on_schedule_end(self, success, idle_positions, rng):
        self.calls.append((success, list(idle_positions)))
        return self.slot

    def resize(self, new_len):
        self.schedule_len = new_len


def drive_window(kinds, slot, saturated=False):
    """One window of a watched station while helper stations make ``kinds``.

    A success or error position gets one saturated helper holding it, a
    collision position two; errors come from a channel that fails every
    single transmission.
    """
    length = len(kinds)
    proto = RecordingProtocol(length, slot)
    st = Station(0, proto, rng(17), saturated=saturated)
    senders = {SlotKind.SUCCESS: 1, SlotKind.ERROR: 1, SlotKind.COLLISION: 2}
    helpers = []
    for pos, kind in enumerate(kinds, start=1):
        for _ in range(senders.get(kind, 0)):
            helper = RecordingProtocol(length, pos)
            helpers.append(Station(len(helpers) + 1, helper, rng(18)))
    errors = SlotKind.ERROR in kinds
    assert not (errors and SlotKind.SUCCESS in kinds)
    sim = make_sim(
        [st] + helpers, error_rate=1.0 if errors else 0.0, channel_rng=rng(19)
    )
    sim.run(until_slot=sim.slot_index + length)
    assert sim.trace.kinds == [int(k) for k in kinds]
    return proto, st


def test_window_idle_positions_and_busy_count():
    # positions 1 and 4 idle, busy elsewhere: the update sees idle set {1, 4}
    kinds = [SlotKind.IDLE, SlotKind.COLLISION, SlotKind.SUCCESS, SlotKind.IDLE]
    proto, _ = drive_window(kinds, slot=2)
    assert proto.calls == [(False, [1, 4])]


def test_window_all_busy_has_empty_idle_set():
    kinds = [SlotKind.SUCCESS, SlotKind.COLLISION, SlotKind.COLLISION]
    proto, _ = drive_window(kinds, slot=2)
    assert proto.calls == [(False, [])]


def test_virtual_observation_idle_slot_counts_as_success():
    kinds = [SlotKind.IDLE, SlotKind.IDLE, SlotKind.IDLE]
    proto, _ = drive_window(kinds, slot=2)
    assert proto.calls == [(True, [1, 2, 3])]


def test_error_slot_observed_busy():
    kinds = [SlotKind.IDLE, SlotKind.ERROR, SlotKind.IDLE]
    proto, _ = drive_window(kinds, slot=2)
    # the station's own position was busied by an errored frame: failure
    assert proto.calls == [(False, [1, 3])]


# --- counters and schedule phase ----------------------------------------------


def test_backoff_gap_between_transmissions():
    cfg = SimConfig(protocol="lmac", n=4, c=8, horizon_slots=2000, seed=21)
    result = run_simulation(cfg)
    tr = result.trace
    tx_slots: dict[int, list[int]] = {}
    for i, kind in enumerate(tr.kinds):
        for sid in transmitters_of(tr, i):
            tx_slots.setdefault(sid, []).append(i)
    chosen: dict[int, list[int]] = {}
    for sid, _, slot, _ in result.events:
        chosen.setdefault(sid, []).append(slot)
    for sid, slots in tx_slots.items():
        held = chosen[sid]
        for k in range(len(slots) - 1):
            gap = slots[k + 1] - slots[k]
            want = backoff_from_slots(held[k], held[k + 1], 8)
            assert gap == want
            assert 1 <= gap <= 15


def test_station_transmits_once_per_schedule_when_saturated():
    cfg = SimConfig(protocol="lzc", n=3, c=6, gamma=0.5, horizon_slots=600, seed=22)
    result = run_simulation(cfg)
    tr = result.trace
    for start in range(0, 600 - 6, 6):
        counts: dict[int, int] = {}
        for i in range(start, start + 6):
            for sid in transmitters_of(tr, i):
                counts[sid] = counts.get(sid, 0) + 1
        assert all(v == 1 for v in counts.values())
        assert len(counts) == 3


# --- invariants over full runs --------------------------------------------------


def test_run_determinism():
    cfg = SimConfig(protocol="lmac", n=6, c=8, horizon_slots=3000, seed=23)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.trace.kinds == b.trace.kinds
    assert a.trace.durations == b.trace.durations
    assert a.trace.colliders == b.trace.colliders


def test_single_station_never_collides():
    for protocol in ("lmac", "lzc", "lbeb", "zc", "dcf"):
        cfg = SimConfig(
            protocol=protocol,
            n=1,
            c=8,
            gamma=0.5 if protocol == "lzc" else None,
            beta=0.95 if protocol == "lmac" else None,
            horizon_slots=100,
            seed=24,
        )
        tr = run_simulation(cfg).trace
        assert all(k != int(SlotKind.COLLISION) for k in tr.kinds)


def test_clock_equals_sum_of_durations():
    # left to right, bit for bit; built-in sum() compensates from Python 3.12
    assert elapsed_us([1e16, 1.0, -1e16]) == 0.0
    cfg = SimConfig(protocol="zc", n=5, c=8, horizon_slots=1500, seed=25)
    res = run_simulation(cfg)
    assert res.converged_slot is not None  # the rest of the run is replayed
    assert res.sim_time_us == elapsed_us(res.trace.durations)


def test_conservation_of_attempts():
    for seed in range(5):
        cfg = SimConfig(protocol="lbeb", n=6, c=8, horizon_slots=1000, seed=seed)
        assert ledger_violations(run_simulation(cfg)) == []


def test_absorption_after_convergence():
    for seed in range(10):
        cfg = SimConfig(protocol="lmac", n=8, c=8, horizon_slots=8000, seed=seed)
        res = run_simulation(cfg)
        k, _ = metrics.detect_convergence(res)
        assert k is not None
        post = res.trace.kinds[k * 8 :]
        assert all(kk != int(SlotKind.COLLISION) for kk in post)


def test_station_rejects_an_arrival_rate_beyond_the_clock():
    # above the bound an arrival gap falls below the clock's resolution and
    # pull_arrivals would never return; the station is refused when built
    for rate in (1e300, 2.0 * MAX_LAMBDA_PPS, float("inf"), float("nan"), -1.0):
        with pytest.raises(ValueError, match="lambda_pps"):
            Station(0, Lzc(4, 0.5, rng(1)), rng(2), saturated=False, lambda_pps=rate)
    Station(0, Lzc(4, 0.5, rng(1)), rng(2), saturated=False, lambda_pps=MAX_LAMBDA_PPS)


def test_no_packets_means_all_idle():
    st = Station(0, Lzc(4, 0.5, rng(26)), rng(27), saturated=False, lambda_pps=0.0)
    sim = make_sim([st])
    sim.run(until_slot=sim.slot_index + 50)
    assert all(k == int(SlotKind.IDLE) for k in sim.trace.kinds)


def test_station_streams_independent_of_population():
    # first-schedule slots of existing stations don't move when stations join
    cfg2 = SimConfig(protocol="lzc", n=2, c=8, gamma=0.5, horizon_slots=64, seed=28)
    cfg3 = SimConfig(protocol="lzc", n=3, c=8, gamma=0.5, horizon_slots=64, seed=28)
    first2 = {}
    for sid, index, slot, _ in run_simulation(cfg2).events:
        if index == 0:
            first2[sid] = slot
    first3 = {}
    for sid, index, slot, _ in run_simulation(cfg3).events:
        if index == 0 and sid < 2:
            first3[sid] = slot
    assert first2 == first3


# --- copied windows ----------------------------------------------------------------


#: Length rules by ``adaptation`` name, from the base length; almac probes at
#: every clean checkpoint unless the name gives another probe period.
ADAPTERS = {
    "alzc": lambda base: AlzcAdapter(base, 16 * base),
    "almac": lambda base: AlmacAdapter(base, default_f_table(), 1, 16 * base),
    "almac-probe10": lambda base: AlmacAdapter(base, default_f_table(), 10, 16 * base),
}


def population_sim(protocol, n, c, seed, error_rate=0.0, adaptation="none", lambda_pps=None,
                   dcf=0):
    """``n`` stations, the first ``dcf`` of them DCF, saturated unless
    ``lambda_pps`` sets their Poisson rate; ``c`` is one schedule length or
    one per station, and the base length under ``adaptation``."""
    lengths = [c] * n if isinstance(c, int) else c
    stations = [population_station("dcf" if sid < dcf else protocol, sid, lengths[sid], seed,
                                   adaptation, lambda_pps)
                for sid in range(n)]
    channel_rng = rng(derive_seed(seed, "channel")) if error_rate else None
    return Simulator(stations, TABLE_PHY, error_rate=error_rate, channel_rng=channel_rng)


def population_station(kind, sid, c, seed, adaptation="none", lambda_pps=None, start_us=0.0):
    station_rng = rng(derive_seed(seed, sid))
    proto = init_protocol(kind, c, station_rng, beta=0.95, gamma=0.5)
    adapter = None if adaptation == "none" or kind == "dcf" else ADAPTERS[adaptation](c)
    return Station(sid, proto, station_rng, saturated=lambda_pps is None,
                   lambda_pps=lambda_pps or 0.0, adapter=adapter, start_time_us=start_us)


class WriteCounted(list):
    """A trace column that records the slots written one by one: each is a
    decision slot of ``Simulator.run``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.written = []

    @property
    def writes(self):
        return len(self.written)

    def __setitem__(self, index, value):
        self.written.append(index)
        super().__setitem__(index, value)


def counted_sim(sim):
    """``sim``, its trace's kinds column a ``WriteCounted``."""
    sim.trace.kinds = WriteCounted(sim.trace.kinds)
    return sim


def visit_bound(sim):
    """An upper bound on the decision slots of ``sim``'s runs so far: one
    per window of a schedule station, and two per transmission of a DCF
    station, where it was booked and where it woke up from waiting."""
    tr = sim.trace
    dcf = {st.sid for st in sim.stations if st.is_dcf}
    sends = sum(sid in dcf for i in range(len(tr)) for sid in transmitters_of(tr, i))
    return len(sim.events) + len(sim.stations) + 2 * sends


def sim_state(sim, sids=None):
    """Everything a run leaves behind, for the stations ``sids`` (default all)."""
    tr = sim.trace
    sids = range(len(sim.stations)) if sids is None else sids
    return {
        "trace": (tr.kinds, tr.durations, tr.tx_station, tr.packets, tr.colliders),
        "events": [ev for ev in sim.events if ev[0] in sids],
        "clock": sim.clock_us,
        "slot": sim.slot_index,
        "channel": sim.channel_rng and sim.channel_rng.bit_generator.state,
        "booked": {s: [st.sid for st in due] for s, due in sim._tx_due.items()},
        "waiting": [st.sid for st in sim._waiting],
        "stations": [
            (st.delivered, st.schedule_index, st.window_len,
             st.window_start, st.tx_slot, st.txop_m, st.in_probe,
             vars(st.protocol),
             st.adapter,  # adapters compare by value
             list(st.queue), st.delays_us, st.next_arrival_us, st.head_since_us,
             st.dropped, st.lost_arrivals,
             st.rng.bit_generator.state)
            for st in sim.stations if st.sid in sids
        ],
    }


def run_and_step(make, calls, sids=None):
    """Build two simulators with ``make``, the first to be played by
    ``Simulator.run`` and the second by the stepping oracle ``step_run``,
    and make the same ``calls`` on both: each the keyword arguments of
    ``run``, or a function that takes a simulator, may add joiners to it
    and returns them.  After every call both must have returned the same
    and hold the same ``sim_state`` of the stations ``sids``.  Returns the
    two simulators and, per call, what ``run`` returned and the slot it
    stopped at."""
    played, stepped = make(), make()
    outcomes = []
    for call in calls:
        returned = [run(sim, **(call(sim) if callable(call) else call))
                    for sim, run in ((played, Simulator.run), (stepped, step_run))]
        assert returned[0] == returned[1]
        assert sim_state(played, sids) == sim_state(stepped, sids)
        outcomes.append((returned[0], played.slot_index))
    return played, stepped, outcomes


def record_closes(monkeypatch, record):
    """Call ``record(sim, station_before, event)`` for every window that
    ``Simulator._close_windows`` closes one by one, in close order, read
    from the events it logs; ``station_before`` holds the station's window
    start, window length, probe flag and committed length before the close."""
    close_windows = Simulator._close_windows

    def recorded(sim, sched, *args):
        before = {st.sid: (st.window_start, st.window_len, st.in_probe,
                           st.protocol.schedule_len) for st in sched}
        logged = len(sim.events)
        shared = close_windows(sim, sched, *args)
        for event in sim.events[logged:]:
            record(sim, before[event[0]], event)
        return shared

    monkeypatch.setattr(Simulator, "_close_windows", recorded)


@pytest.fixture
def close_calls(monkeypatch):
    """Window starts of every window closed one by one, by simulator, in
    close order."""
    starts = defaultdict(list)
    record_closes(monkeypatch, lambda sim, before, event: starts[sim].append(before[0]))
    return starts


@pytest.fixture
def bulk_slots(monkeypatch):
    """The slots each ``Simulator._repeat_windows`` or ``_clear_windows``
    call appended in bulk, as a range, by simulator, in call order."""
    spans = defaultdict(list)
    for name in ("_repeat_windows", "_clear_windows"):
        def counted(sim, s, *args, append=getattr(Simulator, name)):
            t, clock = append(sim, s, *args)
            if t > s:
                spans[sim].append(range(s, t))
            return t, clock

        monkeypatch.setattr(Simulator, name, counted)
    return spans


#: Light Poisson load: at 62.5 packets/s per station most windows are quiet.
LIGHT = 62.5

STEPPING_CASES = [
    ("lbeb", 1, 4, 1, (203,), {}),
    ("lbeb", 3, 8, 2, (1001, 2403), {}),
    ("zc", 5, 8, 3, (999, 1600), {}),
    ("lzc", 8, 8, 4, (1203,), {}),
    ("lmac", 1, 2, 5, (99,), {}),
    ("lmac", 6, 8, 6, (517, 1800), {}),
    ("zc", 1, 8, 7, (301,), {}),
    ("lzc", 20, 16, 8, (707, 1500), {}),
    ("lmac", 20, 16, 9, (1500,), {}),
    ("lbeb", 6, 8, 10, (333, 1200), {"error_rate": 0.1}),
    ("lmac", 8, 8, 11, (1200,), {"error_rate": 0.1}),
    ("lzc", 20, 16, 12, (901, 3000), {"adaptation": "alzc"}),
    ("lmac", 20, 16, 13, (2222, 6000), {"adaptation": "almac"}),
    ("lmac", 8, 16, 20, (5003, 30000), {"lambda_pps": LIGHT}),
    ("lzc", 8, 16, 21, (7001, 30000), {"lambda_pps": LIGHT}),
    ("lmac", 8, 16, 22, (4011, 30000), {"adaptation": "almac", "lambda_pps": LIGHT}),
    ("lzc", 8, 16, 23, (3000, 20000), {"adaptation": "alzc", "lambda_pps": LIGHT}),
    ("lmac", 20, 16, 24, (2500, 12000), {"lambda_pps": 5.0}),
    ("lmac", 1, 16, 25, (9000,), {"lambda_pps": 400.0}),
    ("zc", 4, 8, 26, (6000,), {"lambda_pps": LIGHT, "error_rate": 0.2}),
    ("dcf", 8, 16, 27, (3001, 20000), {"lambda_pps": LIGHT}),
    ("dcf", 1, 16, 28, (9000,), {"lambda_pps": 400.0}),
    ("dcf", 6, 16, 29, (700, 4000), {}),
    ("dcf", 4, 16, 30, (1500, 4000), {"error_rate": 0.1}),
    ("dcf", 4, 16, 32, (1500, 6000), {"lambda_pps": LIGHT, "error_rate": 0.1}),
    ("lmac", 6, 16, 31, (2500, 12000), {"lambda_pps": 200.0, "dcf": 2}),
    # settles at 32 slots, where copies run up to the bound
    ("lzc", 24, 16, 33, (3001, 12000), {"adaptation": "alzc"}),
    # the (16, 32, 32) limit cycle: the second 32-slot window is a copy of the
    # first, and once a whole cycle has been closed, cycles are copied
    ("lzc", 16, 16, 34, (2001, 6000), {"adaptation": "alzc"}),
    # settles at the base length, where no probe comes: copies run past every
    # checkpoint of f(16) = 32 windows up to the bound
    ("lmac", 16, 16, 35, (2500, 12000), {"adaptation": "almac-probe10"}),
    # coexist_aggregate's shape: 8 saturated lmac stations and 2 DCF ones
    ("lmac", 10, 16, 36, (3001, 8000), {"dcf": 2}),
    # 8 lmac and 2 DCF stations at light Poisson load, mostly idle
    ("lmac", 10, 16, 37, (29074,), {"lambda_pps": LIGHT, "dcf": 2}),
    # 2 Poisson joiners enter 14 slots into window 4, off the window grid
    ("lmac", 8, 16, 38, (62, 20000), {"lambda_pps": LIGHT, "join_at": 62}),
]


def stepping_case_id(index, case):
    """pytest's default id with the options appended, so a case without
    options keeps pytest's default id."""
    protocol, n, c, seed, _, kw = case
    options = "".join(f"-{key}={value}" for key, value in kw.items())
    return f"{protocol}-{n}-{c}-{seed}-bounds{index}{options}"


@pytest.mark.parametrize("protocol, n, c, seed, bounds, kw", STEPPING_CASES,
                         ids=[stepping_case_id(*case) for case in enumerate(STEPPING_CASES)])
def test_replay_matches_stepping(protocol, n, c, seed, bounds, kw, close_calls, bulk_slots):
    kw = dict(kw)
    join_at = kw.pop("join_at", None)

    def join(sim):  # two more stations of ``protocol`` at slot ``join_at``
        if sim.slot_index == join_at:
            for sid in (n, n + 1):
                sim.add_station(population_station(protocol, sid, c, seed,
                                                   lambda_pps=kw.get("lambda_pps"),
                                                   start_us=sim.clock_us))

    def until(bound):
        def kwargs(sim):
            join(sim)
            return dict(until_slot=bound)
        return kwargs

    played, stepped, _ = run_and_step(
        lambda: counted_sim(population_sim(protocol, n, c, seed, **kw)), map(until, bounds))
    # decision slots are visited one by one, the idle slots between them
    # written in bulk; with every station saturated, each one is busy
    visited, slots = played.trace.kinds.writes, bounds[-1]
    busy = sum(k != SlotKind.IDLE for k in played.trace.kinds)
    closed, stepped_closed = len(close_calls[played]), len(close_calls[stepped])
    assert visited <= visit_bound(played)
    assert visited <= busy or "lambda_pps" in kw
    if "dcf" in kw or join_at is not None:  # two grids, or DCF among schedule stations
        assert visited < (0.7 if "lambda_pps" in kw else 0.6) * slots
    if protocol == "dcf":  # no windows; idle waits are crossed in bulk under Poisson load
        assert (visited == busy) == ("lambda_pps" not in kw)
        assert (visited < slots / 10) == ("lambda_pps" in kw)
        assert bulk_slots[played] == []
    elif "lambda_pps" in kw and "dcf" not in kw and join_at is None:  # quiet windows are jumped
        assert closed < stepped_closed / 2
    elif "adaptation" in kw:  # settled windows are copied up to a plan change
        assert bulk_slots[played] and closed < stepped_closed
        if kw["adaptation"] == "alzc" and n == c:  # the (16, 32, 32) cycle, copied whole
            kinds, period = played.trace.kinds, 5 * c
            cycling = max([u + 1 for u in range(len(kinds) - period)
                           if kinds[u] != kinds[u + period]], default=0)
            # from the cycle's first slot on, each run closes the windows of
            # at most two periods one by one, and copies the rest
            assert 0 < cycling < bounds[0] - 2 * period
            assert len({start for start in close_calls[played] if start >= cycling}) <= (
                2 * 3 * len(bounds))
    elif "error_rate" in kw or n > c and protocol in ("zc", "lzc"):
        # clean windows are copied up to an error, and windows with no idle
        # slot, where zc and lzc stations stay put, are copied too
        assert bulk_slots[played] and closed < stepped_closed
    elif join_at is not None:  # two grids from the join on: every window closed one by one
        assert all(span.stop <= join_at for span in bulk_slots[played])
        assert ([start for start in close_calls[played] if start >= join_at]
                == [start for start in close_calls[stepped] if start >= join_at])
    elif kw or n > c:  # no window repeats, every window closed one by one
        assert closed == stepped_closed
        assert bulk_slots[played] == []
    else:
        assert closed < stepped_closed / 2
    # ``Simulator.step`` plays the same slots and never jumps
    one_by_one = population_sim(protocol, n, c, seed, **kw)
    while one_by_one.slot_index < bounds[-1]:
        join(one_by_one)
        one_by_one.step()
    assert bulk_slots[one_by_one] == []
    assert sim_state(one_by_one) == sim_state(stepped)


@pytest.mark.parametrize("protocol, n, seed, kw", [
    ("lmac", 10, 14, {}),
    ("lzc", 10, 15, {"error_rate": 0.1}),
    ("lzc", 20, 16, {"adaptation": "alzc"}),
    ("lmac", 20, 17, {"adaptation": "almac"}),
    # L-BEB at N = C does not settle in 6000 slots: watched throughout
    ("lbeb", 16, 40, {"hit": False}),
    # the watch fires inside a window, on an error channel
    ("lmac", 16, 41, {"error_rate": 0.1, "hit": True}),
    # a time bound in slot 4 of window 40, with error draws pending after it
    ("lzc", 12, 42, {"error_rate": 0.1, "time_bound_slot": 16 * 40 + 4}),
    # a saturated joiner enters 5 slots into a window: segments end on both grids
    ("lmac", 10, 43, {"join_at": 16 * 20 + 5}),
])
def test_lean_body_matches_general_body(protocol, n, seed, kw):
    # the run is played by ``Simulator.run`` with every station saturated
    # and, with a schedule station that has no traffic added, by the
    # stepping oracle; the silent station sends nothing, so the medium and
    # everyone else must not notice
    c, horizon = 16, 6000
    kw = dict(kw)
    hit_expected = kw.pop("hit", None)
    bound_slot = kw.pop("time_bound_slot", None)
    join_at = kw.pop("join_at", None)
    saturated = population_sim(protocol, n, c, seed, **kw)
    with_silent = population_sim(protocol, n, c, seed, **kw)
    silent_rng = rng(derive_seed(seed, n))
    silent = init_protocol(protocol, c, silent_rng, beta=0.95, gamma=0.5)
    with_silent.add_station(Station(n, silent, silent_rng, saturated=False, lambda_pps=0.0))
    sids, calls = list(range(n)), []
    if bound_slot is not None:  # reached inside slot ``bound_slot - 1``
        probe = population_sim(protocol, n, c, seed, **kw)
        probe.run(until_slot=bound_slot)
        calls.append(dict(until_us=probe.clock_us - 1.0))
    if join_at is None:
        calls.append(dict(until_slot=horizon, watch_n=n, watch_len=c))
    else:
        def join(sim):
            joiner_rng = rng(derive_seed(seed, n + 1))
            joiner = init_protocol(protocol, c, joiner_rng, beta=0.95, gamma=0.5)
            sim.add_station(Station(n + 1, joiner, joiner_rng))
            return dict(until_slot=horizon, watch_n=n + 1, watch_len=c, watch_from=join_at)

        calls += [dict(until_slot=join_at), join]
        sids.append(n + 1)
    calls.append(dict(until_slot=horizon))
    _, stepped, outcomes = run_and_step(iter([saturated, with_silent]).__next__, calls, sids)
    if bound_slot is not None:
        assert outcomes[0][1] == bound_slot
    hit, stopped_at = outcomes[-2]
    if hit_expected is not None:
        assert hit == hit_expected
    if hit_expected:
        assert stopped_at % c != 0  # the watched span straddles two windows
    # the silent station never sends, and logs one event per window it
    # closed, a success exactly where the slot it held was idle
    tr = stepped.trace
    assert n not in tr.tx_station and all(n not in who for who in tr.colliders.values())
    logged = [ev for ev in stepped.events if ev[0] == n]
    assert [ev[1] for ev in logged] == list(range(stepped.slot_index // c))
    assert [ev[3] for ev in logged] == [
        "success" if tr.kinds[k * c + slot - 1] == SlotKind.IDLE else "failure"
        for _, k, slot, _ in logged]


@pytest.mark.parametrize("protocol, n, c, seed, kw", [
    ("lmac", 8, 8, 11, {"error_rate": 0.1}),
    ("lzc", 16, 16, 44, {"error_rate": 0.1}),
    ("lbeb", 6, 8, 10, {"error_rate": 0.1}),
    ("lmac", 20, 16, 13, {"adaptation": "almac"}),
])
def test_reports_follow_the_kernel_rule(protocol, n, c, seed, kw, monkeypatch):
    # every window of a stepped run is closed one by one; its protocol hears
    # of each failure and of the first success after a failure or a resize,
    # and of nothing in a probe
    windows: dict[int, list] = {}
    record_closes(monkeypatch, lambda sim, before, event: windows.setdefault(
        event[0], []).append((before[2], before[3], event[3] == "success")))
    reports: dict[int, list[bool]] = {}
    for cls in (Lbeb, Zc, Lzc, Lmac):
        def reported(proto, success, idle_positions, rng, update=cls.on_schedule_end):
            reports.setdefault(id(proto), []).append(success)
            return update(proto, success, idle_positions, rng)
        monkeypatch.setattr(cls, "on_schedule_end", reported)
    sim = population_sim(protocol, n, c, seed, **kw)
    while sim.slot_index < 3000:
        sim.step()
    counts = Counter()
    for st in sim.stations:
        expected, last, committed = [], False, None
        for probe, schedule_len, success in windows[st.sid]:
            if schedule_len != committed:  # a resize: the next success is reported
                counts["resize"] += committed is not None
                last, committed = False, schedule_len
            if probe:
                counts["probe"] += 1
            elif not success:
                expected.append(False)
                counts["failure"] += 1
            elif not last:
                expected.append(True)
                counts["recovery"] += 1
            else:
                counts["skipped"] += 1
            if not probe:
                last = success
        assert reports.get(id(st.protocol), []) == expected, st.sid
    assert counts["failure"] and counts["recovery"] and counts["skipped"]
    assert bool(counts["probe"]) == bool(counts["resize"]) == ("adaptation" in kw)


@pytest.mark.parametrize("kw", [{}, {"error_rate": 0.1}])
def test_time_bound_inside_a_window(kw):
    # the bound is reached in the fourth slot of window 40: the rest of the
    # window's transmissions, deliveries and channel draws stay pending
    probe = population_sim("lzc", 8, 8, 18, **kw)
    probe.run(until_slot=8 * 40 + 4)
    _, _, outcomes = run_and_step(lambda: population_sim("lzc", 8, 8, 18, **kw),
                                  [dict(until_us=probe.clock_us - 1.0), dict(until_slot=1000)])
    assert outcomes[0][1] == 8 * 40 + 4


def test_watch_hit_inside_a_window():
    _, _, outcomes = run_and_step(lambda: population_sim("lmac", 6, 8, 19),
                                  [dict(watch_n=6, watch_len=8), dict(until_slot=1000)])
    hit, stopped_at = outcomes[0]
    assert hit and stopped_at % 8 != 0  # the watched span straddles two windows


def test_no_replay_across_unequal_windows(close_calls):
    # lengths 4 and 8 end windows together at every eighth slot, from
    # different starts, so the shared trace never repeats window by window
    played, stepped, _ = run_and_step(lambda: population_sim("lbeb", 2, (4, 8), 8),
                                      [dict(until_slot=800)])
    assert stepped.trace.kinds[-8:].count(SlotKind.SUCCESS) == 3  # settled
    assert len(close_calls[played]) == len(close_calls[stepped])


def test_replay_stops_before_time_bound(close_calls):
    played, stepped, _ = run_and_step(lambda: population_sim("lzc", 4, 8, 7),
                                      [dict(until_us=1.5e5 + 3.0)])
    assert len(close_calls[played]) < len(close_calls[stepped]) / 2


def test_replay_fires_after_convergence(close_calls):
    n = c = 16
    res = run_simulation(SimConfig(protocol="lmac", n=n, c=c, horizon_slots=20000,
                                   seed=3))
    assert res.converged_slot is not None and res.converged_slot < 2000
    assert len(res.events) == n * 20000 // c
    # the first collision-free window is watched, the next one is stepped and
    # closed without a collision, and every later window is a copy of it
    [starts] = close_calls.values()
    assert sum(start > res.converged_slot for start in starts) <= n
    assert ledger_violations(res) == []


def test_no_copy_when_every_length_changes(bulk_slots):
    # four stations fill a 4-slot window, so all of them double to 8 at its
    # close; at 8 they halve again after two windows: the 4-slot window just
    # closed must never be copied as an 8-slot one, nor the 8-slot one as 4.
    # The second 8-slot window (12-19) copies the first, the next 8-slot one
    # (24-31) copies that, and once the cycle 20-39 has been closed whole,
    # copies of it run up to the bound
    played, _, _ = run_and_step(lambda: make_sim([
        Station(sid, pinned_lzc(4, sid + 1, sid), rng(60 + sid), adapter=AlzcAdapter(4, 64))
        for sid in range(4)
    ]), [dict(until_slot=200)])
    assert {st.window_len for st in played.stations} == {4}
    kinds, spans = played.trace.kinds, bulk_slots[played]
    assert spans == [range(12, 20), range(24, 32), range(40, 200)]
    assert kinds[4:12] == kinds[12:20] == kinds[24:32] != kinds[20:28]
    assert kinds[40:200] == kinds[20:40] * 8


def test_no_copy_of_a_unit_whose_slots_wrapped(bulk_slots):
    # 16 stations hold slots 1-8 and 25-32 of 32; after two such windows the
    # length halves, wrapping slots 25-32 onto 9-16, and the full 16-slot
    # window doubles it again.  The 32-slot window from slot 32 then has the
    # length that starts at slot 80, but half its stations held other slots
    # in it, so it is no unit; the (16, 32, 32) cycle from slot 144 is
    played, _, _ = run_and_step(lambda: make_sim([
        Station(sid, pinned_lzc(32, slot, sid), rng(90 + sid), adapter=AlzcAdapter(16, 64))
        for sid, slot in enumerate([*range(1, 9), *range(25, 33)])
    ]), [dict(until_slot=600)])
    assert bulk_slots[played] == [range(32, 64), range(112, 144), range(160, 192),
                                  range(224, 592)]


def test_committed_probe_is_followed_by_copies(bulk_slots):
    # four settled stations at 32 slots on base 16: every window after the
    # first is a copy up to the 65th, whose clean checkpoint at f(32) = 65
    # starts a 16-slot probe in slots 2080 to 2095; every probe succeeds, and
    # copies of the probe window follow at once, each
    # station's protocol taking the success report that settles the vector
    # its resize reset
    def make():
        stations = []
        for sid in range(4):
            proto = Lmac(32, 0.95, rng(sid))
            proto.slot = sid + 1
            stations.append(Station(sid, proto, rng(65 + sid),
                                    adapter=AlmacAdapter(16, default_f_table(), 1, 256)))
        return make_sim(stations)

    played, _, _ = run_and_step(make, [dict(until_slot=2096 + 10 * 16)])
    assert [len(span) for span in bulk_slots[played]] == [64 * 32, 10 * 16]
    for st in played.stations:
        assert st.protocol.p[st.protocol.slot - 1] == 1.0 and st.reported_success
        assert st.window_len == 16


def test_short_settled_copies_plan_one_unit(monkeypatch):
    # ten alzc stations on base 4 settle on 16 slots by slot 2000, and run is
    # then called five windows at a time: each copy plans its first window
    # only, which every adapter ends as it began it, so the rest follow as
    # whole units however few fit before the bound
    calls = []  # (start slot, plan_next calls) per ``_repeat_windows`` call
    plans = []  # the plan_next calls of the ``_repeat_windows`` call under way
    plan_next, repeat_windows = AlzcAdapter.plan_next, Simulator._repeat_windows

    def planned(adapter, *args):
        if plans:
            plans[-1] += 1
        return plan_next(adapter, *args)

    def repeated(sim, s, *args):
        plans.append(0)
        t, clock = repeat_windows(sim, s, *args)
        calls.append((s, plans.pop()))
        return t, clock

    monkeypatch.setattr(AlzcAdapter, "plan_next", planned)
    monkeypatch.setattr(Simulator, "_repeat_windows", repeated)
    played, _, _ = run_and_step(
        lambda: population_sim("lzc", 10, 4, 1, adaptation="alzc"),
        [dict(until_slot=2000)] + [lambda sim: dict(until_slot=sim.slot_index + 5 * 16)] * 6)
    assert {st.window_len for st in played.stations} == {16}
    assert [count for s, count in calls if s >= 2000] == [10] * 6


def test_unfulfillable_watch_is_no_watch(bulk_slots):
    # 20 successes cannot fit in a 16-slot watch, so the run is not watched
    watched = population_sim("lzc", 20, 16, 12, adaptation="alzc")
    assert not watched.run(until_slot=3000, watch_n=20, watch_len=16)
    unwatched = population_sim("lzc", 20, 16, 12, adaptation="alzc")
    unwatched.run(until_slot=3000)
    assert sim_state(watched) == sim_state(unwatched)
    assert bulk_slots[watched] and bulk_slots[watched] == bulk_slots[unwatched]


def test_live_watch_blocks_copies():
    # settled stations in slots 1, 6 and 8 of 8, watched from slot 20: the
    # span 20 to 27 holds all three successes, so the watch fires at slot
    # 28, inside what a copy of the window from slot 16 would cover
    _, _, outcomes = run_and_step(
        lambda: make_sim([saturated_station(sid, pinned_lzc(8, slot, sid), 70 + sid)
                          for sid, slot in enumerate((1, 6, 8))]),
        [dict(until_slot=20), dict(until_slot=1000, watch_n=3, watch_len=8, watch_from=20)])
    assert outcomes[1] == (True, 28)


def test_watch_that_cannot_fire_lets_copies_run(close_calls, bulk_slots):
    # almac at N = b = 16 doubles to 32 slots at its first checkpoint and
    # settles there, where no 16 slots hold all 16 successes: the watch
    # never fires, so the watched run copies what the unwatched one copies
    def make():
        return population_sim("lmac", 16, 16, 104, adaptation="almac-probe10")

    watched, _, outcomes = run_and_step(
        make, [dict(until_slot=12000, watch_n=16, watch_len=16)])
    assert outcomes == [(False, 12000)]
    unwatched = make()
    unwatched.run(until_slot=12000)
    assert sim_state(watched) == sim_state(unwatched)
    assert bulk_slots[watched] == bulk_slots[unwatched]
    # the unit is one 32-slot window: after the last collision, one window
    # is closed one by one and every later one is a copy
    kinds = watched.trace.kinds
    last = max(u for u, kind in enumerate(kinds) if kind == SlotKind.COLLISION)
    assert {st.window_len for st in watched.stations} == {32}
    assert len({start for start in close_calls[watched] if start > last}) <= 1


def test_watch_that_fires_in_copies_blocks_them():
    # 16 stations hold slots 1-8 and 25-32 of 32, so every window from the
    # first is the same and copies could begin at slot 32; watched from
    # slot 128 for 16 successes in 16 slots, the watch fires at slot 168,
    # on the span 152-167 that straddles two windows
    def make():
        return make_sim([saturated_station(sid, pinned_lzc(32, slot, sid), 90 + sid)
                         for sid, slot in enumerate([*range(1, 9), *range(25, 33)])])

    _, _, outcomes = run_and_step(
        make, [dict(until_slot=2000, watch_n=16, watch_len=16, watch_from=128)])
    assert outcomes == [(True, 168)]


@pytest.mark.parametrize("lambda_pps", [None, LIGHT])
@pytest.mark.parametrize("dcf_at", [0, 5])
def test_dcf_station_rules_out_copies(dcf_at, lambda_pps, bulk_slots):
    # stations[0] may be the DCF partner, whose window length is 0
    def make():
        stations = []
        for sid in range(6):
            station_rng = rng(derive_seed(75, sid))
            proto = init_protocol("dcf" if sid == dcf_at else "lmac", 16, station_rng, beta=0.95)
            stations.append(Station(sid, proto, station_rng, saturated=lambda_pps is None,
                                    lambda_pps=lambda_pps or 0.0))
        return make_sim(stations)

    played, _, _ = run_and_step(make, [dict(until_slot=6000)])
    assert bulk_slots[played] == []


def test_dcf_station_after_a_full_schedule_rules_out_copies(bulk_slots):
    # eight zc stations hold every slot of 8, so a DCF transmission makes a
    # window with a collision and no idle slot; the DCF station, listed
    # after them, still rules out the copy of that window
    def make():
        stations = []
        for sid in range(9):
            station_rng = rng(derive_seed(86, sid))
            proto = init_protocol("zc" if sid < 8 else "dcf", 8, station_rng)
            if sid < 8:
                proto.slot = sid + 1
            stations.append(Station(sid, proto, station_rng))
        return make_sim(stations)

    played, _, _ = run_and_step(make, [dict(until_slot=4000)])
    assert bulk_slots[played] == []
    assert played.trace.colliders


#: Ten stations on eight slots, two pairs colliding in slots 1 and 2 and no
#: slot idle, by the rules of stations 0-9.
FROZEN_MIXES = {
    "zc": ["zc"] * 10,
    "lzc": ["lzc"] * 10,
    "zc-lzc": ["zc", "lzc"] * 5,
    "alzc": ["lzc"] * 10,  # at the adapter's largest length
    "zc-lmac": ["zc"] * 9 + ["lmac"],
}


@pytest.mark.parametrize("mix", sorted(FROZEN_MIXES))
def test_windows_with_no_idle_slot_are_copied_when_every_rule_reads_idle_slots(
        mix, bulk_slots):
    # zc and lzc colliders with no idle slot keep their slots and draw
    # nothing, so every window after the first is a copy, its collisions
    # and failures included; an lmac collider redraws, so nothing is copied
    def make():
        stations = []
        for sid, (kind, slot) in enumerate(zip(FROZEN_MIXES[mix], [*range(1, 9), 1, 2])):
            station_rng = rng(80 + sid)
            proto = init_protocol(kind, 8, station_rng, beta=0.95, gamma=0.5)
            proto.slot = slot
            adapter = AlzcAdapter(8, 8) if mix == "alzc" else None
            stations.append(Station(sid, proto, station_rng, adapter=adapter))
        return make_sim(stations)

    played, _, _ = run_and_step(make, [dict(until_slot=203), dict(until_slot=400)])
    if mix == "zc-lmac":
        assert bulk_slots[played] == []
        return
    assert bulk_slots[played] == [range(8, 200), range(208, 400)]
    assert sorted(played.trace.colliders) == sorted(
        [8 * j for j in range(50)] + [8 * j + 1 for j in range(50)])
    outcomes = Counter(outcome for *_, outcome in played.events)
    assert outcomes == {"failure": 4 * 50, "success": 6 * 50}


@pytest.mark.parametrize("protocol, seed", [("lzc", 84), ("lmac", 85)])
def test_clean_windows_are_copied_up_to_the_first_error(protocol, seed, bulk_slots):
    # four settled stations in slots 1-4 of 8 on a channel that errs one
    # lone transmission in 20: each copy ends before the first window whose
    # transmissions draw an error, which is then played
    def make():
        stations = []
        for sid in range(4):
            station_rng = rng(derive_seed(seed, sid))
            proto = init_protocol(protocol, 8, station_rng, beta=0.95, gamma=0.5)
            proto.slot = sid + 1
            stations.append(Station(sid, proto, station_rng))
        return make_sim(stations, error_rate=0.05, channel_rng=rng(derive_seed(seed, "channel")))

    played, _, _ = run_and_step(make, [dict(until_slot=1501), dict(until_slot=4000)])
    kinds, spans = played.trace.kinds, bulk_slots[played]
    assert sum(len(span) for span in spans) > 4000 / 2
    for span in spans:
        assert SlotKind.ERROR not in kinds[span.start : span.stop]
        if span.stop not in (1496, 4000):
            assert SlotKind.ERROR in kinds[span.stop : span.stop + 8]


@pytest.mark.parametrize("protocol, n, c, seed, kw", [
    ("lbeb", 10, 8, 90, {}),
    ("lbeb", 6, 8, 91, {"error_rate": 0.1}),
    ("dcf", 4, 16, 92, {}),
    ("dcf", 3, 16, 93, {"error_rate": 0.2}),
    ("lzc", 6, 8, 94, {"error_rate": 0.05}),
    ("zc", 12, 8, 95, {"error_rate": 0.01}),
])
def test_tiny_read_ahead_blocks_match_stepping(protocol, n, c, seed, kw, monkeypatch):
    # blocks of three values: runs refill, peek across block ends and stop
    # mid-block over and over, and must still draw as stepping draws
    monkeypatch.setattr(protocols, "READ_AHEAD_BLOCK", 3)
    run_and_step(lambda: population_sim(protocol, n, c, seed, **kw),
                 [dict(until_slot=b) for b in (97, 1000, 2500)])


# --- quiet medium ------------------------------------------------------------------


def quiet_stretch_middle(sim, until_slot):
    """Slot 7 of a 16-slot window in the middle of the longest idle stretch
    of ``sim`` stepped up to ``until_slot``."""
    step_run(sim, until_slot=until_slot)
    best = (0, 0)
    start = 0
    for i, kind in enumerate(sim.trace.kinds + [SlotKind.SUCCESS]):
        if kind != SlotKind.IDLE:
            best = max(best, (i - start, start))
            start = i + 1
    length, first = best
    assert length > 200
    middle = first + length // 2
    return middle - middle % 16 + 7


@pytest.mark.parametrize("protocol, kw", [
    ("lmac", {}), ("lmac", {"adaptation": "almac"}), ("dcf", {}),
])
@pytest.mark.parametrize("bound", ["until_slot", "until_us"])
def test_bound_inside_a_quiet_stretch(protocol, kw, bound, bulk_slots):
    probe = population_sim(protocol, 8, 16, 50, lambda_pps=LIGHT, **kw)
    middle = quiet_stretch_middle(probe, 20000)
    limit = {"until_slot": middle + 1,
             # reached inside slot ``middle``
             "until_us": elapsed_us(probe.trace.durations[:middle]) + 1.0}[bound]
    played, _, outcomes = run_and_step(
        lambda: counted_sim(population_sim(protocol, 8, 16, 50, lambda_pps=LIGHT, **kw)),
        [{bound: limit}, dict(until_slot=20000)])
    assert outcomes[0][1] == middle + 1
    if protocol == "dcf":  # idle waits are crossed without a visit
        assert sum(u <= middle for u in played.trace.kinds.written) < middle / 10
    else:  # quiet windows are jumped
        assert sum(len(span) for span in bulk_slots[played] if span.stop <= middle + 1) > middle / 2


@pytest.mark.parametrize("n, lambda_pps, seed, watch_from, hit", [
    (2, 300.0, 43, 0, True),
    (2, 200.0, 40, 1000, True),
    (8, LIGHT, 44, 0, False),
])
def test_watched_poisson_run_matches_stepping(n, lambda_pps, seed, watch_from, hit,
                                              bulk_slots):
    played, _, outcomes = run_and_step(
        lambda: population_sim("lmac", n, 16, seed, lambda_pps=lambda_pps),
        [dict(until_slot=watch_from),
         dict(until_slot=20000, watch_n=n, watch_len=16, watch_from=watch_from)])
    assert outcomes[1][0] == hit
    # quiet windows were crossed while watching
    watched_from = outcomes[0][1]
    assert sum(len(span) for span in bulk_slots[played] if span.start >= watched_from) > 100


@hst.composite
def random_populations(draw):
    """A ``population_sim`` population of every schedule rule, DCF stations
    among them, saturated or Poisson, on a clean or an error channel, with
    adaptive lengths, maybe a joiner off the window grid, and a few run
    calls, each with a slot bound, maybe a time bound and maybe a watch."""
    adaptation = draw(hst.sampled_from(("none", "alzc", "almac")))
    protocol = draw(hst.sampled_from(("lbeb", "zc", "lzc", "lmac")))
    c = draw(hst.sampled_from((4, 8, 16)))
    if adaptation == "alzc":
        protocol, c = draw(hst.sampled_from(("lzc", "zc"))), draw(hst.sampled_from((4, 8)))
    elif adaptation == "almac":
        protocol, c = "lmac", 16
    n = draw(hst.integers(1, 8))
    population = dict(
        protocol=protocol, n=n, c=c, seed=draw(hst.integers(0, 10**6)),
        error_rate=draw(hst.sampled_from((0.0, 0.2))), adaptation=adaptation,
        lambda_pps=draw(hst.sampled_from((None, 300.0, 3000.0))),
        dcf=draw(hst.integers(0, n)),
    )
    join_at = draw(hst.none() | hst.integers(1, 300))
    calls = draw(hst.lists(hst.tuples(
        hst.integers(1, 400),  # slots
        hst.none() | hst.floats(0.0, 2e5),  # microseconds
        hst.none() | hst.tuples(hst.integers(1, n + 2), hst.booleans()),  # watch
    ), min_size=1, max_size=4))
    return population, join_at, calls


@settings(max_examples=100, deadline=None)
@given(random_populations())
# a time bound already reached, and a waiting DCF station that wakes at once
@example(({"protocol": "lbeb", "n": 2, "c": 4, "seed": 55644, "error_rate": 0.0,
           "adaptation": "none", "lambda_pps": 300.0, "dcf": 2}, 179, [(1, 0.0, None)]))
def test_run_matches_stepping_on_random_populations(case):
    population, join_at, calls = case

    def bounded(slots, us, watch, joins):
        def kwargs(sim):  # bounds from where the run stands
            if joins:
                sim.add_station(population_station(
                    population["protocol"], population["n"], population["c"],
                    population["seed"], population["adaptation"], population["lambda_pps"],
                    sim.clock_us))
            bounds = dict(until_slot=sim.slot_index + slots)
            if us is not None:
                bounds["until_us"] = sim.clock_us + us
            if watch is not None:  # from the run's start or from slot 0
                bounds.update(watch_n=watch[0], watch_len=population["c"],
                              watch_from=sim.slot_index if watch[1] else 0)
            return bounds
        return kwargs

    runs = [bounded(*call, joins=i == 0 and join_at is not None) for i, call in enumerate(calls)]
    if join_at is not None:
        runs.insert(0, dict(until_slot=join_at))
    run_and_step(lambda: population_sim(**population), runs)


def test_idle_stretch_clock_adds_slot_by_slot():
    # after a 396.36 us success in slot 0, 83 idle slots, added one at a time,
    # end on another last bit than 83 * 20 us: to the end of an 84-slot
    # window, between two decision slots of an 85-slot one, and up to a
    # waiting DCF station's wake-up as slot 101 starts, which the idle walk
    # reaches in bulk
    phy = PhyParams(payload_bytes=333)
    success = phy.success_duration(1)
    assert elapsed_us([success] + [phy.sigma_us] * 83) != success + 83 * phy.sigma_us
    for length, held, wake in ((84, (1,), None), (85, (1, 85), None), (256, (1,), 101)):
        def make():
            stations = []
            for sid, slot in enumerate(held):
                st = Station(sid, pinned_lzc(length, slot, 58 + 2 * sid), rng(59 + 2 * sid),
                             saturated=False, lambda_pps=LIGHT)
                st.next_arrival_us = 0.0
                stations.append(st)
            if wake is not None:
                dcf = Dcf(rng(63))
                dcf.counter = 0
                st = Station(len(held), dcf, rng(64), saturated=False, lambda_pps=LIGHT)
                st.next_arrival_us = elapsed_us([success] + [phy.sigma_us] * (wake - 1))
                stations.append(st)
            return make_sim(stations, phy=phy)

        played, _, _ = run_and_step(make, [dict(until_slot=min(length, 200))])
        assert [played.trace.kinds[slot - 1] for slot in held] == [SlotKind.SUCCESS] * len(held)
        if wake is not None:
            assert played.trace.tx_station[wake] == len(held)


def test_watch_fires_inside_a_quiet_window():
    # the one station succeeds in slot 7 and its queue empties; watched from
    # slot 4, the watch fires at slot 20, in the quiet window after it
    st = Station(0, pinned_lzc(16, 8, 51), rng(52), saturated=False, lambda_pps=LIGHT)
    st.next_arrival_us = 0.0
    sim = make_sim([st])
    assert sim.run(until_slot=1000, watch_n=1, watch_len=16, watch_from=4)
    assert sim.slot_index == 20
    assert sim.trace.kinds[7] == SlotKind.SUCCESS


def test_arrival_as_a_window_last_slot_starts(bulk_slots):
    # the packet arrives just as slot 39, the last of window 4 and the one
    # the station holds, starts: the station sends there, and windows 1 to
    # 11 are appended in one call, window 4 with its success
    def make():
        st = Station(0, pinned_lzc(8, 8, 53), rng(54), saturated=False, lambda_pps=LIGHT)
        st.next_arrival_us = elapsed_us([TABLE_PHY.sigma_us] * 39)
        return make_sim([st])

    played, _, _ = run_and_step(make, [dict(until_slot=100)])
    assert played.trace.kinds.index(SlotKind.SUCCESS) == 39
    assert bulk_slots[played][0] == range(8, 96)


# --- unsaturated windows with transmissions --------------------------------------


def idle_start(slot):
    """The clock as ``slot`` starts when every slot before it was idle."""
    return elapsed_us([TABLE_PHY.sigma_us] * slot)


def waiting_station(sid, proto, seed, arrival_us, adapter=None):
    """A Poisson station whose first packet arrives at ``arrival_us``."""
    st = Station(sid, proto, rng(seed), saturated=False, lambda_pps=LIGHT, adapter=adapter)
    st.next_arrival_us = arrival_us
    return st


def test_slot_sharer_that_can_send_is_played(bulk_slots):
    # stations 0 and 1 hold slot 3 of 8 and station 0's packet arrives as
    # window 3 starts: station 1 fails there, so windows 1 and 2 are
    # appended in bulk and window 3 is played
    def make():
        return make_sim([waiting_station(0, pinned_lzc(8, 3, 60), 61, idle_start(24)),
                         waiting_station(1, pinned_lzc(8, 3, 62), 63, float("inf"))])

    played, _, _ = run_and_step(make, [dict(until_slot=80)])
    assert played.trace.tx_station[26] == 0
    assert (1, 3, 3, "failure") in played.events
    assert bulk_slots[played][0] == range(8, 24)


def test_arrival_after_a_window_starts_is_sent_in_it(bulk_slots):
    # the packet arrives after window 3 starts and before slot 29, the one
    # the station holds there: it is sent in slot 29, in bulk
    def make():
        return make_sim([waiting_station(0, pinned_lzc(8, 6, 64), 65, idle_start(26) + 1.0)])

    played, _, _ = run_and_step(make, [dict(until_slot=80)])
    assert played.trace.kinds.index(SlotKind.SUCCESS) == 29
    assert any(29 in span for span in bulk_slots[played])


def test_watch_that_can_fire_in_a_busy_window_stops_there(bulk_slots):
    # both packets arrive as window 3 starts, and two successes in 8 slots
    # fire the watch: window 3 is played, and the run stops after slot 29
    def make():
        return make_sim([waiting_station(0, pinned_lzc(8, 3, 66), 67, idle_start(24)),
                         waiting_station(1, pinned_lzc(8, 6, 68), 69, idle_start(24))])

    played, _, outcomes = run_and_step(make, [dict(until_slot=200, watch_n=2, watch_len=8)])
    assert outcomes == [(True, 30)]
    assert bulk_slots[played] == [range(8, 24)]


def test_time_bound_inside_a_busy_window():
    # the packet arrives as window 3 starts and the time bound falls just
    # after the end window 3 would have if idle, inside slot 26, the
    # station's success: the run stops after it
    def make():
        return make_sim([waiting_station(0, pinned_lzc(8, 3, 70), 71, idle_start(24))])

    played, _, outcomes = run_and_step(make, [dict(until_slot=200, until_us=idle_start(32) + 1.0)])
    assert outcomes == [(False, 27)]
    assert played.trace.kinds[26] == SlotKind.SUCCESS


def test_busy_window_idle_count_reaches_the_adapter(bulk_slots):
    # alzc at twice its base halves after two windows that agree on their
    # busy count and leave at least half their slots idle.  Window 0 is
    # idle and window 1 carries the packet, so the station halves after
    # windows 2 and 3, not after 1 (almac plans never read idle counts)
    def make():
        return make_sim([waiting_station(0, pinned_lzc(8, 3, 72), 73, idle_start(8),
                                         adapter=AlzcAdapter(4, 32))])

    played, _, _ = run_and_step(make, [dict(until_slot=100)])
    assert played.trace.kinds.index(SlotKind.SUCCESS) == 10
    assert bulk_slots[played][0] == range(8, 32)


def test_almac_checkpoint_in_a_busy_window(close_calls):
    # almac at twice its base plans a probe after its f(32) = 65th window,
    # window 64, which carries the packet: the probe starts right after it
    def make():
        proto = Lmac(32, 0.95, rng(74))
        proto.slot = 5
        adapter = AlmacAdapter(16, default_f_table(), 1, 256)
        return make_sim([waiting_station(0, proto, 75, idle_start(64 * 32), adapter=adapter)])

    played, _, _ = run_and_step(make, [dict(until_slot=2200)])
    assert played.trace.kinds.index(SlotKind.SUCCESS) == 64 * 32 + 4
    assert 65 * 32 in close_calls[played]  # the probe, played


def test_dcf_arrival_as_a_slot_starts():
    # the waiting station's packet arrives just as slot 30 starts; it is sent
    # there, and slots 1 to 29 are crossed without a visit
    def make():
        dcf = Dcf(rng(56))
        dcf.counter = 0
        st = Station(0, dcf, rng(57), saturated=False, lambda_pps=LIGHT)
        st.next_arrival_us = elapsed_us([TABLE_PHY.sigma_us] * 30)
        return counted_sim(make_sim([st]))

    played, _, _ = run_and_step(make, [dict(until_slot=100)])
    assert played.trace.kinds.index(SlotKind.SUCCESS) == 30
    assert played.trace.kinds.written[:2] == [0, 30]


@pytest.mark.parametrize("protocol, kw", [
    ("lmac", {}), ("lzc", {"adaptation": "alzc"}), ("lmac", {"adaptation": "almac"}),
    ("dcf", {}),
])
def test_silent_stations_jump_the_whole_horizon(protocol, kw, close_calls, bulk_slots):
    played, stepped, _ = run_and_step(
        lambda: counted_sim(population_sim(protocol, 4, 16, 55, lambda_pps=0.0, **kw)),
        [dict(until_slot=10000)])
    assert set(played.trace.kinds) == {SlotKind.IDLE}
    if protocol == "dcf":  # each station is visited once, at its first booking
        assert played.trace.kinds.writes <= 4
    else:
        assert sum(map(len, bulk_slots[played])) > 9000
    assert len(close_calls[played]) <= len(close_calls[stepped]) / 10


# --- traffic ---------------------------------------------------------------------


def test_poisson_queue_respects_buffer():
    cfg = SimConfig(
        protocol="lmac", n=2, c=16, traffic="poisson", lambda_pps=4000.0,
        buffer=5, horizon_slots=4000, seed=29,
    )
    res = run_simulation(cfg)
    assert all(st.lost_arrivals > 0 for st in res.stations)


def test_unsaturated_delays_recorded_and_positive():
    cfg = SimConfig(
        protocol="lmac", n=2, c=8, traffic="poisson", lambda_pps=50.0,
        horizon_slots=50000, seed=30,
    )
    res = run_simulation(cfg)
    delays = [d for st in res.stations for d in st.delays_us]
    assert len(delays) > 60
    assert all(d >= 0.0 for d in delays)
    assert metrics.mean_access_delay_us(res) > 0


def test_dcf_saturated_run_is_sane():
    cfg = SimConfig(protocol="dcf", n=4, c=16, horizon_slots=4000, seed=31)
    res = run_simulation(cfg)
    norm, _ = metrics.throughput(res.trace, PhyParams(payload_bytes=1000))
    assert 0.2 < norm < 0.95
    assert ledger_violations(res) == []


def test_dcf_drop_leaves_the_next_packet_waiting_from_the_drop():
    # every frame errs, so each packet is sent RETRY_LIMIT + 1 times and then
    # dropped; the packet queued behind it waits from the end of the drop
    tries = RETRY_LIMIT + 1
    waits = []

    def errors(sim):  # the one station's errored slots
        return [u for u, kind in enumerate(sim.trace.kinds) if kind == SlotKind.ERROR]

    def check(sim):
        st = sim.stations[0]
        if st.queue:
            dropping = errors(sim)[tries - 1 :: tries][-1:]
            dropped_at = [elapsed_us(sim.trace.durations[: u + 1]) for u in dropping] or [0.0]
            assert st.head_since_us == max(st.queue[0], dropped_at[0])
            waits.append(dropped_at[0] > st.queue[0])
        return dict(until_slot=sim.slot_index + 500)

    def make():
        st = Station(0, Dcf(rng(70)), rng(71), saturated=False, lambda_pps=100.0,
                     buffer_packets=3)
        return make_sim([st], error_rate=1.0, channel_rng=rng(72))

    played, stepped, _ = run_and_step(make, [check] * 40)
    for sim in (played, stepped):
        check(sim)
        st = sim.stations[0]
        assert st.delivered == 0 and st.dropped > 0
        assert tries * st.dropped <= len(errors(sim)) < tries * (st.dropped + 1)
    assert sum(waits) > len(waits) / 2  # the drop, not the arrival, started most waits


def test_dcf_idle_wait_until_arrival():
    dcf = Dcf(rng(32))
    dcf.counter = 0
    st = Station(0, dcf, rng(33), saturated=False, lambda_pps=0.0)
    sim = make_sim([st])
    sim.run(until_slot=sim.slot_index + 5)
    assert all(k == int(SlotKind.IDLE) for k in sim.trace.kinds)
    st.queue.append(0.0)
    st.head_since_us = 0.0
    sim.step()
    assert sim.trace.kinds[-1] == SlotKind.SUCCESS


# --- joins -----------------------------------------------------------------------


def test_dcf_runs_are_not_watched_for_convergence():
    # a few DCF stations often fill C slots with clean successes; with no
    # schedule behind them that is not convergence, and a converged join waits
    for cfg in (
        SimConfig(protocol="dcf", n=4, c=16, horizon_slots=2000, seed=43),
        SimConfig(protocol="lmac", n=4, c=16, coexist_k=2, coexist_protocol="dcf",
                  join_n=2, horizon_slots=2000, seed=43),
    ):
        res = run_simulation(cfg)
        assert res.converged_slot is None and res.join_slot is None
        assert len(res.stations) == cfg.n


def test_join_after_convergence():
    cfg = SimConfig(
        protocol="lmac", n=4, c=8, join_n=2, horizon_slots=20000, seed=34,
    )
    res = run_simulation(cfg)
    assert res.join_slot is not None
    assert res.converged_slot is not None and res.join_slot > res.converged_slot
    assert res.reconverged_slot is not None
    post = res.trace.kinds[res.reconverged_slot + 8 :]
    assert all(k != int(SlotKind.COLLISION) for k in post)
    sids = {st.sid for st in res.stations}
    assert sids == set(range(6))


def test_join_at_fixed_time():
    cfg = SimConfig(
        protocol="lzc", n=2, c=8, gamma=0.5, join_n=1, join_when="0.05",
        horizon_slots=4000, seed=35,
    )
    res = run_simulation(cfg)
    assert res.join_time_us is not None
    assert res.join_time_us >= 0.05 * 1e6


def test_join_at_time_zero_enters_after_the_first_slot():
    cfg = SimConfig(protocol="lmac", n=4, c=8, join_n=2, join_when="0",
                    horizon_slots=2000, seed=35)
    res = run_simulation(cfg)
    assert res.join_slot == 1
    assert res.join_time_us == res.trace.durations[0]
    assert len(res.stations) == 6


def test_timed_join_before_convergence_converges_once():
    # the joiners enter at slot 4, long before the first six stations
    # settle, so the first collision-free schedule already holds all eight
    cfg = SimConfig(protocol="lmac", n=6, c=8, join_n=2, join_when="0.002",
                    horizon_slots=2000, seed=3)
    res = run_simulation(cfg)
    assert res.join_slot == 4
    assert res.converged_slot == res.reconverged_slot == 48


# --- horizons ----------------------------------------------------------------


def test_horizon_in_seconds():
    cfg = SimConfig(protocol="lmac", n=4, c=8, horizon_slots=None,
                    horizon_seconds=0.02, seed=36)
    res = run_simulation(cfg)
    last = res.trace.durations[-1]
    assert res.sim_time_us >= 0.02 * 1e6
    assert res.sim_time_us - last < 0.02 * 1e6


def test_horizon_in_schedules():
    cfg = SimConfig(protocol="lmac", n=4, c=8, horizon_slots=None,
                    horizon_schedules=25, seed=37)
    res = run_simulation(cfg)
    assert len(res.trace.kinds) == 25 * 8


def test_missing_horizon_rejected():
    cfg = SimConfig(protocol="lmac", n=4, c=8, horizon_slots=None, seed=38)
    with pytest.raises(ValueError):
        run_simulation(cfg)


def test_reconvergence_never_precedes_join():
    # new-entrants runs; several of them reconverge in the window that starts
    # at the join slot, where the reconvergence time is exactly zero
    exact = 0
    for base in (1, 100):
        for k in (2, 4):
            for rep in range(4):
                cfg = SimConfig(protocol="lmac", n=8, c=16, join_n=k,
                                horizon_slots=40000,
                                seed=derive_seed(base, "join", k, rep))
                res = run_simulation(cfg, stop_after_converged_schedules=2)
                assert res.reconverged_time_us is not None
                assert res.reconverged_time_us >= res.join_time_us
                if res.reconverged_slot == res.join_slot:
                    assert res.reconverged_time_us == res.join_time_us
                    exact += 1
    assert exact >= 3


# --- ledger: stations, trace and event log agree ------------------------------


def _slot_violations(tr, phy, sids):
    bad = []
    n = len(tr.kinds)
    if not len(tr.durations) == len(tr.tx_station) == len(tr.packets) == n:
        return ["trace columns differ in length"]
    collisions = {i for i, k in enumerate(tr.kinds) if k == SlotKind.COLLISION}
    if set(tr.colliders) != collisions:
        bad.append("colliders not keyed by exactly the collision slots")
    for i, kind in enumerate(tr.kinds):
        tx, pk, dur = tr.tx_station[i], tr.packets[i], tr.durations[i]
        who = tr.colliders.get(i, ())
        if kind == SlotKind.IDLE:
            ok = tx == -1 and pk == 0 and dur == phy.sigma_us
        elif kind == SlotKind.SUCCESS:
            ok = tx in sids and pk >= 1 and dur == phy.success_duration(pk)
        elif kind == SlotKind.ERROR:
            ok = tx in sids and pk == 0 and dur == phy.t_collision
        elif kind == SlotKind.COLLISION:
            ok = (tx == -1 and pk == 0 and len(who) >= 2
                  and len(set(who)) == len(who) and set(who) <= sids
                  and dur == phy.t_collision)
        else:
            ok = False
        if not ok:
            bad.append(f"slot {i}: kind {kind}, tx {tx}, packets {pk}, colliders {who}")
    return bad


def ledger_violations(result, windows=None):
    """Everything the stations, the trace and the event log disagree on.

    * every slot's kind, transmitter, packets, colliders and duration agree
      with each other;
    * each station delivered exactly the packets the trace credits to it;
    * each schedule station logged one event per window it completed, each
      window starting where the one before ended, transmitted only at its
      logged slots (at every one of them when saturated), and logged a
      success exactly when that slot was idle or held its own success.

    Fixed-length windows follow from the config.  An adaptive run's windows
    vary, so they are passed in as ``windows``: each station's completed
    windows as (start, length), read from ``run_recording_windows``.
    """
    cfg = result.config
    tr = result.trace
    phy = PhyParams(payload_bytes=cfg.payload_bytes)
    sids = {st.sid for st in result.stations}
    bad = _slot_violations(tr, phy, sids)

    credited = Counter()
    sent_at: dict[int, set[int]] = {sid: set() for sid in sids}
    for i, kind in enumerate(tr.kinds):
        for sid in transmitters_of(tr, i):
            sent_at[sid].add(i)
        if kind == SlotKind.SUCCESS:
            credited[tr.tx_station[i]] += tr.packets[i]
    for st in result.stations:
        if st.delivered != credited[st.sid]:
            bad.append(f"station {st.sid} delivered {st.delivered}, "
                       f"trace credits {credited[st.sid]}")

    if windows is None and cfg.adaptation != "none":
        raise ValueError("an adaptive run's ledger needs its windows")
    logged: dict[int, list] = {sid: [] for sid in sids}
    for ev in result.events:
        logged[ev[0]].append(ev)
    for st in result.stations:
        if st.is_dcf:
            if logged[st.sid]:
                bad.append(f"DCF station {st.sid} logged schedule events")
            continue
        start = 0 if st.sid < cfg.n else result.join_slot
        if windows is None:
            own_windows = [(w, cfg.c) for w in range(start, len(tr.kinds) - cfg.c + 1, cfg.c)]
        else:
            own_windows = windows.get(st.sid, [])
        ends = [start] + [w + length for w, length in own_windows]
        if [w for w, _ in own_windows] != ends[:-1]:
            bad.append(f"station {st.sid}: windows {own_windows[:5]} are not contiguous")
        evs = logged[st.sid]
        if len(evs) != len(own_windows):
            bad.append(f"station {st.sid}: {len(evs)} events for {len(own_windows)} windows")
        own_slots = set()
        for k, (ev, (window_start, length)) in enumerate(zip(evs, own_windows)):
            _, index, chosen_slot, outcome = ev
            if not 1 <= chosen_slot <= length:
                bad.append(f"station {st.sid} window {k}: slot {chosen_slot} of {length}")
            slot = window_start + chosen_slot - 1
            own_slots.add(slot)
            kind = tr.kinds[slot]
            won = kind == SlotKind.IDLE or (
                kind == SlotKind.SUCCESS and tr.tx_station[slot] == st.sid
            )
            if index != k or outcome != ("success" if won else "failure"):
                bad.append(f"station {st.sid} window {k}: logged {ev}, slot kind {kind}")
        closed = ends[-1]
        sent = {i for i in sent_at[st.sid] if i < closed}
        if not sent <= own_slots or (cfg.traffic == "saturated" and sent != own_slots):
            bad.append(f"station {st.sid} sent in {sorted(sent ^ own_slots)[:5]}")
    return bad


def run_recording_windows(cfg, monkeypatch):
    """``run_simulation(cfg)`` and each station's completed windows as
    (start, length, probe, committed length), read from every window closed
    one by one and every window that ``Simulator._repeat_windows`` or
    ``_clear_windows`` appends in bulk, none of them a probe."""
    windows: dict[int, list] = {}
    repeat_windows, clear_windows = Simulator._repeat_windows, Simulator._clear_windows
    record_closes(monkeypatch,
                  lambda sim, before, event: windows.setdefault(event[0], []).append(before))

    def record(sim, starts):
        for st in sim.stations:  # schedule stations all
            windows.setdefault(st.sid, []).extend(
                (a, b - a, False, b - a) for a, b in zip(starts, starts[1:]))

    def repeated(sim, s, clock, grid, *args):
        # copied windows end where ``grid`` gains starts
        t, clock = repeat_windows(sim, s, clock, grid, *args)
        record(sim, [s] + [u for u in grid if s < u <= t])
        return t, clock

    def clear(sim, s, *args):
        length = sim.stations[0].window_len
        t, clock = clear_windows(sim, s, *args)
        record(sim, range(s, t + 1, length))
        return t, clock

    monkeypatch.setattr(Simulator, "_repeat_windows", repeated)
    monkeypatch.setattr(Simulator, "_clear_windows", clear)
    return run_simulation(cfg), windows


def window_ledger_violations(res, windows):
    """``ledger_violations`` against recorded windows, and every window at
    the station's committed length, or at half of it in a probe."""
    return ledger_violations(
        res, {sid: [(w, length) for w, length, _, _ in ws] for sid, ws in windows.items()}
    ) + [
        f"station {sid} window {k}: {w}" for sid, ws in windows.items()
        for k, w in enumerate(ws) if w[1] != (w[3] // 2 if w[2] else w[3])
    ]


ADAPTIVE_CASES = {  # the golden alzc and almac configs, on other seeds too
    "alzc": dict(protocol="lzc", n=10, b=4, adaptation="alzc", horizon_slots=1500),
    # N = 2b: the (4, 8, 8) limit cycle, copied a whole cycle at a time
    "alzc-cycle": dict(protocol="lzc", n=8, b=4, adaptation="alzc", horizon_slots=1500),
    "almac": dict(protocol="lmac", n=20, b=16, adaptation="almac", probe_period=1,
                  horizon_slots=4000),
}


@pytest.mark.parametrize("case", sorted(ADAPTIVE_CASES))
@pytest.mark.parametrize("seed", [17, 18, 101, 102])
def test_ledger_holds_on_adaptive_runs(case, seed, monkeypatch):
    cfg = SimConfig(c=None, seed=seed, **ADAPTIVE_CASES[case])
    res, windows = run_recording_windows(cfg, monkeypatch)
    assert window_ledger_violations(res, windows) == []
    lengths = {length for ws in windows.values() for _, length, _, _ in ws}
    probes = sum(probe for ws in windows.values() for _, _, probe, _ in ws)
    assert len(lengths) > 1  # the adapters moved the windows
    assert (probes > 0) == (case == "almac")


@hst.composite
def small_configs(draw):
    """Fixed-length configs of every protocol, alzc on lzc or zc with base 4
    or 8, and almac on lmac with base 16."""
    adaptation = draw(hst.sampled_from(("none", "alzc", "almac")))
    protocol, c, b = draw(hst.sampled_from(PROTOCOLS)), draw(hst.integers(2, 8)), None
    if adaptation == "alzc":
        protocol, c = draw(hst.sampled_from(("lzc", "zc"))), None
        b = draw(hst.sampled_from((4, 8)))
    elif adaptation == "almac":
        protocol, c, b = "lmac", None, 16
    n = draw(hst.integers(1, 8))
    coexist_k = draw(hst.integers(0, n))
    poisson = draw(hst.booleans())
    join_n = draw(hst.integers(0, 2))
    return SimConfig(
        protocol=protocol,
        n=n,
        c=c,
        b=b,
        adaptation=adaptation,
        gamma=0.5,
        traffic="poisson" if poisson else "saturated",
        lambda_pps=draw(hst.sampled_from((300.0, 3000.0))) if poisson else 0.0,
        buffer=draw(hst.integers(1, 4)),
        error_rate=draw(hst.sampled_from((0.0, 0.2))),
        coexist_k=coexist_k,
        coexist_protocol=draw(hst.sampled_from(PROTOCOLS)) if coexist_k else None,
        join_n=join_n,
        join_when=draw(hst.sampled_from(("converged", "0.002"))),
        horizon_slots=draw(hst.integers(1, 400)),
        seed=draw(hst.integers(0, 10**6)),
    )


@settings(max_examples=80, deadline=None)
@given(small_configs())
def test_ledger_holds_on_random_configs(cfg):
    if cfg.adaptation == "none":
        assert ledger_violations(run_simulation(cfg)) == []
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        res, windows = run_recording_windows(cfg, monkeypatch)
    assert window_ledger_violations(res, windows) == []
