"""Slot engine mechanics: resolution, observation windows, counters, traffic."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from macsim.config import PROTOCOLS, SimConfig, derive_seed
from macsim.engine import Simulator, Station, elapsed_us
from macsim.phy import TABLE_PHY, PhyParams, SlotKind
from macsim.protocols import Dcf, Lmac, Lzc, backoff_from_slots, init_protocol
from macsim.runner import run_simulation
from macsim import metrics


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
    for st in sts:
        st.counter = 0
    sim = make_sim(sts)
    sim.step()
    assert sim.trace.kinds == [SlotKind.COLLISION]
    assert set(sim.trace.transmitters_of(0)) == {1, 2}
    assert sim.trace.durations[0] == pytest.approx(TABLE_PHY.t_collision)


def test_single_ready_station_succeeds():
    sts = [Station(1, pinned_lzc(4, 1, 3), rng(13))]
    sts[0].counter = 0
    sim = make_sim(sts)
    sim.step()
    assert sim.trace.kinds == [SlotKind.SUCCESS]
    assert sim.trace.transmitters_of(0) == (1,)
    assert sim.trace.packets == [1]
    assert sim.trace.durations[0] == pytest.approx(896.0, abs=1e-9)


def test_no_ready_station_idles():
    sts = [Station(1, pinned_lzc(4, 2, 4), rng(14))]
    sts[0].counter = 3
    sim = make_sim(sts)
    sim.step()
    assert sim.trace.kinds == [SlotKind.IDLE]
    assert sim.trace.durations == [20.0]


def test_error_rate_one_turns_success_into_error():
    sts = [Station(1, pinned_lzc(4, 1, 5), rng(15))]
    sts[0].counter = 0
    sim = make_sim(sts, error_rate=1.0, channel_rng=rng(16))
    sim.step()
    assert sim.trace.kinds == [SlotKind.ERROR]
    assert sim.trace.durations[0] == pytest.approx(TABLE_PHY.t_collision)
    assert sts[0].delivered == 0


# --- observation window ------------------------------------------------------


class RecordingProtocol:
    """Captures schedule-end callbacks for window inspection."""

    kind = "recording"

    def __init__(self, schedule_len, slot):
        self.schedule_len = schedule_len
        self.slot = slot
        self.calls = []

    def current_slot(self):
        return self.slot

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
        for sid in tr.transmitters_of(i):
            tx_slots.setdefault(sid, []).append(i)
    by_station: dict[int, list] = {}
    for ev in result.events:
        by_station.setdefault(ev.station, []).append(ev)
    for sid, slots in tx_slots.items():
        evs = by_station[sid]
        for k in range(len(slots) - 1):
            gap = slots[k + 1] - slots[k]
            want = backoff_from_slots(evs[k].chosen_slot, evs[k + 1].chosen_slot, 8)
            assert gap == want
            assert 1 <= gap <= 15


def test_station_transmits_once_per_schedule_when_saturated():
    cfg = SimConfig(protocol="lzc", n=3, c=6, gamma=0.5, horizon_slots=600, seed=22)
    result = run_simulation(cfg)
    tr = result.trace
    for start in range(0, 600 - 6, 6):
        counts: dict[int, int] = {}
        for i in range(start, start + 6):
            for sid in tr.transmitters_of(i):
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
    assert res.sim_time_us == res.trace.sim_time_us


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
    for ev in run_simulation(cfg2).events:
        if ev.schedule_index == 0:
            first2[ev.station] = ev.chosen_slot
    first3 = {}
    for ev in run_simulation(cfg3).events:
        if ev.schedule_index == 0 and ev.station < 2:
            first3[ev.station] = ev.chosen_slot
    assert first2 == first3


# --- absorbed-schedule replay ------------------------------------------------------


def replay_sim(protocol, n, c, seed):
    """``n`` saturated stations; ``c`` is one schedule length or one per station."""
    lengths = [c] * n if isinstance(c, int) else c
    stations = []
    for sid in range(n):
        station_rng = rng(derive_seed(seed, sid))
        proto = init_protocol(protocol, lengths[sid], station_rng, gamma=0.5)
        stations.append(Station(sid, proto, station_rng))
    return Simulator(stations, TABLE_PHY)


def sim_state(sim):
    tr = sim.trace
    return {
        "trace": (tr.kinds, tr.durations, tr.tx_station, tr.packets, tr.coll_sizes,
                  tr.colliders),
        "events": sim.events,
        "clock": sim.clock_us,
        "slot": sim.slot_index,
        "stations": [
            (st.delivered, st.schedule_index, st.counter, st.window_len,
             st.window_start, st.tx_slot, st.protocol.current_slot(),
             getattr(st.protocol, "p", np.zeros(0)).tolist(),
             st.rng.bit_generator.state)
            for st in sim.stations
        ],
    }


@pytest.fixture
def close_calls(monkeypatch):
    """Window starts of every ``Station.close_window`` call, in call order."""
    starts = []
    close_window = Station.close_window

    def counted(st, *args):
        starts.append(st.window_start)
        return close_window(st, *args)

    monkeypatch.setattr(Station, "close_window", counted)
    return starts


@pytest.mark.parametrize("protocol, n, c, seed, bounds", [
    ("lbeb", 1, 4, 1, (203,)),
    ("lbeb", 3, 8, 2, (1001, 2403)),
    ("zc", 5, 8, 3, (999, 1600)),
    ("lzc", 8, 8, 4, (1203,)),
    ("lmac", 1, 2, 5, (99,)),
    ("lmac", 6, 8, 6, (517, 1800)),
])
def test_replay_matches_stepping(protocol, n, c, seed, bounds, close_calls):
    stepped = replay_sim(protocol, n, c, seed)
    while stepped.slot_index < bounds[-1]:
        stepped.step()
    stepped_calls = len(close_calls)
    replayed = replay_sim(protocol, n, c, seed)
    for bound in bounds:
        replayed.run(until_slot=bound)
    assert sim_state(replayed) == sim_state(stepped)
    assert len(close_calls) - stepped_calls < stepped_calls / 2


def test_no_replay_across_unequal_windows(close_calls):
    # lengths 4 and 8 end windows together at every eighth slot, from
    # different starts, so the shared trace never repeats window by window
    stepped = replay_sim("lbeb", 2, (4, 8), 8)
    while stepped.slot_index < 800:
        stepped.step()
    stepped_calls = len(close_calls)
    replayed = replay_sim("lbeb", 2, (4, 8), 8)
    replayed.run(until_slot=800)
    assert stepped.trace.kinds[-8:].count(SlotKind.SUCCESS) == 3  # settled
    assert sim_state(replayed) == sim_state(stepped)
    assert len(close_calls) == 2 * stepped_calls


def test_replay_stops_before_time_bound(close_calls):
    stepped = replay_sim("lzc", 4, 8, 7)
    replayed = replay_sim("lzc", 4, 8, 7)
    until_us = 1.5e5 + 3.0
    while stepped.clock_us < until_us:
        stepped.step()
    replayed.run(until_us=until_us)
    assert sim_state(replayed) == sim_state(stepped)
    assert len(close_calls) < 1.5 * len(stepped.events)


def test_replay_fires_after_convergence(close_calls):
    n = c = 16
    res = run_simulation(SimConfig(protocol="lmac", n=n, c=c, horizon_slots=20000,
                                   seed=3))
    assert res.converged_slot is not None and res.converged_slot < 2000
    assert len(res.events) == n * 20000 // c
    # the first collision-free window is watched, the next one is stepped and
    # found absorbed, and every later window is replayed
    assert sum(start > res.converged_slot for start in close_calls) <= n
    assert ledger_violations(res) == []


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


def test_dcf_idle_wait_until_arrival():
    dcf = Dcf(rng(32))
    st = Station(0, dcf, rng(33), saturated=False, lambda_pps=0.0)
    st.counter = 0
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
    if not (len(tr.durations) == len(tr.tx_station) == len(tr.packets)
            == len(tr.coll_sizes) == n):
        return ["trace columns differ in length"]
    collisions = {i for i, k in enumerate(tr.kinds) if k == SlotKind.COLLISION}
    if set(tr.colliders) != collisions:
        bad.append("colliders not keyed by exactly the collision slots")
    for i, kind in enumerate(tr.kinds):
        tx, pk, size, dur = tr.tx_station[i], tr.packets[i], tr.coll_sizes[i], tr.durations[i]
        if kind == SlotKind.IDLE:
            ok = tx == -1 and pk == 0 and size == 0 and dur == phy.sigma_us
        elif kind == SlotKind.SUCCESS:
            ok = (tx in sids and pk >= 1 and size == 0
                  and dur == phy.success_duration(pk))
        elif kind == SlotKind.ERROR:
            ok = tx in sids and pk == 0 and size == 0 and dur == phy.t_collision
        elif kind == SlotKind.COLLISION:
            who = tr.colliders.get(i, ())
            ok = (tx == -1 and pk == 0 and size == len(who) >= 2
                  and len(set(who)) == len(who) and set(who) <= sids
                  and dur == phy.t_collision)
        else:
            ok = False
        if not ok:
            bad.append(f"slot {i}: kind {kind}, tx {tx}, packets {pk}, size {size}")
    return bad


def ledger_violations(result):
    """Everything the stations, the trace and the event log disagree on.

    * every slot's kind, transmitter, packets, collision size, colliders and
      duration agree with each other;
    * each station delivered exactly the packets the trace credits to it;
    * on fixed-length runs each schedule station logged one event per window
      it completed, transmitted only at its logged slots (at every one of
      them when saturated), and logged a success exactly when that slot was
      idle or held its own success.
    """
    cfg = result.config
    tr = result.trace
    phy = PhyParams(payload_bytes=cfg.payload_bytes)
    sids = {st.sid for st in result.stations}
    bad = _slot_violations(tr, phy, sids)

    credited = Counter()
    sent_at: dict[int, set[int]] = {sid: set() for sid in sids}
    for i, kind in enumerate(tr.kinds):
        for sid in tr.transmitters_of(i):
            sent_at[sid].add(i)
        if kind == SlotKind.SUCCESS:
            credited[tr.tx_station[i]] += tr.packets[i]
    for st in result.stations:
        if st.delivered != credited[st.sid]:
            bad.append(f"station {st.sid} delivered {st.delivered}, "
                       f"trace credits {credited[st.sid]}")

    if cfg.adaptation != "none":
        return bad
    length = cfg.c
    logged: dict[int, list] = {sid: [] for sid in sids}
    for ev in result.events:
        logged[ev.station].append(ev)
    for st in result.stations:
        if st.protocol == "dcf":
            if logged[st.sid]:
                bad.append(f"DCF station {st.sid} logged schedule events")
            continue
        start = 0 if st.sid < cfg.n else result.join_slot
        evs = logged[st.sid]
        if len(evs) != (len(tr.kinds) - start) // length:
            bad.append(f"station {st.sid}: {len(evs)} events for "
                       f"{(len(tr.kinds) - start) // length} windows")
        own_slots = set()
        for k, ev in enumerate(evs):
            slot = start + k * length + ev.chosen_slot - 1
            own_slots.add(slot)
            kind = tr.kinds[slot]
            won = kind == SlotKind.IDLE or (
                kind == SlotKind.SUCCESS and tr.tx_station[slot] == st.sid
            )
            if ev.schedule_index != k or ev.outcome != ("success" if won else "failure"):
                bad.append(f"station {st.sid} window {k}: logged {ev}, slot kind {kind}")
        closed = start + len(evs) * length
        sent = {i for i in sent_at[st.sid] if i < closed}
        if not sent <= own_slots or (cfg.traffic == "saturated" and sent != own_slots):
            bad.append(f"station {st.sid} sent in {sorted(sent ^ own_slots)[:5]}")
    return bad


@hst.composite
def small_configs(draw):
    protocol = draw(hst.sampled_from(PROTOCOLS))
    n = draw(hst.integers(1, 8))
    coexist_k = draw(hst.integers(0, n))
    poisson = draw(hst.booleans())
    join_n = draw(hst.integers(0, 2))
    return SimConfig(
        protocol=protocol,
        n=n,
        c=draw(hst.integers(2, 8)),
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
    assert ledger_violations(run_simulation(cfg)) == []
