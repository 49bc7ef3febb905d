"""Builds and runs simulations from validated configs.

Owns seed derivation (one stream per station, one for the channel), horizon
handling, mid-run station joins, and the packaging of results for the
metrics layer.  Given the same config and replication index the produced
trace is identical byte for byte.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .adaptation import AlmacAdapter, AlzcAdapter, FTable
from .config import SimConfig, derive_seed
from .engine import EventRecord, Simulator, Station, Trace, elapsed_us
from .phy import PhyParams
from .protocols import init_protocol


@dataclass
class StationStats:
    sid: int
    protocol: str
    delivered: int
    dropped: int
    lost_arrivals: int
    delays_us: list[float]
    final_len: int
    final_slot: int | None


@dataclass
class RunResult:
    config: SimConfig
    rep_index: int
    run_seed: int
    trace: Trace
    events: list[EventRecord]
    stations: list[StationStats]
    sim_time_us: float
    converged_slot: int | None
    join_slot: int | None
    join_time_us: float | None
    reconverged_slot: int | None
    reconverged_time_us: float | None


def default_f_table() -> FTable:
    """Packaged convergence-horizon table for base length 16."""
    ref = importlib.resources.files("macsim.data").joinpath("ftable_b16.csv")
    with importlib.resources.as_file(ref) as path:
        return FTable.load_csv(path)


def _make_station(
    cfg: SimConfig,
    sid: int,
    run_seed: int,
    protocol_kind: str,
    f_table: FTable | None,
    start_time_us: float = 0.0,
) -> Station:
    rng = np.random.default_rng(np.random.SeedSequence(derive_seed(run_seed, sid)))
    adapter = None
    txop_base = None
    schedule_len = cfg.c
    if cfg.adaptation != "none" and protocol_kind != "dcf":
        schedule_len = cfg.b
        txop_base = cfg.b
        max_len = cfg.b * 2**cfg.c_max_exp
        if cfg.adaptation == "alzc":
            adapter = AlzcAdapter(cfg.b, max_len=max_len)
        else:
            assert f_table is not None
            adapter = AlmacAdapter(
                cfg.b, f_table, probe_period=cfg.probe_period, max_len=max_len
            )
    protocol = init_protocol(
        protocol_kind, schedule_len, rng, beta=cfg.beta, gamma=cfg.gamma
    )
    return Station(
        sid,
        protocol,
        rng,
        saturated=cfg.traffic == "saturated",
        lambda_pps=cfg.lambda_pps,
        buffer_packets=cfg.buffer,
        adapter=adapter,
        txop_base=txop_base,
        start_time_us=start_time_us,
    )


def run_simulation(
    cfg: SimConfig,
    rep_index: int = 0,
    f_table: FTable | None = None,
    stop_after_converged_schedules: int | None = None,
) -> RunResult:
    """One seeded replication of the configured experiment.

    With ``join_n`` set, the first ``n`` stations run until they reach a
    collision-free schedule (or the configured join time passes) and the
    joiners then enter together at the next slot.  With
    ``stop_after_converged_schedules`` the run ends that many schedules after
    convergence instead of at the full horizon, which the fixed-length
    throughput scenarios use to skip dead air.
    """
    if cfg.adaptation == "almac" and f_table is None:
        f_table = FTable.load_csv(cfg.f_table) if cfg.f_table else default_f_table()

    run_seed = derive_seed(cfg.seed, rep_index)
    channel_rng = (
        np.random.default_rng(np.random.SeedSequence(derive_seed(run_seed, "channel")))
        if cfg.error_rate > 0.0
        else None
    )

    kinds = [cfg.protocol] * cfg.n
    if cfg.coexist_k > 0:
        assert cfg.coexist_protocol is not None
        kinds = [cfg.coexist_protocol] * cfg.coexist_k + kinds[cfg.coexist_k :]

    stations = [
        _make_station(cfg, sid, run_seed, kinds[sid], f_table) for sid in range(cfg.n)
    ]
    sim = Simulator(
        stations,
        PhyParams(payload_bytes=cfg.payload_bytes),
        error_rate=cfg.error_rate,
        channel_rng=channel_rng,
    )

    schedule_len = cfg.schedule_len
    if cfg.horizon_slots is not None:
        until_slot = cfg.horizon_slots
    elif cfg.horizon_schedules is not None:
        until_slot = cfg.horizon_schedules * schedule_len
    elif cfg.horizon_seconds is None:
        raise ValueError("config sets no horizon (slots, schedules or seconds)")
    else:
        until_slot = math.inf
    until_us = math.inf if cfg.horizon_seconds is None else cfg.horizon_seconds * 1e6

    converged_slot = join_slot = join_time = None
    reconverged_slot = reconverged_time = None

    n_active = cfg.n
    join_pending = cfg.join_n > 0
    timed_join = join_pending and cfg.join_when != "converged"
    join_at_us = float(cfg.join_when) * 1e6 if timed_join else math.inf
    watch_from = 0  # the collision-free watch restarts when stations join
    can_converge = not cfg.runs_dcf  # DCF has no schedule to converge to
    durations = sim.trace.durations
    while sim.slot_index < until_slot and sim.clock_us < until_us:
        watching = can_converge and (
            converged_slot is None or (join_slot is not None and reconverged_slot is None)
        )
        hit = sim.run(
            until_slot=until_slot,
            until_us=min(until_us, join_at_us),
            watch_n=n_active if watching else None,
            watch_len=schedule_len,
            watch_from=watch_from,
        )

        settled = False
        if hit and converged_slot is None:
            converged_slot = sim.slot_index - schedule_len
            settled = not join_pending

        if join_pending and (
            sim.clock_us >= join_at_us if timed_join else converged_slot is not None
        ):
            join_pending = False
            join_at_us = math.inf
            join_slot = sim.slot_index
            join_time = sim.clock_us
            for k in range(cfg.join_n):
                sim.add_station(
                    _make_station(
                        cfg, cfg.n + k, run_seed, cfg.protocol, f_table, sim.clock_us
                    )
                )
            n_active += cfg.join_n
            watch_from = join_slot
            hit = False

        if hit and join_slot is not None and reconverged_slot is None:
            reconverged_slot = sim.slot_index - schedule_len
            reconverged_time = join_time + elapsed_us(
                durations[join_slot:reconverged_slot]
            )
            settled = True

        if settled and stop_after_converged_schedules is not None:
            extra = max(stop_after_converged_schedules * schedule_len - 1, 0)
            until_slot = min(until_slot, sim.slot_index + extra)

    station_stats = [
        StationStats(
            sid=st.sid,
            protocol=st.protocol.kind,
            delivered=st.delivered,
            dropped=st.dropped,
            lost_arrivals=st.lost_arrivals,
            delays_us=st.delays_us,
            final_len=st.window_len if not st.is_dcf else 0,
            final_slot=None if st.is_dcf else st.protocol.current_slot(),
        )
        for st in sim.stations
    ]
    return RunResult(
        config=cfg,
        rep_index=rep_index,
        run_seed=run_seed,
        trace=sim.trace,
        events=sim.events,
        stations=station_stats,
        sim_time_us=sim.clock_us,
        converged_slot=converged_slot,
        join_slot=join_slot,
        join_time_us=join_time,
        reconverged_slot=reconverged_slot,
        reconverged_time_us=reconverged_time,
    )
