"""Builds and runs simulations from validated configs.

Owns the slot engine's seed derivation (one stream per station, which also
feeds its Poisson arrivals, and one for the channel), horizon handling,
mid-run station joins, and the packaging of results for the metrics layer.
Given the same config and replication index the produced trace is identical
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptation import AlmacAdapter, AlzcAdapter, default_f_table, load_f_table
from .config import SimConfig, derive_seed, resolve
from .engine import Event, Simulator, Station, Trace, elapsed_us
from .protocols import init_protocol


@dataclass
class RunResult:
    """One replication: the config as given, and the engine's own trace,
    events and stations, which ran ``resolve(config)``."""

    config: SimConfig
    trace: Trace
    events: list[Event]
    stations: list[Station]
    sim_time_us: float
    converged_slot: int | None
    join_slot: int | None
    join_time_us: float | None
    reconverged_slot: int | None
    reconverged_time_us: float | None


def _make_station(
    cfg: SimConfig, sid: int, run_seed: int, start_time_us: float = 0.0
) -> Station:
    """Station ``sid`` of the run on ``run_seed``, on its own stream (run_seed, sid)."""
    kind = cfg.coexist_protocol if sid < cfg.coexist_k else cfg.protocol
    rng = np.random.default_rng(derive_seed(run_seed, sid))
    protocol = init_protocol(kind, cfg.schedule_len, rng, beta=cfg.beta, gamma=cfg.gamma)
    adapter = None
    if cfg.adaptation != "none" and kind != "dcf":
        max_len = cfg.b * 2**cfg.c_max_exp
        if cfg.adaptation == "alzc":
            adapter = AlzcAdapter(cfg.b, max_len)
        else:
            f_table = load_f_table(cfg.f_table) if cfg.f_table else default_f_table()
            adapter = AlmacAdapter(cfg.b, f_table, cfg.probe_period, max_len)
    return Station(
        sid,
        protocol,
        rng,
        saturated=cfg.traffic == "saturated",
        lambda_pps=cfg.lambda_pps,
        buffer_packets=cfg.buffer,
        adapter=adapter,
        start_time_us=start_time_us,
    )


def run_simulation(
    cfg: SimConfig,
    rep_index: int = 0,
    stop_after_converged_schedules: int | None = None,
) -> RunResult:
    """One seeded replication of the configured experiment, played in phases.

    1. converge: run until the first ``n`` stations hold a collision-free
       schedule, or until the join time;
    2. join: the ``join_n`` joiners enter together at the next slot, at the
       join time or on convergence;
    3. reconverge: run until all ``n + join_n`` stations, watched from the
       join slot, hold a collision-free schedule;
    4. trim: with ``stop_after_converged_schedules`` the run ends that many
       schedules after (re)convergence, which the new-entrants scenario uses
       to skip dead air;
    5. run on to the horizon.

    DCF stations have no schedule to converge to, so runs with any are never
    watched.  The watch spans one base schedule of ``cfg.schedule_len``
    slots, so an adaptive run with more stations than ``b`` has a watch that
    cannot fire: the engine treats it as no watch, the run never reports
    convergence, and its settled windows are copied in bulk.
    """
    run_seed = derive_seed(cfg.seed, rep_index)
    channel_rng = (
        np.random.default_rng(np.random.SeedSequence(derive_seed(run_seed, "channel")))
        if cfg.error_rate > 0.0
        else None
    )

    station_cfg = resolve(cfg)
    stations = [_make_station(station_cfg, sid, run_seed) for sid in range(cfg.n)]
    sim = Simulator(stations, cfg.phy, error_rate=cfg.error_rate, channel_rng=channel_rng)

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

    def play(stop_us: float = math.inf, watch_n: int | None = None, watch_from: int = 0):
        """Unless the horizon is reached, run at least one slot, on to the
        horizon or ``stop_us``; watching ``watch_n`` stations from
        ``watch_from``, stop early and return the first slot of the first
        collision-free schedule."""
        if sim.slot_index >= until_slot or sim.clock_us >= until_us:
            return None
        hit = sim.run(
            until_slot=until_slot,
            until_us=min(until_us, stop_us),
            watch_n=None if "dcf" in cfg.kinds else watch_n,
            watch_len=schedule_len,
            watch_from=watch_from,
        )
        return sim.slot_index - schedule_len if hit else None

    join_at_us = math.inf  # a join on convergence has no time of its own
    if cfg.join_n > 0 and cfg.join_when != "converged":
        join_at_us = float(cfg.join_when) * 1e6
    join_slot = join_time = reconverged_slot = reconverged_time = None

    converged_slot = play(join_at_us, cfg.n)
    if sim.clock_us < join_at_us < math.inf:
        play(join_at_us)  # converged early: wait out the join time unwatched
    if cfg.join_n > 0 and (
        sim.clock_us >= join_at_us
        or (cfg.join_when == "converged" and converged_slot is not None)
    ):
        join_slot, join_time = sim.slot_index, sim.clock_us
        for sid in range(cfg.n, cfg.n + cfg.join_n):
            sim.add_station(_make_station(station_cfg, sid, run_seed, join_time))
        reconverged_slot = play(watch_n=cfg.n + cfg.join_n, watch_from=join_slot)
        if reconverged_slot is not None:
            if converged_slot is None:  # joined before the first convergence
                converged_slot = reconverged_slot
            reconverged_time = join_time + elapsed_us(
                sim.trace.durations[join_slot:reconverged_slot]
            )

    settled_slot = reconverged_slot if cfg.join_n > 0 else converged_slot
    if settled_slot is not None and stop_after_converged_schedules is not None:
        extra = max(stop_after_converged_schedules * schedule_len - 1, 0)
        until_slot = min(until_slot, sim.slot_index + extra)
    play()

    return RunResult(
        config=cfg,
        trace=sim.trace,
        events=sim.events,
        stations=sim.stations,
        sim_time_us=sim.clock_us,
        converged_slot=converged_slot,
        join_slot=join_slot,
        join_time_us=join_time,
        reconverged_slot=reconverged_slot,
        reconverged_time_us=reconverged_time,
    )
