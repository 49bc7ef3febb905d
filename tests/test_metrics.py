"""Trace post-processing: convergence detection, fairness, rates, delay."""

from dataclasses import replace

import numpy as np
import pytest

from macsim import markov, metrics
from macsim.config import SimConfig
from macsim.engine import Trace
from macsim.phy import TABLE_PHY, PhyParams, SlotKind
from macsim.runner import run_simulation
from oracles import detect_convergence_from_events


def make_trace(slots):
    """slots: list of ('idle'|'error'|('succ', sid, m)|('coll', ids)) entries."""
    tr = Trace()
    phy = TABLE_PHY
    for entry in slots:
        i = len(tr.kinds)
        if entry == "idle":
            tr.kinds.append(int(SlotKind.IDLE))
            tr.durations.append(phy.sigma_us)
            tr.tx_station.append(-1)
            tr.packets.append(0)
        elif entry == "error":
            tr.kinds.append(int(SlotKind.ERROR))
            tr.durations.append(phy.t_collision)
            tr.tx_station.append(0)
            tr.packets.append(0)
        elif entry[0] == "succ":
            _, sid, m = entry
            tr.kinds.append(int(SlotKind.SUCCESS))
            tr.durations.append(phy.success_duration(m))
            tr.tx_station.append(sid)
            tr.packets.append(m)
        else:
            _, ids = entry
            tr.kinds.append(int(SlotKind.COLLISION))
            tr.durations.append(phy.t_collision)
            tr.tx_station.append(-1)
            tr.packets.append(0)
            tr.colliders[i] = tuple(ids)
    return tr


# --- convergence detection ---------------------------------------------------


def test_detectors_agree_on_engine_runs():
    # the engine's watch (ceil(converged_slot / C), guarded against a
    # horizon that cuts that schedule short) and the event log name the same
    # first collision-free schedule: on full runs, on runs cut right after the
    # watch's window, and on runs cut at the end of the named schedule
    c = 5
    unaligned = 0
    for protocol in ("lbeb", "zc", "lzc", "lmac"):
        for n in (1, c, c + 2):
            for seed in range(6):
                cfg = SimConfig(protocol=protocol, n=n, c=c,
                                gamma=0.5 if protocol == "lzc" else None,
                                horizon_slots=3000, seed=seed)
                res = run_simulation(cfg)
                k, _ = metrics.detect_convergence(res)
                assert k == detect_convergence_from_events(res.events, n)
                if k is None:
                    continue
                unaligned += res.converged_slot % c != 0
                for horizon in (res.converged_slot + c, (k + 1) * c):
                    cut = run_simulation(replace(cfg, horizon_slots=horizon))
                    got, _ = metrics.detect_convergence(cut)
                    assert got == detect_convergence_from_events(cut.events, n), (
                        protocol, n, seed, horizon)
    assert unaligned > 0  # some windows start mid-schedule, so the rounding shows


def test_engine_mean_matches_chain_for_two_stations():
    # chain expectation counts schedules through the first collision-free
    # one, i.e. window index + 1
    runs = 10_000
    total = 0
    for seed in range(runs):
        cfg = SimConfig(protocol="lzc", n=2, c=2, gamma=0.5, horizon_slots=400,
                        seed=seed)
        res = run_simulation(cfg, stop_after_converged_schedules=1)
        k, _ = metrics.detect_convergence(res)
        assert k is not None
        total += k + 1
    mean = total / runs
    chain = markov.build_chain(2, 2, 0.5)
    want = markov.mean_convergence(chain)
    assert abs(mean - want) <= 3.5 * np.sqrt(2.0 / runs)


# --- fairness -----------------------------------------------------------------


def test_jain_alternating_is_fair():
    seq = [1, 2] * 40
    for m in range(1, 5):
        assert metrics.jain_index(seq, 2, m) == pytest.approx(1.0)


def test_jain_two_successes_one_station():
    assert metrics.jain_index([1, 1], 2, 1) == pytest.approx(0.5)


def test_jain_monopoly_floor():
    for n in (2, 4, 8):
        seq = [3 % n] * (n * 6)
        assert metrics.jain_index(seq, n, 2) == pytest.approx(1.0 / n)


def test_jain_short_sequence_is_missing():
    assert metrics.jain_index([1, 2, 1], 2, 2) is None


def test_jain_bounds_random_sequences():
    r = np.random.default_rng(3)
    for _ in range(50):
        n = int(r.integers(2, 9))
        seq = list(r.integers(0, n, size=n * 12))
        f = metrics.jain_index(seq, n, int(r.integers(1, 4)))
        assert 1.0 / n - 1e-12 <= f <= 1.0 + 1e-12


# --- rates and throughput -------------------------------------------------------


def test_collision_rate_cases():
    assert metrics.collision_rate(make_trace([("succ", 1, 1)] * 4)) == 0.0
    tr = make_trace([("coll", (1, 2)), ("succ", 1, 1)])
    assert metrics.collision_rate(tr) == pytest.approx(2 / 3)
    assert metrics.collision_rate(make_trace(["idle", "idle"])) is None
    # an errored frame is an attempt but not a collision
    tr2 = make_trace(["error", ("succ", 1, 1)])
    assert metrics.collision_rate(tr2) == 0.0


def test_throughput_all_success():
    tr = make_trace([("succ", 1, 1)] * 10)
    norm, mbps = metrics.throughput(tr, TABLE_PHY)
    assert norm == pytest.approx(TABLE_PHY.payload_us / TABLE_PHY.t_success)
    assert mbps == pytest.approx(norm * 11.0)


def test_throughput_all_idle_is_zero():
    tr = make_trace(["idle"] * 5)
    norm, mbps = metrics.throughput(tr, TABLE_PHY)
    assert norm == 0.0 and mbps == 0.0


def test_throughput_empty_range_rejected():
    tr = make_trace([("succ", 1, 1)])
    with pytest.raises(ValueError):
        metrics.throughput(tr, TABLE_PHY, start_slot=1, end_slot=1)


def test_throughput_txop_counts_packets():
    tr = make_trace([("succ", 1, 2)] * 4)
    norm, _ = metrics.throughput(tr, TABLE_PHY)
    want = 2 * TABLE_PHY.payload_us / TABLE_PHY.success_duration(2)
    assert norm == pytest.approx(want)


def test_converged_run_matches_underloaded_model():
    cfg = SimConfig(protocol="lmac", n=8, c=8, horizon_slots=6000, seed=77,
                    payload_bytes=1020)
    res = run_simulation(cfg)
    k, _ = metrics.detect_convergence(res)
    norm, _ = metrics.throughput(res.trace, PhyParams(), start_slot=k * 8)
    from macsim.throughput import throughput_underloaded

    assert norm == pytest.approx(throughput_underloaded(8, 8, PhyParams()), rel=1e-6)


# --- load estimation -------------------------------------------------------------


def test_rho_small_at_light_load():
    cfg = SimConfig(protocol="lmac", n=2, c=8, traffic="poisson", lambda_pps=20.0,
                    horizon_slots=60000, seed=40)
    res = run_simulation(cfg)
    rhos = metrics.station_rho(res, 20.0)
    assert len(rhos) == 2
    assert max(rhos) < 0.2


def test_achievable_rate_grid_monotone_wrapper():
    cfg = SimConfig(protocol="lmac", n=2, c=4, horizon_slots=30000, seed=41)
    lam = metrics.achievable_rate(cfg, 10.0, 2000.0, seed=3, iterations=4)
    assert 10.0 <= lam <= 2000.0


# --- run metrics row ---------------------------------------------------------------


def test_single_station_delay_bounded_by_one_schedule():
    # a lone low-rate station waits at most one schedule plus its own slot
    cfg = SimConfig(protocol="lmac", n=1, c=16, traffic="poisson", lambda_pps=30.0,
                    horizon_slots=80000, seed=42)
    res = run_simulation(cfg)
    delay = metrics.mean_access_delay_us(res)
    assert delay is not None
    max_slot = TABLE_PHY.t_collision
    assert delay < 16 * max_slot


def test_dcf_collision_rate_exceeds_converged_learner():
    dcf_cfg = SimConfig(protocol="dcf", n=16, c=16, horizon_slots=8000, seed=43)
    dcf_rate = metrics.collision_rate(run_simulation(dcf_cfg).trace)
    lmac_cfg = SimConfig(protocol="lmac", n=16, c=16, horizon_slots=40000, seed=43)
    res = run_simulation(lmac_cfg)
    k, _ = metrics.detect_convergence(res)
    assert k is not None
    post = res.trace
    post_rate_attempts = [
        post.kinds[i] for i in range(k * 16, len(post.kinds))
    ]
    assert all(kk != int(SlotKind.COLLISION) for kk in post_rate_attempts)
    assert dcf_rate > 0.0


def test_stability_bound_on_achievable_rate():
    # a stable symmetric arrival rate cannot exceed the saturation ceiling
    n, c = 4, 8
    sat_cfg = SimConfig(protocol="lmac", n=n, c=c, horizon_slots=12000, seed=44)
    sat = run_simulation(sat_cfg)
    sat_norm, _ = metrics.throughput(sat.trace, PhyParams(payload_bytes=1000))
    base = SimConfig(protocol="lmac", n=n, c=c, horizon_slots=25000, seed=44)
    lam = metrics.achievable_rate(base, 20.0, 2000.0, seed=44, iterations=6)
    offered_norm = lam * n * 1000 * 8 / 11e6
    assert offered_norm <= sat_norm * 1.05


def test_compute_run_metrics_row_shape():
    cfg = SimConfig(protocol="lmac", n=4, c=8, horizon_slots=4000, seed=50)
    res = run_simulation(cfg)
    row = metrics.compute_run_metrics(res)
    assert row["kappa_schedules"] is not None
    assert row["thr_norm"] > 0
    assert list(row) == [
        "seed", "protocol", "n", "c_or_b", "beta", "gamma", "err_rate", "kappa_schedules",
        "conv_seconds", "thr_norm", "thr_mbps", "coll_rate", "mean_delay_us",
        *(f"jain_m{m}" for m in range(1, 11)), "config_hash"]
    assert row["config_hash"] == cfg.config_hash()
