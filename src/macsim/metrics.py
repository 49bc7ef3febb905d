"""Derived quantities over traces: convergence, fairness, throughput, delay.

Convergence counting convention: ``detect_convergence`` returns the 0-based
index of the first collision-free schedule, read from the engine's
convergence watch (``RunResult.converged_slot``) rather than from a second
scan of the trace, so a single station yields 0.  The schedule-synchronous
simulator and the chain analysis count schedules played through the first
collision-free one instead (a single station yields 1); add one to the index
reported here when comparing against those.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import SimConfig
from .engine import Trace, elapsed_us
from .phy import PhyParams, SlotKind
from .runner import RunResult, run_simulation


def detect_convergence(result: RunResult) -> tuple[int | None, float | None]:
    """First collision-free schedule and the simulated time before it.

    Reads the engine's watch: ``converged_slot`` starts the first run of C
    slots holding N successes and no collision or error.  On an aligned,
    saturated, error-free run, such a window that ends inside schedule k + 1
    makes schedule k + 1 collision-free, and no earlier schedule is, so the
    0-based schedule index is ``ceil(converged_slot / C)``.  Returns
    (None, None) outside that absorbing regime (fixed length, saturated,
    error-free, no DCF station, no joins), when the run never converged, or
    when the horizon cuts that schedule short.
    """
    cfg = result.config
    absorbing = (
        cfg.adaptation == "none"
        and cfg.traffic == "saturated"
        and cfg.error_rate == 0.0
        and cfg.join_n == 0
        and cfg.protocol != "dcf"
        and cfg.coexist_k == 0
    )
    if not absorbing or result.converged_slot is None:
        return None, None
    c = cfg.c
    kappa = -(-result.converged_slot // c)
    if (kappa + 1) * c > len(result.trace):
        return None, None
    return kappa, elapsed_us(result.trace.durations[: kappa * c]) / 1e6


def success_sequence(trace: Trace, upto_slot: int | None = None) -> list[int]:
    """Station ids of successful slots, in slot order."""
    stop = len(trace.kinds) if upto_slot is None else upto_slot
    success = int(SlotKind.SUCCESS)
    return [
        trace.tx_station[i] for i in range(stop) if trace.kinds[i] == success
    ]


def jain_index(sequence: list[int], n_stations: int, window_multiple: int) -> float | None:
    """Windowed fairness of a success sequence.

    Splits the sequence into non-overlapping windows of ``window_multiple *
    n_stations`` successes, compares each station's share in a window against
    the perfectly fair share, and averages the per-window indices.  Returns
    None when the sequence is shorter than one window.  1 is perfect
    fairness; 1/N is a single-station monopoly.
    """
    if window_multiple < 1 or n_stations < 1:
        raise ValueError("window multiple and station count must be positive")
    w = window_multiple * n_stations
    n_windows = len(sequence) // w
    if n_windows == 0:
        return None
    total = 0.0
    for k in range(n_windows):
        window = sequence[k * w : (k + 1) * w]
        counts: dict[int, int] = {}
        for sid in window:
            counts[sid] = counts.get(sid, 0) + 1
        shares = [c * n_stations / w for c in counts.values()]
        total += sum(shares) ** 2 / (n_stations * sum(s * s for s in shares))
    return total / n_windows


def collision_rate(trace: Trace) -> float | None:
    """Share of transmission attempts that ended in a collision.

    Frame errors count as attempts but not as collisions.  None when the
    trace holds no attempts at all.
    """
    kinds = np.asarray(trace.kinds)
    collided = sum(map(len, trace.colliders.values()))
    singles = np.count_nonzero((kinds == SlotKind.SUCCESS) | (kinds == SlotKind.ERROR))
    attempts = collided + int(singles)
    if attempts == 0:
        return None
    return collided / attempts


def throughput(
    trace: Trace,
    phy: PhyParams,
    start_slot: int = 0,
    end_slot: int | None = None,
) -> tuple[float, float]:
    """(normalised, Mbit/s) payload throughput over a slot range."""
    stop = len(trace.kinds) if end_slot is None else end_slot
    elapsed = elapsed_us(trace.durations[start_slot:stop])
    if elapsed <= 0.0:
        raise ValueError("throughput needs a nonempty slot range")
    payload_bits = sum(trace.packets[start_slot:stop]) * phy.payload_bytes * 8
    norm = payload_bits / (phy.data_rate * elapsed / 1e6)
    mbps = payload_bits / elapsed
    return norm, mbps


def mean_access_delay_us(result: RunResult) -> float | None:
    """Mean head-of-queue-to-completion delay over delivered packets.

    Dropped packets never complete and are excluded.  None when nothing was
    delivered (or for saturated stations, which do not record delays).
    """
    delays = [d for st in result.stations for d in st.delays_us]
    if not delays:
        return None
    return float(np.mean(delays))


def station_rho(result: RunResult, lambda_pps: float) -> list[float]:
    """Per-station traffic intensity estimates: arrival rate times mean service time."""
    rhos = []
    for st in result.stations:
        if not st.delays_us:
            rhos.append(0.0)
            continue
        mean_service_s = float(np.mean(st.delays_us)) / 1e6
        rhos.append(lambda_pps * mean_service_s)
    return rhos


def achievable_rate(
    base_cfg: SimConfig,
    lam_lo: float,
    lam_hi: float,
    seed: int = 1,
    iterations: int = 10,
) -> float:
    """Largest symmetric arrival rate keeping every station's load below one.

    Bisects between ``lam_lo`` (expected stable) and ``lam_hi`` (expected
    unstable).  Each probe runs one seeded replication of ``base_cfg`` with
    Poisson arrivals at the probed rate and estimates per-station load as
    arrival rate times mean measured service time.
    """

    def stable(lam: float) -> bool:
        cfg = replace(base_cfg, traffic="poisson", lambda_pps=lam, seed=seed)
        return max(station_rho(run_simulation(cfg), lam)) < 1.0

    lo, hi = lam_lo, lam_hi
    if not stable(lo):
        return 0.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo


def compute_run_metrics(result: RunResult) -> dict:
    """The standard per-run ``metrics.csv`` row, column name to value in
    column order.

    Convergence and pre-convergence fairness are left empty where
    ``detect_convergence`` finds no collision-free schedule.
    """
    cfg = result.config
    kappa, conv_seconds = detect_convergence(result)
    jain: list[float | None] = [None] * 10
    if kappa is not None:
        seq = success_sequence(result.trace, upto_slot=kappa * cfg.c)
        jain = [jain_index(seq, cfg.n, m) for m in range(1, 11)]
    thr_norm, thr_mbps = throughput(result.trace, cfg.phy)
    return {
        "seed": cfg.seed, "protocol": cfg.protocol, "n": cfg.n, "c_or_b": cfg.schedule_len,
        "beta": cfg.beta, "gamma": cfg.gamma, "err_rate": cfg.error_rate,
        "kappa_schedules": kappa, "conv_seconds": conv_seconds,
        "thr_norm": thr_norm, "thr_mbps": thr_mbps,
        "coll_rate": collision_rate(result.trace),
        "mean_delay_us": mean_access_delay_us(result),
        **{f"jain_m{m}": value for m, value in enumerate(jain, start=1)},
        "config_hash": cfg.config_hash(),
    }
