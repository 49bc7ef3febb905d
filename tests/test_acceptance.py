"""Acceptance suite: the headline quantitative claims, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Everything is seeded, so pass/fail is reproducible bit for bit.
"""

import filecmp
import hashlib
from pathlib import Path

import numpy as np
import pytest

from macsim import markov, metrics, schedulesim
from macsim.adaptation import run_ap_announced
from macsim.config import SimConfig, derive_seed
from macsim.markov import (
    build_chain,
    lambda_star_closed,
    mean_convergence,
    second_eigenvalue,
    transition_prob_formula,
)
from macsim.phy import TABLE_PHY, PhyParams, SlotKind
from macsim.protocols import Lmac, Lzc, init_protocol
from macsim.runner import run_simulation
from macsim.scenarios import reproduce_all
from macsim.throughput import throughput_overloaded, throughput_underloaded
from oracles import chain_block, converge_lbeb_batch, lmac_bound


def report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


def lzc_stations(n, c, gamma, *label):
    rng = np.random.default_rng(derive_seed(*label))
    return [Lzc(c, gamma, rng) for _ in range(n)], rng


def lmac_stations(n, c, beta, *label):
    rng = np.random.default_rng(derive_seed(*label))
    return [Lmac(c, beta, rng) for _ in range(n)], rng


GRID = [
    (n, c)
    for n in range(2, 9)
    for c in range(n, 13)
]
GAMMAS = (0.1, 0.5, 0.9)


def test_01_transition_formula_matches_enumerator():
    """Closed-form block entries equal the chain's diagonal blocks, built from
    the exact outcome enumeration, to 1e-12."""
    worst = 0.0
    pairs = 0
    for n, c in GRID:
        for gamma in GAMMAS:
            chain = build_chain(c, n, gamma)
            for lo, hi in chain.block_ranges.values():
                for i in range(lo, hi):
                    for j in range(lo, hi):
                        frm, to = chain.states[i - 1], chain.states[j - 1]
                        a = transition_prob_formula(frm, to, c, n, gamma)
                        worst = max(worst, abs(a - chain.pi[i, j]))
                        pairs += 1
    assert worst <= 1e-12
    report(
        "transition-formula-vs-enumerator",
        f"{pairs} pairs over N<=8, C<=12, 3 stay probabilities; worst |diff|={worst:.2e}",
    )


def test_02_closed_form_eigenvalue_matches_numeric():
    """Subdominant eigenvalue equals the two-station closed form to 1e-9."""
    worst = 0.0
    counterexamples = []
    for n, c in GRID:
        for gamma in GAMMAS:
            chain = build_chain(c, n, gamma)
            lam_numeric, _ = second_eigenvalue(chain)
            lam_closed = lambda_star_closed(c, n, gamma)
            worst = max(worst, abs(lam_numeric - lam_closed))
            lam_pair_block = markov._dominant_eigenvalue(chain_block(chain, 2))
            for k in chain.block_ranges:
                lam_k = markov._dominant_eigenvalue(chain_block(chain, k))
                if lam_k > lam_pair_block + 1e-12:
                    counterexamples.append((n, c, gamma, k))
    assert worst <= 1e-9
    assert not counterexamples, f"two-station block not maximal: {counterexamples}"
    report(
        "closed-form-eigenvalue",
        f"worst |closed-numeric|={worst:.2e}; pair block maximal everywhere",
    )


CHAIN_VS_MC_CASES = [(8, 8, 0.5), (16, 14, 0.25), (16, 16, 0.3), (16, 16, 0.5),
                     (16, 16, 0.7)]


def test_03_chain_mean_matches_monte_carlo():
    """Expected convergence schedules from the chain match simulation within 3 SE."""
    runs = 10_000
    details = []
    for c, n, gamma in CHAIN_VS_MC_CASES:
        theory = mean_convergence(build_chain(c, n, gamma))
        counts = np.empty(runs)
        for r in range(runs):
            protos, rng = lzc_stations(n, c, gamma, "mc3", c, n, gamma, r)
            counts[r] = schedulesim.converge(protos, rng).schedules
        se = counts.std(ddof=1) / np.sqrt(runs)
        gap = abs(counts.mean() - theory)
        assert gap <= 3 * se, (c, n, gamma, counts.mean(), theory, se)
        details.append(f"(C={c},N={n},g={gamma}): |{counts.mean():.3f}-{theory:.3f}|<={3*se:.3f}")
    report("chain-vs-simulation", "; ".join(details))


def _mean_convergence_mc(n, c, gamma, reps, label):
    total = 0
    for r in range(reps):
        protos, rng = lzc_stations(n, c, gamma, label, gamma, r)
        total += schedulesim.converge(protos, rng).schedules
    return total / reps


def test_04_gamma_optimum_location():
    """The empirical best stay probability sits within one 0.05 step of the
    closed-form optimum 1/(C-N+2)."""
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    reps = 4000
    for n in (14, 16):
        means = {g: _mean_convergence_mc(n, 16, g, reps, f"gopt{n}") for g in grid}
        best = min(means, key=means.get)
        target = 1.0 / (16 - n + 2)
        assert abs(best - target) <= 0.05 + 1e-9, (n, best, means)
        report(
            f"gamma-optimality-n{n}",
            f"empirical argmin {best} vs {target} (mean {means[best]:.2f} schedules)",
        )


def test_05_all_runs_converge():
    """1000 seeded runs of each learner at N=C=16 all reach a collision-free
    schedule within the cap."""
    failures = 0
    for r in range(1000):
        protos, rng = lmac_stations(16, 16, 0.95, "thm2", r)
        if schedulesim.converge(protos, rng).schedules is None:
            failures += 1
    for r in range(1000):
        protos, rng = lzc_stations(16, 16, 0.5, "thm1", r)
        if schedulesim.converge(protos, rng).schedules is None:
            failures += 1
    assert failures == 0
    report("guaranteed-convergence", "2000/2000 runs collision-free within the cap")


def test_06_learning_speedup_over_fixed_backoff():
    """Learning cuts convergence at N=C=16 by at least 10x, in schedules and
    in simulated seconds (500 replications each)."""
    reps = 500
    lmac_k = np.empty(reps)
    lmac_s = np.empty(reps)
    for r in range(reps):
        protos, rng = lmac_stations(16, 16, 0.95, "speed", r)
        run = schedulesim.converge(protos, rng, phy=TABLE_PHY)
        lmac_k[r] = run.schedules
        lmac_s[r] = run.seconds_before
    lbeb_k, lbeb_s = converge_lbeb_batch(16, 16, reps, seed=77, phy=TABLE_PHY)
    assert (lbeb_k > 0).all()
    ratio_k = lbeb_k.mean() / lmac_k.mean()
    ratio_s = lbeb_s.mean() / lmac_s.mean()
    assert ratio_k >= 10.0
    assert ratio_s >= 10.0
    report(
        "learning-speedup",
        f"schedules {lmac_k.mean():.1f} vs {lbeb_k.mean():.0f} ({ratio_k:.0f}x); "
        f"seconds {lmac_s.mean():.3f} vs {lbeb_s.mean():.1f} ({ratio_s:.0f}x)",
    )


def test_07_throughput_model_agreement():
    """Converged simulation matches the fixed-length model: 1% when the
    schedule fits everyone, 10% in the oversubscribed regime."""
    for n, c in ((8, 16), (16, 16)):
        cfg = SimConfig(protocol="lmac", n=n, c=c, payload_bytes=1020,
                        horizon_slots=60000, seed=11)
        res = run_simulation(cfg, stop_after_converged_schedules=120)
        k, _ = metrics.detect_convergence(res)
        assert k is not None
        start = k * c
        stop = start + 100 * c
        sim_s, _ = metrics.throughput(res.trace, TABLE_PHY, start, stop)
        model_s = throughput_underloaded(n, c, TABLE_PHY)
        assert abs(sim_s - model_s) / model_s <= 0.01, (n, c, sim_s, model_s)
    vals = []
    for seed in range(3):
        cfg = SimConfig(protocol="lmac", n=20, c=16, payload_bytes=1020,
                        horizon_slots=24000, seed=seed)
        res = run_simulation(cfg)
        norm, _ = metrics.throughput(res.trace, TABLE_PHY, start_slot=3000)
        vals.append(norm)
    sim_over = float(np.mean(vals))
    model_over = throughput_overloaded(20, 16, TABLE_PHY)
    assert model_over == pytest.approx(0.6385, abs=5e-4)  # hand value
    rel = abs(sim_over - model_over) / model_over
    assert rel <= 0.10
    report(
        "throughput-model",
        f"underloaded within 1%; overloaded sim {sim_over:.4f} vs model "
        f"{model_over:.4f} ({100*rel:.1f}%)",
    )


def _saturated_throughput(protocol, n, c, seeds, gamma=None):
    vals = []
    phy = PhyParams(payload_bytes=1000)
    for seed in seeds:
        cfg = SimConfig(protocol=protocol, n=n, c=c, gamma=gamma,
                        horizon_slots=25000, seed=seed)
        res = run_simulation(cfg)
        norm, _ = metrics.throughput(res.trace, phy)
        vals.append(norm)
    return float(np.mean(vals))


def test_08_learning_macs_beat_dcf():
    """At 16 stations the learning schemes carry at least 25% more traffic
    than the standard contention-window MAC."""
    seeds = (1, 2, 3)
    dcf = _saturated_throughput("dcf", 16, 16, seeds)
    lmac = _saturated_throughput("lmac", 16, 16, seeds)
    lzc = _saturated_throughput("lzc", 16, 16, seeds, gamma=0.5)
    assert lmac >= 1.25 * dcf
    assert lzc >= 1.25 * dcf
    report(
        "dcf-comparison",
        f"dcf {dcf:.4f}, lmac {lmac:.4f} ({lmac/dcf:.2f}x), lzc {lzc:.4f} "
        f"({lzc/dcf:.2f}x)",
    )


def test_09_announced_length_fixed_point():
    """The announced schedule length settles at one spare slot (C = N+1) from
    both directions, on every one of 100 seeds."""
    for start_len in (5, 64):
        for seed in range(100):
            traj = run_ap_announced(10, start_len, 0.5, seed, max_schedules=3000)
            settled = None
            for i, c in enumerate(traj):
                if c == 11 and all(v == 11 for v in traj[i : i + 100]):
                    settled = i
                    break
            assert settled is not None and len(traj) - settled >= 100, (
                start_len, seed,
            )
            assert traj[-1] == 11
    report("announced-adaptation-fixed-point", "200/200 trajectories settle at 11")


def test_10_decentralised_adaptation_scaling_and_fairness():
    """24 stations on base length 16 all settle collision-free at doubled
    length, with per-station goodput equal within 5%."""
    for seed in (1, 2, 3, 4, 5):
        cfg = SimConfig(protocol="lzc", adaptation="alzc", b=16, c=None, n=24,
                        gamma=0.5, horizon_slots=12000, seed=seed)
        res = run_simulation(cfg)
        assert all(st.window_len == 32 for st in res.stations), seed
        tail_frames = 12
        tail_start = len(res.trace.kinds) - (len(res.trace.kinds) % 32)
        tail_start -= 32 * tail_frames
        per = {st.sid: 0 for st in res.stations}
        for i in range(tail_start, tail_start + 32 * tail_frames):
            kind = res.trace.kinds[i]
            assert kind != int(SlotKind.COLLISION)
            if kind == int(SlotKind.SUCCESS):
                per[res.trace.tx_station[i]] += res.trace.packets[i]
        counts = np.array(list(per.values()), dtype=float)
        spread = (counts.max() - counts.min()) / counts.mean()
        assert spread <= 0.05, (seed, per)
    report(
        "adaptive-scaling-fairness",
        "5/5 seeds collision-free at doubled length, goodput spread <= 5%",
    )


def test_11_fairness_favours_weaker_learning():
    """Before convergence, the learner that gives up a failed slot readily
    shares successes more evenly over long windows; over short windows the
    learner that holds on is fairer (500 runs per setting).

    "Weaker learning" means beta = 0.5: after a failure a station keeps half
    of the failed slot's probability, so it leaves that slot readily.
    beta = 0.99 keeps 99% of it and holds on.  (Read with 1 - beta as a
    learning rate, "weaker" would point the other way.)  Fairness is the
    mean Jain index over non-overlapping windows of m * 16 successes.  Three
    orderings are asserted:

    (a) beta = 0.5 >= beta = 0.99 over the whole pre-convergence sequence
        taken as one window;
    (b) beta = 0.5 >= beta = 0.99 at m = 10, the largest window profiled;
    (c) beta = 0.99 > beta = 0.5 at m = 1.  Readily leaving a slot dislodges
        settled stations, so beta = 0.5 makes fewer successes per schedule
        and a window of 16 successes spans more schedules, within which the
        stations that hold slots recur.

    The middle windows are not asserted: the two settings cross there
    (around m = 8) within a few standard errors of each other.
    """
    reps = 500
    averages = {}
    whole = {}
    per_schedule = {}
    for beta in (0.5, 0.99):
        sums = [0.0] * 10
        counts = [0] * 10
        whole_sum = 0.0
        whole_count = 0
        successes = 0
        schedules = 0
        for r in range(reps):
            protos, rng = lmac_stations(16, 16, beta, "jain", beta, r)
            seq, k = schedulesim.success_sequence_until_converged(protos, rng)
            assert k is not None
            for m in range(1, 11):
                f = metrics.jain_index(seq, 16, m)
                if f is not None:
                    sums[m - 1] += f
                    counts[m - 1] += 1
            if len(seq) >= 16:
                whole_sum += metrics.jain_index(seq, 16, len(seq) // 16)
                whole_count += 1
            successes += len(seq)
            schedules += k - 1
        assert all(c > 50 for c in counts) and whole_count > 50
        averages[beta] = [s / c for s, c in zip(sums, counts)]
        whole[beta] = whole_sum / whole_count
        per_schedule[beta] = successes / schedules
    assert whole[0.5] >= whole[0.99], whole
    assert averages[0.5][9] >= averages[0.99][9], averages
    assert averages[0.99][0] > averages[0.5][0], averages
    report(
        "fairness-trend",
        f"beta 0.5 vs 0.99: F(m=1) {averages[0.5][0]:.3f} vs {averages[0.99][0]:.3f}; "
        f"F(m=10) {averages[0.5][9]:.3f} vs {averages[0.99][9]:.3f}; "
        f"F(whole) {whole[0.5]:.3f} vs {whole[0.99]:.3f}; "
        f"successes/schedule {per_schedule[0.5]:.1f} vs {per_schedule[0.99]:.1f}",
    )


def test_12_error_robustness():
    """At a 10% frame-error rate the learner keeps its schedule while the
    memoryless scheme collapses; gap significant at 3 sigma over 200 runs."""
    reps = 200
    phy = PhyParams(payload_bytes=1000)
    means = {}
    ses = {}
    for protocol in ("lmac", "lbeb"):
        vals = np.empty(reps)
        for r in range(reps):
            cfg = SimConfig(protocol=protocol, n=16, c=16, error_rate=0.1,
                            horizon_slots=4000, seed=derive_seed("err", protocol, r))
            res = run_simulation(cfg)
            vals[r], _ = metrics.throughput(res.trace, phy)
        means[protocol] = vals.mean()
        ses[protocol] = vals.std(ddof=1) / np.sqrt(reps)
    gap = means["lmac"] - means["lbeb"]
    sigma = np.hypot(ses["lmac"], ses["lbeb"])
    assert gap > 0 and gap >= 3 * sigma
    report(
        "error-robustness",
        f"lmac {means['lmac']:.4f} vs lbeb {means['lbeb']:.4f} "
        f"(gap {gap:.4f} = {gap/sigma:.0f} sigma)",
    )


def test_13_new_entrants_reconverge_quickly():
    """Doubling a settled 8-station network reconverges in well under two
    simulated seconds on average."""
    reps = 100
    secs = np.empty(reps)
    for r in range(reps):
        cfg = SimConfig(protocol="lmac", n=8, c=16, join_n=8,
                        horizon_slots=400000, seed=derive_seed("join8", r))
        res = run_simulation(cfg, stop_after_converged_schedules=2)
        assert res.reconverged_time_us is not None, r
        secs[r] = (res.reconverged_time_us - res.join_time_us) / 1e6
    assert secs.mean() < 2.0
    report(
        "new-entrants",
        f"mean reconvergence {secs.mean():.3f}s (max {secs.max():.3f}s) < 2s",
    )


def test_14_two_schedule_bound_holds():
    """The geometric tail bound sits above the empirical convergence-time
    survival curve at every even step (one-sided; the bound is loose)."""
    runs = 10_000
    taus = np.empty(runs, dtype=np.int64)
    for r in range(runs):
        protos, rng = lmac_stations(4, 6, 0.5, "tail", r)
        taus[r] = schedulesim.converge(protos, rng).schedules
    k, tail = lmac_bound(0.5, 6, 4)
    assert k > 0
    max_tau = int(taus.max())
    for n in range(1, max_tau // 2 + 2):
        empirical = float((taus >= 2 * n).mean())
        assert empirical <= tail(n) + 1e-12, (n, empirical, tail(n))
    report(
        "two-schedule-bound",
        f"survival below (1-K)^n for all 2n <= {max_tau + 2}; K={k:.2e}",
    )


#: SHA-256 per reproduce-all key over its data, summary and config files at
#: ``reps=2, seed=1``, recorded from the scenario layer that wrote one summary
#: loop per family.
REPRODUCE_ALL_GOLDEN = {
    "achievable_rate_vs_beta": (
        "8d59109be87757020bd82bc760c0c8e3ff7448414df6f624160fd44d35b0ba1a"
    ),
    "adaptive_throughput_vs_n": (
        "9007ae9538e6372200d8c14ab8695ad54fb62ea7e398f5828d5fe0afe44f8d68"
    ),
    "beta_convergence": (
        "4cf0f0c72bb13e771684358e57f8b05667615266aa8c9cf9a8b89bddb86434a0"
    ),
    "coexist_aggregate": (
        "9ea31f4710cdf0726f850257ce328cbc6423c5f2953d46a5f18f6ff14d2fb82c"
    ),
    "coexist_dcf_share": (
        "202b5714771f3a83f79ecb802abb39d94f9d2192e4f60a3ffbdf86bfc65da586"
    ),
    "collision_rate_vs_n": (
        "54884364b2c9414e65407946f94f0e7890b5d27b1581b21ecbd78a8ca4770ee7"
    ),
    "convergence_time_vs_load": (
        "ccb77535593fea6945de8ef0e5362884a966b27721f133cc853c539053ba08cb"
    ),
    "delay_vs_n": (
        "b6e54fb7a4bd4512e5f146f62f799780f7530e45a79d86d993e58cc85c2af6a6"
    ),
    "error_robustness": (
        "8cfaad09de7c883ea9243d519cc147ec94a4c9d0596d9383a9cddda07c340a1f"
    ),
    "gamma_convergence_theory_vs_sim": (
        "5a4003ea030e8176a674367903c38b4f01cc91a2da059cbf6f48e0e237bf9e23"
    ),
    "jain_fairness": (
        "4118bb793cfde1b5de0f2a16e70135136457491145aca9013a31b40e150d9c53"
    ),
    "new_entrants": (
        "50d637e39d033ff877921de0e515c601959c2cd332b21eafff9407c9e6feded1"
    ),
    "throughput_model_vs_sim": (
        "528a4dd83df598d39b19aa8bb3fb1656cf0d18c2ccb4454e2f6beeef70534a45"
    ),
    "throughput_vs_n": (
        "3eb7d527081b515221ca7176d941e9688e91ed2e62cb73b6b61cc854145f6079"
    ),
}


def reproduce_all_digests(out: Path, keys) -> dict[str, str]:
    """SHA-256 per reproduce-all key over its data, summary and config files
    in ``out``; every file in ``out`` must belong to one of ``keys``."""
    digests, hashed = {}, set()
    for key in keys:
        h = hashlib.sha256()
        for name in (f"{key}.csv", f"{key}_summary.csv", f"{key}_config.txt"):
            if (out / name).exists():
                h.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
                hashed.add(name)
        digests[key] = h.hexdigest()
    assert hashed == {p.name for p in out.iterdir()}
    return digests


def test_15_report_generation_contract(tmp_path):
    """Full dataset emission: every key produced with two replications per
    point, byte-identical on re-run and to the recorded digests, and the
    headline comparison holds."""
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    results_a = reproduce_all(out_a, reps=2, seed=1)
    results_b = reproduce_all(out_b, reps=2, seed=1)
    assert set(results_a) == set(results_b)
    failed = {k: v for k, v in results_a.items() if v.startswith("FAILED")}
    assert not failed, failed
    for key, path in results_a.items():
        pa = Path(path)
        assert pa.exists()
        assert filecmp.cmp(pa, out_b / pa.name, shallow=False), key
        with open(pa) as fh:
            n_rows = sum(1 for _ in fh) - 1
        assert n_rows >= 2, key
    assert reproduce_all_digests(out_a, results_a) == REPRODUCE_ALL_GOLDEN
    import csv

    with open(out_a / "throughput_vs_n.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["n"] == "16"]
    by_proto: dict[str, list[float]] = {}
    for r in rows:
        by_proto.setdefault(r["protocol"], []).append(float(r["thr_norm"]))
    means = {p: np.mean(v) for p, v in by_proto.items()}
    assert means["lmac"] >= 1.25 * means["dcf"]
    assert means["lzc"] >= 1.25 * means["dcf"]
    report(
        "report-generation",
        f"{len(results_a)} datasets, byte-identical re-run; "
        f"lmac/dcf {means['lmac']/means['dcf']:.2f}x, lzc/dcf {means['lzc']/means['dcf']:.2f}x",
    )


@pytest.mark.parametrize("key", ["collision_rate_vs_n", "coexist_dcf_share"])
def test_reproduce_all_key_alone_writes_the_full_run_bytes(tmp_path, key):
    """Keys whose runs an earlier key also makes write, run alone, the bytes
    of the full run."""
    assert list(reproduce_all(tmp_path, reps=2, seed=1, keys=[key])) == [key]
    assert reproduce_all_digests(tmp_path, [key]) == {key: REPRODUCE_ALL_GOLDEN[key]}
