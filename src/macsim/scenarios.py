"""Experiment families: parameter sweeps, robustness and coexistence studies.

Each scenario expands a base config into a family of seeded runs, collects
per-replication rows, and aggregates them with Gaussian 95% confidence
intervals.  Replication ``i`` of a grid point always derives its seed from
(base seed, grid labels, i), so adding replications or grid points never
changes existing rows, and re-running with the same config reproduces every
file byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import markov, metrics, schedulesim, throughput
from .adaptation import FTable
from .config import SimConfig, auto_gamma, derive_seed
from .csvio import write_csv
from .phy import PhyParams
from .protocols import init_protocol
from .runner import default_f_table, run_simulation


@dataclass
class ScenarioReport:
    kind: str
    header: list[str]
    rows: list[list]
    summary_header: list[str]
    summary_rows: list[list]
    config_echo: str

    def write(self, out_dir: str | Path, name: str | None = None) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        base = name or self.kind
        path = out / f"{base}.csv"
        write_csv(path, self.header, self.rows)
        if self.summary_rows:
            write_csv(out / f"{base}_summary.csv", self.summary_header, self.summary_rows)
        (out / f"{base}_config.txt").write_text(self.config_echo)
        return path


def _ci(values: list[float]) -> tuple[float, float]:
    """Mean and Gaussian 95% half-width over replications."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    half = 1.96 * float(arr.std(ddof=1)) / np.sqrt(arr.size)
    return mean, half


def _protocol_params(protocol: str, n: int, c: int) -> dict:
    """Per-protocol learning parameters for a grid point."""
    params: dict = {"beta": None, "gamma": None}
    if protocol == "lmac":
        params["beta"] = 0.95
    elif protocol == "lzc":
        params["gamma"] = auto_gamma(c, n) if n <= c else 0.5
    return params


def _schedule_protocols(cfg: SimConfig, run_seed: int):
    rngs = [
        np.random.default_rng(np.random.SeedSequence(derive_seed(run_seed, j)))
        for j in range(cfg.n)
    ]
    protos = [
        init_protocol(cfg.protocol, cfg.schedule_len, rngs[j], beta=cfg.beta, gamma=cfg.gamma)
        for j in range(cfg.n)
    ]
    return protos, rngs


def converge_sweep(cfg: SimConfig, reps: int | None = None) -> ScenarioReport:
    """Mean convergence time over a learning-parameter grid.

    Sweeps the stay probability for the jump-to-idle learner or the learning
    strength for the feedback-only learner; for the former the exact chain
    prediction is attached to every grid point.
    """
    reps = reps or cfg.reps
    sweep = cfg.sweep or ("gamma" if cfg.protocol == "lzc" else "beta")
    if sweep == "gamma" and cfg.protocol != "lzc":
        raise ValueError("gamma sweeps need protocol lzc")
    if sweep == "beta" and cfg.protocol != "lmac":
        raise ValueError("beta sweeps need protocol lmac")
    values = list(cfg.sweep_values) or (
        [round(0.1 * i, 2) for i in range(1, 10)]
    )
    phy = PhyParams(payload_bytes=cfg.payload_bytes)
    header = [
        "param", "value", "rep", "kappa_schedules", "seconds_before", "config_hash",
    ]
    rows: list[list] = []
    summary: list[list] = []
    for value in values:
        run_cfg = replace(cfg, **{sweep: value, "sweep": sweep})
        theory = None
        if sweep == "gamma" and cfg.n <= cfg.c <= markov.MAX_STATIONS:
            chain = markov.build_chain(cfg.c, cfg.n, value)
            theory = markov.mean_convergence(chain)
        kappas: list[float] = []
        secs: list[float] = []
        for rep in range(reps):
            run_seed = derive_seed(cfg.seed, sweep, value, rep)
            protos, rngs = _schedule_protocols(run_cfg, run_seed)
            run = schedulesim.converge(protos, rngs, phy=phy)
            rows.append(
                [sweep, value, rep, run.schedules, run.seconds_before,
                 run_cfg.config_hash()]
            )
            if run.schedules is not None:
                kappas.append(run.schedules)
                secs.append(run.seconds_before)
        k_mean, k_half = _ci(kappas)
        s_mean, s_half = _ci(secs)
        summary.append([sweep, value, len(kappas), k_mean, k_half, s_mean, s_half, theory])
    return ScenarioReport(
        kind="converge-sweep",
        header=header,
        rows=rows,
        summary_header=[
            "param", "value", "reps", "kappa_mean", "kappa_ci95",
            "seconds_mean", "seconds_ci95", "kappa_theory",
        ],
        summary_rows=summary,
        config_echo=cfg.echo(),
    )


def _throughput_runs(
    cfg: SimConfig,
    protocols: tuple[str, ...],
    n_values: tuple[int, ...],
    reps: int,
    error_rate: float = 0.0,
    f_table: FTable | None = None,
) -> list[list]:
    rows: list[list] = []
    for protocol in protocols:
        for n in n_values:
            params = _protocol_params(protocol, n, cfg.c or cfg.schedule_len)
            for rep in range(reps):
                run_cfg = replace(
                    cfg,
                    protocol=protocol,
                    n=n,
                    error_rate=error_rate,
                    seed=derive_seed(cfg.seed, protocol, n, error_rate, rep),
                    **params,
                )
                result = run_simulation(run_cfg, f_table=f_table)
                norm, mbps = metrics.throughput(
                    result.trace, PhyParams(payload_bytes=cfg.payload_bytes)
                )
                coll = metrics.collision_rate(result.trace)
                rows.append(
                    [protocol, n, error_rate, rep, norm, mbps, coll,
                     run_cfg.config_hash()]
                )
    return rows


def throughput_vs_n(
    cfg: SimConfig,
    reps: int | None = None,
    protocols: tuple[str, ...] = ("dcf", "lbeb", "zc", "lzc", "lmac"),
    n_values: tuple[int, ...] | None = None,
) -> ScenarioReport:
    """Saturated long-run throughput and collision rate against station count."""
    reps = reps or cfg.reps
    n_values = n_values or cfg.n_values or (8, 16, 20)
    rows = _throughput_runs(cfg, protocols, tuple(n_values), reps)
    header = ["protocol", "n", "error_rate", "rep", "thr_norm", "thr_mbps",
              "coll_rate", "config_hash"]
    phy = PhyParams(payload_bytes=cfg.payload_bytes)
    summary = []
    for protocol in protocols:
        for n in n_values:
            vals = [r[4] for r in rows if r[0] == protocol and r[1] == n]
            mean, half = _ci(vals)
            model = (
                throughput.model_throughput(n, cfg.c, phy)
                if protocol != "dcf"
                else None
            )
            summary.append([protocol, n, len(vals), mean, half, model])
    return ScenarioReport(
        kind="throughput-vs-n",
        header=header,
        rows=rows,
        summary_header=["protocol", "n", "reps", "thr_norm_mean", "thr_norm_ci95",
                        "thr_norm_model"],
        summary_rows=summary,
        config_echo=cfg.echo(),
    )


def error_robustness(
    cfg: SimConfig,
    reps: int | None = None,
    protocols: tuple[str, ...] = ("dcf", "lbeb", "zc", "lzc", "lmac"),
    n_values: tuple[int, ...] | None = None,
    error_rates: tuple[float, ...] | None = None,
) -> ScenarioReport:
    """Throughput under frame errors, which keep knocking schedules apart."""
    reps = reps or cfg.reps
    n_values = n_values or cfg.n_values or (14, 16)
    error_rates = error_rates or cfg.error_rates or (0.01, 0.1)
    rows: list[list] = []
    for rate in error_rates:
        rows.extend(_throughput_runs(cfg, protocols, tuple(n_values), reps, rate))
    header = ["protocol", "n", "error_rate", "rep", "thr_norm", "thr_mbps",
              "coll_rate", "config_hash"]
    summary = []
    for rate in error_rates:
        for protocol in protocols:
            for n in n_values:
                vals = [
                    r[4] for r in rows
                    if r[0] == protocol and r[1] == n and r[2] == rate
                ]
                mean, half = _ci(vals)
                summary.append([protocol, n, rate, len(vals), mean, half])
    return ScenarioReport(
        kind="error-robustness",
        header=header,
        rows=rows,
        summary_header=["protocol", "n", "error_rate", "reps", "thr_norm_mean",
                        "thr_norm_ci95"],
        summary_rows=summary,
        config_echo=cfg.echo(),
    )


def delay_vs_n(
    cfg: SimConfig,
    reps: int | None = None,
    protocols: tuple[str, ...] = ("dcf", "lmac", "lzc", "almac"),
    n_values: tuple[int, ...] | None = None,
) -> ScenarioReport:
    """Mean medium-access delay under symmetric Poisson load."""
    reps = reps or cfg.reps
    n_values = n_values or cfg.n_values or (8, 12, 16, 20)
    lambda_pps = cfg.lambda_pps or 62.5
    f_table = default_f_table()
    rows: list[list] = []
    for label in protocols:
        protocol = "lmac" if label == "almac" else label
        adaptation = "almac" if label == "almac" else "none"
        for n in n_values:
            params = _protocol_params(protocol, n, cfg.c or 16)
            for rep in range(reps):
                run_cfg = replace(
                    cfg,
                    protocol=protocol,
                    adaptation=adaptation,
                    b=16 if adaptation != "none" else None,
                    c=None if adaptation != "none" else cfg.c,
                    n=n,
                    traffic="poisson",
                    lambda_pps=lambda_pps,
                    seed=derive_seed(cfg.seed, label, n, rep),
                    **params,
                )
                result = run_simulation(run_cfg, f_table=f_table)
                delay = metrics.mean_access_delay_us(result)
                delivered = sum(st.delivered for st in result.stations)
                rows.append(
                    [label, n, rep, delay, delivered, run_cfg.config_hash()]
                )
    summary = []
    for label in protocols:
        for n in n_values:
            vals = [r[3] for r in rows if r[0] == label and r[1] == n and r[3] is not None]
            if vals:
                mean, half = _ci(vals)
                summary.append([label, n, len(vals), mean, half])
    return ScenarioReport(
        kind="delay-vs-n",
        header=["protocol", "n", "rep", "mean_delay_us", "delivered", "config_hash"],
        rows=rows,
        summary_header=["protocol", "n", "reps", "delay_us_mean", "delay_us_ci95"],
        summary_rows=summary,
        config_echo=cfg.echo(),
    )


def new_entrants(
    cfg: SimConfig,
    reps: int | None = None,
    k_values: tuple[int, ...] | None = None,
) -> ScenarioReport:
    """Reconvergence time after stations join an already settled network."""
    reps = reps or cfg.reps
    k_values = k_values or cfg.k_values or (2, 4, 8)
    rows: list[list] = []
    for k in k_values:
        for rep in range(reps):
            run_cfg = replace(
                cfg,
                join_n=k,
                join_when="converged",
                seed=derive_seed(cfg.seed, "join", k, rep),
            )
            result = run_simulation(run_cfg, stop_after_converged_schedules=2)
            reconv = None
            if result.reconverged_time_us is not None and result.join_time_us is not None:
                reconv = (result.reconverged_time_us - result.join_time_us) / 1e6
            rows.append([k, rep, reconv, run_cfg.config_hash()])
    summary = []
    for k in k_values:
        vals = [r[2] for r in rows if r[0] == k and r[2] is not None]
        if vals:
            mean, half = _ci(vals)
            summary.append([k, len(vals), mean, half])
    return ScenarioReport(
        kind="new-entrants",
        header=["joiners", "rep", "reconverge_seconds", "config_hash"],
        rows=rows,
        summary_header=["joiners", "reps", "reconverge_s_mean", "reconverge_s_ci95"],
        summary_rows=summary,
        config_echo=cfg.echo(),
    )


def coexist(
    cfg: SimConfig,
    reps: int | None = None,
    k_values: tuple[int, ...] | None = None,
    partner: str = "dcf",
) -> ScenarioReport:
    """Mixed population: K stations of the base protocol share the channel
    with K stations of ``partner``; reports total and partner-only throughput."""
    reps = reps or cfg.reps
    k_values = k_values or cfg.k_values or (4, 8, 16)
    phy = PhyParams(payload_bytes=cfg.payload_bytes)
    rows: list[list] = []
    for k in k_values:
        params = _protocol_params(cfg.protocol, 2 * k, cfg.c or 16)
        for rep in range(reps):
            run_cfg = replace(
                cfg,
                n=2 * k,
                coexist_k=k,
                coexist_protocol=partner,
                seed=derive_seed(cfg.seed, "coexist", k, rep),
                **params,
            )
            result = run_simulation(run_cfg)
            elapsed_s = result.sim_time_us / 1e6
            bits = phy.payload_bytes * 8
            total = sum(st.delivered for st in result.stations) * bits / result.sim_time_us
            partner_only = (
                sum(st.delivered for st in result.stations if st.protocol == partner)
                * bits
                / result.sim_time_us
            )
            rows.append(
                [cfg.protocol, partner, k, rep, total, partner_only,
                 elapsed_s, run_cfg.config_hash()]
            )
    summary = []
    for k in k_values:
        totals = [r[4] for r in rows if r[2] == k]
        partners = [r[5] for r in rows if r[2] == k]
        t_mean, t_half = _ci(totals)
        p_mean, p_half = _ci(partners)
        summary.append([cfg.protocol, partner, k, len(totals), t_mean, t_half,
                        p_mean, p_half])
    return ScenarioReport(
        kind="coexist",
        header=["protocol", "partner", "k", "rep", "thr_total_mbps",
                "thr_partner_mbps", "elapsed_s", "config_hash"],
        rows=rows,
        summary_header=["protocol", "partner", "k", "reps", "total_mbps_mean",
                        "total_mbps_ci95", "partner_mbps_mean", "partner_mbps_ci95"],
        summary_rows=summary,
        config_echo=cfg.echo(),
    )


SCENARIOS = {
    "converge-sweep": converge_sweep,
    "throughput-vs-n": throughput_vs_n,
    "delay-vs-n": delay_vs_n,
    "error-robustness": error_robustness,
    "new-entrants": new_entrants,
    "coexist": coexist,
}


def run_scenario(kind: str, cfg: SimConfig, out_dir: str | Path,
                 reps: int | None = None) -> Path:
    if kind not in SCENARIOS:
        raise ValueError(f"unknown scenario kind: {kind!r} (have {sorted(SCENARIOS)})")
    report = SCENARIOS[kind](cfg, reps=reps)
    return report.write(out_dir)


# ---------------------------------------------------------------------------
# Full report generation
# ---------------------------------------------------------------------------


def _base(seed: int, **kw) -> SimConfig:
    defaults = dict(protocol="lmac", n=16, c=16, horizon_slots=12000, seed=seed)
    defaults.update(kw)
    return SimConfig(**defaults)


def reproduce_all(
    out_dir: str | Path, reps: int = 2, seed: int = 1, keys: list[str] | None = None
) -> dict[str, str]:
    """Emit the full set of result CSVs at desk scale.

    Returns a map from dataset key to the written path, or to ``"FAILED:
    reason"`` when one dataset errors; the remaining datasets are still
    produced, and the failing one's traceback is logged.  Identical (seed,
    reps) inputs reproduce identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: dict[str, str] = {}

    def emit(key: str, builder) -> None:
        if keys is not None and key not in keys:
            return
        try:
            report = builder()
            path = report.write(out, key)
            results[key] = str(path)
        except Exception as exc:  # per-key isolation: the other keys still run
            import logging  # here, not at the top: it adds about 4 ms to every start

            logging.getLogger(__name__).exception("reproduce-all key %s failed", key)
            results[key] = f"FAILED: {exc}"

    emit(
        "throughput_vs_n",
        lambda: throughput_vs_n(
            _base(seed), reps=reps, n_values=(8, 16, 20)
        ),
    )
    emit(
        "gamma_convergence_theory_vs_sim",
        lambda: converge_sweep(
            _base(seed, protocol="lzc", sweep="gamma"), reps=max(reps, 2)
        ),
    )
    emit(
        "beta_convergence",
        lambda: _beta_convergence(_base(seed), reps),
    )
    emit("jain_fairness", lambda: _jain_fairness(_base(seed), reps))
    emit(
        "achievable_rate_vs_beta",
        lambda: _rate_region(_base(seed, n=20, horizon_slots=5000), reps),
    )
    emit(
        "throughput_model_vs_sim",
        lambda: throughput_vs_n(
            _base(seed),
            reps=reps,
            protocols=("lmac",),
            n_values=(8, 12, 16, 17, 18, 20),
        ),
    )
    emit("convergence_time_vs_load", lambda: _convergence_vs_load(_base(seed), reps))
    emit("collision_rate_vs_n", lambda: _collision_rate_vs_n(_base(seed), reps))
    emit(
        "adaptive_throughput_vs_n",
        lambda: _adaptive_throughput(_base(seed), reps),
    )
    emit(
        "delay_vs_n",
        lambda: delay_vs_n(
            _base(seed, traffic="poisson", lambda_pps=62.5, horizon_seconds=1.0,
                  horizon_slots=None),
            reps=reps,
        ),
    )
    emit(
        "error_robustness",
        lambda: error_robustness(
            _base(seed, horizon_slots=8000),
            reps=reps,
            protocols=("dcf", "lbeb", "lzc", "lmac"),
            n_values=(14, 16),
        ),
    )
    emit(
        "new_entrants",
        lambda: new_entrants(
            _base(seed, n=8, horizon_slots=40000), reps=reps
        ),
    )

    coexist_reports: dict[str, ScenarioReport] = {}

    def build_coexist() -> None:
        for proto in ("dcf", "lmac", "lzc"):
            coexist_reports[proto] = coexist(
                _base(seed, protocol=proto, horizon_slots=8000),
                reps=reps,
                k_values=(4, 8, 16),
            )

    def aggregate_report() -> ScenarioReport:
        if not coexist_reports:
            build_coexist()
        rows = [r for rep in coexist_reports.values() for r in rep.rows]
        summary = [r for rep in coexist_reports.values() for r in rep.summary_rows]
        template = next(iter(coexist_reports.values()))
        return ScenarioReport(
            "coexist", template.header, rows, template.summary_header, summary,
            template.config_echo,
        )

    def dcf_share_report() -> ScenarioReport:
        if not coexist_reports:
            build_coexist()
        header = ["protocol", "partner", "k", "rep", "thr_partner_mbps", "config_hash"]
        rows = [
            [r[0], r[1], r[2], r[3], r[5], r[7]]
            for rep in coexist_reports.values()
            for r in rep.rows
        ]
        template = next(iter(coexist_reports.values()))
        return ScenarioReport("coexist-dcf", header, rows, [], [], template.config_echo)

    emit("coexist_aggregate", aggregate_report)
    emit("coexist_dcf_share", dcf_share_report)
    return results


def _beta_convergence(base: SimConfig, reps: int) -> ScenarioReport:
    """Learning-strength sweep plus the memoryless baseline, in schedules and seconds."""
    cfg = replace(base, protocol="lmac", sweep="beta",
                  sweep_values=(0.5, 0.7, 0.9, 0.95, 0.99))
    report = converge_sweep(cfg, reps=reps)
    phy = PhyParams(payload_bytes=base.payload_bytes)
    for rep_i in range(reps):
        run_seed = derive_seed(base.seed, "lbeb", rep_i)
        protos, rngs = _schedule_protocols(replace(base, protocol="lbeb", beta=None), run_seed)
        run = schedulesim.converge(protos, rngs, phy=phy)
        report.rows.append(
            ["lbeb", None, rep_i, run.schedules, run.seconds_before,
             base.config_hash()]
        )
    return report


def _jain_fairness(base: SimConfig, reps: int) -> ScenarioReport:
    rows: list[list] = []
    for beta in (0.5, 0.95, 0.99):
        for rep in range(reps):
            run_seed = derive_seed(base.seed, "jain", beta, rep)
            cfg = replace(base, protocol="lmac", beta=beta)
            protos, rngs = _schedule_protocols(cfg, run_seed)
            seq, _ = schedulesim.success_sequence_until_converged(protos, rngs)
            for m in range(1, 11):
                rows.append(
                    [beta, rep, m, metrics.jain_index(seq, base.n, m),
                     cfg.config_hash()]
                )
    summary = []
    for beta in (0.5, 0.95, 0.99):
        for m in range(1, 11):
            vals = [r[3] for r in rows if r[0] == beta and r[2] == m and r[3] is not None]
            if vals:
                mean, half = _ci(vals)
                summary.append([beta, m, len(vals), mean, half])
    return ScenarioReport(
        "jain-fairness",
        ["beta", "rep", "m", "jain", "config_hash"],
        rows,
        ["beta", "m", "reps", "jain_mean", "jain_ci95"],
        summary,
        base.echo(),
    )


def _rate_region(base: SimConfig, reps: int) -> ScenarioReport:
    rows: list[list] = []
    for beta in (0.75, 0.95):
        for rep in range(reps):
            cfg = replace(base, protocol="lmac", beta=beta,
                          seed=derive_seed(base.seed, "rate", beta, rep))
            lam = metrics.achievable_rate(cfg, 10.0, 120.0, seed=cfg.seed, iterations=4)
            rows.append(
                [beta, rep, lam, lam * base.payload_bytes * 8 / 1e6, cfg.config_hash()]
            )
    summary = []
    for beta in (0.75, 0.95):
        vals = [r[2] for r in rows if r[0] == beta]
        mean, half = _ci(vals)
        summary.append([beta, len(vals), mean, half])
    return ScenarioReport(
        "rate-region",
        ["beta", "rep", "lambda_pps", "offered_mbps_per_station", "config_hash"],
        rows,
        ["beta", "reps", "lambda_pps_mean", "lambda_pps_ci95"],
        summary,
        base.echo(),
    )


def _convergence_vs_load(base: SimConfig, reps: int) -> ScenarioReport:
    rows: list[list] = []
    phy = PhyParams(payload_bytes=base.payload_bytes)
    for protocol in ("lbeb", "lmac", "zc", "lzc"):
        for n in (5, 8, 11, 14, 16):
            params = _protocol_params(protocol, n, base.c)
            cfg = replace(base, protocol=protocol, n=n, **params)
            for rep in range(reps):
                run_seed = derive_seed(base.seed, "load", protocol, n, rep)
                protos, rngs = _schedule_protocols(cfg, run_seed)
                run = schedulesim.converge(protos, rngs, phy=phy)
                rows.append(
                    [protocol, n, n / base.c, rep, run.schedules,
                     run.seconds_before, cfg.config_hash()]
                )
    summary = []
    for protocol in ("lbeb", "lmac", "zc", "lzc"):
        for n in (5, 8, 11, 14, 16):
            vals = [r[5] for r in rows if r[0] == protocol and r[1] == n and r[5] is not None]
            if vals:
                mean, half = _ci(vals)
                summary.append([protocol, n, len(vals), mean, half])
    return ScenarioReport(
        "convergence-vs-load",
        ["protocol", "n", "load", "rep", "kappa_schedules", "seconds_before",
         "config_hash"],
        rows,
        ["protocol", "n", "reps", "seconds_mean", "seconds_ci95"],
        summary,
        base.echo(),
    )


def _collision_rate_vs_n(base: SimConfig, reps: int) -> ScenarioReport:
    report = throughput_vs_n(
        base, reps=reps, protocols=("dcf", "lbeb", "zc", "lzc", "lmac"),
        n_values=(14, 16, 18, 20),
    )
    report.kind = "collision-rate-vs-n"
    return report


def _adaptive_throughput(base: SimConfig, reps: int) -> ScenarioReport:
    rows: list[list] = []
    phy = PhyParams(payload_bytes=base.payload_bytes)
    f_table = default_f_table()
    for label, protocol, adaptation in (
        ("alzc", "lzc", "alzc"),
        ("azc", "zc", "alzc"),
        ("almac", "lmac", "almac"),
    ):
        for n in (8, 16, 24, 32):
            params = _protocol_params(protocol, n, 16)
            if protocol == "lzc":
                params["gamma"] = 0.5
            for rep in range(reps):
                cfg = replace(
                    base,
                    protocol=protocol,
                    adaptation=adaptation,
                    b=16,
                    c=None,
                    n=n,
                    seed=derive_seed(base.seed, "adapt", label, n, rep),
                    **params,
                )
                result = run_simulation(cfg, f_table=f_table)
                norm, mbps = metrics.throughput(result.trace, phy)
                rows.append([label, n, rep, norm, mbps, cfg.config_hash()])
    summary = []
    for label in ("alzc", "azc", "almac"):
        for n in (8, 16, 24, 32):
            vals = [r[3] for r in rows if r[0] == label and r[1] == n]
            mean, half = _ci(vals)
            summary.append([label, n, len(vals), mean, half])
    return ScenarioReport(
        "adaptive-throughput",
        ["scheme", "n", "rep", "thr_norm", "thr_mbps", "config_hash"],
        rows,
        ["scheme", "n", "reps", "thr_norm_mean", "thr_norm_ci95"],
        summary,
        base.echo(),
    )
