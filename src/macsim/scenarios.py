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
from .config import SCENARIO_BASE_LEN, SimConfig, derive_seed, resolve
from .config import auto_gamma  # noqa: F401  bench/worker.py times macsim.scenarios.auto_gamma
from .csvio import write_csv
from .phy import PhyParams
from .protocols import init_protocol
from .runner import run_simulation


@dataclass
class ScenarioReport:
    header: list[str]
    rows: list[list]
    summary_header: list[str]
    summary_rows: list[list]
    config_echo: str

    def write(self, out_dir: str | Path, name: str) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{name}.csv"
        write_csv(path, self.header, self.rows)
        if self.summary_rows:
            write_csv(out / f"{name}_summary.csv", self.summary_header, self.summary_rows)
        (out / f"{name}_config.txt").write_text(self.config_echo)
        return path


def _ci(values) -> tuple[float, float]:
    """Mean and Gaussian 95% half-width over replications."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    half = 1.96 * float(arr.std(ddof=1)) / np.sqrt(arr.size)
    return mean, half


def _summarise(rows, group_cols, value_cols, extra=None) -> list[list]:
    """One summary row per group of ``rows``, in first-appearance order.

    A summary row holds the group cells, the number of rows whose value cells
    are all set, the (mean, ci95) of each value column over those rows, and
    then ``extra(group)``.  A group without a value is left out.
    """
    groups: dict[tuple, list[list]] = {}
    for row in rows:
        values = [row[c] for c in value_cols]
        kept = groups.setdefault(tuple(row[c] for c in group_cols), [])
        if None not in values:
            kept.append(values)
    return [
        [*group, len(kept), *(x for column in zip(*kept) for x in _ci(column)),
         *(extra(group) if extra else ())]
        for group, kept in groups.items()
        if kept
    ]


def _report(cfg, rows, header, summary_header, group_cols, value_cols, extra=None):
    """Rows with their ``_summarise`` summary and ``cfg``'s echo."""
    return ScenarioReport(header, rows, summary_header,
                          _summarise(rows, group_cols, value_cols, extra), cfg.echo())


def _reps(cfg: SimConfig, reps: int | None) -> int:
    """``reps``, or the config's count when None; a count below 1 raises."""
    reps = cfg.reps if reps is None else reps
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    return reps


def _point(cfg: SimConfig, **changes) -> SimConfig:
    """Grid point: ``cfg`` with ``changes`` and its learning parameters derived
    afresh by ``resolve``."""
    return resolve(replace(cfg, beta=None, gamma=None, **changes))


def _schedule_protocols(cfg: SimConfig, run_seed: int):
    """``cfg``'s stations and the run's one generator, seeded by ``run_seed``;
    the stations draw from it in station order."""
    rng = np.random.default_rng(run_seed)
    return [init_protocol(cfg.protocol, cfg.schedule_len, rng, beta=cfg.beta, gamma=cfg.gamma)
            for _ in range(cfg.n)], rng


def _grid(seed: int, points, reps: int, run) -> list[list]:
    """Rows for every grid point x replication, in grid order.

    ``points`` holds (leading row cells, seed labels, config) per grid point.
    Replication ``rep`` runs on ``derive_seed(seed, *labels, rep)``, and
    ``run(config, run_seed)`` returns the rest of each row that run makes;
    ``rep`` goes between the leading cells and that rest.
    """
    return [
        [*cells, rep, *tail]
        for cells, labels, cfg in points
        for rep in range(reps)
        for tail in run(cfg, derive_seed(seed, *labels, rep))
    ]


#: Row tails of the engine runs made in the running ``reproduce_all`` call,
#: keyed by (measure, run config, run keywords); None outside such a call.
_runs: dict | None = None


def _simulated(measure, **run_kw):
    """Grid run: simulate the point's config on the run seed, then ``measure``.
    Within a ``reproduce_all`` call a run made before is read back from ``_runs``."""
    def run(cfg: SimConfig, run_seed: int) -> list[list]:
        cfg = replace(cfg, seed=run_seed)
        key = (measure, cfg, tuple(sorted(run_kw.items())))
        memo = {} if _runs is None else _runs
        if key not in memo:
            memo[key] = [*measure(run_simulation(cfg, **run_kw)), cfg.config_hash()]
        return [memo[key]]
    return run


def _converged(phy: PhyParams, hashed: SimConfig | None = None):
    """Grid run: schedule-synchronous convergence of the point's protocol."""
    def run(cfg: SimConfig, run_seed: int) -> list[list]:
        res = schedulesim.converge(*_schedule_protocols(cfg, run_seed), phy=phy)
        return [[res.schedules, res.seconds_before, (hashed or cfg).config_hash()]]
    return run


def converge_sweep(cfg: SimConfig, reps: int | None = None) -> ScenarioReport:
    """Mean convergence time over a learning-parameter grid.

    Sweeps the stay probability for the jump-to-idle learner or the learning
    strength for the feedback-only learner; for the former the exact chain
    prediction is attached to every grid point.
    """
    reps = _reps(cfg, reps)
    sweep = cfg.sweep or ("gamma" if cfg.protocol == "lzc" else "beta")
    if sweep == "gamma" and cfg.protocol != "lzc":
        raise ValueError("gamma sweeps need protocol lzc")
    if sweep == "beta" and cfg.protocol != "lmac":
        raise ValueError("beta sweeps need protocol lmac")
    values = list(cfg.sweep_values) or [round(0.1 * i, 2) for i in range(1, 10)]
    points = [((sweep, v), (sweep, v), replace(cfg, **{sweep: v, "sweep": sweep}))
              for v in values]
    rows = _grid(cfg.seed, points, reps, _converged(cfg.phy))

    def theory(group) -> list:
        if sweep == "gamma" and cfg.n <= min(cfg.c, markov.MAX_STATIONS):
            return [markov.mean_convergence(markov.build_chain(cfg.c, cfg.n, group[1]))]
        return [None]

    return _report(cfg, rows,
                   ["param", "value", "rep", "kappa_schedules", "seconds_before",
                    "config_hash"],
                   ["param", "value", "reps", "kappa_mean", "kappa_ci95", "seconds_mean",
                    "seconds_ci95", "kappa_theory"], (0, 1), (3, 4), theory)


_THROUGHPUT_HEADER = ["protocol", "n", "error_rate", "rep", "thr_norm", "thr_mbps",
                     "coll_rate", "config_hash"]


def _throughput_measure(result) -> list:
    trace = result.trace
    return [*metrics.throughput(trace, result.config.phy), metrics.collision_rate(trace)]


def _throughput_rows(cfg, protocols, n_values, error_rates, reps) -> list[list]:
    points = [((p, n, rate), (p, n, rate), _point(cfg, protocol=p, n=n, error_rate=rate))
              for rate in error_rates for p in protocols for n in n_values]
    return _grid(cfg.seed, points, reps, _simulated(_throughput_measure))


def throughput_vs_n(
    cfg: SimConfig,
    reps: int | None = None,
    protocols: tuple[str, ...] = ("dcf", "lbeb", "zc", "lzc", "lmac"),
    n_values: tuple[int, ...] | None = None,
) -> ScenarioReport:
    """Saturated long-run throughput and collision rate against station count."""
    n_values = n_values or cfg.n_values or (8, 16, 20)
    rows = _throughput_rows(cfg, protocols, n_values, (0.0,), _reps(cfg, reps))

    def model(group) -> list:
        protocol, n = group
        return [throughput.model_throughput(n, cfg.c, cfg.phy) if protocol != "dcf" else None]

    return _report(cfg, rows, _THROUGHPUT_HEADER,
                   ["protocol", "n", "reps", "thr_norm_mean", "thr_norm_ci95",
                    "thr_norm_model"], (0, 1), (4,), model)


def error_robustness(
    cfg: SimConfig,
    reps: int | None = None,
    protocols: tuple[str, ...] = ("dcf", "lbeb", "zc", "lzc", "lmac"),
) -> ScenarioReport:
    """Throughput under frame errors, which keep knocking schedules apart."""
    n_values = cfg.n_values or (14, 16)
    error_rates = cfg.error_rates or (0.01, 0.1)
    rows = _throughput_rows(cfg, protocols, n_values, error_rates, _reps(cfg, reps))
    return _report(cfg, rows, _THROUGHPUT_HEADER,
                   ["protocol", "n", "error_rate", "reps", "thr_norm_mean",
                    "thr_norm_ci95"], (0, 1, 2), (4,))


def delay_vs_n(cfg: SimConfig, reps: int | None = None) -> ScenarioReport:
    """Mean medium-access delay under symmetric Poisson load."""
    reps = _reps(cfg, reps)
    n_values = cfg.n_values or (8, 12, 16, 20)

    def point(label: str, n: int) -> SimConfig:
        protocol = "lmac" if label == "almac" else label
        length = (dict(adaptation="almac", b=SCENARIO_BASE_LEN, c=None) if label == "almac"
                  else dict(adaptation="none", b=None))
        return _point(cfg, protocol=protocol, n=n, traffic="poisson",
                      lambda_pps=cfg.lambda_pps or 62.5, **length)

    def measure(result):
        return [metrics.mean_access_delay_us(result),
                sum(st.delivered for st in result.stations)]

    points = [((label, n), (label, n), point(label, n))
              for label in ("dcf", "lmac", "lzc", "almac") for n in n_values]
    rows = _grid(cfg.seed, points, reps, _simulated(measure))
    return _report(cfg, rows,
                   ["protocol", "n", "rep", "mean_delay_us", "delivered", "config_hash"],
                   ["protocol", "n", "reps", "delay_us_mean", "delay_us_ci95"],
                   (0, 1), (3,))


def new_entrants(cfg: SimConfig, reps: int | None = None) -> ScenarioReport:
    """Reconvergence time after stations join an already settled network."""
    reps = _reps(cfg, reps)
    k_values = cfg.k_values or (2, 4, 8)

    def measure(result):
        if result.reconverged_time_us is None or result.join_time_us is None:
            return [None]
        return [(result.reconverged_time_us - result.join_time_us) / 1e6]

    points = [((k,), ("join", k), replace(cfg, join_n=k, join_when="converged"))
              for k in k_values]
    if any("dcf" in point.kinds for _, _, point in points):
        raise ValueError("new-entrants needs schedule stations; DCF never converges")
    rows = _grid(cfg.seed, points, reps,
                 _simulated(measure, stop_after_converged_schedules=2))
    return _report(cfg, rows, ["joiners", "rep", "reconverge_seconds", "config_hash"],
                   ["joiners", "reps", "reconverge_s_mean", "reconverge_s_ci95"],
                   (0,), (2,))


def coexist(cfg: SimConfig, reps: int | None = None) -> ScenarioReport:
    """Mixed population: K stations of the base protocol share the channel
    with K stations of the partner, ``coexist_protocol`` (default DCF);
    reports total and partner-only throughput."""
    return _coexist(cfg, (cfg.protocol,), _reps(cfg, reps), cfg.k_values or (4, 8, 16))


def _coexist_measure(result) -> list:  # the partners are stations 0 to coexist_k - 1
    bits = result.config.payload_bytes * 8
    total = sum(st.delivered for st in result.stations) * bits / result.sim_time_us
    k = result.config.coexist_k
    sent = sum(st.delivered for st in result.stations if st.sid < k)
    return [total, sent * bits / result.sim_time_us, result.sim_time_us / 1e6]


def _coexist(cfg, protocols, reps, k_values) -> ScenarioReport:
    partner = cfg.coexist_protocol or "dcf"
    points = [((p, partner, k), ("coexist", k),
               _point(cfg, protocol=p, n=2 * k, coexist_k=k, coexist_protocol=partner))
              for p in protocols for k in k_values]
    rows = _grid(cfg.seed, points, reps, _simulated(_coexist_measure))
    return _report(cfg, rows,
                   ["protocol", "partner", "k", "rep", "thr_total_mbps",
                    "thr_partner_mbps", "elapsed_s", "config_hash"],
                   ["protocol", "partner", "k", "reps", "total_mbps_mean",
                    "total_mbps_ci95", "partner_mbps_mean", "partner_mbps_ci95"],
                   (0, 1, 2), (4, 5))


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
    return SCENARIOS[kind](cfg, reps=reps).write(out_dir, kind)


# ---------------------------------------------------------------------------
# Full report generation
# ---------------------------------------------------------------------------


def _base(seed: int, **kw) -> SimConfig:
    defaults = dict(protocol="lmac", n=16, c=16, horizon_slots=12000, seed=seed)
    defaults.update(kw)
    return SimConfig(**defaults)


def _beta_convergence(base: SimConfig, reps: int) -> ScenarioReport:
    """Learning-strength sweep plus the memoryless baseline, in schedules and seconds."""
    cfg = replace(base, protocol="lmac", sweep="beta",
                  sweep_values=(0.5, 0.7, 0.9, 0.95, 0.99))
    report = converge_sweep(cfg, reps=reps)
    lbeb = [(("lbeb", None), ("lbeb",), replace(base, protocol="lbeb", beta=None))]
    report.rows += _grid(base.seed, lbeb, reps, _converged(base.phy, hashed=base))
    return report


def _jain_fairness(base: SimConfig, reps: int) -> ScenarioReport:
    def run(cfg: SimConfig, run_seed: int) -> list[list]:
        seq, _ = schedulesim.success_sequence_until_converged(
            *_schedule_protocols(cfg, run_seed))
        return [[m, metrics.jain_index(seq, base.n, m), cfg.config_hash()]
                for m in range(1, 11)]

    points = [((beta,), ("jain", beta), replace(base, protocol="lmac", beta=beta))
              for beta in (0.5, 0.95, 0.99)]
    rows = _grid(base.seed, points, reps, run)
    return _report(base, rows, ["beta", "rep", "m", "jain", "config_hash"],
                   ["beta", "m", "reps", "jain_mean", "jain_ci95"], (0, 2), (3,))


def _rate_region(base: SimConfig, reps: int) -> ScenarioReport:
    def run(cfg: SimConfig, run_seed: int) -> list[list]:
        cfg = replace(cfg, seed=run_seed)
        lam = metrics.achievable_rate(cfg, 10.0, 120.0, seed=cfg.seed, iterations=4)
        return [[lam, lam * base.payload_bytes * 8 / 1e6, cfg.config_hash()]]

    points = [((beta,), ("rate", beta), replace(base, protocol="lmac", beta=beta))
              for beta in (0.75, 0.95)]
    rows = _grid(base.seed, points, reps, run)
    return _report(base, rows,
                   ["beta", "rep", "lambda_pps", "offered_mbps_per_station", "config_hash"],
                   ["beta", "reps", "lambda_pps_mean", "lambda_pps_ci95"], (0,), (2,))


def _convergence_vs_load(base: SimConfig, reps: int) -> ScenarioReport:
    points = [((p, n, n / base.c), ("load", p, n), _point(base, protocol=p, n=n))
              for p in ("lbeb", "lmac", "zc", "lzc") for n in (5, 8, 11, 14, 16)]
    rows = _grid(base.seed, points, reps, _converged(base.phy))
    return _report(base, rows,
                   ["protocol", "n", "load", "rep", "kappa_schedules", "seconds_before",
                    "config_hash"],
                   ["protocol", "n", "reps", "seconds_mean", "seconds_ci95"], (0, 1), (5,))


def _adaptive_throughput(base: SimConfig, reps: int) -> ScenarioReport:
    points = [
        ((label, n), ("adapt", label, n),
         _point(base, protocol=protocol, adaptation=adaptation, b=SCENARIO_BASE_LEN,
                c=None, n=n))
        for label, protocol, adaptation in (
            ("alzc", "lzc", "alzc"), ("azc", "zc", "alzc"), ("almac", "lmac", "almac"))
        for n in (8, 16, 24, 32)
    ]
    rows = _grid(base.seed, points, reps, _simulated(
        lambda result: metrics.throughput(result.trace, base.phy)))
    return _report(base, rows,
                   ["scheme", "n", "rep", "thr_norm", "thr_mbps", "config_hash"],
                   ["scheme", "n", "reps", "thr_norm_mean", "thr_norm_ci95"], (0, 1), (3,))


def _coexist_runs(seed: int, reps: int) -> ScenarioReport:
    """The coexistence runs of all three base protocols, read by both coexist keys."""
    return _coexist(_base(seed, protocol="dcf", horizon_slots=8000),
                    ("dcf", "lmac", "lzc"), reps, (4, 8, 16))


def _dcf_share(report: ScenarioReport) -> ScenarioReport:
    header = ["protocol", "partner", "k", "rep", "thr_partner_mbps", "config_hash"]
    rows = [[r[0], r[1], r[2], r[3], r[5], r[7]] for r in report.rows]
    return ScenarioReport(header, rows, [], [], report.config_echo)


#: reproduce-all dataset key -> builder(seed, reps), in run order.  The
#: builders look the scenario functions up when they run, so a patched or
#: wrapped name is used.
REPRODUCE_ALL = {
    "throughput_vs_n": lambda seed, reps: throughput_vs_n(_base(seed), reps=reps),
    "gamma_convergence_theory_vs_sim": lambda seed, reps: converge_sweep(
        _base(seed, protocol="lzc", sweep="gamma"), reps=max(reps, 2)),
    "beta_convergence": lambda seed, reps: _beta_convergence(_base(seed), reps),
    "jain_fairness": lambda seed, reps: _jain_fairness(_base(seed), reps),
    "achievable_rate_vs_beta": lambda seed, reps: _rate_region(
        _base(seed, n=20, horizon_slots=5000), reps),
    "throughput_model_vs_sim": lambda seed, reps: throughput_vs_n(
        _base(seed), reps=reps, protocols=("lmac",), n_values=(8, 12, 16, 17, 18, 20)),
    "convergence_time_vs_load": lambda seed, reps: _convergence_vs_load(_base(seed), reps),
    "collision_rate_vs_n": lambda seed, reps: throughput_vs_n(
        _base(seed), reps=reps, n_values=(14, 16, 18, 20)),
    "adaptive_throughput_vs_n": lambda seed, reps: _adaptive_throughput(_base(seed), reps),
    "delay_vs_n": lambda seed, reps: delay_vs_n(
        _base(seed, traffic="poisson", lambda_pps=62.5, horizon_seconds=1.0,
              horizon_slots=None),
        reps=reps),
    "error_robustness": lambda seed, reps: error_robustness(
        _base(seed, horizon_slots=8000), reps=reps, protocols=("dcf", "lbeb", "lzc", "lmac")),
    "new_entrants": lambda seed, reps: new_entrants(
        _base(seed, n=8, horizon_slots=40000), reps=reps),
    "coexist_aggregate": _coexist_runs,
    "coexist_dcf_share": lambda seed, reps: _dcf_share(_coexist_runs(seed, reps)),
}


def reproduce_all(
    out_dir: str | Path, reps: int = 2, seed: int = 1, keys: list[str] | None = None
) -> dict[str, str]:
    """Emit the full set of result CSVs at desk scale.

    Returns a map from dataset key to the written path, or to ``"FAILED:
    reason"`` when one dataset errors; the remaining datasets are still
    produced, and the failing one's traceback is logged.  Identical (seed,
    reps) inputs reproduce identical bytes, for any subset of ``keys``; an
    engine run that several keys make is played once per call.  Unknown or
    empty ``keys`` and ``reps`` below 1 raise ValueError before anything runs.
    """
    global _runs
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    unknown = [key or "''" for key in keys or () if key not in REPRODUCE_ALL]
    if unknown:
        raise ValueError(f"unknown keys {', '.join(unknown)}; "
                         f"valid keys: {', '.join(REPRODUCE_ALL)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: dict[str, str] = {}
    _runs = {}
    try:
        for key, build in REPRODUCE_ALL.items():
            if keys is not None and key not in keys:
                continue
            try:
                results[key] = str(build(seed, reps).write(out, key))
            except Exception as exc:  # per-key isolation: the other keys still run
                import logging  # here, not at the top: it adds about 4 ms to every start

                logging.getLogger(__name__).exception("reproduce-all key %s failed", key)
                results[key] = f"FAILED: {exc}"
    finally:
        _runs = None
    return results
