"""One iteration of one benchmark workload, in a fresh interpreter.

``bench.py`` starts this script once per iteration so that every iteration
pays the import and f-table set-up a command-line user pays, starts with
empty ``lru_cache``s, and has its own peak resident memory.  The script
imports macsim from the checkout's ``src`` directory, calls the real
command-line entry point ``macsim.cli.main`` in-process for each operation,
checks the emitted files, and writes one JSON result.

Usage (normally only from bench.py)::

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 \
        --dir OUT --spawned-at MONOTONIC [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

SIM_HORIZON_SLOTS = 20000
SIM_CONFIG = """\
protocol = lmac
n = 16
c = 16
beta = 0.95
horizon_slots = {horizon}
seed = {seed}
"""
FTABLE_LENGTHS = [16]
MARKOV_C, MARKOV_N = 16, 14
MARKOV_GAMMAS = [round(0.1 * i, 10) for i in range(1, 10)]


@dataclass
class Workload:
    keys: tuple[str, ...] = ()
    reps: int = 1
    sim: bool = False
    ftable: bool = False
    markov: bool = False
    #: What ``work_per_s`` counts for this workload.
    work_unit: str = "slots"


WORKLOADS = {
    "engine_saturated": Workload(
        keys=("throughput_vs_n", "error_robustness", "adaptive_throughput_vs_n",
              "coexist_aggregate"),
        reps=1, sim=True),
    "engine_poisson": Workload(keys=("delay_vs_n", "achievable_rate_vs_beta"), reps=2),
    "convergence_mc": Workload(
        keys=("beta_convergence", "jain_fairness", "convergence_time_vs_load"),
        reps=4, ftable=True, work_unit="schedules"),
    "chain_analysis": Workload(markov=True, work_unit="chain_points"),
}


#: Typical work of each command (slots, schedules or chain points), rounded
#: from seeds 1-6 of the unmodified program.  These only weight the commands
#: in ``mix_rate``: the lbeb runs make the convergence commands' work swing
#: 2-3x from seed to seed, and fixed weights keep that swing out of the rate.
NOMINAL_WORK = {
    "reproduce-all.throughput_vs_n": 180_000,
    "reproduce-all.error_robustness": 128_000,
    "reproduce-all.adaptive_throughput_vs_n": 144_000,
    "reproduce-all.coexist_aggregate": 72_000,
    "sim": 20_000,
    "reproduce-all.delay_vs_n": 404_000,
    "reproduce-all.achievable_rate_vs_beta": 100_000,
    "reproduce-all.beta_convergence": 75_000,
    "reproduce-all.jain_fairness": 1_500,
    "reproduce-all.convergence_time_vs_load": 60_000,
    "ftable": 15_600,
    "markov": 9,
}


@dataclass
class Op:
    """One command-line call covering the operations in ``points``.

    ``check`` returns a map from point to failure messages.
    """

    label: str
    argv: list[str]
    check: object
    points: list[str]
    failures: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0
    work: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def build_ops(name: str, seed: int, data: Path) -> list[Op]:
    spec = WORKLOADS[name]
    ops = []
    for key in spec.keys:
        ops.append(Op(
            f"reproduce-all.{key}",
            ["reproduce-all", "--out", str(data), "--reps", str(spec.reps),
             "--seed", str(seed), "--keys", key],
            lambda key=key: {key: checks.check_key(data, key, spec.reps)},
            [key],
        ))
    if spec.sim:
        sim_dir = data / "sim"
        cfg = data / "sim.cfg"
        ops.append(Op(
            "sim",
            ["sim", "--config", str(cfg), "--reps", "1", "--seed", str(seed),
             "--out", str(sim_dir)],
            lambda: {"sim": checks.check_sim(sim_dir, 1, SIM_HORIZON_SLOTS)},
            ["sim"],
        ))
    if spec.ftable:
        out = data / "ftable.csv"
        ops.append(Op(
            "ftable",
            ["ftable", "--schedule-lengths", ",".join(map(str, FTABLE_LENGTHS)),
             "--reps", "1000", "--seed", str(seed), "--out", str(out)],
            lambda: {"ftable": checks.check_ftable(out, FTABLE_LENGTHS)},
            ["ftable"],
        ))
    if spec.markov:
        out = data / "eigen.csv"
        ops.append(Op(
            "markov",
            ["markov", "--c", str(MARKOV_C), "--n", str(MARKOV_N),
             "--gamma", "0.1:0.9:0.1", "--out", str(out)],
            lambda: {f"gamma={g}": f for g, f in
                     checks.check_markov(out, MARKOV_C, MARKOV_N, MARKOV_GAMMAS).items()},
            [f"gamma={g}" for g in MARKOV_GAMMAS],
        ))
    return ops


def execute(ops: list[Op], main, tracer: tracing.Tracer, work=lambda: 0) -> None:
    """Call ``main`` (the CLI entry point) once per op, recording when it ran
    and how much ``work()`` grew meanwhile.

    A non-zero exit code or an exception fails every operation the op covers.
    """
    for op in ops:
        sid = tracer.open(f"op.{op.label}") if tracer.spans else None
        before = work()
        op.start = time.monotonic()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(op.argv)
            if code != 0:
                op.failures["exit"] = [f"exit code {code}"]
        except (Exception, SystemExit):
            op.failures["exit"] = [traceback.format_exc(limit=4)]
        finally:
            op.end = time.monotonic()
            op.work = work() - before
            if sid is not None:
                tracer.close(sid)


def mix_rate(ops: list[Op], seconds: list[float]) -> float:
    """Work per second with each command weighted by its nominal work.

    Equals total work over total seconds when every command does its nominal
    work; falls back to that ratio when a command did no work.
    """
    if any(op.work <= 0 for op in ops):
        return sum(op.work for op in ops) / sum(seconds)
    nominal = [NOMINAL_WORK[op.label] for op in ops]
    return sum(nominal) / sum(w * s / op.work for w, s, op in zip(nominal, seconds, ops))


def tally(ops: list[Op]) -> tuple[int, int, dict[str, list[str]]]:
    """Run the output checks; return attempted, failed and the failure messages."""
    attempted = failed = 0
    failures: dict[str, list[str]] = {}
    for op in ops:
        if "exit" not in op.failures:
            try:
                op.failures = op.check()
            except Exception:  # a check that cannot read the output fails it
                op.failures = {p: [traceback.format_exc(limit=2)] for p in op.points}
        for point in op.points:
            attempted += 1
            msgs = op.failures.get(point, []) + op.failures.get("exit", [])
            if msgs:
                failed += 1
                failures[point] = msgs
    return attempted, failed, failures


# -- instrumentation ---------------------------------------------------------


def install(tracer: tracing.Tracer, m) -> None:
    """Wrap every name the workloads' callers use.

    Work counters (slots, schedules) are installed in every run; they add a
    few microseconds per simulation or convergence call.  Spans, leaf timers
    and per-call counters are installed only when ``tracer.spans`` is set.
    """
    import numpy as np

    idle = int(m.phy.SlotKind.IDLE)
    cap_default = m.schedulesim.DEFAULT_SCHEDULE_CAP

    def count_run(tr, result, args, kwargs):
        tr.counts["runner.calls"] += 1
        tr.counts["runner.slots"] += len(result.trace)
        if tr.spans:
            kinds = np.asarray(result.trace.kinds)
            tr.counts["runner.idle_slots"] += int(np.count_nonzero(kinds == idle))

    def count_converge(tr, result, args, kwargs):
        k = result[1] if isinstance(result, tuple) else result.schedules
        tr.counts["schedulesim.calls"] += 1
        if k is None:
            tr.counts["schedulesim.censored"] += 1
            k = kwargs.get("cap", args[2] if len(args) > 2 else cap_default)
        tr.counts["schedulesim.schedules"] += k

    for owner in (m.scenarios, m.metrics, m.cli):
        tracer.span(owner, "run_simulation", "runner.run_simulation", after=count_run)
    for owner, attr in ((m.schedulesim, "converge"),
                        (m.schedulesim, "success_sequence_until_converged"),
                        (m.adaptation, "converge")):
        tracer.span(owner, attr, f"schedulesim.{attr}", after=count_converge)
    if not tracer.spans:
        return

    def count_bytes(arg_index):
        def after(tr, result, args, kwargs):
            path = args[arg_index] if len(args) > arg_index else kwargs["path"]
            tr.counts["csvio.bytes"] += Path(path).stat().st_size
        return after

    seen_chains: set = set()

    def chain_name(args, kwargs):
        key = tuple(args[:2])
        kind = "warm" if key in seen_chains else "cold"
        seen_chains.add(key)
        return f"markov.build_chain.{kind}"

    tracer.span(m.cli, "reproduce_all", "scenarios.reproduce_all")
    tracer.span(m.cli, "build_f_table", "adaptation.build_f_table")
    for owner in (m.scenarios, m.cli, m.csvio):
        tracer.span(owner, "write_csv", "csvio.write_csv", after=count_bytes(0))
    tracer.span(m.cli, "trace_to_csv", "csvio.trace_to_csv")
    tracer.span(m.cli, "events_to_csv", "csvio.events_to_csv")
    tracer.span(m.adaptation.FTable, "save_csv", "csvio.save_csv", after=count_bytes(1))
    for attr in METRICS_FUNCS:
        tracer.span(m.metrics, attr, f"metrics.{attr}")
    tracer.span(m.config.SimConfig, "config_hash", "config.config_hash")
    tracer.span(m.config.SimConfig, "echo", "config.echo")
    for owner in (m.scenarios, m.runner):
        tracer.span(owner, "derive_seed", "config.derive_seed")
    tracer.span(m.scenarios, "auto_gamma", "config.auto_gamma")
    tracer.span(m.markov, "build_chain", chain_name)
    tracer.span(m.markov, "second_eigenvalue", "markov.second_eigenvalue")
    tracer.span(m.markov, "mean_convergence", "markov.mean_convergence")
    tracer.count(m.markov, "transition_prob_formula", "markov.formula_calls")
    tracer.leaf(m.engine.Simulator, "step", "engine.step")
    for cls in ("Lbeb", "Zc", "Lzc", "Lmac"):
        owner = getattr(m.protocols, cls, None)
        if owner is None:
            tracer.missing.append(f"macsim.protocols.{cls}")
            continue
        tracer.count(owner, "on_schedule_end", "protocols.updates")


#: Functions of ``macsim.metrics`` the workloads' callers use.
METRICS_FUNCS = ("throughput", "collision_rate", "mean_access_delay_us", "jain_index",
                 "achievable_rate", "station_rho", "compute_run_metrics",
                 "detect_convergence", "success_sequence")
RUNNER = ("macsim.scenarios.run_simulation", "macsim.metrics.run_simulation",
          "macsim.cli.run_simulation")

#: Metric name prefix -> wrapped names it is computed from.  A metric is
#: left out when a missing name starts with one of them.
SOURCES = {
    "runner": RUNNER,
    "engine.step_s": ("Simulator.step",),
    "engine.idle_frac": RUNNER,
    "protocols.updates": ("Lbeb.", "Zc.", "Lzc.", "Lmac.", "macsim.protocols."),
    "schedulesim": ("macsim.schedulesim.", "macsim.adaptation.converge"),
    "adaptation.ftable_self_s": ("macsim.cli.build_f_table",),
    "markov.build": ("macsim.markov.build_chain",),
    "markov.formula_calls": ("macsim.markov.transition_prob_formula",),
    "markov.eigen_s": ("macsim.markov.second_eigenvalue",),
    "markov.solve_s": ("macsim.markov.mean_convergence",),
    "csvio": ("macsim.scenarios.write_csv", "macsim.cli.write_csv", "macsim.csvio.",
              "macsim.cli.trace_to_csv", "macsim.cli.events_to_csv", "FTable.save_csv"),
    "scenarios.self_s": ("macsim.cli.reproduce_all",),
    "metrics": tuple(f"macsim.metrics.{f}" for f in METRICS_FUNCS),
    "config": ("SimConfig.", "macsim.scenarios.derive_seed", "macsim.runner.derive_seed",
               "macsim.scenarios.auto_gamma"),
}


def per_layer(tracer: tracing.Tracer, ops: list[Op]) -> dict[str, float]:
    """Per-layer numbers of one traced iteration, and what each should move.

    * ``runner.*``, ``engine.step_s``, ``engine.idle_frac``: ``work_per_s`` of
      ``engine_saturated``; idle-slot savings show most on ``engine_poisson``
      (about 85 % idle slots).  No effect expected on the other two.
    * ``protocols.updates`` (``on_schedule_end`` calls), ``schedulesim.*``,
      ``adaptation.ftable_self_s``: ``work_per_s`` of ``convergence_mc``.
    * ``markov.*`` (``formula_calls`` counts closed-form chain entries; cold
      is the first build for a (C, N) in the process): ``chain_analysis``,
      whose ``peak_rss_mb`` also follows the cold build's caches.
    * ``csvio.*``: ``engine_saturated``, which writes the ``sim`` traces.
    * ``scenarios.key_s.<key>``, ``scenarios.self_s``, ``metrics.s``,
      ``config.s``: the three ``reproduce-all`` workloads; each self time is
      a few per cent at most.

    ``*.s`` of runner, schedulesim and csvio are inclusive seconds in their
    outermost calls; scenarios, metrics, config and ``build_f_table``
    report self time, without the wrapped calls they make.
    """
    c = tracer.counts
    slots = c["runner.slots"]
    cold = tracer.durations_named("markov.build_chain.cold")
    warm = tracer.durations_named("markov.build_chain.warm")
    values = {
        "runner.calls": c["runner.calls"],
        "runner.s": tracer.inclusive("runner"),
        "runner.slots": slots,
        "engine.step_s": tracer.leaf_total["engine.step"],
        "engine.idle_frac": c["runner.idle_slots"] / slots if slots else 0.0,
        "protocols.updates": c["protocols.updates"],
        "schedulesim.calls": c["schedulesim.calls"],
        "schedulesim.s": tracer.inclusive("schedulesim"),
        "schedulesim.schedules": c["schedulesim.schedules"],
        "schedulesim.censored": c["schedulesim.censored"],
        "adaptation.ftable_self_s": tracer.self_total("adaptation"),
        "markov.build_cold_s": sum(cold),
        "markov.build_warm_s": sum(warm),
        "markov.formula_calls": c["markov.formula_calls"],
        "markov.eigen_s": sum(tracer.durations_named("markov.second_eigenvalue")),
        "markov.solve_s": sum(tracer.durations_named("markov.mean_convergence")),
        "csvio.s": tracer.inclusive("csvio"),
        "csvio.bytes": c["csvio.bytes"],
        "scenarios.self_s": tracer.self_total("scenarios"),
        "metrics.s": tracer.self_total("metrics"),
        "config.s": tracer.self_total("config"),
    }
    op_seconds = {op.label: op.seconds for op in ops}
    for key in checks.KEY_ROWS:
        values[f"scenarios.key_s.{key}"] = op_seconds.get(f"reproduce-all.{key}", 0.0)

    def dropped(metric: str) -> bool:
        for prefix, names in SOURCES.items():
            if metric.startswith(prefix):
                return any(label.startswith(names) for label in tracer.missing)
        return False

    return {k: float(v) for k, v in values.items() if not dropped(k)}


# -- the run -----------------------------------------------------------------


MODULES = ("adaptation", "cli", "config", "csvio", "engine", "markov", "metrics", "phy",
           "protocols", "runner", "scenarios", "schedulesim")


def load_macsim() -> types.SimpleNamespace:
    """The macsim package and the modules the benchmark calls and wraps."""
    return types.SimpleNamespace(
        package=importlib.import_module("macsim"),
        **{name: importlib.import_module(f"macsim.{name}") for name in MODULES})


def blas_info() -> dict:
    """BLAS library, version and the thread count it actually uses."""
    import ctypes
    import numpy as np

    info: dict = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def digest(data: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in data.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(data)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run(args, speed: hostspeed.HostSpeed) -> dict:
    m = load_macsim()
    src = (ROOT / "src").resolve()
    if src not in Path(m.package.__file__).resolve().parents:
        raise SystemExit(f"macsim imported from {m.package.__file__}, not {src}")
    m.runner.default_f_table()
    ready = time.monotonic()
    result = {"setup_s": ready - args.spawned_at,
              "adj_setup_s": speed.adjust(args.spawned_at, ready)}
    if args.setup_only:
        return result

    spec = WORKLOADS[args.workload]
    out = Path(args.dir)
    data = out / "data"
    data.mkdir(parents=True, exist_ok=True)
    if spec.sim:
        (data / "sim.cfg").write_text(
            SIM_CONFIG.format(horizon=SIM_HORIZON_SLOTS, seed=args.seed))
    ops = build_ops(args.workload, args.seed, data)
    tracer = tracing.Tracer(spans=bool(args.trace))
    install(tracer, m)
    counter = {"slots": "runner.slots", "schedules": "schedulesim.schedules"}.get(spec.work_unit)
    try:
        execute(ops, m.cli.main, tracer, lambda: tracer.counts[counter] if counter else 0)
    finally:
        tracer.restore()
    adj_seconds = [speed.adjust(op.start, op.end) for op in ops]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, failures = tally(ops)

    c = tracer.counts
    if counter is None:
        for op in ops:
            op.work = sum(1 for p in op.points if p not in failures)
    work = sum(op.work for op in ops)
    result.update(
        wall_s=sum(op.seconds for op in ops),
        adj_wall_s=sum(adj_seconds),
        work_per_s=mix_rate(ops, adj_seconds),
        raw_work_per_s=work / sum(op.seconds for op in ops),
        host_speed=1.0 / speed.slowdown(),
        peak_rss_mb=peak_rss_mb,
        attempted=attempted,
        failed=failed,
        failures=failures,
        work=work,
        work_unit=spec.work_unit,
        runs=c["schedulesim.calls"] if spec.work_unit == "schedules" else c["runner.calls"],
        op_seconds={op.label: op.seconds for op in ops},
        op_adj_seconds={op.label: s for op, s in zip(ops, adj_seconds)},
        op_work={op.label: op.work for op in ops},
        unparsed_cells=checks.unparsed_cells(data),
        digest=digest(data),
        counts={k: c[k] for k in ("runner.calls", "runner.slots", "schedulesim.calls",
                                  "schedulesim.schedules", "schedulesim.censored")},
        missing=tracer.missing,
        provenance=blas_info(),
    )
    if tracer.spans:
        result["per_layer"] = per_layer(tracer, ops)
        result["exact_counts"] = {
            k: c[k] for k in ("runner.slots", "protocols.updates", "schedulesim.schedules",
                              "markov.formula_calls", "csvio.bytes")
        }
        tracer.dump(out / "spans.json")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    speed = hostspeed.HostSpeed().start()
    try:
        result = run(args, speed)
    finally:
        speed.stop()
    Path(args.dir).mkdir(parents=True, exist_ok=True)
    (Path(args.dir) / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
