"""macsim benchmark: four workloads, each made of real macsim commands.

Run from the root of a checkout::

    python3 bench/bench.py --workload engine_saturated --seed 1 --seconds 20 --trace 0

Workloads (every command of an iteration gets that iteration's seed,
``iteration_seed``):

* ``engine_saturated`` - ``reproduce-all`` keys throughput_vs_n,
  error_robustness, adaptive_throughput_vs_n and coexist_aggregate at
  ``--reps 1`` plus one ``macsim sim`` of lmac at N = C = 16 (20000 slots,
  trace and event CSVs).  Busy medium; the slot engine dominates.
* ``engine_poisson`` - keys delay_vs_n and achievable_rate_vs_beta at
  ``--reps 2``.  The same engine on a mostly idle medium with Poisson
  arrivals, queues and delay bookkeeping.
* ``convergence_mc`` - keys beta_convergence, jain_fairness and
  convergence_time_vs_load at ``--reps 4`` plus ``macsim ftable
  --schedule-lengths 16 --reps 1000``.  The schedule-synchronous Monte Carlo
  with all four rules, including the heavy-tailed lbeb runs at N = C = 16.
* ``chain_analysis`` - ``macsim markov --c 16 --n 14 --gamma 0.1:0.9:0.1``:
  one cold and eight warm chain builds plus the eigenvalue and hitting-time
  solves.  It has no random input; the seed is only recorded.

Each iteration runs in a fresh interpreter (``worker.py``), so it pays the
imports and f-table load a command-line user pays and starts with empty
caches.  Iterations start until ``--seconds`` have passed, each with the
next seed derived from ``--seed``; reported values are medians over the
iterations.  BLAS is pinned to one thread.

End-to-end metrics (``--trace 0``), each a median over the run's iterations:

* ``work_per_s`` - simulated MAC slots per second on the engine workloads
  (idle slots included), simulated schedules per second on
  ``convergence_mc``, chain points per second on ``chain_analysis``.  Each
  command's rate is weighted by its nominal work (``worker.mix_rate``):
  the lbeb runs make the convergence commands need two or three times as
  many schedules from one seed to the next, which would otherwise move
  the workload's rate and wall time with the seed rather than the code.
* ``peak_rss_mb`` - peak resident memory of the workload process.
* ``setup_s`` - interpreter start to the first workload call (imports and
  the packaged f-table load), median over the iterations plus extra set-up
  probes.

Times in ``work_per_s`` and ``setup_s`` are scaled to a reference host
speed by ``hostspeed.HostSpeed``: every 50 ms the worker times one of two
fixed, about 1 ms pure-Python loops, takes those samples out of each
command's seconds and divides the rest by the loops' slowdown during that
command.  On a shared 2-CPU host the speed of plain Python code drifts by
20-50 % within seconds to minutes; over ten seeds the quartile spread of
the unscaled rates was 0.13-0.23 of the median, and of the scaled ones
0.04-0.08 (``steadiness.json``).  The unscaled numbers are printed too.

``wall_s``, ``slots_per_s``, ``runs_per_s`` and ``failed_frac`` are printed
too.  ``wall_s`` is not gated: on ``convergence_mc`` it swings by a third
between seeds with the lbeb runs' schedule counts.  ``--trace 1`` runs an
untraced and a traced iteration on each seed and reports the per-layer
metrics of ``worker.per_layer``, the tracing overhead (traced minus
untraced seconds) and whether tracing left the outputs unchanged.
Every run writes its full record, provenance included, to
``.bench_out/<workload>-seed<seed>-trace<t>/result.json``; traced
iterations also keep their spans there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: Workloads, metric names and units come from the benchmark's declaration.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
#: Extra interpreter starts per run that stop at the first workload call.
SETUP_PROBES = 4
#: A run must end well inside the 180 s a caller allows it.
HARD_LIMIT_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, run_dir: Path, name: str, seed: int, traced: bool, setup_only: bool,
          deadline: float) -> dict:
    """Run one worker to completion and return its result record."""
    it_dir = run_dir / name
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--dir", str(it_dir)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{name} killed after {timeout:.0f} s"}
    result_file = it_dir / "result.json"
    if proc.returncode != 0 or not result_file.is_file():
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(result_file.read_text())
    shutil.rmtree(it_dir / "data", ignore_errors=True)
    return result


def iteration_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th iteration.

    Each iteration draws fresh inputs, so the run's median averages over
    several seeds of the workload as well as over host noise.  The seed
    sequence of ``build_f_table`` takes no negative entropy, hence ``abs``.
    """
    return abs(seed) * 100 + index


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def median(values):
    return statistics.median(values) if values else None


def run(args) -> tuple[dict, dict]:
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S

    probes = [spawn(args, run_dir, f"setup{i}", args.seed, False, True, deadline)
              for i in range(SETUP_PROBES)]
    errors = [p["error"] for p in probes if "error" in p]
    plain: list[dict] = []
    traced: list[dict] = []

    def keep(result: dict, into: list) -> None:
        if "error" not in result and result["work"] <= 0:
            result = {"error": f"no work counted; missing names: {result['missing']}"}
        if "error" in result:
            errors.append(result["error"])
        else:
            into.append(result)

    measure_start = time.monotonic()
    step_s: list[float] = []
    while not errors:
        now = time.monotonic()
        if step_s and (now - measure_start >= args.seconds or now + max(step_s) > deadline):
            break
        name = f"it{len(step_s):02d}"
        seed = iteration_seed(args.seed, len(step_s))
        keep(spawn(args, run_dir, name, seed, False, False, deadline), plain)
        if args.trace and not errors:
            keep(spawn(args, run_dir, name + "t", seed, True, False, deadline), traced)
        step_s.append(time.monotonic() - now)

    done = plain + traced
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    setups = [r for r in probes + plain if "setup_s" in r]
    e2e = {
        "work_per_s": median([r["work_per_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "setup_s": median([r["adj_setup_s"] for r in setups]),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": len(plain),
        "traced_iterations": len(traced),
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else None,
        "end_to_end": e2e,
        "wall_s": median([r["wall_s"] for r in plain]),
        "adj_wall_s": median([r["adj_wall_s"] for r in plain]),
        "raw_work_per_s": median([r["raw_work_per_s"] for r in plain]),
        "raw_setup_s": median([r["setup_s"] for r in setups]),
        "host_speed": median([r["host_speed"] for r in plain]),
        "iteration_wall_s": [r["wall_s"] for r in plain],
        "iteration_adj_wall_s": [r["adj_wall_s"] for r in plain],
        "run_seconds_total": time.monotonic() - started,
    }
    if plain:
        first = plain[0]
        work_unit = first["work_unit"]
        report.update(
            work_unit=work_unit,
            work=first["work"],
            slots_per_s=report["raw_work_per_s"] if work_unit == "slots" else None,
            runs_per_s=(median([r["runs"] / r["wall_s"] for r in plain])
                        if work_unit == "schedules" else None),
            op_seconds={k: median([r["op_seconds"][k] for r in plain])
                        for k in first["op_seconds"]},
            failures={k: v for r in done for k, v in r["failures"].items()},
            unparsed_cells=first["unparsed_cells"],
            iteration_seeds=[iteration_seed(args.seed, i) for i in range(len(plain))],
            digest=first["digest"],
            counts=first["counts"],
            missing=first["missing"],
            provenance=dict(
                first["provenance"],
                commit=git_commit(),
                seed=args.seed,
                cpu_count=os.cpu_count(),
                cpus_usable=len(os.sched_getaffinity(0)),
                python=platform.python_version(),
                platform=platform.platform(),
                blas_threads_env=child_env()["OPENBLAS_NUM_THREADS"],
            ),
        )
    layer = {}
    if traced:
        # Counts come from the first traced iteration, so they repeat exactly
        # at a fixed seed; times are unscaled medians over the traced iterations.
        names = traced[0]["per_layer"]
        for name in names:
            values = [r["per_layer"][name] for r in traced if name in r["per_layer"]]
            exact = UNITS.get(name) in ("count", "bytes")
            layer[name] = values[0] if exact else median(values)
        layer["report.unparsed_cells"] = float(traced[0]["unparsed_cells"])
        layer["trace.wall_s"] = median([r["wall_s"] for r in traced])
        layer["trace.overhead_s"] = median(
            [t["wall_s"] - p["wall_s"] for t, p in zip(traced, plain)])
        report.update(
            traced_outputs_unchanged=all(
                t["digest"] == p["digest"] for t, p in zip(traced, plain)),
            per_layer=layer,
            exact_counts=traced[0]["exact_counts"],
            missing=traced[0]["missing"],
        )
    (run_dir / "result.json").write_text(json.dumps(report, indent=1))
    return report, layer


def print_report(report: dict) -> None:
    w = report["workload"]
    print(f"# {w} seed={report['seed']} iterations={report['iterations']}"
          f" traced={report['traced_iterations']}")
    for err in report["errors"]:
        print(f"error: {err}")
    for name, value in report["end_to_end"].items():
        if value is not None:
            note = "" if name == "peak_rss_mb" else " (host-speed adjusted)"
            print(f"{name} {value:.6g} {UNITS[name]}{note}")
    for name, unit in (("wall_s", "s"), ("adj_wall_s", "s"), ("raw_work_per_s", "1/s"),
                       ("raw_setup_s", "s"), ("slots_per_s", "1/s"),
                       ("runs_per_s", "1/s"), ("host_speed", "ratio")):
        if report.get(name) is not None:
            print(f"{name} {report[name]:.6g} {unit}")
    if report["failed_frac"] is not None:
        print(f"failed_frac {report['failed_frac']:.6g}"
              f" ({report['failed']}/{report['attempted']})")
    for point, msgs in report.get("failures", {}).items():
        print(f"check failed: {point}: {msgs[0].strip().splitlines()[-1]}")
    for op, secs in report.get("op_seconds", {}).items():
        print(f"op {op} {secs:.4f} s")
    if "digest" in report:
        print(f"unparsed_cells {report['unparsed_cells']} count (reported, not gated)")
        print(f"digest sha256:{report['digest']} (seed {report['iteration_seeds'][0]})")
        print(f"work {report['work']} {report['work_unit']}")
    for name, value in report.get("per_layer", {}).items():
        print(f"layer {name} {value:.6g} {UNITS[name]}")
    if "exact_counts" in report:
        print(f"exact_counts {json.dumps(report['exact_counts'])}"
              f" (seed {report['iteration_seeds'][0]})")
        print(f"traced_outputs_unchanged {report['traced_outputs_unchanged']}")
    if report.get("missing"):
        print(f"missing names: {', '.join(report['missing'])}")
    if "provenance" in report:
        print(f"provenance {json.dumps(report['provenance'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="macsim benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, on which subprocess.run kills the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (ROOT / "src" / "macsim" / "__init__.py").is_file():
        print(f"no macsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    report, layer = run(args)
    print_report(report)
    if report["errors"] or (args.trace and not layer):
        print("run incomplete: " + "; ".join(report["errors"]), file=sys.stderr)
        return 1
    values = layer if args.trace else report["end_to_end"]
    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    line = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in values},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
