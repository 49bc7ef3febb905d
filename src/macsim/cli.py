"""Command-line entry points: sim, scenario, markov, ftable, reproduce-all."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import markov, metrics
from .adaptation import build_f_table
from .config import ConfigError, load_config
from .csvio import events_to_csv, trace_to_csv, write_csv
from .runner import run_simulation
from .scenarios import SCENARIOS, reproduce_all, run_scenario


def _load(path: str):
    try:
        return load_config(path)
    except ConfigError as err:
        for diag in err.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_sim(args) -> int:
    cfg = _load(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.reps is not None:
        cfg = replace(cfg, reps=args.reps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for rep in range(cfg.reps):
        result = run_simulation(cfg, rep_index=rep)
        trace_to_csv(result.trace, out / f"trace_rep{rep}.csv")
        events_to_csv(result.events, out / f"events_rep{rep}.csv")
        rows.append([rep] + metrics.compute_run_metrics(result).csv_row())
    write_csv(out / "metrics.csv", ["rep"] + metrics.RunMetrics.CSV_HEADER, rows)
    (out / "config.txt").write_text(cfg.echo())
    print(f"wrote {cfg.reps} replication(s) to {out}")
    return 0


def _cmd_scenario(args) -> int:
    cfg = _load(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    path = run_scenario(args.kind, cfg, args.out, reps=args.reps)
    print(f"wrote {path}")
    return 0


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        lo, hi, step = (float(v) for v in text.split(":"))
        values = []
        v = lo
        while v <= hi + 1e-12:
            values.append(round(v, 10))
            v += step
        return values
    return [float(v) for v in text.split(",")]


def _cmd_markov(args) -> int:
    gammas = _parse_grid(args.gamma)
    rows = []
    for gamma in gammas:
        chain = markov.build_chain(args.c, args.n, gamma)
        lam_num, block = markov.second_eigenvalue(chain)
        rows.append(
            [args.c, args.n, gamma,
             markov.lambda_star_closed(args.c, args.n, gamma),
             lam_num, block, markov.mean_convergence(chain)]
        )
    write_csv(
        args.out,
        ["c", "n", "gamma", "lambda_closed", "lambda_numeric",
         "max_block", "mean_schedules"],
        rows,
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_ftable(args) -> int:
    lengths = [int(v) for v in args.schedule_lengths.split(",")]
    try:
        table = build_f_table(lengths, reps=args.reps, seed=args.seed)
    except ValueError as err:
        print(f"ftable error: {err}", file=sys.stderr)
        return 2
    table.save_csv(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_reproduce_all(args) -> int:
    keys = args.keys.split(",") if args.keys else None
    try:
        results = reproduce_all(args.out, reps=args.reps, seed=args.seed, keys=keys)
    except ValueError as err:
        print(f"reproduce-all error: {err}", file=sys.stderr)
        return 2
    failed = 0
    for key in sorted(results):
        print(f"{key}: {results[key]}")
        if results[key].startswith("FAILED"):
            failed += 1
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macsim",
        description="Slot-level simulator for decentralised collision-free WLAN MACs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="run replications of one config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--reps", type=int)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_sim)

    p_sc = sub.add_parser("scenario", help="run a named experiment family")
    p_sc.add_argument("kind", choices=sorted(SCENARIOS))
    p_sc.add_argument("--config", required=True)
    p_sc.add_argument("--seed", type=int)
    p_sc.add_argument("--reps", type=int)
    p_sc.add_argument("--out", required=True)
    p_sc.set_defaults(func=_cmd_scenario)

    p_mk = sub.add_parser("markov", help="exact convergence analysis")
    p_mk.add_argument("--c", type=int, required=True)
    p_mk.add_argument("--n", type=int, required=True)
    p_mk.add_argument("--gamma", required=True,
                      help="single value, comma list, or lo:hi:step grid")
    p_mk.add_argument("--out", required=True)
    p_mk.set_defaults(func=_cmd_markov)

    p_ft = sub.add_parser("ftable", help="tabulate convergence horizons")
    p_ft.add_argument("--schedule-lengths", required=True,
                      help="comma-separated lengths, e.g. 16,32,64")
    p_ft.add_argument("--reps", type=int, default=1000)
    p_ft.add_argument("--seed", type=int, default=1)
    p_ft.add_argument("--out", required=True)
    p_ft.set_defaults(func=_cmd_ftable)

    p_ra = sub.add_parser("reproduce-all", help="emit the full result datasets")
    p_ra.add_argument("--out", required=True)
    p_ra.add_argument("--reps", type=int, default=2)
    p_ra.add_argument("--seed", type=int, default=1)
    p_ra.add_argument("--keys", help="comma-separated subset of dataset keys")
    p_ra.set_defaults(func=_cmd_reproduce_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
