"""Run the benchmark over several seeds and report how much each metric spreads.

For every workload and end-to-end metric it prints the median over the
seeds and the distance between the first and third quartile as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from BENCHMARK.json.  The raw (unadjusted) times are reported beside
the host-speed adjusted ones.  Run from the root of a checkout::

    python3 bench/steadiness.py --seeds 1-10 --out bench/steadiness.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = ("wall_s", "raw_work_per_s", "raw_setup_s", "host_speed")


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0"
                                 / "result.json").read_text())
            values = {k: v["value"] for k, v in line["metrics"].items()}
            values.update({k: record[k] for k in RAW})
            runs.append({"seed": seed, "correct": line["correct"],
                         "iterations": record["iterations"], **values})
            print(workload, json.dumps(runs[-1]), flush=True)
        stats = {}
        for name in list(bounds) + list(RAW):
            values = [r[name] for r in runs]
            stats[name] = {"median": statistics.median(values), "spread": spread(values),
                           "bound": bounds.get(name)}
            print(f"  {workload} {name}: median {stats[name]['median']:.6g}"
                  f" spread {stats[name]['spread']:.4f} bound {bounds.get(name)}")
        summary["workloads"][workload] = {"runs": runs, "stats": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
