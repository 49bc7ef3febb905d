"""Output checks for the benchmark's workloads.

Every check reads the CSV files a workload emitted and returns a list of
failure messages; an empty list means the output passed.  The benchmark
counts an operation as failed when any of its checks returns a message.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

#: Per reproduce-all key: (data rows per replication, summary rows).  Both
#: follow from the key's fixed grid in ``macsim.scenarios.reproduce_all``;
#: for the keys of ``SUMMARY_GROUPS`` the summary count is the full grid's.
KEY_ROWS = {
    "throughput_vs_n": (15, 15),  # 5 protocols x 3 station counts
    "error_robustness": (16, 16),  # 2 error rates x 4 protocols x 2 counts
    "adaptive_throughput_vs_n": (12, 12),  # 3 schemes x 4 station counts
    "coexist_aggregate": (9, 9),  # 3 protocols x 3 group sizes
    "delay_vs_n": (16, 16),  # 4 protocols x 4 station counts
    "achievable_rate_vs_beta": (2, 2),  # 2 learning strengths
    "beta_convergence": (6, 5),  # 5 learning strengths + the lbeb baseline
    "jain_fairness": (30, 30),  # 3 learning strengths x 10 window sizes
    "convergence_time_vs_load": (20, 20),  # 4 protocols x 5 station counts
}

#: Keys whose summary has one row per group of data rows with at least one
#: value: (group columns, value column).  The program leaves a group out
#: when the value is empty in every replication, as a Jain index over more
#: successes than a run made is; the summary's ``reps`` counts the values.
SUMMARY_GROUPS = {
    "delay_vs_n": (("protocol", "n"), "mean_delay_us"),
    "jain_fairness": (("beta", "m"), "jain"),
    "convergence_time_vs_load": (("protocol", "n"), "seconds_before"),
}

#: Keys whose rows carry a normalised throughput that must lie in (0, 1].
THR_NORM_KEYS = {"throughput_vs_n", "error_robustness", "adaptive_throughput_vs_n"}

#: Keys whose rows are schedule-synchronous convergence runs at C = 16.
CONVERGE_KEYS = {"beta_convergence", "convergence_time_vs_load"}
SCHEDULE_LEN = 16

#: ``mean_schedules`` of ``macsim markov --c 16 --n 14 --gamma 0.1:0.9:0.1``
#: as the unmodified program computes it; the chain is exact, so any change
#: beyond rounding is a change in the analysis.
MARKOV_REFERENCE = {
    (16, 14, 0.1): 4.399828690545181,
    (16, 14, 0.2): 4.053342612527673,
    (16, 14, 0.3): 3.91625239578548,
    (16, 14, 0.4): 3.9382907175936226,
    (16, 14, 0.5): 4.126191007955276,
    (16, 14, 0.6): 4.5432785558916375,
    (16, 14, 0.7): 5.36769181636018,
    (16, 14, 0.8): 7.15732027703889,
    (16, 14, 0.9): 12.729991735402876,
}
LAMBDA_TOL = 1e-9
MEAN_REL_TOL = 1e-9

#: Columns that hold labels rather than numbers.
TEXT_COLUMNS = {
    "protocol", "partner", "param", "scheme", "kind", "transmitters",
    "config_hash", "outcome",
}


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _number(text: str) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _row_count(path: Path, expected: int) -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    got = len(read_rows(path))
    if got != expected:
        return [f"{path.name}: {got} rows, expected {expected}"]
    return []


def _thr_norm(path: Path) -> list[str]:
    bad = []
    for i, row in enumerate(read_rows(path)):
        value = _number(row.get("thr_norm", ""))
        if value is None or not 0.0 < value <= 1.0:
            bad.append(f"{path.name} row {i}: thr_norm {row.get('thr_norm')!r} not in (0, 1]")
    return bad


def _converged(path: Path) -> list[str]:
    bad = []
    for i, row in enumerate(read_rows(path)):
        n = int(row["n"]) if row.get("n") else SCHEDULE_LEN
        if n > SCHEDULE_LEN:
            continue
        kappa = _number(row.get("kappa_schedules", ""))
        if kappa is None or kappa < 1:
            bad.append(f"{path.name} row {i}: run at N={n} <= C did not converge")
    return bad


def _summary_groups(main: Path, summary: Path, groups: tuple[str, ...],
                    value: str) -> list[str]:
    """The summary holds exactly the groups with values, each with its count."""
    expected: dict[tuple, int] = {}
    for row in read_rows(main):
        group = tuple(row[c] for c in groups)
        expected[group] = expected.get(group, 0) + (row[value] != "")
    expected = {g: n for g, n in expected.items() if n}
    rows = read_rows(summary)
    got = {tuple(row[c] for c in groups): row["reps"] for row in rows}
    bad = []
    if len(rows) > len(got):
        bad.append(f"{summary.name}: {len(rows) - len(got)} repeated rows")
    bad += [f"{summary.name}: no row for {g} with {n} values"
            for g, n in expected.items() if got.get(g) != str(n)]
    bad += [f"{summary.name}: row for {g}, which has no values"
            for g in got if g not in expected]
    return bad


def check_key(data_dir: Path, key: str, reps: int) -> list[str]:
    """Row counts plus the value checks that apply to one reproduce-all key."""
    per_rep, summary = KEY_ROWS[key]
    main = data_dir / f"{key}.csv"
    summary_path = data_dir / f"{key}_summary.csv"
    failures = _row_count(main, per_rep * reps)
    if key in SUMMARY_GROUPS:
        if not summary_path.is_file():
            failures.append(f"{summary_path.name}: missing")
        if not failures:
            failures += _summary_groups(main, summary_path, *SUMMARY_GROUPS[key])
    else:
        failures += _row_count(summary_path, summary)
    if failures:
        return failures
    if key in THR_NORM_KEYS:
        failures += _thr_norm(main)
    if key in CONVERGE_KEYS:
        failures += _converged(main)
    return failures


def check_sim(sim_dir: Path, reps: int, horizon_slots: int) -> list[str]:
    """``macsim sim`` of a learning protocol at N <= C on a clean channel."""
    failures = []
    for rep in range(reps):
        failures += _row_count(sim_dir / f"trace_rep{rep}.csv", horizon_slots)
        events = sim_dir / f"events_rep{rep}.csv"
        if not events.is_file() or not read_rows(events):
            failures.append(f"{events.name}: missing or empty")
    metrics = sim_dir / "metrics.csv"
    failures += _row_count(metrics, reps)
    if not failures:
        failures += _thr_norm(metrics) + _converged(metrics)
    return failures


def check_ftable(path: Path, lengths: list[int]) -> list[str]:
    failures = _row_count(path, len(lengths))
    if failures:
        return failures
    for row in read_rows(path):
        f, lo, hi = (_number(row.get(k, "")) for k in ("f", "ci_low", "ci_high"))
        if f is None or lo is None or hi is None or not 1 <= lo <= f <= hi:
            failures.append(f"{path.name}: bad entry {row}")
        if int(row["schedule_len"]) not in lengths:
            failures.append(f"{path.name}: unexpected length {row['schedule_len']}")
    return failures


def check_markov(path: Path, c: int, n: int, gammas: list[float]) -> dict[float, list[str]]:
    """Failures per chain point (C, N, gamma) of one ``macsim markov`` table."""
    failures: dict[float, list[str]] = {g: [] for g in gammas}
    rows = {}
    if path.is_file():
        for row in read_rows(path):
            gamma = _number(row.get("gamma", ""))
            if gamma is not None:
                rows[round(gamma, 10)] = row
    for gamma in gammas:
        row = rows.get(round(gamma, 10))
        if row is None:
            failures[gamma].append(f"gamma={gamma}: no row")
            continue
        closed = _number(row.get("lambda_closed", ""))
        numeric = _number(row.get("lambda_numeric", ""))
        if closed is None or numeric is None or abs(closed - numeric) > LAMBDA_TOL:
            failures[gamma].append(
                f"gamma={gamma}: lambda_numeric {row.get('lambda_numeric')} "
                f"!= lambda_closed {row.get('lambda_closed')}"
            )
        mean = _number(row.get("mean_schedules", ""))
        ref = MARKOV_REFERENCE.get((c, n, round(gamma, 10)))
        if ref is None:
            failures[gamma].append(f"gamma={gamma}: no reference value")
        elif mean is None or abs(mean - ref) > MEAN_REL_TOL * abs(ref):
            failures[gamma].append(
                f"gamma={gamma}: mean_schedules {row.get('mean_schedules')} != {ref!r}"
            )
    return failures


def unparsed_cells(data_dir: Path) -> int:
    """Cells of numeric columns, in every emitted CSV, that do not parse."""
    bad = 0
    for path in sorted(data_dir.rglob("*.csv")):
        for row in read_rows(path):
            for column, cell in row.items():
                if column in TEXT_COLUMNS or not cell:
                    continue
                try:
                    float(cell)
                except ValueError:
                    bad += 1
    return bad
