"""Scenario orchestration and the command-line surface."""

import csv
import functools
import logging
from pathlib import Path

import numpy as np
import pytest

from macsim import markov, scenarios, schedulesim
from macsim.cli import main
from macsim.config import SimConfig
from macsim.csvio import write_csv
from macsim.scenarios import (
    SCENARIOS,
    converge_sweep,
    coexist,
    new_entrants,
    run_scenario,
    throughput_vs_n,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- scenarios ----------------------------------------------------------------


def test_converge_sweep_rows_and_theory():
    cfg = SimConfig(protocol="lzc", n=3, c=4, gamma=0.5, sweep="gamma",
                    sweep_values=(0.3, 0.5), seed=5)
    report = converge_sweep(cfg, reps=3)
    assert len(report.rows) == 6
    by_value = {row[1]: row for row in report.summary_rows}
    for value in (0.3, 0.5):
        chain = markov.build_chain(4, 3, value)
        assert by_value[value][-1] == pytest.approx(markov.mean_convergence(chain))


def test_censored_groups_are_left_out(tmp_path, monkeypatch):
    # six stations never share four slots, so every capped run is censored
    monkeypatch.setattr(schedulesim, "converge",
                        functools.partial(schedulesim.converge, cap=2))
    cfg = SimConfig(protocol="lmac", n=6, c=4, sweep="beta", sweep_values=(0.5, 0.9),
                    seed=5)
    report = converge_sweep(cfg, reps=2)
    assert [row[3:5] for row in report.rows] == [[None, None]] * 4
    assert report.summary_rows == []
    report.write(tmp_path, "capped")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["capped.csv", "capped_config.txt"]


def test_summarise_counts_values_and_leaves_out_empty_groups():
    rows = [
        ["b", 0, None, 1.0],
        ["a", 0, 1.0, 2.0],
        ["a", 1, 3.0, None],
        ["c", 0, 7.0, 8.0],
        ["a", 2, 5.0, 4.0],
        ["b", 1, None, None],
    ]
    summary = scenarios._summarise(rows, (0,), (2, 3), lambda group: [group[0] * 2])
    assert summary == [
        ["a", 2, 3.0, pytest.approx(1.96 * 2.0), 3.0, pytest.approx(1.96), "aa"],
        ["c", 1, 7.0, 0.0, 8.0, 0.0, "cc"],
    ]


def test_converge_sweep_rejects_mismatched_protocol():
    cfg = SimConfig(protocol="lmac", n=3, c=4, sweep="gamma")
    with pytest.raises(ValueError):
        converge_sweep(cfg, reps=1)


def test_unknown_scenario_kind():
    with pytest.raises(ValueError):
        run_scenario("nope", SimConfig(), ".")


def test_throughput_scenario_report(tmp_path):
    cfg = SimConfig(protocol="lmac", n=8, c=8, horizon_slots=2500, seed=6)
    report = throughput_vs_n(cfg, reps=2, protocols=("lmac", "dcf"), n_values=(4, 8))
    path = report.write(tmp_path, "throughput-vs-n")
    rows = read_csv(path)
    assert len(rows) == 8
    assert {r["protocol"] for r in rows} == {"lmac", "dcf"}
    assert all(0.0 < float(r["thr_norm"]) < 1.0 for r in rows)
    assert (tmp_path / "throughput-vs-n_summary.csv").exists()
    assert (tmp_path / "throughput-vs-n_config.txt").exists()


def test_scenario_rows_are_deterministic(tmp_path):
    cfg = SimConfig(protocol="lzc", n=4, c=8, gamma=0.5, horizon_slots=1500, seed=7)
    a = throughput_vs_n(cfg, reps=2, protocols=("lzc",), n_values=(4,))
    b = throughput_vs_n(cfg, reps=2, protocols=("lzc",), n_values=(4,))
    assert a.rows == b.rows
    p1 = a.write(tmp_path / "x", "t")
    p2 = b.write(tmp_path / "y", "t")
    assert p1.read_bytes() == p2.read_bytes()


def test_adding_replications_preserves_existing_rows():
    cfg = SimConfig(protocol="lzc", n=4, c=8, gamma=0.5, horizon_slots=1200, seed=8)
    small = throughput_vs_n(cfg, reps=2, protocols=("lzc",), n_values=(4,))
    large = throughput_vs_n(cfg, reps=4, protocols=("lzc",), n_values=(4,))
    assert large.rows[:2] == small.rows


def test_new_entrants_scenario():
    cfg = SimConfig(protocol="lmac", n=4, c=8, horizon_slots=30000, seed=9)
    report = new_entrants(cfg, reps=2, k_values=(2,))
    times = [row[2] for row in report.rows]
    assert all(t is not None and t > 0 for t in times)
    with pytest.raises(ValueError, match="DCF"):
        new_entrants(SimConfig(protocol="dcf", n=4, c=8, horizon_slots=3000, seed=9))


def test_coexist_scenario_shares():
    cfg = SimConfig(protocol="lmac", n=8, c=8, horizon_slots=3000, seed=10)
    report = coexist(cfg, reps=2, k_values=(4,))
    for row in report.rows:
        assert row[4] >= row[5] >= 0.0  # total at least the partner share


def test_mixed_network_beats_all_dcf_baseline():
    base = SimConfig(protocol="lmac", n=16, c=16, horizon_slots=8000, seed=12)
    mixed = coexist(base, reps=2, k_values=(8,))
    baseline = coexist(SimConfig(protocol="dcf", n=16, c=16, horizon_slots=8000,
                                 seed=12), reps=2, k_values=(8,))
    mixed_total = sum(r[4] for r in mixed.rows) / len(mixed.rows)
    dcf_total = sum(r[4] for r in baseline.rows) / len(baseline.rows)
    assert mixed_total > dcf_total


def test_registry_complete():
    assert set(SCENARIOS) == {
        "converge-sweep", "throughput-vs-n", "delay-vs-n", "error-robustness",
        "new-entrants", "coexist",
    }


# --- CLI ------------------------------------------------------------------------


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cli_sim_writes_outputs(tmp_path):
    cfg = write_config(
        tmp_path, "protocol = lmac\nn = 4\nc = 8\nhorizon_slots = 800\nseed = 3\n"
    )
    out = tmp_path / "out"
    assert main(["sim", "--config", cfg, "--reps", "2", "--out", str(out)]) == 0
    assert (out / "trace_rep0.csv").exists()
    assert (out / "events_rep1.csv").exists()
    rows = read_csv(out / "metrics.csv")
    assert len(rows) == 2
    assert rows[0]["config_hash"]
    trace_rows = read_csv(out / "trace_rep0.csv")
    assert trace_rows[0]["kind"] in {"idle", "success", "collision", "error"}


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "protocol = lmac\nn = 4\nc = 8\nbeta = 7\n")
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--config", cfg, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "beta" in capsys.readouterr().err


def test_cli_scenario_roundtrip(tmp_path):
    cfg = write_config(
        tmp_path,
        "protocol = lzc\nn = 3\nc = 4\nsweep = gamma\nsweep_values = 0.5\nseed = 4\n",
    )
    out = tmp_path / "sc"
    assert main(["scenario", "converge-sweep", "--config", cfg, "--reps", "2",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "converge-sweep.csv")
    assert len(rows) == 2


def test_cli_markov_table(tmp_path):
    out = tmp_path / "markov.csv"
    assert main(["markov", "--c", "8", "--n", "6", "--gamma", "0.3,0.5",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 2
    for row in rows:
        assert float(row["lambda_closed"]) == pytest.approx(
            float(row["lambda_numeric"]), abs=1e-9
        )
        assert float(row["mean_schedules"]) > 1.0


def test_cli_ftable(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["ftable", "--schedule-lengths", "2", "--reps", "1000",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0]["f"] == "1"


def test_emitted_csv_cells_parse_as_numbers(tmp_path):
    """Numeric cells read as plain numbers, never as ``np.float64(...)``,
    and every CSV ends its lines with a bare LF."""
    assert main(["reproduce-all", "--out", str(tmp_path), "--reps", "2",
                 "--keys", "jain_fairness"]) == 0
    assert main(["markov", "--c", "6", "--n", "5", "--gamma", "0.3,0.5",
                 "--out", str(tmp_path / "markov.csv")]) == 0
    assert main(["ftable", "--schedule-lengths", "2,4", "--reps", "1000",
                 "--out", str(tmp_path / "ftable.csv")]) == 0
    paths = sorted(tmp_path.glob("*.csv"))
    assert {"jain_fairness_summary.csv", "markov.csv", "ftable.csv"} <= {
        p.name for p in paths
    }
    assert [p.name for p in paths if b"\r" in p.read_bytes()] == []
    unparsed = []
    for path in paths:
        for row in read_csv(path):
            for column, cell in row.items():
                if column == "config_hash" or not cell:
                    continue
                try:
                    float(cell)
                except ValueError:
                    unparsed.append((path.name, column, cell))
    assert not unparsed, unparsed[:5]


def test_write_csv_cell_format(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ["a", "b"], [[None, 0.1, np.float64(0.1), np.float64(1e16), 3,
                                  np.int64(4), "1|2", 1e-05]])
    assert path.read_bytes() == b"a,b\n,0.1,0.1,1e+16,3,4,1|2,1e-05\n"


def test_cli_reproduce_all_subset(tmp_path):
    out = tmp_path / "repro"
    code = main(["reproduce-all", "--out", str(out), "--reps", "2",
                 "--keys", "gamma_convergence_theory_vs_sim"])
    assert code == 0
    rows = read_csv(out / "gamma_convergence_theory_vs_sim.csv")
    values = {r["value"] for r in rows}
    assert len(values) == 9  # default grid 0.1..0.9
    assert all(int(r["rep"]) in (0, 1) for r in rows)


def test_cli_reproduce_all_rejects_unknown_keys(tmp_path, capsys):
    out = tmp_path / "repro"
    code = main(["reproduce-all", "--out", str(out), "--reps", "1",
                 "--keys", "throughput_vs_nn,jain_fairness,bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown keys throughput_vs_nn, bogus;" in err
    assert all(key in err for key in scenarios.REPRODUCE_ALL)
    assert not out.exists()


def test_reproduce_all_logs_failing_key_traceback(tmp_path, monkeypatch, caplog):
    def boom(base, reps):
        raise RuntimeError("boom")

    monkeypatch.setattr(scenarios, "_jain_fairness", boom)
    with caplog.at_level(logging.ERROR, logger="macsim.scenarios"):
        code = main(["reproduce-all", "--out", str(tmp_path), "--reps", "1",
                     "--keys", "jain_fairness,achievable_rate_vs_beta"])
    assert code == 1
    failed = [r for r in caplog.records if r.exc_info]
    assert len(failed) == 1
    assert "jain_fairness" in failed[0].getMessage()
    assert failed[0].exc_info[0] is RuntimeError
    assert "Traceback" in caplog.text and "boom" in caplog.text
    assert (tmp_path / "achievable_rate_vs_beta.csv").exists()
    assert not (tmp_path / "jain_fairness.csv").exists()
