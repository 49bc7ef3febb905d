"""Scenario orchestration and the command-line surface."""

import csv
import functools
import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import macsim
from macsim import adaptation, markov, scenarios, schedulesim
from macsim.adaptation import FEntry, FTable
from macsim.cli import main
from macsim.config import SimConfig
from macsim.csvio import write_csv
from macsim.runner import run_simulation
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


def test_converge_sweep_theory_is_bounded_by_stations_not_slots():
    # the chain caps N alone, so 24 slots keep their theory value
    theory = {}
    for n in (6, markov.MAX_STATIONS + 1):
        cfg = SimConfig(protocol="lzc", n=n, c=24, sweep="gamma", sweep_values=(0.3,),
                        seed=5)
        [summary] = converge_sweep(cfg, reps=1).summary_rows
        theory[n] = summary[-1]
    chain = markov.build_chain(24, 6, 0.3)
    assert theory[6] == pytest.approx(markov.mean_convergence(chain))
    assert theory[markov.MAX_STATIONS + 1] is None


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
    report = new_entrants(replace(cfg, k_values=(2,)), reps=2)
    times = [row[2] for row in report.rows]
    assert all(t is not None and t > 0 for t in times)
    with pytest.raises(ValueError, match="DCF"):
        new_entrants(SimConfig(protocol="dcf", n=4, c=8, horizon_slots=3000, seed=9))


def test_coexist_scenario_shares():
    cfg = SimConfig(protocol="lmac", n=8, c=8, horizon_slots=3000, seed=10)
    report = coexist(replace(cfg, k_values=(4,)), reps=2)
    for row in report.rows:
        assert row[4] >= row[5] >= 0.0  # total at least the partner share


def test_coexist_partner_share_counts_the_partners_only():
    # partner and base protocol are both DCF: the partner share is that of
    # the first k stations, not of every station running the partner's rule
    cfg = SimConfig(protocol="dcf", n=8, c=8, horizon_slots=3000, seed=10)
    report = coexist(replace(cfg, k_values=(4,)), reps=2)
    for row in report.rows:
        assert row[:3] == ["dcf", "dcf", 4]
        assert 0.0 < row[5] < row[4]


def test_mixed_network_beats_all_dcf_baseline():
    base = SimConfig(protocol="lmac", n=16, c=16, horizon_slots=8000, seed=12, k_values=(8,))
    mixed = coexist(base, reps=2)
    baseline = coexist(replace(base, protocol="dcf"), reps=2)
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
    assert main(["sim", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "beta" in capsys.readouterr().err


def test_cli_rejects_an_f_table_with_f_below_one(tmp_path, capsys):
    # f counts schedules to a checkpoint; at f <= 0 every window would be one
    table = tmp_path / "zero.csv"
    table.write_text("schedule_len,f,ci_low,ci_high\n16,0,0,0\n32,-3,0,0\n")
    with pytest.raises(ValueError, match="f >= 1"):
        FTable.load_csv(table)
    cfg = write_config(tmp_path, "protocol = lmac\nn = 4\nb = 16\nadaptation = almac\n"
                       f"f_table = {table}\nhorizon_slots = 200\n")
    assert main(["sim", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "f_table" in capsys.readouterr().err


def test_cli_delay_vs_n_almac_rows_use_the_configured_f_table(tmp_path):
    # a table with f = 2 everywhere checks and doubles far sooner than the
    # packaged one; only the almac rows may move
    table = tmp_path / "tiny.csv"
    FTable({c: FEntry(c, 2, 2, 2) for c in (16, 32, 64)}).save_csv(table)
    text = "protocol = lmac\nn = 4\nc = 8\nlambda_pps = 300\nn_values = 20\nseed = 33\n"
    rows = {}
    for name, extra in (("packaged", ""), ("tiny", f"f_table = {table}\n")):
        cfg = write_config(tmp_path, text + "horizon_slots = 2000\n" + extra)
        out = tmp_path / name
        assert main(["scenario", "delay-vs-n", "--config", cfg, "--out", str(out)]) == 0
        rows[name] = {row["protocol"]: (row["mean_delay_us"], row["delivered"])
                      for row in read_csv(out / "delay-vs-n.csv")}
    assert rows["tiny"]["almac"] != rows["packaged"]["almac"]
    for protocol in ("dcf", "lmac", "lzc"):
        assert rows["tiny"][protocol] == rows["packaged"][protocol]


def test_cli_coexist_partner_comes_from_the_config(tmp_path):
    cfg = write_config(tmp_path, "protocol = lmac\nn = 4\nc = 8\ncoexist_protocol = lbeb\n"
                                 "k_values = 2,3\nhorizon_slots = 600\nseed = 36\n")
    out = tmp_path / "out"
    assert main(["scenario", "coexist", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "coexist.csv")
    assert [row["partner"] for row in rows] == ["lbeb", "lbeb"]
    assert all(float(row["thr_partner_mbps"]) > 0.0 for row in rows)


@pytest.mark.parametrize("gamma", ["", "gamma = 0.5\n"])
def test_cli_lzc_partner_gets_a_stay_probability(tmp_path, gamma):
    # an lzc partner of an lmac base takes the configured gamma, or auto_gamma;
    # each coexist point derives it afresh for its 2K stations
    text = ("protocol = lmac\nn = 4\nc = 8\ncoexist_k = 2\ncoexist_protocol = lzc\n"
            "k_values = 2,3\nhorizon_slots = 600\nseed = 37\n" + gamma)
    cfg = write_config(tmp_path, text)
    assert main(["sim", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
    out = tmp_path / "out"
    assert main(["scenario", "coexist", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "coexist.csv")
    assert [(row["protocol"], row["partner"]) for row in rows] == [("lmac", "lzc")] * 2
    assert all(float(row["thr_partner_mbps"]) > 0.0 for row in rows)


@pytest.mark.parametrize("command", [["sim"], ["scenario", "delay-vs-n"]])
@pytest.mark.parametrize("table", ["missing", "uncovered"])
def test_cli_rejects_a_bad_f_table(tmp_path, capsys, command, table):
    path = tmp_path / f"{table}.csv"
    if table == "uncovered":
        FTable({8: FEntry(8, 2, 2, 2)}).save_csv(path)
    cfg = write_config(tmp_path, "protocol = lmac\nn = 4\nc = 8\nlambda_pps = 300\n"
                                 f"n_values = 4\nf_table = {path}\n")
    out = tmp_path / "o"
    assert main([*command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: f_table = '{path}': ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sim", "--config", "{cfg}", "--reps", "-2", "--out", "{out}"],
    ["scenario", "throughput-vs-n", "--config", "{cfg}", "--reps", "-1", "--out", "{out}"],
    ["reproduce-all", "--reps", "0", "--keys", "jain_fairness", "--out", "{out}"],
    ["ftable", "--schedule-lengths", "4", "--reps", "x", "--out", "{out}"],
])
def test_cli_rejects_bad_replication_counts(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, "protocol = lmac\nn = 4\nc = 8\nn_values = 4\n")
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([a.format(cfg=cfg, out=out) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"macsim {argv[0]}: error: argument --reps: ")
    assert not out.exists()


@pytest.mark.parametrize("reps", [0, -1])
def test_library_rejects_replication_counts_below_one_before_writing(tmp_path, reps):
    cfg = SimConfig(protocol="lmac", n=4, c=8, horizon_slots=400, seed=5)
    for scenario in SCENARIOS.values():
        for kwargs, config in (({"reps": reps}, cfg), ({}, replace(cfg, reps=reps))):
            with pytest.raises(ValueError, match="reps must be at least 1"):
                scenario(config, **kwargs)
    with pytest.raises(ValueError, match="reps must be at least 1"):
        run_scenario("throughput-vs-n", cfg, tmp_path / "scenario", reps=reps)
    with pytest.raises(ValueError, match="reps must be at least 1"):
        scenarios.reproduce_all(tmp_path / "all", reps=reps,
                                keys=["beta_convergence", "jain_fairness"])
    assert list(tmp_path.iterdir()) == []


def test_cli_sim_rejects_an_arrival_rate_beyond_the_clock(tmp_path):
    # at 1e300 packets/s an arrival gap is below the clock's resolution; the
    # run must be refused, not started (in a child process, so a hang fails)
    cfg = write_config(tmp_path, "protocol = lmac\nn = 2\nc = 4\ntraffic = poisson\n"
                                 "lambda_pps = 1e300\nhorizon_slots = 10\n")
    env = {**os.environ, "PYTHONPATH": str(Path(macsim.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "macsim.cli", "sim", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "config error: lambda_pps = '1e300': must be a finite number in [0, 1000000]"]


@pytest.mark.parametrize("argv, stderr", [
    (["scenario", "coexist", "--config", "{cfg}", "--out", "{out}"],
     ["config error: n = '0': must be at least 1",
      "config error: beta = '7': must be in the open interval (0, 1)"]),
    (["sim", "--config", "{missing}", "--out", "{out}"],
     ["sim error: [Errno 2] No such file or directory: '{missing}'"]),
    (["scenario", "coexist", "--config", "{missing}", "--out", "{out}"],
     ["scenario error: [Errno 2] No such file or directory: '{missing}'"]),
    (["markov", "--c", "8", "--n", "6", "--gamma", "0.5", "--out", "{out}/m.csv"],
     ["markov error: [Errno 2] No such file or directory: '{out}/m.csv'"]),
    (["markov", "--c", "8", "--n", "21", "--gamma", "0.5", "--out", "{out}"],
     ["markov error: state space too large beyond N=20"]),
])
def test_cli_exit_status_of_handled_errors(tmp_path, argv, stderr):
    # the status the shell sees: one stderr line per diagnostic, status 2,
    # and nothing written
    paths = dict(cfg=write_config(tmp_path, "protocol = lmac\nn = 0\nc = 8\nbeta = 7\n"),
                 missing=str(tmp_path / "missing.cfg"), out=str(tmp_path / "o"))
    env = {**os.environ, "PYTHONPATH": str(Path(macsim.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "macsim.cli", *(a.format(**paths) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [line.format(**paths) for line in stderr]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


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


@pytest.mark.parametrize("kind, text, message", [
    ("new-entrants", "protocol = dcf\nn = 4\nc = 8\n",
     "new-entrants needs schedule stations; DCF never converges"),
    ("converge-sweep", "protocol = zc\nn = 3\nc = 4\n", "beta sweeps need protocol lmac"),
])
def test_cli_scenario_reports_value_errors(tmp_path, capsys, kind, text, message):
    cfg = write_config(tmp_path, text)
    assert main(["scenario", kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"


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


@pytest.mark.parametrize("args, message", [
    (["--n", "21", "--gamma", "0.5"], "state space too large beyond N=20"),
    (["--n", "6", "--gamma", "1.5"], "gamma must be in (0, 1)"),
    (["--n", "6", "--gamma", "0.1:0.9:0"], "grid step must be positive, got 0.0"),
    (["--n", "6", "--gamma", "0.9:0.1:0.1"], "grid 0.9:0.1:0.1 is empty: lo exceeds hi"),
    (["--n", "6", "--gamma", "0.1:0.9"], "grid 0.1:0.9 is not lo:hi:step"),
    (["--n", "6", "--gamma", "0.1:0.5:0.1:0.2"], "grid 0.1:0.5:0.1:0.2 is not lo:hi:step"),
])
def test_cli_markov_reports_value_errors(tmp_path, capsys, args, message):
    out = tmp_path / "markov.csv"
    assert main(["markov", "--c", "8", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"markov error: {message}\n"
    assert not out.exists()


def test_cli_ftable(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["ftable", "--schedule-lengths", "2", "--reps", "1000",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0]["f"] == "1"
    for lengths in ("x", "1"):
        assert main(["ftable", "--schedule-lengths", lengths, "--out", str(out)]) == 2


@pytest.mark.parametrize("lengths, message", [
    ("4,2,4", "schedule length 4 is given more than once"),
    ("4,1", "schedule length must be at least 2"),
])
def test_cli_ftable_rejects_bad_lengths_before_any_run(tmp_path, capsys, monkeypatch,
                                                       lengths, message):
    """A repeated length would play its runs twice for one row, as
    ``FTable.load_csv`` refuses a repeated row; neither it nor a length
    below 2 plays the other lengths' runs first."""
    def no_run(*args, **kwargs):
        raise AssertionError("a run was played")

    monkeypatch.setattr(adaptation, "converge", no_run)
    out = tmp_path / "f.csv"
    assert main(["ftable", "--schedule-lengths", lengths, "--reps", "1000",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"ftable error: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("keys", ["", "jain_fairness,"])
def test_cli_reproduce_all_rejects_empty_keys(tmp_path, capsys, keys):
    out = tmp_path / "repro"
    code = main(["reproduce-all", "--out", str(out), "--reps", "1", "--keys", keys])
    assert code == 2
    assert "unknown keys '';" in capsys.readouterr().err
    assert not out.exists()


def counted_runs(monkeypatch) -> list:
    """The (config, keywords) of every engine run the scenarios make from now."""
    played = []

    def counting(cfg, **kw):
        played.append((cfg, tuple(sorted(kw.items()))))
        return run_simulation(cfg, **kw)

    monkeypatch.setattr(scenarios, "run_simulation", counting)
    return played


def test_reproduce_all_plays_each_engine_run_once_per_call(tmp_path, monkeypatch):
    # lmac at N = 16, 18 and 20 belongs to both keys
    played = counted_runs(monkeypatch)
    keys = ["throughput_model_vs_sim", "collision_rate_vs_n"]
    scenarios.reproduce_all(tmp_path / "a", reps=1, keys=keys)
    assert len(played) == len(set(played)) == 6 + 20 - 3
    scenarios.reproduce_all(tmp_path / "b", reps=1, keys=keys)
    assert played[23:] == played[:23]  # the memo does not outlive its call
    assert scenarios._runs is None
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_reproduce_all_caches_no_run_whose_measure_raises(tmp_path, monkeypatch):
    played = counted_runs(monkeypatch)
    collision_rate = scenarios.metrics.collision_rate

    def failing(trace):  # fails the first lmac N = 16 run only
        run = played[-1]
        if (run[0].protocol, run[0].n) == ("lmac", 16) and played.count(run) == 1:
            raise RuntimeError("measure failed")
        return collision_rate(trace)

    monkeypatch.setattr(scenarios.metrics, "collision_rate", failing)
    results = scenarios.reproduce_all(
        tmp_path, reps=1, keys=["throughput_model_vs_sim", "collision_rate_vs_n"])
    assert results["throughput_model_vs_sim"] == "FAILED: measure failed"
    assert Path(results["collision_rate_vs_n"]).exists()
    replayed = [run for run in set(played) if played.count(run) > 1]
    assert [(cfg.protocol, cfg.n) for cfg, _ in replayed] == [("lmac", 16)]
    assert len(played) == 3 + 20


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
