"""Tests of the benchmark's own checks and tracing; no simulation runs.

Each output check is shown to pass on a well-formed output and to fail on a
corrupted copy of it.  Run from the root of a checkout::

    python3 bench/selftest.py
"""

from __future__ import annotations

import csv
import sys
import tempfile
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

REPS = 2


def write(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def rows_of(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        data = list(csv.reader(fh))
    return data[0], data[1:]


def set_cell(path: Path, row: int, column: str, value: str) -> None:
    header, rows = rows_of(path)
    rows[row][header.index(column)] = value
    write(path, header, rows)


def drop_row(path: Path) -> None:
    header, rows = rows_of(path)
    write(path, header, rows[:-1])


def good_key(data: Path, key: str) -> None:
    """A well-formed output of one reproduce-all key at REPS replications."""
    per_rep, summary = checks.KEY_ROWS[key]
    if key in checks.SUMMARY_GROUPS:
        groups, value = checks.SUMMARY_GROUPS[key]
        header = ["rep", *groups, value, "kappa_schedules"]
        # n stays a station count, which the convergence check reads.
        rows = [[i // per_rep, *(16 if c == "n" else f"{c}{i % per_rep}" for c in groups),
                 1.5, 12] for i in range(per_rep * REPS)]
        write(data / f"{key}.csv", header, rows)
        write(data / f"{key}_summary.csv", [*groups, "reps", "mean"],
              [[*r[1:1 + len(groups)], REPS, 1.5] for r in rows[:per_rep]])
        return
    if key in checks.THR_NORM_KEYS:
        header = ["protocol", "n", "rep", "thr_norm", "config_hash"]
        rows = [["lmac", 16, i % REPS, 0.9, "abc"] for i in range(per_rep * REPS)]
    elif key in checks.CONVERGE_KEYS:
        header = ["protocol", "n", "rep", "kappa_schedules", "config_hash"]
        rows = [["lbeb", 16, i % REPS, 12, "abc"] for i in range(per_rep * REPS)]
    else:
        header = ["protocol", "rep", "value"]
        rows = [["dcf", i % REPS, 1.0] for i in range(per_rep * REPS)]
    write(data / f"{key}.csv", header, rows)
    write(data / f"{key}_summary.csv", ["protocol", "mean"], [["x", 1.0]] * summary)


def good_markov(path: Path) -> None:
    rows = [
        [16, 14, g, 0.5, 0.5, 2, checks.MARKOV_REFERENCE[(16, 14, g)]]
        for g in worker.MARKOV_GAMMAS
    ]
    write(path, ["c", "n", "gamma", "lambda_closed", "lambda_numeric", "max_block",
                 "mean_schedules"], rows)


def good_sim(sim: Path, slots: int) -> None:
    write(sim / "trace_rep0.csv", ["slot_index", "kind"], [[i, "idle"] for i in range(slots)])
    write(sim / "events_rep0.csv", ["station", "outcome"], [[0, "success"]])
    write(sim / "metrics.csv", ["rep", "protocol", "n", "kappa_schedules", "thr_norm"],
          [[0, "lmac", 16, 40, 0.8]])


class KeyChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.data = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_every_key_passes_when_well_formed(self):
        for key in checks.KEY_ROWS:
            good_key(self.data, key)
            self.assertEqual(checks.check_key(self.data, key, REPS), [], key)

    def test_missing_file_fails(self):
        self.assertTrue(checks.check_key(self.data, "throughput_vs_n", REPS))

    def test_short_data_file_fails(self):
        for key in checks.KEY_ROWS:
            good_key(self.data, key)
            drop_row(self.data / f"{key}.csv")
            self.assertTrue(checks.check_key(self.data, key, REPS), key)

    def test_short_summary_fails(self):
        good_key(self.data, "delay_vs_n")
        drop_row(self.data / "delay_vs_n_summary.csv")
        self.assertTrue(checks.check_key(self.data, "delay_vs_n", REPS))

    def test_summary_leaves_out_groups_without_values(self):
        key = "jain_fairness"
        main, summary = self.data / f"{key}.csv", self.data / f"{key}_summary.csv"
        per_rep = checks.KEY_ROWS[key][0]
        good_key(self.data, key)
        set_cell(main, per_rep - 1, "jain", "")  # the last group, both reps
        set_cell(main, 2 * per_rep - 1, "jain", "")
        self.assertTrue(checks.check_key(self.data, key, REPS))
        drop_row(summary)
        self.assertEqual(checks.check_key(self.data, key, REPS), [])
        set_cell(main, 0, "jain", "")  # the first group, one rep
        self.assertTrue(checks.check_key(self.data, key, REPS))
        set_cell(summary, 0, "reps", "1")
        self.assertEqual(checks.check_key(self.data, key, REPS), [])

    def test_summary_group_with_wrong_key_or_repeated_fails(self):
        summary = self.data / "delay_vs_n_summary.csv"
        good_key(self.data, "delay_vs_n")
        set_cell(summary, 0, "protocol", "other")
        self.assertTrue(checks.check_key(self.data, "delay_vs_n", REPS))
        good_key(self.data, "delay_vs_n")
        header, rows = rows_of(summary)
        write(summary, header, rows + rows[:1])
        self.assertTrue(checks.check_key(self.data, "delay_vs_n", REPS))

    def test_thr_norm_outside_unit_interval_fails(self):
        for bad in ("0.0", "1.5", "-0.1", "nan", "np.float64(0.5)", ""):
            good_key(self.data, "throughput_vs_n")
            set_cell(self.data / "throughput_vs_n.csv", 3, "thr_norm", bad)
            self.assertTrue(checks.check_key(self.data, "throughput_vs_n", REPS), bad)
        good_key(self.data, "throughput_vs_n")
        set_cell(self.data / "throughput_vs_n.csv", 3, "thr_norm", "1.0")
        self.assertEqual(checks.check_key(self.data, "throughput_vs_n", REPS), [])

    def test_unconverged_run_at_n_le_c_fails(self):
        good_key(self.data, "convergence_time_vs_load")
        set_cell(self.data / "convergence_time_vs_load.csv", 5, "kappa_schedules", "")
        self.assertTrue(checks.check_key(self.data, "convergence_time_vs_load", REPS))

    def test_unconverged_run_at_n_gt_c_is_allowed(self):
        key = "convergence_time_vs_load"
        path, summary = self.data / f"{key}.csv", self.data / f"{key}_summary.csv"
        per_rep = checks.KEY_ROWS[key][0]
        good_key(self.data, key)
        for row in (5, 5 + per_rep):
            set_cell(path, row, "n", "18")
        set_cell(path, 5, "kappa_schedules", "")
        set_cell(path, 5, "seconds_before", "")
        set_cell(summary, 5, "n", "18")
        set_cell(summary, 5, "reps", "1")
        self.assertEqual(checks.check_key(self.data, "convergence_time_vs_load", REPS), [])


class CommandChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.data = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_sim(self):
        sim = self.data / "sim"
        good_sim(sim, 50)
        self.assertEqual(checks.check_sim(sim, 1, 50), [])
        self.assertTrue(checks.check_sim(sim, 1, 51))
        set_cell(sim / "metrics.csv", 0, "thr_norm", "1.2")
        self.assertTrue(checks.check_sim(sim, 1, 50))
        good_sim(sim, 50)
        set_cell(sim / "metrics.csv", 0, "kappa_schedules", "")
        self.assertTrue(checks.check_sim(sim, 1, 50))
        good_sim(sim, 50)
        write(sim / "events_rep0.csv", ["station", "outcome"], [])
        self.assertTrue(checks.check_sim(sim, 1, 50))

    def test_ftable(self):
        path = self.data / "ftable.csv"
        write(path, ["schedule_len", "f", "ci_low", "ci_high"], [[16, 90, 80, 100]])
        self.assertEqual(checks.check_ftable(path, [16]), [])
        set_cell(path, 0, "ci_low", "95")
        self.assertTrue(checks.check_ftable(path, [16]))
        write(path, ["schedule_len", "f", "ci_low", "ci_high"], [[32, 90, 80, 100]])
        self.assertTrue(checks.check_ftable(path, [16]))

    def test_markov_passes_on_reference(self):
        path = self.data / "eigen.csv"
        good_markov(path)
        result = checks.check_markov(path, 16, 14, worker.MARKOV_GAMMAS)
        self.assertEqual(sum(len(v) for v in result.values()), 0)

    def test_markov_lambda_mismatch_fails_that_point_only(self):
        path = self.data / "eigen.csv"
        good_markov(path)
        set_cell(path, 2, "lambda_numeric", repr(0.5 + 1e-7))
        result = checks.check_markov(path, 16, 14, worker.MARKOV_GAMMAS)
        self.assertEqual([g for g, f in result.items() if f], [0.3])

    def test_markov_mean_schedules_tolerance(self):
        path = self.data / "eigen.csv"
        ref = checks.MARKOV_REFERENCE[(16, 14, 0.9)]
        good_markov(path)
        set_cell(path, 8, "mean_schedules", repr(ref * (1 + 1e-12)))
        self.assertFalse(checks.check_markov(path, 16, 14, worker.MARKOV_GAMMAS)[0.9])
        set_cell(path, 8, "mean_schedules", repr(ref * (1 + 1e-8)))
        self.assertTrue(checks.check_markov(path, 16, 14, worker.MARKOV_GAMMAS)[0.9])

    def test_markov_missing_row_fails(self):
        path = self.data / "eigen.csv"
        good_markov(path)
        drop_row(path)
        result = checks.check_markov(path, 16, 14, worker.MARKOV_GAMMAS)
        self.assertEqual([g for g, f in result.items() if f], [0.9])

    def test_unparsed_cells(self):
        write(self.data / "a_summary.csv", ["protocol", "mean", "ci95", "config_hash"],
              [["lmac", 1.0, "np.float64(0.5)", "zz12"], ["dcf", 2.0, "", "zz13"]])
        self.assertEqual(checks.unparsed_cells(self.data), 1)


class Accounting(unittest.TestCase):
    """Exit codes and exceptions of a command count toward failed operations."""

    def run_ops(self, main, check=lambda: {"k": []}, points=("k",)):
        ops = [worker.Op("reproduce-all.k", ["x"], check, list(points))]
        worker.execute(ops, main, tracing.Tracer(spans=False))
        return worker.tally(ops)

    def test_success(self):
        self.assertEqual(self.run_ops(lambda argv: 0)[:2], (1, 0))

    def test_failed_exit_code(self):
        self.assertEqual(self.run_ops(lambda argv: 1)[:2], (1, 1))

    def test_exception_and_system_exit(self):
        def boom(argv):
            raise RuntimeError("boom")

        def leave(argv):
            raise SystemExit(2)

        self.assertEqual(self.run_ops(boom)[:2], (1, 1))
        self.assertEqual(self.run_ops(leave)[:2], (1, 1))

    def test_failed_check_and_unreadable_output(self):
        self.assertEqual(self.run_ops(lambda argv: 0, lambda: {"k": ["bad"]})[:2], (1, 1))

        def unreadable():
            raise ValueError("cannot parse")

        attempted, failed, _ = self.run_ops(lambda argv: 0, unreadable, ("a", "b"))
        self.assertEqual((attempted, failed), (2, 2))


class MixRate(unittest.TestCase):
    def ops(self, works):
        labels = ["reproduce-all.beta_convergence", "ftable"]
        ops = [worker.Op(label, [], None, []) for label in labels]
        for op, w in zip(ops, works):
            op.work = w
        return ops

    def test_plain_ratio_at_nominal_work(self):
        ops = self.ops([75_000, 15_600])
        self.assertAlmostEqual(worker.mix_rate(ops, [3.0, 2.0]), 90_600 / 5.0)

    def test_work_swing_at_fixed_rates_leaves_it_unchanged(self):
        # 25k and 7.8k schedules/s per command, at nominal and at 3x lbeb work
        nominal = worker.mix_rate(self.ops([75_000, 15_600]), [3.0, 2.0])
        swung = worker.mix_rate(self.ops([225_000, 15_600]), [9.0, 2.0])
        self.assertAlmostEqual(nominal, swung)

    def test_falls_back_when_a_command_did_no_work(self):
        self.assertAlmostEqual(worker.mix_rate(self.ops([0, 15_600]), [1.0, 2.0]), 5_200)


class HostSpeedScaling(unittest.TestCase):
    def test_samples_removed_and_time_scaled(self):
        hs = hostspeed.HostSpeed()
        ref = hostspeed.REF_SAMPLE_S
        # a host at half speed: every sample takes twice the reference time
        hs.starts = [1.0 + 0.05 * k for k in range(20)]
        hs.times = [2 * ref] * 20
        self.assertAlmostEqual(hs.adjust(1.0, 2.0), (1.0 - 40 * ref) / 2)
        self.assertAlmostEqual(hs.slowdown(), 2.0)

    def test_window_speed_is_local(self):
        hs = hostspeed.HostSpeed()
        ref = hostspeed.REF_SAMPLE_S
        hs.starts = [0.0, 0.1, 0.2, 0.3, 10.0, 10.1]
        hs.times = [ref, ref, ref, ref, 3 * ref, 3 * ref]
        self.assertAlmostEqual(hs.adjust(0.0, 0.4), 0.4 - 4 * ref)
        self.assertAlmostEqual(hs.adjust(10.0, 10.2), (0.2 - 6 * ref) / 3)
        # no sample inside: the speed over the whole run
        self.assertAlmostEqual(hs.adjust(5.0, 5.01), 0.01 / hs.slowdown())


class Tracing(unittest.TestCase):
    def test_spans_self_time_and_restore(self):
        mod = types.ModuleType("fake")
        mod.outer = lambda: mod.inner() + 1
        mod.inner = lambda: 1
        originals = (mod.outer, mod.inner)
        tr = tracing.Tracer()
        tr.span(mod, "outer", "a.outer")
        tr.span(mod, "inner", "b.inner")
        tr.span(mod, "gone", "c.gone")
        self.assertEqual(mod.outer(), 2)
        tr.restore()
        self.assertEqual((mod.outer, mod.inner), originals)
        self.assertEqual(tr.names, ["a.outer", "b.inner"])
        self.assertEqual(tr.parents, [-1, 0])
        own = tr.self_times()
        self.assertAlmostEqual(own[0] + own[1], tr.ends[0] - tr.starts[0], places=9)
        self.assertEqual(tr.missing, ["fake.gone"])

    @unittest.skipUnless((worker.ROOT / "src" / "macsim").is_dir(), "needs the sources")
    def test_every_name_exists_and_is_restored(self):
        sys.path.insert(0, str(worker.ROOT / "src"))
        m = worker.load_macsim()
        owners = [getattr(m, name) for name in vars(m) if name != "package"]
        owners += [m.engine.Simulator, m.config.SimConfig, m.adaptation.FTable]
        owners += [getattr(m.protocols, c) for c in ("Lbeb", "Zc", "Lzc", "Lmac")]
        before = [dict(vars(o)) for o in owners]
        tr = tracing.Tracer()
        worker.install(tr, m)
        self.assertEqual(tr.missing, [])
        self.assertNotEqual([dict(vars(o)) for o in owners], before)
        tr.restore()
        self.assertEqual([dict(vars(o)) for o in owners], before)

    def test_missing_name_is_left_out_not_zero(self):
        tr = tracing.Tracer()
        tr.missing.append("macsim.markov.transition_prob_formula")
        layer = worker.per_layer(tr, [])
        self.assertNotIn("markov.formula_calls", layer)
        self.assertIn("markov.build_cold_s", layer)
        self.assertIn("runner.slots", layer)


if __name__ == "__main__":
    unittest.main()
