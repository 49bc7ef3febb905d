"""Schedule-synchronous runner: counting conventions, batch equivalence, timing,
agreement with the every-station reference."""

import numpy as np
import pytest

from macsim import schedulesim
from macsim.adaptation import build_f_table
from macsim.config import SimConfig, derive_seed
from macsim.phy import TABLE_PHY
from macsim.protocols import Lbeb, Lmac, Lzc, Zc, init_protocol
from macsim.schedulesim import (
    DEFAULT_SCHEDULE_CAP,
    ConvergenceRun,
    converge,
    success_sequence_until_converged,
)
from macsim.scenarios import converge_sweep
from oracles import converge_lbeb_batch, play_every_station


def make(factory, n, *label):
    """``n`` stations from ``factory`` and the run's one generator, seeded
    from ``label``; the stations draw from it in station order."""
    rng = np.random.default_rng(derive_seed(*label))
    return [factory(rng) for _ in range(n)], rng


def test_single_station_counts_one_schedule():
    protos, rng = make(lambda r: Lzc(4, 0.5, r), 1, 1)
    run = converge(protos, rng, phy=TABLE_PHY)
    assert run.schedules == 1
    assert run.seconds_before == 0.0


def test_mixed_lengths_rejected():
    protos, rng = make(lambda r: Lzc(4, 0.5, r), 2, 2)
    protos[1].resize(8)
    with pytest.raises(ValueError):
        converge(protos, rng)


def test_two_station_mean_matches_chain_value():
    # expected schedules through the first collision-free one is exactly 2.0
    total = 0
    runs = 20_000
    for seed in range(runs):
        protos, rng = make(lambda r: Lzc(2, 0.5, r), 2, seed)
        total += converge(protos, rng).schedules
    mean = total / runs
    # variance of the count is 2 (mixture of 1 and 1+geometric(1/2))
    assert abs(mean - 2.0) <= 3.5 * np.sqrt(2.0 / runs)


def test_determinism():
    a = converge(*make(lambda r: Lmac(8, 0.9, r), 6, 7), phy=TABLE_PHY)
    b = converge(*make(lambda r: Lmac(8, 0.9, r), 6, 7), phy=TABLE_PHY)
    assert a == b


def test_seconds_accounting_two_stations():
    # find a seed where the pair collides exactly once before separating
    for seed in range(200):
        protos, rng = make(lambda r: Lzc(2, 0.5, r), 2, seed)
        starts = [p.slot for p in protos]
        run = converge(*make(lambda r: Lzc(2, 0.5, r), 2, seed), phy=TABLE_PHY)
        if starts[0] == starts[1] and run.schedules == 2:
            # one collision schedule: a collision slot plus an idle slot
            want = (TABLE_PHY.t_collision + TABLE_PHY.sigma_us) / 1e6
            assert run.seconds_before == pytest.approx(want, rel=1e-12)
            return
    pytest.fail("no suitable seed found")


def test_lbeb_batch_matches_per_station_runs():
    n, c, runs = 3, 4, 4000
    counts = []
    for seed in range(runs):
        protos, rng = make(lambda r: Lbeb(c, r), n, "lbeb-ref", seed)
        counts.append(converge(protos, rng).schedules)
    ref = np.array(counts, dtype=float)
    batch, _ = converge_lbeb_batch(n, c, runs, seed=123)
    assert (batch > 0).all()
    se = np.sqrt(ref.var(ddof=1) / runs + batch.var(ddof=1) / runs)
    assert abs(ref.mean() - batch.mean()) <= 3.5 * se


def test_lbeb_batch_single_station():
    batch, seconds = converge_lbeb_batch(1, 4, 50, seed=5, phy=TABLE_PHY)
    assert (batch == 1).all()
    assert np.allclose(seconds, 0.0)


def test_lbeb_batch_seconds_positive_when_contended():
    batch, seconds = converge_lbeb_batch(4, 4, 200, seed=6, phy=TABLE_PHY)
    assert (seconds[batch > 1] > 0).all()


def test_success_sequence_ids_and_prefix():
    protos, rng = make(lambda r: Lmac(8, 0.7, r), 5, 11)
    seq, k = success_sequence_until_converged(protos, rng)
    assert k is not None
    assert all(1 <= sid <= 5 for sid in seq)
    # at most N-2 successes per pre-convergence schedule (two stations collide)
    assert len(seq) <= (k - 1) * 3


KERNEL_CASES = [(3, 8, DEFAULT_SCHEDULE_CAP), (8, 8, DEFAULT_SCHEDULE_CAP),
                (1, 4, DEFAULT_SCHEDULE_CAP), (6, 4, 150)]


#: Station kinds in turn for the "mixed" population.  The first station is
#: lbeb, which does not read idle positions, so a kernel that took
#: ``reads_idle_positions`` from the first station alone would fail.
MIXED = ("lbeb", "lzc", "lmac")


def stations(kind, n, c, *label):
    kinds = iter(MIXED * n if kind == "mixed" else (kind,) * n)
    return make(lambda r: init_protocol(next(kinds), c, r, beta=0.9, gamma=0.5), n, *label)


@pytest.mark.parametrize("kind", ["lbeb", "zc", "lzc", "lmac", "mixed"])
@pytest.mark.parametrize("n,c,cap", KERNEL_CASES)
def test_kernel_matches_updating_every_station(kind, n, c, cap):
    # The kernel updates only stations that failed in this schedule or the
    # one before, and an all-L-BEB run redraws from blocks; the oracle
    # updates every station every schedule with single draws.  Both take the
    # run's one stream, the oracle as the same generator for every station.
    # Generator states are not compared after a run: the block draws run
    # them ahead.
    for seed in range(8):
        ref, ref_rng = stations(kind, n, c, seed)
        k, seconds, seq = play_every_station(ref, [ref_rng] * n, cap, phy=TABLE_PHY)
        run_protos, run_rng = stations(kind, n, c, seed)
        start = [p.slot for p in run_protos]
        run = converge(run_protos, run_rng, cap=cap, phy=TABLE_PHY)
        seq_protos, seq_rng = stations(kind, n, c, seed)
        got_seq, got_k = success_sequence_until_converged(seq_protos, seq_rng, cap=cap)
        assert (run.schedules, got_k) == (k, k)
        assert run.seconds_before == seconds
        if n > c:  # censored at once: nothing played, no slot moved
            assert k is None and got_seq == []
            final = start
        else:
            assert k is not None and got_seq == seq
            final = [p.slot for p in ref]
        assert [p.slot for p in run_protos] == final
        assert [p.slot for p in seq_protos] == final


@pytest.mark.parametrize("kind", ["lbeb", "zc", "lzc", "lmac", "mixed"])
@pytest.mark.parametrize("n,c,cap", KERNEL_CASES)
def test_kernel_reports_failures_and_the_success_after_one(kind, n, c, cap, monkeypatch):
    # The every-station reference reports each station's outcome in every
    # schedule.  The kernel must report each failure and each success right
    # after a failure, the first schedule counting as one after a failure;
    # an all-L-BEB run reports nothing, and an N > C run plays nothing.
    reports: dict[int, list[bool]] = {}
    for cls in (Lbeb, Zc, Lzc, Lmac):
        def reported(proto, success, idle_positions, rng, update=cls.on_schedule_end):
            reports.setdefault(id(proto), []).append(success)
            return update(proto, success, idle_positions, rng)
        monkeypatch.setattr(cls, "on_schedule_end", reported)
    played = 0
    for seed in range(8):
        ref, ref_rng = stations(kind, n, c, seed)
        play_every_station(ref, [ref_rng] * n, cap)
        run_protos, run_rng = stations(kind, n, c, seed)
        converge(run_protos, run_rng, cap=cap)
        for every, run in zip(ref, run_protos):
            outcomes = reports.pop(id(every), [])
            played += len(outcomes)
            expected = [] if kind == "lbeb" or n > c else [
                success for k, success in enumerate(outcomes)
                if not success or k == 0 or not outcomes[k - 1]]
            assert reports.pop(id(run), []) == expected
    assert played or n == 1


#: (N, C) points of the layout oracle below, N = 1 among them, and its runs a side.
LAYOUT_CASES = [(1, 4), (4, 6), (8, 8), (12, 16)]
LAYOUT_RUNS = 2000
#: Two-sample KS critical value at alpha = 0.001, LAYOUT_RUNS runs a side:
#: sqrt(-ln(alpha / 2) / 2) * sqrt(2 / LAYOUT_RUNS).  K is discrete, which
#: makes the test conservative.
LAYOUT_KS_CRITICAL = np.sqrt(-np.log(0.001 / 2) / 2) * np.sqrt(2 / LAYOUT_RUNS)


def ks_distance(a, b) -> float:
    """Largest gap between the empirical distribution functions of a and b."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, x, "right") / a.size
                        - np.searchsorted(b, x, "right") / b.size).max())


@pytest.mark.parametrize("kind", ["lbeb", "zc", "lzc", "lmac"])
@pytest.mark.parametrize("n,c", LAYOUT_CASES)
def test_one_stream_runs_match_per_station_streams_in_law(kind, n, c):
    # The kernel on one stream per run against the every-station reference
    # with one stream per station: the two layouts draw different numbers,
    # so only the law of the convergence count K can agree.
    one = [converge(*stations(kind, n, c, "one", r)).schedules for r in range(LAYOUT_RUNS)]
    per = []
    for r in range(LAYOUT_RUNS):
        rngs = [np.random.default_rng(derive_seed("per", r, j)) for j in range(n)]
        protos = [init_protocol(kind, c, g, beta=0.9, gamma=0.5) for g in rngs]
        per.append(play_every_station(protos, rngs, DEFAULT_SCHEDULE_CAP)[0])
    assert ks_distance(one, per) <= LAYOUT_KS_CRITICAL


def test_one_generator_per_schedule_synchronous_run(monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    cfg = SimConfig(protocol="lzc", n=4, c=6, sweep="gamma", sweep_values=(0.3, 0.6), seed=31)
    converge_sweep(cfg, reps=3)
    assert len(calls) == 2 * 3
    calls.clear()
    build_f_table([4], reps=1000)
    # one generator per run, and the bootstrap's one for the length
    assert len(calls) == 1000 + 1


@pytest.mark.parametrize("kind", ["lbeb", "zc", "lzc", "lmac"])
def test_more_stations_than_slots_are_censored_without_a_schedule(kind, monkeypatch):
    protos, rng = stations(kind, 6, 4, 3)
    cls, calls = type(protos[0]), []
    update = cls.on_schedule_end

    def counted(self, *args):
        calls.append(self)
        return update(self, *args)

    monkeypatch.setattr(cls, "on_schedule_end", counted)
    state = rng.bit_generator.state
    # default cap: playing the run would spend all 10**6 schedules for nothing
    assert converge(protos, rng, phy=TABLE_PHY) == ConvergenceRun(None, None)
    assert success_sequence_until_converged(protos, rng) == ([], None)
    assert calls == []
    assert rng.bit_generator.state == state  # no draw either, L-BEB blocks included


@pytest.mark.parametrize("c", [1, 2, 3, 16, 17, 1000])
def test_block_slot_draws_equal_single_draws(c):
    # An all-L-BEB run reads its redraws in blocks of LBEB_BLOCK; numpy
    # fills a block with the values that many single calls return, across
    # refills too.
    size = 3 * schedulesim.LBEB_BLOCK + 8
    for seed in range(5):
        single = np.random.default_rng(seed)
        blocks = np.random.default_rng(seed)
        want = [int(single.integers(1, c + 1)) for _ in range(size)]
        got = []
        while len(got) < size:
            got += blocks.integers(1, c + 1, size=schedulesim.LBEB_BLOCK).tolist()
        assert got[:size] == want


#: All-L-BEB runs for the block redraws: at N = C = 13 every run reads several
#: blocks, and at N = C = 8 a cap of 40 schedules stops most runs first.
LBEB_WALK_CASES = [(13, 13, DEFAULT_SCHEDULE_CAP), (8, 8, 40)]


@pytest.mark.parametrize("n,c,cap", LBEB_WALK_CASES)
def test_lbeb_walk_matches_updating_every_station(n, c, cap):
    # Exact: schedule counts, seconds, success sequences and the stations'
    # final slots, converged or at the cap, against per-call redraws.
    capped = 0
    for seed in range(8):
        ref, ref_rng = stations("lbeb", n, c, "walk", seed)
        k, seconds, seq = play_every_station(ref, [ref_rng] * n, cap, phy=TABLE_PHY)
        run_protos, run_rng = stations("lbeb", n, c, "walk", seed)
        run = converge(run_protos, run_rng, cap=cap, phy=TABLE_PHY)
        seq_protos, seq_rng = stations("lbeb", n, c, "walk", seed)
        assert run == ConvergenceRun(k, seconds)
        assert success_sequence_until_converged(seq_protos, seq_rng, cap=cap) == (seq, k)
        final = [p.slot for p in ref]
        assert [p.slot for p in run_protos] == final
        assert [p.slot for p in seq_protos] == final
        if cap == DEFAULT_SCHEDULE_CAP:
            # each failed station redraws once, so the run reads past two
            # refills: station-schedules before convergence minus successes
            assert k is not None
            assert n * (k - 1) - len(seq) > 2 * schedulesim.LBEB_BLOCK
        else:
            capped += k is None
    if cap < DEFAULT_SCHEDULE_CAP:
        assert 0 < capped < 8
