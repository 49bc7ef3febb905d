"""Schedule-synchronous runner: counting conventions, batch equivalence, timing,
agreement with the every-station reference."""

import numpy as np
import pytest

from macsim import protocols, schedulesim
from macsim.adaptation import build_f_table
from macsim.config import SimConfig, derive_seed
from macsim.phy import TABLE_PHY
from macsim.protocols import Lbeb, Lmac, Lzc, ReadAhead, Zc, init_protocol
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

#: Learning strengths in turn for the "lmac-two-betas" population: every
#: station is L-MAC, but with two betas the kernel calls the protocols.
TWO_BETAS = (0.9, 0.7)


def stations(kind, n, c, *label):
    two_betas = kind == "lmac-two-betas"
    kinds = iter(MIXED * n if kind == "mixed" else ("lmac" if two_betas else kind,) * n)
    betas = iter(TWO_BETAS * n if two_betas else (0.9,) * n)
    return make(lambda r: init_protocol(next(kinds), c, r, beta=next(betas), gamma=0.5),
                n, *label)


def final_state(protos):
    """Each station's slot and, for an L-MAC station, a copy of its vector,
    to compare bit for bit."""
    return [(p.slot, list(p.p) if isinstance(p, Lmac) else None) for p in protos]


KINDS = ["lbeb", "zc", "lzc", "lmac", "mixed", "lmac-two-betas"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n,c,cap", KERNEL_CASES)
def test_kernel_matches_updating_every_station(kind, n, c, cap):
    # The kernel updates only stations that failed in this schedule or the
    # one before, an all-L-BEB run redraws from blocks, and an all-L-MAC
    # run with one beta keeps the vectors itself; the oracle updates every
    # station every schedule with single draws through its protocol.  Both
    # take the run's one stream, the oracle as the same generator for every
    # station, and leave it in the same state: the block draws are rewound.
    for seed in range(8):
        ref, ref_rng = stations(kind, n, c, seed)
        k, seconds, seq = play_every_station(ref, [ref_rng] * n, cap, phy=TABLE_PHY)
        run_protos, run_rng = stations(kind, n, c, seed)
        start = final_state(run_protos)
        run = converge(run_protos, run_rng, cap=cap, phy=TABLE_PHY)
        seq_protos, seq_rng = stations(kind, n, c, seed)
        got_seq, got_k = success_sequence_until_converged(seq_protos, seq_rng, cap=cap)
        assert (run.schedules, got_k) == (k, k)
        assert run.seconds_before == seconds
        if n > c:  # censored at once: nothing played, nothing moved, nothing drawn
            assert k is None and got_seq == []
            final, state = start, stations(kind, n, c, seed)[1].bit_generator.state
        else:
            assert k is not None and got_seq == seq
            final, state = final_state(ref), ref_rng.bit_generator.state
        assert final_state(run_protos) == final
        assert final_state(seq_protos) == final
        assert run_rng.bit_generator.state == state == seq_rng.bit_generator.state


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n,c,cap", KERNEL_CASES)
def test_kernel_reports_failures_and_the_success_after_one(kind, n, c, cap, monkeypatch):
    # The every-station reference reports each station's outcome in every
    # schedule.  The kernel must report each failure and each success right
    # after a failure, the first schedule counting as one after a failure;
    # an all-L-BEB run and an all-L-MAC run with one beta report nothing,
    # and an N > C run plays nothing.
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
            expected = [] if kind in ("lbeb", "lmac") or n > c else [
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


def take_mixed(draws, n, one):
    """``n`` values of the read-ahead ``draws``: alternately ``one(draws)``
    and a ``take`` of up to 7, each after a ``peek`` that must show it."""
    got = []
    while len(got) < n:
        k = min(len(got) % 8, n - len(got))
        ahead = draws.peek(k or 1)
        values = draws.take(k) if k else [one(draws)]
        assert values == ahead[:len(values)]
        got += values
    return got


@pytest.mark.parametrize("c", [1, 2, 3, 16, 17, 1000])
def test_block_slot_draws_equal_single_draws(c):
    # An all-L-BEB run reads its redraws through a ReadAhead of
    # integers(1, c + 1): numpy fills a block with the values that single
    # calls return, across refills too, and after ``rewind`` the generator
    # is where those single calls leave it, whether none, a few, one
    # block's worth or more than two blocks' worth were taken.
    block = protocols.READ_AHEAD_BLOCK
    for seed in range(5):
        for taken in (0, 5, block, 2 * block + 7, 3 * block + 8):
            single, ahead = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = ReadAhead(ahead, 1, c + 1)
            want = [int(single.integers(1, c + 1)) for _ in range(taken)]
            assert take_mixed(draws, taken, lambda d: d.integers(1, c + 1)) == want
            draws.rewind()
            assert ahead.bit_generator.state == single.bit_generator.state
            assert draws.integers(1, c + 1) == single.integers(1, c + 1)


@pytest.mark.parametrize("seed", range(5))
def test_word_draws_serve_every_contention_window(seed):
    # Saturated DCF stations read their counters, integers(0, CW), as the
    # top bits of 32-bit words: for every CW alone and for CWs mixed as a
    # station's retries mix them, the values and, after ``rewind``, the
    # generator's state equal single draws.
    windows = [32 << i for i in range(6)]
    n = 2 * protocols.READ_AHEAD_BLOCK + 3
    for sequence in [[cw] * n for cw in windows] + [[windows[i % 6] for i in range(n)]]:
        single, ahead = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = ReadAhead(ahead, 0, 2**32)
        assert ([draws.integers(0, cw) for cw in sequence]
                == [int(single.integers(0, cw)) for cw in sequence])
        draws.rewind()
        assert ahead.bit_generator.state == single.bit_generator.state
    with pytest.raises(ValueError):
        draws.integers(0, 48)


@pytest.mark.parametrize("taken", [0, 1, 1023, 1024, 2100])
def test_error_draws_rewind_to_single_draws(taken):
    # The channel's error numbers, random(), read ahead and rewound.
    single, ahead = np.random.default_rng(taken), np.random.default_rng(taken)
    draws = ReadAhead(ahead)
    assert take_mixed(draws, taken, ReadAhead.random) == [single.random() for _ in range(taken)]
    draws.peek(3 * protocols.READ_AHEAD_BLOCK)  # read further ahead than any block
    draws.rewind()
    assert ahead.bit_generator.state == single.bit_generator.state


#: All-L-BEB runs for the block redraws: at N = C = 13 every run reads several
#: blocks, and at N = C = 8 a cap of 40 schedules stops most runs first.
LBEB_WALK_CASES = [(13, 13, DEFAULT_SCHEDULE_CAP), (8, 8, 40)]


@pytest.mark.parametrize("n,c,cap", LBEB_WALK_CASES)
def test_lbeb_walk_matches_updating_every_station(n, c, cap):
    # Exact: schedule counts, seconds, success sequences, the stations'
    # final slots and the generator's final state, converged or at the cap
    # (mid-block), against per-call redraws.
    capped = 0
    for seed in range(8):
        ref, ref_rng = stations("lbeb", n, c, "walk", seed)
        k, seconds, seq = play_every_station(ref, [ref_rng] * n, cap, phy=TABLE_PHY)
        run_protos, run_rng = stations("lbeb", n, c, "walk", seed)
        run = converge(run_protos, run_rng, cap=cap, phy=TABLE_PHY)
        seq_protos, seq_rng = stations("lbeb", n, c, "walk", seed)
        assert run == ConvergenceRun(k, seconds)
        assert success_sequence_until_converged(seq_protos, seq_rng, cap=cap) == (seq, k)
        final = final_state(ref)
        assert final_state(run_protos) == final
        assert final_state(seq_protos) == final
        state = ref_rng.bit_generator.state
        assert run_rng.bit_generator.state == state == seq_rng.bit_generator.state
        if cap == DEFAULT_SCHEDULE_CAP:
            # each failed station redraws once, so the run reads past two
            # refills: station-schedules before convergence minus successes
            assert k is not None
            assert n * (k - 1) - len(seq) > 2 * protocols.READ_AHEAD_BLOCK
        else:
            capped += k is None
    if cap < DEFAULT_SCHEDULE_CAP:
        assert 0 < capped < 8


@pytest.mark.parametrize("beta", [0.5, 0.95])
def test_lmac_runs_stopped_at_the_cap_match_updating_every_station(beta):
    # An all-L-MAC run keeps the vectors itself and writes them back when it
    # ends; at the cap that includes the vectors of the stations that failed
    # in the last schedule.  Exact against the every-station reference.
    capped = 0
    for seed in range(8):
        ref, ref_rng = make(lambda r: Lmac(8, beta, r), 8, "cap", seed)
        k, seconds, _ = play_every_station(ref, [ref_rng] * 8, 10, phy=TABLE_PHY)
        run_protos, run_rng = make(lambda r: Lmac(8, beta, r), 8, "cap", seed)
        assert converge(run_protos, run_rng, cap=10, phy=TABLE_PHY) == ConvergenceRun(k, seconds)
        assert final_state(run_protos) == final_state(ref)
        assert run_rng.bit_generator.state == ref_rng.bit_generator.state
        capped += k is None
    assert 0 < capped < 8
