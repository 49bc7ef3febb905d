"""Schedule-synchronous runner: counting conventions, batch equivalence, timing,
agreement with the every-station reference."""

import numpy as np
import pytest

from macsim import schedulesim
from macsim.config import derive_seed
from macsim.phy import TABLE_PHY
from macsim.protocols import Lbeb, Lmac, Lzc, init_protocol
from macsim.schedulesim import (
    DEFAULT_SCHEDULE_CAP,
    ConvergenceRun,
    converge,
    converge_lbeb_batch,
    success_sequence_until_converged,
)
from oracles import play_every_station


def make(factory, n, seed):
    ss = np.random.SeedSequence([seed])
    rngs = [np.random.default_rng(c) for c in ss.spawn(n)]
    protos = [factory(rngs[i]) for i in range(n)]
    return protos, rngs


def test_single_station_counts_one_schedule():
    protos, rngs = make(lambda r: Lzc(4, 0.5, r), 1, 1)
    run = converge(protos, rngs, phy=TABLE_PHY)
    assert run.schedules == 1
    assert run.seconds_before == 0.0


def test_mixed_lengths_rejected():
    protos, rngs = make(lambda r: Lzc(4, 0.5, r), 2, 2)
    protos[1].resize(8)
    with pytest.raises(ValueError):
        converge(protos, rngs)


def test_two_station_mean_matches_chain_value():
    # expected schedules through the first collision-free one is exactly 2.0
    total = 0
    runs = 20_000
    for seed in range(runs):
        protos, rngs = make(lambda r: Lzc(2, 0.5, r), 2, seed)
        total += converge(protos, rngs).schedules
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
        protos, rngs = make(lambda r: Lzc(2, 0.5, r), 2, seed)
        starts = [p.current_slot() for p in protos]
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
        protos, rngs = make(lambda r: Lbeb(c, r), n, derive_seed("lbeb-ref", seed))
        counts.append(converge(protos, rngs).schedules)
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
    protos, rngs = make(lambda r: Lmac(8, 0.7, r), 5, 11)
    seq, k = success_sequence_until_converged(protos, rngs)
    assert k is not None
    assert all(1 <= sid <= 5 for sid in seq)
    # at most N-2 successes per pre-convergence schedule (two stations collide)
    assert len(seq) <= (k - 1) * 3


KERNEL_CASES = [(3, 8, DEFAULT_SCHEDULE_CAP), (8, 8, DEFAULT_SCHEDULE_CAP),
                (1, 4, DEFAULT_SCHEDULE_CAP), (6, 4, 150)]


#: Station kinds in turn for the "mixed" population.  The first station is
#: lbeb, which neither reads idle positions nor learns from a success, so a
#: kernel that took its flags from the first station alone would fail.
MIXED = ("lbeb", "lzc", "lmac")


def stations(kind, n, c, seed):
    kinds = iter(MIXED * n if kind == "mixed" else (kind,) * n)
    return make(lambda r: init_protocol(next(kinds), c, r, beta=0.9, gamma=0.5), n, seed)


@pytest.mark.parametrize("kind", ["lbeb", "zc", "lzc", "lmac", "mixed"])
@pytest.mark.parametrize("n,c,cap", KERNEL_CASES)
def test_kernel_matches_updating_every_station(kind, n, c, cap):
    # The kernel updates only stations that failed in this schedule or the
    # one before, and L-BEB stations redraw from blocks; the oracle updates
    # every station every schedule with single draws.  Generator states are
    # not compared after a run: the block draws run them ahead.
    for seed in range(8):
        ref = stations(kind, n, c, seed)
        k, seconds, seq = play_every_station(*ref, cap, phy=TABLE_PHY)
        run_protos, run_rngs = stations(kind, n, c, seed)
        run = converge(run_protos, run_rngs, cap=cap, phy=TABLE_PHY)
        seq_protos, seq_rngs = stations(kind, n, c, seed)
        got_seq, got_k = success_sequence_until_converged(seq_protos, seq_rngs, cap=cap)
        assert (run.schedules, got_k) == (k, k)
        assert run.seconds_before == seconds
        assert got_seq == seq
        final = [p.current_slot() for p in ref[0]]
        assert [p.current_slot() for p in seq_protos] == final
        if n <= c:
            assert k is not None
            assert [p.current_slot() for p in run_protos] == final


@pytest.mark.parametrize("kind", ["lbeb", "zc", "lzc", "lmac"])
def test_more_stations_than_slots_are_censored_without_a_schedule(kind, monkeypatch):
    protos, rngs = stations(kind, 6, 4, 3)
    cls, calls = type(protos[0]), []
    update = cls.on_schedule_end

    def counted(self, *args):
        calls.append(self)
        return update(self, *args)

    monkeypatch.setattr(cls, "on_schedule_end", counted)
    # default cap: playing the run would spend all 10**6 schedules for nothing
    assert converge(protos, rngs, phy=TABLE_PHY) == ConvergenceRun(None, None)
    assert calls == []


@pytest.mark.parametrize("c", [1, 2, 3, 16, 17, 1000])
def test_block_slot_draws_equal_single_draws(c):
    for seed in range(5):
        single = np.random.default_rng(seed)
        blocks = schedulesim._SlotDraws(np.random.default_rng(seed))
        want = [int(single.integers(1, c + 1)) for _ in range(200)]
        assert [blocks.integers(1, c + 1) for _ in range(200)] == want
