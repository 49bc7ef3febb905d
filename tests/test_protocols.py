"""Slot-selection rules: hand-checked updates, sampling contracts, edge cases."""

import numpy as np
import pytest

import oracles
from macsim.protocols import (
    Dcf,
    Lbeb,
    Lmac,
    Lzc,
    Zc,
    init_protocol,
    sample_slot,
    updated_probabilities,
)


def rng(seed=1):
    return np.random.default_rng(seed)


# --- backoff arithmetic ----------------------------------------------------


def test_backoff_from_slots_values():
    assert oracles.backoff_from_slots(3, 5, 8) == 10
    assert oracles.backoff_from_slots(5, 5, 8) == 8  # keeping the slot costs one schedule
    assert oracles.backoff_from_slots(16, 1, 16) == 1


def test_backoff_from_slots_range():
    r = rng(2)
    for _ in range(500):
        c = int(r.integers(1, 40))
        s0 = int(r.integers(1, c + 1))
        s1 = int(r.integers(1, c + 1))
        assert 1 <= oracles.backoff_from_slots(s0, s1, c) <= 2 * c - 1


def test_backoff_from_slots_rejects_out_of_range():
    with pytest.raises(ValueError):
        oracles.backoff_from_slots(0, 1, 8)
    with pytest.raises(ValueError):
        oracles.backoff_from_slots(1, 9, 8)


# --- learning update -------------------------------------------------------


def test_failure_update_hand_case():
    p = np.full(4, 0.25)
    out = np.asarray(updated_probabilities(p, 2, 0.5, success=False))
    assert out[1] == pytest.approx(1 / 8, abs=1e-12)
    for j in (0, 2, 3):
        assert out[j] == pytest.approx(7 / 24, abs=1e-12)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_failure_update_hand_case_c16():
    p = np.full(16, 1 / 16)
    out = updated_probabilities(p, 5, 0.95, success=False)
    assert out[4] == pytest.approx(0.059375, abs=1e-9)
    others = np.delete(out, 4)
    assert np.allclose(others, 0.95 / 16 + 0.05 / 15, atol=1e-9)


def test_success_update_is_point_mass():
    p = np.array([0.1, 0.4, 0.3, 0.2])
    out = updated_probabilities(p, 2, 0.5, success=True)
    assert list(out) == [0.0, 1.0, 0.0, 0.0]


def test_stickiness_geometric_decay():
    # k failures on one slot from a point mass leave exactly beta**k behind
    beta = 0.95
    p = np.zeros(16)
    p[4] = 1.0
    expect = 1.0
    for _ in range(20):
        p = updated_probabilities(p, 5, beta, success=False)
        expect *= beta
        assert p[4] == pytest.approx(expect, abs=1e-12)


def test_probability_sum_preserved_over_long_random_sequences():
    r = rng(3)
    p = np.full(16, 1 / 16)
    for _ in range(10_000):
        slot = int(r.integers(1, 17))
        p = updated_probabilities(p, slot, 0.9, success=bool(r.integers(0, 2)))
        if p[slot - 1] == 1.0:  # escape the absorbing point mass sometimes
            p = updated_probabilities(p, slot, 0.9, success=False)
    p = np.asarray(p)
    assert abs(p.sum() - 1.0) <= 1e-9
    assert (p >= 0).all()


def test_failure_update_monotone():
    # the failed slot always loses mass; another slot gains exactly when it
    # held less than the uniform share 1/(C-1) of the redistribution
    r = rng(4)
    for _ in range(200):
        p = r.dirichlet(np.ones(8))
        slot = int(r.integers(1, 9))
        if p[slot - 1] <= 0:
            continue
        out = updated_probabilities(p, slot, 0.7, success=False)
        assert out[slot - 1] < p[slot - 1]
        for j in range(8):
            if j == slot - 1:
                continue
            if p[j] < 1 / 7 - 1e-12:
                assert out[j] > p[j]
            elif p[j] > 1 / 7 + 1e-12:
                assert out[j] < p[j]


def test_sample_slot_point_mass():
    p = np.zeros(16)
    p[2] = 1.0
    r = rng(6)
    assert {sample_slot(p, r) for _ in range(50)} == {3}


def _freq_check(counts, n_draws, expected_p):
    for slot, p in expected_p.items():
        sigma = np.sqrt(p * (1 - p) / n_draws)
        assert abs(counts.get(slot, 0) / n_draws - p) <= 3.5 * sigma + 1e-12


def test_sample_slot_uniform_frequencies():
    p = np.full(16, 1 / 16)
    r = rng(8)
    n = 100_000
    counts: dict[int, int] = {}
    for _ in range(n):
        s = sample_slot(p, r)
        counts[s] = counts.get(s, 0) + 1
    _freq_check(counts, n, {s: 1 / 16 for s in range(1, 17)})


def test_sample_slot_skewed_frequencies():
    p = np.array([0.9, 0.1])
    r = rng(10)
    n = 100_000
    counts: dict[int, int] = {}
    for _ in range(n):
        s = sample_slot(p, r)
        counts[s] = counts.get(s, 0) + 1
    _freq_check(counts, n, {1: 0.9, 2: 0.1})


# --- the float rule against the ndarray rule --------------------------------


@pytest.mark.parametrize("beta", [0.5, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("c", [2, 3, 16, 17, 64])
def test_float_rule_equals_ndarray_rule_bit_for_bit(c, beta):
    # 2000 mixed updates from each start; slots, generator states and every
    # probability must be equal, not close
    r = rng(c)
    point = np.zeros(c)
    point[int(r.integers(0, c))] = 1.0
    for start in (np.full(c, 1 / c), point, r.dirichlet(np.ones(c))):
        p, ref = start.tolist(), start
        draws, ref_draws = rng(int(beta * 100)), rng(int(beta * 100))
        for _ in range(2000):
            slot = sample_slot(p, draws)
            assert slot == oracles.sample_slot(ref, ref_draws)
            assert draws.bit_generator.state == ref_draws.bit_generator.state
            success = bool(r.random() < 0.3)
            p = updated_probabilities(p, slot, beta, success)
            ref = oracles.updated_probabilities(ref, slot, beta, success)
            assert p == ref.tolist()
        assert all(type(x) is float for x in p)


class FixedDraws:
    """Stands in for a generator whose ``random()`` returns the given values."""

    def __init__(self, *values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


@pytest.mark.parametrize("p", [[0.25] * 4, [0.0, 0.0, 1.0, 0.0], [0.5, 0.0, 0.5, 0.0]])
def test_sample_slot_on_a_cdf_step_equals_ndarray_rule(p):
    # a draw that lands exactly on a CDF value goes right, past zero-mass slots
    for u in (0.0, 0.25, 0.5, 0.75, 1 - 2**-53):
        assert sample_slot(p, FixedDraws(u)) == oracles.sample_slot(np.array(p), FixedDraws(u))


# --- stay-or-jump rules ----------------------------------------------------


def test_lzc_success_keeps_slot():
    proto = Lzc(16, 0.5, rng(11))
    s = proto.slot
    assert proto.on_schedule_end(True, [1, 2, 3], rng(12)) == s


def test_lzc_failure_distribution_exact_and_empirical():
    proto = Lzc(16, 0.5, rng(13))
    proto.slot = 2
    dist = oracles.lzc_failure_distribution(proto, [4, 7])
    assert dist == {2: 0.5, 4: 0.25, 7: 0.25}
    r = rng(14)
    n = 100_000
    counts: dict[int, int] = {}
    for _ in range(n):
        proto.slot = 2
        s = proto.on_schedule_end(False, [4, 7], r)
        counts[s] = counts.get(s, 0) + 1
    _freq_check(counts, n, dist)


def test_lzc_failure_no_idle_stays():
    proto = Lzc(16, 0.5, rng(15))
    proto.slot = 9
    assert proto.on_schedule_end(False, [], rng(16)) == 9
    assert oracles.lzc_failure_distribution(proto, []) == {9: 1.0}


def test_zc_failure_uniform_over_candidates():
    proto = Zc(16, rng(17))
    proto.slot = 5
    dist = oracles.zc_failure_distribution(proto, [1, 2, 3])
    assert dist == pytest.approx({5: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})
    proto2 = Zc(16, rng(18))
    proto2.slot = 4
    assert oracles.zc_failure_distribution(proto2, []) == {4: 1.0}
    assert proto2.on_schedule_end(True, [], rng(19)) == 4


def test_zc_equals_lzc_with_matched_stay_probability():
    # distribution-level equivalence, enumerated over idle-set geometries
    for n_idle in range(1, 9):
        idle = list(range(2, 2 + n_idle))
        zc = Zc(16, rng(20))
        zc.slot = 1
        lzc = Lzc(16, 1.0 / (n_idle + 1), rng(21))
        lzc.slot = 1
        dz = oracles.zc_failure_distribution(zc, idle)
        dl = oracles.lzc_failure_distribution(lzc, idle)
        assert set(dz) == set(dl)
        for k in dz:
            assert dz[k] == pytest.approx(dl[k], abs=1e-12)


def test_lbeb_rules():
    proto = Lbeb(16, rng(22))
    s = proto.slot
    assert proto.on_schedule_end(True, [], rng(23)) == s
    r = rng(24)
    n = 100_000
    counts: dict[int, int] = {}
    for _ in range(n):
        s2 = proto.on_schedule_end(False, [], r)
        counts[s2] = counts.get(s2, 0) + 1
    _freq_check(counts, n, {s: 1 / 16 for s in range(1, 17)})


# --- DCF -------------------------------------------------------------------


def test_dcf_window_evolution():
    r = rng(25)
    dcf = Dcf(r)
    assert dcf.cw == 32
    # seven retries: doubling up to the cap, then the eighth drops and resets
    expect = [64, 128, 256, 512, 1024, 1024, 1024]
    for want in expect:
        dropped = dcf.on_transmission(False, r)
        assert dcf.cw == want and not dropped
    dropped = dcf.on_transmission(False, r)
    assert dropped and dcf.cw == 32
    dcf.on_transmission(False, r)
    assert dcf.cw == 64
    dcf.on_transmission(True, r)
    assert dcf.cw == 32


def test_dcf_retry_limit_drops():
    r = rng(26)
    dcf = Dcf(r)
    dropped = False
    for _ in range(7):
        dropped = dcf.on_transmission(False, r)
        assert not dropped
    dropped = dcf.on_transmission(False, r)
    assert dropped
    assert dcf.cw == 32 and dcf.retries == 0


def test_dcf_counter_in_window():
    r = rng(27)
    dcf = Dcf(r)
    for _ in range(200):
        dcf.on_transmission(bool(r.integers(0, 2)), r)
        assert 0 <= dcf.counter < dcf.cw


# --- factory ---------------------------------------------------------------


def test_init_protocol_defaults_and_validation():
    proto = init_protocol("lmac", 16, rng(28), beta=0.9)
    assert isinstance(proto, Lmac)
    assert proto.beta == 0.9
    assert np.allclose(proto.p, 1 / 16)
    dcf = init_protocol("dcf", None, rng(29))
    assert dcf.cw == 32
    with pytest.raises(ValueError):
        init_protocol("lmac", 16, rng(28))  # missing beta: config.resolve gives it
    with pytest.raises(ValueError):
        init_protocol("lzc", 16, rng(30))  # missing gamma
    with pytest.raises(ValueError):
        init_protocol("lzc", 16, rng(31), gamma=1.0)
    with pytest.raises(ValueError):
        init_protocol("lmac", 16, rng(32), beta=0.0)
    with pytest.raises(ValueError):
        init_protocol("nope", 16, rng(33))


def test_initial_slot_uniform():
    n = 50_000
    counts: dict[int, int] = {}
    r = rng(34)
    for _ in range(n):
        s = Lzc(16, 0.5, r).slot
        counts[s] = counts.get(s, 0) + 1
    _freq_check(counts, n, {s: 1 / 16 for s in range(1, 17)})


def test_resize_remaps_slot():
    proto = Lzc(16, 0.5, rng(35))
    proto.slot = 13
    proto.resize(8)
    assert proto.schedule_len == 8
    assert proto.slot == 5  # 13 -> ((13-1) mod 8) + 1
    lmac = Lmac(16, 0.9, rng(36))
    lmac.slot = 3
    lmac.p = np.zeros(16)
    lmac.p[2] = 1.0
    lmac.resize(32)
    assert lmac.slot == 3
    assert np.allclose(lmac.p, 1 / 32)


@pytest.mark.parametrize("kind", ["lbeb", "zc", "lzc", "lmac"])
def test_repeated_success_keeps_state_and_draws_nothing(kind):
    # the engine reports one success for a whole span of copied windows
    r = rng(7)
    proto = init_protocol(kind, 8, r, beta=0.95, gamma=0.5)
    slot = proto.slot
    state = r.bit_generator.state
    proto.on_schedule_end(True, [1, 2, 3], r)
    assert proto.slot == slot
    p = getattr(proto, "p", None)
    proto.on_schedule_end(True, [1, 2, 3], r)
    assert proto.slot == slot
    assert r.bit_generator.state == state
    if kind == "lmac":
        assert np.array_equal(proto.p, p)
        assert proto.p[slot - 1] == 1.0 and np.asarray(proto.p).sum() == 1.0


@pytest.mark.parametrize("kind", ["lbeb", "zc", "lzc", "lmac"])
def test_success_after_a_reported_success_changes_nothing(kind):
    # the schedule-synchronous kernel skips these calls (on_schedule_end)
    r = rng(21)
    proto = init_protocol(kind, 8, r, beta=0.9, gamma=0.5)
    proto.on_schedule_end(False, [2, 5], r)
    proto.on_schedule_end(True, [2, 5], r)
    slot, p, state = proto.slot, getattr(proto, "p", None), r.bit_generator.state
    assert proto.on_schedule_end(True, [3], r) == slot
    assert proto.slot == slot
    assert r.bit_generator.state == state
    if kind == "lmac":  # the point mass on the slot that the first success left
        assert p[slot - 1] == 1.0 and np.array_equal(proto.p, p)


@pytest.mark.parametrize("kind", ["lbeb", "zc", "lzc", "lmac"])
def test_success_after_a_failure_keeps_the_slot_and_draws_nothing(kind):
    # the schedule-synchronous kernel reports this success to every rule; a
    # rule that drew here would change every later draw of a mixed run
    r = rng(22)
    proto = init_protocol(kind, 8, r, beta=0.9, gamma=0.5)
    for _ in range(5):
        proto.on_schedule_end(False, [2, 5], r)
        slot, before, state = proto.slot, dict(vars(proto)), r.bit_generator.state
        assert proto.on_schedule_end(True, [2, 5], r) == slot
        assert proto.slot == slot
        assert r.bit_generator.state == state
        if kind == "lmac":
            assert proto.p[slot - 1] == 1.0
        else:
            assert vars(proto) == before  # only L-MAC learns from a success
