"""Analytic throughput model against hand arithmetic and counting oracles."""

import itertools

import numpy as np
import pytest

from macsim.phy import TABLE_PHY
from macsim.throughput import (
    expected_collision_slots,
    model_throughput,
    throughput_overloaded,
    throughput_underloaded,
)

# Hand arithmetic with the 1020-byte parameter set:
#   full schedule:      S = (8160/11) / 896                      = 0.827922...
#   half-full schedule: S = 8*(8160/11) / (8*896 + 8*20)         = 0.809844...
#   N=20, C=16:         E[collision slots] = 16*(1-(15/16)^4)    = 3.640380859375
#                       S = 12.3596*(8160/11)
#                           / (12.3596*896 + 3.6404*(120+8608/11)) = 0.63848...
S_FULL = (8160 / 11) / 896
S_HALF = 8 * (8160 / 11) / (8 * 896 + 8 * 20)
ECOLL_20_16 = 3.640380859375


def test_underloaded_hand_values():
    assert throughput_underloaded(16, 16, TABLE_PHY) == pytest.approx(S_FULL, abs=1e-12)
    assert throughput_underloaded(16, 16, TABLE_PHY) == pytest.approx(0.8279, abs=5e-5)
    assert throughput_underloaded(8, 16, TABLE_PHY) == pytest.approx(S_HALF, abs=1e-12)
    assert throughput_underloaded(8, 16, TABLE_PHY) == pytest.approx(0.8098, abs=5e-5)
    # about 9.107 Mbit/s at 11 Mbit/s
    assert throughput_underloaded(16, 16, TABLE_PHY) * 11 == pytest.approx(9.107, abs=5e-3)


def test_full_schedule_is_best():
    for n in range(1, 16):
        assert throughput_underloaded(16, 16, TABLE_PHY) > throughput_underloaded(
            n, 16, TABLE_PHY
        )


def test_underloaded_rejects_overload():
    with pytest.raises(ValueError):
        throughput_underloaded(17, 16, TABLE_PHY)


def test_expected_collision_slots_hand_values():
    assert expected_collision_slots(20, 16) == pytest.approx(ECOLL_20_16, abs=1e-12)
    assert expected_collision_slots(17, 16) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        expected_collision_slots(16, 16)


def exhaustive_occupied_bins(balls: int, bins: int) -> float:
    total = 0
    for assign in itertools.product(range(bins), repeat=balls):
        total += len(set(assign))
    return total / bins**balls


def test_expected_collision_slots_vs_exhaustive_count():
    for bins in (2, 3, 4, 6, 8):
        for balls in (1, 2, 3, 4):
            want = exhaustive_occupied_bins(balls, bins)
            got = expected_collision_slots(bins + balls, bins)
            assert got == pytest.approx(want, abs=1e-12)


def test_expected_collision_slots_vs_monte_carlo():
    rng = np.random.default_rng(5)
    bins, balls = 16, 4
    runs = 100_000
    occupied = np.array([
        len(set(rng.integers(0, bins, size=balls).tolist())) for _ in range(runs)
    ])
    want = expected_collision_slots(20, 16)
    sigma = occupied.std(ddof=1) / np.sqrt(runs)
    assert abs(occupied.mean() - want) <= 3.5 * sigma


def test_overloaded_hand_value():
    assert throughput_overloaded(20, 16, TABLE_PHY) == pytest.approx(0.6385, abs=5e-4)


def test_overloaded_decreasing_in_n():
    values = [throughput_overloaded(n, 16, TABLE_PHY) for n in range(17, 33)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_overloaded_limit_toward_full():
    # as the excess vanishes the model approaches the collision-free ceiling
    almost = throughput_overloaded(16 + 1e-9, 16, TABLE_PHY)
    assert almost == pytest.approx(TABLE_PHY.payload_us / TABLE_PHY.t_success, abs=1e-6)


def test_model_values_normalised():
    for n in list(range(1, 17)) + list(range(17, 40)):
        s = model_throughput(n, 16, TABLE_PHY)
        assert 0.0 < s < 1.0
