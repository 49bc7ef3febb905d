"""Analytic long-run throughput for a fixed schedule length.

With ``N <= C`` a converged schedule carries one success per station and
``C - N`` idle slots.  With ``N > C`` each slot is assumed to hold one
settled station while the ``N - C`` excess stations land uniformly at
random, so the expected number of collision slots is a balls-into-bins
occupancy count.
"""

from __future__ import annotations

from .phy import PhyParams


def throughput_underloaded(n_stations: int, schedule_len: int, phy: PhyParams) -> float:
    """Normalised throughput of a converged collision-free schedule (N <= C).

    Multiply by the data rate for bits per second.
    """
    if n_stations < 1:
        raise ValueError("need at least one station")
    if n_stations > schedule_len:
        raise ValueError("underloaded model needs N <= C")
    n, c = n_stations, schedule_len
    return (n * phy.payload_us) / (n * phy.t_success + (c - n) * phy.sigma_us)


def expected_collision_slots(n_stations: int, schedule_len: int) -> float:
    """Expected number of slots hit by the excess stations when N > C.

    Balls-into-bins: the N - C unsettled stations land uniformly over the C
    slots; a slot they hit collides with its settled owner.
    """
    if n_stations <= schedule_len:
        raise ValueError("overloaded model needs N > C")
    c = schedule_len
    return c * (1.0 - (1.0 - 1.0 / c) ** (n_stations - c))


def throughput_overloaded(n_stations: int, schedule_len: int, phy: PhyParams) -> float:
    """Normalised throughput estimate for an oversubscribed schedule (N > C)."""
    n_coll = expected_collision_slots(n_stations, schedule_len)
    n_success = schedule_len - n_coll
    return (n_success * phy.payload_us) / (
        n_success * phy.t_success + n_coll * phy.t_collision
    )


def model_throughput(n_stations: int, schedule_len: int, phy: PhyParams) -> float:
    """Whichever regime applies for the given load."""
    if n_stations <= schedule_len:
        return throughput_underloaded(n_stations, schedule_len, phy)
    return throughput_overloaded(n_stations, schedule_len, phy)
