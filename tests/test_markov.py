"""Chain analysis: state enumeration, chain rows against independent oracles,
eigenvalues, hitting times."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macsim import markov
from macsim.config import auto_gamma
from macsim.markov import (
    ChainModel,
    CollisionState,
    build_chain,
    collision_states_for,
    lambda_star_closed,
    mean_convergence,
    second_eigenvalue,
    transition_prob_formula,
)
from macsim.protocols import Lzc
from macsim.schedulesim import converge
from oracles import (
    chain_block,
    chain_layout_by_terms,
    lmac_bound,
    second_eigenvalue_every_block,
)


def S(*parts):
    return CollisionState(tuple(parts))


def chain_row(chain, row: int) -> dict[tuple[int, ...], float]:
    """Nonzero entries of ``chain.pi[row]`` keyed by the next state's parts;
    ``()`` is the absorbing state.  Row 0 is the start state."""
    parts = [None] + [s.parts for s in chain.states] + [()]
    return {parts[j]: float(p) for j, p in enumerate(chain.pi[row]) if p != 0.0}


def state_row(chain, *parts) -> int:
    return 1 + chain.states.index(S(*parts))


# --- state enumeration -------------------------------------------------------


def brute_force_partitions(total: int) -> set[tuple[int, ...]]:
    """Independent oracle: filter all compositions with parts >= 2."""
    found = set()

    def rec(remaining, acc):
        if remaining == 0:
            found.add(tuple(sorted(acc)))
            return
        for part in range(2, remaining + 1):
            rec(remaining - part, acc + [part])

    rec(total, [])
    return found


def test_states_for_two_and_five():
    assert [s.parts for s in collision_states_for(2)] == [(2,)]
    assert [s.parts for s in collision_states_for(5)] == [(2, 3), (5,)]


def test_states_for_six_has_four_states():
    got = {s.parts for s in collision_states_for(6)}
    assert got == {(6,), (2, 4), (3, 3), (2, 2, 2)}


def test_states_match_brute_force_oracle():
    for k in range(2, 12):
        assert {s.parts for s in collision_states_for(k)} == brute_force_partitions(k)


def test_enumerate_states_counts_and_bounds():
    assert build_chain(4, 1, 0.5).states == ()
    states = build_chain(8, 8, 0.5).states
    assert len(states) == sum(len(brute_force_partitions(k)) for k in range(2, 9))
    assert all(2 <= st.colliding_stations <= 8 for st in states)


def test_state_validation():
    with pytest.raises(ValueError):
        CollisionState((1, 2))
    with pytest.raises(ValueError):
        CollisionState((3, 2))
    with pytest.raises(ValueError):
        CollisionState(())


# --- literal per-station walker (oracle for the grouped enumerator) ----------


def literal_walker(parts, n_idle, gamma):
    """Enumerate every per-station assignment to {stay} + idle slots."""
    stations = []
    for j, occupancy in enumerate(parts):
        stations.extend([j] * occupancy)
    options = ["stay"] + [f"idle{i}" for i in range(n_idle)]
    dist: dict[tuple[int, ...], float] = {}
    absorbed = 0.0
    for choice in itertools.product(options, repeat=len(stations)):
        prob = 1.0
        stay_counts = [0] * len(parts)
        idle_counts = [0] * n_idle
        for st_slot, ch in zip(stations, choice):
            if ch == "stay":
                prob *= gamma
                stay_counts[st_slot] += 1
            else:
                prob *= (1.0 - gamma) / n_idle
                idle_counts[int(ch[4:])] += 1
        new_parts = tuple(
            sorted([c for c in stay_counts if c >= 2] + [c for c in idle_counts if c >= 2])
        )
        if new_parts:
            dist[new_parts] = dist.get(new_parts, 0.0) + prob
        else:
            absorbed += prob
    return dist, absorbed


@pytest.mark.parametrize(
    "parts,n_stations,schedule_len",
    [
        ((2,), 2, 3),  # n_idle = 2
        ((2,), 2, 4),  # n_idle = 3
        ((3,), 3, 4),  # n_idle = 2
        ((2, 2), 4, 6),  # n_idle = 2
        ((2, 3), 5, 6),  # n_idle = 2
        ((2, 2), 6, 7),  # two singles alongside, n_idle = 1
    ],
)
def test_grouped_enumerator_matches_literal_walker(parts, n_stations, schedule_len):
    n_idle = S(*parts).idle_slots(schedule_len, n_stations)
    for gamma in (0.2, 0.5, 0.8):
        want, want_abs = literal_walker(parts, n_idle, gamma)
        want[()] = want_abs
        chain = build_chain(schedule_len, n_stations, gamma)
        got = chain_row(chain, state_row(chain, *parts))
        assert set(got) == {p for p, prob in want.items() if prob > 0}
        for nxt, prob in got.items():
            assert prob == pytest.approx(want[nxt], abs=1e-12)


# --- hand-checked transition values ------------------------------------------


def test_pair_state_hand_values():
    # two colliding stations, one spare slot: stay or both jump to it
    chain = build_chain(16, 16, 0.5)
    row = state_row(chain, 2)
    assert chain_row(chain, row) == pytest.approx({(2,): 0.5, (): 0.5}, abs=1e-12)
    # three spare slots
    chain = build_chain(16, 14, 0.25)
    row = state_row(chain, 2)
    assert chain.pi[row, row] == pytest.approx(0.25, abs=1e-12)


def test_pair_state_sticky_limit():
    # as the stay probability grows the pair state becomes almost absorbing
    probs = []
    for g in (0.9, 0.99, 0.999):
        chain = build_chain(16, 16, g)
        row = state_row(chain, 2)
        probs.append(chain.pi[row, row])
    assert probs == sorted(probs)
    assert probs[-1] > 0.995


def test_formula_rejects_cross_block():
    with pytest.raises(ValueError):
        transition_prob_formula(S(2, 2), S(3,), 8, 8, 0.5)


# --- start row: uniform initial slot choices ------------------------------------


def exhaustive_initial(n, c):
    """Direct count over all c**n uniform slot assignments; ``()`` is the
    collision-free outcome."""
    counts: dict[tuple[int, ...], int] = {}
    for assign in itertools.product(range(c), repeat=n):
        occupancy = [0] * c
        for s in assign:
            occupancy[s] += 1
        parts = tuple(sorted(o for o in occupancy if o >= 2))
        counts[parts] = counts.get(parts, 0) + 1
    total = c**n
    return {k: v / total for k, v in counts.items()}


@pytest.mark.parametrize("n,c", [(2, 2), (3, 3), (3, 4), (4, 4), (4, 6), (5, 5)])
def test_initial_probs_match_exhaustive_count(n, c):
    # both divide an exact count by c**n, so they agree to the bit
    assert chain_row(build_chain(c, n, 0.5), 0) == exhaustive_initial(n, c)


def test_initial_probs_hand_case():
    # three stations on three slots: 3! collision-free orders, 3 ways to
    # share one slot, and the remaining 18 of 27 leave one pair
    start = chain_row(build_chain(3, 3, 0.5), 0)
    assert start == pytest.approx({(): 6 / 27, (2,): 18 / 27, (3,): 3 / 27}, abs=1e-12)


def test_initial_probs_single_station():
    chain = build_chain(4, 1, 0.5)
    assert chain.states == ()
    assert chain.pi[0].tolist() == [0.0, 1.0]


def test_initial_probs_monte_carlo():
    n, c = 6, 8
    runs = 200_000
    rng = np.random.default_rng(99)
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(runs):
        occupancy = np.bincount(rng.integers(0, c, size=n), minlength=c)
        parts = tuple(sorted(int(o) for o in occupancy if o >= 2))
        counts[parts] = counts.get(parts, 0) + 1
    start = chain_row(build_chain(c, n, 0.5), 0)
    assert () in start
    for parts, p in start.items():
        if p < 1e-4:
            continue
        sigma = np.sqrt(p * (1 - p) / runs)
        assert abs(counts.get(parts, 0) / runs - p) <= 3.5 * sigma


# --- chain assembly ------------------------------------------------------------


def test_build_chain_shape_and_structure():
    chain = build_chain(2, 2, 0.5)
    assert chain.pi.shape == (3, 3)
    assert chain.pi[0, 1] == pytest.approx(0.5)
    assert chain.pi[0, 2] == pytest.approx(0.5)
    assert chain.pi[1, 1] == pytest.approx(0.5)
    assert chain.pi[2, 2] == 1.0


def test_chain_rows_stochastic_and_block_triangular():
    for n, c, gamma in [(4, 6, 0.3), (6, 8, 0.5), (8, 10, 0.7), (6, 6, 0.5)]:
        chain = build_chain(c, n, gamma)
        assert np.max(np.abs(chain.pi.sum(axis=1) - 1.0)) <= 1e-12
        # no transitions to a larger colliding count
        idx = {st: i + 1 for i, st in enumerate(chain.states)}
        for frm in chain.states:
            for to in chain.states:
                if to.colliding_stations > frm.colliding_stations:
                    assert chain.pi[idx[frm], idx[to]] == 0.0


def test_distribution_sums_to_one():
    for parts, n, c in [((2,), 2, 2), ((2, 2, 2), 6, 8), ((4,), 6, 8), ((2, 3), 7, 9)]:
        chain = build_chain(c, n, 0.37)
        row = chain_row(chain, state_row(chain, *parts))
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)


def test_colliding_count_never_increases():
    chain = build_chain(16, 16, 0.5)
    row = chain_row(chain, state_row(chain, 2, 3))
    assert all(sum(parts) <= 5 for parts in row)


def test_formula_matches_exact_on_small_grid():
    """Closed form against the chain rows, which come from the exact
    placement count, within each colliding-count block."""
    for n in range(2, 7):
        for c in range(n, 9):
            for gamma in (0.3, 0.6):
                chain = build_chain(c, n, gamma)
                for frm in chain.states:
                    row = chain_row(chain, state_row(chain, *frm.parts))
                    same = [s for s in chain.states
                            if s.colliding_stations == frm.colliding_stations]
                    for to in same:
                        a = transition_prob_formula(frm, to, c, n, gamma)
                        b = row.get(to.parts, 0.0)
                        assert a == pytest.approx(b, abs=1e-12), (frm, to, c, n, gamma)


#: ``test_acceptance.test_01``'s grid and stay probabilities.
ORACLE_GRID = [(n, c) for n in range(2, 9) for c in range(n, 13)]
ORACLE_GAMMAS = (0.1, 0.5, 0.9)


def test_chain_diagonal_blocks_match_closed_form():
    """The assembled diagonal blocks equal the closed-form route to 1e-12."""
    worst = 0.0
    for n, c in ORACLE_GRID:
        for gamma in ORACLE_GAMMAS:
            chain = build_chain(c, n, gamma)
            for lo, hi in chain.block_ranges.values():
                block_states = chain.states[lo - 1 : hi - 1]  # row 0 is the start
                for i, frm in enumerate(block_states, start=lo):
                    for j, to in enumerate(block_states, start=lo):
                        want = transition_prob_formula(frm, to, c, n, gamma)
                        worst = max(worst, abs(chain.pi[i, j] - want))
    assert worst <= 1e-12


def test_cached_layout_does_not_leak_between_gammas():
    first = build_chain(9, 8, 0.3)
    first_pi = first.pi.copy()
    first.block_ranges.clear()  # a caller's edit must not reach later builds
    warm = build_chain(9, 8, 0.7)
    markov._chain_layout.cache_clear()
    cold = build_chain(9, 8, 0.7)
    assert np.array_equal(warm.pi, cold.pi)
    assert warm.block_ranges == cold.block_ranges
    assert np.array_equal(first.pi, first_pi)


#: sha256 of ``build_chain(c, n, gamma).pi.tobytes()``.  An entry sums many
#: terms, so a change in their order moves its last bits and fails here even
#: when every tolerance above still holds.
PI_DIGESTS = {
    (16, 14, 0.3): "7055fe09a8803cce34c86348c91a2a16d904f59114e6ab65835afab6a6d02ccf",
    (12, 12, 0.5): "d455389e8b97e3bcc7a30b9c3b86188ac59ef2e1f129538b8b7490eebacab529",
    (16, 16, 0.5): "1d5e37652323fed3491cab0c6cf79de041363d77d1bd3e9f861b14ae9cf6542c",
    (20, 12, 0.4): "d4065902658a73f804fa80267fd5e7d8a11cbf67ddc2f0661d28d83efc168e6e",
}


@pytest.mark.parametrize("c, n, gamma", list(PI_DIGESTS))
def test_chain_entries_pinned_to_the_bit(c, n, gamma):
    pi = build_chain(c, n, gamma).pi
    assert hashlib.sha256(pi.tobytes()).hexdigest() == PI_DIGESTS[c, n, gamma]


def test_collision_codes_are_distinct_and_additive():
    """Every multiset of at most N colliding stations gets its own int64 code,
    and merging two multisets adds their codes."""
    for n in range(1, markov.MAX_STATIONS + 1):
        multisets = [()] + [s.parts for k in range(2, n + 1) for s in collision_states_for(k)]
        places = markov._part_places(n)
        codes = {parts: sum(places[p] for p in parts) for parts in multisets}
        assert len(set(codes.values())) == len(multisets)
        assert 0 <= max(codes.values()) < 2**63
        for a in multisets:
            for b in multisets:
                if sum(a) + sum(b) <= n:
                    assert codes[a] + codes[b] == codes[tuple(sorted(a + b))]


LAYOUT_GRID = [(c, n) for c in range(2, 11) for n in range(2, c + 1)] + [(16, 14)]
#: Each case at the default term budget of a ``_chain_layout`` pass, then a few
#: at one term (a pass per row) and at more terms than any layout has (one pass).
LAYOUT_CASES = [pytest.param(c, n, None, id=f"{c}-{n}") for c, n in LAYOUT_GRID] + [
    pytest.param(c, n, budget, id=f"{c}-{n}-{budget}-terms")
    for c, n in [(4, 3), (7, 5), (10, 10), (16, 14)]
    for budget in (1, 10**9)
]


@pytest.mark.parametrize("c, n, budget", LAYOUT_CASES)
def test_layout_matches_term_by_term_oracle(c, n, budget, monkeypatch):
    passes = []
    if budget is not None:
        bincount = np.bincount

        def counted(*args, **kwargs):
            passes.append(len(args[0]))
            return bincount(*args, **kwargs)

        monkeypatch.setattr(markov, "_CHUNK_TERMS", budget)
        monkeypatch.setattr(markov.np, "bincount", counted)
    markov._chain_layout.cache_clear()
    got = markov._chain_layout(c, n)
    want = chain_layout_by_terms(c, n)
    assert got.states == want.states
    assert got.block_ranges == want.block_ranges
    assert got.colliding.tobytes() == want.colliding.tobytes()
    assert got.coef.shape == want.coef.shape
    assert got.coef.tobytes() == want.coef.tobytes()
    if budget is not None:
        assert len(passes) == (len(got.states) if budget == 1 else 1)


@st.composite
def chain_params(draw):
    schedule_len = draw(st.integers(2, 9))
    n_stations = draw(st.integers(2, schedule_len))
    gamma = draw(st.floats(0.01, 0.99))
    return schedule_len, n_stations, gamma


@settings(deadline=None)
@given(chain_params())
def test_chain_properties(params):
    c, n, gamma = params
    chain = build_chain(c, n, gamma)
    assert np.max(np.abs(chain.pi.sum(axis=1) - 1.0)) <= 1e-12
    # colliding stations per state: the start row may reach any state, and no
    # row may return to the start
    counts = [s.colliding_stations for s in chain.states]
    from_count = np.array([n] + counts + [0])
    to_count = np.array([n + 1] + counts + [0])
    assert not chain.pi[from_count[:, None] < to_count[None, :]].any()

    lam, k = second_eigenvalue(chain)
    per_block = {b: markov._dominant_eigenvalue(chain_block(chain, b)) for b in chain.block_ranges}
    assert lam == max(per_block.values()) == per_block[k]
    assert np.max(np.abs(np.linalg.eigvals(chain_block(chain, k)))) == pytest.approx(
        lam, abs=1e-12
    )
    for b, rho in per_block.items():
        # the Perron root is an eigenvalue and lies between the row-sum extremes
        block = chain_block(chain, b)
        shifted = block - rho * np.eye(len(block))
        assert np.linalg.svd(shifted, compute_uv=False).min() <= 1e-9
        sums = block.sum(axis=1)
        assert sums.min() - 1e-12 <= rho <= sums.max() + 1e-12


#: sha256 of ``build_chain(20, 20, 0.5).pi.tobytes()`` as the term-by-term
#: layout (``oracles.chain_layout_by_terms``) gives it.
MAX_STATIONS_PI_DIGEST = "a51f9b95e1f8f44eff90b833f4eab26f8c694fc80b282faf0c8692014cd4e003"


def test_build_chain_at_max_stations():
    """C = N = MAX_STATIONS: 626 collision states, a cold build of about
    0.3 s and 105 MB peak memory on a 2-CPU x86-64 machine."""
    n = markov.MAX_STATIONS
    chain = build_chain(n, n, 0.5)
    assert hashlib.sha256(chain.pi.tobytes()).hexdigest() == MAX_STATIONS_PI_DIGEST
    lam, _ = second_eigenvalue(chain)
    assert lam == pytest.approx(lambda_star_closed(n, n, 0.5), abs=1e-9)


def test_build_chain_guards():
    with pytest.raises(ValueError):
        build_chain(30, 21, 0.5)
    with pytest.raises(ValueError):
        build_chain(4, 6, 0.5)
    with pytest.raises(ValueError):
        build_chain(8, 4, 1.0)


# --- eigenvalues ----------------------------------------------------------------


def test_second_eigenvalue_hand_case():
    chain = build_chain(16, 16, 0.5)
    lam, block = second_eigenvalue(chain)
    assert lam == pytest.approx(0.5, abs=1e-9)
    assert block == 2


def test_second_eigenvalue_matches_dense_solver():
    for n, c, gamma in [(5, 7, 0.4), (6, 6, 0.5), (7, 9, 0.25)]:
        chain = build_chain(c, n, gamma)
        lam, _ = second_eigenvalue(chain)
        eigs = sorted(abs(v) for v in np.linalg.eigvals(chain.pi))
        assert lam == pytest.approx(eigs[-2], abs=1e-9)  # below the absorbing 1


LAMBDA_GAMMAS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


@pytest.mark.parametrize("c, n", [(16, 16), (20, 12), (20, 20), (4, 1), *LAYOUT_GRID])
def test_second_eigenvalue_matches_every_block_visit(c, n):
    """Skipping the blocks whose row-sum bound falls below the best root
    changes no bit of (lambda, k)."""
    for gamma in LAMBDA_GAMMAS:
        chain = build_chain(c, n, gamma)
        assert second_eigenvalue(chain) == second_eigenvalue_every_block(chain)


def block_chain(*blocks) -> ChainModel:
    """A chain whose diagonal blocks are ``blocks``, keyed from
    ``len(blocks) + 1`` down to 2 as a real chain's colliding counts run."""
    size = sum(len(b) for b in blocks) + 2
    pi = np.zeros((size, size))
    block_ranges = {}
    lo = 1
    for k, block in zip(range(len(blocks) + 1, 1, -1), blocks):
        hi = lo + len(block)
        pi[lo:hi, lo:hi] = block
        block_ranges[k] = (lo, hi)
        lo = hi
    return ChainModel(states=(), pi=pi, block_ranges=block_ranges)


@pytest.mark.parametrize("blocks, want", [
    # equal roots: the first block in block_ranges order wins, though the
    # second has the larger row sum and is visited first
    ([[[0.5]], [[0.5, 0.3], [0.0, 0.2]]], (0.5, 3)),
    # the largest row sum with a root of 0: the next block still counts
    ([[[0.0, 0.9], [0.0, 0.0]], [[0.5]]], (0.5, 2)),
    # a root far above the block's smallest row sum
    ([np.diag([0.9, 0.1]), [[0.5]]], (0.9, 3)),
])
def test_second_eigenvalue_row_sum_bound_edges(blocks, want):
    chain = block_chain(*blocks)
    assert second_eigenvalue(chain) == second_eigenvalue_every_block(chain) == want


def test_lambda_star_closed_values():
    assert lambda_star_closed(16, 16, 0.5) == pytest.approx(0.5)
    assert lambda_star_closed(16, 14, 0.25) == pytest.approx(0.25)


def test_lambda_star_closed_single_station():
    # one station never collides: no two-station block, no subdominant root
    for c in (1, 4, 16):
        assert lambda_star_closed(c, 1, 0.5) == 0.0
        assert second_eigenvalue(build_chain(c, 1, 0.5)) == (0.0, 0)


def test_lambda_below_one():
    for gamma in (0.05, 0.5, 0.95):
        for n, c in [(4, 4), (6, 8)]:
            lam, _ = second_eigenvalue(build_chain(c, n, gamma))
            assert 0.0 < lam < 1.0


def test_gamma_opt():
    # the automatic stay probability minimises the closed-form eigenvalue
    for n, c in [(16, 16), (14, 16), (10, 16)]:
        grid = np.linspace(0.01, 0.99, 981)
        vals = [lambda_star_closed(c, n, g) for g in grid]
        assert grid[int(np.argmin(vals))] == pytest.approx(auto_gamma(c, n), abs=2e-3)


# --- hitting times ----------------------------------------------------------------


def test_mean_convergence_hand_value():
    chain = build_chain(2, 2, 0.5)
    assert mean_convergence(chain) == pytest.approx(2.0, abs=1e-12)


def test_mean_convergence_single_station():
    # the first schedule counts as one, as in schedulesim.converge
    chain = build_chain(4, 1, 0.5)
    rng = np.random.default_rng(0)
    assert mean_convergence(chain) == 1.0
    assert converge([Lzc(4, 0.5, rng)], rng).schedules == 1


# --- learning-protocol bound --------------------------------------------------------


def test_lmac_bound_hand_value():
    k, tail = lmac_bound(0.5, 2, 1)
    assert k == pytest.approx(0.125, abs=1e-12)
    assert tail(0) == 1.0
    assert tail(2) == pytest.approx((1 - 0.125) ** 2)


def test_lmac_bound_positive_and_monotone():
    for beta in (0.1, 0.5, 0.9):
        for n, c in [(4, 6), (8, 16), (16, 16)]:
            k, tail = lmac_bound(beta, c, n)
            assert k > 0.0
            assert tail(5) <= tail(4) <= tail(1) <= 1.0
    # away from float degeneracy the tail is strictly decreasing
    k, tail = lmac_bound(0.5, 4, 2)
    assert k > 1e-6
    assert tail(5) < tail(4) < tail(1) < 1.0
