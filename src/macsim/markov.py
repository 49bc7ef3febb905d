"""Exact absorbing-chain analysis of stay-or-jump slot reselection.

Saturated stations on a common schedule of ``C`` slots either hold a slot
they won or, after colliding, keep it with probability ``gamma`` and
otherwise jump uniformly onto one of the slots that were idle in the same
schedule.  Grouping stations by the multiset of collision-slot occupancies
yields a finite Markov chain: a start state (all stations picking uniformly),
one state per occupancy multiset, and an absorbing state for collision-free
schedules.  Because jumpers can only land on previously idle slots, the
number of colliding stations never increases, so the transition matrix is
block upper triangular and its subdominant eigenvalue is the largest
dominant eigenvalue over the diagonal blocks.  A nonnegative block's largest
row sum bounds its dominant eigenvalue, so ``second_eigenvalue`` solves only
the blocks whose bound can reach the best root found.

Every row of the chain comes from one count, ``_placements``: the number
of ways some stations land on some empty slots, by occupancy partition.  The
start row places all N stations on the C slots; a collision state's row
combines who stays in each collision slot with how the jumpers land on the
idle slots.  Each collision multiset is one integer code (``_part_places``)
in which merging multisets adds codes, so ``_chain_layout`` finds the next
states of a run of rows by array arithmetic, sums the run's terms with one
``np.bincount`` and so lays out the gamma-free coefficients once per (C, N);
each stay probability then costs one vectorised polynomial evaluation
(``build_chain``).  The closed-form sum over which collision
slots keep some of their occupants (``transition_prob_formula``) is an
independent derivation of the diagonal blocks, kept as the tests' oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, perm

import numpy as np

#: Largest supported number of stations; bounds the state-space enumeration.
MAX_STATIONS = 20


@dataclass(frozen=True)
class CollisionState:
    """Multiset of collision-slot occupancies, stored sorted ascending.

    Every part is at least 2 (slots holding zero or one station are not
    collision slots).  Equality is structural, so states index dicts safely.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a collision state has at least one collision slot")
        if any(p < 2 for p in self.parts):
            raise ValueError("collision-slot occupancies are at least 2")
        if any(a > b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be sorted ascending")

    @property
    def colliding_stations(self) -> int:
        return sum(self.parts)

    @property
    def collision_slots(self) -> int:
        return len(self.parts)

    def idle_slots(self, schedule_len: int, n_stations: int) -> int:
        """Idle slots left in a schedule containing this collision pattern."""
        n_idle = (
            schedule_len - n_stations + self.colliding_stations - self.collision_slots
        )
        if n_idle < 0:
            raise ValueError(
                f"state {self.parts} impossible for C={schedule_len}, N={n_stations}"
            )
        return n_idle

    def __repr__(self) -> str:  # compact in test output
        return f"S{self.parts}"


def collision_states_for(n_colliding: int) -> list[CollisionState]:
    """All collision states with exactly ``n_colliding`` colliding stations."""
    if n_colliding < 2:
        return []
    return [
        CollisionState(p) for p in sorted(_bounded_partitions(n_colliding, n_colliding, 2))
    ]


def _validate_context(state: CollisionState, schedule_len: int, n_stations: int):
    if state.colliding_stations > n_stations:
        raise ValueError(
            f"state {state.parts} has more colliding stations than N={n_stations}"
        )
    if n_stations > schedule_len:
        raise ValueError("analysis requires N <= C")
    state.idle_slots(schedule_len, n_stations)


def _multiset_perms(parts: tuple[int, ...]) -> int:
    """Permutations of the sequence that leave the multiset unchanged."""
    out = 1
    for v in set(parts):
        out *= factorial(parts.count(v))
    return out


def _bounded_partitions(total: int, max_parts: int, smallest: int = 1):
    """Ascending partitions of ``total`` into at most ``max_parts`` parts."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(smallest, total + 1):
        for rest in _bounded_partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _placements(movers: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Occupancy partitions of ``movers`` labelled stations, with their counts.

    Returns tuples ``(lam, station_ways, symmetry)`` for every ascending
    partition ``lam`` of ``movers``, in ``_bounded_partitions`` order:
    ``station_ways`` splits the stations into groups of the sizes in ``lam``,
    and ``symmetry`` counts the orderings of ``lam`` that leave it unchanged.
    On ``n`` empty slots the groups land in
    ``station_ways * perm(n, len(lam)) // symmetry`` ways; a group of one
    station succeeds and drops out.  Each collision multiset comes from
    exactly one partition, since its sum fixes the number of singletons.
    """
    out = []
    for lam in _bounded_partitions(movers, movers):
        station_ways = factorial(movers)
        for c in lam:
            station_ways //= factorial(c)
        out.append((lam, station_ways, _multiset_perms(lam)))
    return tuple(out)


def _part_places(n_stations: int) -> list[int]:
    """Place value of each part size ``0..N`` in a collision multiset's code.

    A multiset's code is the sum of its parts' place values, so merging two
    multisets adds their codes.  Sizes 0 and 1 are not collision slots and
    weigh nothing; size ``p >= 2`` weighs ``prod(N // q + 1 for q in 2..p-1)``.
    No multiset of at most N stations holds more than ``N // q`` parts of
    size ``q``, so the code is a mixed-radix number with one digit per size
    and distinct multisets get distinct codes (below 7.7e8 at N = 20).
    """
    places = [0, 0]
    value = 1
    for p in range(2, n_stations + 1):
        places.append(value)
        value *= n_stations // p + 1
    return places


@lru_cache(maxsize=None)
def _formula_coeffs(
    k_parts: tuple[int, ...], l_parts: tuple[int, ...], n_idle: int
) -> tuple[tuple[int, float], ...]:
    """gamma-free coefficients of the closed-form route.

    The closed form sums over subsets of current collision slots that retain
    occupants and injective assignments of those slots onto target parts;
    grouping terms by the total retained count turns it into the polynomial
    ``sum(coeff * gamma**stay * (1 - gamma)**(movers))``.
    """
    sym = _multiset_perms(l_parts)
    acc: dict[int, float] = {}
    for r in range(len(k_parts) + 1):
        for omega in itertools.combinations(range(len(k_parts)), r):
            for image in itertools.permutations(range(len(l_parts)), r):
                if any(l_parts[t] > k_parts[j] for j, t in zip(omega, image)):
                    continue
                stay_weight = 1
                stay_count = 0
                for j, t in zip(omega, image):
                    stay_weight *= comb(k_parts[j], l_parts[t])
                    stay_count += l_parts[t]
                fresh = [l_parts[t] for t in range(len(l_parts)) if t not in image]
                movers = sum(fresh)
                if movers > 0 and n_idle == 0:
                    continue
                jump_ways = factorial(movers)
                for c in fresh:
                    jump_ways //= factorial(c)
                placement = perm(n_idle, len(fresh))
                coeff = stay_weight * jump_ways * placement / sym
                if movers:
                    coeff /= n_idle**movers
                acc[stay_count] = acc.get(stay_count, 0.0) + coeff
    return tuple(sorted(acc.items()))


def transition_prob_formula(
    from_state: CollisionState,
    to_state: CollisionState,
    schedule_len: int,
    n_stations: int,
    gamma: float,
) -> float:
    """Closed-form transition probability inside a same-size diagonal block.

    Sums over the subsets of current collision slots that retain some of
    their occupants and over the injective assignments of retained slots to
    parts of the target state; the remaining target parts are built by
    jumpers landing on previously idle slots.  Only defined when both states
    have the same number of colliding stations.
    """
    if from_state.colliding_stations != to_state.colliding_stations:
        raise ValueError("states belong to different diagonal blocks")
    _validate_context(from_state, schedule_len, n_stations)
    _validate_context(to_state, schedule_len, n_stations)
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    n_idle = from_state.idle_slots(schedule_len, n_stations)
    n_colliding = from_state.colliding_stations
    total = 0.0
    for stay, coeff in _formula_coeffs(from_state.parts, to_state.parts, n_idle):
        total += coeff * gamma**stay * (1.0 - gamma) ** (n_colliding - stay)
    return total


@dataclass
class ChainModel:
    """Assembled absorbing chain for given (C, N, gamma).

    States are ordered start state first, then collision states grouped by
    decreasing number of colliding stations, then the absorbing state, which
    makes the transient part of the matrix block upper triangular.
    """

    states: tuple[CollisionState, ...]
    pi: np.ndarray
    block_ranges: dict[int, tuple[int, int]]


@dataclass(frozen=True)
class _ChainLayout:
    """gamma-free layout of the chain for one (C, N), in ``ChainModel`` order.

    ``coef[stay, row, col]`` holds the coefficient of
    ``gamma**stay * (1 - gamma)**(colliding[row] - stay)`` in entry
    ``(row, col)``; it is zero wherever ``stay`` exceeds ``colliding[row]``.
    The start and absorbing rows have ``colliding == 0``, so their entries
    sit at ``stay == 0`` unweighted.
    """

    states: tuple[CollisionState, ...]
    block_ranges: dict[int, tuple[int, int]]
    colliding: np.ndarray
    coef: np.ndarray


#: Terms summed per ``np.bincount`` pass of ``_chain_layout``.  A pass takes
#: whole rows up to this count, or one larger row, so its arrays stay small
#: whatever (C, N) is.
_CHUNK_TERMS = 8192


@lru_cache(maxsize=4)
def _chain_layout(schedule_len: int, n_stations: int) -> _ChainLayout:
    """Lay out the transition coefficients once per (C, N); see ``_ChainLayout``.

    A collision row's terms are its stay outcomes in first-seen order, each
    followed by the jump outcomes of its mover count onto its idle slots; a
    term's next state is the sum of the kept and the jump codes, and its
    coefficient the stay ways times the jump probability.  Runs of
    consecutive rows are laid out together, each run capped at
    ``_CHUNK_TERMS`` terms, and one ``np.bincount`` per run sums every
    entry's terms in that order from 0.0; pi depends on that order to the
    last bit.  Callers sweep gamma at a fixed (C, N), so a few entries
    suffice; one entry at C = N = 20 holds a 66 MB coefficient array.
    """
    groups = [
        g for g in (collision_states_for(k) for k in range(n_stations, 1, -1)) if g
    ]
    states: tuple[CollisionState, ...] = tuple(s for g in groups for s in g)
    size = len(states) + 2  # row 0 is the start
    absorb = size - 1
    block_ranges: dict[int, tuple[int, int]] = {}
    offset = 1
    for g in groups:
        block_ranges[g[0].colliding_stations] = (offset, offset + len(g))
        offset += len(g)

    places = _part_places(n_stations)
    # next-state columns by code: the absorbing state is the empty multiset
    state_codes = np.array([sum(places[p] for p in s.parts) for s in states] + [0])
    order = np.argsort(state_codes)
    sorted_codes = state_codes[order]

    def columns(next_codes):
        return order[np.searchsorted(sorted_codes, next_codes)] + 1

    lam_codes = [[sum(places[p] for p in lam) for lam, _, _ in _placements(movers)]
                 for movers in range(n_stations + 1)]

    def landings(movers: int, n_slots: int) -> tuple[list[int], list[int]]:
        """Codes and exact counts of the ways ``movers`` stations land on
        ``n_slots`` empty slots."""
        fits = [(code, ways * perm(n_slots, len(lam)) // sym)
                for code, (lam, ways, sym) in zip(lam_codes[movers], _placements(movers))
                if len(lam) <= n_slots]
        return [code for code, _ in fits], [ways for _, ways in fits]

    radix = n_stations + 1

    @lru_cache(maxsize=None)
    def stays(parts: tuple[int, ...]) -> dict[int, int]:
        """Who stays in each collision slot, as ``{kept code * radix + stay
        count: ways}`` in first-seen order; parts are ascending, so the
        outcomes of ``parts`` extend those of its prefix."""
        if not parts:
            return {0: 1}
        occupancy = parts[-1]
        steps = [(places[here] * radix + here, comb(occupancy, here))
                 for here in range(occupancy + 1)]
        out: dict[int, int] = {}
        for key, w in stays(parts[:-1]).items():
            for step, ways in steps:
                out[key + step] = out.get(key + step, 0) + w * ways
        return out

    colliding = np.array([0] + [s.colliding_stations for s in states] + [0], dtype=np.int64)
    coef = np.zeros((n_stations + 1, size, size))
    # the start row: every station picks one of the C empty slots uniformly;
    # an exact count over the integer C**N rounds once
    start_codes, start_ways = landings(n_stations, schedule_len)
    starts = schedule_len**n_stations
    coef[0, 0, columns(start_codes)] = [ways / starts for ways in start_ways]
    coef[0, absorb, absorb] = 1.0

    idle = np.array([s.idle_slots(schedule_len, n_stations) for s in states], dtype=np.int64)
    # one jump table: the outcomes of m movers onto i idle slots take
    # jump_count[i, m] places from jump_start[i, m], for every idle count of
    # a row and up to that count's most colliding row
    most: dict[int, int] = {}
    for state, n_idle in zip(states, idle.tolist()):
        most.setdefault(n_idle, state.colliding_stations)  # rows run from most colliding
    jump_codes: list[int] = []
    jump_probs: list[float] = []
    jump_start = np.zeros((idle.max(initial=0) + 1, n_stations + 1), dtype=np.int64)
    jump_count = np.zeros_like(jump_start)
    for n_idle, top in sorted(most.items()):
        for movers in range(top + 1):
            m_codes, m_ways = landings(movers, n_idle)
            denom = float(n_idle) ** movers
            jump_start[n_idle, movers] = len(jump_codes)
            jump_count[n_idle, movers] = len(m_codes)
            jump_codes += m_codes
            jump_probs += [ways / denom for ways in m_ways]
    table_codes = np.array(jump_codes, dtype=np.int64)
    table_probs = np.array(jump_probs)
    del jump_codes, jump_probs  # freed before the runs touch coef's pages

    def lay_out(lo: int, hi: int) -> None:
        """Sum the terms of rows ``lo..hi-1`` into ``coef`` with one bincount."""
        keys, ways, per_row = [], [], []
        for state in states[lo - 1 : hi - 1]:
            outcomes = stays(state.parts)
            per_row.append(len(outcomes))
            keys += outcomes
            ways += outcomes.values()
        kept, stay = np.divmod(np.array(keys, dtype=np.int64), radix)
        row = np.repeat(np.arange(lo, hi), per_row)
        jump = (np.repeat(idle[lo - 1 : hi - 1], per_row), colliding[row] - stay)
        # stay outcome i owns reps[i] consecutive terms, which read the jump
        # outcomes of its idle and mover counts in table order
        reps = jump_count[jump]
        outcome = np.repeat(np.arange(len(reps)), reps)
        # a term's place in the run, less its outcome's first term's, plus
        # where that outcome's jumps start in the table
        pick = np.arange(len(outcome)) + (jump_start[jump] - np.cumsum(reps) + reps)[outcome]
        nxt = columns(kept[outcome] + table_codes[pick])
        terms = np.array(ways, dtype=float)[outcome] * table_probs[pick]
        # the rows stay at most top stations and reach no column left of the
        # first row's block
        top = colliding[lo]
        left = block_ranges[top][0]
        rows, width = hi - lo, size - left
        cells = (stay * rows + row - lo)[outcome] * width + nxt - left
        sums = np.bincount(cells, terms, minlength=(top + 1) * rows * width)
        coef[: top + 1, lo:hi, left:] = sums.reshape(top + 1, rows, width)

    counts = jump_count.tolist()
    lo, held = 1, 0
    for row, (state, n_idle) in enumerate(zip(states, idle.tolist()), start=1):
        row_counts = counts[n_idle]
        k = state.colliding_stations
        n_terms = sum(row_counts[k - key % radix] for key in stays(state.parts))
        if held and held + n_terms > _CHUNK_TERMS:
            lay_out(lo, row)
            lo, held = row, 0
        held += n_terms
    if states:
        lay_out(lo, absorb)
    colliding.setflags(write=False)
    coef.setflags(write=False)  # shared by every later build of this (C, N)
    return _ChainLayout(states, block_ranges, colliding, coef)


def build_chain(schedule_len: int, n_stations: int, gamma: float) -> ChainModel:
    """Assemble the full transition matrix.

    Every entry, diagonal blocks included, is the polynomial in ``gamma``
    whose coefficients come from the exact outcome enumeration, laid out
    once per (C, N) by ``_chain_layout``.  Rows failing to sum to one within
    1e-12 raise.  The closed form (``transition_prob_formula``) is not used
    here; it is the tests' independent oracle for the diagonal blocks.  A
    cold build at C = N = 20 takes about 0.3 s with a peak of about 105 MB
    on a 2-CPU x86-64 machine; later builds with the same (C, N) cost
    milliseconds.
    """
    if n_stations > MAX_STATIONS:
        raise ValueError(f"state space too large beyond N={MAX_STATIONS}")
    if n_stations < 1:
        raise ValueError("need at least one station")
    if n_stations > schedule_len:
        raise ValueError("analysis requires N <= C")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")

    layout = _chain_layout(schedule_len, n_stations)
    stays = np.arange(n_stations + 1)[:, None]
    # the clip only touches weights whose coefficients are zero
    weights = gamma**stays * (1.0 - gamma) ** np.maximum(layout.colliding - stays, 0)
    pi = np.einsum("sr,src->rc", weights, layout.coef)

    sums = pi.sum(axis=1)
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > 1e-12:
        raise AssertionError(f"transition rows deviate from 1 by {worst:.3e}")
    return ChainModel(
        states=layout.states,
        pi=pi,
        block_ranges=dict(layout.block_ranges),
    )


def _dominant_eigenvalue(block: np.ndarray) -> float:
    """Largest eigenvalue modulus of a block, from LAPACK's dense solver.

    The blocks are nonnegative, so this is their Perron root.
    """
    return float(np.max(np.abs(np.linalg.eigvals(block))))


#: Relative widening of a block's largest row sum before it is compared with a
#: root found by ``_dominant_eigenvalue``.  It lies far above the rounding of
#: a row sum and of LAPACK's roots (no tested block's root exceeded its largest
#: row sum), and far below the gap from the best root to the next block's
#: bound (5 % or more on the tested grids), so a skipped block's root is below
#: the best one.
_BOUND_MARGIN = 1e-6


def second_eigenvalue(chain: ChainModel) -> tuple[float, int]:
    """Subdominant eigenvalue of the chain and the block size attaining it.

    The block-triangular structure factors the characteristic polynomial, so
    the subdominant eigenvalue is the maximum of the diagonal blocks'
    dominant eigenvalues.  A nonnegative block's dominant eigenvalue is at
    most its largest row sum (Perron-Frobenius), so blocks are visited by
    decreasing row-sum bound, widened by ``_BOUND_MARGIN``, and the visit
    stops at the first bound below the best root found.  Of the largest
    roots the first block in ``block_ranges`` order wins, as in a visit of
    every block; a single station has no block and gives ``(0.0, 0)``.
    """
    bounds = {
        k: float(chain.pi[lo:hi, lo:hi].sum(axis=1).max()) * (1.0 + _BOUND_MARGIN)
        for k, (lo, hi) in chain.block_ranges.items()
    }
    roots: dict[int, float] = {}
    for k in sorted(bounds, key=bounds.__getitem__, reverse=True):
        if roots and bounds[k] < max(roots.values()):
            break
        lo, hi = chain.block_ranges[k]
        roots[k] = _dominant_eigenvalue(chain.pi[lo:hi, lo:hi])
    best = 0.0
    best_k = 0
    for k in chain.block_ranges:
        if roots.get(k, 0.0) > best:
            best, best_k = roots[k], k
    return best, best_k


def lambda_star_closed(schedule_len: int, n_stations: int, gamma: float) -> float:
    """Closed form of the subdominant eigenvalue, exact when the two-station
    block dominates: it is within 1e-9 of ``second_eigenvalue`` at every
    2 <= N <= C <= 20 and gamma = 0.02, 0.04, ..., 0.98.

    A single station has no collision state, so its chain has no two-station
    block and no subdominant eigenvalue; like ``second_eigenvalue`` this
    gives 0.0 there.
    """
    if n_stations > schedule_len:
        raise ValueError("analysis requires N <= C")
    if n_stations == 1:
        return 0.0
    return gamma**2 + (1.0 - gamma) ** 2 / (schedule_len - n_stations + 1)


def mean_convergence(chain: ChainModel) -> float:
    """Expected schedules played through the first collision-free one.

    Standard absorbing-chain count of expected transient visits starting
    from the uniform start state; the very first schedule counts as one, so
    a single station, which collides with nobody, yields 1.
    """
    t = 1 + len(chain.states)  # the start state and the collision states
    # I - Q built in place: one (t, t) temporary fewer per call.  From
    # t = 129 such an array passes glibc's default 128 KB mmap threshold, so
    # each one is mapped and page-faulted afresh.
    system = np.eye(t)
    system -= chain.pi[:t, :t]
    visits = np.linalg.solve(system, np.ones(t))
    return float(visits[0])
