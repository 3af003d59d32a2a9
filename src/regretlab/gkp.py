"""Generalized knapsack: objective, convex excess function, oracles.

An item set A earns the profits of its items and pays a linear penalty
c * max(0, total weight - capacity) per revealed round. Summed over
rounds the penalty collapses to c * k(W) where

    k(W) = sum_t max(0, W - B^t)

is piecewise linear and convex in the set's total weight W, evaluable in
O(log m) from the sorted capacities. Oracles: exhaustive subset search
(ground truth), a caching variant of it for a growing history, a
pseudo-polynomial profit-indexed DP, and the profit-scaling FPTAS built
on it. Every reader takes a round stream through instances.stack_rounds,
which hands a GkpRounds block over as it is, and the oracles read the
history only through _summed, its summed profits p_s and excess
function k; the two DPs share one grid guard and pick (_dp_set), and the
FPTAS and fptas_grid_info one grid (_fptas_grid). fold_sweep keeps the
per-set aggregates P[mask] and K[mask] of a whole horizon's prefixes, on
row blocks of the (rounds x 2^n) fold: every round's exact leader of the
prefix plus a fixed tail (the FTPL engine's leader) and every prefix's
hindsight benchmark (prefix_best_values). The caching oracle folds a
growing history into the same aggregates one round at a time, with the
same floats. One tie rule serves them all: the first
maximum in _lex_order, of which leader_set is the one-row case. The
DP keeps only the reachable profit levels (at most 2^n), so its cost
follows the distinct subset profits, not the width of the profit grid;
the grid size still bounds which instances are accepted. It holds each
level's set as packed uint64 mask words (one word per 64 items), so an
offer's set is one OR, and hands its pick on as an int mask. The FPTAS
scores the DP's set at true profit against the empty set and every
singleton, the singletons as one vector.
The distinguisher set is the n-round instance family whose induced
payoff matrix tells every pair of item sets apart — the perturbation
machinery of the FTPL engine.
"""

from __future__ import annotations

from functools import lru_cache
from math import floor, inf, ulp

import numpy as np

from .instances import GkpRound, GkpRounds, GkpStatic, check_round_length, stack_rounds
from .traces import checked_mask, checked_real, mask_members

ItemSet = frozenset

MAX_BRUTE_N = 20
MAX_DP_CELLS = 20_000_000
# fold_sweep computes this many cells of the (rounds x 2^n) fold at a time
_BLOCK_CELLS = 4096


class ExcessFunction:
    """k(W) = sum_t max(0, W - B^t) in evaluable form, built from the
    capacities B^t.

    sorted_caps holds the capacities in ascending order and prefix_sums[j]
    the sum of the j smallest, so with j = #{capacities < W} the value is
    j*W - prefix_sums[j].
    """

    __slots__ = ("sorted_caps", "prefix_sums")

    def __init__(self, caps) -> None:
        self.sorted_caps = np.sort(np.asarray(caps, dtype=np.float64))
        self.prefix_sums = np.concatenate(([0.0], np.cumsum(self.sorted_caps)))
        self.sorted_caps.flags.writeable = False
        self.prefix_sums.flags.writeable = False

    def value(self, W: float) -> float:
        j = int(np.searchsorted(self.sorted_caps, W, side="left"))
        return float(j * W - self.prefix_sums[j])

    def value_many(self, W: np.ndarray) -> np.ndarray:
        j = np.searchsorted(self.sorted_caps, W, side="left")
        return j * W - self.prefix_sums[j]


def excess_value(W: float, f: ExcessFunction) -> float:
    """k(W) by binary search over the sorted capacities."""
    return f.value(checked_real(W, "total weight W", 0.0))


def gkp_profit(A, static: GkpStatic, rnd: GkpRound) -> float:
    """Single-round objective: item profits minus c * capacity excess."""
    check_round_length(static.n, rnd)
    members = mask_members(checked_mask(A, static.n, "an item set"))
    if not members:
        return 0.0
    p_sum = float(rnd.p[members].sum())
    w_sum = float(static.w[members].sum())
    return p_sum - static.c * max(0.0, w_sum - rnd.B)


def multi_gkp_profit(A, static: GkpStatic, rounds) -> float:
    """Summed objective via aggregates: A's summed profits minus c*k(W_A).

    Equals the round-by-round sum of gkp_profit by the piecewise-linear
    collapse of the penalty.
    """
    return _aggregate_profit(A, static, _summed(static, rounds))


def _summed(static: GkpStatic, rounds) -> tuple[np.ndarray, ExcessFunction] | None:
    """The history summary every oracle reads: the rounds' summed profit
    vector p_s and their excess function k, or None for no rounds."""
    rounds = stack_rounds(static.n, rounds)
    return (rounds.rows.sum(axis=0), ExcessFunction(rounds.B)) if len(rounds) else None


def _aggregate_profit(A, static: GkpStatic, summed) -> float:
    """multi_gkp_profit from the history summary (p_s, f) of _summed."""
    members = mask_members(checked_mask(A, static.n, "an item set"))
    if not members or summed is None:
        return 0.0
    p_s, f = summed
    W = float(static.w[members].sum())
    return float(p_s[members].sum()) - static.c * f.value(W)


def _subset_sums(v: np.ndarray) -> np.ndarray:
    """arr[..., mask] = sum of v[..., :] over the bits of mask, for all 2^n
    masks; a 2-D v gives one row of subset sums per row of v."""
    n = v.shape[-1]
    arr = np.zeros(v.shape[:-1] + (1 << n,))
    for i in range(n):
        arr[..., 1 << i : 1 << (i + 1)] = arr[..., : 1 << i] + v[..., i, None]
    return arr


@lru_cache(maxsize=MAX_BRUTE_N + 1)
def _lex_order(n: int) -> np.ndarray:
    """All 2^n masks sorted as their sorted index tuples, the empty set
    first: sorted(range(2**n), key=mask_members), built in O(2^n).

    The sets of items i..n-1 in that order are the empty set, then those
    holding i (i joined to each set of items i+1..n-1, in their order),
    then the nonempty ones without i.
    """
    order = np.zeros(1, dtype=np.intp)
    for i in range(n - 1, -1, -1):
        order = np.concatenate(([0], order | (1 << i), order[1:]))
    order.flags.writeable = False
    return order


def _row_leaders(values: np.ndarray) -> list[tuple[int, float]]:
    """The leader of each row of values (rows x 2^n) as (mask, maximum):
    the first maximum with the columns taken in _lex_order, the empty set
    giving (0, 0.0)."""
    order = _lex_order(values.shape[1].bit_length() - 1)
    masks = order[values[:, order].argmax(axis=1)]
    tops = values[np.arange(values.shape[0]), masks].tolist()
    return [(mask, top) if mask else (0, 0.0) for mask, top in zip(masks.tolist(), tops)]


def leader_set(values: np.ndarray) -> tuple[frozenset, float]:
    """The set maximizing values[mask], and the maximum.

    Ties go to the lexicographically smallest set (compared as sorted index
    tuples, so the empty set precedes everything), whose value is then 0.
    It is one row of the rule fold_sweep applies to every round.
    """
    mask, top = _row_leaders(values[None, :])[0]
    return frozenset(mask_members(mask)), top


def brute_oracle(static: GkpStatic, rounds) -> tuple[frozenset, float]:
    """Exact maximizer over all 2^n item sets.

    Ties on value go to the lexicographically smallest set (compared as
    sorted index tuples, so the empty set precedes everything).
    """
    n = static.n
    if n > MAX_BRUTE_N:
        raise ValueError(f"n={n} exceeds enumeration guard {MAX_BRUTE_N}")
    summed = _summed(static, rounds)
    if summed is None:
        return frozenset(), 0.0
    p_s, f = summed
    W_all = _subset_sums(static.w)
    P_all = _subset_sums(p_s)
    best, _ = leader_set(P_all - static.c * f.value_many(W_all))
    return best, _aggregate_profit(best, static, summed)


def fold_sweep(
    static: GkpStatic, rounds, tail=None
) -> tuple[list[tuple[int, float]] | None, list[float]]:
    """Every round's exact leader and hindsight benchmark, in one pass.

    Returns (leaders, bests) of the round streams ``rounds`` and ``tail``:
    leaders[t-1] is leader_set of the fold of rounds 1..t-1 plus the
    ``tail`` rounds, with the set as its int bitmask (bit i for item i),
    bests[t-1] the best set's value on the fold of rounds 1..t.
    ``tail=None`` skips the leaders (returns None).

    The fold holds each set's summed profit P[mask] and capacity excess
    K[mask]: a round adds its profits' subset sums dP and
    dK = max(0, W_all - B), W_all[mask] being the set's weight. The
    (rounds x 2^n) fold is computed in blocks of about _BLOCK_CELLS cells
    (64 rounds at n = 6, one round from n = 12 up), carrying P and K, with
    the floats of folding round by round (``P += dP``), the tail's
    increments added one round at a time in slot order.
    """
    n = static.n
    if n > MAX_BRUTE_N:
        raise ValueError(f"n={n} exceeds enumeration guard {MAX_BRUTE_N}")
    rounds = stack_rounds(n, rounds)
    W_all = _subset_sums(static.w)
    P = K = np.zeros(W_all.shape[0])  # the fold of the rounds before the block
    leaders = None if tail is None else []
    if tail is not None:  # the tail rounds' (dP, dK) increments, in slot order
        tail = stack_rounds(n, tail)
        tail = list(zip(_subset_sums(tail.rows), np.maximum(0.0, W_all - tail.B[:, None])))
    bests: list[float] = []
    step = max(1, _BLOCK_CELLS >> n)
    for lo in range(0, len(rounds), step):
        dP = _subset_sums(rounds.rows[lo : lo + step])
        dK = np.maximum(0.0, W_all - rounds.B[lo : lo + step, None])
        # row 0 is the carried fold, row j the fold through block round j
        FP = np.add.accumulate(np.vstack((P, dP)), axis=0)
        FK = np.add.accumulate(np.vstack((K, dK)), axis=0)
        if tail is not None:
            LP, LK = FP[:-1].copy(), FK[:-1].copy()
            for tP, tK in tail:
                LP += tP
                LK += tK
            leaders.extend(_row_leaders(LP - static.c * LK))
        bests.extend((FP[1:] - static.c * FK[1:]).max(axis=1).tolist())
        P, K = FP[-1], FK[-1]
    return leaders, bests


def prefix_best_values(static: GkpStatic, rounds) -> list[float]:
    """values[t-1] = best summed objective any fixed set earns on rounds[:t].

    The bests of fold_sweep: one pass over per-set profit and excess
    aggregates, so T prefixes cost O(T * 2^n) instead of T independent
    enumerations. The maxima agree with brute_oracle up to float summation
    order.
    """
    return fold_sweep(static, rounds)[1]


class CachingBruteOracle:
    """brute_oracle for callers that grow one history and re-query it
    through the (static, rounds) oracle contract.

    It is not the harness default: the harness runs gftpl_run with
    ``oracle=None``, whose exact leader comes from fold_sweep and picks the
    sets this oracle would, with the same values. This class
    serves callers that hand over whole round lists, consecutive queries
    sharing all but a few rounds. It keeps fold_sweep's per-set aggregates
    P and K of the longest stable prefix of the query and folds only the
    changing tail, making each query O(2^n) plus one list comparison.

    The cached prefix is matched by a single list comparison against the
    query's leading rounds. It short-cuts on object identity and otherwise
    compares GkpRound values, and a value-equal round has the same
    aggregates, so a rebuilt copy of the history keeps the cache. Rounds
    that reappear in the same tail slots as the previous query (matched by
    identity) — the perturbation block — are kept out of the persistent
    prefix and re-added per call. Their per-set deltas are cached per tail
    slot and reused only while the slot holds the very same round object;
    they are added in slot order, as a fresh fold would.

    Set choice follows brute_oracle's tie rule exactly. The reported value
    can differ from multi_gkp_profit in the last float bits because the
    aggregates are summed in arrival order. The cache is keyed on the
    static object's identity; a new static object resets it.
    """

    def __init__(self) -> None:
        self._static: GkpStatic | None = None
        # every set's total weight, and the prefix's summed profits and excesses
        self._W_all = self._P = self._K = None
        self._prefix: list[GkpRound] = []
        self._last: list[GkpRound] = []
        # tail slot, counted from the end of the query -> (round, dP, dK)
        self._tail: dict[int, tuple[GkpRound, np.ndarray, np.ndarray]] = {}

    def _bind(self, static: GkpStatic) -> None:
        if static.n > MAX_BRUTE_N:
            raise ValueError(f"n={static.n} exceeds enumeration guard {MAX_BRUTE_N}")
        self._static = static
        self._W_all = _subset_sums(static.w)
        self._last = []
        self._tail = {}
        self._drop_prefix()

    def _drop_prefix(self) -> None:
        # keeps _last: the previous query still tells us which tail slots
        # are transient, so the refold can leave them out of the prefix
        self._P = np.zeros(self._W_all.shape[0])
        self._K = np.zeros(self._W_all.shape[0])
        self._prefix = []

    def _delta(self, r: GkpRound) -> tuple[np.ndarray, np.ndarray]:
        """The per-set (profit, excess) increments of one round."""
        check_round_length(self._static.n, r)
        return _subset_sums(r.p), np.maximum(0.0, self._W_all - r.B)

    def __call__(self, static: GkpStatic, rounds) -> tuple[frozenset, float]:
        rounds = list(rounds)
        if not rounds:
            self._last = []
            return frozenset(), 0.0
        if static is not self._static:
            self._bind(static)
        elif len(self._prefix) > len(rounds) or rounds[: len(self._prefix)] != self._prefix:
            self._drop_prefix()  # the history was rewritten; refold
        k = len(self._prefix)
        s = 0  # tail slots repeating the previous query verbatim
        while (
            s < len(rounds) - k
            and s < len(self._last)
            and rounds[-1 - s] is self._last[-1 - s]
        ):
            s += 1
        for r in rounds[k : len(rounds) - s]:
            dP, dK = self._delta(r)
            self._P += dP
            self._K += dK
            self._prefix.append(r)
        self._last = rounds
        m = len(rounds)
        P, K = self._P, self._K
        for j in range(m - s, m):  # the repeated tail, added in slot order
            r, cached = rounds[j], self._tail.get(m - 1 - j)
            if cached is None or cached[0] is not r:
                cached = self._tail[m - 1 - j] = (r, *self._delta(r))
            P = P + cached[1]
            K = K + cached[2]
        return leader_set(P - static.c * K)


@lru_cache(maxsize=64)
def _item_bits(n: int) -> np.ndarray:
    """Row i holds item i's bit in the packed mask words of _min_weight_dp:
    bit i % 64 of word i // 64 (one word for n <= 64)."""
    bits = np.zeros((n, max(1, (n + 63) >> 6)), dtype=np.uint64)
    items = np.arange(n)
    bits[items, items >> 6] = np.left_shift(np.uint64(1), (items & 63).astype(np.uint64))
    bits.flags.writeable = False
    return bits


def _min_weight_dp(q: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0/1 DP over integer profit levels: least total weight per reachable level.

    Returns (levels, min_weight, words): the reachable profit levels in
    ascending order (level 0, the empty set, always among them), the least
    total weight attaining each, and words[k], the packed item mask of one
    least-weight set attaining levels[k]: a row of uint64 words, item i
    being bit i % 64 of word i // 64 (one word for n <= 64). Only
    reachable levels are kept, at most min(q.sum() + 1, 2^n) of them, so
    the work follows the distinct subset profits rather than the size of
    the profit grid.

    Items are folded in index order. Item i offers level l + q_i at the
    pre-item weight of level l plus w_i, its set being level l's words
    OR'd with item i's bit. One stable sort of the held and offered levels
    merges them, a held level coming before an offer of the same level;
    that offer replaces the held set only when strictly lighter, so on a
    tie the established solution is kept (deterministic, item order
    fixed), and is dropped otherwise. The sort order, so amended, then
    gathers the weights and words once.
    """
    bits = _item_bits(q.shape[0])
    levels = np.zeros(1, dtype=np.int64)
    weight = np.zeros(1)
    words = np.zeros((1, bits.shape[1]), dtype=np.uint64)
    for i in range(q.shape[0]):
        qi = int(q[i])
        if qi == 0:
            # zero-profit items never help: they only add weight
            continue
        levels = np.concatenate((levels, levels + qi))
        weight = np.concatenate((weight, weight + w[i]))
        order = levels.argsort(kind="stable")
        levels = levels[order]
        held = (levels[1:] == levels[:-1]).nonzero()[0]  # each followed by its offer
        if held.shape[0]:
            better = held[weight[order[held + 1]] < weight[order[held]]]
            order[better] = order[better + 1]
            keep = np.ones(levels.shape[0], dtype=bool)
            keep[held + 1] = False
            levels, order = levels[keep], order[keep]
        weight = weight[order]
        words = np.concatenate((words, words | bits[i]))[order]
    return levels, weight, words


def _dp_set(q: list[int], unit: float, static: GkpStatic, f: ExcessFunction) -> int:
    """The DP's set on the integer item levels q, as an int mask: of the
    reachable levels, the least-weight set maximizing
    level*unit - c*k(weight), the smallest level on ties. MAX_DP_CELLS
    caps the dense grid, in Python ints."""
    cells = (sum(q) + 1) * max(static.n, 1)
    if cells > MAX_DP_CELLS:
        raise ValueError(f"grid overflow: {cells} DP cells exceed cap {MAX_DP_CELLS}")
    levels, weight, words = _min_weight_dp(np.array(q, dtype=np.int64), static.w)
    values = levels * unit - static.c * f.value_many(weight)
    best = words[int(np.argmax(values))].tolist()  # first (smallest level) on ties
    return sum(word << (64 * j) for j, word in enumerate(best))


def exact_dp_oracle(
    static: GkpStatic, rounds, profit_grid: float
) -> tuple[frozenset, float]:
    """Pseudo-polynomial exact oracle for profit-grid-integral instances.

    Requires every item's summed profit to be an integer multiple of
    ``profit_grid``. Finds the least weight of every reachable
    scaled-profit level and maximizes level*profit_grid - c*k(min_weight)
    over those levels, the smallest level winning ties.
    """
    profit_grid = checked_real(profit_grid, "profit_grid", 0.0, open_low=True)
    summed = _summed(static, rounds)
    if summed is None:
        return frozenset(), 0.0
    p_s, f = summed
    if not float(p_s.max(initial=0.0)) / profit_grid < inf:
        raise ValueError(f"grid overflow: profit_grid={profit_grid!r} is too fine")
    scaled = p_s / profit_grid
    q = np.rint(scaled)
    if np.abs(scaled - q).max(initial=0.0) > 1e-9:
        raise ValueError("scaled summed profits must be integers on the grid")
    best = mask_members(_dp_set([int(x) for x in q], profit_grid, static, f))
    return frozenset(best), _aggregate_profit(best, static, summed)


def _fptas_grid(static: GkpStatic, rounds, eps: float) -> tuple:
    """The history summary of _summed and the FPTAS profit grid (q, K): each
    item's summed profit floored onto the unit K = eps * P_max / n, as Python
    ints, and K; the grid is None when no summed profit is positive. A unit
    that underflows to 0 (P_max subnormal) is raised to the least positive
    float, of which every float is a whole multiple, so that grid is exact."""
    eps = checked_real(eps, "eps", 0.0, open_low=True)
    summed = _summed(static, rounds)
    p_max = float(summed[0].max(initial=0.0)) if summed else 0.0
    if p_max <= 0:
        return summed, None
    K = eps * p_max / static.n or ulp(0.0)
    if p_max / K == inf:
        raise ValueError(f"grid overflow: eps={eps!r} makes the unit K={K!r} too fine")
    return summed, (list(map(floor, (summed[0] / K).tolist())), K)


def fptas_grid_info(static: GkpStatic, rounds, eps: float) -> dict:
    """Grid geometry the FPTAS would use: unit K, level count, DP cells.

    ``dp_cells`` is levels * n, the size of the dense profit grid that the
    MAX_DP_CELLS guard caps. It is not the work done: the DP only visits
    the reachable levels, at most min(levels, 2^n) of them.
    """
    _, grid = _fptas_grid(static, rounds, eps)
    if grid is None:
        return {"K": 0.0, "levels": 0, "dp_cells": 0}
    levels = sum(grid[0]) + 1
    return {"K": grid[1], "levels": levels, "dp_cells": levels * static.n}


def _singleton_values(static: GkpStatic, summed) -> np.ndarray:
    """Every singleton's summed objective, _aggregate_profit({i}, ...) bit
    for bit, as one vector: p_s - c * k(w), element by element."""
    p_s, f = summed
    return p_s - static.c * f.value_many(static.w)


def fptas_oracle(static: GkpStatic, rounds, eps: float) -> tuple[frozenset, float]:
    """(1-eps)-approximate oracle by the profit-scaling DP.

    Profits are floored onto the grid K = eps * P_max / n and the exact
    DP runs on the scaled integers, keeping only the reachable levels; the
    proxy level*K - c*k(W) is maximized over those, the smallest level
    winning ties. The DP's answer then competes, at true profit, with
    every singleton and the empty set, so the returned value is never
    negative and penalty-dominated instances keep the guarantee on the
    tested regime. The singletons' values come as one vector
    (_singleton_values), of which the first maximum enters the race; the
    highest value wins and exact ties go to the lexicographically smallest
    set (the empty set first), returned with its own value. The
    grid-overflow guard still caps the dense grid size (see
    fptas_grid_info), so the instances accepted are unchanged.
    """
    summed, grid = _fptas_grid(static, rounds, eps)
    if grid is None:
        return frozenset(), 0.0
    dp_set = mask_members(_dp_set(*grid, static, summed[1]))
    singles = _singleton_values(static, summed)
    i = int(np.argmax(singles))
    candidates = [
        (0.0, ()),
        (_aggregate_profit(dp_set, static, summed), tuple(dp_set)),
        (float(singles[i]), (i,)),
    ]
    value, best = min(candidates, key=lambda vA: (-vA[0], vA[1]))
    return frozenset(best), value


def distinguisher_set(static: GkpStatic, P: float = 1.0) -> GkpRounds:
    """The n marker rounds: round j pays P for holding item j and nothing
    else, with capacity equal to the full item weight so the penalty can
    never bind. The induced payoff matrix has all-distinct rows, at most
    two values per column, and per-column gap exactly P.
    """
    P = checked_real(P, "marker profit P", 0.0, open_low=True)
    return GkpRounds(static.n, P * np.eye(static.n), np.full(static.n, static.total_weight))
