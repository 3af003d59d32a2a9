"""Generalized knapsack: objective, convex excess function, oracles.

An item set A earns the profits of its items and pays a linear penalty
c * max(0, total weight - capacity) per revealed round. Summed over
rounds the penalty collapses to c * k(W) where

    k(W) = sum_t max(0, W - B^t)

is piecewise linear and convex in the set's total weight W, evaluable in
O(log m) from the sorted capacities. Oracles: exhaustive subset search
(ground truth), a caching variant of it for a growing history, a
pseudo-polynomial profit-indexed DP, and the profit-scaling FPTAS built
on it. The DP keeps only the reachable profit levels (at most 2^n), so
its cost follows the distinct subset profits, not the width of the
profit grid; the grid size still bounds which instances are accepted.
The distinguisher set is the n-round instance family whose induced
payoff matrix tells every pair of item sets apart — the perturbation
machinery of the FTPL engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from .instances import GkpRound, GkpStatic

ItemSet = frozenset

MAX_BRUTE_N = 20
MAX_DP_CELLS = 20_000_000


@dataclass(frozen=True, eq=False)
class ExcessFunction:
    """k(W) = sum_t max(0, W - B^t) in evaluable form.

    prefix_sums[j] is the sum of the j smallest capacities, so with
    j = #{capacities < W} the value is j*W - prefix_sums[j].
    """

    sorted_caps: np.ndarray
    prefix_sums: np.ndarray

    def __post_init__(self):
        caps = np.asarray(self.sorted_caps, dtype=np.float64)
        pref = np.asarray(self.prefix_sums, dtype=np.float64)
        if caps.ndim != 1 or pref.shape != (caps.shape[0] + 1,):
            raise ValueError("prefix_sums must have one more entry than sorted_caps")
        if caps.size and np.any(np.diff(caps) < 0):
            raise ValueError("capacities must be sorted non-decreasingly")
        expect = np.concatenate(([0.0], np.cumsum(caps)))
        if not np.array_equal(pref, expect):
            raise ValueError("prefix_sums must be the cumulative capacity sums")
        caps.flags.writeable = False
        pref.flags.writeable = False
        object.__setattr__(self, "sorted_caps", caps)
        object.__setattr__(self, "prefix_sums", pref)

    @classmethod
    def from_caps(cls, caps) -> "ExcessFunction":
        caps = np.sort(np.asarray(caps, dtype=np.float64))
        return cls(caps, np.concatenate(([0.0], np.cumsum(caps))))

    @classmethod
    def from_rounds(cls, rounds) -> "ExcessFunction":
        return cls.from_caps([r.B for r in rounds])

    def value(self, W: float) -> float:
        j = int(np.searchsorted(self.sorted_caps, W, side="left"))
        return float(j * W - self.prefix_sums[j])

    def value_many(self, W: np.ndarray) -> np.ndarray:
        j = np.searchsorted(self.sorted_caps, W, side="left")
        return j * W - self.prefix_sums[j]


def excess_value(W: float, f: ExcessFunction) -> float:
    """k(W) by binary search over the sorted capacities."""
    if W < 0:
        raise ValueError("total weight must be nonnegative")
    return f.value(W)


def _check_members(members, n: int) -> list[int]:
    members = sorted(set(members))
    if members and (members[0] < 0 or members[-1] >= n):
        raise ValueError("item index out of range")
    return members


def gkp_profit(A, static: GkpStatic, rnd: GkpRound) -> float:
    """Single-round objective: item profits minus c * capacity excess."""
    if rnd.p.shape != (static.n,):
        raise ValueError("round profit vector length must match item count")
    members = _check_members(A, static.n)
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
    rounds = list(rounds)
    for r in rounds:
        if r.p.shape != (static.n,):
            raise ValueError("round profit vector length must match item count")
    if not rounds:
        _check_members(A, static.n)
        return 0.0
    p_s = np.sum([r.p for r in rounds], axis=0)
    return _aggregate_profit(A, static, p_s, ExcessFunction.from_rounds(rounds))


def _aggregate_profit(A, static: GkpStatic, p_s: np.ndarray, f: ExcessFunction) -> float:
    """multi_gkp_profit from the rounds' summed profits p_s and excess f,
    for oracles that already hold both."""
    members = _check_members(A, static.n)
    if not members:
        return 0.0
    W = float(static.w[members].sum())
    return float(p_s[members].sum()) - static.c * f.value(W)


def _mask_members(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _subset_sums(v: np.ndarray) -> np.ndarray:
    """arr[mask] = sum of v over the bits of mask, for all 2^n masks."""
    n = v.shape[0]
    arr = np.zeros(1 << n)
    for i in range(n):
        arr[1 << i : 1 << (i + 1)] = arr[: 1 << i] + v[i]
    return arr


def brute_oracle(static: GkpStatic, rounds) -> tuple[frozenset, float]:
    """Exact maximizer over all 2^n item sets.

    Ties on value go to the lexicographically smallest set (compared as
    sorted index tuples, so the empty set precedes everything).
    """
    n = static.n
    if n > MAX_BRUTE_N:
        raise ValueError(f"n={n} exceeds enumeration guard {MAX_BRUTE_N}")
    rounds = list(rounds)
    if not rounds:
        return frozenset(), 0.0
    p_s = np.sum([r.p for r in rounds], axis=0)
    if p_s.shape != (static.n,):
        raise ValueError("round profit vector length must match item count")
    f = ExcessFunction.from_rounds(rounds)
    W_all = _subset_sums(static.w)
    P_all = _subset_sums(p_s)
    values = P_all - static.c * f.value_many(W_all)
    vmax = values.max()
    if values[0] == vmax:  # the empty set is the overall lexicographic minimum
        return frozenset(), 0.0
    ties = np.flatnonzero(values == vmax)
    best_mask = min((int(m) for m in ties), key=_mask_members)
    best = frozenset(_mask_members(best_mask))
    return best, _aggregate_profit(best, static, p_s, f)


def prefix_best_values(static: GkpStatic, rounds) -> list[float]:
    """values[t-1] = best summed objective any fixed set earns on rounds[:t].

    One incremental sweep over per-set profit and excess aggregates, so T
    prefixes cost O(T * 2^n) instead of T independent enumerations. The
    maxima agree with brute_oracle up to float summation order.
    """
    n = static.n
    if n > MAX_BRUTE_N:
        raise ValueError(f"n={n} exceeds enumeration guard {MAX_BRUTE_N}")
    W_all = _subset_sums(static.w)
    P = np.zeros(W_all.shape[0])
    K = np.zeros(W_all.shape[0])
    out: list[float] = []
    for r in rounds:
        if r.p.shape != (n,):
            raise ValueError("round profit vector length must match item count")
        P += _subset_sums(r.p)
        K += np.maximum(0.0, W_all - r.B)
        out.append(float((P - static.c * K).max()))
    return out


class CachingBruteOracle:
    """brute_oracle for callers that grow one history and re-query it.

    The FTPL engine asks for a maximizer of history-plus-perturbation every
    round, so consecutive queries share all but a few rounds. This oracle
    keeps per-set aggregates for the longest stable prefix of the query
    and folds only the changing tail, making each query O(2^n) plus one
    list comparison.

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
        self._W_all: np.ndarray | None = None
        self._P: np.ndarray | None = None
        self._K: np.ndarray | None = None
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
        if r.p.shape != (self._static.n,):
            raise ValueError("round profit vector length must match item count")
        return _subset_sums(r.p), np.maximum(0.0, self._W_all - r.B)

    def _tail_delta(self, slot: int, r: GkpRound) -> tuple[np.ndarray, np.ndarray]:
        cached = self._tail.get(slot)
        if cached is not None and cached[0] is r:
            return cached[1], cached[2]
        dP, dK = self._delta(r)
        self._tail[slot] = (r, dP, dK)
        return dP, dK

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
        P, K = self._P, self._K
        for j in range(len(rounds) - s, len(rounds)):
            dP, dK = self._tail_delta(len(rounds) - 1 - j, rounds[j])
            P = P + dP
            K = K + dK
        values = P - static.c * K
        vmax = values.max()
        if values[0] == vmax:  # the empty set is the overall lexicographic minimum
            return frozenset(), 0.0
        ties = np.flatnonzero(values == vmax)
        best_mask = min((int(m) for m in ties), key=_mask_members)
        return frozenset(_mask_members(best_mask)), float(vmax)


def _min_weight_dp(q: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0/1 DP over integer profit levels: least total weight per reachable level.

    Returns (levels, min_weight, chosen): the reachable profit levels in
    ascending order (level 0, the empty set, always among them), the least
    total weight attaining each, and chosen[k], the item-indicator row of
    one least-weight set attaining levels[k]. Only reachable levels are
    kept, at most min(q.sum() + 1, 2^n) of them, so the work follows the
    distinct subset profits rather than the size of the profit grid.

    Items are folded in index order. Item i offers level l + q_i at the
    pre-item weight of level l plus w_i, and replaces the set held there
    only when strictly lighter: on a tie the established solution is kept
    (deterministic, item order fixed).
    """
    n = q.shape[0]
    levels = np.zeros(1, dtype=np.int64)
    weight = np.zeros(1)
    chosen = np.zeros((1, n), dtype=bool)
    for i in range(n):
        qi = int(q[i])
        if qi == 0:
            # zero-profit items never help: they only add weight
            continue
        cand_l = levels + qi
        cand_w = weight + w[i]
        cand_c = chosen.copy()
        cand_c[:, i] = True
        pos = np.searchsorted(levels, cand_l)
        hit = levels[np.minimum(pos, levels.shape[0] - 1)] == cand_l
        better = hit.copy()
        better[hit] = cand_w[hit] < weight[pos[hit]]
        weight[pos[better]] = cand_w[better]
        chosen[pos[better]] = cand_c[better]
        new = ~hit
        if new.any():
            levels = np.concatenate((levels, cand_l[new]))
            order = np.argsort(levels, kind="stable")
            levels = levels[order]
            weight = np.concatenate((weight, cand_w[new]))[order]
            chosen = np.concatenate((chosen, cand_c[new]))[order]
    return levels, weight, chosen


def exact_dp_oracle(
    static: GkpStatic, rounds, profit_grid: float
) -> tuple[frozenset, float]:
    """Pseudo-polynomial exact oracle for profit-grid-integral instances.

    Requires every item's summed profit to be an integer multiple of
    ``profit_grid``. Finds the least weight of every reachable
    scaled-profit level and maximizes level*profit_grid - c*k(min_weight)
    over those levels, the smallest level winning ties.
    """
    if profit_grid <= 0:
        raise ValueError("profit_grid must be positive")
    n = static.n
    rounds = list(rounds)
    if not rounds:
        return frozenset(), 0.0
    p_s = np.sum([r.p for r in rounds], axis=0)
    if p_s.shape != (static.n,):
        raise ValueError("round profit vector length must match item count")
    scaled = p_s / profit_grid
    q = np.rint(scaled)
    if np.abs(scaled - q).max() > 1e-9:
        raise ValueError("scaled summed profits must be integers on the grid")
    q = q.astype(np.int64)
    cells = (int(q.sum()) + 1) * max(n, 1)
    if cells > MAX_DP_CELLS:
        raise ValueError(f"grid overflow: {cells} DP cells exceed cap {MAX_DP_CELLS}")
    f = ExcessFunction.from_rounds(rounds)
    levels, weight, chosen = _min_weight_dp(q, static.w)
    values = levels * profit_grid - static.c * f.value_many(weight)
    best_k = int(np.argmax(values))  # first (smallest level) on ties
    best = frozenset(int(i) for i in np.flatnonzero(chosen[best_k]))
    return best, _aggregate_profit(best, static, p_s, f)


def fptas_grid_info(static: GkpStatic, rounds, eps: float) -> dict:
    """Grid geometry the FPTAS would use: unit K, level count, DP cells.

    ``dp_cells`` is levels * n, the size of the dense profit grid that the
    MAX_DP_CELLS guard caps. It is not the work done: the DP only visits
    the reachable levels, at most min(levels, 2^n) of them.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rounds = list(rounds)
    n = static.n
    if not rounds or n == 0:
        return {"K": 0.0, "levels": 0, "dp_cells": 0}
    p_s = np.sum([r.p for r in rounds], axis=0)
    p_max = float(p_s.max())
    if p_max <= 0:
        return {"K": 0.0, "levels": 0, "dp_cells": 0}
    K = eps * p_max / n
    levels = int(sum(floor(float(x) / K) for x in p_s)) + 1
    return {"K": K, "levels": levels, "dp_cells": levels * n}


def fptas_oracle(static: GkpStatic, rounds, eps: float) -> tuple[frozenset, float]:
    """(1-eps)-approximate oracle by the profit-scaling DP.

    Profits are floored onto the grid K = eps * P_max / n and the exact
    DP runs on the scaled integers, keeping only the reachable levels; the
    proxy level*K - c*k(W) is maximized over those, the smallest level
    winning ties. The DP's answer then competes, at true profit, with
    every singleton and the empty set, so the returned value is never
    negative and penalty-dominated instances keep the guarantee on the
    tested regime. The grid-overflow guard still caps the dense grid size
    (see fptas_grid_info), so the instances accepted are unchanged.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = static.n
    rounds = list(rounds)
    if not rounds or n == 0:
        return frozenset(), 0.0
    p_s = np.sum([r.p for r in rounds], axis=0)
    if p_s.shape != (static.n,):
        raise ValueError("round profit vector length must match item count")
    p_max = float(p_s.max())
    if p_max <= 0:
        return frozenset(), 0.0
    K = eps * p_max / n
    q = np.array([floor(float(x) / K) for x in p_s], dtype=np.int64)
    cells = (int(q.sum()) + 1) * n
    if cells > MAX_DP_CELLS:
        raise ValueError(f"grid overflow: {cells} DP cells exceed cap {MAX_DP_CELLS}")
    f = ExcessFunction.from_rounds(rounds)
    levels, weight, chosen = _min_weight_dp(q, static.w)
    proxy = levels * K - static.c * f.value_many(weight)
    dp_set = frozenset(int(i) for i in np.flatnonzero(chosen[int(np.argmax(proxy))]))

    # highest true profit wins; exact ties go to the lexicographically
    # smallest set (empty set first)
    candidates = [frozenset(), dp_set] + [frozenset({i}) for i in range(n)]
    value, _, best = min(
        (-_aggregate_profit(A, static, p_s, f), tuple(sorted(A)), A) for A in candidates
    )
    return best, -value


def distinguisher_set(static: GkpStatic, P: float = 1.0) -> list[GkpRound]:
    """The n marker rounds: round j pays P for holding item j and nothing
    else, with capacity equal to the full item weight so the penalty can
    never bind. The induced payoff matrix has all-distinct rows, at most
    two values per column, and per-column gap exactly P.
    """
    if P <= 0:
        raise ValueError("marker profit must be positive")
    total = static.total_weight
    rounds = []
    for j in range(static.n):
        p = np.zeros(static.n)
        p[j] = P
        rounds.append(GkpRound(p, total))
    return rounds
