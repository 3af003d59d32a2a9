"""GKP objective, excess function, and oracle tests.

Exactness checks (binary-search excess vs direct sum, aggregate profit vs
per-round sum) run on dyadic-grid random instances — values are integer
multiples of 1/64 — so every float operation involved is exact and the
identities can be asserted with == rather than a tolerance.
"""

import itertools
from math import floor

import numpy as np
import pytest

from regretlab.gkp import (
    MAX_DP_CELLS,
    CachingBruteOracle,
    ExcessFunction,
    brute_oracle,
    distinguisher_set,
    exact_dp_oracle,
    excess_value,
    fptas_grid_info,
    fptas_oracle,
    gkp_profit,
    multi_gkp_profit,
    prefix_best_values,
    _min_weight_dp,
)
from regretlab.instances import GkpInstanceSet, GkpRound, GkpStatic, gen_random_gkp
from regretlab.rng import SeededRng


def dyadic(rng, lo_units, hi_units, unit=1.0 / 64.0):
    return (lo_units + rng.randrange(hi_units - lo_units)) * unit


def dyadic_instance(rng, n, m):
    w = np.array([dyadic(rng, 1, 256) for _ in range(n)])  # (0, 4]
    c = dyadic(rng, 0, 128)  # [0, 2)
    static = GkpStatic(n, w, c)
    rounds = []
    for _ in range(m):
        p = np.array([dyadic(rng, 0, 256) for _ in range(n)])
        B = dyadic(rng, 0, 512)  # [0, 8)
        rounds.append(GkpRound(p, B))
    return static, rounds


TWO_ROUND = GkpInstanceSet(
    GkpStatic(2, [1.0, 2.0], 1.0),
    (GkpRound([3.0, 1.0], 2.0), GkpRound([0.0, 2.0], 1.0)),
)


# --- excess function -----------------------------------------------------------


def test_excess_examples():
    f = ExcessFunction([2.0, 5.0])
    assert excess_value(4.0, f) == 2.0
    assert excess_value(1.0, f) == 0.0
    assert excess_value(6.0, f) == 5.0
    with pytest.raises(ValueError):
        excess_value(-1.0, f)


def test_excess_sorts_caps_and_validates():
    f = ExcessFunction([5.0, 2.0])
    assert list(f.sorted_caps) == [2.0, 5.0]
    assert list(f.prefix_sums) == [0.0, 2.0, 7.0]


def test_excess_binary_search_equals_direct_sum_exactly():
    rng = SeededRng(1001)
    for _ in range(1000):
        m = rng.randrange(9)
        caps = [dyadic(rng, 0, 512) for _ in range(m)]
        W = dyadic(rng, 0, 512)
        f = ExcessFunction(caps)
        direct = sum(max(0.0, W - b) for b in caps)
        assert excess_value(W, f) == direct


def test_excess_boundary_cap_equal_to_weight():
    f = ExcessFunction([3.0])
    assert excess_value(3.0, f) == 0.0  # excess is strict: max(0, W-B) at W=B is 0


def test_excess_convexity():
    rng = SeededRng(1002)
    for _ in range(1000):
        m = 1 + rng.randrange(8)
        f = ExcessFunction([rng.uniform(0.0, 8.0) for _ in range(m)])
        W1 = rng.uniform(0.0, 10.0)
        W2 = rng.uniform(0.0, 10.0)
        lam = rng.uniform(0.0, 1.0)
        mid = lam * W1 + (1 - lam) * W2
        assert f.value(mid) <= lam * f.value(W1) + (1 - lam) * f.value(W2) + 1e-9


# --- profit --------------------------------------------------------------------


def test_gkp_profit_examples():
    static = GkpStatic(2, [3.0, 4.0], 2.0)
    rnd = GkpRound([5.0, 4.0], 5.0)
    assert gkp_profit({0, 1}, static, rnd) == 5.0
    assert gkp_profit(set(), static, rnd) == 0.0
    assert gkp_profit({1}, static, rnd) == 4.0
    with pytest.raises(ValueError):
        gkp_profit({0}, static, GkpRound([1.0], 1.0))
    with pytest.raises(ValueError):
        gkp_profit({2}, static, rnd)


@pytest.mark.parametrize(
    "A, message",
    [
        ({0, True}, "an item set member must be an integer, got True"),
        ({1.0}, "an item set member must be an integer, got 1.0"),
        ({True}, "an item set member must be an integer, got True"),
        ([0, -1], "an item set member must be in [0, 3), got -1"),
        (2, "an item set must be an iterable of indices, got 2"),
    ],
    ids=["bool_beside_0", "float", "bool", "negative", "not_a_set"],
)
def test_item_sets_go_through_the_index_rule(A, message):
    # {0, True} would pay items {0, 1}; {1.0} and {True} were numpy IndexErrors
    static = GkpStatic(3, [1.0, 1.0, 1.0], 1.0)
    rnd = GkpRound([1.0, 2.0, 3.0], 5.0)
    for profit in (lambda: gkp_profit(A, static, rnd), lambda: multi_gkp_profit(A, static, [rnd])):
        with pytest.raises(ValueError) as e:
            profit()
        assert str(e.value) == message
    assert gkp_profit([np.int64(1), 1], static, rnd) == gkp_profit({1}, static, rnd) == 2.0


def test_multi_gkp_profit_examples():
    static, rounds = TWO_ROUND.static, list(TWO_ROUND.rounds)
    assert multi_gkp_profit({0, 1}, static, rounds) == 3.0
    assert multi_gkp_profit({0}, static, rounds) == 3.0
    assert multi_gkp_profit(set(), static, rounds) == 0.0


def test_multi_profit_equals_per_round_sum_exactly():
    rng = SeededRng(1003)
    for _ in range(1000):
        n = 1 + rng.randrange(6)
        m = rng.randrange(6)
        static, rounds = dyadic_instance(rng, n, m)
        A = {i for i in range(n) if rng.randrange(2)}
        per_round = sum(gkp_profit(A, static, r) for r in rounds)
        assert multi_gkp_profit(A, static, rounds) == per_round


# --- brute oracle ----------------------------------------------------------------


def test_brute_oracle_two_round_instance():
    best, value = brute_oracle(TWO_ROUND.static, TWO_ROUND.rounds)
    assert value == 3.0
    assert best == frozenset({0})  # ties with {0,1}; {0} is lexicographically first


def test_brute_oracle_trivial_cases():
    static = GkpStatic(1, [1.0], 1.0)
    assert brute_oracle(static, []) == (frozenset(), 0.0)
    rounds = [GkpRound([5.0], 0.5)]  # p=5, excess 0.5, c=1 -> 4.5
    assert brute_oracle(static, rounds) == (frozenset({0}), 4.5)
    zero = [GkpRound([0.0], 1.0)]
    assert brute_oracle(static, zero) == (frozenset(), 0.0)


def test_brute_oracle_lex_tie_prefers_earlier_superset():
    # {1} and {0,1} tie in value when item 0 is free and weightless-enough
    static = GkpStatic(2, [0.0, 1.0], 1.0)
    rounds = [GkpRound([0.0, 2.0], 5.0)]
    best, value = brute_oracle(static, rounds)
    assert value == 2.0
    assert best == frozenset({0, 1})  # (0,1) sorts before (1,)


def test_brute_oracle_guard():
    static = GkpStatic(21, np.ones(21), 0.0)
    with pytest.raises(ValueError, match="guard"):
        brute_oracle(static, [])


def test_brute_oracle_matches_naive_enumeration():
    rng = SeededRng(1004)
    for _ in range(20):
        n = 1 + rng.randrange(7)
        m = 1 + rng.randrange(5)
        static, rounds = dyadic_instance(rng, n, m)
        best, value = brute_oracle(static, rounds)
        naive_best = max(
            (
                sum(gkp_profit(set(A), static, r) for r in rounds)
                for k in range(n + 1)
                for A in itertools.combinations(range(n), k)
            ),
        )
        assert value == naive_best
        assert multi_gkp_profit(best, static, rounds) == value


# --- exact DP oracle ---------------------------------------------------------------


def test_exact_dp_matches_brute_on_integer_profits():
    static, rounds = TWO_ROUND.static, list(TWO_ROUND.rounds)
    best, value = exact_dp_oracle(static, rounds, 1.0)
    assert value == 3.0
    rng = SeededRng(1005)
    for _ in range(30):
        n = 1 + rng.randrange(6)
        m = 1 + rng.randrange(4)
        w = np.array([dyadic(rng, 1, 128) for _ in range(n)])
        c = dyadic(rng, 0, 64)
        static = GkpStatic(n, w, c)
        rounds = [
            GkpRound(np.array([float(rng.randrange(4)) for _ in range(n)]), dyadic(rng, 0, 256))
            for _ in range(m)
        ]
        _, dp_value = exact_dp_oracle(static, rounds, 1.0)
        _, brute_value = brute_oracle(static, rounds)
        assert dp_value == brute_value


def test_exact_dp_trivial_cases():
    static = GkpStatic(2, [1.0, 1.0], 1.0)
    assert exact_dp_oracle(static, [GkpRound([0.0, 0.0], 1.0)], 1.0) == (frozenset(), 0.0)
    # c=0, one round: no penalty, monotone objective -> all items
    free = GkpStatic(3, [5.0, 5.0, 5.0], 0.0)
    best, value = exact_dp_oracle(free, [GkpRound([2.0, 1.0, 3.0], 0.0)], 1.0)
    assert best == frozenset({0, 1, 2})
    assert value == 6.0
    # no items: the empty set, as every other oracle answers
    assert exact_dp_oracle(GkpStatic(0, [], 1.0), [GkpRound([], 1.0)], 1.0) == (frozenset(), 0.0)


def test_exact_dp_errors():
    static = GkpStatic(1, [1.0], 0.0)
    with pytest.raises(ValueError, match="integers"):
        exact_dp_oracle(static, [GkpRound([0.5], 1.0)], 1.0)
    with pytest.raises(ValueError, match="grid overflow"):
        exact_dp_oracle(static, [GkpRound([30.0], 1.0)], 1e-9)
    with pytest.raises(ValueError):
        exact_dp_oracle(static, [GkpRound([1.0], 1.0)], 0.0)


# --- reachable-level DP against the dense reference ---------------------------------


def dense_min_weight_dp(q, w):
    """The dense profit-grid DP: one cell per level 0..sum(q), +inf where
    no set reaches it, and a levels x n indicator matrix of chosen sets."""
    n = q.shape[0]
    q_total = int(q.sum())
    dp = np.full(q_total + 1, np.inf)
    dp[0] = 0.0
    chosen = np.zeros((q_total + 1, n), dtype=bool)
    for i in range(n):
        qi = int(q[i])
        if qi == 0:
            continue
        seg = dp[: q_total + 1 - qi] + w[i]
        better = seg < dp[qi:]
        if not better.any():
            continue
        rows = np.flatnonzero(better)
        dp[rows + qi] = seg[rows]
        chosen[rows + qi] = chosen[rows]
        chosen[rows + qi, i] = True
    return dp, chosen


def dense_best_set(q, w, unit, c, f):
    """Set of the dense grid's best proxy level; -inf marks unreachable
    levels, and argmax takes the smallest level on ties."""
    dp, chosen = dense_min_weight_dp(q, w)
    feasible = np.isfinite(dp)
    levels = np.arange(dp.shape[0])
    values = np.where(feasible, levels * unit - c * f.value_many(np.where(feasible, dp, 0.0)), -np.inf)
    return frozenset(int(i) for i in np.flatnonzero(chosen[int(np.argmax(values))]))


def reference_exact_dp(static, rounds, profit_grid):
    p_s = np.sum([r.p for r in rounds], axis=0)
    q = np.rint(p_s / profit_grid).astype(np.int64)
    best = dense_best_set(q, static.w, profit_grid, static.c, ExcessFunction([r.B for r in rounds]))
    return best, multi_gkp_profit(best, static, rounds)


def reference_fptas(static, rounds, eps):
    n = static.n
    p_s = np.sum([r.p for r in rounds], axis=0)
    p_max = float(p_s.max())
    if p_max <= 0:
        return frozenset(), 0.0
    K = eps * p_max / n
    q = np.array([floor(float(x) / K) for x in p_s], dtype=np.int64)
    dp_set = dense_best_set(q, static.w, K, static.c, ExcessFunction([r.B for r in rounds]))
    candidates = [frozenset(), dp_set] + [frozenset({i}) for i in range(n)]
    best = min(candidates, key=lambda A: (-multi_gkp_profit(A, static, rounds), tuple(sorted(A))))
    return best, multi_gkp_profit(best, static, rounds)


def tie_heavy_instance(rng, n, m):
    # small integer profits (many zero), weights from a few repeated values
    # (zero included), so equal levels and equal weights collide constantly
    w = np.array([(0.0, 0.5, 1.0, 1.0, 2.0)[rng.randrange(5)] for _ in range(n)])
    static = GkpStatic(n, w, (0.0, 0.5, 1.0)[rng.randrange(3)])
    rounds = [
        GkpRound(np.array([float(max(0, rng.randrange(5) - 1)) for _ in range(n)]), dyadic(rng, 0, 256))
        for _ in range(m)
    ]
    return static, rounds


def packed_words(indicator_rows, n):
    """Each indicator row as the DP's mask words: item i is bit i % 64 of
    word i // 64, one word at least."""
    return [
        [sum(1 << (i - 64 * j) for i in np.flatnonzero(row).tolist() if 64 * j <= i < 64 * (j + 1))
         for j in range(max(1, (n + 63) // 64))]
        for row in indicator_rows
    ]


def test_min_weight_dp_matches_dense_reference_on_ties():
    rng = SeededRng(1014)

    def check(n, top):
        q = np.array([max(0, rng.randrange(top) - 2) for _ in range(n)], dtype=np.int64)
        w = np.array([(0.0, 0.25, 0.5, 0.5, 1.0, 3.0)[rng.randrange(6)] for _ in range(n)])
        dense, dense_chosen = dense_min_weight_dp(q, w)
        levels, weight, words = _min_weight_dp(q, w)
        reachable = np.flatnonzero(np.isfinite(dense))
        assert levels.tolist() == reachable.tolist()
        assert weight.tolist() == dense[reachable].tolist()
        assert words.dtype == np.uint64
        assert words.tolist() == packed_words(dense_chosen[reachable], n)
        assert len(levels) <= min(int(q.sum()) + 1, 1 << n)

    for _ in range(1500):
        check(rng.randrange(9), 6)
    for n in (63, 64, 65, 70, 128, 130):  # past one 64-item word, mostly zero levels
        check(n, 4)


def test_dp_oracles_match_dense_reference_answers():
    rng = SeededRng(1015)
    for _ in range(300):
        n = 1 + rng.randrange(7)
        static, rounds = tie_heavy_instance(rng, n, 1 + rng.randrange(4))
        assert exact_dp_oracle(static, rounds, 1.0) == reference_exact_dp(static, rounds, 1.0)
        assert exact_dp_oracle(static, rounds, 0.5) == reference_exact_dp(static, rounds, 0.5)
        for eps in (0.9, 0.3, 0.05):
            assert fptas_oracle(static, rounds, eps) == reference_fptas(static, rounds, eps)
    for _ in range(40):
        inst = gen_random_gkp(1 + rng.randrange(8), 1 + rng.randrange(5), rng)
        for eps in (0.5, 0.05):
            got = fptas_oracle(inst.static, inst.rounds, eps)
            assert got == reference_fptas(inst.static, list(inst.rounds), eps)


def test_dp_grid_guard_counts_the_dense_grid():
    # the reachable DP would fit, but the guard still caps the dense grid
    static = GkpStatic(2, [1.0, 1.0], 0.0)
    rounds = [GkpRound([float(MAX_DP_CELLS), 1.0], 0.0)]
    with pytest.raises(ValueError, match="grid overflow"):
        exact_dp_oracle(static, rounds, 1.0)
    info = fptas_grid_info(static, rounds, 1e-7)
    assert info["dp_cells"] > MAX_DP_CELLS
    with pytest.raises(ValueError, match="grid overflow"):
        fptas_oracle(static, rounds, 1e-7)


def _three_items():
    """One round over three unit-weight items; the brute optimum is 5.25."""
    return GkpStatic(3, [1.0, 1.0, 1.0], 0.5), [GkpRound([1.0, 2.0, 3.0], 1.5)]


def _random_four():
    """gen_random_gkp(4, 5, SeededRng(3)); the brute optimum is about 9.75."""
    inst = gen_random_gkp(4, 5, SeededRng(3))
    return inst.static, list(inst.rounds)


@pytest.mark.parametrize(
    "read",
    [
        lambda st, rs: multi_gkp_profit({0}, st, rs),
        brute_oracle,
        lambda st, rs: exact_dp_oracle(st, rs, 1.0),
        lambda st, rs: fptas_oracle(st, rs, 0.5),
        lambda st, rs: fptas_grid_info(st, rs, 0.5),
        prefix_best_values,
    ],
    ids=[
        "multi_gkp_profit",
        "brute_oracle",
        "exact_dp_oracle",
        "fptas_oracle",
        "fptas_grid_info",
        "prefix_best_values",
    ],
)
def test_every_history_reader_rejects_a_round_of_the_wrong_length(read):
    static = GkpStatic(3, [1.0, 1.0, 1.0], 0.5)
    for rounds, k in (
        ([GkpRound([1.0, 2.0], 1.0)], 0),
        ([GkpRound([1.0, 2.0, 3.0], 1.0), GkpRound([1.0], 1.0)], 1),
    ):
        with pytest.raises(ValueError, match=rf"^rounds\[{k}\]: profit vector length must match item count 3$"):
            read(static, rounds)


def test_single_round_readers_reject_a_round_of_the_wrong_length():
    static = GkpStatic(3, [1.0, 1.0, 1.0], 0.5)
    short = GkpRound([1.0, 2.0], 1.0)
    message = "^round profit vector length must match item count 3$"
    with pytest.raises(ValueError, match=message):
        gkp_profit({0}, static, short)
    with pytest.raises(ValueError, match=message):
        CachingBruteOracle()(static, [short])


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_dp_oracles_reject_non_finite_or_non_positive_grid_parameters(bad):
    for static, rounds in (_three_items(), _random_four()):
        with pytest.raises(ValueError, match=rf"^profit_grid must be a finite number in \(0, inf\), got {bad!r}$"):
            exact_dp_oracle(static, rounds, bad)
        with pytest.raises(ValueError, match=rf"^eps must be a finite number in \(0, inf\), got {bad!r}$"):
            fptas_oracle(static, rounds, bad)
        with pytest.raises(ValueError, match=rf"^eps must be a finite number in \(0, inf\), got {bad!r}$"):
            fptas_grid_info(static, rounds, bad)


@pytest.mark.parametrize("unit", [1e-19, 5e-324])
def test_dp_oracles_refuse_grids_too_fine_to_count_in_int64(unit):
    # 1e-19 puts the level sum past int64; the smallest subnormal makes the
    # scaled profits infinite. Both are refused, neither wraps or crashes.
    static, rounds = _three_items()
    with pytest.raises(ValueError, match="grid overflow"):
        exact_dp_oracle(static, rounds, unit)
    with pytest.raises(ValueError, match="grid overflow"):
        fptas_oracle(static, rounds, unit)


def test_fptas_grid_info_counts_grids_past_int64():
    info = fptas_grid_info(*_three_items(), 1e-19)
    assert info["dp_cells"] == 3 * (floor(1 / 1e-19) + floor(2 / 1e-19) + floor(3 / 1e-19) + 1)
    assert info["dp_cells"] > 2**63


@pytest.mark.parametrize("eps", [0.5] + [10.0**-k for k in range(1, 20)])
def test_fptas_guard_refuses_exactly_the_grids_counted_over_the_cap(eps):
    for static, rounds in (_three_items(), _random_four()):
        if fptas_grid_info(static, rounds, eps)["dp_cells"] > MAX_DP_CELLS:
            with pytest.raises(ValueError, match="grid overflow"):
                fptas_oracle(static, rounds, eps)
        else:
            _, value = fptas_oracle(static, rounds, eps)
            assert value >= (1 - eps) * brute_oracle(static, rounds)[1]


# --- FPTAS ---------------------------------------------------------------------------


def test_fptas_two_round_instance():
    static, rounds = TWO_ROUND.static, list(TWO_ROUND.rounds)
    _, value = fptas_oracle(static, rounds, 0.1)
    assert value >= 2.7  # OPT is 3


def test_fptas_zero_profit_and_empty():
    static = GkpStatic(2, [1.0, 1.0], 1.0)
    assert fptas_oracle(static, [GkpRound([0.0, 0.0], 1.0)], 0.5) == (frozenset(), 0.0)
    assert fptas_oracle(static, [], 0.5) == (frozenset(), 0.0)
    with pytest.raises(ValueError):
        fptas_oracle(static, [GkpRound([1.0, 1.0], 1.0)], 0.0)


def test_fptas_guarantee_on_random_instances():
    rng = SeededRng(1006)
    for _ in range(40):
        n = 1 + rng.randrange(10)
        m = 1 + rng.randrange(5)
        inst = gen_random_gkp(n, m, rng)
        _, opt = brute_oracle(inst.static, inst.rounds)
        for eps in (0.5, 0.1, 0.01):
            _, got = fptas_oracle(inst.static, inst.rounds, eps)
            assert got >= (1.0 - eps) * opt - 1e-12
            assert got <= opt + 1e-12  # never beats the exact optimum


def test_fptas_value_is_reachable():
    rng = SeededRng(1007)
    for _ in range(10):
        inst = gen_random_gkp(5, 3, rng)
        best, value = fptas_oracle(inst.static, inst.rounds, 0.1)
        assert multi_gkp_profit(best, inst.static, inst.rounds) == value
        assert value >= 0.0


def test_fptas_grid_info():
    static, rounds = TWO_ROUND.static, list(TWO_ROUND.rounds)
    info = fptas_grid_info(static, rounds, 0.5)
    assert info["K"] == pytest.approx(0.5 * 3.0 / 2)
    assert info["dp_cells"] == info["levels"] * 2
    assert fptas_grid_info(static, [], 0.5) == {"K": 0.0, "levels": 0, "dp_cells": 0}


# --- distinguisher set ------------------------------------------------------------


def test_distinguisher_example_n2():
    static = GkpStatic(2, [1.0, 2.0], 1.0)
    rounds = distinguisher_set(static, 1.0)
    assert len(rounds) == 2
    assert list(rounds[0].p) == [1.0, 0.0] and rounds[0].B == 3.0
    assert list(rounds[1].p) == [0.0, 1.0] and rounds[1].B == 3.0
    gamma = [
        [gkp_profit(A, static, r) for r in rounds]
        for A in (set(), {0}, {1}, {0, 1})
    ]
    assert gamma == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


def test_distinguisher_admissibility_small():
    rng = SeededRng(1008)
    for n in (1, 3, 5):
        static = GkpStatic(n, [rng.uniform(0.1, 2.0) for _ in range(n)], rng.uniform(0.0, 2.0))
        rounds = distinguisher_set(static, 1.0)
        rows = {}
        for bits in range(1 << n):
            A = {i for i in range(n) if bits >> i & 1}
            rows[bits] = tuple(gkp_profit(A, static, r) for r in rounds)
        assert len(set(rows.values())) == 1 << n  # all rows distinct
        for j in range(n):
            col = {rows[b][j] for b in rows}
            assert col == {0.0, 1.0}  # two values, gap exactly P=1


def test_distinguisher_scaling_implementability():
    # a * payoff(x, y_j) = payoff(x, y_j with profits scaled by a), exactly
    rng = SeededRng(1009)
    static = GkpStatic(3, [0.5, 1.0, 1.5], 2.0)
    rounds = distinguisher_set(static, 1.0)
    for _ in range(200):
        a = rng.uniform(0.0, 10.0)
        bits = rng.randrange(8)
        A = {i for i in range(3) if bits >> i & 1}
        j = rng.randrange(3)
        scaled = GkpRound(a * rounds[j].p, rounds[j].B)
        assert a * gkp_profit(A, static, rounds[j]) == gkp_profit(A, static, scaled)


def test_distinguisher_rejects_bad_marker():
    with pytest.raises(ValueError):
        distinguisher_set(GkpStatic(1, [1.0], 0.0), 0.0)


# --- incremental oracles ----------------------------------------------------------


def test_prefix_best_matches_per_prefix_brute_exactly():
    # dyadic grid: the incremental aggregates and brute's fresh sums are both
    # exact, so the per-prefix maxima must agree bitwise
    rng = SeededRng(1010)
    for _ in range(10):
        n = 1 + rng.randrange(6)
        m = 1 + rng.randrange(30)
        static, rounds = dyadic_instance(rng, n, m)
        vals = prefix_best_values(static, rounds)
        assert len(vals) == m
        for t in range(1, m + 1):
            assert vals[t - 1] == brute_oracle(static, rounds[:t])[1]


def test_prefix_best_is_zero_when_every_nonempty_set_loses():
    # capacity 0 and a steep penalty: the empty set is the best fixed set
    static = GkpStatic(3, [1.0, 2.0, 4.0], 10.0)
    rounds = [GkpRound([1.0, 1.0, 1.0], 0.0) for _ in range(3)]
    assert prefix_best_values(static, rounds) == [0.0, 0.0, 0.0]


def test_prefix_best_trivial_and_guards():
    static = GkpStatic(2, [1.0, 2.0], 1.0)
    assert prefix_best_values(static, []) == []
    with pytest.raises(ValueError, match="guard"):
        prefix_best_values(GkpStatic(21, np.ones(21), 0.0), [])
    with pytest.raises(ValueError, match="length"):
        prefix_best_values(static, [GkpRound([1.0], 1.0)])


def test_caching_oracle_matches_brute_on_growing_history():
    # the FTPL call shape: history grows by one round per query while the
    # same perturbation block rides along at the tail
    rng = SeededRng(1011)
    n = 4
    static, history = dyadic_instance(rng, n, 40)
    total = float(np.sum(static.w))
    pert = [
        GkpRound(np.array([dyadic(rng, 0, 64) for _ in range(n)]), total)
        for _ in range(n)
    ]
    oracle = CachingBruteOracle()
    for t in range(41):
        rounds = history[:t] + pert
        got_set, got_val = oracle(static, rounds)
        want_set, want_val = brute_oracle(static, rounds)
        assert got_set == want_set
        assert got_val == want_val
    # the riding tail must stay out of the persistent prefix, or every call
    # degenerates into a full refold
    assert oracle._prefix == history


def test_caching_oracle_does_not_reuse_a_tail_delta_for_another_round():
    # the riding tail keeps its length but its last slot switches to a
    # different round object; the delta cached for that slot must be
    # recomputed, while the untouched slots may keep theirs
    rng = SeededRng(1016)
    n = 3
    static, history = dyadic_instance(rng, n, 16)
    total = float(np.sum(static.w))

    def marker():
        return GkpRound(np.array([dyadic(rng, 0, 512) for _ in range(n)]), total)

    oracle = CachingBruteOracle()
    pert = [marker() for _ in range(n)]
    for t in range(6):
        assert oracle(static, history[:t] + pert) == brute_oracle(static, history[:t] + pert)
    stale = oracle._tail[0]
    assert stale[0] is pert[-1]
    other = pert[:-1] + [marker()]
    for t in range(6, 17):
        rounds = history[:t] + other
        assert oracle(static, rounds) == brute_oracle(static, rounds)
    assert oracle._tail[0][0] is other[-1]
    assert not np.array_equal(oracle._tail[0][1], stale[1])
    assert oracle._tail[1][0] is pert[-2]
    assert oracle._prefix == history


def test_caching_oracle_accepts_value_equal_history_copy():
    # a rebuilt history of value-equal rounds matches the cached prefix by
    # value and must answer as brute_oracle does
    rng = SeededRng(1017)
    n = 4
    static, history = dyadic_instance(rng, n, 20)
    total = float(np.sum(static.w))
    pert = [GkpRound(np.array([dyadic(rng, 0, 64) for _ in range(n)]), total) for _ in range(n)]
    oracle = CachingBruteOracle()
    for t in range(21):
        copy = [GkpRound(r.p.copy(), r.B) for r in history[:t]]
        rounds = (history[:t] if t % 2 else copy) + pert
        assert oracle(static, rounds) == brute_oracle(static, rounds)
    assert oracle._prefix == history


def test_caching_oracle_handles_arbitrary_call_patterns():
    rng = SeededRng(1012)
    static, stream_a = dyadic_instance(rng, 3, 25)
    _, stream_b = dyadic_instance(rng, 3, 25)
    oracle = CachingBruteOracle()
    for _ in range(60):
        stream = stream_a if rng.randrange(2) else stream_b
        t = rng.randrange(26)
        rounds = stream[:t]
        assert oracle(static, rounds) == brute_oracle(static, rounds)


def test_caching_oracle_rebinds_on_new_static():
    rng = SeededRng(1013)
    s1, rounds = dyadic_instance(rng, 3, 10)
    s2 = GkpStatic(s1.n, s1.w, s1.c + 1.0)
    oracle = CachingBruteOracle()
    for t in range(1, 11):
        st = s1 if t % 2 else s2
        assert oracle(st, rounds[:t]) == brute_oracle(st, rounds[:t])


def test_caching_oracle_trivial_and_guard():
    oracle = CachingBruteOracle()
    assert oracle(GkpStatic(2, [1.0, 2.0], 1.0), []) == (frozenset(), 0.0)
    with pytest.raises(ValueError, match="guard"):
        oracle(GkpStatic(21, np.ones(21), 0.0), [GkpRound(np.ones(21), 1.0)])
