"""Min-max oracles against independent exhaustive enumeration."""

import itertools

import numpy as np
import pytest

from regretlab.instances import Graph, ProcTimeMatrix, WeightSequence, gen_random_graph
from regretlab.minmax import (
    PathChain,
    best_static_vc_hindsight,
    brute_force_multi_matching,
    brute_force_multi_p3cmax,
    brute_force_multi_path,
    is_vertex_cover,
    minimal_vertex_covers,
    minmax_value,
    multi_minmax_cost,
    static_minmax_vc,
)
from regretlab.rng import SeededRng


# --- independent oracles (test-local, deliberately naive) -------------------


def covers_by_enumeration(g):
    out = []
    for bits in range(1 << g.n):
        s = {i for i in range(g.n) if bits >> i & 1}
        if all(u in s or v in s for u, v in g.edges):
            out.append(frozenset(s))
    return out


def naive_minmax(s, w):
    return max((w[i] for i in s), default=0.0)


def naive_multi_cost(s, rows):
    return sum(naive_minmax(s, row) for row in rows)


def perfect_matchings_by_enumeration(g):
    k = g.n // 2
    out = []
    for combo in itertools.combinations(range(g.m), k):
        verts = [v for i in combo for v in g.edges[i]]
        if len(set(verts)) == g.n:
            out.append(combo)
    return out


# --- minmax_value / is_vertex_cover ------------------------------------------


def test_minmax_value_examples():
    w = (5.0, 1.0, 7.0)
    assert minmax_value({1}, w) == 1.0
    assert minmax_value(set(), w) == 0.0
    assert minmax_value({0, 2}, w) == 7.0
    with pytest.raises(ValueError):
        minmax_value({3}, w)


def test_is_vertex_cover_examples():
    path = Graph(3, ((0, 1), (1, 2)))
    assert is_vertex_cover(path, {1})
    assert not is_vertex_cover(path, {0})
    assert is_vertex_cover(Graph(3, ()), set())


@pytest.mark.parametrize(
    "s, message",
    [
        ({5, 1}, "a vertex set member must be in [0, 2), got 5"),
        ({True}, "a vertex set member must be an integer, got True"),
        ([0.0, 1], "a vertex set member must be an integer, got 0.0"),
        (None, "a vertex set must be an iterable of indices, got None"),
    ],
    ids=["out_of_range", "bool", "float", "not_a_set"],
)
def test_is_vertex_cover_checks_its_set(s, message):
    # {5, 1} was called a cover of the edge (0, 1)
    with pytest.raises(ValueError) as e:
        is_vertex_cover(Graph(2, ((0, 1),)), s)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "s, message",
    [
        ({True}, "a selection member must be an integer, got True"),
        ({1.0}, "a selection member must be an integer, got 1.0"),
        ({-1}, "a selection member must be in [0, 3), got -1"),
    ],
    ids=["bool", "float", "negative"],
)
def test_selections_go_through_the_index_rule(s, message):
    # {True} and {1.0} were numpy IndexErrors, or an index when mixed with an int
    for cost in (lambda: minmax_value(s, (5.0, 1.0, 7.0)), lambda: multi_minmax_cost(s, [[5.0, 1.0, 7.0]])):
        with pytest.raises(ValueError) as e:
            cost()
        assert str(e.value) == message


# --- static_minmax_vc ---------------------------------------------------------


def test_static_minmax_vc_examples():
    path = Graph(3, ((0, 1), (1, 2)))
    s, val = static_minmax_vc(path, (5.0, 1.0, 7.0))
    assert (s, val) == (frozenset({1}), 1.0)

    s, val = static_minmax_vc(Graph(4, ()), (3.0, 1.0, 2.0, 9.0))
    assert (s, val) == (frozenset(), 0.0)

    tri = Graph(3, ((0, 1), (1, 2), (0, 2)))
    s, val = static_minmax_vc(tri, (1.0, 2.0, 3.0))
    assert val == 2.0
    assert s <= frozenset({0, 1})
    assert is_vertex_cover(tri, s)


def test_static_minmax_vc_matches_enumeration():
    rng = SeededRng(21)
    checked = 0
    for n in range(2, 13):
        for _ in range(3):
            g = gen_random_graph(n, 0.5, rng)
            covers = covers_by_enumeration(g)
            for _ in range(4):
                w = [rng.uniform(0.0, 5.0) for _ in range(n)]
                s, val = static_minmax_vc(g, w)
                assert is_vertex_cover(g, s)
                assert val == pytest.approx(naive_minmax(s, w))
                best = min(naive_minmax(c, w) for c in covers)
                assert val == pytest.approx(best)
                checked += 1
    assert checked >= 100


def test_static_minmax_prefers_smaller_threshold_on_ties():
    # two covers achieve value 1.0; the scan must stop at the first threshold
    g = Graph(2, ((0, 1),))
    s, val = static_minmax_vc(g, (1.0, 1.0))
    assert val == 1.0
    assert s == frozenset({0, 1})  # eligible set at threshold 1.0


def reference_static_minmax_vc(g, w):
    """The threshold scan static_minmax_vc replaced: try every distinct
    weight in increasing order until the eligible set covers g."""
    w = np.asarray(w, dtype=np.float64)
    if g.m == 0:
        return frozenset(), 0.0
    for thr in np.unique(w):
        eligible = frozenset(np.flatnonzero(w <= thr).tolist())
        if is_vertex_cover(g, eligible):
            return eligible, float(thr)
    raise AssertionError("unreachable: the full vertex set is a cover")


def test_static_minmax_vc_matches_threshold_scan_on_ties():
    rng = SeededRng(22)
    for _ in range(400):
        n = 1 + rng.randrange(12)
        g = gen_random_graph(n, rng.uniform(0.0, 1.0), rng)
        # few distinct values, so thresholds and per-edge minima tie often
        levels = (0.0, 0.5, 1.0, 2.0, rng.uniform(0.0, 3.0))
        w = [levels[rng.randrange(len(levels))] for _ in range(n)]
        s, val = static_minmax_vc(g, w)
        assert (s, val) == reference_static_minmax_vc(g, w)
        assert type(val) is float


def test_static_minmax_vc_rejects_nan():
    with pytest.raises(ValueError, match=r"^weight row must be a finite number in \(-inf, inf\), got nan$"):
        static_minmax_vc(Graph(2, ((0, 1),)), (np.nan, 1.0))


# --- multi_minmax_cost --------------------------------------------------------


def test_multi_minmax_cost_examples():
    rows = [[5.0, 1.0, 7.0], [0.0, 9.0, 0.0]]
    assert multi_minmax_cost({1}, rows) == 10.0
    assert multi_minmax_cost({1}, np.zeros((0, 3))) == 0.0
    assert multi_minmax_cost(set(), rows) == 0.0
    with pytest.raises(ValueError):
        multi_minmax_cost({5}, rows)


def test_multi_minmax_cost_monotone():
    rng = SeededRng(33)
    for _ in range(50):
        n = 2 + rng.randrange(6)
        rows = [[rng.uniform(0.0, 3.0) for _ in range(n)] for _ in range(4)]
        s = {i for i in range(n) if rng.randrange(2)}
        extra = rng.randrange(n)
        assert multi_minmax_cost(s | {extra}, rows) >= multi_minmax_cost(s, rows) - 1e-12


# --- hindsight optimum --------------------------------------------------------


def test_hindsight_examples():
    path = Graph(3, ((0, 1), (1, 2)))
    seq = WeightSequence(3, [[5.0, 1.0, 7.0], [0.0, 9.0, 0.0]])
    s, total = best_static_vc_hindsight(path, seq)
    assert (s, total) == (frozenset({0, 2}), 7.0)
    assert naive_multi_cost({1}, seq.rows) == 10.0

    s, total = best_static_vc_hindsight(path, WeightSequence(3, np.zeros((0, 3))))
    assert total == 0.0
    assert is_vertex_cover(path, s)

    edge = Graph(2, ((0, 1),))
    seq = WeightSequence(2, [[1.0, 0.0]] * 3)
    assert best_static_vc_hindsight(edge, seq) == (frozenset({1}), 0.0)


def test_hindsight_matches_cover_enumeration():
    rng = SeededRng(44)
    for n in (3, 5, 7, 9):
        for _ in range(4):
            g = gen_random_graph(n, 0.45, rng)
            rows = [[rng.uniform(0.0, 2.0) for _ in range(n)] for _ in range(6)]
            seq = WeightSequence(n, rows)
            s, total = best_static_vc_hindsight(g, seq)
            assert is_vertex_cover(g, s)
            assert total == pytest.approx(naive_multi_cost(s, rows))
            best = min(naive_multi_cost(c, rows) for c in covers_by_enumeration(g))
            assert total == pytest.approx(best)


def test_hindsight_guard():
    g = Graph(26, ((0, 1),))
    with pytest.raises(ValueError):
        best_static_vc_hindsight(g, WeightSequence(26, np.zeros((0, 26))))


def test_minimal_covers_are_minimal_and_complete():
    rng = SeededRng(55)
    for n in (2, 4, 6, 8):
        for _ in range(3):
            g = gen_random_graph(n, 0.5, rng)
            got = set(minimal_vertex_covers(g))
            all_covers = covers_by_enumeration(g)
            expected = {
                c
                for c in all_covers
                if not any(o < c for o in all_covers)
            }
            assert got == expected


# --- brute_force_multi_matching ------------------------------------------------


def test_matching_oracle_four_cycle():
    # 4-cycle: two perfect matchings {01,23} and {12,03}
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    rows = [[1.0, 0.0, 1.0, 0.0]]  # penalize matching {01,23}
    m, cost = brute_force_multi_matching(g, rows)
    assert cost == 0.0
    assert m == frozenset({(1, 2), (0, 3)})

    m, cost = brute_force_multi_matching(g, np.zeros((0, 4)))
    assert cost == 0.0
    assert len(m) == 2


def test_matching_oracle_errors():
    with pytest.raises(ValueError, match="odd"):
        brute_force_multi_matching(Graph(3, ((0, 1), (1, 2), (0, 2))), np.zeros((0, 3)))
    # K_{1,3}: even vertex count but no perfect matching
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    with pytest.raises(ValueError, match="no perfect matching"):
        brute_force_multi_matching(star, np.zeros((0, 3)))
    big = Graph(18, tuple((i, i + 1) for i in range(0, 18, 2)))
    with pytest.raises(ValueError, match="guard"):
        brute_force_multi_matching(big, np.zeros((0, 9)))


def test_matching_oracle_matches_enumeration():
    rng = SeededRng(66)
    tried = 0
    while tried < 6:
        n = 4 + 2 * rng.randrange(3)  # 4, 6, or 8
        g = gen_random_graph(n, 0.6, rng)
        pms = perfect_matchings_by_enumeration(g)
        if not pms:
            continue
        tried += 1
        rows = np.array([[rng.uniform(0.0, 1.0) for _ in range(g.m)] for _ in range(5)])
        _, cost = brute_force_multi_matching(g, rows)
        best = min(rows[:, list(pm)].max(axis=1).sum() for pm in pms)
        assert cost == pytest.approx(best)


# --- brute_force_multi_path -----------------------------------------------------


def test_path_oracle_clause_example():
    chain = PathChain(3)
    row = np.zeros(6)
    row[chain.arc_index(0, "f")] = 1.0
    row[chain.arc_index(1, "f")] = 1.0
    row[chain.arc_index(2, "t")] = 1.0
    path, cost = brute_force_multi_path(chain, row[None, :])
    assert path == ("t", "t", "f")
    assert cost == 0.0


def test_path_oracle_trivial_cases():
    chain = PathChain(4)
    path, cost = brute_force_multi_path(chain, np.zeros((0, 8)))
    assert cost == 0.0 and len(path) == 4
    _, cost = brute_force_multi_path(chain, np.ones((1, 8)))
    assert cost == 1.0


def test_path_oracle_matches_enumeration():
    rng = SeededRng(77)
    for n in (2, 3, 5):
        chain = PathChain(n)
        rows = np.array(
            [[rng.uniform(0.0, 1.0) for _ in range(2 * n)] for _ in range(4)]
        )
        _, cost = brute_force_multi_path(chain, rows)
        best = min(
            rows[:, list(chain.path_arc_indices(labels))].max(axis=1).sum()
            for labels in itertools.product("tf", repeat=n)
        )
        assert cost == pytest.approx(best)


def test_path_oracle_guard():
    with pytest.raises(ValueError, match="guard"):
        brute_force_multi_path(PathChain(21), np.zeros((0, 42)))


# --- brute_force_multi_p3cmax ----------------------------------------------------


def test_p3cmax_triangle_instance():
    # one row per triangle edge, 1.0 at each endpoint job
    rows = [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    assignment, total = brute_force_multi_p3cmax(ProcTimeMatrix(3, rows))
    assert total == 3.0
    assert assignment == (0, 1, 2)  # lexicographically smallest proper coloring


def test_p3cmax_k4_instance():
    rows = []
    for u in range(4):
        for v in range(u + 1, 4):
            r = [0.0] * 4
            r[u] = r[v] = 1.0
            rows.append(r)
    _, total = brute_force_multi_p3cmax(ProcTimeMatrix(4, rows))
    assert total == 7.0  # K4 is not 3-colorable: one clash is forced


def test_p3cmax_empty_and_guard():
    assignment, total = brute_force_multi_p3cmax(ProcTimeMatrix(3, np.zeros((0, 3))))
    assert total == 0.0 and assignment == (0, 0, 0)
    with pytest.raises(ValueError, match="guard"):
        brute_force_multi_p3cmax(ProcTimeMatrix(13, np.zeros((0, 13))))


def test_p3cmax_matches_enumeration():
    rng = SeededRng(88)
    for n in (2, 3, 4):
        rows = [[rng.uniform(0.0, 2.0) for _ in range(n)] for _ in range(4)]
        _, total = brute_force_multi_p3cmax(ProcTimeMatrix(n, rows))
        best = np.inf
        for assign in itertools.product(range(3), repeat=n):
            t = 0.0
            for row in rows:
                loads = [0.0, 0.0, 0.0]
                for j, mach in enumerate(assign):
                    loads[mach] += row[j]
                t += max(loads)
            best = min(best, t)
        assert total == pytest.approx(best)
