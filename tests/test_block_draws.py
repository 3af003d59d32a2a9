"""Block draws against the scalar loops they replaced, bit for bit.

The seeded generators take a fixed-size block of uniforms in one
``SeededRng.uniform_array`` / ``random_array`` call, and a block of
bounded ints in one ``randrange_array`` call. The references below are
the per-element loops they replaced, kept here as the specification:
over a sweep of seeds and shapes (empty, single-element and degenerate
ranges included) both must give the same bits and leave the stream
in the same state.
"""

import numpy as np
import pytest

from regretlab.cli import _feasible_sample
from regretlab.gftpl import GftplConfig, draw_perturbation
from regretlab.instances import (
    GkpInstanceSet,
    GkpRound,
    GkpStatic,
    Graph,
    gen_onehot_weights,
    gen_random_gkp,
    gen_random_graph,
    gen_uniform_weights,
    random_gkp_rounds,
)
from regretlab.reductions import _TARGET_BLOCK, GapConfig, gap_solver
from regretlab.rng import SeededRng

SEEDS = range(40)


def ref_random_graph(n, p, rng):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, tuple(edges))


def ref_uniform_rows(n, T, W, rng):
    rows = np.empty((T, n))
    for t in range(T):
        for i in range(n):
            rows[t, i] = rng.uniform(0.0, W)
    return rows


def ref_onehot_rows(n, T, rng):
    rows = np.zeros((T, n))
    for t in range(T):
        rows[t, rng.randrange(n)] = 1.0
    return rows


def ref_random_gkp(n, m, rng):
    w = np.array([rng.uniform(0.1, 1.0) for _ in range(n)])
    c = rng.uniform(0.0, 1.0)
    static = GkpStatic(n, w, c)
    total = float(w.sum())
    rounds = []
    for _ in range(m):
        p = np.array([rng.uniform(0.0, 1.0) for _ in range(n)])
        B = rng.uniform(0.0, total)
        rounds.append(GkpRound(p, B))
    return GkpInstanceSet(static, tuple(rounds))


def ref_harness_rounds(static, T, rng):
    # the experiment harness's former copy of the round generator
    total = static.total_weight
    return [
        GkpRound(np.array([rng.random() for _ in range(static.n)]), rng.uniform(0.0, total))
        for _ in range(T)
    ]


def ref_perturbation(N, eta, rng):
    return np.array([rng.uniform(0.0, eta) for _ in range(N)])


def ref_feasible_sample(g, rng):
    z = np.array([0.5 + 0.5 * rng.random() for _ in range(g.n)])
    touched = {v for e in g.edges for v in e}
    for v in range(g.n):
        if v not in touched:
            z[v] = rng.random()
    return z


def pair(seed):
    """Two generators at the same mid-stream state (not the seed itself)."""
    a, b = SeededRng(seed), SeededRng(seed)
    a.next_u64()
    b.next_u64()
    return a, b


def same_state(a, b):
    return a._state == b._state and a.next_u64() == b.next_u64()


def rounds_bits(rounds):
    return [(r.p.tobytes(), r.B.hex()) for r in rounds]


def gkp_bits(inst):
    return inst.static.w.tobytes(), inst.static.c.hex(), rounds_bits(inst.rounds)


@pytest.mark.parametrize("n, p", [(1, 0.5), (2, 0.0), (2, 1.0), (9, 0.0), (9, 1.0), (13, 0.4)])
def test_random_graph_matches_the_pair_loop(n, p):
    for seed in SEEDS:
        a, b = pair(seed)
        assert gen_random_graph(n, p, a) == ref_random_graph(n, p, b)
        assert same_state(a, b)


@pytest.mark.parametrize("W", [1e-300, 0.0, -0.0, 1.0, 7.25])
@pytest.mark.parametrize("n, T", [(1, 0), (4, 0), (1, 1), (1, 7), (5, 3), (20, 11)])
def test_uniform_weights_match_the_element_loop(n, T, W):
    for seed in SEEDS:
        a, b = pair(seed)
        got = gen_uniform_weights(n, T, W, a).rows
        want = ref_uniform_rows(n, T, W, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert same_state(a, b)


@pytest.mark.parametrize("n, T", [(1, 0), (4, 0), (1, 1), (1, 7), (5, 3), (20, 300)])
def test_onehot_weights_match_the_row_loop(n, T):
    for seed in SEEDS:
        a, b = pair(seed)
        got = gen_onehot_weights(n, T, a).rows
        want = ref_onehot_rows(n, T, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert same_state(a, b)


class _WholeSet:
    """A learner that always plays every vertex: never a Yes, so a gap run
    goes the whole horizon."""

    def __init__(self, n):
        self.mask = (1 << n) - 1

    def play(self):
        return self.mask

    def observe_vertex(self, u, cost):
        pass


@pytest.mark.parametrize("T", [0, 1, _TARGET_BLOCK, _TARGET_BLOCK + 3])
def test_gap_targets_match_the_round_loop_across_blocks(T):
    g = Graph(5, ((0, 1), (2, 3)))
    a, b = pair(3)
    # A = 0 leaves the horizon unbounded, so T_override sets it
    result = gap_solver(g, GapConfig(A=0.0, B=0.4, T_override=T), _WholeSet(g.n), a)
    assert result.T == T and result.trace.T == T
    assert result.targets == tuple(b.randrange(g.n) for _ in range(T))
    assert same_state(a, b)


@pytest.mark.parametrize("n, m", [(1, 0), (1, 1), (3, 0), (3, 5), (8, 9)])
def test_random_gkp_matches_the_round_loop(n, m):
    for seed in SEEDS:
        a, b = pair(seed)
        assert gkp_bits(gen_random_gkp(n, m, a)) == gkp_bits(ref_random_gkp(n, m, b))
        assert same_state(a, b)


@pytest.mark.parametrize("w", [[0.0], [0.0, 0.0], [0.25, 1.5, 3.0], [0.9] * 7])
@pytest.mark.parametrize("T", [0, 1, 6])
def test_random_rounds_match_the_former_harness_copy(w, T):
    static = GkpStatic(len(w), np.array(w), 0.5)
    for seed in SEEDS:
        a, b = pair(seed)
        assert rounds_bits(random_gkp_rounds(static, T, a)) == rounds_bits(
            ref_harness_rounds(static, T, b)
        )
        assert same_state(a, b)


@pytest.mark.parametrize("N, eta", [(1, 0.0), (1, 1e-300), (4, 2.5), (9, 31.75)])
def test_perturbation_matches_the_component_loop(N, eta):
    for seed in SEEDS:
        a, b = pair(seed)
        got = draw_perturbation(GftplConfig(N=N, eta=eta), a).a
        assert got.tobytes() == ref_perturbation(N, eta, b).tobytes()
        assert same_state(a, b)


@pytest.mark.parametrize(
    "g",
    [
        Graph(1, ()),
        Graph(4, ()),
        Graph(3, ((0, 1), (1, 2))),
        Graph(7, ((0, 3), (3, 5))),  # isolated vertices before, between and after
        Graph(6, ((0, 1), (2, 3), (4, 5))),
    ],
)
def test_verify_projection_draws_match_the_coordinate_loops(g):
    for seed in SEEDS:
        a, b = pair(seed)
        # one trial's draws: the point to project, then two contenders
        assert a.uniform_array(-2.0, 3.0, g.n).tobytes() == np.array(
            [b.uniform(-2.0, 3.0) for _ in range(g.n)]
        ).tobytes()
        for _ in range(2):
            assert _feasible_sample(g, a).tobytes() == ref_feasible_sample(g, b).tobytes()
        assert same_state(a, b)
