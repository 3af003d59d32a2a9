"""Gap solver protocol and the four hardness gadgets."""

import itertools

import numpy as np
import pytest

import regretlab.reductions
from regretlab.instances import (
    Dnf3Formula,
    Graph,
    gen_random_dnf,
    gen_random_graph,
    gen_uniform_weights,
)
from regretlab.minmax import (
    brute_force_multi_matching,
    brute_force_multi_p3cmax,
    brute_force_multi_path,
    is_vertex_cover,
    minimal_vertex_covers,
    multi_minmax_cost,
    static_minmax_vc,
)
from regretlab.ogd import OgdConfig, ogd_run
from regretlab.reductions import (
    FtlMinMaxVcLearner,
    GapConfig,
    OgdVcLearner,
    assignment_to_path,
    dnf_to_matching,
    dnf_to_path,
    formula_id,
    gap_horizon,
    gap_solver,
    is_three_colorable,
    path_cost_of,
    threecolor_to_p3,
    validate_correspondence,
    vc_to_multi_vc,
)
from regretlab.rng import SeededRng
from regretlab.traces import trace_to_csv
from test_ogd import reference_ogd_iterates

K4 = Graph(4, tuple(itertools.combinations(range(4), 2)))
STAR6 = Graph(6, tuple((0, leaf) for leaf in range(1, 6)))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
PATH3 = Graph(3, ((0, 1), (1, 2)))


def perfect_matchings_by_enumeration(g):
    """All perfect matchings of g, found by brute force over edge subsets."""
    if g.n % 2:
        return []
    out = []
    for combo in itertools.combinations(g.edges, g.n // 2):
        touched = [v for e in combo for v in e]
        if len(set(touched)) == g.n:
            out.append(frozenset(combo))
    return out


# --- gap config and horizon -----------------------------------------------------


def test_gap_config_validation():
    GapConfig(A=0.25, B=0.5)
    for bad in (
        dict(A=0.5, B=0.5),
        dict(A=-0.1, B=0.5),
        dict(A=0.2, B=1.2),
        dict(A=0.2, B=0.5, c_exp=1.0),
        dict(A=0.2, B=0.5, p_coeff=0.0),
        dict(A=0.2, B=0.5, T_override=-1),
    ):
        with pytest.raises(ValueError):
            GapConfig(**bad)


def test_gap_horizon_formula():
    cfg = GapConfig(A=0.25, B=0.5, p_coeff=1.0, c_exp=0.5)
    assert gap_horizon(cfg, eps=1.0, n=1) == 16
    # doubling the slack doubles the base and quarters T at c = 1/2
    assert gap_horizon(cfg, eps=2.0, n=1) == 4
    unit = GapConfig(A=0.4, B=0.8, p_coeff=1.0, c_exp=0.5)
    assert gap_horizon(unit, eps=4.0, n=1) == 1


def test_gap_horizon_errors():
    cfg = GapConfig(A=0.25, B=0.5)
    with pytest.raises(ValueError):
        gap_horizon(cfg, eps=0.0, n=4)
    with pytest.raises(ValueError, match="T_override"):
        gap_horizon(GapConfig(A=0.0, B=0.5), eps=1.0, n=4)


@pytest.mark.parametrize("p_coeff", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_gap_config_refuses_a_non_finite_p_coeff(p_coeff):
    # NaN failed later as "cannot convert float NaN to integer", inf as "A·eps = 0"
    with pytest.raises(ValueError) as e:
        GapConfig(A=0.25, B=0.5, p_coeff=p_coeff)
    assert str(e.value) == f"regret coefficient p_coeff must be a finite number in (0, inf), got {p_coeff!r}"


@pytest.mark.parametrize("eps", [float("inf"), float("nan"), 0.0, -1.0], ids=["inf", "nan", "zero", "negative"])
def test_gap_decider_refuses_a_bad_eps_even_with_T_override(eps):
    # gap_horizon gave 0 rounds for eps = inf, and gap_solver fell back to
    # T_override on any ValueError of gap_horizon
    message = f"eps must be a finite number in (0, inf), got {eps!r}"
    with pytest.raises(ValueError) as e:
        gap_horizon(GapConfig(A=0.25, B=0.5), eps=eps, n=4)
    assert str(e.value) == message
    for A in (0.25, 0.0):
        with pytest.raises(ValueError) as e:
            gap_solver(K4, GapConfig(A=A, B=0.75, T_override=5), FtlMinMaxVcLearner(K4), SeededRng(1), eps=eps)
        assert str(e.value) == message


def test_gap_solver_falls_back_to_T_override_only_for_A_zero():
    res = gap_solver(K4, GapConfig(A=0.0, B=0.75, T_override=7), FtlMinMaxVcLearner(K4), SeededRng(1))
    assert res.T == 7
    with pytest.raises(ValueError, match="T_override"):
        gap_solver(K4, GapConfig(A=0.0, B=0.75), FtlMinMaxVcLearner(K4), SeededRng(1))


def test_a_horizon_that_overflows_is_refused_or_cut_to_T_override():
    # the power overflowed as a bare OverflowError, with T_override or without
    cfg = GapConfig(A=1e-300, B=0.6, c_exp=0.99)
    with pytest.raises(ValueError) as e:
        gap_horizon(cfg, eps=1.0, n=4)
    assert "overflows a float; set T_override" in str(e.value)
    with pytest.raises(ValueError, match="overflows a float; set T_override"):
        gap_solver(K4, cfg, FtlMinMaxVcLearner(K4), SeededRng(1))
    res = gap_solver(K4, GapConfig(A=1e-300, B=0.6, c_exp=0.99, T_override=6), FtlMinMaxVcLearner(K4), SeededRng(1))
    assert res.T == 6


# --- learners ---------------------------------------------------------------------


def test_ftl_learner_starts_with_star_center():
    learner = FtlMinMaxVcLearner(STAR6)
    assert learner.play() == 0b1


def test_ftl_learner_avoids_heavy_vertex():
    g = Graph(3, ((0, 1), (1, 2)))
    learner = FtlMinMaxVcLearner(g)
    assert learner.play() == 0b010
    learner.observe(np.array([0.0, 5.0, 0.0]), 5.0)
    assert learner.play() == 0b101


def as_mask(vertices):
    return sum(1 << v for v in vertices)


def reference_ftl_play(g, cum):
    """The FTL prune FtlMinMaxVcLearner.play replaced: drop each vertex in
    turn and put it back unless the rest is still a vertex cover. Returns
    the kept vertices as an int mask."""
    deg = np.zeros(g.n, dtype=np.int64)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    cover, _ = static_minmax_vc(g, cum)
    kept = set(cover)
    for v in sorted(kept, key=lambda v: (-cum[v], deg[v], -v)):
        kept.discard(v)
        if not is_vertex_cover(g, kept):
            kept.add(v)
    return as_mask(kept)


# running sums the FTL leader may hold: small integer counts, as one-hot
# rows sum to, tie heavily; floats and negative counts; signed zeros, which
# tie with each other but not in their bits
FTL_SUMS = (
    lambda rng: float(rng.randrange(4)),
    lambda rng: rng.uniform(-2.0, 2.0),
    lambda rng: float(rng.randrange(5)) - 3.0,
    lambda rng: (-0.0, 0.0, 1.0, -1.0)[rng.randrange(4)],
)


def ftl_test_graph(rng):
    """A graph on 1-20 vertices: G(k, p) on the first k, with the rest
    isolated, and every tenth graph without edges."""
    n = 1 + rng.randrange(20)
    if rng.randrange(10) == 0:
        return Graph(n, ())
    sub = gen_random_graph(1 + rng.randrange(n), rng.uniform(0.0, 1.0), rng)
    return Graph(n, sub.edges)


def test_ftl_prune_matches_cover_check_reference_on_ties():
    rng = SeededRng(78)
    kinds = [0] * len(FTL_SUMS)
    for _ in range(600):
        g = ftl_test_graph(rng)
        learner = FtlMinMaxVcLearner(g)
        for _ in range(3):
            kind = rng.randrange(len(FTL_SUMS))
            kinds[kind] += 1
            learner.cum = [FTL_SUMS[kind](rng) for _ in range(g.n)]
            assert learner.play() == reference_ftl_play(g, learner.cum)
    assert min(kinds) > 300


def test_ftl_observed_sums_match_cover_check_reference():
    # rows of either sign with signed zeros, summed by observe itself
    rng = SeededRng(79)
    for _ in range(100):
        g = ftl_test_graph(rng)
        learner = FtlMinMaxVcLearner(g)
        cum = np.zeros(g.n)
        for _ in range(6):
            row = [(-0.0, 0.0, 1.0, -1.0, rng.uniform(-1.0, 1.0))[rng.randrange(5)] for _ in range(g.n)]
            learner.observe(row, 0.0)
            cum += row
            assert np.array(learner.cum).tobytes() == cum.tobytes()
            assert learner.play() == reference_ftl_play(g, cum)


def test_ftl_prune_on_edgeless_and_isolated_vertices():
    assert FtlMinMaxVcLearner(Graph(3, ())).play() == 0
    # isolated vertices are never needed, at any running sum
    g = Graph(5, ((0, 1), (1, 2)))
    learner = FtlMinMaxVcLearner(g)
    for cum, played in (
        ([0.0] * 5, {1}),
        ([1.0, 0.0, 1.0, 2.0, -0.0], {1}),
        ([-1.0, 0.0, -1.0, -5.0, -0.0], {0, 2}),
        ([0.0, 3.0, 0.0, -1.0, -1.0], {0, 2}),
    ):
        learner.cum = cum
        assert learner.play() == as_mask(played) == reference_ftl_play(g, cum)


@pytest.mark.parametrize("step_mode", ["scaled", "paper"])
def test_ogd_learner_matches_batch_runner(step_mode):
    rng = SeededRng(77)
    g = gen_random_graph(7, 0.5, rng)
    seq = gen_uniform_weights(7, 25, 1.0, rng)
    cfg = OgdConfig(step_mode=step_mode)
    trace = ogd_run(g, seq, cfg, compute_benchmark=False)
    iterates = reference_ogd_iterates(g, seq.rows, cfg)
    learner = OgdVcLearner(g, cfg)
    for t in range(seq.T):
        assert np.array(learner.x).tobytes() == iterates[t].tobytes()
        assert learner.play() == trace.masks[t]
        learner.observe(seq.rows[t], 0.0)
    assert np.array(learner.x).tobytes() == iterates[seq.T].tobytes()


def test_ogd_learner_rejects_bad_rows():
    learner = OgdVcLearner(K4)
    for row in ([1.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0], [-np.inf, 1.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="weight row"):
            learner.observe(np.array(row), 0.0)
    assert learner.t == 1  # nothing was stepped


def test_ftl_learner_rejects_non_finite_rows():
    learner = FtlMinMaxVcLearner(PATH3)
    for row in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [-np.inf, 1.0, 0.0]):
        with pytest.raises(ValueError, match=r"weight row must be a finite number in \(-inf, inf\), got"):
            learner.observe(np.array(row), 0.0)
    assert learner.cum == [0.0, 0.0, 0.0]  # nothing was added
    assert learner.play() == 0b010


def test_ftl_learner_rejects_rows_of_the_wrong_length():
    learner = FtlMinMaxVcLearner(PATH3)
    # a length-1 row would broadcast into every vertex
    for row in ([5.0], [1.0, 0.0], [1.0, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="weight row must have length 3"):
            learner.observe(np.array(row), 0.0)
    with pytest.raises(ValueError, match="weight row must be a list of numbers"):
        learner.observe(np.array([[1.0, 0.0, 0.0]]), 0.0)
    assert learner.cum == [0.0, 0.0, 0.0]
    learner.observe([0.0, 5.0, 0.0], 5.0)  # a plain list of the right length is a row
    assert learner.play() == 0b101


def test_ftl_threshold_follows_assigned_sums():
    learner = FtlMinMaxVcLearner(PATH3)
    assert learner.play() == 0b010  # the threshold is kept from here
    mine = [0.0, 5.0, 0.0]
    learner.cum = mine
    assert learner.play() == 0b101
    learner.observe_vertex(0, 0.0)
    learner.observe_vertex(2, 1.0)
    assert mine == [0.0, 5.0, 0.0]  # the learner added into its own copy
    assert learner.cum == [1.0, 5.0, 1.0]
    assert learner.play() == reference_ftl_play(PATH3, learner.cum) == 0b101
    for _ in range(5):
        learner.observe_vertex(0, 0.0)  # cum[0] = 6 passes cum[1]: the threshold rises
    assert learner.play() == reference_ftl_play(PATH3, learner.cum) == 0b010


@pytest.mark.parametrize("kind", [FtlMinMaxVcLearner, OgdVcLearner])
@pytest.mark.parametrize(
    "u, message",
    [
        (3, r"^a revealed vertex must be in \[0, 3\), got 3$"),
        (-1, r"^a revealed vertex must be in \[0, 3\), got -1$"),
        (True, r"^a revealed vertex must be an integer, got True$"),
        (1.0, r"^a revealed vertex must be an integer, got 1\.0$"),
    ],
)
def test_learners_refuse_a_revealed_vertex_out_of_range(kind, u, message):
    learner = kind(PATH3)
    with pytest.raises(ValueError, match=message):
        learner.observe_vertex(u, 0.0)
    learner.observe_vertex(np.int64(1), 0.0)  # an integer numpy scalar passes
    fresh = kind(PATH3)
    fresh.observe_vertex(1, 0.0)
    assert learner.play() == fresh.play()


# --- gap solver --------------------------------------------------------------------


def test_gap_solver_k4_always_no():
    # every vertex cover of K4 has >= 3 = B*n vertices, so Yes is unreachable
    assert min(len(c) for c in minimal_vertex_covers(K4)) == 3
    cfg = GapConfig(A=0.25, B=0.75, T_override=60)
    for seed in range(10):
        for learner in (FtlMinMaxVcLearner(K4), OgdVcLearner(K4)):
            res = gap_solver(K4, cfg, learner, SeededRng(seed))
            assert res.decision == "No"
            assert res.yes_round is None
            assert res.trace.T == res.T


def test_gap_solver_star_yes():
    cfg = GapConfig(A=1 / 6, B=0.5, T_override=50)
    hits = 0
    for seed in range(20):
        res = gap_solver(STAR6, cfg, FtlMinMaxVcLearner(STAR6), SeededRng(seed))
        hits += res.decision == "Yes"
    assert hits / 20 >= 0.5


def test_gap_solver_zero_horizon_is_no():
    cfg = GapConfig(A=0.25, B=0.75, T_override=0)
    res = gap_solver(K4, cfg, FtlMinMaxVcLearner(K4), SeededRng(1))
    assert res.decision == "No"
    assert res.T == 0
    assert res.trace.T == 0


def test_gap_solver_rejects_non_cover():
    class Liar:
        def play(self):
            return 0b1

        def observe(self, w_row, cost):
            pass

    cfg = GapConfig(A=0.25, B=0.3, T_override=5)
    with pytest.raises(ValueError, match="non-cover at round 1"):
        gap_solver(K4, cfg, Liar(), SeededRng(1))


class ScriptedLearner:
    """Plays the given masks in turn, one per round."""

    def __init__(self, plays):
        self.plays = plays
        self.t = 0

    def play(self):
        return self.plays[self.t]

    def observe(self, w_row, cost):
        self.t += 1


@pytest.mark.parametrize("kind", [int, np.int64])
def test_gap_solver_checks_each_distinct_set_once_and_raises_at_the_first_non_cover(monkeypatch, kind):
    checked = []

    def counting_check(mask, nbr, t):
        checked.append(mask)
        return check_cover(mask, nbr, t)

    check_cover = regretlab.reductions._check_cover
    monkeypatch.setattr("regretlab.reductions._check_cover", counting_check)
    # covers of K4 with 3 = B*n vertices, so the run never answers Yes
    a, b = 0b0111, 0b1110
    cfg = GapConfig(A=0.25, B=0.75, T_override=10)
    plays = [kind(s) for s in (a, a, b, a, b, b, 0b0011, a)]
    with pytest.raises(ValueError, match="^learner emitted a non-cover at round 7$"):
        gap_solver(K4, cfg, ScriptedLearner(plays), SeededRng(3))
    assert checked == [a, b, 0b0011] and all(type(m) is int for m in checked)
    # the same sets, every one a cover, run to the horizon
    checked.clear()
    plays = [kind(s) for s in (a, b, a, a, b, a, b, b, a, a)]
    res = gap_solver(K4, cfg, ScriptedLearner(plays), SeededRng(3))
    assert res.decision == "No" and res.trace.masks == tuple(plays)
    assert all(type(m) is int for m in res.trace.masks)
    assert res.trace.actions == tuple(frozenset(v for v in range(4) if m >> v & 1) for m in plays)
    assert checked == [a, b]


def test_gap_solver_cover_check_is_the_set_rule():
    # every mask of small graphs, isolated vertices and edgeless graphs among them
    rng = SeededRng(80)
    cfg = GapConfig(A=0.1, B=0.2, T_override=1)
    for _ in range(40):
        g = ftl_test_graph(rng)
        for mask in range(min(1 << g.n, 256)):
            members = [v for v in range(g.n) if mask >> v & 1]
            learner = ScriptedLearner([mask])
            if is_vertex_cover(g, members):
                assert gap_solver(g, cfg, learner, SeededRng(1)).trace.masks == (mask,)
            else:
                with pytest.raises(ValueError, match="^learner emitted a non-cover at round 1$"):
                    gap_solver(g, cfg, learner, SeededRng(1))


@pytest.mark.parametrize(
    "bad, message",
    [
        (True, r"^round 2: a learner's play must be an integer, got True$"),
        (np.bool_(True), r"^round 2: a learner's play must be an integer, got np\.True_$"),
        (1.0, r"^round 2: a learner's play must be an integer, got 1\.0$"),
        (frozenset({0, 1, 2}), r"^round 2: a learner's play must be an integer, got frozenset\(\{0, 1, 2\}\)$"),
        (-1, r"^round 2: learner played mask -1, not a set of the 4 vertices$"),
        (0b0111 | 1 << 99, rf"^round 2: learner played mask {0b0111 | 1 << 99}, not a set of the 4 vertices$"),
        (0b10111, r"^round 2: learner played mask 23, not a set of the 4 vertices$"),
    ],
)
def test_gap_solver_refuses_a_play_that_is_not_a_vertex_mask(bad, message):
    cfg = GapConfig(A=0.25, B=0.75, T_override=10)
    with pytest.raises(ValueError, match=message):
        gap_solver(K4, cfg, ScriptedLearner([0b1111, bad, 0b0111]), SeededRng(3))
    # mask 1, the star's center, is a checked cover after round 1, and
    # True == 1 must still be refused
    cfg = GapConfig(A=0.1, B=1 / 6, T_override=10)
    with pytest.raises(ValueError, match=r"^round 2: a learner's play must be an integer, got True$"):
        gap_solver(STAR6, cfg, ScriptedLearner([0b1, True]), SeededRng(3))
    assert gap_solver(STAR6, cfg, ScriptedLearner([0b1] * 10), SeededRng(3)).decision == "No"


def test_gap_solver_guards_huge_horizon():
    cfg = GapConfig(A=0.001, B=0.5)
    with pytest.raises(ValueError, match="T_override"):
        gap_solver(K4, cfg, FtlMinMaxVcLearner(K4), SeededRng(1))


def test_gap_solver_adversary_is_oblivious():
    # same seed, different learners: the pre-drawn rows are identical
    cfg = GapConfig(A=0.25, B=0.75, T_override=40)
    res_a = gap_solver(K4, cfg, FtlMinMaxVcLearner(K4), SeededRng(123))
    res_b = gap_solver(K4, cfg, OgdVcLearner(K4), SeededRng(123))
    assert res_a.targets == res_b.targets
    assert np.array_equal(res_a.weight_rows(), res_b.weight_rows())
    rows = res_a.weight_rows()
    assert rows.shape == (40, 4)
    assert np.array_equal(rows.sum(axis=1), np.ones(40))


def test_gap_solver_costs_and_trace():
    cfg = GapConfig(A=0.25, B=0.75, T_override=30)
    res = gap_solver(K4, cfg, FtlMinMaxVcLearner(K4), SeededRng(5))
    for u, played, mask, cost in zip(res.targets, res.trace.actions, res.trace.masks, res.trace.values, strict=True):
        assert cost == (1.0 if u in played else 0.0) == (1.0 if mask >> u & 1 else 0.0)
    text = trace_to_csv(res.trace)
    assert text.splitlines()[0] == "t,played_set,cost,cum_cost"


# --- matching gadget ---------------------------------------------------------------


def spec_formula_a():
    # x1 AND NOT x2 AND x3, one clause over three variables
    return Dnf3Formula(3, (((0, True), (1, False), (2, True)),))


def test_matching_gadget_structure():
    f = spec_formula_a()
    gadget = dnf_to_matching(f)
    assert gadget.graph.n == 12
    assert gadget.graph.m == 12
    assert gadget.n_vars == 3
    assert gadget.vertex_roles[0] == (0, "u")
    assert gadget.vertex_roles[5] == (1, "t")
    assert gadget.vertex_roles[6] == (1, "bar")
    assert gadget.vertex_roles[11] == (2, "f")
    # one 4-cycle per variable -> 2^n perfect matchings
    assert len(perfect_matchings_by_enumeration(gadget.graph)) == 8


def test_matching_gadget_weight_placement():
    gadget = dnf_to_matching(spec_formula_a())
    row = gadget.weight_rows[0]
    # positive literals charge u-f edges, negative literals charge u-t edges
    lit_cols = {
        gadget.graph.edges.index((0, 3)),
        gadget.graph.edges.index((4, 5)),
        gadget.graph.edges.index((8, 11)),
    }
    assert set(np.flatnonzero(row)) == lit_cols
    # ubar-incident edges never carry weight
    for idx, (u, v) in enumerate(gadget.graph.edges):
        roles = (gadget.vertex_roles[u][1], gadget.vertex_roles[v][1])
        if "bar" in roles:
            assert gadget.weight_rows[:, idx].max(initial=0.0) == 0.0


def test_matching_gadget_spec_assignments():
    gadget = dnf_to_matching(spec_formula_a())
    assert gadget.cost_of([True, False, True]) == 0.0
    assert gadget.cost_of([True, True, True]) == 1.0


def test_matching_for_is_bijective_onto_perfect_matchings():
    gadget = dnf_to_matching(Dnf3Formula(2, ()))
    images = {gadget.matching_for([bool(b >> i & 1) for i in range(2)]) for b in range(4)}
    assert len(images) == 4
    assert images == set(perfect_matchings_by_enumeration(gadget.graph))


def test_matching_cost_agrees_with_direct_evaluation():
    f = gen_random_dnf(4, 6, SeededRng(32))
    gadget = dnf_to_matching(f)
    edge_idx = {e: i for i, e in enumerate(gadget.graph.edges)}
    for bits in range(16):
        sigma = [bool(bits >> i & 1) for i in range(4)]
        matched = [edge_idx[e] for e in gadget.matching_for(sigma)]
        direct = sum(
            max(gadget.weight_rows[j, k] for k in matched) for j in range(f.m)
        )
        assert gadget.cost_of(sigma) == direct


def test_matching_optimum_equals_max_satisfiable():
    f = gen_random_dnf(3, 5, SeededRng(33))
    gadget = dnf_to_matching(f)
    _, best_cost = brute_force_multi_matching(gadget.graph, gadget.weight_rows)
    best_sat = max(
        f.num_satisfied([bool(b >> i & 1) for i in range(3)]) for b in range(8)
    )
    assert best_cost == f.m - best_sat


# --- path gadget -------------------------------------------------------------------


def spec_formula_b():
    # x1 AND x2 AND NOT x3
    return Dnf3Formula(3, (((0, True), (1, True), (2, False)),))


def test_path_gadget_weight_placement():
    chain, rows = dnf_to_path(spec_formula_b())
    assert chain.n_stages == 3
    assert rows.shape == (1, 6)
    assert set(np.flatnonzero(rows[0])) == {1, 3, 4}  # e^f_1, e^f_2, e^t_3


def test_path_gadget_spec_paths():
    chain, rows = dnf_to_path(spec_formula_b())
    assert path_cost_of(chain, rows, [True, True, False]) == 0.0
    assert path_cost_of(chain, rows, [False, True, False]) == 1.0
    assert assignment_to_path([True, True, False]) == ("t", "t", "f")


def test_path_optimum_equals_max_satisfiable():
    f = gen_random_dnf(4, 7, SeededRng(34))
    chain, rows = dnf_to_path(f)
    _, best_cost = brute_force_multi_path(chain, rows)
    best_sat = max(
        f.num_satisfied([bool(b >> i & 1) for i in range(4)]) for b in range(16)
    )
    assert best_cost == f.m - best_sat


# --- vertex cover and coloring embeddings ---------------------------------------


def test_vc_rows_price_cardinality():
    g = Graph(3, ((0, 1), (1, 2)))
    seq = vc_to_multi_vc(g)
    assert seq.T == 3
    assert multi_minmax_cost({1}, seq.rows) == 1.0
    assert multi_minmax_cost({0, 2}, seq.rows) == 2.0
    assert multi_minmax_cost(range(3), seq.rows) == 3.0


def test_vc_rows_price_cardinality_exhaustively():
    g = gen_random_graph(8, 0.4, SeededRng(35))
    seq = vc_to_multi_vc(g)
    for bits in range(1 << 8):
        s = {i for i in range(8) if bits >> i & 1}
        assert multi_minmax_cost(s, seq.rows) == float(len(s))


def test_threecolor_rows():
    mat = threecolor_to_p3(TRIANGLE)
    assert mat.N == 3
    _, total = brute_force_multi_p3cmax(mat)
    assert total == 3.0
    _, total_k4 = brute_force_multi_p3cmax(threecolor_to_p3(K4))
    assert total_k4 == 7.0
    edgeless = Graph(4, ())
    _, total_empty = brute_force_multi_p3cmax(threecolor_to_p3(edgeless))
    assert total_empty == 0.0


def test_three_colorable_brute():
    assert is_three_colorable(TRIANGLE)
    assert not is_three_colorable(K4)
    c5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    assert is_three_colorable(c5)
    assert not is_three_colorable(c5, n_colors=2)


def test_threecolor_schedule_cross_check():
    for seed in range(25):
        g = gen_random_graph(6, 0.5, SeededRng(900 + seed))
        _, total = brute_force_multi_p3cmax(threecolor_to_p3(g))
        assert (total == float(g.m)) == is_three_colorable(g)


# --- correspondence validator ------------------------------------------------------


def test_validator_clean_on_random_formulas():
    for seed in range(10):
        f = gen_random_dnf(4, 5, SeededRng(600 + seed))
        report = validate_correspondence(f)
        assert report["assignments_checked"] == 16
        assert report["violations"] == []
        assert len(report["formula_id"]) == 12


def test_validator_empty_formula():
    report = validate_correspondence(Dnf3Formula(3, ()))
    assert report["assignments_checked"] == 8
    assert report["violations"] == []


def test_validator_single_clause_satisfying_set():
    f = spec_formula_a()
    gadget = dnf_to_matching(f)
    sat_assignments = {
        bits
        for bits in range(8)
        if f.num_satisfied([bool(bits >> i & 1) for i in range(3)]) == 1
    }
    assert sat_assignments == {
        bits for bits in range(8) if gadget.cost_of([bool(bits >> i & 1) for i in range(3)]) == 0.0
    }
    assert len(sat_assignments) == 1  # a conjunction pins every variable


def test_validator_guard_and_id_stability():
    with pytest.raises(ValueError):
        validate_correspondence(Dnf3Formula(13, ()))
    f = spec_formula_a()
    assert formula_id(f) == formula_id(spec_formula_a()) == "353c63425b64"  # a report ID: pinned
    assert formula_id(f) != formula_id(spec_formula_b())
