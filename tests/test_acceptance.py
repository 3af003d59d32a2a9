"""Acceptance gate: one test per criterion, run at desk scale.

Each test covers one numbered acceptance criterion end to end — real runs
at the stated sizes, seeds, and tolerances, nothing mocked. ``pytest -v``
gives the one-line pass/fail verdict per criterion; each test also prints
a summary line (visible with ``-s`` or on failure). The whole module is
budgeted to finish in well under five minutes.
"""

import itertools

import numpy as np
import pytest

from regretlab.gftpl import GftplConfig, gftpl_run
from regretlab.gkp import (
    ExcessFunction,
    brute_oracle,
    distinguisher_set,
    excess_value,
    fptas_oracle,
    gkp_profit,
    multi_gkp_profit,
)
from regretlab.instances import (
    GkpRound,
    GkpStatic,
    Graph,
    gen_random_dnf,
    gen_random_graph,
    gen_random_gkp,
    gen_uniform_weights,
)
from regretlab.minmax import is_vertex_cover, multi_minmax_cost, brute_force_multi_p3cmax
from regretlab.ogd import OgdConfig, fractional_feasible, ogd_run, project_vc_polytope, theorem2_bound
from regretlab.reductions import (
    FtlMinMaxVcLearner,
    GapConfig,
    OgdVcLearner,
    gap_solver,
    is_three_colorable,
    threecolor_to_p3,
    validate_correspondence,
    vc_to_multi_vc,
)
from regretlab.rng import SeededRng


def report(num, label, ok, detail):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


# --- criteria 1 & 2: projected subgradient descent on min-max vertex cover -----

OGD_SIZES = (6, 10, 16, 20)
OGD_SEEDS = 30
OGD_T = 2000


@pytest.fixture(scope="module")
def ogd_fleet():
    """30 seeds x n in {6,10,16,20}: ER(p=0.4) graphs, U[0,1] weights, T=2000."""
    runs = []
    for n in OGD_SIZES:
        for s in range(OGD_SEEDS):
            rng = SeededRng(41_000 + 100 * n + s)
            g = gen_random_graph(n, 0.4, rng)
            seq = gen_uniform_weights(n, OGD_T, 1.0, rng)
            tr = ogd_run(g, seq, OgdConfig(step_mode="scaled"))
            runs.append((n, s, tr))
    return runs


def test_criterion_1_ogd_cumulative_cost_within_regret_bound(ogd_fleet):
    worst = -np.inf
    bad = []
    for n, s, tr in ogd_fleet:
        limit = 2.0 * tr.benchmark + theorem2_bound(1.0, n, OGD_T)
        worst = max(worst, tr.cumulative - limit)
        if tr.cumulative > limit:
            bad.append((n, s))
    report(
        1,
        "ogd regret bound",
        not bad,
        f"{len(ogd_fleet)} runs, cum <= 2*OPT + 3*sqrt(nT) on every seed "
        f"(worst margin {worst:+.1f}); failures: {bad}",
    )


def test_criterion_2_rounding_never_exceeds_twice_fractional(ogd_fleet):
    rounds = 0
    bad = 0
    for _, _, tr in ogd_fleet:
        for int_cost, frac_cost in zip(tr.values, tr.extras["frac_cost"], strict=True):
            rounds += 1
            if int_cost > 2.0 * frac_cost:  # exact, no slack
                bad += 1
    report(
        2,
        "integral <= 2x fractional",
        bad == 0,
        f"{rounds} rounds checked exactly, {bad} violations",
    )


# --- criterion 3: projection onto the vertex-cover polytope --------------------


def _feasible_points(g, rng, count):
    """Random points of the polytope: 0.5 + 0.5*u covers every edge; vertices
    with no edge are unconstrained inside the box."""
    iso = np.ones(g.n, dtype=bool)
    for u, v in g.edges:
        iso[u] = iso[v] = False
    # the same draws, in the same order, as count * n calls of rng.random()
    u = rng.random_array(count * g.n).reshape(count, g.n)
    return np.where(iso, u, 0.5 + 0.5 * u)


def test_criterion_3_projection_feasible_optimal_idempotent():
    rng = SeededRng(43_000)
    pairs = 1000
    inf_bad = opt_bad = idem_bad = 0
    for _ in range(pairs):
        n = 2 + rng.randrange(14)
        g = gen_random_graph(n, 0.15 + 0.7 * rng.random(), rng)
        y = np.array([-2.0 + 5.0 * rng.random() for _ in range(n)])
        x = project_vc_polytope(y, g)
        if not fractional_feasible(x, g, 1e-8):
            inf_bad += 1
        z = _feasible_points(g, rng, 1000)
        dist = float(np.linalg.norm(y - x))
        if dist > np.linalg.norm(y - z, axis=1).min() + 1e-6:
            opt_bad += 1
        if np.linalg.norm(project_vc_polytope(x, g) - x) > 1e-8:
            idem_bad += 1
    report(
        3,
        "projection",
        inf_bad == opt_bad == idem_bad == 0,
        f"{pairs} (graph, y) pairs x 1000 feasible contenders: "
        f"{inf_bad} infeasible, {opt_bad} beaten by a contender, {idem_bad} non-idempotent",
    )


# --- criterion 4: approximation guarantee of the scaling oracle ----------------


def test_criterion_4_fptas_within_stated_factor_of_brute():
    rng = SeededRng(44_000)
    checked = bad = 0
    for _ in range(100):
        n = 1 + rng.randrange(12)
        m = 1 + rng.randrange(5)
        inst = gen_random_gkp(n, m, rng)
        _, opt = brute_oracle(inst.static, inst.rounds)
        for eps in (0.5, 0.1, 0.01):
            _, got = fptas_oracle(inst.static, inst.rounds, eps)
            checked += 1
            if got < (1.0 - eps) * opt - 1e-12:
                bad += 1
    report(
        4,
        "fptas guarantee",
        bad == 0,
        f"{checked} (instance, eps) pairs: value >= (1-eps)*optimum in all but {bad}",
    )


# --- criterion 5: the distinguisher's induced payoff matrix --------------------


def test_criterion_5_distinguisher_payoff_matrix_admissible():
    rng = SeededRng(45_000)
    statics = 0
    for n in range(1, 11):
        for _ in range(3):
            statics += 1
            w = np.array([rng.uniform(0.1, 2.0) for _ in range(n)])
            static = GkpStatic(n, w, rng.uniform(0.0, 2.0))
            rounds = distinguisher_set(static, P=1.0)
            gamma = np.array(
                [
                    [gkp_profit({i for i in range(n) if x >> i & 1}, static, r) for r in rounds]
                    for x in range(1 << n)
                ]
            )
            seen = {tuple(row) for row in gamma}
            assert len(seen) == 1 << n  # all rows distinct
            for j in range(n):
                col = set(gamma[:, j])
                assert len(col) <= 2
                assert max(col) - min(col) == 1.0  # gap is exactly P
    report(
        5,
        "distinguisher admissibility",
        True,
        f"all 2^n rows distinct, column gap exactly 1.0, for {statics} statics up to n=10",
    )


# --- criterion 6: vanishing regret of the perturbed-leader engine --------------

GFTPL_N = 6
GFTPL_GF = GFTPL_N * 255 / 64  # max possible per-round profit sum


def _gftpl_replica(seed, T):
    """Binding capacities and a real penalty slope keep static sets apart.

    The run uses the engine's exact leader (oracle=None); test_gftpl and
    test_harness pin that it plays what CachingBruteOracle would."""
    rng = SeededRng(seed)
    w = np.array([(1 + rng.randrange(63)) / 32 for _ in range(GFTPL_N)])
    static = GkpStatic(GFTPL_N, w, 2.0)
    rounds = [
        GkpRound(
            np.array([rng.randrange(256) / 64 for _ in range(GFTPL_N)]),
            rng.randrange(96) / 64,
        )
        for _ in range(T)
    ]
    cfg = GftplConfig(N=GFTPL_N, G_f=GFTPL_GF, F_M=GFTPL_GF)
    tr = gftpl_run(static, rounds, None, cfg, SeededRng(90_000 + seed))
    return tr.extras["regret"][-1], tr.extras["theorem3_bound"][-1]


def test_criterion_6_gftpl_regret_rate_shrinks_and_stays_bounded():
    seeds = 30
    rates = {}
    over = []
    for T in (256, 4096):
        results = [_gftpl_replica(s, T) for s in range(seeds)]
        rates[T] = float(np.mean([r / T for r, _ in results]))
        over += [(T, s) for s, (r, b) in enumerate(results) if r > b]
    report(
        6,
        "gftpl vanishing regret",
        rates[4096] < rates[256] and not over,
        f"{seeds} seeds: mean regret/T {rates[256]:.3f} @256 -> {rates[4096]:.3f} @4096; "
        f"bound violations: {over}",
    )


# --- criterion 7: hardness-reduction identities --------------------------------


def test_criterion_7_reduction_identities_hold_exhaustively():
    rng = SeededRng(47_000)
    # counting correspondence: both gadgets, 200 random formulas, every assignment
    formulas = violations = 0
    for _ in range(200):
        n = 3 + rng.randrange(6)
        m = 1 + rng.randrange(10)
        f = gen_random_dnf(n, m, rng)
        rep = validate_correspondence(f)
        formulas += 1
        assert rep["assignments_checked"] == 1 << n
        violations += len(rep["violations"])

    # single-instance cover cost embeds as a sum: cost(S) == |S| for all S
    vc_bad = 0
    for n in (1, 5, 9, 12):
        g = gen_random_graph(n, 0.5, rng)
        seq = vc_to_multi_vc(g)
        for k in range(n + 1):
            for sub in itertools.combinations(range(n), k):
                if multi_minmax_cost(sub, seq.rows) != float(len(sub)):
                    vc_bad += 1

    # 3-colorability <-> every machine-assignment row splits an edge
    color_bad = 0
    graphs = [Graph(3, ((0, 1), (1, 2), (0, 2))), Graph(4, tuple(itertools.combinations(range(4), 2)))]
    for _ in range(58):
        n = 1 + rng.randrange(9)
        graphs.append(gen_random_graph(n, 0.2 + 0.6 * rng.random(), rng))
    for g in graphs:
        jobs = threecolor_to_p3(g)
        _, total = brute_force_multi_p3cmax(jobs)
        if (total == float(g.m)) != is_three_colorable(g):
            color_bad += 1
    report(
        7,
        "reduction identities",
        violations == vc_bad == color_bad == 0,
        f"{formulas} formulas with 0 gadget violations ({violations}); "
        f"cover-cost mismatches {vc_bad}; coloring/makespan mismatches {color_bad} over {len(graphs)} graphs",
    )


# --- criterion 8: gap-solver soundness and completeness ------------------------


def _planted_no_instance(i):
    """Graphs whose minimum cover size is known and >= B*n by construction."""
    kind = i % 3
    if kind == 0:  # disjoint edges: min cover n/2
        half = 4 + (i // 3) % 3  # 4..6
        g = Graph(2 * half, tuple((2 * j, 2 * j + 1) for j in range(half)))
        return g, half
    if kind == 1:  # complete graph: min cover n-1
        k = 5 + (i // 3) % 4  # 5..8
        return Graph(k, tuple(itertools.combinations(range(k), 2))), k - 1
    a = 3 + (i // 3) % 3  # complete bipartite K_{a,a}: min cover a
    g = Graph(2 * a, tuple((u, a + v) for u in range(a) for v in range(a)))
    return g, a


def _min_cover_size(g):
    for k in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), k):
            if is_vertex_cover(g, sub):
                return k
    return g.n


def test_criterion_8_gap_solver_sound_on_no_and_finds_planted_yes():
    no_bad = []
    for i in range(50):
        g, min_vc = _planted_no_instance(i)
        assert _min_cover_size(g) == min_vc  # planted value verified by enumeration
        b = min_vc / g.n
        cfg = GapConfig(A=b / 2, B=b, T_override=64)
        res = gap_solver(g, cfg, OgdVcLearner(g), SeededRng(48_000 + i))
        if res.decision != "No":
            no_bad.append(i)

    star = Graph(6, tuple((0, v) for v in range(1, 6)))
    cfg = GapConfig(A=1.0 / 6.0, B=0.5, T_override=256)
    yes = sum(
        gap_solver(star, cfg, FtlMinMaxVcLearner(star), SeededRng(48_500 + s)).decision == "Yes"
        for s in range(100)
    )
    report(
        8,
        "gap solver",
        not no_bad and yes >= 50,
        f"50 planted No instances all answered No (failures: {no_bad}); "
        f"planted Yes found in {yes}/100 seeds (need >= 50)",
    )


# --- criterion 9: objective/excess consistency ---------------------------------


def test_criterion_9_aggregate_objective_and_excess_consistency():
    rng = SeededRng(49_000)

    def dyadic(lo, hi, unit=1.0 / 64.0):
        return (lo + rng.randrange(hi - lo)) * unit

    # summed objective == per-round sum, exactly, on a dyadic grid
    agg_bad = 0
    for _ in range(1000):
        n = 1 + rng.randrange(6)
        m = 1 + rng.randrange(8)
        static = GkpStatic(n, np.array([dyadic(1, 256) for _ in range(n)]), dyadic(0, 128))
        rounds = [
            GkpRound(np.array([dyadic(0, 256) for _ in range(n)]), dyadic(0, 512))
            for _ in range(m)
        ]
        bits = rng.randrange(1 << n)
        A = {i for i in range(n) if bits >> i & 1}
        if multi_gkp_profit(A, static, rounds) != sum(gkp_profit(A, static, r) for r in rounds):
            agg_bad += 1

    # searched excess == direct sum, exactly; and midpoint convexity
    exc_bad = conv_bad = 0
    for _ in range(1000):
        caps = [dyadic(0, 512) for _ in range(1 + rng.randrange(10))]
        f = ExcessFunction(caps)
        W = dyadic(0, 1024)
        if excess_value(W, f) != sum(max(0.0, W - b) for b in caps):
            exc_bad += 1
        w1, w2, lam = rng.uniform(0.0, 16.0), rng.uniform(0.0, 16.0), rng.random()
        mid = f.value(lam * w1 + (1.0 - lam) * w2)
        if mid > lam * f.value(w1) + (1.0 - lam) * f.value(w2) + 1e-9:
            conv_bad += 1
    report(
        9,
        "objective consistency",
        agg_bad == exc_bad == conv_bad == 0,
        f"1000 exact aggregate checks ({agg_bad} off), 1000 exact excess checks ({exc_bad} off), "
        f"1000 convexity triples ({conv_bad} off)",
    )
