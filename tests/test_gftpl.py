"""Perturbed-leader engine: perturbations, schedules, bounds, audits."""

import numpy as np
import pytest

from regretlab.gftpl import (
    GftplConfig,
    PerturbationVector,
    default_eta,
    draw_perturbation,
    epsilon_prime,
    gftpl_run,
    resolve_run,
    run_eps,
    theorem3_bound,
)
from regretlab.gkp import (
    MAX_BRUTE_N,
    CachingBruteOracle,
    _lex_order,
    _subset_sums,
    brute_oracle,
    distinguisher_set,
    fold_sweep,
    fptas_oracle,
    gkp_profit,
    leader_set,
    prefix_best_values,
)
from regretlab.instances import GkpRound, GkpStatic, stack_rounds
from regretlab.rng import SeededRng
from regretlab.traces import RegretTrace, mask_members


def dyadic_stream(rng, n, T, cap_units=512):
    rounds = []
    for _ in range(T):
        p = np.array([rng.randrange(256) / 64.0 for _ in range(n)])
        rounds.append(GkpRound(p, rng.randrange(cap_units) / 64.0))
    return rounds


def perturbed_payoff(A, static, history, a, P=1.0):
    direct = sum(gkp_profit(A, static, y) for y in history)
    return direct + sum(a[j] * P for j in A)


# --- config and perturbation -----------------------------------------------------


def test_config_validation():
    GftplConfig(N=3)
    with pytest.raises(ValueError):
        GftplConfig(N=0)
    with pytest.raises(ValueError):
        GftplConfig(N=1, eta=-1.0)
    with pytest.raises(ValueError):
        GftplConfig(N=1, kappa=0.5)
    with pytest.raises(ValueError):
        GftplConfig(N=1, delta=0.0)
    with pytest.raises(ValueError):
        GftplConfig(N=1, eps_schedule=("nope", 0.1))


@pytest.mark.parametrize("field", ["eta", "kappa", "delta", "G_gamma", "G_f", "F_M", "eps"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_parameters(field, value):
    kwargs = {"eps_schedule": ("additive", value)} if field == "eps" else {field: value}
    interval = {"kappa": "[1, inf)", "delta": "(0, inf)"}.get(field, "[0, inf)")
    with pytest.raises(ValueError) as e:
        GftplConfig(N=2, **kwargs)
    assert str(e.value) == f"{field} must be a finite number in {interval}, got {value!r}"


def test_perturbation_vector_range_checked():
    PerturbationVector(np.array([0.0, 0.5, 1.0]), 1.0)
    with pytest.raises(ValueError):
        PerturbationVector(np.array([1.5]), 1.0)


def test_draw_perturbation_zero_eta():
    v = draw_perturbation(GftplConfig(N=4, eta=0.0), SeededRng(1))
    assert np.array_equal(v.a, np.zeros(4))


def test_draw_perturbation_deterministic():
    cfg = GftplConfig(N=3, eta=1.0)
    v1 = draw_perturbation(cfg, SeededRng(7))
    v2 = draw_perturbation(cfg, SeededRng(7))
    assert np.array_equal(v1.a, v2.a)


def test_draw_perturbation_concentration():
    cfg = GftplConfig(N=10_000, eta=1.0)
    v = draw_perturbation(cfg, SeededRng(2))
    assert abs(v.a.mean() - 0.5) < 0.02


def test_draw_perturbation_needs_resolved_eta():
    with pytest.raises(ValueError, match="unresolved"):
        draw_perturbation(GftplConfig(N=2), SeededRng(1))


def test_default_eta_formula():
    cfg = GftplConfig(N=2, kappa=2.0, delta=1.0, G_gamma=1.0, G_f=1.0)
    assert default_eta(cfg, 0.0, 8) == pytest.approx((2.0 * 1.0 * 1.0 * 8) ** 0.5)
    with pytest.raises(ValueError):
        default_eta(GftplConfig(N=2, G_gamma=0.0), 0.1, 8)


# --- epsilon_prime -----------------------------------------------------------------


def test_epsilon_prime_examples():
    cfg = GftplConfig(N=2, eta=1.0, F_M=1.0, G_gamma=1.0)
    assert epsilon_prime(0.1, 100, cfg) == pytest.approx(0.1 / 102)
    assert epsilon_prime(0.0, 100, cfg) == 0.0
    cfg2 = GftplConfig(N=1, eta=0.0, F_M=1.0)
    T = 10_000
    assert epsilon_prime(T**-0.5, T, cfg2) == pytest.approx(1e-6)
    with pytest.raises(ValueError, match="denominator"):
        epsilon_prime(0.1, 0, cfg2)


# --- theorem3_bound ------------------------------------------------------------------


def test_theorem3_bound_examples():
    cfg = GftplConfig(N=2, kappa=2.0, delta=1.0, G_gamma=1.0, G_f=1.0)
    assert theorem3_bound(cfg, 0.1, 100) == pytest.approx(2 * 240**0.5 + 10)
    assert theorem3_bound(cfg, 0.1, 0) == 0.0
    cfg2 = GftplConfig(N=1, kappa=1.0, delta=1.0, G_gamma=1.0, G_f=1.0)
    assert theorem3_bound(cfg2, 0.0, 4) == pytest.approx(2.0)


def test_resolve_run_defaults_only_what_the_config_leaves_unset():
    cfg = GftplConfig(N=2, G_f=3.0)
    assert run_eps(cfg, 16) == 0.25 and run_eps(cfg, 0) == 0.0
    resolved, eps = resolve_run(cfg, 16)
    assert eps == 0.25 and resolved.eta == default_eta(cfg, 0.25, 16)
    explicit = GftplConfig(N=2, eta=0.5, G_f=3.0, eps_schedule=("fptas", 0.3))
    assert resolve_run(explicit, 16) == (explicit, 0.3)
    static = GkpStatic(2, [1.0, 1.0], 0.5)
    stream = [GkpRound([1.0, 2.0], 1.0)] * 16
    for c in (cfg, explicit):
        resolved, eps = resolve_run(c, 16)
        tr = gftpl_run(static, stream, None, c, SeededRng(4))
        assert (tr.meta["eps"], tr.meta["eta"]) == (eps, resolved.eta)
        assert tr.extras["theorem3_bound"][-1] == theorem3_bound(c, eps, 16)


# --- gftpl_run -------------------------------------------------------------------------


def test_run_empty_horizon():
    static = GkpStatic(2, [1.0, 1.0], 0.5)
    tr = gftpl_run(static, [], brute_oracle, GftplConfig(N=2, eta=0.0), SeededRng(3))
    assert tr.T == 0
    assert tr.benchmark == 0.0
    assert tr.meta["perturbation"] == (0.0, 0.0)


def test_run_zero_eta_is_follow_the_leader():
    rng = SeededRng(2001)
    n = 4
    static = GkpStatic(n, [rng.uniform(0.2, 1.0) for _ in range(n)], 0.75)
    stream = dyadic_stream(rng, n, 20)
    cfg = GftplConfig(N=n, eta=0.0, G_f=float(n))
    tr = gftpl_run(static, stream, brute_oracle, cfg, SeededRng(5))
    for t, played in enumerate(tr.actions, start=1):
        expect, _ = brute_oracle(static, stream[: t - 1])
        assert played == expect


def test_run_constant_adversary_settles_after_one_round():
    static = GkpStatic(3, [1.0, 1.0, 1.0], 1.0)
    y = GkpRound([2.0, 0.5, 1.0], 1.5)
    stream = [y] * 15
    cfg = GftplConfig(N=3, eta=0.0, G_f=3.5)
    tr = gftpl_run(static, stream, brute_oracle, cfg, SeededRng(6))
    best, best_value = brute_oracle(static, [y])
    assert all(played == best for played in tr.actions[1:])
    # missing out on at most the first round keeps regret within one payoff
    final_regret = tr.extras["regret"][-1]
    assert final_regret <= best_value + 1e-12


def test_run_deterministic_given_seed():
    rng = SeededRng(2002)
    static = GkpStatic(3, [rng.uniform(0.2, 1.0) for _ in range(3)], 0.5)
    stream = dyadic_stream(rng, 3, 12)
    cfg = GftplConfig(N=3, G_f=3.0)
    t1 = gftpl_run(static, stream, brute_oracle, cfg, SeededRng(9))
    t2 = gftpl_run(static, stream, brute_oracle, cfg, SeededRng(9))
    assert trace_repr(t1) == trace_repr(t2)
    t3 = gftpl_run(static, stream, brute_oracle, cfg, SeededRng(10))
    assert t3.meta["perturbation"] != t1.meta["perturbation"]


def test_run_records_single_perturbation_and_bounds():
    rng = SeededRng(2003)
    static = GkpStatic(3, [rng.uniform(0.2, 1.0) for _ in range(3)], 0.5)
    stream = dyadic_stream(rng, 3, 10)
    cfg = GftplConfig(N=3, G_f=3.0)
    tr = gftpl_run(static, stream, brute_oracle, cfg, SeededRng(11))
    a = np.array(tr.meta["perturbation"])
    assert a.shape == (3,)
    assert a.min() >= 0.0 and a.max() <= tr.meta["eta"]
    cum = 0.0
    ex = tr.extras
    columns = zip(
        tr.values, tr.cumulatives, ex["best_static_cum"], ex["regret"], ex["theorem3_bound"],
        strict=True,
    )
    for t, (payoff, total, best, regret, bound) in enumerate(columns, start=1):
        cum += payoff
        assert total == cum
        assert regret == best - cum == best - total
        assert bound == theorem3_bound(cfg, tr.meta["eps"], t)


def test_run_additive_audit_with_exact_oracle():
    # the exact leader beats every action's perturbed payoff, evaluated directly
    rng = SeededRng(2004)
    n = 4
    static = GkpStatic(n, [(1 + rng.randrange(63)) / 32.0 for _ in range(n)], 0.5)
    stream = dyadic_stream(rng, n, 8)
    cfg = GftplConfig(N=n, eta=2.0, G_f=4.0)
    tr = gftpl_run(static, stream, brute_oracle, cfg, SeededRng(12))
    a = np.array(tr.meta["perturbation"])
    sample_rng = SeededRng(13)
    for t, played in enumerate(tr.actions, start=1):
        history = stream[: t - 1]
        mine = perturbed_payoff(played, static, history, a)
        for _ in range(100):
            bits = sample_rng.randrange(1 << n)
            other = {i for i in range(n) if bits >> i & 1}
            assert mine >= perturbed_payoff(other, static, history, a)


def test_run_fptas_audit():
    rng = SeededRng(2005)
    n = 4
    w = np.array([(1 + rng.randrange(63)) / 32.0 for _ in range(n)])
    static = GkpStatic(n, w, 0.5)
    # capacities at total weight: payoffs stay nonnegative as fptas requires
    T = 8
    stream = [
        GkpRound(np.array([rng.randrange(256) / 64.0 for _ in range(n)]), float(w.sum()))
        for _ in range(T)
    ]
    eps = T**-0.5
    cfg = GftplConfig(N=n, G_f=4.0 * n, F_M=4.0 * n, eps_schedule=("fptas", eps))
    eta = default_eta(cfg, eps, T)
    cfg = GftplConfig(N=n, eta=eta, G_f=cfg.G_f, F_M=cfg.F_M, eps_schedule=("fptas", eps))
    eps_rel = epsilon_prime(eps, T, cfg)

    def oracle(st, rounds):
        return fptas_oracle(st, rounds, eps_rel)

    tr = gftpl_run(static, stream, oracle, cfg, SeededRng(14))
    a = np.array(tr.meta["perturbation"])
    sample_rng = SeededRng(15)
    for t, played in enumerate(tr.actions, start=1):
        history = stream[: t - 1]
        mine = perturbed_payoff(played, static, history, a)
        for _ in range(100):
            bits = sample_rng.randrange(1 << n)
            other = {i for i in range(n) if bits >> i & 1}
            assert mine >= (1.0 - eps_rel) * perturbed_payoff(other, static, history, a) - 1e-9


def test_run_rejects_negative_payoff_under_fptas():
    static = GkpStatic(1, [1.0], 10.0)
    stream = [GkpRound([5.0], 1.0), GkpRound([0.0], 0.0)]  # round 2 pays -10 to {0}
    cfg = GftplConfig(N=1, eta=0.0, eps_schedule=("fptas", 0.1))
    with pytest.raises(ValueError, match="negative payoff"):
        gftpl_run(static, stream, brute_oracle, cfg, SeededRng(16))
    ok = GftplConfig(N=1, eta=0.0, eps_schedule=("additive", 0.1))
    tr = gftpl_run(static, stream, brute_oracle, ok, SeededRng(16))
    assert tr.T == 2


def test_run_requires_matching_distinguisher_size():
    static = GkpStatic(2, [1.0, 1.0], 0.5)
    with pytest.raises(ValueError, match="N equal"):
        gftpl_run(static, [], brute_oracle, GftplConfig(N=3, eta=0.0), SeededRng(1))


def test_run_names_the_round_of_the_wrong_length():
    static = GkpStatic(2, [1.0, 1.0], 0.5)
    rounds = [GkpRound([1.0, 1.0], 1.0), GkpRound([1.0], 1.0)]
    with pytest.raises(ValueError, match=r"^rounds\[1\]: profit vector length must match item count 2$"):
        gftpl_run(static, rounds, None, GftplConfig(N=2, eta=1.0), SeededRng(0))


def test_run_propagates_oracle_failure_with_round():
    static = GkpStatic(1, [1.0], 0.5)

    def broken(st, rounds):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="round 1"):
        gftpl_run(static, [GkpRound([1.0], 1.0)], broken, GftplConfig(N=1, eta=0.0), SeededRng(1))


def scripted_oracle(plays):
    """An oracle playing plays[t-1] in round t, read off the query length;
    an exception in plays is raised instead."""

    def oracle(static, rounds):
        play = plays[len(rounds) - static.n]
        if isinstance(play, Exception):
            raise play
        return play, 0.0

    return oracle


@pytest.mark.parametrize(
    "plays, message",
    [
        ([frozenset(), {0}, RuntimeError("boom")], r"^round 2: negative payoff -10\.0 "),
        ([frozenset(), {0}, {3}], r"^round 2: negative payoff -10\.0 "),
        ([frozenset(), {3}, RuntimeError("boom")], r"^round 2: an oracle set member must be in \[0, 1\), got 3$"),
        ([frozenset(), frozenset(), RuntimeError("boom")], r"^oracle failed at round 3: boom$"),
        ([frozenset(), {0}, {True}], r"^round 2: negative payoff -10\.0 "),
        ([frozenset(), {True}, {0}], r"^round 2: an oracle set member must be an integer, got True$"),
    ],
)
def test_run_reports_the_earliest_fault_first(plays, message):
    static = GkpStatic(1, [1.0], 10.0)
    stream = [GkpRound([5.0], 1.0), GkpRound([0.0], 0.0), GkpRound([1.0], 1.0)]
    cfg = GftplConfig(N=1, eta=0.0, eps_schedule=("fptas", 0.1))
    with pytest.raises((ValueError, RuntimeError), match=message):
        gftpl_run(static, stream, scripted_oracle(plays), cfg, SeededRng(17))


def test_run_refuses_an_oracle_set_with_an_item_out_of_range():
    static = GkpStatic(2, [1.0, 1.0], 0.5)
    stream = [GkpRound([1.0, 1.0], 1.0)] * 3
    for bad, i in (({2}, 2), ({0, -1}, -1)):
        oracle = scripted_oracle([{0}, bad, {1}])
        with pytest.raises(ValueError, match=rf"^round 2: an oracle set member must be in \[0, 2\), got {i}$"):
            gftpl_run(static, stream, oracle, GftplConfig(N=2, eta=0.0), SeededRng(18))


@pytest.mark.parametrize(
    "bad, message",
    [
        ({True}, r"^round 3: an oracle set member must be an integer, got True$"),
        ({False, 1}, r"^round 3: an oracle set member must be an integer, got False$"),
        ({1.0}, r"^round 3: an oracle set member must be an integer, got 1\.0$"),
        ({0, 1.5}, r"^round 3: an oracle set member must be an integer, got 1\.5$"),
        ({np.float64(0.0)}, r"^round 3: an oracle set member must be an integer, got np\.float64\(0\.0\)$"),
        (1, r"^round 3: an oracle set must be an iterable of indices, got 1$"),
        ("01", r"^round 3: an oracle set member must be an integer, got '0'$"),
    ],
)
def test_run_refuses_an_oracle_set_with_a_non_integer_member(bad, message):
    # {True} equals {1} as a set: the refusal must not depend on what was
    # played before, so {1} is played first
    static = GkpStatic(2, [1.0, 1.0], 0.5)
    stream = [GkpRound([1.0, 1.0], 1.0)] * 4
    oracle = scripted_oracle([{1}, {0}, bad, {1}])
    with pytest.raises(ValueError, match=message):
        gftpl_run(static, stream, oracle, GftplConfig(N=2, eta=0.0), SeededRng(18))


def test_run_takes_integer_numpy_members():
    static = GkpStatic(3, [1.0, 1.0, 1.0], 0.5)
    stream = [GkpRound([1.0, 2.0, 3.0], 2.0)] * 3
    plays = [{np.int64(2)}, frozenset(np.array([0, 2])), {1, np.int32(0)}]
    cfg = GftplConfig(N=3, eta=0.0)
    tr = gftpl_run(static, stream, scripted_oracle(plays), cfg, SeededRng(18))
    assert tr.masks == (0b100, 0b101, 0b011)
    assert all(type(m) is int for m in tr.masks)
    assert tr.actions == (frozenset({2}), frozenset({0, 2}), frozenset({0, 1}))


def signed_zero_instance(rng, n, T):
    """Profits and capacities with many signed zeros (zero capacities
    included), weights from a few values."""

    def pick(*values):
        return values[rng.randrange(len(values))]

    w = [pick(0.0, 0.25, 1.0, rng.random()) for _ in range(n)]
    static = GkpStatic(n, w, pick(0.0, 0.5, 1.0 + rng.random()))
    stream = [
        GkpRound(
            [pick(0.0, -0.0, rng.random(), rng.random() * 1e-3) for _ in range(n)],
            pick(0.0, -0.0, rng.uniform(0.0, sum(w))),
        )
        for _ in range(T)
    ]
    return static, stream


@pytest.mark.parametrize("n", range(1, MAX_BRUTE_N + 1))
def test_payoffs_are_the_one_round_rule_bitwise(n):
    # both leader sources share the scoring; the scripted oracle repeats a
    # few sets, the empty and the full set among them
    rng = SeededRng(7600 + n)
    T = 40 if n <= 12 else 6
    static, stream = signed_zero_instance(rng, n, T)
    few = [frozenset(), frozenset(range(n))]
    few += [frozenset(i for i in range(n) if rng.random() < 0.5) for _ in range(3)]
    plays = [few[rng.randrange(len(few))] for _ in range(T)]
    for oracle in (None, scripted_oracle(plays)):
        cfg = GftplConfig(N=n, G_f=float(n), F_M=float(n))
        tr = gftpl_run(static, stream, oracle, cfg, SeededRng(n))
        one_round = [gkp_profit(A, static, y) for A, y in zip(tr.actions, stream)]
        assert np.array(tr.values).tobytes() == np.array(one_round).tobytes()
        assert all(type(v) is float for v in tr.values)
    assert list(tr.actions) == plays
    assert list(tr.masks) == [sum(1 << i for i in A) for A in plays]


def test_regret_per_round_shrinks_with_horizon():
    # small version of the vanishing-regret acceptance check; capacities tight
    # enough (≤1.5 against total weight up to 6) that the penalty actually bites
    n = 3
    seeds = range(6)
    means = {}
    for T in (64, 512):
        vals = []
        for s in seeds:
            inst_rng = SeededRng(3000 + s)
            w = [(1 + inst_rng.randrange(63)) / 32.0 for _ in range(n)]
            static = GkpStatic(n, w, 2.0)
            stream = dyadic_stream(inst_rng, n, T, cap_units=96)
            g_max = max(float(np.sum(y.p)) for y in stream)
            cfg = GftplConfig(N=n, G_f=g_max, F_M=g_max)
            tr = gftpl_run(static, stream, brute_oracle, cfg, SeededRng(4000 + s))
            bound = tr.extras["theorem3_bound"][-1]
            regret = tr.extras["regret"][-1]
            assert regret <= bound
            vals.append(regret / T)
        means[T] = sum(vals) / len(vals)
    assert means[512] < means[64]


# --- the engine's exact leader (oracle=None) ---------------------------------------


def trace_repr(tr):
    """Every recorded number of a trace, as round-trip-exact text."""
    actions = [tuple(sorted(a)) for a in tr.actions]
    columns = (actions, tr.values, tr.cumulatives, sorted(tr.extras.items()))
    return repr((tr.algorithm, tr.benchmark, columns, sorted(tr.meta.items())))


def tie_heavy_instance(rng, n, T):
    """Dyadic weights, profits in quarters and a few capacity levels, so
    every sum is exact. Items 2k and 2k+1 are twins (same weight, same
    profit every round), so sets swapping one twin for the other tie."""
    w = [(1 + rng.randrange(8)) / 8.0 for _ in range(n)]
    w = [w[i - i % 2] for i in range(n)]
    static = GkpStatic(n, w, (1 + rng.randrange(4)) / 2.0)
    stream = []
    for _ in range(T):
        p = [rng.randrange(3) / 4.0 for _ in range(n)]
        stream.append(GkpRound([p[i - i % 2] for i in range(n)], rng.randrange(4) * sum(w) / 8.0))
    return static, stream


@pytest.mark.parametrize("n", range(1, 9))
def test_exact_leader_matches_caching_oracle_bitwise(n):
    rng = SeededRng(6100 + n)
    for T in (0, 1, 2, 37, 300):
        static, stream = tie_heavy_instance(rng, n, T)
        for eta in (0.0, None):
            cfg = GftplConfig(N=n, eta=eta, G_f=float(n), F_M=float(n))
            seed = 6200 + 10 * n + T
            exact = gftpl_run(static, stream, None, cfg, SeededRng(seed))
            cached = gftpl_run(static, stream, CachingBruteOracle(), cfg, SeededRng(seed))
            assert trace_repr(exact) == trace_repr(cached)
            best = prefix_best_values(static, stream)
            for tr in (exact, cached):
                assert list(tr.extras["best_static_cum"]) == best
                assert tr.benchmark == (best[-1] if best else 0.0)


class Fold:
    """Per-set aggregates of a round history, folded one round at a time:
    P[mask] is set mask's summed profit and K[mask] its summed capacity
    excess, W_all[mask] being its total weight."""

    def __init__(self, static):
        self.W_all = _subset_sums(static.w)
        self.P = np.zeros(self.W_all.shape[0])
        self.K = np.zeros(self.W_all.shape[0])

    def delta(self, r):
        return _subset_sums(r.p), np.maximum(0.0, self.W_all - r.B)

    def add(self, r):
        dP, dK = self.delta(r)
        self.P += dP
        self.K += dK

    def leader(self, tail, c):
        """leader_set of the fold plus the (dP, dK) pairs of tail, added
        one by one in order; the fold itself is left unchanged."""
        P, K = self.P, self.K
        for dP, dK in tail:
            P = P + dP
            K = K + dK
        return leader_set(P - c * K)


def fresh_fold_oracle(static, rounds):
    """The exact leader the long way: every round of the query, the
    perturbation rounds included, folded afresh in order."""
    fold = Fold(static)
    for r in rounds:
        fold.add(r)
    return leader_set(fold.P - static.c * fold.K)


@pytest.mark.parametrize("n", range(1, 9))
def test_exact_leader_adds_the_tail_as_a_fresh_fold_would(n):
    # random perturbations make the sums inexact, so adding the tail in
    # any other order (or pre-summed) changes bits somewhere in the sweep
    rng = SeededRng(6500 + n)
    for T in (1, 37, 150):
        static, stream = tie_heavy_instance(rng, n, T)
        cfg = GftplConfig(N=n, G_f=float(n), F_M=float(n))
        exact = gftpl_run(static, stream, None, cfg, SeededRng(T))
        fresh = gftpl_run(static, stream, fresh_fold_oracle, cfg, SeededRng(T))
        assert trace_repr(exact) == trace_repr(fresh)


@pytest.mark.parametrize("n", range(1, 9))
def test_exact_leader_matches_brute_oracle_on_exact_sums(n):
    # eta = 0: no perturbation and dyadic data, so every aggregate is exact
    # and brute_oracle's value agrees to the bit, ties included
    rng = SeededRng(6300 + n)
    cfg = GftplConfig(N=n, eta=0.0, G_f=float(n), F_M=float(n))
    tied = 0
    for _ in range(4):
        static, stream = tie_heavy_instance(rng, n, 100)
        exact = gftpl_run(static, stream, None, cfg, SeededRng(1))
        brute = gftpl_run(static, stream, brute_oracle, cfg, SeededRng(1))
        assert trace_repr(exact) == trace_repr(brute)
        # the leader of round t+1 is the sorted-tuple-smallest maximizer on
        # rounds 1..t, the empty set first; count the rounds where it is one
        # of several nonempty maximizers
        fold = Fold(static)
        for t, y in enumerate(stream[:-1], start=1):
            fold.add(y)
            values = fold.P - static.c * fold.K
            sets = [tuple(i for i in range(n) if m >> i & 1) for m in np.flatnonzero(values == values.max())]
            assert exact.actions[t] == frozenset(min(sets))
            tied += len(sets) > 1 and min(sets) != ()
    assert tied > 0 or n == 1  # the tie rule is exercised


def test_exact_leader_adds_a_nonzero_perturbation_excess():
    # random weights at n = 8: the full set's subset sum rounds above
    # w.sum(), the perturbation rounds' capacity, so their excess deltas
    # are not all zero and must be added as the caching oracle adds them
    rng = SeededRng(8)
    w = np.array([rng.random() for _ in range(8)])
    assert _subset_sums(w)[-1] > w.sum()
    static = GkpStatic(8, w, 1.0e3)
    stream = [GkpRound([1.0 + rng.random() for _ in range(8)], 2.0 * w.sum()) for _ in range(20)]
    cfg = GftplConfig(N=8, eta=0.5)
    exact = gftpl_run(static, stream, None, cfg, SeededRng(2))
    cached = gftpl_run(static, stream, CachingBruteOracle(), cfg, SeededRng(2))
    assert all(a == frozenset(range(8)) for a in exact.actions)
    assert trace_repr(exact) == trace_repr(cached)


def test_callable_oracle_takes_prefix_best_from_the_same_fold():
    rng = SeededRng(6400)
    static, stream = tie_heavy_instance(rng, 5, 120)
    tr = gftpl_run(static, stream, brute_oracle, GftplConfig(N=5), SeededRng(3))
    best = prefix_best_values(static, stream)
    assert list(tr.extras["best_static_cum"]) == best
    assert tr.benchmark == best[-1]


def test_exact_leader_guard_fires_before_round_one():
    n = MAX_BRUTE_N + 1
    static = GkpStatic(n, np.ones(n), 1.0)
    stream = [GkpRound(np.ones(n), 1.0)]
    for rounds in (stream, []):
        rng = SeededRng(4)
        with pytest.raises(ValueError, match="MAX_BRUTE_N"):
            gftpl_run(static, rounds, None, GftplConfig(N=n, eta=1.0), rng)
        assert rng.random() == SeededRng(4).random()  # no perturbation was drawn


# --- the whole-horizon sweep (fold_sweep) against the per-round engine -------------


def reference_gftpl_run(static, rounds_stream, oracle, cfg, rng):
    """The per-round engine fold_sweep replaced.

    Each round it asked its fold for the leader of the fold plus the
    perturbation deltas, then folded the round in and read the benchmark
    off the fold. Its floats are the reference gftpl_run must reproduce
    bit for bit.
    """
    rounds_stream = list(rounds_stream)
    T = len(rounds_stream)
    n = static.n
    mode, _ = cfg.eps_schedule
    cfg, eps = resolve_run(cfg, T)
    pert = draw_perturbation(cfg, rng)
    base = distinguisher_set(static, P=cfg.delta)
    pert_rounds = [GkpRound(pert.a[j] * base[j].p, base[j].B) for j in range(cfg.N)]
    fold = Fold(static)
    tail = [fold.delta(r) for r in pert_rounds]
    masks, payoffs = [], []
    extras = {"perturbed_obj": [], "best_static_cum": [], "regret": [], "theorem3_bound": []}
    history = []
    cum = 0.0
    best = float("nan")
    for t, y in enumerate(rounds_stream, 1):
        if oracle is None:
            played, perturbed_obj = fold.leader(tail, static.c)
        else:
            played, perturbed_obj = oracle(static, history + pert_rounds)
            history.append(y)
        payoff = gkp_profit(played, static, y)
        cum += payoff
        fold.add(y)
        best = float((fold.P - static.c * fold.K).max())
        masks.append(sum(1 << i for i in played))
        payoffs.append(payoff)
        extras["perturbed_obj"].append(float(perturbed_obj))
        extras["best_static_cum"].append(best)
        extras["regret"].append(best - cum)
        extras["theorem3_bound"].append(theorem3_bound(cfg, eps, t))
    return RegretTrace(
        algorithm="gftpl_gkp",
        masks=masks,
        values=payoffs,
        extras=extras,
        benchmark=best if T else 0.0,
        meta={
            "n": n,
            "T": T,
            "seed": rng.seed,
            "eps_mode": mode,
            "eps": eps,
            "eta": cfg.eta,
            "perturbation": tuple(float(x) for x in pert.a),
        },
    )


def random_instance(rng, n, T):
    """Random weights, profits and capacities: inexact sums everywhere."""
    w = [rng.random() for _ in range(n)]
    static = GkpStatic(n, w, 0.5 + rng.random())
    stream = [GkpRound([rng.random() for _ in range(n)], rng.uniform(0.0, sum(w))) for _ in range(T)]
    return static, stream


BLOCK_EDGE_HORIZONS = (0, 1, 63, 64, 65, 129, 300)


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("make", [tie_heavy_instance, random_instance])
def test_sweep_reproduces_the_per_round_engine(n, make):
    # the horizons cross the block edges of every n (64 rounds a block at
    # n = 6, 4 at n = 10); the traces must agree to the last bit
    rng = SeededRng(7100 + n)
    for T in BLOCK_EDGE_HORIZONS:
        static, stream = make(rng, n, T)
        for eta in (0.0, None):
            cfg = GftplConfig(N=n, eta=eta, G_f=float(n), F_M=float(n))
            for oracle in (None, CachingBruteOracle):
                seed = 7200 + 10 * n + T
                new = gftpl_run(static, stream, oracle and oracle(), cfg, SeededRng(seed))
                ref = reference_gftpl_run(static, stream, oracle and oracle(), cfg, SeededRng(seed))
                assert trace_repr(new) == trace_repr(ref), (T, eta, oracle)


@pytest.mark.parametrize("n", [12, 13])
def test_sweep_reproduces_the_per_round_engine_one_round_a_block(n):
    rng = SeededRng(7300 + n)
    static, stream = random_instance(rng, n, 5)
    cfg = GftplConfig(N=n, G_f=float(n), F_M=float(n))
    new = gftpl_run(static, stream, None, cfg, SeededRng(n))
    ref = reference_gftpl_run(static, stream, None, cfg, SeededRng(n))
    assert trace_repr(new) == trace_repr(ref)


def test_exact_leader_makes_no_per_round_fold_call(monkeypatch):
    # one subset-sum call for the set weights, one for the perturbation
    # block and one per block of 64 rounds; no one-row leader
    import regretlab.gkp as gkp

    def refuse(*args):
        raise AssertionError("per-round leader call")

    calls = []

    def counted(v):
        calls.append(v.shape)
        return subset_sums(v)

    subset_sums = gkp._subset_sums
    rng = SeededRng(7400)
    static, stream = random_instance(rng, 6, 200)
    cfg = GftplConfig(N=6, G_f=6.0, F_M=6.0)
    ref = reference_gftpl_run(static, stream, None, cfg, SeededRng(1))
    monkeypatch.setattr(gkp, "leader_set", refuse)
    monkeypatch.setattr(gkp, "_subset_sums", counted)
    assert trace_repr(gftpl_run(static, stream, None, cfg, SeededRng(1))) == trace_repr(ref)
    assert calls == [(6,), (6, 6), (64, 6), (64, 6), (64, 6), (8, 6)]


def test_sweep_bests_are_prefix_best_values_and_need_no_tail():
    rng = SeededRng(7500)
    static, stream = random_instance(rng, 7, 150)
    leaders, bests = fold_sweep(static, stack_rounds(7, stream))
    assert leaders is None
    assert bests == prefix_best_values(static, stream)
    fold = Fold(static)
    for t, y in enumerate(stream):
        fold.add(y)
        assert bests[t] == float((fold.P - static.c * fold.K).max())
    # an empty tail makes the leader of round t follow the plain prefix
    leaders, _ = fold_sweep(static, stack_rounds(7, stream), [])
    fold = Fold(static)
    for t, y in enumerate(stream):
        mask, value = leaders[t]
        assert (frozenset(mask_members(mask)), value) == fold.leader([], static.c)
        fold.add(y)


def test_sweep_guards_the_enumeration():
    n = MAX_BRUTE_N + 1
    with pytest.raises(ValueError, match="enumeration guard"):
        fold_sweep(GkpStatic(n, np.ones(n), 1.0), stack_rounds(n, []))


@pytest.mark.parametrize("n", range(13))
def test_lex_order_is_the_sorted_tuple_order(n):
    order = _lex_order(n)
    assert order.tolist() == sorted(range(2**n), key=mask_members)
    assert _lex_order(n) is order and not order.flags.writeable
