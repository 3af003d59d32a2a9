"""Experiment driver: regret accounting, seed fan-out, summaries, bounds."""

import json

import numpy as np
import pytest

from regretlab import harness
from regretlab.gftpl import GftplConfig, default_eta
from regretlab.gkp import CachingBruteOracle, brute_oracle
from regretlab.harness import (
    ExperimentConfig,
    compare_bounds,
    compute_regret,
    load_experiment,
    run_experiment,
)
from regretlab.instances import (
    GkpInstanceSet,
    GkpRound,
    GkpStatic,
    Graph,
    gen_random_gkp,
    gen_random_graph,
    gen_uniform_weights,
    serialize_gkp,
    serialize_graph,
    serialize_weights,
)
from regretlab.ogd import OgdConfig
from regretlab.reductions import GapConfig
from regretlab.rng import SeededRng
from regretlab.traces import RegretTrace


def one_round_trace(algorithm, cumulative, benchmark):
    return RegretTrace(algorithm, [0], [cumulative], benchmark=benchmark)


# --- compute_regret ---------------------------------------------------------------


def test_regret_empty_trace_is_zero():
    tr = RegretTrace(algorithm="ogd_vc", masks=(), values=(), benchmark=None)
    assert compute_regret(tr) == 0.0


def test_regret_minimization():
    tr = one_round_trace("ogd_vc", 10.0, 7.0)
    assert compute_regret(tr, alpha=1.0) == 3.0
    # alpha-regret against twice the optimum may go negative
    assert compute_regret(tr, alpha=2.0) == -4.0
    with pytest.raises(ValueError):
        compute_regret(tr, alpha=0.5)


def test_regret_maximization():
    tr = one_round_trace("gftpl_gkp", 10.0, 12.0)
    assert compute_regret(tr, alpha=1.0) == 2.0
    assert compute_regret(tr, alpha=0.5) == -4.0
    with pytest.raises(ValueError):
        compute_regret(tr, alpha=2.0)


def test_regret_needs_benchmark():
    tr = one_round_trace("ogd_vc", 10.0, None)
    with pytest.raises(ValueError, match="benchmark"):
        compute_regret(tr)


# --- config loading ----------------------------------------------------------------


def test_experiment_config_validation():
    ExperimentConfig("ogd_vc", {}, 10, (0,))
    with pytest.raises(ValueError):
        ExperimentConfig("sgd", {}, 10, (0,))
    with pytest.raises(ValueError):
        ExperimentConfig("ogd_vc", {}, -1, (0,))
    with pytest.raises(ValueError):
        ExperimentConfig("ogd_vc", {}, 10, ())
    with pytest.raises(ValueError):
        ExperimentConfig("ogd_vc", {}, 10, (-3,))


def write_graph(tmp_path, n=6, p=0.5, seed=1):
    g = gen_random_graph(n, p, SeededRng(seed))
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(g))
    return g, path


def test_load_experiment_resolves_and_validates(tmp_path):
    _, gpath = write_graph(tmp_path)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(
        json.dumps(
            {
                "algorithm": "ogd_vc",
                "instance": {"graph": "g.txt"},
                "T": 12,
                "seeds": [3, 4],
            }
        )
    )
    cfg = load_experiment(cfg_path)
    assert cfg.seeds == (3, 4)
    assert cfg.instance["graph"] == str(gpath.resolve())


def test_load_experiment_base_seed_fanout(tmp_path):
    write_graph(tmp_path)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(
        json.dumps(
            {
                "algorithm": "ogd_vc",
                "instance": {"graph": "g.txt"},
                "T": 5,
                "base_seed": 100,
                "num_seeds": 4,
            }
        )
    )
    assert load_experiment(cfg_path).seeds == (100, 101, 102, 103)


def test_load_experiment_rejects_bad_configs(tmp_path):
    write_graph(tmp_path)
    (tmp_path / "garbled.txt").write_text("not a graph\n")
    cases = [
        {"algorithm": "ogd_vc", "instance": {"graph": "garbled.txt"}, "T": 5, "seeds": [1]},
        {"algorithm": "ogd_vc", "T": 5, "seeds": [1]},  # no instance for role
        {"algorithm": "ogd_vc", "instance": {"graph": "missing.txt"}, "T": 5, "seeds": [1]},
        {"algorithm": "ogd_vc", "instance": {"graph": "g.txt"}, "T": 5},  # no seeds
        {"algorithm": "ogd_vc", "instance": {"blob": "g.txt"}, "T": 5, "seeds": [1]},
    ]
    for i, obj in enumerate(cases):
        p = tmp_path / f"bad{i}.json"
        p.write_text(json.dumps(obj))
        with pytest.raises((ValueError, OSError)):
            load_experiment(p)


@pytest.mark.parametrize(
    "top, params, message",
    [
        ({"T": 2.5}, {}, "T must be an integer, got 2.5"),
        ({"seeds": [True, 1.9]}, {}, "a seed must be an integer, got True"),
        ({"seeds": None, "base_seed": 0, "num_seeds": 1.5}, {}, "num_seeds must be an integer, got 1.5"),
        ({}, {"T_sweep": [3.7]}, "a T_sweep horizon must be an integer, got 3.7"),
        ({}, {"T_sweep": "48"}, "a T_sweep horizon must be an integer, got '4'"),
    ],
    ids=["T_float", "seeds_bool_float", "num_seeds_float", "T_sweep_float", "T_sweep_text"],
)
def test_load_experiment_refuses_integers_it_would_truncate(tmp_path, top, params, message):
    # int() ran T = 2, seeds (1, 1), T_sweep [3] and [4, 8] here
    write_graph(tmp_path)
    obj = {"algorithm": "ogd_vc", "instance": {"graph": "g.txt"}, "T": 5, "seeds": [1], "params": params}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({key: value for key, value in (obj | top).items() if value is not None}))
    with pytest.raises(ValueError) as e:
        load_experiment(path)
    assert str(e.value) == message


def test_experiment_config_refuses_a_repeated_seed():
    with pytest.raises(ValueError) as e:
        ExperimentConfig("ogd_vc", {}, 5, (3, 1, 4, 1))
    assert str(e.value) == "seed 1 is listed twice"


# --- run_experiment ----------------------------------------------------------------


def test_run_ogd_experiment(tmp_path):
    _, gpath = write_graph(tmp_path, n=6)
    cfg = ExperimentConfig("ogd_vc", {"graph": str(gpath)}, 60, (0, 1, 2))
    summary = run_experiment(cfg, tmp_path / "out")
    assert len(summary["per_seed"]) == 3
    for row in summary["per_seed"]:
        assert row["regret"] == row["cumulative"] - 2.0 * row["benchmark"]
        assert row["ok"] == (row["regret"] <= row["bound"])
    regrets = [r["regret"] for r in summary["per_seed"]]
    assert summary["mean_regret"] == sum(regrets) / 3
    assert summary["max_regret"] == max(regrets)
    assert summary["bounds"]["all_ok"]
    for seed in (0, 1, 2):
        assert (tmp_path / "out" / f"trace_seed{seed}.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()


def test_ogd_verdict_is_the_bound_report_rule_at_the_float_boundary(monkeypatch):
    # cumulative == 2*benchmark + bound in floats, yet cumulative - 2*benchmark
    # rounds above the bound: the row must say what compare_bounds says
    benchmark, bound = 47.80171359446247, 28.43482461178048
    cumulative = 2.0 * benchmark + bound
    trace = RegretTrace(algorithm="ogd_vc", masks=(0,), values=(cumulative,), benchmark=benchmark)
    monkeypatch.setattr(harness, "ogd_run", lambda g, seq, ocfg: trace)
    monkeypatch.setattr(harness, "theorem2_bound", lambda W, n, T: bound)
    cfg = ExperimentConfig("ogd_vc", {}, 1, (0,))
    _, row = harness._replica_ogd(cfg, {"graph": Graph(2, ((0, 1),))}, 1, 0)
    assert row["regret"] > row["bound"]
    assert row["ok"] is False
    report = compare_bounds({"algorithm": "ogd_vc", "per_seed": [row]})
    assert [v["seed"] for v in report["violations"]] == [0]


def test_run_experiment_zero_horizon(tmp_path):
    _, gpath = write_graph(tmp_path)
    cfg = ExperimentConfig("ogd_vc", {"graph": str(gpath)}, 0, (0,))
    summary = run_experiment(cfg, tmp_path / "out")
    assert summary["per_seed"][0]["regret"] == 0.0
    assert summary["mean_regret"] == 0.0


def test_run_experiment_is_byte_identical(tmp_path):
    _, gpath = write_graph(tmp_path, n=5)
    cfg = ExperimentConfig("ogd_vc", {"graph": str(gpath)}, 30, (7, 8))
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_experiment_weights_file_reused_across_seeds(tmp_path):
    g, gpath = write_graph(tmp_path, n=5)
    seq = gen_uniform_weights(5, 20, 1.0, SeededRng(9))
    wpath = tmp_path / "w.txt"
    wpath.write_text(serialize_weights(seq))
    cfg = ExperimentConfig(
        "ogd_vc", {"graph": str(gpath), "weights": str(wpath)}, 20, (0, 1)
    )
    summary = run_experiment(cfg, tmp_path / "out")
    a, b = summary["per_seed"]
    assert a["cumulative"] == b["cumulative"]  # seed is irrelevant with fixed weights


def test_run_experiment_short_weights_file_fails_with_context(tmp_path):
    _, gpath = write_graph(tmp_path, n=5)
    seq = gen_uniform_weights(5, 4, 1.0, SeededRng(9))
    wpath = tmp_path / "w.txt"
    wpath.write_text(serialize_weights(seq))
    cfg = ExperimentConfig("ogd_vc", {"graph": str(gpath), "weights": str(wpath)}, 10, (0,))
    # caught when the files are read, before any replica runs or writes
    with pytest.raises(ValueError, match=r"^weights file has 4 rows, need T=10$"):
        run_experiment(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_experiment_rejects_a_weights_file_of_another_width(tmp_path):
    _, gpath = write_graph(tmp_path, n=5)
    wpath = tmp_path / "w.txt"
    wpath.write_text(serialize_weights(gen_uniform_weights(4, 10, 1.0, SeededRng(9))))
    cfg = ExperimentConfig("ogd_vc", {"graph": str(gpath), "weights": str(wpath)}, 10, (0,))
    with pytest.raises(ValueError, match=r"^weights file has 4 columns, the graph 5 vertices$"):
        run_experiment(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_config_builders_pass_only_the_given_params():
    # every default lives in its config class, or in gap_solver's signature, alone
    ogd = ExperimentConfig("ogd_vc", {"graph": "g"}, 4, (0,))
    assert harness._ogd_config(ogd) == OgdConfig()
    ogd = ExperimentConfig("ogd_vc", {"graph": "g"}, 4, (0,), {"W_bound": "2", "step_mode": "paper"})
    assert harness._ogd_config(ogd) == OgdConfig(W_bound=2.0, step_mode="paper")
    gap = ExperimentConfig("gap_solver", {"graph": "g"}, 4, (0,), {"A": 0.2, "B": 0.6})
    assert harness._gap_config(gap) == (GapConfig(A=0.2, B=0.6), {})
    gap = ExperimentConfig("gap_solver", {"graph": "g"}, 4, (0,), {"A": 0.2, "B": 0.6, "eps": 0.5})
    assert harness._gap_config(gap)[1] == {"eps": 0.5}
    gftpl = ExperimentConfig("gftpl_gkp", {"gkp": "k"}, 4, (0,))
    rounds = [GkpRound(np.array([0.5, 2.5]), 1.0), GkpRound(np.array([1.0, 0.0]), 1.0)]
    # G_f from the rounds when not given, and F_M = G_f
    assert harness._gftpl_config(gftpl, 2, rounds) == GftplConfig(N=2, G_f=3.0, F_M=3.0)
    assert harness._gftpl_config(gftpl, 2, ()) == GftplConfig(N=2)
    # null counts as not given: eta is derived at run time, G_f from the rounds
    nulls = ExperimentConfig("gftpl_gkp", {"gkp": "k"}, 4, (0,), {"eta": None, "G_f": None})
    assert harness._gftpl_config(nulls, 2, rounds) == GftplConfig(N=2, G_f=3.0, F_M=3.0)
    params = {"G_f": 2, "eps": "0.25", "eps_schedule": "fptas", "eta": 0, "kappa": 3}
    gftpl = ExperimentConfig("gftpl_gkp", {"gkp": "k"}, 4, (0,), params)
    assert harness._gftpl_config(gftpl, 2, rounds) == GftplConfig(
        N=2, eta=0.0, kappa=3.0, G_f=2.0, F_M=2.0, eps_schedule=("fptas", 0.25)
    )


def test_run_gap_experiment(tmp_path):
    star = Graph(6, tuple((0, leaf) for leaf in range(1, 6)))
    gpath = tmp_path / "star.txt"
    gpath.write_text(serialize_graph(star))
    cfg = ExperimentConfig(
        "gap_solver",
        {"graph": str(gpath)},
        40,
        tuple(range(5)),
        params={"A": 1 / 6, "B": 0.5},
    )
    summary = run_experiment(cfg, tmp_path / "out")
    assert summary["yes_count"] == 5
    assert summary["yes_frequency"] == 1.0
    assert summary["bounds"]["checked"] == 0
    assert summary["bounds"]["all_ok"]


def test_run_gftpl_experiment_with_file_rounds(tmp_path):
    inst = gen_random_gkp(4, 12, SeededRng(21))
    path = tmp_path / "inst.json"
    path.write_text(serialize_gkp(inst))
    cfg = ExperimentConfig("gftpl_gkp", {"gkp": str(path)}, 10, (0, 1))
    summary = run_experiment(cfg, tmp_path / "out")
    for row in summary["per_seed"]:
        assert row["regret"] <= row["bound"]
    assert summary["bounds"]["all_ok"]


def test_run_gftpl_fptas_resolves_default_eta(tmp_path):
    # without "eta" the FPTAS path must derive the same eta gftpl_run would,
    # so the traces equal those of the same config with that eta spelled out
    inst = gen_random_gkp(3, 6, SeededRng(23))
    path = tmp_path / "inst.json"
    path.write_text(serialize_gkp(inst))
    T = 6
    params = {"oracle": "fptas", "G_f": 3.0}
    eta = default_eta(GftplConfig(N=3, G_f=3.0, F_M=3.0), T**-0.5, T)
    derived = run_experiment(
        ExperimentConfig("gftpl_gkp", {"gkp": str(path)}, T, (0, 1), params=params),
        tmp_path / "derived",
    )
    explicit = run_experiment(
        ExperimentConfig("gftpl_gkp", {"gkp": str(path)}, T, (0, 1), params={**params, "eta": eta}),
        tmp_path / "explicit",
    )
    assert derived["bounds"]["all_ok"] and explicit["bounds"]["all_ok"]
    traces = sorted(p.name for p in (tmp_path / "derived").glob("*.csv"))
    assert len(traces) == 2
    for name in traces:
        assert (tmp_path / "derived" / name).read_bytes() == (tmp_path / "explicit" / name).read_bytes()


def test_run_gftpl_fptas_sweep_resolves_eta_per_horizon(tmp_path):
    # every horizon of a sweep derives its own eta; T=0 writes a header only
    inst = gen_random_gkp(3, 6, SeededRng(26))
    path = tmp_path / "inst.json"
    path.write_text(serialize_gkp(inst))
    params = {"oracle": "fptas", "G_f": 3.0}
    sweep = run_experiment(
        ExperimentConfig("gftpl_gkp", {"gkp": str(path)}, 6, (0, 1), params={**params, "T_sweep": [0, 1, 6]}),
        tmp_path / "sweep",
    )
    assert [g["T"] for g in sweep["sweep"]] == [0, 1, 6]
    for seed in (0, 1):
        assert len((tmp_path / "sweep" / f"trace_T0_seed{seed}.csv").read_text().splitlines()) == 1
    for T in (1, 6):
        eta = default_eta(GftplConfig(N=3, G_f=3.0, F_M=3.0), T**-0.5, T)
        run_experiment(
            ExperimentConfig("gftpl_gkp", {"gkp": str(path)}, T, (0, 1), params={**params, "eta": eta}),
            tmp_path / f"single{T}",
        )
        for seed in (0, 1):
            got = (tmp_path / "sweep" / f"trace_T{T}_seed{seed}.csv").read_bytes()
            assert got == (tmp_path / f"single{T}" / f"trace_seed{seed}.csv").read_bytes()


def test_run_gftpl_sweep_sets_vanishing_flag(tmp_path):
    inst = gen_random_gkp(3, 1, SeededRng(22))
    path = tmp_path / "inst.json"
    path.write_text(serialize_gkp(inst))
    cfg = ExperimentConfig(
        "gftpl_gkp",
        {"gkp": str(path)},
        64,
        tuple(range(4)),
        params={"round_source": "random", "T_sweep": [16, 64, 256]},
    )
    summary = run_experiment(cfg, tmp_path / "out")
    assert [g["T"] for g in summary["sweep"]] == [16, 64, 256]
    assert "vanishing" in summary["bounds"]
    assert (tmp_path / "out" / "trace_T16_seed0.csv").exists()
    assert (tmp_path / "out" / "trace_T256_seed3.csv").exists()


def _gftpl_default_oracle_configs(tmp_path):
    """gftpl_gkp configs without an "oracle" key: random and tie-heavy
    dyadic rounds, from a file and drawn per seed, with and without eta."""
    inst = gen_random_gkp(5, 150, SeededRng(24))
    random_file = tmp_path / "random.json"
    random_file.write_text(serialize_gkp(inst))
    rng = SeededRng(25)
    w = [0.25, 0.25, 0.5, 0.5, 0.75, 0.75]  # twins: sets swapping one for the other tie
    rounds = []
    for _ in range(150):
        p = [rng.randrange(3) / 4.0 for _ in range(6)]
        rounds.append(GkpRound([p[i - i % 2] for i in range(6)], rng.randrange(4) * 0.375))
    dyadic_file = tmp_path / "dyadic.json"
    dyadic_file.write_text(serialize_gkp(GkpInstanceSet(GkpStatic(6, w, 1.5), rounds)))
    return {
        "file": ExperimentConfig("gftpl_gkp", {"gkp": str(random_file)}, 150, (0, 1)),
        "random_sweep": ExperimentConfig(
            "gftpl_gkp",
            {"gkp": str(random_file)},
            64,
            (2, 3),
            params={"round_source": "random", "T_sweep": [0, 1, 64, 200]},
        ),
        "dyadic_no_eta": ExperimentConfig(
            "gftpl_gkp", {"gkp": str(dyadic_file)}, 150, (4, 5), params={"eta": 0.0}
        ),
        "dyadic": ExperimentConfig("gftpl_gkp", {"gkp": str(dyadic_file)}, 150, (6,)),
    }


@pytest.mark.parametrize("injected", ["CachingBruteOracle", "brute_oracle"])
def test_gftpl_default_oracle_writes_the_files_of_an_injected_exact_oracle(
    tmp_path, monkeypatch, injected
):
    # the harness's default is gftpl_run's own exact leader (oracle=None);
    # handing the run a callable exact oracle instead changes no byte
    configs = _gftpl_default_oracle_configs(tmp_path)
    for name, cfg in configs.items():
        run_experiment(cfg, tmp_path / "default" / name)

    real_run = harness.gftpl_run

    def run_with_oracle(static, rounds, oracle, cfg, rng):
        assert oracle is None
        oracle = CachingBruteOracle() if injected == "CachingBruteOracle" else brute_oracle
        return real_run(static, rounds, oracle, cfg, rng)

    monkeypatch.setattr(harness, "gftpl_run", run_with_oracle)
    for name, cfg in configs.items():
        run_experiment(cfg, tmp_path / "injected" / name)
        files = sorted(p.name for p in (tmp_path / "default" / name).iterdir())
        assert "summary.json" in files and len(files) > 1
        assert files == sorted(p.name for p in (tmp_path / "injected" / name).iterdir())
        for f in files:
            got = (tmp_path / "default" / name / f).read_bytes()
            assert got == (tmp_path / "injected" / name / f).read_bytes(), (name, f)


def old_payoff_ceiling(rounds):
    """The per-round expression the harness's default G_f used to be."""
    return max((float(np.clip(r.p, 0.0, None).sum()) for r in rounds), default=1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 33, 130, 199])
def test_payoff_ceiling_matches_the_per_round_sums(n):
    rng = SeededRng(n)
    cfg = ExperimentConfig("gftpl_gkp", {"gkp": "k"}, 4, (0,))
    for T in (0, 1, 5, 64):
        rounds = [
            GkpRound([rng.random() * 10.0 ** (rng.randrange(7) - 3) for _ in range(n)], 1.0)
            for _ in range(T)
        ]
        zeros = [GkpRound(np.zeros(n), 1.0), GkpRound(-np.zeros(n), 0.0)]
        for rs in (rounds, zeros, rounds + zeros):
            G_f = harness._gftpl_config(cfg, n, rs).G_f
            assert G_f == max(old_payoff_ceiling(rs), 1.0)
            assert type(G_f) is float


# --- compare_bounds -----------------------------------------------------------------


def test_compare_bounds_flags_violations():
    ok = compare_bounds(
        {"algorithm": "x", "per_seed": [{"seed": 0, "T": 4, "regret": 42.0, "bound": 60.0}]}
    )
    assert ok["all_ok"] and ok["checked"] == 1
    edge = compare_bounds(
        {"algorithm": "x", "per_seed": [{"seed": 0, "T": 0, "regret": -1.0, "bound": 0.0}]}
    )
    assert edge["all_ok"]
    bad = compare_bounds(
        {"algorithm": "x", "per_seed": [{"seed": 3, "T": 4, "regret": 61.0, "bound": 60.0}]}
    )
    assert not bad["all_ok"]
    assert bad["violations"][0]["seed"] == 3


def test_compare_bounds_vanishing_flag():
    mk = lambda rates: {
        "algorithm": "x",
        "sweep": [
            {"T": T, "per_seed": [], "regret_per_round": r}
            for T, r in zip((256, 1024, 4096), rates)
        ],
    }
    assert compare_bounds(mk([0.9, 0.5, 0.3]))["vanishing"] is True
    assert compare_bounds(mk([0.5, 0.9, 0.3]))["vanishing"] is False
