"""Command-line interface, end to end on tiny inputs."""

import json
from collections import Counter

import pytest

from regretlab import harness
from regretlab.cli import main
from regretlab.gftpl import GftplConfig, theorem3_bound
from regretlab.instances import (
    Graph,
    WeightSequence,
    gen_random_gkp,
    gen_uniform_weights,
    parse_dnf,
    parse_gkp,
    parse_graph,
    parse_weights,
    serialize_gkp,
    serialize_graph,
    serialize_weights,
)
from regretlab.rng import SeededRng


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# --- gen --------------------------------------------------------------------------


def test_gen_graph_roundtrip(capsys, tmp_path):
    out = tmp_path / "g.txt"
    code, _ = run_cli(capsys, "gen", "graph", "--n", "6", "--p", "0.5", "--seed", "3", "-o", str(out))
    assert code == 0
    g = parse_graph(out.read_text())
    assert g.n == 6


def test_gen_is_deterministic(capsys):
    _, first = run_cli(capsys, "gen", "graph", "--n", "8", "--seed", "11")
    _, second = run_cli(capsys, "gen", "graph", "--n", "8", "--seed", "11")
    assert first == second


def test_gen_weights_kinds(capsys):
    code, text = run_cli(capsys, "gen", "weights", "--n", "4", "--T", "6", "--seed", "1")
    assert code == 0
    seq = parse_weights(text)
    assert (seq.T, seq.n) == (6, 4)
    code, text = run_cli(
        capsys, "gen", "weights", "--n", "4", "--T", "6", "--weight-kind", "onehot", "--seed", "1"
    )
    assert code == 0
    assert all(row.sum() == 1.0 for row in parse_weights(text).rows)


def test_gen_dnf_and_gkp(capsys):
    code, text = run_cli(capsys, "gen", "dnf", "--n", "5", "--m", "4", "--seed", "2")
    assert code == 0
    assert parse_dnf(text, n=5).m == 4
    code, text = run_cli(capsys, "gen", "gkp", "--n", "4", "--m", "3", "--seed", "2")
    assert code == 0
    inst = parse_gkp(text)
    assert (inst.static.n, len(inst.rounds)) == (4, 3)


# --- run ---------------------------------------------------------------------------


def test_run_experiment_cli(capsys, tmp_path):
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    (tmp_path / "g.txt").write_text(serialize_graph(g))
    cfg = {
        "algorithm": "ogd_vc",
        "instance": {"graph": "g.txt"},
        "T": 30,
        "seeds": [0, 1],
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "run", str(cfg_path), "-o", str(tmp_path / "out"))
    assert code == 0
    report = json.loads(out[: out.rindex("}") + 1])
    assert report["all_ok"]
    assert (tmp_path / "out" / "summary.json").exists()
    assert (tmp_path / "out" / "trace_seed1.csv").exists()


def test_run_parses_each_instance_file_once(capsys, tmp_path, monkeypatch):
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    (tmp_path / "g.txt").write_text(serialize_graph(g))
    (tmp_path / "w.csv").write_text(serialize_weights(gen_uniform_weights(5, 20, 1.0, SeededRng(3))))
    (tmp_path / "k.json").write_text(serialize_gkp(gen_random_gkp(4, 20, SeededRng(4))))
    calls = Counter()

    def counting(name, parse):
        def wrapped(text):
            calls[name] += 1
            return parse(text)
        return wrapped

    for name in ("parse_graph", "parse_weights", "parse_gkp"):
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    configs = {
        "ogd.json": ({"algorithm": "ogd_vc", "instance": {"graph": "g.txt", "weights": "w.csv"}},
                     {"parse_graph": 1, "parse_weights": 1}),
        "gftpl.json": ({"algorithm": "gftpl_gkp", "instance": {"gkp": "k.json"}}, {"parse_gkp": 1}),
    }
    for name, (cfg, expected) in configs.items():
        (tmp_path / name).write_text(json.dumps(cfg | {"T": 20, "seeds": [0, 1]}))
        calls.clear()
        code, _ = run_cli(capsys, "run", str(tmp_path / name), "-o", str(tmp_path / f"out_{name}"))
        assert code == 0
        assert calls == expected, name


@pytest.mark.parametrize(
    "algorithm, params",
    [
        ("gap_solver", {"A": 0.2, "B": 0.6, "learner": "ogd"}),
        ("ogd_vc", {"weight_gen": "onehot"}),
        ("ogd_vc", {"step_mode": "paper"}),
    ],
    ids=["gap_learner_ogd", "weight_gen_onehot", "step_mode_paper"],
)
def test_run_ogd_paths_play_covers_and_rerun_byte_identically(capsys, tmp_path, algorithm, params):
    g = Graph(7, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))
    (tmp_path / "g.txt").write_text(serialize_graph(g))
    cfg = {"algorithm": algorithm, "instance": {"graph": "g.txt"}, "T": 60, "seeds": [0, 1, 2], "params": params}
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        run_cli(capsys, "run", str(tmp_path / "exp.json"), "-o", str(out))
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert names == ["summary.json", "trace_seed0.csv", "trace_seed1.csv", "trace_seed2.csv"]
    played = 0
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        if name.endswith(".csv"):
            header, *rows = (outs[0] / name).read_text().split("\n")
            col = header.split(",").index("played_set")
            for row in rows:
                cell = row.split(",")[col]
                cover = {int(v) for v in cell.split(";")} if cell else set()
                assert all(u in cover or v in cover for u, v in g.edges), (name, row)
                played += 1
    assert played > 0


@pytest.mark.parametrize(
    "algorithm, instance, key, value, allowed",
    [
        ("gap_solver", "graph", "learner", "OGD", "('ftl', 'ogd')"),
        ("ogd_vc", "graph", "weight_gen", "one-hot", "('uniform', 'onehot')"),
        ("gftpl_gkp", "gkp", "oracle", "FPTAS", "('brute', 'fptas')"),
        ("gftpl_gkp", "gkp", "round_source", "files", "('file', 'random')"),
    ],
)
def test_run_rejects_unknown_selector_values(capsys, tmp_path, algorithm, instance, key, value, allowed):
    params = {"A": 0.2, "B": 0.6} if algorithm == "gap_solver" else {}
    message = f"unknown {key} '{value}'; pick from {allowed}"
    assert_run_usage_error(capsys, tmp_path, algorithm, (instance,), params | {key: value}, message)


def assert_run_usage_error(capsys, tmp_path, algorithm, roles, params, message, top=None):
    """``regretlab run`` on the config, with an instance file for each of
    ``roles``, exits 2 with one error line, the given message, and writes
    no output directory. Each file has 4 rows or rounds; the weights peak
    at 1.5. ``top`` replaces keys of the config's top level (T: 4,
    seeds: [0]); a None value removes the key."""
    (tmp_path / "graph").write_text(serialize_graph(Graph(3, ((0, 1), (1, 2)))))
    (tmp_path / "weights").write_text(serialize_weights(WeightSequence(3, [[0.25, 1.5, 0.5]] * 4)))
    (tmp_path / "gkp").write_text(serialize_gkp(gen_random_gkp(3, 4, SeededRng(5))))
    cfg = {"algorithm": algorithm, "instance": {role: role for role in roles}, "T": 4,
           "seeds": [0], "params": params} | (top or {})
    cfg = {key: value for key, value in cfg.items() if value is not None}
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    for out in (("-o", str(tmp_path / "out")), ()):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(tmp_path / "exp.json"), *out])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"regretlab run: error: {message}"
        assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "exp_out").exists()


@pytest.mark.parametrize(
    "algorithm, params, message",
    [
        ("ogd_vc", {"step_mode": "Paper"}, "step_mode must be 'paper' or 'scaled', got 'Paper'"),
        ("ogd_vc", {"W_bound": -1}, "W_bound must be a finite number in (0, inf), got -1.0"),
        ("ogd_vc", {"W_bound": "one"}, "W_bound must be a finite number in (0, inf), got 'one'"),
        ("ogd_vc", {"T_sweep": [4, -1]}, "T_sweep horizons must be nonnegative, got [4, -1]"),
        ("ogd_vc", {"T_sweep": 4}, "T_sweep must be a list of horizons, got 4"),
        ("gap_solver", {"B": 0.6}, "gap_solver needs param 'A'"),
        ("gap_solver", {"A": 0.2, "B": 0.6, "c_exp": 1.0},
         "regret exponent c_exp must be a finite number in [0, 1), got 1.0"),
        ("gftpl_gkp", {"T_sweep": [4, -1]}, "T_sweep horizons must be nonnegative, got [4, -1]"),
        ("gftpl_gkp", {"kappa": "abc"}, "kappa must be a finite number in [1, inf), got 'abc'"),
        ("gftpl_gkp", {"kappa": 0.5}, "kappa must be a finite number in [1, inf), got 0.5"),
        ("gftpl_gkp", {"eps_schedule": "FPTAS"},
         "eps_schedule mode must be 'additive' or 'fptas', got 'FPTAS'"),
        ("gftpl_gkp", {"eta": -1}, "eta must be a finite number in [0, inf), got -1.0"),
        ("ogd_vc", {"T_sweep": [3.7]}, "a T_sweep horizon must be an integer, got 3.7"),
        ("gap_solver", {"A": 0.2, "B": 0.6, "eps": float("inf")}, "eps must be a finite number in (0, inf), got inf"),
        ("gap_solver", {"A": 0.2, "B": 0.6, "eps": float("nan")}, "eps must be a finite number in (0, inf), got nan"),
        ("gap_solver", {"A": 0.2, "B": 0.6, "p_coeff": float("nan")},
         "regret coefficient p_coeff must be a finite number in (0, inf), got nan"),
        ("ogd_vc", {"W_bound": "2"}, "W_bound must be a finite number in (0, inf), got '2'"),
        ("ogd_vc", {"W_bound": True}, "W_bound must be a finite number in (0, inf), got True"),
        ("ogd_vc", {"stepmode": "paper"},
         "unknown param 'stepmode' for ogd_vc; pick from ('weight_gen', 'T_sweep', 'W_bound', 'step_mode')"),
        ("ogd_vc", {"W_boud": 0.01},
         "unknown param 'W_boud' for ogd_vc; pick from ('weight_gen', 'T_sweep', 'W_bound', 'step_mode')"),
        ("gap_solver", {"A": 0.2, "B": 0.6, "W_bound": 1.0},
         "unknown param 'W_bound' for gap_solver; pick from "
         "('learner', 'T_sweep', 'A', 'B', 'p_coeff', 'c_exp', 'eps')"),
        ("gftpl_gkp", {"learner": "ogd"},
         "unknown param 'learner' for gftpl_gkp; pick from ('oracle', 'round_source', 'T_sweep', 'eta', "
         "'kappa', 'delta', 'G_gamma', 'G_f', 'F_M', 'eps', 'eps_schedule')"),
    ],
    ids=["step_mode", "W_bound_negative", "W_bound_text", "T_sweep_negative", "T_sweep_scalar",
         "gap_missing_A", "gap_c_exp", "gftpl_T_sweep", "gftpl_kappa_text", "gftpl_kappa_below_1",
         "gftpl_eps_schedule", "gftpl_eta_negative", "T_sweep_float", "gap_eps_inf", "gap_eps_nan",
         "gap_p_coeff_nan", "W_bound_numeric_text", "W_bound_bool", "ogd_unknown_stepmode",
         "ogd_unknown_W_boud", "gap_unknown_W_bound", "gftpl_unknown_learner"],
)
def test_run_rejects_bad_params_before_writing(capsys, tmp_path, algorithm, params, message):
    instance = "gkp" if algorithm == "gftpl_gkp" else "graph"
    assert_run_usage_error(capsys, tmp_path, algorithm, (instance,), params, message)


@pytest.mark.parametrize(
    "top, message",
    [
        ({"T": 2.5}, "T must be an integer, got 2.5"),
        ({"seeds": [True, 1.9]}, "a seed must be an integer, got True"),
        ({"seeds": [0, 1.9]}, "a seed must be an integer, got 1.9"),
        ({"seeds": None, "base_seed": 1.5, "num_seeds": 2}, "base_seed must be an integer, got 1.5"),
        ({"seeds": None, "base_seed": 1, "num_seeds": 2.0}, "num_seeds must be an integer, got 2.0"),
    ],
    ids=["T_float", "seed_bool", "seed_float", "base_seed_float", "num_seeds_float"],
)
def test_run_refuses_config_integers_that_are_not_integers(capsys, tmp_path, top, message):
    # int() truncated each of them: T 2.5 ran T = 2, seeds [true, 1.9] ran seed 1 twice
    assert_run_usage_error(capsys, tmp_path, "ogd_vc", ("graph",), {}, message, top)


@pytest.mark.parametrize(
    "top, message",
    [
        ({"seeds": 5}, "seeds must be a list of seeds, got 5"),
        ({"seeds": "01"}, "seeds must be a list of seeds, got '01'"),
        ({"seeds": [1, 0, 1]}, "seed 1 is listed twice"),
    ],
    ids=["seeds_int", "seeds_text", "seed_twice"],
)
def test_run_refuses_seeds_that_are_no_list_of_distinct_seeds(capsys, tmp_path, top, message):
    # "seeds": 5 ended in a TypeError traceback, and [1, 1] ran seed 1 twice,
    # weighing it double in mean_regret
    assert_run_usage_error(capsys, tmp_path, "gap_solver", ("graph",), {"A": 0.2, "B": 0.6}, message, top)


def test_run_gap_config_whose_horizon_overflows_runs_each_replica_horizon(capsys, tmp_path):
    # ((A·eps) / (2·p(n)·B))^(1/(c-1)) overflows a float here; each replica
    # sets T_override = T, so the run plays T rounds instead of raising
    (tmp_path / "g.txt").write_text(serialize_graph(Graph(3, ((0, 1), (1, 2)))))
    cfg = {"algorithm": "gap_solver", "instance": {"graph": "g.txt"}, "T": 4, "seeds": [0, 1],
           "params": {"A": 1e-300, "B": 0.6, "c_exp": 0.99}}
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    code, _ = run_cli(capsys, "run", str(tmp_path / "exp.json"), "-o", str(tmp_path / "out"))
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [row["T"] for row in summary["per_seed"]] == [4, 4]


@pytest.mark.parametrize(
    "algorithm, roles, params, message",
    [
        ("ogd_vc", ("graph", "weights"), {"W_bound": 2.0, "T_sweep": [4, 8]},
         "weights file has 4 rows, need T=8"),
        ("ogd_vc", ("graph", "weights"), {},
         "weights file has weights above W_bound 1.0 in its first 4 rows"),
        ("gftpl_gkp", ("gkp",), {"T_sweep": [4, 8]}, "gkp file has 4 rounds, need T=8"),
    ],
    ids=["weights_short", "weights_above_W_bound", "gkp_short"],
)
def test_run_rejects_instance_files_that_do_not_fit_before_writing(
    capsys, tmp_path, algorithm, roles, params, message
):
    assert_run_usage_error(capsys, tmp_path, algorithm, roles, params, message)


def test_run_rejects_a_missing_instance_file_as_a_usage_error(capsys, tmp_path):
    (tmp_path / "exp.json").write_text(
        json.dumps({"algorithm": "ogd_vc", "instance": {"graph": "nope.txt"}, "T": 4, "seeds": [0]})
    )
    with pytest.raises(SystemExit) as exc:
        main(["run", str(tmp_path / "exp.json")])
    assert exc.value.code == 2
    assert "No such file or directory" in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "exp_out").exists()


# --- verify ------------------------------------------------------------------------


def test_verify_reductions_cli(capsys, tmp_path):
    path = tmp_path / "f.dnf"
    path.write_text("1 -2 3\n-1 2 4\n")
    code, out = run_cli(capsys, "verify", "reductions", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert report["assignments_checked"] == 16


def test_verify_projection_cli(capsys, tmp_path):
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (0, 4)))
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(g))
    code, out = run_cli(
        capsys, "verify", "projection", str(path), "--trials", "15", "--candidates", "30"
    )
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == {"feasible": 0, "idempotent": 0, "optimal": 0}


# --- bench -------------------------------------------------------------------------


def test_bench_oracle_cli(capsys, tmp_path):
    inst = gen_random_gkp(6, 3, SeededRng(5))
    path = tmp_path / "inst.json"
    path.write_text(serialize_gkp(inst))
    code, out = run_cli(capsys, "bench", "oracle", str(path), "--eps", "0.5", "0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,eps,brute_value,fptas_value,ratio,dp_cells,elapsed_ms"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[0]) == 6
        eps, ratio = float(cells[2]), float(cells[5])
        assert ratio >= (1.0 - eps) - 1e-12


# --- bound -------------------------------------------------------------------------


def test_bound_theorem2_cli(capsys):
    code, out = run_cli(capsys, "bound", "theorem2", "--W", "1.0", "--n", "4", "--T", "4")
    assert code == 0
    assert float(out) == 12.0


def test_bound_theorem3_cli(capsys):
    code, out = run_cli(
        capsys, "bound", "theorem3", "--N", "2", "--T", "100", "--eps", "0.1",
        "--kappa", "2.0", "--G-f", "1.0",
    )
    assert code == 0
    assert float(out) == pytest.approx(2 * 240**0.5 + 10)


@pytest.mark.parametrize("T", [0, 1, 100])
def test_bound_theorem3_cli_defaults_eps_to_inverse_root_horizon(capsys, T):
    code, out = run_cli(capsys, "bound", "theorem3", "--N", "3", "--T", str(T))
    assert code == 0
    eps = T**-0.5 if T else 0.0
    assert out == f"{theorem3_bound(GftplConfig(N=3), eps, T)!r}\n"


def test_bound_theorem3_cli_needs_no_eta(capsys):
    # the bound never uses eta, so G_gamma = 0 (where default_eta is
    # undefined) still prints the bound
    code, out = run_cli(capsys, "bound", "theorem3", "--N", "2", "--T", "16", "--G-gamma", "0")
    assert code == 0
    assert float(out) == 0.25 * 16


@pytest.mark.parametrize(
    "argv, message",
    [
        (("theorem3", "--N", "0", "--T", "10"), "N must be >= 1, got 0"),
        # each pytest.param id names the rule its value breaks
        pytest.param(("theorem3", "--N", "2", "--T", "10", "--kappa", "nan"),
                     "kappa must be a finite number in [1, inf), got nan", id="argv1-kappa must be finite, got nan"),
        (("theorem3", "--N", "2", "--T", "-1"), "T must be nonnegative, got -1"),
        pytest.param(("theorem2", "--W", "-1", "--n", "3", "--T", "10"),
                     "W must be a finite number in [0, inf), got -1.0", id="argv3-W must be nonnegative, got -1.0"),
        (("theorem2", "--n", "0", "--T", "10"), "need n >= 1 and T >= 0, got n=0, T=10"),
        pytest.param(("theorem2", "--W", "nan", "--n", "3", "--T", "10"),
                     "W must be a finite number in [0, inf), got nan", id="argv5-W must be finite, got nan"),
    ],
)
def test_bound_rejects_invalid_values_as_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["bound", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"regretlab bound {argv[0]}: error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gen", "graph", "--n", "3", "--p", "2"), "edge probability p must be a finite number in [0, 1], got 2.0"),
        (("gen", "weights", "--n", "2", "--T", "2", "--W", "inf"), "W must be a finite number in [0, inf), got inf"),
        (("gen", "dnf", "--n", "2", "--m", "1"), "need at least 3 variables for 3-literal clauses"),
        (("gen", "dnf", "--n", "5", "--m", "-2"), "need m >= 0 clauses, got m=-2"),
        (("gen", "gkp", "--n", "0", "--m", "1"), "need n >= 1 items and m >= 0 rounds"),
        (("run", "{dir}/exp.json"), "line 3: self-loop at vertex 1"),
        (("verify", "reductions", "{dir}/f.dnf", "--n", "5"), "line 1: a clause variable must be in [0, 5), got 6"),
        (("verify", "projection", "{dir}/empty.txt"), "line 1: missing 'n m' header"),
        (("verify", "projection", "{dir}/g.txt", "--trials", "-1"),
         "argument --trials: must be a nonnegative integer, got '-1'"),
        (("verify", "projection", "{dir}/g.txt", "--candidates", "-1"),
         "argument --candidates: must be a nonnegative integer, got '-1'"),
        (("bench", "oracle", "{dir}/bad.json", "--eps", "0.5"),
         "line 1: penalty rate c must be a finite number in [0, inf), got 'x'"),
        (("bench", "oracle", "{dir}/missing.json", "--eps", "0.5"),
         "[Errno 2] No such file or directory: '{dir}/missing.json'"),
        (("bound", "theorem2", "--n", "0", "--T", "10"), "need n >= 1 and T >= 0, got n=0, T=10"),
    ],
    ids=["gen_graph", "gen_weights", "gen_dnf", "gen_dnf_negative_m", "gen_gkp", "run", "verify_reductions",
         "verify_projection_header", "verify_projection_trials", "verify_projection_candidates",
         "bench_oracle_field", "bench_oracle_missing", "bound"],
)
def test_bad_input_is_a_usage_error_of_the_invoked_subcommand(capsys, tmp_path, argv, message):
    (tmp_path / "g.txt").write_text("2 1\n0 1")
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "graph.txt").write_text("3 2\n0 1\n1 1")
    (tmp_path / "exp.json").write_text(
        json.dumps({"algorithm": "ogd_vc", "instance": {"graph": "graph.txt"}, "T": 4, "seeds": [0]})
    )
    (tmp_path / "f.dnf").write_text("1 2 7\n")
    (tmp_path / "bad.json").write_text('{"w": [1.0], "c": "x", "rounds": []}')
    with pytest.raises(SystemExit) as exc:
        main([a.format(dir=tmp_path) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    prog = " ".join(["regretlab", *(a for a in argv[:2] if a.isalnum())])
    assert captured.err.splitlines()[-1] == f"{prog}: error: {message.format(dir=tmp_path)}"
    assert "Traceback" not in captured.err
    assert not (tmp_path / "exp_out").exists()


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "gen" in capsys.readouterr().out
