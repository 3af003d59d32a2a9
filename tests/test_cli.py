"""Command-line interface, end to end on tiny inputs."""

import json

import pytest

from regretlab.cli import main
from regretlab.gftpl import GftplConfig, theorem3_bound
from regretlab.instances import (
    Graph,
    gen_random_gkp,
    parse_dnf,
    parse_gkp,
    parse_graph,
    parse_weights,
    serialize_gkp,
    serialize_graph,
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
        (("theorem3", "--N", "2", "--T", "10", "--kappa", "nan"), "kappa must be finite, got nan"),
        (("theorem3", "--N", "2", "--T", "-1"), "T must be nonnegative, got -1"),
        (("theorem2", "--W", "-1", "--n", "3", "--T", "10"), "W must be nonnegative, got -1.0"),
        (("theorem2", "--n", "0", "--T", "10"), "need n >= 1 and T >= 0, got n=0, T=10"),
    ],
)
def test_bound_rejects_invalid_values_as_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["bound", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"regretlab bound {argv[0]}: error: {message}" in err
    assert "Traceback" not in err


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "gen" in capsys.readouterr().out
