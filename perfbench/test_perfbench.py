"""Tests of the benchmark itself, at toy sizes.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, setup  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_all_workloads_untraced():
    """One command runs every workload; each metric comes with its unit."""
    res = _result(_bench("--workload", "all", "--seed", "3", "--seconds", "0.3", "--size", "toy"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    expect = {f"{w}.{k}": u for w in WORKLOADS for k, u in _units("end_to_end").items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expect
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_replay(workload):
    """The replay's traces match the untraced ones; per-layer names and units."""
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", "1",
                  "--size", "toy")
    res = _result(proc)
    assert res["correct"] and res["failed"] == 0, proc.stdout
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _units("per_layer")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["traces.csv_bytes"] > 0 and m["instances.setup_gen_s"] > 0
    if workload == "vertex_cover":
        assert m["reductions.no_count"] > 0 and m["reductions.rounds"] > 0
        assert m["ogd.run_s"] > 0 and m["minmax.covers"] > 0 and m["gkp.oracle_calls"] == 0
    if workload == "knapsack":
        assert m["gkp.oracle_calls"] > 0 and m["gkp.dp_cells"] > 0 and m["ogd.run_s"] == 0


def test_setup_is_a_function_of_the_seed(tmp_path):
    for w in WORKLOADS:
        setup(w, 7, "toy", tmp_path / "a" / w)
        setup(w, 7, "toy", tmp_path / "b" / w)
        setup(w, 8, "toy", tmp_path / "c" / w)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes() for f in files)


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "vertex_cover", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _run_once(workload: str, tmp_path: Path):
    from regretlab.cli import main as cli_main

    from checks import Checker

    setup_dir = tmp_path / "setup"
    configs = setup(workload, 4, "toy", setup_dir)
    out = tmp_path / "iter0"
    for name in configs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["run", str(setup_dir / name), "-o", str(out / Path(name).stem)]) == 0
    return Checker(workload, 4, setup_dir), out


def _tamper(csv_path: Path, column: str, value: str) -> None:
    lines = csv_path.read_text().split("\n")
    header = lines[0].split(",")
    cells = lines[3].split(",")
    cells[header.index(column)] = value
    lines[3] = ",".join(cells)
    csv_path.write_text("\n".join(lines))


@pytest.mark.parametrize(
    "workload, part, column, value, layer",
    [
        ("vertex_cover", "ogd_n*", "played_set", "", "ogd"),
        ("knapsack", "gftpl_brute", "payoff", "123.0", "gftpl"),
    ],
)
def test_checks_catch_a_wrong_trace(tmp_path, workload, part, column, value, layer):
    checker, out = _run_once(workload, tmp_path)
    checker.check_outputs("iter0", out)
    assert not checker.messages
    csv_path = sorted(out.glob(f"{part}/**/trace_seed*.csv"))[0]
    _tamper(csv_path, column, value)
    checker.check_outputs("iter0", out)
    assert len(checker.failed) == 1
    (msg,) = checker.messages
    assert f"{workload} seed=4" in msg and f"layer={layer}" in msg and "T=" in msg
