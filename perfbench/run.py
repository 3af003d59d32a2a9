"""regretlab benchmark: run one reference workload, check it, report metrics.

    python3 perfbench/run.py --workload vertex_cover --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from anywhere; the benchmark uses the ``src/`` tree of the checkout it
sits in and writes only under ``.bench_build/perfbench`` there.  One run:

1. set-up: ``workloads.py`` writes the instance files and configs from the
   workload seed, in a fresh interpreter, 7 times (``setup_s`` is the
   median wall time); the copies must be byte-identical;
2. measurement: ``worker.py``, a fresh interpreter with BLAS/OpenMP capped at
   one thread, repeats ``regretlab run`` over the configs for ``--seconds``;
   ``experiment_s`` is the median pass, the first (warm-up) pass left out;
3. checks (``checks.py``) on every replica of every iteration;
4. with ``--trace 1``, a traced replay whose CSVs must match the untraced
   ones byte for byte, reported as per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (replicas) and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``.  ``--workload
all`` runs the workloads one after another, each in its own process,
and prefixes each metric with its workload's name.  If the program cannot
be found or a step crashes, the exit code is non-zero and no result is
printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = BUILD / "results"

END_TO_END = {"setup_s": "s", "experiment_s": "s", "rounds_per_s": "rounds/s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 7
MAX_FAILURE_LINES = 20
# every run, set-up and checks included, must end within this many seconds
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    """A step of the benchmark itself failed; no result can be reported."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start {Path(argv[1]).name}")
    try:
        proc = subprocess.run([sys.executable, *argv], env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{Path(argv[1]).name} overran the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{Path(argv[1]).name} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def _environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _count_rounds(out: Path) -> int:
    """Replica-rounds: trace rows summed over every replica CSV."""
    return sum(len(p.read_bytes().splitlines()) - 1 for p in out.rglob("trace_*.csv"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One benchmark run; returns the result record."""
    from checks import Checker, same_tree, tree_digest

    deadline = time.monotonic() + RUN_DEADLINE_S
    run_dir = BUILD / "runs" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_dir = run_dir / "setup"
        setup_times = []
        setup_same = True
        for k in range(1 if trace else SETUP_REPEATS):
            out = setup_dir if k == 0 else run_dir / f"setup{k}"
            t0 = time.perf_counter()
            _run_child([str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
                        "--size", size, "--out", str(out)], deadline)
            setup_times.append(time.perf_counter() - t0)
            if k:
                setup_same = setup_same and same_tree(out, setup_dir)
                shutil.rmtree(out)

        _run_child([str(HERE / "worker.py"), "--workload", workload, "--dir", str(run_dir),
                    "--seconds", str(seconds), "--trace", str(int(trace))], deadline)
        worker = json.loads((run_dir / "worker.json").read_text())

        checker = Checker(workload, seed, setup_dir)
        if not setup_same:
            checker.messages.append(f"FAIL {workload} seed={seed} layer=instances: "
                                    "repeated set-ups wrote different bytes")
        iterations = worker["iterations"]
        for k, it in enumerate(iterations):
            where = f"iter{k}"
            checker.check_iteration(where, it["configs"], run_dir / where)
            if k == 0:
                checker.check_outputs(where, run_dir / where)
            else:
                checker.check_same_traces(where, run_dir / where, run_dir / "iter0", "iteration 0")
                shutil.rmtree(run_dir / where)
        attempted = checker.replicas_per_iteration * len(iterations)

        experiment_s = worker["experiment_s"]
        rounds = _count_rounds(run_dir / "iter0")
        record = {
            "workload": workload,
            "seed": seed,
            "size": size,
            "trace": int(trace),
            "seconds": seconds,
            "setup_s": setup_times,
            "iteration_s": [it["seconds"] for it in iterations],
            "iteration_cpu_s": [it["cpu_seconds"] for it in iterations],
            "config_s": {e["config"]: [it["configs"][j]["seconds"] for it in iterations]
                         for j, e in enumerate(iterations[0]["configs"])},
            "rounds": rounds,
            "environment": _environment() | {"regretlab": worker["regretlab"]},
            "outputs_sha256": tree_digest(run_dir / "iter0"),
        }
        if trace:
            replay = worker["trace"]
            if "error" in replay:
                raise BenchError(f"traced replay crashed:\n{replay['error']}")
            checker.check_same_traces("replay", run_dir / "replay", run_dir / "iter0", "the untraced run")
            for f in replay["failures"]:
                checker.fail("replay", f["config"], f["seed"], f["layer"], f["what"])
            if not same_tree(run_dir / "replay_setup", setup_dir):
                checker.messages.append(f"FAIL {workload} seed={seed} layer=instances: "
                                        "traced set-up replay wrote different bytes")
            attempted += replay["replicas"]
            record["metrics"] = replay["metrics"]
            RESULTS.mkdir(parents=True, exist_ok=True)
            shutil.move(str(run_dir / "spans.jsonl"), RESULTS / f"{workload}-seed{seed}.spans.jsonl")
        else:
            record["metrics"] = {
                "setup_s": statistics.median(setup_times),
                "experiment_s": experiment_s,
                "rounds_per_s": rounds / experiment_s,
                "peak_rss_mb": worker["peak_rss_mb"],
            }
        record.update(
            correct=not checker.messages,
            attempted=attempted,
            failed=len(checker.failed),
            failures=checker.messages,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _units(trace: bool) -> dict:
    if not trace:
        return END_TO_END
    from replay import UNITS

    return UNITS


def _report(record: dict) -> None:
    """Human-readable lines for one workload, each metric with its unit."""
    w = record["workload"]
    n_it = len(record["iteration_s"])
    print(f"{w} seed={record['seed']}: {n_it} iterations in {sum(record['iteration_s']):.1f} s, "
          f"{record['rounds']} replica-rounds per iteration")
    failures = record["failures"]
    for line in failures[:MAX_FAILURE_LINES]:
        print("  " + line)
    if len(failures) > MAX_FAILURE_LINES:
        print(f"  ... {len(failures) - MAX_FAILURE_LINES} more failures in the run's result record")
    units = _units(bool(record["trace"]))
    for name, value in record["metrics"].items():
        note = ""
        if name == "setup_s":
            s = record["setup_s"]
            note = f"median of {len(s)} set-ups, {min(s):.4f} .. {max(s):.4f}"
        elif name == "experiment_s":
            s = record["iteration_s"]
            note = f"median of {max(n_it - 1, 1)} iterations after a warm-up, {min(s):.4f} .. {max(s):.4f}"
        print(f"  {name:28s} {value:14.6g} {units[name]:9s} {note}")
    print(f"  {'replicas_failed':28s} {record['failed']:14d} {'count':9s} of {record['attempted']} attempted")
    if record["trace"]:
        m = record["metrics"]
        layers = m["tracing.replay_s"] - m["tracing.overhead_s"] - m["harness.self_s"]
        print(f"  accounting: layer self times {layers:.4f} s + harness.self_s {m['harness.self_s']:.4f} s"
              f" = experiment_s {layers + m['harness.self_s']:.4f} s; tracing overhead"
              f" {m['tracing.overhead_s']:.4f} s")
    env = record["environment"]
    print(f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, cpu {env['cpu']};"
          f" outputs sha256 {record['outputs_sha256'][:16]}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    records = []
    for w in WORKLOADS:
        argv = [str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            return proc.returncode
        print("\n".join(lines[:-1]))
        records.append((w, json.loads(lines[-1])))
    if not args.trace:
        print(f"{'workload':14s} " + " ".join(f"{n + ' [' + u + ']':>20s}" for n, u in END_TO_END.items())
              + f" {'replicas_failed [count]':>24s}")
        for w, res in records:
            cells = " ".join(f"{res['metrics'][n]['value']:20.6g}" for n in END_TO_END)
            print(f"{w:14s} {cells} {res['failed']:>24d}")
    metrics = {f"{w}.{k}": v["value"] for w, res in records for k, v in res["metrics"].items()}
    units = {f"{w}.{k}": v["unit"] for w, res in records for k, v in res["metrics"].items()}
    print(_result_line(all(r["correct"] for _, r in records), sum(r["attempted"] for _, r in records),
                       sum(r["failed"] for _, r in records), metrics, units))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run a regretlab benchmark workload.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed (nonnegative)")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="toy sizes exist for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "regretlab" / "__init__.py").is_file():
        print(f"error: no regretlab source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(record)
    print(_result_line(record["correct"], record["attempted"], record["failed"], record["metrics"],
                       _units(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
