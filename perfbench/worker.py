"""Measuring process: runs one workload's configs through ``regretlab run``.

The runner starts this script once per benchmark run, in a fresh
interpreter, so its peak resident set belongs to the workload alone.  It
repeats the workload, each iteration being ``regretlab.cli.main(["run",
CONFIG, "-o", DIR])`` over every config in turn, until ``--seconds`` have
passed, and records each iteration's wall time and the median of all but
the first.  With ``--trace 1`` it then replays the set-up and every replica
once more under the tracer (see ``replay.py``).  Results go to ``worker.json`` in the run directory::

    python3 perfbench/worker.py --workload vertex_cover --dir RUN_DIR --seconds 50 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from workloads import SRC, WORKLOADS


def _run_iteration(cli_main, setup_dir: Path, configs, out: Path) -> dict:
    results = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for name in configs:
        entry = {"config": name, "exit": None, "error": None}
        t1 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                entry["exit"] = cli_main(["run", str(setup_dir / name), "-o", str(out / Path(name).stem)])
        except Exception as exc:  # a failing replica must not stop the benchmark
            entry["error"] = f"{type(exc).__name__}: {exc}"
        entry["seconds"] = time.perf_counter() - t1
        results.append(entry)
    # CPU time beside wall time tells a slower program from a busier machine
    return {"seconds": time.perf_counter() - t0, "cpu_seconds": time.process_time() - c0,
            "configs": results}


def _traced_replay(workload: str, run_dir: Path, setup_dir: Path, configs, experiment_s: float) -> dict:
    import replay

    manifest = json.loads((setup_dir / "manifest.json").read_text())
    setup_tracer = replay.Tracer()
    replay_setup = run_dir / "replay_setup"
    workloads.setup(workload, manifest["seed"], manifest["size"], replay_setup, setup_tracer)
    setup_gen_s = sum(s[3] - s[2] for s in setup_tracer.spans)

    tracer = replay.Tracer()
    rep = replay.Replay(tracer)
    t0 = time.perf_counter()
    for name in configs:
        rep.run_config(setup_dir / name, run_dir / "replay" / Path(name).stem)
    replay_s = time.perf_counter() - t0
    tracer.write(run_dir / "spans.jsonl")
    return {
        "metrics": replay.layer_metrics(tracer, rep.counts, replay_s, experiment_s, setup_gen_s),
        "replicas": rep.counts["replicas"],
        "failures": rep.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload for a fixed time.")
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--dir", required=True, help="run directory holding setup/")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import regretlab
    from regretlab.cli import main as cli_main

    if Path(regretlab.__file__).resolve().parent != SRC / "regretlab":
        raise SystemExit(f"imported regretlab from {regretlab.__file__}, not from {SRC}")
    run_dir = Path(args.dir)
    setup_dir = run_dir / "setup"
    configs = json.loads((setup_dir / "manifest.json").read_text())["configs"]

    iterations = []
    t0 = time.perf_counter()
    while not iterations or time.perf_counter() - t0 < args.seconds:
        iterations.append(_run_iteration(cli_main, setup_dir, configs, run_dir / f"iter{len(iterations)}"))
    result = {
        "iterations": iterations,
        # the first pass warms imports and caches, so it is left out
        "experiment_s": statistics.median(it["seconds"] for it in (iterations[1:] or iterations)),
        # ru_maxrss is in KiB on Linux; taken before the replay so that it
        # covers the untraced workload only
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "regretlab": str(Path(regretlab.__file__).resolve().parent),
    }
    if args.trace:
        try:
            result["trace"] = _traced_replay(args.workload, run_dir, setup_dir, configs,
                                             result["experiment_s"])
        except Exception:
            result["trace"] = {"error": traceback.format_exc()}
    (run_dir / "worker.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
