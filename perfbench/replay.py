"""Traced replay: the benchmark's own spans around each layer's public calls.

The replay runs every replica again through the same public functions, with
the same arguments, that ``regretlab.harness`` uses, and records a span
around each call into a layer.  Nothing inside ``src/`` is patched: the
oracle and the gap learner are injected by the caller in the real program
too, so wrapping them is enough to time each call.  The replay writes its
own trace CSVs; the runner requires them to be byte-identical to the ones
``regretlab run`` wrote, which shows the spans measured the same program.

Spans whose name starts with ``bench.`` are the benchmark's own checks.
They are left out of every layer's time and out of the replay total.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from regretlab import (
    CachingBruteOracle,
    GftplConfig,
    OgdConfig,
    SeededRng,
    best_static_vc_hindsight,
    brute_oracle,
    epsilon_prime,
    fptas_oracle,
    gen_uniform_weights,
    gftpl_run,
    load_experiment,
    ogd_run,
    prefix_best_values,
    trace_to_csv,
)
from regretlab.gkp import fptas_grid_info
from regretlab.instances import parse_gkp, parse_graph
from regretlab.minmax import minimal_vertex_covers
from regretlab.reductions import FtlMinMaxVcLearner, GapConfig, OgdVcLearner, gap_solver

# Layers in the order they are reported; every span name is "<layer>.<op>".
LAYERS = ("instances", "ogd", "minmax", "gkp", "gftpl", "reductions", "traces", "harness")

# Per-layer metrics and their units, in report order.
UNITS = {
    "ogd.run_s": "s",
    "ogd.round_us": "us",
    "reductions.gap_s": "s",
    "reductions.observe_us.p50": "us",
    "reductions.observe_us.p90": "us",
    "reductions.play_us.p50": "us",
    "reductions.self_s": "s",
    "reductions.rounds": "count",
    "reductions.no_count": "count",
    "gkp.oracle_calls": "count",
    "gkp.oracle_s": "s",
    "gkp.oracle_us.p50": "us",
    "gkp.oracle_us.p90": "us",
    "gkp.prefix_best_s": "s",
    "gkp.dp_cells": "count",
    "gftpl.self_s": "s",
    "minmax.hindsight_s": "s",
    "minmax.covers": "count",
    "instances.gen_s": "s",
    "instances.setup_gen_s": "s",
    "traces.csv_s": "s",
    "traces.csv_bytes": "bytes",
    "harness.self_s": "s",
    "tracing.replay_s": "s",
    "tracing.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder; spans are written out only when the run ends.

    A span is [id, name, start, end, parent id, replica id]; times are
    ``time.perf_counter`` seconds.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.replica: str | None = None
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "replica")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        stack = tracer._stack
        self.rec = [len(tracer.spans), name, 0.0, 0.0, stack[-1] if stack else None, tracer.replica]

    def __enter__(self):
        self.tracer.spans.append(self.rec)
        self.tracer._stack.append(self.rec[0])
        self.rec[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[3] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class TracedLearner:
    """Gap learner wrapper: each play and observe call becomes a span."""

    def __init__(self, learner, tracer: Tracer) -> None:
        self.learner = learner
        self.tracer = tracer

    def play(self) -> frozenset:
        with self.tracer.span("reductions.play"):
            return self.learner.play()

    def observe(self, w_row, cost: float) -> None:
        with self.tracer.span("reductions.observe"):
            self.learner.observe(w_row, cost)


class Replay:
    """Replays the configs of one workload and collects counts and failures."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts = {"ogd.rounds": 0, "gkp.oracle_calls": 0, "gkp.dp_cells": 0,
                       "minmax.covers": 0, "reductions.rounds": 0, "reductions.no_count": 0,
                       "traces.csv_bytes": 0, "replicas": 0}
        self.failures: list[dict] = []
        self.config: str | None = None

    # -- per-algorithm replicas, mirroring regretlab.harness ---------------

    def _ogd(self, cfg, inst, T, seed):
        p = cfg.params
        if "weights" in inst or p.get("weight_gen", "uniform") != "uniform":
            raise ValueError("the replay mirrors only harness-generated uniform weights")
        g = inst["graph"]
        ocfg = OgdConfig(W_bound=float(p.get("W_bound", 1.0)), step_mode=p.get("step_mode", "scaled"))
        span = self.tracer.span
        with span("instances.gen"):
            seq = gen_uniform_weights(g.n, T, ocfg.W_bound, SeededRng(seed))
        with span("ogd.run"):
            trace = ogd_run(g, seq, ocfg, compute_benchmark=False)
        with span("minmax.hindsight"):
            best_static_vc_hindsight(g, seq)
        with span("bench.count"):
            self.counts["minmax.covers"] += sum(1 for _ in minimal_vertex_covers(g))
        self.counts["ogd.rounds"] += trace.T
        return trace

    def _gftpl(self, cfg, inst, T, seed):
        p = cfg.params
        if p.get("round_source", "file") != "file":
            raise ValueError("the replay mirrors only round_source 'file'")
        static = inst["gkp"].static
        rounds = list(inst["gkp"].rounds[:T])
        g_f = p.get("G_f")
        if g_f is None:
            g_f = max((float(np.clip(r.p, 0.0, None).sum()) for r in rounds), default=1.0)
            g_f = max(g_f, 1.0)
        eps = p.get("eps")
        gcfg = GftplConfig(
            N=static.n,
            eta=p.get("eta"),
            kappa=float(p.get("kappa", 2.0)),
            delta=float(p.get("delta", 1.0)),
            G_gamma=float(p.get("G_gamma", 1.0)),
            G_f=float(g_f),
            F_M=float(p.get("F_M", g_f)),
            eps_schedule=(p.get("eps_schedule", "additive"), eps),
        )
        span = self.tracer.span
        counts = self.counts
        if p.get("oracle", "brute") == "fptas":
            rel = epsilon_prime(eps if eps is not None else T**-0.5, T, gcfg) if T else 1.0

            def oracle(st, rs):
                with span("gkp.oracle"):
                    ans = fptas_oracle(st, rs, rel) if rs else (frozenset(), 0.0)
                counts["gkp.oracle_calls"] += 1
                with span("bench.check"):
                    if rs:
                        counts["gkp.dp_cells"] += fptas_grid_info(st, rs, rel)["dp_cells"]
                    opt = brute_oracle(st, rs)[1]
                    if not ans[1] >= (1.0 - rel) * opt:
                        self.failures.append({
                            "config": self.config, "seed": seed, "layer": "gkp",
                            "what": f"FPTAS query {counts['gkp.oracle_calls']} returned {ans[1]!r}"
                                    f" < (1 - {rel!r}) * brute optimum {opt!r}",
                        })
                return ans

        else:
            caching = CachingBruteOracle()  # fresh cache per replica, as in the harness

            def oracle(st, rs):
                with span("gkp.oracle"):
                    ans = caching(st, rs)
                counts["gkp.oracle_calls"] += 1
                return ans

        with span("gftpl.run"):
            trace = gftpl_run(static, rounds, oracle, gcfg, SeededRng(seed))
        # gftpl_run calls prefix_best_values internally; timing the same call
        # separately is what lets gftpl.self_s leave it out
        with span("gkp.prefix_best"):
            prefix_best_values(static, rounds)
        return trace

    def _gap(self, cfg, inst, T, seed):
        p = cfg.params
        g = inst["graph"]
        gap_cfg = GapConfig(
            A=float(p["A"]),
            B=float(p["B"]),
            p_coeff=float(p.get("p_coeff", 1.0)),
            c_exp=float(p.get("c_exp", 0.5)),
            T_override=T,
        )
        learner = OgdVcLearner(g) if p.get("learner", "ftl") == "ogd" else FtlMinMaxVcLearner(g)
        with self.tracer.span("reductions.gap"):
            res = gap_solver(g, gap_cfg, TracedLearner(learner, self.tracer), SeededRng(seed),
                             eps=float(p.get("eps", 1.0)))
        self.counts["reductions.rounds"] += res.trace.T
        self.counts["reductions.no_count"] += res.decision == "No"
        return res.trace

    # -- replaying a config ------------------------------------------------

    def run_config(self, config_path: Path, out_dir: Path) -> None:
        """Replay every replica of one config, writing its trace CSVs."""
        self.config = config_path.name
        cfg = load_experiment(config_path)
        if "T_sweep" in cfg.params:
            raise ValueError("the replay mirrors single-horizon configs only")
        inst = _parsed(cfg)
        replica = {"ogd_vc": self._ogd, "gftpl_gkp": self._gftpl, "gap_solver": self._gap}[cfg.algorithm]
        out_dir.mkdir(parents=True, exist_ok=True)
        for seed in cfg.seeds:
            self.tracer.replica = f"{config_path.stem}/seed{seed}"
            with self.tracer.span("harness.replica"):
                trace = replica(cfg, inst, cfg.T, seed)
                with self.tracer.span("traces.csv"):
                    text = trace_to_csv(trace)
                    (out_dir / f"trace_seed{seed}.csv").write_text(text)
            self.counts["traces.csv_bytes"] += len(text.encode())
            self.counts["replicas"] += 1
        self.tracer.replica = None


def _parsed(cfg) -> dict:
    parsers = {"graph": parse_graph, "gkp": parse_gkp}
    return {role: parsers[role](Path(path).read_text()) for role, path in cfg.instance.items()}


def _self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def _pct_us(durations, q: float) -> float:
    return float(np.percentile(np.asarray(durations) * 1e6, q)) if durations else 0.0


def layer_metrics(tracer: Tracer, counts: dict, replay_s: float, experiment_s: float,
                  setup_gen_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced replay.

    ``replay_s`` is the replay's wall time, ``experiment_s`` the untraced
    median of the same configs.  Self times of the layer spans plus
    ``harness.self_s`` sum to ``experiment_s``; the tracing overhead is the
    replay's total less ``experiment_s``.
    """
    spans = tracer.spans
    own = _self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def durations(name):
        return [s[3] - s[2] for s in by_name.get(name, ())]

    def total(name):
        return sum(durations(name))

    bench_s = total("bench.check") + total("bench.count")
    prefix_best_s = total("gkp.prefix_best")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s[1].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own[s[0]]
    # the separately timed prefix_best_values call re-does work that ran
    # inside gftpl.run: move it out of the engine's self time, and out of
    # the replay total since the harness runs it only once
    layer_self["gftpl"] -= prefix_best_s
    traced_s = replay_s - bench_s - prefix_best_s
    replica_layers_s = sum(v for k, v in layer_self.items() if k != "harness")
    rounds = counts["ogd.rounds"]
    ogd_run_s = total("ogd.run")
    return {
        "ogd.run_s": ogd_run_s,
        "ogd.round_us": ogd_run_s / rounds * 1e6 if rounds else 0.0,
        "reductions.gap_s": total("reductions.gap"),
        "reductions.observe_us.p50": _pct_us(durations("reductions.observe"), 50),
        "reductions.observe_us.p90": _pct_us(durations("reductions.observe"), 90),
        "reductions.play_us.p50": _pct_us(durations("reductions.play"), 50),
        "reductions.self_s": sum(own[s[0]] for s in by_name.get("reductions.gap", ())),
        "reductions.rounds": counts["reductions.rounds"],
        "reductions.no_count": counts["reductions.no_count"],
        "gkp.oracle_calls": counts["gkp.oracle_calls"],
        "gkp.oracle_s": total("gkp.oracle"),
        "gkp.oracle_us.p50": _pct_us(durations("gkp.oracle"), 50),
        "gkp.oracle_us.p90": _pct_us(durations("gkp.oracle"), 90),
        "gkp.prefix_best_s": prefix_best_s,
        "gkp.dp_cells": counts["gkp.dp_cells"],
        "gftpl.self_s": layer_self["gftpl"],
        "minmax.hindsight_s": total("minmax.hindsight"),
        "minmax.covers": counts["minmax.covers"],
        "instances.gen_s": total("instances.gen"),
        "instances.setup_gen_s": setup_gen_s,
        "traces.csv_s": total("traces.csv"),
        "traces.csv_bytes": counts["traces.csv_bytes"],
        "harness.self_s": experiment_s - replica_layers_s,
        "tracing.replay_s": traced_s,
        "tracing.overhead_s": traced_s - experiment_s,
    }
