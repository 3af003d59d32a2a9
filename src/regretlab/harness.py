"""Experiment orchestration: seed sweeps, trace emission, bound reports.

An experiment is a JSON config (algorithm, instance files, horizon, seed
list, algorithm parameters).  :func:`run_experiment` fans each seed out to
its own replica — replica s is seeded independently, so runs are
embarrassingly parallel and every output byte is a pure function of
(config, seed).  Traces land as one CSV per seed next to a summary.json;
:func:`compare_bounds` grades the summary against the matching theorem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gftpl import GftplConfig, epsilon_prime, gftpl_run, resolve_run
from .gkp import fptas_oracle
from .instances import (
    GkpInstanceSet,
    GkpRound,
    gen_onehot_weights,
    gen_uniform_weights,
    parse_gkp,
    parse_graph,
    parse_weights,
)
from .ogd import OgdConfig, ogd_run, theorem2_bound
from .reductions import FtlMinMaxVcLearner, GapConfig, OgdVcLearner, gap_solver
from .rng import SeededRng
from .traces import RegretTrace, trace_to_csv

ALGORITHMS = ("ogd_vc", "gftpl_gkp", "gap_solver")

# algorithms whose per-round column is a payoff to maximize rather than a
# cost to minimize; regret direction flips accordingly
_MAXIMIZING = frozenset({"gftpl_gkp"})


def compute_regret(trace: RegretTrace, alpha: float = 1.0) -> float:
    """alpha-regret of a finished trace against its hindsight benchmark.

    Minimization traces pay cumulative − alpha·benchmark (alpha ≥ 1);
    payoff traces earn alpha·benchmark − cumulative (0 < alpha ≤ 1).
    An empty trace has no regret regardless of benchmark.
    """
    if trace.T == 0:
        return 0.0
    if trace.benchmark is None:
        raise ValueError("trace has no benchmark to measure regret against")
    if trace.algorithm in _MAXIMIZING:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("maximization alpha must lie in (0, 1]")
        return alpha * trace.benchmark - trace.cumulative
    if alpha < 1.0:
        raise ValueError("minimization alpha must be >= 1")
    return trace.cumulative - alpha * trace.benchmark


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an algorithm, its instance files, horizon and seeds.

    ``instance`` maps roles to file paths ('graph', 'weights', 'gkp');
    ``params`` carries the algorithm-specific knobs (see the runners).
    """

    algorithm: str
    instance: dict[str, str]
    T: int
    seeds: tuple[int, ...]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; pick from {ALGORITHMS}")
        if self.T < 0:
            raise ValueError("T must be nonnegative")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be nonnegative")


def load_experiment(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config.

    Instance paths are resolved relative to the config file; every
    referenced file must exist and parse.  Seeds come either as an
    explicit ``"seeds"`` list or as ``"base_seed"`` + ``"num_seeds"``
    (replica s then uses base_seed + s).
    """
    path = Path(path)
    obj = json.loads(path.read_text())
    if not isinstance(obj, dict):
        raise ValueError("experiment config must be a JSON object")
    for key in ("algorithm", "T"):
        if key not in obj:
            raise ValueError(f"config missing key {key!r}")
    if "seeds" in obj:
        seeds = tuple(int(s) for s in obj["seeds"])
    elif "base_seed" in obj and "num_seeds" in obj:
        base = int(obj["base_seed"])
        seeds = tuple(base + s for s in range(int(obj["num_seeds"])))
    else:
        raise ValueError("config needs 'seeds' or 'base_seed' + 'num_seeds'")
    instance = {
        role: str((path.parent / p).resolve()) for role, p in obj.get("instance", {}).items()
    }
    cfg = ExperimentConfig(
        algorithm=str(obj["algorithm"]),
        instance=instance,
        T=int(obj["T"]),
        seeds=seeds,
        params=dict(obj.get("params", {})),
    )
    _load_instances(cfg)  # existence + parse check up front
    return cfg


def _load_instances(cfg: ExperimentConfig) -> dict:
    """Parse every referenced instance file; raises if any is unreadable."""
    out = {}
    parsers = {"graph": parse_graph, "weights": parse_weights, "gkp": parse_gkp}
    for role, p in cfg.instance.items():
        if role not in parsers:
            raise ValueError(f"unknown instance role {role!r}")
        out[role] = parsers[role](Path(p).read_text())
    needed = {"ogd_vc": "graph", "gftpl_gkp": "gkp", "gap_solver": "graph"}[cfg.algorithm]
    if needed not in out:
        raise ValueError(f"{cfg.algorithm} needs an instance file for role {needed!r}")
    return out


# ---------------------------------------------------------------------------
# per-algorithm replicas
# ---------------------------------------------------------------------------


def _replica_ogd(cfg: ExperimentConfig, inst: dict, T: int, seed: int):
    g = inst["graph"]
    ocfg = OgdConfig(
        W_bound=float(cfg.params.get("W_bound", 1.0)),
        step_mode=cfg.params.get("step_mode", "scaled"),
    )
    if "weights" in inst:
        seq = inst["weights"]
        if seq.T < T:
            raise ValueError(f"weights file has {seq.T} rows, need T={T}")
        seq = type(seq)(seq.n, seq.rows[:T])
    else:
        rng = SeededRng(seed)
        if cfg.params.get("weight_gen", "uniform") == "onehot":
            seq = gen_onehot_weights(g.n, T, rng)
        else:
            seq = gen_uniform_weights(g.n, T, ocfg.W_bound, rng)
    trace = ogd_run(g, seq, ocfg)
    row: dict = {"seed": seed, "T": T, "cumulative": trace.cumulative}
    if trace.benchmark is not None:
        bound = theorem2_bound(ocfg.W_bound, g.n, T)
        row.update(
            benchmark=trace.benchmark,
            regret=compute_regret(trace, alpha=2.0),
            bound=bound,
            ok=trace.cumulative <= 2.0 * trace.benchmark + bound,
        )
    return trace, row


def _gftpl_round_stream(static, base_rounds, T: int, source: str, rng: SeededRng):
    if source == "file":
        if len(base_rounds) < T:
            raise ValueError(f"instance file has {len(base_rounds)} rounds, need T={T}")
        return list(base_rounds[:T])
    if source != "random":
        raise ValueError("round_source must be 'file' or 'random'")
    total = static.total_weight
    return [
        GkpRound(
            np.array([rng.random() for _ in range(static.n)]),
            rng.uniform(0.0, total),
        )
        for _ in range(T)
    ]


def _max_round_profit(rounds) -> float:
    """The largest summed profit vector of any round (1.0 for no rounds),
    as one row-sum over the stacked (T, n) profits. Profits are
    nonnegative (GkpRound rejects others), and each row sums as its own
    vector would."""
    if not rounds:
        return 1.0
    return float(np.array([r.p for r in rounds]).sum(axis=1).max())


def _replica_gftpl(cfg: ExperimentConfig, inst: dict, T: int, seed: int):
    gkp: GkpInstanceSet = inst["gkp"]
    static = gkp.static
    p = cfg.params
    rng = SeededRng(seed)
    rounds = _gftpl_round_stream(static, gkp.rounds, T, p.get("round_source", "file"), rng)
    # a safe payoff ceiling when none is given: no round pays more than its
    # positive profits summed, and the penalty only subtracts
    g_f = p.get("G_f")
    if g_f is None:
        g_f = max(_max_round_profit(rounds), 1.0)
    gcfg = GftplConfig(
        N=static.n,
        eta=p.get("eta"),
        kappa=float(p.get("kappa", 2.0)),
        delta=float(p.get("delta", 1.0)),
        G_gamma=float(p.get("G_gamma", 1.0)),
        G_f=float(g_f),
        F_M=float(p.get("F_M", g_f)),
        eps_schedule=(p.get("eps_schedule", "additive"), p.get("eps")),
    )
    if p.get("oracle", "brute") == "fptas":
        # the oracle's relative error needs eta now; resolve it as gftpl_run
        # would and hand the resolved config to the run as well
        gcfg, eps_run = resolve_run(gcfg, T)
        rel = epsilon_prime(eps_run, T, gcfg) if T else 1.0

        def oracle(st, rs):
            return fptas_oracle(st, rs, rel) if rs else (frozenset(), 0.0)

    else:
        oracle = None  # the engine's exact leader

    trace = gftpl_run(static, rounds, oracle, gcfg, rng)
    row = {
        "seed": seed,
        "T": T,
        "cumulative": trace.cumulative,
        "benchmark": trace.benchmark,
        "regret": compute_regret(trace) if T else 0.0,
        "bound": trace.rows[-1].extras["theorem3_bound"] if T else 0.0,
    }
    row["ok"] = row["regret"] <= row["bound"]
    return trace, row


def _replica_gap(cfg: ExperimentConfig, inst: dict, T: int, seed: int):
    g = inst["graph"]
    p = cfg.params
    gap_cfg = GapConfig(
        A=float(p["A"]),
        B=float(p["B"]),
        p_coeff=float(p.get("p_coeff", 1.0)),
        c_exp=float(p.get("c_exp", 0.5)),
        T_override=T,
    )
    learner = OgdVcLearner(g) if p.get("learner", "ftl") == "ogd" else FtlMinMaxVcLearner(g)
    res = gap_solver(g, gap_cfg, learner, SeededRng(seed), eps=float(p.get("eps", 1.0)))
    row = {
        "seed": seed,
        "T": res.T,
        "decision": res.decision,
        "yes_round": res.yes_round,
        "rounds_played": res.trace.T,
    }
    return res.trace, row


_REPLICAS = {"ogd_vc": _replica_ogd, "gftpl_gkp": _replica_gftpl, "gap_solver": _replica_gap}


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def _summarize_rows(rows: list[dict]) -> dict:
    out: dict = {"per_seed": rows}
    regrets = [r["regret"] for r in rows if r.get("regret") is not None]
    if regrets:
        out["mean_regret"] = _mean(regrets)
        out["max_regret"] = max(regrets)
    bounds = [r["bound"] for r in rows if r.get("bound") is not None]
    if bounds:
        out["mean_bound"] = _mean(bounds)
    decisions = [r["decision"] for r in rows if "decision" in r]
    if decisions:
        out["yes_count"] = sum(d == "Yes" for d in decisions)
        out["no_count"] = sum(d == "No" for d in decisions)
        out["yes_frequency"] = out["yes_count"] / len(decisions)
    return out


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run every (T, seed) replica, write traces and summary.json.

    With ``params.T_sweep`` (a list of horizons) the whole seed sweep runs
    once per horizon and the summary gains a ``sweep`` section; otherwise
    the single configured T is used.  Identical configs produce
    byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inst = _load_instances(cfg)
    replica = _REPLICAS[cfg.algorithm]
    horizons = [int(t) for t in cfg.params.get("T_sweep", [])] or [cfg.T]
    sweep = "T_sweep" in cfg.params

    summary: dict = {
        "algorithm": cfg.algorithm,
        "T": cfg.T,
        "seeds": list(cfg.seeds),
        "instance": dict(sorted(cfg.instance.items())),
        "params": cfg.params,
    }
    groups = []
    for T in horizons:
        if T < 0:
            raise ValueError("every horizon must be nonnegative")
        rows = []
        for seed in cfg.seeds:
            try:
                trace, row = replica(cfg, inst, T, seed)
            except Exception as exc:
                raise RuntimeError(f"seed {seed} (T={T}): {exc}") from exc
            name = f"trace_T{T}_seed{seed}.csv" if sweep else f"trace_seed{seed}.csv"
            (out_dir / name).write_text(trace_to_csv(trace))
            rows.append(row)
        group = {"T": T} | _summarize_rows(rows)
        if "mean_regret" in group and T > 0:
            group["regret_per_round"] = group["mean_regret"] / T
        groups.append(group)

    if sweep:
        summary["sweep"] = groups
    else:
        summary.update({k: v for k, v in groups[0].items() if k != "T"})
    summary["bounds"] = compare_bounds(summary)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def compare_bounds(summary: dict) -> dict:
    """Grade a summary against its theorem: per-seed regret vs bound.

    Reports every violation, overall pass/fail, and — when the summary
    holds a T sweep — whether mean regret per round is non-increasing in
    T (the empirical vanishing-regret flag).
    """
    groups = summary.get("sweep") or [summary]
    checked = 0
    violations = []
    for group in groups:
        for row in group.get("per_seed", ()):
            if row.get("bound") is None or row.get("regret") is None:
                continue
            checked += 1
            if row["regret"] > row["bound"]:
                violations.append(
                    {
                        "seed": row["seed"],
                        "T": row["T"],
                        "regret": row["regret"],
                        "bound": row["bound"],
                    }
                )
    report = {
        "algorithm": summary.get("algorithm"),
        "checked": checked,
        "violations": violations,
        "all_ok": not violations,
    }
    if summary.get("sweep"):
        pairs = sorted(
            (g["T"], g["regret_per_round"])
            for g in summary["sweep"]
            if g.get("regret_per_round") is not None and g["T"] > 0
        )
        if len(pairs) >= 2:
            rates = [r for _, r in pairs]
            report["vanishing"] = all(b <= a for a, b in zip(rates, rates[1:]))
    return report
