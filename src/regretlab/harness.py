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
from dataclasses import dataclass, field, replace
from pathlib import Path

from .gftpl import GftplConfig, epsilon_prime, gftpl_run, resolve_run
from .gkp import fptas_oracle
from .instances import (
    gen_onehot_weights,
    gen_uniform_weights,
    parse_gkp,
    parse_graph,
    parse_weights,
    random_gkp_rounds,
    stack_rounds,
)
from .ogd import OgdConfig, ogd_run, theorem2_bound
from .reductions import FtlMinMaxVcLearner, GapConfig, OgdVcLearner, gap_solver
from .rng import SeededRng
from .traces import RegretTrace, checked_int, checked_real, trace_csv_blocks

ALGORITHMS = ("ogd_vc", "gftpl_gkp", "gap_solver")

# the string-valued params each algorithm switches on, with their allowed
# values, the default first
_SELECTORS = {
    "ogd_vc": {"weight_gen": ("uniform", "onehot")},
    "gftpl_gkp": {"oracle": ("brute", "fptas"), "round_source": ("file", "random")},
    "gap_solver": {"learner": ("ftl", "ogd")},
}

# every other params key each algorithm reads; a key in neither table is refused
_PARAMS = {
    "ogd_vc": ("T_sweep", "W_bound", "step_mode"),
    "gftpl_gkp": ("T_sweep", "eta", "kappa", "delta", "G_gamma", "G_f", "F_M", "eps", "eps_schedule"),
    "gap_solver": ("T_sweep", "A", "B", "p_coeff", "c_exp", "eps"),
}

# algorithms whose per-round column is a payoff to maximize rather than a
# cost to minimize; regret direction flips accordingly
_MAXIMIZING = frozenset({"gftpl_gkp"})


def compute_regret(trace: RegretTrace, alpha: float = 1.0) -> float:
    """alpha-regret of a finished trace against its hindsight benchmark.

    Minimization traces pay cumulative − alpha·benchmark (alpha in
    [1, inf)); payoff traces earn alpha·benchmark − cumulative (alpha in
    (0, 1]). An empty trace has no regret regardless of benchmark.
    """
    if trace.algorithm in _MAXIMIZING:
        alpha = checked_real(alpha, "maximization alpha", 0.0, 1.0, open_low=True)
    else:
        alpha = checked_real(alpha, "minimization alpha", 1.0)
    if trace.T == 0:
        return 0.0
    if trace.benchmark is None:
        raise ValueError("trace has no benchmark to measure regret against")
    if trace.algorithm in _MAXIMIZING:
        return alpha * trace.benchmark - trace.cumulative
    return trace.cumulative - alpha * trace.benchmark


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an algorithm, its instance files, horizon and seeds.

    ``instance`` maps roles to file paths ('graph', 'weights', 'gkp'); ``T``
    and each of the distinct ``seeds`` are integers >= 0 (traces.checked_int);
    ``params`` carries the algorithm-specific knobs (see the runners); a
    key the algorithm does not read is refused.
    """

    algorithm: str
    instance: dict[str, str]
    T: int
    seeds: tuple[int, ...]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; pick from {ALGORITHMS}")
        if checked_int(self.T, "T") < 0:
            raise ValueError("T must be nonnegative")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if any(checked_int(s, "a seed") < 0 for s in self.seeds):
            raise ValueError("seeds must be nonnegative")
        if len(set(self.seeds)) < len(self.seeds):  # it would weigh one replica twice
            twice = next(s for k, s in enumerate(self.seeds) if s in self.seeds[:k])
            raise ValueError(f"seed {twice} is listed twice")
        known = (*_SELECTORS[self.algorithm], *_PARAMS[self.algorithm])
        for key in self.params:
            if key not in known:
                raise ValueError(f"unknown param {key!r} for {self.algorithm}; pick from {known}")
        for key in _SELECTORS[self.algorithm]:
            _selector(self, key)
        _horizons(self)
        if self.algorithm == "ogd_vc":
            _ogd_config(self)
        elif self.algorithm == "gap_solver":
            _gap_config(self)
        else:  # each replica builds it again with the instance's N and rounds
            _gftpl_config(self, 1, ())


def _selector(cfg: ExperimentConfig, key: str) -> str:
    """``cfg.params[key]``, or its default when absent; a ValueError names
    the key, the value and the allowed values when it is none of them."""
    allowed = _SELECTORS[cfg.algorithm][key]
    value = cfg.params.get(key, allowed[0])
    if value not in allowed:
        raise ValueError(f"unknown {key} {value!r}; pick from {allowed}")
    return value


def _horizons(cfg: ExperimentConfig) -> list[int]:
    """The horizons a run sweeps: ``params.T_sweep``, or the configured T
    alone; a ValueError names T_sweep unless it lists nonnegative ints."""
    sweep = cfg.params.get("T_sweep", [])
    try:
        horizons = [checked_int(T, "a T_sweep horizon") for T in sweep]
    except TypeError:  # sweep is not iterable
        raise ValueError(f"T_sweep must be a list of horizons, got {sweep!r}") from None
    if any(T < 0 for T in horizons):
        raise ValueError(f"T_sweep horizons must be nonnegative, got {horizons}")
    return horizons or [cfg.T]


def _given(cfg: ExperimentConfig, keys: tuple[str, ...]) -> dict:
    """The ``keys`` that ``cfg.params`` sets to a value other than null, as
    they are: the config classes check them (a number by
    traces.checked_real) and fill in their own defaults for the rest."""
    return {key: cfg.params[key] for key in keys if cfg.params.get(key) is not None}


def _ogd_config(cfg: ExperimentConfig) -> OgdConfig:
    """The OGD parameters of an ogd_vc config."""
    return OgdConfig(**_given(cfg, ("W_bound", "step_mode")))


def _gap_config(cfg: ExperimentConfig) -> tuple[GapConfig, dict]:
    """The gap parameters of a gap_solver config and gap_solver's keyword
    arguments (its eps); each replica sets the horizon as T_override."""
    for key in ("A", "B"):
        if key not in cfg.params:
            raise ValueError(f"{cfg.algorithm} needs param {key!r}")
    gap_cfg = GapConfig(cfg.params["A"], cfg.params["B"], **_given(cfg, ("p_coeff", "c_exp")))
    solver_kw = _given(cfg, ("eps",))
    if "eps" in solver_kw:
        solver_kw["eps"] = checked_real(solver_kw["eps"], "eps", 0.0, open_low=True)
    return gap_cfg, solver_kw


def _gftpl_config(cfg: ExperimentConfig, N: int, rounds) -> GftplConfig:
    """The engine parameters of a gftpl_gkp config for N items. G_f defaults
    to a payoff ceiling of the ``rounds``, at least 1.0 (no round pays more
    than its profits summed), and F_M to G_f."""
    given = _given(cfg, ("eta", "kappa", "delta", "G_gamma", "G_f", "F_M", "eps"))
    if "G_f" not in given:
        given["G_f"] = float(stack_rounds(N, rounds).rows.sum(axis=1).max(initial=1.0))
    given.setdefault("F_M", given["G_f"])
    mode, eps = GftplConfig.eps_schedule  # the defaults
    schedule = (cfg.params.get("eps_schedule", mode), given.pop("eps", eps))
    return GftplConfig(N=N, eps_schedule=schedule, **given)


def load_experiment(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config.

    Instance paths are resolved relative to the config file; every
    referenced file must exist and parse.  Seeds come either as an
    explicit ``"seeds"`` list or as ``"base_seed"`` + ``"num_seeds"``
    (replica s then uses base_seed + s).
    """
    return _read_experiment(path)[0]


def _read_experiment(path) -> tuple[ExperimentConfig, dict]:
    """The config at ``path`` and its parsed instance files, each file
    parsed once: :func:`load_experiment` keeps the config, and the ``run``
    command hands both to :func:`_run_experiment`."""
    path = Path(path)
    obj = json.loads(path.read_text())
    if not isinstance(obj, dict):
        raise ValueError("experiment config must be a JSON object")
    for key in ("algorithm", "T"):
        if key not in obj:
            raise ValueError(f"config missing key {key!r}")
    if "seeds" in obj:
        if not isinstance(obj["seeds"], list):
            raise ValueError(f"seeds must be a list of seeds, got {obj['seeds']!r}")
        seeds = tuple(obj["seeds"])
    elif "base_seed" in obj and "num_seeds" in obj:
        base = checked_int(obj["base_seed"], "base_seed")
        seeds = tuple(base + s for s in range(checked_int(obj["num_seeds"], "num_seeds")))
    else:
        raise ValueError("config needs 'seeds' or 'base_seed' + 'num_seeds'")
    instance = {
        role: str((path.parent / p).resolve()) for role, p in obj.get("instance", {}).items()
    }
    cfg = ExperimentConfig(
        algorithm=str(obj["algorithm"]),
        instance=instance,
        T=obj["T"],
        seeds=seeds,
        params=dict(obj.get("params", {})),
    )
    return cfg, _load_instances(cfg)  # raises if a file is missing or does not parse


def _load_instances(cfg: ExperimentConfig) -> dict:
    """Parse every referenced instance file; raises if any is unreadable,
    or too short for the longest horizon or out of range for the config."""
    out = {}
    parsers = {"graph": parse_graph, "weights": parse_weights, "gkp": parse_gkp}
    for role, p in cfg.instance.items():
        if role not in parsers:
            raise ValueError(f"unknown instance role {role!r}")
        out[role] = parsers[role](Path(p).read_text())
    needed = {"ogd_vc": "graph", "gftpl_gkp": "gkp", "gap_solver": "graph"}[cfg.algorithm]
    if needed not in out:
        raise ValueError(f"{cfg.algorithm} needs an instance file for role {needed!r}")
    T = max(_horizons(cfg))
    if cfg.algorithm == "ogd_vc" and "weights" in out:
        seq, W = out["weights"], _ogd_config(cfg).W_bound
        if seq.T < T:
            raise ValueError(f"weights file has {seq.T} rows, need T={T}")
        if seq.n != out["graph"].n:
            raise ValueError(f"weights file has {seq.n} columns, the graph {out['graph'].n} vertices")
        if T and seq.rows[:T].max() > W:
            raise ValueError(f"weights file has weights above W_bound {W!r} in its first {T} rows")
    if cfg.algorithm == "gftpl_gkp" and _selector(cfg, "round_source") == "file":
        if len(out["gkp"].rounds) < T:
            raise ValueError(f"gkp file has {len(out['gkp'].rounds)} rounds, need T={T}")
    return out


# ---------------------------------------------------------------------------
# per-algorithm replicas
# ---------------------------------------------------------------------------


def _replica_ogd(cfg: ExperimentConfig, inst: dict, T: int, seed: int):
    g = inst["graph"]
    ocfg = _ogd_config(cfg)
    if "weights" in inst:  # long enough and within W_bound, see _load_instances
        seq = inst["weights"]
        seq = type(seq)(seq.n, seq.rows[:T])
    else:
        rng = SeededRng(seed)
        if _selector(cfg, "weight_gen") == "onehot":
            seq = gen_onehot_weights(g.n, T, rng)
        else:
            seq = gen_uniform_weights(g.n, T, ocfg.W_bound, rng)
    trace = ogd_run(g, seq, ocfg)
    row: dict = {"seed": seed, "T": T, "cumulative": trace.cumulative}
    if trace.benchmark is not None:
        regret = compute_regret(trace, alpha=2.0)
        bound = theorem2_bound(ocfg.W_bound, g.n, T)
        row.update(benchmark=trace.benchmark, regret=regret, bound=bound, ok=regret <= bound)
    return trace, row


def _replica_gftpl(cfg: ExperimentConfig, inst: dict, T: int, seed: int):
    gkp = inst["gkp"]
    static = gkp.static
    rng = SeededRng(seed)
    if _selector(cfg, "round_source") == "file":  # long enough, see _load_instances
        rounds = gkp.rounds[:T]
    else:
        rounds = random_gkp_rounds(static, T, rng)
    gcfg = _gftpl_config(cfg, static.n, rounds)
    if _selector(cfg, "oracle") == "fptas":
        # the oracle's relative error needs eta now; resolve it as gftpl_run
        # would and hand the resolved config to the run as well
        gcfg, eps_run = resolve_run(gcfg, T)
        rel = epsilon_prime(eps_run, T, gcfg) if T else 1.0

        def oracle(st, rs):
            return fptas_oracle(st, rs, rel)

    else:
        oracle = None  # the engine's exact leader

    trace = gftpl_run(static, rounds, oracle, gcfg, rng)
    row = {
        "seed": seed,
        "T": T,
        "cumulative": trace.cumulative,
        "benchmark": trace.benchmark,
        "regret": compute_regret(trace) if T else 0.0,
        "bound": trace.extras["theorem3_bound"][-1] if T else 0.0,
    }
    row["ok"] = row["regret"] <= row["bound"]
    return trace, row


def _replica_gap(cfg: ExperimentConfig, inst: dict, T: int, seed: int):
    g = inst["graph"]
    gap_cfg, solver_kw = _gap_config(cfg)
    learner = OgdVcLearner(g) if _selector(cfg, "learner") == "ogd" else FtlMinMaxVcLearner(g)
    res = gap_solver(g, replace(gap_cfg, T_override=T), learner, SeededRng(seed), **solver_kw)
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


def _summarize_rows(rows: list[dict]) -> dict:
    out: dict = {"per_seed": rows}
    regrets = [r["regret"] for r in rows if r.get("regret") is not None]
    if regrets:
        out["mean_regret"] = sum(regrets) / len(regrets)
        out["max_regret"] = max(regrets)
    bounds = [r["bound"] for r in rows if r.get("bound") is not None]
    if bounds:
        out["mean_bound"] = sum(bounds) / len(bounds)
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
    byte-identical files.  Each trace CSV is written block by block from
    :func:`~regretlab.traces.trace_csv_blocks`, so the whole file's text
    is never held at once.
    """
    return _run_experiment(cfg, _load_instances(cfg), out_dir)


def _run_experiment(cfg: ExperimentConfig, inst: dict, out_dir) -> dict:
    """:func:`run_experiment` on instance files already parsed into ``inst``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    replica = _REPLICAS[cfg.algorithm]
    horizons = _horizons(cfg)
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
        rows = []
        for seed in cfg.seeds:
            try:
                trace, row = replica(cfg, inst, T, seed)
            except Exception as exc:
                raise RuntimeError(f"seed {seed} (T={T}): {exc}") from exc
            name = f"trace_T{T}_seed{seed}.csv" if sweep else f"trace_seed{seed}.csv"
            with open(out_dir / name, "w") as f:  # the text mode write_text uses
                f.writelines(trace_csv_blocks(trace))
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
