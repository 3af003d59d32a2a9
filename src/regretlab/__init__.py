"""regretlab: online learning on nonlinear combinatorial problems.

Library + CLI laboratory covering projected online gradient descent for
min-max vertex cover, follow-the-perturbed-leader over an approximation
oracle for generalized knapsacks, a regret-to-decision gap solver, and
hardness-reduction gadget generators with exhaustive validators.

Each public name is imported from its module when it is first read
(PEP 562), so ``import regretlab`` loads no submodule, and reading
``regretlab.gen_random_graph`` loads ``instances`` and what it imports,
not the learners or the harness. ``regretlab.<submodule>`` resolves too.
"""

from importlib import import_module

# each public name, listed once under the module that defines it
_EXPORTS = {
    "gftpl": ("GftplConfig", "default_eta", "epsilon_prime", "gftpl_run", "theorem3_bound"),
    "gkp": (
        "CachingBruteOracle", "ExcessFunction", "brute_oracle", "distinguisher_set", "exact_dp_oracle",
        "excess_value", "fptas_oracle", "gkp_profit", "multi_gkp_profit", "prefix_best_values",
    ),
    "harness": ("ExperimentConfig", "compare_bounds", "compute_regret", "load_experiment", "run_experiment"),
    "instances": (
        "Dnf3Formula", "GkpInstanceSet", "GkpRound", "GkpRounds", "GkpStatic", "Graph", "ProcTimeMatrix",
        "WeightSequence", "gen_onehot_weights", "gen_random_dnf", "gen_random_gkp", "gen_random_graph",
        "gen_uniform_weights", "parse_dnf", "parse_gkp", "parse_graph", "parse_proc_times", "parse_weights",
        "serialize_instances",
    ),
    "minmax": (
        "best_static_vc_hindsight", "brute_force_multi_matching", "brute_force_multi_p3cmax",
        "brute_force_multi_path", "is_vertex_cover", "minmax_value", "multi_minmax_cost", "static_minmax_vc",
    ),
    "ogd": (
        "OgdConfig", "OgdVcLearner", "fractional_feasible", "ogd_run", "project_vc_polytope", "round_half",
        "theorem2_bound",
    ),
    "reductions": (
        "FtlMinMaxVcLearner", "GapConfig", "GapResult", "dnf_to_matching", "dnf_to_path", "gap_horizon",
        "gap_solver", "is_three_colorable", "threecolor_to_p3", "validate_correspondence", "vc_to_multi_vc",
    ),
    "rng": ("SeededRng",),
    "traces": ("RegretTrace", "trace_to_csv"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # later reads skip this hook
        return value
    if name in _EXPORTS or name == "cli":  # a submodule
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
