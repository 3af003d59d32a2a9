"""The two reference workloads: their parts, sizes and the set-up that writes their inputs.

A workload is a set of parts, each a family of experiment configs:

- ``vertex_cover``: ``ogd_fleet`` (projected OGD, ``ogd_vc``) and
  ``gap_decider`` (the regret-driven gap decider, ``gap_solver``);
- ``knapsack``: ``gftpl_brute`` and ``gftpl_fptas`` (the perturbed leader,
  ``gftpl_gkp``, over the caching exact oracle and over the FPTAS).

Set-up turns one workload seed into instance files plus the JSON experiment
configs that ``regretlab run`` reads, and a ``manifest.json`` naming those
configs.  Everything is drawn from one SplitMix64 stream seeded with the
workload seed, so the same seed writes the same bytes.

Run as a script it performs one set-up in a fresh interpreter; the runner
times that process to get ``setup_s``::

    python3 perfbench/workloads.py --workload vertex_cover --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = {
    "vertex_cover": ("ogd_fleet", "gap_decider"),
    "knapsack": ("gftpl_brute", "gftpl_fptas"),
}

# Sizes per part.  "full" is what the benchmark measures; "toy" exists so
# the benchmark's own tests can run every workload in seconds.
SIZES = {
    "full": {
        "ogd_fleet": {"ns": (6, 10, 16, 20), "p": 0.4, "T": 1000, "seeds_per_n": 1},
        "gap_decider": {"n": 20, "p": 0.3, "A": 0.25, "B": 0.5, "T": 1000, "graphs": 4, "seeds": 1},
        "gftpl_brute": {"n": 6, "T": 4096, "seeds": 2},
        "gftpl_fptas": {"n": 8, "T": 64, "replica_seeds": (1, 2)},
    },
    "toy": {
        "ogd_fleet": {"ns": (6, 10), "p": 0.4, "T": 40, "seeds_per_n": 1},
        "gap_decider": {"n": 10, "p": 0.5, "A": 0.25, "B": 0.5, "T": 40, "graphs": 1, "seeds": 1},
        "gftpl_brute": {"n": 5, "T": 48, "seeds": 2},
        "gftpl_fptas": {"n": 5, "T": 8, "replica_seeds": (1,)},
    },
}

# Redraws allowed while conditioning a random graph; far above what any seed
# needs (the accepted event has probability of a few percent).
MAX_REDRAWS = 10_000


def _span(tracer, name):
    """The tracer's span context, or a no-op when set-up runs untraced."""
    return nullcontext() if tracer is None else tracer.span(name)


def _replica_seeds(rng, k: int) -> list[int]:
    return [rng.randrange(1 << 31) for _ in range(k)]


def _graph_with_expected_edges(n: int, p: float, rng, accept=lambda g: True, tracer=None):
    """ER(n, p) redrawn until it has exactly round(p * C(n, 2)) edges.

    Fixing the edge count keeps the projection's per-round cost, which grows
    with the edges, from swinging from one workload seed to the next; the
    graph is otherwise a uniform draw.  ``accept`` adds any further
    condition the workload needs.
    """
    from regretlab import gen_random_graph

    m = round(p * comb(n, 2))
    for _ in range(MAX_REDRAWS):
        with _span(tracer, "instances.gen"):
            g = gen_random_graph(n, p, rng)
        if g.m == m and accept(g):
            return g
    raise RuntimeError(f"no ER({n}, {p}) draw with {m} edges passed in {MAX_REDRAWS} tries")


def _write(out: Path, name: str, text: str) -> str:
    (out / name).write_text(text)
    return name


def _config(out: Path, name: str, algorithm: str, instance: dict, T: int, seeds, params) -> str:
    obj = {"algorithm": algorithm, "instance": instance, "T": T, "seeds": list(seeds), "params": params}
    return _write(out, name, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _setup_ogd_fleet(out, size, rng, tracer):
    from regretlab import serialize_instances

    configs = []
    for n in size["ns"]:
        g = _graph_with_expected_edges(n, size["p"], rng, tracer=tracer)
        graph = _write(out, f"graph_n{n}.txt", serialize_instances(g))
        seeds = _replica_seeds(rng, size["seeds_per_n"])
        # no weights file: the harness draws U[0,1] rows from each replica seed
        configs.append(
            _config(out, f"ogd_n{n}.json", "ogd_vc", {"graph": graph}, size["T"], seeds,
                    {"step_mode": "scaled", "W_bound": 1.0})
        )
    return configs


def _setup_gftpl_brute(out, size, rng, tracer):
    from regretlab import gen_random_gkp, serialize_instances

    with _span(tracer, "instances.gen"):
        inst = gen_random_gkp(size["n"], size["T"], rng)
    gkp = _write(out, "gkp_brute.json", serialize_instances(inst))
    seeds = _replica_seeds(rng, size["seeds"])
    # no "oracle" key: the harness default, a CachingBruteOracle per replica
    return [_config(out, "gftpl_brute.json", "gftpl_gkp", {"gkp": gkp}, size["T"], seeds,
                    {"round_source": "file"})]


def _fptas_params(n: int, T: int) -> dict:
    """Engine parameters of the FPTAS workload, with eta resolved up front.

    The harness cannot run ``oracle: "fptas"`` without an explicit eta: it
    needs eta to compute the oracle's relative error and fails with "eta is
    unresolved".  The benchmark therefore passes the public default_eta for
    the horizon.  G_f = F_M = n is the payoff ceiling of n items with
    profits in [0, 1]; fixing it, instead of letting the harness take the
    largest round, makes the DP grid a function of (n, T) alone.
    """
    from regretlab import GftplConfig, default_eta

    g_f = float(n)
    eps = T**-0.5
    eta = default_eta(GftplConfig(N=n, G_f=g_f, F_M=g_f), eps, T)
    return {"round_source": "file", "oracle": "fptas", "eta": eta, "G_f": g_f, "F_M": g_f}


def _setup_gftpl_fptas(out, size, rng, tracer):
    from regretlab import gen_random_gkp, serialize_instances

    with _span(tracer, "instances.gen"):
        inst = gen_random_gkp(size["n"], size["T"], rng)
    gkp = _write(out, "gkp_fptas.json", serialize_instances(inst))
    # Fixed replica seeds: a replica's seed draws the perturbation, and the
    # perturbation alone swings the FPTAS grid (levels ~ sum(a) / max(a))
    # and so a replica's cost by about 15%.  Fixed draws keep the DP sizes
    # a function of (n, T); the workload seed varies the knapsack rounds.
    return [_config(out, "gftpl_fptas.json", "gftpl_gkp", {"gkp": gkp}, size["T"],
                    size["replica_seeds"], _fptas_params(size["n"], size["T"]))]


def _min_cover_size(g) -> int:
    """Size of a minimum vertex cover, by enumerating the minimal ones."""
    from regretlab.minmax import minimal_vertex_covers

    return min(len(c) for c in minimal_vertex_covers(g))


def _setup_gap_decider(out, size, rng, tracer):
    from regretlab import serialize_instances

    n, B = size["n"], size["B"]
    configs = []
    # several graphs, since the projection's cost depends on each graph's
    # shape beyond its edge count
    for k in range(size["graphs"]):
        # a certified No instance: every cover has at least B*n vertices, so
        # no replica can stop early and each one plays the full horizon
        g = _graph_with_expected_edges(n, size["p"], rng, lambda g: _min_cover_size(g) >= B * n, tracer)
        graph = _write(out, f"graph{k}.txt", serialize_instances(g))
        for learner in ("ogd", "ftl"):
            seeds = _replica_seeds(rng, size["seeds"])
            configs.append(
                _config(out, f"gap_{learner}_g{k}.json", "gap_solver", {"graph": graph}, size["T"],
                        seeds, {"A": size["A"], "B": B, "learner": learner})
            )
    return configs


_SETUPS = {
    "ogd_fleet": _setup_ogd_fleet,
    "gap_decider": _setup_gap_decider,
    "gftpl_brute": _setup_gftpl_brute,
    "gftpl_fptas": _setup_gftpl_fptas,
}


def setup(workload: str, seed: int, size: str, out: Path, tracer=None) -> list[str]:
    """Write the workload's instance files, configs and manifest into ``out``.

    Returns the config file names, in the order the benchmark runs them.
    """
    from regretlab import SeededRng

    out.mkdir(parents=True, exist_ok=True)
    rng = SeededRng(seed)
    configs = []
    for part in WORKLOADS[workload]:
        configs += _SETUPS[part](out, SIZES[size][part], rng, tracer)
    manifest = {"workload": workload, "seed": seed, "size": size, "configs": configs}
    _write(out, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return configs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's inputs.")
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    setup(args.workload, args.seed, args.size, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
