"""Command-line front end.

Subcommands mirror the library's workflow: ``gen`` writes instance files,
``run`` executes a JSON-configured experiment, ``verify`` re-proves the
reduction and projection guarantees on concrete inputs, ``bench oracle``
races the approximate knapsack oracle against brute force, and ``bound``
evaluates a theorem's right-hand side.  Exit code 0 means every check the
invocation performed passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .gftpl import GftplConfig, run_eps, theorem3_bound
from .gkp import brute_oracle, fptas_grid_info, fptas_oracle
from .harness import load_experiment, run_experiment
from .instances import (
    gen_onehot_weights,
    gen_random_dnf,
    gen_random_gkp,
    gen_random_graph,
    gen_uniform_weights,
    parse_dnf,
    parse_gkp,
    parse_graph,
    serialize_instances,
)
from .ogd import OgdConfig, fractional_feasible, project_vc_polytope, theorem2_bound
from .reductions import validate_correspondence
from .rng import SeededRng


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    rng = SeededRng(args.seed)
    if args.kind == "graph":
        obj = gen_random_graph(args.n, args.p, rng)
    elif args.kind == "weights":
        if args.weight_kind == "onehot":
            obj = gen_onehot_weights(args.n, args.T, rng)
        else:
            obj = gen_uniform_weights(args.n, args.T, args.W, rng)
    elif args.kind == "dnf":
        obj = gen_random_dnf(args.n, args.m, rng)
    else:
        obj = gen_random_gkp(args.n, args.m, rng)
    _emit(serialize_instances(obj), args.out)
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg_path = Path(args.config)
    cfg = load_experiment(cfg_path)
    out_dir = Path(args.out) if args.out else cfg_path.parent / f"{cfg_path.stem}_out"
    summary = run_experiment(cfg, out_dir)
    report = summary["bounds"]
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"traces and summary.json written to {out_dir}\n")
    return 0 if report["all_ok"] else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify_reductions(args) -> int:
    f = parse_dnf(Path(args.formula).read_text(), n=args.n)
    report = validate_correspondence(f)
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if not report["violations"] else 1


def _feasible_sample(g, rng: SeededRng) -> np.ndarray:
    # coordinates >= 1/2 satisfy every edge constraint; isolated vertices
    # are unconstrained and may roam
    z = np.array([0.5 + 0.5 * rng.random() for _ in range(g.n)])
    touched = {v for e in g.edges for v in e}
    for v in range(g.n):
        if v not in touched:
            z[v] = rng.random()
    return z


def _cmd_verify_projection(args) -> int:
    g = parse_graph(Path(args.graph).read_text())
    rng = SeededRng(args.seed)
    cfg = OgdConfig()
    fails = {"feasible": 0, "idempotent": 0, "optimal": 0}
    for _ in range(args.trials):
        y = np.array([rng.uniform(-2.0, 3.0) for _ in range(g.n)])
        x = project_vc_polytope(y, g, cfg)
        if not fractional_feasible(x, g, tol=1e-8):
            fails["feasible"] += 1
        if np.linalg.norm(project_vc_polytope(x, g, cfg) - x) > 1e-8:
            fails["idempotent"] += 1
        d = np.linalg.norm(y - x)
        for _ in range(args.candidates):
            z = _feasible_sample(g, rng)
            if d > np.linalg.norm(y - z) + 1e-6:
                fails["optimal"] += 1
                break
    report = {"n": g.n, "m": g.m, "trials": args.trials, "failures": fails}
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if not any(fails.values()) else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _cmd_bench_oracle(args) -> int:
    inst = parse_gkp(Path(args.gkp).read_text())
    static, rounds = inst.static, inst.rounds
    _, brute_value = brute_oracle(static, rounds)
    lines = ["n,m,eps,brute_value,fptas_value,ratio,dp_cells,elapsed_ms"]
    ok = True
    for eps in args.eps:
        start = time.perf_counter()
        _, approx = fptas_oracle(static, rounds, eps)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        ratio = 1.0 if brute_value == 0.0 else approx / brute_value
        if ratio < (1.0 - eps) - 1e-12:
            ok = False
        cells = fptas_grid_info(static, rounds, eps)["dp_cells"]
        lines.append(
            f"{static.n},{len(rounds)},{eps!r},{brute_value!r},{approx!r},"
            f"{ratio!r},{cells},{elapsed_ms:.3f}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def _cmd_bound(args) -> int:
    try:
        if args.theorem == "theorem2":
            value = theorem2_bound(args.W, args.n, args.T)
        else:
            cfg = GftplConfig(
                N=args.N,
                kappa=args.kappa,
                delta=args.delta,
                G_gamma=args.G_gamma,
                G_f=args.G_f,
                eps_schedule=("additive", args.eps),
            )
            value = theorem3_bound(cfg, run_eps(cfg, args.T), args.T)
    except ValueError as exc:
        args.usage_error(str(exc))  # exits 2
    sys.stdout.write(f"{value!r}\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regretlab",
        description="Online learning lab: regret algorithms, oracles, reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_graph = gen_sub.add_parser("graph", help="Erdős–Rényi graph")
    g_graph.add_argument("--n", type=int, required=True)
    g_graph.add_argument("--p", type=float, default=0.4)
    g_weights = gen_sub.add_parser("weights", help="adversary weight rows")
    g_weights.add_argument("--n", type=int, required=True)
    g_weights.add_argument("--T", type=int, required=True)
    g_weights.add_argument("--W", type=float, default=1.0, help="uniform weight ceiling")
    g_weights.add_argument(
        "--weight-kind", choices=("uniform", "onehot"), default="uniform", dest="weight_kind"
    )
    g_dnf = gen_sub.add_parser("dnf", help="random 3-DNF formula")
    g_dnf.add_argument("--n", type=int, required=True)
    g_dnf.add_argument("--m", type=int, required=True)
    g_gkp = gen_sub.add_parser("gkp", help="generalized knapsack instance set")
    g_gkp.add_argument("--n", type=int, required=True)
    g_gkp.add_argument("--m", type=int, required=True)
    for p in (g_graph, g_weights, g_dnf, g_gkp):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-o", "--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="run a JSON-configured experiment")
    run.add_argument("config")
    run.add_argument("-o", "--out", default=None, help="output directory")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="re-prove a guarantee on a concrete input")
    verify_sub = verify.add_subparsers(dest="what", required=True)
    v_red = verify_sub.add_parser("reductions", help="exhaustive gadget correspondence")
    v_red.add_argument("formula", help="3-DNF file (one signed-literal clause per line)")
    v_red.add_argument("--n", type=int, default=None, help="variable count override")
    v_red.set_defaults(func=_cmd_verify_reductions)
    v_proj = verify_sub.add_parser("projection", help="feasibility/optimality of projections")
    v_proj.add_argument("graph")
    v_proj.add_argument("--trials", type=int, default=200)
    v_proj.add_argument("--candidates", type=int, default=100)
    v_proj.add_argument("--seed", type=int, default=0)
    v_proj.set_defaults(func=_cmd_verify_projection)

    bench = sub.add_parser("bench", help="oracle benchmarks")
    bench_sub = bench.add_subparsers(dest="what", required=True)
    b_oracle = bench_sub.add_parser("oracle", help="approximate vs exact knapsack oracle")
    b_oracle.add_argument("gkp", help="GKP instance file (JSON)")
    b_oracle.add_argument("--eps", type=float, nargs="+", required=True)
    b_oracle.add_argument("-o", "--out", default=None)
    b_oracle.set_defaults(func=_cmd_bench_oracle)

    bound = sub.add_parser("bound", help="evaluate a regret bound")
    bound_sub = bound.add_subparsers(dest="theorem", required=True)
    b2 = bound_sub.add_parser("theorem2", help="3*W*sqrt(n*T)")
    b2.add_argument("--W", type=float, default=1.0)
    b2.add_argument("--n", type=int, required=True)
    b2.add_argument("--T", type=int, required=True)
    b3 = bound_sub.add_parser("theorem3", help="perturbed-leader regret bound")
    b3.add_argument("--N", type=int, required=True)
    b3.add_argument("--T", type=int, required=True)
    b3.add_argument("--eps", type=float, default=None)
    b3.add_argument("--kappa", type=float, default=2.0)
    b3.add_argument("--delta", type=float, default=1.0)
    b3.add_argument("--G-f", type=float, default=1.0, dest="G_f")
    b3.add_argument("--G-gamma", type=float, default=1.0, dest="G_gamma")
    for p in (b2, b3):
        p.set_defaults(func=_cmd_bound, usage_error=p.error)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
