"""Correctness checks on what ``regretlab run`` wrote.

Each failure is one line naming the workload seed, the replica seed, the
horizon and the layer at fault.  A replica fails when its config's run
raised or exited non-zero, when its trace breaks a workload check below,
or when a repeated iteration did not write the same bytes as the first.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from regretlab import brute_oracle, gkp_profit, is_vertex_cover, parse_gkp, parse_graph

# rel. tolerance between the trace's hindsight benchmark (prefix sweep) and
# brute_oracle (aggregate sums): the two add the same floats in other orders
BENCHMARK_RTOL = 1e-9


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _played(cell: str) -> frozenset:
    return frozenset(int(v) for v in cell.split(";")) if cell else frozenset()


def _check_ogd(rows, inst, T):
    g = inst["graph"]
    for r in rows:
        t = r["t"]
        if not is_vertex_cover(g, _played(r["played_set"])):
            return "ogd", f"round {t}: played set {r['played_set']!r} is not a vertex cover"
        if not float(r["int_cost"]) <= 2.0 * float(r["frac_cost"]):
            return "ogd", f"round {t}: int_cost {r['int_cost']} > 2 * frac_cost {r['frac_cost']}"
    return None


def _check_gftpl(rows, inst, T):
    static, rounds = inst["gkp"].static, inst["gkp"].rounds[:T]
    for r, rnd in zip(rows, rounds):
        payoff = gkp_profit(_played(r["played_set"]), static, rnd)
        if float(r["payoff"]) != payoff:
            return "gftpl", f"round {r['t']}: payoff {r['payoff']} != gkp_profit {payoff!r}"
    best = brute_oracle(static, rounds)[1]
    got = float(rows[-1]["best_static_cum"])
    if abs(got - best) > BENCHMARK_RTOL * max(abs(best), 1.0):
        return "gkp", f"benchmark {got!r} differs from brute_oracle optimum {best!r}"
    return None


def _check_gap(rows, inst, T):
    # a replica answers Yes by logging a zero-cost round and stopping; on
    # the certified No graph it must play every round instead
    if len(rows) != T:
        return "reductions", f"answered Yes after {len(rows)} of {T} rounds on a No instance"
    return None


_CHECKS = {"ogd_vc": _check_ogd, "gftpl_gkp": _check_gftpl, "gap_solver": _check_gap}
_LAYER = {"ogd_vc": "ogd", "gftpl_gkp": "gftpl", "gap_solver": "reductions"}


class Checker:
    """Checks one benchmark run's outputs; collects failed replicas."""

    def __init__(self, workload: str, seed: int, setup_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.setup_dir = setup_dir
        manifest = json.loads((setup_dir / "manifest.json").read_text())
        self.configs = {name: json.loads((setup_dir / name).read_text()) for name in manifest["configs"]}
        self.failed: set[tuple] = set()
        self.messages: list[str] = []

    @property
    def replicas_per_iteration(self) -> int:
        return sum(len(c["seeds"]) for c in self.configs.values())

    def fail(self, where: str, name: str, replica_seed, layer: str, what: str) -> None:
        T = self.configs[name]["T"]
        self.failed.add((where, name, replica_seed))
        self.messages.append(
            f"FAIL {self.workload} seed={self.seed} {where} {name} replica_seed={replica_seed} "
            f"T={T} layer={layer}: {what}"
        )

    def check_iteration(self, where: str, entries: list[dict], out: Path) -> None:
        """The run of every config raised nothing and exited 0.

        A run exits 1 when some replica's regret is above its theorem bound;
        summary.json names those replicas.
        """
        for e in entries:
            name = e["config"]
            cfg = self.configs[name]
            if e["error"] is not None:
                for s in cfg["seeds"]:
                    self.fail(where, name, s, "harness", f"regretlab run raised {e['error']}")
            elif e["exit"] != 0:
                summary = json.loads((out / Path(name).stem / "summary.json").read_text())
                violations = summary["bounds"]["violations"]
                for v in violations:
                    self.fail(where, name, v["seed"], _LAYER[cfg["algorithm"]],
                              f"regret {v['regret']!r} above bound {v['bound']!r}")
                if not violations:
                    for s in cfg["seeds"]:
                        self.fail(where, name, s, "harness", f"regretlab run exited {e['exit']}")

    def check_outputs(self, where: str, out: Path) -> None:
        """Workload checks on every replica trace of one iteration."""
        instances = {}
        for name, cfg in self.configs.items():
            T = cfg["T"]
            summary_path = out / Path(name).stem / "summary.json"
            if not summary_path.is_file():
                continue  # already counted by check_iteration
            summary = json.loads(summary_path.read_text())
            inst = {}
            for role, rel in cfg["instance"].items():
                key = (role, rel)
                if key not in instances:
                    text = (self.setup_dir / rel).read_text()
                    instances[key] = parse_graph(text) if role == "graph" else parse_gkp(text)
                inst[role] = instances[key]
            for s in cfg["seeds"]:
                csv_path = out / Path(name).stem / f"trace_seed{s}.csv"
                if not csv_path.is_file():
                    self.fail(where, name, s, "traces", f"{csv_path.name} missing")
                    continue
                bad = _CHECKS[cfg["algorithm"]](_rows(csv_path), inst, T)
                if bad:
                    self.fail(where, name, s, *bad)
            if cfg["algorithm"] == "gap_solver":
                for row in summary["per_seed"]:
                    if row["decision"] != "No":
                        self.fail(where, name, row["seed"], "reductions",
                                  f"answered {row['decision']} on a certified No graph")

    def check_same_traces(self, where: str, out: Path, reference: Path, what: str) -> None:
        """Every trace CSV under ``out`` is byte-identical to ``reference``'s."""
        for name, cfg in self.configs.items():
            for s in cfg["seeds"]:
                rel = Path(Path(name).stem) / f"trace_seed{s}.csv"
                a, b = out / rel, reference / rel
                if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                    self.fail(where, name, s, "traces", f"trace CSV not byte-identical to {what}")


def tree_digest(root: Path) -> str:
    """sha256 over every file under ``root`` (path and bytes), in path order.

    summary.json records absolute instance paths; they are reduced to file
    names so that the digest does not depend on where the run happened.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            obj = json.loads(data)
            obj["instance"] = {k: Path(v).name for k, v in obj.get("instance", {}).items()}
            data = json.dumps(obj, sort_keys=True).encode()
        h.update(str(path.relative_to(root)).encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def same_tree(a: Path, b: Path) -> bool:
    """Whether two directories hold the same file names with the same bytes."""
    fa = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    fb = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return fa == fb and all((a / p).read_bytes() == (b / p).read_bytes() for p in fa)
