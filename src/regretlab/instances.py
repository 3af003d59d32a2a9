"""Problem instances, seeded generators, and the flat-file formats.

Instance types are immutable after construction and validated eagerly.
File formats (all ASCII, LF line endings):

* graph: first line ``"n m"``, then ``m`` lines ``"u v"`` of 0-indexed
  endpoints of an undirected simple graph;
* weight sequence / processing-time matrix: header line ``"n=<n>"``
  followed by one comma-separated row per step, floats rendered as the
  shortest decimal that round-trips to the same double;
* generalized-knapsack set: JSON object
  ``{"w": [...], "c": ..., "rounds": [{"p": [...], "B": ...}, ...]}``;
* 3-DNF formula: one clause per line, three literals as signed 1-indexed
  integers (``"1 -2 3"`` is x1 AND NOT x2 AND x3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isfinite
from typing import Sequence

import numpy as np

from .rng import SeededRng


class FormatError(ValueError):
    """A parse failure, carrying the 1-indexed offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_finite_nonnegative(a: np.ndarray, what: str) -> None:
    """Reject NaN or infinite entries, then negative ones, naming the field."""
    if a.size == 0:
        return
    lo, hi = a.min(), a.max()
    # NaN propagates through min and max, so both are finite iff every entry is
    if not (isfinite(lo) and isfinite(hi)):
        raise ValueError(f"{what} must be finite")
    if lo < 0:
        raise ValueError(f"{what} must be nonnegative")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# instance types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        canon = []
        for (u, v) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) endpoint out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
            canon.append(e)
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """T rows of n nonnegative per-element weights (the adversary's states)."""

    n: int
    rows: np.ndarray  # shape (T, n), read-only float64

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim == 1 and rows.size == 0:
            rows = rows.reshape(0, self.n)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ValueError(f"rows must have shape (T, {self.n})")
        _check_finite_nonnegative(rows, "weights")
        object.__setattr__(self, "rows", _readonly(rows))

    @property
    def T(self) -> int:
        return self.rows.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightSequence)
            and self.n == other.n
            and np.array_equal(self.rows, other.rows)
        )


@dataclass(frozen=True, eq=False)
class ProcTimeMatrix:
    """N rows of per-job nonnegative processing times."""

    n: int
    rows: np.ndarray  # shape (N, n), read-only float64

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim == 1 and rows.size == 0:
            rows = rows.reshape(0, self.n)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ValueError(f"rows must have shape (N, {self.n})")
        _check_finite_nonnegative(rows, "processing times")
        object.__setattr__(self, "rows", _readonly(rows))

    @property
    def N(self) -> int:
        return self.rows.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProcTimeMatrix)
            and self.n == other.n
            and np.array_equal(self.rows, other.rows)
        )


@dataclass(frozen=True, eq=False)
class GkpStatic:
    """Static part of a generalized knapsack: item weights and penalty rate."""

    n: int
    w: np.ndarray
    c: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.shape != (self.n,):
            raise ValueError(f"w must have length {self.n}")
        _check_finite_nonnegative(w, "item weights w")
        if not isfinite(self.c):
            raise ValueError("penalty rate c must be finite")
        if self.c < 0:
            raise ValueError("penalty rate must be nonnegative")
        object.__setattr__(self, "w", _readonly(w))
        object.__setattr__(self, "c", float(self.c))

    @property
    def total_weight(self) -> float:
        return float(self.w.sum())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GkpStatic)
            and self.n == other.n
            and self.c == other.c
            and np.array_equal(self.w, other.w)
        )


@dataclass(frozen=True, eq=False)
class GkpRound:
    """One revealed round: a profit vector and a knapsack capacity."""

    p: np.ndarray
    B: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("p must be a vector")
        _check_finite_nonnegative(p, "profits p")
        if not isfinite(self.B):
            raise ValueError("capacity B must be finite")
        if self.B < 0:
            raise ValueError("capacity must be nonnegative")
        object.__setattr__(self, "p", _readonly(p))
        object.__setattr__(self, "B", float(self.B))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GkpRound)
            and self.B == other.B
            and np.array_equal(self.p, other.p)
        )


@dataclass(frozen=True)
class GkpInstanceSet:
    """A static knapsack plus its per-round (profit, capacity) stream."""

    static: GkpStatic
    rounds: tuple[GkpRound, ...]

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(self.rounds))
        for r in self.rounds:
            if r.p.shape != (self.static.n,):
                raise ValueError("round profit vector length must match item count")


Clause = tuple[tuple[int, bool], tuple[int, bool], tuple[int, bool]]


@dataclass(frozen=True)
class Dnf3Formula:
    """Max-3-DNF formula: clauses are conjunctions of three literals.

    A clause is a tuple of three ``(variable, is_positive)`` pairs over
    distinct 0-indexed variables.
    """

    n: int
    clauses: tuple[Clause, ...] = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("formula needs at least one variable")
        canon = []
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("each clause must have exactly 3 literals")
            vs = [v for v, _ in clause]
            if len(set(vs)) != 3:
                raise ValueError("clause literals must use distinct variables")
            for v in vs:
                if not (0 <= v < self.n):
                    raise ValueError(f"variable {v} out of range")
            canon.append(tuple((int(v), bool(s)) for v, s in clause))
        object.__setattr__(self, "clauses", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.clauses)

    def clause_satisfied(self, j: int, assignment: Sequence[bool]) -> bool:
        return all(assignment[v] == pos for v, pos in self.clauses[j])

    def num_satisfied(self, assignment: Sequence[bool]) -> int:
        """Number of clauses whose three literals all hold under the assignment."""
        if len(assignment) != self.n:
            raise ValueError("assignment length must equal variable count")
        return sum(self.clause_satisfied(j, assignment) for j in range(self.m))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the edge-list graph format, reporting errors with line numbers."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FormatError("missing 'n m' header", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"header must be two integers, got {lines[0]!r}", 1) from None
    if n < 1 or m < 0:
        raise FormatError("header requires n >= 1 and m >= 0", 1)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise FormatError(f"edge line must be 'u v', got {raw!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"edge endpoints must be integers, got {raw!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"endpoint out of range in edge ({u},{v})", lineno)
        if u == v:
            raise FormatError(f"self-loop at vertex {u}", lineno)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise FormatError(f"duplicate edge ({e[0]},{e[1]})", lineno)
        seen.add(e)
        edges.append(e)
    if len(edges) != m:
        raise FormatError(f"header promised {m} edges, found {len(edges)}", 1)
    return Graph(n, tuple(edges))


def _parse_rows(text: str, what: str) -> tuple[int, np.ndarray]:
    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].startswith("n="):
        raise FormatError("missing 'n=<n>' header", 1)
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise FormatError(f"bad element count in header {lines[0]!r}", 1) from None
    if n < 1:
        raise FormatError("element count must be >= 1", 1)
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != n:
            raise FormatError(f"row has {len(parts)} entries, expected {n}", lineno)
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise FormatError(f"non-numeric entry in row {raw!r}", lineno) from None
        if not all(map(isfinite, row)):
            raise FormatError(f"{what} must be finite, got row {raw!r}", lineno)
        if min(row) < 0:
            raise FormatError("negative entry", lineno)
        rows.append(row)
    return n, np.array(rows, dtype=np.float64).reshape(len(rows), n)


def parse_weights(text: str) -> WeightSequence:
    """Parse the CSV weight-sequence format."""
    n, rows = _parse_rows(text, "weights")
    return WeightSequence(n, rows)


def parse_proc_times(text: str) -> ProcTimeMatrix:
    """Parse the CSV processing-time format (same layout as weights)."""
    n, rows = _parse_rows(text, "processing times")
    return ProcTimeMatrix(n, rows)


def _gkp_where(field: str, k: int | None) -> str:
    return field if k is None else f"rounds[{k}]: {field}"


def _gkp_number(value, field: str, k: int | None = None) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"{_gkp_where(field, k)} must be a number", 1) from None


def _gkp_vector(value, field: str, k: int | None = None) -> np.ndarray:
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or a.ndim != 1:
        raise FormatError(f"{_gkp_where(field, k)} must be a list of numbers", 1)
    return a


def parse_gkp(text: str) -> GkpInstanceSet:
    """Parse the JSON generalized-knapsack format.

    JSON values carry no line number, so every error is reported on line 1
    and names the offending field, with the 0-based index into "rounds"
    for a bad round.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(obj, dict):
        raise FormatError("top level must be a JSON object", 1)
    for key in ("w", "c", "rounds"):
        if key not in obj:
            raise FormatError(f"missing key {key!r}", 1)
    w = _gkp_vector(obj["w"], "'w'")
    c = _gkp_number(obj["c"], "'c'")
    try:
        static = GkpStatic(len(w), w, c)
    except ValueError as exc:
        raise FormatError(str(exc), 1) from None
    if not isinstance(obj["rounds"], list):
        raise FormatError("'rounds' must be a list", 1)
    rounds = []
    for k, r in enumerate(obj["rounds"]):
        if not isinstance(r, dict) or "p" not in r or "B" not in r:
            raise FormatError(f"rounds[{k}] must be an object with keys 'p' and 'B'", 1)
        p = _gkp_vector(r["p"], "'p'", k)
        if p.shape != (static.n,):
            raise FormatError(f"rounds[{k}]: profit vector length must match item count {static.n}", 1)
        B = _gkp_number(r["B"], "'B'", k)
        try:
            rounds.append(GkpRound(p, B))
        except ValueError as exc:
            raise FormatError(f"rounds[{k}]: {exc}", 1) from None
    return GkpInstanceSet(static, tuple(rounds))


def parse_dnf(text: str, n: int | None = None) -> Dnf3Formula:
    """Parse the signed-literal 3-DNF format.

    The file format carries no variable count; it is inferred as the
    largest variable index mentioned unless ``n`` is given explicitly.
    """
    clauses: list[Clause] = []
    max_var = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 3:
            raise FormatError(f"clause must have 3 literals, got {raw!r}", lineno)
        lits = []
        for p in parts:
            try:
                lit = int(p)
            except ValueError:
                raise FormatError(f"literal must be a signed integer, got {p!r}", lineno) from None
            if lit == 0:
                raise FormatError("literal 0 is not allowed (1-indexed)", lineno)
            lits.append((abs(lit) - 1, lit > 0))
            max_var = max(max_var, abs(lit))
        if len({v for v, _ in lits}) != 3:
            raise FormatError("clause variables must be distinct", lineno)
        clauses.append(tuple(lits))
    if n is None:
        n = max(max_var, 1)
    return Dnf3Formula(n, tuple(clauses))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    # repr() of a double is the shortest decimal that parses back exactly
    return repr(float(x))


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines)


def _serialize_rows(n: int, rows: np.ndarray) -> str:
    lines = [f"n={n}"]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines)


def serialize_weights(seq: WeightSequence) -> str:
    return _serialize_rows(seq.n, seq.rows)


def serialize_proc_times(mat: ProcTimeMatrix) -> str:
    return _serialize_rows(mat.n, mat.rows)


def serialize_gkp(inst: GkpInstanceSet) -> str:
    obj = {
        "w": [float(x) for x in inst.static.w],
        "c": inst.static.c,
        "rounds": [{"p": [float(x) for x in r.p], "B": r.B} for r in inst.rounds],
    }
    return json.dumps(obj)


def serialize_dnf(f: Dnf3Formula) -> str:
    lines = []
    for clause in f.clauses:
        lines.append(" ".join(str(v + 1 if pos else -(v + 1)) for v, pos in clause))
    return "\n".join(lines)


def serialize_instances(obj) -> str:
    """Serialize any instance object to its canonical text format."""
    if isinstance(obj, Graph):
        return serialize_graph(obj)
    if isinstance(obj, WeightSequence):
        return serialize_weights(obj)
    if isinstance(obj, ProcTimeMatrix):
        return serialize_proc_times(obj)
    if isinstance(obj, GkpInstanceSet):
        return serialize_gkp(obj)
    if isinstance(obj, Dnf3Formula):
        return serialize_dnf(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def gen_random_graph(n: int, p: float, rng: SeededRng) -> Graph:
    """Erdos-Renyi G(n, p): each unordered pair independently with probability p."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must be in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    # one draw per pair, pairs in the order (0,1), (0,2), ..., (1,2), ...
    us, vs = np.triu_indices(n, 1)
    kept = rng.random_array(us.size) < p
    return Graph(n, tuple(zip(us[kept].tolist(), vs[kept].tolist())))


def gen_onehot_weights(n: int, T: int, rng: SeededRng) -> WeightSequence:
    """Each row puts weight 1 on a uniformly chosen element, 0 elsewhere."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if T < 0:
        raise ValueError("T must be >= 0")
    rows = np.zeros((T, n))
    for t in range(T):
        rows[t, rng.randrange(n)] = 1.0
    return WeightSequence(n, rows)


def gen_uniform_weights(n: int, T: int, W: float, rng: SeededRng) -> WeightSequence:
    """Entries i.i.d. uniform on [0, W]."""
    if W < 0:
        raise ValueError("W must be nonnegative")
    if n < 1:
        raise ValueError("n must be >= 1")
    if T < 0:
        raise ValueError("T must be >= 0")
    return WeightSequence(n, rng.uniform_array(0.0, W, T * n).reshape(T, n))


def gen_random_dnf(n: int, m: int, rng: SeededRng) -> Dnf3Formula:
    """Random 3-DNF: each clause picks 3 distinct variables and random signs.

    Instance supply for the reduction validators and the CLI; not an
    adversary distribution.
    """
    if n < 3:
        raise ValueError("need at least 3 variables for 3-literal clauses")
    clauses = []
    for _ in range(m):
        vs: list[int] = []
        while len(vs) < 3:
            v = rng.randrange(n)
            if v not in vs:
                vs.append(v)
        clauses.append(tuple((v, rng.randrange(2) == 1) for v in vs))
    return Dnf3Formula(n, tuple(clauses))


def gen_random_gkp(n: int, m: int, rng: SeededRng) -> GkpInstanceSet:
    """Random generalized-knapsack set: unit-range weights and profits,
    capacities spread over [0, total weight], moderate penalty rate."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 items and m >= 0 rounds")
    w = rng.uniform_array(0.1, 1.0, n)
    c = rng.uniform(0.0, 1.0)
    static = GkpStatic(n, w, c)
    return GkpInstanceSet(static, random_gkp_rounds(static, m, rng))


def random_gkp_rounds(static: GkpStatic, m: int, rng: SeededRng) -> list[GkpRound]:
    """m random rounds: n profits uniform on [0, 1), then a capacity uniform
    on [0, total weight), each round one row of an (m, n+1) block."""
    u = rng.uniform_array(0.0, 1.0, m * (static.n + 1)).reshape(m, static.n + 1)
    caps = (0.0 + static.total_weight * u[:, -1]).tolist()
    return [GkpRound(row[:-1], B) for row, B in zip(u, caps)]
