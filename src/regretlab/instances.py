"""Problem instances, seeded generators, and the flat-file formats.

Instance types are immutable after construction and validated eagerly.
Each type owns its rules and is the one place they are written: a
constructor converts its fields and raises a ValueError that names the
field. A parser checks only its format's own rules (headers, tokens,
JSON structure); it applies the types' rules and turns their ValueError
into a FormatError that adds the line, plus ``rounds[k]: `` for a GKP
round. File formats (all ASCII, LF line endings):

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
from itertools import chain
from math import inf
from typing import ClassVar, Sequence

import numpy as np

from .rng import SeededRng
from .traces import checked_index, checked_int, checked_real


class FormatError(ValueError):
    """A parse failure, carrying the 1-indexed offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def owned_array(value) -> np.ndarray:
    """value as a float64 array that no caller holds: np.asarray's result,
    copied when that is value itself or a view of other memory. So a
    type that stores it and clears its writeable flag never changes the
    caller's array, and no later write through the caller's array or a
    view of it reaches the stored one."""
    a = np.asarray(value, dtype=np.float64)
    if a is value or not a.flags.owndata:
        a = a.copy()
    return a


def _finite_nonnegative_array(a: np.ndarray, what: str, high: float = inf) -> np.ndarray:
    """a, read-only, once every entry is a finite number in [0, high]; a
    must be an array that no caller holds (see owned_array). Its least and
    greatest entries go through traces.checked_real; NaN propagates
    through both, so they pass iff every entry does."""
    if a.size:
        checked_real(float(a.min()), what, 0.0, high)
        checked_real(float(a.max()), what, 0.0, high)
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


# entry types that np.asarray turns into floats but that are no numbers
_NOT_NUMBERS = frozenset((bool, np.bool_, str, np.str_, bytes, np.bytes_))


def _entries(value, ndim: int):
    """The entries of value, which np.asarray made an ndim-dimensional
    (1 or 2) array of: an array's, a list's, or its rows' in turn."""
    if isinstance(value, np.ndarray):
        return value.flat
    return value if ndim == 1 else chain.from_iterable(value)


def _entry_type(x) -> type:
    """The type np.asarray reads entry x as: a 0-d array's dtype (or, for
    an object array, its item's), any other entry's own type."""
    if type(x) is np.ndarray:
        return type(x.item()) if x.dtype == object else x.dtype.type
    return type(x)


def _entry_types(value, ndim: int) -> set:
    """The types of value's entries (see _entries and _entry_type), in one
    pass; an array of numbers gives its dtype's."""
    if isinstance(value, np.ndarray) and value.dtype != object:
        return {value.dtype.type}
    types = set(map(type, _entries(value, ndim)))
    if np.ndarray in types:  # 0-d arrays among the entries: read each one
        types = set(map(_entry_type, _entries(value, ndim)))
    return types


def _refuse_non_numbers(value, ndim: int, what: str, high: float) -> None:
    """Refuse value, which np.asarray made an ndim-dimensional float array,
    when an entry is a bool or a str (numpy converts both), by the number
    rule (traces.checked_real) on the first such entry."""
    types = _entry_types(value, ndim)
    if not types.isdisjoint(_NOT_NUMBERS):
        for x in _entries(value, ndim):
            if _entry_type(x) in _NOT_NUMBERS:
                checked_real(x, what, 0.0, high)


def checked_vector(value, what: str, high: float = inf) -> np.ndarray:
    """value as a read-only vector of finite floats in [0, high], in an
    array of its own (owned_array). An entry that is a bool or a str is
    refused by the number rule, as a scalar field would refuse it."""
    try:
        a = owned_array(value)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or a.ndim != 1:
        raise ValueError(f"{what} must be a list of numbers")
    _refuse_non_numbers(value, 1, what, high)
    return _finite_nonnegative_array(a, what, high)


# ---------------------------------------------------------------------------
# instance types
# ---------------------------------------------------------------------------


def _canonical_edge(u, v, n: int, seen: set) -> tuple[int, int]:
    """The edge {u, v} of a graph on vertices 0..n-1 as (min, max), added to
    ``seen``. The endpoints must be vertices (traces.checked_index),
    distinct, and the edge must not be in ``seen`` yet."""
    try:
        u, v = checked_index(u, n, "an endpoint"), checked_index(v, n, "an endpoint")
    except ValueError as exc:  # the edge is named only on a refusal
        raise ValueError(f"edge ({u!r},{v!r}): {exc}") from None
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    e = (u, v) if u < v else (v, u)
    if e in seen:
        raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
    seen.add(e)
    return e


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if checked_int(self.n, "n") < 1:
            raise ValueError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        canon = tuple(_canonical_edge(u, v, self.n, seen) for u, v in self.edges)
        object.__setattr__(self, "edges", canon)

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class _RowMatrix:
    """Rows of n finite nonnegative floats, stored read-only in an array of
    their own; a subclass names its field (``_what``) and its row count
    (``_count``)."""

    _what: ClassVar[str]
    _count: ClassVar[str]

    n: int
    rows: np.ndarray  # shape (T or N, n), read-only float64

    def __post_init__(self):
        checked_int(self.n, "n")
        try:
            rows = owned_array(self.rows)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{self._what} must be rows of numbers") from None
        if rows.ndim == 1 and rows.size == 0:
            rows = rows.reshape(0, self.n)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ValueError(f"rows must have shape ({self._count}, {self.n})")
        _refuse_non_numbers(self.rows, 2, self._what, inf)
        object.__setattr__(self, "rows", _finite_nonnegative_array(rows, self._what))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and np.array_equal(self.rows, other.rows)
        )


class WeightSequence(_RowMatrix):
    """T rows of n nonnegative per-element weights (the adversary's states)."""

    _what, _count = "weights", "T"

    @property
    def T(self) -> int:
        return self.rows.shape[0]


class ProcTimeMatrix(_RowMatrix):
    """N rows of per-job nonnegative processing times."""

    _what, _count = "processing times", "N"

    @property
    def N(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, eq=False)
class GkpStatic:
    """Static part of a generalized knapsack: item weights and penalty rate."""

    n: int
    w: np.ndarray
    c: float

    def __post_init__(self):
        w = checked_vector(self.w, "item weights w")
        if w.shape != (checked_int(self.n, "n"),):
            raise ValueError(f"item weights w must have length {self.n}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "c", checked_real(self.c, "penalty rate c", 0.0))

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
        object.__setattr__(self, "p", checked_vector(self.p, "profits p"))
        object.__setattr__(self, "B", checked_real(self.B, "capacity B", 0.0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GkpRound)
            and self.B == other.B
            and np.array_equal(self.p, other.p)
        )


def check_round_length(n: int, r: GkpRound, k: int | None = None) -> None:
    """Refuse a round without one profit per item of an n-item knapsack,
    naming its index k in the round list when there is one."""
    if r.p.shape != (n,):
        where = "round" if k is None else f"rounds[{k}]:"
        raise ValueError(f"{where} profit vector length must match item count {n}")


@dataclass(frozen=True, eq=False)
class GkpRounds(_RowMatrix):
    """A stream of m revealed rounds as one block: row k of ``rows`` is
    round k's profit vector and B[k] its capacity. ``rounds[k]`` is that
    round as a GkpRound, ``rounds[a:b]`` the rounds a..b-1 as a block."""

    _what, _count = "profits p", "m"

    B: np.ndarray  # shape (m,), read-only float64

    def __post_init__(self):
        super().__post_init__()
        B = checked_vector(self.B, "capacities B")
        if B.shape != (self.rows.shape[0],):
            raise ValueError(f"capacities B must have shape ({self.rows.shape[0]},)")
        object.__setattr__(self, "B", B)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return GkpRounds(self.n, self.rows[k], self.B[k])
        return GkpRound(self.rows[k], float(self.B[k]))

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and np.array_equal(self.B, other.B)


def stack_rounds(n: int, rounds) -> GkpRounds:
    """The one reader of a round stream: a GkpRounds of n items as it is,
    any other sequence of GkpRound stacked into one, refusing a round
    without n profits by its index."""
    if isinstance(rounds, GkpRounds) and rounds.n == n:
        return rounds
    rounds = list(rounds)
    for k, r in enumerate(rounds):
        check_round_length(n, r, k)
    return GkpRounds(n, np.array([r.p for r in rounds]), np.array([r.B for r in rounds]))


@dataclass(frozen=True)
class GkpInstanceSet:
    """A static knapsack plus its (profit, capacity) stream, one block."""

    static: GkpStatic
    rounds: GkpRounds

    def __post_init__(self):
        object.__setattr__(self, "rounds", stack_rounds(self.static.n, self.rounds))


Clause = tuple[tuple[int, bool], tuple[int, bool], tuple[int, bool]]


def _canonical_clause(clause, n: int) -> Clause:
    """clause as three (int variable, bool sign) pairs over distinct
    variables, each checked by traces.checked_index."""
    if len(clause) != 3:
        raise ValueError(f"each clause must have exactly 3 literals, got {len(clause)}")
    lits = []
    for v, s in clause:
        v = checked_index(v, n, "a clause variable")
        if not isinstance(s, (bool, np.bool_)):
            raise ValueError(f"sign {s!r} of variable {v} must be a bool")
        lits.append((v, bool(s)))
    if len({v for v, _ in lits}) != 3:
        raise ValueError("clause literals must use distinct variables")
    return tuple(lits)


@dataclass(frozen=True)
class Dnf3Formula:
    """Max-3-DNF formula: clauses are conjunctions of three literals.

    A clause is a tuple of three ``(variable, is_positive)`` pairs over
    distinct 0-indexed variables.
    """

    n: int
    clauses: tuple[Clause, ...] = field(default=())

    def __post_init__(self):
        if checked_int(self.n, "n") < 1:
            raise ValueError("formula needs at least one variable")
        canon = tuple(_canonical_clause(clause, self.n) for clause in self.clauses)
        object.__setattr__(self, "clauses", canon)

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
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        raise FormatError(f"header must be two integers 'n m', got {lines[0]!r}", 1) from None
    if n < 1 or m < 0:
        raise FormatError("header requires n >= 1 and m >= 0", 1)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            u, v = map(int, raw.split())
        except ValueError:
            raise FormatError(f"edge line must be two integers 'u v', got {raw!r}", lineno) from None
        try:
            edges.append(_canonical_edge(u, v, n, seen))
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
    if len(edges) != m:
        raise FormatError(f"header promised {m} edges, found {len(edges)}", 1)
    return Graph(n, tuple(edges))


def _parse_rows(text: str, cls: type[_RowMatrix]) -> _RowMatrix:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("n="):
        raise FormatError("missing 'n=<n>' header", 1)
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise FormatError(f"bad element count in header {lines[0]!r}", 1) from None
    if n < 1:
        raise FormatError("element count must be >= 1", 1)
    rows, linenos = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != n:
            raise FormatError(f"row has {len(parts)} entries, expected {n}", lineno)
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise FormatError(f"non-numeric entry in row {raw!r}", lineno) from None
        linenos.append(lineno)
    try:
        return cls(n, np.array(rows, dtype=np.float64).reshape(len(rows), n))
    except ValueError:
        # the type refused some row: report the first, under the same rule
        for lineno, row in zip(linenos, rows):
            try:
                cls(n, [row])
            except ValueError as exc:
                raise FormatError(str(exc), lineno) from None
        raise


def parse_weights(text: str) -> WeightSequence:
    """Parse the CSV weight-sequence format."""
    return _parse_rows(text, WeightSequence)


def parse_proc_times(text: str) -> ProcTimeMatrix:
    """Parse the CSV processing-time format (same layout as weights)."""
    return _parse_rows(text, ProcTimeMatrix)


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
    if not isinstance(obj["rounds"], list):
        raise FormatError("'rounds' must be a list", 1)
    w = obj["w"]
    try:
        # a w that is no list fails as such whatever the item count
        static = GkpStatic(len(w) if isinstance(w, list) else 0, w, obj["c"])
    except ValueError as exc:
        raise FormatError(str(exc), 1) from None
    raw = obj["rounds"]
    try:
        # the block refuses every value a GkpRound would (a str or bool too)
        rounds = GkpRounds(static.n, [r["p"] for r in raw], [r["B"] for r in raw])
    except (KeyError, TypeError, ValueError):
        # the block refused some round: find it under the per-round rules
        rounds = []
        for k, r in enumerate(raw):
            if not isinstance(r, dict) or "p" not in r or "B" not in r:
                raise FormatError(f"rounds[{k}] must be an object with keys 'p' and 'B'", 1) from None
            try:
                rounds.append(GkpRound(r["p"], r["B"]))
            except ValueError as exc:
                raise FormatError(f"rounds[{k}]: {exc}", 1) from None
    try:
        return GkpInstanceSet(static, rounds)
    except ValueError as exc:
        raise FormatError(str(exc), 1) from None


def parse_dnf(text: str, n: int | None = None) -> Dnf3Formula:
    """Parse the signed-literal 3-DNF format.

    The file format carries no variable count; it is inferred as the
    largest variable index mentioned unless ``n`` is given explicitly.
    """
    lines: list[tuple[int, list[tuple[int, bool]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        lits = []
        for p in raw.split():
            try:
                lit = int(p)
            except ValueError:
                raise FormatError(f"literal must be a signed integer, got {p!r}", lineno) from None
            if lit == 0:
                raise FormatError("literal 0 is not allowed (1-indexed)", lineno)
            lits.append((abs(lit) - 1, lit > 0))
        lines.append((lineno, lits))
    if n is None:
        n = max((v + 1 for _, lits in lines for v, _ in lits), default=1)
    clauses = []
    for lineno, lits in lines:
        try:
            clauses.append(_canonical_clause(lits, n))
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
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


def _serialize_rows(mat: _RowMatrix) -> str:
    lines = [f"n={mat.n}"]
    lines.extend(",".join(_fmt(x) for x in row) for row in mat.rows)
    return "\n".join(lines)


def serialize_weights(seq: WeightSequence) -> str:
    return _serialize_rows(seq)


def serialize_proc_times(mat: ProcTimeMatrix) -> str:
    return _serialize_rows(mat)


def serialize_gkp(inst: GkpInstanceSet) -> str:
    obj = {
        "w": [float(x) for x in inst.static.w],
        "c": inst.static.c,
        "rounds": [{"p": p, "B": B} for p, B in zip(inst.rounds.rows.tolist(), inst.rounds.B.tolist())],
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
    if isinstance(obj, (WeightSequence, ProcTimeMatrix)):
        return _serialize_rows(obj)
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
    p = checked_real(p, "edge probability p", 0.0, 1.0)
    if checked_int(n, "n") < 1:
        raise ValueError("n must be >= 1")
    # one draw per pair, pairs in the order (0,1), (0,2), ..., (1,2), ...
    us, vs = np.triu_indices(n, 1)
    kept = rng.random_array(us.size) < p
    return Graph(n, tuple(zip(us[kept].tolist(), vs[kept].tolist())))


def gen_onehot_weights(n: int, T: int, rng: SeededRng) -> WeightSequence:
    """Each row puts weight 1 on a uniformly chosen element, 0 elsewhere."""
    if checked_int(n, "n") < 1:
        raise ValueError("n must be >= 1")
    if checked_int(T, "T") < 0:
        raise ValueError("T must be >= 0")
    rows = np.zeros((T, n))
    for t in range(T):
        rows[t, rng.randrange(n)] = 1.0
    return WeightSequence(n, rows)


def gen_uniform_weights(n: int, T: int, W: float, rng: SeededRng) -> WeightSequence:
    """Entries i.i.d. uniform on [0, W]."""
    W = checked_real(W, "W", 0.0)
    if checked_int(n, "n") < 1:
        raise ValueError("n must be >= 1")
    if checked_int(T, "T") < 0:
        raise ValueError("T must be >= 0")
    return WeightSequence(n, rng.uniform_array(0.0, W, T * n).reshape(T, n))


def gen_random_dnf(n: int, m: int, rng: SeededRng) -> Dnf3Formula:
    """Random 3-DNF: each clause picks 3 distinct variables and random signs.

    Instance supply for the reduction validators and the CLI; not an
    adversary distribution.
    """
    if checked_int(n, "n") < 3:
        raise ValueError("need at least 3 variables for 3-literal clauses")
    if checked_int(m, "m") < 0:
        raise ValueError(f"need m >= 0 clauses, got m={m!r}")
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
    if checked_int(n, "n") < 1 or checked_int(m, "m") < 0:
        raise ValueError("need n >= 1 items and m >= 0 rounds")
    w = rng.uniform_array(0.1, 1.0, n)
    c = rng.uniform(0.0, 1.0)
    static = GkpStatic(n, w, c)
    return GkpInstanceSet(static, random_gkp_rounds(static, m, rng))


def random_gkp_rounds(static: GkpStatic, m: int, rng: SeededRng) -> GkpRounds:
    """m random rounds: n profits uniform on [0, 1), then a capacity uniform
    on [0, total weight), each round one row of an (m, n+1) block."""
    if checked_int(m, "m") < 0:
        raise ValueError("need m >= 0 rounds")
    u = rng.uniform_array(0.0, 1.0, m * (static.n + 1)).reshape(m, static.n + 1)
    return GkpRounds(static.n, u[:, :-1], 0.0 + static.total_weight * u[:, -1])
