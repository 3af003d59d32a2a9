"""Min-max objectives, exact single-instance solvers, and desk-scale
brute-force oracles for the multi-instance problems.

A *selection* (vertex cover, matching, path, machine assignment) pays, per
weight row, the maximum weight among its chosen elements; multi-instance
cost is the sum of the rows. All solvers here are exact; the multi-instance
ones enumerate and are guarded by hard size limits — an oracle must never
silently approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .instances import Graph, ProcTimeMatrix, WeightSequence, checked_array
from .traces import checked_index, checked_int, checked_mask, mask_members

VertexSubset = frozenset  # of vertex indices
MachineAssignment = tuple  # of machine indices in {0,1,2}, one per job

# enumeration guards: hard errors, never silent truncation
MAX_HINDSIGHT_N = 25
MAX_MATCHING_VERTICES = 16
MAX_PATH_STAGES = 20
MAX_P3_JOBS = 12


def _as_rows(rows, width: int | str = "n") -> np.ndarray:
    """rows, a WeightSequence or any (T, width) block of finite reals, as
    the array instances.checked_array makes of it."""
    if isinstance(rows, WeightSequence):
        rows = rows.rows
    return checked_array(rows, "weight rows", ("T", width))


def _summed_max(members: list[int], rows: np.ndarray) -> float:
    """multi_minmax_cost of the selection ``members`` on checked rows: the
    enumerators check their rows once and score each candidate here."""
    if not members or rows.shape[0] == 0:
        return 0.0
    return float(rows[:, members].max(axis=1).sum())


def minmax_value(s: Iterable[int], w) -> float:
    """max_{i in s} w_i, with the empty-set maximum defined as 0; w is a
    vector of any finite reals (instances.checked_array)."""
    w = checked_array(w, "weights w", ("n",))
    members = mask_members(checked_mask(s, w.shape[0], "a selection"))
    return float(w[members].max()) if members else 0.0


def is_vertex_cover(g: Graph, s: Iterable[int]) -> bool:
    """True iff every edge of g has an endpoint in s, a set of vertices of g."""
    mask = checked_mask(s, g.n, "a vertex set")
    return all(mask >> u & 1 or mask >> v & 1 for u, v in g.edges)


def vc_threshold(w: Sequence[float], edges: Sequence[tuple[int, int]]) -> float:
    """max over the edges (u, v) of min(w[u], w[v]), with ``w`` a plain
    sequence of floats and at least one edge: the least threshold at which
    the vertices of weight <= threshold cover every edge."""
    # the inline min(w[u], w[v]): w[u] unless w[v] is smaller
    return max([w[v] if w[v] < w[u] else w[u] for u, v in edges])


def static_minmax_vc(g: Graph, w) -> tuple[frozenset, float]:
    """Exact min-max vertex cover of a single weight row.

    The set of all vertices with weight <= threshold is the cheapest cover
    attempt at that value, and it covers g exactly when the threshold
    reaches min(w_u, w_v) on every edge. So the optimal threshold is the
    largest of those per-edge minima, found in one pass over the edges.
    Returns the full eligible set (not pruned to a minimal cover) and the
    threshold value. The row is n finite reals (instances.checked_array).
    """
    w = checked_array(w, "weight row", (g.n,))
    if g.m == 0:
        return frozenset(), 0.0
    thr = vc_threshold(w.tolist(), g.edges)
    return frozenset(np.flatnonzero(w <= thr).tolist()), float(thr)


def multi_minmax_cost(selection: Iterable[int], rows) -> float:
    """Sum over rows of the max weight in the selection (empty max is 0);
    rows is a WeightSequence or any block of finite reals (see _as_rows)."""
    rows = _as_rows(rows)
    return _summed_max(mask_members(checked_mask(selection, rows.shape[1], "a selection")), rows)


def _maximal_independent_sets(g: Graph) -> Iterator[int]:
    """Yield maximal independent sets of g as bitmasks.

    Bron-Kerbosch with pivoting, run on the complement graph (independent
    sets of g are cliques of the complement).
    """
    n = g.n
    full = (1 << n) - 1
    # complement adjacency as bitmasks
    comp = [full & ~(1 << v) for v in range(n)]
    for u, v in g.edges:
        comp[u] &= ~(1 << v)
        comp[v] &= ~(1 << u)

    def expand(r: int, p: int, x: int):
        if p == 0 and x == 0:
            yield r
            return
        pivot_pool = p | x
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        best = pivot
        best_deg = -1
        pool = pivot_pool
        while pool:
            u = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            deg = bin(comp[u] & p).count("1")
            if deg > best_deg:
                best, best_deg = u, deg
        cand = p & ~comp[best]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            yield from expand(r | (1 << v), p & comp[v], x & comp[v])
            p &= ~(1 << v)
            x |= 1 << v

    yield from expand(0, full, 0)


def minimal_vertex_covers(g: Graph) -> Iterator[frozenset]:
    """Yield the inclusion-minimal vertex covers of g.

    These are exactly the complements of maximal independent sets.
    """
    full = (1 << g.n) - 1
    for mis in _maximal_independent_sets(g):
        yield frozenset(mask_members(full & ~mis))


def best_static_vc_hindsight(g: Graph, seq: WeightSequence) -> tuple[frozenset, float]:
    """Exact minimizer of the summed min-max cost over all vertex covers.

    The per-row cost max_{i in s} w_i is monotone in s, so some
    inclusion-minimal cover attains the optimum; only those are scanned.
    """
    if g.n > MAX_HINDSIGHT_N:
        raise ValueError(f"n={g.n} exceeds enumeration guard {MAX_HINDSIGHT_N}")
    if seq.n != g.n:
        raise ValueError("weight sequence width must equal vertex count")
    best_cover: frozenset | None = None
    best_cost = np.inf
    for cover in minimal_vertex_covers(g):
        cost = _summed_max(list(cover), seq.rows)
        if cost < best_cost:
            best_cover, best_cost = cover, cost
    assert best_cover is not None
    return best_cover, best_cost


# ---------------------------------------------------------------------------
# multi-instance brute-force oracles
# ---------------------------------------------------------------------------


def _perfect_matchings(g: Graph) -> Iterator[tuple[int, ...]]:
    """Yield perfect matchings of g as sorted tuples of edge indices."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for idx, (u, v) in enumerate(g.edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))

    unmatched = (1 << g.n) - 1

    def recurse(unmatched: int, chosen: list[int]) -> Iterator[tuple[int, ...]]:
        if unmatched == 0:
            yield tuple(chosen)
            return
        u = (unmatched & -unmatched).bit_length() - 1
        for v, idx in adj[u]:
            if unmatched >> v & 1:
                chosen.append(idx)
                yield from recurse(unmatched & ~(1 << u) & ~(1 << v), chosen)
                chosen.pop()

    yield from recurse(unmatched, [])


def brute_force_multi_matching(g: Graph, rows) -> tuple[frozenset, float]:
    """Exact minimizer of the summed max-edge-weight over perfect matchings.

    ``rows`` has one finite real weight per edge of g, in g.edges order
    (see _as_rows). Distinct errors for an odd vertex count versus an even
    graph with no perfect matching.
    """
    if g.n > MAX_MATCHING_VERTICES:
        raise ValueError(f"|V|={g.n} exceeds enumeration guard {MAX_MATCHING_VERTICES}")
    if g.n % 2 == 1:
        raise ValueError("odd vertex count: no perfect matching can exist")
    rows = _as_rows(rows, g.m)
    best: tuple[int, ...] | None = None
    best_cost = np.inf
    for matching in _perfect_matchings(g):
        cost = _summed_max(list(matching), rows)
        if cost < best_cost:
            best, best_cost = matching, cost
    if best is None:
        raise ValueError("graph has no perfect matching")
    return frozenset(g.edges[i] for i in best), best_cost


def _first_argmin(total: int, costs) -> tuple[int, float]:
    """The first index in range(total) of least cost, and that cost, with
    ``costs`` mapping an int64 index chunk to the chunk's cost vector; the
    indices go in chunks of 2^14 (index 0 and +inf when every cost is NaN)."""
    best_idx = 0
    best_cost = np.inf
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        c = costs(idx)
        k = int(np.argmin(c))
        if c[k] < best_cost:
            best_cost = float(c[k])
            best_idx = int(idx[k])
    return best_idx, best_cost


@dataclass(frozen=True)
class PathChain:
    """A chain of ``n_stages`` vertex pairs with two parallel labeled arcs
    ('t' and 'f') per stage; a source-to-sink path picks one arc per stage.

    Arc-weight rows use column 2*i for arc ('t', stage i) and column
    2*i + 1 for arc ('f', stage i). ``n_stages`` is an integer >= 1
    (traces.checked_int), and a stage an index into the stages
    (traces.checked_index).
    """

    n_stages: int

    def __post_init__(self):
        n_stages = checked_int(self.n_stages, "n_stages")
        if n_stages < 1:
            raise ValueError("chain needs at least one stage")
        object.__setattr__(self, "n_stages", n_stages)

    @property
    def n_arcs(self) -> int:
        return 2 * self.n_stages

    def arc_index(self, stage: int, label: str) -> int:
        if label not in ("t", "f"):
            raise ValueError("arc label must be 't' or 'f'")
        return 2 * checked_index(stage, self.n_stages, "stage") + (0 if label == "t" else 1)

    def path_arc_indices(self, labels: Sequence[str]) -> tuple[int, ...]:
        if len(labels) != self.n_stages:
            raise ValueError("path must pick one arc per stage")
        return tuple(self.arc_index(i, lab) for i, lab in enumerate(labels))


def brute_force_multi_path(chain: PathChain, rows) -> tuple[tuple, float]:
    """Exact minimizer of the summed max-arc-weight over all 2^n paths.

    ``rows`` has one finite real weight per arc (see _as_rows). Returns
    the path as a tuple of 't'/'f' labels; among ties the
    lexicographically smallest with 't' < 'f' wins.
    """
    n = chain.n_stages
    if n > MAX_PATH_STAGES:
        raise ValueError(f"{n} stages exceeds enumeration guard {MAX_PATH_STAGES}")
    rows = _as_rows(rows, chain.n_arcs)
    wt, wf = rows[:, 0::2], rows[:, 1::2]
    # stage 0 is the most significant bit so index order is lexicographic
    shifts = np.array([n - 1 - i for i in range(n)], dtype=np.int64)

    def costs(idx: np.ndarray) -> np.ndarray:
        take_f = (idx[:, None] >> shifts[None, :]) & 1  # bit 1 means 'f'
        # (paths, rows, stages) would be large; fold rows one at a time
        out = np.zeros(idx.shape[0])
        for j in range(rows.shape[0]):
            out += np.where(take_f == 1, wf[j][None, :], wt[j][None, :]).max(axis=1)
        return out

    best_idx, best_cost = _first_argmin(1 << n, costs)
    labels = tuple("f" if (best_idx >> (n - 1 - i)) & 1 else "t" for i in range(n))
    return labels, best_cost


def brute_force_multi_p3cmax(jobs: ProcTimeMatrix) -> tuple[tuple, float]:
    """Exact minimizer of the summed 3-machine makespan over all 3^n
    assignments. Ties break to the lexicographically smallest assignment.
    """
    n = jobs.n
    if n > MAX_P3_JOBS:
        raise ValueError(f"n={n} exceeds enumeration guard {MAX_P3_JOBS}")
    P = jobs.rows  # (N, n)
    # job 0 is the most significant digit so index order is lexicographic
    powers = np.array([3 ** (n - 1 - i) for i in range(n)], dtype=np.int64)

    def costs(idx: np.ndarray) -> np.ndarray:
        digits = (idx[:, None] // powers[None, :]) % 3  # (chunk, n)
        loads = np.empty((3, idx.shape[0], P.shape[0]))
        for mach in range(3):
            loads[mach] = (digits == mach).astype(np.float64) @ P.T
        return loads.max(axis=0).sum(axis=1)

    best_idx, best_cost = _first_argmin(3**n, costs)
    assignment = tuple(int(d) for d in (best_idx // powers) % 3)
    return assignment, best_cost
