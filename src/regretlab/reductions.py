"""Gap-problem decisions driven by online learners, plus hardness gadgets.

Two halves, joined by the min-max vertex cover problem:

* :func:`gap_solver` turns any vanishing-regret online algorithm into a
  randomized decider for the promise problem "is the minimum vertex cover
  smaller than A·n or at least B·n?".  The adversary is oblivious — every
  weight row is drawn before the first round — so re-running with the same
  seed but a different learner produces the same rows.
* Four generator/validator pairs (:func:`dnf_to_matching`,
  :func:`dnf_to_path`, :func:`vc_to_multi_vc`, :func:`threecolor_to_p3`)
  embed known-hard problems into multi-instance min-max problems, with
  exact bookkeeping identities that :func:`validate_correspondence` checks
  exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import ceil
from operator import add
from typing import Protocol, Sequence

import numpy as np

from .instances import Dnf3Formula, Graph, ProcTimeMatrix, WeightSequence, checked_array, serialize_dnf
from .minmax import PathChain, _summed_max, multi_minmax_cost, vc_threshold
from .ogd import OgdVcLearner  # re-exported: the gap decider's OGD learner
from .ogd import neighbour_lists
from .rng import SeededRng
from .traces import RegretTrace, checked_index, checked_int, checked_real

# Refuse to pre-draw absurdly long adversary streams; callers with a huge
# computed horizon should set T_override instead.
MAX_GAP_ROUNDS = 1_000_000
# gap_solver draws its targets this many at a time, bounding the uint64
# block that SeededRng.randrange_array computes
_TARGET_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# gap problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapConfig:
    """Parameters of an [A,B]-gap decision backed by an online learner.

    ``A`` and ``B`` are in [0, 1] with A < B. ``p_coeff`` in (0, inf) and
    ``c_exp`` in [0, 1) describe the learner's regret guarantee
    p(n)·T^c with p(n) = p_coeff·n; they are inputs because the guarantee
    is a property of the learner that the caller must know.
    ``T_override`` is None or an integer >= 0. Each real field is checked
    by traces.checked_real and stored as a float.
    """

    A: float
    B: float
    p_coeff: float = 1.0
    c_exp: float = 0.5
    T_override: int | None = None

    def __post_init__(self):
        A, B = checked_real(self.A, "A", 0.0, 1.0), checked_real(self.B, "B", 0.0, 1.0)
        if not A < B:
            raise ValueError(f"need A < B, got A={A!r}, B={B!r}")
        c_exp = checked_real(self.c_exp, "regret exponent c_exp", 0.0, 1.0, open_high=True)
        p_coeff = checked_real(self.p_coeff, "regret coefficient p_coeff", 0.0, open_low=True)
        if self.T_override is not None and checked_int(self.T_override, "T_override") < 0:
            raise ValueError(f"T_override must be nonnegative, got {self.T_override!r}")
        for name, value in (("A", A), ("B", B), ("c_exp", c_exp), ("p_coeff", p_coeff)):
            object.__setattr__(self, name, value)


def gap_horizon(cfg: GapConfig, eps: float, n: int) -> int:
    """Number of rounds after which sublinear regret separates the gap.

    Evaluates ((A·eps) / (2·p(n)·B))^(1/(c−1)) with p(n) = p_coeff·n and
    rounds up.  Since c < 1 the exponent is negative, so a smaller base
    (tighter gap, larger instance) means more rounds.  A horizon that no
    float holds (A·eps = 0, or a power that overflows) is refused with a
    ValueError that suggests T_override. eps is in (0, inf) and n >= 1 an
    integer.
    """
    eps = checked_real(eps, "eps", 0.0, open_low=True)
    if checked_int(n, "n") < 1:
        raise ValueError("need n >= 1")
    base = (cfg.A * eps) / (2.0 * cfg.p_coeff * n * cfg.B)
    if base == 0.0:
        raise ValueError("A·eps = 0 gives an unbounded horizon; set T_override")
    try:
        return ceil(base ** (1.0 / (cfg.c_exp - 1.0)))
    except OverflowError:
        raise ValueError(f"the horizon {base!r}^(1/(c-1)) overflows a float; set T_override") from None


class OnlineVcLearner(Protocol):
    """Protocol for learners usable by :func:`gap_solver`.

    ``play`` must return a vertex cover of the learner's graph as an int
    bitmask: bit v set means vertex v is in the cover. ``observe``
    receives a revealed weight row and the incurred cost.
    ``observe_vertex(u, cost)`` receives a one-hot round by its vertex:
    weight 1 on u and 0 elsewhere, as ``observe`` of that row would. The
    gap decider reveals every round this way; a learner without
    ``observe_vertex`` is wrapped once, at entry, in an adapter that builds
    the one-hot row for its ``observe``.
    """

    def play(self) -> int: ...

    def observe(self, w_row: np.ndarray, cost: float) -> None: ...

    def observe_vertex(self, u: int, cost: float) -> None: ...


class _OneHotRows:
    """A learner with only ``observe``, revealed one-hot rounds by vertex:
    ``observe_vertex(u, cost)`` passes it a new row with 1.0 at u."""

    def __init__(self, learner, n: int):
        self.play = learner.play
        self._observe = learner.observe
        self._n = n

    def observe_vertex(self, u: int, cost: float) -> None:
        w_row = np.zeros(self._n)
        w_row[u] = 1.0
        self._observe(w_row, cost)


def _neighbour_masks(adj: list[list[int]]) -> list[int]:
    """Each vertex's neighbour list as an int bitmask."""
    return [sum(1 << u for u in a) for a in adj]


class FtlMinMaxVcLearner:
    """Follow the leader: best min-max cover of the summed weights so far.

    The threshold-optimal eligible set (the one
    :func:`~regretlab.minmax.static_minmax_vc` returns for ``cum``) is
    pruned to an inclusion-minimal cover, dropping heavy low-degree
    vertices first, so a cheap small cover (a star center, say) is
    actually played as a small set. The learner's state is plain Python:
    the running sums ``cum`` are a list of n floats, and the prune works on
    int bitmasks of the vertices and plays the pruned mask.

    The threshold (:func:`~regretlab.minmax.vc_threshold` of ``cum``) is
    kept between rounds. ``observe_vertex(u, cost)`` adds 1.0 to cum[u],
    which can raise only the edge minima at u, so it raises the kept
    threshold from u's edges alone; the result is the same max over the
    same floats. ``observe`` and an assignment to ``cum`` (which stores a
    copy of the sequence) drop it, to be computed again on the next
    ``play``; an item written into the list in place is not seen by it.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.cum = [0.0] * g.n
        adj = self._adj = neighbour_lists(g)
        self._nbr = _neighbour_masks(adj)
        # ties on cum drop the lower degree first, then the higher index
        self._order = sorted(range(g.n), key=lambda v: (len(adj[v]), -v))

    @property
    def cum(self) -> list:
        return self._cum

    @cum.setter
    def cum(self, cum) -> None:
        self._cum = list(cum)
        self._thr = None

    def play(self) -> int:
        if not self.g.m:
            return 0
        cum = self._cum
        thr = self._thr
        if thr is None:
            thr = self._thr = vc_threshold(cum, self.g.edges)
        # a stable sort on cum alone keeps (degree, -v) order among ties
        order = sorted([v for v in self._order if cum[v] <= thr], key=cum.__getitem__, reverse=True)
        kept = sum([1 << v for v in order])
        nbr = self._nbr
        # kept is a cover throughout, so dropping v keeps it one exactly
        # when every neighbour of v is kept
        for v in order:
            if nbr[v] & kept == nbr[v]:
                kept &= ~(1 << v)
        return kept

    def observe(self, w_row: np.ndarray, cost: float) -> None:
        """Add a revealed weight row of n finite reals to the running sums;
        any other row is refused by
        :func:`~regretlab.instances.checked_array`."""
        self._cum = list(map(add, self._cum, checked_array(w_row, "weight row", (self.g.n,)).tolist()))
        self._thr = None

    def observe_vertex(self, u: int, cost: float) -> None:
        """Add the one-hot row e_u to the running sums, vertex u checked by
        :func:`~regretlab.traces.checked_index`."""
        cum = self._cum
        if type(u) is not int or not 0 <= u < len(cum):
            u = checked_index(u, len(cum), "a revealed vertex")
        cu = cum[u] = cum[u] + 1.0
        thr = self._thr
        if thr is not None:
            for v in self._adj[u]:
                low = cum[v] if cum[v] < cu else cu
                if low > thr:
                    thr = low
            self._thr = thr


@dataclass(frozen=True)
class GapResult:
    """Outcome of a gap-solver run, retaining the oblivious adversary.

    ``targets`` holds every pre-drawn weighted vertex for the full horizon,
    including rounds never played because the run answered Yes early.
    """

    decision: str
    yes_round: int | None
    T: int
    targets: tuple[int, ...]
    trace: RegretTrace = field(repr=False)

    def weight_rows(self) -> np.ndarray:
        """The full pre-drawn adversary as one-hot rows, shape (T, n)."""
        n = self.trace.meta["n"]
        rows = np.zeros((self.T, n))
        if self.T:
            rows[np.arange(self.T), list(self.targets)] = 1.0
        return rows


def _check_cover(mask: int, nbr: list[int], t: int) -> None:
    """Refuse a round-t mask that is not a vertex cover of the graph whose
    neighbour masks are ``nbr``, with a ValueError naming the round: a
    negative mask, a bit at index n or above, or a vertex left out with a
    neighbour left out."""
    n = len(nbr)
    if mask < 0 or mask >> n:
        raise ValueError(f"round {t}: learner played mask {mask}, not a set of the {n} vertices")
    out = ~mask & ((1 << n) - 1)
    rest = out
    while rest:
        low = rest & -rest
        if nbr[low.bit_length() - 1] & out:
            raise ValueError(f"learner emitted a non-cover at round {t}")
        rest ^= low


def gap_solver(
    g: Graph,
    cfg: GapConfig,
    learner: OnlineVcLearner,
    rng: SeededRng,
    eps: float = 1.0,
) -> GapResult:
    """Decide the [A,B]-gap on g by playing one-hot weights against a learner.

    Each round one uniformly random vertex gets weight 1. All T target
    vertices are drawn before round 1 by SeededRng.randrange_array, in
    blocks of at most _TARGET_BLOCK: the vertices of T randrange(n) calls,
    leaving the stream where those calls would. A played cover smaller
    than B·n settles the answer as Yes on the spot (no cost is charged
    for that round); a learner whose regret really is p(n)·T^c
    must produce such a cover within the horizon whenever a cover smaller
    than A·n exists, up to the promised constant error probability.
    ``learner.play()`` must return an int bitmask of a vertex cover; a
    play that is not one (a bool, a non-integer, a negative int, a bit at
    index n or above, or a non-cover) raises a ValueError naming the
    round. Each distinct mask is checked once, by bit tests.

    Each round is revealed by its vertex, ``learner.observe_vertex(u,
    cost)``, so no weight row is built. A learner without
    ``observe_vertex`` is wrapped once, here, in an adapter that passes
    its ``observe`` the one-hot row instead; the rounds are the same.
    """
    eps = checked_real(eps, "eps", 0.0, open_low=True)
    if cfg.T_override is None:
        T = gap_horizon(cfg, eps, g.n)
    else:
        try:
            T = min(gap_horizon(cfg, eps, g.n), cfg.T_override)
        except ValueError:  # eps is checked: the horizon is unbounded or overflows
            T = cfg.T_override
    if T > MAX_GAP_ROUNDS:
        raise ValueError(f"horizon {T} exceeds {MAX_GAP_ROUNDS}; set T_override")

    # the whole adversary is fixed up front: oblivious by construction
    targets = tuple(chain.from_iterable(rng.randrange_array(g.n, min(_TARGET_BLOCK, T - lo))
                                        for lo in range(0, T, _TARGET_BLOCK)))
    threshold = cfg.B * g.n

    decision = "No"
    yes_round = None
    masks = []
    costs = []
    nbr = _neighbour_masks(neighbour_lists(g))
    covers: set[int] = set()
    if not hasattr(learner, "observe_vertex"):
        learner = _OneHotRows(learner, g.n)
    play, reveal = learner.play, learner.observe_vertex
    for t in range(1, T + 1):
        played = play()
        if type(played) is not int:  # before the lookup: True == 1 is in covers
            played = checked_int(played, f"round {t}: a learner's play")
        if played not in covers:
            _check_cover(played, nbr, t)
            covers.add(played)
        masks.append(played)
        if played.bit_count() < threshold:
            decision, yes_round = "Yes", t
            costs.append(0.0)
            break
        u = targets[t - 1]
        cost = 1.0 if played >> u & 1 else 0.0
        costs.append(cost)
        reveal(u, cost)

    trace = RegretTrace(
        algorithm="gap_solver",
        masks=masks,
        values=costs,
        meta={
            "n": g.n,
            "m": g.m,
            "T": T,
            "A": cfg.A,
            "B": cfg.B,
            "eps": eps,
            "seed": rng.seed,
            "decision": decision,
        },
    )
    return GapResult(decision=decision, yes_round=yes_round, T=T, targets=targets, trace=trace)


# ---------------------------------------------------------------------------
# Max-3-DNF -> multi-instance matching
# ---------------------------------------------------------------------------

# per-variable edge slots inside each 4-cycle, in graph edge order
_E_U_T = 0  # (u_i, u_i^t)
_E_T_BAR = 1  # (u_i^t, ubar_i)
_E_BAR_F = 2  # (ubar_i, u_i^f)
_E_U_F = 3  # (u_i, u_i^f)


@dataclass(frozen=True)
class MatchingGadget:
    """A 3-DNF formula embedded as perfect matchings on disjoint 4-cycles.

    Variable i owns vertices 4i..4i+3 in the roles (u_i, u_i^t, ubar_i,
    u_i^f); its 4-cycle has exactly two perfect matchings, one per truth
    value, so the gadget's 2^n matchings are in bijection with the
    assignments.  Weight row j charges 1 exactly on edges whose truth
    value falsifies a literal of clause j, hence a matching pays 0 in
    round j iff the clause is satisfied. The weight rows, one finite real
    per edge, are checked once here (instances.checked_array), so
    ``cost_of`` scores every assignment on the checked block.
    """

    graph: Graph
    vertex_roles: dict[int, tuple[int, str]]
    weight_rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = checked_array(self.weight_rows, "gadget weight rows", ("m", self.graph.m))
        object.__setattr__(self, "weight_rows", rows)

    @property
    def n_vars(self) -> int:
        return self.graph.n // 4

    def matching_for(self, assignment: Sequence[bool]) -> frozenset:
        """The perfect matching M_sigma, as a frozenset of edges."""
        if len(assignment) != self.n_vars:
            raise ValueError("assignment length must equal variable count")
        edges = []
        for i, val in enumerate(assignment):
            b = 4 * i
            if val:
                edges += [(b, b + 1), (b + 2, b + 3)]
            else:
                edges += [(b, b + 3), (b + 1, b + 2)]
        return frozenset(edges)

    def cost_of(self, assignment: Sequence[bool]) -> float:
        """Multi-instance min-max cost of M_sigma (sum of per-row maxima)."""
        if len(assignment) != self.n_vars:
            raise ValueError("assignment length must equal variable count")
        cols = []
        for i, val in enumerate(assignment):
            b = 4 * i
            cols += [b + _E_U_T, b + _E_BAR_F] if val else [b + _E_U_F, b + _E_T_BAR]
        return _summed_max(cols, self.weight_rows)


def dnf_to_matching(f: Dnf3Formula) -> MatchingGadget:
    """Build the 4-cycle matching gadget for a 3-DNF formula.

    The positive-literal rule (weight 1 on u_i u_i^f when x_i appears in
    the clause) mirrors the negative-literal rule on u_i u_i^t; both are
    needed for satisfied(sigma) = m − cost(M_sigma) to hold.  Edges
    touching ubar_i stay at weight 0.
    """
    n = f.n
    edges = []
    roles: dict[int, tuple[int, str]] = {}
    for i in range(n):
        b = 4 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b, b + 3)]
        roles[b] = (i, "u")
        roles[b + 1] = (i, "t")
        roles[b + 2] = (i, "bar")
        roles[b + 3] = (i, "f")
    g = Graph(4 * n, tuple(edges))

    rows = np.zeros((f.m, 4 * n))
    for j, clause in enumerate(f.clauses):
        for v, positive in clause:
            if positive:
                rows[j, 4 * v + _E_U_F] = 1.0
            else:
                rows[j, 4 * v + _E_U_T] = 1.0
    return MatchingGadget(graph=g, vertex_roles=roles, weight_rows=rows)


# ---------------------------------------------------------------------------
# Max-3-DNF -> multi-instance shortest path
# ---------------------------------------------------------------------------


def assignment_to_path(assignment: Sequence[bool]) -> tuple[str, ...]:
    """The arc labels of P_sigma: 't' where sigma_i is true, else 'f'."""
    return tuple("t" if val else "f" for val in assignment)


def dnf_to_path(f: Dnf3Formula) -> tuple[PathChain, np.ndarray]:
    """Build the parallel-arc chain gadget for a 3-DNF formula.

    Stage i carries arcs e^t_i and e^f_i; row j charges 1 on the arc a
    literal of clause j forbids, so path P_sigma pays 0 in round j iff
    the clause is satisfied.  Returns the chain and the (m, 2n) rows.
    """
    chain = PathChain(f.n)
    rows = np.zeros((f.m, chain.n_arcs))
    for j, clause in enumerate(f.clauses):
        for v, positive in clause:
            if positive:
                rows[j, chain.arc_index(v, "f")] = 1.0
            else:
                rows[j, chain.arc_index(v, "t")] = 1.0
    rows.flags.writeable = False
    return chain, rows


def path_cost_of(chain: PathChain, rows: np.ndarray, assignment: Sequence[bool]) -> float:
    """Multi-instance cost of the path P_sigma under the gadget rows."""
    return multi_minmax_cost(chain.path_arc_indices(assignment_to_path(assignment)), rows)


# ---------------------------------------------------------------------------
# vertex cover and 3-coloring embeddings
# ---------------------------------------------------------------------------


def vc_to_multi_vc(g: Graph) -> WeightSequence:
    """One one-hot row per vertex, so any subset's multi-instance cost is
    exactly its cardinality and minimizing cost minimizes cover size."""
    return WeightSequence(g.n, np.eye(g.n))


def threecolor_to_p3(g: Graph) -> ProcTimeMatrix:
    """One row per edge with unit jobs at its endpoints: scheduling all
    rows on 3 machines costs exactly m iff the graph is 3-colorable."""
    rows = np.zeros((g.m, g.n))
    for j, (u, v) in enumerate(g.edges):
        rows[j, u] = 1.0
        rows[j, v] = 1.0
    return ProcTimeMatrix(g.n, rows)


def is_three_colorable(g: Graph, n_colors: int = 3) -> bool:
    """Brute-force proper-coloring check (independent of the scheduling
    view); n_colors is an integer (traces.checked_int)."""
    n_colors = checked_int(n_colors, "n_colors")
    if g.n > 12:
        raise ValueError("coloring check guarded to n <= 12")

    colors = [-1] * g.n
    adj = neighbour_lists(g)

    def extend(v: int) -> bool:
        if v == g.n:
            return True
        for c in range(n_colors):
            if all(colors[w] != c for w in adj[v]):
                colors[v] = c
                if extend(v + 1):
                    return True
                colors[v] = -1
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def formula_id(f: Dnf3Formula) -> str:
    """Stable content hash of a formula, for validator reports."""
    import hashlib  # here, not at the top: it loads OpenSSL, which no other call needs

    return hashlib.sha256(serialize_dnf(f).encode()).hexdigest()[:12]


def validate_correspondence(f: Dnf3Formula) -> dict:
    """Prove satisfied(sigma) = m − gadget cost over all 2^n assignments.

    Checks both the matching and the path gadget, each scoring every
    assignment on its rows as built; mismatches are reported, not raised.
    The report is JSON-ready:
    {formula_id, assignments_checked, violations: [...]}.
    """
    if f.n > 12:
        raise ValueError("exhaustive validation guarded to n <= 12")
    m_gadget = dnf_to_matching(f)
    chain, p_rows = dnf_to_path(f)
    violations = []
    for bits in range(1 << f.n):
        sigma = [bool(bits >> i & 1) for i in range(f.n)]
        sat = f.num_satisfied(sigma)
        m_cost = m_gadget.cost_of(sigma)
        p_cost = _summed_max(list(chain.path_arc_indices(assignment_to_path(sigma))), p_rows)
        if sat != f.m - m_cost or sat != f.m - p_cost:
            violations.append(
                {
                    "assignment": [int(b) for b in sigma],
                    "satisfied": sat,
                    "matching_cost": m_cost,
                    "path_cost": p_cost,
                }
            )
    return {
        "formula_id": formula_id(f),
        "assignments_checked": 1 << f.n,
        "violations": violations,
    }
