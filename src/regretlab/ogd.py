"""Projected online (sub)gradient descent for online min-max vertex cover.

Each round the learner publishes the half-rounding of its fractional
iterate, pays the maximum revealed weight inside that cover, then takes a
subgradient step on the fractional relaxation

    Q = { x in [0,1]^n : x_i + x_j >= 1 for every edge (i,j) }

and projects back onto Q in the l2 norm. Rounding at 1/2 at most doubles
the fractional cost, which is where the factor 2 in the regret guarantee
comes from.

Each step lowers (or raises) one coordinate i* of a feasible point, so
the learner projects exactly: every other constraint still holds, and the
projection is a 1-D water-fill over the breakpoints 1 - x_j of i*'s
neighbours (see :class:`OgdVcLearner`). Dykstra's method (Boyle and
Dykstra, 1986) over the box and the m edge half-spaces projects an
arbitrary point, in :func:`project_vc_polytope`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from operator import add, mul, sub

import numpy as np

from .instances import Graph, WeightSequence, checked_array
from .minmax import MAX_HINDSIGHT_N, best_static_vc_hindsight
from .traces import RegretTrace, checked_index, checked_int, checked_real, running_sums

__all__ = [
    "OgdConfig",
    "OgdVcLearner",
    "ProjectionError",
    "subgradient",
    "project_vc_polytope",
    "round_half",
    "ogd_run",
    "theorem2_bound",
    "fractional_feasible",
]


@dataclass(frozen=True)
class OgdConfig:
    """Run parameters: weight scale and step-size mode.

    ``W_bound`` is in (0, inf), checked by traces.checked_real and stored
    as a float. ``step_mode`` is either "paper" (step 1/sqrt(t), the
    verbatim update rule) or "scaled" (step sqrt(n)/(W_bound*sqrt(t)), the
    diameter-over-gradient rate under which the 3*W*sqrt(nT) guarantee is
    proved).
    """

    W_bound: float = 1.0
    step_mode: str = "scaled"

    def __post_init__(self):
        object.__setattr__(self, "W_bound", checked_real(self.W_bound, "W_bound", 0.0, open_low=True))
        if self.step_mode not in ("paper", "scaled"):
            raise ValueError(f"step_mode must be 'paper' or 'scaled', got {self.step_mode!r}")


# Dykstra's tolerances: the largest feasibility residual accepted, the
# per-cycle move that counts as converged, and the cycle limit
FEAS_TOL = 1e-8
CONV_TOL = 1e-10
MAX_CYCLES = 20_000


class ProjectionError(RuntimeError):
    """Dykstra cycling failed to converge; carries the feasibility residual."""

    def __init__(self, message: str, residual: float, cycles: int):
        super().__init__(message)
        self.residual = residual
        self.cycles = cycles


def subgradient(w, x) -> np.ndarray:
    """Subgradient of x -> max_i w_i x_i: w_{i*} on the argmax coordinate.

    Ties break to the smallest index. The weight row w and the point x
    are vectors of one length of any finite reals (instances.checked_array).
    """
    w = checked_array(w, "weight row", ("n",))
    x = checked_array(x, "point", w.shape)
    g = np.zeros_like(w)
    i_star = int(np.argmax(w * x))  # argmax returns the first maximizer
    g[i_star] = w[i_star]
    return g


def fractional_feasible(x, g: Graph, tol: float = 1e-8) -> bool:
    """Whether x lies in the box and satisfies x_i + x_j >= 1 - tol on edges;
    tol is in [0, inf) and x is a point of n finite reals
    (instances.checked_array)."""
    tol = checked_real(tol, "tol", 0.0)
    x = checked_array(x, "point", (g.n,))
    if x.min() < -tol or x.max() > 1.0 + tol:
        return False
    return all(x[u] + x[v] >= 1.0 - tol for u, v in g.edges)


def _residual(x: list, edges: list) -> float:
    """Largest violation of a box or edge constraint at x, or 0."""
    resid = max(0.0, -min(x), max(x) - 1.0)
    if edges:
        resid = max(resid, max([1.0 - (x[i] + x[j]) for _, i, j in edges]))
    return resid


def _project(
    y: list,
    eu: list,
    ev: list,
    feas_tol: float = FEAS_TOL,
    conv_tol: float = CONV_TOL,
    max_cycles: int = MAX_CYCLES,
) -> np.ndarray:
    """Dykstra's method over the box and the edge half-spaces.

    ``y`` is the point as a list of floats and ``eu``/``ev`` the edge
    endpoints as lists of ints. The loop runs on Python floats, which are
    IEEE doubles, so each step rounds exactly as float64 array arithmetic
    would; indexing lists is what makes the per-edge loop fast. Each
    constraint set keeps its own correction (a full vector for the box, one
    scalar per edge since an edge's correction is equal on its two
    endpoints and zero elsewhere). A cycle is the box step, then the active
    edges in index order. Activity is fixed once per cycle, at the post-box
    iterate: an edge is active if its correction is nonzero or its
    constraint is violated there. The other edges are skipped for the whole
    cycle even if an earlier edge step of that cycle lowers a shared
    endpoint and violates them (this does occur); such an edge is taken up
    in a later cycle. So the loop alone does not certify its result.
    Converged means no coordinate moved more than ``conv_tol`` in a cycle;
    the feasibility residual over every box and edge constraint is then
    checked, and a ``ProjectionError`` is raised if it exceeds ``feas_tol``;
    otherwise the result is clipped to the box and returned as an array.
    Optimality is checked outside: the acceptance suite's criterion 3 tests
    feasibility, nearness against feasible contenders and idempotence.
    """
    x = list(y)
    p_box = [0.0] * len(x)
    mu = [0.0] * len(eu)
    edges = list(zip(range(len(eu)), eu, ev))
    for cycle in range(1, max_cycles + 1):
        # box set
        v = list(map(add, x, p_box))
        nx = [0.0 if a < 0.0 else 1.0 if a > 1.0 else a for a in v]
        p_box = list(map(sub, v, nx))
        delta = max(map(abs, map(sub, nx, x)))
        x = nx
        active = [(e, i, j) for e, i, j in edges if mu[e] != 0.0 or x[i] + x[j] < 1.0]
        for e, i, j in active:
            xi = x[i]
            xj = x[j]
            vi = xi - mu[e]
            vj = xj - mu[e]
            s = vi + vj
            if s >= 1.0:
                mu[e] = 0.0
            else:
                half_gap = (1.0 - s) / 2.0
                vi += half_gap
                vj += half_gap
                mu[e] = half_gap
            d = abs(vi - xi)
            dj = abs(vj - xj)
            if dj > d:
                d = dj
            if d > delta:
                delta = d
            x[i] = vi
            x[j] = vj
        if delta <= conv_tol:
            resid = _residual(x, edges)
            if resid > feas_tol:
                raise ProjectionError(
                    f"projection stalled after {cycle} cycles with feasibility "
                    f"residual {resid:.3e}",
                    residual=resid,
                    cycles=cycle,
                )
            return np.clip(x, 0.0, 1.0)
    resid = _residual(x, edges)
    raise ProjectionError(
        f"projection did not converge in {max_cycles} cycles "
        f"(feasibility residual {resid:.3e})",
        residual=resid,
        cycles=max_cycles,
    )


def neighbour_lists(g: Graph) -> list[list[int]]:
    """For each vertex of g, its neighbours in edge order."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def project_vc_polytope(y, g: Graph) -> np.ndarray:
    """l2-nearest point of the fractional cover polytope of g, by
    Dykstra's method; y is a point of n finite reals
    (instances.checked_array)."""
    y = checked_array(y, "point", (g.n,))
    return _project(y.tolist(), [u for u, _ in g.edges], [v for _, v in g.edges])


def round_half(x) -> int:
    """The vertices with x_i >= 1/2, as an int bitmask (bit i for vertex
    i); a cover whenever x is edge-feasible. ``x`` is any sequence of
    floats (a list, a tuple or a vector)."""
    mask = 0
    for i, xi in enumerate(x):
        if xi >= 0.5:
            mask |= 1 << i
    return mask


def theorem2_bound(W: float, n: int, T: int) -> float:
    """Additive regret term 3*W*sqrt(n*T); callers add 2*OPT. W is in
    [0, inf) and n >= 1 and T >= 0 are integers."""
    W = checked_real(W, "W", 0.0)
    if checked_int(n, "n") < 1 or checked_int(T, "T") < 0:
        raise ValueError(f"need n >= 1 and T >= 0, got n={n!r}, T={T!r}")
    return _theorem2(W, n, T)


def _theorem2(W: float, n: int, T: int) -> float:
    """theorem2_bound's formula on checked parameters."""
    return 3.0 * W * sqrt(n * T)


def _theorem2_column(W: float, n: int, T: int) -> list[float]:
    """[_theorem2(W, n, t) for t in 1..T] bit for bit, as one numpy
    expression in the scalar formula's operation order (and, as Python
    floats do, silent when the product overflows to inf)."""
    with np.errstate(over="ignore"):
        return (3.0 * W * np.sqrt(n * np.arange(1, T + 1))).tolist()


class OgdVcLearner:
    """Projected OGD on one graph, one round per ``observe``.

    The learner's state is plain Python: the iterate ``x`` is a list of n
    floats, which each step updates in place. ``play`` publishes the
    half-rounding of ``x`` as an int bitmask (:func:`round_half`);
    ``observe`` takes the subgradient step for the
    revealed row,
    y = x - (scale/sqrt(t)) * w_{i*} e_{i*} with i* the first argmax of
    w*x, and projects y back onto the cover polytope. ``scale`` is 1 in
    "paper" mode and sqrt(n)/W_bound in "scaled" mode.
    ``observe_vertex(u, cost)`` takes the same step for the one-hot row
    e_u without building it: it picks i* and w_{i*} by the same first
    argmax rule, so it matches ``observe`` on e_u bit for bit.

    The projection is exact. Only coordinate i* moved off the feasible
    point x, so every edge away from i* still holds, and for x_{i*} = z the
    nearest choice of each neighbour j is max(x_j, 1 - z). What is left is
    the 1-D convex problem

        min over z in [0,1] of (z - y_{i*})^2 + sum_j max(0, b_j - z)^2,

    with breakpoints b_j = 1 - x_j. Its stationary point is
    z = (y_{i*} + b_1 + ... + b_k) / (k + 1) over the k largest
    breakpoints, for the first k at which the next breakpoint is not above
    z; clipping that z to [0, 1] gives the minimizer. Every other
    coordinate keeps its value. The neighbour lists are built once here.

    The played mask is kept with ``x``: a step changes only x_{i*} and
    the neighbours it raises, so it updates only their bits, and ``play``
    returns the mask as it stands. Assigning ``x`` stores a copy of the
    sequence and recomputes the mask; an item written into the list in
    place is not seen by ``play``. :func:`ogd_run` drives the same
    learner, so the gap decider and the batch runner step alike.
    """

    def __init__(self, g: Graph, cfg: OgdConfig | None = None):
        self.g = g
        self.cfg = cfg or OgdConfig()
        self.x = [0.5] * g.n
        self.t = 1
        self._adj = neighbour_lists(g)
        self._scale = sqrt(g.n) / self.cfg.W_bound if self.cfg.step_mode == "scaled" else 1.0

    @property
    def x(self) -> list:
        return self._x

    @x.setter
    def x(self, x) -> None:
        self._x = list(x)
        self._mask = round_half(self._x)

    def play(self) -> int:
        return self._mask

    def observe(self, w_row, cost: float) -> None:
        """Step on a revealed weight row of n finite reals; any other row
        is refused by :func:`~regretlab.instances.checked_array`."""
        self._step(checked_array(w_row, "weight row", (self.g.n,)).tolist())

    def observe_vertex(self, u: int, cost: float) -> None:
        """Step on the one-hot row e_u, vertex u checked by
        :func:`~regretlab.traces.checked_index`."""
        x = self._x
        n = len(x)
        if type(u) is not int or not 0 <= u < n:
            u = checked_index(u, n, "a revealed vertex")
        # the products w*x are x_u at u and a zero of either sign elsewhere
        # (x is finite), so the first maximizer is u when x_u > 0, else
        # index 0; but index 1 when u = 0 has x_0 < 0 and n > 1
        if x[u] > 0.0:
            i_star = u
        elif u == 0 and x[0] < 0.0 and n > 1:
            i_star = 1
        else:
            i_star = 0
        self._step_at(i_star, 1.0 if i_star == u else 0.0)

    def _step(self, w: list) -> None:
        """Step on the row ``w``, a list of n finite floats."""
        prods = list(map(mul, w, self._x))
        i_star = prods.index(max(prods))  # the first maximizer, as np.argmax
        self._step_at(i_star, w[i_star])

    def _step_at(self, i_star: int, w_i: float) -> None:
        """Step on coordinate i_star, whose row weight is w_i: the
        water-fill, and the played mask's bits of the moved coordinates."""
        t = self.t
        x = self._x
        y = x[i_star] - (self._scale / sqrt(t)) * w_i
        nbrs = self._adj[i_star]
        z = y
        k = 0
        total = 0.0  # the k largest breakpoints, summed largest first
        for b in sorted([1.0 - x[j] for j in nbrs], reverse=True):
            if b <= z:
                break
            total += b
            k += 1
            z = (y + total) / (k + 1)
        z = 0.0 if z < 0.0 else 1.0 if z > 1.0 else z
        x[i_star] = z
        mask = self._mask | 1 << i_star if z >= 0.5 else self._mask & ~(1 << i_star)
        low = 1.0 - z
        for j in nbrs:
            if x[j] < low:
                x[j] = low
                if low >= 0.5:
                    mask |= 1 << j
        self._mask = mask
        self.t = t + 1


def ogd_run(
    g: Graph,
    seq: WeightSequence,
    cfg: OgdConfig | None = None,
    compute_benchmark: bool = True,
) -> RegretTrace:
    """Run projected OGD over the weight rows; the cover for round t is
    committed before row t is revealed.

    A thin driver over :class:`OgdVcLearner`: each round it records the
    learner's play and its iterate, then steps the learner on the row.
    The costs are scored after the loop, in one pass over the recorded
    (T, n) block of iterates: the fractional costs as the row maxima of
    w*x, and the integral costs as the row maxima of w over the played
    covers. The learner plays the half-rounding of its iterate, so a
    round's cover is its iterate's entries >= 1/2, and its cost is the
    row max with the other entries left out (0.0 for the empty cover). A
    nonzero max is the same float whichever entries a reduction compares,
    but the sign of a zero max is not: such a row is scored again by the
    1-D max over its gathered members, as the per-round rule does. So
    the costs are the per-round values bit for bit. The trace charges
    each round the integral cover's cost and also logs the fractional
    iterate's cost and the running additive bound
    3*W_bound*sqrt(n*t). The benchmark is the exact hindsight optimum
    when the graph is small enough to enumerate.
    """
    cfg = cfg or OgdConfig()
    if seq.n != g.n:
        raise ValueError("weight sequence width must equal vertex count")
    rows = seq.rows
    if rows.size and rows.max() > cfg.W_bound:
        raise ValueError("weights exceed the configured W_bound")
    n = g.n
    learner = OgdVcLearner(g, cfg)
    x = learner.x  # stepped in place
    iterates = np.empty((seq.T, n))
    masks = []
    for t, w in enumerate(rows.tolist()):
        masks.append(learner.play())
        iterates[t] = x
        learner._step(w)

    # numpy reductions, not max(): the two differ on the sign of a zero
    frac_costs = (rows * iterates).max(axis=1).tolist() if seq.T else []
    member = iterates >= 0.5  # each round's played cover, round_half of its iterate
    int_costs = rows.max(axis=1, where=member, initial=-np.inf)
    for t in np.flatnonzero(int_costs == 0.0):  # a zero takes its sign from the 1-D gather
        int_costs[t] = rows[t, member[t]].max()
    int_costs[int_costs == -np.inf] = 0.0  # the empty cover
    int_costs = int_costs.tolist()

    benchmark = None
    if compute_benchmark and n <= MAX_HINDSIGHT_N:
        _, benchmark = best_static_vc_hindsight(g, seq)
    return RegretTrace(
        algorithm="ogd_vc",
        masks=masks,
        values=int_costs,
        extras={
            "frac_cost": frac_costs,
            "cum_frac": running_sums(frac_costs),
            "bound_additive": _theorem2_column(cfg.W_bound, n, seq.T),
        },
        benchmark=benchmark,
        meta={
            "n": n,
            "m": g.m,
            "T": seq.T,
            "step_mode": cfg.step_mode,
            "W_bound": cfg.W_bound,
        },
    )
