"""Projected online (sub)gradient descent for online min-max vertex cover.

Each round the learner publishes the half-rounding of its fractional
iterate, pays the maximum revealed weight inside that cover, then takes a
subgradient step on the fractional relaxation

    Q = { x in [0,1]^n : x_i + x_j >= 1 for every edge (i,j) }

and projects back onto Q in the l2 norm. Rounding at 1/2 at most doubles
the fractional cost, which is where the factor 2 in the regret guarantee
comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from operator import add, sub

import numpy as np

from .instances import Graph, WeightSequence
from .minmax import MAX_HINDSIGHT_N, best_static_vc_hindsight
from .traces import RegretTrace, RoundRecord

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
    """Run parameters: weight scale, step-size mode, projection tolerances.

    ``step_mode`` is either "paper" (step 1/sqrt(t), the verbatim update
    rule) or "scaled" (step sqrt(n)/(W_bound*sqrt(t)), the diameter-over-
    gradient rate under which the 3*W*sqrt(nT) guarantee is proved).
    """

    W_bound: float = 1.0
    step_mode: str = "scaled"
    feas_tol: float = 1e-8
    conv_tol: float = 1e-10
    max_cycles: int = 20_000

    def __post_init__(self):
        if self.W_bound <= 0:
            raise ValueError("W_bound must be positive")
        if self.step_mode not in ("paper", "scaled"):
            raise ValueError("step_mode must be 'paper' or 'scaled'")
        if self.feas_tol <= 0 or self.conv_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")


class ProjectionError(RuntimeError):
    """Dykstra cycling failed to converge; carries the feasibility residual."""

    def __init__(self, message: str, residual: float, cycles: int, round_index: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.cycles = cycles
        self.round_index = round_index


def subgradient(w, x) -> np.ndarray:
    """Subgradient of x -> max_i w_i x_i: w_{i*} on the argmax coordinate.

    Ties break to the smallest index.
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if w.shape != x.shape or w.ndim != 1:
        raise ValueError("w and x must be vectors of equal length")
    g = np.zeros_like(w)
    i_star = int(np.argmax(w * x))  # argmax returns the first maximizer
    g[i_star] = w[i_star]
    return g


def fractional_feasible(x, g: Graph, tol: float = 1e-8) -> bool:
    """Whether x lies in the box and satisfies x_i + x_j >= 1 - tol on edges."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        return False
    if x.min() < -tol or x.max() > 1.0 + tol:
        return False
    return all(x[u] + x[v] >= 1.0 - tol for u, v in g.edges)


def _residual(x: list, edges: list) -> float:
    """Largest violation of a box or edge constraint at x, or 0."""
    resid = max(0.0, -min(x), max(x) - 1.0)
    if edges:
        resid = max(resid, max([1.0 - (x[i] + x[j]) for _, i, j in edges]))
    return resid


def _project(y: list, eu: list, ev: list, cfg: OgdConfig) -> np.ndarray:
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
    for cycle in range(1, cfg.max_cycles + 1):
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
        if delta <= cfg.conv_tol:
            resid = _residual(x, edges)
            if resid > cfg.feas_tol:
                raise ProjectionError(
                    f"projection stalled after {cycle} cycles with feasibility "
                    f"residual {resid:.3e}",
                    residual=resid,
                    cycles=cycle,
                )
            return np.clip(x, 0.0, 1.0)
    resid = _residual(x, edges)
    raise ProjectionError(
        f"projection did not converge in {cfg.max_cycles} cycles "
        f"(feasibility residual {resid:.3e})",
        residual=resid,
        cycles=cfg.max_cycles,
    )


def checked_weight_row(w_row, n: int) -> np.ndarray:
    """w_row as a float64 array, or a ValueError if it is not a finite
    vector of length n. The online vertex-cover learners check every
    revealed row with it before using it."""
    w = np.asarray(w_row, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weight row must have length {n}")
    if not np.isfinite(w).all():
        raise ValueError("weight row must be finite")
    return w


def _edge_lists(g: Graph) -> tuple[list, list]:
    """The edge endpoints of g as two lists of ints, in edge order."""
    return [u for u, _ in g.edges], [v for _, v in g.edges]


def project_vc_polytope(y, g: Graph, cfg: OgdConfig | None = None) -> np.ndarray:
    """l2-nearest point of the fractional cover polytope of g."""
    cfg = cfg or OgdConfig()
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (g.n,):
        raise ValueError(f"point must have length {g.n}")
    if not np.all(np.isfinite(y)):
        raise ValueError("point must be finite")
    return _project(y.tolist(), *_edge_lists(g), cfg)


def round_half(x) -> frozenset:
    """Vertices with x_i >= 1/2; a cover whenever x is edge-feasible."""
    x = np.asarray(x, dtype=np.float64)
    return frozenset(int(i) for i in np.flatnonzero(x >= 0.5))


def theorem2_bound(W: float, n: int, T: int) -> float:
    """Additive regret term 3*W*sqrt(n*T); callers add 2*OPT."""
    if W < 0:
        raise ValueError(f"W must be nonnegative, got {W!r}")
    if n < 1 or T < 0:
        raise ValueError(f"need n >= 1 and T >= 0, got n={n!r}, T={T!r}")
    return 3.0 * W * sqrt(n * T)


class OgdVcLearner:
    """Projected OGD on one graph, one round per ``observe``.

    ``play`` publishes the half-rounding of the iterate ``x``; ``observe``
    takes the subgradient step for the revealed row,
    y = x - (scale/sqrt(t)) * w_{i*} e_{i*} with i* the first argmax of
    w*x, and projects y back onto the cover polytope. ``scale`` is 1 in
    "paper" mode and sqrt(n)/W_bound in "scaled" mode. The edge lists the
    projection runs on are built once here. :func:`ogd_run` drives the
    same learner, so the gap decider and the batch runner step alike.
    """

    def __init__(self, g: Graph, cfg: OgdConfig | None = None):
        self.g = g
        self.cfg = cfg or OgdConfig()
        self.x = np.full(g.n, 0.5)
        self.t = 1
        self._eu, self._ev = _edge_lists(g)
        self._scale = sqrt(g.n) / self.cfg.W_bound if self.cfg.step_mode == "scaled" else 1.0

    def play(self) -> frozenset:
        return round_half(self.x)

    def observe(self, w_row, cost: float) -> None:
        """Step on a revealed weight row; rejects a row that is not a
        finite vector of length n with a ValueError."""
        self._step(checked_weight_row(w_row, self.g.n))

    def _step(self, w: np.ndarray) -> None:
        t = self.t
        i_star = int(np.argmax(w * self.x))  # argmax returns the first maximizer
        y = self.x.tolist()
        y[i_star] -= (self._scale / sqrt(t)) * float(w[i_star])
        try:
            self.x = _project(y, self._eu, self._ev, self.cfg)
        except ProjectionError as exc:
            raise ProjectionError(
                f"round {t}: {exc}", residual=exc.residual, cycles=exc.cycles, round_index=t
            ) from None
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
    learner's play, then steps the learner on the row. The trace charges
    each round the integral cover's cost and also logs the fractional
    iterate's cost and the running additive bound 3*W_bound*sqrt(n*t). A
    ``ProjectionError`` carries the failing round in ``round_index``. The
    benchmark is the exact hindsight optimum when the graph is small
    enough to enumerate.
    """
    cfg = cfg or OgdConfig()
    if seq.n != g.n:
        raise ValueError("weight sequence width must equal vertex count")
    rows = seq.rows
    if rows.size and rows.max() > cfg.W_bound:
        raise ValueError("weights exceed the configured W_bound")
    n = g.n
    learner = OgdVcLearner(g, cfg)
    records = []
    cum_int = 0.0
    cum_frac = 0.0
    for t in range(1, seq.T + 1):
        x = learner.x
        played = learner.play()
        w = rows[t - 1]
        int_cost = float(w[list(played)].max()) if played else 0.0
        frac_cost = float((w * x).max())
        cum_int += int_cost
        cum_frac += frac_cost
        records.append(
            RoundRecord(
                t=t,
                action=played,
                value=int_cost,
                cumulative=cum_int,
                extras={
                    "frac_cost": frac_cost,
                    "cum_frac": cum_frac,
                    "bound_additive": theorem2_bound(cfg.W_bound, n, t),
                },
            )
        )
        learner._step(w)

    benchmark = None
    if compute_benchmark and n <= MAX_HINDSIGHT_N:
        _, benchmark = best_static_vc_hindsight(g, seq)
    return RegretTrace(
        algorithm="ogd_vc",
        rows=tuple(records),
        benchmark=benchmark,
        meta={
            "n": n,
            "m": g.m,
            "T": seq.T,
            "step_mode": cfg.step_mode,
            "W_bound": cfg.W_bound,
        },
    )
