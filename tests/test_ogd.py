"""Projected OGD: subgradients, the projections, rounding, bounds.

Dykstra's projection is checked against a dense grid search (single edge),
against independently constructed feasible points, and against QP solvers
(scipy; cvxpy when installed). The list-based Dykstra loop is also held
bit for bit to the numpy version it replaced, kept here as the reference.
Each exact OGD step is held bit for bit to a numpy water-fill, certified
optimal by its closed-form KKT multipliers, and compared with Dykstra's
projection of the same point.
"""

from math import sqrt

import numpy as np
import pytest

from regretlab.instances import Graph, WeightSequence, gen_random_graph, gen_uniform_weights
from regretlab.minmax import best_static_vc_hindsight, is_vertex_cover
from regretlab.ogd import (
    CONV_TOL,
    FEAS_TOL,
    MAX_CYCLES,
    OgdConfig,
    OgdVcLearner,
    ProjectionError,
    _project,
    fractional_feasible,
    ogd_run,
    project_vc_polytope,
    round_half,
    subgradient,
    theorem2_bound,
)
from regretlab.rng import SeededRng


def random_feasible_point(g, rng):
    """Feasible point built without the projection code: lift endpoints
    of violated edges until every constraint holds."""
    z = np.array([rng.random() for _ in range(g.n)])
    for u, v in g.edges:
        if z[u] + z[v] < 1.0:
            need = 1.0 - z[u] - z[v]
            z[u] = min(1.0, z[u] + need / 2)
            z[v] = min(1.0, z[v] + need)  # overshoot is fine; clipped by min
    for u, v in g.edges:
        if z[u] + z[v] < 1.0:
            z[u] = 1.0
    return z


def reference_project(y, n, eu, ev, feas_tol=FEAS_TOL, conv_tol=CONV_TOL, max_cycles=MAX_CYCLES):
    """The numpy Dykstra loop the list-based ``_project`` replaced.

    Indexing numpy arrays per edge made it slow; its float operations are
    the reference every projection must reproduce bit for bit.
    """
    x = np.asarray(y, dtype=np.float64).copy()
    p_box = np.zeros(n)
    m = eu.shape[0]
    mu = np.zeros(m)
    for cycle in range(1, max_cycles + 1):
        v = x + p_box
        nx = np.clip(v, 0.0, 1.0)
        p_box = v - nx
        delta = float(np.abs(nx - x).max()) if n else 0.0
        x = nx
        if m:
            sums = x[eu] + x[ev]
            active = np.flatnonzero((mu != 0.0) | (sums < 1.0))
            for e in active:
                i, j = int(eu[e]), int(ev[e])
                vi = x[i] - mu[e]
                vj = x[j] - mu[e]
                s = vi + vj
                if s >= 1.0:
                    mu[e] = 0.0
                else:
                    half_gap = (1.0 - s) / 2.0
                    vi += half_gap
                    vj += half_gap
                    mu[e] = half_gap
                d = max(abs(vi - x[i]), abs(vj - x[j]))
                if d > delta:
                    delta = d
                x[i] = vi
                x[j] = vj
        if delta <= conv_tol:
            resid = 0.0
            if m:
                resid = max(0.0, float((1.0 - (x[eu] + x[ev])).max()))
            box_resid = max(0.0, float(-x.min()), float(x.max() - 1.0))
            resid = max(resid, box_resid)
            if resid > feas_tol:
                raise ProjectionError(
                    f"projection stalled after {cycle} cycles with feasibility "
                    f"residual {resid:.3e}",
                    residual=resid,
                    cycles=cycle,
                )
            return np.clip(x, 0.0, 1.0)
    resid = 0.0
    if m:
        resid = max(0.0, float((1.0 - (x[eu] + x[ev])).max()))
    resid = max(resid, 0.0, float(-x.min()), float(x.max() - 1.0))
    raise ProjectionError(
        f"projection did not converge in {max_cycles} cycles "
        f"(feasibility residual {resid:.3e})",
        residual=resid,
        cycles=max_cycles,
    )


def neighbours(g, k):
    """The neighbours of vertex k, read off the edge list."""
    return np.array([v if u == k else u for u, v in g.edges if k in (u, v)], dtype=np.int64)


def step_scale(g, cfg):
    return sqrt(g.n) / cfg.W_bound if cfg.step_mode == "scaled" else 1.0


def step_point(x, w, t, scale):
    """(i*, y) of the OGD step from x on row w: y is x less the step along
    the full subgradient vector, so only coordinate i* moves."""
    return int(np.argmax(w * x)), x - (scale / sqrt(t)) * subgradient(w, x)


def reference_water_fill(x, i, y_i, nbrs):
    """The exact OGD step in numpy: x with coordinate i moved to y_i,
    projected onto the cover polytope. Every candidate
    z_k = (y_i + b_1 + ... + b_k) / (k + 1) over the breakpoints
    b = 1 - x[nbrs] in descending order comes from one cumsum; the first k
    whose next breakpoint is not above z_k wins, clipped to [0, 1]."""
    b = np.sort(1.0 - x[nbrs])[::-1]
    z = (y_i + np.concatenate(([0.0], np.cumsum(b)))) / np.arange(1, b.size + 2)
    k = int(np.argmax(np.append(z[:-1] >= b, True)))
    out = x.copy()
    out[i] = np.clip(z[k], 0.0, 1.0)
    out[nbrs] = np.maximum(x[nbrs], 1.0 - out[i])
    return out


def certify_step(g, x, i, y_i, out, tol=1e-12):
    """KKT certificate that ``out`` is the l2 projection of x with
    coordinate i moved to y_i (x feasible), with the closed-form
    multipliers lam_j = max(0, 1 - z - x_j) on the edges (i, j) and zero on
    every other edge. The objective is half the squared distance."""
    z = float(out[i])
    lam = {int(j): max(0.0, 1.0 - z - x[j]) for j in neighbours(g, i)}
    # primal feasibility, exactly in floats
    assert 0.0 <= out.min() and out.max() <= 1.0
    assert all(out[u] + out[v] >= 1.0 for u, v in g.edges)
    # stationarity at i: (z - y_i) - sum(lam) = 0, or of the box's sign
    # where z sits on a bound of [0, 1]
    r = (z - y_i) - sum(lam.values())
    if z == 0.0:
        assert r >= -tol, (r, "z = 0 needs -y_i - sum(b_j) >= 0")
    elif z == 1.0:
        assert r <= tol, (r, "z = 1 needs y_i >= 1")
    else:
        assert abs(r) <= tol, r
    for j, lam_j in lam.items():
        # stationarity at each neighbour (its other edges carry no
        # multiplier), and complementary slackness on the edge (i, j)
        assert abs((out[j] - x[j]) - lam_j) <= tol, (j, lam_j)
        if lam_j > 0.0:
            assert abs(out[j] + z - 1.0) <= tol, (j, lam_j)
    untouched = [k for k in range(g.n) if k != i and k not in lam]
    assert out[untouched].tobytes() == x[untouched].tobytes()


def reference_step(g, x, i, y):
    """The numpy water-fill of y (x with coordinate i moved), once it has
    passed :func:`certify_step` and lies within 1e-9 of Dykstra's
    projection of y. A learner step that matches its bits passes both."""
    out = reference_water_fill(x, i, y[i], neighbours(g, i))
    certify_step(g, x, i, y[i], out)
    assert np.abs(out - project_vc_polytope(y, g)).max() <= 1e-9
    return out


def reference_ogd_iterates(g, rows, cfg):
    """Iterates x_1..x_{T+1} of the OGD update, each step the
    :func:`reference_step` of the full-subgradient point."""
    scale = step_scale(g, cfg)
    x = np.full(g.n, 0.5)
    out = [x]
    for t, w in enumerate(rows, start=1):
        x = reference_step(g, x, *step_point(x, w, t, scale))
        out.append(x)
    return out


def project_both(y, g, **tols):
    """(new, reference) projections of y, or the two ProjectionErrors."""
    eu = [u for u, _ in g.edges]
    ev = [v for _, v in g.edges]
    results = []
    for f in (
        lambda: _project(list(map(float, y)), eu, ev, **tols),
        lambda: reference_project(
            np.array(y, dtype=np.float64), g.n, np.array(eu, dtype=np.int64),
            np.array(ev, dtype=np.int64), **tols,
        ),
    ):
        try:
            results.append(f())
        except ProjectionError as exc:
            results.append(exc)
    return results


# --- subgradient ---------------------------------------------------------------


def test_subgradient_examples():
    g = subgradient((3.0, 1.0, 2.0), (0.5, 1.0, 0.5))
    assert np.array_equal(g, [3.0, 0.0, 0.0])
    assert np.array_equal(subgradient((0.0, 0.0, 0.0), (0.3, 0.4, 0.2)), np.zeros(3))
    assert np.array_equal(subgradient((1.0, 1.0), (0.5, 0.5)), [1.0, 0.0])
    with pytest.raises(ValueError):
        subgradient((1.0, 2.0), (0.5, 0.5, 0.5))


# --- projection ------------------------------------------------------------------


def test_projection_identity_on_feasible_points():
    g = Graph(2, ((0, 1),))
    y = np.array([0.7, 0.6])
    out = project_vc_polytope(y, g)
    assert np.array_equal(out, y)


def test_projection_k3_symmetric_case():
    tri = Graph(3, ((0, 1), (1, 2), (0, 2)))
    out = project_vc_polytope(np.zeros(3), tri)
    assert out == pytest.approx([0.5, 0.5, 0.5], abs=1e-8)


def test_projection_single_edge_against_grid_search():
    g = Graph(2, ((0, 1),))
    out = project_vc_polytope(np.array([0.2, 0.2]), g)
    assert out == pytest.approx([0.5, 0.5], abs=1e-8)
    # dense grid search over the feasible square
    rng = SeededRng(100)
    for _ in range(5):
        y = np.array([rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0)])
        pts = np.linspace(0.0, 1.0, 401)
        xx, yy = np.meshgrid(pts, pts, indexing="ij")
        mask = xx + yy >= 1.0
        d2 = (xx - y[0]) ** 2 + (yy - y[1]) ** 2
        d2[~mask] = np.inf
        k = np.unravel_index(np.argmin(d2), d2.shape)
        grid_best = np.array([pts[k[0]], pts[k[1]]])
        out = project_vc_polytope(y, g)
        assert np.linalg.norm(out - grid_best) < 5e-3


def test_projection_feasible_and_no_closer_point():
    rng = SeededRng(200)
    for _ in range(25):
        n = 3 + rng.randrange(6)
        g = gen_random_graph(n, 0.5, rng)
        y = np.array([rng.uniform(-1.0, 2.0) for _ in range(n)])
        out = project_vc_polytope(y, g)
        assert fractional_feasible(out, g, tol=1e-8)
        dist = np.linalg.norm(y - out)
        for _ in range(40):
            z = random_feasible_point(g, rng)
            assert dist <= np.linalg.norm(y - z) + 1e-6


def test_projection_idempotent():
    rng = SeededRng(300)
    for _ in range(10):
        n = 3 + rng.randrange(5)
        g = gen_random_graph(n, 0.5, rng)
        y = np.array([rng.uniform(-1.0, 2.0) for _ in range(n)])
        once = project_vc_polytope(y, g)
        twice = project_vc_polytope(once, g)
        assert np.linalg.norm(twice - once) <= 1e-8


def test_projection_against_cvxpy():
    cp = pytest.importorskip("cvxpy")
    rng = SeededRng(400)
    for _ in range(5):
        n = 4 + rng.randrange(4)
        g = gen_random_graph(n, 0.5, rng)
        y = np.array([rng.uniform(-1.0, 2.0) for _ in range(n)])
        x = cp.Variable(n)
        cons = [x >= 0, x <= 1]
        cons += [x[u] + x[v] >= 1 for u, v in g.edges]
        cp.Problem(cp.Minimize(cp.sum_squares(x - y)), cons).solve()
        out = project_vc_polytope(y, g)
        assert np.linalg.norm(out - x.value) < 1e-5


def test_projection_against_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = SeededRng(450)
    cases = []
    for _ in range(6):
        n = 3 + rng.randrange(6)
        g = gen_random_graph(n, 0.5, rng)
        # outside the box, at the box corners, and OGD-style: one coordinate
        # of a projected point lowered
        cases.append((g, np.array([rng.uniform(-1.0, 2.0) for _ in range(n)])))
        cases.append((g, np.array([float(rng.randrange(2)) for _ in range(n)])))
        y = project_vc_polytope(random_feasible_point(g, rng), g)
        y[rng.randrange(n)] -= rng.uniform(0.0, 1.0)
        cases.append((g, y))
    for g, y in cases:
        A = np.zeros((g.m, g.n))
        for e, (u, v) in enumerate(g.edges):
            A[e, u] = A[e, v] = 1.0
        cons = [{"type": "ineq", "fun": lambda x, A=A: A @ x - 1.0, "jac": lambda x, A=A: A}]
        res = optimize.minimize(
            lambda x, y=y: float(np.sum((x - y) ** 2)),
            np.ones(g.n),
            jac=lambda x, y=y: 2.0 * (x - y),
            bounds=[(0.0, 1.0)] * g.n,
            constraints=cons if g.m else [],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 1000},
        )
        assert res.success, res.message
        out = project_vc_polytope(y, g)
        assert fractional_feasible(out, g, tol=FEAS_TOL)
        assert np.linalg.norm(out - res.x) < 1e-5
        assert np.sum((out - y) ** 2) <= np.sum((res.x - y) ** 2) + 1e-9


def test_projection_reports_nonconvergence_with_residual():
    with pytest.raises(ProjectionError) as e:
        _project([-3.0, -3.0], [0], [1], max_cycles=1)
    assert e.value.residual >= 0
    assert e.value.cycles == 1
    assert "did not converge" in str(e.value)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("W_bound", float("nan"), "W_bound must be a finite number in (0, inf), got nan"),
        ("W_bound", float("inf"), "W_bound must be a finite number in (0, inf), got inf"),
        ("W_bound", 0.0, "W_bound must be a finite number in (0, inf), got 0.0"),
    ],
    # the ids name the rule each value breaks
    ids=["W_bound-nan-W_bound must be finite, got nan", "W_bound-inf-W_bound must be finite, got inf",
         "W_bound-0.0-W_bound must be positive, got 0.0"],
)
def test_config_rejects_values_it_cannot_use(field, value, message):
    with pytest.raises(ValueError) as e:
        OgdConfig(**{field: value})
    assert str(e.value) == message


def test_projection_rejects_bad_input():
    g = Graph(2, ((0, 1),))
    with pytest.raises(ValueError):
        project_vc_polytope(np.array([np.inf, 0.0]), g)
    with pytest.raises(ValueError):
        project_vc_polytope(np.zeros(3), g)


# --- projection against the numpy reference --------------------------------------


def assert_same_projection(y, g, **tols):
    new, ref = project_both(y, g, **tols)
    if isinstance(ref, ProjectionError):
        assert isinstance(new, ProjectionError)
        assert (new.cycles, new.residual, str(new)) == (ref.cycles, ref.residual, str(ref))
    else:
        assert isinstance(new, np.ndarray) and new.dtype == np.float64
        # byte equality also tells +0.0 from -0.0
        assert new.tobytes() == ref.tobytes()


def sweep_graphs(rng):
    yield Graph(1, ())
    yield Graph(4, ())
    for n in (2, 3, 5, 8):
        yield Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))
    for _ in range(12):
        yield gen_random_graph(2 + rng.randrange(12), rng.uniform(0.1, 0.9), rng)


def test_projection_matches_numpy_reference_bitwise():
    rng = SeededRng(800)
    for g in sweep_graphs(rng):
        n = g.n
        for _ in range(8):
            # OGD-style: one coordinate lowered from a feasible point
            y = project_vc_polytope(random_feasible_point(g, rng), g)
            y[rng.randrange(n)] -= rng.uniform(0.0, 2.0)
            assert_same_projection(y, g)
            # arbitrary points, inside and far outside the box
            assert_same_projection([rng.uniform(-3.0, 4.0) for _ in range(n)], g)
        # box corners, the rounding threshold and both signed zeros
        for shift in range(6):
            assert_same_projection([(-0.0, 0.0, 0.5, 1.0, -1.0, 2.0)[(k + shift) % 6] for k in range(n)], g)
    # Dykstra's last cycle leaves coordinate 1 at -5.55e-17 here, so the
    # final clip to the box shows in the bits
    g = Graph(6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (2, 3), (2, 4), (2, 5), (3, 5)))
    y = [0.5781774818572005, -2.557767244538293, -0.28497710765818063,
         3.182011446083443, -1.0618071913252987, -1.6648212537940803]
    assert_same_projection(y, g)


def test_projection_errors_match_numpy_reference():
    rng = SeededRng(900)
    tols = [{"max_cycles": k} for k in (1, 2, 3, 5, 8)]
    # a loose convergence test with a tight feasibility test stalls instead
    tols.append({"conv_tol": 0.05, "feas_tol": 1e-12})
    raised = 0
    for g in sweep_graphs(rng):
        for tol in tols:
            for _ in range(3):
                y = [rng.uniform(-3.0, 4.0) for _ in range(g.n)]
                assert_same_projection(y, g, **tol)
                raised += isinstance(project_both(y, g, **tol)[1], ProjectionError)
    assert raised > 50  # the sweep does reach both error paths


def test_learner_iterates_match_reference_bitwise():
    rng = SeededRng(1000)
    for n in (6, 10, 16, 20):
        g = gen_random_graph(n, 0.4, rng)
        seq = gen_uniform_weights(n, 150, 1.0, rng)
        for mode in ("scaled", "paper"):
            cfg = OgdConfig(step_mode=mode)
            expected = reference_ogd_iterates(g, seq.rows, cfg)
            learner = OgdVcLearner(g, cfg)
            x = learner.x  # the learner's list, stepped in place
            assert type(x) is list and np.array(x).tobytes() == expected[0].tobytes()
            for t, w in enumerate(seq.rows, start=1):
                learner.observe(w, 0.0)
                assert learner.x is x and np.array(x).tobytes() == expected[t].tobytes(), (n, mode, t)


def test_learner_mask_follows_assigned_iterate():
    g = Graph(3, ((0, 1), (1, 2)))
    learner = OgdVcLearner(g)
    assert learner.play() == 0b111
    mine = [0.25, 0.75, 0.25]
    learner.x = mine
    assert learner.play() == 0b010
    assert learner.x == mine and learner.x is not mine  # the learner's own copy
    learner.observe_vertex(1, 1.0)
    assert mine == [0.25, 0.75, 0.25]
    assert learner.play() == round_half(learner.x)
    learner.x = (0.5, 0.5, 0.5)
    assert learner.play() == 0b111 and type(learner.x) is list


def check_exact_step(g, x, w, t, cfg):
    """One learner step from the feasible x on row w in round t equals its
    :func:`reference_step` bit for bit; returns (i*, y, stepped iterate),
    the iterate as the learner's list."""
    x = np.array(x, dtype=np.float64)
    w = np.array(w, dtype=np.float64)
    learner = OgdVcLearner(g, cfg)
    # the learner's own copy: its step writes into the list
    learner.x, learner.t = x.tolist(), t
    learner.observe(w, 0.0)
    assert learner.t == t + 1
    i, y = step_point(x, w, t, step_scale(g, cfg))
    assert np.array(learner.x).tobytes() == reference_step(g, x, i, y).tobytes()
    return i, y, learner.x


def test_exact_step_edge_cases():
    paper = OgdConfig(step_mode="paper")
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    # a negative weight on i*: the coordinate rises, past 1 into the clip
    i, y, out = check_exact_step(star, [0.25, 0.75, 0.75, 0.75], [-1.0, -2.0, -2.0, -2.0], 1, paper)
    assert i == 0 and y[0] == 1.25 and out[0] == 1.0 and out[1:] == [0.75] * 3
    i, y, out = check_exact_step(star, [0.25, 0.75, 0.75, 0.75], [-0.5, -2.0, -2.0, -2.0], 4, paper)
    assert i == 0 and out[0] == 0.5
    # a long step: the water level falls below 0 and clips there, and every
    # neighbour rises to 1
    i, y, out = check_exact_step(star, [0.5, 0.5, 0.5, 0.5], [3.0, 0.0, 0.0, 0.0], 1, paper)
    assert i == 0 and y[0] == -2.5 and out == [0.0, 1.0, 1.0, 1.0]
    # an isolated i*: the box clip alone
    lone = Graph(3, ((0, 1),))
    i, y, out = check_exact_step(lone, [0.5, 0.5, 0.5], [0.0, 0.0, 2.0], 1, paper)
    assert i == 2 and out == [0.5, 0.5, 0.0]
    i, y, out = check_exact_step(lone, [0.5, 0.5, 0.5], [0.0, 0.0, 0.25], 1, paper)
    assert i == 2 and out == [0.5, 0.5, 0.25]
    # water-fill over some of the breakpoints: x_1 = 0.9 stays, x_2 and x_3
    # rise to 1 - z
    i, y, out = check_exact_step(star, [0.5, 0.9, 0.6, 0.5], [1.0, 0.0, 0.0, 0.0], 1, paper)
    assert i == 0 and out[1] == 0.9 and out[2] == out[3] == 1.0 - out[0] and 0.1 < out[0] < 0.4


# --- rounding --------------------------------------------------------------------


def test_round_half_examples():
    assert round_half((0.5, 0.3, 0.9)) == 0b101
    assert round_half((0.5, 0.5)) == 0b11
    assert round_half((1.0, 0.0, 1.0)) == 0b101
    assert round_half([0.0] * 11 + [0.5]) == 1 << 11
    assert round_half(np.array([0.25, 0.75])) == 0b10
    assert round_half(()) == round_half((0.49,)) == 0
    assert all(type(round_half(x)) is int for x in ((0.5,), (0.0,), np.array([0.9])))


def test_round_half_yields_cover_on_feasible_points():
    rng = SeededRng(500)
    for _ in range(30):
        n = 3 + rng.randrange(6)
        g = gen_random_graph(n, 0.5, rng)
        z = random_feasible_point(g, rng)
        played = round_half(z)
        assert is_vertex_cover(g, [v for v in range(n) if played >> v & 1])
        assert played == sum(1 << v for v in range(n) if z[v] >= 0.5)


# --- theorem2_bound -----------------------------------------------------------------


def test_theorem2_bound_values():
    assert theorem2_bound(1.0, 4, 100) == pytest.approx(60.0)
    assert theorem2_bound(1.0, 4, 0) == 0.0
    assert theorem2_bound(2.0, 1, 1) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        theorem2_bound(-1.0, 4, 100)


# --- ogd_run --------------------------------------------------------------------------


def test_ogd_run_empty_horizon():
    g = Graph(2, ((0, 1),))
    tr = ogd_run(g, WeightSequence(2, np.zeros((0, 2))))
    assert tr.T == 0
    assert tr.cumulative == 0.0
    assert tr.algorithm == "ogd_vc"


def test_ogd_run_single_edge_drifts_to_free_vertex():
    # constant w=(1,0): the iterate should drift to (0,1), playing {1} at cost 0
    g = Graph(2, ((0, 1),))
    seq = WeightSequence(2, [[1.0, 0.0]] * 60)
    tr = ogd_run(g, seq)
    assert all(m == 0b10 for m in tr.masks[-10:])
    assert all(a == frozenset({1}) for a in tr.actions[-10:])
    assert all(v == 0.0 for v in tr.values[-10:])
    assert tr.benchmark == 0.0  # hindsight cover {1} is free


def test_ogd_run_costs_are_the_one_round_rule_bitwise():
    # ogd_run scores after its loop, from the recorded iterates; each cost
    # must be the per-round 1-D numpy max bit for bit, signed zeros
    # included. Edgeless graphs walk to the empty cover, priced 0.0.
    rng = SeededRng(610)
    empty = neg_zero = 0
    for n in range(1, 25):
        for p in (0.0, 0.2, 0.6):
            g = Graph(n, gen_random_graph(n, p, rng).edges) if n > 1 else Graph(1, ())
            rows = [[(0.0, -0.0, 1.0, rng.random(), 1e-3 * rng.random())[rng.randrange(5)] for _ in range(n)]
                    for _ in range(30)]
            seq = WeightSequence(n, rows)
            tr = ogd_run(g, seq, compute_benchmark=False)
            learner = OgdVcLearner(g)
            int_costs, frac_costs = [], []
            for w in seq.rows:
                members = [v for v in range(n) if learner.play() >> v & 1]
                int_costs.append(float(w[members].max()) if members else 0.0)
                frac_costs.append(float((w * np.array(learner.x)).max()))
                learner.observe(w, 0.0)
            assert np.array(tr.values).tobytes() == np.array(int_costs).tobytes(), (n, p)
            assert np.array(tr.extras["frac_cost"]).tobytes() == np.array(frac_costs).tobytes(), (n, p)
            assert all(type(v) is float for v in tr.values + tr.extras["frac_cost"])
            empty += tr.masks.count(0)
            neg_zero += sum(np.signbit(c) for c in tr.values + tr.extras["frac_cost"])
    assert empty > 100 and neg_zero > 100  # both cases are reached


def test_ogd_run_costs_are_the_one_round_rule_bitwise_past_64_vertices():
    # the same rule on masks wider than a machine word, where the played
    # cover is read from the iterate block (entries >= 1/2), not the mask
    rng = SeededRng(611)
    zeros = neg_zero = 0
    for n in (65, 72, 130):
        for p in (0.0, 0.03, 0.2):
            g = gen_random_graph(n, p, rng)
            # mostly signed zeros, so that many covers' maxima are zeros
            rows = [[rng.random() if rng.randrange(60) == 0 else (0.0, -0.0)[rng.randrange(2)] for _ in range(n)]
                    for _ in range(20)]
            seq = WeightSequence(n, rows)
            tr = ogd_run(g, seq, compute_benchmark=False)
            learner = OgdVcLearner(g)
            int_costs = []
            for w in seq.rows:
                members = [v for v in range(n) if learner.play() >> v & 1]
                int_costs.append(float(w[members].max()) if members else 0.0)
                learner.observe(w, 0.0)
            assert np.array(tr.values).tobytes() == np.array(int_costs).tobytes(), (n, p)
            assert max(tr.masks).bit_length() > 64 or p == 0.0
            zeros += tr.values.count(0.0)
            neg_zero += sum(np.signbit(c) for c in tr.values)
    assert neg_zero > 20 and zeros - neg_zero > 20  # both signs are reached


def test_ogd_plays_are_covers_and_ratio_is_exact():
    rng = SeededRng(600)
    for _ in range(5):
        n = 4 + rng.randrange(5)
        g = gen_random_graph(n, 0.5, rng)
        seq = gen_uniform_weights(n, 40, 1.0, rng)
        tr = ogd_run(g, seq)
        for played, int_cost, frac_cost in zip(tr.actions, tr.values, tr.extras["frac_cost"]):
            assert is_vertex_cover(g, played)
            # half-rounding at most doubles the fractional cost, exactly
            assert int_cost <= 2.0 * frac_cost


def test_ogd_scaled_mode_meets_theorem2_bound():
    rng = SeededRng(700)
    for seed in range(3):
        n = 6
        g = gen_random_graph(n, 0.4, SeededRng(seed + 1))
        seq = gen_uniform_weights(n, 500, 1.0, SeededRng(seed + 1000))
        tr = ogd_run(g, seq, OgdConfig(W_bound=1.0, step_mode="scaled"))
        assert tr.benchmark is not None
        assert tr.cumulative <= 2.0 * tr.benchmark + theorem2_bound(1.0, n, seq.T) + 1e-9
    _ = rng  # seeds above are explicit for reproducibility


def test_ogd_paper_mode_runs():
    g = Graph(3, ((0, 1), (1, 2)))
    seq = gen_uniform_weights(3, 30, 1.0, SeededRng(9))
    tr = ogd_run(g, seq, OgdConfig(step_mode="paper"))
    assert tr.T == 30
    assert tr.meta["step_mode"] == "paper"


def test_ogd_rejects_weights_above_bound():
    g = Graph(2, ((0, 1),))
    seq = WeightSequence(2, [[2.0, 0.0]])
    with pytest.raises(ValueError, match="W_bound"):
        ogd_run(g, seq, OgdConfig(W_bound=1.0))
