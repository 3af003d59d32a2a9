"""Property check of the exact OGD step on random feasible points.

From any feasible point and any finite weight row, one learner step must
equal the numpy water-fill bit for bit, pass the closed-form KKT
certificate, and lie within 1e-9 of Dykstra's projection of the same point.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regretlab.instances import Graph  # noqa: E402
from regretlab.ogd import OgdConfig  # noqa: E402
from test_ogd import check_exact_step  # noqa: E402


@st.composite
def steps(draw):
    """A graph on 1-8 vertices (isolated vertices allowed), a feasible
    point, a weight row with either sign and a round index."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, tuple(e for e in pairs if draw(st.booleans())))
    # adding 0.0 turns a -0.0 into +0.0, as a walk from 0.5 never makes one
    x = [v + 0.0 for v in draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))]
    for u, v in g.edges:
        x[v] = max(x[v], 1.0 - x[u])  # fl(1 - x_u) + x_u rounds to >= 1
    w = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    t = draw(st.integers(1, 10_000))
    mode = draw(st.sampled_from(["scaled", "paper"]))
    W = draw(st.sampled_from([0.25, 1.0, 3.0]))
    return g, x, w, t, OgdConfig(W_bound=W, step_mode=mode)


@settings(max_examples=300, deadline=None)
@given(steps())
def test_exact_step_is_certified_optimal(step):
    check_exact_step(*step)
