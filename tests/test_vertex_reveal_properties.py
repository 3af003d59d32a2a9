"""Property check of the gap decider's reveal by vertex.

``observe_vertex(u, cost)`` stands for ``observe`` on the one-hot row e_u.
For the OGD learner the two must agree bit for bit in ``x``, ``t`` and the
played mask, from any finite assigned iterate: negative entries and -0.0
among them, where the first argmax of w*x need not be u or 0. For the FTL
learner they must give the same play and running sums equal in value
(``observe`` adds +0.0 off u, which turns a -0.0 into +0.0). A learner
that only has ``observe`` must drive the gap decider to the same trace
bytes as the learner itself.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regretlab.instances import Graph  # noqa: E402
from regretlab.ogd import OgdConfig, OgdVcLearner, round_half  # noqa: E402
from regretlab.reductions import FtlMinMaxVcLearner, GapConfig, gap_solver  # noqa: E402
from regretlab.rng import SeededRng  # noqa: E402
from regretlab.traces import trace_to_csv  # noqa: E402

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]),
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def graphs(draw, max_n=8):
    """A graph on 1..max_n vertices; isolated vertices and no edges allowed."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, tuple(e for e in pairs if draw(st.booleans())))


def one_hot(n, u):
    row = np.zeros(n)
    row[u] = 1.0
    return row


@st.composite
def ogd_cases(draw):
    g = draw(graphs())
    x = draw(st.lists(FLOATS, min_size=g.n, max_size=g.n))
    us = draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=6))
    t = draw(st.integers(1, 10_000))
    cfg = OgdConfig(W_bound=draw(st.sampled_from([0.25, 1.0, 3.0])), step_mode=draw(st.sampled_from(["scaled", "paper"])))
    return g, x, us, t, cfg


@settings(max_examples=200, deadline=None)
@given(ogd_cases())
@example((Graph(3, ((0, 1),)), [-1.0, 0.25, 0.75], [0], 1, OgdConfig()))  # i* = 1
@example((Graph(3, ((1, 2),)), [-0.0, -2.0, 0.5], [1], 4, OgdConfig()))  # i* = 0
@example((Graph(1, ()), [-0.5], [0, 0], 2, OgdConfig(step_mode="paper")))  # n = 1: i* = u
def test_ogd_observe_vertex_is_observe_of_the_one_hot_row(case):
    g, x, us, t, cfg = case
    by_row, by_vertex = OgdVcLearner(g, cfg), OgdVcLearner(g, cfg)
    for learner in (by_row, by_vertex):
        learner.x, learner.t = x, t
    for u in us:
        by_row.observe(one_hot(g.n, u), 0.0)
        by_vertex.observe_vertex(u, 0.0)
        assert np.array(by_vertex.x).tobytes() == np.array(by_row.x).tobytes()
        assert by_vertex.t == by_row.t
        assert by_vertex.play() == by_row.play() == round_half(by_row.x)


@st.composite
def ftl_cases(draw):
    g = draw(graphs())
    cum = draw(st.lists(FLOATS, min_size=g.n, max_size=g.n))
    # None asks for a play first, so that the threshold is kept from there
    us = draw(st.lists(st.one_of(st.none(), st.integers(0, g.n - 1)), min_size=1, max_size=8))
    return g, cum, us


@settings(max_examples=200, deadline=None)
@given(ftl_cases())
def test_ftl_observe_vertex_is_observe_of_the_one_hot_row(case):
    g, cum, us = case
    by_row, by_vertex = FtlMinMaxVcLearner(g), FtlMinMaxVcLearner(g)
    by_row.cum = by_vertex.cum = cum
    for u in us:
        if u is None:
            assert by_vertex.play() == by_row.play()
            continue
        by_row.observe(one_hot(g.n, u), 0.0)
        by_vertex.observe_vertex(u, 0.0)
        assert by_vertex.cum == by_row.cum
    assert by_vertex.play() == by_row.play()
    fresh = FtlMinMaxVcLearner(g)
    fresh.cum = by_vertex.cum
    assert by_vertex.play() == fresh.play()  # the kept threshold is the recomputed one


class RowOnly:
    """A learner that has only ``play`` and ``observe``."""

    def __init__(self, learner):
        self.learner = learner
        self.rows = 0

    def play(self):
        return self.learner.play()

    def observe(self, w_row, cost):
        self.rows += 1
        self.learner.observe(w_row, cost)


@settings(max_examples=100, deadline=None)
@given(
    graphs(max_n=10),
    st.sampled_from([FtlMinMaxVcLearner, OgdVcLearner]),
    st.floats(0.0, 0.9),
    st.integers(0, 60),
    st.integers(0, 2**32),
)
def test_gap_solver_trace_bytes_are_the_same_through_rows(g, kind, B, T, seed):
    cfg = GapConfig(A=B / 2, B=B + 0.1, T_override=T)
    bare = gap_solver(g, cfg, kind(g), SeededRng(seed))
    row_only = RowOnly(kind(g))
    wrapped = gap_solver(g, cfg, row_only, SeededRng(seed))
    assert trace_to_csv(wrapped.trace) == trace_to_csv(bare.trace)
    assert (wrapped.decision, wrapped.yes_round) == (bare.decision, bare.yes_round)
    assert row_only.rows == bare.trace.T - (bare.decision == "Yes")
