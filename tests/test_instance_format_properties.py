"""Property check of the five instance file formats: parsing what a
serializer wrote gives back the same instance, every float to the bit
(-0.0 and subnormals included), and serializing it again gives the same
text.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regretlab.instances import (  # noqa: E402
    Dnf3Formula,
    GkpInstanceSet,
    GkpRound,
    GkpStatic,
    Graph,
    ProcTimeMatrix,
    WeightSequence,
    parse_dnf,
    parse_gkp,
    parse_graph,
    parse_proc_times,
    parse_weights,
    serialize_dnf,
    serialize_gkp,
    serialize_graph,
    serialize_proc_times,
    serialize_weights,
)

# every float the formats accept: finite and not below zero
values = st.one_of(st.just(-0.0), st.floats(min_value=0.0, allow_infinity=False))


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, tuple(e if draw(st.booleans()) else e[::-1] for e in chosen))


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), max_size=6))
    return n, np.array(rows, dtype=np.float64).reshape(len(rows), n)


@st.composite
def gkp_sets(draw):
    n = draw(st.integers(1, 6))
    vectors = st.lists(values, min_size=n, max_size=n)
    static = GkpStatic(n, draw(vectors), draw(values))
    rounds = draw(st.lists(st.builds(GkpRound, vectors, values), max_size=5))
    return GkpInstanceSet(static, tuple(rounds))


@st.composite
def formulas(draw):
    n = draw(st.integers(3, 12))
    clause = st.tuples(
        st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True),
        st.lists(st.booleans(), min_size=3, max_size=3),
    ).map(lambda vs: tuple(zip(*vs)))
    return Dnf3Formula(n, tuple(draw(st.lists(clause, max_size=8))))


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_graph_format_round_trips(g):
    text = serialize_graph(g)
    back = parse_graph(text)
    assert back == g
    assert serialize_graph(back) == text


@settings(max_examples=200, deadline=None)
@given(matrices(), st.sampled_from(["weights", "proc_times"]))
def test_row_formats_round_trip_every_float(matrix, kind):
    n, rows = matrix
    make, parse, serialize = {
        "weights": (WeightSequence, parse_weights, serialize_weights),
        "proc_times": (ProcTimeMatrix, parse_proc_times, serialize_proc_times),
    }[kind]
    text = serialize(make(n, rows))
    back = parse(text)
    assert (back.n, back.rows.shape) == (n, rows.shape)
    assert bits(back.rows) == bits(rows)
    assert serialize(back) == text


@settings(max_examples=200, deadline=None)
@given(gkp_sets())
def test_gkp_format_round_trips_every_float(inst):
    text = serialize_gkp(inst)
    back = parse_gkp(text)
    assert back.static.n == inst.static.n
    assert bits(back.static.w) == bits(inst.static.w)
    assert bits([back.static.c]) == bits([inst.static.c])
    assert len(back.rounds) == len(inst.rounds)
    for got, want in zip(back.rounds, inst.rounds):
        assert bits(got.p) == bits(want.p)
        assert bits([got.B]) == bits([want.B])
    assert serialize_gkp(back) == text


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_dnf_format_round_trips_with_explicit_n(f):
    text = serialize_dnf(f)
    back = parse_dnf(text, n=f.n)
    assert back == f
    assert serialize_dnf(back) == text
