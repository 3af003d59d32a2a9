"""Property check of the whole-horizon sweep against exhaustive search.

On dyadic instances every subset sum, aggregate and penalty is exact, so
the sweep's leader of each round (an int mask and its value) must be
brute_oracle's answer on that round's query (the revealed prefix plus the
tail rounds), set and value, ties included.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regretlab.gkp import brute_oracle, fold_sweep  # noqa: E402
from regretlab.instances import GkpRound, GkpStatic, stack_rounds  # noqa: E402
from regretlab.traces import mask_members  # noqa: E402


@st.composite
def dyadic_runs(draw):
    """Weights in eighths, profits in quarters, capacities in eighths. The
    few levels, and items that never pay (``idle``), make ties common."""
    n = draw(st.integers(1, 6))
    w = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    idle = draw(st.sets(st.integers(0, n - 1)))
    static = GkpStatic(n, [x / 8.0 for x in w], draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    rnd = st.builds(
        lambda p, B: GkpRound([0.0 if i in idle else x / 4.0 for i, x in enumerate(p)], B / 8.0),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.integers(0, 4 * n),
    )
    rounds = draw(st.lists(rnd, max_size=40))
    tail = draw(st.lists(rnd, max_size=n))
    return static, rounds, tail


def first_maximizer(static, query):
    """The sorted-tuple-smallest maximizing set of the summed objective,
    enumerated here without the library's tie rule."""
    sets = [tuple(i for i in range(static.n) if m >> i & 1) for m in range(1 << static.n)]
    if not query:
        return frozenset()
    p_s = np.sum([r.p for r in query], axis=0)
    B = np.array([r.B for r in query])
    values = [
        float(p_s[list(A)].sum()) - static.c * float(np.maximum(0.0, static.w[list(A)].sum() - B).sum())
        for A in sets
    ]
    top = max(values)
    return frozenset(min(A for A, v in zip(sets, values) if v == top))


@settings(max_examples=100, deadline=None)
@given(dyadic_runs())
def test_every_round_leader_is_brute_oracle_of_its_query(run):
    static, rounds, tail = run
    leaders, bests = fold_sweep(static, stack_rounds(static.n, rounds), tail)
    assert len(leaders) == len(bests) == len(rounds)
    for t in range(1, len(rounds) + 1):
        query = rounds[: t - 1] + tail
        mask, value = leaders[t - 1]
        assert type(mask) is int
        assert (frozenset(mask_members(mask)), value) == brute_oracle(static, query)
        assert frozenset(mask_members(mask)) == first_maximizer(static, query)
        assert bests[t - 1] == brute_oracle(static, rounds[:t])[1]
