"""Property check of the FPTAS oracle's DP and candidate race.

On tie-heavy instances (few profit and weight values, items that never
pay, profits of -0.0) the oracle must give the dense-grid reference's
set and value, the value's sign of zero included, and the singleton
vector that enters its race must hold _aggregate_profit({i}) bit for
bit on every history summary _summed gives. Its numpy sums turn a
column of -0.0 profits into 0.0, so no singleton scores -0.0; a
singleton whose value is zero ties the empty set, which wins.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regretlab.gkp import _aggregate_profit, _singleton_values, _summed, fptas_oracle  # noqa: E402
from regretlab.instances import GkpRound, GkpStatic  # noqa: E402
from test_gkp import reference_fptas  # noqa: E402

PROFITS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.0, 2.0]),
    # a subnormal largest profit would make the grid unit K underflow to 0
    st.floats(0.0, 4.0, allow_subnormal=False),
)


@st.composite
def tie_heavy_instances(draw):
    """Weights from a few values (zero included), profits mostly from a few
    values with -0.0 among them, and ``idle`` items that pay -0.0 or 0.0
    in every round."""
    n = draw(st.integers(1, 7))
    w = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0]) | st.floats(0.0, 3.0), min_size=n, max_size=n))
    static = GkpStatic(n, w, draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0)))
    idle = draw(st.sets(st.integers(0, n - 1)))
    zero = draw(st.sampled_from([0.0, -0.0]))
    rnd = st.builds(
        lambda p, B: GkpRound([zero if i in idle else x for i, x in enumerate(p)], B),
        st.lists(PROFITS, min_size=n, max_size=n),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 8.0),
    )
    return static, draw(st.lists(rnd, min_size=1, max_size=4))


def bits(x: float) -> str:
    return float(x).hex()


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances(), st.sampled_from([0.9, 0.3, 0.05, 0.01]))
@example((GkpStatic(2, [0.0, 1.0], 0.0), [GkpRound([-0.0, 1.0], 0.0), GkpRound([-0.0, 0.0], 0.0)]), 0.3)
# item 0 pays -0.0 at no weight: its singleton's zero ties the empty set's, which wins
@example((GkpStatic(2, [0.0, 1.0], 1.0), [GkpRound([-0.0, 0.5], 0.0)]), 0.05)
# all four singletons are worth 0.5 and so is the DP's set {2}: the first singleton wins
@example((GkpStatic(4, [1.0, 1.0, 0.5, 1.0], 2.0), [GkpRound([0.5, 0.5, 0.5, 0.5], 1.0)]), 0.5)
def test_fptas_oracle_matches_the_dense_reference_and_its_singletons_are_exact(instance, eps):
    static, rounds = instance
    summed = _summed(static, rounds)
    singles = _singleton_values(static, summed).tolist()
    assert [bits(v) for v in singles] == [
        bits(_aggregate_profit({i}, static, summed)) for i in range(static.n)
    ]
    got, want = fptas_oracle(static, rounds, eps), reference_fptas(static, rounds, eps)
    assert got[0] == want[0]
    assert bits(got[1]) == bits(want[1])
    assert got[1] >= 0.0


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="_fptas_grid: a subnormal largest profit underflows the unit K to 0 (FOUND in CHANGES.md)")
def test_fptas_oracle_takes_a_subnormal_largest_profit():
    # the history is worth at most 5e-324, so the empty set is a correct answer
    chosen, value = fptas_oracle(GkpStatic(1, [0.0], 0.0), [GkpRound([5e-324], 0.0)], 0.3)
    assert value >= 0.0
