"""Property check of SeededRng.randrange_array against the scalar loop.

randrange_array(n, k) computes k outputs as one uint64 block and hands
the rest to the scalar loop from the first rejected draw on. Over any
seed, bound and length it must give the ints that k randrange(n) calls
give, and leave the stream in the same state: at n = 1, at n = 2**64
(no output is rejected and none is reduced), at k = 0, and at
n = 2**63 + 1, where about half of the draws are rejected.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regretlab.rng import SeededRng  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.one_of(st.integers(1, 40), st.integers(1, 2**64), st.sampled_from([1, 2**63, 2**63 + 1, 2**64])),
    st.integers(0, 60),
)
@example(0, 1, 0)
@example(0, 1, 9)
@example(3, 2**64, 0)
@example(3, 2**64, 40)
@example(5, 2**63 + 1, 60)  # about half of the draws are rejected: the scalar loop takes over
@example(6, 2**63 + 1, 1)
@example(2**64 - 1, 3, 60)
def test_randrange_array_is_k_scalar_draws(seed, n, k):
    a, b = SeededRng(seed), SeededRng(seed)
    got = a.randrange_array(n, k)
    assert got == [b.randrange(n) for _ in range(k)]
    assert all(type(v) is int for v in got)
    assert a._state == b._state
