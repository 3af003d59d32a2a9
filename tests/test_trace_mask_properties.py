"""Property check of the played-set masks against their member sets.

A trace stores each round's played set as an int bitmask. Its CSV cell
and its derived ``actions`` entry must be exactly what the set of members
gives: the members in numeric order joined by ';', and their frozenset.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regretlab.traces import _TABLE_BITS, RegretTrace, format_action, mask_members, trace_to_csv  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**20 - 1), max_size=30))
@example([0, 2**20 - 1, 1 << 10 | 1 << 2, 0])
def test_cells_and_actions_are_the_members_of_each_mask(masks):
    tr = RegretTrace(algorithm="gap_solver", masks=masks, values=[0.0] * len(masks))
    rows = trace_to_csv(tr).split("\n")[1:]
    assert len(rows) == len(masks)
    for t, mask in enumerate(masks):
        members = [i for i in range(20) if mask >> i & 1]
        cell = ";".join(map(str, sorted(members)))
        assert format_action(mask) == cell
        assert rows[t] == f"{t + 1},{cell},0.0,0.0"
        assert tr.actions[t] == frozenset(members)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 2**64), st.integers(2**64, 2**200), st.integers(2**200, 2**700)))
@example(0)
@example(2**64 - 1)
@example(2**64)
@example(2**200 | 1)
@example(2**_TABLE_BITS - 1)  # the widest mask read through the byte tables
@example(2**_TABLE_BITS | 2**3)  # the narrowest read a member at a time
def test_a_cell_is_the_members_of_its_mask_at_any_width(mask):
    # format_action reads a mask of up to _TABLE_BITS bits a byte at a time,
    # through per-offset tables, and a wider one a member at a time
    assert format_action(mask) == ";".join(map(str, mask_members(mask)))
