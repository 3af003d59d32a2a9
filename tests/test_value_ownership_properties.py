"""Property check that the array entry points own their data.

WeightSequence, ProcTimeMatrix, GkpStatic, GkpRound, GkpRounds,
PerturbationVector and MatchingGadget store their arrays read-only. Given
a caller's array (an owner, a view of a larger one, a transposed or a
read-only one), a constructor must leave the caller's flags as they were,
and no later write through the caller's array, through a view of it made
earlier or through its base may change the instance. Every other array
entry point (the learners' rows, the projection, the subgradient, the
feasibility test and the min-max solvers) must leave the caller's flags
as they were too, and an array it returns must share no memory with the
caller's.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regretlab.gftpl import PerturbationVector  # noqa: E402
from regretlab.instances import GkpRound, GkpRounds, GkpStatic, Graph, ProcTimeMatrix, WeightSequence  # noqa: E402
from regretlab.minmax import minmax_value, multi_minmax_cost, static_minmax_vc  # noqa: E402
from regretlab.ogd import OgdVcLearner, fractional_feasible, project_vc_polytope, subgradient  # noqa: E402
from regretlab.reductions import FtlMinMaxVcLearner, MatchingGadget  # noqa: E402

FLAGS = ("writeable", "c_contiguous", "f_contiguous", "owndata", "aligned")


def flags_of(a):
    return {name: getattr(a.flags, name) for name in FLAGS}


def path(n):
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def star(m):
    return Graph(m + 1, tuple((0, i) for i in range(1, m + 1)))


# (constructor from a caller's array, the field it stores, the array's rank)
TYPES = {
    "WeightSequence": (lambda a: WeightSequence(a.shape[1], a), "rows", 2),
    "ProcTimeMatrix": (lambda a: ProcTimeMatrix(a.shape[1], a), "rows", 2),
    "GkpRounds.rows": (lambda a: GkpRounds(a.shape[1], a, np.ones(a.shape[0])), "rows", 2),
    "GkpRounds.B": (lambda a: GkpRounds(1, np.ones((a.shape[0], 1)), a), "B", 1),
    "GkpStatic": (lambda a: GkpStatic(a.shape[0], a, 1.0), "w", 1),
    "GkpRound": (lambda a: GkpRound(a, 1.0), "p", 1),
    "PerturbationVector": (lambda a: PerturbationVector(a, 1.0), "a", 1),
    "MatchingGadget": (lambda a: MatchingGadget(star(a.shape[1]), {}, a), "weight_rows", 2),
}

# (a call on a caller's array, the array's rank)
CALLS = {
    "OgdVcLearner.observe": (lambda a: OgdVcLearner(path(a.shape[0])).observe(a, 0.0), 1),
    "FtlMinMaxVcLearner.observe": (lambda a: FtlMinMaxVcLearner(path(a.shape[0])).observe(a, 0.0), 1),
    "project_vc_polytope": (lambda a: project_vc_polytope(a, path(a.shape[0])), 1),
    "subgradient": (lambda a: subgradient(a, a), 1),
    "fractional_feasible": (lambda a: fractional_feasible(a, path(a.shape[0])), 1),
    "static_minmax_vc": (lambda a: static_minmax_vc(path(a.shape[0]), a), 1),
    "minmax_value": (lambda a: minmax_value([0], a), 1),
    "multi_minmax_cost": (lambda a: multi_minmax_cost([0], a), 2),
}


@st.composite
def callers(draw, rank):
    """(base, caller's array): the caller's array is the base itself, a
    strided view of it, its transpose or a read-only view of it."""
    shape = draw(st.tuples(*[st.integers(1, 5)] * rank))
    size = 2 * int(np.prod(shape))
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0]), min_size=size, max_size=size))
    base = np.array(values).reshape((2 * shape[0], *shape[1:]))
    kind = draw(st.sampled_from(["base", "strided", "transposed", "read-only"]))
    if kind == "base":
        return base, base
    if kind == "strided":
        return base, base[::2]
    if kind == "transposed":
        return base, base.T if rank == 2 else base[::-1]
    view = base[: shape[0]]
    view.flags.writeable = False
    return base, view


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(TYPES)))
def test_constructors_never_share_the_callers_array(data, name):
    build, field, rank = TYPES[name]
    base, caller = data.draw(callers(rank))
    before = flags_of(caller), flags_of(base)
    earlier = caller.view()
    stored = getattr(build(caller), field)
    snapshot = stored.copy()
    assert (flags_of(caller), flags_of(base)) == before
    assert not stored.flags.writeable and not np.shares_memory(stored, base)
    for target in (caller, earlier, base):
        if target.flags.writeable:
            target[...] = 0.5
    assert stored.tobytes() == snapshot.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(CALLS)))
def test_calls_leave_the_callers_array_alone(data, name):
    call, rank = CALLS[name]
    base, caller = data.draw(callers(rank))
    before = flags_of(caller), flags_of(base), base.tobytes()
    result = call(caller)
    assert (flags_of(caller), flags_of(base), base.tobytes()) == before
    assert not (isinstance(result, np.ndarray) and np.shares_memory(result, base))
