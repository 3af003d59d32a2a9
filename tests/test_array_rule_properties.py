"""Property check of the one array rule across the array-valued APIs.

Every float vector and matrix a caller passes goes through
instances.checked_array: the instance types' fields, the perturbation,
the vertex-cover learners' rows, the projection's and the feasibility
test's point, the subgradient, and the min-max solvers and gadgets. On
any nested list each entry point must refuse exactly what the rule
refuses, with the rule's message naming its field:

* a value numpy cannot convert (a complex array or entry among them), or
  one with another number of axes: "<what> must be a list of numbers"
  (one axis) or "rows of numbers" (two);
* a wrong length: "<what> must have length <n>" or "must have shape (T, n)";
* a bool, str, bytes or None entry, NaN, +-inf or an entry outside the
  field's interval: the number rule's own message for it.

The expected outcome comes from a plain-Python model of the rule, not
from numpy.
"""

import math
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regretlab.gftpl import PerturbationVector  # noqa: E402
from regretlab.instances import GkpRound, GkpRounds, GkpStatic, Graph, ProcTimeMatrix, WeightSequence  # noqa: E402
from regretlab.minmax import (  # noqa: E402
    PathChain,
    brute_force_multi_matching,
    brute_force_multi_path,
    minmax_value,
    multi_minmax_cost,
    static_minmax_vc,
)
from regretlab.ogd import OgdVcLearner, fractional_feasible, project_vc_polytope, subgradient  # noqa: E402
from regretlab.reductions import FtlMinMaxVcLearner, MatchingGadget  # noqa: E402

N = 2
EDGE = Graph(2, ((0, 1),))  # the graph of the six inputs accepted before the rule
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def _count(value):
    return len(value) if isinstance(value, (list, np.ndarray)) else 0


class Entry(NamedTuple):
    what: str  # the name a refusal gives
    call: Callable
    shape: tuple  # each axis an int (fixed) or a name (free)
    interval: str


ENTRIES = {
    "GkpStatic.w": Entry("item weights w", lambda a: GkpStatic(N, a, 1.0), (N,), "[0, inf)"),
    "GkpRound.p": Entry("profits p", lambda a: GkpRound(a, 1.0), ("n",), "[0, inf)"),
    "GkpRounds.rows": Entry("profits p", lambda a: GkpRounds(N, a, [1.0] * _count(a)), ("m", N), "[0, inf)"),
    "GkpRounds.B": Entry("capacities B", lambda a: GkpRounds(1, [[1.0]] * N, a), (N,), "[0, inf)"),
    "WeightSequence": Entry("weights", lambda a: WeightSequence(N, a), ("T", N), "[0, inf)"),
    "ProcTimeMatrix": Entry("processing times", lambda a: ProcTimeMatrix(N, a), ("N", N), "[0, inf)"),
    "PerturbationVector": Entry("perturbation a", lambda a: PerturbationVector(a, 1.0), ("N",), "[0, 1]"),
    "OgdVcLearner.observe": Entry("weight row", lambda a: OgdVcLearner(EDGE).observe(a, 0.0), (N,), "(-inf, inf)"),
    "FtlMinMaxVcLearner.observe": Entry("weight row", lambda a: FtlMinMaxVcLearner(EDGE).observe(a, 0.0), (N,),
                                        "(-inf, inf)"),
    "project_vc_polytope": Entry("point", lambda a: project_vc_polytope(a, EDGE), (N,), "(-inf, inf)"),
    "subgradient.w": Entry("weight row", lambda a: subgradient(a, a), ("n",), "(-inf, inf)"),
    "subgradient.x": Entry("point", lambda a: subgradient([1.0, 0.5], a), (N,), "(-inf, inf)"),
    "fractional_feasible": Entry("point", lambda a: fractional_feasible(a, EDGE), (N,), "(-inf, inf)"),
    "static_minmax_vc": Entry("weight row", lambda a: static_minmax_vc(EDGE, a), (N,), "(-inf, inf)"),
    "minmax_value": Entry("weights w", lambda a: minmax_value([], a), ("n",), "(-inf, inf)"),
    "multi_minmax_cost": Entry("weight rows", lambda a: multi_minmax_cost([], a), ("T", "n"), "(-inf, inf)"),
    "brute_force_multi_matching": Entry("weight rows", lambda a: brute_force_multi_matching(C4, a), ("T", 4),
                                        "(-inf, inf)"),
    "brute_force_multi_path": Entry("weight rows", lambda a: brute_force_multi_path(PathChain(1), a), ("T", 2),
                                    "(-inf, inf)"),
    "MatchingGadget": Entry("gadget weight rows", lambda a: MatchingGadget(C4, {}, a), ("m", 4), "(-inf, inf)"),
}

GOOD = [0.0, -0.0, 0.25, 1.0, 1, np.float64(0.5), np.float32(0.75), np.int64(0)]
BAD = [-1.0, 2.0, float("nan"), float("inf"), float("-inf"), True, False, np.True_, "1.0", "0", None, b"1",
       "abc", 1 + 0j]
NOT_NUMBERS = (bool, np.bool_, str, bytes, type(None))


def _nest(flat, shape):
    if not shape:
        return flat[0]
    size = math.prod(shape[1:])
    return [_nest(flat[k * size:(k + 1) * size], shape[1:]) for k in range(shape[0])]


@st.composite
def nested(draw):
    """A scalar or a uniformly nested list of one to three axes; half the
    draws hold good entries only."""
    shape = tuple(draw(st.lists(st.sampled_from([2, 2, 1, 0, 3]), max_size=3)))
    pool = st.sampled_from(GOOD if draw(st.booleans()) else GOOD + BAD)
    return _nest([draw(pool) for _ in range(math.prod(shape))], shape)


def _shape_of(value):
    if not isinstance(value, list):
        return ()
    return (0,) if not value else (len(value), *_shape_of(value[0]))


def _flat(value):
    if not isinstance(value, list):
        return [value]
    return [x for item in value for x in _flat(item)]


def _inside(v, interval):
    low, high = map(float, interval[1:-1].split(", "))
    return math.isfinite(v) and low <= v <= high


def _refusal(entry: Entry, value) -> str | None:
    """The message the rule refuses value with at entry, or None."""
    what, shape = entry.what, entry.shape
    numbers = "a list of numbers" if len(shape) == 1 else "rows of numbers"
    if isinstance(value, np.ndarray) and value.dtype.kind == "c":  # a cast would drop the imaginary parts
        return f"{what} must be {numbers}"
    got = _shape_of(value)
    flat = _flat(value)
    if "abc" in flat or any(isinstance(x, complex) for x in flat):  # numpy cannot convert it
        return f"{what} must be {numbers}"
    if got == (0,) and len(shape) == 2 and not isinstance(shape[1], str):
        got = (0, shape[1])  # an empty list is zero rows of a fixed width
    if len(got) != len(shape):
        return f"{what} must be {numbers}"
    if any(not isinstance(k, str) and k != m for k, m in zip(shape, got)):
        if len(shape) == 1:
            return f"{what} must have length {shape[0]}"
        return f"{what} must have shape ({', '.join(map(str, shape))})"
    prefix = f"{what} must be a finite number in {entry.interval}, got"
    for x in flat:
        if isinstance(x, NOT_NUMBERS):
            return f"{prefix} {x!r}"
    floats = [float(x) for x in flat]
    if any(math.isnan(v) for v in floats):  # NaN propagates through the least entry
        return f"{prefix} nan"
    for v in (min(floats, default=0.0), max(floats, default=0.0)):
        if not _inside(v, entry.interval):
            return f"{prefix} {v}"
    return None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ENTRIES)), nested())
@example("OgdVcLearner.observe", ["1.0", "0"])  # each of these six was accepted before the rule
@example("project_vc_polytope", ["0.2", "0.3"])
@example("static_minmax_vc", [float("inf"), 1.0])
@example("minmax_value", [float("nan"), 1.0])
@example("minmax_value", [[1.0, 2.0]])
@example("fractional_feasible", ["0.5", "0.5"])
@example("GkpStatic.w", [True, 1.0])
@example("WeightSequence", [])
@example("multi_minmax_cost", [[]])
@example("brute_force_multi_matching", [[0.0, 1.0, 2.0]])
@example("OgdVcLearner.observe", np.array([1 + 0j]))  # its real part was taken before the rule refused complex
@example("minmax_value", np.array([1 + 0j]))
@example("WeightSequence", [[np.complex128(1.0), 0.0]])
def test_every_array_entry_point_applies_the_same_array_rule(name, value):
    entry = ENTRIES[name]
    message = _refusal(entry, value)
    if message is None:
        try:
            entry.call(value)
        except ValueError as e:  # a refusal of its own, as subgradient's of an empty row
            assert not str(e).startswith(entry.what), name
        return
    with pytest.raises(ValueError) as e:
        entry.call(value)
    assert str(e.value) == message, name


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_every_array_entry_point_takes_a_float_array_as_its_list(name):
    entry = ENTRIES[name]
    shape = tuple(2 if isinstance(k, str) else k for k in entry.shape)
    good = np.full(shape, 0.5)
    entry.call(good)
    entry.call(good.tolist())
    bad = good.copy()
    bad.flat[-1] = np.nan
    with pytest.raises(ValueError, match=f"^{entry.what} must be a finite number in "):
        entry.call(bad)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_every_array_entry_point_refuses_a_complex_array_before_the_cast(name):
    entry = ENTRIES[name]
    shape = tuple(2 if isinstance(k, str) else k for k in entry.shape)
    numbers = "a list of numbers" if len(shape) == 1 else "rows of numbers"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # numpy's ComplexWarning would show a cast
        with pytest.raises(ValueError) as e:
            entry.call(np.full(shape, 0.5 + 0j))
    assert str(e.value) == f"{entry.what} must be {numbers}", name
    assert not caught, name
