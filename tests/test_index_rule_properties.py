"""Property check of the one index rule across the set- and integer-valued APIs.

gkp_profit, multi_gkp_profit, minmax_value, multi_minmax_cost,
is_vertex_cover and gftpl_run's oracle path all read a set of indices
through traces.checked_mask. On any member list they must refuse the same
inputs, for the same member, and on an accepted list give what they give
for the plain-int frozenset of its members. The integer parameters
(PathChain's stage count and stage, SeededRng.randrange, randrange_array
and random_array, is_three_colorable's colour count) read one integer
through traces.checked_int and refuse anything else with its message.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regretlab.gftpl import GftplConfig, gftpl_run  # noqa: E402
from regretlab.gkp import gkp_profit, multi_gkp_profit  # noqa: E402
from regretlab.instances import GkpRound, GkpStatic, Graph  # noqa: E402
from regretlab.minmax import PathChain, is_vertex_cover, minmax_value, multi_minmax_cost  # noqa: E402
from regretlab.reductions import is_three_colorable  # noqa: E402
from regretlab.rng import SeededRng  # noqa: E402

N = 4
STATIC = GkpStatic(N, [0.5, 1.0, 0.25, 0.75], 2.0)
ROUNDS = [GkpRound([1.0, 2.0, 3.0, 4.0], 1.0), GkpRound([0.5, 0.0, 2.5, 1.0], 2.0)]
W = [0.3, 0.9, 0.1, 0.6]
ROWS = np.array([W, [0.8, 0.2, 0.7, 0.4]])
PATH = Graph(N, ((0, 1), (1, 2), (2, 3)))

MEMBERS = st.lists(
    st.one_of(
        st.integers(-2, N + 1),
        st.integers(0, N - 1).map(np.int64),
        st.booleans(),
        st.sampled_from([np.True_, np.False_]),
        st.integers(0, N - 1).map(float),
        st.floats(allow_nan=True),
    ),
    max_size=6,
)


def _oracle_set(members):
    def oracle(static, rounds):
        return members, 0.0

    trace = gftpl_run(STATIC, ROUNDS[:1], oracle, GftplConfig(N=N, eta=0.0), SeededRng(1))
    return trace.masks[0], trace.values[0]


APIS = {
    "gkp_profit": lambda s: gkp_profit(s, STATIC, ROUNDS[0]),
    "multi_gkp_profit": lambda s: multi_gkp_profit(s, STATIC, ROUNDS),
    "minmax_value": lambda s: minmax_value(s, W),
    "multi_minmax_cost": lambda s: multi_minmax_cost(s, ROWS),
    "is_vertex_cover": lambda s: is_vertex_cover(PATH, s),
    "gftpl_run": _oracle_set,
}


def _outcome(api, members):
    """("ok", result) or ("refused", the message from the member on)."""
    try:
        return "ok", api(members)
    except ValueError as exc:
        message = str(exc)
        assert " member " in message, message
        return "refused", message[message.index(" member ") :]


@settings(max_examples=300, deadline=None)
@given(MEMBERS)
@example([0, True])
@example([1.0])
@example([5, 1])
@example([np.int64(3), 0, 3])
def test_every_set_valued_api_applies_the_same_index_rule(members):
    valid = all(type(x) in (int, np.int64) and 0 <= x < N for x in members)
    outcomes = {name: _outcome(api, members) for name, api in APIS.items()}
    assert {kind for kind, _ in outcomes.values()} == {"ok" if valid else "refused"}
    if not valid:
        assert len({message for _, message in outcomes.values()}) == 1, outcomes
        return
    plain = frozenset(int(x) for x in members)
    for name, api in APIS.items():
        assert outcomes[name][1] == api(plain), name
    # and the plain set's results are the definitions
    r = ROUNDS[0]
    profit = sum(r.p[i] for i in plain) - STATIC.c * max(0.0, sum(STATIC.w[i] for i in plain) - r.B)
    assert outcomes["gkp_profit"][1] == pytest.approx(profit, abs=1e-12)
    assert outcomes["minmax_value"][1] == max((W[i] for i in plain), default=0.0)
    assert outcomes["is_vertex_cover"][1] == all(u in plain or v in plain for u, v in PATH.edges)
    assert outcomes["gftpl_run"][1][0] == sum(1 << i for i in plain)


# the integer-valued parameters: (the name a refusal gives, a call on x)
INT_PARAMS = {
    "PathChain": ("n_stages", lambda x: PathChain(x)),
    "PathChain.arc_index": ("stage", lambda x: PathChain(2).arc_index(x, "t")),
    "SeededRng.randrange": ("n", lambda x: SeededRng(1).randrange(x)),
    "SeededRng.random_array": ("k", lambda x: SeededRng(1).random_array(x)),
    "SeededRng.randrange_array.n": ("n", lambda x: SeededRng(1).randrange_array(x, 3)),
    "SeededRng.randrange_array.k": ("k", lambda x: SeededRng(1).randrange_array(3, x)),
    "is_three_colorable": ("n_colors", lambda x: is_three_colorable(PATH, n_colors=x)),
}

INTEGERS = st.one_of(
    st.integers(-2, 6),
    st.integers(-2, 6).map(np.int64),
    st.booleans(),
    st.sampled_from([np.True_, 2.0, 2.5, float("nan"), "3", None]),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(INT_PARAMS)), INTEGERS)
@example("PathChain", 2.5)  # each of these six was taken before the rule, or failed with a TypeError
@example("PathChain", True)
@example("PathChain", "3")
@example("PathChain.arc_index", 5)
@example("SeededRng.randrange", 2.5)
@example("SeededRng.randrange", True)
@example("SeededRng.random_array", True)
@example("is_three_colorable", True)
def test_every_integer_parameter_applies_the_index_rule(name, x):
    what, call = INT_PARAMS[name]
    if type(x) in (int, np.int64):
        try:
            call(x)
        except ValueError as exc:  # a range refusal, as of a stage past the chain
            assert "must be an integer" not in str(exc), name
        return
    with pytest.raises(ValueError) as exc:
        call(x)
    assert str(exc.value) == f"{what} must be an integer, got {x!r}", name


def test_a_stage_outside_the_chain_is_refused_by_the_index_rule():
    with pytest.raises(ValueError, match=r"^stage must be in \[0, 2\), got 5$"):
        PathChain(2).arc_index(5, "t")
    assert PathChain(np.int64(2)).n_arcs == 4 and type(PathChain(np.int64(2)).n_stages) is int
