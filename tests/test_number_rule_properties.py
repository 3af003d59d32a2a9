"""Property check of the one number rule across the real-valued APIs.

Every scalar real parameter a caller passes goes through
traces.checked_real: the config classes, the bounds, the oracles' grid
parameters, the generators, the RNG's uniform draws, the GKP fields and
the experiment params. On any value each entry point must refuse exactly
what is not a finite real in its interval (NaN, an infinity, a bool, a
str, None, an int too large for a float, or a number outside it), with
one ValueError that names the parameter, and give equal results for the
int, float and np.float64 forms of a value it accepts. The array fields
check their least and greatest entry by the same rule.
"""

import math
import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regretlab.gftpl import (  # noqa: E402
    GftplConfig,
    PerturbationVector,
    default_eta,
    epsilon_prime,
    gftpl_run,
    theorem3_bound,
)
from regretlab.gkp import (  # noqa: E402
    ExcessFunction,
    distinguisher_set,
    exact_dp_oracle,
    excess_value,
    fptas_grid_info,
    fptas_oracle,
)
from regretlab.harness import ExperimentConfig, compute_regret  # noqa: E402
from regretlab.instances import (  # noqa: E402
    GkpRound,
    GkpRounds,
    GkpStatic,
    Graph,
    WeightSequence,
    gen_random_graph,
    gen_uniform_weights,
)
from regretlab.ogd import OgdConfig, ogd_run, theorem2_bound  # noqa: E402
from regretlab.reductions import FtlMinMaxVcLearner, GapConfig, gap_solver  # noqa: E402
from regretlab.rng import SeededRng  # noqa: E402

STATIC = GkpStatic(2, [0.5, 1.0], 2.0)
ROUNDS = [GkpRound([1.0, 2.0], 1.0), GkpRound([0.5, 0.0], 2.0)]
K4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
PATH = Graph(3, ((0, 1), (1, 2)))
PAYOFF_TRACE = gftpl_run(STATIC, ROUNDS, None, GftplConfig(N=2, eta=0.0), SeededRng(1))
COST_TRACE = ogd_run(PATH, WeightSequence(3, [[0.5, 1.0, 0.25], [1.0, 0.0, 0.5]]))
MAX = sys.float_info.max


def _gftpl(field):
    if field == "eps":
        return lambda x: GftplConfig(N=2, eps_schedule=("additive", x))
    return lambda x: GftplConfig(N=2, **{field: x})


def _gap(field):
    return lambda x: GapConfig(**{"A": 0.25, "B": 0.75, field: x})


class Entry(NamedTuple):
    what: str  # the name a refusal gives
    call: Callable
    interval: str
    # for a call that also relates the value to another one, the values in
    # the interval that relation passes
    relation: Callable | None = None
    nullable: bool = False  # None means "not set" and is taken


SCALARS = [
    Entry("W_bound", lambda x: OgdConfig(W_bound=x), "(0, inf)"),
    Entry("A", lambda x: GapConfig(A=x, B=1.0), "[0, 1]", relation=lambda v: v < 1.0),
    Entry("B", lambda x: GapConfig(A=0.0, B=x), "[0, 1]", relation=lambda v: v > 0.0),
    Entry("regret coefficient p_coeff", _gap("p_coeff"), "(0, inf)"),
    Entry("regret exponent c_exp", _gap("c_exp"), "[0, 1)"),
    Entry("eta", _gftpl("eta"), "[0, inf)", nullable=True),
    Entry("kappa", _gftpl("kappa"), "[1, inf)"),
    Entry("delta", _gftpl("delta"), "(0, inf)"),
    Entry("G_gamma", _gftpl("G_gamma"), "[0, inf)"),
    Entry("G_f", _gftpl("G_f"), "[0, inf)"),
    Entry("F_M", _gftpl("F_M"), "[0, inf)"),
    Entry("eps", _gftpl("eps"), "[0, inf)", nullable=True),
    Entry("eta", lambda x: PerturbationVector([0.5], x), "[0, inf)", relation=lambda v: v >= 0.5),
    Entry("eps", lambda x: default_eta(GftplConfig(N=2), x, 4), "[0, inf)"),
    Entry("eps", lambda x: theorem3_bound(GftplConfig(N=2), x, 4), "[0, inf)"),
    Entry("eps", lambda x: epsilon_prime(x, 4, GftplConfig(N=2, eta=1.0)), "[0, inf)"),
    Entry("W", lambda x: theorem2_bound(x, 3, 4), "[0, inf)"),
    Entry("total weight W", lambda x: excess_value(x, ExcessFunction([1.0, 2.0])), "[0, inf)"),
    Entry("marker profit P", lambda x: distinguisher_set(STATIC, x), "(0, inf)"),
    Entry("maximization alpha", lambda x: compute_regret(PAYOFF_TRACE, x), "(0, 1]"),
    Entry("minimization alpha", lambda x: compute_regret(COST_TRACE, x), "[1, inf)"),
    Entry("edge probability p", lambda x: gen_random_graph(5, x, SeededRng(1)), "[0, 1]"),
    Entry("W", lambda x: gen_uniform_weights(2, 2, x, SeededRng(1)), "[0, inf)"),
    Entry("low", lambda x: SeededRng(1).uniform(x, x), "(-inf, inf)"),
    Entry("high", lambda x: SeededRng(1).uniform(-MAX, x), "(-inf, inf)"),
    Entry("low", lambda x: SeededRng(1).uniform_array(x, x, 2), "(-inf, inf)"),
    Entry("penalty rate c", lambda x: GkpStatic(1, [1.0], x), "[0, inf)"),
    Entry("capacity B", lambda x: GkpRound([1.0], x), "[0, inf)"),
    Entry("profit_grid", lambda x: exact_dp_oracle(STATIC, [], x), "(0, inf)"),
    Entry("eps", lambda x: fptas_oracle(STATIC, [], x), "(0, inf)"),
    Entry("eps", lambda x: fptas_grid_info(STATIC, [], x), "(0, inf)"),
    Entry("eps", lambda x: gap_solver(K4, GapConfig(0.25, 0.75, T_override=3), FtlMinMaxVcLearner(K4),
                                      SeededRng(1), eps=x), "(0, inf)"),
    Entry("A", lambda x: ExperimentConfig("gap_solver", {"graph": "g"}, 4, (0,), {"A": x, "B": 1.0}),
          "[0, 1]", relation=lambda v: v < 1.0),
]

ARRAYS = [
    ("item weights w", lambda a: GkpStatic(len(a), a, 1.0), "[0, inf)"),
    ("profits p", lambda a: GkpRound(a, 1.0), "[0, inf)"),
    ("weights", lambda a: WeightSequence(len(a), [a]), "[0, inf)"),
    ("capacities B", lambda a: GkpRounds(1, [[1.0]] * len(a), a), "[0, inf)"),
    ("perturbation a", lambda a: PerturbationVector(a, 1.0), "[0, 1]"),
]

VALUES = st.one_of(
    st.floats(),
    st.floats(-2.0, 3.0),
    st.integers(-3, 3),
    st.floats(-2.0, 3.0).map(np.float64),
    st.sampled_from([True, False, np.True_, np.False_, None, "0.5", "nan", 10**400, -(10**400), 2**53 + 1,
                     0.0, -0.0, 0.5, 1.0, MAX, -MAX, 5e-324]),
)


def _bounds(interval):
    low, high = map(float, interval[1:-1].split(", "))
    return low, high, interval[0] == "(", interval[-1] == ")"


def _number(x):
    """x as the float the rule reads, or None when it is no real number."""
    if x is None or isinstance(x, (bool, np.bool_, str)):
        return None
    try:
        return float(x)
    except OverflowError:
        return None


def _inside(v, interval):
    low, high, open_low, open_high = _bounds(interval)
    return (math.isfinite(v) and (low < v if open_low else low <= v)
            and (v < high if open_high else v <= high))


def _refusal(what, interval, v, x):
    return f"{what} must be a finite number in {interval}, got {v if v is not None else x!r}"


def _key(result):
    """The result in a form == compares, NaN and arrays included."""
    if isinstance(result, np.ndarray):
        return repr(result.tolist())
    if isinstance(result, PerturbationVector):
        return repr((result.a.tolist(), result.eta))
    if isinstance(result, float):
        return repr(result)
    return result


def _forms(v):
    """The float, np.float64 and, when one reads back as v (so not for
    -0.0), int forms of the value v."""
    forms = [v, np.float64(v)]
    if v.is_integer() and repr(float(int(v))) == repr(v):
        forms.append(int(v))
    return forms


@settings(max_examples=200, deadline=None)
@given(VALUES)
@example(float("nan"))  # PerturbationVector([0.5], nan) constructed
@example(True)
@example("2")
@example(10**400)
@example(None)
@example(float("inf"))
@example(float("-inf"))
def test_every_real_parameter_applies_the_same_number_rule(x):
    v = _number(x)
    for what, call, interval, relation, nullable in SCALARS:
        if x is None and nullable:
            call(x)
        elif v is None or not _inside(v, interval):
            with pytest.raises(ValueError) as e:
                call(x)
            assert str(e.value) == _refusal(what, interval, v, x), what
        elif relation is not None and not relation(v):
            with pytest.raises(ValueError) as e:  # the relation refuses it, not the value's own rule
                call(x)
            assert not str(e.value).startswith(f"{what} must be"), what
        else:
            results = [_key(call(form)) for form in _forms(v)]
            assert results[1:] == results[:-1], what
            assert _key(call(x)) == results[0], what


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(0.0, 1.0)), min_size=1, max_size=4))
@example([float("nan"), 0.5])  # PerturbationVector(np.array([nan, 0.5]), 1.0) constructed
@example([0.5, float("inf")])
@example([-0.0, 1.0])
def test_array_fields_check_their_least_and_greatest_entry_by_the_number_rule(values):
    a = np.array(values)
    for what, call, interval in ARRAYS:
        lo, hi = float(a.min()), float(a.max())
        if _inside(lo, interval) and _inside(hi, interval):
            call(a)
            continue
        with pytest.raises(ValueError) as e:
            call(a)
        assert str(e.value) == _refusal(what, interval, hi if _inside(lo, interval) else lo, None), what
