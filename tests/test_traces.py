"""Trace construction invariants and CSV layouts."""

import re
from pathlib import Path

import numpy as np
import pytest

import regretlab
from regretlab.traces import (
    RegretTrace,
    checked_index,
    checked_int,
    checked_mask,
    format_action,
    mask_members,
    running_sums,
    trace_to_csv,
)


def test_cumulatives_are_the_exact_running_sum():
    values = (0.1, 0.2, -0.0, 0.3)
    tr = RegretTrace(algorithm="gap_solver", masks=[0b1] * 4, values=values)
    running = 0.0
    for v, c in zip(values, tr.cumulatives, strict=True):
        running += v
        assert repr(c) == repr(running)
    assert tr.cumulatives[1] == 0.1 + 0.2 != 0.3  # added in order, not rounded
    assert tr.cumulative == tr.cumulatives[-1]
    # the sum starts at 0.0, so a leading -0.0 cost prints as 0.0
    first = RegretTrace(algorithm="gap_solver", masks=[0], values=[-0.0])
    assert repr(first.cumulatives[0]) == "0.0"
    assert trace_to_csv(first).split("\n")[1] == "1,,-0.0,0.0"
    assert running_sums([]) == ()


def test_columns_must_have_one_entry_per_round():
    with pytest.raises(ValueError, match="column 'values' has 1 entries for 2 rounds"):
        RegretTrace(algorithm="gap_solver", masks=[0, 0], values=[1.0])
    with pytest.raises(ValueError, match="column 'frac_cost' has 3 entries for 2 rounds"):
        RegretTrace(
            algorithm="ogd_vc",
            masks=[0, 0],
            values=[1.0, 1.0],
            extras={"frac_cost": [0.5, 0.5, 0.5]},
        )


def test_unknown_algorithm_is_rejected():
    with pytest.raises(ValueError, match="unknown algorithm 'ogd'"):
        RegretTrace(algorithm="ogd", masks=(), values=())


def test_empty_trace():
    tr = RegretTrace(algorithm="ogd_vc", masks=(), values=())
    assert tr.T == 0
    assert tr.cumulative == 0.0
    assert tr.cumulatives == ()


def test_format_action():
    assert format_action(0b111) == "0;1;2"
    assert format_action(0) == ""
    assert format_action(1 << 10 | 1 << 2) == "2;10"  # numeric order, not text order
    assert mask_members(1 << 10 | 1 << 2) == [2, 10]
    assert mask_members(0) == []


def test_actions_are_derived_from_the_masks():
    tr = RegretTrace(algorithm="gap_solver", masks=[0b101, 0, 0b101], values=[1.0, 0.0, 1.0])
    assert tr.masks == (0b101, 0, 0b101)
    assert tr.actions == (frozenset({0, 2}), frozenset(), frozenset({0, 2}))
    assert tr.actions is tr.actions  # derived once
    with pytest.raises(AttributeError):
        tr.actions = ()
    assert tr == RegretTrace(algorithm="gap_solver", masks=(0b101, 0, 0b101), values=(1.0, 0.0, 1.0))


@pytest.mark.parametrize(
    "bad, shown",
    [(True, "True"), (False, "False"), (-1, "-1"), (2.0, "2.0"), (frozenset({1}), "frozenset({1})"),
     (np.int64(3), "np.int64(3)"), ("3", "'3'"), (None, "None")],
)
def test_trace_refuses_a_mask_that_is_not_a_nonnegative_int(bad, shown):
    with pytest.raises(ValueError, match=rf"^round 2: a played set must be a nonnegative int mask, got {re.escape(shown)}$"):
        RegretTrace(algorithm="gap_solver", masks=[0b1, bad, 0b1], values=[1.0, 0.0, 1.0])


def test_ogd_csv_layout():
    tr = RegretTrace(
        algorithm="ogd_vc",
        masks=[0b11],
        values=[0.5],
        extras={"frac_cost": [0.25], "cum_frac": [0.25], "bound_additive": [3.0]},
    )
    lines = trace_to_csv(tr).split("\n")
    assert lines[0] == "t,played_set,int_cost,frac_cost,cum_int,cum_frac,bound_additive"
    assert lines[1] == "1,0;1,0.5,0.25,0.5,0.25,3.0"


def test_gftpl_csv_layout():
    tr = RegretTrace(
        algorithm="gftpl_gkp",
        masks=[0],
        values=[1.5],
        extras={
            "perturbed_obj": [9.0],  # kept on the trace, not in the CSV
            "best_static_cum": [2.0],
            "regret": [0.5],
            "theorem3_bound": [4.0],
        },
    )
    lines = trace_to_csv(tr).split("\n")
    assert lines[0] == "t,played_set,payoff,cum_payoff,best_static_cum,regret,theorem3_bound"
    assert lines[1] == "1,,1.5,1.5,2.0,0.5,4.0"


def test_gap_solver_csv_layout():
    tr = RegretTrace(algorithm="gap_solver", masks=[0b1] * 2, values=[1.0, 0.0])
    assert trace_to_csv(tr).split("\n") == ["t,played_set,cost,cum_cost", "1,0,1.0,1.0", "2,0,0.0,1.0"]


# --- the index rule ----------------------------------------------------------------


def test_checked_int_takes_ints_and_integer_numpy_scalars():
    assert checked_int(7, "x") == 7
    got = checked_int(np.int64(-3), "x")
    assert got == -3 and type(got) is int


@pytest.mark.parametrize(
    "x, shown",
    [(True, "True"), (np.True_, "np.True_"), (1.0, "1.0"), (np.float64(2.0), "np.float64(2.0)"),
     ("1", "'1'"), (None, "None")],
    ids=["bool", "numpy_bool", "float", "numpy_float", "text", "none"],
)
def test_checked_int_refuses_bools_and_non_integers(x, shown):
    with pytest.raises(ValueError) as e:
        checked_int(x, "a count")
    assert str(e.value) == f"a count must be an integer, got {shown}"


def test_checked_index_adds_the_range():
    assert checked_index(np.uint8(2), 3, "v") == 2
    for bad in (-1, 3, 2**70):
        with pytest.raises(ValueError) as e:
            checked_index(bad, 3, "a vertex")
        assert str(e.value) == f"a vertex must be in [0, 3), got {bad}"
    with pytest.raises(ValueError) as e:
        checked_index(False, 3, "a vertex")
    assert str(e.value) == "a vertex must be an integer, got False"


def test_checked_mask_checks_each_member():
    assert checked_mask([2, np.int64(0), 2], 3, "s") == 0b101
    assert checked_mask((), 0, "s") == 0
    with pytest.raises(ValueError) as e:
        checked_mask({0, True}, 3, "an item set")  # {0, True} has two members
    assert str(e.value) == "an item set member must be an integer, got True"
    with pytest.raises(ValueError) as e:
        checked_mask([0, 3], 3, "an item set")
    assert str(e.value) == "an item set member must be in [0, 3), got 3"
    with pytest.raises(ValueError) as e:
        checked_mask(5, 3, "an item set")
    assert str(e.value) == "an item set must be an iterable of indices, got 5"


def test_operator_index_is_written_only_in_the_index_rule():
    # a second copy of the rule would call operator.index on its own
    src = Path(regretlab.__file__).parent
    users = sorted(
        p.name for p in src.glob("*.py")
        if re.search(r"\boperator\.index\b|from operator import[^\n]*\bindex\b", p.read_text())
    )
    assert users == ["traces.py"]


def test_math_isfinite_is_written_only_in_the_number_rule():
    # a second copy of the rule would test finiteness on its own
    src = Path(regretlab.__file__).parent
    users = sorted(
        p.name for p in src.glob("*.py")
        if re.search(r"\bmath\.isfinite\b|from math import[^\n]*\bisfinite\b", p.read_text())
    )
    assert users == ["traces.py"]


def test_np_isfinite_and_isnan_appear_nowhere_in_the_library():
    # arrays are checked by instances.checked_array alone, through the
    # number rule on their least and greatest entries
    src = Path(regretlab.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if re.search(r"\bnp\.is(finite|nan)\b", p.read_text()))
    assert users == []
