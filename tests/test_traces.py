"""Trace construction invariants and CSV layouts."""

import re

import numpy as np
import pytest

from regretlab.traces import RegretTrace, format_action, mask_members, running_sums, trace_to_csv


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
