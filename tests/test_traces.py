"""Trace construction invariants and CSV layouts."""

import pytest

from regretlab.traces import RegretTrace, format_action, running_sums, trace_to_csv


def test_cumulatives_are_the_exact_running_sum():
    values = (0.1, 0.2, -0.0, 0.3)
    tr = RegretTrace(algorithm="gap_solver", actions=[frozenset({0})] * 4, values=values)
    running = 0.0
    for v, c in zip(values, tr.cumulatives, strict=True):
        running += v
        assert repr(c) == repr(running)
    assert tr.cumulatives[1] == 0.1 + 0.2 != 0.3  # added in order, not rounded
    assert tr.cumulative == tr.cumulatives[-1]
    # the sum starts at 0.0, so a leading -0.0 cost prints as 0.0
    first = RegretTrace(algorithm="gap_solver", actions=[frozenset()], values=[-0.0])
    assert repr(first.cumulatives[0]) == "0.0"
    assert trace_to_csv(first).split("\n")[1] == "1,,-0.0,0.0"
    assert running_sums([]) == ()


def test_columns_must_have_one_entry_per_round():
    with pytest.raises(ValueError, match="column 'values' has 1 entries for 2 rounds"):
        RegretTrace(algorithm="gap_solver", actions=[frozenset(), frozenset()], values=[1.0])
    with pytest.raises(ValueError, match="column 'frac_cost' has 3 entries for 2 rounds"):
        RegretTrace(
            algorithm="ogd_vc",
            actions=[frozenset(), frozenset()],
            values=[1.0, 1.0],
            extras={"frac_cost": [0.5, 0.5, 0.5]},
        )


def test_unknown_algorithm_is_rejected():
    with pytest.raises(ValueError, match="unknown algorithm 'ogd'"):
        RegretTrace(algorithm="ogd", actions=(), values=())


def test_empty_trace():
    tr = RegretTrace(algorithm="ogd_vc", actions=(), values=())
    assert tr.T == 0
    assert tr.cumulative == 0.0
    assert tr.cumulatives == ()


def test_format_action():
    assert format_action(frozenset({2, 0, 1})) == "0;1;2"
    assert format_action(frozenset()) == ""
    assert format_action((0, 2, 1)) == "0;2;1"
    assert format_action(("t", "f")) == "t;f"


def test_ogd_csv_layout():
    tr = RegretTrace(
        algorithm="ogd_vc",
        actions=[frozenset({1, 0})],
        values=[0.5],
        extras={"frac_cost": [0.25], "cum_frac": [0.25], "bound_additive": [3.0]},
    )
    lines = trace_to_csv(tr).split("\n")
    assert lines[0] == "t,played_set,int_cost,frac_cost,cum_int,cum_frac,bound_additive"
    assert lines[1] == "1,0;1,0.5,0.25,0.5,0.25,3.0"


def test_gftpl_csv_layout():
    tr = RegretTrace(
        algorithm="gftpl_gkp",
        actions=[frozenset()],
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
    tr = RegretTrace(algorithm="gap_solver", actions=[frozenset({0})] * 2, values=[1.0, 0.0])
    assert trace_to_csv(tr).split("\n") == ["t,played_set,cost,cum_cost", "1,0,1.0,1.0", "2,0,0.0,1.0"]
