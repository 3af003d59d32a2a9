"""The knapsack round block: GkpRounds, its one reader stack_rounds, and
the writers and readers that use it.

The parser builds the block in one step and falls back to the per-round
rules only to name a refused round; the property below checks it against
those rules on arbitrary JSON round lists.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import regretlab
from regretlab.gftpl import GftplConfig, gftpl_run
from regretlab.gkp import brute_oracle, distinguisher_set
from regretlab.instances import (
    FormatError,
    GkpInstanceSet,
    GkpRound,
    GkpRounds,
    GkpStatic,
    check_round_length,
    gen_random_gkp,
    parse_gkp,
    random_gkp_rounds,
    stack_rounds,
)
from regretlab.rng import SeededRng

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

BLOCK = GkpRounds(2, [[1.0, 2.0], [3.0, 0.0], [0.5, 4.0]], [1.0, 0.0, 2.5])


# --- the block type --------------------------------------------------------------


def test_block_indexes_as_rounds_and_slices_as_blocks():
    assert len(BLOCK) == 3
    assert BLOCK[1] == GkpRound([3.0, 0.0], 0.0)
    assert type(BLOCK[-1].B) is float and BLOCK[-1] == GkpRound([0.5, 4.0], 2.5)
    tail = BLOCK[1:]
    assert type(tail) is GkpRounds and tail == GkpRounds(2, [[3.0, 0.0], [0.5, 4.0]], [0.0, 2.5])
    assert list(BLOCK) == [BLOCK[0], BLOCK[1], BLOCK[2]]
    assert BLOCK != GkpRounds(2, BLOCK.rows, [1.0, 0.0, 2.0])
    assert not BLOCK.rows.flags.writeable and not BLOCK.B.flags.writeable


@pytest.mark.parametrize(
    "rows, B, message",
    [
        ([[1.0, 2.0]], [1.0, 2.0], "capacities B must have shape (1,)"),
        ([[1.0, 2.0]], [[1.0]], "capacities B must be a list of numbers"),
        ([[1.0, 2.0]], [float("nan")], "capacities B must be a finite number in [0, inf), got nan"),
        ([[1.0, 2.0]], [-1.0], "capacities B must be a finite number in [0, inf), got -1.0"),
        ([[1.0, float("inf")]], [1.0], "profits p must be a finite number in [0, inf), got inf"),
        ([[1.0, -2.0]], [1.0], "profits p must be a finite number in [0, inf), got -2.0"),
        ([[1.0]], [1.0], "rows must have shape (m, 2)"),
        ([[[1.0], [2.0]]], [1.0], "rows must have shape (m, 2)"),
        ([[1.0, 2.0], [1.0]], [1.0, 1.0], "profits p must be rows of numbers"),
    ],
    ids=["B_long", "B_nested", "B_nan", "B_negative", "p_inf", "p_negative", "p_short", "p_nested", "p_ragged"],
)
def test_block_refuses_bad_fields_by_name(rows, B, message):
    with pytest.raises(ValueError) as e:
        GkpRounds(2, rows, B)
    assert str(e.value) == message


def test_stack_rounds_is_the_one_reader():
    assert stack_rounds(2, BLOCK) is BLOCK
    stacked = stack_rounds(2, list(BLOCK))
    assert stacked == BLOCK and stack_rounds(2, []) == GkpRounds(2, [], [])
    for rounds, k in (([BLOCK[0], GkpRound([1.0], 1.0)], 1), (GkpRounds(3, [[1.0] * 3], [1.0]), 0)):
        with pytest.raises(ValueError) as e:
            stack_rounds(2, rounds)
        assert str(e.value) == f"rounds[{k}]: profit vector length must match item count 2"
    for n in (1.0, True):  # the count is checked by the integer rule
        with pytest.raises(ValueError) as e:
            stack_rounds(n, [GkpRound([1.0], 0.0)])
        assert str(e.value) == f"n must be an integer, got {n!r}"


def test_writers_build_one_block():
    static = GkpStatic(3, [0.5, 1.0, 0.25], 1.0)
    assert type(random_gkp_rounds(static, 5, SeededRng(1))) is GkpRounds
    assert type(gen_random_gkp(3, 5, SeededRng(1)).rounds) is GkpRounds
    assert type(GkpInstanceSet(static, [GkpRound([1.0, 2.0, 3.0], 1.0)]).rounds) is GkpRounds
    marks = distinguisher_set(static, P=2.0)
    assert marks == GkpRounds(3, 2.0 * np.eye(3), [1.75] * 3)
    text = '{"w": [1.0], "c": 1.0, "rounds": [{"p": [3.0], "B": 2.0}, {"p": [0.0], "B": 0.5}]}'
    assert parse_gkp(text).rounds == GkpRounds(1, [[3.0], [0.0]], [2.0, 0.5])


def test_round_objects_are_built_only_in_instances():
    # every other module reads the block's columns
    src = Path(regretlab.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if re.search(r"\bGkpRound\(", p.read_text()))
    assert users == ["instances.py"]


# --- the engine reads the block --------------------------------------------------


def test_exact_run_over_a_block_builds_no_round_object(monkeypatch):
    static = GkpStatic(5, [0.25, 0.5, 0.75, 1.0, 0.5], 1.5)
    rounds = random_gkp_rounds(static, 150, SeededRng(3))
    cfg = GftplConfig(N=5)
    from_list = gftpl_run(static, list(rounds), None, cfg, SeededRng(4))
    built = []
    post_init = GkpRound.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(GkpRound, "__post_init__", counted)
    from_block = gftpl_run(static, rounds, None, cfg, SeededRng(4))
    assert built == []
    assert from_block.masks == from_list.masks and from_block.extras == from_list.extras


def test_a_callable_oracle_sees_the_callers_rounds_and_one_perturbation_block():
    static = GkpStatic(3, [0.5, 1.0, 0.25], 1.0)
    stream = list(random_gkp_rounds(static, 12, SeededRng(5)))
    queries = []

    def oracle(st, rounds):
        queries.append(rounds)
        return brute_oracle(st, rounds)

    gftpl_run(static, stream, oracle, GftplConfig(N=3), SeededRng(6))
    pert = queries[0]
    assert len(pert) == 3 and all(type(r) is GkpRound for r in pert)
    for t, query in enumerate(queries):
        assert type(query) is list and len(query) == t + 3
        assert all(a is b for a, b in zip(query[:t], stream))
        assert all(a is b for a, b in zip(query[t:], pert))


# --- the parser against the per-round rules ----------------------------------------


def per_round_verdict(text):
    """What parse_gkp answers under the per-round rules: each round checked
    as an object with 'p' and 'B', then as a GkpRound, in order; then each
    round's length. An error message, or the accepted rounds."""
    obj = json.loads(text)
    n = len(obj["w"])
    rounds = []
    for k, r in enumerate(obj["rounds"]):
        if not isinstance(r, dict) or "p" not in r or "B" not in r:
            return f"line 1: rounds[{k}] must be an object with keys 'p' and 'B'"
        try:
            rounds.append(GkpRound(r["p"], r["B"]))
        except ValueError as exc:
            return f"line 1: rounds[{k}]: {exc}"
    for k, r in enumerate(rounds):
        try:
            check_round_length(n, r, k)
        except ValueError as exc:
            return f"line 1: {exc}"
    return rounds


GOOD = st.floats(min_value=0.0, max_value=8.0)
ODD = st.sampled_from(
    [-1.0, -0.0, float("nan"), float("inf"), 10**400, 2**64 + 1, True, False, None,
     "1.5", " 2 ", "abc", "nan", [1.0], [], {}, 3]
)


@st.composite
def gkp_texts(draw):
    """A GKP file whose rounds are mostly well formed, with odd entries,
    profit vectors of any length or nesting, and rounds that are no
    object with 'p' and 'B'. Each choice is drawn from a range whose
    first value, the well-formed one, is what a failing example shrinks to."""
    n = draw(st.integers(1, 4))

    def one_in(k):
        return draw(st.sampled_from(range(k)))

    def entry():
        return draw(ODD) if one_in(20) == 1 else draw(GOOD)

    rounds = []
    for _ in range(draw(st.integers(0, 6))):
        kind = one_in(12)
        if kind == 1:
            p = [[entry()] for _ in range(n)]
        elif kind == 2:
            p = [entry() for _ in range(draw(st.integers(0, n + 1)))]
        elif kind == 3:
            p = draw(ODD)
        else:
            p = [entry() for _ in range(n)]
        r = {"p": p, "B": entry()}
        kind = one_in(24)
        if kind in (1, 2):
            del r["pB"[kind - 1]]
        elif kind == 3:
            r = [r["p"], r["B"]]
        elif kind == 4:
            r = r["B"]
        rounds.append(r)
    return json.dumps({"w": [1.0] * n, "c": 0.5, "rounds": rounds})


@settings(max_examples=500, deadline=None)
@given(gkp_texts())
@example('{"w": [1.0], "c": 0.5, "rounds": [{"p": [[1.0]], "B": 1.0}]}')
@example('{"w": [1.0], "c": 0.5, "rounds": [{"p": [[1.0]], "B": 1.0}, {"p": [[2.0]], "B": 1.0}]}')
@example('{"w": [1.0, 1.0], "c": 0.5, "rounds": [{"p": [1.0, 2.0], "B": 1.0}, {"p": [1.0], "B": 1.0}]}')
@example('{"w": [1.0], "c": 0.5, "rounds": [{"p": [1.0], "B": 1e400}]}')
@example('{"w": [1.0], "c": 0.5, "rounds": [{"p": [1.0], "B": ' + "9" * 400 + "}]}")
@example('{"w": [1.0], "c": 0.5, "rounds": [{"p": [1.0], "B": NaN}]}')
@example('{"w": [1.0], "c": 0.5, "rounds": [{"p": [1.0], "B": null}, {"p": [1.0], "B": "x"}]}')
@example('{"w": [1.0], "c": 0.5, "rounds": [{"p": [1.0], "B": true}, {"p": [1.0], "B": [1.0]}]}')
@example('{"w": [1.0], "c": 0.5, "rounds": [{"p": [1.0, 2.0], "B": 1.0}, {"p": [-1.0], "B": 1.0}]}')
def test_parser_gives_the_per_round_verdict(text):
    want = per_round_verdict(text)
    try:
        got = parse_gkp(text).rounds
    except FormatError as exc:
        got = str(exc)
    if isinstance(want, str):
        assert got == want
    else:
        assert type(got) is GkpRounds and len(got) == len(want)
        assert got.rows.tobytes() == b"".join(r.p.tobytes() for r in want)
        assert got.B.tobytes() == np.array([r.B for r in want]).tobytes()
