"""Instance types, file formats, and seeded generators."""

import re

import numpy as np
import pytest

from regretlab.instances import (
    Dnf3Formula,
    FormatError,
    GkpInstanceSet,
    GkpRound,
    GkpStatic,
    Graph,
    ProcTimeMatrix,
    WeightSequence,
    gen_onehot_weights,
    gen_random_dnf,
    gen_random_gkp,
    gen_random_graph,
    gen_uniform_weights,
    parse_dnf,
    parse_gkp,
    parse_graph,
    parse_proc_times,
    parse_weights,
    random_gkp_rounds,
    serialize_dnf,
    serialize_gkp,
    serialize_graph,
    serialize_instances,
    serialize_proc_times,
    serialize_weights,
)
from regretlab.gftpl import GftplConfig, theorem3_bound
from regretlab.harness import ExperimentConfig
from regretlab.ogd import theorem2_bound
from regretlab.reductions import GapConfig
from regretlab.rng import SeededRng


# --- types ---------------------------------------------------------------


def test_graph_canonicalizes_edge_order():
    g = Graph(3, ((2, 1), (0, 2)))
    assert g.edges == ((1, 2), (0, 2))
    assert g.m == 2


def test_graph_needs_integer_endpoints():
    with pytest.raises(ValueError, match=r"^edge \(0\.5,1\): an endpoint must be an integer, got 0\.5$"):
        Graph(3, ((0.5, 1),))
    with pytest.raises(ValueError, match=r"^edge \(True,2\): an endpoint must be an integer, got True$"):
        Graph(3, ((True, 2),))  # was the edge (1, 2)
    g = Graph(3, ((np.int64(2), np.int64(0)),))
    assert g.edges == ((0, 2),) and type(g.edges[0][0]) is int


@pytest.mark.parametrize(
    "edges, message",
    [
        (((0, 3),), "edge (0,3): an endpoint must be in [0, 3), got 3"),
        (((1, 1),), "self-loop at vertex 1"),
        (((0, 1), (1, 0)), "duplicate edge (0,1)"),
    ],
)
def test_graph_and_its_parser_share_one_edge_rule(edges, message):
    with pytest.raises(ValueError) as e:
        Graph(3, edges)
    assert str(e.value) == message
    text = "\n".join([f"3 {len(edges)}"] + [f"{u} {v}" for u, v in edges])
    with pytest.raises(FormatError) as e:
        parse_graph(text)
    assert str(e.value) == f"line {len(edges) + 1}: {message}"


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))  # duplicate after canonicalization
    with pytest.raises(ValueError):
        Graph(0, ())


def test_weight_sequence_shape_and_immutability():
    seq = WeightSequence(2, [[1.0, 0.0], [0.5, 2.0]])
    assert seq.T == 2
    with pytest.raises(ValueError):
        seq.rows[0, 0] = 9.0
    with pytest.raises(ValueError):
        WeightSequence(2, [[1.0, -0.1]])
    with pytest.raises(ValueError):
        WeightSequence(2, [[1.0]])


def test_row_matrices_share_a_body_but_stay_distinct_types():
    rows = [[1.0, 0.0], [0.5, 2.0]]
    seq, mat = WeightSequence(2, rows), ProcTimeMatrix(2, rows)
    assert seq != mat and mat != seq
    assert not isinstance(mat, WeightSequence) and not isinstance(seq, ProcTimeMatrix)
    assert seq == WeightSequence(2, rows) and mat == ProcTimeMatrix(2, rows)
    with pytest.raises(ValueError, match=r"^weights must have shape \(T, 3\)$"):
        WeightSequence(3, rows)
    with pytest.raises(ValueError, match=r"^processing times must have shape \(N, 3\)$"):
        ProcTimeMatrix(3, rows)
    with pytest.raises(ValueError, match=r"^processing times must be a finite number in \[0, inf\), got -1\.0$"):
        ProcTimeMatrix(2, [[1.0, -1.0]])


def test_row_matrices_name_their_field_for_rows_that_are_not_numbers():
    for rows in ("abc", [[1.0, "x"]], [[1.0], [1.0, 2.0]], [[1.0, object()]]):
        with pytest.raises(ValueError, match="^weights must be rows of numbers$"):
            WeightSequence(2, rows)
        with pytest.raises(ValueError, match="^processing times must be rows of numbers$"):
            ProcTimeMatrix(2, rows)


def test_weight_sequence_empty():
    seq = WeightSequence(3, np.zeros((0, 3)))
    assert seq.T == 0


def test_gkp_types_validate():
    static = GkpStatic(2, [1.0, 2.0], 1.5)
    assert static.total_weight == 3.0
    with pytest.raises(ValueError):
        GkpStatic(2, [1.0, -2.0], 1.0)
    with pytest.raises(ValueError):
        GkpStatic(2, [1.0, 2.0], -0.5)
    with pytest.raises(ValueError):
        GkpRound([1.0, -1.0], 0.5)
    with pytest.raises(ValueError):
        GkpRound([1.0, 1.0], -0.5)
    with pytest.raises(ValueError):
        GkpInstanceSet(static, (GkpRound([1.0], 1.0),))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GkpRound("abc", 1.0), "profits p must be a list of numbers"),
        (lambda: GkpRound([[1.0]], 1.0), "profits p must be a list of numbers"),
        # the ids name the rule each value breaks
        pytest.param(lambda: GkpRound([1.0], "x"), "capacity B must be a finite number in [0, inf), got 'x'",
                     id="<lambda>-capacity B must be a number0"),
        pytest.param(lambda: GkpRound([1.0], None), "capacity B must be a finite number in [0, inf), got None",
                     id="<lambda>-capacity B must be a number1"),
        pytest.param(lambda: GkpRound([1.0], -1.0), "capacity B must be a finite number in [0, inf), got -1.0",
                     id="<lambda>-capacity B must be nonnegative"),
        (lambda: GkpStatic(1, "abc", 1.0), "item weights w must be a list of numbers"),
        (lambda: GkpStatic(2, [1.0], 1.0), "item weights w must have length 2"),
        pytest.param(lambda: GkpStatic(1, [1.0], [1.0]), "penalty rate c must be a finite number in [0, inf), got [1.0]",
                     id="<lambda>-penalty rate c must be a number"),
        pytest.param(lambda: GkpStatic(1, [1.0], -0.5), "penalty rate c must be a finite number in [0, inf), got -0.5",
                     id="<lambda>-penalty rate c must be nonnegative"),
    ],
)
def test_gkp_types_name_the_field_of_a_bad_value(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


def test_gkp_instance_set_names_the_round_of_the_wrong_length():
    static = GkpStatic(2, [1.0, 1.0], 1.0)
    with pytest.raises(ValueError) as e:
        GkpInstanceSet(static, (GkpRound([1.0, 1.0], 1.0), GkpRound([1.0], 1.0)))
    assert str(e.value) == "rounds[1]: profit vector length must match item count 2"


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: GkpRound([1.0, NAN], 0.5), "profits p"),
        (lambda: GkpRound([INF, 1.0], 0.5), "profits p"),
        (lambda: GkpRound([1.0, 1.0], NAN), "capacity B"),
        (lambda: GkpRound([1.0, 1.0], INF), "capacity B"),
        (lambda: GkpStatic(2, [1.0, NAN], 1.0), "item weights w"),
        (lambda: GkpStatic(2, [INF, 1.0], 1.0), "item weights w"),
        (lambda: GkpStatic(2, [1.0, 2.0], NAN), "penalty rate c"),
        (lambda: GkpStatic(2, [1.0, 2.0], INF), "penalty rate c"),
        (lambda: WeightSequence(2, [[NAN, 0.5]]), "weights"),
        (lambda: WeightSequence(2, [[INF, 0.5]]), "weights"),
        (lambda: ProcTimeMatrix(2, [[1.0, NAN]]), "processing times"),
        (lambda: parse_weights("n=2\nnan,0.5"), "line 2: weights"),
        (lambda: parse_weights("n=2\n0.5,inf"), "line 2: weights"),
        (lambda: parse_proc_times("n=2\n1.0,2.0\nnan,0.5"), "line 3: processing times"),
        (lambda: parse_gkp('{"w": [NaN], "c": 1.0, "rounds": []}'), "line 1: item weights w"),
        (lambda: parse_gkp('{"w": [1.0], "c": Infinity, "rounds": []}'), "line 1: penalty rate c"),
        (
            lambda: parse_gkp('{"w": [1.0], "c": 1.0, "rounds": [{"p": [1.0], "B": 1.0}, {"p": [Infinity], "B": 1.0}]}'),
            "line 1: rounds[1]: profits p",
        ),
        (lambda: parse_gkp('{"w": [1.0], "c": 1.0, "rounds": [{"p": [1.0], "B": NaN}]}'), "line 1: rounds[0]: capacity B"),
    ],
)
def test_non_finite_numbers_rejected_at_the_boundary(build, field):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be a finite number in \[0, inf\), got (nan|inf)$"):
        build()


def test_dnf_validation_and_satisfaction():
    f = Dnf3Formula(3, (((0, True), (1, False), (2, True)),))
    assert f.m == 1
    assert f.num_satisfied([True, False, True]) == 1
    assert f.num_satisfied([True, True, True]) == 0
    with pytest.raises(ValueError):
        Dnf3Formula(3, (((0, True), (0, False), (2, True)),))
    with pytest.raises(ValueError):
        Dnf3Formula(2, (((0, True), (1, False), (2, True)),))


@pytest.mark.parametrize(
    "clause, message",
    [
        (((0.5, True), (1, True), (2, True)), "a clause variable must be an integer, got 0.5"),
        (((0, True), (1, "no"), (2, True)), "sign 'no' of variable 1 must be a bool"),
        (((0, True), (1, 1), (2, True)), "sign 1 of variable 1 must be a bool"),
        (((0, True), (1, True), (3, True)), "a clause variable must be in [0, 3), got 3"),
        (((0, True), (1, True)), "each clause must have exactly 3 literals, got 2"),
        (((0, True), (0, False), (2, True)), "clause literals must use distinct variables"),
        (((0, True), (True, True), (2, True)), "a clause variable must be an integer, got True"),
    ],
)
def test_dnf_clause_rule(clause, message):
    with pytest.raises(ValueError) as e:
        Dnf3Formula(3, (clause,))
    assert str(e.value) == message


def test_dnf_accepts_numpy_variables_and_signs():
    f = Dnf3Formula(3, (((np.int64(0), np.True_), (1, False), (2, True)),))
    assert f.clauses == (((0, True), (1, False), (2, True)),)
    assert type(f.clauses[0][0][0]) is int and type(f.clauses[0][0][1]) is bool


# --- graph format ---------------------------------------------------------


def test_graph_round_trip():
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert parse_graph(serialize_graph(g)) == g


def test_graph_single_vertex():
    assert serialize_graph(Graph(1, ())) == "1 0"
    assert parse_graph("1 0") == Graph(1, ())


def test_graph_examples():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g == Graph(3, ((0, 1), (1, 2)))
    # trailing newline tolerated
    assert parse_graph("3 2\n0 1\n1 2\n") == g


def test_graph_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as e:
        parse_graph("3\n0 1")
    assert e.value.line == 1
    with pytest.raises(FormatError) as e:
        parse_graph("3 2\n0 1\n0 5")
    assert e.value.line == 3
    with pytest.raises(FormatError) as e:
        parse_graph("3 2\n0 1\n1 1")
    assert e.value.line == 3
    with pytest.raises(FormatError) as e:
        parse_graph("3 2\n0 1\n1 0")
    assert e.value.line == 3
    with pytest.raises(FormatError) as e:
        parse_graph("3 3\n0 1\n1 2")
    assert e.value.line == 1


# --- CSV row formats --------------------------------------------------------


def test_weights_round_trip_exact():
    rng = SeededRng(5)
    seq = gen_uniform_weights(4, 7, 2.5, rng)
    again = parse_weights(serialize_weights(seq))
    assert again == seq  # bitwise-equal floats via repr round-trip


def test_weights_header_and_errors():
    text = "n=2\n1.0,2.0\n0.25,0.5"
    seq = parse_weights(text)
    assert seq.T == 2 and seq.n == 2
    with pytest.raises(FormatError) as e:
        parse_weights("2\n1.0,2.0")
    assert e.value.line == 1
    with pytest.raises(FormatError) as e:
        parse_weights("n=2\n1.0,2.0,3.0")
    assert e.value.line == 2
    with pytest.raises(FormatError) as e:
        parse_weights("n=2\n1.0,x")
    assert e.value.line == 2
    with pytest.raises(FormatError) as e:
        parse_weights("n=2\n1.0,-1.0")
    assert e.value.line == 2


def test_row_parse_reports_the_first_row_the_type_refuses():
    with pytest.raises(FormatError) as e:
        parse_weights("n=2\n1.0,2.0\n\n1.0,-1.0\nnan,1.0")
    assert str(e.value) == "line 4: weights must be a finite number in [0, inf), got -1.0"
    with pytest.raises(FormatError) as e:
        parse_proc_times("n=2\n1.0,inf\n1.0,-1.0")
    assert str(e.value) == "line 2: processing times must be a finite number in [0, inf), got inf"


def test_proc_times_round_trip():
    mat = ProcTimeMatrix(3, [[1.0, 2.0, 3.0], [0.0, 0.5, 1.5]])
    assert parse_proc_times(serialize_proc_times(mat)) == mat
    assert mat.N == 2


# --- GKP JSON ---------------------------------------------------------------


def test_gkp_round_trip():
    inst = gen_random_gkp(3, 4, SeededRng(17))
    again = parse_gkp(serialize_gkp(inst))
    assert again.static == inst.static
    assert again.rounds == inst.rounds


def test_gkp_parse_example():
    text = '{"w": [1.0, 2.0], "c": 1.0, "rounds": [{"p": [3.0, 1.0], "B": 2.0}]}'
    inst = parse_gkp(text)
    assert inst.static.n == 2
    assert inst.static.c == 1.0
    assert inst.rounds[0].B == 2.0
    assert np.array_equal(inst.rounds[0].p, [3.0, 1.0])


def test_gkp_parse_errors():
    with pytest.raises(FormatError):
        parse_gkp("{not json")
    with pytest.raises(FormatError):
        parse_gkp('{"w": [1.0], "c": 1.0}')
    with pytest.raises(FormatError):
        parse_gkp('{"w": [1.0], "c": 1.0, "rounds": [{"p": [1.0]}]}')


@pytest.mark.parametrize(
    "text, message",
    [
        ("5", "top level must be a JSON object"),
        ('{"w": 5, "c": 1.0, "rounds": []}', "item weights w must be a list of numbers"),
        ('{"w": [1.0], "c": [1.0], "rounds": []}', "penalty rate c must be a finite number in [0, inf), got [1.0]"),
        ('{"w": [1.0], "c": null, "rounds": []}', "penalty rate c must be a finite number in [0, inf), got None"),
        ('{"w": [1.0], "c": 1.0, "rounds": 5}', "'rounds' must be a list"),
        ('{"w": [1.0], "c": 1.0, "rounds": [5]}', "rounds[0] must be an object with keys 'p' and 'B'"),
        ('{"w": [1.0], "c": 1.0, "rounds": [{"p": [1.0], "B": 1.0}, {"p": [1.0]}]}', "rounds[1] must be an object"),
        ('{"w": [1.0], "c": 1.0, "rounds": [{"p": "x", "B": 1.0}]}', "rounds[0]: profits p must be a list of numbers"),
        ('{"w": [1.0], "c": 1.0, "rounds": [{"p": [1.0], "B": "x"}]}',
         "rounds[0]: capacity B must be a finite number in [0, inf), got 'x'"),
        ('{"w": [1.0], "c": 1.0, "rounds": [{"p": [1.0, 2.0], "B": 1.0}]}', "rounds[0]: profit vector length"),
        ('{"w": [1.0], "c": 1.0, "rounds": [{"p": [1.0], "B": 1.0}, {"p": [-1.0], "B": 1.0}]}',
         "rounds[1]: profits p must be a finite number in [0, inf), got -1.0"),
        ('{"w": [1.0], "c": 1.0, "rounds": [{"p": [1.0], "B": -1.0}]}',
         "rounds[0]: capacity B must be a finite number in [0, inf), got -1.0"),
        ('{"w": [-1.0], "c": 1.0, "rounds": []}', "item weights w must be a finite number in [0, inf), got -1.0"),
        ('{"w": [1.0], "c": "0.5", "rounds": []}', "penalty rate c must be a finite number in [0, inf), got '0.5'"),
        ('{"w": [1.0], "c": true, "rounds": []}', "penalty rate c must be a finite number in [0, inf), got True"),
        ('{"w": [1.0], "c": 1.0, "rounds": [{"p": [1.0], "B": "1.5"}]}',
         "rounds[0]: capacity B must be a finite number in [0, inf), got '1.5'"),
        ('{"w": [true], "c": 1.0, "rounds": []}', "item weights w must be a finite number in [0, inf), got True"),
        ('{"w": ["1.0"], "c": 1.0, "rounds": []}', "item weights w must be a finite number in [0, inf), got '1.0'"),
        ('{"w": [1.0], "c": 1.0, "rounds": [{"p": ["0.5"], "B": 1.0}]}',
         "rounds[0]: profits p must be a finite number in [0, inf), got '0.5'"),
        ('{"w": [1.0, 1.0], "c": 1.0, "rounds": [{"p": [1.0, 2.0], "B": 1.0}, {"p": [1.0, true], "B": 1.0}]}',
         "rounds[1]: profits p must be a finite number in [0, inf), got True"),
        ('{"w": [1.0], "c": 1.0, "rounds": [{"p": [1.0], "B": 1.0}, {"p": [1.0], "B": false}]}',
         "rounds[1]: capacity B must be a finite number in [0, inf), got False"),
    ],
)
def test_gkp_parse_errors_name_the_field_and_round(text, message):
    with pytest.raises(FormatError) as e:
        parse_gkp(text)
    assert e.value.line == 1
    assert str(e.value).startswith(f"line 1: {message}")


# --- DNF format --------------------------------------------------------------


def test_dnf_round_trip():
    f = Dnf3Formula(
        4,
        (
            ((0, True), (1, False), (2, True)),
            ((1, True), (2, True), (3, False)),
        ),
    )
    assert serialize_dnf(f) == "1 -2 3\n2 3 -4"
    assert parse_dnf(serialize_dnf(f)) == f


def test_dnf_parse_infers_n_from_max_literal():
    f = parse_dnf("1 -2 3")
    assert f.n == 3
    f5 = parse_dnf("1 -2 3", n=5)
    assert f5.n == 5


def test_dnf_parse_with_explicit_n_reports_the_line():
    with pytest.raises(FormatError) as e:
        parse_dnf("1 2 3\n1 2 7", n=5)
    assert e.value.line == 2
    assert str(e.value) == "line 2: a clause variable must be in [0, 5), got 6"
    with pytest.raises(FormatError) as e:
        parse_dnf("1 2 3 4")
    assert str(e.value) == "line 1: each clause must have exactly 3 literals, got 4"


def test_dnf_parse_errors():
    with pytest.raises(FormatError) as e:
        parse_dnf("1 -2")
    assert e.value.line == 1
    with pytest.raises(FormatError) as e:
        parse_dnf("1 -2 3\n1 0 2")
    assert e.value.line == 2
    with pytest.raises(FormatError) as e:
        parse_dnf("1 -1 2")
    assert e.value.line == 1


# --- dispatch ----------------------------------------------------------------


def test_serialize_instances_dispatch():
    g = Graph(2, ((0, 1),))
    assert serialize_instances(g) == serialize_graph(g)
    with pytest.raises(TypeError):
        serialize_instances(object())


# --- generators ---------------------------------------------------------------


@pytest.mark.parametrize(
    "W, message",
    [(NAN, "W must be a finite number in [0, inf), got nan"), (INF, "W must be a finite number in [0, inf), got inf"),
     (-1.0, "W must be a finite number in [0, inf), got -1.0")],
    # the ids name the rule each value breaks
    ids=["nan-W must be finite", "inf-W must be finite", "-1.0-W must be nonnegative"],
)
def test_uniform_weights_refuse_a_bad_ceiling_before_drawing(W, message):
    rng = SeededRng(1)
    with pytest.raises(ValueError) as e:
        gen_uniform_weights(2, 3, W, rng)
    assert str(e.value) == message
    assert rng.next_u64() == SeededRng(1).next_u64()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Graph(2.5, ()), "n must be an integer, got 2.5"),
        (lambda: Graph(True, ()), "n must be an integer, got True"),
        (lambda: Dnf3Formula(3.0), "n must be an integer, got 3.0"),
        (lambda: GkpStatic(True, [1.0], 1.0), "n must be an integer, got True"),
        (lambda: WeightSequence(2.0, [[1.0, 2.0]]), "n must be an integer, got 2.0"),
        (lambda: ProcTimeMatrix(np.float64(1.0), [[1.0]]), "n must be an integer, got np.float64(1.0)"),
        (lambda: gen_random_graph(3.0, 0.5, SeededRng(1)), "n must be an integer, got 3.0"),
        (lambda: gen_uniform_weights(3, 2.5, 1.0, SeededRng(1)), "T must be an integer, got 2.5"),
        (lambda: gen_onehot_weights(True, 2, SeededRng(1)), "n must be an integer, got True"),
        (lambda: gen_random_dnf(4, 1.5, SeededRng(1)), "m must be an integer, got 1.5"),
        (lambda: gen_random_gkp(2.0, 1, SeededRng(1)), "n must be an integer, got 2.0"),
        (lambda: random_gkp_rounds(GkpStatic(1, [1.0], 1.0), 2.0, SeededRng(1)), "m must be an integer, got 2.0"),
        (lambda: GapConfig(A=0.1, B=0.5, T_override=2.5), "T_override must be an integer, got 2.5"),
        (lambda: GftplConfig(N=2.5), "N must be an integer, got 2.5"),
        (lambda: theorem2_bound(1.0, 2.5, 4), "n must be an integer, got 2.5"),
        (lambda: theorem3_bound(GftplConfig(N=2), 0.5, 4.0), "T must be an integer, got 4.0"),
        (lambda: SeededRng(True), "seed must be an integer, got True"),
        (lambda: SeededRng(1.5), "seed must be an integer, got 1.5"),
        (lambda: ExperimentConfig("ogd_vc", {"graph": "g"}, 2.5, (0,)), "T must be an integer, got 2.5"),
        (lambda: ExperimentConfig("ogd_vc", {"graph": "g"}, 4, (0, 1.5)), "a seed must be an integer, got 1.5"),
    ],
    ids=["graph_float", "graph_bool", "dnf_float", "gkp_static_bool", "weights_float",
         "proc_times_numpy_float", "gen_graph_float", "gen_uniform_T_float", "gen_onehot_bool",
         "gen_dnf_m_float", "gen_gkp_float", "gkp_rounds_m_float", "gap_T_override_float", "gftpl_N_float",
         "theorem2_n_float", "theorem3_T_float", "seed_bool", "seed_float", "experiment_T_float",
         "experiment_seed_float"],
)
def test_counts_go_through_the_index_rule(make, message):
    # all were accepted, or (gen_uniform_weights, T_override in the gap
    # decider, a float seed) a raw TypeError
    with pytest.raises(ValueError) as e:
        make()
    assert str(e.value) == message
    assert Graph(np.int64(2), ((0, 1),)) == Graph(2, ((0, 1),))


def test_generators_deterministic():
    g1 = gen_random_graph(8, 0.4, SeededRng(3))
    g2 = gen_random_graph(8, 0.4, SeededRng(3))
    assert g1 == g2
    s1 = gen_uniform_weights(3, 5, 1.0, SeededRng(4))
    s2 = gen_uniform_weights(3, 5, 1.0, SeededRng(4))
    assert s1 == s2
    f1 = gen_random_dnf(6, 9, SeededRng(5))
    f2 = gen_random_dnf(6, 9, SeededRng(5))
    assert f1 == f2


def test_random_dnf_refuses_a_negative_clause_count():
    rng = SeededRng(5)
    with pytest.raises(ValueError, match=r"^need m >= 0 clauses, got m=-1$"):
        gen_random_dnf(6, -1, rng)
    assert rng.next_u64() == SeededRng(5).next_u64()  # refused before drawing
    assert gen_random_dnf(6, 0, rng).clauses == ()


def test_random_graph_edge_probability():
    # n=40 gives 780 pairs; p=0.4 -> mean 312, sd ~13.7; allow 5 sigma.
    g = gen_random_graph(40, 0.4, SeededRng(10))
    assert abs(g.m - 312) < 5 * (780 * 0.4 * 0.6) ** 0.5
    assert gen_random_graph(5, 0.0, SeededRng(1)).m == 0
    assert gen_random_graph(5, 1.0, SeededRng(1)).m == 10


def test_onehot_rows_are_one_hot():
    seq = gen_onehot_weights(4, 50, SeededRng(2))
    for t in range(seq.T):
        row = seq.rows[t]
        assert row.sum() == 1.0
        assert set(np.unique(row)) <= {0.0, 1.0}


def test_onehot_coordinate_counts_concentrate():
    # n=2, T=10000: each coordinate is chosen ~5000 times; 3 sigma = 150.
    seq = gen_onehot_weights(2, 10_000, SeededRng(1))
    counts = seq.rows.sum(axis=0)
    assert abs(counts[0] - 5000) <= 150
    assert abs(counts[1] - 5000) <= 150


def test_uniform_weights_sample_mean():
    # n=1, T=10^4, W=1: the sample mean must sit within 0.02 of 1/2.
    seq = gen_uniform_weights(1, 10_000, 1.0, SeededRng(1))
    assert abs(seq.rows.mean() - 0.5) < 0.02


def test_uniform_weights_respect_cap():
    seq = gen_uniform_weights(3, 100, 2.0, SeededRng(6))
    assert seq.rows.min() >= 0.0
    assert seq.rows.max() <= 2.0


def test_random_dnf_shape():
    f = gen_random_dnf(5, 12, SeededRng(9))
    assert f.n == 5 and f.m == 12
    for clause in f.clauses:
        assert len({v for v, _ in clause}) == 3


def test_random_gkp_shape():
    inst = gen_random_gkp(6, 4, SeededRng(13))
    assert inst.static.n == 6
    assert len(inst.rounds) == 4
    for r in inst.rounds:
        assert 0.0 <= r.B <= inst.static.total_weight
