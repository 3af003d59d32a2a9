"""The streamed trace CSV at its block boundaries.

run_experiment writes each trace file block by block from
trace_csv_blocks. For every CSV layout and for horizons on both sides of
the block size, the file must hold exactly trace_to_csv's text, which
must equal a row-by-row rendering of the same trace.
"""

import pytest

from regretlab.harness import _REPLICAS, ExperimentConfig, _load_instances, run_experiment
from regretlab.instances import Graph, gen_random_gkp, serialize_gkp, serialize_graph
from regretlab.rng import SeededRng
from regretlab.traces import _CSV_BLOCK_ROWS, _LAYOUTS, format_action, trace_csv_blocks, trace_to_csv

B = _CSV_BLOCK_ROWS
HORIZONS = [0, 1, B - 1, B, B + 1, 2 * B + 3]
GRAPH = Graph(7, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))

# one config per layout; the gap decider answers No on GRAPH, so it plays every round
LAYOUT_CONFIGS = {
    "ogd_vc": ({"graph": "graph"}, {"weight_gen": "uniform"}),
    "gap_solver": ({"graph": "graph"}, {"A": 0.2, "B": 0.5, "learner": "ftl"}),
    "gftpl_gkp": ({"gkp": "gkp"}, {"oracle": "brute", "round_source": "random"}),
}


def row_by_row(trace) -> str:
    """The CSV text built one row at a time, with no blocks."""
    layout = _LAYOUTS[trace.algorithm]
    columns = [getattr(trace, key) if key in ("values", "cumulatives") else trace.extras[key] for _, key in layout]
    lines = [",".join(["t", "played_set", *(name for name, _ in layout)])]
    for t in range(trace.T):
        lines.append(",".join([str(t + 1), format_action(trace.masks[t]), *(repr(float(c[t])) for c in columns)]))
    return "\n".join(lines)


@pytest.mark.parametrize("algorithm", sorted(LAYOUT_CONFIGS))
def test_run_experiment_writes_trace_to_csv_across_block_boundaries(tmp_path, algorithm):
    assert sorted(LAYOUT_CONFIGS) == sorted(_LAYOUTS)
    (tmp_path / "graph").write_text(serialize_graph(GRAPH))
    (tmp_path / "gkp").write_text(serialize_gkp(gen_random_gkp(5, 1, SeededRng(17))))
    roles, params = LAYOUT_CONFIGS[algorithm]
    instance = {role: str(tmp_path / file) for role, file in roles.items()}
    cfg = ExperimentConfig(algorithm, instance, 0, (0,), params | {"T_sweep": HORIZONS})
    run_experiment(cfg, tmp_path / "out")
    inst = _load_instances(cfg)
    for T in HORIZONS:
        trace, _ = _REPLICAS[algorithm](cfg, inst, T, 0)
        assert trace.T == T
        blocks = list(trace_csv_blocks(trace))
        assert len(blocks) == 1 + -(-T // B)  # the header, then one string per started block
        text = trace_to_csv(trace)
        assert text == "".join(blocks) == row_by_row(trace)
        assert (tmp_path / "out" / f"trace_T{T}_seed0.csv").read_bytes() == text.encode()
