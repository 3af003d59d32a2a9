"""Pinned trace bytes: one small config per harness path, run through
``regretlab run``, must write trace CSVs with exactly the recorded sha256.

Rerun tests compare two runs of one version; these compare against bytes
recorded once, so a change in any float path or in the CSV rendering shows
up here even when it is deterministic. A deliberate change of output must
re-record the digests and say why.
"""

import hashlib
import json

import pytest

from regretlab.cli import main
from regretlab.instances import (
    Graph,
    WeightSequence,
    gen_random_gkp,
    serialize_gkp,
    serialize_graph,
    serialize_weights,
)
from regretlab.rng import SeededRng

GRAPH = Graph(7, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))


def signed_zero_weights():
    """24 rows for GRAPH: every third row all -0.0, the others a mix of
    -0.0, 0.0 and floats in [0, 1). An all-zero row's costs keep the sign
    numpy's max gives them, so the trace has -0.0 cells."""
    rng = SeededRng(23)
    rows = []
    for t in range(24):
        row = [(-0.0, 0.0, rng.uniform(0.0, 1.0))[rng.randrange(3)] for _ in range(GRAPH.n)]
        rows.append(row if t % 3 else [-0.0] * GRAPH.n)
    return WeightSequence(GRAPH.n, rows)


# (algorithm, instance roles, params) per harness path
CONFIGS = {
    "ogd_uniform": ("ogd_vc", ("graph",), {"weight_gen": "uniform"}),
    "ogd_onehot": ("ogd_vc", ("graph",), {"weight_gen": "onehot"}),
    "ogd_weights_file": ("ogd_vc", ("graph", "weights"), {}),
    "gftpl_brute": ("gftpl_gkp", ("gkp",), {"oracle": "brute"}),
    "gftpl_fptas": ("gftpl_gkp", ("gkp",), {"oracle": "fptas", "round_source": "random"}),
    "gap_ftl": ("gap_solver", ("graph",), {"A": 0.2, "B": 0.5, "learner": "ftl"}),
    "gap_ogd": ("gap_solver", ("graph",), {"A": 0.2, "B": 0.6, "learner": "ogd"}),
}

PINNED = {
    "ogd_uniform": {
        "trace_seed0.csv": "e3b3ce671f6e15ab881b42d4f1869475b0d701afb78e9bdc1e606a5ecf1a0aa3",
        "trace_seed1.csv": "707cff62e0cbdc0135058a48e01bf55f6381bd0b7d24d61b58fad45902aa305e",
    },
    "ogd_onehot": {
        "trace_seed0.csv": "46fd46e5de2c10efe585169b855f01cdf6c1d2015fd6bad7d0c36161ecd76717",
        "trace_seed1.csv": "6ffc136dffe5f024038ff09fa50e254124ee83f984964c0e545dc09560a46a3b",
    },
    "ogd_weights_file": {
        "trace_seed0.csv": "128713f5c80bf1c0c63500b7e7603feab6524375208e28b894c2c25155e0b188",
        "trace_seed1.csv": "128713f5c80bf1c0c63500b7e7603feab6524375208e28b894c2c25155e0b188",
    },
    "gftpl_brute": {
        "trace_seed0.csv": "b5b446633f0924b00a5e4062df56644ea499fad0946eb4cdd6aa45cc39a5af23",
        "trace_seed1.csv": "b5b446633f0924b00a5e4062df56644ea499fad0946eb4cdd6aa45cc39a5af23",
    },
    "gftpl_fptas": {
        "trace_seed0.csv": "ba9cae1adb01998c72a0d4163b4b782ea156b26d9a6b42b60037baf8664010a8",
        "trace_seed1.csv": "28211073b31c86eece779205b1e654488feef6de38a49929716400cb72d761da",
    },
    "gap_ftl": {
        "trace_seed0.csv": "8211818653655776d98fe6594e4b28334ea91961c74dc11f8324534ee67c2876",
        "trace_seed1.csv": "015ee0629faec097f52c60ebf5a0cbf341262bf0d420e054dc7d157159063b75",
    },
    "gap_ogd": {
        "trace_seed0.csv": "c9a7d03e3af4f8f3230620bba7e43a67d55bcb70da83f70750486a220ae81bf3",
        "trace_seed1.csv": "af1b10579a2750cb11dbfc51a28f4f89c2406949b47179d616b461472a6ff803",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_csv_bytes_are_pinned(capsys, tmp_path, name):
    algorithm, roles, params = CONFIGS[name]
    (tmp_path / "graph").write_text(serialize_graph(GRAPH))
    (tmp_path / "weights").write_text(serialize_weights(signed_zero_weights()))
    (tmp_path / "gkp").write_text(serialize_gkp(gen_random_gkp(5, 24, SeededRng(17))))
    cfg = {"algorithm": algorithm, "instance": {r: r for r in roles}, "T": 24, "seeds": [0, 1],
           "params": params}
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    main(["run", str(tmp_path / "exp.json"), "-o", str(tmp_path / "out")])
    capsys.readouterr()
    traces = sorted((tmp_path / "out").glob("trace_*.csv"))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in traces}
    assert digests == PINNED[name]
    if name == "ogd_weights_file":
        assert "1,0;1;2;3;4;5;6,-0.0,-0.0," in traces[0].read_text()
