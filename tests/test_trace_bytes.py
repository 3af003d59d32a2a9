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
# two-digit vertices, so a cell must list its members in numeric order
# (2;10, not 10;2)
GRAPH12 = Graph(12, tuple((i, (i + 1) % 12) for i in range(12)) + ((0, 6), (2, 9), (3, 10)))
# no edges: the empty set is a cover, so cells can be empty
EDGELESS12 = Graph(12, ())


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


# instance files, by file name
INSTANCES = {
    "graph": lambda: serialize_graph(GRAPH),
    "graph12": lambda: serialize_graph(GRAPH12),
    "edgeless12": lambda: serialize_graph(EDGELESS12),
    "weights": lambda: serialize_weights(signed_zero_weights()),
    "gkp": lambda: serialize_gkp(gen_random_gkp(5, 24, SeededRng(17))),
    "gkp12": lambda: serialize_gkp(gen_random_gkp(12, 24, SeededRng(29))),
}

G, W, K = {"graph": "graph"}, {"graph": "graph", "weights": "weights"}, {"gkp": "gkp"}
G12, E12, K12 = {"graph": "graph12"}, {"graph": "edgeless12"}, {"gkp": "gkp12"}

# (algorithm, instance role -> file, params) per harness path
CONFIGS = {
    "ogd_uniform": ("ogd_vc", G, {"weight_gen": "uniform"}),
    "ogd_onehot": ("ogd_vc", G, {"weight_gen": "onehot"}),
    "ogd_weights_file": ("ogd_vc", W, {}),
    "gftpl_brute": ("gftpl_gkp", K, {"oracle": "brute"}),
    "gftpl_fptas": ("gftpl_gkp", K, {"oracle": "fptas", "round_source": "random"}),
    "gap_ftl": ("gap_solver", G, {"A": 0.2, "B": 0.5, "learner": "ftl"}),
    "gap_ogd": ("gap_solver", G, {"A": 0.2, "B": 0.6, "learner": "ogd"}),
    "ogd_n12": ("ogd_vc", G12, {"weight_gen": "uniform"}),
    "ogd_edgeless": ("ogd_vc", E12, {"weight_gen": "uniform"}),
    "gftpl_brute_n12": ("gftpl_gkp", K12, {"oracle": "brute"}),
    "gftpl_fptas_n12": ("gftpl_gkp", K12, {"oracle": "fptas"}),
    "gap_ftl_n12": ("gap_solver", G12, {"A": 0.2, "B": 0.5, "learner": "ftl"}),
    "gap_ogd_n12": ("gap_solver", G12, {"A": 0.2, "B": 0.5, "learner": "ogd"}),
    "gap_ftl_edgeless": ("gap_solver", E12, {"A": 0.2, "B": 0.6, "learner": "ftl"}),
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
    "ogd_n12": {
        "trace_seed0.csv": "90e631cb20e344bdbe3ee1af26627820bc7c104390b109b973d00b13f7878a17",
        "trace_seed1.csv": "7c0bbe91cc168a7db71a1b74b0583655eaa2eb884ee821739cc6cca4daa3bbae",
    },
    "ogd_edgeless": {
        "trace_seed0.csv": "d80062c3506d288d31786a4f527d6448c5e717832e9594717891fda182376e4e",
        "trace_seed1.csv": "31241bf0ec79f45727a0c9636038a8dd5fda8c86057af741483634ff4cefb8cf",
    },
    "gftpl_brute_n12": {
        "trace_seed0.csv": "5e29a1534fc89f8504ed5fbe670291412b39791e50d0bc75ad46bc4f61215f8e",
        "trace_seed1.csv": "87777e7ef9cccccd120cd40c3e3fb0293a5a3a9f82362365e1b38b0c23dad812",
    },
    "gftpl_fptas_n12": {
        "trace_seed0.csv": "5e29a1534fc89f8504ed5fbe670291412b39791e50d0bc75ad46bc4f61215f8e",
        "trace_seed1.csv": "87777e7ef9cccccd120cd40c3e3fb0293a5a3a9f82362365e1b38b0c23dad812",
    },
    "gap_ftl_n12": {
        "trace_seed0.csv": "0e74a69d414beeb36a9ff9b5a5978a5cd06473395a3d1b40a3b3ae387f6b03bf",
        "trace_seed1.csv": "5ee48e0c3da720a6ec37cf7c2f2f27730e53e71201d091182614c7daa8148d52",
    },
    "gap_ogd_n12": {
        "trace_seed0.csv": "030fdadcf292f2549e7bd2c6d7b738dd2008c29ed7eebdd627af0c392f84e4fe",
        "trace_seed1.csv": "b5f0d5cc867d36b6fe704a80e0c8f01928ebe3533778fa6925c7acd7d64d9753",
    },
    "gap_ftl_edgeless": {
        "trace_seed0.csv": "886da135bf0f6b34ed01b4bc94aee985acc194672372e55794cfc83436342177",
        "trace_seed1.csv": "886da135bf0f6b34ed01b4bc94aee985acc194672372e55794cfc83436342177",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_csv_bytes_are_pinned(capsys, tmp_path, name):
    algorithm, instance, params = CONFIGS[name]
    for file in instance.values():
        (tmp_path / file).write_text(INSTANCES[file]())
    cfg = {"algorithm": algorithm, "instance": instance, "T": 24, "seeds": [0, 1], "params": params}
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    main(["run", str(tmp_path / "exp.json"), "-o", str(tmp_path / "out")])
    capsys.readouterr()
    traces = sorted((tmp_path / "out").glob("trace_*.csv"))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in traces}
    assert digests == PINNED[name]
    text = traces[0].read_text()
    if name == "ogd_weights_file":
        assert "1,0;1;2;3;4;5;6,-0.0,-0.0," in text
    if name == "ogd_n12":
        assert "\n24,0;1;2;3;5;6;8;9;10,0.974633721800292," in text
    if name in ("ogd_edgeless", "gap_ftl_edgeless"):
        assert f"\n{text.count(chr(10))},,0.0,0.0" in text  # the last row plays the empty set
