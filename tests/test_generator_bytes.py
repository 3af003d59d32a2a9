"""Pinned generator bytes: each seeded generator must serialize to exactly
the recorded sha256 and leave its stream where the recorded next output
says.

Every random instance, weight row and perturbation comes from one
SeededRng stream, so a generator that draws its floats differently (in
another order, through another formula, or more or fewer of them) shows
up here even when it is deterministic. The second value of each pin is
``next_u64()`` after the call, which pins how far the generator advanced
the stream. A deliberate change of output must re-record the digests and
say why.
"""

import hashlib

import pytest

from regretlab.gftpl import GftplConfig, draw_perturbation
from regretlab.instances import (
    gen_random_gkp,
    gen_random_graph,
    gen_uniform_weights,
    serialize_instances,
)
from regretlab.rng import SeededRng

# (n, p, seed) -> (sha256 of the serialized graph, next u64)
GRAPHS = {
    (1, 0.5, 0): ("8fad34bbb0c1ed095fbf1b50cb0e48785a030d5af68dc1a4957cbb583c3c1e5a",
                  16294208416658607535),
    (9, 0.0, 2): ("07535269e14de8153b0220b0d8b742ba18aff2f7c332e47de669f5bd0cba6d30",
                  5143158031459654716),
    (12, 1.0, 8): ("cefe0096d285b83d6555dbafa8e1a38bc7abe60cdde953dccc557ab57f0162c4",
                   12475158164626385333),
    (7, 0.4, 3): ("1169d82d85818670a5b4259ede09abd3557f60e11fe4b3050c2c5fc7915ab9d6",
                  17260623008238897606),
    (20, 0.3, 905): ("1408a3b74a585500d33435bc797ac47c30b5b2336aabdbcc0d6ae227cd7a8bd8",
                     16389408431165762943),
}

# (n, T, W, seed) -> (sha256 of the serialized weight rows, next u64)
WEIGHTS = {
    (5, 0, 1.0, 1): ("a01dd16ab61f62004ba3738b6b8a99ca8d7752e7e38a28764280ae5b2715d811",
                     10451216379200822465),
    (1, 3, 7.25, 2): ("4d242ecd4c4dc7942899ccdaea78c768fcbc453728ffdd048a391b10ceb43bc8",
                      14119491246550939236),
    (4, 6, 0.0, 3): ("a604aac8d6274b1baba029f170b80daab93cbfe10770b70efdbadf1f6786a712",
                     11481903486168252308),
    (3, 4, 1e-300, 4): ("f95fbf919fd52c5c490a02a20898052e02de4adf8103c3972111e03864eb0fe0",
                        10020680461118706364),
    (20, 50, 1.0, 905): ("2c774edc848989dc058093ab84e0d42a4b0424bb252e3aafb95461e6218cbfd9",
                         1653850392314058175),
}

# (n, m, seed) -> (sha256 of the serialized GKP set, next u64)
GKPS = {
    (1, 0, 0): ("f441d9c5841e59ec9c0521139c4577a45f3fe9dd9f9e23a5dfa128f9c2189b64",
                487617019471545679),
    (3, 4, 5): ("e4f413bc74f97029fdfe468ab950a263330a343b22a2c6b833fac06e13e13aa2",
                2118876895552091609),
    (5, 24, 17): ("e663ae68d2f7cebbf52e97544388ae1002be3e15cf93180bf535d6a36fd389b5",
                  7151993847206156255),
    (8, 64, 905): ("af9398b9d4a291ad4ca316ac5fd2e8637d31b762c5d4189c68b66c3bf39e1711",
                   14614391967148003819),
}

# (N, eta, seed) -> (sha256 of the perturbation's float64 bytes, next u64)
PERTURBATIONS = {
    (1, 0.0, 0): ("af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
                  7960286522194355700),
    (6, 2.5, 11): ("a5efc6c833ae996379b623bbf726e28e8eb35bc4b37558227251424b07aaa113",
                   1854164870865395556),
    (8, 31.75, 905): ("b0e1cf15aec870c8cbae13d4bd636bbae2c9a1c6ccef733c16b40a2277ef38cb",
                      12908328931675524225),
}


def _pin(obj, rng: SeededRng) -> tuple[str, int]:
    return hashlib.sha256(serialize_instances(obj).encode()).hexdigest(), rng.next_u64()


@pytest.mark.parametrize("n, p, seed", sorted(GRAPHS))
def test_random_graph_bytes_are_pinned(n, p, seed):
    rng = SeededRng(seed)
    assert _pin(gen_random_graph(n, p, rng), rng) == GRAPHS[n, p, seed]


@pytest.mark.parametrize("n, T, W, seed", sorted(WEIGHTS))
def test_uniform_weights_bytes_are_pinned(n, T, W, seed):
    rng = SeededRng(seed)
    assert _pin(gen_uniform_weights(n, T, W, rng), rng) == WEIGHTS[n, T, W, seed]


@pytest.mark.parametrize("n, m, seed", sorted(GKPS))
def test_random_gkp_bytes_are_pinned(n, m, seed):
    rng = SeededRng(seed)
    assert _pin(gen_random_gkp(n, m, rng), rng) == GKPS[n, m, seed]


@pytest.mark.parametrize("N, eta, seed", sorted(PERTURBATIONS))
def test_perturbation_bytes_are_pinned(N, eta, seed):
    rng = SeededRng(seed)
    a = draw_perturbation(GftplConfig(N=N, eta=eta), rng).a
    assert (hashlib.sha256(a.tobytes()).hexdigest(), rng.next_u64()) == PERTURBATIONS[N, eta, seed]
