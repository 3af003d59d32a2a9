"""Deterministic-PRNG tests: frozen golden sequences and distribution sanity."""

import numpy as np
import pytest

from regretlab.rng import SeededRng


def test_seed_zero_matches_published_sequence():
    # First three outputs of the splitmix-style generator for seed 0,
    # cross-checked against an independent implementation of the same
    # constants.
    r = SeededRng(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_golden_u64_seed_1234567():
    r = SeededRng(1234567)
    got = [r.next_u64() for _ in range(3)]
    assert got == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_golden_floats_seed_42():
    r = SeededRng(42)
    got = [r.random() for _ in range(4)]
    frozen = [
        0.7415648787718233,
        0.1599103928769201,
        0.27860113025513866,
        0.34419071652363753,
    ]
    assert got == pytest.approx(frozen, abs=0.0)


def test_same_seed_same_stream():
    a = SeededRng(99)
    b = SeededRng(99)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_differ():
    a = SeededRng(1)
    b = SeededRng(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_random_in_unit_interval():
    r = SeededRng(7)
    for _ in range(10_000):
        x = r.random()
        assert 0.0 <= x < 1.0


@pytest.mark.parametrize("seed", [0, 42, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("k", [0, 1, 7, 1000, 20000])
def test_random_array_matches_scalar_stream(seed, k):
    # byte for byte, and the stream continues where k scalar draws leave it
    a = SeededRng(seed)
    b = SeededRng(seed)
    b.next_u64()  # both mid-stream, so the state is not the seed
    a.next_u64()
    got = a.random_array(k)
    want = np.array([b.random() for _ in range(k)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (k,)
    assert got.tobytes() == want.tobytes()
    assert a.random() == b.random()
    assert a.next_u64() == b.next_u64()


def test_random_array_consecutive_calls_continue_the_stream():
    a = SeededRng(5)
    b = SeededRng(5)
    got = np.concatenate([a.random_array(3), a.random_array(0), a.random_array(4)])
    assert got.tolist() == [b.random() for _ in range(7)]


def test_uniform_respects_bounds():
    r = SeededRng(8)
    for _ in range(1000):
        x = r.uniform(-2.5, 3.5)
        assert -2.5 <= x <= 3.5


def test_uniform_degenerate_interval():
    r = SeededRng(3)
    assert r.uniform(1.25, 1.25) == 1.25


def test_randrange_covers_all_residues():
    r = SeededRng(11)
    seen = {r.randrange(5) for _ in range(500)}
    assert seen == {0, 1, 2, 3, 4}


def test_randrange_unbiased_enough():
    # 6000 draws over 3 buckets: each should be near 2000 (within 5 sigma).
    r = SeededRng(12)
    counts = [0, 0, 0]
    for _ in range(6000):
        counts[r.randrange(3)] += 1
    for c in counts:
        assert abs(c - 2000) < 5 * (6000 * (1 / 3) * (2 / 3)) ** 0.5


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        SeededRng(-1)
    r = SeededRng(0)
    with pytest.raises(ValueError):
        r.randrange(0)
    with pytest.raises(ValueError):
        r.uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        r.random_array(-1)
