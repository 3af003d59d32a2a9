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


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize(
    "low, high", [(0.0, 1.0), (-2.0, 3.0), (0.1, 1.0), (1.25, 1.25), (0.0, 0.0), (0.0, -0.0),
                  (0.0, 1e-300), (-7.5, -0.5)]
)
@pytest.mark.parametrize("k", [0, 1, 9, 500])
def test_uniform_array_matches_scalar_uniform(seed, low, high, k):
    a, b = SeededRng(seed), SeededRng(seed)
    got = a.uniform_array(low, high, k)
    want = np.array([b.uniform(low, high) for _ in range(k)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (k,)
    assert got.tobytes() == want.tobytes()
    assert a._state == b._state
    assert a.next_u64() == b.next_u64()


def test_uniform_array_degenerate_and_empty():
    r = SeededRng(3)
    assert r.uniform_array(1.25, 1.25, 4).tolist() == [1.25] * 4
    state = r._state
    assert r.uniform_array(0.0, 1.0, 0).shape == (0,)
    assert r._state == state  # an empty block draws nothing


def test_uniform_array_rejects_a_reversed_range_without_drawing():
    r = SeededRng(4)
    with pytest.raises(ValueError, match="low <= high"):
        r.uniform_array(2.0, 1.0, 3)
    with pytest.raises(ValueError, match="k >= 0"):
        r.uniform_array(0.0, 1.0, -1)
    assert r._state == SeededRng(4)._state


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


def test_randrange_refuses_a_bound_above_2_64_at_once():
    # the rejection limit 2**64 - 2**64 % n is 0 for such n: every draw
    # would be rejected, and the loop would never return
    r = SeededRng(1)
    for n in (2**64 + 1, 2**65, 2**70 + 3):
        with pytest.raises(ValueError, match=r"1 <= n <= 2\*\*64"):
            r.randrange(n)
        with pytest.raises(ValueError, match=r"1 <= n <= 2\*\*64"):
            r.randrange_array(n, 3)
        with pytest.raises(ValueError, match=r"1 <= n <= 2\*\*64"):
            r.randrange_array(n, 0)
    assert r._state == SeededRng(1)._state  # nothing was drawn


def test_randrange_takes_2_64_as_the_whole_output():
    a, b = SeededRng(7), SeededRng(7)
    assert [a.randrange(2**64) for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert a.randrange_array(2**64, 5) == [b.next_u64() for _ in range(5)]


def test_randrange_array_rejection_fallback_runs_mid_block():
    # at n = 2**63 + 1 the rejection limit is n itself, so about half of
    # the draws are rejected: each block of 40 meets one and falls back
    n = 2**63 + 1
    for seed in range(20):
        probe = SeededRng(seed)
        assert any(probe.next_u64() >= n for _ in range(40))
        a, b = SeededRng(seed), SeededRng(seed)
        assert a.randrange_array(n, 40) == [b.randrange(n) for _ in range(40)]
        assert a._state == b._state
