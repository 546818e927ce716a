"""Counter-based stream tests."""

import numpy as np

from gapdims import rng

MASK = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15

# published splitmix64 outputs for seed 0
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def splitmix64(seed: int, counter: int) -> int:
    """Reference splitmix64 word on Python integers (mod 2^64)."""
    z = (seed + counter * GOLDEN) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_mixed_words_known_answer():
    words = rng._mixed_words(0, np.array([1, 2, 3], dtype=np.uint64))
    assert words.tolist() == list(SPLITMIX64_SEED0)
    assert [splitmix64(0, i) for i in (1, 2, 3)] == list(SPLITMIX64_SEED0)


def test_derive_seed_matches_reference():
    seeds = (0, 1, 99, -1, -2 ** 63, 2 ** 63, MASK, 2 ** 64, 2 ** 64 + 5, 3 ** 50, -(3 ** 50))
    streams = (0, 1, 7, 2 ** 32, 2 ** 63 - 1, 2 ** 64 - 1, 2 ** 64, 5 ** 30)
    for m in seeds:
        for t in streams:
            assert rng.derive_seed(m, t) == splitmix64(m, t + 1), (m, t)


def test_uniforms_match_reference_words():
    # uniforms take the top 53 bits of the mixed word
    u = rng.uniforms(0, 1, 4)
    expect = np.array([w >> 11 for w in SPLITMIX64_SEED0], dtype=np.float64) * 2.0 ** -53
    assert np.array_equal(u, expect)


def test_uniforms_range_and_determinism():
    u = rng.uniforms(12345, 0, 10000)
    assert u.shape == (10000,)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert np.array_equal(u, rng.uniforms(12345, 0, 10000))
    assert abs(u.mean() - 0.5) < 0.02


def test_random_access_equals_stream():
    stream = rng.uniforms(777, 0, 100)
    for start, stop in ((17, 18), (17, 64), (63, 100)):
        assert np.array_equal(rng.uniforms(777, start, stop), stream[start:stop])


def test_derive_seed_distinct_and_stable():
    seeds = {rng.derive_seed(99, t) for t in range(10000)}
    assert len(seeds) == 10000
    assert rng.derive_seed(99, 0) == rng.derive_seed(99, 0)
    assert rng.derive_seed(99, 0) != rng.derive_seed(98, 0)


def test_bin_indices_range_and_balance():
    idx = rng.bin_indices(5, 0, 200000, 4)
    assert idx.min() >= 0 and idx.max() < 16
    counts = np.bincount(idx, minlength=16)
    # each bin expects 12500; 5 sigma ~ 550
    assert np.all(np.abs(counts - 12500) < 600)


def test_disjoint_seeds_give_unrelated_streams():
    a = rng.uniforms(rng.derive_seed(1, 0), 0, 1000)
    b = rng.uniforms(rng.derive_seed(1, 1), 0, 1000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1
