"""Counter-based stream tests."""

import tracemalloc

import numpy as np

from gapdims import rng

from helpers import GOLDEN, MASK, counter_words

# published splitmix64 outputs for seed 0
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def splitmix64(seed: int, counter: int) -> int:
    """Reference splitmix64 word on Python integers (mod 2^64)."""
    z = (seed + counter * GOLDEN) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_mixed_words_known_answer():
    # the states of counters 1, 2, 3 under seed 0 are the counters times the golden step
    words = rng._mixed_words(np.array([1, 2, 3], dtype=np.uint64) * np.uint64(GOLDEN))
    assert words.tolist() == list(SPLITMIX64_SEED0)
    assert [splitmix64(0, i) for i in (1, 2, 3)] == list(SPLITMIX64_SEED0)


def test_derive_seed_matches_reference():
    seeds = (0, 1, 99, -1, -2 ** 63, 2 ** 63, MASK, 2 ** 64, 2 ** 64 + 5, 3 ** 50, -(3 ** 50),
             np.int64(5), np.int64(-2 ** 63), np.uint64(MASK))
    streams = (0, 1, 7, 2 ** 32, 2 ** 63 - 1, 2 ** 64 - 1, 2 ** 64, 5 ** 30)
    for m in seeds:
        for t in streams:
            assert rng.derive_seed(m, t) == splitmix64(int(m), t + 1), (m, t)


def test_uniforms_and_bin_indices_match_reference():
    # a few hundred counters from an offset start, through the in-place draw, and a
    # NumPy seed with counters past the first block
    cases = [(seed, 1000) for seed in (0, 99, -1, 2 ** 64 + 5, rng.derive_seed(99, 3))]
    for seed, start in cases + [(np.uint64(MASK - 4), 2 ** 15 + 1000)]:
        stop = start + 300
        words = [splitmix64(int(seed), c) for c in range(start, stop)]
        assert rng.uniforms(seed, start, stop).tolist() == \
            [(w >> 11) * 2.0 ** -53 for w in words]
        for bits in (1, 20, 63):
            idx = rng.bin_indices(seed, start, stop, bits)
            assert idx.dtype == np.int64
            assert idx.tolist() == [w >> (64 - bits) for w in words]


def test_draws_across_block_boundaries_match_reference():
    # unaligned starts and lengths around the block size give the same words
    block = rng._BLOCK
    for seed in (0, 99, rng.derive_seed(5, 2)):
        ref = np.array([splitmix64(seed, c) for c in range(5 * block + 20)], dtype=np.uint64)
        for start in (0, 1, block - 7, 2 * block + 3):
            for length in (0, 1, block - 1, block, block + 1, 3 * block + 17):
                words = ref[start : start + length]
                u = rng.uniforms(seed, start, start + length)
                assert np.array_equal(u, (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53)
                for bits in (1, 20, 63):
                    idx = rng.bin_indices(seed, start, start + length, bits)
                    assert idx.dtype == np.int64
                    assert np.array_equal(idx, (words >> np.uint64(64 - bits)).astype(np.int64))


def test_draws_equal_the_full_array_words():
    # one add to the precomputed golden steps per block gives the words of the
    # counters written, scaled and offset over the whole range at once
    length = 3 * rng._BLOCK + 5
    for seed in (-1, 0, 2 ** 64 - 1):
        for start in (0, 2 ** 40):
            words = counter_words(seed, start, start + length)
            assert np.array_equal(rng.uniforms(seed, start, start + length),
                                  (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53)
            for bits in (1, 20, 63):
                assert np.array_equal(rng.bin_indices(seed, start, start + length, bits),
                                      (words >> np.uint64(64 - bits)).astype(np.int64))


def test_label_keys_sort_as_the_uniforms_and_hold_their_labels():
    # bits 0..10 clear and key >> 11 == label * 2^53: the keys sort as the labels, ties
    # included, from any start, block-aligned or not
    block = rng._BLOCK
    for seed in (0, 99, rng.derive_seed(5, 2)):
        for start, length in ((1, 2 ** 12 - 1), (block - 7, 2 * block + 3), (2 ** 40, 500), (3, 0)):
            u = rng.uniforms(seed, start, start + length)
            keys = np.empty(length, dtype=np.uint64)
            rng.label_keys(seed, start, keys)
            assert not (keys & np.uint64(0x7FF)).any()
            assert np.array_equal((keys >> np.uint64(11)).astype(np.float64), u * 2.0 ** 53)
            assert np.array_equal(np.argsort(keys, kind="stable"), np.argsort(u, kind="stable"))


def test_uniforms_allocate_little_beyond_their_output():
    tracemalloc.start()
    try:
        u = rng.uniforms(7, 0, 2 ** 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * u.nbytes


def test_uniforms_range_and_determinism():
    u = rng.uniforms(12345, 0, 10000)
    assert u.shape == (10000,)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert np.array_equal(u, rng.uniforms(12345, 0, 10000))
    assert abs(u.mean() - 0.5) < 0.02


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
