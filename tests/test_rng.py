"""Counter-based stream tests."""

import numpy as np

from gapdims import rng

# published splitmix64 outputs for seed 0
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_mix64_known_answer():
    golden = 0x9E3779B97F4A7C15
    for i, want in enumerate(SPLITMIX64_SEED0, start=1):
        assert rng.mix64((i * golden) & 0xFFFFFFFFFFFFFFFF) == want


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
