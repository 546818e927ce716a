"""Gap sequence and level-sum tests."""

import math

import numpy as np
import pytest

from gapdims import (
    GapSequence,
    InsufficientDepthError,
    InvalidRangeError,
    InvalidRatioError,
    NotDecreasingError,
    NotNormalizedError,
    level_sums,
    make_sequence,
)
from gapdims.sequences import _ratio_table

from helpers import frexp_gap_lengths


def cantor_gaps(ratios, n_levels):
    """Brute-force gap list for a ratio schedule (independent of the closed form)."""
    gaps = []
    s_prev = 1.0
    for n in range(1, n_levels + 1):
        r = ratios[(n - 1) % len(ratios)] if isinstance(ratios, (list, tuple)) else ratios
        gaps.extend([(1.0 - 2.0 * r) * s_prev] * 2 ** (n - 1))
        s_prev *= r
    return gaps


def test_level_of():
    # index j has level bit_length(j); middle-third level-n gaps have length 3^-n
    js = [1, 2, 3, 4, 7, 8, 1023, 1024]
    a = make_sequence("middle-third").gap_lengths(np.array(js))
    assert np.allclose(a, 3.0 ** -np.array([1, 2, 2, 3, 3, 4, 10, 11]), rtol=1e-12)


def test_middle_third_level_sums_closed_form():
    p = level_sums(make_sequence("middle-third"), 40)
    assert np.allclose(p.s, 3.0 ** -np.arange(41), rtol=1e-14)


def test_central_gap_lengths_match_brute_force():
    a = make_sequence("central", ratios=0.25)
    want = cantor_gaps(0.25, 8)
    got = a.gap_lengths(np.arange(1, 2 ** 8))
    assert np.allclose(got, want, rtol=1e-13)


def test_gap_lengths_read_levels_from_the_exponent_field():
    # the biased exponent of float(j) and a NaN-headed table give frexp's levels and values
    powers = [2 ** k - 1 for k in range(1, 53)] + [2 ** k for k in range(53)]
    for a in (make_sequence("middle-third"),
              make_sequence("central", ratios=[0.2, 0.4], schedule="blocks")):
        for idx in (np.arange(1, 2 ** 20 + 1), np.array(powers, dtype=np.int64),
                    np.array([], dtype=np.int64)):
            got, want = a.gap_lengths(idx), frexp_gap_lengths(a, idx)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_gap_lengths_refuse_non_integer_indices():
    # a float index was truncated: [1.7, 2.9] read a_1 and a_2
    explicit = make_sequence("explicit", gaps=[0.5, 0.3, 0.2])
    for a in (make_sequence("middle-third"), explicit):
        for idx, dtype in ((np.array([1.7, 2.9]), "float64"), (np.array([True]), "bool"),
                           (np.array([2.0], dtype=np.float32), "float32")):
            with pytest.raises(InvalidRangeError, match=f"gap indices must be integers, got dtype {dtype}"):
                a.gap_lengths(idx)
        assert a.gap_lengths(np.array([1, 2], dtype=np.uint8)).tolist() == \
            a.gap_lengths(np.array([1, 2])).tolist()


def test_periodic_schedule_level_sums():
    a = make_sequence("central", ratios=[0.2, 0.45], schedule="periodic")
    p = level_sums(a, 12)
    prod = 1.0
    for n in range(1, 13):
        prod *= 0.2 if n % 2 == 1 else 0.45
        assert p.s[n] == pytest.approx(prod, rel=1e-13)


def test_blocks_schedule_ratio_runs_are_dyadic():
    a = make_sequence("central", ratios=[0.2, 0.45], schedule="blocks")
    r = _ratio_table(a.schedule, a.ratios, 16)
    # level n uses ratios[floor(log2 n) mod 2]: levels 1 | 2-3 | 4-7 | 8-15 | 16..
    want = [0.2, 0.45, 0.45, 0.2, 0.2, 0.2, 0.2] + [0.45] * 8 + [0.2]
    assert np.array_equal(r, want)


def test_explicit_sums_match_independent_summation():
    raw = np.array(cantor_gaps(1.0 / 3.0, 10))
    gaps = raw / raw.sum()   # smallest-last normalization keeps monotonicity
    e = make_sequence("explicit", gaps=gaps)
    pe = level_sums(e, 8)
    for n in range(9):
        want = np.sum(np.sort(gaps[2 ** n - 1:])) / 2 ** n
        assert pe.s[n] == pytest.approx(want, rel=1e-12)


def test_total_mass_identity():
    # placed gaps + tail = 1 exactly, for several depths
    a = make_sequence("central", ratios=0.4)
    for w in (1, 3, 7, 11):
        placed = math.fsum(a.gap_lengths(np.arange(1, 2 ** w))[::-1])
        assert placed + a.tail_mass(w) == pytest.approx(1.0, abs=1e-14)


def test_tail_mass_equals_scaled_level_sum():
    a = make_sequence("middle-third")
    p = level_sums(a, 30)
    for w in (5, 20, 30):
        assert a.tail_mass(w) == pytest.approx(2.0 ** w * p.s[w], rel=1e-12)


def test_level_comparability_constants():
    p = level_sums(make_sequence("middle-third"), 32)
    assert p.tau_hat == pytest.approx(1.0 / 3.0) and p.lambda_hat == pytest.approx(1.0 / 3.0)
    assert p.level_comparable

    p2 = level_sums(make_sequence("central", ratios=[0.2, 0.45], schedule="blocks"), 32)
    assert p2.tau_hat == pytest.approx(0.2) and p2.lambda_hat == pytest.approx(0.45)
    assert p2.level_comparable


def test_deep_rule_based_levels_use_logs():
    a = make_sequence("middle-third")
    log_s = a.log_level_sums(380)
    assert log_s[380] == pytest.approx(-380 * math.log(3.0), rel=1e-14)
    with pytest.raises(InsufficientDepthError):
        a.log_level_sums(401)


def test_validation_errors():
    with pytest.raises(InvalidRatioError):
        make_sequence("central", ratios=0.5)
    with pytest.raises(InvalidRatioError):
        make_sequence("central", ratios=[0.1, 0.2, 0.3], schedule="blocks")
    with pytest.raises(NotDecreasingError):
        make_sequence("explicit", gaps=[0.2, 0.5, 0.3])
    with pytest.raises(NotDecreasingError):
        make_sequence("explicit", gaps=[0.5, 0.5, -0.1])
    with pytest.raises(NotNormalizedError):
        make_sequence("explicit", gaps=[0.5, 0.4])
    for n_levels in (64, np.int64(64)):   # 2 ** np.int64(64) wraps to 0
        with pytest.raises(InsufficientDepthError):
            level_sums(make_sequence("explicit", gaps=[0.5, 0.3, 0.2]), n_levels)
    with pytest.raises(InsufficientDepthError):
        make_sequence("explicit", gaps=[0.5, 0.3, 0.2]).log_level_sums(np.int64(64))
    for n_levels in (True, 1.5):
        with pytest.raises(InsufficientDepthError, match="n_levels must be an integer"):
            level_sums(make_sequence("middle-third"), n_levels)


def test_config_round_trip():
    for a in (make_sequence("middle-third"),
              make_sequence("central", ratios=[0.2, 0.45], schedule="blocks"),
              make_sequence("explicit", gaps=[0.5, 0.25, 0.25])):
        b = GapSequence.from_config(a.to_config())
        assert b.kind == a.kind
        assert np.array_equal(level_sums(b, 1).s, level_sums(a, 1).s)
