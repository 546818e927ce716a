"""Arrangement construction tests."""

import math
import tracemalloc

import numpy as np
import pytest

from gapdims import (
    DepthUnsupportedError,
    InvalidRangeError,
    build_set,
    level_sums,
    make_sequence,
)
from gapdims import randmodel, rng
from gapdims.randmodel import slot_counts

from helpers import (
    cantor_positions,
    gap_counts_in_level_intervals,
    omega_labels,
    position_of,
    rank_slots,
    reference_set,
    single_draw_slot_counts,
)

MID = make_sequence("middle-third")


def test_order_is_permutation():
    for w in (1, 4, 8):
        order = build_set(MID, w, "random", seed=3).order
        assert sorted(order) == list(range(1, 2 ** w))


def test_order_matches_label_ranks():
    w = 8
    omega = omega_labels(11, w)
    order = build_set(MID, w, "random", seed=11).order
    # gap at position p has the (p+1)-th smallest label
    assert np.array_equal(np.sort(omega)[np.arange(2 ** w - 1)], omega[order - 1])


def _labels(ints) -> np.ndarray:
    """Labels with the given 53-bit integers, as rng.uniforms makes them."""
    return np.asarray(ints, dtype=np.float64) * 2.0 ** -53


def test_stable_order_breaks_every_kind_of_tie_as_argsort():
    gen = np.random.default_rng(7)
    w = 12
    n = 2 ** w - 1
    base = gen.integers(0, 2 ** 53, size=40, dtype=np.int64)
    cases = {
        "exact duplicates": _labels(gen.choice(base, size=n)),
        # equal in the kept top 64 - w bits, apart only in the w - 11 dropped low bits
        "dropped low bits": _labels(gen.choice(base >> 1 << 1, size=n) + gen.integers(0, 2, n)),
        "zeros": _labels(np.where(gen.random(n) < 0.3, 0, gen.integers(0, 2 ** 53, n))),
        "all equal": _labels(np.full(n, 12345)),
        "distinct": rng.uniforms(3, 1, 2 ** w),
    }
    for name, omega in cases.items():
        want = np.argsort(omega, kind="stable")
        assert np.array_equal(randmodel._stable_order(omega, w), want), name
    # w <= 11 keeps all 53 bits, so only exact duplicates tie
    for w in (1, 5, 11):
        omega = _labels(gen.choice(base[:3], size=2 ** w - 1))
        assert np.array_equal(randmodel._stable_order(omega, w),
                              np.argsort(omega, kind="stable")), w


def test_stable_order_on_a_real_draw_with_ties():
    # at W = 23 this seed's labels share their kept 41 top bits in 23 pairs
    w = 23
    omega = rng.uniforms(rng.derive_seed(99, 0), 1, 2 ** w)
    kept = np.sort((omega * 2.0 ** 53).astype(np.uint64) >> np.uint64(w - 11))
    assert np.count_nonzero(kept[1:] == kept[:-1]) == 23
    assert np.array_equal(randmodel._stable_order(omega, w), np.argsort(omega, kind="stable"))


def test_mass_invariants_all_arrangements():
    for arrangement, seed in (("random", 5), ("cantor", None), ("decreasing", None)):
        s = build_set(MID, 8, arrangement, seed=seed)
        total = math.fsum(MID.gap_lengths(s.order).tolist()) + math.fsum(s.slot_mass.tolist())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert np.all(s.slot_mass >= 0)
        assert np.all(np.diff(s.rights[:-1]) > 0)
        # geometry is consistent: slot p | gap p | slot p+1 ...
        assert np.allclose(s.lefts + s.slot_mass, s.rights)


def test_cantor_arrangement_is_ternary():
    # middle-third cantor arrangement reproduces the classical construction:
    # the level-n intervals are [m/3^n + eps, ...] of equal length
    s = build_set(MID, 10, "cantor")
    for n in (1, 2, 5):
        lefts, rights = s.level_intervals(n)
        assert len(lefts) == 2 ** n
        lens = rights - lefts
        assert np.allclose(lens, lens[0], rtol=1e-12)
        # first gap of level 1 sits at [1/3, 2/3], etc.
    lefts, rights = s.level_intervals(1)
    assert rights[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert lefts[1] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_cantor_positions_are_in_order_traversal():
    s = build_set(MID, 4, "cantor")
    # position p holds the in-order rank-p node of the gap heap: the root
    # (gap 1) sits in the middle, gap 2 a quarter in, gap 3 three quarters in
    pos = position_of(s)
    assert pos[0] == 7 and pos[1] == 3 and pos[2] == 11


def test_cantor_order_inverts_the_position_formula():
    for w in range(1, 21):
        order = build_set(MID, w, "cantor").order
        assert np.array_equal(order[cantor_positions(w)], np.arange(1, 2 ** w))


def test_cantor_order_is_the_in_order_walk_of_the_heap():
    def walk(j, depth, w):
        # gaps of the subtree at heap node j (children 2j, 2j + 1), left to right
        if depth == w:
            return []
        return walk(2 * j, depth + 1, w) + [j] + walk(2 * j + 1, depth + 1, w)
    for w in range(1, 11):
        assert build_set(MID, w, "cantor").order.tolist() == walk(1, 0, w)


def test_decreasing_points_are_tail_sums():
    # with gaps placed in decreasing-index order and the whole tail in the
    # leftmost slot, right endpoints of intervals are exact tail sums
    w = 8
    s = build_set(MID, w, "decreasing")
    gaps = MID.gap_lengths(np.arange(1, 2 ** w))
    tail = MID.tail_mass(w)
    # rightmost interval right end = 1; its left end = 1 - a_1 boundary; the
    # k-th gap from the right is a_k, so right endpoints are 1 - sum_{j<k} a_j
    lefts, rights = s.level_intervals(w)
    expect_rights = 1.0 - np.concatenate([[0.0], np.cumsum(gaps)])[:-1]
    assert np.allclose(np.sort(rights)[::-1][: 2 ** w - 1], expect_rights[: 2 ** w - 1], atol=1e-12)
    # leftmost interval holds all unplaced mass
    assert s.slot_mass[0] == pytest.approx(tail, rel=1e-12)


def test_level_intervals_nest():
    s = build_set(MID, 9, "random", seed=42)
    for n in (3, 6):
        l1, r1 = s.level_intervals(n)
        l2, r2 = s.level_intervals(n + 1)
        # every finer interval sits inside some coarser one
        owner = np.searchsorted(l1, l2 + 1e-15, side="right") - 1
        assert np.all(r2 <= r1[owner] + 1e-12)
    assert len(s.level_intervals(9)[0]) == 2 ** 9


def test_level_intervals_refuse_a_level_that_is_not_an_integer_in_range():
    s = build_set(MID, 8, "random", seed=3)
    for n in (-1, 9, True, 2.0):
        with pytest.raises(DepthUnsupportedError, match=r"level must be an integer in \[0, 8\]"):
            s.level_intervals(n)
    assert len(s.level_intervals(np.int64(2))[0]) == 4


def test_level_intervals_read_from_the_stored_intervals():
    # the old gap-endpoint formulas: gap p spans [gap_left[p], gap_left[p] + a_order[p]]
    w = 7
    for arrangement, seed in (("random", 5), ("cantor", None), ("decreasing", None)):
        s = build_set(MID, w, arrangement, seed=seed)
        gap_len = MID.gap_lengths(s.order)
        gap_left = np.cumsum(s.slot_mass[:-1]) + np.concatenate([[0.0], np.cumsum(gap_len[:-1])])
        assert np.array_equal(s.rights[:-1], gap_left)
        for n in range(w + 1):
            sh = s.order < 2 ** n
            lefts, rights = s.level_intervals(n)
            assert np.array_equal(lefts, np.concatenate(
                [[0.0], s.rights[:-1][sh] + MID.gap_lengths(s.order[sh])]))
            assert np.array_equal(rights, np.concatenate([s.rights[:-1][sh], [1.0]]))


def test_build_set_peak_memory_per_gap():
    # the draw and its spacings, or the cantor order's scratch, are freed before
    # the intervals are laid out in place
    w = 16
    build_set(MID, w, "random", seed=1)   # the sequence's level tables, outside the trace
    for arrangement, seed in (("random", 5), ("cantor", None)):
        tracemalloc.start()
        try:
            build_set(MID, w, arrangement, seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 44 * (2 ** w - 1), arrangement


def test_build_set_equals_the_full_size_reference():
    # the spacings differenced in place, the exponent-field gap lengths and the prefix
    # sum taken in the lefts buffer lay out the same bytes as np.diff, frexp and a copy
    k = 14
    levels = np.repeat(np.arange(1, k + 1), 2 ** np.arange(k))
    explicit = make_sequence("explicit", gaps=np.concatenate(
        [3.0 ** -levels, np.full(2 ** k, 3.0 ** -k)]).tolist())
    for a, w_max in ((MID, 20), (make_sequence("central", ratios=[0.2, 0.4], schedule="blocks"), 20),
                     (explicit, k)):
        for w in range(1, w_max + 1):
            for arrangement in ("random", "cantor", "decreasing"):
                s = build_set(a, w, arrangement, seed=100 + w)
                want = reference_set(a, w, arrangement, seed=100 + w)
                for got, ref in zip((s.order, s.lefts, s.rights, s.slot_mass), want):
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (w, arrangement)


def test_a_set_holds_its_geometry_once():
    # order, lefts, rights and slot_mass: 32 bytes per gap, also once level W is in use
    s = build_set(MID, 16, "random", seed=5)
    s.truncation_floor()
    lefts, rights = s.level_intervals(16)
    assert np.shares_memory(lefts, s.lefts) and np.shares_memory(rights, s.rights)
    held = sum((v if v.base is None else v.base).nbytes
               for v in vars(s).values() if isinstance(v, np.ndarray))
    assert held <= 33 * s.n_gaps


def test_explicit_sequence_builds_the_rule_based_set():
    # the first 2^K - 1 middle-third gaps, then 2^K gaps of 3^-K carrying the tail (2/3)^K
    k = 10
    levels = np.repeat(np.arange(1, k + 1), 2 ** np.arange(k))
    gaps = np.concatenate([3.0 ** -levels, np.full(2 ** k, 3.0 ** -k)])
    explicit = make_sequence("explicit", gaps=gaps.tolist())
    for w in (1, 6, k):
        for arrangement, seed in (("random", 5), ("cantor", None), ("decreasing", None)):
            s = build_set(explicit, w, arrangement, seed=seed)
            want = build_set(MID, w, arrangement, seed=seed)
            assert np.array_equal(s.order, want.order)
            for name in ("lefts", "rights", "slot_mass"):
                assert np.allclose(getattr(s, name), getattr(want, name), rtol=0, atol=1e-12)
            assert [x.tolist() for x in s.level_intervals(0)] == [[0.0], [1.0]]


def test_rank_slots_equals_geometry():
    # label-rank shortcut == actually locating each deep gap's interval
    w, n, seed = 10, 4, 17
    s = build_set(MID, w, "random", seed=seed)
    deep = np.arange(2 ** n, 2 ** (n + 2))
    shortcut = rank_slots(seed, w, n, deep)
    lefts, _ = s.level_intervals(n)
    pos = position_of(s)
    mids = 0.5 * (s.rights[:-1] + s.lefts[1:])[pos[deep - 1]]
    geometric = np.searchsorted(lefts, mids, side="right") - 1
    assert np.array_equal(shortcut, geometric)


def test_slot_counts_equals_bincount_of_ranks():
    w, n, seed = 12, 5, 23
    lo, hi = 2 ** n, 2 ** (n + 3)
    fast = slot_counts(seed, n, (lo, hi))
    slow = np.bincount(rank_slots(seed, w, n, np.arange(lo, hi)), minlength=2 ** n)
    assert fast.shape == (1, 2 ** n)
    assert np.array_equal(fast[0], slow)


def test_slot_counts_nested_ranges_from_one_draw():
    # each row counts [b_0, b_(i+1)), as if bincounting the ranks of that range
    w, n, seed = 13, 6, 31
    bounds = (2 ** n, 2 ** (n + 2), 2 ** (n + 2), 2 ** (n + 5))
    rows = slot_counts(seed, n, bounds)
    assert rows.shape == (3, 2 ** n)
    for row, hi in zip(rows, bounds[1:]):
        slow = np.bincount(rank_slots(seed, w, n, np.arange(bounds[0], hi)), minlength=2 ** n)
        assert np.array_equal(row, slow)
    assert np.array_equal(rows[0], rows[1])    # an empty range adds nothing


def test_slot_counts_sorts_the_deep_ranges_in_place():
    # the draw is the only label-sized array: shallow labels and counts are small
    tracemalloc.start()
    try:
        slot_counts(7, 12, (2 ** 12, 2 ** 14, 2 ** 18))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * (2 ** 18 - 1) * 8


def test_slot_counts_draws_only_the_gaps_it_ranks(monkeypatch):
    bounds = (2 ** 6, 2 ** 8, 2 ** 9)
    # the counts of a draw as deep as W = 12: labels are counter-based
    slow = [np.bincount(rank_slots(5, 12, 6, np.arange(bounds[0], hi)), minlength=2 ** 6)
            for hi in bounds[1:]]
    draws, uniforms = [], rng.uniforms
    monkeypatch.setattr(rng, "uniforms", lambda *args: draws.append(args) or uniforms(*args))
    assert np.array_equal(slot_counts(5, 6, bounds), slow)
    assert draws == [(5, 1, 2 ** 6), (5, 2 ** 6, 2 ** 8), (5, 2 ** 8, 2 ** 9)]


@pytest.mark.parametrize("n,bounds", [
    (0, (1, 1)), (0, (1, 5, 9)),                      # n = 0: one interval, no shallow labels
    (3, (8, 20)), (3, (11, 40)),                      # one range; b_0 > 2^n
    (5, (32, 64, 64, 256)), (4, (100, 100)),          # an empty range
    (6, (64, 256, 512, 2 ** 12)), (10, (2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14)),
])
@pytest.mark.parametrize("seed", [1, 5, 99])
def test_slot_counts_equals_the_single_draw(seed, n, bounds):
    fast, slow = slot_counts(seed, n, bounds), single_draw_slot_counts(seed, n, bounds)
    assert fast.dtype == slow.dtype and fast.shape == slow.shape
    assert fast.tobytes() == slow.tobytes()


def test_slot_counts_holds_one_range_at_a_time():
    # peak: the largest range, the rows, the shallow labels and one rank array,
    # plus the draw's block scratch; the whole draw (8 MiB) does not fit
    n, bounds = 10, (2 ** 10, 2 ** 19, 2 ** 20)
    slot_counts(3, n, (2 ** n, 2 ** 12))     # warm up outside the trace
    limit = 8 * (2 ** 19 + (len(bounds) - 1 + 2) * 2 ** n) + 2 ** 20
    for counts in (slot_counts, single_draw_slot_counts):
        tracemalloc.start()
        try:
            counts(7, n, bounds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak <= limit) == (counts is slot_counts), (counts.__name__, peak, limit)


def test_slot_counts_rejects_bounds_outside_the_deep_gaps():
    with pytest.raises(InvalidRangeError, match=r"bound b_0 must be an integer in \[16, "):
        slot_counts(3, 4, (8, 2 ** 8))       # b_0 < 2^n: a shallow gap
    with pytest.raises(InvalidRangeError, match=r"bound b_1 must be an integer in \[16, 67108864\]"):
        slot_counts(3, 4, (16, 2 ** randmodel.MAX_DEPTH + 1))


def test_slot_counts_rejects_gap_index_zero():
    with pytest.raises(InvalidRangeError):
        slot_counts(3, 4, (0, 2 ** 8))


def test_slot_counts_rejects_decreasing_bounds():
    with pytest.raises(InvalidRangeError):
        slot_counts(3, 4, (2 ** 8, 2 ** 6))
    with pytest.raises(InvalidRangeError):
        slot_counts(3, 4, (16, 2 ** 8, 2 ** 7, 2 ** 9))


def test_slot_counts_rejects_a_level_outside_the_draw():
    with pytest.raises(InvalidRangeError):
        slot_counts(3, 11, (2 ** 4, 2 ** 10))
    with pytest.raises(InvalidRangeError):
        slot_counts(3, -1, (2 ** 4, 2 ** 10))


def test_gap_counts_in_level_intervals():
    s = build_set(MID, 10, "random", seed=9)
    counts = gap_counts_in_level_intervals(s, 3, 7)
    assert counts.sum() == 2 ** 6  # all level-7 gaps land somewhere
    assert len(counts) == 2 ** 3
    # cross-check against the rank shortcut
    by_rank = np.bincount(rank_slots(9, 10, 3, np.arange(2 ** 6, 2 ** 7)), minlength=8)
    assert np.array_equal(counts, by_rank)


def test_cantor_deep_counts_are_uniform():
    s = build_set(MID, 10, "cantor")
    for level in (5, 8):
        counts = gap_counts_in_level_intervals(s, 3, level)
        assert np.all(counts == 2 ** (level - 1 - 3))


def test_same_seed_same_set_different_seed_different():
    s1 = build_set(MID, 8, "random", seed=1)
    s2 = build_set(MID, 8, "random", seed=1)
    s3 = build_set(MID, 8, "random", seed=2)
    assert np.array_equal(s1.order, s2.order)
    assert not np.array_equal(s1.order, s3.order)


def test_depth_and_seed_validation():
    with pytest.raises(DepthUnsupportedError):
        build_set(MID, 0, "cantor")
    with pytest.raises(DepthUnsupportedError):
        build_set(MID, 27, "cantor")
    with pytest.raises(InvalidRangeError):
        build_set(MID, 5, "random")   # missing seed
    with pytest.raises(InvalidRangeError):
        build_set(MID, 5, "spiral")
    with pytest.raises(DepthUnsupportedError):
        build_set(make_sequence("explicit", gaps=[0.5, 0.3, 0.2]), 3, "cantor")
    for w in (True, 10.5, "14"):
        with pytest.raises(DepthUnsupportedError, match=r"depth W must be an integer in \[1, 26\]"):
            build_set(MID, w, "cantor")


def test_a_set_compares_and_hashes_by_identity():
    s = build_set(MID, 6, "random", seed=2)
    again = build_set(MID, 6, "random", seed=2)
    assert s == s and s != again and np.array_equal(s.order, again.order)
    assert {s: 1, again: 2}[s] == 1


def test_truncation_floor_scales_with_depth():
    f10 = build_set(MID, 10, "random", seed=4).truncation_floor()
    f14 = build_set(MID, 14, "random", seed=4).truncation_floor()
    assert f14 < f10
    # floor is near twice the max spacing ~ 2 ln(2^w) s_w for middle-third
    p = level_sums(MID, 16)
    assert f14 < 2.0 * 20 * 14 * math.log(2.0) * p.s[14]
