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
    # the old gap-endpoint formulas: gap p spans [gap_left[p], gap_left[p] + a_order[p]],
    # and the level-W interval after it starts there, clamped to its own right end
    w = 7
    for arrangement, seed in (("random", 5), ("cantor", None), ("decreasing", None)):
        s = build_set(MID, w, arrangement, seed=seed)
        gap_len = MID.gap_lengths(s.order)
        gap_left = np.cumsum(s.slot_mass[:-1]) + np.concatenate([[0.0], np.cumsum(gap_len[:-1])])
        assert np.array_equal(s.rights[:-1], gap_left)
        for n in range(w + 1):
            sh = s.order < 2 ** n
            lefts, rights = s.level_intervals(n)
            assert np.array_equal(lefts, np.concatenate([[0.0], np.minimum(
                s.rights[:-1][sh] + MID.gap_lengths(s.order[sh]), s.rights[1:][sh])]))
            assert np.array_equal(rights, np.concatenate([s.rights[:-1][sh], [1.0]]))


def test_build_set_peak_memory_per_gap():
    # the draw and its spacings, or the cantor order's scratch, are freed before the
    # intervals are laid out in place, and the gap lengths exist one block at a time;
    # at W = 20 that block (2^15 lengths) is a quarter of a byte per gap
    w = 20
    build_set(MID, w, "random", seed=1)   # the sequence's level tables, outside the trace
    for arrangement, seed in (("random", 5), ("cantor", None)):
        tracemalloc.start()
        try:
            build_set(MID, w, arrangement, seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 30 * (2 ** w - 1), arrangement


def test_random_build_takes_the_sorted_labels_a_block_at_a_time(monkeypatch):
    # from the sorted order to the layout's first prefix sum the build adds only the slot
    # masses and one block's intp copy of the int32 order, never a full-size copy
    w = 18
    peaks, stable_order = [], randmodel._stable_order

    def sort_then_trace(omega, w):
        order = stable_order(omega, w)
        tracemalloc.start()
        return order

    class Numpy:   # numpy, but its first prefix sum reads the traced peak and stops the trace
        def __getattr__(self, name):
            return getattr(np, name)

        def cumsum(self, *args, **kwargs):
            if tracemalloc.is_tracing():
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return np.cumsum(*args, **kwargs)

    build_set(MID, w, "random", seed=1)   # the sequence's level tables, outside the trace
    monkeypatch.setattr(randmodel, "_stable_order", sort_then_trace)
    monkeypatch.setattr(randmodel, "np", Numpy())
    try:
        build_set(MID, w, "random", seed=5)   # its bytes: test_build_set_equals_the_full_size_reference
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1
    assert 8 * 2 ** w <= peaks[0] <= 8 * 2 ** w + 8 * rng._BLOCK + 2 ** 16


def test_build_set_equals_the_full_size_reference():
    # the int32 order, the spacings differenced in place, the exponent-field gap lengths
    # and the prefix sum carried block to block in the lefts buffer give the order of
    # np.argsort and the same bytes as np.diff, frexp and one full-size cumsum
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
                assert s.order.dtype == np.int32 and np.array_equal(s.order, want[0])
                for got, ref in zip((s.lefts, s.rights, s.slot_mass), want[1:]):
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (w, arrangement)


def test_a_set_holds_its_geometry_once():
    # order (int32), lefts, rights and slot_mass: 28 bytes per gap, also once level W is in use
    s = build_set(MID, 16, "random", seed=5)
    s.truncation_floor()
    lefts, rights = s.level_intervals(16)
    assert np.shares_memory(lefts, s.lefts) and np.shares_memory(rights, s.rights)
    held = sum((v if v.base is None else v.base).nbytes
               for v in vars(s).values() if isinstance(v, np.ndarray))
    assert held <= 29 * s.n_gaps


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
    draws, label_keys = [], rng.label_keys
    monkeypatch.setattr(rng, "label_keys", lambda seed, start, out:
                        draws.append((seed, start, start + out.size)) or label_keys(seed, start, out))
    assert np.array_equal(slot_counts(5, 6, bounds), slow)
    # each range is ranked with the shallow labels, drawn again for it
    assert draws == [(5, 1, 2 ** 6), (5, 2 ** 6, 2 ** 8), (5, 1, 2 ** 6), (5, 2 ** 8, 2 ** 9)]


@pytest.mark.parametrize("n,bounds", [
    (0, (1, 1)), (0, (1, 5, 9)),                      # n = 0: one interval, no shallow labels
    (3, (8, 20)), (3, (11, 40)),                      # one range; b_0 > 2^n
    (5, (32, 64, 64, 256)), (4, (100, 100)),          # an empty range
    (6, (64, 256, 512, 2 ** 12)), (10, (2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14)),
])
@pytest.mark.parametrize("seed", [1, 5, 99])
def test_slot_counts_equals_the_single_draw(seed, n, bounds):
    fast, slow = slot_counts(seed, n, bounds), single_draw_slot_counts(seed, n, bounds)
    assert fast.dtype == np.int32 and fast.shape == slow.shape
    assert np.array_equal(fast, slow)


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


@pytest.mark.parametrize("n,lo,hi", [
    (0, 1, 1), (0, 1, 9), (0, 5, 2 ** 16 + 3),       # n = 0: one interval, no shallow labels
    (3, 8, 8), (4, 100, 100),                          # an empty range
    (3, 11, 40), (6, 64, 2 ** 12), (10, 2 ** 10, 2 ** 14), (12, 2 ** 12, 2 ** 12 + 5),
])
@pytest.mark.parametrize("seed", [1, 5, 99])
def test_range_counts_equal_the_single_draw_and_return_the_sorted_shallow_labels(seed, n, lo, hi):
    counts, shallow = randmodel.range_counts(seed, n, lo, hi)
    assert counts.dtype == np.int32
    assert np.array_equal(counts, single_draw_slot_counts(seed, n, (lo, hi))[0])
    want = np.sort(rng.uniforms(seed, 1, 2 ** n))
    assert shallow.dtype == want.dtype and shallow.tobytes() == want.tobytes()


def test_range_counts_count_a_deep_label_equal_to_a_shallow_one_at_or_below_it(monkeypatch):
    # hand-made keys: deep labels equal to shallow ones, and two equal shallow labels; the
    # counts follow np.searchsorted(side="right") of the sorted shallow labels
    n, lo, hi = 2, 4, 11
    shallow = np.array([300, 100, 300], dtype=np.uint64)
    deep = np.array([100, 300, 50, 300, 400, 100, 200], dtype=np.uint64)

    def label_keys(seed, start, out):
        out[:] = (shallow if start == 1 else deep) << np.uint64(11)

    monkeypatch.setattr(rng, "label_keys", label_keys)
    counts, labels = randmodel.range_counts(0, n, lo, hi)
    s, d = np.sort(shallow * 2.0 ** -53), np.sort(deep * 2.0 ** -53)
    ranks = np.searchsorted(d, s, side="right")
    assert counts.tolist() == np.diff(ranks, prepend=0, append=d.size).tolist() == [3, 3, 0, 1]
    assert labels.tolist() == s.tolist()


def test_range_counts_hold_the_keys_and_the_counts():
    # peak: one uint64 key per label of the range and the shallow gaps, the int32 counts
    # and two blocks of scratch words; the sorted shallow labels take the keys' place
    n, lo, hi = 16, 2 ** 16, 2 ** 18
    randmodel.range_counts(3, 10, 2 ** 10, 2 ** 12)   # warm up outside the trace
    tracemalloc.start()
    try:
        counts, shallow = randmodel.range_counts(7, n, lo, hi)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 12 * 2 ** n + 2 ** 10
    assert peak <= 8 * (hi - lo + 2 ** n) + 4 * 2 ** n + 2 * 8 * rng._BLOCK, peak


@pytest.mark.parametrize("n,bounds", [
    (1, (2, 2, 9)), (4, (16, 16, 16)), (4, (16, 20, 20)),   # two intervals; empty ranges
    (6, (64, 256, 512)), (8, (256, 1024, 2048)), (10, (2 ** 10, 2 ** 12, 2 ** 13)),
    (10, (2 ** 10, 2 ** 11, 2 ** 14)),
    (2, (4, 5, 64)), (4, (16, 64, 2 ** 12)), (4, (16, 2 ** 10, 2 ** 12)),   # False as well
])
@pytest.mark.parametrize("seed", [1, 5, 99])
def test_has_empty_interval_equals_the_single_draw(seed, n, bounds):
    b0, lo, hi = bounds
    row = single_draw_slot_counts(seed, n, (b0, lo))[0]
    want = (row + single_draw_slot_counts(seed, n, (lo, hi))[0]).min() == 0
    got = randmodel.has_empty_interval(seed, n, row, lo, hi, np.sort(rng.uniforms(seed, 1, 2 ** n)))
    assert type(got) is bool and got == want


def test_has_empty_interval_draws_nothing_for_a_row_without_zeros(monkeypatch):
    shallow = np.sort(rng.uniforms(5, 1, 2 ** 6))
    draws, uniforms = [], rng.uniforms
    monkeypatch.setattr(rng, "uniforms", lambda *args: draws.append(args) or uniforms(*args))
    assert not randmodel.has_empty_interval(5, 6, np.ones(64, dtype=np.int32), 64, 2 ** 12, shallow)
    assert draws == []


def test_has_empty_interval_settles_on_the_witness_or_ranks_the_range(monkeypatch):
    seed, n, lo, hi = 5, 6, 2 ** 6, 2 ** 6 + 8    # 8 labels in 64 intervals
    counts = single_draw_slot_counts(seed, n, (lo, hi))[0]
    width = np.diff(np.concatenate(([0.0], np.sort(omega_labels(seed, n)), [1.0])))
    hit = np.flatnonzero(counts > 0)
    hit = hit[np.argmin(width[hit])]               # the shortest interval a label falls in
    miss = np.flatnonzero(counts == 0)
    miss = miss[np.argmax(width[miss])]            # the widest interval no label falls in
    assert width[hit] < width[miss]
    shallow = np.sort(rng.uniforms(seed, 1, 2 ** n))
    ranked, slot_counts_ = [], randmodel.slot_counts
    monkeypatch.setattr(randmodel, "slot_counts",
                        lambda *args: ranked.append(args) or slot_counts_(*args))
    for zeros, want, falls_back in [
        ((miss,), True, False),        # the witness holds: nothing is ranked
        ((hit, miss), True, True),     # the shortest zero is hit; the range leaves miss empty
        ((hit,), False, True),         # the shortest zero is hit and was the only one
    ]:
        row = np.ones(2 ** n, dtype=np.int32)
        row[list(zeros)] = 0
        ranked.clear()
        assert randmodel.has_empty_interval(seed, n, row, lo, hi, shallow) is want, zeros
        assert ranked == ([(seed, n, (lo, hi))] if falls_back else []), zeros


def test_has_empty_interval_holds_the_range_and_one_block(monkeypatch):
    # the witness path: one chunk of the range's labels and its masks at a time, within
    # the range's draw and 1 MiB
    n, lo, hi = 14, 2 ** 14, 2 ** 21
    randmodel.has_empty_interval(3, 6, np.zeros(64, dtype=np.int32), 64, 2 ** 8,
                                 np.sort(rng.uniforms(3, 1, 2 ** 6)))   # warm up
    shallow = np.sort(rng.uniforms(5, 1, 2 ** n))
    monkeypatch.setattr(randmodel, "slot_counts", None)          # the witness must hold
    tracemalloc.start()
    try:
        assert randmodel.has_empty_interval(5, n, np.zeros(2 ** n, dtype=np.int32), lo, hi, shallow)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (hi - lo) + 2 ** 20, peak


def test_has_empty_interval_draws_the_range_a_chunk_at_a_time(monkeypatch):
    # 2^22 labels (32 MiB) tested 2^20 at a time: one chunk and its masks at once
    n, lo, hi = 6, 2 ** 6, 2 ** 22
    row = np.zeros(2 ** n, dtype=np.int32)
    row[1:] = 1                      # interval 0 = [0, s_0] is the witness
    shallow = np.sort(rng.uniforms(5, 1, 2 ** n))
    shallow[0] = 0.0                 # so no label of the range lies in it
    randmodel.has_empty_interval(5, n, row, lo, 2 ** 8, shallow)   # warm up
    monkeypatch.setattr(randmodel, "slot_counts", None)          # the witness must hold
    tracemalloc.start()
    try:
        assert randmodel.has_empty_interval(5, n, row, lo, hi, shallow)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2 ** 20 + 8 * rng._BLOCK, peak


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
    for seed in (True, 1.5, "7"):
        with pytest.raises(InvalidRangeError, match="seed must be an integer"):
            build_set(MID, 5, "random", seed=seed)


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
