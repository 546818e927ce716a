"""Covering-count and window-sweep tests."""

import json
import math

import numpy as np
import pytest

from gapdims import (
    GapdimsError,
    InvalidRangeError,
    NoAdmissibleWindowError,
    WindowPolicy,
    build_set,
    depth_function,
    enumerate_windows,
    estimate_dimension,
    level_sums,
    make_dimension_function,
    make_sequence,
)
from gapdims import covering
from gapdims.cli import main
from gapdims.covering import _cover_counts, _lockstep_counts

from helpers import _greedy_count, batched_counts, exhaustive_cover

MID = make_sequence("middle-third")


def test_greedy_handles_exact_multiples():
    # width-1 set, balls of radius 1/8: exactly 4, no off-by-one
    assert _greedy_count(np.array([0.0]), np.array([1.0]), 0.0, 1.0, 0.125) == 4
    # point segments need one ball each unless already covered
    lefts = np.array([0.0, 0.2, 0.21])
    rights = np.array([0.0, 0.2, 0.21])
    assert _greedy_count(lefts, rights, -1.0, 1.0, 0.05) == 2


def test_kernel_edge_cases_match_oracle():
    # zero-length segments, a segment ending exactly where a ball ends,
    # needs that are exact multiples of 2r, windows whose edges sit on
    # segment endpoints, and windows that meet no segment at all
    lefts = np.array([0.0, 0.25, 0.25, 0.5, 0.75, 0.875])
    rights = np.array([0.125, 0.25, 0.375, 0.5, 0.875, 1.0])
    windows = [
        (0.0, 1.0, 0.0625),       # first segment needs exactly one 2r ball
        (0.0, 1.0, 0.03125),      # every need an exact multiple of 2r
        (0.25, 0.5, 0.0625),      # edges on endpoints, point segments at both
        (0.125, 0.875, 0.015625), # edges on right/left endpoints
        (0.5, 0.5, 0.01),         # degenerate window on a point segment
        (0.126, 0.24, 0.01),      # empty: strictly inside a gap
        (1.5, 2.0, 0.1),          # empty: right of every segment
        (-1.0, -0.5, 0.1),        # empty: left of every segment
        (-1.0, 2.0, 1.0),         # one ball covers everything
        (0.0, 1.0, 1e-3),         # many balls per segment
    ]
    want = [_greedy_count(lefts, rights, lo, hi, r) for lo, hi, r in windows]
    assert batched_counts(lefts, rights, windows) == want
    # 2r = 1/8: one ball per segment; the point at 0.25 covers [0.25, 0.375]
    assert want[0] == 5
    # 2r = 1/16: 2 + 1 + 1 (the rest of [0.25, 0.375]) + 1 + 2 + 2
    assert want[1] == 9
    assert want[5:8] == [0, 0, 0]
    assert want[8] == 1
    # one window at a time equals the batch
    assert [batched_counts(lefts, rights, [w])[0] for w in windows] == want
    # a need a hair above a multiple of 2r takes that multiple, so the last
    # ball can stop short of the segment's right end; the sweep still
    # moves on to the next segment
    for right, r, count in ((0.1 + 0.2, 0.05, 3 + 3), (0.375 + 1e-14, 0.0625, 3 + 2)):
        lefts, rights = np.array([0.0, 0.5]), np.array([right, 0.75])
        assert batched_counts(lefts, rights, [(0.0, 1.0, r)]) == \
            [_greedy_count(lefts, rights, 0.0, 1.0, r)] == [count]
    # points only: each needs its own ball unless within reach of the last
    pts = np.array([0.0, 0.1, 0.2, 0.30000000000000004, 0.9])
    point_windows = [(0.0, 1.0, 0.05), (0.0, 0.9, 0.5), (0.1, 0.2, 0.01)]
    assert batched_counts(pts, pts, point_windows) == \
        [_greedy_count(pts, pts, *w) for w in point_windows]


@pytest.fixture
def lockstep_batches(monkeypatch):
    """The (lo, hi, width) of every lockstep batch that `_cover_counts` runs, in order."""
    batches = []

    def spy(lefts, rights, lo, hi, width):
        batches.append((lo.copy(), hi.copy(), width.copy()))
        return _lockstep_counts(lefts, rights, lo, hi, width)

    monkeypatch.setattr(covering, "_lockstep_counts", spy)
    return batches


# r = 1/16, so 2r = 1/8: a point pair exactly 2r apart, a space one ulp
# wider than 2r (inside the break margin), a wide space, a space 1e-9 wider
# than 2r (a break), a point segment and spaces narrower than 2r
CLUSTER_LEFTS = np.array([0.0, 0.125, np.nextafter(0.25, 1.0), 0.5, 0.6875 + 1e-9, 0.85, 0.9])
CLUSTER_RIGHTS = np.array([0.0, 0.125, 0.3125, 0.5625, 0.75, 0.85, 1.0])


def test_cluster_path_matches_oracles(lockstep_batches, monkeypatch):
    # with a bound of 0 balls every window that meets the set takes the cluster path
    monkeypatch.setattr(covering, "_LOCKSTEP_BALLS", 0)
    lefts, rights = CLUSTER_LEFTS, CLUSTER_RIGHTS
    # window edges on endpoints, inside segments, inside spaces and outside the set
    edges = sorted({*lefts.tolist(), *rights.tolist(), -0.1, 0.0625, 0.2, 0.28, 0.4, 0.53,
                    0.6, 0.7, 0.8, 0.95, 1.1})
    wide = [(lo, hi, r) for r in (1 / 16, 1 / 32) for lo in edges for hi in edges if lo <= hi]
    narrow = [(0.5, 0.5625, 0.01)]
    got = batched_counts(lefts, rights, wide + narrow)
    want = [_greedy_count(lefts, rights, *win) for win in wide + narrow]
    assert got == want
    # one batch of full clusters per r, smallest first (0.01: the narrow window's
    # one segment; 1/32: every space but the last is a break; 1/16: the 2r space
    # and the one inside the margin are not), then one batch of the clipped
    # ends, the one-cluster windows and the empty windows
    assert [lo.size for lo, _, _ in lockstep_batches[:3]] == [1, 6, 3]
    assert len(lockstep_batches) == 4
    # the oracle's 1e-15 slack would join the points an ulp apart, so it checks r = 1/32
    segs = list(zip(lefts, rights))
    for (lo, hi, r), count in zip(wide, got):
        if r == 1 / 32:
            assert exhaustive_cover(segs, lo, hi, r, budget=count) == count
    at = {win: count for win, count in zip(wide, got)}
    assert at[0.0, 0.125, 1 / 16] == 1         # one ball reaches across a space of exactly 2r
    assert at[0.0, 0.3125, 1 / 16] == 2        # a space an ulp wider than 2r needs a new ball
    assert at[0.2, 0.28, 1 / 16] == 1          # starts and ends inside a space and a segment
    assert at[0.4, 0.4, 1 / 16] == at[0.6, 0.6, 1 / 32] == 0   # empty windows
    assert at[-0.1, 1.1, 1 / 16] == 2 + 1 + 3


def test_dispatch_sends_wide_groups_to_clusters(lockstep_batches):
    assert covering._LOCKSTEP_BALLS == 256
    lefts, rights = CLUSTER_LEFTS, CLUSTER_RIGHTS
    # 2r = 1/1024: [0.5, 0.75] holds exactly 256 balls and stays on lockstep, one
    # ulp more goes to clusters (two of them, [0.5, 0.5625] and [0.6875, 0.75])
    wins = [(0.5, 0.75, 1 / 2048), (0.5, np.nextafter(0.75, 1.0), 1 / 2048)]
    assert batched_counts(lefts, rights, wins[:1]) == \
        [_greedy_count(lefts, rights, *wins[0])]
    assert [lo.size for lo, _, _ in lockstep_batches] == [1]
    lockstep_batches.clear()
    assert batched_counts(lefts, rights, wins) == \
        [_greedy_count(lefts, rights, *win) for win in wins]
    # the clusters, then the narrow window as it is and the wide one's clipped ends
    (_, _, width), (lo, hi, _) = lockstep_batches
    assert width.tolist() == [1 / 1024] * 2
    assert lo.tolist() == [0.5, 0.5, 0.6875 + 1e-9] and hi.tolist() == [0.75, 0.5625, wins[1][1]]
    # on a random set, one r reached from two levels: with Phi = 0, r = s_9 is
    # 729 balls from n = 3 (clusters) and 81 balls from n = 5 (lockstep)
    s = build_set(MID, 13, "random", seed=21)
    lefts, rights = s.lefts, s.rights
    p = level_sums(MID, 30)
    d = depth_function(make_dimension_function("zero"), p, 28)
    wins = enumerate_windows(s, d, WindowPolicy(n_values=(3, 5), k_min=4, k_max=6))
    n, x, big_r, r = (np.array(col) for col in zip(*((w[0], *w[2:]) for w in wins)))
    assert np.any((n == 3) & (r == p.s[9])) and np.any((n == 5) & (r == p.s[9]))
    lockstep_batches.clear()
    got = _cover_counts(lefts, rights, x - big_r, x + big_r, r)
    assert np.array_equal(got, _lockstep_counts(lefts, rights, x - big_r, x + big_r, 2.0 * r))
    # one cluster batch for r = s_9 (s_11 is below the truncation floor), then the rest
    assert [np.unique(width).tolist() for _, _, width in lockstep_batches[:-1]] == \
        [[2.0 * p.s[9]]]
    # the n = 5 windows of r = s_9 enter the last batch whole, the n = 3 ones clipped
    whole = set(zip(*(v.tolist() for v in lockstep_batches[-1])))
    for level, path in ((5, True), (3, False)):
        at = (n == level) & (r == p.s[9])
        assert {(a, b, 2.0 * p.s[9]) in whole
                for a, b in zip((x - big_r)[at], (x + big_r)[at])} == {path}
    # manifest-like wide windows take the cluster path
    d = depth_function(make_dimension_function("constant", 0.5), p, 28, clip=True)
    x, big_r, r = np.array([w[2:] for w in enumerate_windows(
        s, d, WindowPolicy(n_values=(3,), k_min=1, k_max=4))]).T
    lockstep_batches.clear()
    got = _cover_counts(lefts, rights, x - big_r, x + big_r, r)
    assert len(lockstep_batches) > 1
    assert np.array_equal(got, _lockstep_counts(lefts, rights, x - big_r, x + big_r, 2.0 * r))


@pytest.mark.parametrize("w,seed", [(12, 8), (13, 21), (14, 5)])
def test_kernel_equals_serial_greedy_on_policies(w, seed):
    s = build_set(MID, w, "random", seed=seed)
    p = level_sums(MID, 30)
    lefts, rights = s.lefts, s.rights
    cases = [
        ("zero", None, WindowPolicy(n_values=(3, 5), k_min=1, k_max=3)),
        ("zero", None, WindowPolicy(n_spread=True, auto_n_count=4, max_centers=256)),
        # the ladder's deepest rungs fall below the truncation floor
        ("constant", 0.5, WindowPolicy(n_values=(3,), k_min=1, k_max=8)),
    ]
    for family, param, policy in cases:
        f = make_dimension_function(family, param)
        d = depth_function(f, p, 28, clip=True)
        wins = enumerate_windows(s, d, policy)
        want = [_greedy_count(lefts, rights, x - big_r, x + big_r, r)
                for _, _, x, big_r, r in wins]
        got = batched_counts(lefts, rights, [(x - big_r, x + big_r, r)
                                             for _, _, x, big_r, r in wins])
        assert got == want
        est = estimate_dimension(s, "upper", f, p, d, policy)
        assert [q.count_N for q in est.records] == [c for c in want if c >= 1]
    assert max(k for _, k, *_ in wins) < policy.k_max   # the floor clipped the last ladder


def test_cover_count_cantor_powers():
    # classic: N_{s_{n+j}}(B(0, s_n) cap C) = 2^j for the ternary set
    s = build_set(MID, 14, "cantor")
    p = level_sums(MID, 16)
    lefts, rights = s.lefts, s.rights
    shrink = 1.0 - 1e-9
    for n in (2, 4):
        for j in (1, 2, 3):
            big_r = shrink * p.s[n]
            got = batched_counts(lefts, rights, [(-big_r, big_r, p.s[n + j])])[0]
            assert got == 2 ** j, (n, j, got)
    # a window reaching past [0, 1] on both sides counts the whole random set
    lefts, rights = build_set(MID, 8, "random", seed=1).level_intervals(8)
    assert batched_counts(lefts, rights, [(-1.0, 2.0, 0.1)]) == \
        [_greedy_count(lefts, rights, -1.0, 2.0, 0.1)] == [5]


def test_enumerate_windows_admissibility():
    s = build_set(MID, 12, "random", seed=3)
    p = level_sums(MID, 20)
    f = make_dimension_function("constant", 0.5)
    d = depth_function(f, p, 18, clip=True)
    policy = WindowPolicy(n_values=(3, 4), k_min=1, k_max=2)
    wins = enumerate_windows(s, d, policy)
    floor = s.truncation_floor()
    for n, k, x, big_r, r in wins:
        assert r < big_r
        assert r >= floor
        # the scale pair respects r <= R^(1 + Phi(R)) by construction:
        # r = s_{n + phi(n) + k} <= s_n^(1 + Phi(s_n)) <= R^(1 + Phi(R))
        assert r <= (p.s[n] ** (1.0 + f(p.s[n]))) * (1.0 + 1e-9)
    ns = {w[0] for w in wins}
    assert ns == {3, 4}


def test_estimate_dimension_cantor_control():
    # every window of the rule-based set has exponent ln2/ln3 exactly
    s = build_set(MID, 14, "cantor")
    p = level_sums(MID, 20)
    f = make_dimension_function("zero")
    d = depth_function(f, p, 18)
    policy = WindowPolicy(n_values=(4, 6), k_min=1, k_max=3)
    want = math.log(2.0) / math.log(3.0)
    for direction in ("upper", "lower"):
        est = estimate_dimension(s, direction, f, p, d, policy)
        assert est.beta_hat == pytest.approx(want, abs=1e-7)


def test_estimate_refuses_an_unknown_direction():
    s = build_set(MID, 8, "cantor")
    p = level_sums(MID, 20)
    f = make_dimension_function("zero")
    with pytest.raises(InvalidRangeError, match="direction must be upper or lower"):
        estimate_dimension(s, "sideways", f, p, depth_function(f, p, 18), WindowPolicy())


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_default_policy_has_no_feasible_level_on_a_shallow_set(w):
    s = build_set(MID, w, "random", seed=1)
    p = level_sums(MID, 30)
    f = make_dimension_function("zero")
    d = depth_function(f, p, 28)
    with pytest.raises(NoAdmissibleWindowError,
                       match="no level has covering radii above the truncation floor"):
        estimate_dimension(s, "upper", f, p, d, WindowPolicy())


def test_estimates_count_each_window_once_per_set(monkeypatch):
    passed = []     # number of windows handed to the kernel, per call

    def counting(lefts, rights, lo, hi, r):
        passed.append(len(lo))
        return _cover_counts(lefts, rights, lo, hi, r)

    monkeypatch.setattr(covering, "_cover_counts", counting)
    p = level_sums(MID, 30)
    f = make_dimension_function("zero")
    d = depth_function(f, p, 28, clip=True)
    first = WindowPolicy(n_values=(3, 5), k_min=1, k_max=3)
    overlap = WindowPolicy(n_values=(5, 6), k_min=2, k_max=4)   # shares n = 5, k = 2..3
    s = build_set(MID, 14, "random", seed=5)
    runs = [("upper", first), ("upper", first), ("lower", first), ("lower", overlap),
            ("upper", overlap)]
    got = [estimate_dimension(s, direction, f, p, d, policy) for direction, policy in runs]
    wins = {pol: {w[2:] for w in enumerate_windows(s, d, pol)} for pol in (first, overlap)}
    fresh_overlap = len(wins[overlap] - wins[first])
    assert passed == [len(wins[first]), 0, 0, fresh_overlap, 0]
    assert 0 < fresh_overlap < len(wins[overlap])
    for (direction, policy), est in zip(runs, got):
        fresh = build_set(MID, 14, "random", seed=5)
        assert est == estimate_dimension(fresh, direction, f, p, d, policy)


def test_estimate_refuses_f_or_p_that_d_was_not_built_from():
    # only d is read: a foreign profile used to set the radii, a foreign f was ignored
    s = build_set(MID, 14, "cantor")
    p = level_sums(MID, 20)
    f = make_dimension_function("zero")
    d = depth_function(f, p, 18)
    policy = WindowPolicy(n_values=(4,), k_min=1, k_max=3)
    quarter = level_sums(make_sequence("central", ratios=0.25), 20)
    with pytest.raises(InvalidRangeError, match="d was built from"):
        estimate_dimension(s, "upper", f, quarter, d, policy)
    with pytest.raises(InvalidRangeError, match="d was built from"):
        estimate_dimension(s, "upper", make_dimension_function("constant", 0.5), p, d, policy)
    # an equal Phi built separately is the same Phi
    est = estimate_dimension(s, "upper", make_dimension_function("zero"), p, d, policy)
    assert est.beta_hat == pytest.approx(math.log(2.0) / math.log(3.0), abs=1e-7)


def test_lower_at_most_upper():
    p = level_sums(MID, 20)
    f = make_dimension_function("zero")
    d = depth_function(f, p, 18)
    policy = WindowPolicy(n_values=(4,), k_min=1, k_max=3)
    for seed in range(5):
        s = build_set(MID, 12, "random", seed=seed)
        up = estimate_dimension(s, "upper", f, p, d, policy).beta_hat
        lo = estimate_dimension(s, "lower", f, p, d, policy).beta_hat
        assert lo <= up + 1e-12


def test_policy_validation_and_round_trip():
    with pytest.raises(InvalidRangeError):
        WindowPolicy(k_min=-1)
    with pytest.raises(InvalidRangeError):
        WindowPolicy(k_min=3, k_max=1)
    # each window of a repeated level would be counted and recorded twice
    with pytest.raises(InvalidRangeError, match=r"n_values repeats a level: \[4, 4\]"):
        WindowPolicy(n_values=(4, 4))
    with pytest.raises(InvalidRangeError, match="n_values repeats a level"):
        WindowPolicy.from_config({"n_values": [3, 4, 3]})
    pol = WindowPolicy(n_values=(4,), k_min=2, k_max=5, max_centers=32)
    assert WindowPolicy.from_config(pol.to_config()) == pol


# options of earlier versions, each at the value that left the windows unchanged
FORMER_KEYS = {"k_auto": False, "margin_radius": False, "span_levels_max": None,
               "center_seed": 0, "radius_shrink": 1e-9}


def test_former_policy_keys_are_unknown(tmp_path, monkeypatch, capsys):
    cfg = WindowPolicy(n_values=(4,), k_min=3, k_max=4).to_config()
    monkeypatch.setenv("GAPDIMS_OUT_DIR", str(tmp_path))
    for key, value in FORMER_KEYS.items():
        with pytest.raises(GapdimsError, match=f"unknown key.*window policy: '{key}'"):
            WindowPolicy.from_config({**cfg, key: value})
        assert main(["estimate", "--seq", "middle-third", "--w", "8", "--arrangement", "cantor",
                     "--policy", json.dumps({**cfg, key: value}), "--out", "e"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key") and f"'{key}'" in err, err
    assert not list(tmp_path.iterdir())


def test_no_admissible_window_when_too_deep():
    s = build_set(MID, 8, "random", seed=1)
    p = level_sums(MID, 30)
    f = make_dimension_function("zero")
    d = depth_function(f, p, 28)
    # level 7 ladder at depth 8 dives straight below the truncation floor
    with pytest.raises(NoAdmissibleWindowError):
        enumerate_windows(s, d, WindowPolicy(n_values=(7,), k_min=3, k_max=5))
    with pytest.raises(InvalidRangeError, match="window level 9 outside phi table or depth"):
        enumerate_windows(s, d, WindowPolicy(n_values=(9,), k_min=3, k_max=5))

