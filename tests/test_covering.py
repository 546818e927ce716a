"""Covering-count and window-sweep tests."""

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
from gapdims.covering import _cover_counts

MID = make_sequence("middle-third")


def _greedy_count(lefts, rights, lo: float, hi: float, r: float) -> int:
    """Serial greedy oracle: one window, one Python pass over its segments."""
    i0 = int(np.searchsorted(rights, lo, side="left"))
    i1 = int(np.searchsorted(lefts, hi, side="right"))
    if i0 >= i1:
        return 0
    seg_l = np.maximum(lefts[i0:i1], lo).tolist()
    seg_r = np.minimum(rights[i0:i1], hi).tolist()
    width = 2.0 * r
    count = 0
    covered = -math.inf
    for sl, sr in zip(seg_l, seg_r):
        if sr <= covered:
            continue
        start = sl if sl > covered else covered
        need = sr - start
        balls = 1 if need <= 0 else math.ceil(need / width - 1e-12)
        count += balls
        covered = start + balls * width
    return count


def batched_counts(lefts, rights, windows):
    """Kernel counts of (lo, hi, r) windows, all resolved in one call."""
    lo, hi, r = (np.array(col, dtype=float) for col in zip(*windows))
    return _cover_counts(lefts, rights, lo, hi, r).tolist()


def exhaustive_cover(segs, lo, hi, r, budget):
    """Branch-and-bound minimal 2r-cover of the clipped segment union.

    At each step the next ball must cover the leftmost uncovered point q,
    so its left endpoint lies in [q - 2r, q]; we branch over every
    geometrically distinct candidate in that range (q itself plus any
    segment endpoint event), not just the greedy choice.  Returns the best
    count found below ``budget``, or ``budget`` if nothing beats it.
    """
    width = 2.0 * r
    clipped = [(max(a, lo), min(b, hi)) for a, b in segs if min(b, hi) >= max(a, lo)]
    events = sorted({v for a, b in clipped for v in (a, b)})

    best = [budget]

    def first_uncovered(cov):
        for a, b in clipped:
            if b > cov + 1e-15:
                return max(a, cov)
        return None

    def rec(cov, used):
        if used >= best[0]:
            return
        q = first_uncovered(cov)
        if q is None:
            best[0] = used
            return
        cands = {q}
        cands.update(e for e in events if q - width <= e <= q)
        cands.update(e - width for e in events if q <= e - width <= q)
        for left in sorted(cands, reverse=True):
            if left <= q <= left + width:
                rec(left + width, used + 1)

    rec(-math.inf, 0)
    return best[0]


def test_greedy_equals_exhaustive_random_instances():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        n_seg = rng.integers(1, 11)
        pts = np.sort(rng.random(2 * n_seg))
        lefts, rights = pts[0::2].copy(), pts[1::2].copy()
        lo, hi = -0.1, 1.1
        r = float(rng.uniform(0.02, 0.3))
        greedy = _greedy_count(lefts, rights, lo, hi, r)
        # greedy itself is a valid cover; the oracle hunts for a strictly
        # smaller one over the full branch tree
        exact = exhaustive_cover(list(zip(lefts, rights)), lo, hi, r, budget=greedy)
        batched = batched_counts(lefts, rights, [(lo, hi, r)])[0]
        if not greedy == batched == exact:
            mismatches += 1
    assert mismatches == 0


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


@pytest.mark.parametrize("w,seed", [(12, 8), (13, 21), (14, 5)])
def test_kernel_equals_serial_greedy_on_policies(w, seed):
    s = build_set(MID, w, "random", seed=seed)
    p = level_sums(MID, 30)
    lefts, rights = s.solid_segments()
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
    lefts, rights = s.solid_segments()
    shrink = 1.0 - 1e-9
    for n in (2, 4):
        for j in (1, 2, 3):
            big_r = shrink * p.s[n]
            got = batched_counts(lefts, rights, [(-big_r, big_r, p.s[n + j])])[0]
            assert got == 2 ** j, (n, j, got)
    # a window reaching past [0, 1] on both sides counts the whole random set
    lefts, rights = build_set(MID, 8, "random", seed=1).solid_segments()
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
    pol = WindowPolicy(n_values=(4,), k_min=2, k_max=5, max_centers=32)
    assert WindowPolicy.from_config(pol.to_config()) == pol


RETIRED = {"k_auto": False, "margin_radius": False, "span_levels_max": None,
           "center_seed": 0, "radius_shrink": 1e-9}


def test_retired_policy_keys():
    cfg = WindowPolicy(n_values=(4,), k_min=3, k_max=4).to_config()
    assert WindowPolicy.from_config({**cfg, **RETIRED}) == WindowPolicy.from_config(cfg)
    others = {"k_auto": [True, 0, None], "margin_radius": [True, 0],
              "span_levels_max": [0, 6, False], "center_seed": [1, False, 0.0, None],
              "radius_shrink": [0.0, 0.01, 1e-8, None]}
    for key, values in others.items():
        for value in values:
            with pytest.raises(GapdimsError, match=f"window policy key '{key}'"):
                WindowPolicy.from_config({**cfg, **RETIRED, key: value})


def test_no_admissible_window_when_too_deep():
    s = build_set(MID, 8, "random", seed=1)
    p = level_sums(MID, 30)
    f = make_dimension_function("zero")
    d = depth_function(f, p, 28)
    # level 7 ladder at depth 8 dives straight below the truncation floor
    with pytest.raises(NoAdmissibleWindowError):
        enumerate_windows(s, d, WindowPolicy(n_values=(7,), k_min=3, k_max=5))

