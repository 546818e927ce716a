"""Property-based tests (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapdims import (
    build_set,
    depth_function,
    level_sums,
    lower_phi_dim_formula,
    make_dimension_function,
    make_sequence,
    upper_phi_dim_formula,
)
from gapdims import covering, dimfuncs
from gapdims.covering import _cover_counts, _lockstep_counts

from helpers import _greedy_count

ratios = st.floats(min_value=0.05, max_value=0.45)


@given(r=ratios, n=st.integers(min_value=1, max_value=50))
def test_level_sums_telescope(r, n):
    p = level_sums(make_sequence("central", ratios=r), n)
    assert p.s[n] == pow(r, n) or abs(p.s[n] - r ** n) <= 1e-12 * r ** n
    assert p.level_comparable


@given(r_list=st.lists(ratios, min_size=2, max_size=4), w=st.integers(2, 8),
       seed=st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_arrangement_mass_conserved(r_list, w, seed):
    a = make_sequence("central", ratios=r_list, schedule="periodic")
    s = build_set(a, w, "random", seed=seed)
    total = math.fsum(a.gap_lengths(s.order).tolist()) + math.fsum(s.slot_mass.tolist())
    assert abs(total - 1.0) < 1e-11
    assert np.all(np.diff(np.concatenate([s.rights[:-1], [2.0]])) > 0)
    assert np.all(s.slot_mass >= 0)


@given(delta=st.floats(min_value=0.05, max_value=1.5),
       n=st.integers(min_value=2, max_value=120))
@example(delta=0.05000000000000001, n=20)   # delta * n = 1 + 2e-16 lies inside the slack
@settings(max_examples=60)
def test_constant_depth_ceiling_property(delta, n):
    p = level_sums(make_sequence("middle-third"), 400)
    d = depth_function(make_dimension_function("constant", delta), p, 150, clip=True)
    if d.n_min <= n <= d.n_max:
        # phi(n) is the least j with (n + j) ln 3 >= (1 + delta) n ln 3 (1 - tol):
        # the relative log-space slack keeps decimal inputs such as 0.05 * 20 at 1
        tol = dimfuncs._LOG_TOL
        assert d.phi(n) == math.ceil(delta * n - tol * (1 + delta) * n)


@given(c1=st.floats(0.1, 0.6), c2=st.floats(0.61, 1.5))
@settings(max_examples=25, deadline=None)
def test_formula_monotone_in_phi(c1, c2):
    # f <= g pointwise: upper(f) >= upper(g), lower(f) <= lower(g)
    a = make_sequence("central", ratios=[0.2, 0.45], schedule="blocks")
    p = level_sums(a, 128)
    d1 = depth_function(make_dimension_function("constant", c1), p, 80, clip=True)
    d2 = depth_function(make_dimension_function("constant", c2), p, 80, clip=True)
    assert upper_phi_dim_formula(d1, 128).beta_limit >= \
        upper_phi_dim_formula(d2, 128).beta_limit - 1e-12
    assert lower_phi_dim_formula(d1, 128).beta_limit <= \
        lower_phi_dim_formula(d2, 128).beta_limit + 1e-12


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_greedy_count_monotone_in_radius(data):
    # shrinking r can never reduce the cover count
    n_seg = data.draw(st.integers(1, 6))
    pts = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2 * n_seg,
                                    max_size=2 * n_seg, unique=True)))
    lefts = np.array(pts[0::2])
    rights = np.array(pts[1::2])
    r1 = data.draw(st.floats(0.01, 0.3))
    r2 = data.draw(st.floats(0.001, 0.01))
    c1 = _greedy_count(lefts, rights, 0.0, 1.0, r1)
    c2 = _greedy_count(lefts, rights, 0.0, 1.0, r2)
    assert c2 >= c1


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_dispatched_counts_equal_lockstep(data):
    # segments from sorted points (equal neighbours make point segments); some
    # radii are half a space, so spaces of exactly 2r occur
    n_seg = data.draw(st.integers(1, 8))
    pts = np.sort(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2 * n_seg,
                                     max_size=2 * n_seg)))
    lefts, rights = pts[0::2], pts[1::2]
    halves = [h for h in ((lefts[1:] - rights[:-1]) / 2.0).tolist() if h >= 1e-3]
    radii = st.floats(1e-3, 0.5)
    if halves:
        radii = st.one_of(st.sampled_from(halves), radii)
    wins = data.draw(st.lists(st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2), radii),
                              min_size=1, max_size=6))
    lo, hi, r = (np.array(col) for col in zip(*wins))
    want = _lockstep_counts(lefts, rights, lo, hi, 2.0 * r)
    assert np.array_equal(_cover_counts(lefts, rights, lo, hi, r), want)
    # with a bound of 0 balls every window that meets the set takes the cluster path
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering, "_LOCKSTEP_BALLS", 0)
        assert np.array_equal(_cover_counts(lefts, rights, lo, hi, r), want)


@given(seed=st.integers(0, 2 ** 40), w=st.integers(2, 10))
@settings(max_examples=30, deadline=None)
def test_truncation_floor_positive_and_below_one(seed, w):
    s = build_set(make_sequence("middle-third"), w, "random", seed=seed)
    floor = s.truncation_floor()
    assert 0.0 < floor < 2.0
    assert np.all(s.rights - s.lefts <= floor / 2.0 + 1e-15)
