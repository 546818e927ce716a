"""Formula-estimate tests for the rule-based arrangement."""

import math

import pytest

from gapdims import (
    InsufficientDepthError,
    NoAdmissibleWindowError,
    box_dim_estimate,
    depth_function,
    level_sums,
    lower_phi_dim_formula,
    make_dimension_function,
    make_sequence,
    upper_phi_dim_formula,
)

LN2 = math.log(2.0)


def brute_force_extremum(log_s, d, n_levels, k0, mode):
    """Independent double loop over every admissible (k, n) window."""
    vals = []
    for k in range(k0, min(n_levels - 1, d.n_max) + 1):
        if k + max(d.phi(k), 1) > n_levels:
            continue
        for n in range(max(d.phi(k), 1), n_levels - k + 1):
            vals.append(n * LN2 / (log_s[k] - log_s[k + n]))
    return (max if mode == "max" else min)(vals)


def test_geometric_schedule_is_exact():
    # s_k/s_{k+n} = r^-n makes every window exponent equal ln2/|ln r|
    for r in (1.0 / 3.0, 0.25, 0.4):
        a = make_sequence("central", ratios=r)
        p = level_sums(a, 64)
        d = depth_function(make_dimension_function("zero"), p, 64)
        up = upper_phi_dim_formula(d, 64)
        lo = lower_phi_dim_formula(d, 64)
        want = LN2 / abs(math.log(r))
        assert up.beta_limit == pytest.approx(want, abs=1e-12)
        assert lo.beta_limit == pytest.approx(want, abs=1e-12)


def test_formula_matches_brute_force():
    a = make_sequence("central", ratios=[0.2, 0.45], schedule="blocks")
    p = level_sums(a, 96)
    f = make_dimension_function("constant", 0.5)
    d = depth_function(f, p, 64, clip=True)
    up = upper_phi_dim_formula(d, 96)
    lo = lower_phi_dim_formula(d, 96)
    k0 = up.k0_ladder[-1][0]
    assert up.beta_limit == pytest.approx(
        brute_force_extremum(p.log_s, d, 96, k0, "max"), abs=1e-12)
    k0 = lo.k0_ladder[-1][0]
    assert lo.beta_limit == pytest.approx(
        brute_force_extremum(p.log_s, d, 96, k0, "min"), abs=1e-12)


def test_ladder_monotonicity():
    # raising the cutoff k0 can only shrink the admissible window set
    a = make_sequence("central", ratios=[0.2, 0.45], schedule="blocks")
    p = level_sums(a, 128)
    d = depth_function(make_dimension_function("constant", 0.5), p, 85, clip=True)
    up = [b for _, b in upper_phi_dim_formula(d, 128).k0_ladder]
    lo = [b for _, b in lower_phi_dim_formula(d, 128).k0_ladder]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(up, up[1:]))
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(lo, lo[1:]))


def test_upper_atleast_box_atleast_lower():
    for ratios, schedule in ((1.0 / 3.0, "constant"), ([0.2, 0.45], "blocks"),
                             ([0.3, 0.4], "periodic")):
        a = make_sequence("central", ratios=ratios, schedule=schedule)
        p = level_sums(a, 96)
        d = depth_function(make_dimension_function("zero"), p, 96)
        up = upper_phi_dim_formula(d, 96).beta_limit
        lo = lower_phi_dim_formula(d, 96).beta_limit
        box = box_dim_estimate(p)
        assert lo - 1e-12 <= box <= up + 1e-12


def test_too_shallow_profile_raises():
    a = make_sequence("middle-third")
    p = level_sums(a, 40)
    f = make_dimension_function("constant", 1.0)
    d = depth_function(f, p, 20, clip=True)
    # phi(k) = k leaves no admissible n above k0 = 4 when N is tiny
    with pytest.raises(NoAdmissibleWindowError):
        upper_phi_dim_formula(d, 7)
    for n_levels in (True, 1.5):
        for formula in (upper_phi_dim_formula, lower_phi_dim_formula):
            with pytest.raises(InsufficientDepthError, match="n_levels must be an integer"):
                formula(d, n_levels)


def test_monotone_in_dimension_function():
    # f <= g pointwise shrinks the threshold depth, enlarging the window
    # set: upper can only grow, lower can only shrink
    a = make_sequence("central", ratios=[0.2, 0.45], schedule="blocks")
    p = level_sums(a, 128)
    fs = [make_dimension_function("zero"),
          make_dimension_function("inverse-log", 1.0),
          make_dimension_function("constant", 0.5),
          make_dimension_function("constant", 1.0)]
    ds = [depth_function(f, p, 64, clip=True) for f in fs]
    ups = [upper_phi_dim_formula(d, 128).beta_limit for d in ds]
    los = [lower_phi_dim_formula(d, 128).beta_limit for d in ds]
    assert all(u2 <= u1 + 1e-12 for u1, u2 in zip(ups, ups[1:]))
    assert all(l2 >= l1 - 1e-12 for l1, l2 in zip(los, los[1:]))


def test_box_dim_middle_third():
    p = level_sums(make_sequence("middle-third"), 64)
    assert box_dim_estimate(p) == pytest.approx(LN2 / math.log(3.0), abs=1e-12)
    assert box_dim_estimate(p) == 64 * LN2 / -p.log_s[64]
