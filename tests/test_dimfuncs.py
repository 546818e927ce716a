"""Dimension function and depth table tests."""

import math

import numpy as np
import pytest

from gapdims import (
    InsufficientDepthError,
    OutOfDomainError,
    depth_function,
    level_sums,
    make_dimension_function,
    make_sequence,
)
from gapdims.cli import parse_phi

from helpers import eval_phi

MID = make_sequence("middle-third")


def test_family_values():
    x = 1e-6
    L = -math.log(x)
    assert eval_phi(make_dimension_function("zero"), x) == 0.0
    assert eval_phi(make_dimension_function("constant", 0.7), x) == 0.7
    assert eval_phi(make_dimension_function("inverse-log", 2.0), x) == pytest.approx(2.0 / L)
    assert eval_phi(make_dimension_function("psi"), x) == pytest.approx(math.log(L) / L)
    assert eval_phi(make_dimension_function("scaled-psi", 3.0), x) == pytest.approx(3.0 * math.log(L) / L)
    assert eval_phi(make_dimension_function("power-log", 0.5), x) == pytest.approx(L ** -0.5)


def test_tabulated_interpolation_and_clamping():
    f = make_dimension_function("tabulated", grid=[(1e-2, 1.0), (1e-8, 1.0)])
    assert f(1e-4) == pytest.approx(1.0)
    assert f(1e-12) == pytest.approx(1.0)  # clamped beyond the grid


def test_domain_checks():
    f = make_dimension_function("constant", 0.5)
    with pytest.raises(OutOfDomainError):
        f(1.5)
    with pytest.raises(OutOfDomainError):
        f(0.0)
    g = make_dimension_function("psi")
    with pytest.raises(OutOfDomainError):
        g(0.9)  # psi needs x < 1/e


def test_factory_rejects_bad_params():
    with pytest.raises(OutOfDomainError):
        make_dimension_function("constant", -1.0)
    with pytest.raises(OutOfDomainError):
        make_dimension_function("power-log", 1.5)
    with pytest.raises(OutOfDomainError):
        make_dimension_function("nope")
    with pytest.raises(OutOfDomainError):
        # decreasing too fast: x^(1+f) increases as x shrinks
        make_dimension_function("tabulated", grid=[(1e-2, 5.0), (1e-3, 0.0), (1e-8, 0.0)])


def test_inverse_log_depth_is_bounded():
    # phi(n) = ceil(n * c/(n ln 3) ) = ceil(c / ln 3), constant in n
    p = level_sums(MID, 128)
    d = depth_function(make_dimension_function("inverse-log", 1.0), p, 120)
    assert d.phi_values.max() <= math.ceil(1.0 / math.log(3.0))
    assert d.phi_values.max() >= 1


def test_depth_monotone_in_function():
    # pointwise f <= g forces phi_f <= phi_g
    p = level_sums(MID, 300)
    d_small = depth_function(make_dimension_function("constant", 0.3), p, 100)
    d_big = depth_function(make_dimension_function("constant", 0.6), p, 100)
    assert np.all(d_small.phi_values <= d_big.phi_values)


def test_depth_clipping():
    p = level_sums(MID, 128)
    f = make_dimension_function("constant", 1.0)
    with pytest.raises(InsufficientDepthError):
        depth_function(f, p, 128)
    d = depth_function(f, p, 128, clip=True)
    assert d.n_max == 64  # deepest n with n + phi(n) = 2n <= 128
    assert d.phi(64) == 64
    for n in (True, 1.5):
        with pytest.raises(InsufficientDepthError, match="n_max must be an integer"):
            depth_function(f, p, n, clip=True)
        with pytest.raises(OutOfDomainError, match="phi level n must be an integer"):
            d.phi(n)


def test_regimes():
    p = level_sums(MID, 300)
    assert depth_function(make_dimension_function("constant", 1.0), p, 150).regime == "large"
    assert depth_function(make_dimension_function("zero"), p, 150).regime == "small"
    assert depth_function(make_dimension_function("inverse-log", 1.0), p, 150).regime == "small"


_PHIS = ("zero", "invlog:1", "invlog:3", "const:0.01", "psi", "const:0.05", "scaled-psi:2",
         "powerlog:0.5", "const:0.5", "const:1")
_SHALLOW = (("zero", "invlog:1", "invlog:3", "const:0.01"), ("psi", "const:0.05"))


@pytest.mark.parametrize("levels, n_max, small, indeterminate", [
    (60, 59, *_SHALLOW),   # a dichotomy's table
    (64, 64, *_SHALLOW),   # `dims` at its default
    (200, 200, ("zero", "invlog:1", "invlog:3"), ("const:0.01", "psi")),
])
def test_regime_reads_the_load_ratio_on_middle_third(levels, n_max, small, indeterminate):
    # every Phi not listed small or indeterminate reads large
    p = level_sums(MID, levels)
    assert {phi: depth_function(parse_phi(phi), p, n_max, clip=True).regime for phi in _PHIS} == {
        **dict.fromkeys(_PHIS, "large"), **dict.fromkeys(small, "small"),
        **dict.fromkeys(indeterminate, "indeterminate")}


def test_psi_depth_grows_slower_than_linear():
    p = level_sums(MID, 390)
    d = depth_function(make_dimension_function("psi"), p, 250, clip=True)
    ns = np.arange(d.n_min, d.n_max + 1)
    # phi(n) ~ n ln(ln s_n)/|ln s_n| = n ln(n ln 3)/(n ln 3): logarithmic growth
    assert d.phi_values[-1] < 10
    assert d.phi_values[-1] >= d.phi_values[0]
    expect = ns * np.log(ns * math.log(3.0)) / (ns * math.log(3.0))
    assert np.all(np.abs(d.phi_values - expect) <= 1.0)
