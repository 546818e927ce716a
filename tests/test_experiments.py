"""Experiment-layer tests: laws of the random model, bound checks, and
the manifest engine with its validation."""

import copy
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from gapdims import (
    DepthUnsupportedError,
    DimensionFunction,
    GapdimsError,
    InvalidRangeError,
    OutOfRegimeError,
    WindowPolicy,
    binomial_tail_check,
    build_set,
    depth_function,
    empty_bin_probability,
    estimate_dimension,
    interval_length_lemma_check,
    make_dimension_function,
    make_sequence,
    max_load_statistic,
    run_dichotomy_experiment,
    run_manifest,
)
from gapdims import experiments, randmodel, rng
from gapdims.cli import main
from gapdims.experiments import (
    MANIFEST_KINDS,
    SCHEMA_VERSION,
    TARGETS,
    binomial_tail_mass,
    check_thresholds,
    critical_load,
    length_constant,
    policies_from_config,
    validate_manifest,
    validate_thresholds,
)
from gapdims.rng import derive_seed
from gapdims.sequences import level_sums

from helpers import bincount_empty_bin, exact_binomial_tail, report_json

MID = make_sequence("middle-third")


# -- max load ----------------------------------------------------------------

def test_critical_load_formula():
    # K_n = 2 ln(2^n) / ln(2^n ln(2^n) / 2^(n+phi))
    n, phi = 20, 2
    ln_bins = 20 * math.log(2.0)
    want = 2 * ln_bins / math.log(ln_bins / 4.0)
    assert critical_load(n, phi) == pytest.approx(want, rel=1e-12)
    assert critical_load(20, 2) == pytest.approx(22.307, abs=1e-3)


def test_max_load_regime_guards():
    with pytest.raises(OutOfRegimeError):
        max_load_statistic(MID, 20, 10, 4, 5, 1)  # 2^4 > ln(2^10)
    with pytest.raises(DepthUnsupportedError):
        max_load_statistic(MID, 12, 10, 3, 5, 1)  # W < n + phi_n
    three = make_sequence("explicit", gaps=[0.5, 0.25, 0.25])
    with pytest.raises(DepthUnsupportedError, match="sequence defines 3 gaps, depth 14 needs"):
        max_load_statistic(three, 14, 10, 2, 5, 1)   # counts gaps the sequence lacks


@pytest.mark.parametrize("w", [True, 10.5, "14"])
def test_max_load_and_interval_length_refuse_a_depth_that_is_not_an_integer(w):
    with pytest.raises(DepthUnsupportedError, match=r"depth W must be an integer in \[1, 26\]"):
        max_load_statistic(MID, w, 8, 2, 1, 1)
    with pytest.raises(DepthUnsupportedError, match=r"depth W must be an integer in \[1, 26\]"):
        interval_length_lemma_check(MID, w, 6, 1, 1)


def test_max_load_small_case_reproducible():
    r1 = max_load_statistic(MID, 14, 10, 2, 30, master_seed=5)
    r2 = max_load_statistic(MID, 14, 10, 2, 30, master_seed=5)
    assert r1 == r2
    assert sum(r1["histogram"].values()) == 30
    assert r1["cantor_load"] == 3
    # random max load must beat the uniform (cantor) load in every trial:
    # mean deep count is ~3 per interval and the max is far above the mean
    assert min(r1["histogram"]) >= r1["cantor_load"]


def test_max_load_dominates_cantor_stochastically():
    r = max_load_statistic(MID, 14, 8, 2, 50, master_seed=9)
    loads = [v for v, c in r["histogram"].items() for _ in range(c)]
    # empirical CDF of the random M_n sits right of the cantor constant
    assert np.mean(np.array(loads) > r["cantor_load"]) > 0.9


# -- empty bins --------------------------------------------------------------

def test_empty_bin_extremes():
    assert empty_bin_probability(1, 1, 20, 3)["frequency"] == 1.0  # 2 bins, 1 ball
    dense = empty_bin_probability(4, 16 * 40, 50, 3)
    assert dense["frequency"] <= 0.1  # 40 balls per bin on average


def test_empty_bin_matches_poisson_prediction():
    # lambda = bins * exp(-balls/bins) moderate: frequency ~ 1 - e^-lambda
    rep = empty_bin_probability(10, 1024 * 7, 200, master_seed=11)
    assert rep["frequency"] == pytest.approx(rep["poisson_predicted_frequency"], abs=0.1)


def _empty_bin_trial(monkeypatch, n_bins_log2, balls):
    """The trial function that empty_bin_probability hands to its trial loop."""
    trials = []
    monkeypatch.setattr(experiments, "_trial_records", lambda trial, *_: trials.append(trial) or [])
    empty_bin_probability(n_bins_log2, balls, 1, 0)
    return trials[0]


@pytest.mark.parametrize("n_bins_log2,balls,seeds", [
    (1, 1, range(5)),
    (4, 3 * 2 ** 15 + 7, range(5)),        # three whole blocks and a remainder
    (10, 2 ** 15, range(5)),               # exactly one block
    (20, 5 * 2 ** 20, range(5)),
    (13, 2 * 2 ** 15 + 8281, range(20)),   # the remainder fills most bins two blocks miss
])
def test_empty_bin_trial_equals_the_bincount_oracle(monkeypatch, n_bins_log2, balls, seeds):
    trial = _empty_bin_trial(monkeypatch, n_bins_log2, balls)
    got = [trial(seed)["empty"] for seed in seeds]
    assert got == [bincount_empty_bin(seed, n_bins_log2, balls) for seed in seeds]
    if n_bins_log2 == 13:
        assert set(got) == {True, False}   # both outcomes occur, so the check can fail


def test_empty_bin_trial_holds_one_byte_per_bin_and_one_block(monkeypatch):
    trial = _empty_bin_trial(monkeypatch, 20, 5 * 2 ** 20)
    peaks = []
    for run in (lambda: trial(3), lambda: bincount_empty_bin(3, 20, 5 * 2 ** 20)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    trial_peak, oracle_peak = peaks
    assert trial_peak < 2 * 2 ** 20 <= oracle_peak


# -- interval length lemma ---------------------------------------------------

def test_length_constant_middle_third_is_one():
    # a_{2^{j-1}} = (1 - 2/3) * 3^{-(j-1)} = 3^{-j} = s_j exactly
    assert length_constant(level_sums(MID, 24)) == pytest.approx(1.0, rel=1e-12)


def test_interval_length_check_small():
    rep = interval_length_lemma_check(MID, 14, 8, 40, master_seed=2)
    assert rep["epsilon_n"] == pytest.approx(4 * math.log(8) / 8, rel=1e-12)
    assert 0.0 <= rep["frequency"] <= 1.0
    assert rep["cantor_within_bound"]
    assert rep["median_max_length"] < rep["bound"]


@pytest.mark.parametrize("trials, master_seed, message", [
    (0, 1, "trials must be an integer in"), (4, "1", "master_seed must be an integer")])
@pytest.mark.parametrize("experiment", [
    lambda trials, seed: max_load_statistic(MID, 12, 8, 2, trials, seed),
    lambda trials, seed: empty_bin_probability(8, 100, trials, seed),
    lambda trials, seed: interval_length_lemma_check(MID, 12, 6, trials, seed),
], ids=["max_load", "empty_bin", "interval_length"])
def test_experiments_check_trials_and_master_seed(experiment, trials, master_seed, message,
                                                  no_trials):
    with pytest.raises(InvalidRangeError, match=message):
        experiment(trials, master_seed)


# -- binomial tails ----------------------------------------------------------

def test_exact_tail_matches_scipy():
    m, p = 5000, 1.0 / 32.0
    lo, hi = 130, 180
    want = stats.binom.cdf(lo, m, p) + stats.binom.sf(hi - 1, m, p)
    assert binomial_tail_mass(m, p, lo, hi) == pytest.approx(want, rel=1e-9)
    assert binomial_tail_mass(m, p, None, hi) == pytest.approx(
        stats.binom.sf(hi - 1, m, p), rel=1e-9)


@pytest.mark.parametrize("m,n", [(3000, 2), (4096, 3), (2 ** 13, 5), (16384, 6)])
def test_tail_mass_is_exact_to_rounding(m, n):
    # the two-sided, upper and lower tails that binomial_tail_check sums at eta = 1/12
    mp = m * 2.0 ** -n
    two_sided = (math.floor(11 / 12 * mp + 1e-9), math.ceil(13 / 12 * mp - 1e-9))
    for lo, hi in (two_sided, (None, two_sided[1]), (two_sided[0], None)):
        want = exact_binomial_tail(m, n, lo, hi)
        assert binomial_tail_mass(m, 2.0 ** -n, lo, hi) == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("lo,hi,adds", [
    (None, None, 0.0), (-1, None, 0.0), (None, 41, 0.0), (-3, 44, 0.0),
    (40, None, 1.0), (45, None, 1.0), (None, 0, 1.0), (None, -2, 1.0), (45, -2, 2.0),
])
def test_tail_mass_edge_bounds(lo, hi, adds):
    # lo of None or below 0 and hi of None or above M add 0; lo >= M and hi <= 0 add 1
    assert binomial_tail_mass(40, 0.25, lo, hi) == adds
    assert exact_binomial_tail(40, 2, lo, hi) == adds


def test_tail_mass_memory_does_not_grow_with_m():
    import scipy.special   # noqa: F401  imported first: the import alone traces ~14 MiB

    tracemalloc.start()
    try:
        binomial_tail_mass(2 ** 26, 0.5, 2 ** 25 - 8192, 2 ** 25 + 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_tail_check_example_values():
    rows = binomial_tail_check([(2 ** 13, 5), (2 ** 15, 5)], 1.0 / 12.0)
    r0, r1 = rows
    # Mp = 256: bound = exp(-256/432) / ((1/12) * 16) = 0.75 exp(-0.59259..)
    assert r0["dml_bound"] == pytest.approx(0.75 * math.exp(-256.0 / 432.0), rel=1e-12)
    assert r0["exact_two_sided_tail"] <= r0["dml_bound"]
    # Mp = 1024: corollary bound exp(-1024/432) ~ 0.0935
    assert r1["corollary_bound"] == pytest.approx(math.exp(-1024.0 / 432.0), rel=1e-12)
    assert r1["corollary_in_hypothesis"]
    assert max(r1["exact_upper_tail"], r1["exact_lower_tail"]) <= r1["corollary_bound"]
    assert r0["pass"] is True and r1["pass"] is True


def test_tail_check_skips_out_of_hypothesis_rows():
    rows = binomial_tail_check([(10, 4)], 1.0 / 12.0)
    assert not rows[0]["in_hypothesis"]
    assert rows[0]["skip_reason"]
    assert rows[0]["pass"] is None
    with pytest.raises(Exception):
        binomial_tail_check([(100, 2)], 0.5)  # eta too large


@pytest.mark.parametrize("grid,what", [
    ([(0, 5)], "M"), ([(-3, 2)], "M"), ([(100, 0)], "N"), ([(2 ** 13, 5), (100, -1)], "N"),
    ([(10.5, 4)], "M"), ([(True, 4)], "M"),
])
def test_tail_check_refuses_grid_values_that_are_not_positive_integers(grid, what):
    with pytest.raises(InvalidRangeError, match=rf"^{what} must be an integer in \[1, inf\)"):
        binomial_tail_check(grid, 1.0 / 12.0)


def test_tail_check_refuses_a_grid_past_the_deepest_draw_before_any_tail(monkeypatch):
    # no experiment draws more than 2^26 labels, so no tail past M = 2^26 is checked
    def no_tail(*args):
        raise AssertionError("a tail was summed before the grid was checked")
    monkeypatch.setattr(experiments, "binomial_tail_mass", no_tail)
    for grid in ([(2 ** 32, 1)], [(2 ** 13, 5), (2 ** randmodel.MAX_DEPTH + 1, 8)]):
        with pytest.raises(InvalidRangeError, match=r"^M must be an integer in \[1, 67108864\]"):
            binomial_tail_check(grid, 1.0 / 12.0)


# -- dichotomy purity --------------------------------------------------------

def small_policies():
    pol = WindowPolicy(n_values=(2,), k_min=1, k_max=1, max_centers=16)
    return {8: (pol, pol), 11: (pol, pol), 14: (pol, pol)}


def test_dichotomy_pure_function_of_seed():
    f = make_dimension_function("constant", 0.5)
    r1 = run_dichotomy_experiment(MID, f, 14, 4, 77, small_policies())
    r2 = run_dichotomy_experiment(MID, f, 14, 4, 77, small_policies())
    assert report_json(r1) == report_json(r2)
    r3 = run_dichotomy_experiment(MID, f, 14, 4, 78, small_policies())
    assert report_json(r1) != report_json(r3)


def test_dichotomy_per_trial_sandwich():
    f = make_dimension_function("zero")
    rep = run_dichotomy_experiment(MID, f, 14, 4, 5, small_policies())
    for summary in rep["depths"]:
        for t in summary["trials"]:
            assert t["beta_low"] <= t["beta_up"] + 1e-12
    assert rep["targets"]["box"] == pytest.approx(math.log(2) / math.log(3), abs=1e-9)


def test_dichotomy_matched_seed_ordering():
    # small-regime Phi (zero) vs large-regime Phi (const): on the same
    # seeds the zero-phi upper median dominates and lower median is lower
    zero = run_dichotomy_experiment(MID, make_dimension_function("zero"),
                                    14, 6, 13, None)
    const = run_dichotomy_experiment(MID, make_dimension_function("constant", 0.5),
                                     14, 6, 13, None)
    assert zero["depths"][-1]["median_up"] >= const["depths"][-1]["median_up"]
    assert zero["depths"][-1]["median_low"] <= const["depths"][-1]["median_low"]
    # matched seeds: the same trial draws the same omega stream
    assert [t["seed"] for t in zero["depths"][0]["trials"]] == \
        [t["seed"] for t in const["depths"][0]["trials"]]


def test_default_policies_are_one_rule_for_every_phi():
    # below depth 14: n = 2, k in [1, 2]; from 14 on: n = 4, k in [depth - 11, depth - 10]
    rule = {8: WindowPolicy(n_values=(2,), k_min=1, k_max=2),
            11: WindowPolicy(n_values=(2,), k_min=1, k_max=2),
            14: WindowPolicy(n_values=(4,), k_min=3, k_max=4)}
    want = {str(depth): [pol.to_config(), pol.to_config()] for depth, pol in rule.items()}
    for f in (make_dimension_function("zero"), make_dimension_function("constant", 1.0)):
        rep = run_dichotomy_experiment(MID, f, 14, 1, 5, policies=None)
        assert rep["config"]["policies"] == want


def test_reports_record_derived_trial_seeds():
    want = list(enumerate(derive_seed(77, t) for t in range(3)))
    rep = run_dichotomy_experiment(MID, make_dimension_function("zero"), 14, 3, 77,
                                   small_policies())
    for summary in rep["depths"]:
        assert [(t["trial_id"], t["seed"]) for t in summary["trials"]] == want
    detail = max_load_statistic(MID, 12, 8, 2, 3, master_seed=77)["trials_detail"]
    assert [(t["trial_id"], t["seed"]) for t in detail] == want


def test_dichotomy_cantor_controls_equal_direct_estimates():
    # distinct upper and lower policies, so a swapped pair shows
    low = WindowPolicy(n_values=(3,), k_min=1, k_max=2, max_centers=16)
    policies = {d: (up, low) for d, (up, _) in small_policies().items()}
    f = make_dimension_function("zero")
    rep = run_dichotomy_experiment(MID, f, 14, 1, 5, policies, workers=2)
    p = level_sums(MID, 60)
    d = depth_function(f, p, 59, clip=True)
    for summary in rep["depths"]:
        cset = build_set(MID, summary["depth"], "cantor")
        up, low = policies[summary["depth"]]
        assert summary["cantor_up"] == estimate_dimension(cset, "upper", f, p, d, up).beta_hat
        assert summary["cantor_low"] == estimate_dimension(cset, "lower", f, p, d, low).beta_hat


# -- manifest threshold rules ------------------------------------------------

LADDER = [{"median_up": 0.9, "median_low": 0.2, "sandwich_violations": 0},
          {"median_up": 0.8, "median_low": 0.3, "sandwich_violations": 0}]


def test_thresholds_with_target_pass_and_fail():
    rules = {"upper": {"drift": "toward", "target": "formula_upper",
                       "final_distance_max": 0.06}}
    checks = check_thresholds(rules, LADDER, {"formula_upper": 0.75})
    assert [c["pass"] for c in checks] == [True, True]
    checks = check_thresholds(rules, LADDER, {"formula_upper": 0.95})
    assert [c["pass"] for c in checks] == [False, False]


@pytest.mark.parametrize("rule", [
    {"drift": "toward"},
    {"final_distance_max": 0.1},
    {"drift": "toward", "final_distance_max": 0.1, "target": None},
])
def test_threshold_distance_rule_without_target_raises(rule):
    with pytest.raises(GapdimsError, match="no target"):
        validate_thresholds({"lower": rule})


def test_threshold_unknown_drift_raises():
    # a typo must not turn the rule into zero checks that pass vacuously
    with pytest.raises(GapdimsError, match="unknown upper drift"):
        validate_thresholds({"upper": {"drift": "decreasing"}})


UPS, LOWS = [0.5, 0.625, 0.75], [0.25, 0.25, 0.125]   # binary fractions: exact distances
DRIFT_LADDER = [{"median_up": up, "median_low": low, "sandwich_violations": 0}
                for up, low in zip(UPS, LOWS)]


@pytest.mark.parametrize("side, rule, record", [
    ("upper", {"drift": "toward", "target": "formula_upper"},
     {"check": "upper drift toward 1.000000", "distances": [0.5, 0.375, 0.25], "pass": True}),
    ("upper", {"drift": "toward", "target": 0},
     {"check": "upper drift toward 0.000000", "distances": UPS, "pass": False}),
    ("upper", {"drift": "increasing"},
     {"check": "upper medians strictly increasing", "medians": UPS, "pass": True}),
    ("lower", {"drift": "increasing"},
     {"check": "lower medians strictly increasing", "medians": LOWS, "pass": False}),
    ("lower", {"drift": "non-increasing"},
     {"check": "lower medians non-increasing", "medians": LOWS, "pass": True}),
    ("upper", {"drift": "non-increasing"},
     {"check": "upper medians non-increasing", "medians": UPS, "pass": False}),
])
def test_drift_check_records(side, rule, record):
    rules = validate_thresholds({side: rule})
    assert check_thresholds(rules, DRIFT_LADDER, {"formula_upper": 1.0}) == [record]


def test_validated_thresholds_drop_nulls_and_evaluate_in_order():
    rules = validate_thresholds({"upper": {"drift": "increasing", "target": None,
                                           "final_min": 0.5, "final_max": None},
                                 "lower": None, "sandwich": True})
    assert rules == {"upper": {"drift": "increasing", "final_min": 0.5}, "sandwich": True}
    checks = check_thresholds(rules, LADDER, {})
    assert [c["check"] for c in checks] == [
        "upper medians strictly increasing", "upper final median > 0.5",
        "per-trial sandwich lower <= box <= upper (0.05 slack)"]
    assert [c["pass"] for c in checks] == [False, True, True]


def test_report_targets_are_the_validated_names():
    rep = run_dichotomy_experiment(MID, make_dimension_function("zero"), 14, 1, 3,
                                   small_policies())
    assert tuple(rep["targets"]) == TARGETS


# -- manifests -----------------------------------------------------------------

PINNED = os.path.join(os.path.dirname(__file__), "..", "manifests",
                      "dichotomy_middle_third.json")
POLICY = WindowPolicy(n_values=(2,), k_min=1, k_max=1, max_centers=16).to_config()


def small_manifest() -> dict:
    return copy.deepcopy({
        "schema_version": 1, "name": "small", "sequence": {"kind": "middle-third"},
        "w": 14, "trials": 2, "master_seed": 5,
        "experiments": [
            {"name": "dich", "kind": "dichotomy",
             "dimension_function": {"family": "constant", "param": 0.5},
             "policies": {str(d): [POLICY, POLICY] for d in (8, 11, 14)},
             "thresholds": {"upper": {"drift": "toward", "target": "formula_upper",
                                      "final_distance_max": 0.5},
                            "lower": {"final_max": 1.0}, "sandwich": True}},
            {"name": "ml", "kind": "max_load", "w": 12, "n": 8, "phi_n": 2,
             "min_frequency": 0.0},
            {"name": "eb", "kind": "empty_bin", "n_bins_log2": 6, "balls": 64,
             "min_frequency": 0.0},
            {"name": "il", "kind": "interval_length", "w": 12, "n": 6, "min_frequency": 0.0},
        ],
    })


def _at(manifest, path):
    for key in path[:-1]:
        manifest = manifest[key]
    return manifest, path[-1]


def put(*path, value):
    def edit(m):
        obj, key = _at(m, path)
        obj[key] = value
        return m
    return edit


def drop(*path):
    def edit(m):
        obj, key = _at(m, path)
        del obj[key]
        return m
    return edit


def chain(*edits):
    def edit(m):
        for each in edits:
            m = each(m)
        return m
    return edit


def max_load_first(m):
    # the dichotomy runs second, so a check that only it makes comes after max-load trials
    m["experiments"][:2] = m["experiments"][1::-1]
    return m


def short_explicit_sequence(m):
    # middle-third gaps of levels 1..17, rescaled to sum 1: 2^17 - 1 gaps, too few for W = 18
    levels = np.repeat(np.arange(1, 18), 2 ** np.arange(17))
    gaps = 3.0 ** -levels
    m["sequence"] = {"kind": "explicit", "gaps": (gaps / math.fsum(gaps)).tolist()}
    return m


def rename(*path, to):
    def edit(m):
        obj, key = _at(m, path)
        obj[to] = obj.pop(key)
        return m
    return edit


def tabulated(grid):
    return put(*DICH, "dimension_function", value={"family": "tabulated", "grid": grid})


def explicit(gaps):
    # alone, the empty_bin entry would run on any sequence, so a gap list
    # that slipped through would run a trial
    def edit(m):
        m["sequence"] = {"kind": "explicit", "gaps": gaps}
        m["experiments"] = [m["experiments"][2]]
        return m
    return edit


DICH = ("experiments", 0)
RULES = DICH + ("thresholds",)
EXPLICIT_GAPS = "explicit gaps must be a list of finite numbers"
SCHEMA_1 = r"schema_version must be an integer in \[1, 1\]"
MALFORMED = {
    # case: (edit of small_manifest(), error message pattern)
    "no experiments": (put("experiments", value=[]), "non-empty list"),
    "experiments not a list": (put("experiments", value={}), "non-empty list"),
    "dichotomy without thresholds": (drop(*RULES), "missing key.*'thresholds'"),
    "thresholds with no check": (put(*RULES, value={"sandwich": False}), "define no check"),
    "empty thresholds": (put(*RULES, value={}), "define no check"),
    "side rule with no check": (put(*RULES, "lower", value={"target": "box"}),
                                "lower rule defines no check"),
    "thresholds not an object": (put(*RULES, value=[]), "thresholds must be a JSON object"),
    "misspelt side": (rename(*RULES, "upper", to="uper"), "unknown key.*'uper'"),
    "misspelt rule key": (rename(*RULES, "lower", "final_max", to="final_mn"),
                          "unknown key.*'final_mn'"),
    "unknown drift": (put(*RULES, "upper", "drift", value="decreasing"),
                      "unknown upper drift"),
    "unknown named target": (put(*RULES, "upper", "target", value="formula_uper"),
                             "unknown upper target"),
    "toward without target": (drop(*RULES, "upper", "target"), "no target"),
    "final distance without target": (put(*RULES, "lower", "final_distance_max", value=0.1),
                                      "lower rule measures distance but has no target"),
    "missing min_frequency": (drop("experiments", 1, "min_frequency"),
                              "missing key.*'min_frequency'"),
    "unknown entry key": (put("experiments", 2, "min_freq", value=0.5), "'min_freq'"),
    "missing entry key": (drop("experiments", 3, "n"), "missing key.*'n'"),
    "unknown kind": (put("experiments", 3, "kind", value="interval"), "kind is one of"),
    "entry not an object": (put("experiments", 1, value="max_load"), "kind is one of"),
    "kind not a string": (put("experiments", 1, "kind", value=["max_load"]), "kind is one of"),
    "target not a name or number": (put(*RULES, "upper", "target", value=[0.6]),
                                    "unknown upper target"),
    "policies without depth 11": (drop(*DICH, "policies", "11"), "missing key.*'11'"),
    "policies with an extra depth": (put(*DICH, "policies", "12", value=[POLICY, POLICY]),
                                     "unknown key.*'12'"),
    "policies for another ladder": (put("w", value=16), "policies for depths"),
    "policy pair of one": (put(*DICH, "policies", "8", value=[POLICY]), "pair"),
    "unknown policy key": (put(*DICH, "policies", "14", 0, "n_value", value=[4]),
                           "window policy: 'n_value'"),
    "policy k_min a string": (put(*DICH, "policies", "14", 0, "k_min", value="1"),
                              "k_min must be an integer"),
    "policy n_values a number": (put(*DICH, "policies", "8", 1, "n_values", value=4),
                                 "n_values must be null or a non-empty list"),
    "policy n_values not integers": (chain(put(*DICH, "policies", "11", 0, "n_values",
                                               value=[4.5]), max_load_first),
                                     "n_values entries must be an integer"),
    "policy n_values empty": (put(*DICH, "policies", "14", 1, "n_values", value=[]),
                              "n_values must be null or a non-empty list"),
    "policy n_values repeats a level": (chain(put(*DICH, "policies", "14", 0, "n_values",
                                                  value=[4, 4]), max_load_first),
                                        "n_values repeats a level"),
    "policy max_centers a bool": (put(*DICH, "policies", "14", 0, "max_centers", value=True),
                                  "max_centers must be an integer"),
    "policy auto_n_count a float": (put(*DICH, "policies", "8", 0, "auto_n_count", value=2.0),
                                    "auto_n_count must be an integer"),
    "policy n_spread not a bool": (put(*DICH, "policies", "8", 0, "n_spread", value=1),
                                   "n_spread must be true or false"),
    # the five keys of earlier versions are unknown at any value
    "policy removed key at another value": (put(*DICH, "policies", "11", 1, "margin_radius",
                                                value=True),
                                            "window policy: 'margin_radius'"),
    "policy removed key at its old value": (put(*DICH, "policies", "14", 0, "radius_shrink",
                                                value=1e-9),
                                            "window policy: 'radius_shrink'"),
    "unknown dimension-function key": (put(*DICH, "dimension_function", "parm", value=1),
                                       "'parm'"),
    "dimension function without family": (drop(*DICH, "dimension_function", "family"),
                                          "missing key.*'family'"),
    "unknown sequence key": (put("sequence", "ratio", value=0.3), "sequence: 'ratio'"),
    "periodic sequence without ratios": (
        put("sequence", value={"kind": "central", "schedule": "periodic", "ratios": []}),
        "periodic schedule takes at least 1 ratio"),
    "blocks sequence of one ratio": (
        put("sequence", value={"kind": "central", "schedule": "blocks", "ratios": [0.3]}),
        "blocks schedule takes exactly 2 ratio"),
    "sequence ratio null": (put("sequence", value={"kind": "central", "ratios": [None]}),
                            "ratio must be a number"),
    "sequence ratio a string": (put("sequence", value={"kind": "central", "ratios": "0.3"}),
                                "ratio must be a number"),
    "dimension-function param a string": (put(*DICH, "dimension_function", "param",
                                              value="0.5"),
                                          "constant parameter must be a number"),
    "dimension-function param a bool": (put(*DICH, "dimension_function", "param", value=True),
                                        "constant parameter must be a number"),
    "sequence without kind": (put("sequence", value={}), "missing key.*'kind'"),
    "ratios on middle-third": (put("sequence", "ratios", value=[0.3]),
                               "middle-third sequence takes no ratios"),
    "schedule on middle-third": (put("sequence", "schedule", value="constant"),
                                 "middle-third sequence takes no schedule"),
    "gaps on middle-third": (put("sequence", "gaps", value=[1.0]),
                             "middle-third sequence takes no gaps"),
    "gaps on central": (put("sequence", value={"kind": "central", "ratios": [0.3],
                                               "gaps": [1.0]}),
                        "central sequence takes no gaps"),
    "ratios on explicit": (chain(explicit([0.5, 0.25, 0.25]), put("sequence", "ratios",
                                                                  value=[0.3])),
                           "explicit sequence takes no ratios"),
    "schedule on explicit": (chain(explicit([0.5, 0.25, 0.25]), put("sequence", "schedule",
                                                                    value="blocks")),
                             "explicit sequence takes no schedule"),
    "tabulated grid point null": (tabulated([[None, 1.0], [0.01, 0.5]]),
                                  "tabulated grid entry must be a number"),
    "tabulated grid a number": (tabulated(5), r"needs a list of >= 2 \[x, value\] pairs"),
    "tabulated grid points of one": (tabulated([[0.1], [0.2]]),
                                     r"needs a list of >= 2 \[x, value\] pairs"),
    "tabulated grid of strings": (tabulated([["0.1", 0.5], ["0.01", 0.5]]),
                                  "tabulated grid entry must be a number"),
    "tabulated grid value NaN": (tabulated([[0.1, math.nan], [0.01, 0.5]]),
                                 "tabulated grid entry must be a number"),
    "explicit gaps as strings": (explicit(["0.5", "0.25", "0.25"]), EXPLICIT_GAPS),
    "explicit gaps a string": (explicit("ab"), EXPLICIT_GAPS),
    "explicit gap null": (explicit([0.5, None, 0.25]), EXPLICIT_GAPS),
    "explicit gap a bool": (explicit([True]), EXPLICIT_GAPS),
    "explicit gaps ragged": (explicit([0.5, [0.25, 0.25]]), EXPLICIT_GAPS),
    "parameter on zero": (put(*DICH, "dimension_function", value={"family": "zero", "param": 5}),
                          "zero takes no parameter"),
    "parameter on psi": (put(*DICH, "dimension_function", value={"family": "psi", "param": 3.0}),
                         "psi takes no parameter"),
    "parameter on tabulated": (chain(tabulated([[0.1, 0.5], [0.01, 0.5]]),
                                     put(*DICH, "dimension_function", "param", value=0.5)),
                               "tabulated takes no parameter"),
    "grid on constant": (put(*DICH, "dimension_function", "grid", value=[[0.1, 0.5], [0.01, 0.5]]),
                         "constant takes no grid"),
    "unknown top-level key": (put("trails", value=2), "manifest: 'trails'"),
    "schema_version 2": (put("schema_version", value=2), SCHEMA_1),
    "schema_version a string": (put("schema_version", value="banana"), SCHEMA_1),
    "schema_version null": (put("schema_version", value=None), SCHEMA_1),
    "schema_version a bool": (put("schema_version", value=True), SCHEMA_1),
    "missing top-level key": (drop("master_seed"), "missing key.*'master_seed'"),
    "dichotomy without the manifest's w": (drop("w"), "needs the manifest's 'w'"),
    "manifest not an object": (lambda m: [m], "manifest must be a JSON object"),
    "zero trials": (chain(put("trials", value=0), max_load_first),
                    "trials must be an integer in"),
    "trials as a string": (chain(put("trials", value="2"), max_load_first),
                           "trials must be an integer"),
    "trials as a bool": (chain(put("trials", value=True), max_load_first),
                         "trials must be an integer"),
    "master seed not an integer": (put("master_seed", value=5.0), "master_seed must be an integer"),
    "w not an integer": (put("w", value="14"), "w must be an integer"),
    "w beyond the supported depths": (put("w", value=30), r"w must be an integer in \[7, 26\]"),
    "w below the ladder": (put("w", value=6), r"w must be an integer in \[7, 26\]"),
    "entry field not an integer": (put("experiments", 1, "n", value=8.0), "n must be an integer"),
    "entry field a bool": (put("experiments", 2, "balls", value=True), "balls must be an integer"),
    "min_frequency not a number": (put("experiments", 3, "min_frequency", value="0.5"),
                                   "'min_frequency' must be a number"),
    "final bound not a number": (put(*RULES, "lower", "final_max", value="1.0"),
                                 "lower final_max must be a number"),
    "sandwich a string": (put(*RULES, "sandwich", value="no"),
                          "sandwich must be true, false or null"),
    "sandwich a number": (put(*RULES, "sandwich", value=1),
                          "sandwich must be true, false or null"),
    "target a bool": (put(*RULES, "upper", "target", value=True),
                      "upper target must be a number"),
    "target NaN": (put(*RULES, "upper", "target", value=math.nan),
                   "upper target must be a number"),
    # a binding bound that always or never passes is refused, as is any infinite number
    "min_frequency -Infinity": (put("experiments", 1, "min_frequency", value=-math.inf),
                                r"'min_frequency' must be a number in \[0, 1\]"),
    "min_frequency above one": (put("experiments", 2, "min_frequency", value=1.5),
                                r"'min_frequency' must be a number in \[0, 1\]"),
    "min_frequency below zero": (put("experiments", 3, "min_frequency", value=-0.1),
                                 r"'min_frequency' must be a number in \[0, 1\]"),
    "final_max Infinity": (put(*RULES, "lower", "final_max", value=math.inf),
                           r"lower final_max must be a number in \(-inf, inf\)"),
    "final_distance_max negative": (put(*RULES, "upper", "final_distance_max", value=-0.1),
                                    r"upper final_distance_max must be a number in \[0, inf\)"),
    "target -Infinity": (put(*RULES, "upper", "target", value=-math.inf),
                         "upper target must be a number"),
    "dimension-function param Infinity": (put(*DICH, "dimension_function", "param",
                                              value=math.inf),
                                          "constant parameter must be a number"),
    "tabulated grid value Infinity": (tabulated([[0.1, math.inf], [0.01, 0.5]]),
                                      "tabulated grid entry must be a number"),
    "max_load phi_n below one": (put("experiments", 1, "phi_n", value=0), "phi_n must be"),
    "max_load W below n + phi_n": (put("experiments", 1, "w", value=9), r"need W >= n \+ phi_n"),
    "max_load beyond the supported depths": (put("experiments", 1, "w", value=27),
                                             r"depth W must be an integer in \[1, 26\]"),
    "max_load out of regime": (put("experiments", 1, "phi_n", value=3), "not << ln"),
    "interval n without headroom": (put("experiments", 3, "n", value=11),
                                    r"n must be an integer in \[2, 10\]"),
    "interval n below two": (put("experiments", 3, "n", value=1), r"n must be an integer in \[2,"),
    "interval on a sequence not level comparable": (
        chain(put("sequence", "kind", value="central"),
              put("sequence", "ratios", value=[0.4999999999999]), drop("experiments", 0)),
        "lemma's bounds assume a level comparable"),
    "dichotomy on a sequence not level comparable": (
        chain(put("sequence", "kind", value="central"),
              put("sequence", "ratios", value=[0.4999999999999]),
              max_load_first),
        "dichotomy theorems assume a level comparable"),
    "empty_bin without bins": (put("experiments", 2, "n_bins_log2", value=0), "n_bins_log2 must"),
    "empty_bin with 2^40 bins": (put("experiments", 2, "n_bins_log2", value=40),
                                 r"n_bins_log2 must be an integer in \[1, 26\]"),
    "empty_bin without balls": (put("experiments", 2, "balls", value=0), "balls must be"),
    "interval_length deeper than an explicit sequence": (
        chain(short_explicit_sequence, put("experiments", 3, "w", value=18),
              drop("experiments", 1), drop("experiments", 0)),
        "depth 18 needs 262143"),
    "max_load deeper than an explicit sequence": (
        chain(short_explicit_sequence, put("experiments", 1, "w", value=18),
              drop("experiments", 0)),
        "depth 18 needs 262143"),
}


@pytest.fixture
def no_trials(monkeypatch):
    """Every trial draws labels, balls or a random set; make each of them fail."""
    def trial_ran(*args, **kwargs):
        raise AssertionError("a trial ran before validation finished")
    for module, name in ((randmodel, "build_set"), (rng, "uniforms"), (rng, "bin_indices")):
        monkeypatch.setattr(module, name, trial_ran)


def test_tabulated_dimension_function_round_trips_through_its_report():
    grid = [[1e-6, 0.2], [0.1, 0.5]]
    manifest = chain(tabulated(grid), drop("experiments", 3), drop("experiments", 2),
                     drop("experiments", 1))(small_manifest())
    [result] = run_manifest(manifest)["results"]
    echo = result["report"]["config"]["dimension_function"]
    assert echo == {"family": "tabulated", "grid": grid}
    assert DimensionFunction.from_config(echo) == make_dimension_function("tabulated", grid=grid)


def test_small_manifest_is_valid():
    _, plan = validate_manifest(small_manifest())
    assert [(name, kind) for name, kind, _ in plan] == [
        ("dich", "dichotomy"), ("ml", "max_load"), ("eb", "empty_bin"),
        ("il", "interval_length")]


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_manifest_fails_before_any_trial(case, no_trials, tmp_path,
                                                   monkeypatch, capsys):
    edit, message = MALFORMED[case]
    manifest = edit(small_manifest())
    with pytest.raises(GapdimsError, match=message):
        run_manifest(manifest)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    monkeypatch.setenv("GAPDIMS_OUT_DIR", str(tmp_path))
    assert main(["experiment", "--manifest", str(path), "--out", "r"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_are_rejected(workers, no_trials, tmp_path, monkeypatch, capsys):
    with pytest.raises(GapdimsError, match="workers must be an integer in"):
        run_manifest(small_manifest(), workers=workers)
    with pytest.raises(GapdimsError, match="workers must be an integer in"):
        run_dichotomy_experiment(MID, make_dimension_function("zero"), 14, 1, 5,
                                 small_policies(), workers=workers)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(small_manifest()))
    monkeypatch.setenv("GAPDIMS_OUT_DIR", str(tmp_path))
    assert main(["experiment", "--manifest", str(path), "--workers", str(workers),
                 "--out", "r"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("text", ['{"sequence": {"kind": "middle-third"},', "", "[1, 2"])
def test_malformed_manifest_json_exits_2(text, no_trials, tmp_path, monkeypatch, capsys):
    path = tmp_path / "m.json"
    path.write_text(text)
    monkeypatch.setenv("GAPDIMS_OUT_DIR", str(tmp_path))
    assert main(["experiment", "--manifest", str(path), "--out", "r"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


def test_pinned_manifest_passes_validation():
    with open(PINNED) as fh:
        manifest = json.load(fh)
    a, plan = validate_manifest(manifest)
    assert a.kind == "middle-third"
    assert [(name, kind) for name, kind, _ in plan] == [
        ("constant-0.5", "dichotomy"), ("zero", "dichotomy")]
    for _, _, entry in plan:
        assert sorted(entry["policies"]) == [14, 17, 20]
        assert all(isinstance(pol, WindowPolicy)
                   for pair in entry["policies"].values() for pol in pair)
        assert entry["thresholds"]["sandwich"] is True


def test_small_manifest_runs_through_library_and_cli(tmp_path, monkeypatch):
    manifest = small_manifest()
    outcome = run_manifest(copy.deepcopy(manifest), workers=2)
    assert [r["name"] for r in outcome["results"]] == ["dich", "ml", "eb", "il"]
    assert outcome["manifest"] == manifest
    for res in outcome["results"]:
        assert res["checks"] and res["pass"] == all(c["pass"] for c in res["checks"])
    dich = outcome["results"][0]
    assert [c["check"] for c in dich["checks"]] == [
        f"upper drift toward {dich['report']['targets']['formula_upper']:.6f}",
        "upper final distance <= 0.5", "lower final median <= 1.0",
        "per-trial sandwich lower <= box <= upper (0.05 slack)"]
    assert outcome["results"][1]["checks"][0]["check"] == "freq(M_n > K_n) >= 0.0"
    # the CLI writes the library's outcome as its report
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    monkeypatch.setenv("GAPDIMS_OUT_DIR", str(tmp_path))
    assert main(["experiment", "--manifest", str(path), "--out", "r"]) == (
        0 if outcome["pass"] else 1)
    report = json.loads((tmp_path / "r.json").read_text())
    assert report.pop("schema_version") == 1
    assert report == json.loads(json.dumps(outcome))


def test_every_kind_reports_one_shape():
    # one plain record per kind: the shared header first, then its results
    outcome = run_manifest(small_manifest())
    assert [r["kind"] for r in outcome["results"]] == list(MANIFEST_KINDS)
    for res in outcome["results"]:
        report = res["report"]
        assert list(report)[:4] == ["schema_version", "kind", "config", "master_seed"]
        assert (report["schema_version"], report["kind"], report["master_seed"]) == (
            SCHEMA_VERSION, res["kind"], 5)
        if res["kind"] == "max_load":
            # a JSON object's keys are strings: the histogram's loads come back as text
            report = {**report, "histogram": {str(k): n for k, n in report["histogram"].items()}}
        assert json.loads(json.dumps(report)) == report


def shared_manifest() -> dict:
    """small_manifest's dichotomy entry, a max-load entry, a zero-Phi entry whose
    windows (n = 2, k = 2) are the first entry's (n = 2, phi(2) = 1, k = 1) and a
    zero-Phi entry on the default policies."""
    m = small_manifest()
    dich, ml = m["experiments"][:2]
    shared = WindowPolicy(n_values=(2,), k_min=2, k_max=2, max_centers=16).to_config()
    zero = {**dich, "name": "zero", "dimension_function": {"family": "zero"},
            "policies": {str(d): [shared, shared] for d in (8, 11, 14)}}
    default = {**dich, "name": "zero-default", "dimension_function": {"family": "zero"}}
    del default["policies"]
    m["experiments"] = [dich, ml, zero, default]
    return m


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_manifest_dichotomy_entries_equal_separate_runs(workers):
    manifest = shared_manifest()
    outcome = run_manifest(copy.deepcopy(manifest), workers=workers)
    assert [r["name"] for r in outcome["results"]] == ["dich", "ml", "zero", "zero-default"]
    for res, entry in zip(outcome["results"], manifest["experiments"]):
        if res["kind"] != "dichotomy":
            continue
        policies = entry.get("policies")
        alone = run_dichotomy_experiment(
            MID, make_dimension_function(**entry["dimension_function"]), manifest["w"],
            manifest["trials"], manifest["master_seed"],
            None if policies is None else policies_from_config(policies, manifest["w"]),
            workers=workers)
        assert report_json(res["report"]) == report_json(alone)


@pytest.mark.parametrize("entries", [1, 2, 3])
def test_manifest_builds_each_set_once_for_all_dichotomy_entries(entries, monkeypatch):
    built = []
    build_set = randmodel.build_set

    def counting(*args, **kwargs):
        built.append(args[1:3])
        return build_set(*args, **kwargs)

    monkeypatch.setattr(randmodel, "build_set", counting)
    manifest = shared_manifest()
    dichotomy = [e for e in manifest["experiments"] if e["kind"] == "dichotomy"]
    manifest["experiments"] = dichotomy[:entries]
    run_manifest(manifest, workers=2)
    assert len(built) == 3 * (manifest["trials"] + 1)
    assert len(set(built)) == 6        # (depth, arrangement): every set is built once
