"""Experiment-layer tests: laws of the random model, bound checks, and
the manifest engine with its validation."""

import copy
import json
import math
import os
from itertools import permutations

import numpy as np
import pytest
from scipy import stats

from gapdims import (
    DepthUnsupportedError,
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
from gapdims import randmodel, rng
from gapdims.cli import main
from gapdims.experiments import (
    TARGETS,
    check_thresholds,
    critical_load,
    length_constant,
    validate_manifest,
    validate_thresholds,
)
from gapdims.rng import derive_seed
from gapdims.sequences import level_sums

from helpers import report_json

MID = make_sequence("middle-third")


# -- permutation law ---------------------------------------------------------

def test_restriction_to_three_gaps_is_uniform():
    # relative order of gaps 1..3 should hit all 6 permutations uniformly
    perms = list(permutations((1, 2, 3)))
    counts = dict.fromkeys(perms, 0)
    trials = 60000
    for t in range(trials):
        order = build_set(MID, 2, "random", seed=derive_seed(31, t)).order  # 3 gaps
        counts[tuple(order)] += 1
    chi2, pval = stats.chisquare(list(counts.values()))
    assert pval > 0.001, (counts, pval)


def test_disjoint_blocks_are_independent():
    # relative order within {1,2,3} vs within {4,5,6}: 6 x 6 contingency
    perms = {p: i for i, p in enumerate(permutations(range(3)))}
    table = np.zeros((6, 6), dtype=np.int64)
    trials = 60000
    for t in range(trials):
        order = build_set(MID, 3, "random", seed=derive_seed(77, t)).order  # 7 gaps
        pos = np.empty(7, dtype=np.int64)
        pos[order - 1] = np.arange(7)
        a = tuple(np.argsort(np.argsort(pos[0:3])))
        b = tuple(np.argsort(np.argsort(pos[3:6])))
        table[perms[a], perms[b]] += 1
    chi2, pval, dof, _ = stats.chi2_contingency(table)
    assert dof == 25
    assert pval > 0.001, pval


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
    from gapdims.experiments import binomial_tail_mass
    m, p = 5000, 1.0 / 32.0
    lo, hi = 130, 180
    want = stats.binom.cdf(lo, m, p) + stats.binom.sf(hi - 1, m, p)
    assert binomial_tail_mass(m, p, lo, hi) == pytest.approx(want, rel=1e-9)
    assert binomial_tail_mass(m, p, None, hi) == pytest.approx(
        stats.binom.sf(hi - 1, m, p), rel=1e-9)


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


def test_tail_check_skips_out_of_hypothesis_rows():
    rows = binomial_tail_check([(10, 4)], 1.0 / 12.0)
    assert not rows[0]["in_hypothesis"]
    assert rows[0]["skip_reason"]
    with pytest.raises(Exception):
        binomial_tail_check([(100, 2)], 0.5)  # eta too large


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


def test_dichotomy_parallel_is_byte_identical():
    f = make_dimension_function("constant", 0.5)
    serial = run_dichotomy_experiment(MID, f, 14, 4, 77, small_policies())
    threaded = run_dichotomy_experiment(MID, f, 14, 4, 77, small_policies(), workers=3)
    assert report_json(serial) == report_json(threaded)


def test_dichotomy_per_trial_sandwich():
    f = make_dimension_function("zero")
    rep = run_dichotomy_experiment(MID, f, 14, 4, 5, small_policies())
    for summary in rep.summaries:
        for t in summary.trials:
            assert t["beta_low"] <= t["beta_up"] + 1e-12
    assert rep.targets["box"] == pytest.approx(math.log(2) / math.log(3), abs=1e-9)


def test_dichotomy_matched_seed_ordering():
    # small-regime Phi (zero) vs large-regime Phi (const): on the same
    # seeds the zero-phi upper median dominates and lower median is lower
    zero = run_dichotomy_experiment(MID, make_dimension_function("zero"),
                                    14, 6, 13, None)
    const = run_dichotomy_experiment(MID, make_dimension_function("constant", 0.5),
                                     14, 6, 13, None)
    assert zero.summaries[-1].median_up >= const.summaries[-1].median_up
    assert zero.summaries[-1].median_low <= const.summaries[-1].median_low
    # matched seeds: the same trial draws the same omega stream
    assert [t["seed"] for t in zero.summaries[0].trials] == \
        [t["seed"] for t in const.summaries[0].trials]


def test_default_policies_are_one_rule_for_every_phi():
    # below depth 14: n = 2, k in [1, 2]; from 14 on: n = 4, k in [depth - 11, depth - 10]
    rule = {8: WindowPolicy(n_values=(2,), k_min=1, k_max=2),
            11: WindowPolicy(n_values=(2,), k_min=1, k_max=2),
            14: WindowPolicy(n_values=(4,), k_min=3, k_max=4)}
    want = {str(depth): [pol.to_config(), pol.to_config()] for depth, pol in rule.items()}
    for f in (make_dimension_function("zero"), make_dimension_function("constant", 1.0)):
        rep = run_dichotomy_experiment(MID, f, 14, 1, 5, policies=None)
        assert rep.config["policies"] == want


def test_reports_record_derived_trial_seeds():
    want = list(enumerate(derive_seed(77, t) for t in range(3)))
    rep = run_dichotomy_experiment(MID, make_dimension_function("zero"), 14, 3, 77,
                                   small_policies())
    for summary in rep.summaries:
        assert [(t["trial_id"], t["seed"]) for t in summary.trials] == want
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
    for summary in rep.summaries:
        cset = build_set(MID, summary.depth, "cantor")
        up, low = policies[summary.depth]
        assert summary.cantor_up == estimate_dimension(cset, "upper", f, p, d, up).beta_hat
        assert summary.cantor_low == estimate_dimension(cset, "lower", f, p, d, low).beta_hat


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
    assert tuple(rep.targets) == TARGETS


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
    "policy max_centers a bool": (put(*DICH, "policies", "14", 0, "max_centers", value=True),
                                  "max_centers must be an integer"),
    "policy auto_n_count a float": (put(*DICH, "policies", "8", 0, "auto_n_count", value=2.0),
                                    "auto_n_count must be an integer"),
    "policy n_spread not a bool": (put(*DICH, "policies", "8", 0, "n_spread", value=1),
                                   "n_spread must be true or false"),
    "policy removed key at another value": (put(*DICH, "policies", "11", 1, "margin_radius",
                                                value=True),
                                            "window policy key 'margin_radius' is removed"),
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
    "unknown top-level key": (put("trails", value=2), "manifest: 'trails'"),
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
    "max_load phi_n below one": (put("experiments", 1, "phi_n", value=0), "phi_n must be"),
    "max_load W below n + phi_n": (put("experiments", 1, "w", value=9), r"need W >= n \+ phi_n"),
    "max_load beyond the supported depths": (put("experiments", 1, "w", value=27),
                                             r"w must be an integer in \[1, 26\]"),
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
}


@pytest.fixture
def no_trials(monkeypatch):
    """Every trial draws labels, balls or a random set; make each of them fail."""
    def trial_ran(*args, **kwargs):
        raise AssertionError("a trial ran before validation finished")
    for module, name in ((randmodel, "build_set"), (rng, "uniforms"), (rng, "bin_indices")):
        monkeypatch.setattr(module, name, trial_ran)


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
