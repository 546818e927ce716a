"""Acceptance criteria.

One test per criterion; each prints a single PASS line when its binding
assertions hold.  Criteria 5 and 6 share the pre-registered manifest run
(manifests/dichotomy_middle_third.json), which carries the pilot-calibrated
window policies and thresholds.  Criteria 5-9 (5 and 6 through that
shared run) take over 20 s each and carry the ``slow`` marker.
"""

import json
import math
import os
import time
from itertools import permutations

import numpy as np
import pytest
from scipy import stats

from gapdims import (
    binomial_tail_check,
    build_set,
    depth_function,
    empty_bin_probability,
    interval_length_lemma_check,
    level_sums,
    lower_phi_dim_formula,
    make_dimension_function,
    make_sequence,
    max_load_statistic,
    run_dichotomy_experiment,
    run_manifest,
    upper_phi_dim_formula,
)
from gapdims.covering import WindowPolicy
from gapdims.rng import derive_seed

from helpers import _greedy_count, batched_counts, exhaustive_cover, report_json

LN2 = math.log(2.0)
MID = make_sequence("middle-third")
MANIFEST_PATH = os.path.join(os.path.dirname(__file__), "..",
                             "manifests", "dichotomy_middle_third.json")


@pytest.fixture(scope="session")
def manifest_outcome():
    with open(MANIFEST_PATH) as fh:
        manifest = json.load(fh)
    return run_manifest(manifest, workers=4)


def test_criterion_01_formula_recovers_geometric_rate():
    fs = [make_dimension_function("zero"),
          make_dimension_function("constant", 0.5),
          make_dimension_function("constant", 1.0),
          make_dimension_function("inverse-log", 1.0)]
    for r in (1.0 / 3.0, 0.25, 0.4):
        a = make_sequence("central", ratios=r)
        p = level_sums(a, 130)
        want = LN2 / abs(math.log(r))
        for f in fs:
            t0 = time.perf_counter()
            d = depth_function(f, p, 64, clip=True)
            up = upper_phi_dim_formula(d, 64).beta_limit
            lo = lower_phi_dim_formula(d, 64).beta_limit
            elapsed = time.perf_counter() - t0
            assert abs(up - want) <= 1e-3, (r, f.family, up, want)
            assert abs(lo - want) <= 1e-3, (r, f.family, lo, want)
            assert elapsed < 1.0, (r, f.family, elapsed)
    print("PASS criterion 1: formula = ln2/|ln r| within 1e-3 for all "
          "12 (ratio, Phi) cases, < 1 s each")


def test_criterion_02_block_schedule_split_with_brute_force():
    a = make_sequence("central", ratios=[0.2, 0.45], schedule="blocks")
    p = level_sums(a, 128)
    d = depth_function(make_dimension_function("constant", 0.5), p, 85, clip=True)
    up = upper_phi_dim_formula(d, 128)
    lo = lower_phi_dim_formula(d, 128)
    assert abs(up.beta_limit - LN2 / abs(math.log(0.45))) <= 5e-3
    assert abs(lo.beta_limit - LN2 / math.log(5.0)) <= 5e-3
    # independent brute force over every admissible (k, n) window
    for est, mode in ((up, max), (lo, min)):
        k0 = est.k0_ladder[-1][0]
        vals = []
        for k in range(k0, d.n_max + 1):
            for n in range(max(d.phi(k), 1), 128 - k + 1):
                vals.append(n * LN2 / (p.log_s[k] - p.log_s[k + n]))
        assert est.beta_limit == pytest.approx(mode(vals), abs=1e-12)
    print("PASS criterion 2: block schedule upper -> ln2/ln(1/0.45), "
          "lower -> ln2/ln5 within 5e-3, brute-force cross-checked")


def test_criterion_03_depth_function_closed_forms():
    p = level_sums(MID, 400)
    for delta in (0.5, 1.0):
        d = depth_function(make_dimension_function("constant", delta), p, 200)
        for n in range(d.n_min, 201):
            assert d.phi(n) == math.ceil(delta * n)
    d0 = depth_function(make_dimension_function("zero"), p, 200)
    assert np.all(d0.phi_values == 0)
    dil = depth_function(make_dimension_function("inverse-log", 1.0), p, 200)
    assert dil.phi_values.max() <= math.ceil(1.0 / math.log(3.0))
    print("PASS criterion 3: phi(n) = ceil(delta*n) exactly for n <= 200; "
          "inverse-log bounded; zero identically 0")


def test_criterion_04_greedy_equals_exhaustive():
    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(1000):
        n_seg = rng.integers(1, 11)
        pts = np.sort(rng.random(2 * n_seg))
        lefts, rights = pts[0::2].copy(), pts[1::2].copy()
        r = float(rng.uniform(0.02, 0.3))
        greedy = _greedy_count(lefts, rights, -0.1, 1.1, r)
        batched = batched_counts(lefts, rights, [(-0.1, 1.1, r)])[0]
        exact = exhaustive_cover(list(zip(lefts, rights)), -0.1, 1.1, r, budget=greedy)
        mismatches += not greedy == batched == exact
    assert mismatches == 0
    print("PASS criterion 4: greedy = batched = exhaustive minimal cover on 1000 "
          "random instances, zero mismatches")


@pytest.mark.slow
def test_criterion_05_proposition_invariants(manifest_outcome):
    # (a) monotone in the dimension function, on the formula values
    a = make_sequence("central", ratios=[0.2, 0.45], schedule="blocks")
    p = level_sums(a, 128)
    ds = [depth_function(f, p, 64, clip=True) for f in (
        make_dimension_function("zero"),
        make_dimension_function("inverse-log", 1.0),
        make_dimension_function("constant", 0.5),
        make_dimension_function("constant", 1.0))]
    ups = [upper_phi_dim_formula(d, 128).beta_limit for d in ds]
    los = [lower_phi_dim_formula(d, 128).beta_limit for d in ds]
    assert all(u2 <= u1 + 1e-12 for u1, u2 in zip(ups, ups[1:]))
    assert all(l2 >= l1 - 1e-12 for l1, l2 in zip(los, los[1:]))
    # (b) per-trial sandwich lower <= box <= upper over every manifest trial
    violations = sum(depth["sandwich_violations"]
                     for res in manifest_outcome["results"]
                     for depth in res["report"]["depths"])
    assert violations == 0
    # (c) matched seeds: small-regime Phi pushes upper up and lower down
    by_name = {res["name"]: res["report"] for res in manifest_outcome["results"]}
    const, zero = by_name["constant-0.5"], by_name["zero"]
    for dc, dz in zip(const["depths"], zero["depths"]):
        assert dz["median_up"] >= dc["median_up"] - 1e-12
        assert dz["median_low"] <= dc["median_low"] + 1e-12
        assert [t["seed"] for t in dc["trials"]] == [t["seed"] for t in dz["trials"]]
    print("PASS criterion 5: Phi-monotonicity, per-trial sandwich, and "
          "matched-seed ordering all hold with zero violations")


@pytest.mark.slow
def test_criterion_06_dichotomy_manifest(manifest_outcome):
    for res in manifest_outcome["results"]:
        for check in res["checks"]:
            assert check["pass"], (res["name"], check)
    assert manifest_outcome["pass"]
    print("PASS criterion 6: all pre-registered dichotomy thresholds met "
          "(drift and final tolerances, both families, W ladder 14/17/20)")


@pytest.mark.slow
def test_criterion_07_max_load_exceeds_critical():
    rep = max_load_statistic(MID, 23, 20, 2, 200, master_seed=7)
    assert rep["K_n"] == pytest.approx(2 * 20 * LN2 / math.log(20 * LN2 / 4.0), rel=1e-12)
    assert rep["K_n"] == pytest.approx(22.307, abs=1e-3)
    assert rep["frequency"] >= 0.4
    assert sum(rep["histogram"].values()) == 200   # histogram emitted
    assert rep["cantor_load"] == 3 and not rep["cantor_exceeds"]
    print(f"PASS criterion 7: freq(M_n > K_n = {rep['K_n']:.3f}) = "
          f"{rep['frequency']:.3f} >= 0.4 over 200 trials, histogram emitted")


@pytest.mark.slow
def test_criterion_08_empty_bins_at_critical_load():
    rep = empty_bin_probability(20, 5 * 2 ** 20, 200, master_seed=8)
    assert rep["frequency"] >= 0.99
    print(f"PASS criterion 8: empty-bin frequency {rep['frequency']:.3f} "
          ">= 0.99 (2^20 bins, 5*2^20 balls, 200 trials)")


@pytest.mark.slow
def test_criterion_09_interval_length_lemma():
    rep = interval_length_lemma_check(MID, 20, 14, 200, master_seed=9)
    assert rep["C"] == pytest.approx(1.0, rel=1e-12)
    assert rep["epsilon_n"] == pytest.approx(4 * math.log(14) / 14, rel=1e-12)
    assert rep["frequency"] >= 0.95
    print(f"PASS criterion 9: max level-14 interval within 3C*s_n^(1-eps) "
          f"in {rep['frequency']:.3f} >= 0.95 of 200 trials")


def test_criterion_10_binomial_tail_bounds():
    t0 = time.perf_counter()
    grid = [(mp * 2 ** 8, 8) for mp in (256, 512, 1024)]
    rows = binomial_tail_check(grid, 1.0 / 12.0)
    for row in rows:
        assert row["in_hypothesis"]
        assert row["exact_two_sided_tail"] <= row["dml_bound"]
        assert row["corollary_in_hypothesis"]
        assert row["exact_upper_tail"] <= row["corollary_bound"]
        assert row["exact_lower_tail"] <= row["corollary_bound"]
    assert time.perf_counter() - t0 < 10.0
    print("PASS criterion 10: exact tails <= normal-approximation bound and "
          "<= exp(-Mp/432) on the Mp in {256,512,1024} grid, < 10 s")


def test_criterion_11_permutation_law():
    trials = 60000
    perms3 = list(permutations((1, 2, 3)))
    counts = dict.fromkeys(perms3, 0)
    for t in range(trials):
        counts[tuple(build_set(MID, 2, "random", seed=derive_seed(11, t)).order)] += 1
    _, p_uniform = stats.chisquare(list(counts.values()))
    assert p_uniform > 0.001, counts

    idx = {p: i for i, p in enumerate(permutations(range(3)))}
    table = np.zeros((6, 6), dtype=np.int64)
    for t in range(trials):
        order = build_set(MID, 3, "random", seed=derive_seed(12, t)).order
        pos = np.empty(7, dtype=np.int64)
        pos[order - 1] = np.arange(7)
        table[idx[tuple(np.argsort(np.argsort(pos[0:3])))],
              idx[tuple(np.argsort(np.argsort(pos[3:6])))]] += 1
    _, p_indep, _, _ = stats.chi2_contingency(table)
    assert p_indep > 0.001, p_indep
    print(f"PASS criterion 11: restriction uniform over 6 permutations "
          f"(p = {p_uniform:.3f}) and disjoint blocks independent "
          f"(p = {p_indep:.3f}), 60000 trials each")


def test_criterion_12_byte_identical_reproducibility(tmp_path):
    pol = WindowPolicy(n_values=(2,), k_min=1, k_max=1, max_centers=16)
    policies = {d: (pol, pol) for d in (8, 11, 14)}
    f = make_dimension_function("constant", 0.5)
    blobs = set()
    for workers in (1, 1, 4):
        rep = run_dichotomy_experiment(MID, f, 14, 8, 99, policies, workers=workers)
        blobs.add(report_json(rep))
    assert len(blobs) == 1
    r1 = max_load_statistic(MID, 16, 10, 2, 40, master_seed=3)
    r2 = max_load_statistic(MID, 16, 10, 2, 40, master_seed=3)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    print("PASS criterion 12: serial, repeated, and 4-worker runs produce "
          "byte-identical reports")
