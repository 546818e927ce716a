"""Seeded statistical experiments on random arrangements.

Every experiment is a pure function of its configuration and a master
seed: trial t uses ``rng.derive_seed(master_seed, t)``, trial records are
plain dicts in trial order and reports sort their keys, so re-runs with
any worker count are byte-identical.  `run_manifest` checks a whole
manifest of them, then runs each one and evaluates its binding checks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from numbers import Real

import numpy as np
from scipy.special import gammaln, logsumexp

from . import randmodel, rng
from .cantor import box_dim_estimate, lower_phi_dim_formula, upper_phi_dim_formula
from .covering import WindowPolicy, estimate_dimension
from .dimfuncs import DimensionFunction, depth_function
from .errors import (
    DepthUnsupportedError,
    GapdimsError,
    InvalidRangeError,
    NotLevelComparableError,
    OutOfRegimeError,
    check_keys,
    check_value,
)
from .sequences import GapSequence, LevelProfile, level_sums

_LN2 = math.log(2.0)
SCHEMA_VERSION = 1    # of every report and CSV file the package writes


def _check_trials(trials, master_seed) -> None:
    check_value(trials, "trials", 1)
    check_value(master_seed, "master_seed")


# ---------------------------------------------------------------------------
# dichotomy experiment


LOAD_CUTOFF_A = 0.5   # empty-interval depth extension phi(n) + floor(A ln n)
N_LEVELS = 60         # profile levels behind a dichotomy run's depth function and targets
LADDER_W = (7, randmodel.MAX_DEPTH)   # W-6, W-3 and W must all be depths build_set supports
# reference values of a dichotomy report, by name, that threshold rules may target
TARGETS = ("formula_upper", "formula_lower", "box", "small_regime_upper", "small_regime_lower")


@dataclass(frozen=True)
class DepthSummary:
    depth: int
    median_up: float
    median_low: float
    quartiles_up: tuple[float, float]
    quartiles_low: tuple[float, float]
    cantor_up: float
    cantor_low: float
    sandwich_violations: int     # trials with beta_low > box or beta_up < box (0.05 slack)
    trials: tuple[dict, ...] = field(repr=False)   # trial_id, seed, beta_up, beta_low

    def to_record(self) -> dict:
        return {**asdict(self), "quartiles_up": list(self.quartiles_up),
                "quartiles_low": list(self.quartiles_low), "trials": list(self.trials)}


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    config: dict
    master_seed: int
    summaries: tuple[DepthSummary, ...]
    targets: dict

    def to_record(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "kind": self.kind, "config": self.config,
                "master_seed": self.master_seed, "targets": self.targets,
                "depths": [s.to_record() for s in self.summaries]}


def _comparable_profile(a: GapSequence, levels: int, claim: str) -> LevelProfile:
    p = level_sums(a, levels)
    if not p.level_comparable:
        raise NotLevelComparableError(f"{claim} assume a level comparable sequence")
    return p


def _dichotomy_profile(a: GapSequence) -> LevelProfile:
    return _comparable_profile(a, N_LEVELS, "dichotomy theorems")


def _betas(d, depth, arrangement, seed, policies) -> tuple[float, float]:
    """(upper, lower) estimates on one arrangement of ``d.profile``'s
    sequence at one ladder depth."""
    s = randmodel.build_set(d.profile.sequence, depth, arrangement, seed=seed)
    return tuple(estimate_dimension(s, direction, d.func, d.profile, d, pol).beta_hat
                 for direction, pol in zip(("upper", "lower"), policies[depth]))


def default_policies(depths: tuple[int, ...]) -> dict:
    """Window policies per ladder depth, one for both directions and every Phi:
    ``n_values=(4,)`` with k from depth-11 to depth-10 at depth >= 14,
    else ``n_values=(2,)`` with k from 1 to 2.  A manifest that needs
    other windows for small Phi pins its policies explicitly.
    """
    out = {}
    for depth in depths:
        if depth >= 14:
            pol = WindowPolicy(n_values=(4,), k_min=depth - 11, k_max=depth - 10)
        else:
            pol = WindowPolicy(n_values=(2,), k_min=1, k_max=2)
        out[depth] = (pol, pol)
    return out


def run_dichotomy_experiment(
    a: GapSequence,
    f: DimensionFunction,
    w: int,
    trials: int,
    master_seed: int,
    policies: dict[int, tuple[WindowPolicy, WindowPolicy]] | None = None,
    workers: int = 1,
) -> ExperimentReport:
    """Estimate both dimensions of random arrangements along depths W-6, W-3, W.

    ``policies`` maps each ladder depth to its (upper, lower) window
    policies; these are the pre-registered knobs of the experiment.
    Depths share per-trial seeds, so a deeper set is the refinement of
    its shallower counterpart.  The cantor arrangement runs once per
    depth as the deterministic control.  One pool of ``workers`` threads
    runs every task and returns the results in submission order.
    """
    _check_trials(trials, master_seed)
    check_value(workers, "workers", 1)
    check_value(w, "w", *LADDER_W)
    p = _dichotomy_profile(a)
    d = depth_function(f, p, N_LEVELS - 1, clip=True)
    box = box_dim_estimate(p)
    depths = (w - 6, w - 3, w)
    if policies is None:
        policies = default_policies(depths)
    seeds = [rng.derive_seed(master_seed, t) for t in range(trials)]
    # per depth: each trial's random set, then the cantor control
    tasks = [(depth, arrangement, seed) for depth in depths
             for arrangement, seed in [*(("random", s) for s in seeds), ("cantor", None)]]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        betas = list(pool.map(lambda task: _betas(d, *task, policies), tasks))

    summaries = []
    for i, depth in enumerate(depths):
        *rows, (c_up, c_lo) = betas[i * (trials + 1):(i + 1) * (trials + 1)]
        ups, los = np.array(rows).T
        bad = int(np.sum((los > box + 0.05) | (ups < box - 0.05)))
        summaries.append(DepthSummary(
            depth=depth,
            median_up=float(np.median(ups)), median_low=float(np.median(los)),
            quartiles_up=(float(np.quantile(ups, 0.25)), float(np.quantile(ups, 0.75))),
            quartiles_low=(float(np.quantile(los, 0.25)), float(np.quantile(los, 0.75))),
            cantor_up=c_up, cantor_low=c_lo,
            sandwich_violations=bad,
            trials=tuple({"trial_id": t, "seed": seed, "beta_up": up, "beta_low": lo}
                         for t, (seed, (up, lo)) in enumerate(zip(seeds, rows))),
        ))

    n_formula = min(p.n_max, 2 * N_LEVELS // 3)
    targets = dict(zip(TARGETS, (upper_phi_dim_formula(d, n_formula).beta_limit,
                                 lower_phi_dim_formula(d, n_formula).beta_limit,
                                 box, 1.0, 0.0)))
    config = {
        "sequence": a.to_config(),
        "dimension_function": f.to_config(),
        "w": w,
        "trials": trials,
        "n_levels": N_LEVELS,
        "policies": {str(depth): [up.to_config(), lo.to_config()]
                     for depth, (up, lo) in policies.items()},
    }
    return ExperimentReport(kind="dichotomy", config=config, master_seed=master_seed,
                            summaries=tuple(summaries), targets=targets)


def policies_from_config(cfg: dict, w: int) -> dict[int, tuple[WindowPolicy, WindowPolicy]]:
    """Read back a report's ``config["policies"]``: {str(depth): [upper, lower]}
    for exactly the ladder depths W-6, W-3, W."""
    depths = (w - 6, w - 3, w)
    check_keys(cfg, f"policies for depths {depths}", [str(depth) for depth in depths])
    if any(not isinstance(pair, list) or len(pair) != 2 for pair in cfg.values()):
        raise GapdimsError("each depth's policies must be an [upper, lower] pair")
    return {depth: tuple(map(WindowPolicy.from_config, cfg[str(depth)])) for depth in depths}


# ---------------------------------------------------------------------------
# max-load statistic


def critical_load(n: int, phi_n: int) -> float:
    """K_n = 2 ln(2^n) / ln(2^n ln(2^n) / 2^(n+phi_n))."""
    ln_bins = n * _LN2
    return 2.0 * ln_bins / math.log(2 ** n * ln_bins / 2 ** (n + phi_n))


def _check_max_load(w: int, n: int, phi_n: int) -> None:
    check_value(w, "w", 1, randmodel.MAX_DEPTH)
    check_value(n, "n", 1)
    check_value(phi_n, "phi_n", 1)
    if w < n + phi_n:
        raise DepthUnsupportedError(f"need W >= n + phi_n = {n + phi_n}, got {w}")
    margin = 0.05
    if 2 ** phi_n >= (n * _LN2) * (1.0 - margin):
        raise OutOfRegimeError(
            f"2^phi_n = {2 ** phi_n} not << ln(2^n) = {n * _LN2:.2f}")


def max_load_statistic(
    a: GapSequence,
    w: int,
    n: int,
    phi_n: int,
    trials: int,
    master_seed: int,
) -> dict:
    """Frequency of {M_n > K_n} where M_n is the max, over level-n
    intervals, of the number of gaps from levels n+1..n+phi_n inside.

    Uses the label-rank shortcut: a deep gap's level-n interval is the
    rank of its label among the shallow ones, so no geometry is built.
    The cantor arrangement gives exactly 2^phi_n - 1 gaps per interval
    (one level-(n+1) gap, two level-(n+2) gaps, and so on).  Trials record
    ``empty_bin`` when W reaches the depth n + phi_n + floor(A ln n).
    """
    _check_max_load(w, n, phi_n)
    _check_trials(trials, master_seed)
    k_n = critical_load(n, phi_n)
    ext = phi_n + math.floor(LOAD_CUTOFF_A * math.log(n))
    rows = []
    bounds = (2 ** n, 2 ** (n + phi_n)) + ((2 ** (n + ext),) if w >= n + ext else ())
    for t in range(trials):
        seed = rng.derive_seed(master_seed, t)
        counts = randmodel.slot_counts(seed, w, n, bounds)
        rows.append({"trial_id": t, "seed": seed, "M_n": int(counts[0].max()), "K_n": k_n})
        if len(counts) > 1:
            rows[-1]["empty_bin"] = bool(counts[1].min() == 0)
    loads = np.array([r["M_n"] for r in rows], dtype=np.int64)
    hist_vals, hist_counts = np.unique(loads, return_counts=True)
    empties = [r["empty_bin"] for r in rows if "empty_bin" in r]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "max_load",
        "config": {"sequence": a.to_config(), "w": w, "n": n,
                   "phi_n": phi_n, "trials": trials,
                   "cutoff_A": LOAD_CUTOFF_A},
        "master_seed": master_seed,
        "K_n": k_n,
        "frequency": float(np.mean(loads > k_n)),
        "empty_bin_frequency": (sum(empties) / len(empties)) if empties else None,
        "cantor_load": 2 ** phi_n - 1,
        "cantor_exceeds": bool(2 ** phi_n - 1 > k_n),
        "histogram": {int(v): int(c) for v, c in zip(hist_vals, hist_counts)},
        "trials_detail": rows,
    }


# ---------------------------------------------------------------------------
# empty-bin experiment


def _check_empty_bin(n_bins_log2: int, balls: int) -> None:
    check_value(n_bins_log2, "n_bins_log2", 1, randmodel.MAX_DEPTH)
    check_value(balls, "balls", 1)


def empty_bin_probability(n_bins_log2: int, balls: int, trials: int, master_seed: int) -> dict:
    """Frequency of at least one empty bin for iid-uniform ball placement."""
    _check_empty_bin(n_bins_log2, balls)
    _check_trials(trials, master_seed)
    bins = 2 ** n_bins_log2
    hits = 0
    for t in range(trials):
        idx = rng.bin_indices(rng.derive_seed(master_seed, t), 0, balls, n_bins_log2)
        occupied = np.bincount(idx, minlength=bins) > 0
        hits += int(not occupied.all())
    lam = bins * math.exp(-balls / bins)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "empty_bin",
        "config": {"n_bins_log2": n_bins_log2, "balls": balls, "trials": trials},
        "master_seed": master_seed,
        "frequency": hits / trials,
        "poisson_expected_empty": lam,
        "poisson_predicted_frequency": 1.0 - math.exp(-lam),
    }


# ---------------------------------------------------------------------------
# interval-length lemma


def length_constant(p: LevelProfile) -> float:
    """Smallest C with C*s_j >= a_{2^(j-1)} over the computed profile."""
    js = np.arange(1, p.n_max + 1)
    lead = p.sequence.gap_lengths(2 ** (js - 1))
    return float(np.max(lead / p.s[js]))


def _interval_profile(a: GapSequence, w: int, n: int) -> LevelProfile:
    check_value(w, "w", 4, randmodel.MAX_DEPTH)
    check_value(n, "n", 2, w - 2)   # headroom below W
    randmodel.check_depth(w, a)
    return _comparable_profile(a, max(n, 16), "the lemma's bounds")


def interval_length_lemma_check(
    a: GapSequence,
    w: int,
    n: int,
    trials: int,
    master_seed: int,
) -> dict:
    """Frequency of {max level-n interval <= 3C * s_n^(1 - eps_n)}, eps_n = 4 ln n / n."""
    p = _interval_profile(a, w, n)
    _check_trials(trials, master_seed)
    eps_n = 4.0 * math.log(n) / n
    c = length_constant(p)
    bound = 3.0 * c * p.s[n] ** (1.0 - eps_n)
    rows = []
    for t in range(trials):
        seed = rng.derive_seed(master_seed, t)
        lefts, rights = randmodel.build_set(a, w, "random", seed=seed).level_intervals(n)
        rows.append({"trial_id": t, "seed": seed, "max_len_n": float(np.max(rights - lefts)),
                     "len_bound_n": bound, "epsilon_n": eps_n})
    max_lens = np.array([r["max_len_n"] for r in rows])
    cl, cr = randmodel.build_set(a, w, "cantor").level_intervals(n)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "interval_length",
        "config": {"sequence": a.to_config(), "w": w, "n": n, "trials": trials},
        "master_seed": master_seed,
        "epsilon_n": eps_n,
        "C": c,
        "bound": bound,
        "frequency": float(np.mean(max_lens <= bound)),
        "median_max_length": float(np.median(max_lens)),
        "cantor_max_length": float(np.max(cr - cl)),
        "cantor_within_bound": bool(np.max(cr - cl) <= bound),
        "trials_detail": rows,
    }


# ---------------------------------------------------------------------------
# binomial tail bounds


def _log_binom_pmf(m: int, p: float, ks: np.ndarray) -> np.ndarray:
    return (gammaln(m + 1) - gammaln(ks + 1) - gammaln(m - ks + 1)
            + ks * math.log(p) + (m - ks) * math.log1p(-p))


def binomial_tail_mass(m: int, p: float, lo: int | None, hi: int | None) -> float:
    """Exact P(Y <= lo) + P(Y >= hi) for Y ~ Binomial(m, p), in log space."""
    parts = []
    if lo is not None and lo >= 0:
        parts.append(_log_binom_pmf(m, p, np.arange(0, min(lo, m) + 1)))
    if hi is not None and hi <= m:
        parts.append(_log_binom_pmf(m, p, np.arange(max(hi, 0), m + 1)))
    if not parts:
        return 0.0
    return float(np.exp(logsumexp(np.concatenate(parts))))


ADOPTED_C = 1.0 / 432.0   # eta^2/3 at eta = 1/12


def binomial_tail_check(grid: list[tuple[int, int]], eta: float) -> list[dict]:
    """Exact binomial tails against the normal-approximation and simple
    exponential bounds, one record per (M, N) with p = 2^-N.

    Two-sided: P(|Y - Mp| >= eta*Mp) <= exp(-eta^2 Mp / 3) / (eta sqrt(Mp)).
    One-sided at eta = 1/12: each tail <= exp(-Mp/432), checked only
    where ``corollary_in_hypothesis`` (Mp >= 200).  A row whose
    precondition fails holds NaN values and its ``skip_reason``.
    """
    if not 0.0 < eta <= 1.0 / 12.0:
        raise InvalidRangeError("eta must be in (0, 1/12]")
    out = []
    for m, n in grid:
        p = 2.0 ** (-n)
        mp = m * p
        row = {"M": m, "N": n, "eta": eta, "Mp": mp}
        precondition = eta * p * (1.0 - p) * m
        if precondition < 12.0:
            out.append({**row, **dict.fromkeys(
                ("exact_two_sided_tail", "exact_upper_tail", "exact_lower_tail",
                 "dml_bound", "corollary_bound"), math.nan),
                "in_hypothesis": False, "corollary_in_hypothesis": False,
                "skip_reason": f"eta*p*(1-p)*M = {precondition:.3g} < 12"})
            continue
        dev = eta * mp
        hi = math.ceil(mp + dev - 1e-9)
        lo = math.floor(mp - dev + 1e-9)
        upper = binomial_tail_mass(m, p, None, math.ceil(13.0 / 12.0 * mp - 1e-9))
        lower = binomial_tail_mass(m, p, math.floor(11.0 / 12.0 * mp + 1e-9), None)
        out.append({
            **row,
            "exact_two_sided_tail": binomial_tail_mass(m, p, lo, hi),
            "exact_upper_tail": upper, "exact_lower_tail": lower,
            "dml_bound": math.exp(-eta * eta * mp / 3.0) / (eta * math.sqrt(mp)),
            "corollary_bound": math.exp(-ADOPTED_C * mp),
            "in_hypothesis": True,
            "corollary_in_hypothesis": mp >= 200.0,
            "skip_reason": None,
        })
    return out


# ---------------------------------------------------------------------------
# manifests


SIDES = ("upper", "lower")
DRIFTS = ("toward", "increasing", "non-increasing")
# final-value rules, in check order: (label, measured on distances?, passes)
FINAL_RULES = {
    "final_distance_max": ("final distance <=", True, lambda v, bound: v <= bound),
    "final_min": ("final median >", False, lambda v, bound: v > bound),
    "final_max": ("final median <=", False, lambda v, bound: v <= bound),
}


def validate_thresholds(rules: dict) -> dict:
    """``rules`` with null values dropped (null means absent); raises
    GapdimsError unless they are well formed and define a check."""
    check_keys(rules, "thresholds", optional=(*SIDES, "sandwich"))
    out = {"sandwich": bool(rules.get("sandwich"))}
    for side in SIDES:
        if rules.get(side) is None:
            continue
        check_keys(rules[side], f"{side} rule", optional=("drift", "target", *FINAL_RULES))
        rule = {key: val for key, val in rules[side].items() if val is not None}
        drift, target = rule.get("drift"), rule.get("target")
        if drift is not None and drift not in DRIFTS:
            raise GapdimsError(f"unknown {side} drift {drift!r}; expected one of {DRIFTS}")
        if target is None and (drift == "toward" or "final_distance_max" in rule):
            raise GapdimsError(f"{side} rule measures distance but has no target")
        if target not in (None, *TARGETS) and not isinstance(target, (int, float)):
            raise GapdimsError(f"unknown {side} target {target!r}; expected a number or {TARGETS}")
        if not set(rule) - {"target"}:
            raise GapdimsError(f"{side} rule defines no check")
        for key in FINAL_RULES:
            if key in rule:
                check_value(rule[key], f"{side} {key}", kind=Real)
        out[side] = rule
    if out == {"sandwich": False}:
        raise GapdimsError("thresholds define no check")
    return out


def check_thresholds(rules: dict, summaries: list[dict], targets: dict) -> list[dict]:
    """Evaluate drift/tolerance rules, as returned by `validate_thresholds`,
    against the depth ladder of one dichotomy run.  Each rule is binding."""
    checks = []
    for side in SIDES:
        rule = rules.get(side, {})
        med = [s[f"median_{'up' if side == 'upper' else 'low'}"] for s in summaries]
        target = rule.get("target")
        target = targets[target] if isinstance(target, str) else target
        dist = None if target is None else [abs(v - target) for v in med]
        drift = rule.get("drift")
        if drift == "toward":
            checks.append({"check": f"{side} drift toward {target:.6f}", "distances": dist,
                           "pass": all(d2 < d1 for d1, d2 in zip(dist, dist[1:]))})
        elif drift == "increasing":
            checks.append({"check": f"{side} medians strictly increasing", "medians": med,
                           "pass": all(v2 > v1 for v1, v2 in zip(med, med[1:]))})
        elif drift == "non-increasing":
            checks.append({"check": f"{side} medians non-increasing", "medians": med,
                           "pass": all(v2 <= v1 for v1, v2 in zip(med, med[1:]))})
        for key, (label, on_dist, passes) in FINAL_RULES.items():
            if key in rule:
                value = (dist if on_dist else med)[-1]
                checks.append({"check": f"{side} {label} {rule[key]}", "value": value,
                               "pass": passes(value, rule[key])})
    if rules.get("sandwich"):
        bad = sum(s["sandwich_violations"] for s in summaries)
        checks.append({"check": "per-trial sandwich lower <= box <= upper (0.05 slack)",
                       "violations": bad, "pass": bad == 0})
    return checks


# kind -> (run(sequence, manifest, parsed entry, workers) -> report record, the guard the run
# also calls (same arguments, no workers), required entry keys, other allowed keys, label of
# the frequency >= min_frequency check or None for threshold rules).  Lambdas look their
# experiment up when called, so a rebound module function (a tracer's wrapper) is the one run.
MANIFEST_KINDS = {
    "dichotomy": (lambda a, m, e, workers: run_dichotomy_experiment(
                      a, e["dimension_function"], m["w"], m["trials"], m["master_seed"],
                      policies=e.get("policies"), workers=workers).to_record(),
                  lambda a, m, e: _dichotomy_profile(a),
                  ("dimension_function", "thresholds"), ("policies",), None),
    "max_load": (lambda a, m, e, workers: max_load_statistic(
                     a, e["w"], e["n"], e["phi_n"], m["trials"], m["master_seed"]),
                 lambda a, m, e: _check_max_load(e["w"], e["n"], e["phi_n"]),
                 ("w", "n", "phi_n", "min_frequency"), (), "freq(M_n > K_n)"),
    "empty_bin": (lambda a, m, e, workers: empty_bin_probability(
                      e["n_bins_log2"], e["balls"], m["trials"], m["master_seed"]),
                  lambda a, m, e: _check_empty_bin(e["n_bins_log2"], e["balls"]),
                  ("n_bins_log2", "balls", "min_frequency"), (), "empty-bin frequency"),
    "interval_length": (lambda a, m, e, workers: interval_length_lemma_check(
                            a, e["w"], e["n"], m["trials"], m["master_seed"]),
                        lambda a, m, e: _interval_profile(a, e["w"], e["n"]),
                        ("w", "n", "min_frequency"), (), "within-bound frequency"),
}


def validate_manifest(manifest: dict) -> tuple[GapSequence, list[tuple[str, str, dict]]]:
    """The manifest's sequence and one (name, kind, parsed entry) per
    experiment; raises GapdimsError on any malformed or refused value."""
    check_keys(manifest, "manifest", ("sequence", "trials", "master_seed", "experiments"),
               ("w", "name", "schema_version"))
    _check_trials(manifest["trials"], manifest["master_seed"])
    if "w" in manifest:
        check_value(manifest["w"], "w", *LADDER_W)
    a = GapSequence.from_config(manifest["sequence"])
    if not isinstance(manifest["experiments"], list) or not manifest["experiments"]:
        raise GapdimsError("manifest 'experiments' must be a non-empty list")
    plan = []
    for i, entry in enumerate(manifest["experiments"]):
        kind = entry.get("kind", "dichotomy") if isinstance(entry, dict) else None
        if kind not in tuple(MANIFEST_KINDS):   # a tuple: an unhashable kind is just unknown
            raise GapdimsError(f"experiments[{i}] must be an object whose kind is one of "
                               f"{tuple(MANIFEST_KINDS)}")
        _, guard, required, optional, label = MANIFEST_KINDS[kind]
        parsed = dict(check_keys(entry, f"experiments[{i}]", required,
                                 ("kind", "name", *optional)))
        if label is not None:
            check_value(parsed["min_frequency"], f"experiments[{i}] 'min_frequency'", kind=Real)
        if kind == "dichotomy":
            if "w" not in manifest:
                raise GapdimsError("a dichotomy entry needs the manifest's 'w'")
            parsed["dimension_function"] = DimensionFunction.from_config(
                entry["dimension_function"])
            parsed["thresholds"] = validate_thresholds(entry["thresholds"])
            if entry.get("policies") is not None:
                parsed["policies"] = policies_from_config(entry["policies"], manifest["w"])
        guard(a, manifest, parsed)
        plan.append((entry.get("name", kind), kind, parsed))
    return a, plan


def run_manifest(manifest: dict, workers: int = 1) -> dict:
    """Validate a whole manifest, then run its experiments in order and
    evaluate every binding check; ``workers`` threads run dichotomy trials.
    Malformed input raises GapdimsError before the first trial."""
    check_value(workers, "workers", 1)
    a, plan = validate_manifest(manifest)
    results = []
    for name, kind, entry in plan:
        run, _, _, _, label = MANIFEST_KINDS[kind]
        record = run(a, manifest, entry, workers)
        if label is None:
            checks = check_thresholds(entry["thresholds"], record["depths"], record["targets"])
        else:
            freq, least = record["frequency"], entry["min_frequency"]
            checks = [{"check": f"{label} >= {least}", "value": freq, "pass": freq >= least}]
        results.append({"name": name, "kind": kind, "report": record, "checks": checks,
                        "pass": all(c["pass"] for c in checks)})
    return {"manifest": manifest, "results": results,
            "pass": all(r["pass"] for r in results)}
