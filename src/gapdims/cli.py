"""Command-line front end.

Commands
--------
dims        formula dimensions of the rule-based set, both directions
sample      write the gap table of one arrangement
estimate    window-sweep dimension estimate of one arrangement
experiment  run a manifest of seeded experiments with binding thresholds
tailcheck   exact binomial tails against the stated bounds

Every artifact embeds its fully-resolved config and seed, JSON keys are
sorted, and all randomness is counter-based, so re-running a command
reproduces its outputs byte for byte.  The default output directory is
`$GAPDIMS_OUT_DIR` (falling back to the working directory); `--out`
accepts a basename or an absolute path.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import experiments
from .cantor import box_dim_estimate, lower_phi_dim_formula, upper_phi_dim_formula
from .covering import WindowPolicy, estimate_dimension
from .dimfuncs import depth_function, make_dimension_function
from .errors import GapdimsError
from .randmodel import build_set
from .sequences import GapSequence, make_sequence, level_sums

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# spec parsing


def parse_sequence(text: str) -> GapSequence:
    """'middle-third', 'central:R', 'periodic:R1,R2,..', 'blocks:R1,R2',
    or 'file:PATH' with one explicit gap length per line."""
    head, _, rest = text.partition(":")
    if head == "middle-third":
        return make_sequence("middle-third")
    if head in ("central", "periodic", "blocks"):
        ratios = [float(tok) for tok in rest.split(",") if tok]
        schedule = "constant" if head == "central" else head
        return make_sequence("central", ratios=ratios, schedule=schedule)
    if head == "file":
        with open(rest) as fh:
            gaps = [float(line) for line in fh if line.strip()]
        return make_sequence("explicit", gaps=gaps)
    raise GapdimsError(f"unknown sequence spec {text!r}")


def parse_phi(text: str) -> "DimensionFunction":
    """'zero', 'const:C', 'invlog:C', 'psi', 'scaled-psi:C', 'powerlog:P'."""
    head, _, rest = text.partition(":")
    names = {"zero": "zero", "const": "constant", "invlog": "inverse-log",
             "psi": "psi", "scaled-psi": "scaled-psi", "powerlog": "power-log"}
    if head not in names:
        raise GapdimsError(f"unknown dimension-function spec {text!r}")
    param = float(rest) if rest else None
    return make_dimension_function(names[head], param)


def out_path(name: str, ext: str, args) -> str:
    base = args.out if args.out else args.command
    if not os.path.isabs(base):
        base = os.path.join(os.environ.get("GAPDIMS_OUT_DIR", "."), base)
    return f"{base}.{name}.{ext}" if name else f"{base}.{ext}"


def write_json(path: str, payload: dict) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["schema_version", SCHEMA_VERSION])
        w.writerow(header)
        w.writerows(rows)


def merge_config(args, keys: list[str]) -> None:
    """Config-file values fill in flags the user did not pass."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        file_cfg = json.load(fh)
    for key in keys:
        if getattr(args, key, None) is None and key in file_cfg:
            setattr(args, key, file_cfg[key])


# ---------------------------------------------------------------------------
# commands


def _require(args, *keys) -> None:
    for key in keys:
        if getattr(args, key, None) is None:
            raise GapdimsError(f"missing required option --{key} "
                               f"(flag or config-file key)")


def cmd_dims(args) -> int:
    merge_config(args, ["seq", "phi", "levels"])
    _require(args, "seq")
    a = parse_sequence(args.seq)
    f = parse_phi(args.phi or "zero")
    levels = args.levels or 64
    p = level_sums(a, levels)
    d = depth_function(f, p, p.n_max, clip=True)
    up = upper_phi_dim_formula(p, d, p.n_max)
    lo = lower_phi_dim_formula(p, d, p.n_max)
    payload = {
        "config": {"seq": args.seq, "phi": args.phi or "zero", "levels": levels,
                   "sequence": a.to_config(), "dimension_function": f.to_config()},
        "upper": up.to_record(),
        "lower": lo.to_record(),
        "box": box_dim_estimate(p),
        "level_comparable": p.level_comparable,
        "regime": d.regime,
    }
    write_json(out_path("", "json", args), payload)
    print(f"upper {up.beta_limit:.6f}  lower {lo.beta_limit:.6f}  "
          f"box {payload['box']:.6f}  regime {d.regime}")
    return 0


def cmd_sample(args) -> int:
    merge_config(args, ["seq", "w", "arrangement", "seed"])
    _require(args, "seq", "w")
    a = parse_sequence(args.seq)
    s = build_set(a, args.w, args.arrangement, seed=args.seed)
    table = s.export_table()
    write_csv(out_path("gaps", "csv", args), ["index", "left", "length"],
              zip(table["index"], table["left"], table["length"]))
    write_json(out_path("", "json", args), {
        "config": {"seq": args.seq, "w": args.w, "arrangement": args.arrangement,
                   "seed": args.seed, "sequence": a.to_config()},
        "n_gaps": s.n_gaps,
        "total_gap_mass": math.fsum(table["length"]),
        "tail_mass": a.tail_mass(args.w),
        "truncation_floor": s.truncation_floor(),
    })
    print(f"{s.n_gaps} gaps written; truncation floor {s.truncation_floor():.3e}")
    return 0


def cmd_estimate(args) -> int:
    merge_config(args, ["seq", "phi", "w", "arrangement", "seed", "levels",
                        "policy"])
    _require(args, "seq", "w")
    a = parse_sequence(args.seq)
    f = parse_phi(args.phi or "zero")
    levels = args.levels or 60
    p = level_sums(a, levels)
    d = depth_function(f, p, levels - 1, clip=True)
    policy = (WindowPolicy.from_config(args.policy) if args.policy
              else WindowPolicy())
    s = build_set(a, args.w, args.arrangement, seed=args.seed)
    directions = ("upper", "lower") if args.direction == "both" else (args.direction,)
    summary = {"config": {
        "seq": args.seq, "phi": args.phi or "zero", "w": args.w,
        "arrangement": args.arrangement, "seed": args.seed, "levels": levels,
        "direction": args.direction, "policy": policy.to_config(),
        "sequence": a.to_config(), "dimension_function": f.to_config(),
    }}
    for direction in directions:
        est = estimate_dimension(s, direction, f, p, d, policy)
        summary[direction] = est.to_record()
        write_csv(out_path(f"windows-{direction}", "csv", args),
                  ["n", "x", "R", "r", "N", "exponent"],
                  ((q.n, q.center_x, q.radius_R, q.scale_r, q.count_N, q.exponent)
                   for q in est.records))
        print(f"{direction} beta_hat = {est.beta_hat:.6f} "
              f"({len(est.records)} windows)")
    write_json(out_path("", "json", args), summary)
    return 0


def _policies_from_manifest(cfg: dict | None) -> dict | None:
    if cfg is None:
        return None
    return {int(depth): (WindowPolicy.from_config(pair[0]),
                         WindowPolicy.from_config(pair[1]))
            for depth, pair in cfg.items()}


def check_thresholds(rules: dict, summaries: list[dict], targets: dict) -> list[dict]:
    """Evaluate pre-registered drift/tolerance rules against the depth
    ladder of one dichotomy run.  Each rule is binding."""
    checks = []
    for side in ("upper", "lower"):
        rule = rules.get(side)
        if not rule:
            continue
        med = [s[f"median_{'up' if side == 'upper' else 'low'}"] for s in summaries]
        target = rule.get("target")
        if isinstance(target, str):
            target = targets[target]
        drift = rule.get("drift")
        if target is None and (drift == "toward" or rule.get("final_distance_max") is not None):
            raise GapdimsError(f"{side} rule measures distance but has no target")
        if target is not None:
            dist = [abs(v - target) for v in med]
        if drift not in (None, "toward", "increasing", "non-increasing"):
            raise GapdimsError(f"unknown {side} drift {drift!r}")
        if drift == "toward":
            ok = all(d2 < d1 for d1, d2 in zip(dist, dist[1:]))
            checks.append({"check": f"{side} drift toward {target:.6f}",
                           "distances": dist, "pass": ok})
        elif drift == "increasing":
            ok = all(v2 > v1 for v1, v2 in zip(med, med[1:]))
            checks.append({"check": f"{side} medians strictly increasing",
                           "medians": med, "pass": ok})
        elif drift == "non-increasing":
            ok = all(v2 <= v1 for v1, v2 in zip(med, med[1:]))
            checks.append({"check": f"{side} medians non-increasing",
                           "medians": med, "pass": ok})
        if rule.get("final_distance_max") is not None:
            ok = dist[-1] <= rule["final_distance_max"]
            checks.append({"check": f"{side} final distance <= {rule['final_distance_max']}",
                           "value": dist[-1], "pass": ok})
        if rule.get("final_min") is not None:
            ok = med[-1] > rule["final_min"]
            checks.append({"check": f"{side} final median > {rule['final_min']}",
                           "value": med[-1], "pass": ok})
        if rule.get("final_max") is not None:
            ok = med[-1] <= rule["final_max"]
            checks.append({"check": f"{side} final median <= {rule['final_max']}",
                           "value": med[-1], "pass": ok})
    if rules.get("sandwich"):
        bad = sum(s["sandwich_violations"] for s in summaries)
        checks.append({"check": "per-trial sandwich lower <= box <= upper (0.05 slack)",
                       "violations": bad, "pass": bad == 0})
    return checks


def run_manifest(manifest: dict, workers: int = 1) -> dict:
    a = GapSequence.from_config(manifest["sequence"])
    master_seed = manifest["master_seed"]
    results = []
    for entry in manifest["experiments"]:
        kind = entry.get("kind", "dichotomy")
        if kind == "dichotomy":
            f = make_dimension_function(**entry["dimension_function"])
            rep = experiments.run_dichotomy_experiment(
                a, f, manifest["w"], manifest["trials"], master_seed,
                policies=_policies_from_manifest(entry.get("policies")),
                workers=workers)
            record = rep.to_record()
            checks = check_thresholds(entry.get("thresholds", {}),
                                      record["depths"], record["targets"])
        elif kind == "max_load":
            record = experiments.max_load_statistic(
                a, entry["w"], entry["n"], entry["phi_n"],
                manifest["trials"], master_seed)
            checks = [{"check": f"freq(M_n > K_n) >= {entry['min_frequency']}",
                       "value": record["frequency"],
                       "pass": record["frequency"] >= entry["min_frequency"]}]
        elif kind == "empty_bin":
            record = experiments.empty_bin_probability(
                entry["n_bins_log2"], entry["balls"],
                manifest["trials"], master_seed)
            checks = [{"check": f"empty-bin frequency >= {entry['min_frequency']}",
                       "value": record["frequency"],
                       "pass": record["frequency"] >= entry["min_frequency"]}]
        elif kind == "interval_length":
            record = experiments.interval_length_lemma_check(
                a, entry["w"], entry["n"], manifest["trials"], master_seed)
            checks = [{"check": f"within-bound frequency >= {entry['min_frequency']}",
                       "value": record["frequency"],
                       "pass": record["frequency"] >= entry["min_frequency"]}]
        else:
            raise GapdimsError(f"unknown experiment kind {kind!r}")
        results.append({"name": entry.get("name", kind), "kind": kind,
                        "report": record, "checks": checks,
                        "pass": all(c["pass"] for c in checks)})
    return {"manifest": manifest, "results": results,
            "pass": all(r["pass"] for r in results)}


def cmd_experiment(args) -> int:
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    outcome = run_manifest(manifest, workers=args.workers or 1)
    write_json(out_path("", "json", args), outcome)
    rows = []
    for res in outcome["results"]:
        if res["kind"] == "dichotomy":
            for depth in res["report"]["depths"]:
                for t in depth["trials"]:
                    rows.append((res["name"], depth["depth"], t["trial_id"],
                                 t["seed"], t["beta_up"], t["beta_low"]))
    if rows:
        write_csv(out_path("trials", "csv", args),
                  ["name", "depth", "trial_id", "seed", "beta_up", "beta_low"], rows)
    for res in outcome["results"]:
        for c in res["checks"]:
            print(f"[{'PASS' if c['pass'] else 'FAIL'}] {res['name']}: {c['check']}")
    return 0 if outcome["pass"] else 1


DEFAULT_GRID = [(256 * 2 ** 8, 8), (512 * 2 ** 8, 8), (1024 * 2 ** 8, 8),
                (2 ** 13, 5), (2 ** 15, 5)]


def cmd_tailcheck(args) -> int:
    if args.grid in (None, "default"):
        grid = DEFAULT_GRID
    else:
        grid = [tuple(int(v) for v in pair.split(":")) for pair in args.grid.split(",")]
    eta = args.eta or 1.0 / 12.0
    rows = experiments.binomial_tail_check(grid, eta)
    ok = all(
        row.exact_two_sided_tail <= row.dml_bound
        and (not row.corollary_in_hypothesis
             or max(row.exact_upper_tail, row.exact_lower_tail) <= row.corollary_bound)
        for row in rows if row.in_hypothesis)
    write_json(out_path("", "json", args), {
        "config": {"grid": [list(g) for g in grid], "eta": eta},
        "rows": [r.to_record() for r in rows],
        "pass": ok,
    })
    for r in rows:
        status = "SKIP" if not r.in_hypothesis else (
            "PASS" if r.exact_two_sided_tail <= r.dml_bound else "FAIL")
        print(f"[{status}] M={r.m} N={r.n} Mp={r.mp:g}"
              + (f" ({r.skip_reason})" if r.skip_reason else ""))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gapdims", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--out", help="output basename (or absolute path prefix)")

    p = sub.add_parser("dims", help="formula dimensions of the rule-based set")
    p.add_argument("--seq"); p.add_argument("--phi")
    p.add_argument("--levels", type=int)
    common(p); p.set_defaults(func=cmd_dims)

    p = sub.add_parser("sample", help="write the gap table of one arrangement")
    p.add_argument("--seq"); p.add_argument("--w", "--W", dest="w", type=int)
    p.add_argument("--arrangement", default="random",
                   choices=["random", "cantor", "decreasing"])
    p.add_argument("--seed", type=int)
    common(p); p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="window-sweep dimension estimate")
    p.add_argument("--seq"); p.add_argument("--phi")
    p.add_argument("--w", "--W", dest="w", type=int)
    p.add_argument("--arrangement", default="random",
                   choices=["random", "cantor", "decreasing"])
    p.add_argument("--seed", type=int); p.add_argument("--levels", type=int)
    p.add_argument("--direction", default="both", choices=["upper", "lower", "both"])
    p.add_argument("--policy", type=json.loads,
                   help="window policy as inline JSON")
    common(p); p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("experiment", help="run a manifest of seeded experiments")
    p.add_argument("--manifest", required=True)
    p.add_argument("--workers", type=int)
    common(p); p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("tailcheck", help="exact binomial tails vs bounds")
    p.add_argument("--grid", help="'default' or comma list of M:N pairs")
    p.add_argument("--eta", type=float)
    common(p); p.set_defaults(func=cmd_tailcheck)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GapdimsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
