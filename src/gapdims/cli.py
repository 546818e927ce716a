"""Command-line front end.

Commands
--------
dims        formula dimensions of the rule-based set, both directions
sample      write the gap table of one arrangement
estimate    window-sweep dimension estimate of one arrangement
experiment  run a manifest of seeded experiments with binding thresholds,
            through the library engine `gapdims.run_manifest`
tailcheck   exact binomial tails against the stated bounds

Exit codes: 0 = every check passes, 1 = a binding check failed, 2 = bad input
(unknown or missing options or keys, malformed JSON, unreadable files).

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
from .errors import GapdimsError, check_keys
from .randmodel import build_set
from .sequences import GapSequence, make_sequence, level_sums


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
    payload["schema_version"] = experiments.SCHEMA_VERSION
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["schema_version", experiments.SCHEMA_VERSION])
        w.writerow(header)
        w.writerows(rows)


def config_flags(args) -> list[str]:
    """The ``--config`` file's keys as ``--key=value`` flags (a string as it
    is, any other value as JSON); a key that names no option is an error."""
    with open(args.config) as fh:
        cfg = check_keys(json.load(fh), f"config file {args.config}", optional=args.options)
    return [f"{args.options[key]}={value if isinstance(value, str) else json.dumps(value)}"
            for key, value in cfg.items()]


# ---------------------------------------------------------------------------
# commands


def _require(args, *keys) -> None:
    for key in keys:
        if getattr(args, key, None) is None:
            raise GapdimsError(f"missing required option --{key} "
                               f"(flag or config-file key)")


def cmd_dims(args) -> int:
    _require(args, "seq")
    a = parse_sequence(args.seq)
    f = parse_phi(args.phi)
    p = level_sums(a, args.levels)
    d = depth_function(f, p, p.n_max, clip=True)
    up = upper_phi_dim_formula(d, p.n_max)
    lo = lower_phi_dim_formula(d, p.n_max)
    payload = {
        "config": {"seq": args.seq, "phi": args.phi, "levels": args.levels,
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
    _require(args, "seq", "w")
    a = parse_sequence(args.seq)
    s = build_set(a, args.w, args.arrangement, seed=args.seed)
    write_csv(out_path("gaps", "csv", args), ["index", "left", "length"],
              zip(s.order.tolist(), s.gap_left.tolist(), s.gap_len.tolist()))
    write_json(out_path("", "json", args), {
        "config": {"seq": args.seq, "w": args.w, "arrangement": args.arrangement,
                   "seed": args.seed, "sequence": a.to_config()},
        "n_gaps": s.n_gaps,
        "total_gap_mass": math.fsum(s.gap_len),
        "tail_mass": a.tail_mass(args.w),
        "truncation_floor": s.truncation_floor(),
    })
    print(f"{s.n_gaps} gaps written; truncation floor {s.truncation_floor():.3e}")
    return 0


def cmd_estimate(args) -> int:
    _require(args, "seq", "w")
    a = parse_sequence(args.seq)
    f = parse_phi(args.phi)
    p = level_sums(a, args.levels)
    d = depth_function(f, p, args.levels - 1, clip=True)
    policy = WindowPolicy() if args.policy is None else WindowPolicy.from_config(args.policy)
    s = build_set(a, args.w, args.arrangement, seed=args.seed)
    directions = ("upper", "lower") if args.direction == "both" else (args.direction,)
    summary = {"config": {
        "seq": args.seq, "phi": args.phi, "w": args.w,
        "arrangement": args.arrangement, "seed": args.seed, "levels": args.levels,
        "direction": args.direction, "policy": policy.to_config(),
        "sequence": a.to_config(), "dimension_function": f.to_config(),
    }}
    for direction in directions:
        est = estimate_dimension(s, direction, f, p, d, policy)
        summary[direction] = est.to_record()
        write_csv(out_path(f"windows-{direction}", "csv", args),
                  ["n", "k", "x", "R", "r", "N", "exponent"],
                  ((q.n, q.k, q.center_x, q.radius_R, q.scale_r, q.count_N, q.exponent)
                   for q in est.records))
        print(f"{direction} beta_hat = {est.beta_hat:.6f} "
              f"({len(est.records)} windows)")
    write_json(out_path("", "json", args), summary)
    return 0


def cmd_experiment(args) -> int:
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    outcome = experiments.run_manifest(manifest, workers=args.workers)
    write_json(out_path("", "json", args), outcome)
    rows = [(res["name"], depth["depth"], t["trial_id"], t["seed"], t["beta_up"], t["beta_low"])
            for res in outcome["results"] if res["kind"] == "dichotomy"
            for depth in res["report"]["depths"] for t in depth["trials"]]
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
    if args.grid == "default":
        grid = DEFAULT_GRID
    else:
        grid = [tuple(int(v) for v in pair.split(":")) for pair in args.grid.split(",")]
    rows = experiments.binomial_tail_check(grid, args.eta)
    ok = all(
        row["exact_two_sided_tail"] <= row["dml_bound"]
        and (not row["corollary_in_hypothesis"]
             or max(row["exact_upper_tail"], row["exact_lower_tail"]) <= row["corollary_bound"])
        for row in rows if row["in_hypothesis"])
    write_json(out_path("", "json", args), {
        "config": {"grid": [list(g) for g in grid], "eta": args.eta},
        "rows": rows,
        "pass": ok,
    })
    for r in rows:
        status = "SKIP" if not r["in_hypothesis"] else (
            "PASS" if r["exact_two_sided_tail"] <= r["dml_bound"] else "FAIL")
        print(f"[{status}] M={r['M']} N={r['N']} Mp={r['Mp']:g}"
              + (f" ({r['skip_reason']})" if r["skip_reason"] else ""))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gapdims", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        p.add_argument("--out", help="output basename (or absolute path prefix)")
        if config:
            p.add_argument("--config", help="JSON file of option values, each read as "
                           "--key=value before the flags, which win")
            p.set_defaults(options={a.dest: a.option_strings[0] for a in p._actions
                                    if a.dest not in ("help", "config")})

    p = sub.add_parser("dims", help="formula dimensions of the rule-based set")
    p.add_argument("--seq"); p.add_argument("--phi", default="zero")
    p.add_argument("--levels", type=int, default=64)
    common(p); p.set_defaults(func=cmd_dims)

    p = sub.add_parser("sample", help="write the gap table of one arrangement")
    p.add_argument("--seq"); p.add_argument("--w", "--W", dest="w", type=int)
    p.add_argument("--arrangement", default="random",
                   choices=["random", "cantor", "decreasing"])
    p.add_argument("--seed", type=int)
    common(p); p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="window-sweep dimension estimate")
    p.add_argument("--seq"); p.add_argument("--phi", default="zero")
    p.add_argument("--w", "--W", dest="w", type=int)
    p.add_argument("--arrangement", default="random",
                   choices=["random", "cantor", "decreasing"])
    p.add_argument("--seed", type=int); p.add_argument("--levels", type=int, default=60)
    p.add_argument("--direction", default="both", choices=["upper", "lower", "both"])
    p.add_argument("--policy", type=json.loads,
                   help="window policy as inline JSON")
    common(p); p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("experiment", help="run a manifest of seeded experiments")
    p.add_argument("--manifest", required=True)
    p.add_argument("--workers", type=int, default=1)
    common(p, config=False); p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("tailcheck", help="exact binomial tails vs bounds")
    p.add_argument("--grid", default="default", help="'default' or comma list of M:N pairs")
    p.add_argument("--eta", type=float, default=1.0 / 12.0)
    common(p, config=False); p.set_defaults(func=cmd_tailcheck)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # after the command name and before the user's flags, which win
            args = parser.parse_args(argv[:1] + config_flags(args) + argv[1:])
        return args.func(args)
    except (GapdimsError, OSError, ValueError) as exc:   # ValueError: malformed JSON or numbers
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
