"""The gapdims benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload manifest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload policy_sweep --trace 1
    python3 perfbench/run.py --record [--workload NAME]   # rewrite reference.json
    python3 perfbench/selftest.py                         # tiny-depth smoke check

Run it from anywhere; it imports ``gapdims`` from ``src/`` next to this
directory.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

SEED_BASE = 99          # the pinned manifest's master seed
SEED_POOL = 16          # workload seeds SEED_BASE .. SEED_BASE + 15 have references
REL_TOL = 1e-9
MIN_PASSES = 2
SETUP_CHILDREN = 6      # set-up is timed in this process and in this many fresh ones
PASS_LIMIT_S = 120.0    # never start a pass that would end later than this


def workload_seed(seed: int) -> int:
    """Fold any --seed onto the recorded pool; the default 99 maps to itself."""
    return SEED_BASE + (seed - SEED_BASE) % SEED_POOL


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up and passes


def set_up(name: str, seed: int, smoke: bool, tmp: str):
    """Import the package from this checkout and build the workload's inputs.

    Returns (workload, seconds).  The time covers ``import gapdims``,
    building the inputs and one warm-up call at a small depth.
    """
    t0 = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gapdims
    if not os.path.abspath(gapdims.__file__).startswith(src + os.sep):
        raise ImportError(f"gapdims imported from {gapdims.__file__}, not from {src}")
    import workloads
    wl = workloads.WORKLOADS[name](ROOT, workload_seed(seed), smoke)
    wl.setup(tmp)
    return wl, time.perf_counter() - t0


def setup_in_child(name: str, seed: int, smoke: bool) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def one_pass(wl):
    """Run every step once: ({step: seconds}, outputs per operation, notes)."""
    gc.collect()
    times, results = {}, {}
    for label, step in wl.steps():
        t0 = time.perf_counter()
        results[label] = step()
        times[label] = time.perf_counter() - t0
    ops, notes = wl.collect(results)
    return times, ops, notes


def pass_time(step_times: list[dict]) -> float:
    """Sum over the steps of each step's median time across passes."""
    return sum(statistics.median(t[label] for t in step_times) for label in step_times[0])


def timed_passes(wl, seconds: float, min_passes: int):
    """Repeat the pass until the next one would overrun ``seconds``."""
    start = time.perf_counter()
    times, outs = [], []
    while True:
        dt, ops, notes = one_pass(wl)
        times.append(dt)
        outs.append((ops, notes))
        finish = time.perf_counter() - start + pass_time(times)
        if finish > PASS_LIMIT_S or (len(times) >= min_passes and finish > seconds):
            return times, outs


# ---------------------------------------------------------------------------
# checking


def same_value(ref, got) -> bool:
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
            return False
        if math.isnan(ref) or math.isnan(got):
            return math.isnan(ref) and math.isnan(got)
        return abs(ref - got) <= REL_TOL * max(abs(ref), abs(got))
    return ref == got


def same_record(ref, got) -> bool:
    return (ref is not None and got is not None and ref.keys() == got.keys()
            and all(same_value(ref[k], got[k]) for k in ref))


def score(reference: dict, ops: dict) -> tuple[int, int]:
    """(attempted, failed) of one pass against the reference outputs."""
    keys = set(reference) | set(ops)
    failed = sum(1 for k in keys if not same_record(reference.get(k), ops.get(k)))
    return len(keys), failed


def reference_for(wl, smoke: bool) -> dict:
    if not os.path.exists(REFERENCE):
        raise FileNotFoundError(f"{REFERENCE} missing; run with --record")
    entry = load_json(REFERENCE)["workloads"][wl.name]["smoke" if smoke else "full"]
    config = dict(wl.config(), master_seed=None)
    if entry["config"] != config:
        raise ValueError(f"reference.json was recorded for {entry['config']}, "
                         f"this run uses {config}; re-record with --record")
    return entry["outputs"][str(wl.seed)]


# ---------------------------------------------------------------------------
# provenance


def environment() -> dict:
    """Which code and library versions ran, and on how many CPUs."""
    import numpy
    import scipy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass      # no git: the source hash still identifies the code
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "gapdims")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def provenance(wl, seed: int) -> dict:
    return dict(environment(), seed=seed, workload_seed=wl.seed, config=wl.config())


# ---------------------------------------------------------------------------
# the two kinds of run


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def untraced_run(wl, args, setup_main: float, reference: dict) -> tuple[dict, int, int, list]:
    setups = [setup_main] + [setup_in_child(args.workload, args.seed, args.smoke)
                             for _ in range(1 if args.smoke else SETUP_CHILDREN)]
    times, outs = timed_passes(wl, args.seconds, 1 if args.smoke else MIN_PASSES)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = failed = 0
    for ops, _ in outs:
        a, f = score(reference, ops)
        attempted, failed = attempted + a, failed + f
    problems = [] if all(o == outs[0][0] for o, _ in outs) else ["passes disagree"]
    wall = pass_time(times)
    q1, q3 = quartiles([sum(t.values()) for t in times])
    print(f"wall_s {wall:.6f} s  (sum of {len(times[0])} step medians over {len(times)} passes; "
          f"pass quartiles {q1:.6f} {q3:.6f})")
    print(f"setup_s {statistics.median(setups):.6f} s  (median of {len(setups)} set-ups: "
          + " ".join(f"{s:.4f}" for s in setups) + ")")
    print(f"peak_rss_mb {peak_mib:.1f} MiB")
    print(f"failed_frac {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    for key, value in outs[0][1].items():
        print(f"note {key} = {value}")
    metrics = {"wall_s": wall, "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_mib}
    return metrics, attempted, failed, problems


def traced_run(wl, args, reference: dict) -> tuple[dict, int, int, list]:
    import spans
    times, outs = timed_passes(wl, args.seconds / 2, 1)
    traced = []
    for accuracy in (False, True):
        tracer = spans.Tracer(probe_accuracy=accuracy)
        with tracer:
            dt, ops, _ = one_pass(wl)
        traced.append((tracer, sum(dt.values()), ops))
    (timing, wall_traced, ops_a), (probe, _, ops_b) = traced
    attempted = failed = 0
    for ops in [o for o, _ in outs] + [ops_a, ops_b]:
        a, f = score(reference, ops)
        attempted, failed = attempted + a, failed + f
    problems = []
    if not all(o == outs[0][0] for o in [o for o, _ in outs] + [ops_a, ops_b]):
        problems.append("traced outputs differ from untraced outputs")
    if timing.counters() != probe.counters():
        problems.append(f"exact counters differ between two traced passes: "
                        f"{timing.counters()} != {probe.counters()}")
    metrics = timing.metrics()
    metrics["randmodel.width_relerr_max"] = probe.width_relerr_max
    metrics["trace.overhead_s"] = wall_traced - pass_time(times)
    print(f"traced pass {wall_traced:.6f} s, untraced {pass_time(times):.6f} s "
          f"over {len(times)} passes")
    print("exact counters " + json.dumps(timing.counters(), sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value}")
    return metrics, attempted, failed, problems


def emit(spec: dict, trace: bool, metrics: dict, attempted: int, failed: int, problems: list) -> None:
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise KeyError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    for p in problems:
        print(f"check failed: {p}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))


# ---------------------------------------------------------------------------
# recording the reference outputs


def record(names: list[str]) -> int:
    """Run one pass per workload, mode and pooled seed; store the outputs."""
    data = load_json(REFERENCE) if os.path.exists(REFERENCE) else {}
    data.update({
        "about": "Per-operation outputs of one pass, per workload seed; "
                 "floats compare within 1e-9 relative, everything else exactly.",
        "seeds": [SEED_BASE + i for i in range(SEED_POOL)],
    })
    tmp = make_tmp()
    try:
        for name in names:
            modes = data.setdefault("workloads", {}).setdefault(name, {})
            for smoke in (True, False):
                outputs, config = {}, None
                for seed in data["seeds"]:
                    wl, _ = set_up(name, seed, smoke, tmp)
                    _, ops, _ = one_pass(wl)
                    bad = [k for k, v in ops.items() if v is None]
                    if bad:
                        raise RuntimeError(f"{name} seed {seed}: operations failed: {bad}")
                    outputs[str(seed)] = ops
                    config = dict(wl.config(), master_seed=None)
                    print(f"recorded {name} {'smoke' if smoke else 'full'} seed {seed}",
                          flush=True)
                modes["smoke" if smoke else "full"] = {"config": config, "outputs": outputs}
        data["recorded_from"] = environment()
    finally:
        remove_tmp(tmp)
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def make_tmp() -> str:
    base = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def remove_tmp(tmp: str) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(tmp))
    except OSError:
        pass      # another run still uses it


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = load_json(spec_path)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=SEED_BASE)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny depths and trial counts")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record", action="store_true",
                    help="re-record reference.json (all workloads unless --workload)")
    args = ap.parse_args(argv)
    if args.record:
        return record([args.workload] if args.workload else names)
    if args.workload is None:
        ap.error("--workload is required")

    tmp = make_tmp()
    try:
        wl, setup_s = set_up(args.workload, args.seed, args.smoke, tmp)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        reference = reference_for(wl, args.smoke)
        print(f"perfbench {args.workload} seed {args.seed} (workload seed {wl.seed}) "
              f"trace {args.trace}{' smoke' if args.smoke else ''}")
        print("provenance " + json.dumps(provenance(wl, args.seed), sort_keys=True))
        if args.trace:
            result = traced_run(wl, args, reference)
        else:
            result = untraced_run(wl, args, setup_s, reference)
        emit(spec, bool(args.trace), *result)
    finally:
        remove_tmp(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
