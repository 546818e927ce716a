"""The benchmark's workloads.

Each workload turns a workload seed into its inputs during set-up.  Its
timed section is a list of steps, each a call into the package's public
entry points; the harness times every step, so a slow spell of the
machine during one step does not move the whole pass.  ``collect`` turns
the step results of one pass into one output record per operation, keyed
by a stable name; a record is None when the operation failed (it raised,
or the CLI exited with code 2).  Collecting runs outside the timed steps.

Why these three, and which layer each one stresses, is in README.md.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import traceback
from functools import partial

import gapdims
from gapdims import cli

MANIFEST = os.path.join("manifests", "dichotomy_middle_third.json")
DIRECTIONS = ("upper", "lower")


def guarded(fn, *args):
    """fn(*args), or None after printing the traceback if it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        traceback.print_exception(exc)
        return None


def _load_manifest(root: str) -> dict:
    with open(os.path.join(root, MANIFEST)) as fh:
        return json.load(fh)


class Manifest:
    """``gapdims experiment`` on the pinned manifest with fewer trials.

    Both Phi families, the W ladder 14/17/20 and every policy and
    threshold are kept; only ``trials`` and ``master_seed`` change.
    An operation is one trial.  The threshold checks are statistical at
    this trial count, so their verdict is reported, not checked.
    """

    name = "manifest"

    def __init__(self, root: str, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self.trials = 1 if smoke else 2
        self.workers = 2
        self.w = 14 if smoke else 20

    def config(self) -> dict:
        return {"trials": self.trials, "workers": self.workers, "w": self.w,
                "master_seed": self.seed}

    def _write(self, tmp: str, tag: str, manifest: dict) -> list[str]:
        path = os.path.join(tmp, f"{tag}.manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        return ["experiment", "--manifest", path, "--workers", str(self.workers),
                "--out", os.path.join(tmp, tag)]

    def _main(self, argv: list[str]):
        # the per-check verdict lines are summed up by collect()
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def setup(self, tmp: str) -> None:
        manifest = _load_manifest(self.root)
        manifest["trials"] = self.trials
        manifest["master_seed"] = self.seed
        if self.smoke:
            # the pinned policies exist only for depths 14/17/20; the
            # package's default policies need W >= 13
            manifest["w"] = self.w
            for entry in manifest["experiments"]:
                entry.pop("policies", None)
        if manifest["w"] != self.w:
            raise ValueError(f"manifest depth {manifest['w']} != {self.w}")
        self.report_path = os.path.join(tmp, "report.json")
        self.argv = self._write(tmp, "report", manifest)
        self.keys = [f"{e['name']}/d{d}/t{t}" for e in manifest["experiments"]
                     for d in (self.w - 6, self.w - 3, self.w) for t in range(self.trials)]

        warm = copy.deepcopy(manifest)
        warm.update(trials=1, w=14)
        for entry in warm["experiments"]:
            entry.pop("policies", None)
        if self._main(self._write(tmp, "warmup", warm)) == 2:
            raise RuntimeError("warm-up manifest run exited with code 2")

    def steps(self):
        return [("main", partial(guarded, self._main, self.argv))]

    def collect(self, results: dict) -> tuple[dict, dict]:
        ops = dict.fromkeys(self.keys)
        code = results["main"]
        if code not in (0, 1):
            return ops, {"exit_code": code}
        with open(self.report_path) as fh:
            outcome = json.load(fh)
        for res in outcome["results"]:
            for depth in res["report"]["depths"]:
                for t in depth["trials"]:
                    key = f"{res['name']}/d{depth['depth']}/t{t['trial_id']}"
                    ops[key] = {"beta_up": t["beta_up"], "beta_low": t["beta_low"]}
        return ops, {"exit_code": code, "thresholds_pass": outcome["pass"]}


class RankStats:
    """Max-load, interval-length and empty-bin calls shaped like criteria 7-9.

    No covering runs here: the time goes to label draws, sorts, level-n
    geometry and bin counting.  An operation is one trial.  The empty-bin
    experiment reports only its frequency, so each of its trials is
    checked through that frequency.
    """

    name = "rank_stats"

    def __init__(self, root: str, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        if smoke:
            self.max_load = dict(w=14, n=10, phi_n=2, trials=2)
            self.interval = dict(w=12, n=8, trials=2)
            self.empty_bin = dict(n_bins_log2=10, balls=5 * 2 ** 10, trials=2)
        else:
            self.max_load = dict(w=23, n=20, phi_n=2, trials=2)
            self.interval = dict(w=20, n=14, trials=2)
            self.empty_bin = dict(n_bins_log2=20, balls=5 * 2 ** 20, trials=4)

    def config(self) -> dict:
        return {"max_load": self.max_load, "interval_length": self.interval,
                "empty_bin": self.empty_bin, "master_seed": self.seed}

    def _calls(self, ml: dict, il: dict, eb: dict) -> list:
        a = self.a
        return [
            ("max_load", partial(gapdims.max_load_statistic, a, ml["w"], ml["n"],
                                 ml["phi_n"], ml["trials"], self.seed)),
            ("interval_length", partial(gapdims.interval_length_lemma_check, a, il["w"],
                                        il["n"], il["trials"], self.seed)),
            ("empty_bin", partial(gapdims.empty_bin_probability, eb["n_bins_log2"],
                                  eb["balls"], eb["trials"], self.seed)),
        ]

    def setup(self, tmp: str) -> None:
        self.a = gapdims.make_sequence("middle-third")
        warm = self._calls(dict(w=14, n=10, phi_n=2, trials=1), dict(w=10, n=6, trials=1),
                           dict(n_bins_log2=8, balls=5 * 2 ** 8, trials=1))
        for _, call in warm:
            call()

    def steps(self):
        return [(kind, partial(guarded, call))
                for kind, call in self._calls(self.max_load, self.interval, self.empty_bin)]

    def collect(self, results: dict) -> tuple[dict, dict]:
        ops = {}
        for kind, cfg in (("max_load", self.max_load), ("interval_length", self.interval),
                          ("empty_bin", self.empty_bin)):
            keys = [f"{kind}/t{t}" for t in range(cfg["trials"])]
            ops.update(dict.fromkeys(keys))
            rep = results[kind]
            if rep is None:
                continue
            if kind == "empty_bin":
                for key in keys:
                    ops[key] = {"frequency": rep["frequency"]}
                continue
            for key, t in zip(keys, rep["trials_detail"]):
                if kind == "max_load":
                    ops[key] = {"M_n": t["M_n"], "empty_bin": t.get("empty_bin")}
                else:
                    ops[key] = {"max_len_n": t["max_len_n"]}
        return ops, {}


class PolicySweep:
    """``estimate_dimension`` in both directions for a fixed policy list.

    For each of a few trial seeds (the manifest's first trial seeds) one
    random set is built; covering does almost all of the work.  The
    policies are the manifest's four at this depth, each with its own Phi,
    plus the automatic-level policy and a spread one, both on Phi = 0.
    An operation is one ``estimate_dimension`` call.
    """

    name = "policy_sweep"

    def __init__(self, root: str, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        self.w = 14 if smoke else 20
        self.n_sets = 1 if smoke else 2
        self._set = None

    def config(self) -> dict:
        return {"w": self.w, "sets": self.n_sets, "master_seed": self.seed,
                "policies": [name for name, *_ in self.policies]}

    def setup(self, tmp: str) -> None:
        self.a = gapdims.make_sequence("middle-third")
        manifest = _load_manifest(self.root)
        self.policies = []
        zero = None
        for entry in manifest["experiments"]:
            f = gapdims.make_dimension_function(**entry["dimension_function"])
            p = gapdims.level_sums(self.a, 60)
            d = gapdims.depth_function(f, p, 59, clip=True)
            up, low = (gapdims.WindowPolicy.from_config(c)
                       for c in entry["policies"][str(self.w)])
            self.policies += [(f"{entry['name']}.up", f, p, d, up),
                              (f"{entry['name']}.low", f, p, d, low)]
            if entry["dimension_function"]["family"] == "zero":
                zero = (f, p, d)
        self.policies += [
            ("auto", *zero, gapdims.WindowPolicy()),
            ("spread", *zero, gapdims.WindowPolicy(n_spread=True, auto_n_count=4,
                                                   max_centers=256)),
        ]
        self.seeds = [gapdims.derive_seed(self.seed, t) for t in range(self.n_sets)]
        s = gapdims.build_set(self.a, 12, "random", seed=self.seeds[0])
        gapdims.estimate_dimension(s, "upper", *zero, gapdims.WindowPolicy())

    def _build(self, seed: int) -> bool:
        # one set alive at a time, as in a trial loop
        self._set = None
        self._set = guarded(gapdims.build_set, self.a, self.w, "random", seed)
        return self._set is not None

    def _estimate(self, direction: str, f, p, d, pol):
        if self._set is None:
            return None
        return guarded(gapdims.estimate_dimension, self._set, direction, f, p, d, pol)

    def steps(self):
        out = []
        for i, seed in enumerate(self.seeds):
            out.append((f"s{i}/build", partial(self._build, seed)))
            for name, f, p, d, pol in self.policies:
                for direction in DIRECTIONS:
                    out.append((f"s{i}/{name}/{direction}",
                                partial(self._estimate, direction, f, p, d, pol)))
        return out

    def collect(self, results: dict) -> tuple[dict, dict]:
        ops = {}
        for i in range(self.n_sets):
            for name, *_ in self.policies:
                for direction in DIRECTIONS:
                    key = f"s{i}/{name}/{direction}"
                    est = results[key]
                    ops[key] = None if est is None else {
                        "beta_hat": est.beta_hat, "n_windows": len(est.records),
                        "balls": sum(q.count_N for q in est.records)}
        return ops, {}


WORKLOADS = {w.name: w for w in (Manifest, RankStats, PolicySweep)}
