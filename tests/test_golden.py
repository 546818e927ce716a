"""Byte identity of the package's outputs, checked against recorded sha256 digests.

`tests/golden.json` holds one digest per output of a fixed set of small
runs: the endpoints of a random and a Cantor set, bit for bit; the pinned
manifest at 2 trials with 1 and 2 workers; the max-load, empty-bin and
interval-length reports at master seeds 7 and 99; `sample` for every
arrangement; `tailcheck --grid default`; `dims`; and `estimate --direction
both` with the default and a pinned policy on random and Cantor sets (each
command's files and stdout).  It also records the numpy and scipy versions
the digests were made with.  A change that moves outputs on purpose
regenerates the file in the same commit, with

    PYTHONPATH=src python tests/test_golden.py

which prints the names of the digests it changes, and says in its change
log entry which digests moved.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np
import scipy

from gapdims import (
    build_set,
    empty_bin_probability,
    interval_length_lemma_check,
    make_sequence,
    max_load_statistic,
)
from gapdims.cli import main

from helpers import report_json

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
MANIFEST = os.path.join(HERE, os.pardir, "manifests", "dichotomy_middle_third.json")
PINNED_POLICY = '{"n_values": [4], "k_min": 3, "k_max": 4}'


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _run(out: str, argv: list[str], files: list[str]) -> dict:
    """{name: bytes} of one CLI run: its stdout and the given output files."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--out", out])
    assert code == 0, (argv, code)
    name = os.path.basename(out)
    outputs = {f"{name}.stdout": stdout.getvalue().encode()}
    for ext in files:
        with open(f"{out}.{ext}", "rb") as fh:
            outputs[f"{name}.{ext}"] = fh.read()
    return outputs


def outputs() -> dict:
    """{name: bytes} of every output the digests cover."""
    mid = make_sequence("middle-third")
    out = {}
    for seed in (7, 99):
        for kind, report in (("max_load", max_load_statistic(mid, 12, 8, 2, 4, seed)),
                             ("empty_bin", empty_bin_probability(10, 40000, 4, seed)),
                             ("interval_length", interval_length_lemma_check(mid, 12, 6, 4,
                                                                             seed))):
            out[f"{kind}.{seed}.json"] = report_json(report).encode()
    for arrangement in ("random", "cantor"):
        s = build_set(mid, 14, arrangement, seed=7)
        out[f"build_set-{arrangement}.endpoints"] = s.lefts.tobytes() + s.rights.tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        with open(MANIFEST) as fh:
            manifest = {**json.load(fh), "trials": 2}
        path = os.path.join(tmp, "manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        for workers in (1, 2):
            out.update(_run(os.path.join(tmp, f"experiment-w{workers}"),
                            ["experiment", "--manifest", path, "--workers", str(workers)],
                            ["json", "trials.csv"]))
        for arrangement in ("random", "cantor", "decreasing"):
            out.update(_run(os.path.join(tmp, f"sample-{arrangement}"),
                            ["sample", "--seq", "middle-third", "--w", "12", "--seed", "7",
                             "--arrangement", arrangement], ["json", "gaps.csv"]))
        out.update(_run(os.path.join(tmp, "tailcheck"), ["tailcheck", "--grid", "default"],
                        ["json"]))
        out.update(_run(os.path.join(tmp, "dims"), ["dims", "--seq", "middle-third",
                                                    "--phi", "const:0.5"], ["json"]))
        for arrangement in ("random", "cantor"):
            for label, policy in (("default", []), ("pinned", ["--policy", PINNED_POLICY])):
                out.update(_run(os.path.join(tmp, f"estimate-{arrangement}-{label}"),
                                ["estimate", "--seq", "middle-third", "--phi", "const:0.5",
                                 "--w", "12", "--seed", "7", "--arrangement", arrangement,
                                 *policy],
                                ["json", "windows-upper.csv", "windows-lower.csv"]))
    return out


def digests() -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs().items())}


def moved(golden: dict, got: dict) -> list[str]:
    """Names of the outputs whose digest differs, is new, or is gone."""
    return sorted(name for name in golden.keys() | got.keys() if golden.get(name) != got.get(name))


def test_outputs_match_the_golden_digests():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert golden["versions"] == versions(), (
        f"the golden digests were made with {golden['versions']}, this is {versions()}; "
        "check the outputs against those versions, then regenerate")
    changed = moved(golden["digests"], digests())
    assert not changed, f"outputs differ from tests/golden.json: {changed}"


if __name__ == "__main__":
    old = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            old = json.load(fh)["digests"]
    new = digests()
    print("digests moved:", ", ".join(moved(old, new)) or "none")
    with open(GOLDEN, "w") as fh:
        json.dump({"versions": versions(), "digests": new}, fh, indent=1, sort_keys=True)
        fh.write("\n")
