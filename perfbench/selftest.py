"""Fast self-test of the benchmark harness at tiny depths.

    python3 perfbench/selftest.py

Runs every workload with ``--smoke`` untraced and traced, checks the
result line against BENCHMARK.json, checks that the exact counters repeat
across two traced runs, that a changed output is caught, and that the
benchmark fails without printing a result when the package is absent.
Exits 0 when all checks pass.  Takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def result_line(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def counters_line(done: subprocess.CompletedProcess) -> dict:
    line = next(x for x in done.stdout.splitlines() if x.startswith("exact counters "))
    return json.loads(line[len("exact counters "):])


def check_result(res: dict, declared: list[dict]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in res["metrics"].items()}, res["metrics"]
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_workloads(spec: dict) -> None:
    for w in spec["workloads"]:
        name = w["name"]
        check_result(result_line(bench("--workload", name, "--seed", "3", "--seconds", "1",
                                       "--trace", "0", "--smoke")), spec["end_to_end"])
        traced = [bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1",
                        "--smoke") for _ in range(2 if name == "manifest" else 1)]
        for done in traced:
            check_result(result_line(done), spec["per_layer"])
        assert all(counters_line(t) == counters_line(traced[0]) for t in traced), name
        print(f"ok  {name}: untraced and traced smoke runs")


def test_comparison() -> None:
    ref = {"a/t0": {"beta": 0.5, "n": 3, "empty": True}}
    assert run.score(ref, {"a/t0": {"beta": 0.5 * (1 + 5e-10), "n": 3, "empty": True}}) == (1, 0)
    assert run.score(ref, {"a/t0": {"beta": 0.5 * (1 + 5e-9), "n": 3, "empty": True}}) == (1, 1)
    assert run.score(ref, {"a/t0": {"beta": 0.5, "n": 4, "empty": True}}) == (1, 1)
    assert run.score(ref, {"a/t0": None}) == (1, 1)
    assert run.score(ref, {}) == (1, 1)
    assert run.workload_seed(run.SEED_BASE) == run.SEED_BASE
    assert {run.workload_seed(s) for s in range(-50, 50)} == set(
        range(run.SEED_BASE, run.SEED_BASE + run.SEED_POOL))
    print("ok  reference comparison and seed folding")


def test_fails_without_package() -> None:
    base = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(base, exist_ok=True)
    bare = tempfile.mkdtemp(dir=base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "manifest", "--seconds", "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0, done.stdout
        assert '"correct"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        run.remove_tmp(bare)
    print("ok  fails without printing a result when src/ is absent")


def main() -> int:
    spec = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    test_comparison()
    test_fails_without_package()
    test_workloads(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
