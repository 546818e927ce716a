"""What the benchmark harness reads of the package: `cli.main` running
`experiment --workers` and the report's per-trial betas; `build_set`,
`estimate_dimension` (`beta_hat` and each record's `center_x`, `radius_R`
and `count_N`) and the three rank-space experiments (`frequency`, `config`
and `trials_detail`); and, in its traced pass, rebound module functions,
`ApproxSet.w`, `ApproxSet.level_intervals(w)` and `.slot_mass`.  No workload
calls `run_dichotomy_experiment`, so the tracer's dichotomy trial counter,
which reads a `summaries` attribute that reports no longer have, never
runs.  Running its self-test here makes a change to any of them fail the
test suite."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
