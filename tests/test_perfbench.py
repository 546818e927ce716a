"""The benchmark harness reads `ExperimentReport.summaries`, the dict
reports' `trials_detail` and `experiment --workers`; running its
self-test here makes a change to any of them fail the test suite."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
