"""The public API is pinned here, so that any change to it shows in a diff."""

import dataclasses
import os
import subprocess
import sys

import gapdims

PUBLIC = [
    "ApproxSet", "CoverQuery", "DepthTable", "DimensionEstimate", "DimensionFunction",
    "FormulaEstimate", "GapSequence", "GapdimsError", "LevelProfile", "WindowPolicy",
    "binomial_tail_check", "box_dim_estimate", "build_set", "depth_function", "derive_seed",
    "empty_bin_probability", "enumerate_windows", "estimate_dimension",
    "interval_length_lemma_check", "level_sums", "lower_phi_dim_formula",
    "make_dimension_function", "make_sequence", "max_load_statistic",
    "run_dichotomy_experiment", "run_manifest", "upper_phi_dim_formula",
]

# what a set stores: its level-W intervals once, the order and slot masses, two memos
APPROX_SET_FIELDS = ["w", "order", "lefts", "rights", "slot_mass", "_center_cache",
                     "_count_cache"]
# a record's fields, in the order that breaks an estimate's ties between windows
COVER_QUERY_FIELDS = ("n", "k", "center_x", "radius_R", "scale_r", "count_N")


def test_public_names_are_pinned():
    assert sorted(gapdims.__all__) == PUBLIC
    assert all(hasattr(gapdims, name) for name in PUBLIC)


def test_set_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(gapdims.ApproxSet)] == APPROX_SET_FIELDS


def test_record_fields_are_pinned():
    assert gapdims.CoverQuery._fields == COVER_QUERY_FIELDS


def test_import_does_not_load_scipy():
    # scipy.special dominates import time and only the binomial tails use it
    src = os.path.dirname(os.path.dirname(gapdims.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", "import sys, gapdims; "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
