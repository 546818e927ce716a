"""The public API is pinned here, so that any change to it shows in a diff."""

import gapdims

PUBLIC = [
    "ApproxSet", "CoverQuery", "DepthTable", "DimensionEstimate", "DimensionFunction",
    "ExperimentReport", "FormulaEstimate", "GapSequence", "GapdimsError", "LevelProfile",
    "WindowPolicy", "binomial_tail_check", "box_dim_estimate", "build_set", "depth_function",
    "derive_seed", "empty_bin_probability", "enumerate_windows", "estimate_dimension",
    "interval_length_lemma_check", "level_sums", "lower_phi_dim_formula",
    "make_dimension_function", "make_sequence", "max_load_statistic",
    "run_dichotomy_experiment", "run_manifest", "slot_counts", "uniforms",
    "upper_phi_dim_formula",
]


def test_public_names_are_pinned():
    assert sorted(gapdims.__all__) == PUBLIC
    assert all(hasattr(gapdims, name) for name in PUBLIC)
