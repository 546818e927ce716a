"""Almost-sure Assouad-like dimensions of complementary sets of gap sequences."""

from .cantor import (
    FormulaEstimate,
    box_dim_estimate,
    lower_phi_dim_formula,
    upper_phi_dim_formula,
)
from .dimfuncs import (
    DepthTable,
    DimensionFunction,
    depth_function,
    make_dimension_function,
)
from .errors import (
    DepthUnsupportedError,
    GapdimsError,
    InsufficientDepthError,
    InvalidRangeError,
    InvalidRatioError,
    NoAdmissibleWindowError,
    NotDecreasingError,
    NotLevelComparableError,
    NotNormalizedError,
    OutOfDomainError,
    OutOfRegimeError,
)
from .covering import (
    CoverQuery,
    DimensionEstimate,
    WindowPolicy,
    enumerate_windows,
    estimate_dimension,
)
from .experiments import (
    ExperimentReport,
    binomial_tail_check,
    empty_bin_probability,
    interval_length_lemma_check,
    max_load_statistic,
    run_dichotomy_experiment,
    run_manifest,
)
from .randmodel import ApproxSet, build_set, slot_counts
from .rng import derive_seed, uniforms
from .sequences import (
    GapSequence,
    LevelProfile,
    level_sums,
    make_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxSet",
    "DepthTable",
    "DimensionFunction",
    "FormulaEstimate",
    "GapSequence",
    "GapdimsError",
    "LevelProfile",
    "CoverQuery",
    "DimensionEstimate",
    "ExperimentReport",
    "WindowPolicy",
    "binomial_tail_check",
    "box_dim_estimate",
    "build_set",
    "depth_function",
    "derive_seed",
    "empty_bin_probability",
    "enumerate_windows",
    "estimate_dimension",
    "interval_length_lemma_check",
    "level_sums",
    "max_load_statistic",
    "run_dichotomy_experiment",
    "run_manifest",
    "slot_counts",
    "lower_phi_dim_formula",
    "make_dimension_function",
    "make_sequence",
    "uniforms",
    "upper_phi_dim_formula",
]
