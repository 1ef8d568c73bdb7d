"""Numerical laboratory for spatial rough-path lifts of the periodic
stochastic heat field: exact group arithmetic, distribution-exact
spectral sampling, dual covariance oracles, dyadic lift convergence and
large-deviation experiments."""

from .errors import ParameterError
from .group import (
    DimensionMismatchError,
    GroupElement,
    NonGeometricError,
    dilate,
    group_dist,
    hom_norm,
    inverse,
    multiply,
    unit,
)
from .sheets import (
    EmbeddingRatioReport,
    GridMismatchError,
    PathSlice,
    RoughSheet,
    RoughSlice,
    besov_norm,
    dilate_sheet,
    dist_infty,
    embedding_ratio,
    holder_norm,
    increment,
    lift_piecewise_linear,
    load_sheet,
    save_sheet,
    spacetime_besov_norm,
)
from .sampler import (
    FieldSample,
    SpectralConfig,
    basis_eval,
    sample_field,
    sample_row,
    sample_slice_marginal,
    truncation_residual,
)
from .covariance import (
    BoundScanReport,
    bound_scan,
    cov,
    dist_s1,
    dual_method_check,
    rect_var,
    second_diff_cov,
    validate_bound_params,
)
from .dyadic import (
    ConvergenceTable,
    convergence_study,
    level2_telescope,
    lift_level,
    restrict_values,
    validate_besov_params,
)
from .ldp import (
    CMControl,
    CameronMartinPath,
    ChaosReport,
    ModeControl,
    SchilderReport,
    TailRow,
    cameron_martin_path,
    chaos_moment_ratio,
    cm_lift_uniform_convergence,
    cm_regularity_check,
    rate_function,
    schilder_point_check,
    tail_probability,
    validate_chaos_params,
    validate_cm_params,
)

__version__ = "0.1.0"
