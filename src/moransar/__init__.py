"""Moran's index and the simplest spatial autoregressive model.

From a size vector and a distance matrix this package computes Moran's
index as a quadratic form, fits the autoregressive model z = a + rho*Wz
by closed-form least squares, verifies the exact identities linking the
two (rho*I = n*R2, delta = n(1 - R2), the lag-energy decomposition),
checks three spectral value ranges with a built-in eigensolver
(Householder tridiagonalization, Sturm-sequence multisection and
Sturm-certified Newton refinement), and runs significance tests and
residual diagnostics. A CLI wraps the whole pipeline with JSON/CSV
reports and SVG scatterplots.
"""

from ._version import __version__
from .autocorr import (
    MODE_AUTOCORRELATION,
    MODE_AUTOREGRESSION,
    MoranResult,
    ScatterDataset,
    TrendLine,
    eigen_check,
    inner_regression,
    moran_double_sum,
    moran_index,
    rank_one_identity_slack,
    scatter_dataset,
)
from .bounds import (
    BoundsReport,
    Containment,
    MoranRangeVerdict,
    OuterRangeVerdict,
    QuadraticRangeVerdict,
    RhoRays,
    bounds_report,
    range_moran,
    range_outer,
    range_quadratic,
)
from .dataio import (
    align_to_ids,
    load_critical_values,
    load_distances,
    load_reference_values,
    load_sizes,
    write_scatter_csv,
)
from .eigen import EigenSpectrum, symmetric_eigenvalues
from .errors import (
    InputError,
    MoranSarError,
    NumericalError,
)
from .inference import (
    BUNDLED_DW_CRITICAL,
    DwCriticalValues,
    DwResult,
    SignificanceResult,
    critical_values_for,
    dw_interpret,
    geary_pairwise,
    permutation_test,
    slope_t_test,
    spatial_durbin_watson,
)
from .pipeline import (
    AnalysisConfig,
    AnalysisReport,
    IdentityCheck,
    analyze,
    analyze_data,
    emit_report,
    prepare_files,
    report_to_dict,
)
from .sar import (
    SarFit,
    centered_fit,
    closed_form_from_moran,
    fit_sar_ols,
    inverse_slope_relation,
    lag_energy_gap,
)
from .simulate import simulate_sar
from .spatial_data import (
    ProximityMatrix,
    RawSizeVector,
    SpatialInputs,
    SpatialLag,
    StandardizedVector,
    WeightMatrix,
    global_normalize,
    inverse_distance_proximity,
    log_transform,
    prepare,
    spatial_lag,
    standardize,
    symmetrize,
    weights_from_distances,
)
from .svgplot import render_svg
from .verification import instance_checks, random_instance, run_suite

__all__ = [
    "__version__",
    # spatial data
    "RawSizeVector", "StandardizedVector", "ProximityMatrix", "WeightMatrix",
    "SpatialLag", "SpatialInputs", "log_transform", "standardize",
    "inverse_distance_proximity", "symmetrize", "global_normalize",
    "spatial_lag", "weights_from_distances", "prepare",
    # autocorrelation
    "MoranResult", "TrendLine", "ScatterDataset", "moran_index",
    "moran_double_sum", "inner_regression", "eigen_check",
    "rank_one_identity_slack", "scatter_dataset",
    "MODE_AUTOCORRELATION", "MODE_AUTOREGRESSION",
    # autoregression
    "SarFit", "fit_sar_ols", "closed_form_from_moran", "lag_energy_gap",
    "centered_fit", "inverse_slope_relation",
    # eigensolver and bounds
    "EigenSpectrum", "symmetric_eigenvalues", "Containment", "RhoRays",
    "MoranRangeVerdict", "QuadraticRangeVerdict",
    "OuterRangeVerdict", "BoundsReport", "range_moran", "range_quadratic",
    "range_outer", "bounds_report",
    # inference and diagnostics
    "SignificanceResult", "DwResult", "DwCriticalValues", "BUNDLED_DW_CRITICAL",
    "slope_t_test", "permutation_test", "spatial_durbin_watson",
    "geary_pairwise", "dw_interpret", "critical_values_for",
    # pipeline and I/O
    "AnalysisConfig", "AnalysisReport", "IdentityCheck", "analyze", "analyze_data",
    "prepare_files", "emit_report", "report_to_dict", "load_sizes", "load_distances",
    "align_to_ids", "load_critical_values", "load_reference_values",
    "write_scatter_csv", "render_svg",
    "simulate_sar",
    # verification
    "instance_checks", "random_instance", "run_suite",
    # errors
    "MoranSarError", "InputError", "NumericalError",
]
