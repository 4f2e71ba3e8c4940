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

``import moransar`` loads no submodule: each name below is imported with
its defining module on first access (PEP 562), so a program pays for
numpy and the library only once it uses them.
"""

from importlib import import_module

from ._version import __version__

# each exported name, under the submodule that defines it
_EXPORTS = {
    "spatial_data": (
        "RawSizeVector", "StandardizedVector", "ProximityMatrix", "WeightMatrix",
        "SpatialLag", "SpatialInputs", "log_transform", "standardize",
        "inverse_distance_proximity", "symmetrize", "global_normalize",
        "spatial_lag", "weights_from_distances", "prepare",
    ),
    "autocorr": (
        "MoranResult", "TrendLine", "ScatterDataset", "moran_index",
        "moran_double_sum", "inner_regression", "eigen_check",
        "rank_one_identity_slack", "scatter_dataset",
        "MODE_AUTOCORRELATION", "MODE_AUTOREGRESSION",
    ),
    "sar": (
        "SarFit", "fit_sar_ols", "closed_form_from_moran", "lag_energy_gap",
        "centered_fit", "inverse_slope_relation",
    ),
    "eigen": ("EigenSpectrum", "symmetric_eigenvalues"),
    "bounds": (
        "Containment", "RhoRays", "MoranRangeVerdict", "QuadraticRangeVerdict",
        "OuterRangeVerdict", "BoundsReport", "range_moran", "range_quadratic",
        "range_outer", "bounds_report",
    ),
    "inference": (
        "SignificanceResult", "DwResult", "DwCriticalValues", "BUNDLED_DW_CRITICAL",
        "slope_t_test", "permutation_test", "spatial_durbin_watson",
        "geary_pairwise", "dw_interpret", "critical_values_for",
    ),
    "pipeline": (
        "AnalysisConfig", "AnalysisReport", "IdentityCheck", "analyze", "analyze_data",
        "prepare_files", "emit_report", "report_to_dict",
    ),
    "dataio": (
        "load_sizes", "load_distances", "align_to_ids", "load_critical_values",
        "load_reference_values", "write_scatter_csv",
    ),
    "svgplot": ("render_svg",),
    "simulate": ("simulate_sar",),
    "verification": ("instance_checks", "random_instance", "run_suite"),
    "errors": ("MoranSarError", "InputError", "NumericalError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    # not stored in the package's globals: a lookup always reads the
    # defining module's attribute as it is now, so a caller that rebinds
    # that attribute (a test double, a tracer) is seen here too
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
