"""End-to-end analysis: files in, verified report and plots out.

The pipeline runs the five-step workflow (optional log transform,
standardization, weight normalization, index + autoregression, bounds
and diagnostics), embeds every identity check with its slack, and
serializes deterministically: same inputs and seed give byte-identical
JSON except for the isolated timestamp field.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .autocorr import (
    MODE_AUTOCORRELATION,
    MODE_AUTOREGRESSION,
    MoranResult,
    inner_regression,
    scatter_dataset,
)
from .bounds import BoundsReport, bounds_report
from .dataio import align_to_ids, load_critical_values, load_distances, load_sizes
from .errors import InputError, MissingCriticalValues, ZeroVariance
from .inference import (
    DwCriticalValues,
    DwResult,
    SignificanceResult,
    critical_values_for,
    dw_interpret,
    permutation_test,
    slope_t_test,
    spatial_durbin_watson,
)
from .sar import SarFit, fit_sar_ols
from .spatial_data import (
    RawSizeVector,
    StandardizedVector,
    log_transform,
    spatial_lag,
    standardize,
    weights_from_distances,
)
from .svgplot import render_svg
from .verification import IdentityCheck, bounds_checks, core_identity_checks


@dataclass(frozen=True)
class AnalysisConfig:
    sizes_path: str
    dist_path: str
    log_transform: bool = False
    permutations: int = 999
    seed: int = 0
    alpha: float = 0.05
    outputs: frozenset[str] = frozenset({"json", "csv"})
    dist_format: str = "matrix"
    symmetrize: str = "auto"
    dw_critical_path: str | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise InputError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.permutations < 0:
            raise InputError(f"permutations must be nonnegative, got {self.permutations}")
        unknown = set(self.outputs) - {"json", "csv", "svg"}
        if unknown:
            raise InputError(f"unknown output formats: {sorted(unknown)}")
        if self.dist_format not in ("matrix", "long"):
            raise InputError(f"dist_format must be 'matrix' or 'long', got {self.dist_format!r}")
        if self.symmetrize not in ("auto", "strict"):
            raise InputError(f"symmetrize must be 'auto' or 'strict', got {self.symmetrize!r}")


@dataclass(frozen=True)
class SignificanceResults:
    i_t_test: SignificanceResult
    rho_t_test: SignificanceResult
    a_t_test: SignificanceResult
    lag_sum_t_test: SignificanceResult   # intercept of the inner regression
    i_permutation: SignificanceResult | None


@dataclass(frozen=True)
class DwDiagnostics:
    result: DwResult | None              # None when residuals are constant
    degenerate: bool                     # exact fit left nothing to diagnose
    critical: DwCriticalValues | None    # None when (n, alpha) has no table row
    residual_permutation: SignificanceResult | None


@dataclass(frozen=True)
class Provenance:
    sizes_sha256: str
    dist_sha256: str
    seed: int
    version: str
    n: int
    log_transformed: bool
    timestamp: str                       # the only nondeterministic field


@dataclass(frozen=True)
class AnalysisReport:
    moran: MoranResult
    sar: SarFit
    bounds: BoundsReport
    inference: SignificanceResults
    diagnostics: DwDiagnostics
    identities: tuple[IdentityCheck, ...]
    provenance: Provenance

    @property
    def all_identities_pass(self) -> bool:
        return all(check.passed for check in self.identities)


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def analyze_data(
    raw: RawSizeVector,
    distances: np.ndarray,
    *,
    apply_log: bool = False,
    permutations: int = 999,
    seed: int = 0,
    alpha: float = 0.05,
    symmetrize: str = "auto",
    dw_table: dict[tuple[int, float], DwCriticalValues] | None = None,
    sizes_sha256: str = "",
    dist_sha256: str = "",
) -> AnalysisReport:
    """Run the full analysis on in-memory inputs."""
    if apply_log:
        raw = log_transform(raw)
    z = standardize(raw)
    weights = weights_from_distances(distances, symmetrize_policy=symmetrize)
    lag = spatial_lag(weights, z)
    moran = inner_regression(z, weights)
    fit = fit_sar_ols(z, lag)
    bounds = bounds_report(z, weights, fit.r_squared)

    i_perm = None
    if permutations >= 1:
        i_perm = permutation_test(z, weights, m=permutations, seed=seed)
    inference = SignificanceResults(
        i_t_test=slope_t_test(moran.i_value, moran.se_slope, z.n),
        rho_t_test=slope_t_test(fit.rho_hat, fit.se_slope, z.n),
        a_t_test=slope_t_test(fit.a_hat, fit.se_intercept, z.n),
        lag_sum_t_test=slope_t_test(moran.intercept, moran.se_intercept, z.n),
        i_permutation=i_perm,
    )

    diagnostics = _diagnose(fit, weights, alpha, permutations, seed, dw_table)

    identities = tuple(
        core_identity_checks(z, weights, lag, moran, fit) + bounds_checks(bounds)
    )

    provenance = Provenance(
        sizes_sha256=sizes_sha256,
        dist_sha256=dist_sha256,
        seed=seed,
        version=__version__,
        n=z.n,
        log_transformed=apply_log,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    return AnalysisReport(
        moran=moran,
        sar=fit,
        bounds=bounds,
        inference=inference,
        diagnostics=diagnostics,
        identities=identities,
        provenance=provenance,
    )


def _diagnose(
    fit: SarFit,
    weights,
    alpha: float,
    permutations: int,
    seed: int,
    dw_table,
) -> DwDiagnostics:
    if fit.degenerate:
        return DwDiagnostics(result=None, degenerate=True, critical=None,
                             residual_permutation=None)
    try:
        dw = spatial_durbin_watson(fit.residuals, weights)
    except ZeroVariance:
        return DwDiagnostics(result=None, degenerate=True, critical=None,
                             residual_permutation=None)
    critical = None
    try:
        critical = critical_values_for(weights.n, alpha, dw_table)
        dw = dataclasses.replace(dw, classification=dw_interpret(dw.dw, critical))
    except MissingCriticalValues:
        pass  # classification stays None; the numbers are still reported

    residual_perm = None
    if permutations >= 1:
        e = fit.residuals
        sigma = float(np.sqrt(np.mean((e - e.mean()) ** 2)))
        z_e = StandardizedVector(values=(e - e.mean()) / sigma)
        # distinct child seed so this test never shares draws with the
        # size-vector permutation test
        residual_perm = permutation_test(
            z_e, weights, m=permutations, seed=None if seed is None else seed + 1
        )
    return DwDiagnostics(result=dw, degenerate=False, critical=critical,
                         residual_permutation=residual_perm)


def analyze(config: AnalysisConfig) -> AnalysisReport:
    """Load the configured files and run the analysis.

    Raises:
        InputError subclasses on bad data; OSError on unreadable files.
    """
    raw = load_sizes(config.sizes_path)
    ids, distances = load_distances(config.dist_path, config.dist_format)
    raw = align_to_ids(raw, ids)
    dw_table = None
    if config.dw_critical_path is not None:
        dw_table = load_critical_values(config.dw_critical_path)
    return analyze_data(
        raw,
        distances,
        apply_log=config.log_transform,
        permutations=config.permutations,
        seed=config.seed,
        alpha=config.alpha,
        symmetrize=config.symmetrize,
        dw_table=dw_table,
        sizes_sha256=_sha256_file(config.sizes_path),
        dist_sha256=_sha256_file(config.dist_path),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def format_sig(value: float) -> str:
    """Shared 6-significant-digit rendering used by the CSV emitters."""
    return f"{value:.6g}"


def _json_float(value: float) -> float | str:
    """A float, or for the non-finite ones the string float() reads back.

    Strict JSON has no Infinity or NaN literal.
    """
    if np.isfinite(value):
        return value
    if np.isnan(value):
        return "NaN"
    return "Infinity" if value > 0.0 else "-Infinity"


def _plain(obj):
    """Recursive conversion to strict-JSON-serializable structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.ndarray):
        return [_json_float(float(v)) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _plain(obj.item())
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    return obj


def report_to_dict(report: AnalysisReport) -> dict:
    return _plain(report)


def summary_rows(report: AnalysisReport) -> list[list[str]]:
    """Coefficient table: one row per model parameter, then diagnostics."""
    r2 = format_sig(report.sar.r_squared)
    inf = report.inference
    rows = [
        ["autocorrelation", "lag_sum", format_sig(report.moran.intercept),
         format_sig(inf.lag_sum_t_test.p_value), r2],
        ["autocorrelation", "moran_index", format_sig(report.moran.i_value),
         format_sig(inf.i_t_test.p_value), r2],
        ["autoregression", "intercept", format_sig(report.sar.a_hat),
         format_sig(inf.a_t_test.p_value), r2],
        ["autoregression", "rho", format_sig(report.sar.rho_hat),
         format_sig(inf.rho_t_test.p_value), r2],
    ]
    diag = report.diagnostics
    if diag.result is not None:
        perm_p = ""
        if diag.residual_permutation is not None:
            perm_p = format_sig(diag.residual_permutation.p_value)
        rows.append(["residuals", "residual_index", format_sig(diag.result.i_e),
                     perm_p, ""])
        rows.append(["residuals", "durbin_watson", format_sig(diag.result.dw),
                     "", diag.result.classification or ""])
    return rows


def emit_report(
    report: AnalysisReport,
    formats: frozenset[str] | set[str],
    out_dir: str | Path,
    scatter_datasets: dict[str, object] | None = None,
) -> dict[str, Path]:
    """Write the requested artifacts into out_dir; returns written paths.

    formats is a subset of {json, csv, svg}; svg requires
    scatter_datasets (mode name to dataset).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    if "json" in formats:
        path = out_dir / "report.json"
        with open(path, "w") as fh:
            json.dump(report_to_dict(report), fh, indent=2, allow_nan=False)
            fh.write("\n")
        written["json"] = path

    if "csv" in formats:
        path = out_dir / "summary.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["measure", "parameter", "coefficient", "p_value",
                             "r_squared"])
            writer.writerows(summary_rows(report))
        written["csv"] = path

    if "svg" in formats:
        for mode, dataset in (scatter_datasets or {}).items():
            path = out_dir / f"scatter_{mode}.svg"
            render_svg(dataset, path)
            written[f"svg_{mode}"] = path

    return written


def scatter_datasets_for(
    raw: RawSizeVector,
    distances: np.ndarray,
    apply_log: bool = False,
    symmetrize: str = "auto",
) -> dict[str, object]:
    """Both scatterplot datasets for one input pair."""
    if apply_log:
        raw = log_transform(raw)
    z = standardize(raw)
    weights = weights_from_distances(distances, symmetrize_policy=symmetrize)
    return {
        MODE_AUTOCORRELATION: scatter_dataset(z, weights, MODE_AUTOCORRELATION),
        MODE_AUTOREGRESSION: scatter_dataset(z, weights, MODE_AUTOREGRESSION),
    }
