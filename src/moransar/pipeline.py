"""End-to-end analysis: files in, verified report and plots out.

The pipeline runs the five-step workflow (optional log transform,
standardization, weight normalization, index + autoregression, bounds
and diagnostics), builds every identity check with its slack and the
tolerance it passes by, and serializes deterministically: same inputs
and seed give byte-identical JSON except for the isolated timestamp
field. The containment checks are one-sided, and each records the
forgiveness its ``Containment`` carries from ``bounds``, which owns
that rule.

``prepare_files`` is the one path from the two input files to the
prepared bundle: ``analyze`` and the CLI's ``scatter`` and ``bounds``
verbs read their inputs through it. ``analyze`` (files) and
``analyze_data`` (arrays) are the only analysis path; both run
``analyze_prepared``, the analysis after ``prepare``, which ``moransar
verify`` calls too with the spectrum of W it has solved. The first steps
run once, in ``spatial_data.prepare``, and the report keeps the
resulting inputs (outside the JSON) so that ``emit_report`` draws the
scatterplot SVGs from the report itself. Later steps reuse the fits'
t-tests and one Durbin-Watson result instead of deriving them again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .autocorr import (
    MODE_AUTOCORRELATION,
    MODE_AUTOREGRESSION,
    MoranResult,
    eigen_check,
    inner_regression,
    rank_one_identity_slack,
    scatter_dataset,
)
from .bounds import BoundsReport, bounds_report
from .dataio import (align_to_ids, load_critical_values, load_distances, load_sizes,
                     write_csv)
from .eigen import EigenSpectrum
from .errors import InputError, MissingCriticalValues, ZeroVariance, located
from .inference import (
    DwCriticalValues,
    DwResult,
    SignificanceResult,
    critical_values_for,
    dw_interpret,
    geary_pairwise,
    permutation_test,
    spatial_durbin_watson,
)
from .sar import ZERO_R_SQUARED_TOL, SarFit, fit_sar_ols, lag_energy_gap
from .spatial_data import SYMMETRIZE_POLICIES, RawSizeVector, SpatialInputs, prepare
from .svgplot import render_svg

REL_TOL = 1e-9
ORACLE_TOL = 1e-12
EIGEN_TOL = 1e-10
DW_TOL = 1e-10
CENTERED_TOL = 1e-12


@dataclass(frozen=True)
class AnalysisConfig:
    """The options of one file-to-report analysis, checked on construction."""

    sizes_path: str
    dist_path: str
    log_transform: bool = False
    permutations: int = 999
    seed: int = 0
    alpha: float = 0.05
    dist_format: str = "matrix"
    symmetrize: str = "auto"
    dw_critical_path: str | None = None

    def __post_init__(self) -> None:
        _check_options(self.alpha, self.permutations, self.seed)
        if self.symmetrize not in SYMMETRIZE_POLICIES:
            raise InputError(f"symmetrize must be 'auto' or 'strict', got {self.symmetrize!r}")
        if self.dist_format not in ("matrix", "long"):
            raise InputError(f"dist_format must be 'matrix' or 'long', got {self.dist_format!r}")


def _check_options(alpha: float, permutations: int, seed: int | None) -> None:
    """The option checks shared by AnalysisConfig and analyze_prepared."""
    if not (0.0 < alpha < 1.0):
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    if permutations < 0:
        raise InputError(f"permutations must be nonnegative, got {permutations}")
    if seed is not None and seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")


@dataclass(frozen=True)
class IdentityCheck:
    """One exact relation of an analysis: its slack against its tolerance."""

    name: str
    slack: float       # measured signed or absolute discrepancy
    tolerance: float
    passed: bool

    @classmethod
    def within(cls, name: str, slack: float, tolerance: float) -> IdentityCheck:
        """The check that passes when |slack| <= tolerance."""
        slack = float(slack)
        return cls(name=name, slack=slack, tolerance=tolerance,
                   passed=abs(slack) <= tolerance)

    @classmethod
    def at_least(cls, name: str, slack: float, tolerance: float) -> IdentityCheck:
        """The one-sided check that passes when slack >= -tolerance."""
        slack = float(slack)
        return cls(name=name, slack=slack, tolerance=tolerance,
                   passed=slack >= -tolerance)


@dataclass(frozen=True)
class DwDiagnostics:
    """The residual diagnostics of one analysis.

    ``result`` is None when an exact fit or constant residuals leave
    nothing to diagnose; the other fields are then None too.
    """

    result: DwResult | None
    critical: DwCriticalValues | None    # None when (n, alpha) has no table row
    residual_permutation: SignificanceResult | None


@dataclass(frozen=True)
class Provenance:
    """What produced a report: input digests, seed, version, n and the log flag."""

    sizes_sha256: str
    dist_sha256: str
    seed: int
    version: str
    n: int
    log_transformed: bool
    timestamp: str                       # the only nondeterministic field


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one analysis found; all but its inputs go to report.json.

    Each coefficient's t-test lives on its fit (``moran``, ``sar``);
    ``i_permutation`` is the index's randomization test, None when no
    permutations were asked for.
    """

    moran: MoranResult
    sar: SarFit
    bounds: BoundsReport
    i_permutation: SignificanceResult | None
    diagnostics: DwDiagnostics
    identities: tuple[IdentityCheck, ...]
    provenance: Provenance
    # z, W, lag and I for the plots; not serialized
    inputs: SpatialInputs = field(repr=False, metadata={"json": False})

    @property
    def all_identities_pass(self) -> bool:
        return all(check.passed for check in self.identities)


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
) -> AnalysisReport:
    """Run the full analysis on in-memory inputs; the provenance digests
    are empty, as no file was read.

    Raises:
        InputError: on an out-of-range option or bad data.
    """
    inputs = prepare(raw, distances, apply_log=apply_log, symmetrize=symmetrize)
    return analyze_prepared(
        inputs,
        permutations=permutations,
        seed=seed,
        alpha=alpha,
        dw_table=dw_table,
    )


def analyze_prepared(
    inputs: SpatialInputs,
    spectrum: EigenSpectrum | None = None,
    *,
    permutations: int = 999,
    seed: int = 0,
    alpha: float = 0.05,
    dw_table: dict[tuple[int, float], DwCriticalValues] | None = None,
) -> AnalysisReport:
    """The analysis after ``prepare``: the body of ``analyze_data``.

    ``spectrum`` is W's when the caller has solved it already, as
    ``moransar verify`` does together with its oracle matrices; the
    options are ``analyze_data``'s.

    Raises:
        InputError: on an out-of-range option.
    """
    _check_options(alpha, permutations, seed)
    z, weights = inputs.z, inputs.weights
    fit = fit_sar_ols(inputs)
    moran = inner_regression(inputs)
    bounds = bounds_report(inputs, fit.r_squared, spectrum)

    i_perm = None
    if permutations >= 1:
        i_perm = permutation_test(z, weights, m=permutations, seed=seed)

    diagnostics = _diagnose(fit, weights, alpha, permutations, seed, dw_table)
    identities = _identity_checks(inputs, moran, fit, diagnostics.result, bounds)

    provenance = Provenance(
        sizes_sha256="",  # the files' digests, which only ``analyze`` knows
        dist_sha256="",
        seed=seed,
        version=__version__,
        n=z.n,
        log_transformed=inputs.log_transformed,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    return AnalysisReport(
        moran=moran,
        sar=fit,
        bounds=bounds,
        i_permutation=i_perm,
        diagnostics=diagnostics,
        identities=identities,
        provenance=provenance,
        inputs=inputs,
    )


def _identity_checks(
    inputs: SpatialInputs,
    moran: MoranResult,
    fit: SarFit,
    dw: DwResult | None,
    bounds: BoundsReport,
) -> tuple[IdentityCheck, ...]:
    """The exact relations of one analysis, then the bounds containments.

    dw is None for an exact fit, and an uncorrelated fit (R2 below
    ``sar.ZERO_R_SQUARED_TOL``) leaves out the two identities that divide
    I^2 by R2, lag_energy and rayleigh_quotient. Each containment check is
    one-sided, on the slack and the forgiveness its ``Containment``
    carries from ``bounds``. The lower end of the theoretical quadratic
    range holds only at R2 = 1, so only its upper end is checked.
    """
    check = IdentityCheck.within
    lag, n = inputs.lag, inputs.n
    correlated = fit.r_squared >= ZERO_R_SQUARED_TOL
    checks = [
        check("slope_product",  # rho_hat * I - n * R2
              fit.rho_hat * moran.i_value - n * fit.r_squared,
              REL_TOL * max(1.0, abs(n * fit.r_squared))),
        check("residual_inner",  # delta - n(1 - R2)
              fit.delta - n * (1.0 - fit.r_squared),
              REL_TOL * n),
    ]
    if correlated:  # n(Wz)'(Wz) - ((Wz)'o)^2 - I^2/R2
        checks.append(check("lag_energy", lag_energy_gap(inputs, moran.i_value, fit.r_squared),
                            REL_TOL * max(1e-30, n * lag.energy)))
    checks += [
        check("residual_orthogonality_lag", float(lag.values @ fit.residuals), REL_TOL),
        check("residual_orthogonality_ones", float(fit.residuals.sum()), REL_TOL),
        check("paired_p", moran.slope_test.p_value - fit.slope_test.p_value, REL_TOL),
        check("eigen_relation", eigen_check(inputs), EIGEN_TOL),
        check("rank_one_scalar", rank_one_identity_slack(inputs), EIGEN_TOL),
    ]
    if dw is not None:
        checks.append(check("dw_geary",
                            dw.dw - 2.0 * geary_pairwise(fit.residuals, inputs.weights),
                            DW_TOL))
    r2, theoretical = bounds.range2, bounds.range2.theoretical
    moran_range, outer = bounds.range1.containment, bounds.range3.containment
    at_least = IdentityCheck.at_least
    checks += [
        at_least("bounds_moran", moran_range.slack, moran_range.tolerance),
        at_least("bounds_quadratic_empirical", r2.empirical.slack, r2.empirical.tolerance),
        at_least("bounds_quadratic_theoretical_upper",
                 theoretical.upper - theoretical.value, theoretical.tolerance),
        at_least("bounds_outer", outer.slack, outer.tolerance),
    ]
    if correlated:  # the paper's form of range 2 against the quotient it equals
        paper_form = (lag.total / n) ** 2 + inputs.i_value**2 / (fit.r_squared * n**2)
        checks.append(check("rayleigh_quotient", abs(paper_form - r2.empirical.value),
                            REL_TOL * max(1.0, r2.empirical.value)))
    return tuple(checks)


def _diagnose(
    fit: SarFit,
    weights,
    alpha: float,
    permutations: int,
    seed: int,
    dw_table,
) -> DwDiagnostics:
    try:
        dw = None if fit.degenerate else spatial_durbin_watson(fit.residuals, weights)
    except ZeroVariance:
        dw = None
    if dw is None:
        return DwDiagnostics(result=None, critical=None, residual_permutation=None)
    critical = None
    try:
        critical = critical_values_for(weights.n, alpha, dw_table)
        dw = dataclasses.replace(dw, classification=dw_interpret(dw.dw, critical))
    except MissingCriticalValues:
        pass  # classification stays None; the numbers are still reported

    residual_perm = None
    if permutations >= 1:
        # distinct child seed so this test never shares draws with the
        # size-vector permutation test
        residual_perm = permutation_test(
            dw.standardized, weights, m=permutations, seed=None if seed is None else seed + 1
        )
    return DwDiagnostics(result=dw, critical=critical, residual_permutation=residual_perm)


def prepare_files(
    sizes_path: str | Path,
    dist_path: str | Path,
    dist_format: str,
    *,
    apply_log: bool,
    symmetrize: str,
) -> tuple[SpatialInputs, str, str]:
    """The two input files to the prepared bundle, with each file's SHA-256.

    Each file is read once and its digest is that of the bytes parsed;
    the sizes are aligned to the distance file's ids and ``prepare`` runs
    with ``apply_log`` and ``symmetrize``. Data errors name their file
    (``errors.located``): a nonpositive size under ``apply_log`` or equal
    sizes the sizes file, mismatched ids both files, and a zero, negative,
    subnormal or (under ``symmetrize="strict"``) asymmetric distance the
    distance file and the two ids.

    Raises:
        InputError subclasses on bad data; OSError on unreadable files.
    """
    sizes_data = Path(sizes_path).read_bytes()
    raw = load_sizes(sizes_path, data=sizes_data)
    dist_data = Path(dist_path).read_bytes()
    ids, distances = load_distances(dist_path, dist_format, data=dist_data)
    with located(sizes=sizes_path, dist=dist_path, ids=ids):
        inputs = prepare(align_to_ids(raw, ids), distances, apply_log=apply_log,
                         symmetrize=symmetrize)
    return (inputs, hashlib.sha256(sizes_data).hexdigest(),
            hashlib.sha256(dist_data).hexdigest())


def analyze(config: AnalysisConfig) -> AnalysisReport:
    """Load the configured files (``prepare_files``) and run the analysis.

    The provenance digests, set here and only here, are those of the
    bytes parsed.

    Raises:
        InputError subclasses on bad data; OSError on unreadable files.
    """
    inputs, sizes_sha256, dist_sha256 = prepare_files(
        config.sizes_path, config.dist_path, config.dist_format,
        apply_log=config.log_transform, symmetrize=config.symmetrize,
    )
    dw_table = None
    if config.dw_critical_path is not None:
        dw_table = load_critical_values(config.dw_critical_path)
    report = analyze_prepared(inputs, permutations=config.permutations, seed=config.seed,
                              alpha=config.alpha, dw_table=dw_table)
    provenance = dataclasses.replace(report.provenance, sizes_sha256=sizes_sha256,
                                     dist_sha256=dist_sha256)
    return dataclasses.replace(report, provenance=provenance)


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
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "NaN"
    return "Infinity" if value > 0.0 else "-Infinity"


def _plain(obj):
    """Recursive conversion to strict-JSON-serializable structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _plain(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.metadata.get("json", True)
        }
    if isinstance(obj, np.ndarray):
        return [_json_float(float(v)) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _plain(obj.item())
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def report_to_dict(report: AnalysisReport) -> dict:
    return _plain(report)


def summary_rows(report: AnalysisReport) -> list[list[str]]:
    """Coefficient table: one row per model parameter, then diagnostics."""
    moran, fit = report.moran, report.sar
    r2 = format_sig(fit.r_squared)
    rows = [
        ["autocorrelation", "lag_sum", format_sig(moran.intercept),
         format_sig(moran.intercept_test.p_value), r2],
        ["autocorrelation", "moran_index", format_sig(moran.i_value),
         format_sig(moran.slope_test.p_value), r2],
        ["autoregression", "intercept", format_sig(fit.a_hat),
         format_sig(fit.intercept_test.p_value), r2],
        ["autoregression", "rho", format_sig(fit.rho_hat),
         format_sig(fit.slope_test.p_value), r2],
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
) -> dict[str, Path]:
    """Write the requested artifacts into out_dir; returns written paths.

    formats is a subset of {json, csv, svg}; svg draws one scatterplot
    per model direction from the report's inputs.

    Raises:
        InputError: on any other format, before anything is created.
    """
    unknown = set(formats) - {"json", "csv", "svg"}
    if unknown:
        raise InputError(f"unknown output formats: {sorted(unknown)}")
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
        write_csv(path, ["measure", "parameter", "coefficient", "p_value", "r_squared"],
                  summary_rows(report))
        written["csv"] = path

    if "svg" in formats:
        for mode in (MODE_AUTOCORRELATION, MODE_AUTOREGRESSION):
            path = out_dir / f"scatter_{mode}.svg"
            render_svg(scatter_dataset(report.inputs, report.sar, mode), path)
            written[f"svg_{mode}"] = path

    return written
