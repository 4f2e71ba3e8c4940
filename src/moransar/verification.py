"""Identity suite: every exact relation in the package, checked end to end.

One IdentityCheck records a named relation, its measured slack, and the
tolerance it must stay inside. The pipeline embeds the core checks in
every analysis report; the ``verify`` command runs the whole battery on
the bundled fixtures plus a deck of seeded random instances and fails
loudly (exit code 2) if any slack escapes its tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import sar as sar_mod
from .autocorr import (
    MoranResult,
    eigen_check,
    inner_regression,
    moran_double_sum,
    rank_one_identity_slack,
)
from .bounds import BoundsReport, bounds_report
from .eigen import symmetric_eigenvalues
from .errors import ZeroVariance
from .inference import DwResult, geary_pairwise, spatial_durbin_watson
from .spatial_data import RawSizeVector, SpatialInputs, prepare

REL_TOL = 1e-9
ORACLE_TOL = 1e-12
EIGEN_TOL = 1e-10
DW_TOL = 1e-10
CENTERED_TOL = 1e-12


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    slack: float       # measured signed or absolute discrepancy
    tolerance: float
    passed: bool


def _check(name: str, slack: float, tolerance: float) -> IdentityCheck:
    return IdentityCheck(
        name=name, slack=float(slack), tolerance=tolerance,
        passed=abs(slack) <= tolerance,
    )


def _containment_check(name: str, containment) -> IdentityCheck:
    # slack is the signed distance to the nearer endpoint; passing means
    # the containment verdict itself, so boundary-attained cases count
    return IdentityCheck(
        name=name,
        slack=float(containment.slack),
        tolerance=0.0,
        passed=containment.contained,
    )


def core_identity_checks(
    inputs: SpatialInputs,
    moran: MoranResult,
    fit: sar_mod.SarFit,
    dw: DwResult | None,
) -> list[IdentityCheck]:
    """The relations embedded in every report; dw is None for an exact fit."""
    weights, lag, n = inputs.weights, inputs.lag, inputs.n
    checks = [
        _check(
            "slope_product",  # rho_hat * I - n * R2
            fit.rho_hat * moran.i_value - n * fit.r_squared,
            REL_TOL * max(1.0, abs(n * fit.r_squared)),
        ),
        _check(
            "residual_inner",  # delta - n(1 - R2)
            fit.delta - n * (1.0 - fit.r_squared),
            REL_TOL * n,
        ),
        _check(
            "lag_energy",  # n(Wz)'(Wz) - ((Wz)'o)^2 - I^2/R2
            sar_mod.lag_energy_gap(inputs, moran.i_value, fit.r_squared),
            REL_TOL * max(1e-30, n * float(lag.values @ lag.values)),
        ),
        _check("residual_orthogonality_lag", float(lag.values @ fit.residuals), REL_TOL),
        _check("residual_orthogonality_ones", float(fit.residuals.sum()), REL_TOL),
        _check("paired_p", moran.slope_p_value - fit.p_slope, REL_TOL),
        _check("eigen_relation", eigen_check(inputs), EIGEN_TOL),
        _check("rank_one_scalar", rank_one_identity_slack(inputs), EIGEN_TOL),
    ]
    if dw is not None:
        checks.append(
            _check("dw_geary", dw.dw - 2.0 * geary_pairwise(fit.residuals, weights),
                   DW_TOL)
        )
    return checks


def bounds_checks(report: BoundsReport) -> list[IdentityCheck]:
    """Containment verdicts that the algebra guarantees unconditionally.

    The first and third ranges always hold; so does the quadratic range
    in its empirical form (a literal Rayleigh quotient) and the upper
    end of its theoretical form. The theoretical lower end is NOT
    guaranteed on noisy data (it is exact only at R2 = 1), so it is
    reported in the BoundsReport but not asserted here.
    """
    r2 = report.range2
    theo_upper_slack = r2.theoretical.upper - r2.theoretical.value
    return [
        _containment_check("bounds_moran", report.range1.containment),
        _containment_check("bounds_quadratic_empirical", r2.empirical),
        IdentityCheck(
            name="bounds_quadratic_theoretical_upper",
            slack=float(theo_upper_slack),
            tolerance=0.0,
            passed=theo_upper_slack >= -1e-10 * max(1.0, abs(r2.theoretical.upper)),
        ),
        _containment_check("bounds_outer", report.range3.containment),
        _check("rayleigh_quotient", r2.rayleigh_gap,
               REL_TOL * max(1.0, r2.empirical.value)),
    ]


def instance_checks(
    raw: RawSizeVector, distances: np.ndarray
) -> list[IdentityCheck]:
    """Run every check on one (sizes, distances) instance."""
    inputs = prepare(raw, distances)
    z, weights, lag, n = inputs.z, inputs.weights, inputs.lag, inputs.n
    moran = inner_regression(inputs)
    fit = sar_mod.fit_sar_ols(inputs)
    dw = None if fit.degenerate else spatial_durbin_watson(fit.residuals, weights)

    checks = core_identity_checks(inputs, moran, fit, dw)

    checks.append(
        _check(
            "oracle_double_sum",
            moran.i_value - moran_double_sum(raw, inputs.proximity),
            ORACLE_TOL * max(1.0, abs(moran.i_value)),
        )
    )
    checks.append(
        _check("quadratic_vs_regression",
               moran.i_value - inputs.i_value, ORACLE_TOL)
    )

    if not fit.zero_moran:
        a_cf, rho_cf = sar_mod.closed_form_from_moran(
            moran.i_value, fit.r_squared, lag.total, n
        )
        checks.append(
            _check("closed_form_rho", rho_cf - fit.rho_hat,
                   REL_TOL * max(1.0, abs(fit.rho_hat)))
        )
        checks.append(
            _check("closed_form_a", a_cf - fit.a_hat,
                   REL_TOL * max(1.0, abs(fit.a_hat)))
        )

    centered = sar_mod.centered_fit(inputs)
    checks.append(_check("centered_slope", centered.rho_hat - fit.rho_hat,
                         REL_TOL * max(1.0, abs(fit.rho_hat))))
    checks.append(_check("centered_intercept", centered.a_hat, CENTERED_TOL))

    b, b_prime, product = sar_mod.inverse_slope_relation(lag.values, z.values)
    checks.append(_check("inverse_slope_product", product - fit.r_squared, ORACLE_TOL))
    checks.append(_check("slope_duality",
                         (moran.i_value / n) * fit.rho_hat - fit.r_squared,
                         REL_TOL * max(1.0, fit.r_squared)))

    report = bounds_report(inputs, fit.r_squared)
    spec_w = report.spectrum
    checks.extend(bounds_checks(report))
    # the direct solves below are independent oracles for what the bounds
    # derive: the rank-1 outer spectrum, and spec(W'W) as squares of spec(W)
    checks.append(
        _check(
            "outer_lambda_analytic",
            symmetric_eigenvalues(np.outer(lag.values, lag.values)).largest
            - report.range3.lambda_outer_max,
            EIGEN_TOL,
        )
    )

    spec_gram = symmetric_eigenvalues(weights.matrix.T @ weights.matrix)
    squared = np.sort(spec_w.values**2)
    checks.append(
        _check("gram_spectrum_squares",
               float(np.max(np.abs(spec_gram.values - squared))), REL_TOL)
    )
    checks.append(
        _check("spectrum_trace",
               float(spec_w.values.sum()) - float(np.trace(weights.matrix)), REL_TOL)
    )
    return checks


def random_instance(master_seed: int, k: int) -> tuple[RawSizeVector, np.ndarray]:
    """Deterministic random (sizes, distances) pair number k of a deck."""
    rng = np.random.default_rng([master_seed, k])
    n = int(rng.integers(3, 41))
    sizes = rng.uniform(0.5, 10.0, size=n)
    distances = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    distances[iu] = rng.uniform(0.2, 5.0, size=iu[0].size)
    distances = distances + distances.T
    return RawSizeVector.from_values(sizes), distances


def _fixture_checks() -> list[IdentityCheck]:
    """Exact expectations on the two bundled toy fixtures."""
    checks = []

    # two sites at distance 2, sizes 1 and 3
    raw = RawSizeVector.from_values([1.0, 3.0])
    dist = np.array([[0.0, 2.0], [2.0, 0.0]])
    inputs = prepare(raw, dist)
    weights = inputs.weights
    moran = inner_regression(inputs)
    fit = sar_mod.fit_sar_ols(inputs)
    dw = spatial_durbin_watson(inputs.z.values, weights)
    checks += [
        _check("two_site_index", moran.i_value + 1.0, EIGEN_TOL),
        _check("two_site_rho", fit.rho_hat + 2.0, EIGEN_TOL),
        _check("two_site_a", fit.a_hat, EIGEN_TOL),
        _check("two_site_r2", fit.r_squared - 1.0, EIGEN_TOL),
        _check("two_site_delta", fit.delta, EIGEN_TOL),
        _check("two_site_dw_of_z", dw.dw - 2.0, EIGEN_TOL),
        _check(
            "two_site_boundary",
            moran.i_value / 2 - symmetric_eigenvalues(weights.matrix).smallest,
            0.0,
        ),
    ]

    # three sites on a line, unit spacing, sizes 1, 2, 3
    raw3 = RawSizeVector.from_values([1.0, 2.0, 3.0])
    dist3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    inputs3 = prepare(raw3, dist3)
    moran3 = inner_regression(inputs3)
    fit3 = sar_mod.fit_sar_ols(inputs3)
    checks += [
        _check("chain_index", moran3.i_value + 0.3, EIGEN_TOL),
        _check("chain_rho", fit3.rho_hat + 10.0, EIGEN_TOL),
        _check("chain_r2", fit3.r_squared - 1.0, EIGEN_TOL),
    ]
    return checks


@dataclass(frozen=True)
class SuiteResult:
    total: int
    failures: tuple[IdentityCheck, ...]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return not self.failures


def run_suite(master_seed: int = 0, instances: int = 150) -> SuiteResult:
    """Fixtures plus a deck of random instances; collects all failures."""
    start = time.perf_counter()
    failures: list[IdentityCheck] = []
    total = 0
    for check in _fixture_checks():
        total += 1
        if not check.passed:
            failures.append(check)
    for k in range(instances):
        raw, distances = random_instance(master_seed, k)
        try:
            for check in instance_checks(raw, distances):
                total += 1
                if not check.passed:
                    failures.append(
                        IdentityCheck(
                            name=f"instance[{k}].{check.name}",
                            slack=check.slack,
                            tolerance=check.tolerance,
                            passed=False,
                        )
                    )
        except ZeroVariance:
            # astronomically unlikely with continuous sizes; skip honestly
            continue
    return SuiteResult(
        total=total,
        failures=tuple(failures),
        elapsed_seconds=time.perf_counter() - start,
    )
