"""Identity suite: every exact relation in the package, checked end to end.

Each instance runs through ``pipeline.analyze_prepared``, the body of
the ``analyze_data`` path that ``moransar analyze`` ships, and keeps the
report's identity checks; independent oracles are added on top. W, W'W
and the lag's rank-1 outer product are solved in one stacked call, and
the analysis reads W's spectrum from it. The ``verify`` command runs the
battery on the bundled fixtures plus a deck of seeded random instances
and fails loudly (exit code 2) if any slack escapes its tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .autocorr import moran_double_sum
from .eigen import symmetric_eigenvalues
from .errors import InputError, ZeroVariance
from .inference import spatial_durbin_watson
from .pipeline import (
    CENTERED_TOL,
    EIGEN_TOL,
    ORACLE_TOL,
    REL_TOL,
    IdentityCheck,
    analyze_data,
    analyze_prepared,
)
from .sar import centered_fit, closed_form_from_moran, inverse_slope_relation
from .simulate import random_distances
from .spatial_data import RawSizeVector, prepare

_check = IdentityCheck.within


def instance_checks(
    raw: RawSizeVector, distances: np.ndarray
) -> list[IdentityCheck]:
    """The report's checks on one (sizes, distances) instance, then oracles."""
    inputs = prepare(raw, distances)
    z, weights, lag, n = inputs.z, inputs.weights, inputs.lag, inputs.n
    # the direct solves of W'W and of the rank-1 outer product are
    # independent oracles for what the bounds derive; one stacked call
    # solves them with W, each member exactly as alone
    spec_w, spec_gram, spec_outer = symmetric_eigenvalues(np.stack([
        weights.matrix,
        weights.matrix.T @ weights.matrix,
        np.outer(lag.values, lag.values),
    ]))
    report = analyze_prepared(inputs, spec_w, permutations=0)
    moran, fit = report.moran, report.sar
    checks = list(report.identities)

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
        a_cf, rho_cf = closed_form_from_moran(
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

    centered = centered_fit(inputs)
    checks.append(_check("centered_slope", centered.rho_hat - fit.rho_hat,
                         REL_TOL * max(1.0, abs(fit.rho_hat))))
    checks.append(_check("centered_intercept", centered.a_hat, CENTERED_TOL))

    b, b_prime, product = inverse_slope_relation(lag.values, z.values)
    checks.append(_check("inverse_slope_product", product - fit.r_squared, ORACLE_TOL))
    checks.append(_check("slope_duality",
                         (moran.i_value / n) * fit.rho_hat - fit.r_squared,
                         REL_TOL * max(1.0, fit.r_squared)))

    # the rank-1 outer spectrum, and spec(W'W) as squares of spec(W)
    checks.append(
        _check(
            "outer_lambda_analytic",
            spec_outer.largest - report.bounds.range3.containment.upper,
            EIGEN_TOL,
        )
    )
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
    return RawSizeVector.from_values(sizes), random_distances(rng, n)


def _fixture_checks() -> list[IdentityCheck]:
    """Exact expectations on the two bundled toy fixtures."""
    # two sites at distance 2, sizes 1 and 3
    two = analyze_data(RawSizeVector.from_values([1.0, 3.0]),
                       np.array([[0.0, 2.0], [2.0, 0.0]]), permutations=0)
    moran, fit = two.moran, two.sar
    dw = spatial_durbin_watson(two.inputs.z.values, two.inputs.weights)
    checks = [
        _check("two_site_index", moran.i_value + 1.0, EIGEN_TOL),
        _check("two_site_rho", fit.rho_hat + 2.0, EIGEN_TOL),
        _check("two_site_a", fit.a_hat, EIGEN_TOL),
        _check("two_site_r2", fit.r_squared - 1.0, EIGEN_TOL),
        _check("two_site_delta", fit.delta, EIGEN_TOL),
        _check("two_site_dw_of_z", dw.dw - 2.0, EIGEN_TOL),
        _check("two_site_boundary",
               moran.i_value / 2 - two.bounds.spectrum.smallest, 0.0),
    ]

    # three sites on a line, unit spacing, sizes 1, 2, 3
    chain = analyze_data(
        RawSizeVector.from_values([1.0, 2.0, 3.0]),
        np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
        permutations=0,
    )
    checks += [
        _check("chain_index", chain.moran.i_value + 0.3, EIGEN_TOL),
        _check("chain_rho", chain.sar.rho_hat + 10.0, EIGEN_TOL),
        _check("chain_r2", chain.sar.r_squared - 1.0, EIGEN_TOL),
    ]
    return checks


@dataclass(frozen=True)
class SuiteResult:
    """The identity suite's outcome: checks run, those that failed, time taken."""

    total: int
    failures: tuple[IdentityCheck, ...]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return not self.failures


def run_suite(master_seed: int = 0, instances: int = 150) -> SuiteResult:
    """Fixtures plus a deck of random instances; collects all failures.

    Raises:
        InputError: if instances or master_seed is negative.
    """
    if instances < 0:
        raise InputError(f"instance count must be nonnegative, got {instances}")
    if master_seed < 0:
        raise InputError(f"master seed must be nonnegative, got {master_seed}")
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
                    failures.append(replace(check, name=f"instance[{k}].{check.name}"))
        except ZeroVariance:
            # astronomically unlikely with continuous sizes; skip honestly
            continue
    return SuiteResult(
        total=total,
        failures=tuple(failures),
        elapsed_seconds=time.perf_counter() - start,
    )
