"""Closed-form least squares for the simplest spatial autoregressive model.

Fits z = a*o + rho*Wz + eps by the 2x2 normal equations and exposes the
exact algebra tying the fit back to Moran's index: rho_hat * I = n * R2,
delta = z'eps = n(1 - R2), and the lag-energy decomposition
n (Wz)'(Wz) = ((Wz)'o)^2 + I^2 / R2. The fits read z, the lag and I from
the SpatialInputs bundle and keep the t-test of each coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLag, DimensionMismatch, ZeroMoran, ZeroRSquared, ZeroVariance
from .inference import SignificanceResult, slope_t_test
from .regression import fit_line
from .spatial_data import SpatialInputs

ZERO_MORAN_TOL = 1e-12
ZERO_R_SQUARED_TOL = 1e-15  # below it, I^2/R2 terms are undefined


@dataclass(frozen=True)
class SarFit:
    """Least-squares estimates for the autoregressive model."""

    a_hat: float
    rho_hat: float
    residuals: np.ndarray = field(repr=False)
    delta: float               # z'eps, equal to n(1 - R2)
    r_squared: float
    se_slope: float
    se_intercept: float
    p_slope: float
    p_intercept: float
    n: int
    # the t-tests behind p_slope and p_intercept; not serialized
    slope_test: SignificanceResult = field(repr=False, metadata={"json": False})
    intercept_test: SignificanceResult = field(repr=False, metadata={"json": False})
    degenerate: bool = False   # exact collinear fit; standard errors are 0
    zero_moran: bool = False   # |I| below 1e-12; Moran cross-checks skipped


def fit_sar_ols(inputs: SpatialInputs) -> SarFit:
    """Fit z on Wz with an intercept by the normal equations.

    The slope is the primary estimate of rho; the n*R2/I closed form is a
    cross-check elsewhere, never the computation, so an index near zero
    only sets the zero_moran flag instead of blocking the fit.

    Raises:
        DegenerateLag: if the lag vector is constant.
    """
    return _fit_on(inputs, inputs.lag.values)


def _fit_on(inputs: SpatialInputs, x: np.ndarray) -> SarFit:
    """Regress z on x (the lag, or a shift of it) and test both coefficients."""
    if np.ptp(x) == 0.0:
        raise DegenerateLag("spatial lag is constant; slope is undefined")
    z, n = inputs.z, inputs.n
    line = fit_line(x, z.values)
    slope_test = slope_t_test(line.slope, line.se_slope, n)
    intercept_test = slope_t_test(line.intercept, line.se_intercept, n)
    return SarFit(
        a_hat=line.intercept,
        rho_hat=line.slope,
        residuals=line.residuals,
        delta=float(z.values @ line.residuals),
        r_squared=line.r_squared,
        se_slope=line.se_slope,
        se_intercept=line.se_intercept,
        p_slope=slope_test.p_value,
        p_intercept=intercept_test.p_value,
        n=n,
        slope_test=slope_test,
        intercept_test=intercept_test,
        degenerate=line.degenerate,
        zero_moran=abs(inputs.i_value) < ZERO_MORAN_TOL,
    )


def closed_form_from_moran(
    i_value: float, r_squared: float, wz_sum: float, n: int
) -> tuple[float, float]:
    """Recover (a_hat, rho_hat) from the index, R2, and the lag sum.

    rho_hat = n * R2 / I and a_hat = -R2 * (Wz)'o / I. Agrees with the
    normal equations to 1e-9 relative on any valid instance. At R2 = 1 it
    gives the errorless model, where rho * I = n exactly: rho = n / I and
    a = -(Wz)'o / I, bit for bit.

    Raises:
        ZeroMoran: if |i_value| < 1e-12.
    """
    if abs(i_value) < ZERO_MORAN_TOL:
        raise ZeroMoran("index is zero; closed form divides by it")
    rho_hat = n * r_squared / i_value
    a_hat = -(r_squared * wz_sum) / i_value
    return a_hat, rho_hat


def lag_energy_gap(inputs: SpatialInputs, i_value: float, r_squared: float) -> float:
    """Signed discrepancy of the lag-energy decomposition.

    Returns n*(Wz)'(Wz) - ((Wz)'o)^2 - I^2/R2, which vanishes whenever
    R2 is the squared correlation of z and Wz; |gap| stays below
    1e-9 * n * (Wz)'(Wz) on real data. The identity suite passes the
    inner regression's slope as I, not the bundle's z'Wz.

    Raises:
        ZeroRSquared: if r_squared < 1e-15 (the I^2/R2 term blows up).
    """
    if r_squared < ZERO_R_SQUARED_TOL:
        raise ZeroRSquared("R2 is zero; lag-energy identity degenerates")
    return inputs.n * inputs.lag.energy - inputs.lag.total**2 - i_value**2 / r_squared


def centered_fit(inputs: SpatialInputs) -> SarFit:
    """Fit z on the mean-centered lag.

    The slope matches fit_sar_ols exactly; the intercept becomes the mean
    of the dependent variable, which is 0 for standardized z (within
    1e-12).

    Raises:
        DegenerateLag: if the lag vector is constant.
    """
    return _fit_on(inputs, inputs.lag.values - inputs.lag.values.mean())


def inverse_slope_relation(
    x: np.ndarray, y: np.ndarray
) -> tuple[float, float, float]:
    """Forward slope, inverse slope, and their product.

    b = cov(x,y)/var(x) regresses y on x, b' = cov(x,y)/var(y) regresses
    x on y; the product b*b' is the squared Pearson correlation.

    Raises:
        ZeroVariance: if either vector is constant.
        DimensionMismatch: on unequal lengths.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch("expected two 1-d vectors of equal length")
    dx = x - x.mean()
    dy = y - y.mean()
    var_x = float(dx @ dx)
    var_y = float(dy @ dy)
    if var_x == 0.0 or var_y == 0.0:
        raise ZeroVariance("constant vector has no regression slope")
    cov = float(dx @ dy)
    b = cov / var_x
    b_prime = cov / var_y
    return b, b_prime, b * b_prime
