"""Closed-form simple linear regression shared by both model directions.

The autocorrelation fit (n*Wz on z) and the autoregressive fit (z on Wz)
are the same two-parameter least-squares problem read in opposite
directions, so both modules delegate here. Standard errors use the
with-intercept formulas with n - 2 degrees of freedom, which makes the
slope t-test symmetric between the two directions (identical p-values).
This module only fits and evaluates the Student-t tail, with ``math``
alone; every coefficient p-value comes from ``inference.slope_t_test``,
the one caller of ``two_tailed_t_p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRegression, NumericalError

# Residual RMS below this fraction of the dependent scale is an exact
# fit: residuals and standard errors are reported as zeros and the line
# is flagged degenerate instead of dividing 0 by 0.
EXACT_FIT_RTOL = 1e-12

# The tail's continued fraction took at most 77 terms for any df up to 1e8
# (b = 1/2 is fixed, so the count does not grow with a = df/2).
CF_MAX_TERMS = 300
CF_TOL = 1e-15
CF_TINY = 1e-300  # modified Lentz: a vanishing partial value is replaced by this
# B_2k / (2k (2k - 1)): the first seven coefficients of Stirling's series for
# log Gamma, which carry the difference below to ~4e-15 for a >= 8
STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
STIRLING_FROM = 8.0


@dataclass(frozen=True)
class OlsLine:
    """One fitted line y = intercept + slope * x with its standard errors."""

    slope: float
    intercept: float
    residuals: np.ndarray = field(repr=False)
    r_squared: float
    se_slope: float
    se_intercept: float
    n: int
    degenerate: bool  # exact fit: standard errors are 0


def fit_line(x: np.ndarray, y: np.ndarray) -> OlsLine:
    """Least-squares line of y on x via the 2x2 normal equations.

    Args:
        x: regressor values.
        y: dependent values, same length.

    Raises:
        DegenerateRegression: if x or y is constant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    xbar = x.mean()
    ybar = y.mean()
    xc = x - xbar
    yc = y - ybar
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    sxy = float(xc @ yc)
    if sxx == 0.0:
        raise DegenerateRegression("regressor is constant")
    if syy == 0.0:
        raise DegenerateRegression("dependent variable is constant")

    slope = sxy / sxx
    intercept = ybar - slope * xbar
    residuals = y - intercept - slope * x
    sse = float(residuals @ residuals)
    r_squared = sxy * sxy / (sxx * syy)

    if n <= 2 or sse <= (EXACT_FIT_RTOL**2) * syy:
        # Two points, or collinear data: the line is exact.
        return OlsLine(
            slope=slope,
            intercept=intercept,
            residuals=np.zeros(n),
            r_squared=1.0,
            se_slope=0.0,
            se_intercept=0.0,
            n=n,
            degenerate=True,
        )

    sigma2 = sse / (n - 2)
    se_slope = math.sqrt(sigma2 / sxx)
    se_intercept = math.sqrt(sigma2 * (1.0 / n + xbar * xbar / sxx))
    return OlsLine(
        slope=slope,
        intercept=intercept,
        residuals=residuals,
        r_squared=r_squared,
        se_slope=se_slope,
        se_intercept=se_intercept,
        n=n,
        degenerate=False,
    )


def _stirling_remainder(z: float) -> float:
    """log Gamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), for z >= 8."""
    w = 1.0 / (z * z)
    s = 0.0
    for c in reversed(STIRLING):
        s = s * w + c
    return s / z


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a).

    Two ``lgamma`` values near 1100 (a = 250) lose ~3e-13 to cancellation,
    which the complement in ``two_tailed_t_p`` multiplies by up to 11, so
    large a takes the difference of Stirling's series term by term.
    """
    if a < STIRLING_FROM:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (
        a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
        + _stirling_remainder(a + 0.5) - _stirling_remainder(a)
    )


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by the modified Lentz method.

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) times the returned value; it
    converges fast for x < (a + 1) / (a + b + 2) (Numerical Recipes, 3rd
    ed., section 6.4).

    Raises:
        NumericalError: if ``CF_MAX_TERMS`` terms do not converge.
    """

    def nonzero(v: float) -> float:
        return v if abs(v) >= CF_TINY else CF_TINY

    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    c = 1.0
    h = d
    for m in range(1, CF_MAX_TERMS + 1):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / nonzero(1.0 + numerator * d)
            c = nonzero(1.0 + numerator / c)
            h *= d * c
        if abs(d * c - 1.0) < CF_TOL:
            return h
    raise NumericalError(
        f"the incomplete beta fraction I_{x:.17g}({a:g}, {b:g}) did not "
        f"converge in {CF_MAX_TERMS} terms"
    )


def two_tailed_t_p(t: float, df: int) -> float:
    """Two-tailed Student-t tail probability P(|T| >= |t|), df >= 1.

    The tail is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2), evaluated by its continued fraction, or through
    I_x(a, b) = 1 - I_(1-x)(b, a) past x = (a + 1) / (a + b + 2). Both x
    and 1 - x = t^2 / (df + t^2) come from the ratio of t^2 and df, so
    neither cancels and t^2 never overflows. Within 1e-12 relative of the
    exact finite series for integer df <= 500 down to the smallest normal
    float. t = 0 gives 1, an infinite t gives 0 and NaN stays NaN.

    Raises:
        NumericalError: if the continued fraction does not converge.
    """
    t = abs(t)
    if math.isnan(t):
        return math.nan
    if t == 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    a, b = 0.5 * df, 0.5
    if t * t <= df:
        r = t * t / df
        log_x = -math.log1p(r)
        log_y = 2.0 * math.log(t) - math.log(df) + log_x
        x, y = 1.0 / (1.0 + r), r / (1.0 + r)
    else:
        r = df / t / t
        log_y = -math.log1p(r)
        log_x = math.log(df) - 2.0 * math.log(t) + log_y
        x, y = r / (1.0 + r), 1.0 / (1.0 + r)
    # x^a y^b / B(a, 1/2), with Gamma(1/2) = sqrt(pi)
    front = math.exp(
        a * log_x + b * log_y + _log_gamma_ratio(a) - 0.5 * math.log(math.pi)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b
