"""Closed-form simple linear regression shared by both model directions.

The autocorrelation fit (n*Wz on z) and the autoregressive fit (z on Wz)
are the same two-parameter least-squares problem read in opposite
directions, so both modules delegate here. Standard errors use the
with-intercept formulas with n - 2 degrees of freedom, which makes the
slope t-test symmetric between the two directions (identical p-values).
This module only fits; every coefficient p-value comes from
``inference.slope_t_test``, the one caller of ``two_tailed_t_p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import DegenerateRegression

# Residual RMS below this fraction of the dependent scale is an exact
# fit: residuals and standard errors are reported as zeros and the line
# is flagged degenerate instead of dividing 0 by 0.
EXACT_FIT_RTOL = 1e-12


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


def two_tailed_t_p(t: float, df: int) -> float:
    """Two-tailed Student-t tail probability.

    ``special.stdtr`` is the CDF that ``scipy.stats.t.sf`` evaluates, so
    the result is the same to the bit; importing ``scipy.special`` alone
    keeps the much larger ``scipy.stats`` out of start-up.
    """
    return float(2.0 * special.stdtr(df, -abs(t)))
