"""Moran's index three ways, plus normalized scatterplot datasets.

The index is computed as the quadratic form z'Wz, cross-checked by the
classical double-sum statistic, and recovered a third time as the slope
of the with-intercept regression of n*Wz on z. Because z has zero mean,
all three agree to machine precision; the regression additionally yields
the intercept (the entry sum of Wz), residuals, and the t-tests of both
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InputError, ZeroVariance
from .inference import SignificanceResult, slope_t_test
from .regression import fit_line
from .sar import SarFit, closed_form_from_moran
from .spatial_data import (
    ProximityMatrix,
    RawSizeVector,
    SpatialInputs,
    StandardizedVector,
    WeightMatrix,
)

MODE_AUTOCORRELATION = "autocorrelation"
MODE_AUTOREGRESSION = "autoregression"


@dataclass(frozen=True)
class MoranResult:
    """Moran's index with the inner-regression estimates around it."""

    i_value: float
    intercept: float           # entry sum of Wz, the fitted constant
    r_squared: float           # squared Pearson correlation of z and Wz
    residuals_e: np.ndarray = field(repr=False)
    se_slope: float
    se_intercept: float
    n: int
    slope_test: SignificanceResult       # the index's t-test
    intercept_test: SignificanceResult   # the lag sum's t-test
    degenerate: bool = False


@dataclass(frozen=True)
class TrendLine:
    """A straight line y = intercept + slope * x drawn on a scatterplot."""

    slope: float
    intercept: float
    label: str


@dataclass(frozen=True)
class ScatterDataset:
    """Point cloud plus up to two trend lines for a normalized scatterplot.

    In autocorrelation mode the points are (z_i, n*(Wz)_i) and both lines
    carry slope I: the theoretical one through the origin, the empirical
    one shifted by the fitted constant. In autoregression mode the axes
    swap to ((Wz)_i, z_i) and the lines are the autoregressive fits.
    """

    points: np.ndarray = field(repr=False)  # shape (n, 2)
    theoretical_line: TrendLine | None
    empirical_line: TrendLine
    mode: str
    x_label: str
    y_label: str

    @property
    def n(self) -> int:
        return self.points.shape[0]


def moran_index(z: StandardizedVector, weights: WeightMatrix) -> float:
    """Moran's index as the quadratic form z'Wz.

    Raises:
        DimensionMismatch: if z and W disagree on n.
    """
    if weights.n != z.n:
        raise DimensionMismatch(
            f"weight matrix is {weights.n}x{weights.n} but vector has {z.n} entries"
        )
    return float(z.values @ (weights.matrix @ z.values))


def moran_double_sum(raw: RawSizeVector, proximity: ProximityMatrix) -> float:
    """Classical double-sum Moran statistic, kept as an independent oracle.

    Computes (n/S0) * sum_{i!=j} v_ij (x_i - xbar)(x_j - xbar) / sum_i (x_i - xbar)^2
    elementwise over the off-diagonal entries of the raw proximity matrix
    (S0 is their sum). Shares no code with the quadratic-form path (no W,
    no matrix-vector product): the two must agree to 1e-12.

    Raises:
        ZeroVariance: if all sizes are equal.
    """
    x = raw.values
    n = raw.n
    if proximity.n != n:
        raise DimensionMismatch("proximity matrix does not match size vector")
    xbar = x.mean()
    dev = x - xbar
    denom = float(dev @ dev)
    if denom == 0.0:
        raise ZeroVariance("all size values are equal")
    off = ~np.eye(n, dtype=bool)
    v = proximity.matrix[off]
    cross = float(np.sum(v * np.outer(dev, dev)[off]))
    return n * cross / (float(np.sum(v)) * denom)


def inner_regression(inputs: SpatialInputs) -> MoranResult:
    """Fit n*Wz on z with an intercept; the slope estimates Moran's index.

    The intercept estimates the entry sum of Wz, and the residuals are
    the empirical error term of the autocorrelation model.

    Raises:
        DegenerateRegression: if z or the lag is constant.
    """
    z, n = inputs.z, inputs.n
    line = fit_line(z.values, n * inputs.lag.values)
    return MoranResult(
        i_value=line.slope,
        intercept=line.intercept,
        r_squared=line.r_squared,
        residuals_e=line.residuals,
        se_slope=line.se_slope,
        se_intercept=line.se_intercept,
        n=n,
        slope_test=slope_t_test(line.slope, line.se_slope, n),
        intercept_test=slope_t_test(line.intercept, line.se_intercept, n),
        degenerate=line.degenerate,
    )


def eigen_check(inputs: SpatialInputs) -> float:
    """Residual of the outer-product eigen relation.

    z is an eigenvector of the rank-1 matrix (z z') W with eigenvalue I,
    so ((z z') W) z - I z vanishes identically; the returned max-norm
    residual measures only floating-point error and stays below 1e-10.
    """
    zv = inputs.z.values
    outer = np.outer(zv, zv) @ inputs.weights.matrix
    return float(np.max(np.abs(outer @ zv - inputs.i_value * zv)))


def rank_one_identity_slack(inputs: SpatialInputs) -> float:
    """Scalar companion to eigen_check: |(Wz)'(z z')(Wz) - I (Wz)'z|.

    Left-multiplying the eigen relation (z z') W z = I z by (Wz)'
    collapses it to a scalar identity. The left side goes through the
    rank-1 matrix z z' (O(n^2)), so the slack measures that product's
    rounding; (Wz)'z alone is the same float as I, and against it the
    slack would be 0 on every input.
    """
    zv, lag = inputs.z.values, inputs.lag.values
    projected = float(lag @ (np.outer(zv, zv) @ lag))
    return abs(projected - inputs.i_value * float(lag @ zv))


def scatter_dataset(
    inputs: SpatialInputs,
    fit: SarFit,
    mode: str = MODE_AUTOCORRELATION,
) -> ScatterDataset:
    """Build the normalized scatterplot dataset for either model direction.

    Args:
        inputs: the prepared z, W, lag and index.
        fit: the autoregressive fit of these inputs (``fit_sar_ols``);
            only the autoregression mode reads it.
        mode: "autocorrelation" plots (z, n*Wz) with slope-I lines;
            "autoregression" plots (Wz, z) with the autoregressive fit
            as the empirical line.

    Raises:
        InputError: on an unknown mode.
    """
    z, lag, i_value = inputs.z, inputs.lag, inputs.i_value
    if mode == MODE_AUTOCORRELATION:
        points = np.column_stack([z.values, z.n * lag.values])
        theoretical = TrendLine(slope=i_value, intercept=0.0, label="through-origin")
        empirical = TrendLine(slope=i_value, intercept=lag.total, label="fitted")
        return ScatterDataset(
            points=points,
            theoretical_line=theoretical,
            empirical_line=empirical,
            mode=mode,
            x_label="z",
            y_label="n Wz",
        )
    if mode == MODE_AUTOREGRESSION:
        theoretical = None
        if not fit.zero_moran:
            a, rho = closed_form_from_moran(i_value, 1.0, lag.total, z.n)
            theoretical = TrendLine(slope=rho, intercept=a, label="exact-fit")
        empirical = TrendLine(slope=fit.rho_hat, intercept=fit.a_hat, label="fitted")
        return ScatterDataset(
            points=np.column_stack([lag.values, z.values]),
            theoretical_line=theoretical,
            empirical_line=empirical,
            mode=mode,
            x_label="Wz",
            y_label="z",
        )
    raise InputError(f"unknown scatter mode: {mode!r}")
