"""Spectral value ranges for Moran's index and the autoregressive slope.

Three containments, each a Rayleigh-quotient consequence:

1. I/n lies between the extreme eigenvalues of W.
2. (sum(Wz)/n)^2 plus a squared-index term lies between the extreme
   eigenvalues of W'W. The empirical form divides I^2 by R2 and is the
   Rayleigh quotient of W'W itself, so it always holds; the theoretical
   form drops the R2 factor and is only guaranteed from above (it equals
   the empirical form exactly when R2 = 1). W is symmetric, so W'W = W^2
   and its spectrum is the squared spectrum of W: one eigensolve of W
   serves the first two ranges.
3. I^2/n lies in [0, (Wz)'(Wz)], the analytic spectrum of the rank-1
   outer product of the lag.

The solver behind the spectra is the built-in Jacobi routine; external
eigensolvers appear only in tests, as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autocorr import moran_index
from .eigen import EigenSpectrum, symmetric_eigenvalues
from .errors import ZeroRSquared
from .spatial_data import SpatialLag, StandardizedVector, WeightMatrix, spatial_lag

CONTAINMENT_TOL = 1e-10  # relative forgiveness at interval endpoints


@dataclass(frozen=True)
class Containment:
    """One interval check: is value inside [lower, upper]?

    slack is the signed distance to the nearer endpoint; negative means
    the value sits outside the interval by that amount.
    """

    lower: float
    upper: float
    value: float
    contained: bool
    slack: float


@dataclass(frozen=True)
class RhoInterval:
    """Allowed region for the autoregressive slope, from reciprocal bounds.

    kind "interval" means lower <= rho <= upper. kind "rays" means the
    eigenvalue interval straddles zero, so rho escapes to two open rays:
    rho <= lower or rho >= upper.
    """

    kind: str
    lower: float
    upper: float
    scale: float  # 1.0 for the theoretical form, R2 for the empirical


@dataclass(frozen=True)
class MoranRangeVerdict:
    containment: Containment
    rho_theoretical: RhoInterval
    rho_empirical: RhoInterval | None


@dataclass(frozen=True)
class QuadraticRangeVerdict:
    theoretical: Containment
    empirical: Containment
    rayleigh_gap: float  # |empirical LHS - z'W'Wz / n|, a pure float check


@dataclass(frozen=True)
class OuterRangeVerdict:
    containment: Containment
    lambda_outer_max: float  # (Wz)'(Wz), the one nonzero eigenvalue
    rho_sq_lower: float      # implied rho^2 >= n / (Wz)'(Wz)


@dataclass(frozen=True)
class BoundsReport:
    range1: MoranRangeVerdict
    range2: QuadraticRangeVerdict
    range3: OuterRangeVerdict
    abs_index: float
    pearson_analogy_ok: bool  # |I| <= 1, informational only


def _contain(lower: float, upper: float, value: float) -> Containment:
    lower, upper, value = float(lower), float(upper), float(value)
    tol = CONTAINMENT_TOL * max(1.0, abs(lower), abs(upper))
    contained = (lower - tol) <= value <= (upper + tol)
    slack = min(value - lower, upper - value)
    return Containment(
        lower=lower, upper=upper, value=value, contained=contained, slack=slack
    )


def reciprocal_interval(lower: float, upper: float, scale: float = 1.0) -> RhoInterval:
    """Image of the constraint lower <= scale/rho <= upper.

    The reciprocal map flips and possibly splits the interval: when the
    eigenvalue interval straddles zero the slope is only excluded from a
    middle band, which is reported as two rays.
    """
    if lower > 0.0 or upper < 0.0:
        return RhoInterval(
            kind="interval", lower=scale / upper, upper=scale / lower, scale=scale
        )
    if lower == 0.0:
        return RhoInterval(kind="interval", lower=scale / upper, upper=math.inf, scale=scale)
    if upper == 0.0:
        return RhoInterval(kind="interval", lower=-math.inf, upper=scale / lower, scale=scale)
    return RhoInterval(
        kind="rays", lower=scale / lower, upper=scale / upper, scale=scale
    )


def range_moran(
    weights: WeightMatrix,
    i_value: float,
    n: int | None = None,
    r_squared: float | None = None,
    spectrum: EigenSpectrum | None = None,
) -> MoranRangeVerdict:
    """First range: extreme eigenvalues of W bracket I/n.

    Also reports the implied slope regions: reciprocals of the eigenvalue
    interval for the errorless model, scaled by R2 for the fitted one.
    """
    if n is None:
        n = weights.n
    if spectrum is None:
        spectrum = symmetric_eigenvalues(weights.matrix)
    containment = _contain(spectrum.smallest, spectrum.largest, i_value / n)
    rho_theoretical = reciprocal_interval(spectrum.smallest, spectrum.largest, 1.0)
    rho_empirical = None
    if r_squared is not None:
        rho_empirical = reciprocal_interval(
            spectrum.smallest, spectrum.largest, r_squared
        )
    return MoranRangeVerdict(
        containment=containment,
        rho_theoretical=rho_theoretical,
        rho_empirical=rho_empirical,
    )


def _squared_spectrum(spectrum: EigenSpectrum) -> EigenSpectrum:
    """Spectrum of W'W = W^2 from the spectrum of a symmetric W.

    Nothing is solved, so sweeps is 0. The residual bounds the
    off-diagonal mass of W^2 in the basis that left W with residual r:
    (D + E)^2 - D^2 = DE + ED + E^2 has norm at most 2 max|lambda| r + r^2.
    """
    values = np.sort(spectrum.values**2)
    values.flags.writeable = False
    r = spectrum.max_offdiag_residual
    lam = max(abs(spectrum.smallest), abs(spectrum.largest))
    return EigenSpectrum(
        values=values, max_offdiag_residual=2.0 * lam * r + r * r, sweeps=0
    )


def range_quadratic(
    weights: WeightMatrix,
    wz: SpatialLag,
    i_value: float,
    r_squared: float,
    n: int | None = None,
    spectrum: EigenSpectrum | None = None,
) -> QuadraticRangeVerdict:
    """Second range: eigenvalues of W'W bracket the lag-energy quotient.

    W is symmetric, so the spectrum of W'W is the squared spectrum of W.
    When ``spectrum`` (of W'W) is not given it is derived that way from
    an eigensolve of W; W'W itself is never solved.

    The empirical left-hand side equals the Rayleigh quotient of W'W at z
    and is always contained. The theoretical side is smaller by
    I^2 (1/R2 - 1)/n^2, so only its upper end is guaranteed on noisy
    data; its verdict is reported honestly either way.

    Raises:
        ZeroRSquared: if r_squared < 1e-15.
    """
    if r_squared < 1e-15:
        raise ZeroRSquared("R2 is zero; the empirical range divides by it")
    if n is None:
        n = weights.n
    if spectrum is None:
        spectrum = _squared_spectrum(symmetric_eigenvalues(weights.matrix))
    mean_sq = (wz.total / n) ** 2
    lhs_theoretical = mean_sq + i_value**2 / n**2
    lhs_empirical = mean_sq + i_value**2 / (r_squared * n**2)
    theoretical = _contain(spectrum.smallest, spectrum.largest, lhs_theoretical)
    empirical = _contain(spectrum.smallest, spectrum.largest, lhs_empirical)
    quotient = float(wz.values @ wz.values) / n
    return QuadraticRangeVerdict(
        theoretical=theoretical,
        empirical=empirical,
        rayleigh_gap=abs(lhs_empirical - quotient),
    )


def range_outer(wz: SpatialLag, i_value: float, n: int) -> OuterRangeVerdict:
    """Third range: 0 <= I^2/n <= (Wz)'(Wz).

    The bracketing matrix is the rank-1 outer product of the lag, whose
    spectrum is known analytically, so no eigensolve is needed.
    """
    lam_max = float(wz.values @ wz.values)
    containment = _contain(0.0, lam_max, i_value**2 / n)
    rho_sq_lower = n / lam_max if lam_max > 0.0 else math.inf
    return OuterRangeVerdict(
        containment=containment, lambda_outer_max=lam_max, rho_sq_lower=rho_sq_lower
    )


def bounds_report(
    z: StandardizedVector,
    weights: WeightMatrix,
    r_squared: float,
    spectrum: EigenSpectrum | None = None,
) -> BoundsReport:
    """Evaluate all three ranges for one dataset.

    W is solved once (or its spectrum is passed in); the second range
    uses the squared spectrum, so no eigensolve of W'W runs.

    The magnitude |I| is reported alongside as a correlation-style
    reading; it is informational and never enforced, since the spectral
    intervals are the operative bounds.
    """
    wz = spatial_lag(weights, z)
    i_value = moran_index(z, weights)
    n = z.n
    if spectrum is None:
        spectrum = symmetric_eigenvalues(weights.matrix)
    range1 = range_moran(weights, i_value, n, r_squared=r_squared, spectrum=spectrum)
    range2 = range_quadratic(
        weights, wz, i_value, r_squared, n, spectrum=_squared_spectrum(spectrum)
    )
    range3 = range_outer(wz, i_value, n)
    return BoundsReport(
        range1=range1,
        range2=range2,
        range3=range3,
        abs_index=abs(i_value),
        pearson_analogy_ok=abs(i_value) <= 1.0 + 1e-12,
    )
