"""Spectral value ranges for Moran's index and the autoregressive slope.

Three containments, each a Rayleigh-quotient consequence:

1. I/n lies between the extreme eigenvalues of W.
2. (sum(Wz)/n)^2 plus a squared-index term lies between the extreme
   eigenvalues of W'W. The empirical form divides I^2 by R2 and is the
   Rayleigh quotient of W'W itself, so it always holds; the theoretical
   form drops the R2 factor and is only guaranteed from above (it equals
   the empirical form exactly when R2 = 1). W is symmetric, so W'W = W^2
   and its spectrum is the squared spectrum of W: the first two ranges
   read four eigenvalues of W, the least and the greatest and the two
   either side of 0, whose squares hold the least and greatest of W'W.
   One solve of W finds those four alone; it does not yield W's whole
   spectrum.
3. I^2/n lies in [0, (Wz)'(Wz)], the analytic spectrum of the rank-1
   outer product of the lag.

Each containment forgives a value up to ``CONTAINMENT_TOL`` times
max(1, |lower|, |upper|) outside its interval. That rule lives here
alone: ``Containment`` keeps the forgiveness it applied, and the
report's containment checks record it as their tolerance.

The solver behind the spectra is the built-in Householder and Sturm
multisection routine, with Newton steps once every eigenvalue has its
own bracket and a Sturm certificate for each refined value; external
eigensolvers appear only in tests, as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .eigen import EigenSpectrum, symmetric_eigenvalues
from .errors import ZeroRSquared
from .sar import ZERO_R_SQUARED_TOL
from .spatial_data import SpatialInputs

CONTAINMENT_TOL = 1e-10  # relative forgiveness at interval endpoints


@dataclass(frozen=True)
class Containment:
    """One interval check: is value inside [lower, upper]?

    slack is the signed distance to the nearer endpoint; negative means
    the value sits outside the interval by that amount. contained means
    slack >= -tolerance, the forgiveness ``_contain`` applies at the ends.
    """

    lower: float
    upper: float
    value: float
    contained: bool
    slack: float
    tolerance: float = field(repr=False, metadata={"json": False})


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
    """The first range, I/n between W's extreme eigenvalues, and its slope regions."""

    containment: Containment
    rho_theoretical: RhoInterval
    rho_empirical: RhoInterval


@dataclass(frozen=True)
class QuadraticRangeVerdict:
    """The second range: both lag-energy quotients against W'W's spectrum."""

    theoretical: Containment
    empirical: Containment
    rayleigh_gap: float  # |empirical LHS - z'W'Wz / n|, a pure float check


@dataclass(frozen=True)
class OuterRangeVerdict:
    """The third range, I^2/n in [0, (Wz)'(Wz)], and the rho^2 floor it implies."""

    containment: Containment
    lambda_outer_max: float  # (Wz)'(Wz), the one nonzero eigenvalue
    rho_sq_lower: float      # implied rho^2 >= n / (Wz)'(Wz)


@dataclass(frozen=True)
class BoundsReport:
    """All three spectral ranges of one dataset."""

    range1: MoranRangeVerdict
    range2: QuadraticRangeVerdict
    range3: OuterRangeVerdict
    abs_index: float
    pearson_analogy_ok: bool  # |I| <= 1, informational only
    # the spectrum of W the ranges read: the caller's, or the partial one
    # solved here (``EigenSpectrum.indices`` set); not serialized
    spectrum: EigenSpectrum = field(repr=False, metadata={"json": False})


def _contain(lower: float, upper: float, value: float) -> Containment:
    lower, upper, value = float(lower), float(upper), float(value)
    tolerance = CONTAINMENT_TOL * max(1.0, abs(lower), abs(upper))
    slack = min(value - lower, upper - value)
    return Containment(lower=lower, upper=upper, value=value,
                       contained=slack >= -tolerance, slack=slack, tolerance=tolerance)


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
    inputs: SpatialInputs, spectrum: EigenSpectrum, r_squared: float
) -> MoranRangeVerdict:
    """First range: extreme eigenvalues of W (``spectrum``) bracket I/n.

    I and n come from ``inputs``. Also reports the implied slope regions:
    reciprocals of the eigenvalue interval for the errorless model,
    scaled by R2 for the fitted one.
    """
    lower, upper = spectrum.smallest, spectrum.largest
    return MoranRangeVerdict(
        containment=_contain(lower, upper, inputs.i_value / inputs.n),
        rho_theoretical=reciprocal_interval(lower, upper, 1.0),
        rho_empirical=reciprocal_interval(lower, upper, r_squared),
    )


def range_quadratic(
    inputs: SpatialInputs, spectrum: EigenSpectrum, r_squared: float
) -> QuadraticRangeVerdict:
    """Second range: eigenvalues of W'W bracket the lag-energy quotient.

    The lag Wz, I and n come from ``inputs``. ``spectrum`` is that of W,
    whole or partial, holding at least its ends and the eigenvalues either
    side of 0: W is symmetric, so W'W = W^2 is bracketed by the least and
    greatest squared eigenvalue of W, and is never solved.

    The empirical left-hand side equals the Rayleigh quotient of W'W at z
    and is always contained. The theoretical side is smaller by
    I^2 (1/R2 - 1)/n^2, so only its upper end is guaranteed on noisy
    data; its verdict is reported honestly either way.

    Raises:
        ZeroRSquared: if r_squared < 1e-15.
    """
    if r_squared < ZERO_R_SQUARED_TOL:
        raise ZeroRSquared("R2 is zero; the empirical range divides by it")
    wz, i_value, n = inputs.lag, inputs.i_value, inputs.n
    squares = spectrum.values**2
    mean_sq = (wz.total / n) ** 2
    lhs_theoretical = mean_sq + i_value**2 / n**2
    lhs_empirical = mean_sq + i_value**2 / (r_squared * n**2)
    theoretical = _contain(squares.min(), squares.max(), lhs_theoretical)
    empirical = _contain(squares.min(), squares.max(), lhs_empirical)
    quotient = wz.energy / n
    return QuadraticRangeVerdict(
        theoretical=theoretical,
        empirical=empirical,
        rayleigh_gap=abs(lhs_empirical - quotient),
    )


def range_outer(inputs: SpatialInputs) -> OuterRangeVerdict:
    """Third range: 0 <= I^2/n <= (Wz)'(Wz), all read from ``inputs``.

    The bracketing matrix is the rank-1 outer product of the lag, whose
    spectrum is known analytically, so no eigensolve is needed.
    """
    wz, n = inputs.lag, inputs.n
    lam_max = wz.energy
    containment = _contain(0.0, lam_max, inputs.i_value**2 / n)
    rho_sq_lower = n / lam_max if lam_max > 0.0 else math.inf
    return OuterRangeVerdict(
        containment=containment, lambda_outer_max=lam_max, rho_sq_lower=rho_sq_lower
    )


def bounds_report(
    inputs: SpatialInputs, r_squared: float, spectrum: EigenSpectrum | None = None
) -> BoundsReport:
    """Evaluate all three ranges for one dataset.

    ``spectrum`` is W's when the caller has solved it already (``moransar
    verify`` solves W's whole spectrum together with its oracle
    matrices). Otherwise only the four eigenvalues the ranges read are
    solved here: the least, the greatest and the two either side of 0.
    The report keeps that spectrum, so ``report.spectrum`` is W's whole
    spectrum only when the caller passed one. The second range reads its
    squares, so no eigensolve of W'W runs.

    The magnitude |I| is reported alongside as a correlation-style
    reading; it is informational and never enforced, since the spectral
    intervals are the operative bounds.
    """
    i_value = inputs.i_value
    if spectrum is None:
        spectrum = symmetric_eigenvalues(inputs.weights.matrix, extremes=True)
    return BoundsReport(
        range1=range_moran(inputs, spectrum, r_squared),
        range2=range_quadratic(inputs, spectrum, r_squared),
        range3=range_outer(inputs),
        abs_index=abs(i_value),
        pearson_analogy_ok=abs(i_value) <= 1.0 + 1e-12,
        spectrum=spectrum,
    )
