"""Size vectors, spatial weight matrices, and spatial lags.

Everything downstream works on two objects built here: a standardized
size vector z (zero mean, unit population standard deviation, so that
z.z = n) and a globally normalized symmetric weight matrix W (zero
diagonal, all entries summing to 1, built from reciprocal distances).
``prepare`` builds both once, together with the proximity matrix V, the
lag Wz and the index I = z'Wz, into one SpatialInputs bundle that every
consumer reads. All constructors validate their invariants and freeze
the underlying arrays, so instances are safe to share between
concurrent tasks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricInput,
    DegenerateMatrix,
    DimensionMismatch,
    InputError,
    NegativeDistance,
    NonPositiveValue,
    StrictAsymmetry,
    TinyDistance,
    ZeroDistance,
    ZeroVariance,
)

# Absolute tolerance for exact linear-algebra identities; relative
# tolerance for data-dependent ones (double precision at n up to a few
# hundred leaves ample headroom).
EXACT_TOL = 1e-12
DATA_TOL = 1e-9

# Relative asymmetry above which raw distance input is considered
# genuinely asymmetric (warn under the default policy, error in strict).
ASYMMETRY_TOL = 1e-6

# Asymmetry policies of inverse_distance_proximity (and prepare).
SYMMETRIZE_POLICIES = ("auto", "strict")


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class RawSizeVector:
    """Positive size measurements (population, light intensity, ...) keyed by id."""

    ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        if self.values.ndim != 1:
            raise DimensionMismatch("size values must be a 1-d vector")
        if len(self.ids) != self.values.size:
            raise DimensionMismatch(
                f"{len(self.ids)} ids but {self.values.size} values"
            )
        if self.values.size < 2:
            raise DimensionMismatch("need at least 2 elements")
        if not np.all(np.isfinite(self.values)):
            bad = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise InputError(f"size value at index {bad} is not finite")

    @property
    def n(self) -> int:
        return self.values.size

    @staticmethod
    def from_values(values, ids=None) -> "RawSizeVector":
        values = np.asarray(values, dtype=float)
        if ids is None:
            ids = tuple(str(i) for i in range(values.size))
        return RawSizeVector(ids=tuple(ids), values=values)


@dataclass(frozen=True)
class StandardizedVector:
    """z-scored size vector: mean 0 and population standard deviation 1.

    With that convention the self inner product equals the element count
    (z.z = n), which every identity in this package leans on.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        z = self.values
        n = z.size
        if abs(z.sum()) > EXACT_TOL * n:
            raise InputError(f"not centered: |sum| = {abs(z.sum()):.3e}")
        if abs(z @ z - n) > DATA_TOL:
            raise InputError(f"not unit-scaled: |z.z - n| = {abs(z @ z - n):.3e}")

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ProximityMatrix:
    """Symmetric reciprocal-distance matrix with zero diagonal."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        v = self.matrix
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionMismatch("proximity matrix must be square")
        if np.any(np.diag(v) != 0.0):
            raise DimensionMismatch("proximity diagonal must be zero")
        scale = np.abs(v).max()
        if scale > 0 and np.abs(v - v.T).max() > DATA_TOL * scale:
            raise AsymmetricInput(*_worst_asymmetry(v))
        off = v[~np.eye(v.shape[0], dtype=bool)]
        if np.any(~np.isfinite(off)) or np.any(off <= 0.0):
            raise DegenerateMatrix("off-diagonal proximities must be finite and > 0")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class WeightMatrix:
    """Globally normalized spatial weight matrix: W = V / sum(V).

    Symmetric, zero diagonal, and all entries sum to 1 (contrast with
    row standardization, which is out of scope here).
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        w = self.matrix
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionMismatch("weight matrix must be square")
        if abs(w.sum() - 1.0) > EXACT_TOL:
            raise DegenerateMatrix(
                f"weights must sum to 1, got {w.sum()!r}"
            )
        if np.abs(w - w.T).max() != 0.0:
            raise AsymmetricInput(*_worst_asymmetry(w))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpatialLag:
    """The lag vector Wz together with its entry sum and its energy (Wz)'(Wz).

    The energy is derived from the values on construction.
    """

    values: np.ndarray = field(repr=False)
    total: float
    energy: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        object.__setattr__(self, "energy", float(self.values @ self.values))

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SpatialInputs:
    """The prepared inputs of one analysis, built once by ``prepare``.

    Holds the standardized vector z, the proximity matrix V, the weights
    W = V / sum(V), the lag Wz, Moran's index I = z'Wz, and whether the
    sizes were log-transformed first. Downstream code reads these instead
    of deriving them again.

    Raises:
        DimensionMismatch: if z, W and the lag disagree on n.
    """

    z: StandardizedVector
    proximity: ProximityMatrix
    weights: WeightMatrix
    lag: SpatialLag
    i_value: float
    log_transformed: bool = False

    def __post_init__(self):
        if not self.z.n == self.weights.n == self.lag.n:
            raise DimensionMismatch(f"z, W and the lag disagree on n: {self.z.n}, "
                                    f"{self.weights.n}, {self.lag.n}")

    @property
    def n(self) -> int:
        return self.z.n


def _worst_asymmetry(m: np.ndarray):
    d = np.abs(m - m.T)
    i, j = np.unravel_index(np.argmax(d), d.shape)
    denom = max(abs(m[i, j]), abs(m[j, i]))
    return int(i), int(j), float(d[i, j] / denom) if denom else 0.0


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def log_transform(raw: RawSizeVector) -> RawSizeVector:
    """Replace every size value by its natural logarithm.

    City sizes and light intensities follow heavy-tailed distributions;
    the analysis pipeline always offers this as the first step.

    Raises:
        NonPositiveValue: if any value is zero or negative.
    """
    bad = np.flatnonzero(raw.values <= 0.0)
    if bad.size:
        raise NonPositiveValue(int(bad[0]), float(raw.values[bad[0]]), raw.ids[bad[0]])
    return RawSizeVector(ids=raw.ids, values=np.log(raw.values))


def zscore(x: np.ndarray, if_constant: str) -> np.ndarray:
    """z-score a finite 1-d array with the population standard deviation.

    Dividing by n (not n-1) is what makes z.z = n exactly, and every
    downstream identity depends on that convention. The size vector and
    the residual diagnostics both standardize here.

    Raises:
        ZeroVariance: with the message ``if_constant``, if all values are equal.
    """
    # z is scale-free, and a power-of-two scale is exact: bringing max|x|
    # into [0.5, 1) keeps the squares below clear of overflow and underflow
    x = np.ldexp(x, -math.frexp(float(np.max(np.abs(x))))[1])
    centered = x - x.mean()
    # a second pass removes the cancellation residue left when the
    # spread is tiny against the mean; exact zero when the first
    # centering was already exact
    centered = centered - centered.mean()
    sigma = math.sqrt(float(np.mean(centered**2)))
    if sigma == 0.0:
        raise ZeroVariance(if_constant)
    return centered / sigma


def standardize(raw: RawSizeVector) -> StandardizedVector:
    """z-score the size vector (``zscore``).

    Raises:
        ZeroVariance: if all values are equal.
    """
    return StandardizedVector(values=zscore(raw.values, "all size values are equal"))


def inverse_distance_proximity(
    distances: np.ndarray,
    symmetrize_policy: str = "auto",
) -> ProximityMatrix:
    """Build the reciprocal-distance proximity matrix v_ij = 1 / d_ij.

    The diagonal of the distance input is ignored (never inverted) and
    the diagonal of the result is zero.

    Args:
        distances: square matrix of pairwise distances; only the
            off-diagonal entries are used.
        symmetrize_policy: "auto" symmetrizes, warning when the maximum
            relative asymmetry exceeds 1e-6; "strict" raises instead.

    Raises:
        InputError: on a policy other than "auto" or "strict".
        ZeroDistance: if any off-diagonal distance is zero.
        NegativeDistance: if any off-diagonal distance is negative.
        TinyDistance: if any off-diagonal distance is positive but
            subnormal (below 2**-1022).
        StrictAsymmetry: in strict mode, if the input is asymmetric
            beyond tolerance.
    """
    if symmetrize_policy not in SYMMETRIZE_POLICIES:
        raise InputError(
            f"symmetrize must be 'auto' or 'strict', got {symmetrize_policy!r}"
        )
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimensionMismatch("distance matrix must be square")
    n = d.shape[0]
    off = ~np.eye(n, dtype=bool)
    if np.any(~np.isfinite(d[off])):
        raise DegenerateMatrix("distances must be finite")
    zeros = np.argwhere((d == 0.0) & off)
    if zeros.size:
        raise ZeroDistance(int(zeros[0, 0]), int(zeros[0, 1]))
    negative = np.argwhere((d < 0.0) & off)
    if negative.size:
        i, j = negative[0].tolist()
        raise NegativeDistance(i, j, float(d[i, j]))
    # a subnormal distance's reciprocal overflows, or the sum of it and its
    # mirror in ``symmetrize`` does; a normal one's is at most 2**1022
    tiny = (d < np.finfo(float).tiny) & off
    if tiny.any():
        i, j = np.argwhere(tiny)[0].tolist()
        raise TinyDistance(i, j, float(d[i, j]))

    asym = np.abs(d - d.T)
    denom = np.maximum(np.abs(d), np.abs(d.T))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(denom > 0, asym / denom, 0.0)
    rel[~off] = 0.0
    worst = float(rel.max())
    if worst > ASYMMETRY_TOL:
        if symmetrize_policy == "strict":
            i, j = np.unravel_index(np.argmax(rel), rel.shape)
            raise StrictAsymmetry(int(i), int(j), worst)
        warnings.warn(
            f"distance matrix asymmetric (max relative asymmetry "
            f"{worst:.3e}); symmetrizing",
            stacklevel=2,
        )

    v = np.zeros_like(d)
    v[off] = 1.0 / d[off]
    return symmetrize(v)


def symmetrize(matrix: np.ndarray) -> ProximityMatrix:
    """Average a square nonnegative matrix with its transpose, zero the diagonal.

    Symmetric input is a fixed point. The result is exactly symmetric,
    which the quadratic-form identities downstream require.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("can only symmetrize a square matrix")
    # IEEE addition commutes, so (m + m.T)/2 is bitwise symmetric.
    s = 0.5 * (m + m.T)
    np.fill_diagonal(s, 0.0)
    return ProximityMatrix(matrix=s)


def global_normalize(proximity: ProximityMatrix) -> WeightMatrix:
    """Divide the proximity matrix by the sum of its entries.

    Raises:
        DegenerateMatrix: if the entries sum to zero.
    """
    # W is scale-free, and a power-of-two scale is exact: bringing max V
    # into [0.5, 1) keeps the sum clear of overflow and changes no bit of W
    exponent = math.frexp(float(proximity.matrix.max()))[1]
    w = np.ldexp(proximity.matrix, -exponent)
    total = float(w.sum())
    if total <= 0.0:
        raise DegenerateMatrix("proximity entries sum to zero")
    w /= total
    # One multiplicative correction so the sum is 1 to the last bit.
    w /= w.sum()
    return WeightMatrix(matrix=w)


def spatial_lag(weights: WeightMatrix, z: StandardizedVector) -> SpatialLag:
    """Compute the lag vector Wz and its entry sum.

    Raises:
        DimensionMismatch: if z and W disagree on n.
    """
    if weights.n != z.n:
        raise DimensionMismatch(
            f"weight matrix is {weights.n}x{weights.n} but vector has {z.n} entries"
        )
    wz = weights.matrix @ z.values
    return SpatialLag(values=wz, total=float(wz.sum()))


def weights_from_distances(distances: np.ndarray) -> WeightMatrix:
    """Distance matrix straight to the globally normalized weight matrix.

    Asymmetric distances are averaged with a warning, the "auto" policy
    of inverse_distance_proximity; prepare takes the policy as an option.
    """
    return global_normalize(inverse_distance_proximity(distances))


def prepare(
    raw: RawSizeVector,
    distances: np.ndarray,
    *,
    apply_log: bool = False,
    symmetrize: str = "auto",
) -> SpatialInputs:
    """Sizes and distances to the SpatialInputs every analysis step reads.

    Optionally log-transforms the sizes, then standardizes them, builds
    and normalizes the proximity matrix (``symmetrize`` is the asymmetry
    policy of inverse_distance_proximity), and takes the lag and I once.

    Raises:
        InputError subclasses from the steps above.
    """
    if apply_log:
        raw = log_transform(raw)
    z = standardize(raw)
    proximity = inverse_distance_proximity(distances, symmetrize)
    weights = global_normalize(proximity)
    lag = spatial_lag(weights, z)
    return SpatialInputs(
        z=z,
        proximity=proximity,
        weights=weights,
        lag=lag,
        i_value=float(z.values @ lag.values),
        log_transformed=apply_log,
    )
