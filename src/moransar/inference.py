"""Significance tests and residual diagnostics.

``slope_t_test`` is the one coefficient t-test: the inner regression and
both SAR fits keep its results, one per coefficient, and the report
serializes them in each fit's block, so an analysis tests each
coefficient once and reports it once.
It reproduces the paired p-values of the two regression directions (the
t statistic is direction-symmetric). The permutation test is two-sided
randomization inference for the index itself: it enumerates all n!
relabelings when that is no more work than the requested sample size,
otherwise draws Monte-Carlo permutations. Both come in blocks of
``BLOCK`` judged by one counter; each block of draws has its own seed
spawned up front, so the worker count cannot change the answer.

Residual diagnostics standardize the residuals by their population
standard deviation and report the residual index alongside the spatial
Durbin-Watson statistic, which equals twice Geary's contiguity ratio.
The Durbin-Watson result keeps the standardized residuals, which the
residual permutation test reads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSE,
    DimensionMismatch,
    InputError,
    MissingCriticalValues,
)
from .regression import two_tailed_t_p
from .spatial_data import StandardizedVector, WeightMatrix, zscore

TIE_TOL = 1e-12

# Monte-Carlo draws per block; each block has its own spawned seed.
BLOCK = 256


@dataclass(frozen=True)
class SignificanceResult:
    """One test's statistic and p-value, and how the p-value was obtained."""

    statistic: float
    p_value: float
    method: str                 # "t_test" or "permutation"
    permutations_used: int = 0
    seed: int | None = None
    degenerate: bool = False    # exact fit: no sampling variability left
    exhaustive: bool = False    # all n! permutations enumerated


@dataclass(frozen=True)
class DwCriticalValues:
    """The Durbin-Watson critical pair (d_l, d_u) for one (n, alpha)."""

    n: int
    alpha: float
    d_l: float
    d_u: float

    def __post_init__(self) -> None:
        if not (0.0 < self.d_l < self.d_u < 2.0):
            raise InputError(
                f"critical values must satisfy 0 < d_l < d_u < 2, "
                f"got d_l={self.d_l}, d_u={self.d_u}"
            )


@dataclass(frozen=True)
class DwResult:
    """Spatial Durbin-Watson of the residuals, Geary's ratio and the residual index."""

    dw: float
    geary_c: float
    i_e: float                      # residual Moran index
    # the standardized residuals the statistics read, for the residual
    # permutation test; not serialized
    standardized: StandardizedVector = field(repr=False, compare=False,
                                             metadata={"json": False})
    classification: str | None = None


# Only the critical pair quoted for n=35 at the 5% level ships built in;
# every other (n, alpha) must come from a user-supplied table.
BUNDLED_DW_CRITICAL: dict[tuple[int, float], DwCriticalValues] = {
    (35, 0.05): DwCriticalValues(n=35, alpha=0.05, d_l=1.402, d_u=1.519),
}


def slope_t_test(slope: float, se: float, n: int) -> SignificanceResult:
    """Two-tailed t-test for a regression coefficient with n-2 degrees of freedom.

    Used for slopes and intercepts alike. An exact fit (se = 0) cannot be
    tested; it is reported with the degenerate flag rather than dividing
    by zero, as p = 0 for a nonzero coefficient and p = 1 for an exactly
    zero one.

    Raises:
        DegenerateSE: if se is negative, or se > 0 with n < 3 (no
            degrees of freedom to estimate it from).
    """
    if se < 0.0 or not math.isfinite(se):
        raise DegenerateSE(f"standard error must be finite and nonnegative, got {se}")
    if se == 0.0:
        if slope == 0.0:
            return SignificanceResult(
                statistic=0.0, p_value=1.0, method="t_test", degenerate=True
            )
        return SignificanceResult(
            statistic=math.copysign(math.inf, slope),
            p_value=0.0,
            method="t_test",
            degenerate=True,
        )
    if n < 3:
        raise DegenerateSE("a positive standard error needs at least 3 observations")
    t = slope / se
    return SignificanceResult(
        statistic=t, p_value=two_tailed_t_p(t, n - 2), method="t_test"
    )


def permutation_test(
    z: StandardizedVector,
    weights: WeightMatrix,
    m: int = 999,
    seed: int | None = None,
    workers: int = 1,
) -> SignificanceResult:
    """Two-sided randomization p-value for the index under relabeling.

    A relabeling counts as extreme when its |I| reaches |I_obs| within a
    relative tie tolerance of 1e-12. When n! <= m the test enumerates
    every permutation and returns the exact randomization p
    (#extreme / n!). Otherwise it samples m permutations and returns the
    pseudo-p (1 + #extreme) / (m + 1). The m draws come in consecutive
    blocks of ``BLOCK`` (the last one shorter); block k draws its
    permutations with ``default_rng`` on the k-th child of
    ``SeedSequence(seed).spawn(ceil(m / BLOCK))``, all spawned before any
    work is dispatched, so the result is bit-identical for any worker
    count. Enumerated or drawn, each block's indices are evaluated
    together; a relabeling whose batched |I| lies within the rounding
    margin of the threshold is re-judged by the scalar z'(Wz), so each
    one counts exactly as that formula would count it.

    Raises:
        InputError: if m < 1, workers < 1 or seed < 0.
        DimensionMismatch: if z and weights disagree on n.
    """
    if m < 1:
        raise InputError(f"permutation count must be at least 1, got {m}")
    if workers < 1:
        raise InputError(f"worker count must be at least 1, got {workers}")
    if seed is not None and seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if weights.n != z.n:
        raise DimensionMismatch("weight matrix does not match vector length")

    w = weights.matrix
    zv = z.values
    n = z.n
    i_obs = float(zv @ (w @ zv))
    threshold = abs(i_obs) - TIE_TOL * max(1.0, abs(i_obs))

    # a batched I can differ from the scalar z'(Wz) by rounding: in any
    # summation order each evaluation is within (2 gamma_n + gamma_n^2)
    # |z|'|W||z| <= (n + 1) eps max(z^2) sum|W| of the exact value, so the
    # two differ by less than half this margin, and a relabeling this close
    # to the threshold is judged by the scalar formula alone
    margin = (
        4.0 * (n + 2) * np.finfo(float).eps
        * float(np.max(zv * zv)) * float(np.sum(np.abs(w)))
    )

    def count(perms: np.ndarray) -> int:
        zp = zv[perms]
        batched = np.abs(np.einsum("ij,ij->i", zp @ w, zp))
        near = np.abs(batched - threshold) <= margin
        hits = int(np.count_nonzero(batched[~near] >= threshold))
        for row in zp[near]:
            if abs(float(row @ (w @ row))) >= threshold:
                hits += 1
        return hits

    n_fact = math.factorial(n)
    exhaustive = n_fact <= m
    if exhaustive:
        enumeration = itertools.permutations(range(n))
        chunks = iter(lambda: list(itertools.islice(enumeration, BLOCK)), [])
        blocks = map(np.array, chunks)
        count_block = count
    else:
        block_seeds = np.random.SeedSequence(seed).spawn(-(-m // BLOCK))
        blocks = range(len(block_seeds))

        def count_block(k: int) -> int:
            size = min(BLOCK, m - k * BLOCK)
            rng = np.random.default_rng(block_seeds[k])
            return count(rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1))

    if workers == 1:
        exceed = sum(map(count_block, blocks))
    else:
        # imported here: the pool's modules (logging and queue among them)
        # cost every CLI process start-up, and only workers > 1 needs them
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            exceed = sum(pool.map(count_block, blocks))

    return SignificanceResult(
        statistic=i_obs,
        p_value=exceed / n_fact if exhaustive else (1 + exceed) / (m + 1),
        method="permutation",
        permutations_used=n_fact if exhaustive else m,
        seed=seed,
        exhaustive=exhaustive,
    )


def _standardize_residuals(residuals: np.ndarray, n_expected: int) -> np.ndarray:
    e = np.asarray(residuals, dtype=float)
    if e.ndim != 1 or e.shape[0] != n_expected:
        raise DimensionMismatch(
            f"residual vector has shape {e.shape}, expected ({n_expected},)"
        )
    if not np.all(np.isfinite(e)):
        raise InputError("residuals contain non-finite values")
    return zscore(e, "residuals are constant; diagnostics are undefined")


def spatial_durbin_watson(residuals: np.ndarray, weights: WeightMatrix) -> DwResult:
    """Spatial Durbin-Watson statistic of the residuals.

    With e standardized by its population sigma,
    DW = 2(n-1)/n * (o'W(e*e) - e'We), where e*e squares elementwise.
    Half of it is exactly Geary's contiguity ratio for symmetric W. The
    result keeps e.

    Raises:
        ZeroVariance: if the residuals are constant.
    """
    n = weights.n
    standardized = StandardizedVector(values=_standardize_residuals(residuals, n))
    e = standardized.values
    w = weights.matrix
    i_e = float(e @ (w @ e))
    weighted_square_sum = float(np.sum(w @ (e * e)))
    dw = (2.0 * (n - 1) / n) * (weighted_square_sum - i_e)
    return DwResult(dw=dw, geary_c=dw / 2.0, i_e=i_e, standardized=standardized)


def geary_pairwise(residuals: np.ndarray, weights: WeightMatrix) -> float:
    """Geary's contiguity ratio from the literal pairwise sum.

    C = (n-1)/(2n) * sum_ij w_ij (e_i - e_j)^2, elementwise over the
    differences of the standardized residuals. Shares nothing with
    spatial_durbin_watson (no matrix-vector product, no lag, no DW
    expansion): the two must agree (DW = 2C) to 1e-10 on symmetric W.

    Raises:
        ZeroVariance: if the residuals are constant.
    """
    n = weights.n
    e = _standardize_residuals(residuals, n)
    diff = e[:, None] - e[None, :]
    return (n - 1) * float(np.sum(weights.matrix * diff * diff)) / (2.0 * n)


def critical_values_for(
    n: int,
    alpha: float,
    table: dict[tuple[int, float], DwCriticalValues] | None = None,
) -> DwCriticalValues:
    """Look up Durbin-Watson critical values, user table first.

    Raises:
        MissingCriticalValues: if neither the user table nor the bundled
            one covers (n, alpha).
    """
    if table is not None and (n, alpha) in table:
        return table[(n, alpha)]
    if (n, alpha) in BUNDLED_DW_CRITICAL:
        return BUNDLED_DW_CRITICAL[(n, alpha)]
    raise MissingCriticalValues(n=n, alpha=alpha)


def dw_interpret(dw: float, critical: DwCriticalValues) -> str:
    """Classify a Durbin-Watson value against (d_l, d_u) bands.

    Below d_l: positive autocorrelation. Above 4 - d_l: negative.
    Inside [d_u, 4 - d_u]: none. The two remaining bands are
    inconclusive.
    """
    if dw < critical.d_l:
        return "positive"
    if dw > 4.0 - critical.d_l:
        return "negative"
    if critical.d_u <= dw <= 4.0 - critical.d_u:
        return "none"
    return "inconclusive"
