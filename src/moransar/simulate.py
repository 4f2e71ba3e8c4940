"""Synthetic size vectors drawn from the autoregressive model.

Solves (Id - rho*W) x = a*o + eta directly, so the generated field obeys
the model by construction. Used by property tests and the demo verbs; in
real analyses the size vector comes from data files instead.
"""

from __future__ import annotations

import numpy as np

from .eigen import symmetric_eigenvalues
from .errors import DegenerateZeroField, InputError, SingularResolvent
from .spatial_data import RawSizeVector, weights_from_distances

RESOLVENT_TOL = 1e-9


def random_distances(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric distances: the upper triangle drawn U(0.2, 5), mirrored."""
    distances = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    distances[iu] = rng.uniform(0.2, 5.0, size=iu[0].size)
    return distances + distances.T


def simulate_sar(
    distances: np.ndarray,
    a: float,
    rho: float,
    noise_sd: float,
    seed: int | None = None,
) -> RawSizeVector:
    """Draw one raw size vector from the autoregressive model.

    W is built from ``distances`` by weights_from_distances, and the
    vector has one entry per row of the matrix.

    Args:
        distances: square matrix of pairwise distances.
        a: intercept of the generating model.
        rho: autoregressive coefficient; must stay away from every
            reciprocal eigenvalue of W.
        noise_sd: standard deviation of the i.i.d. normal noise.
        seed: RNG seed; None draws fresh entropy.

    Raises:
        SingularResolvent: if rho sits at (or within 1e-9 of) a
            reciprocal eigenvalue, where Id - rho*W is singular.
        DegenerateZeroField: if a = 0 and noise_sd = 0 (the solution is
            identically zero and cannot be standardized downstream).
        InputError: if a, rho or noise_sd is non-finite, noise_sd < 0,
            seed < 0, or from building W.
    """
    if not np.all(np.isfinite([a, rho, noise_sd])):
        raise InputError(f"a, rho and noise_sd must be finite: {a}, {rho}, {noise_sd}")
    if noise_sd < 0.0:
        raise InputError(f"noise_sd must be nonnegative, got {noise_sd}")
    if seed is not None and seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if a == 0.0 and noise_sd == 0.0:
        raise DegenerateZeroField(
            "a=0 with noise_sd=0 solves to the zero vector; nothing to analyze"
        )
    weights = weights_from_distances(distances)
    n = weights.n
    # at rho = 0 every gap |1 - rho*lambda| is exactly 1
    if rho != 0.0:
        gaps = np.abs(1.0 - rho * symmetric_eigenvalues(weights.matrix).values)
        if float(gaps.min()) <= RESOLVENT_TOL:
            raise SingularResolvent(
                f"rho={rho} is within {RESOLVENT_TOL:g} of a reciprocal eigenvalue"
            )

    rng = np.random.default_rng(seed)
    field = a * np.ones(n)
    if noise_sd > 0.0:
        field = field + rng.normal(0.0, noise_sd, size=n)
    x = np.linalg.solve(np.eye(n) - rho * weights.matrix, field)
    return RawSizeVector.from_values(x)
