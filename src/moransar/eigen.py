"""Built-in symmetric eigensolver (Jacobi rotations in round-robin order).

Self-contained on purpose: the spectral-range checks must not lean on an
external linear-algebra backend, so tests can compare this solver against
one as an independent oracle. Matrices here are small (n up to a few
hundred), where Jacobi is simple, robust, and accurate to near machine
precision.

A sweep visits every pivot pair once in a round-robin (parallel)
ordering, as in Brent and Luk, "The solution of singular-value and
symmetric eigenvalue problems on multiprocessor arrays" (SIAM J. Sci.
Stat. Comput., 1985): the rounds of a tournament pair each index at most
once, so the rotations of one round act on disjoint rows and columns and
are applied together as a handful of whole-array numpy operations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, NotSymmetric

OFFDIAG_TOL_FACTOR = 1e-12
MAX_SWEEPS = 100
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class EigenSpectrum:
    """Real eigenvalues in ascending order plus the convergence residual."""

    values: np.ndarray = field(repr=False)
    max_offdiag_residual: float
    sweeps: int

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def smallest(self) -> float:
        return float(self.values[0])

    @property
    def largest(self) -> float:
        return float(self.values[-1])


def _offdiag_frobenius(a: np.ndarray) -> float:
    # measured directly, never as total minus diagonal: that subtraction
    # cancels catastrophically once the true off-diagonal mass is small
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if asym > SYMMETRY_TOL * max(scale, 1.0):
        raise NotSymmetric(
            f"matrix asymmetry {asym:.3e} exceeds tolerance {SYMMETRY_TOL:g}"
        )
    # kill sub-tolerance drift so rotations see an exactly symmetric matrix
    return 0.5 * (m + m.T)


@functools.lru_cache(maxsize=64)
def _round_robin(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin tournament on n indices as (rounds, pairs) arrays P < Q.

    Circle method on an even count m (n, or n + 1 with a phantom index
    that sits out one pair per round): index m-1 stays fixed while the
    rest rotate, so round r pairs m-1 with r and (r+i) with (r-i) mod
    m-1. Every pair p < q meets exactly once per sweep and no index
    appears twice in a round, which makes a round's rotations disjoint.
    """
    m = n + (n % 2)
    r = np.arange(m - 1)[:, None]
    i = np.arange(1, m // 2)[None, :]
    left = np.concatenate([r, (r + i) % (m - 1)], axis=1)
    right = np.concatenate([np.full_like(r, m - 1), (r - i) % (m - 1)], axis=1)
    p, q = np.minimum(left, right), np.maximum(left, right)
    if m != n:
        # drop each round's pair with the phantom index n
        keep = q != n
        p = p[keep].reshape(m - 1, -1)
        q = q[keep].reshape(m - 1, -1)
    p.flags.writeable = False
    q.flags.writeable = False
    return p, q


def _jacobi(m: np.ndarray) -> tuple[np.ndarray, float, int]:
    a = _check_symmetric(m)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy(), 0.0, 0

    norm_f = float(np.linalg.norm(a))
    if norm_f == 0.0:
        return np.zeros(n), 0.0, 0
    target = OFFDIAG_TOL_FACTOR * norm_f
    rounds_p, rounds_q = _round_robin(n)

    sweeps = 0
    off = _offdiag_frobenius(a)
    while off > target and sweeps < MAX_SWEEPS:
        # early sweeps skip pivots far below the current off-diagonal mass;
        # late sweeps rotate every nonzero pivot to finish the cleanup
        skip = 0.2 * off / (n * n) if sweeps < 4 else 0.0
        for p, q in zip(rounds_p, rounds_q):
            apq = a[p, q]
            live = np.abs(apq) > skip
            if not live.all():
                p, q, apq = p[live], q[live], apq[live]
                if p.size == 0:
                    continue
            app = a[p, p]
            aqq = a[q, q]
            # theta^2 overflows past 1e154; there the asymptotic small root
            # 0.5/theta replaces the overflowed branch
            with np.errstate(over="ignore"):
                theta = (aqq - app) / (2.0 * apq)
                t = np.where(theta < 0.0, -1.0, 1.0) / (
                    np.abs(theta) + np.sqrt(theta * theta + 1.0)
                )
            big = np.abs(theta) > 1.0e154
            if big.any():
                t[big] = 0.5 / theta[big]
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # the rotations of one round touch disjoint rows and columns,
            # so they apply together: rows first, then columns
            row_p = a[p, :]
            row_q = a[q, :]
            a[p, :] = c[:, None] * row_p - s[:, None] * row_q
            a[q, :] = s[:, None] * row_p + c[:, None] * row_q
            col_p = a[:, p]
            col_q = a[:, q]
            a[:, p] = col_p * c - col_q * s
            a[:, q] = col_p * s + col_q * c
            # diagonal updates use the exact transfer t*apq instead of
            # the rounded two-sided rotation
            a[p, p] = app - t * apq
            a[q, q] = aqq + t * apq
            a[p, q] = 0.0
            a[q, p] = 0.0
        sweeps += 1
        off = _offdiag_frobenius(a)

    if off > target:
        raise NoConvergence(residual=off, sweeps=sweeps)
    return a.diagonal().copy(), off, sweeps


def symmetric_eigenvalues(m: np.ndarray) -> EigenSpectrum:
    """All eigenvalues of a symmetric matrix, ascending.

    Converged when the off-diagonal Frobenius norm falls to 1e-12 of the
    matrix Frobenius norm, within 100 sweeps.

    Raises:
        NotSymmetric: if the input deviates from symmetry beyond 1e-9.
        NoConvergence: if 100 sweeps do not reach the target residual.
    """
    diag, off, sweeps = _jacobi(m)
    values = np.sort(diag)
    values.flags.writeable = False
    return EigenSpectrum(values=values, max_offdiag_residual=off, sweeps=sweeps)
