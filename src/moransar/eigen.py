"""Built-in symmetric eigensolver (Householder tridiagonalization plus
Sturm-sequence multisection and Newton refinement).

Self-contained on purpose: the spectral-range checks must not lean on an
external linear-algebra backend, so tests can compare this solver against
one as an independent oracle. Matrices here are small (n up to a few
hundred).

Three steps:

1. Householder reflections reduce the matrix to a symmetric tridiagonal
   T with diagonal d and off-diagonal e, one rank-2 update of the
   trailing block per column (Householder, "Unitary triangularization of
   a nonsymmetric matrix", J. ACM 5, 1958). Each trailing block is copied
   out contiguous before its update. A column whose tail below the
   subdiagonal has 2-norm at most tol sqrt(m), with tol = 4 eps ||A||_F
   and m the column's length, is left unreflected and its tail dropped.
   A reflected column's squared norm then exceeds 4 eps^2, far from
   underflow, so one power-of-two scaling of the whole input is the only
   rescaling the reduction needs.
2. T splits at every off-diagonal |e_i| <= tol. Dropping an entry moves
   each eigenvalue by at most its norm (Weyl), no more than the
   reduction's own backward error (Wilkinson, "The Algebraic Eigenvalue
   Problem", 1965), and what was dropped is reported. A rank-1 matrix
   thus reduces to one 2x2 block and a diagonal of rounding noise. A 1x1
   block is its own eigenvalue and a 2x2 block has a closed form, so both
   come back exact when the matrix already had that shape.
3. Every larger block is bisected by Sturm counts: the number of negative
   pivots of T - xI is the number of eigenvalues below x (Barth, Martin
   & Wilkinson, "Calculation of the eigenvalues of a symmetric
   tridiagonal matrix by the method of bisection", Numer. Math. 9,
   1967). Eigenvalue k owns one bracket [lo, hi) with count(lo) <= k <
   count(hi). Each pass splits every distinct bracket at many shifts at
   once and runs the recurrence over all shifts together. The pivots
   are not guarded: IEEE infinities carry a zero pivot, which counts as
   nonnegative when it is +0 and passes the count to the next row's
   -inf (Demmel, Dhillon & Ren, ETNA 3, 1995). A count needs only each
   pivot's sign bit, so pivots are kept for a block of rows and counted
   together: two numpy calls per row, in memory bounded by
   ``PIVOT_BLOCK`` pivots. Once no two unfinished
   eigenvalues share a bracket, bisection gains only 6 bits a pass, so
   one Newton phase takes over: the same recurrence, differentiated,
   gives f'/f of f(x) = det(T - xI) at one point per eigenvalue, and
   each step's count also tightens the bracket. A final Sturm pass
   certifies every refined value by a window of 3/4 the target around
   it; a value that fails keeps its tightened bracket and goes back to
   multisection. Repeated eigenvalues share a bracket to the end, so
   they never enter Newton's phase. Every bracket ends at most a few
   ulps of the block's norm wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, NotSymmetric, NumericalError

SYMMETRY_TOL = 1e-9
SHIFTS_PER_BRACKET = 64
MAX_PASSES = 32  # a 65-way split reaches 4 eps ||T|| in about 9 passes
# final bracket width in units of eps * ||T||: absolute, because a target
# relative to each eigenvalue is never met by eigenvalues near zero
WIDTH_TOL_FACTOR = 4.0
# Newton steps per block once every bracket holds one eigenvalue; from an
# isolated bracket the correction falls below target/4 in 2-5 steps
NEWTON_STEPS = 6
# half-width of the certificate window, in units of the target: rounding
# x -+ h adds at most one ulp of x, itself at most target/4, so a window
# of 3/4 stays within the target where one of 1 would not
CERTIFICATE_WINDOW = 0.375
# pivots the Sturm count holds at once (256 KB): a block of rows amortizes
# the per-call cost, and the bound keeps the 9024-shift pass at n = 150
# from holding all of its 1.4 million pivots
PIVOT_BLOCK = 1 << 15
# entries the solver drops as rounding, in units of eps * ||A||_F: one
# reflection's rank-2 update leaves noise of up to ~2 eps ||A||_F (seen on
# rank-1 inputs, where at 1 eps ||A||_F about one solve in 70 kept a noise
# coupling and took 9-14 passes), and 4 matches the bracket width
DROP_TOL_FACTOR = 4.0


@dataclass(frozen=True)
class EigenSpectrum:
    """Real eigenvalues in ascending order plus the solver's certificate.

    ``max_offdiag_residual`` is the width of the widest final bracket (0.0
    when every block was 1x1 or 2x2): each value is its bracket's
    midpoint. A bracket is at most 4 eps ||T|| wide, and one certified
    after Newton's phase about 3/4 of that. ``sweeps`` is the number of passes of the Sturm
    recurrence (multisection passes, Newton steps and the certificate
    pass), summed over the tridiagonal's blocks. ``dropped`` is the sum
    of the 2-norms of every column tail and coupling discarded as below
    rounding, in the input's scale (0.0 when none was). Up to the
    rounding of the Householder reduction, each value lies within
    ``dropped`` plus half its bracket of an eigenvalue of the input.
    """

    values: np.ndarray = field(repr=False)
    max_offdiag_residual: float
    sweeps: int
    dropped: float

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def smallest(self) -> float:
        return float(self.values[0])

    @property
    def largest(self) -> float:
        return float(self.values[-1])


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotSymmetric("matrix has non-finite entries")
    # halve first: m + m.T and m - m.T overflow for entries near the float limit
    half = 0.5 * m
    asym = 2.0 * float(np.max(np.abs(half - half.T))) if m.size else 0.0
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if asym > SYMMETRY_TOL * max(scale, 1.0):
        raise NotSymmetric(
            f"matrix asymmetry {asym:.3e} exceeds tolerance {SYMMETRY_TOL:g}"
        )
    # kill sub-tolerance drift so the reflections see an exactly symmetric matrix
    return half + half.T


def _tridiagonalize(a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Diagonal and off-diagonal of Q'AQ, and the norm dropped.

    A column whose tail below the subdiagonal has 2-norm at most
    tol * sqrt(m), m the column's length below the diagonal, is taken as
    already tridiagonal: the tail is dropped and no reflection runs. That
    moves each eigenvalue by at most the tail's norm (Weyl), which is
    summed into the returned norm.

    Requires tol >= 2 eps max|a|, which ``symmetric_eigenvalues`` meets:
    it passes entries of magnitude below 1, the largest at least 1/2, and
    tol = 4 eps ||A||_F >= 2 eps. Then nothing underflows: a reflected
    column has ||x||^2 > tol^2 m >= 4 eps^2, so v'v is normal and beta =
    2 / v'v finite, and the squares of tail entries that underflow sum to
    below an ulp of it. Nothing overflows either: every entry of a
    trailing block stays at most ||A||_F <= n.
    """
    n = a.shape[0]
    d = np.empty(n)
    e = np.zeros(max(n - 1, 0))
    dropped = 0.0
    # the rank-2 update's two outer products live in buffers made once: a
    # fresh (n-1)^2 temporary per column is large enough for glibc malloc
    # to map and unmap it every time (~12 page faults per column at n = 150)
    vw = np.empty(e.size * e.size)
    wv = np.empty_like(vw)
    for k in range(n - 2):
        d[k] = a[0, 0]
        x = a[1:, 0]
        m = x.size
        tail = float(np.abs(x[1:]).max())
        bound = tol * math.sqrt(m)
        # the tail's largest entry bounds its norm from below, so only a
        # tail already that small pays for the norm (hypot: a tail near
        # 1e-170 would square to zero)
        if tail <= bound:
            norm = math.hypot(*x[1:].tolist())
            if norm <= bound:
                # column already tridiagonal up to rounding: no reflection,
                # so an exact block structure survives exactly
                e[k] = x[0]
                dropped += norm
                a = a[1:, 1:]
                continue
        v = x.copy()
        alpha = -math.copysign(math.sqrt(float(v @ v)), v[0])
        v[0] -= alpha
        beta = 2.0 / float(v @ v)
        # H B H with H = I - beta v v' is B - v w' - w v'; the trailing
        # block is copied out contiguous, so the product and the update
        # run over one contiguous array instead of strided rows
        b = a[1:, 1:].copy()
        p = beta * (b @ v)
        w = p - (0.5 * beta * float(p @ v)) * v
        update = np.multiply.outer(v, w, out=vw[: m * m].reshape(m, m))
        update += np.multiply.outer(w, v, out=wv[: m * m].reshape(m, m))
        b -= update
        e[k] = alpha
        a = b
    d[max(n - 2, 0) :] = a.diagonal()
    if n >= 2:
        e[-1] = a[-1, -2]
    return d, e, dropped


def _sturm_counts(d: np.ndarray, e2: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Eigenvalues of the tridiagonal below each shift; e2[i] = e[i-1]**2.

    The pivots q_i = (d[i] - x) - e2[i] / q_{i-1} of the LDL' factorization
    of T - xI, one recurrence step per row for all shifts at once, counting
    pivots whose sign bit is set. No pivot is guarded: a pivot of exactly
    +0 counts as nonnegative, and the next one, -inf, counts the
    eigenvalue instead (Kahan 1966; Demmel, Dhillon & Ren, ETNA 3, 1995).
    Every e2[i] past the first is nonzero, so no step forms 0/0.

    A pivot's sign can be read after the recurrence has moved on, so the
    rows run in blocks of at most ``PIVOT_BLOCK`` pivots, held in one
    buffer: one call forms d[i] - x for the whole block, each row then
    costs a divide and a subtract in place, and one call counts the
    block's sign bits.
    """
    x = shifts.ravel()
    m = d.shape[0]
    rows = max(1, min(m, PIVOT_BLOCK // max(x.size, 1)))
    count = np.zeros(x.shape, dtype=np.int64)
    r = np.empty(x.shape)
    # row 0 carries the last pivot of the block before, and 1 at first
    pivots = np.empty((rows + 1, x.size))
    pivots[0] = 1.0
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, m, rows):
            block = pivots[1 : 1 + min(rows, m - start)]
            np.subtract.outer(d[start : start + rows], x, out=block)
            q = pivots[0]
            for i, row in enumerate(block, start):
                np.divide(e2[i], q, out=r)
                q = np.subtract(row, r, out=row)
            # a block holds at most PIVOT_BLOCK < 2**16 rows
            count += np.add.reduce(np.signbit(block), axis=0, dtype=np.uint16)
            pivots[0] = q
    return count.reshape(shifts.shape)


def _counts_and_slopes(
    d: np.ndarray, e2: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sturm counts at each point and f'/f there, f(x) = det(T - xI).

    The pivots q_i are those of ``_sturm_counts``, formed by the same
    operations, so the counts are exactly its counts. f is the product of
    the pivots, so f'/f is the sum of u_i = q_i'/q_i, and differentiating
    the pivot recurrence gives u_i = (r_i u_{i-1} - 1) / q_i with r_i =
    e2[i] / q_{i-1}. At an exact zero pivot u turns inf or NaN; the
    caller's safeguard takes a bisection step instead.
    """
    m = d.shape[0]
    pivots = np.subtract.outer(d, x)
    terms = np.empty_like(pivots)
    q = np.ones(x.shape)
    u = np.zeros(x.shape)
    with np.errstate(all="ignore"):
        for i in range(m):
            r = e2[i] / q
            q = np.subtract(pivots[i], r, out=pivots[i])
            r *= u
            r -= 1.0
            u = np.divide(r, q, out=terms[i])
        counts = np.add.reduce(np.signbit(pivots), axis=0, dtype=np.int32)
        return counts, terms.sum(axis=0)


def _newton(
    d: np.ndarray, e2: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    live: np.ndarray, target: float, budget: int,
) -> int:
    """Refine isolated brackets by Newton's method; returns passes used.

    Every index in ``live`` must own its bracket alone. Each step's Sturm
    count tightens the bracket, and the step x - f/f' is taken only when
    it lands strictly inside; otherwise the point moves to the bracket's
    midpoint. An index stops once its Newton correction is at most
    target/4. One certificate pass then counts at x -+ 3/8 target: where
    count(x - h) <= k < count(x + h) the index takes that window as its
    bracket, at most the target wide because one ulp of x is at most
    target/4. Brackets that fail keep what the counts tightened, so
    multisection can finish them. ``lo`` and ``hi`` are updated in place.
    """
    x = 0.5 * (lo[live] + hi[live])
    active = np.arange(live.size)
    passes = 0
    while active.size and passes < min(NEWTON_STEPS, budget):
        k = live[active]
        point = x[active]
        counts, slopes = _counts_and_slopes(d, e2, point)
        passes += 1
        below = counts <= k
        left = np.where(below, point, lo[k])
        right = np.where(below, hi[k], point)
        lo[k] = left
        hi[k] = right
        with np.errstate(divide="ignore", invalid="ignore"):
            correction = 1.0 / slopes
            step = point - correction
            inside = (left < step) & (step < right)
        # written so that a NaN correction keeps the index moving
        moving = ~(np.abs(correction) <= 0.25 * target)
        step = np.where(inside, step, 0.5 * (left + right))
        x[active[moving]] = step[moving]
        active = active[moving]
    if passes < budget:
        h = CERTIFICATE_WINDOW * target
        window = np.concatenate([x - h, x + h])
        counts = _sturm_counts(d, e2, window)
        passes += 1
        sure = (counts[: live.size] <= live) & (live < counts[live.size :])
        lo[live[sure]] = window[: live.size][sure]
        hi[live[sure]] = window[live.size :][sure]
    return passes


def _multisection(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Eigenvalues of an unreduced tridiagonal, the widest bracket, passes.

    Eigenvalue k (ascending) owns the bracket [lo[k], hi[k]) with
    count(lo[k]) <= k < count(hi[k]). Until Newton's phase, brackets are
    pieces of one partition of the Gershgorin interval, and ``lo`` is
    nondecreasing in k, so the indices that share a bracket form a run of
    equal ``lo``: each pass splits every distinct bracket wider than the
    target into 65 pieces, and each of its indices takes the piece that
    holds it. Once no two unfinished indices share a bracket, one Newton
    phase refines them all; it only shrinks the brackets it leaves
    unfinished, so they stay ordered and are split on as before. Newton's
    steps and its certificate count against ``MAX_PASSES`` like any other
    pass.
    """
    m = d.shape[0]
    e2 = np.concatenate([[0.0], e * e])
    radius = np.zeros(m)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lower = float(np.min(d - radius))
    upper = float(np.max(d + radius))
    norm = max(abs(lower), abs(upper))
    target = WIDTH_TOL_FACTOR * np.finfo(float).eps * norm

    lo = np.full(m, lower - target)
    hi = np.full(m, upper + target)
    fractions = np.arange(1, SHIFTS_PER_BRACKET + 1) / (SHIFTS_PER_BRACKET + 1)
    passes = 0
    refined = False
    while passes < MAX_PASSES:
        live = np.flatnonzero(hi - lo > target)
        if not live.size:
            break
        left = lo[live]
        starts = np.empty(live.size, dtype=bool)
        starts[0] = True
        np.not_equal(left[1:], left[:-1], out=starts[1:])
        if not refined and starts.all():
            # every unfinished bracket holds one eigenvalue
            passes += _newton(d, e2, lo, hi, live, target, MAX_PASSES - passes)
            refined = True
            continue
        owner = np.cumsum(starts) - 1
        first = np.flatnonzero(starts)
        left = left[first]
        right = hi[live[first]]
        shifts = left[:, None] + (right - left)[:, None] * fractions
        # rounding may break the count's monotonicity; restore it so
        # every index falls in exactly one piece
        counts = np.maximum.accumulate(_sturm_counts(d, e2, shifts), axis=1)
        piece = np.sum(counts[owner] <= live[:, None], axis=1)
        edges = np.concatenate([left[:, None], shifts, right[:, None]], axis=1)
        lo[live] = edges[owner, piece]
        hi[live] = edges[owner, piece + 1]
        passes += 1

    widest = float(np.max(hi - lo))
    if widest > target:
        raise NoConvergence(residual=widest, sweeps=passes)
    return 0.5 * (lo + hi), widest, passes


def symmetric_eigenvalues(m: np.ndarray) -> EigenSpectrum:
    """All eigenvalues of a symmetric matrix, ascending.

    Each eigenvalue of a block larger than 2x2 is the midpoint of a
    Sturm bracket at most 4 eps ||T|| wide, where ||T|| is the block's
    Gershgorin bound. Work below rounding is skipped with one tolerance,
    tol = 4 eps ||A||_F of the power-of-two-scaled input: a reduction
    column whose tail has norm at most tol sqrt(m) is not reflected, and
    T splits wherever |e_i| <= tol. Up to the reduction's own rounding,
    each value lies within ``dropped`` (the sum of what was discarded)
    plus half its bracket of an eigenvalue of A.

    Raises:
        NotSymmetric: if the input is not square, has non-finite entries,
            or deviates from symmetry beyond 1e-9.
        NoConvergence: if a bracket is still wider than its target after
            ``MAX_PASSES`` passes.
        NumericalError: if an eigenvalue's magnitude exceeds the largest
            float.
    """
    a = _check_symmetric(m)
    # scaling by a power of two is exact and keeps the squares in the
    # reduction and in the Sturm recurrence clear of overflow and underflow
    exponent = int(np.frexp(np.max(np.abs(a)))[1]) if a.size else 0
    scaled = np.ldexp(a, -exponent).reshape(-1)
    # ||A||_F is invariant under the reduction and bounds ||T||_2; the
    # scaled entries are at most 1, so their squares cannot overflow
    tol = DROP_TOL_FACTOR * np.finfo(float).eps * math.sqrt(float(scaled @ scaled))
    d, e, dropped = _tridiagonalize(scaled.reshape(a.shape), tol)
    n = d.shape[0]
    # the largest scaled entry is at least 1/2, so tol >= 2 eps and every
    # coupling whose square underflows splits too: the Sturm recurrence
    # never sees 0/0
    negligible = np.flatnonzero(np.abs(e) <= tol)
    dropped += float(np.abs(e[negligible]).sum())
    edges = [0, *(negligible + 1).tolist(), n] if n else [0]
    parts = [np.zeros(0)]
    widest = 0.0
    passes = 0
    for start, stop in zip(edges[:-1], edges[1:]):
        block_d, block_e = d[start:stop], e[start : stop - 1]
        if stop - start == 1:
            parts.append(block_d)
        elif stop - start == 2:
            mid = 0.5 * (block_d[0] + block_d[1])
            r = np.hypot(0.5 * (block_d[0] - block_d[1]), block_e[0])
            parts.append(np.array([mid - r, mid + r]))
        else:
            values, width, count = _multisection(block_d, block_e)
            parts.append(values)
            widest = max(widest, width)
            passes += count
    values = np.sort(np.concatenate(parts))
    top = float(np.max(np.abs(values))) if n else 0.0
    mantissa, power = math.frexp(top)
    if power + exponent > np.finfo(float).maxexp:
        digits = math.log10(mantissa) + (power + exponent) * math.log10(2.0)
        raise NumericalError(
            f"an eigenvalue of magnitude {10.0 ** (digits % 1.0):.3f}"
            f"e+{math.floor(digits)} exceeds the float range"
        )
    values = np.ldexp(values, exponent)
    values.flags.writeable = False
    return EigenSpectrum(
        values=values,
        max_offdiag_residual=float(np.ldexp(widest, exponent)),
        sweeps=passes,
        dropped=float(np.ldexp(dropped, exponent)),
    )
