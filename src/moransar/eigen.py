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
   and m the column's length, is left unreflected and its tail dropped;
   its rank-2 update is by zero vectors, which changes no bit. A
   reflected column's squared norm then exceeds 4 eps^2, far from
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
   count(hi). One kernel, ``_sturm_counts``, runs the pivot recurrence
   q_i = (d_i - x) - e_i^2 / q_{i-1} for every pass, over all its
   shifts together. The pivots are not guarded: IEEE infinities carry a
   zero pivot, which counts as nonnegative when it is +0 and passes the
   count to the next row's -inf (Demmel, Dhillon & Ren, ETNA 3, 1995).
   A count needs only each pivot's sign bit, so pivots are kept for a
   block of rows and counted together: two numpy calls per row, in
   memory bounded by ``PIVOT_BLOCK`` pivots. Each multisection pass
   splits every distinct bracket at 64 shifts, and a bracket's counts at
   its ends tell how many eigenvalues it holds. Once every unfinished
   bracket holds one, bisection gains only 6 bits a pass, so one Newton
   phase takes over (Barth, Martin & Wilkinson select indices the same
   way; so does LAPACK's dstebz with RANGE='I'): asked for slopes, the
   same kernel also runs the differentiated recurrence, which gives f'/f
   of f(x) = det(T - xI) at one point per eigenvalue, and each step's
   count also tightens the bracket. A final Sturm pass, through the same
   call, certifies every refined value by a window of 3/4 the target
   around it; a value that fails keeps its tightened bracket and goes
   back to multisection. Repeated eigenvalues share a bracket to the
   end, so they never enter Newton's phase. Every bracket ends at most a
   few ulps of the block's norm wide.

With ``extremes=True`` the caller gets only the ends of the spectra of A
and A^2 from the same reduction: one Sturm count at 0 per block finds the
eigenvalues either side of 0, and only those and the block's least and
greatest keep brackets. Newton's phase starts once each unfinished
tracked bracket holds one eigenvalue, the untracked ones counted too,
and, while the block tracks only some of its indices, not before three
passes, when each bracket is 1/65^3 of the block's Gershgorin interval
wide. Four tracked eigenvalues are often isolated after one split, and
from brackets 1/65 of the interval wide Newton's steps can leave some
unfinished, costing the selected solve more passes than the whole one.

A stack of k matrices of one size, shape (k, n, n), is solved in one
call, each member bit for bit as it would be alone. The reduction runs
one sweep over every member, batching the copy and rank-2 update of
their trailing blocks. The blocks of one length, across the stack, then
advance in lockstep, each with its own brackets and phases: a round
calls the one kernel once for all their multisection passes (rows of
shifts, counts alone) and once for all their Newton steps and
certificates (one vector of points, counts and slopes), so at the sizes
of ``moransar verify`` (n <= 40, where a pass costs numpy calls per row
more than arithmetic) W and W'W share most of their calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import NoConvergence, NotSymmetric, NumericalError

SYMMETRY_TOL = 1e-9
SHIFTS_PER_BRACKET = 64
MAX_PASSES = 32  # a 65-way split reaches 4 eps ||T|| in about 9 passes
SELECTED_SPLITS = 3  # passes before a partially tracked block's Newton phase
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

    The spectrum is whole unless ``indices`` is set: then ``values`` holds
    only the eigenvalues at those places of the ascending spectrum
    (``symmetric_eigenvalues(..., extremes=True)``), which always include
    the first and the last, so ``smallest``, ``largest`` and ``n`` read as
    for a whole spectrum.

    ``widest_bracket`` is the width of the widest final bracket (0.0 when
    every block was 1x1 or 2x2): each value is its bracket's midpoint. A
    bracket is at most 4 eps ||T|| wide, and one certified after Newton's
    phase about 3/4 of that; a partial spectrum counts only the brackets
    it kept. ``sweeps`` is the number of passes of the Sturm recurrence
    (multisection passes, Newton steps, the certificate pass and a partial
    solve's count at 0), summed over the tridiagonal's blocks. ``dropped``
    is the sum of the 2-norms of every column tail and coupling discarded
    as below rounding, in the input's scale (0.0 when none was). Up to the
    rounding of the Householder reduction, each value lies within
    ``dropped`` plus half its bracket of an eigenvalue of the input.
    """

    values: np.ndarray = field(repr=False)
    widest_bracket: float
    sweeps: int
    dropped: float
    indices: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        """The order of the matrix: a partial spectrum holds index n - 1."""
        return self.values.shape[0] if self.indices is None else int(self.indices[-1]) + 1

    @property
    def smallest(self) -> float:
        return float(self.values[0])

    @property
    def largest(self) -> float:
        return float(self.values[-1])


def _member(j: int, stacked: bool) -> str:
    return f"stack matrix {j}" if stacked else "matrix"


def _check_symmetric(a: np.ndarray, stacked: bool) -> np.ndarray:
    """The stack made exactly symmetric; raises before any member is solved."""
    if a.shape[1] != a.shape[2]:
        prefix = f"{_member(0, stacked)}: " if stacked else ""
        raise NotSymmetric(f"{prefix}expected a square matrix, got shape {a.shape[1:]}")
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        j = int(np.argmin(finite))
        raise NotSymmetric(f"{_member(j, stacked)} has non-finite entries")
    # halve first: m + m.T and m - m.T overflow for entries near the float limit
    half = 0.5 * a
    flipped = half.transpose(0, 2, 1)
    with np.errstate(over="ignore"):
        asym = 2.0 * np.max(np.abs(half - flipped), axis=(1, 2), initial=0.0)
    # relative to the largest entry, so the verdict does not depend on scale
    bad = asym > SYMMETRY_TOL * np.max(np.abs(a), axis=(1, 2), initial=0.0)
    if bad.any():
        j = int(np.argmax(bad))
        raise NotSymmetric(
            f"{_member(j, stacked)} asymmetry {asym[j]:.3e} exceeds tolerance "
            f"{SYMMETRY_TOL:g}"
        )
    # kill sub-tolerance drift so the reflections see an exactly symmetric matrix
    return half + flipped


def _tridiagonalize(
    a: np.ndarray, tol: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals and off-diagonals of Q'AQ for a stack (k, n, n), and the
    norm dropped from each member; ``tol`` holds one tolerance per member.

    A column whose tail below the subdiagonal has 2-norm at most
    tol * sqrt(m), m the column's length below the diagonal, is taken as
    already tridiagonal: the tail is dropped and no reflection runs. That
    moves each eigenvalue by at most the tail's norm (Weyl), which is
    summed into the member's dropped norm.

    One sweep of reflections runs over every member for every column.
    Each member's Householder vector and its product with the trailing
    block are formed as for a lone matrix (the product is a BLAS call per
    member either way); the copy of the trailing blocks and the rank-2
    update, the work of order m^2 per member, run batched over the stack,
    elementwise, so each member gets the bits it would get alone. A
    member whose column is dropped takes v = w = +0 in that update, which
    leaves its trailing block bit for bit as it was.

    Requires tol >= 2 eps max|a|, which ``symmetric_eigenvalues`` meets:
    it passes entries of magnitude below 1, the largest at least 1/2, and
    tol = 4 eps ||A||_F >= 2 eps. Then nothing underflows: a reflected
    column has ||x||^2 > tol^2 m >= 4 eps^2, so v'v is normal and beta =
    2 / v'v finite, and the squares of tail entries that underflow sum to
    below an ulp of it. Nothing overflows either: every entry of a
    trailing block stays at most ||A||_F <= n.
    """
    k, n = a.shape[:2]
    d = np.empty((k, n))
    e = np.zeros((k, max(n - 1, 0)))
    dropped = np.zeros(k)
    limits = tol.tolist()
    # the rank-2 update's outer product and its sum with its transpose live
    # in buffers made once: a fresh (n-1)^2 temporary per column is large
    # enough for glibc malloc to map and unmap it every time (~12 page
    # faults per column at n = 150)
    vw = np.empty(k * e.shape[1] ** 2)
    update = np.empty_like(vw)
    for c in range(n - 2):
        m = n - 1 - c
        # H B H with H = I - beta v v' is B - v w' - w v'; the trailing
        # blocks are copied out contiguous, so the products and the update
        # run over contiguous arrays instead of strided rows
        v = a[:, 1:, 0].copy()
        b = a[:, 1:, 1:].copy()
        w = np.empty_like(v)
        d[:, c] = a[:, 0, 0]
        # the tail's largest entry bounds its norm from below, so only a
        # tail already that small pays for the norm
        tails = np.abs(v[:, 1:]).max(axis=1).tolist()
        # each member's vectors, by the operations a lone matrix runs
        for j, x in enumerate(v):
            bound = limits[j] * math.sqrt(m)
            if tails[j] <= bound:
                # hypot: a tail near 1e-170 would square to zero
                norm = math.hypot(*x[1:].tolist())
                if norm <= bound:
                    # column already tridiagonal up to rounding: no
                    # reflection, and v = w = +0 make the update subtract
                    # +0.0, which keeps every bit of the block (-0.0 too),
                    # so an exact block structure survives exactly
                    e[j, c] = x[0]
                    dropped[j] += norm
                    x[:] = 0.0
                    w[j] = 0.0
                    continue
            alpha = -math.copysign(math.sqrt(float(x @ x)), x[0])
            x[0] -= alpha
            beta = 2.0 / float(x @ x)
            e[j, c] = alpha
            p = beta * (b[j] @ x)
            np.subtract(p, (0.5 * beta * float(p @ x)) * x, out=w[j])
        # v w' + w v' as v w' plus its transpose: w_i v_j and v_j w_i are
        # the same float, so each sum is the one both products give
        size = k * m * m
        outer = np.multiply(v[:, :, None], w[:, None, :], out=vw[:size].reshape(k, m, m))
        b -= np.add(outer, outer.transpose(0, 2, 1), out=update[:size].reshape(k, m, m))
        a = b
    d[:, max(n - 2, 0) :] = a[:, -2:, -2:].diagonal(axis1=1, axis2=2)
    if n >= 2:
        e[:, -1] = a[:, -1, -2]
    return d, e, dropped


def _broadcast_rows(
    d: np.ndarray, e2: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """d and e2 shaped so that row i meets every shift of its tridiagonal.

    A lone tridiagonal's e2[i] stays a scalar, the cheapest divisor.
    """
    if d.ndim == 1:
        return d[:, None], e2
    if x.ndim == 1:
        return d, e2
    return d[:, :, None], e2[:, :, None]


def _sturm_counts(
    d: np.ndarray, e2: np.ndarray, shifts: np.ndarray, slopes: bool = False,
    lone: list[int] | None = None,
):
    """Eigenvalues below each shift, for one tridiagonal or g of one length,
    and with ``slopes`` also f'/f at each shift, f(x) = det(T - xI).

    One tridiagonal comes as d and e2 of shape (m,), with e2[i] =
    e[i-1]**2, and shifts of shape (s,). For g of them, column j of ``d``
    and ``e2``, shape (m, g), holds tridiagonal j and row j of ``shifts``,
    shape (g, s), its shifts; with shifts of shape (g,), shift j alone.
    The counts (and slopes) come back in the shifts' shape.

    The pivots q_i = (d[i] - x) - e2[i] / q_{i-1} of the LDL'
    factorization of T - xI run one recurrence step per row for all
    shifts at once, counting pivots whose sign bit is set. Each shift sees
    only its own tridiagonal's entries, so its count is the one a lone
    call would give. No pivot is guarded: a pivot of exactly +0 counts as
    nonnegative, and the next one, -inf, counts the eigenvalue instead
    (Kahan 1966; Demmel, Dhillon & Ren, ETNA 3, 1995). Every e2[i] past
    the first is nonzero, so no step forms 0/0.

    A pivot's sign can be read after the recurrence has moved on, so the
    rows run in blocks of at most ``PIVOT_BLOCK`` pivots, held in one
    buffer: one call forms d[i] - x for the whole block, each row then
    costs a divide and a subtract in place, and one call counts the
    block's sign bits.

    f is the product of the pivots, so f'/f is the sum of u_i = q_i'/q_i,
    and differentiating the recurrence gives u_i = (r_i u_{i-1} - 1) / q_i
    with r_i = e2[i] / q_{i-1}; at an exact zero pivot u turns inf or NaN,
    and the caller's safeguard takes a bisection step instead. The terms
    are kept for every row and summed at the end. numpy sums several
    columns of them row by row but a lone column pairwise, so the slope at
    each shift listed in ``lone`` (the one point of a tridiagonal that
    asked for one) is summed alone, as it would be unstacked.
    """
    x = shifts
    m = d.shape[0]
    rows = max(1, min(m, PIVOT_BLOCK // max(x.size, 1)))
    count = np.zeros(x.shape, dtype=np.int64)
    r = np.empty(x.shape)
    # row 0 carries the last pivot of the block before, and 1 at first
    pivots = np.empty((rows + 1, *x.shape))
    pivots[0] = 1.0
    # C order: the sum below runs row by row only when the rows are the
    # outer axis in memory
    terms = np.empty((m, *x.shape)) if slopes else None
    u = 0.0  # the slope term before row 0
    d, e2 = _broadcast_rows(d, e2, x)
    # a slope term past a zero pivot may be inf or NaN, which the caller
    # handles; a count never forms a NaN
    quiet = {"all": "ignore"} if slopes else {"divide": "ignore", "over": "ignore"}
    with np.errstate(**quiet):
        for start in range(0, m, rows):
            block = pivots[1 : 1 + min(rows, m - start)]
            np.subtract(d[start : start + rows], x, out=block)
            q = pivots[0]
            for i, (row, coupling) in enumerate(zip(block, e2[start : start + rows]), start):
                np.divide(coupling, q, out=r)
                q = np.subtract(row, r, out=row)
                if slopes:
                    r *= u
                    r -= 1.0
                    u = np.divide(r, q, out=terms[i])
            # a block holds at most PIVOT_BLOCK < 2**16 rows
            count += np.add.reduce(np.signbit(block), axis=0, dtype=np.uint16)
            pivots[0] = q
        if not slopes:
            return count
        total = terms.sum(axis=0)
        for j in lone or ():
            total[j] = terms[:, j].sum(axis=0)
    return count, total


def _newton(
    lo: np.ndarray, hi: np.ndarray, live: np.ndarray, index: np.ndarray,
    target: float, budget: int,
):
    """Refine isolated brackets by Newton's method; returns passes used.

    A generator, like ``_multisection``: it yields each vector of points
    it needs counts at, and takes back the counts and the slopes.
    ``live`` lists the brackets to refine and ``index`` the eigenvalue
    each of them holds, alone. Each step's Sturm count tightens the
    bracket, and the step x - f/f' is taken only when it lands strictly
    inside; otherwise the point moves to the bracket's midpoint. An index stops once its
    Newton correction is at most target/4. One certificate pass then
    counts at x -+ 3/8 target: where count(x - h) <= k < count(x + h) the
    index takes that window as its bracket, at most the target wide
    because one ulp of x is at most target/4. Brackets that fail keep what
    the counts tightened, so multisection can finish them. ``lo`` and
    ``hi`` are updated in place.
    """
    x = 0.5 * (lo[live] + hi[live])
    active = np.arange(live.size)
    passes = 0
    while active.size and passes < min(NEWTON_STEPS, budget):
        k = live[active]
        point = x[active]
        counts, slopes = yield point
        passes += 1
        below = counts <= index[active]
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
        counts, _ = yield window
        passes += 1
        sure = (counts[: live.size] <= index) & (index < counts[live.size :])
        lo[live[sure]] = window[: live.size][sure]
        hi[live[sure]] = window[live.size :][sure]
    return passes


def _multisection(d: np.ndarray, e: np.ndarray, want: np.ndarray | None = None):
    """The indices solved, their eigenvalues, the widest bracket and the
    passes, for an unreduced tridiagonal.

    A generator: each pass yields the points it needs Sturm counts at, a
    row of shifts per bracket it splits, and takes back the counts in
    their shape; Newton's phase yields a vector and takes back the counts
    and f'/f there. It returns its result through StopIteration, or
    raises NoConvergence. ``_lockstep`` runs many of them side by side.

    ``want`` lists the indices to solve, ascending; None means all of
    them. Eigenvalue k (ascending) owns the bracket [lo[k], hi[k]) with
    count(lo[k]) <= k < count(hi[k]). Until Newton's phase, brackets are
    pieces of one partition of the Gershgorin interval, and ``lo`` is
    nondecreasing in k, so the indices that share a bracket form a run of
    equal ``lo``: each pass splits every distinct bracket wider than the
    target into 65 pieces, and each of its indices takes the piece that
    holds it. The counts at each bracket's ends tell how many eigenvalues
    it holds, wanted or not; once every unfinished bracket holds one (and,
    when ``want`` leaves some indices out, after at least
    ``SELECTED_SPLITS`` passes), one Newton phase refines them all.
    Newton's phase only shrinks the brackets it leaves unfinished, so they
    stay ordered and are split on as before. Newton's steps and its
    certificate count against ``MAX_PASSES`` like any other pass.
    """
    m = d.shape[0]
    radius = np.zeros(m)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lower = float(np.min(d - radius))
    upper = float(np.max(d + radius))
    norm = max(abs(lower), abs(upper))
    target = WIDTH_TOL_FACTOR * np.finfo(float).eps * norm

    index = np.arange(m) if want is None else want
    # a block that tracks only some of its indices often isolates them
    # after one split, too wide for Newton's steps to finish: it enters
    # Newton's phase only after SELECTED_SPLITS passes
    entry = 0 if index.size == m else SELECTED_SPLITS
    lo = np.full(index.size, lower - target)
    hi = np.full(index.size, upper + target)
    # count(lo) and count(hi) of each bracket until Newton's phase
    below = np.zeros(index.size, dtype=np.int64)
    above = np.full(index.size, m, dtype=np.int64)
    fractions = np.arange(1, SHIFTS_PER_BRACKET + 1) / (SHIFTS_PER_BRACKET + 1)
    passes = 0
    refined = False
    while passes < MAX_PASSES:
        live = (hi - lo > target).nonzero()[0]
        if not live.size:
            break
        left = lo[live]
        starts = np.empty(live.size, dtype=bool)
        starts[0] = True
        np.not_equal(left[1:], left[:-1], out=starts[1:])
        if not refined and passes >= entry and (above[live] - below[live] == 1).all():
            # every unfinished bracket holds one eigenvalue and, in a
            # partial block, has been split often enough
            budget = MAX_PASSES - passes
            passes += yield from _newton(lo, hi, live, index[live], target, budget)
            refined = True
            continue
        owner = starts.cumsum() - 1
        first = live[starts]
        left = lo[first]
        right = hi[first]
        shifts = left[:, None] + (right - left)[:, None] * fractions
        # rounding may break the count's monotonicity; restore it so
        # every index falls in exactly one piece
        counts = np.maximum.accumulate((yield shifts), axis=1)
        piece = (counts[owner] <= index[live, None]).sum(axis=1)
        edges = np.concatenate([left[:, None], shifts, right[:, None]], axis=1)
        lo[live] = edges[owner, piece]
        hi[live] = edges[owner, piece + 1]
        if not refined:
            tallies = np.concatenate([below[first, None], counts, above[first, None]], axis=1)
            below[live] = tallies[owner, piece]
            above[live] = tallies[owner, piece + 1]
        passes += 1

    widest = float(np.max(hi - lo))
    if widest > target:
        raise NoConvergence(widest=widest, sweeps=passes)
    return index, 0.5 * (lo + hi), widest, passes


def _lockstep(d: np.ndarray, e: np.ndarray, extremes: bool = False) -> tuple[list, list]:
    """``_multisection`` on g unreduced tridiagonals of one length m at once.

    Column j of ``d`` (m, g) and ``e`` (m-1, g) is tridiagonal j. Each
    solves every index or, with ``extremes``, its least and greatest and
    the two either side of 0, which one Sturm count at 0 over all g finds
    first. Each keeps its own multisection, Newton, certificate and
    fallback state, and runs the passes it would run alone. They advance
    in rounds, and each round makes at most two calls of the one kernel,
    ``_sturm_counts``: one for the multisection passes, whose rows are the
    brackets they split (64 shifts each), and one with slopes for the
    Newton steps and certificates, whose points form one vector. Each row
    or point carries its own tridiagonal's column of d and e2, so nothing
    is padded. A tridiagonal alone in a call runs the one-tridiagonal form
    of the kernel, as a solve of one matrix always did.

    Returns the counts at 0 (None each without ``extremes``) and, for
    each tridiagonal, (indices, values, widest, passes) or the
    NoConvergence it ended in.
    """
    m, g = d.shape
    e2 = np.concatenate([np.zeros((1, g)), e * e])
    below = [None] * g
    wants = [None] * g
    if extremes:
        below = _sturm_counts(d, e2, np.zeros(g)).tolist()
        wants = [np.array(sorted({0, max(c - 1, 0), min(c, m - 1), m - 1})) for c in below]
    runs = [_multisection(d[:, j], e[:, j], wants[j]) for j in range(g)]
    outcomes: list = [None] * g
    asked: list = [None] * g
    replies: list = [None] * g
    waiting = list(range(g))
    while waiting:
        for j in waiting:
            try:
                asked[j] = runs[j].send(replies[j])
            except StopIteration as done:
                outcomes[j], asked[j] = done.value, None
            except NoConvergence as failure:
                outcomes[j], asked[j] = failure, None
        waiting = [j for j in waiting if asked[j] is not None]
        for slopes in (False, True):
            kin = [j for j in waiting if (asked[j].ndim == 1) is slopes]
            if not kin:
                continue
            if len(kin) == 1:
                [j] = kin
                points = asked[j]
                reply = _sturm_counts(d[:, j], e2[:, j], points.ravel(), slopes)
                replies[j] = reply if slopes else reply.reshape(points.shape)
                continue
            rows = [asked[j] for j in kin]
            sizes = [len(r) for r in rows]
            ends = list(accumulate(sizes))
            owner = np.repeat(kin, sizes)
            lone = [end - 1 for end, size in zip(ends, sizes) if size == 1]
            reply = _sturm_counts(d[:, owner], e2[:, owner], np.concatenate(rows), slopes, lone)
            for j, start, end in zip(kin, [0, *ends], ends):
                if slopes:
                    replies[j] = reply[0][start:end], reply[1][start:end]
                else:
                    replies[j] = reply[start:end]
    return below, outcomes


def _ends_and_zero_sides(values: np.ndarray, negative: np.ndarray):
    """The smallest and largest eigenvalue and the two either side of 0,
    ascending, with their indices in the whole spectrum.

    ``values`` holds a member's eigenvalues where its blocks solved them
    and NaN elsewhere; ``negative`` marks those its blocks counted below
    0, solved or not. The k counted below 0 take indices 0..k-1, so index
    k-1 is the greatest of them and index k the least of the rest.
    """
    n = values.size
    k = int(np.count_nonzero(negative))
    picked = {}
    if k:
        picked[k - 1] = np.nanmax(values[negative])
    if k < n:
        picked[k] = np.nanmin(values[~negative])
    picked[0] = np.nanmin(values)
    picked[n - 1] = np.nanmax(values)
    indices = np.array(sorted(picked))
    return np.sort([picked[i] for i in indices.tolist()]), indices


def symmetric_eigenvalues(
    m: np.ndarray, *, extremes: bool = False
) -> EigenSpectrum | tuple[EigenSpectrum, ...]:
    """All eigenvalues of a symmetric matrix, ascending, or with
    ``extremes`` only the ends of the spectra of A and of A^2.

    Each eigenvalue of a block larger than 2x2 is the midpoint of a
    Sturm bracket at most 4 eps ||T|| wide, where ||T|| is the block's
    Gershgorin bound. Work below rounding is skipped with one tolerance,
    tol = 4 eps ||A||_F of the power-of-two-scaled input: a reduction
    column whose tail has norm at most tol sqrt(m) is not reflected, and
    T splits wherever |e_i| <= tol. Up to the reduction's own rounding,
    each value lies within ``dropped`` (the sum of what was discarded)
    plus half its bracket of an eigenvalue of A.

    With ``extremes`` the spectrum is partial: it holds the smallest and
    the largest eigenvalue and the two nearest 0 from below and from
    above (so the least and greatest square are among them), at most
    four values, and ``indices`` gives their places in the whole
    spectrum. The reduction is the same; then one Sturm count at 0 per
    block larger than 2x2 finds, in that block, the eigenvalues either
    side of 0, and its brackets are kept for those and its two ends
    alone. Each value is certified as in a whole solve, but it need not
    equal that solve's bit for bit: Newton's phase starts once the
    tracked brackets are isolated and, in a block that tracks only some
    of its indices, split three times, which can be a different pass.

    A stack of k matrices of one size, shape (k, n, n), returns a tuple
    of k spectra, each bit for bit the one its matrix gets alone: one
    Householder sweep and one series of Sturm passes serve the whole
    stack. Errors then name the stack matrix they concern; every member
    is checked before any is solved.

    Raises:
        NotSymmetric: if the input is not a square matrix or a stack of
            them, has non-finite entries, or deviates from symmetry by
            more than 1e-9 of its largest entry.
        NoConvergence: if a bracket is still wider than its target after
            ``MAX_PASSES`` passes.
        NumericalError: if an eigenvalue's magnitude exceeds the largest
            float.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3):
        raise NotSymmetric(
            f"expected a square matrix or a stack of them, got shape {a.shape}"
        )
    stacked = a.ndim == 3
    a = _check_symmetric(a if stacked else a[None], stacked)
    k, n = a.shape[:2]
    # scaling by a power of two is exact and keeps the squares in the
    # reduction and in the Sturm recurrence clear of overflow and underflow
    exponents = np.frexp(np.max(np.abs(a), axis=(1, 2), initial=0.0))[1]
    scaled = np.ldexp(a, -exponents[:, None, None])
    # ||A||_F is invariant under the reduction and bounds ||T||_2; the
    # scaled entries are at most 1, so their squares cannot overflow
    tol = np.array([
        DROP_TOL_FACTOR * np.finfo(float).eps * math.sqrt(float(flat @ flat))
        for flat in scaled.reshape(k, n * n)
    ])
    d, e, dropped = _tridiagonalize(scaled, tol)

    # each block's values go where the block sits, so the sort below sees
    # them in the order a solve of one matrix always produced
    values = d.copy()
    lengths: dict[int, list[tuple[int, int]]] = {}
    for j in range(k):
        # the largest scaled entry is at least 1/2, so tol >= 2 eps and
        # every coupling whose square underflows splits too: the Sturm
        # recurrence never sees 0/0
        negligible = (np.abs(e[j]) <= tol[j]).nonzero()[0]
        if n > 2 and not negligible.size:
            lengths.setdefault(n, []).append((j, 0))
            continue
        dropped[j] += float(np.abs(e[j, negligible]).sum())
        edges = np.array([0, *(negligible + 1).tolist(), n])
        starts, sizes = edges[:-1], np.diff(edges)
        # a 1x1 block is its own eigenvalue; a 2x2 block has a closed form
        pair = starts[sizes == 2]
        mid = 0.5 * (d[j, pair] + d[j, pair + 1])
        r = np.hypot(0.5 * (d[j, pair] - d[j, pair + 1]), e[j, pair])
        values[j, pair] = mid - r
        values[j, pair + 1] = mid + r
        for start, size in zip(starts.tolist(), sizes.tolist()):
            if size > 2:
                lengths.setdefault(size, []).append((j, start))
    # the exact small blocks' eigenvalues below 0; each larger block's
    # count replaces its entries
    negative = values < 0.0 if extremes else None
    # every larger block of one length, across the stack, bisects side by side
    widest = np.zeros(k)
    passes = np.zeros(k, dtype=np.int64)
    failures: dict[int, tuple[int, NoConvergence]] = {}
    for size, places in lengths.items():
        blocks_d = np.stack([d[j, start : start + size] for j, start in places], axis=1)
        blocks_e = np.stack([e[j, start : start + size - 1] for j, start in places], axis=1)
        below, outcomes = _lockstep(blocks_d, blocks_e, extremes)
        for (j, start), c, outcome in zip(places, below, outcomes):
            if extremes:
                negative[j, start : start + size] = np.arange(size) < c
                values[j, start : start + size] = np.nan
                passes[j] += 1
            if isinstance(outcome, NoConvergence):
                # a solve of one matrix stops at its first such block
                if j not in failures or start < failures[j][0]:
                    failures[j] = (start, outcome)
                continue
            index, solved, width, count = outcome
            values[j, start + index] = solved
            widest[j] = max(widest[j], width)
            passes[j] += count

    spectra = []
    for j in range(k):
        if j in failures:
            failure = failures[j][1]
            raise NoConvergence(failure.widest, failure.sweeps, member=j if stacked else None)
        indices = None
        if extremes and n:
            values_j, indices = _ends_and_zero_sides(values[j], negative[j])
        else:
            values_j = np.sort(values[j])
        top = float(np.max(np.abs(values_j))) if n else 0.0
        mantissa, power = math.frexp(top)
        exponent = int(exponents[j])
        if power + exponent > np.finfo(float).maxexp:
            digits = math.log10(mantissa) + (power + exponent) * math.log10(2.0)
            prefix = f"{_member(j, stacked)}: " if stacked else ""
            raise NumericalError(
                f"{prefix}an eigenvalue of magnitude {10.0 ** (digits % 1.0):.3f}"
                f"e+{math.floor(digits)} exceeds the float range"
            )
        values_j = np.ldexp(values_j, exponent)
        values_j.flags.writeable = False
        spectra.append(EigenSpectrum(
            values=values_j,
            widest_bracket=float(np.ldexp(widest[j], exponent)),
            sweeps=int(passes[j]),
            dropped=float(np.ldexp(dropped[j], exponent)),
            indices=indices,
        ))
    return tuple(spectra) if stacked else spectra[0]
