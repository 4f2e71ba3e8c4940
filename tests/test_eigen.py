"""The built-in Householder and Sturm-multisection eigensolver against
external and analytic oracles."""

import itertools
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from moransar.bounds import bounds_report
from moransar import eigen
from moransar.eigen import MAX_PASSES, symmetric_eigenvalues
from moransar.errors import NoConvergence, NotSymmetric, NumericalError
from moransar.pipeline import EIGEN_TOL
from moransar.sar import fit_sar_ols
from moransar.spatial_data import prepare, weights_from_distances
from moransar.verification import random_instance


def random_symmetric(seed, n, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(0.0, scale, size=(n, n))
    return 0.5 * (m + m.T)


def _round_robin(n):
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
        keep = q != n
        p = p[keep].reshape(m - 1, -1)
        q = q[keep].reshape(m - 1, -1)
    return p, q


def jacobi_eigenvalues(m, max_sweeps=50):
    """Cyclic Jacobi rotations in round-robin order, ascending.

    A second oracle that shares no step with the solver under test and
    calls no LAPACK eigensolver. It stops once the off-diagonal Frobenius
    norm is 1e-12 of the matrix's; pivots below 1e-18 of it are left
    alone, which also keeps theta^2 from overflowing.
    """
    a = np.array(m, dtype=float)
    norm_f = float(np.linalg.norm(a))
    rounds = _round_robin(a.shape[0])
    for _ in range(max_sweeps):
        if np.linalg.norm(a - np.diag(np.diag(a))) <= 1e-12 * norm_f:
            return np.sort(np.diag(a))
        for p, q in zip(*rounds):
            live = np.abs(a[p, q]) > 1e-18 * norm_f
            p, q = p[live], q[live]
            if p.size == 0:
                continue
            apq, app, aqq = a[p, q], a[p, p], a[q, q]
            theta = (aqq - app) / (2.0 * apq)
            t = np.where(theta < 0.0, -1.0, 1.0) / (
                np.abs(theta) + np.sqrt(theta * theta + 1.0)
            )
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # the rotations of one round touch disjoint rows and columns
            row_p, row_q = a[p, :], a[q, :]
            a[p, :] = c[:, None] * row_p - s[:, None] * row_q
            a[q, :] = s[:, None] * row_p + c[:, None] * row_q
            col_p, col_q = a[:, p], a[:, q]
            a[:, p] = col_p * c - col_q * s
            a[:, q] = col_p * s + col_q * c
            a[p, p] = app - t * apq
            a[q, q] = aqq + t * apq
            a[p, q] = 0.0
            a[q, p] = 0.0
    raise AssertionError(f"Jacobi oracle did not converge in {max_sweeps} sweeps")


def row_by_row_sturm_counts(d, e2, shifts):
    """The Sturm count as one recurrence step per row over all shifts.

    The solver's kernel before it ran rows in blocks: five numpy calls per
    row, and the same IEEE operations on the same operands, so its counts
    must equal the kernel's exactly. Shapes as the kernel takes them: one
    tridiagonal's d and e2 with a vector of shifts, or column j of d and
    e2 as tridiagonal j with row j of the shifts, or with shift j alone.
    """
    if d.ndim > 1 and shifts.ndim > 1:
        d, e2 = d[:, :, None], e2[:, :, None]
    count = np.zeros(shifts.shape, dtype=np.int64)
    q = np.ones(shifts.shape)
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(d.shape[0]):
            q = (d[i] - shifts) - e2[i] / q
            count += np.signbit(q)
    return count


def column(d, e2):
    """One tridiagonal as the kernels take it: a single column of d and e2."""
    return np.asarray(d, dtype=float)[:, None], np.asarray(e2, dtype=float)[:, None]


def tridiagonalize_one(m, tol):
    """The reduction of one matrix, run as a stack of one."""
    d, e, dropped = eigen._tridiagonalize(np.asarray(m, dtype=float)[None], np.array([tol]))
    return d[0], e[0], dropped[0]


class TestAgainstNumpyOracle:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34, 40])
    def test_random_matrices(self, n):
        m = random_symmetric(n, n)
        spectrum = symmetric_eigenvalues(m)
        ref = np.linalg.eigvalsh(m)
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.max(np.abs(spectrum.values - ref)) <= 1e-10 * scale

    def test_tiny_entry_matrix(self):
        # entries around 1e-8: the convergence metric must not drown in
        # cancellation noise at this scale
        m = random_symmetric(99, 12, scale=1e-8)
        spectrum = symmetric_eigenvalues(m)
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(spectrum.values - ref)) <= 1e-18

    def test_weight_matrices_from_deck(self, deck):
        for raw, dist in deck[:8]:
            weights = prepare(raw, dist).weights
            spectrum = symmetric_eigenvalues(weights.matrix)
            ref = np.linalg.eigvalsh(weights.matrix)
            assert np.max(np.abs(spectrum.values - ref)) <= 1e-12

    def test_bracket_width_certifies_the_error(self, deck):
        # each value is a bracket midpoint; the widest bracket plus the
        # rounding of the reduction bounds its distance from the oracle
        eps = np.finfo(float).eps
        for raw, dist in deck:
            w = prepare(raw, dist).weights.matrix
            spectrum = symmetric_eigenvalues(w)
            allowance = spectrum.widest_bracket + w.shape[0] * eps * np.linalg.norm(w)
            assert spectrum.widest_bracket > 0.0
            assert np.max(np.abs(spectrum.values - np.linalg.eigvalsh(w))) <= allowance

    def test_underflowing_householder_column(self, far_clusters):
        _, dist = far_clusters
        w = weights_from_distances(dist).matrix
        gap = np.max(np.abs(symmetric_eigenvalues(w).values - np.linalg.eigvalsh(w)))
        assert gap <= 1e-14 * np.max(np.abs(w))

    def test_random_n300(self):
        m = random_symmetric(300, 300)
        spectrum = symmetric_eigenvalues(m)
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(spectrum.values - ref)) <= 1e-12 * float(np.abs(ref).max())


class TestAnalyticOracles:
    def test_two_site_exact(self):
        spectrum = symmetric_eigenvalues(np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert spectrum.smallest == -0.5
        assert spectrum.largest == 0.5

    def test_chain_cubic_roots(self, chain):
        # for a zero-diagonal symmetric 3x3 with off-diagonals a, b, c the
        # characteristic polynomial is -x^3 + (a^2+b^2+c^2) x + 2abc
        _, dist = chain
        w = weights_from_distances(dist).matrix
        a, b, c = w[0, 1], w[0, 2], w[1, 2]
        roots = np.sort(np.roots([-1.0, 0.0, a * a + b * b + c * c, 2 * a * b * c]))
        spectrum = symmetric_eigenvalues(w)
        np.testing.assert_allclose(spectrum.values, roots, rtol=0, atol=1e-12)

    def test_diagonal_matrix(self):
        spectrum = symmetric_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_array_equal(spectrum.values, [-1.0, 2.0, 3.0])

    def test_one_by_one(self):
        spectrum = symmetric_eigenvalues(np.array([[4.5]]))
        np.testing.assert_array_equal(spectrum.values, [4.5])

    def test_rank_one_outer_product(self):
        v = np.array([1.0, -2.0, 0.5, 3.0])
        spectrum = symmetric_eigenvalues(np.outer(v, v))
        assert spectrum.largest == pytest.approx(float(v @ v), rel=1e-13)
        assert np.all(np.abs(spectrum.values[:-1]) <= 1e-12)

    @pytest.mark.parametrize("n", [3, 40, 150])
    def test_equal_distances_multiplicity(self, n):
        # W = (J - I)/(n(n-1)): 1/n once and -1/(n(n-1)) n-1 times
        w = weights_from_distances(np.ones((n, n)) - np.eye(n)).matrix
        expected = np.full(n, -1.0 / (n * (n - 1)))
        expected[-1] = 1.0 / n
        spectrum = symmetric_eigenvalues(w)
        assert np.max(np.abs(spectrum.values - expected)) <= 1e-15

    def test_split_blocks_come_back_exact(self):
        # the tridiagonal splits at the block edges; 1x1 and 2x2 blocks
        # are solved in closed form, the 5x5 block by multisection
        inner = random_symmetric(11, 5)
        m = np.zeros((10, 10))
        m[0, 0] = 2.0
        m[1:3, 1:3] = [[3.0, 4.0], [4.0, -3.0]]
        m[3:8, 3:8] = inner
        m[8:10, 8:10] = [[2.0, 1.0], [1.0, 2.0]]
        values = symmetric_eigenvalues(m).values
        exact = [-5.0, 1.0, 2.0, 3.0, 5.0]
        assert all(np.count_nonzero(values == x) == 1 for x in exact)
        rest = np.sort(values[~np.isin(values, exact)])
        np.testing.assert_allclose(rest, np.linalg.eigvalsh(inner), rtol=0, atol=1e-14)


class TestInvariants:
    def test_ascending_order(self):
        spectrum = symmetric_eigenvalues(random_symmetric(5, 20))
        assert np.all(np.diff(spectrum.values) >= 0.0)

    def test_trace_preserved(self):
        m = random_symmetric(6, 25)
        spectrum = symmetric_eigenvalues(m)
        scale = max(1.0, float(np.abs(m).max()))
        assert abs(float(spectrum.values.sum()) - float(np.trace(m))) <= 1e-12 * scale * 25

    def test_power_of_two_scale_is_exact(self):
        # entries near 1e-211 or 1e211 square out of range unless the
        # solver rescales; a power-of-two rescale changes no bit
        m = random_symmetric(8, 6)
        base = symmetric_eigenvalues(m).values
        for k in (-700, -530, -1, 1, 530, 700):
            scaled = symmetric_eigenvalues(np.ldexp(m, k)).values
            assert np.array_equal(scaled, np.ldexp(base, k))

    def test_gram_spectrum_is_squared_spectrum(self, deck):
        raw, dist = deck[0]
        weights = prepare(raw, dist).weights
        w = weights.matrix
        spec_w = symmetric_eigenvalues(w)
        spec_gram = symmetric_eigenvalues(w.T @ w)
        np.testing.assert_allclose(
            spec_gram.values, np.sort(spec_w.values**2), rtol=0, atol=1e-9
        )

    def test_convergence_metadata(self):
        spectrum = symmetric_eigenvalues(random_symmetric(7, 30))
        assert spectrum.sweeps <= MAX_PASSES
        assert spectrum.widest_bracket >= 0.0

    def test_pass_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(eigen, "MAX_PASSES", 2)
        with pytest.raises(NoConvergence, match="after 2 multisection passes"):
            symmetric_eigenvalues(random_symmetric(7, 30))


def assert_certified(m, expected=None):
    """Ascending, and within the widest bracket plus n eps ||m|| of eigvalsh
    (and of ``expected``, which carries the multiplicities, when given)."""
    m = np.asarray(m, dtype=float)
    spectrum = symmetric_eigenvalues(m)
    allowance = spectrum.widest_bracket + m.shape[0] * np.finfo(float).eps * np.linalg.norm(m)
    assert np.all(np.diff(spectrum.values) >= 0.0)
    for reference in (np.linalg.eigvalsh(m), expected):
        if reference is not None:
            assert np.max(np.abs(spectrum.values - reference)) <= allowance
    return spectrum


def tridiagonal(d, e):
    return np.diag(np.asarray(d, dtype=float)) + np.diag(e, 1) + np.diag(e, -1)


def drop_tolerance(m):
    """The solver's tolerance for an input whose largest entry lies in
    [1/2, 1), so that its power-of-two scaling is the identity."""
    flat = np.asarray(m, dtype=float).ravel()
    return eigen.DROP_TOL_FACTOR * np.finfo(float).eps * np.sqrt(flat @ flat)


def multisection_sizes(monkeypatch):
    """Record the size of every block the solver bisects."""
    sizes = []

    def spy(d, e, want=None):
        sizes.append(d.shape[0])
        return real(d, e, want)

    real = eigen._multisection
    monkeypatch.setattr(eigen, "_multisection", spy)
    return sizes


class TestUnguardedSturmCount:
    def test_underflowing_coupling_splits_into_exact_blocks(self, monkeypatch):
        # e**2 = 1e-340 is 0 in floating point: a 1x1 and a 2x2 block
        sizes = multisection_sizes(monkeypatch)
        m = [[1.0, 1e-170, 0.0], [1e-170, 2.0, 1.0], [0.0, 1.0, 3.0]]
        spectrum = assert_certified(m, [1.0, 2.5 - np.hypot(0.5, 1.0), 2.5 + np.hypot(0.5, 1.0)])
        assert sizes == []
        assert spectrum.values[0] == 1.0
        assert spectrum.widest_bracket == 0.0

    def test_coupling_above_drop_tolerance_keeps_one_block(self, monkeypatch):
        sizes = multisection_sizes(monkeypatch)
        d, e = [0.5, 0.25, 0.75, 0.625, 0.5], [0.5, 0.0, 0.5, 0.5]
        e[1] = np.nextafter(drop_tolerance(tridiagonal(d, e)), np.inf)
        spectrum = assert_certified(tridiagonal(d, e))
        assert sizes == [5]
        assert spectrum.dropped == 0.0

    def test_coupling_at_drop_tolerance_splits(self, monkeypatch):
        # a 2x2 block in closed form and a 3x3 block by multisection
        sizes = multisection_sizes(monkeypatch)
        d, e = [0.5, 0.25, 0.75, 0.625, 0.5], [0.5, 0.0, 0.5, 0.5]
        e[1] = drop_tolerance(tridiagonal(d, e))
        spectrum = assert_certified(tridiagonal(d, e))
        assert sizes == [3]
        assert spectrum.dropped == e[1]

    def test_subnormal_coupling_squared_in_the_recurrence(self):
        # e**2 ~ 1e-320 is subnormal but not zero; the solver would split
        # there, so the recurrence sees it only through _multisection
        d, e = np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([1.0, 1e-160, 1.0, 1.0])
        _, [(_, values, width, _)] = eigen._lockstep(d[:, None], e[:, None])
        # to within 1e-160 the 2x2 block [[1, 1], [1, 2]] and the 3x3
        # block with d = 3, 4, 5 and unit couplings: 4 and 4 -+ sqrt(3)
        root5, root3 = np.sqrt(5.0), np.sqrt(3.0)
        analytic = np.sort([1.5 - root5 / 2, 1.5 + root5 / 2, 4.0 - root3, 4.0, 4.0 + root3])
        allowance = width + d.size * np.finfo(float).eps * np.linalg.norm(tridiagonal(d, e))
        for reference in (analytic, np.linalg.eigvalsh(tridiagonal(d, e))):
            assert np.max(np.abs(np.sort(values) - reference)) <= allowance

    def test_zero_diagonal_chain(self):
        # d = 0, e = 1: eigenvalues 2 cos(k pi / 4), one of them exactly 0
        root2 = np.sqrt(2.0)
        assert_certified(tridiagonal([0.0, 0.0, 0.0], [1.0, 1.0]), [-root2, 0.0, root2])

    def test_wilkinson_w21_plus(self):
        # near-equal eigenvalue pairs and an exact zero on the diagonal
        spectrum = assert_certified(tridiagonal(np.abs(np.arange(-10.0, 11.0)), np.ones(20)))
        assert spectrum.largest == pytest.approx(10.746194182903393, abs=1e-13)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_equal_distances_multiplicity(self, n):
        w = weights_from_distances(np.ones((n, n)) - np.eye(n)).matrix
        expected = np.full(n, -1.0 / (n * (n - 1)))
        expected[-1] = 1.0 / n
        assert_certified(w, expected)

    def test_repeated_diagonal(self):
        values = [2.0, -1.0, 2.0, 0.0, -1.0, 2.0]
        spectrum = assert_certified(np.diag(values), np.sort(values))
        np.testing.assert_array_equal(spectrum.values, np.sort(values))
        # the same spectrum behind a reflection goes through the bisection
        v = np.arange(1.0, 7.0)
        q = np.eye(6) - 2.0 * np.outer(v, v) / (v @ v)
        assert_certified(q @ np.diag(values) @ q.T, np.sort(values))


def graded(n, ratio):
    """Tridiagonal whose diagonal and couplings fall by ``ratio`` per row."""
    scale = ratio ** np.arange(n, dtype=float)
    return tridiagonal(scale, scale[:-1])


def rotated(values, seed):
    """A dense symmetric matrix with the given spectrum."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(values),) * 2))
    return q @ np.diag(values) @ q.T


def spy_on(monkeypatch, name, log=None):
    """Record the calls to an ``eigen`` routine, by name, in ``log``."""
    log = [] if log is None else log
    real = getattr(eigen, name)

    def spy(*args):
        log.append(name)
        return real(*args)

    monkeypatch.setattr(eigen, name, spy)
    return log


def kernel_calls(monkeypatch, slope=None):
    """Record each call of the Sturm kernel as (slopes, points): slopes is
    set for a Newton step or certificate and clear for a multisection pass
    or a count at 0. With ``slope``, every slope the kernel returns is
    replaced by that value."""
    log = []
    real = eigen._sturm_counts

    def spy(d, e2, shifts, slopes=False, lone=None):
        log.append((slopes, shifts.size))
        reply = real(d, e2, shifts, slopes, lone)
        if slopes and slope is not None:
            return reply[0], np.full(shifts.shape, slope)
        return reply

    monkeypatch.setattr(eigen, "_sturm_counts", spy)
    return log


def row_by_row_kernel(monkeypatch):
    """Put the row-by-row recurrence in the kernel's place: every count
    comes from it, and the slopes from the kernel, whose counts must agree
    with it."""
    real = eigen._sturm_counts

    def oracle(d, e2, shifts, slopes=False, lone=None):
        counts = row_by_row_sturm_counts(d, e2, shifts)
        if not slopes:
            return counts
        kernel_counts, kernel_slopes = real(d, e2, shifts, True, lone)
        np.testing.assert_array_equal(kernel_counts, counts)
        return counts, kernel_slopes

    monkeypatch.setattr(eigen, "_sturm_counts", oracle)


class TestNewtonPhase:
    def test_counts_match_sturm_and_slopes_are_log_derivative(self):
        m = random_symmetric(21, 9)
        d, e = np.diag(m).copy(), np.diag(m, 1).copy()
        values = np.linalg.eigvalsh(tridiagonal(d, e))
        d, e2 = column(d, np.concatenate([[0.0], e * e]))
        x = np.linspace(values[0] - 1.0, values[-1] + 1.0, 257)
        counts, slopes = eigen._sturm_counts(d, e2, x[None], slopes=True)
        np.testing.assert_array_equal(counts, eigen._sturm_counts(d, e2, x[None]))
        slopes = slopes[0]
        # f'/f of det(T - xI) = prod(lambda - x) is sum 1 / (x - lambda)
        expected = np.sum(1.0 / (x[:, None] - values), axis=1)
        np.testing.assert_allclose(slopes, expected, rtol=1e-9)

    def test_generic_matrix_is_refined(self, monkeypatch):
        # at least one Newton step and at most NEWTON_STEPS, then the
        # certificate, the only other call that asks for slopes
        calls = kernel_calls(monkeypatch)
        assert_certified(random_symmetric(12, 40))
        newton = [size for slopes, size in calls if slopes]
        assert 2 <= len(newton) <= eigen.NEWTON_STEPS + 1
        assert newton[-1] == 2 * newton[0]

    @pytest.mark.parametrize("slope", [0.0, 1e300, np.nan])
    def test_certificate_rejects_a_false_convergence(self, monkeypatch, slope):
        # slope 0 makes every step a bisection that never converges; 1e300
        # claims convergence at once, at the midpoint of an isolated
        # bracket and so off the eigenvalue; NaN is what a zero pivot
        # leaves. The certificate must turn them back to multisection.
        log = kernel_calls(monkeypatch, slope)
        m = random_symmetric(13, 30)
        spectrum = assert_certified(m)
        assert spectrum.sweeps == len(log) <= MAX_PASSES
        # the certificate pass, at x -+ h of every refined index, then
        # multisection on what it rejected
        newton = [i for i, (slopes, _) in enumerate(log) if slopes]
        assert log[newton[-1]][1] == 2 * log[newton[0]][1]
        assert newton[-1] + 1 < len(log)

    def test_budget_counts_newton_steps(self, monkeypatch):
        # 30 random eigenvalues are isolated within two passes, so Newton
        # starts with two passes left and cannot reach its certificate
        monkeypatch.setattr(eigen, "MAX_PASSES", 4)
        calls = kernel_calls(monkeypatch)
        with pytest.raises(NoConvergence) as err:
            symmetric_eigenvalues(random_symmetric(7, 30))
        assert any(slopes for slopes, _ in calls)
        assert err.value.sweeps == len(calls) == 4

    @pytest.mark.parametrize(
        "m",
        [
            rotated(np.concatenate([1.0 + 1e-12 * np.arange(3), np.linspace(-5.0, 5.0, 17)]), 1),
            rotated(np.repeat(np.linspace(-3.0, 3.0, 10), 2) + np.tile([0.0, 1e-10], 10), 2),
            graded(12, 1e-3),
            graded(12, 1e-1),
        ],
        ids=["cluster_1e-12", "pairs_1e-10", "graded_1e-3", "graded_1e-1"],
    )
    def test_mixed_spectra(self, m):
        assert_certified(m)

    def test_rank_one_and_equal_distances_never_enter_newton(self, monkeypatch):
        # their repeated eigenvalues share a bracket to the end, so they
        # take the pure multisection path: nine passes of the 65-way
        # split, or none when the reduction already split the matrix, as
        # it always does a rank-1 one
        def forbidden(*args):
            raise AssertionError("Newton phase entered")

        monkeypatch.setattr(eigen, "_newton", forbidden)
        rng = np.random.default_rng(4)
        for n in (5, 10, 20, 40):
            v = rng.normal(size=n)
            assert symmetric_eigenvalues(np.outer(v, v)).sweeps in (0, 9)
        for n in (3, 8, 40, 150):
            w = weights_from_distances(np.ones((n, n)) - np.eye(n)).matrix
            assert symmetric_eigenvalues(w).sweeps in (0, 9)


def squared_couplings(e):
    return np.concatenate([[0.0], np.asarray(e, dtype=float) ** 2])


def deck_matrices(deck):
    """W, W'W and the lag's rank-1 outer product of deck instances (the
    solves of one identity-suite instance), then equal-distance weights."""
    for raw, dist in deck[:12]:
        p = prepare(raw, dist)
        w = p.weights.matrix
        yield w
        yield w.T @ w
        yield np.outer(p.lag.values, p.lag.values)
    for n in (3, 8, 40, 150):
        yield weights_from_distances(np.ones((n, n)) - np.eye(n)).matrix


def clustered_weights(n=150, seed=150):
    """Weights of n points in six tight clusters, as in the benchmark's
    large analysis: many near-equal off-diagonal weights."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 10.0, size=(6, 2))
    points = centers[np.arange(n) % 6] + rng.normal(0.0, 0.8, size=(n, 2))
    diff = points[:, None, :] - points[None, :, :]
    return weights_from_distances(np.sqrt((diff * diff).sum(axis=-1))).matrix


def assert_same_spectrum(a, b):
    assert a.values.tobytes() == b.values.tobytes()
    assert a.widest_bracket == b.widest_bracket
    assert a.sweeps == b.sweeps
    assert a.dropped == b.dropped


class TestBlockedSturmKernel:
    """The blocked kernel against the row-by-row recurrence it replaced."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_shifts(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 60))
        d, e2 = column(rng.normal(size=n), squared_couplings(rng.normal(size=n - 1)))
        for shape in [(1,), (257,), (37, 64), (700, 64)]:
            shifts = rng.uniform(-4.0, 4.0, size=shape).reshape(1, -1)
            np.testing.assert_array_equal(
                eigen._sturm_counts(d, e2, shifts), row_by_row_sturm_counts(d, e2, shifts)
            )

    def test_counts_past_255_rows_in_one_block(self):
        # one 600-row block: its sign bits are summed in a narrow integer
        # type, which must hold counts past 255
        rng = np.random.default_rng(600)
        d, e2 = column(rng.normal(size=600), squared_couplings(rng.normal(size=599)))
        shifts = np.array([[-100.0, 0.0, 100.0]])
        assert 600 <= eigen.PIVOT_BLOCK // shifts.size
        counts = eigen._sturm_counts(d, e2, shifts)
        np.testing.assert_array_equal(counts, row_by_row_sturm_counts(d, e2, shifts))
        assert counts[0, 0] == 0 and 255 < counts[0, 1] < 600 and counts[0, 2] == 600
        np.testing.assert_array_equal(eigen._sturm_counts(d, e2, shifts, slopes=True)[0], counts)

    def test_pivot_block_fits_the_block_count_type(self):
        assert eigen.PIVOT_BLOCK < 2**16

    def test_shifts_at_diagonal_entries_and_eigenvalues(self):
        # x = d[i] makes d[i] - x an exact zero, and x = 0, an exact
        # eigenvalue of the zero-diagonal chain, drives its pivots through
        # +0 and -inf; the other eigenvalues are hit to rounding, each
        # shift also one ulp to either side
        cases = [
            ([0.0, 0.0, 0.0], [1.0, 1.0]),
            (np.abs(np.arange(-10.0, 11.0)), np.ones(20)),
            ([1.0, 2.0, 1.0, 2.0, 1.0], [1.0, 1.0, 1.0, 1.0]),
        ]
        for d, e in cases:
            d = np.asarray(d, dtype=float)
            values = np.linalg.eigvalsh(tridiagonal(d, e))
            shifts = np.concatenate([d, values, np.round(values), [0.0, -0.0]])
            shifts = np.concatenate([shifts, np.nextafter(shifts, np.inf),
                                     np.nextafter(shifts, -np.inf)])[None]
            d, e2 = column(d, squared_couplings(e))
            np.testing.assert_array_equal(
                eigen._sturm_counts(d, e2, shifts), row_by_row_sturm_counts(d, e2, shifts)
            )

    def test_underflowing_and_overflowing_quotients(self):
        # e**2 near 1e-320 is subnormal; shifts next to a diagonal entry
        # make tiny pivots whose quotients overflow to inf
        d = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        shifts = np.concatenate([d, np.nextafter(d, np.inf), np.linspace(-1e150, 1e150, 101)])
        d, e2 = column(d, squared_couplings([1.0, 1e-160, 1.0, 1e150]))
        shifts = shifts[None]
        np.testing.assert_array_equal(
            eigen._sturm_counts(d, e2, shifts), row_by_row_sturm_counts(d, e2, shifts)
        )

    @pytest.mark.parametrize("block", [1, 640, 4096])
    def test_pivot_block_changes_no_spectrum(self, deck, monkeypatch, block):
        # 1 runs every row alone; 640 runs a 64-shift pass 10 rows at a
        # time, with a shorter last block; 4096 holds up to 64 such rows
        # and splits only the wider passes
        matrices = [*deck_matrices(deck[:4]), clustered_weights(60), random_symmetric(3, 40)]
        expected = [symmetric_eigenvalues(m) for m in matrices]
        monkeypatch.setattr(eigen, "PIVOT_BLOCK", block)
        for m, spectrum in zip(matrices, expected):
            assert_same_spectrum(symmetric_eigenvalues(m), spectrum)

    def test_row_by_row_oracle_gives_the_same_spectra(self, deck, monkeypatch):
        matrices = list(deck_matrices(deck))
        expected = [symmetric_eigenvalues(m) for m in matrices]
        row_by_row_kernel(monkeypatch)
        for m, spectrum in zip(matrices, expected):
            assert_same_spectrum(symmetric_eigenvalues(m), spectrum)

    @pytest.mark.parametrize("slope", [None, 0.0])
    def test_live_brackets_stay_ordered(self, deck, monkeypatch, slope):
        # the multisection finds shared brackets as runs of equal ``lo``,
        # which holds only while live ``lo`` is nondecreasing in k; slope 0
        # sends every index back from Newton's phase to multisection
        passes = []

        def spy(d, e, want=None):
            # relays the block's requests, and at each multisection pass
            # (not a Newton step or certificate, which ``_newton`` yields)
            # reads the generator's own lo and live
            run = real(d, e, want)
            reply = None
            while True:
                try:
                    request = run.send(reply)
                except StopIteration as done:
                    return done.value
                if run.gi_yieldfrom is None:
                    state = run.gi_frame.f_locals
                    left = state["lo"][state["live"]]
                    assert np.all(np.diff(left) >= 0.0)
                    passes.append(left.size)
                reply = yield request

        real = eigen._multisection
        monkeypatch.setattr(eigen, "_multisection", spy)
        kernel_calls(monkeypatch, slope)
        matrices = [
            *deck_matrices(deck[:6]),
            clustered_weights(),
            tridiagonal(np.abs(np.arange(-10.0, 11.0)), np.ones(20)),
            graded(12, 1e-3),
            rotated(np.concatenate([1.0 + 1e-12 * np.arange(3), np.linspace(-5.0, 5.0, 17)]), 1),
        ]
        for m in matrices:
            assert_certified(m)
        assert len(passes) > len(matrices)

    def test_stacked_rows_count_as_lone_calls(self):
        # rows of shifts, each with its own tridiagonal's column of d and
        # e2, against one lone call per tridiagonal; the slopes of a
        # tridiagonal that asks for one point are summed alone
        rng = np.random.default_rng(17)
        m = 12
        d = rng.normal(size=(m, 3))
        e2 = np.vstack([np.zeros((1, 3)), rng.normal(size=(m - 1, 3)) ** 2])
        shifts = [rng.uniform(-3.0, 3.0, size=s) for s in (64, 5, 1)]
        for j, x in enumerate(shifts):
            rows = [j]
            np.testing.assert_array_equal(
                eigen._sturm_counts(d[:, rows], e2[:, rows], x[None])[0],
                eigen._sturm_counts(d[:, j], e2[:, j], x),
            )
        # a vector of points, each with its tridiagonal's column
        owner = np.repeat([0, 1, 2], [x.size for x in shifts])
        points = np.concatenate(shifts)
        np.testing.assert_array_equal(
            eigen._sturm_counts(d[:, owner], e2[:, owner], points),
            np.concatenate([eigen._sturm_counts(d[:, j], e2[:, j], x) for j, x in enumerate(shifts)]),
        )
        counts, slopes = eigen._sturm_counts(d[:, owner], e2[:, owner], points, True, [69])
        for j, x in enumerate(shifts):
            lone_counts, lone_slopes = eigen._sturm_counts(d[:, j], e2[:, j], x, True)
            np.testing.assert_array_equal(counts[owner == j], lone_counts)
            assert slopes[owner == j].tobytes() == lone_slopes.tobytes()

    @pytest.mark.parametrize("block", [1, 7, 24])
    def test_slopes_across_pivot_blocks(self, monkeypatch, block):
        # a call with slopes whose rows run in several pivot blocks: the
        # counts are the row-by-row recurrence's, and the slopes, carried
        # from block to block, those of a call that holds every row at once
        rng = np.random.default_rng(29)
        m = 40
        d = rng.normal(size=(m, 3))
        e2 = np.vstack([np.zeros((1, 3)), rng.normal(size=(m - 1, 3)) ** 2])
        shifts = [rng.uniform(-3.0, 3.0, size=s) for s in (5, 1, 2)]
        owner = np.repeat([0, 1, 2], [x.size for x in shifts])
        cases = [(d[:, j], e2[:, j], x, None) for j, x in enumerate(shifts)]
        cases.append((d[:, owner], e2[:, owner], np.concatenate(shifts), [5]))
        whole = [eigen._sturm_counts(*case[:3], True, case[3]) for case in cases]
        monkeypatch.setattr(eigen, "PIVOT_BLOCK", block)
        for (dd, ee, x, lone), (_, slopes) in zip(cases, whole):
            assert eigen.PIVOT_BLOCK // x.size < m
            counts, blocked = eigen._sturm_counts(dd, ee, x, True, lone)
            np.testing.assert_array_equal(counts, row_by_row_sturm_counts(dd, ee, x))
            assert blocked.tobytes() == slopes.tobytes()

    def test_memory_of_the_large_solve_is_bounded(self):
        # the n = 150 isolating pass counts at 9024 shifts; holding all of
        # its pivots at once would peak near 12 MB instead of ~1 MB
        w = clustered_weights()
        symmetric_eigenvalues(w)
        tracemalloc.start()
        try:
            symmetric_eigenvalues(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestDropBelowRounding:
    def test_nothing_dropped_on_deck_and_fixtures(self, deck, two_site, chain):
        # a drop would change the spectrum's bits; W and W'W keep them all
        for raw, dist in [two_site, chain, *deck]:
            w = prepare(raw, dist).weights.matrix
            assert symmetric_eigenvalues(w).dropped == 0.0
            assert symmetric_eigenvalues(w.T @ w).dropped == 0.0

    @pytest.mark.parametrize("n", range(3, 41))
    def test_rank_one_collapses(self, n):
        # after one reflection the trailing block is rounding noise: the
        # solve ends in a 2x2 block and a diagonal of noise. The zero
        # eigenvalues carry what was dropped plus the reduction's rounding
        u = np.random.default_rng(n).normal(size=n)
        m = np.outer(u, u)
        spectrum = symmetric_eigenvalues(m)
        assert abs(spectrum.largest - float(u @ u)) <= EIGEN_TOL
        rounding = n * np.finfo(float).eps * np.linalg.norm(m)
        assert np.max(np.abs(spectrum.values[:-1])) <= spectrum.dropped + rounding
        assert spectrum.sweeps <= 2

    @pytest.mark.parametrize("factor", [1.0, 1.3])
    def test_small_column_tail_is_not_reflected(self, factor):
        # column 0's tail (t, t) has norm t sqrt(2), against a bound of
        # tol sqrt(3): at t = tol it is dropped and x[0] kept as e[0]; at
        # 1.3 tol it is reflected, and e[0] = -||x|| takes x[0]'s sign off
        base = tridiagonal([0.5, 0.25, 0.75, 0.625], [0.5, 0.5, 0.5])
        tol = drop_tolerance(base)
        m = base.copy()
        m[0, 2:] = m[2:, 0] = factor * tol
        _, e, dropped = tridiagonalize_one(m, tol)
        if factor == 1.0:
            assert e[0] == 0.5 and dropped == np.hypot(tol, tol)
        else:
            assert e[0] < 0.0 and dropped == 0.0

    def test_smallest_reflected_column_has_no_underflow(self):
        # column 0's tail is one entry just above tol sqrt(m) beside
        # entries near 1e-300 whose squares underflow: the smallest column
        # that is still reflected, and its reflection must stay finite
        n = 8
        m = tridiagonal(0.5 + 0.0625 * np.arange(n), np.full(n - 1, 0.25))
        m[0, 3:] = m[3:, 0] = 1e-300 * np.arange(1, n - 2)
        # tol depends on the entry placed from it: iterate to a fixed point
        tol = 0.0
        while tol != (tol := drop_tolerance(m)):
            m[0, 2] = m[2, 0] = np.nextafter(tol * np.sqrt(n - 1), np.inf)
        assert np.all(m[0, 3:] ** 2 == 0.0)
        d, e, dropped = tridiagonalize_one(m.copy(), tol)
        assert np.all(np.isfinite(d)) and np.all(np.isfinite(e))
        assert e[0] == -np.hypot(m[1, 0], m[2, 0]) and dropped == 0.0
        spectrum = symmetric_eigenvalues(m)
        allowance = (spectrum.dropped + 0.5 * spectrum.widest_bracket
                     + n * np.finfo(float).eps * np.linalg.norm(m))
        assert np.max(np.abs(spectrum.values - np.linalg.eigvalsh(m))) <= allowance

    def test_dropped_is_in_the_input_scale(self):
        u = np.random.default_rng(12).normal(size=12)
        base = symmetric_eigenvalues(np.outer(u, u))
        assert base.dropped > 0.0
        for k in (-600, 600):
            scaled = symmetric_eigenvalues(np.ldexp(np.outer(u, u), k))
            assert scaled.dropped == np.ldexp(base.dropped, k)
            assert np.array_equal(scaled.values, np.ldexp(base.values, k))


class TestAgainstJacobiOracle:
    @pytest.mark.parametrize("n", [2, 3, 7, 20, 40])
    def test_random_matrices(self, n):
        m = random_symmetric(1000 + n, n)
        gap = np.max(np.abs(symmetric_eigenvalues(m).values - jacobi_eigenvalues(m)))
        assert gap <= 1e-14 * np.linalg.norm(m)

    def test_weight_matrices_from_deck(self, deck):
        for raw, dist in deck[:8]:
            w = prepare(raw, dist).weights.matrix
            gap = np.max(np.abs(symmetric_eigenvalues(w).values - jacobi_eigenvalues(w)))
            assert gap <= 1e-14 * np.linalg.norm(w)


class TestRoundRobinSchedule:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_pair_once_per_sweep(self, n):
        rounds_p, rounds_q = _round_robin(n)
        pairs = sorted(zip(rounds_p.ravel().tolist(), rounds_q.ravel().tolist()))
        assert pairs == list(itertools.combinations(range(n), 2))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_rounds_are_disjoint(self, n):
        for p, q in zip(*_round_robin(n)):
            assert np.all(p < q)
            touched = np.concatenate([p, q]).tolist()
            assert len(set(touched)) == len(touched)


class TestLargeClustered:
    def test_n150_weight_matrix(self):
        # six tight clusters give many near-equal off-diagonal weights,
        # the regime the benchmark's large analysis runs in
        rng = np.random.default_rng(150)
        centers = rng.uniform(0.0, 10.0, size=(6, 2))
        points = centers[np.arange(150) % 6] + rng.normal(0.0, 0.8, size=(150, 2))
        diff = points[:, None, :] - points[None, :, :]
        w = weights_from_distances(np.sqrt((diff * diff).sum(axis=-1))).matrix
        spectrum = symmetric_eigenvalues(w)
        assert np.max(np.abs(spectrum.values - np.linalg.eigvalsh(w))) <= 1e-12
        assert spectrum.sweeps < MAX_PASSES


class TestDerivedGramSpectrum:
    def test_range2_endpoints_match_direct_solve(self, deck):
        for raw, dist in deck[:10]:
            p = prepare(raw, dist)
            weights = p.weights
            fit = fit_sar_ols(p)
            report = bounds_report(p, fit.r_squared)
            direct = symmetric_eigenvalues(weights.matrix.T @ weights.matrix)
            tol = 1e-12 * direct.largest
            for verdict in (report.range2.theoretical, report.range2.empirical):
                assert abs(verdict.lower - direct.smallest) <= tol
                assert abs(verdict.upper - direct.largest) <= tol


class TestDeterminism:
    def test_repeat_solve_is_bit_identical(self, deck):
        raw, dist = deck[3]
        weights = prepare(raw, dist).weights
        first = symmetric_eigenvalues(weights.matrix)
        second = symmetric_eigenvalues(weights.matrix)
        assert first.values.tobytes() == second.values.tobytes()
        assert first.widest_bracket == second.widest_bracket
        assert first.sweeps == second.sweeps


class TestInputValidation:
    def test_rejects_non_square(self):
        with pytest.raises(NotSymmetric):
            symmetric_eigenvalues(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(NotSymmetric):
            symmetric_eigenvalues(m)

    @pytest.mark.parametrize(
        "m",
        [
            [[0.0, np.inf], [np.inf, 0.0]],
            [[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[np.nan, 0.0], [0.0, 1.0]],
        ],
    )
    def test_rejects_non_finite(self, m):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NotSymmetric, match="non-finite entries"):
                symmetric_eigenvalues(np.array(m))
        assert caught == []

    def test_accepts_slight_asymmetry(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        spectrum = symmetric_eigenvalues(m)
        assert spectrum.n == 2

    @pytest.mark.parametrize("k", [0, -100, -400, -700])
    def test_asymmetry_is_judged_relative_to_scale(self, k):
        # the tolerance is relative to the largest entry, so an asymmetric
        # matrix is rejected at every scale, not averaged below unit scale
        with pytest.raises(NotSymmetric, match="asymmetry"):
            symmetric_eigenvalues(np.ldexp([[0.0, 1.0], [3.0, 0.0]], k))

    def test_symmetric_near_float_limit_solves(self):
        m = np.array([[1e308, 1.0], [1.0, 1e308]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = symmetric_eigenvalues(m).values
        assert caught == []
        np.testing.assert_array_equal(values, np.linalg.eigvalsh(m))

    def test_asymmetric_near_float_limit_rejected_without_overflow(self):
        m = np.array([[0.0, 1e308], [-1e308, 0.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NotSymmetric, match="asymmetry"):
                symmetric_eigenvalues(m)
        assert caught == []


    def test_eigenvalue_beyond_float_range_raises(self):
        # eigenvalues 0 and 2e308: the entries fit, the spectrum does not
        m = np.array([[1e308, -1e308], [-1e308, 1e308]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match=r"magnitude 2\.000e\+308"):
                symmetric_eigenvalues(m)
        assert caught == []

    def test_largest_float_eigenvalue_still_solves(self):
        top = np.finfo(float).max
        values = symmetric_eigenvalues(np.array([[top, 0.0], [0.0, -top]])).values
        np.testing.assert_array_equal(values, [-top, top])


def lone_and_stacked(matrices):
    """Each matrix solved alone, and the stack of them in one call."""
    return [symmetric_eigenvalues(m) for m in matrices], symmetric_eigenvalues(np.stack(matrices))


class TestStackedSolve:
    """A stack (k, n, n) returns k spectra, each bit for bit its lone solve."""

    def test_deck_stacks(self, deck):
        # W, W'W and the lag's rank-1 outer product: one verify instance
        for raw, dist in deck:
            p = prepare(raw, dist)
            w = p.weights.matrix
            lone, stacked = lone_and_stacked([w, w.T @ w, np.outer(p.lag.values, p.lag.values)])
            assert isinstance(stacked, tuple) and len(stacked) == 3
            for a, b in zip(lone, stacked):
                assert_same_spectrum(a, b)

    def test_member_with_two_blocks_of_one_length(self, monkeypatch):
        # a block-diagonal member splits into two 5x5 blocks that bisect
        # side by side, beside the 10x10 blocks of the other members
        m = np.zeros((10, 10))
        m[:5, :5] = random_symmetric(51, 5)
        m[5:, 5:] = random_symmetric(52, 5)
        matrices = [m, random_symmetric(53, 10), m @ m]
        lone = [symmetric_eigenvalues(x) for x in matrices]
        sizes = multisection_sizes(monkeypatch)
        for a, b in zip(lone, symmetric_eigenvalues(np.stack(matrices))):
            assert_same_spectrum(a, b)
        assert sorted(sizes) == [5, 5, 5, 5, 10]

    def test_member_that_splits(self):
        # 1x1, 2x2, 5x5 and 2x2 blocks next to unsplit members
        m = np.zeros((10, 10))
        m[0, 0] = 2.0
        m[1:3, 1:3] = [[3.0, 4.0], [4.0, -3.0]]
        m[3:8, 3:8] = random_symmetric(11, 5)
        m[8:10, 8:10] = [[2.0, 1.0], [1.0, 2.0]]
        lone, stacked = lone_and_stacked([random_symmetric(12, 10), m, m + np.eye(10)])
        for a, b in zip(lone, stacked):
            assert_same_spectrum(a, b)

    def test_rank_one_member_takes_no_pass(self):
        u = np.random.default_rng(9).normal(size=25)
        lone, stacked = lone_and_stacked([random_symmetric(9, 25), np.outer(u, u)])
        assert stacked[1].sweeps == 0 and stacked[1].dropped > 0.0
        for a, b in zip(lone, stacked):
            assert_same_spectrum(a, b)

    def test_reduction_of_each_member_as_alone(self):
        # (d, e, dropped) bit for bit: the signs of e, which no spectrum
        # shows, included. The split member drops columns 0-2 and reflects
        # at column 3; the rank-1 one reflects once and drops the rest;
        # the last drops column 0 and then reflects on a column that
        # starts with -0.0, which copysign reads
        split = np.zeros((10, 10))
        split[0, 0] = 2.0
        split[1:3, 1:3] = [[3.0, 4.0], [4.0, -3.0]]
        split[3:8, 3:8] = random_symmetric(11, 5)
        split[8:10, 8:10] = [[2.0, 1.0], [1.0, 2.0]]
        u = np.random.default_rng(9).normal(size=10)
        signed = np.zeros((10, 10))
        signed[0, 0] = 0.5
        signed[1:, 1:] = random_symmetric(13, 9)
        signed[1, 2] = signed[2, 1] = -0.0
        members = [split, np.outer(u, u), random_symmetric(12, 10), signed]
        # largest entry in [1/2, 1), as the solver passes it
        members = [np.ldexp(m, -np.frexp(np.abs(m).max())[1]) for m in members]
        tol = np.array([drop_tolerance(m) for m in members])
        d, e, dropped = eigen._tridiagonalize(np.stack(members), tol)
        for j, m in enumerate(members):
            alone = tridiagonalize_one(m, tol[j])
            for got, want in zip((d[j], e[j], dropped[j]), alone):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # alpha = -copysign(norm, -0.0) > 0 only if the -0.0 survived column 0
        assert e[3, 0] == 0.0 and e[3, 1] > 0.0 and dropped[3] == 0.0

    @pytest.mark.parametrize("block", [1, 640, 4096])
    def test_pivot_block_changes_no_member(self, deck, monkeypatch, block):
        stacks = [np.stack([w, w.T @ w]) for w in (prepare(*pair).weights.matrix for pair in deck[:4])]
        expected = [[symmetric_eigenvalues(m) for m in stack] for stack in stacks]
        monkeypatch.setattr(eigen, "PIVOT_BLOCK", block)
        for stack, lone in zip(stacks, expected):
            for a, b in zip(lone, symmetric_eigenvalues(stack)):
                assert_same_spectrum(a, b)

    def test_row_by_row_oracle_gives_the_same_members(self, deck, monkeypatch):
        stacks = [np.stack([w, w.T @ w]) for w in (prepare(*pair).weights.matrix for pair in deck[:6])]
        expected = [[symmetric_eigenvalues(m) for m in stack] for stack in stacks]
        row_by_row_kernel(monkeypatch)
        for stack, lone in zip(stacks, expected):
            for a, b in zip(lone, symmetric_eigenvalues(stack)):
                assert_same_spectrum(a, b)

    def test_members_share_kernel_calls(self, deck, monkeypatch):
        w = prepare(*deck[5]).weights.matrix
        calls = kernel_calls(monkeypatch)
        lone = [symmetric_eigenvalues(m) for m in (w, w.T @ w)]
        alone = len(calls)
        calls.clear()
        symmetric_eigenvalues(np.stack([w, w.T @ w]))
        # one pass of each member is one kernel call when alone
        assert alone == sum(s.sweeps for s in lone)
        assert max(s.sweeps for s in lone) <= len(calls) < alone

    def test_empty_stack(self):
        assert symmetric_eigenvalues(np.zeros((0, 3, 3))) == ()

    def test_errors_name_the_member(self, monkeypatch):
        good = random_symmetric(1, 4)
        bad = good.copy()
        bad[0, 1] = np.nan
        with pytest.raises(NotSymmetric, match="^stack matrix 1 has non-finite entries$"):
            symmetric_eigenvalues(np.stack([good, bad, good]))
        bad = good.copy()
        bad[0, 1] += 1.0
        reductions = spy_on(monkeypatch, "_tridiagonalize")
        with pytest.raises(NotSymmetric, match="^stack matrix 2 asymmetry"):
            symmetric_eigenvalues(np.stack([good, good, bad]))
        assert reductions == []
        with pytest.raises(NotSymmetric, match="^stack matrix 0: expected a square matrix"):
            symmetric_eigenvalues(np.ones((2, 3, 4)))
        for shape in [(3,), (1, 2, 2, 2)]:
            with pytest.raises(NotSymmetric, match="or a stack of them"):
                symmetric_eigenvalues(np.ones(shape))

    def test_numerical_errors_name_the_member(self, monkeypatch):
        huge = np.array([[1e308, -1e308], [-1e308, 1e308]])
        with pytest.raises(NumericalError, match=r"^stack matrix 1: an eigenvalue of magnitude"):
            symmetric_eigenvalues(np.stack([np.eye(2), huge]))
        monkeypatch.setattr(eigen, "MAX_PASSES", 2)
        m = random_symmetric(7, 30)
        with pytest.raises(NoConvergence) as lone:
            symmetric_eigenvalues(m)
        with pytest.raises(NoConvergence, match="^stack matrix 1: ") as stacked:
            symmetric_eigenvalues(np.stack([np.diag(np.arange(30.0)), m]))
        assert stacked.value.member == 1 and lone.value.member is None
        assert (stacked.value.widest, stacked.value.sweeps) == (lone.value.widest, lone.value.sweeps)


def equal_distance_weights(n):
    return weights_from_distances(np.ones((n, n)) - np.eye(n)).matrix


def selection_matrices(deck, far_clusters, two_site, chain):
    """W of the seed-0 deck, of two clusters 1e170 apart (T splits), of
    equal distances (one eigenvalue of multiplicity n-1), of two and
    three sites, and of n = 150 points in tight clusters."""
    for raw, dist in deck:
        yield prepare(raw, dist).weights.matrix
    for _, dist in (far_clusters, two_site, chain):
        yield weights_from_distances(dist).matrix
    for n in (3, 4, 8, 40, 150):
        yield equal_distance_weights(n)
    for seed in (150, 1, 2):
        yield clustered_weights(seed=seed)


class TestSelectedEigenvalues:
    """``extremes=True`` against the whole solve of the same matrix."""

    def test_values_lie_in_the_whole_solves_brackets(self, deck, far_clusters, two_site, chain):
        for m in selection_matrices(deck, far_clusters, two_site, chain):
            whole = symmetric_eigenvalues(m)
            some = symmetric_eigenvalues(m, extremes=True)
            n = m.shape[0]
            k = int(np.count_nonzero(whole.values < 0.0))
            expected = sorted({0, k - 1, k, n - 1} & set(range(n)))
            np.testing.assert_array_equal(some.indices, expected)
            assert some.n == whole.n == n
            assert whole.indices is None
            assert some.dropped == whole.dropped
            # both brackets hold the same eigenvalue of the same T
            allowance = 0.5 * (some.widest_bracket + whole.widest_bracket)
            gap = np.abs(some.values - whole.values[some.indices])
            assert np.all(gap <= allowance)

    def test_a_split_tridiagonal_selects_in_every_block(self, far_clusters, monkeypatch):
        _, dist = far_clusters
        w = weights_from_distances(dist).matrix
        whole = symmetric_eigenvalues(w)
        sizes = multisection_sizes(monkeypatch)
        some = symmetric_eigenvalues(w, extremes=True)
        assert sizes == [4, 4]
        assert some.dropped > 0.0
        allowance = 0.5 * (some.widest_bracket + whole.widest_bracket)
        assert np.all(np.abs(some.values - whole.values[some.indices]) <= allowance)

    def test_multiple_eigenvalue_never_enters_newton(self, monkeypatch):
        # indices 0 and n-2 share the bracket of -1/(n(n-1)) to the end
        def forbidden(*args):
            raise AssertionError("Newton phase entered")

        monkeypatch.setattr(eigen, "_newton", forbidden)
        for n in (3, 8, 40, 150):
            some = symmetric_eigenvalues(equal_distance_weights(n), extremes=True)
            np.testing.assert_array_equal(some.indices, sorted({0, n - 2, n - 1}))
            expected = [-1.0 / (n * (n - 1))] * (some.values.size - 1) + [1.0 / n]
            np.testing.assert_allclose(some.values, expected, rtol=0, atol=1e-15)

    def test_newton_starts_on_brackets_of_one_eigenvalue(self, deck, monkeypatch):
        # the counts at a tracked bracket's ends, recomputed on the block
        # the multisection runs on, differ by exactly one
        entries = []

        def spy(lo, hi, live, index, target, budget):
            state = sys._getframe(1).f_locals
            d, e = state["d"], state["e"]
            e2 = np.concatenate([[0.0], e * e])
            below = eigen._sturm_counts(d, e2, lo[live])
            above = eigen._sturm_counts(d, e2, hi[live])
            np.testing.assert_array_equal(below, index)
            np.testing.assert_array_equal(above, index + 1)
            entries.append(live.size)
            return real(lo, hi, live, index, target, budget)

        real = eigen._newton
        monkeypatch.setattr(eigen, "_newton", spy)
        matrices = [clustered_weights(seed=seed) for seed in (150, 1, 2)]
        matrices += [prepare(raw, dist).weights.matrix for raw, dist in deck[:10]]
        for m in matrices:
            symmetric_eigenvalues(m, extremes=True)
            symmetric_eigenvalues(m)
        assert len(entries) >= len(matrices)

    def test_selected_solves_take_no_more_passes_than_whole_ones(self):
        # on every W of the 150-instance seed-0 deck, a selected solve
        # takes at most the whole solve's passes plus its count at 0 (every
        # one of these W is a single unreduced block)
        selected = whole = 0
        for k in range(150):
            w = prepare(*random_instance(0, k)).weights.matrix
            some, every = symmetric_eigenvalues(w, extremes=True), symmetric_eigenvalues(w)
            assert some.sweeps <= every.sweeps + 1, f"instance {k}"
            selected += some.sweeps
            whole += every.sweeps
        assert selected <= whole + 150

    def test_selected_newton_starts_from_narrow_brackets(self, monkeypatch):
        # on W of seed-0 instance 41 (n = 20) the four tracked eigenvalues
        # are isolated after one split; Newton's phase waits for three
        # splits, when every bracket is 1/65^3 of the Gershgorin interval
        ratios = []

        def spy(lo, hi, live, index, target, budget):
            state = sys._getframe(1).f_locals
            assert state["passes"] == eigen.SELECTED_SPLITS == 3
            width = state["upper"] - state["lower"]
            ratios.append(float(np.max(hi[live] - lo[live])) / width)
            return real(lo, hi, live, index, target, budget)

        real = eigen._newton
        w = prepare(*random_instance(0, 41)).weights.matrix
        assert w.shape == (20, 20)
        every = symmetric_eigenvalues(w)
        monkeypatch.setattr(eigen, "_newton", spy)
        some = symmetric_eigenvalues(w, extremes=True)
        assert ratios and max(ratios) <= 1.1 / 65**3
        assert some.sweeps <= every.sweeps + 1
        allowance = 0.5 * (some.widest_bracket + every.widest_bracket)
        assert np.all(np.abs(some.values - every.values[some.indices]) <= allowance)

    def test_stacked_members_select_as_alone(self, deck):
        w = prepare(*deck[4]).weights.matrix
        matrices = [w, w.T @ w, -w, clustered_weights(n=w.shape[0])]
        lone = [symmetric_eigenvalues(m, extremes=True) for m in matrices]
        for a, b in zip(lone, symmetric_eigenvalues(np.stack(matrices), extremes=True)):
            assert_same_spectrum(a, b)
            np.testing.assert_array_equal(a.indices, b.indices)


class TestIndependentOfLapack:
    def test_no_numpy_eigensolver_on_the_solver_path(self, deck, monkeypatch):
        raw, dist = deck[4]
        p = prepare(raw, dist)
        fit = fit_sar_ols(p)

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy eigensolver called")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        symmetric_eigenvalues(p.weights.matrix)
        bounds_report(p, fit.r_squared)
