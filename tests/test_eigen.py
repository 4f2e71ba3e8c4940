"""The built-in Jacobi eigensolver against external and analytic oracles."""

import itertools

import numpy as np
import pytest

from moransar.bounds import bounds_report
from moransar.eigen import MAX_SWEEPS, _round_robin, symmetric_eigenvalues
from moransar.errors import NotSymmetric
from moransar.sar import fit_sar_ols
from moransar.spatial_data import weights_from_distances

from conftest import prepare


def random_symmetric(seed, n, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(0.0, scale, size=(n, n))
    return 0.5 * (m + m.T)


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
            _, weights, _ = prepare(raw, dist)
            spectrum = symmetric_eigenvalues(weights.matrix)
            ref = np.linalg.eigvalsh(weights.matrix)
            assert np.max(np.abs(spectrum.values - ref)) <= 1e-12


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


class TestInvariants:
    def test_ascending_order(self):
        spectrum = symmetric_eigenvalues(random_symmetric(5, 20))
        assert np.all(np.diff(spectrum.values) >= 0.0)

    def test_trace_preserved(self):
        m = random_symmetric(6, 25)
        spectrum = symmetric_eigenvalues(m)
        scale = max(1.0, float(np.abs(m).max()))
        assert abs(float(spectrum.values.sum()) - float(np.trace(m))) <= 1e-12 * scale * 25

    def test_gram_spectrum_is_squared_spectrum(self, deck):
        raw, dist = deck[0]
        _, weights, _ = prepare(raw, dist)
        w = weights.matrix
        spec_w = symmetric_eigenvalues(w)
        spec_gram = symmetric_eigenvalues(w.T @ w)
        np.testing.assert_allclose(
            spec_gram.values, np.sort(spec_w.values**2), rtol=0, atol=1e-9
        )

    def test_convergence_metadata(self):
        spectrum = symmetric_eigenvalues(random_symmetric(7, 30))
        assert spectrum.sweeps <= 100
        assert spectrum.max_offdiag_residual >= 0.0


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
        assert spectrum.sweeps < MAX_SWEEPS


class TestDerivedGramSpectrum:
    def test_range2_endpoints_match_direct_solve(self, deck):
        for raw, dist in deck[:10]:
            z, weights, lag = prepare(raw, dist)
            fit = fit_sar_ols(z, lag)
            report = bounds_report(z, weights, fit.r_squared)
            direct = symmetric_eigenvalues(weights.matrix.T @ weights.matrix)
            tol = 1e-12 * direct.largest
            for verdict in (report.range2.theoretical, report.range2.empirical):
                assert abs(verdict.lower - direct.smallest) <= tol
                assert abs(verdict.upper - direct.largest) <= tol


class TestDeterminism:
    def test_repeat_solve_is_bit_identical(self, deck):
        raw, dist = deck[3]
        _, weights, _ = prepare(raw, dist)
        first = symmetric_eigenvalues(weights.matrix)
        second = symmetric_eigenvalues(weights.matrix)
        assert first.values.tobytes() == second.values.tobytes()
        assert first.max_offdiag_residual == second.max_offdiag_residual
        assert first.sweeps == second.sweeps


class TestInputValidation:
    def test_rejects_non_square(self):
        with pytest.raises(NotSymmetric):
            symmetric_eigenvalues(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(NotSymmetric):
            symmetric_eigenvalues(m)

    def test_accepts_slight_asymmetry(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        spectrum = symmetric_eigenvalues(m)
        assert spectrum.n == 2
