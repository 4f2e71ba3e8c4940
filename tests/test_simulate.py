"""Synthetic draws from the autoregressive model."""

import numpy as np
import pytest

from moransar import simulate
from moransar.autocorr import moran_index
from moransar.errors import DegenerateZeroField, InputError, SingularResolvent
from moransar.eigen import symmetric_eigenvalues
from moransar.simulate import simulate_sar
from moransar.spatial_data import standardize, weights_from_distances


def ring_distances(n, seed=0):
    rng = np.random.default_rng(seed)
    d = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    d[iu] = rng.uniform(0.5, 3.0, size=iu[0].size)
    return d + d.T


class TestBasicDraws:
    def test_shape_and_determinism(self):
        d = ring_distances(7)
        a = simulate_sar(d, a=1.0, rho=2.0, noise_sd=0.5, seed=42)
        b = simulate_sar(d, a=1.0, rho=2.0, noise_sd=0.5, seed=42)
        assert a.n == 7
        np.testing.assert_array_equal(a.values, b.values)
        c = simulate_sar(d, a=1.0, rho=2.0, noise_sd=0.5, seed=43)
        assert np.any(c.values != a.values)

    def test_noiseless_solves_the_model_exactly(self):
        # (Id - rho W) x = a o must hold to machine precision
        d = ring_distances(6)
        w = weights_from_distances(d)
        rho, a = 3.0, 2.0
        raw = simulate_sar(d, a=a, rho=rho, noise_sd=0.0, seed=0)
        lhs = (np.eye(6) - rho * w.matrix) @ raw.values
        np.testing.assert_allclose(lhs, a * np.ones(6), rtol=0, atol=1e-12)

    def test_rho_zero_skips_the_eigensolve(self, monkeypatch):
        # every gap |1 - rho*lambda| is 1 at rho = 0, so no solve is needed
        d = ring_distances(8)
        expected = simulate_sar(d, a=1.0, rho=0.0, noise_sd=0.5, seed=11)

        def forbidden(m):
            raise AssertionError("eigensolve at rho = 0")

        monkeypatch.setattr(simulate, "symmetric_eigenvalues", forbidden)
        raw = simulate_sar(d, a=1.0, rho=0.0, noise_sd=0.5, seed=11)
        assert raw.values.tobytes() == expected.values.tobytes()
        with pytest.raises(AssertionError, match="eigensolve"):
            simulate_sar(d, a=1.0, rho=0.5, noise_sd=0.5, seed=11)

    def test_standardizable_batch(self):
        d = ring_distances(9, seed=3)
        for seed in range(100):
            raw = simulate_sar(d, a=1.0, rho=1.5, noise_sd=0.5, seed=seed)
            z = standardize(raw)  # must never collapse to zero variance
            assert abs(z.values @ z.values - 9) < 1e-9


class TestValidation:
    @pytest.mark.parametrize(
        "a, rho, noise_sd",
        [(np.nan, 0.0, 1.0), (-np.inf, 0.0, 1.0), (1.0, np.inf, 1.0),
         (1.0, np.nan, 1.0), (1.0, 0.0, np.nan), (1.0, 0.0, np.inf)],
    )
    def test_non_finite_parameters(self, a, rho, noise_sd):
        with pytest.raises(InputError, match="must be finite"):
            simulate_sar(ring_distances(4), a=a, rho=rho, noise_sd=noise_sd)

    def test_negative_noise(self):
        with pytest.raises(InputError):
            simulate_sar(ring_distances(4), a=1.0, rho=0.0, noise_sd=-0.1)

    def test_negative_seed(self):
        with pytest.raises(InputError, match="seed must be nonnegative"):
            simulate_sar(ring_distances(4), a=1.0, rho=0.0, noise_sd=1.0, seed=-3)

    def test_zero_field(self):
        with pytest.raises(DegenerateZeroField):
            simulate_sar(ring_distances(4), a=0.0, rho=1.0, noise_sd=0.0)

    def test_singular_resolvent(self):
        d = ring_distances(5)
        w = weights_from_distances(d)
        lam_max = symmetric_eigenvalues(w.matrix).largest
        with pytest.raises(SingularResolvent):
            simulate_sar(d, a=1.0, rho=1.0 / lam_max, noise_sd=0.5)

    def test_rho_near_but_not_at_pole_is_fine(self):
        d = ring_distances(5)
        w = weights_from_distances(d)
        lam_max = symmetric_eigenvalues(w.matrix).largest
        raw = simulate_sar(d, a=1.0, rho=0.9 / lam_max, noise_sd=0.1, seed=0)
        assert raw.n == 5


class TestModelDirection:
    def test_rho_sign_moves_realized_index(self):
        # strong positive rho pushes the realized index up relative to
        # strong negative rho, on average over seeds
        d = ring_distances(12, seed=8)
        w = weights_from_distances(d)
        lam_max = symmetric_eigenvalues(w.matrix).largest
        lam_min = symmetric_eigenvalues(w.matrix).smallest

        def mean_index(rho):
            acc = 0.0
            for seed in range(40):
                raw = simulate_sar(d, a=0.0, rho=rho, noise_sd=1.0, seed=seed)
                z = standardize(raw)
                acc += moran_index(z, w)
            return acc / 40

        up = mean_index(0.95 / lam_max)
        down = mean_index(0.95 / lam_min)
        assert up > down


class TestExactMoments:
    """The draws against distributions known in closed form."""

    DRAWS = 2000

    def test_independent_draws_match_normality_moments_of_the_index(self):
        # at rho = 0 the sizes are i.i.d. normal, so I has the normality
        # moments of Cliff & Ord (1981): E[I] = -1/(n-1) and
        # E[I^2] = (n^2 S1 - n S2 + 3 S0^2) / ((n^2 - 1) S0^2)
        n = 12
        d = ring_distances(n, seed=4)
        w = weights_from_distances(d)
        v = w.matrix
        s0 = float(v.sum())
        s1 = 0.5 * float(np.sum((v + v.T) ** 2))
        s2 = float(np.sum((v.sum(axis=0) + v.sum(axis=1)) ** 2))
        mean = -1.0 / (n - 1)
        second = (n * n * s1 - n * s2 + 3.0 * s0 * s0) / ((n * n - 1) * s0 * s0)
        index = np.array([
            moran_index(standardize(simulate_sar(d, a=3.0, rho=0.0, noise_sd=0.8,
                                                 seed=seed)), w)
            for seed in range(self.DRAWS)
        ])
        se_mean = np.sqrt((second - mean * mean) / self.DRAWS)
        assert abs(index.mean() - mean) <= 4.0 * se_mean
        se_second = np.std(index**2, ddof=1) / np.sqrt(self.DRAWS)
        assert abs(np.mean(index**2) - second) <= 4.0 * se_second

    def test_recovered_noise_is_chi_squared(self):
        # ((Id - rho W) x - a o) / sigma is the standard normal noise, so
        # its squared norm is chi^2_n: mean n, variance 2n, and fourth
        # central moment 12 n (n + 4)
        n, a, sigma = 10, 2.0, 0.7
        d = ring_distances(n, seed=6)
        w = weights_from_distances(d)
        rho = 0.6 / symmetric_eigenvalues(w.matrix).largest
        resolvent = np.eye(n) - rho * w.matrix
        noise = np.array([
            (resolvent @ simulate_sar(d, a=a, rho=rho, noise_sd=sigma, seed=seed).values
             - a) / sigma
            for seed in range(self.DRAWS)
        ])
        norms = np.sum(noise**2, axis=1)
        assert abs(norms.mean() - n) <= 4.0 * np.sqrt(2.0 * n / self.DRAWS)
        se_var = np.sqrt((12.0 * n * (n + 4) - 4.0 * n * n) / self.DRAWS)
        assert abs(norms.var(ddof=1) - 2.0 * n) <= 4.0 * se_var
        # consecutive seeds draw independent noise
        lag1 = np.corrcoef(noise[:-1, 0], noise[1:, 0])[0, 1]
        assert abs(lag1) <= 4.0 / np.sqrt(self.DRAWS)
