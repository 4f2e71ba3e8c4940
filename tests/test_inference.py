"""Significance tests, permutation inference, and residual diagnostics."""

import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from moransar.errors import (
    DegenerateSE,
    InputError,
    MissingCriticalValues,
    ZeroVariance,
)
from moransar.inference import (
    BLOCK,
    BUNDLED_DW_CRITICAL,
    TIE_TOL,
    DwCriticalValues,
    critical_values_for,
    dw_interpret,
    geary_pairwise,
    permutation_test,
    slope_t_test,
    spatial_durbin_watson,
)
from moransar.sar import fit_sar_ols
from moransar.simulate import random_distances
from moransar.spatial_data import RawSizeVector, prepare


def small_instance(n, seed):
    rng = np.random.default_rng(seed)
    raw = RawSizeVector.from_values(rng.uniform(0.5, 10.0, size=n))
    return raw, random_distances(rng, n)


def equal_distance_instance(n):
    # one outlier makes max(z^2) = n - 1, which at n = 40 widens the
    # rounding margin past the 1e-12 tie gap: every draw is re-judged
    raw = RawSizeVector.from_values([1.0] * (n - 1) + [1000.0])
    return prepare(raw, np.ones((n, n)) - np.eye(n))


def replay_draws(z, weights, m, seed):
    """Scalar z'(Wz) of every sampled draw, replaying the block scheme.

    Block k holds min(BLOCK, m - k * BLOCK) draws from default_rng on the
    k-th child of SeedSequence(seed).spawn(ceil(m / BLOCK)); each draw
    is a row of a permuted tile of arange(n).
    """
    zv, w, n = z.values, weights.matrix, z.n
    values = []
    for child in np.random.SeedSequence(seed).spawn(-(-m // BLOCK)):
        size = min(BLOCK, m - len(values))
        rng = np.random.default_rng(child)
        for perm in rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1):
            zp = zv[perm]
            values.append(float(zp @ (w @ zp)))
    return np.array(values)


def scalar_p(z, weights, values):
    """Pseudo-p that the scalar verdicts on the replayed draws give."""
    i_obs = float(z.values @ (weights.matrix @ z.values))
    threshold = abs(i_obs) - TIE_TOL * max(1.0, abs(i_obs))
    hits = int(np.count_nonzero(np.abs(values) >= threshold))
    return (1 + hits) / (len(values) + 1)


def cliff_ord_moments(z, w):
    """Randomization E[I] and E[I^2] of the standard Moran's I (Cliff & Ord 1981).

    The standard index is (n / S0) sum_ij w_ij z_i z_j / sum z_i^2 for a
    centered z and a zero-diagonal W.
    """
    n = z.shape[0]
    s0 = float(w.sum())
    s1 = 0.5 * float(np.sum((w + w.T) ** 2))
    s2 = float(np.sum((w.sum(axis=1) + w.sum(axis=0)) ** 2))
    b2 = n * float(np.sum(z**4)) / float(np.sum(z**2)) ** 2
    second = (
        n * ((n * n - 3 * n + 3) * s1 - n * s2 + 3 * s0**2)
        - b2 * ((n * n - n) * s1 - 2 * n * s2 + 6 * s0**2)
    ) / ((n - 1) * (n - 2) * (n - 3) * s0**2)
    return -1.0 / (n - 1), second


class TestSlopeTTest:
    def test_matches_linregress(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=25)
        y = 0.4 * x + rng.normal(size=25)
        ref = stats.linregress(x, y)
        out = slope_t_test(ref.slope, ref.stderr, 25)
        assert out.p_value == pytest.approx(ref.pvalue, rel=1e-10)
        assert out.method == "t_test"
        assert not out.degenerate

    def test_exact_fit_nonzero_slope(self):
        out = slope_t_test(2.0, 0.0, 2)
        assert out.degenerate
        assert out.p_value == 0.0
        assert math.isinf(out.statistic)

    def test_exact_fit_zero_slope(self):
        out = slope_t_test(0.0, 0.0, 2)
        assert out.degenerate
        assert out.p_value == 1.0

    def test_negative_se_rejected(self):
        with pytest.raises(DegenerateSE):
            slope_t_test(1.0, -0.1, 10)

    def test_positive_se_needs_three_points(self):
        with pytest.raises(DegenerateSE):
            slope_t_test(1.0, 0.5, 2)


class TestPermutationTest:
    def test_two_sites_p_is_one_exactly(self, two_site):
        # permuting two labels either fixes z or flips its sign; the
        # index is unchanged either way, so every relabeling ties
        p = prepare(*two_site)
        z, weights = p.z, p.weights
        exhaustive = permutation_test(z, weights, m=999, seed=0)
        assert exhaustive.p_value == 1.0
        assert exhaustive.exhaustive
        assert exhaustive.permutations_used == 2
        sampled = permutation_test(z, weights, m=1, seed=0)
        assert sampled.p_value == 1.0
        assert not sampled.exhaustive

    def test_exhaustive_when_enumeration_is_cheaper(self, deck):
        raw, dist = next((r, d) for r, d in deck if r.n <= 5)
        p = prepare(raw, dist)
        z, weights = p.z, p.weights
        out = permutation_test(z, weights, m=999, seed=3)
        assert out.exhaustive
        assert out.permutations_used == math.factorial(z.n)
        # exact enumeration is seed-free by construction
        again = permutation_test(z, weights, m=999, seed=77)
        assert again.p_value == out.p_value

    def test_exhaustive_matches_hand_enumeration(self):
        # 1, 3 and 20 blocks of relabelings, the last one short at n = 6, 7;
        # with equal distances every relabeling ties, so p is exactly 1
        for n in (4, 6, 7):
            for p in (prepare(*small_instance(n, seed=5 + n)), equal_distance_instance(n)):
                z, w = p.z.values, p.weights.matrix
                out = permutation_test(p.z, p.weights, m=math.factorial(n))
                assert out.exhaustive
                threaded = permutation_test(p.z, p.weights, m=math.factorial(n), workers=3)
                assert threaded == out
                i_obs = float(z @ (w @ z))
                tol = 1e-12 * max(1.0, abs(i_obs))
                count = 0
                for perm in itertools.permutations(range(n)):
                    zp = z[list(perm)]
                    if abs(float(zp @ (w @ zp))) >= abs(i_obs) - tol:
                        count += 1
                assert out.p_value == count / math.factorial(n)
            assert out.p_value == 1.0

    def test_sampled_tracks_exhaustive(self):
        # Monte-Carlo path (n! > m) against the exact enumeration,
        # within four binomial standard deviations
        raw, dist = small_instance(6, seed=40)
        p = prepare(raw, dist)
        z, weights = p.z, p.weights
        exact = permutation_test(z, weights, m=720, seed=0)
        assert exact.exhaustive
        sampled = permutation_test(z, weights, m=499, seed=21)
        assert not sampled.exhaustive
        sd = math.sqrt(exact.p_value * (1.0 - exact.p_value) / 499)
        assert abs(sampled.p_value - exact.p_value) <= 4.0 * sd + 1.0 / 500

    def test_sampled_hit_count_is_binomial(self):
        # Exact law: at fixed z and W each draw is a uniform permutation of
        # all n!, so a sampled test's hit count (m + 1) p - 1 is
        # Binomial(m, q), q the enumerated p. Over 400 fixed seeds, the mean
        # and the sample variance of the count must lie within 4 standard
        # errors of m q and m q (1 - q). m = 8 BLOCK spans eight blocks:
        # blocks seeded alike would multiply the variance by about 8, which
        # the mean does not see. n = 7 keeps n! = 5040 above m, so the draws
        # are sampled. Both statistics are near normal at 400 seeds, so a
        # correct sampler fails each gate with probability about 6.3e-5:
        # the test's false-alarm rate, over choices of the seeds, is about
        # 1.3e-4.
        raw, dist = small_instance(7, seed=1)
        p = prepare(raw, dist)
        exact = permutation_test(p.z, p.weights, m=5040, seed=0)
        assert exact.exhaustive
        q, m, runs = exact.p_value, 8 * BLOCK, 400
        tests = [permutation_test(p.z, p.weights, m=m, seed=s) for s in range(runs)]
        assert not any(t.exhaustive for t in tests)
        hits = np.array([round((m + 1) * t.p_value) - 1 for t in tests])
        var = m * q * (1.0 - q)
        mu4 = var * (1.0 + 3.0 * (m - 2) * q * (1.0 - q))  # 4th central moment
        var_se = math.sqrt((mu4 - var**2 * (runs - 3) / (runs - 1)) / runs)
        assert abs(hits.mean() - m * q) <= 4.0 * math.sqrt(var / runs)
        assert abs(hits.var(ddof=1) - var) <= 4.0 * var_se

    def test_worker_count_independence(self, deck):
        raw, dist = next((r, d) for r, d in deck if r.n >= 8)
        p = prepare(raw, dist)
        z, weights = p.z, p.weights
        serial = permutation_test(z, weights, m=499, seed=11, workers=1)
        threaded = permutation_test(z, weights, m=499, seed=11, workers=4)
        assert json.dumps(dataclasses.asdict(serial)) == json.dumps(
            dataclasses.asdict(threaded)
        )

    def test_seed_changes_draws(self, deck):
        raw, dist = next((r, d) for r, d in deck if r.n >= 10)
        p = prepare(raw, dist)
        z, weights = p.z, p.weights
        a = permutation_test(z, weights, m=199, seed=1)
        b = permutation_test(z, weights, m=199, seed=2)
        assert a.statistic == b.statistic
        assert a.seed != b.seed

    @pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1, 9999])
    def test_equal_distances_every_block_size_ties(self, m):
        p = equal_distance_instance(40)
        out = permutation_test(p.z, p.weights, m=m, seed=4)
        assert not out.exhaustive
        assert out.p_value == 1.0

    @pytest.mark.parametrize("m", [10, 9999])
    def test_workers_beyond_blocks_change_nothing(self, m):
        p = prepare(*small_instance(30, seed=8))
        serial = permutation_test(p.z, p.weights, m=m, seed=2, workers=1)
        threaded = permutation_test(p.z, p.weights, m=m, seed=2, workers=4)
        assert serial == threaded

    @pytest.mark.parametrize("k", range(24))
    def test_each_sampled_verdict_matches_the_scalar_formula(self, k):
        # n from 8 to 54; every third instance has equal distances, so
        # every draw ties with the observed index
        n = 8 + 2 * k
        if k % 3 == 0:
            p = equal_distance_instance(n)
        else:
            p = prepare(*small_instance(n, seed=100 + k))
        m = 2 * BLOCK + 3 + k
        out = permutation_test(p.z, p.weights, m=m, seed=k, workers=1 + k % 3)
        assert not out.exhaustive
        assert out.p_value == scalar_p(
            p.z, p.weights, replay_draws(p.z, p.weights, m, k)
        )
        if k % 3 == 0:
            assert out.p_value == 1.0

    def test_input_validation(self, two_site):
        p = prepare(*two_site)
        z, weights = p.z, p.weights
        with pytest.raises(InputError):
            permutation_test(z, weights, m=0)
        with pytest.raises(InputError):
            permutation_test(z, weights, workers=0)
        with pytest.raises(InputError, match="seed must be nonnegative"):
            permutation_test(z, weights, seed=-1)


class TestRandomizationMoments:
    """The Cliff-Ord randomization moments of I as an oracle for the draws.

    With z'z = n, sum z = 0 and W summing to 1, z'Wz is the standard
    Moran's I, so its exact randomization mean and variance are known.
    """

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_moments_match_full_enumeration(self, n):
        p = prepare(*small_instance(n, seed=60 + n))
        zv, w = p.z.values, p.weights.matrix
        zp = zv[np.array(list(itertools.permutations(range(n))))]
        values = np.einsum("ij,ij->i", zp @ w, zp)
        mean, second = cliff_ord_moments(zv, w)
        assert abs(values.mean() - mean) <= 1e-12
        assert abs(np.mean(values**2) - second) <= 1e-12

    @pytest.mark.parametrize("n,seed", [(12, 70), (35, 71)])
    def test_sampled_draws_have_the_randomization_moments(self, n, seed):
        p = prepare(*small_instance(n, seed=seed))
        z, weights = p.z, p.weights
        assert abs(float(weights.matrix.sum()) - 1.0) <= 1e-12
        assert abs(float(z.values @ z.values) - n) <= 1e-9
        m = 9999
        values = replay_draws(z, weights, m, seed)
        out = permutation_test(z, weights, m=m, seed=seed)
        assert out.p_value == scalar_p(z, weights, values)

        mean, second = cliff_ord_moments(z.values, weights.matrix)
        variance = second - mean**2
        assert abs(values.mean() - mean) <= 4.0 * math.sqrt(variance / m)
        centered = values - values.mean()
        fourth = float(np.mean(centered**4))
        sample_var = float(np.var(values, ddof=1))
        assert abs(sample_var - variance) <= 4.0 * math.sqrt(
            (fourth - sample_var**2) / m
        )


class TestResidualDiagnostics:
    def test_dw_equals_twice_geary(self, deck):
        for raw, dist in deck[:12]:
            p = prepare(raw, dist)
            z, weights, lag = p.z, p.weights, p.lag
            fit = fit_sar_ols(p)
            if fit.degenerate:
                continue
            dw = spatial_durbin_watson(fit.residuals, weights)
            assert abs(dw.dw - 2.0 * geary_pairwise(fit.residuals, weights)) <= 1e-10
            assert dw.geary_c == dw.dw / 2.0

    def test_dw_of_z_on_two_sites(self, two_site):
        # feeding z itself as the residual vector gives DW = 2 exactly
        p = prepare(*two_site)
        z, weights = p.z, p.weights
        dw = spatial_durbin_watson(z.values, weights)
        assert dw.dw == 2.0
        assert dw.i_e == -1.0

    def test_constant_residuals_rejected(self, two_site):
        weights = prepare(*two_site).weights
        with pytest.raises(ZeroVariance):
            spatial_durbin_watson(np.zeros(2), weights)

    def test_scale_invariance_of_dw(self, deck):
        # standardizing inside makes the statistic scale-free
        raw, dist = deck[1]
        p = prepare(raw, dist)
        z, weights, lag = p.z, p.weights, p.lag
        fit = fit_sar_ols(p)
        a = spatial_durbin_watson(fit.residuals, weights)
        b = spatial_durbin_watson(fit.residuals * 37.0, weights)
        assert a.dw == pytest.approx(b.dw, abs=1e-12)

    @pytest.mark.parametrize("power", [600, -600])
    def test_power_of_two_scale_changes_no_bit(self, deck, power):
        # the residuals are z-scored by spatial_data.zscore, which brings
        # them to a power-of-two scale first: squares of residuals near
        # 2^600 would overflow, and near 2^-600 underflow to zero variance
        raw, dist = deck[1]
        p = prepare(raw, dist)
        residuals = fit_sar_ols(p).residuals
        scaled = np.ldexp(residuals, power)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dw = spatial_durbin_watson(scaled, p.weights)
            geary = geary_pairwise(scaled, p.weights)
        assert dw == spatial_durbin_watson(residuals, p.weights)
        assert geary == geary_pairwise(residuals, p.weights)


class TestCriticalValues:
    def test_bundled_pair(self):
        crit = critical_values_for(35, 0.05)
        assert crit.d_l == 1.402
        assert crit.d_u == 1.519

    def test_user_table_wins(self):
        table = {(35, 0.05): DwCriticalValues(n=35, alpha=0.05, d_l=1.3, d_u=1.6)}
        assert critical_values_for(35, 0.05, table).d_l == 1.3

    def test_missing_pair_raises(self):
        with pytest.raises(MissingCriticalValues):
            critical_values_for(12, 0.05)

    def test_ordering_validated(self):
        with pytest.raises(InputError):
            DwCriticalValues(n=10, alpha=0.05, d_l=1.6, d_u=1.4)
        with pytest.raises(InputError):
            DwCriticalValues(n=10, alpha=0.05, d_l=0.5, d_u=2.5)


class TestDwInterpretation:
    @pytest.mark.parametrize(
        "dw,expected",
        [
            (1.30, "positive"),
            (1.402, "inconclusive"),   # boundary: not strictly below d_l
            (1.45, "inconclusive"),
            (1.519, "none"),           # d_u is included in the no-signal band
            (2.00, "none"),
            (2.481, "none"),           # 4 - d_u
            (2.50, "inconclusive"),
            (2.598, "inconclusive"),   # 4 - d_l: not strictly above
            (2.70, "negative"),
        ],
    )
    def test_bands_for_bundled_pair(self, dw, expected):
        assert dw_interpret(dw, BUNDLED_DW_CRITICAL[(35, 0.05)]) == expected
