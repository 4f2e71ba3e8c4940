"""Significance tests, permutation inference, and residual diagnostics."""

import dataclasses
import itertools
import json
import math

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
    BUNDLED_DW_CRITICAL,
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
        raw = RawSizeVector.from_values([1.0, 3.0, 7.0, 2.0])
        rng = np.random.default_rng(5)
        d = np.zeros((4, 4))
        iu = np.triu_indices(4, k=1)
        d[iu] = rng.uniform(0.5, 2.0, size=6)
        d = d + d.T
        p = prepare(raw, d)
        z, weights = p.z, p.weights
        out = permutation_test(z, weights, m=999)
        i_obs = float(z.values @ (weights.matrix @ z.values))
        tol = 1e-12 * max(1.0, abs(i_obs))
        count = 0
        for perm in itertools.permutations(range(4)):
            zp = z.values[list(perm)]
            if abs(float(zp @ (weights.matrix @ zp))) >= abs(i_obs) - tol:
                count += 1
        assert out.p_value == count / 24

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

    def test_input_validation(self, two_site):
        p = prepare(*two_site)
        z, weights = p.z, p.weights
        with pytest.raises(InputError):
            permutation_test(z, weights, m=0)
        with pytest.raises(InputError):
            permutation_test(z, weights, workers=0)


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
