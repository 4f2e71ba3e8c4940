"""Moran's index: quadratic form, double-sum oracle, inner regression."""

import dataclasses

import numpy as np
import pytest

from moransar.autocorr import (
    MODE_AUTOCORRELATION,
    MODE_AUTOREGRESSION,
    eigen_check,
    inner_regression,
    moran_double_sum,
    moran_index,
    rank_one_identity_slack,
    scatter_dataset,
)
from moransar.errors import DimensionMismatch, InputError, ZeroVariance
from moransar.sar import fit_sar_ols
from moransar.spatial_data import (
    RawSizeVector,
    SpatialInputs,
    SpatialLag,
    WeightMatrix,
    inverse_distance_proximity,
    prepare,
    standardize,
    weights_from_distances,
)


def zero_index_pair():
    """Hand-built W making z'Wz exactly zero for sizes [1, 2, 3].

    z = (-sqrt(1.5), 0, sqrt(1.5)); every cross term in z'Wz carries
    either the middle zero or the zeroed (1,3) weight. No distance
    matrix yields this W, so the inputs are assembled by hand and carry
    no proximity matrix.
    """
    z = standardize(RawSizeVector.from_values([1.0, 2.0, 3.0]))
    w = np.array([[0.0, 0.4, 0.0], [0.4, 0.0, 0.1], [0.0, 0.1, 0.0]])
    weights = WeightMatrix(matrix=w)
    wz = w @ z.values
    inputs = SpatialInputs(
        z=z, proximity=None, weights=weights,
        lag=SpatialLag(values=wz, total=float(wz.sum())),
        i_value=float(z.values @ wz),
    )
    return z, weights, inputs


class TestMoranIndex:
    def test_two_site_exact(self, two_site):
        p = prepare(*two_site)
        assert moran_index(p.z, p.weights) == -1.0

    def test_chain_exact(self, chain):
        p = prepare(*chain)
        assert moran_index(p.z, p.weights) == pytest.approx(-0.3, abs=1e-15)

    def test_complete_graph_analytic(self):
        # equal distances: W = (J - Id)/(n(n-1)), so I = -1/(n-1)
        for n in (3, 5, 9):
            raw = RawSizeVector.from_values(np.arange(1.0, n + 1.0) ** 2)
            d = np.ones((n, n)) - np.eye(n)
            p = prepare(raw, d)
            assert moran_index(p.z, p.weights) == pytest.approx(
                -1.0 / (n - 1), abs=1e-13
            )

    def test_dimension_mismatch(self, two_site, chain):
        z2 = prepare(*two_site).z
        w3 = prepare(*chain).weights
        with pytest.raises(DimensionMismatch):
            moran_index(z2, w3)


class TestDoubleSumOracle:
    def test_agrees_with_quadratic_form(self, deck):
        for raw, dist in deck:
            p = prepare(raw, dist)
            quad = moran_index(p.z, p.weights)
            classic = moran_double_sum(raw, inverse_distance_proximity(dist))
            assert abs(quad - classic) <= 1e-12 * max(1.0, abs(quad))

    def test_scale_free_in_proximity(self, chain):
        # the double sum normalizes by S0, so proximity scale drops out
        raw, dist = chain
        a = moran_double_sum(raw, inverse_distance_proximity(dist))
        b = moran_double_sum(raw, inverse_distance_proximity(dist * 7.0))
        assert a == pytest.approx(b, abs=1e-14)

    def test_constant_sizes_rejected(self, chain):
        _, dist = chain
        with pytest.raises(ZeroVariance):
            moran_double_sum(
                RawSizeVector.from_values([2.0, 2.0, 2.0]),
                inverse_distance_proximity(dist),
            )


class TestInnerRegression:
    def test_slope_is_the_index(self, deck):
        for raw, dist in deck[:10]:
            p = prepare(raw, dist)
            moran = inner_regression(p)
            assert abs(moran.i_value - moran_index(p.z, p.weights)) <= 1e-12

    def test_intercept_is_lag_sum(self, deck):
        for raw, dist in deck[:10]:
            p = prepare(raw, dist)
            moran = inner_regression(p)
            assert moran.intercept == pytest.approx(p.lag.total, abs=1e-12)

    def test_r_squared_is_squared_correlation(self, deck):
        raw, dist = deck[2]
        p = prepare(raw, dist)
        moran = inner_regression(p)
        r = np.corrcoef(p.z.values, p.lag.values)[0, 1]
        assert moran.r_squared == pytest.approx(r * r, abs=1e-12)

    def test_two_site_degenerate(self, two_site):
        moran = inner_regression(prepare(*two_site))
        assert moran.degenerate
        assert moran.i_value == -1.0
        assert moran.r_squared == 1.0


class TestEigenRelation:
    def test_residual_small_on_deck(self, deck):
        for raw, dist in deck:
            assert eigen_check(prepare(raw, dist)) <= 1e-10

    def test_rank_one_scalar_small(self, deck):
        for raw, dist in deck[:10]:
            assert rank_one_identity_slack(prepare(raw, dist)) <= 1e-10

    def test_rank_one_scalar_measures_the_projection(self, deck):
        # (Wz)'z is the same float as I, so a slack taken against it alone
        # would be 0 everywhere; through z z' it carries rounding
        slacks = []
        for raw, dist in deck:
            p = prepare(raw, dist)
            z, lag = p.z.values, p.lag.values
            expected = abs(float(lag @ (np.outer(z, z) @ lag)) - p.i_value * float(lag @ z))
            slack = rank_one_identity_slack(p)
            assert slack == expected
            slacks.append(slack)
        assert max(slacks) > 0.0


class TestScatterDataset:
    def test_autocorrelation_geometry(self, deck):
        raw, dist = deck[3]
        p = prepare(raw, dist)
        z, weights, lag = p.z, p.weights, p.lag
        ds = scatter_dataset(p, fit_sar_ols(p), MODE_AUTOCORRELATION)
        assert ds.points.shape == (z.n, 2)
        np.testing.assert_array_equal(ds.points[:, 0], z.values)
        np.testing.assert_array_equal(ds.points[:, 1], z.n * lag.values)
        i_value = moran_index(z, weights)
        assert ds.theoretical_line.slope == pytest.approx(i_value, abs=0.0)
        assert ds.theoretical_line.intercept == 0.0
        assert ds.empirical_line.slope == pytest.approx(i_value, abs=0.0)
        assert ds.empirical_line.intercept == pytest.approx(lag.total, abs=0.0)
        assert ds.x_label == "z"

    def test_autoregression_geometry(self, deck):
        from moransar.spatial_data import spatial_lag

        raw, dist = deck[4]
        p = prepare(raw, dist)
        z, weights, lag = p.z, p.weights, p.lag
        ds = scatter_dataset(p, fit_sar_ols(p), MODE_AUTOREGRESSION)
        np.testing.assert_array_equal(ds.points[:, 0], lag.values)
        np.testing.assert_array_equal(ds.points[:, 1], z.values)
        fit = fit_sar_ols(dataclasses.replace(p, lag=spatial_lag(weights, z)))
        assert ds.empirical_line.slope == fit.rho_hat
        assert ds.empirical_line.intercept == fit.a_hat
        i_value = moran_index(z, weights)
        assert ds.theoretical_line.slope == pytest.approx(z.n / i_value, rel=1e-14)

    def test_zero_index_drops_theoretical_line(self):
        z, weights, inputs = zero_index_pair()
        assert moran_index(z, weights) == 0.0
        ds = scatter_dataset(inputs, fit_sar_ols(inputs), MODE_AUTOREGRESSION)
        assert ds.theoretical_line is None
        assert ds.empirical_line is not None

    def test_unknown_mode(self, two_site):
        p = prepare(*two_site)
        with pytest.raises(InputError):
            scatter_dataset(p, fit_sar_ols(p), "histogram")
