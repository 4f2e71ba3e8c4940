"""The autoregressive fit and the identities tying it to the index."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moransar.autocorr import inner_regression, moran_index
from moransar.errors import (
    DegenerateLag,
    DimensionMismatch,
    ZeroMoran,
    ZeroRSquared,
    ZeroVariance,
)
from moransar.sar import (
    centered_fit,
    closed_form_from_moran,
    fit_sar_ols,
    inverse_slope_relation,
    lag_energy_gap,
)
from moransar.spatial_data import RawSizeVector, SpatialLag, prepare, standardize
from moransar.verification import random_instance


class TestFitAgainstClosedForm:
    def test_normal_equations_match_closed_form(self, deck):
        for raw, dist in deck:
            p = prepare(raw, dist)
            z, weights, lag = p.z, p.weights, p.lag
            fit = fit_sar_ols(p)
            i_value = moran_index(z, weights)
            a_cf, rho_cf = closed_form_from_moran(
                i_value, fit.r_squared, lag.total, z.n
            )
            assert fit.rho_hat == pytest.approx(rho_cf, rel=1e-9)
            assert fit.a_hat == pytest.approx(a_cf, rel=1e-9, abs=1e-12)

    def test_two_site_exact(self, two_site):
        p = prepare(*two_site)
        z, lag = p.z, p.lag
        fit = fit_sar_ols(p)
        assert fit.rho_hat == -2.0
        assert fit.a_hat == 0.0
        assert fit.r_squared == 1.0
        assert fit.delta == 0.0
        assert fit.degenerate

    def test_chain_exact(self, chain):
        p = prepare(*chain)
        z, lag = p.z, p.lag
        fit = fit_sar_ols(p)
        assert fit.rho_hat == pytest.approx(-10.0, abs=1e-10)
        assert fit.r_squared == 1.0

    def test_complete_graph_collinear(self):
        # equal weights give Wz = -z/(n(n-1)): a perfect fit with
        # rho = -n(n-1) and zero intercept
        n = 6
        raw = RawSizeVector.from_values([1.0, 5.0, 2.0, 8.0, 3.0, 9.0])
        d = np.ones((n, n)) - np.eye(n)
        p = prepare(raw, d)
        z, weights, lag = p.z, p.weights, p.lag
        fit = fit_sar_ols(p)
        assert fit.rho_hat == pytest.approx(-n * (n - 1), rel=1e-12)
        assert fit.a_hat == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0
        assert fit.degenerate


class TestIdentities:
    def test_slope_product(self, deck):
        # rho_hat * I = n * R2
        for raw, dist in deck:
            p = prepare(raw, dist)
            z, weights, lag = p.z, p.weights, p.lag
            fit = fit_sar_ols(p)
            i_value = moran_index(z, weights)
            target = z.n * fit.r_squared
            assert fit.rho_hat * i_value == pytest.approx(target, rel=1e-9)

    def test_delta_identity(self, deck):
        # z'eps = n(1 - R2)
        for raw, dist in deck:
            p = prepare(raw, dist)
            z, lag = p.z, p.lag
            fit = fit_sar_ols(p)
            assert fit.delta == pytest.approx(
                z.n * (1.0 - fit.r_squared), abs=1e-9 * z.n
            )

    def test_lag_energy_identity(self, deck):
        # n (Wz)'(Wz) = ((Wz)'o)^2 + I^2/R2
        for raw, dist in deck:
            p = prepare(raw, dist)
            z, weights, lag = p.z, p.weights, p.lag
            fit = fit_sar_ols(p)
            i_value = moran_index(z, weights)
            gap = lag_energy_gap(p, i_value, fit.r_squared)
            scale = z.n * float(lag.values @ lag.values)
            assert abs(gap) <= 1e-9 * scale

    def test_residual_orthogonality(self, deck):
        for raw, dist in deck[:10]:
            p = prepare(raw, dist)
            z, lag = p.z, p.lag
            fit = fit_sar_ols(p)
            assert abs(float(lag.values @ fit.residuals)) <= 1e-9
            assert abs(float(fit.residuals.sum())) <= 1e-9

    def test_paired_p_values(self, deck):
        for raw, dist in deck[:10]:
            p = prepare(raw, dist)
            moran = inner_regression(p)
            fit = fit_sar_ols(p)
            assert moran.slope_test.p_value == pytest.approx(fit.slope_test.p_value, abs=1e-12)

    @given(scale=st.floats(min_value=1e-4, max_value=1e4))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, scale):
        # positive rescaling of the sizes changes nothing downstream
        raw, dist = random_instance(0, 7)
        p0 = prepare(raw, dist)
        fit0 = fit_sar_ols(p0)
        scaled = RawSizeVector.from_values(raw.values * scale)
        p1 = prepare(scaled, dist)
        fit1 = fit_sar_ols(p1)
        assert moran_index(p1.z, p1.weights) == pytest.approx(
            moran_index(p0.z, p0.weights), abs=1e-10
        )
        assert fit1.rho_hat == pytest.approx(fit0.rho_hat, rel=1e-10)
        assert fit1.a_hat == pytest.approx(fit0.a_hat, rel=1e-8, abs=1e-10)
        assert fit1.r_squared == pytest.approx(fit0.r_squared, abs=1e-10)
        assert fit1.delta == pytest.approx(fit0.delta, abs=1e-9)


class TestTheoreticalCoefficients:
    # the errorless model, rho * I = n, is the closed form at R2 = 1
    def test_rho_is_n_over_index(self, chain):
        p = prepare(*chain)
        z, weights, lag = p.z, p.weights, p.lag
        i_value = moran_index(z, weights)
        a, rho = closed_form_from_moran(i_value, 1.0, lag.total, z.n)
        assert rho == z.n / i_value
        assert a == -lag.total / i_value
        # chain is an exact fit, so theoretical and fitted agree
        fit = fit_sar_ols(p)
        assert rho == pytest.approx(fit.rho_hat, rel=1e-12)
        assert a == pytest.approx(fit.a_hat, abs=1e-12)

    def test_zero_index_rejected(self):
        with pytest.raises(ZeroMoran):
            closed_form_from_moran(0.0, 1.0, 0.1, 10)
        with pytest.raises(ZeroMoran):
            closed_form_from_moran(1e-13, 0.5, 0.1, 10)


class TestDegenerateInputs:
    def test_constant_lag_rejected(self, chain):
        p = prepare(*chain)
        flat = SpatialLag(values=np.zeros(3), total=0.0)
        with pytest.raises(DegenerateLag):
            fit_sar_ols(dataclasses.replace(p, lag=flat))

    def test_length_mismatch(self, chain, two_site):
        p3 = prepare(*chain)
        lag2 = prepare(*two_site).lag
        with pytest.raises(DimensionMismatch):
            fit_sar_ols(dataclasses.replace(p3, lag=lag2))

    def test_zero_r_squared_rejected_in_energy_gap(self, chain):
        p = prepare(*chain)
        with pytest.raises(ZeroRSquared):
            lag_energy_gap(p, -0.3, 0.0)


class TestCenteredFit:
    def test_same_slope_zero_intercept(self, deck):
        for raw, dist in deck[:10]:
            p = prepare(raw, dist)
            z, lag = p.z, p.lag
            fit = fit_sar_ols(p)
            cen = centered_fit(p)
            assert cen.rho_hat == pytest.approx(fit.rho_hat, rel=1e-12)
            assert abs(cen.a_hat) <= 1e-12


class TestInverseSlopeRelation:
    def test_product_is_squared_correlation(self, deck):
        raw, dist = deck[5]
        p = prepare(raw, dist)
        z, lag = p.z, p.lag
        b, b_prime, product = inverse_slope_relation(lag.values, z.values)
        r = np.corrcoef(lag.values, z.values)[0, 1]
        assert product == pytest.approx(r * r, abs=1e-12)
        assert b * b_prime == product

    def test_forward_slope_is_rho(self, deck):
        raw, dist = deck[5]
        p = prepare(raw, dist)
        z, lag = p.z, p.lag
        fit = fit_sar_ols(p)
        b, _, _ = inverse_slope_relation(lag.values, z.values)
        assert b == pytest.approx(fit.rho_hat, rel=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ZeroVariance):
            inverse_slope_relation(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inverse_slope_relation(np.ones(3), np.ones(4))
