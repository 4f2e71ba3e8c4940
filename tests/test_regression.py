"""The shared closed-form line fitter against independent oracles."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from moransar.errors import DegenerateRegression
from moransar.inference import slope_t_test
from moransar.regression import fit_line, two_tailed_t_p


def p_slope(line):
    return slope_t_test(line.slope, line.se_slope, line.n).p_value


def _noisy_pair(seed, n=20):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=n)
    y = 1.5 * x - 0.7 + rng.normal(0.0, 0.8, size=n)
    return x, y


class TestFitLine:
    def test_matches_polyfit(self):
        x, y = _noisy_pair(1)
        line = fit_line(x, y)
        slope, intercept = np.polyfit(x, y, 1)
        assert line.slope == pytest.approx(slope, rel=1e-12)
        assert line.intercept == pytest.approx(intercept, rel=1e-12)

    def test_matches_linregress_inference(self):
        x, y = _noisy_pair(2)
        line = fit_line(x, y)
        ref = stats.linregress(x, y)
        assert line.slope == pytest.approx(ref.slope, rel=1e-12)
        assert line.se_slope == pytest.approx(ref.stderr, rel=1e-12)
        assert p_slope(line) == pytest.approx(ref.pvalue, rel=1e-10)
        assert line.se_intercept == pytest.approx(ref.intercept_stderr, rel=1e-12)
        assert line.r_squared == pytest.approx(ref.rvalue**2, rel=1e-12)

    def test_residual_orthogonality(self):
        x, y = _noisy_pair(3)
        line = fit_line(x, y)
        assert abs(float(line.residuals.sum())) < 1e-10
        assert abs(float(line.residuals @ x)) < 1e-10

    def test_p_value_direction_symmetry(self):
        # the slope t statistic is t = r sqrt((n-2)/(1-r^2)) in both
        # regression directions, so the p-values coincide
        x, y = _noisy_pair(4)
        assert p_slope(fit_line(x, y)) == pytest.approx(
            p_slope(fit_line(y, x)), abs=1e-14
        )

    def test_exact_fit_branch(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        line = fit_line(x, 2.0 * x + 1.0)
        assert line.degenerate
        assert line.r_squared == 1.0
        assert line.se_slope == 0.0
        assert p_slope(line) == 0.0
        np.testing.assert_array_equal(line.residuals, np.zeros(4))

    def test_two_points_always_exact(self):
        line = fit_line(np.array([0.0, 1.0]), np.array([5.0, -2.0]))
        assert line.degenerate
        assert line.slope == -7.0
        assert line.intercept == 5.0

    def test_constant_regressor_rejected(self):
        with pytest.raises(DegenerateRegression):
            fit_line(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    def test_constant_dependent_rejected(self):
        with pytest.raises(DegenerateRegression):
            fit_line(np.array([1.0, 2.0, 3.0]), np.array([4.0, 4.0, 4.0]))


class TestTwoTailedP:
    @pytest.mark.parametrize("t,df", [(0.5, 3), (1.7, 10), (2.9, 33), (0.0, 5)])
    def test_against_quadrature(self, t, df):
        # independent oracle: integrate the t density directly
        def density(u):
            c = math.exp(
                math.lgamma((df + 1) / 2)
                - math.lgamma(df / 2)
                - 0.5 * math.log(df * math.pi)
            )
            return c * (1.0 + u * u / df) ** (-(df + 1) / 2)

        tail, _err = integrate.quad(density, abs(t), np.inf)
        assert two_tailed_t_p(t, df) == pytest.approx(2.0 * tail, abs=1e-10)

    def test_symmetric_in_sign(self):
        assert two_tailed_t_p(-1.3, 7) == two_tailed_t_p(1.3, 7)

    def test_extremes(self):
        assert two_tailed_t_p(0.0, 9) == pytest.approx(1.0)
        assert two_tailed_t_p(1e6, 9) < 1e-30
