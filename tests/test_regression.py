"""The shared closed-form line fitter against independent oracles."""

import functools
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate, special, stats

from moransar import regression
from moransar.errors import DegenerateRegression, NumericalError
from moransar.inference import slope_t_test
from moransar.regression import fit_line, two_tailed_t_p

TAIL_DFS = (1, 2, 3, 4, 5, 10, 33, 100, 499, 500)
TAIL_RTOL = 1e-12


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


def _decimal_atan(z):
    """atan(z) for Decimal z >= 0: halve the angle to below 0.01, then Taylor."""
    halvings = 0
    while z > Decimal("0.01"):
        z = z / (1 + (1 + z * z).sqrt())
        halvings += 1
    total, term, k, z2 = Decimal(0), z, 1, z * z
    while True:
        step = total + term / k
        if step == total:
            return total * 2**halvings
        total, term, k = step, -term * z2, k + 2


def _log_tail_lower_bound(t, df):
    """log of x^a / (a B(a, 1/2)) with a = df/2, x = df / (df + t^2).

    The tail I_x(a, 1/2) integrates u^(a-1) (1-u)^(-1/2) / B over [0, x],
    and (1-u)^(-1/2) >= 1 there, so this bounds the tail from below.
    """
    a = 0.5 * df
    log_x = math.log(df) - 2.0 * math.log(t) - math.log1p(df / t / t)
    log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    return a * log_x - math.log(a) - log_beta


def exact_two_tailed_p(t, df):
    """1 - A(t|df) from the finite series of Abramowitz & Stegun 26.7.3
    (odd df) and 26.7.4 (even df), in decimal arithmetic.

    1 - A cancels about -log10(p) digits, so the working precision is 60
    digits beyond that, sized from a lower bound on p.
    """
    lost = max(0, math.ceil(-_log_tail_lower_bound(t, df) / math.log(10.0)))
    with localcontext() as ctx:
        ctx.prec = 60 + lost
        td, nu = Decimal(abs(t)), Decimal(df)
        hyp = (nu + td * td).sqrt()
        sin, cos = td / hyp, nu.sqrt() / hyp
        series = Decimal(0)
        if df % 2:
            # theta + sin (cos + 2/3 cos^3 + ... + (2.4...(df-3))/(1.3...(df-2)) cos^(df-2))
            c = cos
            for j in range(1, (df - 1) // 2 + 1):
                series += c
                c = c * cos * cos * (2 * j) / (2 * j + 1)
            pi = 4 * _decimal_atan(Decimal(1))
            a = 2 * (_decimal_atan(td / nu.sqrt()) + sin * series) / pi
        else:
            # sin (1 + 1/2 cos^2 + ... + (1.3...(df-3))/(2.4...(df-2)) cos^(df-2))
            c = Decimal(1)
            for j in range(1, df // 2 + 1):
                series += c
                c = c * cos * cos * (2 * j - 1) / (2 * j)
            a = sin * series
        return float(1 - a)


def _switch_t(df):
    """|t| where two_tailed_t_p moves to the complement, x = (a+1)/(a+5/2)."""
    return math.sqrt(1.5 * df / (0.5 * df + 1.0))


@functools.lru_cache(maxsize=None)
def exact_tail_grid(df):
    """(t, exact p) wherever p is a normal float: t = 10^(k/4) from 1e-8
    to 1e300, 19 finer steps past the last of those (where p nears the
    smallest normal), and 41 points within 2% of the complement switch."""

    def normal(t):
        return _log_tail_lower_bound(t, df) >= math.log(sys.float_info.min)

    ts = [t for t in (10.0 ** (k / 4) for k in range(-32, 1201)) if normal(t)]
    ts += [t for t in (ts[-1] * 10.0 ** (j / 80) for j in range(1, 20)) if normal(t)]
    ts += [_switch_t(df) * (1.0 + k * 1e-3) for k in range(-20, 21)]
    return [(t, exact_two_tailed_p(t, df)) for t in ts]


class TestTwoTailedP:
    @pytest.mark.parametrize("df", TAIL_DFS)
    def test_against_exact_series(self, df):
        grid = exact_tail_grid(df)
        assert min(p for _, p in grid) < 1e-290
        for t, exact in grid:
            got = two_tailed_t_p(t, df)
            assert abs(got - exact) <= TAIL_RTOL * exact, (t, df, got, exact)
            assert two_tailed_t_p(-t, df) == got

    @pytest.mark.parametrize("df", TAIL_DFS)
    def test_against_scipy_stdtr_where_it_is_exact(self, df):
        # stdtr is itself inexact in places (3e-9 relative at df=1,
        # t=1e-8), so it judges only where it agrees with the series
        compared = 0
        for t, exact in exact_tail_grid(df):
            ref = float(2.0 * special.stdtr(df, -t))
            if abs(ref - exact) > 1e-13 * exact:
                continue
            compared += 1
            assert two_tailed_t_p(t, df) == pytest.approx(ref, rel=TAIL_RTOL, abs=0.0)
        assert compared >= 50

    def test_exact_series_known_values(self):
        # df = 1 is Cauchy: P(|T| >= 1) = 1/2; df = 2: 1 - t / sqrt(2 + t^2)
        assert exact_two_tailed_p(1.0, 1) == 0.5
        assert exact_two_tailed_p(1.0, 2) == pytest.approx(1 - 1 / math.sqrt(3), rel=1e-15)

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

    @pytest.mark.parametrize("df", [1, 2, 33, 500])
    def test_special_values(self, df):
        assert two_tailed_t_p(0.0, df) == 1.0
        assert two_tailed_t_p(-0.0, df) == 1.0
        assert two_tailed_t_p(math.inf, df) == 0.0
        assert two_tailed_t_p(-math.inf, df) == 0.0
        assert math.isnan(two_tailed_t_p(math.nan, df))

    def test_unconverged_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(regression, "CF_MAX_TERMS", 1)
        with pytest.raises(NumericalError, match="did not converge"):
            two_tailed_t_p(1.3, 33)
