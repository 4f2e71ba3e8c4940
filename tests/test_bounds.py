"""The three spectral value ranges and the reciprocal slope regions."""

import math

import numpy as np
import pytest

from moransar.autocorr import moran_index
from moransar.bounds import CONTAINMENT_TOL, _contain, bounds_report, reciprocal_interval
from moransar.eigen import symmetric_eigenvalues
from moransar.errors import ZeroRSquared
from moransar.pipeline import IdentityCheck
from moransar.sar import fit_sar_ols
from moransar.spatial_data import RawSizeVector, prepare
from moransar.verification import random_instance


def report_for(raw, dist):
    p = prepare(raw, dist)
    fit = fit_sar_ols(p)
    return p.z, p.weights, p.lag, fit, bounds_report(p, fit.r_squared)


class TestGuaranteedContainments:
    def test_range1_on_deck(self, deck):
        for raw, dist in deck:
            _, _, _, _, report = report_for(raw, dist)
            assert report.range1.containment.contained

    def test_range2_empirical_on_deck(self, deck):
        # the empirical middle value is the Rayleigh quotient of W'W
        for raw, dist in deck:
            _, _, _, _, report = report_for(raw, dist)
            assert report.range2.empirical.contained
            assert report.range2.rayleigh_gap <= 1e-9 * max(
                1.0, report.range2.empirical.value
            )

    def test_range2_theoretical_upper_on_deck(self, deck):
        for raw, dist in deck:
            _, _, _, _, report = report_for(raw, dist)
            t = report.range2.theoretical
            assert t.value <= t.upper + 1e-10 * max(1.0, abs(t.upper))

    def test_range3_on_deck(self, deck):
        for raw, dist in deck:
            _, _, lag, _, report = report_for(raw, dist)
            c = report.range3.containment
            assert c.contained
            assert c.lower == 0.0
            assert report.range3.lambda_outer_max == pytest.approx(
                float(lag.values @ lag.values), abs=0.0
            )


class TestTheoreticalLowerEdgeIsNotATheorem:
    def test_known_violating_instance(self):
        # The middle value of the quadratic range comes in two flavors.
        # The empirical one divides I^2 by R2 and IS the Rayleigh
        # quotient of W'W, so its containment is a theorem. The
        # theoretical one drops the R2 factor, which shrinks it by
        # I^2 (1/R2 - 1)/n^2; on noisy data it can slip below the
        # smallest eigenvalue of W'W. The two coincide only when R2 = 1.
        # This deck instance demonstrates the slip; the report records
        # the verdict honestly instead of asserting the false bound.
        raw, dist = random_instance(0, 354)
        _, _, _, fit, report = report_for(raw, dist)
        assert fit.r_squared < 1.0
        t = report.range2.theoretical
        assert not t.contained
        assert t.value < t.lower
        assert report.range2.empirical.contained

    def test_violation_magnitude_matches_the_missing_factor(self):
        raw, dist = random_instance(0, 354)
        z, weights, lag, fit, report = report_for(raw, dist)
        i_value = moran_index(z, weights)
        gap = (i_value**2 / (fit.r_squared * z.n**2)) - i_value**2 / z.n**2
        assert report.range2.empirical.value - report.range2.theoretical.value == (
            pytest.approx(gap, rel=1e-9)
        )


class TestBoundaryAttainment:
    def test_two_site_index_sits_on_the_lower_edge(self, two_site):
        # n = 2: I/n = -1/2 equals the smallest eigenvalue of W exactly,
        # and the containment verdict must accept the boundary
        _, _, _, _, report = report_for(*two_site)
        c = report.range1.containment
        assert c.value == c.lower == -0.5
        assert c.contained
        assert c.slack == 0.0


class TestContainmentForgiveness:
    # the forgiveness scales with the larger end, here |lower| = 4, and the
    # report's check passes by exactly the tolerance the containment records
    LOWER, UPPER = -4.0, 2.0
    TOL = CONTAINMENT_TOL * 4.0

    def test_half_a_tolerance_outside_passes_and_records_it(self):
        c = _contain(self.LOWER, self.UPPER, self.UPPER + 0.5 * self.TOL)
        assert c.tolerance == self.TOL
        assert c.slack < 0.0
        assert c.contained
        check = IdentityCheck.at_least("outside", c.slack, c.tolerance)
        assert check.passed
        assert check.tolerance == self.TOL

    def test_twice_the_tolerance_outside_fails(self):
        c = _contain(self.LOWER, self.UPPER, self.LOWER - 2.0 * self.TOL)
        assert c.tolerance == self.TOL
        assert not c.contained
        assert not IdentityCheck.at_least("outside", c.slack, c.tolerance).passed


class TestRhoIntervals:
    def test_rays_when_interval_straddles_zero(self, deck):
        # trace(W) = 0 forces eigenvalues of both signs, so the slope
        # region is always two rays for these weight matrices
        raw, dist = deck[0]
        _, _, _, _, report = report_for(raw, dist)
        rho = report.range1.rho_theoretical
        assert rho.kind == "rays"
        assert rho.lower < 0.0 < rho.upper

    def test_empirical_scales_by_r_squared(self, deck):
        raw, dist = deck[1]
        _, _, _, fit, report = report_for(raw, dist)
        theo = report.range1.rho_theoretical
        emp = report.range1.rho_empirical
        assert emp.scale == fit.r_squared
        assert emp.lower == pytest.approx(theo.lower * fit.r_squared, rel=1e-14)
        assert emp.upper == pytest.approx(theo.upper * fit.r_squared, rel=1e-14)

    def test_reciprocal_of_positive_interval(self):
        out = reciprocal_interval(0.2, 0.5)
        assert out.kind == "interval"
        assert out.lower == pytest.approx(2.0)
        assert out.upper == pytest.approx(5.0)

    def test_reciprocal_of_negative_interval(self):
        out = reciprocal_interval(-0.5, -0.2)
        assert out.kind == "interval"
        assert out.lower == pytest.approx(-5.0)
        assert out.upper == pytest.approx(-2.0)

    def test_reciprocal_with_zero_endpoint(self):
        out = reciprocal_interval(0.0, 0.25)
        assert out.kind == "interval"
        assert out.lower == pytest.approx(4.0)
        assert out.upper == math.inf

    def test_reciprocal_straddling(self):
        out = reciprocal_interval(-0.25, 0.5)
        assert out.kind == "rays"
        assert out.lower == pytest.approx(-4.0)
        assert out.upper == pytest.approx(2.0)


class TestOuterRange:
    def test_implied_rho_squared_floor(self, deck):
        raw, dist = deck[2]
        z, weights, lag, fit, report = report_for(raw, dist)
        r3 = report.range3
        assert r3.rho_sq_lower == pytest.approx(z.n / r3.lambda_outer_max, rel=1e-14)
        # the floor binds the errorless slope n/I; the fitted slope is
        # smaller by R^2, so it only clears the R^4-scaled floor
        i_value = moran_index(z, weights)
        assert (z.n / i_value) ** 2 >= r3.rho_sq_lower * (1.0 - 1e-9)
        assert fit.rho_hat**2 >= r3.rho_sq_lower * fit.r_squared**2 * (1.0 - 1e-9)

    def test_outer_spectrum_is_analytic(self, deck):
        # the rank-1 bracketing matrix needs no eigensolve; cross-check
        # the analytic top eigenvalue against the built-in solver anyway
        raw, dist = deck[2]
        z, weights, lag, _, report = report_for(raw, dist)
        solved = symmetric_eigenvalues(np.outer(lag.values, lag.values))
        assert solved.largest == pytest.approx(
            report.range3.lambda_outer_max, abs=1e-10
        )


class TestChainNumbers:
    def test_index_over_n_inside_first_range(self, chain):
        z, weights, _, _, report = report_for(*chain)
        c = report.range1.containment
        assert c.value == pytest.approx(-0.1, abs=1e-15)
        assert c.lower < -0.1 < c.upper
        assert report.pearson_analogy_ok


def clustered_instance(seed, n=150):
    """Sizes and distances of n points in six tight clusters, the shape
    of the benchmark's large analysis."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 10.0, size=(6, 2))
    points = centers[np.arange(n) % 6] + rng.normal(0.0, 0.8, size=(n, 2))
    diff = points[:, None, :] - points[None, :, :]
    sizes = RawSizeVector.from_values(rng.lognormal(size=n))
    return sizes, np.sqrt((diff * diff).sum(axis=-1))


class TestSelectedSpectrum:
    """The ranges from the four eigenvalues solved alone, against the
    ranges from W's whole spectrum."""

    def test_verdicts_match_the_whole_spectrum(self, deck, far_clusters, two_site, chain):
        rng = np.random.default_rng(5)
        equal = [(RawSizeVector.from_values(rng.uniform(1.0, 9.0, size=n)),
                  np.ones((n, n)) - np.eye(n)) for n in (3, 8, 40)]
        cases = [*deck, far_clusters, two_site, chain, *equal,
                 *(clustered_instance(seed) for seed in (1, 2, 3))]
        for raw, dist in cases:
            p = prepare(raw, dist)
            fit = fit_sar_ols(p)
            report = bounds_report(p, fit.r_squared)
            whole = symmetric_eigenvalues(p.weights.matrix)
            reference = bounds_report(p, fit.r_squared, whole)
            assert report.spectrum.indices is not None
            assert reference.spectrum is whole
            pairs = [
                (report.range1.containment, reference.range1.containment),
                (report.range2.theoretical, reference.range2.theoretical),
                (report.range2.empirical, reference.range2.empirical),
                (report.range3.containment, reference.range3.containment),
            ]
            for got, want in pairs:
                assert got.contained == want.contained
                assert got.value == want.value
            allowance = 0.5 * (report.spectrum.widest_bracket
                               + whole.widest_bracket)
            r1, w1 = report.range1.containment, reference.range1.containment
            assert abs(r1.lower - w1.lower) <= allowance
            assert abs(r1.upper - w1.upper) <= allowance
            top = max(abs(w1.lower), abs(w1.upper))
            for got, want in pairs[1:3]:
                assert abs(got.lower - want.lower) <= 2.0 * top * allowance
                assert abs(got.upper - want.upper) <= 2.0 * top * allowance
            assert report.range1.rho_theoretical.kind == reference.range1.rho_theoretical.kind


class TestValidation:
    def test_zero_r_squared_rejected(self, chain):
        with pytest.raises(ZeroRSquared):
            bounds_report(prepare(*chain), 0.0)
