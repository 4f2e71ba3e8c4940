"""The self-check suite: deterministic decks and all-pass identity runs."""

import dataclasses
import json

import numpy as np
import pytest

import moransar.bounds
import moransar.verification
from moransar.eigen import symmetric_eigenvalues
from moransar.errors import InputError
from moransar.pipeline import analyze_data, analyze_prepared
from moransar.verification import (
    IdentityCheck,
    SuiteResult,
    _fixture_checks,
    instance_checks,
    random_instance,
    run_suite,
)


class TestRandomInstance:
    def test_deterministic(self):
        a_raw, a_dist = random_instance(0, 5)
        b_raw, b_dist = random_instance(0, 5)
        assert np.array_equal(a_raw.values, b_raw.values)
        assert np.array_equal(a_dist, b_dist)
        assert a_raw.ids == b_raw.ids

    def test_distinct_draws(self):
        a_raw, _ = random_instance(0, 5)
        b_raw, _ = random_instance(0, 6)
        assert not np.array_equal(a_raw.values, b_raw.values)

    def test_instance_shape(self):
        for k in range(10):
            raw, dist = random_instance(1, k)
            n = raw.n
            assert 3 <= n <= 40
            assert dist.shape == (n, n)
            assert np.array_equal(dist, dist.T)
            assert np.all(np.diag(dist) == 0.0)
            off = dist[~np.eye(n, dtype=bool)]
            assert np.all(off > 0.0)
            assert np.all(raw.values > 0.0)


class TestChecks:
    def test_core_checks_pass_on_a_noisy_instance(self, deck):
        raw, dist = deck[0]
        checks = analyze_data(raw, dist, permutations=0).identities
        assert all(c.passed for c in checks)
        names = {c.name for c in checks}
        assert {"slope_product", "residual_inner", "lag_energy",
                "paired_p", "eigen_relation", "rank_one_scalar"} <= names

    def test_instance_checks_replay_the_report_identities(self, deck):
        for raw, dist in deck[:10]:
            suite = {c.name: c for c in instance_checks(raw, dist)}
            inputs = analyze_data(raw, dist, permutations=0).inputs
            whole = symmetric_eigenvalues(inputs.weights.matrix)
            for check in analyze_prepared(inputs, whole, permutations=0).identities:
                assert suite[check.name] == check

    def test_selected_solve_report_agrees_with_the_suite(self, deck):
        # the report's bounds read W's selected solve, the suite's W's whole
        # one: both brackets hold the same eigenvalue, but the selected
        # solve enters Newton's phase by its own rule, so the checks that
        # read W's spectrum agree within the two brackets' widths; every
        # other check is the same bit for bit
        spectral = {"bounds_moran", "bounds_quadratic_empirical",
                    "bounds_quadratic_theoretical_upper"}
        for raw, dist in deck[:10]:
            suite = {c.name: c for c in instance_checks(raw, dist)}
            report = analyze_data(raw, dist, permutations=0)
            whole = symmetric_eigenvalues(report.inputs.weights.matrix)
            widths = whole.widest_bracket + report.bounds.spectrum.widest_bracket
            for check in report.identities:
                if check.name not in spectral:
                    assert suite[check.name] == check
                    continue
                replayed = suite[check.name]
                assert (replayed.tolerance, replayed.passed) == (check.tolerance, check.passed)
                assert abs(replayed.slack - check.slack) <= widths

    def test_instance_checks_run_one_analysis(self, deck, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return analyze_prepared(*args, **kwargs)

        monkeypatch.setattr(moransar.verification, "analyze_prepared", spy)
        raw, dist = deck[3]
        instance_checks(raw, dist)
        assert calls == [{"permutations": 0}]

    def test_instance_checks_make_one_stacked_solve(self, deck, monkeypatch):
        # W, W'W and the lag's outer product in one call; the bounds read
        # W's spectrum from it instead of solving W again
        shapes = []

        def spy(m):
            shapes.append(np.shape(m))
            return symmetric_eigenvalues(m)

        for module in (moransar.verification, moransar.bounds):
            monkeypatch.setattr(module, "symmetric_eigenvalues", spy)
        for raw, dist in deck[:3]:
            shapes.clear()
            instance_checks(raw, dist)
            assert shapes == [(3, raw.n, raw.n)]

    def test_instance_checks_cover_every_family(self, deck):
        raw, dist = deck[1]
        checks = instance_checks(raw, dist)
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        names = {c.name for c in checks}
        expected = {
            "slope_product", "residual_inner", "lag_energy",
            "residual_orthogonality_lag", "residual_orthogonality_ones",
            "paired_p", "eigen_relation", "rank_one_scalar", "dw_geary",
            "oracle_double_sum", "quadratic_vs_regression",
            "closed_form_rho", "closed_form_a",
            "centered_slope", "centered_intercept",
            "inverse_slope_product", "slope_duality",
            "bounds_moran", "bounds_quadratic_empirical",
            "bounds_quadratic_theoretical_upper", "bounds_outer",
            "rayleigh_quotient", "outer_lambda_analytic",
            "gram_spectrum_squares", "spectrum_trace",
        }
        assert expected <= names

    def test_every_check_carries_slack_and_tolerance(self, deck):
        raw, dist = deck[2]
        for check in instance_checks(raw, dist):
            assert isinstance(check.slack, float)
            assert np.isfinite(check.slack)
            assert check.tolerance > 0.0, check.name

    def test_verdicts_are_plain_bools(self, deck):
        checks = list(_fixture_checks())
        for raw, dist in deck[:10]:
            checks += analyze_data(raw, dist, permutations=0).identities
            checks += instance_checks(raw, dist)
        for check in checks:
            assert type(check.passed) is bool, check.name
            json.dumps(dataclasses.asdict(check))


class TestSuite:
    def test_small_run_is_clean(self):
        result = run_suite(master_seed=0, instances=3)
        assert result.passed
        assert result.failures == ()
        # 10 fixture checks plus at least 20 checks per instance
        assert result.total >= 10 + 3 * 20
        assert result.elapsed_seconds > 0.0

    def test_negative_master_seed_rejected(self):
        with pytest.raises(InputError, match="master seed must be nonnegative"):
            run_suite(master_seed=-1, instances=2)

    def test_passed_property(self):
        ok = SuiteResult(total=1, failures=(), elapsed_seconds=0.0)
        bad = SuiteResult(
            total=1,
            failures=(IdentityCheck("x", 1.0, 0.0, False),),
            elapsed_seconds=0.0,
        )
        assert ok.passed
        assert not bad.passed
