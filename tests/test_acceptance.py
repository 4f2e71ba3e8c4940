"""Acceptance gate: the ten shipped guarantees, one verdict line each.

Each test prints ``criterion N: PASS/FAIL - detail`` so a plain pytest -v
run shows one line per guarantee. Criteria 3, 4, 5, and 7 share a
module-scoped deck of 1000 seeded random instances.
"""

import csv
import dataclasses
import json
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from moransar.autocorr import (
    eigen_check,
    inner_regression,
    moran_double_sum,
    moran_index,
)
from moransar.bounds import bounds_report
from moransar.dataio import load_reference_values
from moransar.eigen import symmetric_eigenvalues
from moransar.inference import (
    critical_values_for,
    dw_interpret,
    geary_pairwise,
    permutation_test,
    spatial_durbin_watson,
)
from moransar.pipeline import analyze_data, summary_rows
from moransar.sar import closed_form_from_moran, fit_sar_ols, lag_energy_gap
from moransar.simulate import random_distances, simulate_sar
from moransar.spatial_data import RawSizeVector, inverse_distance_proximity, prepare
from moransar.verification import random_instance

from conftest import (
    CHAIN_DIST,
    CHAIN_SIZES,
    FIXTURES_DIR,
    TWO_SITE_DIST,
    TWO_SITE_SIZES,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _verdict(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def deck1000():
    return [random_instance(0, k) for k in range(1000)]


@pytest.fixture(scope="module")
def prepared1000(deck1000):
    out = []
    for raw, dist in deck1000:
        p = prepare(raw, dist)
        out.append((raw, dist, p, inner_regression(p), fit_sar_ols(p)))
    return out


def test_criterion_1_worked_coefficient_recovery():
    n, i_value, r2, lag_sum = 35, 0.1248, 0.2301, -0.1427
    a_hat, rho_hat = closed_form_from_moran(i_value, r2, lag_sum, n)
    product = rho_hat * i_value
    checks = [
        abs(a_hat - 0.2631) <= 0.002,
        abs(rho_hat - 64.5515) <= 5e-3 * 64.5515,
        abs(product - 8.0536) <= 0.01,
        abs(product - n * r2) <= 0.01,
        abs(n * (1.0 - r2) - 26.9464) <= 5e-4,
    ]
    _verdict(
        1, all(checks),
        f"a_hat={a_hat:.4f} (target 0.2631), rho_hat={rho_hat:.4f} "
        f"(target 64.5515), rho*I={product:.4f} (target 8.0536)",
    )


def test_criterion_2_lag_energy_worked_identity():
    n, i_value, r2, lag_sum = 35, 0.1248, 0.2301, -0.1427
    quad = i_value**2 / r2
    lag_energy = (lag_sum**2 + quad) / n  # back-solved from the identity
    lhs = n * lag_energy - quad
    rhs = lag_sum**2
    checks = [
        abs(lhs - 0.0204) <= 0.0005,
        abs(rhs - 0.0204) <= 0.0005,
        abs(lag_energy - 0.00251574) <= 5e-7,
    ]
    _verdict(
        2, all(checks),
        f"n(Wz)'(Wz) - I^2/R^2 = {lhs:.6f}, ((Wz)'o)^2 = {rhs:.6f} "
        f"(both target 0.0204), lag energy {lag_energy:.8f}",
    )


def test_criterion_3_identity_deck(deck1000):
    start = time.perf_counter()
    worst: dict[str, float] = {}

    def note(name, value):
        worst[name] = max(worst.get(name, 0.0), abs(value))

    for raw, dist in deck1000:
        p = prepare(raw, dist)
        z, lag = p.z, p.lag
        moran = inner_regression(p)
        fit = fit_sar_ols(p)
        n = z.n
        note("slope_product",
             (fit.rho_hat * moran.i_value - n * fit.r_squared)
             / max(1.0, abs(n * fit.r_squared)))
        note("delta", (fit.delta - n * (1.0 - fit.r_squared)) / max(1.0, float(n)))
        note("lag_energy",
             lag_energy_gap(p, moran.i_value, fit.r_squared)
             / max(1e-30, n * float(lag.values @ lag.values)))
        note("paired_p", moran.slope_p_value - fit.p_slope)
        note("orthogonality_lag", float(lag.values @ fit.residuals))
        note("orthogonality_ones", float(fit.residuals.sum()))
    elapsed = time.perf_counter() - start
    peak = max(worst.values())
    ok = len(deck1000) >= 1000 and peak <= 1e-9 and elapsed < 30.0
    _verdict(
        3, ok,
        f"{len(deck1000)} instances, worst identity slack {peak:.2e} "
        f"(tolerance 1e-09), {elapsed:.1f} s (budget 30 s)",
    )


def test_criterion_4_double_sum_oracle(prepared1000):
    worst = 0.0
    for raw, dist, _, moran, _ in prepared1000:
        oracle = moran_double_sum(raw, inverse_distance_proximity(dist))
        worst = max(worst, abs(moran.i_value - oracle))
    _verdict(
        4, worst <= 1e-12,
        f"worst |quadratic form - classical double sum| = {worst:.2e} "
        f"over {len(prepared1000)} instances (tolerance 1e-12)",
    )


def test_criterion_5_spectral_suite(prepared1000):
    worst_eigen = worst_outer = worst_gram = 0.0
    contained = True
    theoretical_low_misses = 0
    for _, _, p, _, fit in prepared1000:
        weights, lag = p.weights, p.lag
        worst_eigen = max(worst_eigen, abs(eigen_check(p)))
        report = bounds_report(p, fit.r_squared)
        contained = contained and report.range1.containment.contained
        contained = contained and report.range2.empirical.contained
        contained = contained and report.range3.containment.contained
        upper_slack = report.range2.theoretical.upper - report.range2.theoretical.value
        contained = contained and (
            upper_slack >= -1e-10 * max(1.0, abs(report.range2.theoretical.upper))
        )
        if not report.range2.theoretical.contained:
            theoretical_low_misses += 1
        wtw = float(lag.values @ lag.values)
        worst_outer = max(worst_outer, abs(report.range3.lambda_outer_max - wtw))
        # the report solves only the eigenvalues its ranges read; W's whole
        # spectrum comes from one stacked solve with W'W, as in verify
        spec_w, spec_gram = symmetric_eigenvalues(
            np.stack([weights.matrix, weights.matrix.T @ weights.matrix])
        )
        worst_gram = max(
            worst_gram,
            float(np.max(np.abs(spec_gram.values - np.sort(spec_w.values**2)))),
        )

    raw2 = RawSizeVector.from_values(TWO_SITE_SIZES)
    p = prepare(raw2, TWO_SITE_DIST)
    z2, w2 = p.z, p.weights
    boundary_exact = moran_index(z2, w2) / 2.0 == symmetric_eigenvalues(w2.matrix).smallest

    ok = (
        worst_eigen <= 1e-10
        and contained
        and worst_outer <= 1e-10
        and worst_gram <= 1e-9
        and boundary_exact
    )
    _verdict(
        5, ok,
        f"eigen residual {worst_eigen:.1e}, outer-lambda gap {worst_outer:.1e}, "
        f"gram-spectrum gap {worst_gram:.1e}, n=2 boundary exact={boundary_exact}; "
        f"guaranteed containments held on all instances (the R^2-free lower "
        f"edge of the quadratic range, exact only for perfect fits, fell short "
        f"on {theoretical_low_misses} noisy instances and is reported, not asserted)",
    )


def test_criterion_6_exact_small_fixtures():
    tol = 1e-10
    raw2 = RawSizeVector.from_values(TWO_SITE_SIZES)
    p = prepare(raw2, TWO_SITE_DIST)
    z2, w2, lag2 = p.z, p.weights, p.lag
    moran2 = inner_regression(p)
    fit2 = fit_sar_ols(p)
    dw2 = spatial_durbin_watson(z2.values, w2)
    two_site = [
        abs(moran2.i_value + 1.0),
        abs(fit2.rho_hat + 2.0),
        abs(fit2.a_hat),
        abs(fit2.r_squared - 1.0),
        abs(fit2.delta),
        abs(dw2.dw - 2.0),
    ]

    raw3 = RawSizeVector.from_values(CHAIN_SIZES)
    p = prepare(raw3, CHAIN_DIST)
    z3, w3, lag3 = p.z, p.weights, p.lag
    moran3 = inner_regression(p)
    fit3 = fit_sar_ols(p)
    chain = [
        abs(moran3.i_value + 0.3),
        abs(fit3.rho_hat + 10.0),
        abs(fit3.r_squared - 1.0),
    ]

    peak = max(two_site + chain)
    _verdict(
        6, peak <= tol,
        f"two sites (I, rho, a, R2, delta, DW) = (-1, -2, 0, 1, 0, 2) and "
        f"chain (I, rho, R2) = (-0.3, -10, 1); worst deviation {peak:.1e}",
    )


def test_criterion_7_diagnostics(prepared1000):
    worst = 0.0
    for _, _, p, _, fit in prepared1000:
        if fit.degenerate:
            continue
        weights = p.weights
        dw = spatial_durbin_watson(fit.residuals, weights)
        worst = max(worst, abs(dw.dw - 2.0 * geary_pairwise(fit.residuals, weights)))

    crit = critical_values_for(35, 0.05)
    bands = [
        crit.d_l == 1.402,
        crit.d_u == 1.519,
        dw_interpret(1.30, crit) == "positive",
        dw_interpret(1.45, crit) == "inconclusive",
        dw_interpret(1.519, crit) == "none",
        dw_interpret(2.00, crit) == "none",
        dw_interpret(2.481, crit) == "none",
        dw_interpret(2.50, crit) == "inconclusive",
        dw_interpret(2.70, crit) == "negative",
    ]
    ok = worst <= 1e-10 and all(bands)
    _verdict(
        7, ok,
        f"worst |DW - 2C| = {worst:.2e} over the deck; n=35 bands at "
        f"1.402 / 1.519 / 2.481 / 2.598 classify as expected",
    )


def test_criterion_8_permutation_consistency():
    raw2 = RawSizeVector.from_values(TWO_SITE_SIZES)
    p = prepare(raw2, TWO_SITE_DIST)
    z2, w2 = p.z, p.weights
    p2 = permutation_test(z2, w2, m=999)
    p2_sampled = permutation_test(z2, w2, m=1, seed=0)

    dist5 = random_distances(np.random.default_rng(8), 5)
    raw5 = RawSizeVector.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
    p = prepare(raw5, dist5)
    z5, w5 = p.z, p.weights
    exact = permutation_test(z5, w5, m=999)
    estimate = permutation_test(z5, w5, m=999, seed=3)
    gap = abs(exact.p_value - estimate.p_value)

    # force the Monte-Carlo branch with m < 5!; on equal distances the
    # index is permutation-invariant, so the sampled pseudo-p must be
    # exactly 1 for every seed, agreeing with the enumeration
    dist_eq = np.ones((5, 5)) - np.eye(5)
    p = prepare(raw5, dist_eq)
    z5e, w5e = p.z, p.weights
    forced = permutation_test(z5e, w5e, m=119, seed=7)
    forced_exact = permutation_test(z5e, w5e, m=999)

    raw8, dist8 = random_instance(0, 1)
    p = prepare(raw8, dist8)
    z8, w8 = p.z, p.weights
    one = permutation_test(z8, w8, m=999, seed=11, workers=1)
    four = permutation_test(z8, w8, m=999, seed=11, workers=4)
    workers_identical = json.dumps(dataclasses.asdict(one)) == json.dumps(
        dataclasses.asdict(four)
    )

    ok = (
        p2.p_value == 1.0
        and p2_sampled.p_value == 1.0
        and exact.exhaustive
        and estimate.exhaustive
        and gap <= 2.0 / 1000.0
        and not forced.exhaustive
        and forced.p_value == 1.0 == forced_exact.p_value
        and not one.exhaustive
        and workers_identical
    )
    _verdict(
        8, ok,
        f"n=2 p={p2.p_value}; n=5 |enumerated - m=999 estimate| = {gap:.1e} "
        f"(both enumerate all 120); forced-sampling pseudo-p = {forced.p_value} "
        f"matches enumeration; workers 1 vs 4 byte-identical={workers_identical}",
    )


def test_criterion_9_reference_slot_and_summary_shape():
    ref = load_reference_values()
    slot_ok = ref["dataset_available"] is False
    model_keys = {"lag_sum", "moran_index", "intercept", "rho", "r_squared"}
    rows_ok = all(
        model_keys <= set(year.keys())
        for measure in ref["model_results"].values()
        for year in measure.values()
    )
    diag_keys = {"residual_index", "durbin_watson"}
    diag_ok = all(
        diag_keys <= set(year.keys())
        for measure in ref["residual_diagnostics"].values()
        for year in measure.values()
    )

    # a full-size synthetic stand-in flows through analyze into rows whose
    # parameter names match the published table, ready for comparison once
    # real data is supplied
    dist = random_distances(np.random.default_rng(35), 35)
    raw = simulate_sar(dist, a=1.0, rho=5.0, noise_sd=0.5, seed=4)
    report = analyze_data(raw, dist, permutations=0)
    rows = summary_rows(report)
    shape_ok = [r[:2] for r in rows[:4]] == [
        ["autocorrelation", "lag_sum"],
        ["autocorrelation", "moran_index"],
        ["autoregression", "intercept"],
        ["autoregression", "rho"],
    ]
    resid_ok = [r[1] for r in rows[4:]] == ["residual_index", "durbin_watson"]

    ok = slot_ok and rows_ok and diag_ok and shape_ok and resid_ok
    _verdict(
        9, ok,
        "published 35-city rows are not recomputable (source data never "
        "distributed); the bundled reference slot and the summary row shape "
        "line up for direct comparison once the data is supplied",
    )


def test_criterion_10_end_to_end(tmp_path):
    start = time.perf_counter()
    verify = subprocess.run(
        [sys.executable, "-m", "moransar", "verify"],
        capture_output=True, text=True,
    )
    verify_elapsed = time.perf_counter() - start

    out_dir = tmp_path / "report"
    analyze = subprocess.run(
        [
            sys.executable, "-m", "moransar", "analyze",
            "--sizes", str(FIXTURES_DIR / "two_site_sizes.csv"),
            "--dist", str(FIXTURES_DIR / "two_site_distances.csv"),
            "--out", str(out_dir), "--svg", "--permutations", "9",
        ],
        capture_output=True, text=True,
    )

    blob = json.loads((out_dir / "report.json").read_text())
    with open(out_dir / "summary.csv", newline="") as fh:
        csv_rows = list(csv.reader(fh))
    root = ET.parse(out_dir / "scatter_autocorrelation.svg").getroot()
    points = [c for c in root.iter(f"{SVG_NS}circle") if c.get("class") == "point"]
    trends = [l for l in root.iter(f"{SVG_NS}line") if l.get("class") == "trend"]

    ok = (
        verify.returncode == 0
        and verify_elapsed < 60.0
        and analyze.returncode == 0
        and blob["provenance"]["n"] == 2
        and blob["moran"]["i_value"] == -1.0
        and csv_rows[0][0] == "measure"
        and len(csv_rows) >= 5
        and len(points) == 2
        and len(trends) == 1  # the two lines coincide and merge
    )
    _verdict(
        10, ok,
        f"verify rc={verify.returncode} in {verify_elapsed:.1f} s (budget 60 s); "
        f"analyze rc={analyze.returncode} wrote JSON, CSV, and an SVG with "
        f"{len(points)} points and {len(trends)} merged trend line",
    )
