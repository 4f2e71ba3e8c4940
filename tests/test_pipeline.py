"""End-to-end analysis: loading, reporting, determinism, serialization."""

import csv
import json

import numpy as np
import pytest

from moransar.dataio import write_distance_matrix, write_sizes
from moransar.errors import InputError
from moransar.pipeline import (
    AnalysisConfig,
    analyze,
    analyze_data,
    emit_report,
    format_sig,
    report_to_dict,
    scatter_datasets_for,
    summary_rows,
)
from moransar.spatial_data import log_transform
from moransar.verification import random_instance


@pytest.fixture(scope="module")
def noisy_files(tmp_path_factory):
    """A noisy deck instance written out as CSV files."""
    d = tmp_path_factory.mktemp("noisy")
    raw, dist = random_instance(0, 1)
    sizes = d / "sizes.csv"
    matrix = d / "distances.csv"
    write_sizes(raw, sizes)
    write_distance_matrix(raw.ids, dist, matrix)
    return raw, dist, str(sizes), str(matrix)


def config_for(noisy_files, **kw):
    _, _, sizes, dist = noisy_files
    defaults = dict(sizes_path=sizes, dist_path=dist, permutations=49, seed=5)
    defaults.update(kw)
    return AnalysisConfig(**defaults)


class TestAnalyze:
    def test_report_is_complete(self, noisy_files):
        report = analyze(config_for(noisy_files))
        assert report.moran.n == report.sar.n == report.provenance.n
        assert report.all_identities_pass
        assert report.inference.i_permutation is not None
        assert report.diagnostics.result is not None
        assert not report.diagnostics.degenerate

    def test_file_and_memory_paths_agree(self, noisy_files):
        raw, dist, _, _ = noisy_files
        from_file = analyze(config_for(noisy_files))
        in_memory = analyze_data(raw, dist, permutations=49, seed=5)
        assert from_file.moran.i_value == in_memory.moran.i_value
        assert from_file.sar.rho_hat == in_memory.sar.rho_hat

    def test_determinism_modulo_timestamp(self, noisy_files):
        a = report_to_dict(analyze(config_for(noisy_files)))
        b = report_to_dict(analyze(config_for(noisy_files)))
        a["provenance"].pop("timestamp")
        b["provenance"].pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_changes_permutation_p_only_in_kind(self, noisy_files):
        a = analyze(config_for(noisy_files, seed=5))
        b = analyze(config_for(noisy_files, seed=6))
        assert a.moran.i_value == b.moran.i_value
        assert a.inference.i_permutation.seed != b.inference.i_permutation.seed

    def test_log_transform_path(self, noisy_files):
        raw, dist, _, _ = noisy_files
        via_flag = analyze(config_for(noisy_files, log_transform=True))
        direct = analyze_data(log_transform(raw), dist, permutations=49, seed=5)
        assert via_flag.moran.i_value == direct.moran.i_value
        assert via_flag.provenance.log_transformed

    def test_permutations_zero_skips_the_test(self, noisy_files):
        report = analyze(config_for(noisy_files, permutations=0))
        assert report.inference.i_permutation is None
        assert report.diagnostics.residual_permutation is None

    def test_provenance_hashes(self, noisy_files):
        report = analyze(config_for(noisy_files))
        assert len(report.provenance.sizes_sha256) == 64
        assert len(report.provenance.dist_sha256) == 64
        assert report.provenance.seed == 5


class TestDegenerateFixture:
    def test_two_site_has_no_residual_diagnostics(self, fixtures_dir):
        report = analyze(
            AnalysisConfig(
                sizes_path=str(fixtures_dir / "two_site_sizes.csv"),
                dist_path=str(fixtures_dir / "two_site_distances.csv"),
                permutations=9,
            )
        )
        assert report.sar.degenerate
        assert report.diagnostics.degenerate
        assert report.diagnostics.result is None
        assert report.moran.i_value == -1.0
        assert report.all_identities_pass

    def test_chain_long_format_matches_matrix(self, fixtures_dir):
        base = dict(sizes_path=str(fixtures_dir / "chain_sizes.csv"), permutations=0)
        from_matrix = analyze(
            AnalysisConfig(dist_path=str(fixtures_dir / "chain_distances.csv"), **base)
        )
        from_long = analyze(
            AnalysisConfig(
                dist_path=str(fixtures_dir / "chain_distances_long.csv"),
                dist_format="long",
                **base,
            )
        )
        assert from_matrix.moran.i_value == from_long.moran.i_value


class TestSummary:
    def test_row_layout(self, noisy_files):
        report = analyze(config_for(noisy_files))
        rows = summary_rows(report)
        assert [r[:2] for r in rows[:4]] == [
            ["autocorrelation", "lag_sum"],
            ["autocorrelation", "moran_index"],
            ["autoregression", "intercept"],
            ["autoregression", "rho"],
        ]
        assert rows[4][:2] == ["residuals", "residual_index"]
        assert rows[5][:2] == ["residuals", "durbin_watson"]

    def test_degenerate_fit_drops_residual_rows(self, fixtures_dir):
        report = analyze(
            AnalysisConfig(
                sizes_path=str(fixtures_dir / "two_site_sizes.csv"),
                dist_path=str(fixtures_dir / "two_site_distances.csv"),
                permutations=0,
            )
        )
        assert len(summary_rows(report)) == 4

    def test_csv_cells_match_json_values(self, noisy_files, tmp_path):
        report = analyze(config_for(noisy_files))
        written = emit_report(report, {"json", "csv"}, tmp_path)
        blob = json.loads(written["json"].read_text())
        with open(written["csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["measure", "parameter", "coefficient", "p_value", "r_squared"]
        by_param = {r[1]: r for r in rows[1:]}
        assert by_param["moran_index"][2] == format_sig(blob["moran"]["i_value"])
        assert by_param["rho"][2] == format_sig(blob["sar"]["rho_hat"])
        assert by_param["intercept"][2] == format_sig(blob["sar"]["a_hat"])
        assert by_param["lag_sum"][2] == format_sig(blob["moran"]["intercept"])
        assert by_param["moran_index"][4] == format_sig(blob["sar"]["r_squared"])


class TestEmit:
    def test_json_contract_keys(self, noisy_files, tmp_path):
        report = analyze(config_for(noisy_files))
        written = emit_report(report, {"json"}, tmp_path)
        blob = json.loads(written["json"].read_text())
        sar = blob["sar"]
        for key in (
            "a_hat", "rho_hat", "r_squared", "delta", "se_slope",
            "se_intercept", "p_slope", "p_intercept", "residuals",
        ):
            assert key in sar
        assert isinstance(sar["residuals"], list)
        assert len(sar["residuals"]) == blob["provenance"]["n"]

    def test_byte_identical_json_apart_from_timestamp(self, noisy_files, tmp_path):
        report_a = analyze(config_for(noisy_files))
        report_b = analyze(config_for(noisy_files))
        a = emit_report(report_a, {"json"}, tmp_path / "a")["json"].read_text()
        b = emit_report(report_b, {"json"}, tmp_path / "b")["json"].read_text()
        keep_a = [l for l in a.splitlines() if '"timestamp"' not in l]
        keep_b = [l for l in b.splitlines() if '"timestamp"' not in l]
        assert keep_a == keep_b
        assert len(keep_a) == len(a.splitlines()) - 1

    def test_non_finite_values_are_strict_json(self, fixtures_dir, tmp_path):
        # the exact two-site fit has R2 = 1, so its t statistics are infinite
        report = analyze(
            AnalysisConfig(
                sizes_path=str(fixtures_dir / "two_site_sizes.csv"),
                dist_path=str(fixtures_dir / "two_site_distances.csv"),
                permutations=9,
            )
        )
        written = emit_report(report, {"json"}, tmp_path)

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        blob = json.loads(written["json"].read_text(), parse_constant=reject)
        statistic = blob["inference"]["i_t_test"]["statistic"]
        assert statistic == "-Infinity"
        assert float(statistic) == report.inference.i_t_test.statistic

    def test_svg_output(self, noisy_files, tmp_path):
        raw, dist, _, _ = noisy_files
        report = analyze(config_for(noisy_files))
        datasets = scatter_datasets_for(raw, dist)
        written = emit_report(report, {"svg"}, tmp_path, datasets)
        assert len(written) == 2
        for path in written.values():
            assert path.read_text().startswith("<?xml")


class TestConfigValidation:
    def test_alpha_range(self, noisy_files):
        with pytest.raises(InputError):
            config_for(noisy_files, alpha=1.5)

    def test_negative_permutations(self, noisy_files):
        with pytest.raises(InputError):
            config_for(noisy_files, permutations=-1)

    def test_unknown_output(self, noisy_files):
        with pytest.raises(InputError):
            config_for(noisy_files, outputs=frozenset({"pdf"}))

    def test_bad_dist_format(self, noisy_files):
        with pytest.raises(InputError):
            config_for(noisy_files, dist_format="wide")
