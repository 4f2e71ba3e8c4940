"""End-to-end analysis: loading, reporting, determinism, serialization."""

import builtins
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from moransar import cli, inference, pipeline
from moransar.dataio import write_distance_matrix, write_sizes
from moransar.errors import InputError
from moransar.pipeline import (
    AnalysisConfig,
    analyze,
    analyze_data,
    analyze_prepared,
    emit_report,
    format_sig,
    prepare_files,
    report_to_dict,
    summary_rows,
)
from moransar.spatial_data import log_transform, prepare
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

    def test_each_input_is_read_once_and_hashed(self, noisy_files, monkeypatch):
        _, _, sizes, dist = noisy_files
        opened = []
        real_open = io.open

        def recording_open(file, *args, **kwargs):
            opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(builtins, "open", recording_open)
        report = analyze(config_for(noisy_files, permutations=0))
        monkeypatch.undo()
        assert opened.count(sizes) == 1
        assert opened.count(dist) == 1
        digest = hashlib.sha256(Path(dist).read_bytes()).hexdigest()
        assert report.provenance.dist_sha256 == digest
        digest = hashlib.sha256(Path(sizes).read_bytes()).hexdigest()
        assert report.provenance.sizes_sha256 == digest


class TestPrepareFiles:
    """The one path from the two input files to the prepared bundle."""

    @pytest.mark.parametrize("apply_log", [False, True])
    def test_bundle_and_digests(self, noisy_files, apply_log):
        raw, dist, sizes, matrix = noisy_files
        inputs, sizes_sha256, dist_sha256 = prepare_files(sizes, matrix, "matrix",
                                                          apply_log=apply_log,
                                                          symmetrize="auto")
        expected = prepare(raw, dist, apply_log=apply_log)
        assert inputs.log_transformed is expected.log_transformed is apply_log
        assert inputs.i_value == expected.i_value
        assert inputs.z.values.tobytes() == expected.z.values.tobytes()
        assert inputs.weights.matrix.tobytes() == expected.weights.matrix.tobytes()
        assert sizes_sha256 == hashlib.sha256(Path(sizes).read_bytes()).hexdigest()
        assert dist_sha256 == hashlib.sha256(Path(matrix).read_bytes()).hexdigest()

    def test_provenance_reads_the_log_flag_from_the_bundle(self, noisy_files):
        raw, dist, _, _ = noisy_files
        for apply_log in (False, True):
            report = analyze_prepared(prepare(raw, dist, apply_log=apply_log), permutations=0)
            assert report.provenance.log_transformed is apply_log

    @pytest.mark.parametrize("verb", ["analyze", "scatter", "bounds"])
    def test_every_file_verb_prepares_through_it(self, noisy_files, tmp_path, monkeypatch,
                                                 verb):
        _, _, sizes, matrix = noisy_files
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return prepare_files(*args, **kwargs)

        monkeypatch.setattr(pipeline, "prepare_files", spy)
        monkeypatch.setattr(cli, "prepare_files", spy)
        args = [verb, "--sizes", sizes, "--dist", matrix, "--log"]
        if verb != "bounds":
            args += ["--out", str(tmp_path)]
        assert cli.main(args) == 0
        assert calls == [((sizes, matrix, "matrix"),
                          {"apply_log": True, "symmetrize": "auto"})]


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


class TestSelfAgreement:
    """Each coefficient has one p-value, wherever the report shows it."""

    @pytest.mark.parametrize("fixture", ["two_site", "chain", "noisy"])
    def test_model_p_values_equal_the_t_tests(self, fixture, fixtures_dir, noisy_files):
        if fixture == "noisy":
            config = config_for(noisy_files)
        else:
            config = AnalysisConfig(
                sizes_path=str(fixtures_dir / f"{fixture}_sizes.csv"),
                dist_path=str(fixtures_dir / f"{fixture}_distances.csv"),
                permutations=0,
            )
        report = analyze(config)
        inf = report.inference
        assert report.moran.slope_p_value == inf.i_t_test.p_value
        assert report.moran.intercept_p_value == inf.lag_sum_t_test.p_value
        assert report.sar.p_slope == inf.rho_t_test.p_value
        assert report.sar.p_intercept == inf.a_t_test.p_value

    def test_exact_fit_zero_intercepts_have_p_one(self, fixtures_dir):
        report = analyze(
            AnalysisConfig(
                sizes_path=str(fixtures_dir / "chain_sizes.csv"),
                dist_path=str(fixtures_dir / "chain_distances_long.csv"),
                dist_format="long",
                permutations=0,
            )
        )
        assert report.sar.degenerate
        assert report.sar.a_hat == 0.0
        assert report.sar.p_intercept == 1.0
        assert report.moran.intercept == 0.0
        assert report.moran.intercept_p_value == 1.0


class TestComputeOnce:
    """One analysis derives each t-test, I and Durbin-Watson result once."""

    @staticmethod
    def count_calls(monkeypatch, fn):
        """Route every moransar binding of fn through a counter."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "moransar" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
        return calls

    def test_t_tests_and_durbin_watson_run_once(self, noisy_files, monkeypatch):
        raw, dist, _, _ = noisy_files
        t_tests = self.count_calls(monkeypatch, inference.slope_t_test)
        dw_runs = self.count_calls(monkeypatch, inference.spatial_durbin_watson)
        report = analyze_data(raw, dist, permutations=0)
        assert report.diagnostics.result is not None
        assert "dw_geary" in {check.name for check in report.identities}
        assert len(t_tests) == 4
        assert len(dw_runs) == 1

    def test_sar_reads_the_index_from_the_bundle(self, noisy_files, monkeypatch):
        # a bundle whose I reads 0 must set the fit's zero_moran flag,
        # which it cannot if the SAR layer evaluates z'Wz itself
        raw, dist, _, _ = noisy_files

        def zero_index_prepare(*args, **kwargs):
            return dataclasses.replace(prepare(*args, **kwargs), i_value=0.0)

        monkeypatch.setattr(pipeline, "prepare", zero_index_prepare)
        report = analyze_data(raw, dist, permutations=0)
        assert report.sar.zero_moran


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
        report = analyze(config_for(noisy_files))
        written = emit_report(report, {"svg"}, tmp_path)
        assert len(written) == 2
        for path in written.values():
            assert path.read_text().startswith("<?xml")


class TestCliMatchesLibrary:
    def test_same_files_from_cli_and_library(self, noisy_files, tmp_path):
        from moransar.cli import main

        _, _, sizes, dist = noisy_files
        cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
        rc = main(["analyze", "--sizes", sizes, "--dist", dist, "--log", "--svg",
                   "--permutations", "49", "--seed", "5", "--out", str(cli_dir)])
        assert rc == 0
        config = config_for(noisy_files, log_transform=True)
        emit_report(analyze(config), {"json", "csv", "svg"}, lib_dir)

        names = ["report.json", "summary.csv", "scatter_autocorrelation.svg",
                 "scatter_autoregression.svg"]
        assert sorted(p.name for p in cli_dir.iterdir()) == sorted(names)
        for name in names:
            a, b = ((d / name).read_bytes() for d in (cli_dir, lib_dir))
            if name == "report.json":
                a, b = ([l for l in x.splitlines() if b'"timestamp"' not in l]
                        for x in (a, b))
            assert a == b, name


class TestConfigValidation:
    def test_alpha_range(self, noisy_files):
        with pytest.raises(InputError):
            config_for(noisy_files, alpha=1.5)

    @pytest.mark.parametrize(
        "option",
        [{"alpha": 1.5}, {"permutations": -3}, {"symmetrize": "Strict"}, {"seed": -1}],
    )
    def test_config_and_library_reject_the_same_values(self, noisy_files, option):
        raw, dist, _, _ = noisy_files
        with pytest.raises(InputError):
            config_for(noisy_files, **option)
        with pytest.raises(InputError):
            analyze_data(raw, dist, **option)

    @pytest.mark.parametrize(
        "option",
        [{"alpha": 7.0}, {"permutations": -5}, {"seed": -1, "permutations": 0}],
    )
    def test_prepared_analysis_rejects_what_the_config_rejects(self, option):
        # analyze_prepared is the public body behind analyze and analyze_data;
        # a negative seed must fail even when no permutation test would read it
        inputs = prepare(*random_instance(0, 3))
        with pytest.raises(InputError):
            analyze_prepared(inputs, **option)

    def test_negative_permutations(self, noisy_files):
        with pytest.raises(InputError):
            config_for(noisy_files, permutations=-1)

    def test_unknown_output(self, noisy_files, tmp_path):
        report = analyze(config_for(noisy_files))
        out_dir = tmp_path / "out"
        with pytest.raises(InputError, match="pdf"):
            emit_report(report, {"json", "pdf"}, out_dir)
        assert not out_dir.exists()

    def test_bad_dist_format(self, noisy_files):
        with pytest.raises(InputError):
            config_for(noisy_files, dist_format="wide")
