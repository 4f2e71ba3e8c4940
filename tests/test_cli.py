"""Command-line verbs, flag handling, exit codes, and console output."""

import csv
import gc
import json
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import moransar.cli as cli
from moransar._version import __version__
from moransar.cli import main
from moransar.dataio import write_distance_matrix, write_sizes
from moransar.errors import NoConvergence
from moransar.spatial_data import RawSizeVector
from moransar.verification import IdentityCheck, SuiteResult


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("MORANSAR_SEED", raising=False)


def chain_analyze(fixtures_dir, out_dir, *extra):
    return [
        "analyze",
        "--sizes", str(fixtures_dir / "chain_sizes.csv"),
        "--dist", str(fixtures_dir / "chain_distances.csv"),
        "--out", str(out_dir),
        *extra,
    ]


def input_args(fixtures_dir):
    return [
        "--sizes", str(fixtures_dir / "chain_sizes.csv"),
        "--dist", str(fixtures_dir / "chain_distances.csv"),
    ]


class TestAnalyzeVerb:
    def test_happy_path_writes_report_and_summary(self, fixtures_dir, tmp_path, capsys):
        rc = main(chain_analyze(fixtures_dir, tmp_path, "--permutations", "0"))
        assert rc == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "summary.csv").exists()
        out = capsys.readouterr().out
        assert "identities:" in out
        assert " pass" in out
        assert "wrote" in out

    def test_svg_flag_renders_both_modes(self, fixtures_dir, tmp_path):
        rc = main(chain_analyze(fixtures_dir, tmp_path, "--permutations", "0", "--svg"))
        assert rc == 0
        assert (tmp_path / "scatter_autocorrelation.svg").exists()
        assert (tmp_path / "scatter_autoregression.svg").exists()

    def test_seed_flag_lands_in_provenance(self, fixtures_dir, tmp_path):
        rc = main(chain_analyze(fixtures_dir, tmp_path, "--seed", "42"))
        assert rc == 0
        blob = json.loads((tmp_path / "report.json").read_text())
        assert blob["provenance"]["seed"] == 42

    def test_env_seed_used_when_flag_absent(self, fixtures_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("MORANSAR_SEED", "7")
        rc = main(chain_analyze(fixtures_dir, tmp_path))
        assert rc == 0
        blob = json.loads((tmp_path / "report.json").read_text())
        assert blob["provenance"]["seed"] == 7

    def test_flag_beats_env(self, fixtures_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("MORANSAR_SEED", "7")
        main(chain_analyze(fixtures_dir, tmp_path, "--seed", "3"))
        blob = json.loads((tmp_path / "report.json").read_text())
        assert blob["provenance"]["seed"] == 3

    def test_non_integer_env_seed_is_an_input_error(self, fixtures_dir, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv("MORANSAR_SEED", "seven")
        rc = main(chain_analyze(fixtures_dir, tmp_path))
        assert rc == 1
        assert "input error" in capsys.readouterr().err

    def test_negative_seed_exits_1_before_writing(self, fixtures_dir, tmp_path, capsys):
        # the 3-site chain enumerates its 3! relabelings and draws nothing,
        # yet a negative seed is still refused
        rc = main(chain_analyze(fixtures_dir, tmp_path / "out", "--seed", "-2"))
        assert rc == 1
        assert "--seed must be nonnegative, got -2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_env_seed_is_an_input_error(self, fixtures_dir, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("MORANSAR_SEED", "-5")
        rc = main(chain_analyze(fixtures_dir, tmp_path / "out"))
        assert rc == 1
        assert "MORANSAR_SEED must be nonnegative, got '-5'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_3(self, fixtures_dir, tmp_path, capsys):
        rc = main([
            "analyze",
            "--sizes", str(tmp_path / "nope.csv"),
            "--dist", str(fixtures_dir / "chain_distances.csv"),
            "--out", str(tmp_path),
        ])
        assert rc == 3
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_csv_exits_1(self, fixtures_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,value\na,1\nb,not-a-number\n")
        rc = main([
            "analyze",
            "--sizes", str(bad),
            "--dist", str(fixtures_dir / "chain_distances.csv"),
            "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "input error" in capsys.readouterr().err

    def test_out_colliding_with_file_exits_3(self, fixtures_dir, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("x")
        rc = main(chain_analyze(fixtures_dir, blocker, "--permutations", "0"))
        assert rc == 3

    def test_strict_symmetry_rejects_lopsided_matrix(self, fixtures_dir, tmp_path):
        dist = tmp_path / "skew.csv"
        dist.write_text(
            "id,left,mid,right\nleft,0,2,4\nmid,3,0,1\nright,4,1,0\n"
        )
        args = [
            "analyze",
            "--sizes", str(fixtures_dir / "chain_sizes.csv"),
            "--dist", str(dist),
            "--out", str(tmp_path),
            "--permutations", "0",
        ]
        assert main(args + ["--strict-symmetry"]) == 1
        with pytest.warns(UserWarning):
            assert main(args) == 0

    @pytest.mark.parametrize("flag, value", [("--alpha", "1.5"),
                                             ("--permutations", "-3")])
    def test_out_of_range_values_are_input_errors(self, fixtures_dir, tmp_path,
                                                  capsys, flag, value):
        rc = main(chain_analyze(fixtures_dir, tmp_path, flag, value))
        assert rc == 1
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_numerical_failure_exits_2(self, fixtures_dir, tmp_path, monkeypatch,
                                       capsys):
        def explode(*a, **k):
            raise NoConvergence(widest=1.0, sweeps=100)

        monkeypatch.setattr(cli, "analyze", explode)
        rc = main(chain_analyze(fixtures_dir, tmp_path))
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, fixtures_dir):
        with pytest.raises(SystemExit) as exc:
            main(input_args(fixtures_dir) + ["--bogus"])
        assert exc.value.code == 1

    def test_unknown_verb_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_1(self, fixtures_dir):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--sizes", str(fixtures_dir / "chain_sizes.csv")])
        assert exc.value.code == 1


class TestScatterVerb:
    def test_default_mode_writes_autocorrelation_csv(self, fixtures_dir, tmp_path,
                                                     capsys):
        rc = main(["scatter", *input_args(fixtures_dir), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "scatter_autocorrelation.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_sar_mode_with_svg(self, fixtures_dir, tmp_path):
        rc = main([
            "scatter", *input_args(fixtures_dir),
            "--mode", "sar", "--svg", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "scatter_autoregression.csv").exists()
        assert (tmp_path / "scatter_autoregression.svg").exists()


class TestBoundsVerb:
    def test_prints_all_ranges(self, fixtures_dir, capsys):
        rc = main(["bounds", *input_args(fixtures_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "range 1" in out
        assert "range 2 theoretical" in out
        assert "range 2 empirical" in out
        assert "range 3" in out
        assert "implied rho" in out
        # the chain fixture is an exact fit, so every containment holds
        assert "OUTSIDE" not in out

    @pytest.mark.parametrize("power", ["e160", "e-160", "e-320"])
    def test_extreme_size_magnitudes(self, fixtures_dir, tmp_path, capsys, power):
        # squares of these sizes overflow, underflow or are subnormal;
        # standardizing must not see them
        sizes = tmp_path / "sizes.csv"
        sizes.write_text(f"left,1{power}\nmid,2{power}\nright,4{power}\n")
        dist = str(fixtures_dir / "chain_distances.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", "--sizes", str(sizes), "--dist", dist]) == 0
        out = capsys.readouterr().out
        sizes.write_text("left,1\nmid,2\nright,4\n")
        assert main(["bounds", "--sizes", str(sizes), "--dist", dist]) == 0
        if power != "e-320":  # subnormal sizes are not exactly 1:2:4
            assert out == capsys.readouterr().out


class TestUnderflowingWeights:
    def test_far_clusters_analyze_and_bounds(self, far_clusters, tmp_path, capsys):
        raw, dist = far_clusters
        write_sizes(raw, tmp_path / "sizes.csv")
        write_distance_matrix(raw.ids, dist, tmp_path / "dist.csv")
        inputs = ["--sizes", str(tmp_path / "sizes.csv"),
                  "--dist", str(tmp_path / "dist.csv")]
        assert main(["analyze", *inputs, "--out", str(tmp_path / "out")]) == 0
        assert "identities: 14/14 pass" in capsys.readouterr().out
        assert main(["bounds", *inputs]) == 0
        assert "range 3" in capsys.readouterr().out


class TestOverflowingProximities:
    def test_every_distance_1e_minus_307_is_analyzed(self, tmp_path, capsys):
        # W is scale-free: these 15 sites have the W of equal distances,
        # though their 210 proximities 1e307 sum beyond the float range
        raw = RawSizeVector.from_values(np.arange(1.0, 16.0) ** 2)
        write_sizes(raw, tmp_path / "sizes.csv")
        write_distance_matrix(raw.ids, np.full((15, 15), 1e-307) * (1 - np.eye(15)),
                              tmp_path / "dist.csv")
        assert main(["analyze", "--sizes", str(tmp_path / "sizes.csv"),
                     "--dist", str(tmp_path / "dist.csv"), "--permutations", "99",
                     "--out", str(tmp_path / "out")]) == 0
        assert "identities: 13/13 pass" in capsys.readouterr().out


class TestSimulateVerb:
    def test_simulate_then_analyze(self, tmp_path, capsys):
        data = tmp_path / "data"
        rc = main(["simulate", "--n", "8", "--seed", "5", "--rho", "1.0",
                   "--out", str(data)])
        assert rc == 0
        assert "realized Moran index" in capsys.readouterr().out
        rc = main([
            "analyze",
            "--sizes", str(data / "sizes.csv"),
            "--dist", str(data / "distances.csv"),
            "--out", str(tmp_path / "report"),
            "--permutations", "19",
        ])
        assert rc == 0

    def test_deterministic_output_files(self, tmp_path):
        for sub in ("a", "b"):
            main(["simulate", "--n", "6", "--seed", "9", "--out",
                  str(tmp_path / sub)])
        for name in ("sizes.csv", "distances.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_n_must_match_supplied_distances(self, fixtures_dir, tmp_path):
        rc = main([
            "simulate", "--n", "5",
            "--dist", str(fixtures_dir / "chain_distances.csv"),
            "--out", str(tmp_path),
        ])
        assert rc == 1

    def test_n_that_does_not_match_names_the_distance_file(self, fixtures_dir, tmp_path, capsys):
        dist = str(fixtures_dir / "chain_distances.csv")
        rc = main(["simulate", "--n", "5", "--dist", dist, "--out", str(tmp_path / "d")])
        assert rc == 1
        assert capsys.readouterr().err == f"moransar: input error: {dist}:0: 3 elements, but --n is 5\n"
        assert not (tmp_path / "d").exists()

    def test_negative_seed_exits_1_without_files(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "5", "--seed", "-3", "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "--seed must be nonnegative, got -3" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_rejected_draw_writes_no_file(self, tmp_path, capsys):
        # noiseless at rho = 0, every size equals a: the analysis rejects it
        rc = main(["simulate", "--n", "3", "--noise-sd", "0", "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "all size values are equal" in capsys.readouterr().err
        assert not (tmp_path / "d" / "sizes.csv").exists()
        assert not (tmp_path / "d" / "distances.csv").exists()


    @pytest.mark.parametrize("verb", [["analyze", "--permutations", "0"], ["bounds"],
                                      ["scatter"]])
    def test_log_of_a_nonpositive_simulated_size_is_located(self, tmp_path, capsys, verb):
        # the default --a 1 --noise-sd 1 draws a negative size at id 16
        data = tmp_path / "data"
        assert main(["simulate", "--n", "35", "--seed", "7", "--out", str(data)]) == 0
        sizes = str(data / "sizes.csv")
        args = [*verb, "--sizes", sizes, "--dist", str(data / "distances.csv"), "--log"]
        if verb[0] != "bounds":
            args += ["--out", str(tmp_path / "report")]
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"moransar: input error: {sizes}: size of id '16' is not positive")
        assert "(--log) needs positive sizes" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell, message", [
        ("0", "distance between ids 'mid' and 'right' is zero"),
        ("1e-320", "distance between ids 'mid' and 'right' is too small to invert: 1e-320"),
    ], ids=["zero", "tiny"])
    def test_data_error_of_the_distance_file_is_located(self, tmp_path, capsys, cell, message):
        dist = tmp_path / "in_dist.csv"
        dist.write_text(CHAIN_MATRIX_HEADER + f"left,0,1,2\nmid,1,0,{cell}\nright,2,{cell},0\n")
        assert main(["simulate", "--n", "3", "--dist", str(dist),
                     "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err == f"moransar: input error: {dist}: {message}\n"
        assert not (tmp_path / "d").exists()


CHAIN_MATRIX_HEADER = "id,left,mid,right\n"

# a data error each, with the stderr line that names its file(s) and ids
LOCATED_ERRORS = {
    "id_mismatch": (
        "id,value\nleft,1\nmid,2\nrighty,3\n",
        CHAIN_MATRIX_HEADER + "left,0,1,2\nmid,1,0,1\nright,2,1,0\n",
        [],
        "ids in {sizes} do not match ids in {dist} "
        "(missing from sizes: ['right'], unmatched in sizes: ['righty'])",
    ),
    "zero_distance": (
        None,
        CHAIN_MATRIX_HEADER + "left,0,1,2\nmid,1,0,0\nright,2,0,0\n",
        [],
        "{dist}: distance between ids 'mid' and 'right' is zero",
    ),
    "negative_distance": (
        None,
        CHAIN_MATRIX_HEADER + "left,0,1,2\nmid,1,0,-1\nright,2,-1,0\n",
        [],
        "{dist}: distance between ids 'mid' and 'right' is negative: -1.0",
    ),
    "strict_asymmetry": (
        None,
        CHAIN_MATRIX_HEADER + "left,0,2,4\nmid,3,0,1\nright,4,1,0\n",
        ["--strict-symmetry"],
        "{dist}: distances from 'left' to 'mid' and back differ by relative "
        "3.333e-01 (strict symmetry requested)",
    ),
    "zero_variance": (
        "id,value\nleft,2\nmid,2\nright,2\n",
        CHAIN_MATRIX_HEADER + "left,0,1,2\nmid,1,0,1\nright,2,1,0\n",
        [],
        "{sizes}: all size values are equal",
    ),
    # positive, but its reciprocal overflows
    "tiny_distance": (
        None,
        CHAIN_MATRIX_HEADER + "left,0,1,2\nmid,1,0,1e-320\nright,2,1e-320,0\n",
        [],
        "{dist}: distance between ids 'mid' and 'right' is too small to invert: 1e-320",
    ),
}


class TestLocatedDataErrors:
    """Data errors found after parsing name their file(s) and the ids, in
    every verb that reads the two input files."""

    @pytest.mark.parametrize("error", sorted(LOCATED_ERRORS))
    @pytest.mark.parametrize("verb", ["analyze", "scatter", "bounds"])
    def test_one_located_line(self, fixtures_dir, tmp_path, capsys, verb, error):
        sizes_text, dist_text, flags, message = LOCATED_ERRORS[error]
        sizes, dist = tmp_path / "in_sizes.csv", tmp_path / "in_dist.csv"
        sizes.write_text(sizes_text or (fixtures_dir / "chain_sizes.csv").read_text())
        dist.write_text(dist_text)
        args = [verb, "--sizes", str(sizes), "--dist", str(dist), *flags]
        if verb != "bounds":
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == ("moransar: input error: "
                       + message.format(sizes=sizes, dist=dist) + "\n")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestVerifyVerb:
    def test_small_suite_passes(self, capsys):
        rc = main(["verify", "--instances", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identity suite:" in out
        assert "[PASS]" in out

    @pytest.mark.parametrize("flag, env", [("-1", None), (None, "-5")])
    def test_negative_seed_exits_1(self, monkeypatch, capsys, flag, env):
        if env is not None:
            monkeypatch.setenv("MORANSAR_SEED", env)
        rc = main(["verify", "--instances", "2", *(["--seed", flag] if flag else [])])
        assert rc == 1
        err = capsys.readouterr().err
        assert "must be nonnegative" in err
        assert "Traceback" not in err

    def test_failures_exit_2(self, monkeypatch, capsys):
        broken = SuiteResult(
            total=1,
            failures=(IdentityCheck("fake", 1.0, 0.0, False),),
            elapsed_seconds=0.0,
        )
        monkeypatch.setattr(cli, "run_suite", lambda **k: broken)
        rc = main(["verify", "--instances", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "FAIL fake" in captured.err
        assert "[FAIL]" in captured.out


class TestVersionAndEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "moransar", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout

    def test_import_loads_no_scipy(self):
        # the runtime needs numpy alone; scipy is a test-only oracle
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "def scipy_modules():\n"
             "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
             "import moransar\n"
             "print(scipy_modules())\n"
             "import moransar.cli\n"
             "print(scipy_modules())\n"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "[]"]

    def test_simulate_and_analyze_run_without_scipy(self, tmp_path):
        # a None entry in sys.modules makes every `import scipy` fail
        data, out = tmp_path / "data", tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "sys.modules['scipy'] = None\n"
             "from moransar import cli\n"
             "data, out = sys.argv[1:]\n"
             "assert cli.main(['simulate', '--n', '35', '--seed', '7', '--a', '10',\n"
             "                 '--rho', '5', '--out', data]) == 0\n"
             "assert cli.main(['analyze', '--sizes', data + '/sizes.csv',\n"
             "                 '--dist', data + '/distances.csv', '--log', '--svg',\n"
             "                 '--permutations', '99', '--seed', '1', '--out', out]) == 0\n",
             str(data), str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()
        assert (out / "scatter_autoregression.svg").exists()


class TestProcessEntry:
    """``cli.run``, the entry of ``python -m moransar`` and the console
    script, freezes the collector at exit; ``cli.main`` never does."""

    def test_main_leaves_the_collector_unfrozen(self, fixtures_dir, tmp_path):
        frozen = gc.get_freeze_count()
        assert main(chain_analyze(fixtures_dir, tmp_path, "--permutations", "0")) == 0
        assert gc.get_freeze_count() == frozen

    def test_run_returns_mains_code_and_freezes(self, fixtures_dir, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import gc, sys\n"
             "from moransar import cli\n"
             "code = cli.run(sys.argv[1:])\n"
             "print(code, gc.get_freeze_count() > 0)\n",
             *chain_analyze(fixtures_dir, tmp_path, "--permutations", "0")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 True"

    def test_module_entry_analyzes_the_chain(self, fixtures_dir, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "moransar",
             *chain_analyze(fixtures_dir, tmp_path, "--permutations", "0")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "identities: 13/13 pass" in proc.stdout
        assert json.loads((tmp_path / "report.json").read_text())["provenance"]["n"] == 3

    def test_module_entry_malformed_sizes_exits_1_without_traceback(
            self, fixtures_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,value\na,1\nb,not-a-number\n")
        proc = subprocess.run(
            [sys.executable, "-m", "moransar", "analyze", "--sizes", str(bad),
             "--dist", str(fixtures_dir / "chain_distances.csv"),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (f"moransar: input error: {bad}:3: "
                               "size value is not a number: 'not-a-number'\n")

    def test_site_less_import_skips_unused_modules(self):
        # -S: no site file runs, so none can preload a module and hide an
        # import that moransar.cli brings in; the directories holding
        # moransar and numpy are put on sys.path by hand instead
        paths = [str(Path(module.__file__).resolve().parents[1])
                 for module in (cli, np)]
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys\n"
             "sys.path[:0] = sys.argv[1:]\n"
             "import moransar.cli\n"
             "unused = ('concurrent.futures', 'logging', 'importlib.resources')\n"
             "print(' '.join(m for m in unused if m in sys.modules))\n",
             *paths],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestWrittenArtifacts:
    def test_every_file_is_lf_only_and_valid(self, fixtures_dir, tmp_path):
        # every verb that writes files (bounds only prints), into its own
        # directory, then every file it left checked in its format
        runs = {
            "analyze": chain_analyze(fixtures_dir, tmp_path / "analyze",
                                     "--permutations", "19", "--seed", "1", "--svg"),
            "simulate": ["simulate", "--n", "8", "--seed", "5", "--rho", "1.0",
                         "--out", str(tmp_path / "simulate")],
        }
        for mode in ("autocorr", "sar"):
            for svg in ([], ["--svg"]):
                out = tmp_path / f"scatter_{mode}{'_svg' if svg else ''}"
                runs[out.name] = ["scatter", *input_args(fixtures_dir), "--mode", mode,
                                  *svg, "--out", str(out)]
        for argv in runs.values():
            assert main(argv) == 0
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        # report, summary and two plots; a csv per scatter run, a plot for
        # two of them; sizes and distances
        assert len(files) == 4 + 4 + 2 + 2
        for path in files:
            data = path.read_bytes()
            assert b"\r" not in data, path
            text = data.decode("utf-8")
            if path.suffix == ".json":
                json.loads(text, parse_constant=reject_constant)
            elif path.suffix == ".csv":
                rows = list(csv.reader(line for line in text.splitlines()
                                       if not line.startswith("#")))
                assert rows and len({len(row) for row in rows}) == 1, path
            else:
                assert path.suffix == ".svg", path
                ET.fromstring(data)
