"""The benchmark's workloads: seeded input generators, ops and output oracles.

Every input is generated here from (workload seed, op index), so the same
seed gives byte-identical inputs on any commit; moransar receives only the
generated files or arrays. Size fields come from a spatial autoregressive
process solved with ``numpy.linalg.solve``, not from ``moransar.simulate``,
so the generator shares no code with the program under test.

Each workload offers two forms of its op: ``op`` is what a user runs and is
what the untraced run times; ``call`` is the in-process form that the traced
run times with and without the tracer (for ``cli-paper35`` it calls
``cli.main(argv)`` instead of starting an interpreter).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import moransar.cli
import moransar.pipeline
import moransar.verification
from moransar.spatial_data import RawSizeVector

I_REL_TOL = 1e-12       # reported I against the benchmark's own z'Wz
EIGEN_ABS_TOL = 1e-10   # range-1 extremes against numpy.linalg.eigvalsh(W)
SUMMARY_HEADER = ["measure", "parameter", "coefficient", "p_value", "r_squared"]


class OpFailed(Exception):
    """The op itself reported failure (nonzero exit code)."""


@dataclass
class Inputs:
    """One report op's input files, with their arrays kept for the oracle."""

    sizes: np.ndarray
    distances: np.ndarray
    op_seed: int
    sha256: dict[str, str]
    files: dict[str, Path]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def own_weights(distances: np.ndarray) -> np.ndarray:
    """Globally normalized reciprocal-distance weights, computed independently."""
    off = ~np.eye(distances.shape[0], dtype=bool)
    v = np.zeros_like(distances)
    v[off] = 1.0 / distances[off]
    return v / v.sum()


def own_moran(values: np.ndarray, distances: np.ndarray) -> float:
    """z'Wz with z the population-sigma z-score of values."""
    c = values - values.mean()
    z = c / np.sqrt(np.mean(c * c))
    return float(z @ own_weights(distances) @ z)


def clustered_points(rng: np.random.Generator, n: int, clusters: int) -> np.ndarray:
    """n points in equal-sized Gaussian clusters around uniform random centers."""
    centers = rng.uniform(0.0, 10.0, size=(clusters, 2))
    return centers[np.arange(n) % clusters] + rng.normal(0.0, 0.8, size=(n, 2))


def euclidean(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    if np.any(d[~np.eye(len(points), dtype=bool)] <= 0.0):
        raise ValueError("generated two coincident points")
    return d


def sar_log_sizes(rng: np.random.Generator, distances: np.ndarray) -> np.ndarray:
    """Log-sizes x solving (Id - rho W) x = 1 + eps, with rho at 0.8 / lambda_max."""
    w = own_weights(distances)
    rho = 0.8 / np.linalg.eigvalsh(w)[-1]
    n = w.shape[0]
    return np.linalg.solve(np.eye(n) - rho * w, 1.0 + rng.normal(size=n))


def _write(path: Path, text: str) -> str:
    """Write text to path; returns the sha256 of the bytes written."""
    data = text.encode()
    path.write_bytes(data)
    return sha256(data)


def _ids(n: int) -> list[str]:
    return [f"c{i:03d}" for i in range(n)]


def write_sizes(path: Path, sizes: np.ndarray) -> str:
    lines = ["id,value"] + [f"{i},{float(v)!r}" for i, v in zip(_ids(len(sizes)), sizes)]
    return _write(path, "\n".join(lines) + "\n")


def write_matrix(path: Path, d: np.ndarray) -> str:
    ids = _ids(len(d))
    lines = [",".join(["id", *ids])]
    lines += [",".join([ident, *(repr(float(v)) for v in row)]) for ident, row in zip(ids, d)]
    return _write(path, "\n".join(lines) + "\n")


def write_long(path: Path, d: np.ndarray) -> str:
    ids = _ids(len(d))
    lines = ["from,to,distance"]
    lines += [f"{ids[i]},{ids[j]},{float(d[i, j])!r}"
              for i in range(len(d)) for j in range(i + 1, len(d))]
    return _write(path, "\n".join(lines) + "\n")


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def load_report(path: Path) -> dict:
    """Parse report.json strictly: NaN and Infinity do not load."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def check_report_dir(inputs: Inputs, out_dir: Path, svg_modes: tuple[str, ...]) -> list[str]:
    """Oracle for a written analysis report; returns the problems found."""
    problems = []
    try:
        report = load_report(out_dir / "report.json")
    except (OSError, ValueError) as exc:
        return [f"report.json does not load: {exc}"]
    try:
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != SUMMARY_HEADER or len(rows) < 5 or any(len(r) != 5 for r in rows):
            problems.append("summary.csv has the wrong shape")
    except (OSError, IndexError, csv.Error) as exc:
        problems.append(f"summary.csv does not load: {exc}")
    for mode in svg_modes:
        try:
            ET.parse(out_dir / f"scatter_{mode}.svg")
        except (OSError, ET.ParseError) as exc:
            problems.append(f"scatter_{mode}.svg does not load: {exc}")
    try:
        failed = [c["name"] for c in report["identities"] if c["passed"] is not True]
        if failed or not report["identities"]:
            problems.append(f"identities failed: {failed or 'none reported'}")
        i_value = report["moran"]["i_value"]
        expected = own_moran(np.log(inputs.sizes), inputs.distances)
        if abs(i_value - expected) > I_REL_TOL * abs(expected):
            problems.append(f"I = {i_value!r}, own z'Wz = {expected!r}")
        eig = np.linalg.eigvalsh(own_weights(inputs.distances))
        box = report["bounds"]["range1"]["containment"]
        if (abs(box["lower"] - eig[0]) > EIGEN_ABS_TOL
                or abs(box["upper"] - eig[-1]) > EIGEN_ABS_TOL):
            problems.append(f"range-1 extremes [{box['lower']!r}, {box['upper']!r}] "
                            f"vs eigvalsh [{eig[0]!r}, {eig[-1]!r}]")
    except (KeyError, TypeError) as exc:
        problems.append(f"report.json lacks a field: {exc!r}")
    return problems


def report_dir_fingerprint(out_dir: Path) -> dict[str, object]:
    """Everything written, with report.json's timestamp dropped."""
    out: dict[str, object] = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "report.json":
            report = load_report(path)
            report["provenance"].pop("timestamp", None)
            out[path.name] = report
        else:
            out[path.name] = path.read_bytes()
    return out


class _ReportWorkload:
    """A workload whose op turns a sizes CSV and a distance CSV into a report."""

    spawns = False
    svg_modes: tuple[str, ...] = ()

    def __init__(self, n: int, permutations: int, clusters: int):
        self.n, self.permutations, self.clusters = n, permutations, clusters

    def make(self, seed: int, k: int, work: Path) -> Inputs:
        rng = np.random.default_rng([seed, self.tag, k])
        d = euclidean(clustered_points(rng, self.n, self.clusters))
        sizes = 1000.0 * np.exp(sar_log_sizes(rng, d))
        folder = work / f"in{k}"
        folder.mkdir()
        files = {"sizes": folder / "sizes.csv", "dist": folder / "distances.csv"}
        digests = {"sizes.csv": write_sizes(files["sizes"], sizes),
                   "distances.csv": self.write_distances(files["dist"], d)}
        return Inputs(sizes, d, int(rng.integers(2**31)), digests, files)

    def check(self, inputs: Inputs, out_dir: Path) -> list[str]:
        return check_report_dir(inputs, out_dir, self.svg_modes)

    def fingerprint(self, out_dir: Path):
        return report_dir_fingerprint(out_dir)


class AnalyzeSpectral(_ReportWorkload):
    """Library file-to-report at large n: pipeline.analyze, then emit_report."""

    name = "analyze-spectral"
    tag = 1
    write_distances = staticmethod(write_matrix)

    def __init__(self, n: int = 150, permutations: int = 999, clusters: int = 6):
        super().__init__(n, permutations, clusters)

    def call(self, inputs: Inputs, out_dir: Path) -> Path:
        config = moransar.pipeline.AnalysisConfig(
            sizes_path=str(inputs.files["sizes"]), dist_path=str(inputs.files["dist"]),
            log_transform=True, permutations=self.permutations, seed=inputs.op_seed,
        )
        report = moransar.pipeline.analyze(config)
        moransar.pipeline.emit_report(report, frozenset({"json", "csv"}), out_dir)
        return out_dir

    op = call


class CliPaper35(_ReportWorkload):
    """The 35-city case as users run it: one `moransar analyze` process per op."""

    name = "cli-paper35"
    tag = 2
    spawns = True
    svg_modes = ("autocorrelation", "autoregression")
    write_distances = staticmethod(write_long)

    def __init__(self, n: int = 35, permutations: int = 9999, clusters: int = 3):
        super().__init__(n, permutations, clusters)
        self.child_peak_kb = 0

    def argv(self, inputs: Inputs, out_dir: Path) -> list[str]:
        return ["analyze", "--sizes", str(inputs.files["sizes"]),
                "--dist", str(inputs.files["dist"]), "--dist-format", "long",
                "--log", "--svg", "--permutations", str(self.permutations),
                "--seed", str(inputs.op_seed), "--out", str(out_dir)]

    def op(self, inputs: Inputs, out_dir: Path) -> Path:
        out_dir.mkdir(parents=True, exist_ok=True)
        err_path = out_dir.parent / f"{out_dir.name}.stderr"
        with open(err_path, "wb") as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "moransar", *self.argv(inputs, out_dir)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            # wait4 rather than wait: it also returns the child's peak RSS
            _pid, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)  # reaped here
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        if child.returncode != 0:
            raise OpFailed(f"exit {child.returncode}: {err_path.read_text()[-400:]}")
        return out_dir

    def call(self, inputs: Inputs, out_dir: Path) -> Path:
        with contextlib.redirect_stdout(io.StringIO()):
            code = moransar.cli.main(self.argv(inputs, out_dir))
        if code != 0:
            raise OpFailed(f"cli.main returned {code}")
        return out_dir


@dataclass
class Deck:
    """One verify-deck op's instances, (sizes, distances) pairs."""

    instances: list[tuple[np.ndarray, np.ndarray]]
    sha256: dict[str, str]


class VerifyDeck:
    """The identity suite's traffic: instance_checks on every instance of a deck.

    A deck holds one instance for each n in min_n..max_n, in a seeded order,
    drawn like verification.random_instance. Timing whole decks keeps the
    median steady: the time of single instances rises steeply with n, so
    their median moves with the few instances drawn near it.
    """

    name = "verify-deck"
    tag = 3
    spawns = False

    def __init__(self, min_n: int = 3, max_n: int = 40):
        self.min_n, self.max_n = min_n, max_n

    def make(self, seed: int, k: int, _work: Path) -> Deck:
        sizes_n = np.arange(self.min_n, self.max_n + 1)
        order = np.random.default_rng([seed, self.tag, 0, k]).permutation(sizes_n)
        instances = []
        for j, n in enumerate(order):
            rng = np.random.default_rng([seed, self.tag, 1, k, j])
            sizes = rng.uniform(0.5, 10.0, size=n)
            d = np.zeros((n, n))
            iu = np.triu_indices(n, k=1)
            d[iu] = rng.uniform(0.2, 5.0, size=iu[0].size)
            instances.append((sizes, d + d.T))
        digests = {"sizes": sha256(b"".join(s.tobytes() for s, _ in instances)),
                   "distances": sha256(b"".join(d.tobytes() for _, d in instances))}
        return Deck(instances, digests)

    def call(self, deck: Deck, _out_dir: Path):
        return [moransar.verification.instance_checks(RawSizeVector.from_values(sizes), d)
                for sizes, d in deck.instances]

    op = call

    def check(self, _deck: Deck, results) -> list[str]:
        problems = []
        for j, checks in enumerate(results):
            failed = [c.name for c in checks if not c.passed]
            if failed or not checks:
                problems.append(f"instance {j}: identities failed: {failed or 'none reported'}")
        return problems

    def fingerprint(self, results):
        return [[(c.name, c.slack, c.tolerance, c.passed) for c in checks]
                for checks in results]


WORKLOADS = {w.name: w for w in (AnalyzeSpectral, CliPaper35, VerifyDeck)}


def peak_rss_kb(workload) -> int:
    """Peak RSS of the process running the ops: the children for spawning workloads."""
    if workload.spawns:
        return workload.child_peak_kb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
