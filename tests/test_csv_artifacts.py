"""Every CSV artifact's bytes against csv.writer called directly.

``dataio.write_csv`` writes all four CSV artifacts: sizes, the distance
matrix, the scatter points and the report's summary table. The oracles
below open each file with ``newline=""`` and write it through
``csv.writer(lineterminator="\\n")`` themselves; the two must agree byte
for byte, on the chain fixture and on a simulated 35-element dataset.
"""

import csv

import numpy as np
import pytest

from moransar.autocorr import MODE_AUTOCORRELATION, MODE_AUTOREGRESSION, scatter_dataset
from moransar.dataio import write_distance_matrix, write_scatter_csv, write_sizes
from moransar.pipeline import analyze_data, emit_report, summary_rows
from moransar.sar import fit_sar_ols
from moransar.simulate import random_distances, simulate_sar
from moransar.spatial_data import RawSizeVector, prepare

from conftest import CHAIN_DIST, CHAIN_SIZES


def oracle_write(path, rows, comments=()):
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow(row)


def simulated_35():
    # as `moransar simulate --n 35 --seed 7 --a 10 --rho 5` draws it
    distances = random_distances(np.random.default_rng([7, 0x51]), 35)
    raw = simulate_sar(distances, 10.0, 5.0, 1.0, seed=7)
    return RawSizeVector(ids=tuple(str(i) for i in range(35)), values=raw.values), distances


DATASETS = {
    "chain": lambda: (RawSizeVector.from_values(CHAIN_SIZES), np.array(CHAIN_DIST)),
    "simulated_35": simulated_35,
}


@pytest.fixture(params=sorted(DATASETS))
def dataset(request):
    return DATASETS[request.param]()


def same_bytes(tmp_path, write, oracle):
    written, expected = tmp_path / "written.csv", tmp_path / "expected.csv"
    write(written)
    oracle(expected)
    data = written.read_bytes()
    assert data == expected.read_bytes()
    assert b"\r" not in data


def test_sizes(tmp_path, dataset):
    raw, _ = dataset
    same_bytes(
        tmp_path,
        lambda path: write_sizes(raw, path),
        lambda path: oracle_write(
            path, [["id", "value"], *([i, repr(float(v))] for i, v in zip(raw.ids, raw.values))]
        ),
    )


def test_distance_matrix(tmp_path, dataset):
    raw, distances = dataset
    same_bytes(
        tmp_path,
        lambda path: write_distance_matrix(raw.ids, distances, path),
        lambda path: oracle_write(
            path,
            [["id", *raw.ids],
             *([i, *(repr(float(v)) for v in row)] for i, row in zip(raw.ids, distances))],
        ),
    )


@pytest.mark.parametrize("mode", [MODE_AUTOCORRELATION, MODE_AUTOREGRESSION])
def test_scatter(tmp_path, dataset, mode):
    inputs = prepare(*dataset)
    points = scatter_dataset(inputs, fit_sar_ols(inputs), mode)
    lines = [points.empirical_line]
    if points.theoretical_line is not None:
        lines.insert(0, points.theoretical_line)
    comments = [f"mode {mode}",
                *(f"line {line.slope!r} {line.intercept!r} {line.label}" for line in lines)]
    header = [points.x_label.replace(" ", "_"), points.y_label.replace(" ", "_")]
    same_bytes(
        tmp_path,
        lambda path: write_scatter_csv(points, path),
        lambda path: oracle_write(
            path, [header, *([repr(float(x)), repr(float(y))] for x, y in points.points)],
            comments,
        ),
    )


def test_summary(tmp_path, dataset):
    report = analyze_data(*dataset, permutations=19, seed=1)
    same_bytes(
        tmp_path,
        lambda path: emit_report(report, {"csv"}, tmp_path / "out")["csv"].rename(path),
        lambda path: oracle_write(
            path,
            [["measure", "parameter", "coefficient", "p_value", "r_squared"],
             *summary_rows(report)],
        ),
    )
