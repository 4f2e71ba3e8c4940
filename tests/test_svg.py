"""Parse-back checks on the rendered scatterplot SVGs."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from moransar.autocorr import (
    MODE_AUTOCORRELATION,
    MODE_AUTOREGRESSION,
    ScatterDataset,
    TrendLine,
    scatter_dataset,
)
from moransar.errors import InputError
from moransar.sar import fit_sar_ols
from moransar.spatial_data import prepare
from moransar.svgplot import HEIGHT, WIDTH, render_svg

SVG = "{http://www.w3.org/2000/svg}"


def dataset(raw, dist, mode):
    inputs = prepare(raw, dist)
    return scatter_dataset(inputs, fit_sar_ols(inputs), mode)


def parse(path):
    root = ET.parse(path).getroot()
    points = root.findall(f".//{SVG}circle[@class='point']")
    trends = root.findall(f".//{SVG}line[@class='trend']")
    return root, points, trends


class TestTwoSitePlot:
    def test_two_points_one_merged_line(self, tmp_path, two_site):
        # the empirical line of the two-site fixture has zero intercept,
        # so it coincides with the through-origin line and is drawn once
        ds = dataset(*two_site, MODE_AUTOCORRELATION)
        path = tmp_path / "two.svg"
        render_svg(ds, path)
        root, points, trends = parse(path)
        assert root.tag == f"{SVG}svg"
        assert len(points) == 2
        assert len(trends) == 1
        assert "=" in trends[0].get("data-label")
        assert float(trends[0].get("data-slope")) == -1.0
        assert float(trends[0].get("data-intercept")) == 0.0


class TestNoisyPlot:
    def test_two_distinct_lines_with_parseable_coefficients(self, tmp_path, deck):
        raw, dist = deck[0]
        ds = dataset(raw, dist, MODE_AUTOCORRELATION)
        path = tmp_path / "noisy.svg"
        render_svg(ds, path)
        _, points, trends = parse(path)
        assert len(points) == ds.n
        assert len(trends) == 2
        by_label = {t.get("data-label"): t for t in trends}
        theo = by_label["through-origin"]
        emp = by_label["fitted"]
        # repr round-trips exactly
        assert float(theo.get("data-slope")) == ds.theoretical_line.slope
        assert float(theo.get("data-intercept")) == 0.0
        assert float(emp.get("data-intercept")) == ds.empirical_line.intercept

    def test_autoregression_mode(self, tmp_path, deck):
        raw, dist = deck[1]
        ds = dataset(raw, dist, MODE_AUTOREGRESSION)
        path = tmp_path / "sar.svg"
        render_svg(ds, path)
        _, _, trends = parse(path)
        labels = {t.get("data-label") for t in trends}
        assert labels == {"exact-fit", "fitted"}

    def test_geometry_stays_in_viewport(self, tmp_path, deck):
        raw, dist = deck[2]
        ds = dataset(raw, dist, MODE_AUTOCORRELATION)
        path = tmp_path / "box.svg"
        render_svg(ds, path)
        _, points, trends = parse(path)
        for c in points:
            assert 0.0 <= float(c.get("cx")) <= WIDTH
            assert 0.0 <= float(c.get("cy")) <= HEIGHT
        for t in trends:
            for attr in ("x1", "x2"):
                assert 0.0 <= float(t.get(attr)) <= WIDTH
            for attr in ("y1", "y2"):
                assert 0.0 <= float(t.get(attr)) <= HEIGHT


class TestLegendAndLabels:
    def test_legend_states_equations(self, tmp_path, chain):
        ds = dataset(*chain, MODE_AUTOCORRELATION)
        path = tmp_path / "legend.svg"
        render_svg(ds, path)
        text = path.read_text()
        assert "y = " in text
        assert "n Wz" in text


class TestValidation:
    def test_empty_dataset_rejected(self, tmp_path):
        empty = ScatterDataset(
            points=np.empty((0, 2)),
            theoretical_line=None,
            empirical_line=TrendLine(slope=1.0, intercept=0.0, label="fitted"),
            mode=MODE_AUTOCORRELATION,
            x_label="z",
            y_label="n Wz",
        )
        with pytest.raises(InputError):
            render_svg(empty, tmp_path / "empty.svg")
