"""Tests for sweeps, the Fig. 4 HTML gallery, and distribution helpers."""

from __future__ import annotations

import csv
import io
import math

import pytest

from repro.errors import ExperimentError
from repro.experiments.sweeps import (
    SweepGrid,
    best_method_per_cell,
    run_sweep,
    sweep_to_csv,
)
from repro.metrics.distributions import (
    ccdf,
    distribution_mean,
    distribution_variance,
    log_binned,
    tail_exponent_estimate,
)
from repro.metrics.suite import EvaluationConfig
from repro.viz.gallery import build_gallery, save_gallery

FAST_EVAL = EvaluationConfig(exact_threshold=200, path_sources=32, betweenness_pivots=16)


class TestSweeps:
    @pytest.fixture(scope="class")
    def grid(self):
        return SweepGrid(
            datasets=("anybeat",),
            fractions=(0.1, 0.2),
            rcs=(3.0,),
            runs=1,
            methods=("rw", "proposed"),
            scale=0.12,
            evaluation=FAST_EVAL,
        )

    def test_grid_size_and_cells(self, grid):
        assert grid.size() == 2
        cells = list(grid.cells())
        assert len(cells) == 2
        assert {c.fraction for c in cells} == {0.1, 0.2}

    def test_empty_grid_rejected(self):
        with pytest.raises(ExperimentError):
            list(SweepGrid(datasets=()).cells())

    def test_run_sweep_with_checkpoint(self, grid, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        results = run_sweep(grid, csv_path=csv_path)
        assert len(results) == 2
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert len(rows) == 4  # 2 cells x 2 methods
        assert rows[0]["dataset"].startswith("anybeat@")

    def test_failed_checkpoint_write_keeps_previous(self, grid, tmp_path, monkeypatch):
        import repro.experiments.sweeps as sweeps

        written = []

        def failing_second_write(results):
            text = sweep_to_csv(results)
            written.append(text)
            # a lone surrogate cannot be encoded: the write raises midway
            return text if len(written) == 1 else text + "\ud800"

        monkeypatch.setattr(sweeps, "sweep_to_csv", failing_second_write)
        csv_path = tmp_path / "sweep.csv"
        with pytest.raises(UnicodeEncodeError):
            run_sweep(grid, csv_path=csv_path)
        assert len(written) == 2
        assert csv_path.read_bytes() == written[0].encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_best_method_per_cell(self, grid):
        results = run_sweep(grid)
        best = best_method_per_cell(results)
        assert set(best.values()) <= {"rw", "proposed"}
        assert len(best) == 2

    def test_sweep_to_csv_columns(self, grid):
        results = run_sweep(grid)
        header = sweep_to_csv(results).splitlines()[0]
        assert header.startswith("dataset,method,")
        assert "average_l1" in header


class TestGallery:
    def _svg(self, tmp_path, name):
        path = tmp_path / name
        path.write_text('<svg xmlns="http://www.w3.org/2000/svg"></svg>')
        return str(path)

    def test_build_gallery_embeds_svgs(self, tmp_path):
        paths = [
            self._svg(tmp_path, "fig4_anybeat_original.svg"),
            self._svg(tmp_path, "fig4_anybeat_proposed.svg"),
        ]
        doc = build_gallery(paths, title="Fig 4")
        assert doc.count("<svg") == 2
        assert "<figcaption>original</figcaption>" in doc
        assert "<figcaption>proposed</figcaption>" in doc

    def test_save_gallery(self, tmp_path):
        paths = [self._svg(tmp_path, "fig4_x_rw.svg")]
        out = tmp_path / "gallery.html"
        save_gallery(paths, out)
        assert "<!DOCTYPE html>" in out.read_text()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_gallery([str(tmp_path / "missing.svg")])


class TestDistributions:
    def test_ccdf_monotone_and_normalized(self):
        pmf = {1: 0.5, 2: 0.3, 5: 0.2}
        out = ccdf(pmf)
        assert out[1] == pytest.approx(1.0)
        assert out[2] == pytest.approx(0.5)
        assert out[5] == pytest.approx(0.2)

    def test_ccdf_unnormalized_input(self):
        assert ccdf({1: 2.0, 2: 2.0})[2] == pytest.approx(0.5)

    def test_ccdf_empty(self):
        assert ccdf({}) == {}

    def test_log_binned_conserves_mass(self):
        pmf = {k: k ** (-2.5) for k in range(1, 200)}
        bins = log_binned(pmf, bins_per_decade=4)
        assert bins  # non-empty
        centers = [c for c, _ in bins]
        assert centers == sorted(centers)

    def test_log_binned_invalid_bins(self):
        with pytest.raises(ValueError):
            log_binned({1: 1.0}, bins_per_decade=0)

    def test_moments(self):
        pmf = {2: 0.5, 4: 0.5}
        assert distribution_mean(pmf) == pytest.approx(3.0)
        assert distribution_variance(pmf) == pytest.approx(1.0)
        assert distribution_mean({}) == 0.0

    def test_tail_exponent_recovers_power_law(self):
        alpha = 2.5
        pmf = {k: k ** (-alpha) for k in range(2, 10_000)}
        est = tail_exponent_estimate(pmf, x_min=10)
        assert est == pytest.approx(alpha, abs=0.35)

    def test_tail_exponent_empty_tail(self):
        assert math.isnan(tail_exponent_estimate({1: 1.0}, x_min=5))
