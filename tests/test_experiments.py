"""Tests for the experiment harness: methods, runner, tables, figures,
ablations, and the CLI."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.ablations import (
    format_ablation,
    rc_sweep_ablation,
    rewiring_exclusion_ablation,
    subgraph_use_ablation,
)
from repro.experiments.figures import (
    Figure3Settings,
    Figure4Settings,
    figure3_series,
    figure4_render,
    format_figure3,
)
from repro.experiments.methods import (
    GENERATIVE_METHODS,
    METHOD_NAMES,
    SUBGRAPH_METHODS,
    run_methods_once,
)
from repro.experiments.runner import ExperimentConfig, _aggregate, run_experiment
from repro.experiments.tables import (
    TableSettings,
    format_table2,
    format_table3,
    format_table4,
    format_table5,
    table2_rows,
    table3_rows,
    table5_rows,
)
from repro.metrics.suite import PROPERTY_NAMES, EvaluationConfig

FAST_EVAL = EvaluationConfig(exact_threshold=200, path_sources=48, betweenness_pivots=24)


class TestMethodsRegistry:
    def test_six_methods(self):
        assert len(METHOD_NAMES) == 6
        assert set(SUBGRAPH_METHODS) | set(GENERATIVE_METHODS) == set(METHOD_NAMES)

    def test_run_methods_once_all(self, social_graph):
        outputs = run_methods_once(social_graph, 0.25, rc=5, rng=1)
        assert set(outputs) == set(METHOD_NAMES)
        for method, out in outputs.items():
            assert out.graph.num_nodes > 0
            assert out.total_seconds >= 0.0

    def test_generative_methods_report_rewiring_time(self, social_graph):
        outputs = run_methods_once(
            social_graph, 0.25, methods=("gjoka", "proposed"), rc=5, rng=2
        )
        for m in ("gjoka", "proposed"):
            assert outputs[m].rewiring_seconds >= 0.0

    def test_subgraph_methods_share_seed(self, social_graph):
        # crawlers are seeded identically: the seed node must be queried by all
        outputs = run_methods_once(
            social_graph, 0.3, methods=SUBGRAPH_METHODS, rc=5, rng=3
        )
        common = set.intersection(
            *(set(outputs[m].graph.nodes()) for m in SUBGRAPH_METHODS)
        )
        assert common  # at minimum the shared seed and its neighbors

    def test_unknown_method_rejected(self, social_graph):
        with pytest.raises(ExperimentError):
            run_methods_once(social_graph, 0.2, methods=("dfs",))

    def test_bad_fraction_rejected(self, social_graph):
        with pytest.raises(ExperimentError):
            run_methods_once(social_graph, 0.0)
        with pytest.raises(ExperimentError):
            run_methods_once(social_graph, 1.5)


class TestRunner:
    def test_aggregates_shape(self, social_graph):
        config = ExperimentConfig(
            dataset="ignored",
            fraction=0.25,
            runs=2,
            methods=("rw", "proposed"),
            rc=5,
            evaluation=FAST_EVAL,
        )
        aggregates = run_experiment(config, original=social_graph)
        assert set(aggregates) == {"rw", "proposed"}
        for agg in aggregates.values():
            assert set(agg.per_property) == set(PROPERTY_NAMES)
            assert agg.average_l1 >= 0.0
            assert agg.std_l1 >= 0.0
            assert len(agg.row()) == 12

    def test_zero_runs_rejected(self, social_graph):
        config = ExperimentConfig(dataset="x", runs=0)
        with pytest.raises(ExperimentError):
            run_experiment(config, original=social_graph)

    def test_dataset_lookup_path(self):
        config = ExperimentConfig(
            dataset="anybeat",
            fraction=0.1,
            runs=1,
            methods=("rw",),
            scale=0.15,
            evaluation=FAST_EVAL,
        )
        aggregates = run_experiment(config)
        assert "rw" in aggregates


class TestAggregateFiniteness:
    """Regression: non-finite per-property distances must not poison the
    headline avg ± sd (the old filter only dropped +inf, so a NaN — e.g.
    0/0 on a degenerate normalization — propagated into both)."""

    @staticmethod
    def _distances(overrides):
        base = {name: 0.25 for name in PROPERTY_NAMES}
        base.update(overrides)
        return [base]

    def test_nan_distance_excluded_from_avg_sd(self):
        agg = _aggregate(
            "rw",
            self._distances({"diameter": float("nan")}),
            [1.0],
            [0.0],
        )
        assert agg.per_property["diameter"] != agg.per_property["diameter"]
        assert agg.average_l1 == pytest.approx(0.25)
        assert agg.std_l1 == pytest.approx(0.0)

    def test_negative_infinity_excluded_too(self):
        agg = _aggregate(
            "rw",
            self._distances({"diameter": float("-inf"), "clustering": float("inf")}),
            [1.0],
            [0.0],
        )
        assert agg.average_l1 == pytest.approx(0.25)
        assert agg.std_l1 == pytest.approx(0.0)

    def test_all_nonfinite_degrades_to_inf(self):
        distances = [{name: float("nan") for name in PROPERTY_NAMES}]
        agg = _aggregate("rw", distances, [1.0], [0.0])
        assert agg.average_l1 == float("inf")
        assert agg.std_l1 == float("inf")


class TestTables:
    @pytest.fixture(scope="class")
    def settings(self):
        return TableSettings(
            runs=1, rc=5, scale=0.15, methods=("rw", "proposed"), evaluation=FAST_EVAL
        )

    def test_table2(self, settings):
        rows = table2_rows(settings, datasets=("slashdot",))
        text = format_table2(rows)
        assert "slashdot" in text
        assert "Proposed" in text
        assert len(text.splitlines()) == 3  # header + 2 methods

    def test_table3_and_4(self, settings):
        rows = table3_rows(settings, datasets=("anybeat",))
        t3 = format_table3(rows)
        assert "+/-" in t3
        t4 = format_table4(rows)
        assert "rewiring" in t4

    def test_table5(self):
        settings = TableSettings(
            runs=1, rc=5, scale=0.08, methods=("rw", "proposed"), evaluation=FAST_EVAL
        )
        rows = table5_rows(settings)
        text = format_table5(rows)
        assert "Time (sec)" in text
        assert "Proposed" in text


class TestFigures:
    def test_figure3_series_and_format(self, social_graph):
        settings = Figure3Settings(
            fractions=(0.2, 0.3),
            runs=1,
            rc=5,
            scale=0.15,
            methods=("rw", "proposed"),
            evaluation=FAST_EVAL,
        )
        series = figure3_series(settings, datasets=("anybeat",))
        assert set(series) == {"anybeat"}
        assert len(series["anybeat"]["rw"]) == 2
        text = format_figure3(series, settings.fractions)
        assert "anybeat" in text
        assert "20%" in text

    def test_figure4_render(self, tmp_path):
        settings = Figure4Settings(
            dataset="anybeat",
            fraction=0.15,
            rc=5,
            scale=0.15,
            iterations=5,
            methods=("rw", "proposed"),
        )
        paths = figure4_render(tmp_path, settings)
        svgs = [p for p in paths if p.endswith(".svg")]
        htmls = [p for p in paths if p.endswith(".html")]
        assert len(svgs) == 3  # original + 2 methods
        assert len(htmls) == 1  # the combined gallery
        for p in svgs:
            with open(p) as f:
                assert "<svg" in f.read()
        with open(htmls[0]) as f:
            assert "<figcaption>" in f.read()


class TestAblations:
    def test_rewiring_exclusion(self):
        rows = rewiring_exclusion_ablation(
            dataset="anybeat", rc=5, scale=0.15, evaluation=FAST_EVAL
        )
        assert [r.variant for r in rows] == ["exclude subgraph edges", "all edges"]
        text = format_ablation(rows, "x")
        assert "avg L1" in text

    def test_rc_sweep_monotone_attempts(self):
        rows = rc_sweep_ablation(
            dataset="anybeat", rc_values=(2, 10), scale=0.15, evaluation=FAST_EVAL
        )
        assert rows[0].final_distance >= rows[1].final_distance - 1e-9

    def test_subgraph_use(self):
        rows = subgraph_use_ablation(
            dataset="anybeat", rc=5, scale=0.15, evaluation=FAST_EVAL
        )
        assert {r.variant for r in rows} == {"proposed", "gjoka"}


class TestCli:
    def test_datasets_command(self, capsys):
        from repro.cli import main

        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "anybeat" in out
        assert "youtube" in out

    def test_no_command_shows_help(self, capsys):
        from repro.cli import main

        assert main([]) == 2

    def test_table2_command_small(self, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import tables as tables_mod

        # shrink to a single tiny dataset for CLI plumbing coverage
        monkeypatch.setattr(cli, "TABLE2_DATASETS", ("anybeat",))
        orig = tables_mod.TableSettings

        def tiny(**kwargs):
            kwargs.update(
                scale=0.12, runs=1, rc=3, methods=("rw", "proposed"),
                evaluation=FAST_EVAL,
            )
            return orig(**kwargs)

        monkeypatch.setattr(cli.tables, "TableSettings", tiny)
        assert cli.main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "anybeat" in out

    def test_fig4_command(self, tmp_path, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import figures as figures_mod

        orig = figures_mod.Figure4Settings

        def tiny(**kwargs):
            kwargs.update(scale=0.12, rc=3, iterations=4, methods=("rw",))
            return orig(**kwargs)

        monkeypatch.setattr(cli.figures, "Figure4Settings", tiny)
        assert cli.main(["fig4", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote:" in out

    # the crawl fault regime: honored only by cells run through the harness
    FAULT_FLAGS = (
        ("--fault-rate", "0.1"),
        ("--rate-limit", "40"),
        ("--truncate-at", "10"),
        ("--churn", "0.05"),
    )

    @pytest.mark.parametrize(
        ("command", "flag", "value"),
        [("convergence", flag, value) for flag, value in FAULT_FLAGS]
        + [("convergence", "--rc", "5"), ("convergence", "--backend", "csr")]
        + [("ablate", flag, value) for flag, value in FAULT_FLAGS]
        + [("ablate", "--runs", "2"), ("fig4", "--runs", "2")]
        + [("sweep", "--no-shared-memory", None)],
    )
    def test_command_rejects_flags_it_does_not_read(self, command, flag, value, capsys):
        """A flag the command would ignore is an argparse error (exit 2),
        not a run that prints the same bytes with or without it.  Only
        the parser runs, so a flag that comes back fails fast."""
        from repro.cli import _build_parser

        argv = [command, flag] + ([value] if value is not None else [])
        with pytest.raises(SystemExit) as excinfo:
            _build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["convergence", "--dataset", "youtube", "--fractions", "0.1",
             "--runs", "2", "--scale", "0.5", "--seed", "3"],
            ["ablate", "--which", "rc", "--dataset", "youtube", "--rc", "5",
             "--scale", "0.5", "--seed", "3", "--backend", "python",
             "--exact-paths"],
            ["fig4", "--out", "portraits", "--dataset", "youtube", "--rc", "5",
             "--scale", "0.5", "--seed", "3"],
            ["sweep", "--runs", "2", "--rc", "5", "--scale", "0.5", "--seed",
             "3", "--backend", "python", "--exact-paths", "--jobs", "2",
             "--fault-rate", "0.1", "--rate-limit", "40", "--truncate-at",
             "10", "--churn", "0.05"],
        ],
        ids=["convergence", "ablate", "fig4", "sweep"],
    )
    def test_command_accepts_every_flag_it_reads(self, argv):
        from repro.cli import _build_parser

        _build_parser().parse_args(argv)
