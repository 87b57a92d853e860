"""Tests for the dataset registry (paper stand-ins)."""

from __future__ import annotations

import pytest

from repro.errors import DatasetError
from repro.graph.components import is_connected
from repro.graph.datasets import (
    FIGURE3_DATASETS,
    TABLE2_DATASETS,
    TABLE34_DATASETS,
    clear_dataset_cache,
    dataset_names,
    dataset_spec,
    load_dataset,
)


class TestRegistry:
    def test_seven_datasets(self):
        assert len(dataset_names()) == 7

    def test_paper_groups_are_registered(self):
        names = set(dataset_names())
        assert set(FIGURE3_DATASETS) <= names
        assert set(TABLE2_DATASETS) <= names
        assert set(TABLE34_DATASETS) <= names

    def test_spec_fields(self):
        spec = dataset_spec("anybeat")
        assert spec.paper_nodes == 12_645
        assert spec.paper_edges == 49_132
        assert spec.paper_average_degree == pytest.approx(7.77, abs=0.01)

    def test_unknown_name_raises(self):
        with pytest.raises(DatasetError):
            dataset_spec("facebook")
        with pytest.raises(DatasetError):
            load_dataset("facebook")

    def test_bad_scale_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("anybeat", scale=0.0)

    def test_stand_in_never_outgrows_the_paper_graph(self):
        # anybeat: 2 500 × 6 = 15 000 stand-in nodes > 12 645 in the paper
        with pytest.raises(DatasetError, match="largest scale is 5.058"):
            load_dataset("anybeat", scale=6)

    def test_non_finite_scale_raises(self):
        with pytest.raises(DatasetError, match="finite"):
            load_dataset("anybeat", scale=float("nan"))


class TestLoadedGraphs:
    @pytest.mark.parametrize("name", ["anybeat", "youtube"])
    def test_preprocessing_invariants(self, name):
        g = load_dataset(name, scale=0.25)
        assert g.is_simple()
        assert is_connected(g)
        # ids are exactly 0..n-1 after relabeling
        assert set(g.nodes()) == set(range(g.num_nodes))

    def test_deterministic(self):
        clear_dataset_cache()
        a = load_dataset("brightkite", scale=0.2, cache=False)
        b = load_dataset("brightkite", scale=0.2, cache=False)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_cache_returns_same_object(self):
        clear_dataset_cache()
        a = load_dataset("epinions", scale=0.2)
        b = load_dataset("epinions", scale=0.2)
        assert a is b

    def test_scale_changes_size(self):
        small = load_dataset("slashdot", scale=0.15, cache=False)
        large = load_dataset("slashdot", scale=0.35, cache=False)
        assert small.num_nodes < large.num_nodes

    def test_heavy_tail_present(self):
        g = load_dataset("anybeat", scale=0.4)
        assert g.max_degree() > 3 * g.average_degree()

    def test_livemocha_denser_than_youtube(self):
        live = load_dataset("livemocha", scale=0.2, cache=False)
        yt = load_dataset("youtube", scale=0.2, cache=False)
        assert live.average_degree() > yt.average_degree()
