"""Tests for components, simplification, I/O, and networkx conversion."""

from __future__ import annotations

import os
import subprocess
import sys

import networkx as nx
import pytest

from repro.errors import GraphError
from repro.graph.components import (
    connected_components,
    is_connected,
    largest_connected_component,
)
from repro.graph.convert import from_networkx, to_networkx, to_networkx_simple
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.multigraph import MultiGraph
from repro.graph.simplify import count_loops, count_multi_edges, simplified


class TestComponents:
    def test_single_component(self, cycle6):
        comps = connected_components(cycle6)
        assert len(comps) == 1
        assert comps[0] == set(range(6))

    def test_two_components_sorted_by_size(self):
        g = MultiGraph.from_edges([(0, 1), (1, 2), (10, 11)])
        comps = connected_components(g)
        assert [len(c) for c in comps] == [3, 2]

    def test_isolated_nodes_are_components(self):
        g = MultiGraph.from_edges([(0, 1)], nodes=[9])
        assert len(connected_components(g)) == 2

    def test_is_connected(self, cycle6):
        assert is_connected(cycle6)
        g = cycle6.copy()
        g.add_node(99)
        assert not is_connected(g)

    def test_is_connected_empty(self):
        assert not is_connected(MultiGraph())

    def test_largest_connected_component(self):
        g = MultiGraph.from_edges([(0, 1), (1, 2), (5, 6)])
        lcc = largest_connected_component(g)
        assert set(lcc.nodes()) == {0, 1, 2}
        assert lcc.num_edges == 2

    def test_lcc_preserves_multiplicity(self):
        g = MultiGraph()
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        g.add_edge(1, 1)
        g.add_edge(5, 6)
        lcc = largest_connected_component(g)
        assert lcc.multiplicity(0, 1) == 2
        assert lcc.multiplicity(1, 1) == 2

    def test_lcc_empty_graph(self):
        assert largest_connected_component(MultiGraph()).num_nodes == 0


class TestSimplify:
    def test_simplified_drops_parallels_and_loops(self, multigraph_with_parallels):
        s = simplified(multigraph_with_parallels)
        assert s.is_simple()
        assert s.multiplicity(0, 1) == 1
        assert not s.has_edge(2, 2)
        assert s.num_nodes == multigraph_with_parallels.num_nodes

    def test_simplified_keeps_simple_graph(self, cycle6):
        s = simplified(cycle6)
        assert s.num_edges == 6

    def test_count_multi_edges(self, multigraph_with_parallels):
        assert count_multi_edges(multigraph_with_parallels) == 1

    def test_count_loops(self, multigraph_with_parallels):
        assert count_loops(multigraph_with_parallels) == 1

    def test_counts_zero_on_simple(self, cycle6):
        assert count_multi_edges(cycle6) == 0
        assert count_loops(cycle6) == 0


class TestIO:
    def test_round_trip(self, tmp_path, multigraph_with_parallels):
        path = tmp_path / "g.txt"
        write_edge_list(multigraph_with_parallels, path)
        g = read_edge_list(path)
        assert g.num_nodes == multigraph_with_parallels.num_nodes
        assert g.num_edges == multigraph_with_parallels.num_edges
        assert g.multiplicity(0, 1) == 2
        assert g.multiplicity(2, 2) == 2

    def test_round_trip_isolated_nodes(self, tmp_path):
        g = MultiGraph.from_edges([(0, 1)], nodes=[7, 8])
        path = tmp_path / "iso.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert set(back.nodes()) == {0, 1, 7, 8}

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\n1 2\n2 3\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_non_integer_raises(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphError):
            read_edge_list(path)


class TestConvert:
    def test_to_networkx_preserves_multiedges(self, multigraph_with_parallels):
        g = to_networkx(multigraph_with_parallels)
        assert g.number_of_edges() == multigraph_with_parallels.num_edges
        assert g.number_of_nodes() == multigraph_with_parallels.num_nodes

    def test_to_networkx_simple(self, multigraph_with_parallels):
        g = to_networkx_simple(multigraph_with_parallels)
        assert g.number_of_edges() == 4  # 0-1, 1-2, 2-3, 3-0

    def test_from_networkx_simple(self):
        g = from_networkx(nx.cycle_graph(5))
        assert g.num_nodes == 5
        assert g.num_edges == 5

    def test_from_networkx_multigraph(self):
        m = nx.MultiGraph()
        m.add_edge(0, 1)
        m.add_edge(0, 1)
        g = from_networkx(m)
        assert g.multiplicity(0, 1) == 2

    def test_round_trip_degrees(self, social_graph):
        back = from_networkx(to_networkx(social_graph))
        assert back.degrees() == social_graph.degrees()

    def test_package_imports_without_networkx(self):
        # networkx is not a declared dependency: only the converters need it
        code = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "import repro, repro.cli, repro.api, repro.service\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
