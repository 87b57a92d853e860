"""Snapshot store: flat-buffer round trips, shared memory, mmap, workers.

Covers the substrate contracts end to end: save/load (RAM and mmap)
round-trips a frozen snapshot exactly, ``freeze_stream`` builds the same
file out of core, shared-memory segments are refcounted / unlinked
exactly once / never leak into ``/dev/shm`` or trip resource-tracker
warnings, attached graphs are read-only, the BFS kernels produce
bit-identical results on store-loaded int32 snapshots, and the
worker-integration layer (publication + pool initializer +
``_materialize_cell``) preserves the serial results bit for bit.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.workers import pool_worker_init, publish_cells, publish_datasets
from repro.engine import bfs_kernels
from repro.engine.csr import CSRGraph, freeze
from repro.engine.store import (
    SharedSnapshot,
    attach,
    attached_segments,
    detach,
    freeze_stream,
    load_snapshot,
    save_snapshot,
    snapshot_nbytes,
)
from repro.errors import GraphError, StoreError
from repro.experiments.runner import (
    ExperimentConfig,
    clear_shared_datasets,
    clear_truth_cache,
    run_experiment,
    shared_dataset_graph,
    truth_cache_stats,
)
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.multigraph import MultiGraph
from repro.metrics.suite import EvaluationConfig
from repro.sampling.access import GraphAccess
from repro.sampling.walkers import random_walk

edge_lists = st.lists(
    st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=0, max_size=80
)
isolated = st.lists(st.integers(0, 14), min_size=0, max_size=4)


def _relabeled(edges, extra_nodes=()) -> MultiGraph:
    """A multigraph whose ids are 0..n-1 in insertion order (the dataset
    convention, and the shape the implicit-nodes encoding covers)."""
    raw = MultiGraph.from_edges(edges, nodes=extra_nodes)
    mapping = {u: i for i, u in enumerate(raw.nodes())}
    g = MultiGraph()
    for u in raw.nodes():
        g.add_node(mapping[u])
    for u, v in raw.edges():
        g.add_edge(mapping[u], mapping[v])
    return g


def _labeled(edges) -> MultiGraph:
    """String-labeled variant: exercises the pickled-nodes encoding."""
    g = MultiGraph()
    for u, v in edges:
        g.add_edge(f"n{u}", f"n{v}")
    return g


def assert_snapshot_equal(a: CSRGraph, b: CSRGraph, dtypes: bool = True) -> None:
    assert list(a.node_list) == list(b.node_list)
    assert a.num_edges == b.num_edges
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.degree_array(), b.degree_array())
    if dtypes:
        assert a.indptr.dtype == b.indptr.dtype
        assert a.indices.dtype == b.indices.dtype


# ----------------------------------------------------------------------
# flat-buffer round trips
# ----------------------------------------------------------------------
class TestSaveLoad:
    @settings(max_examples=40, deadline=None)
    @given(edge_lists, isolated)
    def test_ram_roundtrip_is_freeze_exact(self, tmp_path_factory, edges, nodes):
        csr = freeze(_relabeled(edges, nodes))
        path = tmp_path_factory.mktemp("snap") / "g.rcsr"
        save_snapshot(csr, path)
        assert path.stat().st_size == snapshot_nbytes(csr)
        assert_snapshot_equal(load_snapshot(path, mode="ram"), csr)

    @settings(max_examples=25, deadline=None)
    @given(edge_lists)
    def test_labeled_nodes_roundtrip(self, tmp_path_factory, edges):
        csr = freeze(_labeled(edges or [(0, 1)]))
        path = tmp_path_factory.mktemp("snap") / "g.rcsr"
        save_snapshot(csr, path)
        for mode in ("ram", "mmap"):
            loaded = load_snapshot(path, mode=mode)
            assert_snapshot_equal(loaded, csr, dtypes=(mode == "ram"))

    def test_mmap_keeps_int32_and_serves_queries(self, tmp_path):
        g = _relabeled([(0, 1), (1, 2), (2, 0), (1, 1), (0, 1)])
        csr = freeze(g)
        path = save_snapshot(csr, tmp_path / "g.rcsr")
        loaded = load_snapshot(path, mode="mmap")
        assert loaded.indices.dtype == np.int32  # stored compact, kept mapped
        assert isinstance(loaded.node_list, range)
        assert_snapshot_equal(loaded, csr, dtypes=False)
        for u in g.nodes():
            assert loaded.incident_edge_endpoints(u) == g.incident_edge_endpoints(u)
            assert loaded.degree(u) == g.degree(u)

    def test_empty_graph_roundtrip(self, tmp_path):
        g = MultiGraph()
        g.add_node(0)
        csr = freeze(g)
        path = save_snapshot(csr, tmp_path / "e.rcsr")
        for mode in ("ram", "mmap"):
            loaded = load_snapshot(path, mode=mode)
            assert loaded.num_nodes == 1
            assert loaded.num_edges == 0

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "bad.rcsr"
        path.write_bytes(b"NOPE" + b"\0" * 60)
        with pytest.raises(StoreError, match="bad magic"):
            load_snapshot(path)
        path.write_bytes(b"RC")
        with pytest.raises(StoreError, match="truncated"):
            load_snapshot(path)
        with pytest.raises(StoreError, match="unknown snapshot mode"):
            load_snapshot(path, mode="zram")


# ----------------------------------------------------------------------
# out-of-core freeze
# ----------------------------------------------------------------------
class TestFreezeStream:
    def _chunks(self, edges, size):
        def produce():
            for i in range(0, len(edges), size):
                block = edges[i : i + size]
                yield (
                    np.array([u for u, _ in block], dtype=np.int64),
                    np.array([v for _, v in block], dtype=np.int64),
                )

        return produce

    def test_matches_direct_freeze_up_to_slot_order(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 60
        edges = [
            (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(400)
        ]
        g = MultiGraph.from_edges(edges, nodes=range(n))
        csr = freeze(g)
        # tiny budget: forces several scatter buckets over the slot array
        path = freeze_stream(
            tmp_path / "s.rcsr", n, self._chunks(edges, 37), ram_budget=2048
        )
        loaded = load_snapshot(path, mode="ram")
        assert np.array_equal(loaded.indptr, csr.indptr)
        assert np.array_equal(loaded.degree_array(), csr.degree_array())
        # slot order within a node is stream order, not adjacency order —
        # the multiset per node is the structural contract
        for i in range(n):
            assert sorted(loaded.neighbor_slots(i)) == sorted(
                csr.neighbor_slots(i).tolist()
            )

    def test_rejects_out_of_range_and_shifting_streams(self, tmp_path):
        with pytest.raises(GraphError, match="outside"):
            freeze_stream(
                tmp_path / "x.rcsr", 3, self._chunks([(0, 5)], 8)
            )

        calls = {"n": 0}

        def shifty():
            # same slot total both passes (stays in bounds), different
            # per-node degrees -> the cross-check must reject the stream
            calls["n"] += 1
            if calls["n"] == 1:
                yield (np.array([0, 2]), np.array([1, 2]))
            else:
                yield (np.array([0, 1]), np.array([0, 2]))

        with pytest.raises(StoreError, match="changed between"):
            freeze_stream(tmp_path / "y.rcsr", 3, shifty)


# ----------------------------------------------------------------------
# shared-memory lifecycle
# ----------------------------------------------------------------------
class TestSharedMemory:
    def test_publish_attach_roundtrip_zero_copy(self):
        csr = freeze(_relabeled([(0, 1), (1, 2), (2, 0), (0, 0)]))
        with SharedSnapshot.create(csr) as snap:
            assert_snapshot_equal(snap.graph(), csr, dtypes=False)
            attached = attach(snap.name)
            try:
                assert_snapshot_equal(attached, csr, dtypes=False)
                assert isinstance(attached.node_list, range)
            finally:
                detach(snap.name)

    def test_attach_refcounts_one_mapping(self):
        csr = freeze(_relabeled([(0, 1)]))
        with SharedSnapshot.create(csr) as snap:
            g1 = attach(snap.name)
            g2 = attach(snap.name)
            assert g1 is g2  # one mapping per process, refcounted
            assert snap.name in attached_segments()
            detach(snap.name)
            assert snap.name in attached_segments()
            detach(snap.name)
            assert snap.name not in attached_segments()
            with pytest.raises(StoreError, match="not attached"):
                detach(snap.name)

    def test_attached_arrays_are_read_only(self):
        csr = freeze(_relabeled([(0, 1), (1, 2)]))
        with SharedSnapshot.create(csr) as snap:
            g = attach(snap.name)
            try:
                for arr in (g.indptr, g.indices, g.degree_array()):
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr[0] = 99
            finally:
                detach(snap.name)

    def test_close_unlinks_idempotently(self):
        csr = freeze(_relabeled([(0, 1)]))
        snap = SharedSnapshot.create(csr)
        name = snap.name
        assert os.path.exists(f"/dev/shm/{name}")
        snap.close()
        snap.close()  # idempotent
        assert not os.path.exists(f"/dev/shm/{name}")
        with pytest.raises(StoreError, match="does not exist"):
            attach(name)

    def test_attacher_survives_owner_unlink(self):
        """Linux shm semantics the lifecycle relies on: the owner can
        unlink while workers hold mappings; their views stay valid."""
        csr = freeze(_relabeled([(0, 1), (1, 2), (2, 0)]))
        snap = SharedSnapshot.create(csr)
        g = attach(snap.name)
        name = snap.name
        try:
            snap.close()
            assert not os.path.exists(f"/dev/shm/{name}")
            assert g.incident_edge_endpoints(0) == [1, 2]
        finally:
            detach(name)

    def test_subprocess_attach_no_tracker_warnings_no_leak(self):
        """An attaching process must not emit resource-tracker noise at
        exit and must not unlink the owner's segment."""
        csr = freeze(_relabeled([(0, 1), (1, 2)]))
        with SharedSnapshot.create(csr) as snap:
            code = (
                "from repro.engine.store import attach\n"
                f"g = attach({snap.name!r})\n"
                "assert g.num_edges == 2\n"
                "print('attached-ok')\n"
            )
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": "src"},
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr
            assert "attached-ok" in proc.stdout
            assert "resource_tracker" not in proc.stderr
            assert "leaked" not in proc.stderr
            # the attacher's exit must not have unlinked the owner's segment
            assert os.path.exists(f"/dev/shm/{snap.name}")

    def test_owner_exit_unlinks_without_warnings(self):
        """A clean owner exit (no explicit close) reaps the segment via
        the finalizer — nothing left in /dev/shm, no tracker output."""
        code = (
            "from repro.engine.csr import freeze\n"
            "from repro.engine.store import SharedSnapshot\n"
            "from repro.graph.multigraph import MultiGraph\n"
            "g = MultiGraph.from_edges([(0, 1), (1, 2)])\n"
            "snap = SharedSnapshot.create(freeze(g))\n"
            "print(snap.name)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        name = proc.stdout.strip()
        assert name
        assert "resource_tracker" not in proc.stderr
        assert not os.path.exists(f"/dev/shm/{name}")


# ----------------------------------------------------------------------
# kernels on store-loaded snapshots (the int32 zero-copy tier)
# ----------------------------------------------------------------------
class TestKernelsOnStoredSnapshots:
    def test_bfs_trio_bit_identical_on_mmap_int32(self, tmp_path):
        g = powerlaw_cluster_graph(120, 3, 0.3, rng=5)
        csr = freeze(g)
        loaded = load_snapshot(save_snapshot(csr, tmp_path / "g.rcsr"), mode="mmap")
        assert loaded.indices.dtype == np.int32
        src = np.arange(0, csr.num_nodes, 5, dtype=np.int64)
        hist_a, far_a = bfs_kernels.pair_length_histogram(loaded, src)
        hist_b, far_b = bfs_kernels.pair_length_histogram(csr, src)
        assert far_a == far_b
        assert np.array_equal(hist_a, hist_b)
        assert (
            bfs_kernels.brandes_scores(loaded, src).tobytes()
            == bfs_kernels.brandes_scores(csr, src).tobytes()
        )

    def test_walks_bit_identical_on_shared_snapshot(self):
        g = powerlaw_cluster_graph(80, 3, 0.3, rng=9)
        csr = freeze(g)
        with SharedSnapshot.create(csr) as snap:
            shared = attach(snap.name)
            try:
                for rng in range(4):
                    a = random_walk(GraphAccess(csr), 12, rng=rng)
                    b = random_walk(GraphAccess(shared), 12, rng=rng)
                    assert a.nodes == b.nodes
                    assert a.neighbors == b.neighbors
            finally:
                detach(snap.name)


# ----------------------------------------------------------------------
# worker integration: publication + initializer + materialization
# ----------------------------------------------------------------------
FAST_EVAL = EvaluationConfig(
    exact_threshold=200, path_sources=32, betweenness_pivots=16
)


class TestWorkerIntegration:
    CONFIG = ExperimentConfig(
        dataset="anybeat",
        fraction=0.1,
        runs=2,
        methods=("rw",),
        rc=3.0,
        scale=0.12,
        seed=5,
        evaluation=FAST_EVAL,
    )

    def test_publish_and_init_installs_shared_graph(self):
        clear_truth_cache()
        clear_shared_datasets()
        pub = publish_cells([self.CONFIG])
        assert pub is not None
        try:
            assert len(pub.descriptors) == 1
            spec = pub.descriptors[0]
            assert spec.dataset == "anybeat" and spec.scale == 0.12
            assert len(spec.truths) == 1
            # in-process stand-in for a worker start: attach + register
            pool_worker_init(None, pub.descriptors)
            shared = shared_dataset_graph("anybeat", 0.12)
            assert isinstance(shared, CSRGraph)
            assert not shared.indices.flags.writeable
        finally:
            clear_shared_datasets()
            detach(pub.descriptors[0].segment)
            pub.close()
            clear_truth_cache()

    def test_materialized_cell_results_bit_identical(self):
        """A run executed against the installed shared snapshot (crawl on
        the zero-copy graph, truth from the pre-seeded memo) reproduces
        the plain serial run exactly."""
        clear_truth_cache()
        clear_shared_datasets()
        baseline = run_experiment(self.CONFIG)
        clear_truth_cache()
        pub = publish_cells([self.CONFIG])
        assert pub is not None
        try:
            pool_worker_init(None, pub.descriptors)
            before = truth_cache_stats(merged=False)
            shared_run = run_experiment(self.CONFIG)
            after = truth_cache_stats(merged=False)
        finally:
            clear_shared_datasets()
            detach(pub.descriptors[0].segment)
            pub.close()
            clear_truth_cache()
        for method in baseline:
            assert (
                baseline[method].per_property == shared_run[method].per_property
            )
            assert baseline[method].average_l1 == shared_run[method].average_l1
            assert baseline[method].std_l1 == shared_run[method].std_l1
        # both runs hit the memo, none recomputed the exact evaluation
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + self.CONFIG.runs

    def test_publish_datasets_graphs_only(self):
        pub = publish_datasets([("anybeat", 0.12), ("anybeat", 0.12)])
        assert pub is not None
        try:
            assert len(pub.descriptors) == 1  # deduplicated
            assert pub.descriptors[0].truths == ()
            assert pub.nbytes > 0
        finally:
            pub.close()

    def test_publication_close_unlinks_segments(self):
        pub = publish_cells([self.CONFIG])
        assert pub is not None
        names = [spec.segment for spec in pub.descriptors]
        for name in names:
            assert os.path.exists(f"/dev/shm/{name}")
        pub.close()
        pub.close()  # idempotent
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")
