"""repro — Social Graph Restoration via Random Walk Sampling.

A from-scratch Python reproduction of Nakajima & Shudo, "Social Graph
Restoration via Random Walk Sampling" (ICDE 2022, arXiv:2111.11966): given
the small sample of a hidden social graph collected by a random walk,
generate a graph whose local *and* global structural properties — and
visual shape — approximate the original.

Quickstart::

    from repro import (
        load_dataset, GraphAccess, restore_graph,
        compute_properties, l1_distances,
    )

    original = load_dataset("anybeat")
    access = GraphAccess(original)
    result = restore_graph(access, target_queried=original.num_nodes // 10,
                           rc=50, rng=7)
    report = l1_distances(compute_properties(original),
                          compute_properties(result.graph))

See docs/ARCHITECTURE.md for the system inventory and docs/BENCHMARKS.md
for the benchmarks that regenerate every table and figure in the paper.
"""

from repro.errors import (
    ReproError,
    GraphError,
    SamplingError,
    EstimationError,
    RealizabilityError,
    ConstructionError,
    DatasetError,
    ExperimentError,
    EngineError,
)
from repro.graph import (
    MultiGraph,
    connected_components,
    largest_connected_component,
    is_connected,
    simplified,
    read_edge_list,
    write_edge_list,
    to_networkx,
    from_networkx,
)
from repro.graph.datasets import (
    dataset_names,
    dataset_spec,
    load_dataset,
)
from repro.sampling import (
    GraphAccess,
    SamplingList,
    random_walk,
    non_backtracking_random_walk,
    metropolis_hastings_random_walk,
    bfs_crawl,
    snowball_crawl,
    forest_fire_crawl,
    random_walk_crawl,
    SampledSubgraph,
    build_subgraph,
)
from repro.estimators import (
    LocalEstimates,
    estimate_local_properties,
    estimate_num_nodes,
    estimate_average_degree,
    estimate_degree_distribution,
    estimate_joint_degree_distribution,
    estimate_degree_clustering,
    estimate_num_edges,
    estimate_global_clustering,
    estimate_triangle_count,
    batch_means,
    BatchEstimate,
)
from repro.dk import (
    build_graph_from_targets,
    RewiringEngine,
    generate_0k,
    generate_1k,
    generate_2k,
    generate_25k,
)
from repro.restore import (
    RestorationResult,
    restore_graph,
    restore_from_walk,
    gjoka_generate,
    build_target_degree_vector,
    build_target_jdm,
)
from repro.metrics import (
    PROPERTY_NAMES,
    EvaluationConfig,
    PropertySet,
    compute_properties,
    l1_distances,
    normalized_l1,
)
from repro.engine import (
    CSRGraph,
    freeze,
    thaw,
    batched_random_walks,
    resolve_backend,
)
from repro.sampling.csr_access import CSRGraphAccess

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "GraphError",
    "SamplingError",
    "EstimationError",
    "RealizabilityError",
    "ConstructionError",
    "DatasetError",
    "ExperimentError",
    "EngineError",
    "MultiGraph",
    "connected_components",
    "largest_connected_component",
    "is_connected",
    "simplified",
    "read_edge_list",
    "write_edge_list",
    "to_networkx",
    "from_networkx",
    "dataset_names",
    "dataset_spec",
    "load_dataset",
    "GraphAccess",
    "SamplingList",
    "random_walk",
    "non_backtracking_random_walk",
    "metropolis_hastings_random_walk",
    "bfs_crawl",
    "snowball_crawl",
    "forest_fire_crawl",
    "random_walk_crawl",
    "SampledSubgraph",
    "build_subgraph",
    "LocalEstimates",
    "estimate_local_properties",
    "estimate_num_nodes",
    "estimate_average_degree",
    "estimate_degree_distribution",
    "estimate_joint_degree_distribution",
    "estimate_degree_clustering",
    "estimate_num_edges",
    "estimate_global_clustering",
    "estimate_triangle_count",
    "batch_means",
    "BatchEstimate",
    "build_graph_from_targets",
    "RewiringEngine",
    "generate_0k",
    "generate_1k",
    "generate_2k",
    "generate_25k",
    "RestorationResult",
    "restore_graph",
    "restore_from_walk",
    "gjoka_generate",
    "build_target_degree_vector",
    "build_target_jdm",
    "PROPERTY_NAMES",
    "EvaluationConfig",
    "PropertySet",
    "compute_properties",
    "l1_distances",
    "normalized_l1",
    "CSRGraph",
    "freeze",
    "thaw",
    "batched_random_walks",
    "resolve_backend",
    "CSRGraphAccess",
]
