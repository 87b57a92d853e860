"""The paper's 12 structural properties and the normalized-L1 comparison.

Properties (1)-(7) are local, (8)-(12) global (Section V-B):

1. number of nodes ``n``
2. average degree ``k̄``
3. degree distribution ``{P(k)}``
4. neighbor connectivity ``{k̄nn(k)}``
5. network clustering coefficient ``c̄``
6. degree-dependent clustering coefficient ``{c̄(k)}``
7. edgewise shared-partner distribution ``{P(s)}``
8. average shortest-path length ``l̄``
9. shortest-path length distribution ``{P(l)}``
10. diameter ``l_max``
11. degree-dependent betweenness centrality ``{b̄(k)}``
12. largest adjacency eigenvalue ``λ1``

Shortest-path properties are computed on the largest connected component
(as in the paper); exact and source-sampled variants are provided, with the
experiment harness using sampling above a size threshold
(:class:`repro.metrics.suite.EvaluationConfig`).
"""

from repro.metrics.basic import (
    degree_distribution,
    degree_vector,
    joint_degree_distribution,
    joint_degree_matrix,
    neighbor_connectivity,
)
from repro.metrics.clustering import (
    triangles_per_node,
    network_clustering,
    degree_dependent_clustering,
    shared_partner_distribution,
)
from repro.metrics.paths import (
    shortest_path_stats,
    ShortestPathStats,
)
from repro.metrics.betweenness import degree_dependent_betweenness
from repro.metrics.cores import (
    core_numbers,
    core_size_distribution,
    degeneracy,
    periphery_fraction,
)
from repro.metrics.spectral import largest_eigenvalue
from repro.metrics.distance import normalized_l1, relative_error
from repro.metrics.suite import (
    PROPERTY_NAMES,
    LOCAL_PROPERTY_NAMES,
    GLOBAL_PROPERTY_NAMES,
    EvaluationConfig,
    PropertySet,
    compute_properties,
    l1_distances,
)

__all__ = [
    "degree_distribution",
    "degree_vector",
    "joint_degree_distribution",
    "joint_degree_matrix",
    "neighbor_connectivity",
    "triangles_per_node",
    "network_clustering",
    "degree_dependent_clustering",
    "shared_partner_distribution",
    "shortest_path_stats",
    "ShortestPathStats",
    "degree_dependent_betweenness",
    "core_numbers",
    "core_size_distribution",
    "degeneracy",
    "periphery_fraction",
    "largest_eigenvalue",
    "normalized_l1",
    "relative_error",
    "PROPERTY_NAMES",
    "LOCAL_PROPERTY_NAMES",
    "GLOBAL_PROPERTY_NAMES",
    "EvaluationConfig",
    "PropertySet",
    "compute_properties",
    "l1_distances",
]
