"""The target builders against their pre-index oracle, byte for byte.

``repro.restore`` draws visible nodes' target degrees from a slack tree
and adjusts the JDM through a row index; ``tests/target_oracle`` keeps the
per-degree scans they replaced.  Both must produce the same degree
vector, ``k*_max``, per-node target degrees and JDM, each in the same
insertion order, and leave the RNG in the same state.

Two kinds of input exercise the choices that order decides:

* synthetic estimates over degrees up to 60, whose adjustable sets iterate
  out of ascending order, with P(k,k') weights drawn from three values, so
  that cost ties send ``rng.choice`` down a path that depends on that order;
* random walks on small power-law graphs, which run Algorithms 2 and 4
  (the slack draw, its Δ+ fallback and ``_compensate``).
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import RealizabilityError
from repro.estimators.local import LocalEstimates, estimate_local_properties
from repro.graph.generators import powerlaw_cluster_graph
from repro.restore import target_degree_vector, target_jdm
from repro.sampling.access import GraphAccess
from repro.sampling.subgraph import build_subgraph
from repro.sampling.walkers import random_walk
from target_oracle import target_degree_vector as oracle_degree_vector
from target_oracle import target_jdm as oracle_jdm

#: Few distinct weights, so equal m^(k,k') and equal cells (tied costs) abound.
TIED_WEIGHTS = st.sampled_from([0.1, 0.25, 0.5])


def build_targets(dv_module, jdm_module, estimates, subgraph, seed):
    """Everything a build leaves behind that later phases can observe."""
    rng = random.Random(seed)
    try:
        dv = dv_module.build_target_degree_vector(estimates, subgraph=subgraph, rng=rng)
        jdm = jdm_module.build_target_jdm(estimates, dv, subgraph=subgraph, rng=rng)
    except RealizabilityError as exc:
        return ("RealizabilityError", str(exc))
    return {
        "counts": list(dv.counts.items()),
        "k_max": dv.k_max,
        "target_degrees": list(dv.target_degrees.items()),
        "jdm": list(jdm.items()),
        "next_random": rng.random(),
    }


def assert_same_targets(estimates, subgraph, seed):
    want = build_targets(oracle_degree_vector, oracle_jdm, estimates, subgraph, seed)
    got = build_targets(target_degree_vector, target_jdm, estimates, subgraph, seed)
    assert got == want


@st.composite
def tie_prone_estimates(draw):
    """Sparse P(k) over degrees up to 60 and a symmetric P(k,k') on it."""
    degrees = draw(st.lists(st.integers(1, 60), min_size=1, max_size=12, unique=True))
    weights = [draw(TIED_WEIGHTS) for _ in degrees]
    pk = {k: w / sum(weights) for k, w in zip(degrees, weights, strict=True)}
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(degrees), st.sampled_from(degrees)),
            min_size=1,
            max_size=20,
        )
    )
    pkk: dict[tuple[int, int], float] = {}
    for k, kp in pairs:
        w = draw(TIED_WEIGHTS)
        pkk[(k, kp)] = w
        pkk[(kp, k)] = w
    mass = sum(pkk.values())
    return LocalEstimates(
        num_nodes=float(draw(st.integers(5, 400))),
        average_degree=draw(st.sampled_from([1.5, 2.0, 4.0, 7.5])),
        degree_distribution=pk,
        joint_degree_distribution={p: w / mass for p, w in pkk.items()},
        degree_clustering={k: 0.0 for k in degrees},
        walk_length=100,
    )


@given(tie_prone_estimates(), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_synthetic_estimates_match_oracle(estimates, seed):
    assert_same_targets(estimates, None, seed)


# n=12, m=2, graph_seed=0, queried=3, seed=0 sends a visible node to the
# total == 0 Δ+ fallback of the slack draw.
@given(
    n=st.integers(12, 120),
    m=st.integers(1, 4),
    graph_seed=st.integers(0, 10_000),
    queried=st.integers(3, 40),
    seed=st.integers(0, 10_000),
)
@example(n=12, m=2, graph_seed=0, queried=3, seed=0)
@settings(max_examples=40, deadline=None)
def test_walk_estimates_match_oracle(n, m, graph_seed, queried, seed):
    graph = powerlaw_cluster_graph(n, min(m, n - 1), 0.3, rng=graph_seed)
    rng = random.Random(seed)
    walk = random_walk(GraphAccess(graph), min(queried, n), rng=rng, max_steps=100_000)
    subgraph = build_subgraph(walk)
    estimates = estimate_local_properties(walk)
    assert_same_targets(estimates, subgraph, seed)
