"""repro — Geographic gossip on geometric random graphs via affine combinations.

A from-scratch reproduction of Narayanan's PODC 2007 paper: gossip-based
distributed averaging on geometric random graphs, featuring the paper's
hierarchical protocol with *non-convex affine* pairwise updates
(``n^{1+o(1)}`` transmissions) alongside the randomized-gossip (Boyd et
al., ``Õ(n²)``) and geographic-gossip (Dimakis et al., ``Õ(n^1.5)``)
baselines, every substrate they need, and an analysis toolkit for the
paper's lemmas and bounds.

Quickstart::

    import numpy as np
    from repro import RandomGeometricGraph, HierarchicalGossip

    rng = np.random.default_rng(7)
    graph = RandomGeometricGraph.sample_connected(1024, rng)
    values = rng.normal(size=graph.n)
    result = HierarchicalGossip(graph).run(values, epsilon=0.25, rng=rng)
    print(result.total_transmissions, result.error)

See docs/architecture.md for the system inventory; the benchmarks
(E1–E17, ``benchmarks/``) print the paper-vs-measured tables.
"""

from repro.gossip import (
    AffineGossipKn,
    GeographicGossip,
    GossipRunResult,
    PerturbedAffineGossipKn,
    RandomizedGossip,
)
from repro.gossip.hierarchical import (
    CoefficientMode,
    HierarchicalGossip,
    ProtocolParameters,
    RoundConfig,
)
from repro.graphs import RandomGeometricGraph, connectivity_radius
from repro.hierarchy import HierarchyTree
from repro.metrics import normalized_error
from repro.routing import GreedyRouter, RejectionSampler, TransmissionCounter

__version__ = "1.0.0"

__all__ = [
    "AffineGossipKn",
    "CoefficientMode",
    "GeographicGossip",
    "GossipRunResult",
    "GreedyRouter",
    "HierarchicalGossip",
    "HierarchyTree",
    "PerturbedAffineGossipKn",
    "ProtocolParameters",
    "RandomGeometricGraph",
    "RandomizedGossip",
    "RejectionSampler",
    "RoundConfig",
    "TransmissionCounter",
    "__version__",
    "connectivity_radius",
    "normalized_error",
]
