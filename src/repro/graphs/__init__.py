"""Graph substrates: geometric random graphs and the topology zoo.

The paper's communication substrate is the geometric random graph
``G(n, r)`` (:mod:`repro.graphs.rgg`), built with a linear-time spatial hash
grid (:mod:`repro.graphs.cellgrid`).  Connectivity analysis in the
Gupta–Kumar regime lives in :mod:`repro.graphs.connectivity`.

:mod:`repro.graphs.generators` holds the topology zoo: the
:data:`~repro.graphs.generators.TOPOLOGIES` registry of positioned graph
families (flat and torus RGG, 2-D grid, Watts–Strogatz small world,
Erdős–Rényi with positions) that every protocol — including the routed
ones — can run on via ``ExperimentConfig(topology=...)``, plus the
adjacency-only reference generators used by the mixing experiments.
"""

from repro.graphs.cellgrid import CellGrid
from repro.graphs.connectivity import (
    connected_components,
    connectivity_probability,
    is_connected,
    largest_component,
)
from repro.graphs.generators import (
    DEFAULT_TOPOLOGY,
    TOPOLOGIES,
    build_topology,
    complete_graph_adjacency,
    erdos_renyi_adjacency,
    erdos_renyi_graph,
    grid2d_graph,
    grid_graph_adjacency,
    ring_graph_adjacency,
    topology_names,
    topology_seed_tags,
    torus_rgg_graph,
    watts_strogatz_graph,
)
from repro.graphs.rgg import RandomGeometricGraph, connectivity_radius

__all__ = [
    "CellGrid",
    "DEFAULT_TOPOLOGY",
    "RandomGeometricGraph",
    "TOPOLOGIES",
    "build_topology",
    "complete_graph_adjacency",
    "connected_components",
    "connectivity_probability",
    "connectivity_radius",
    "erdos_renyi_adjacency",
    "erdos_renyi_graph",
    "grid2d_graph",
    "grid_graph_adjacency",
    "is_connected",
    "largest_component",
    "ring_graph_adjacency",
    "topology_names",
    "topology_seed_tags",
    "torus_rgg_graph",
    "watts_strogatz_graph",
]
