"""Connectivity analysis for geometric random graphs.

The paper works in the Gupta–Kumar regime ``r = Θ(sqrt(log n / n))`` where
``G(n, r)`` is connected w.h.p. (Section 1.1/2.1); disconnection probability
``Ω(n^{−O(1)})`` is why the failure budget δ cannot be pushed below
``n^{−O(1)}``.  Experiment E5 measures the connectivity probability as a
function of the radius constant.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graphs.rgg import adjacency_csr

__all__ = [
    "component_labels",
    "is_connected",
    "connected_components",
    "largest_component",
    "connectivity_probability",
]


def component_labels(neighbors: Sequence[np.ndarray]) -> np.ndarray:
    """Each node's component, named by its smallest node index.

    Min-label propagation with pointer jumping, in whole-array passes:
    every node takes the smallest label among itself and its neighbours,
    then follows ``label[label]`` until that is stable.  A label is
    always a node of the same component and never above the node's own
    index, so the fixed point names every component by its minimum.
    """
    label = np.arange(len(neighbors), dtype=np.int64)
    flat, offsets, degrees = adjacency_csr(neighbors)
    linked = np.flatnonzero(degrees)
    if not linked.size:
        return label
    heads = offsets[linked]
    while True:
        hooked = label.copy()
        hooked[linked] = np.minimum(
            label[linked], np.minimum.reduceat(label[flat], heads)
        )
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            return label
        label = hooked


def is_connected(neighbors: Sequence[np.ndarray]) -> bool:
    """Whether the graph given by per-node neighbour arrays is connected."""
    return not component_labels(neighbors).any()


def connected_components(neighbors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """All connected components, largest first, as sorted index arrays.

    Components of equal size keep the order of their smallest node.
    """
    label = component_labels(neighbors)
    order = np.argsort(label, kind="stable")
    heads = np.flatnonzero(np.diff(label[order])) + 1
    components = np.split(order, heads) if len(order) else []
    components.sort(key=len, reverse=True)
    return components


def largest_component(neighbors: Sequence[np.ndarray]) -> np.ndarray:
    """Node indices of the largest connected component."""
    return connected_components(neighbors)[0]


def connectivity_probability(
    n: int,
    radius: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of ``P(G(n, radius) is connected)``.

    Used by experiment E5 to chart the sharp threshold around
    ``sqrt(log n / n)``.
    """
    from repro.graphs.rgg import RandomGeometricGraph

    if trials <= 0:
        raise ValueError(f"need a positive number of trials, got {trials}")
    connected = 0
    for _ in range(trials):
        graph = RandomGeometricGraph.sample(n, rng, radius=radius)
        if is_connected(graph.neighbors):
            connected += 1
    return connected / trials
