"""Unit tests for repro.graphs.connectivity."""

from collections import deque

import numpy as np
import pytest

from repro.graphs import (
    RandomGeometricGraph,
    connected_components,
    connectivity_probability,
    connectivity_radius,
    is_connected,
    largest_component,
    ring_graph_adjacency,
)
from repro.graphs.connectivity import component_labels


def adjacency_from_edges(n, edges):
    out = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
        out[v].append(u)
    return [np.array(sorted(adj), dtype=np.int64) for adj in out]


class TestConnectivityPredicates:
    def test_path_graph_connected(self):
        adj = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert is_connected(adj)

    def test_two_islands_disconnected(self):
        adj = adjacency_from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected(adj)

    def test_empty_graph_connected(self):
        assert is_connected([])

    def test_singleton_connected(self):
        assert is_connected([np.array([], dtype=np.int64)])

    def test_ring_is_connected(self):
        assert is_connected(ring_graph_adjacency(11))


class TestComponents:
    def test_components_partition_nodes(self):
        adj = adjacency_from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        comps = connected_components(adj)
        assert sorted(len(c) for c in comps) == [2, 2, 3]
        all_nodes = sorted(np.concatenate(comps).tolist())
        assert all_nodes == list(range(7))

    def test_components_sorted_by_size(self):
        adj = adjacency_from_edges(6, [(0, 1), (2, 3), (3, 4)])
        comps = connected_components(adj)
        assert len(comps[0]) >= len(comps[1]) >= len(comps[2])

    def test_largest_component(self):
        adj = adjacency_from_edges(6, [(0, 1), (1, 2), (4, 5)])
        np.testing.assert_array_equal(largest_component(adj), [0, 1, 2])


def bfs_components(neighbors):
    """Reference labelling: breadth-first search from each unseen node in
    index order, each component named by its first (smallest) node."""
    label = [-1] * len(neighbors)
    components = []
    for start in range(len(neighbors)):
        if label[start] >= 0:
            continue
        label[start] = start
        queue, component = deque([start]), [start]
        while queue:
            for v in neighbors[queue.popleft()].tolist():
                if label[v] < 0:
                    label[v] = start
                    queue.append(v)
                    component.append(v)
        components.append(sorted(component))
    components.sort(key=len, reverse=True)
    return label, components


class TestComponentLabelsAgainstBfs:
    """The vectorised labelling equals a breadth-first search."""

    def _check(self, neighbors):
        label, components = bfs_components(neighbors)
        assert component_labels(neighbors).tolist() == label
        assert [c.tolist() for c in connected_components(neighbors)] == components
        assert is_connected(neighbors) == (len(components) <= 1)

    def test_empty_graph(self):
        self._check([])
        assert connected_components([]) == []

    def test_isolated_nodes(self):
        self._check([np.array([], dtype=np.int64)] * 5)
        self._check(adjacency_from_edges(6, [(1, 4)]))

    def test_long_path_numbered_against_the_hooks(self):
        # Labels must travel the whole path, from the far end.
        n = 40
        order = np.random.default_rng(2).permutation(n).tolist()
        self._check(adjacency_from_edges(n, list(zip(order, order[1:]))))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_geometric_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 250))
        radius = float(rng.uniform(0.02, 0.3))  # disconnected to connected
        graph = RandomGeometricGraph.build(rng.random((n, 2)), radius)
        self._check(graph.neighbors)

    def test_connected_ring(self):
        adjacency = ring_graph_adjacency(11)
        self._check(adjacency)
        assert is_connected(adjacency)


class TestConnectivityProbability:
    def test_near_one_at_generous_radius(self):
        rng = np.random.default_rng(23)
        p = connectivity_probability(
            150, radius=connectivity_radius(150, constant=4.0), trials=20, rng=rng
        )
        assert p >= 0.95

    def test_near_zero_at_tiny_radius(self):
        rng = np.random.default_rng(29)
        p = connectivity_probability(150, radius=0.01, trials=10, rng=rng)
        assert p == 0.0

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            connectivity_probability(10, 0.1, 0, np.random.default_rng(1))

    def test_monotone_in_radius_on_average(self):
        # A sanity check of the sharp threshold: generous radius beats tiny.
        rng = np.random.default_rng(31)
        small = connectivity_probability(100, 0.05, 10, rng)
        large = connectivity_probability(100, 0.4, 10, rng)
        assert large >= small

    def test_agreement_with_networkx(self):
        import networkx as nx

        rng = np.random.default_rng(37)
        graph = RandomGeometricGraph.sample(120, rng)
        assert is_connected(graph.neighbors) == nx.is_connected(
            graph.to_networkx()
        )
