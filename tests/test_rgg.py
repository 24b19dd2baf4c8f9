"""Unit tests for repro.graphs.rgg."""

import math

import numpy as np
import pytest

from repro.geometry import pairwise_within, random_points
from repro.graphs import RandomGeometricGraph, connectivity_radius, is_connected


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestConnectivityRadius:
    def test_formula(self):
        assert connectivity_radius(1000, constant=2.0) == pytest.approx(
            math.sqrt(2.0 * math.log(1000) / 1000)
        )

    def test_decreases_with_n(self):
        assert connectivity_radius(10_000) < connectivity_radius(1_000)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            connectivity_radius(1)
        with pytest.raises(ValueError):
            connectivity_radius(100, constant=0.0)


class TestBuild:
    def test_adjacency_matches_brute_force(self, rng):
        pts = random_points(200, rng)
        radius = 0.11
        graph = RandomGeometricGraph.build(pts, radius)
        expected = pairwise_within(pts, radius)
        for i in range(200):
            np.testing.assert_array_equal(
                graph.neighbors[i], np.nonzero(expected[i])[0]
            )

    def test_matches_networkx(self, rng):
        pts = random_points(150, rng)
        radius = 0.15
        graph = RandomGeometricGraph.build(pts, radius)
        import networkx as nx

        reference = nx.random_geometric_graph(150, radius, pos={
            i: tuple(p) for i, p in enumerate(pts)
        })
        ours = graph.to_networkx()
        assert set(ours.edges()) == {tuple(sorted(e)) for e in reference.edges()}

    def test_rejects_bad_radius(self, rng):
        with pytest.raises(ValueError):
            RandomGeometricGraph.build(random_points(10, rng), 0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            RandomGeometricGraph.build(np.zeros((4, 3)), 0.1)

    def test_neighbor_lists_sorted_and_loopless(self, rng):
        graph = RandomGeometricGraph.sample(300, rng)
        for i, adj in enumerate(graph.neighbors):
            assert (np.diff(adj) > 0).all()  # sorted, no duplicates
            assert i not in adj

    @pytest.mark.parametrize("seed", range(8))
    def test_neighbor_lists_equal_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 300))
        positions = rng.random((n, 2))
        radius = float(rng.uniform(0.03, 0.5))
        assert_brute_force_neighbors(positions, radius)

    def test_points_exactly_r_apart_and_on_cell_edges(self):
        # Grid points 1/8 apart sit on cell edges of a side-1/8 grid, and
        # each axis neighbour is exactly r away: those pairs are edges.
        side = np.arange(9) / 8
        positions = np.array([(x, y) for x in side for y in side])
        graph = assert_brute_force_neighbors(positions, 0.125)
        assert graph.degrees().max() == 4

    def test_duplicate_points_are_adjacent(self):
        positions = np.array([[0.3, 0.3], [0.3, 0.3], [0.3, 0.3], [0.9, 0.9]])
        graph = assert_brute_force_neighbors(positions, 0.1)
        assert graph.neighbors[0].tolist() == [1, 2]
        assert graph.neighbors[3].size == 0

    @pytest.mark.parametrize(
        "positions",
        [[[0.5, 0.5]], [[0.1, 0.1], [0.15, 0.1]], [[0.1, 0.1], [0.9, 0.9]]],
        ids=["one", "two-close", "two-far"],
    )
    def test_one_and_two_points(self, positions):
        assert_brute_force_neighbors(np.array(positions), 0.2)

    def test_adjacency_symmetric(self, rng):
        graph = RandomGeometricGraph.sample(300, rng)
        for i, adj in enumerate(graph.neighbors):
            for j in adj:
                assert i in graph.neighbors[int(j)]


def assert_brute_force_neighbors(positions, radius):
    """The built graph equals an O(n²) scan with the same distance test."""
    graph = RandomGeometricGraph.build(positions, radius)
    diff = positions[:, None, :] - positions[None, :, :]
    close = (diff[:, :, 0] ** 2 + diff[:, :, 1] ** 2) <= radius * radius
    np.fill_diagonal(close, False)
    assert len(graph.neighbors) == len(positions)
    for row, adjacency in zip(close, graph.neighbors):
        assert adjacency.dtype == np.int64
        assert adjacency.tolist() == np.flatnonzero(row).tolist()
    return graph


class TestSampling:
    def test_sample_uses_connectivity_radius(self, rng):
        graph = RandomGeometricGraph.sample(500, rng)
        assert graph.radius == pytest.approx(connectivity_radius(500))

    def test_sample_connected_is_connected(self, rng):
        graph = RandomGeometricGraph.sample_connected(200, rng)
        assert is_connected(graph.neighbors)

    def test_sample_connected_exhausts_attempts(self, rng):
        # A radius this small cannot connect 50 random points.
        with pytest.raises(RuntimeError):
            RandomGeometricGraph.sample_connected(
                50, rng, radius=1e-6, max_attempts=3
            )

    def test_expected_degree_scale(self, rng):
        # Mean degree concentrates near n * pi * r^2 (interior nodes).
        n = 2000
        graph = RandomGeometricGraph.sample(n, rng)
        mean_degree = graph.degrees().mean()
        expected = n * math.pi * graph.radius**2
        # Boundary effects lower the mean; accept a broad band.
        assert 0.6 * expected < mean_degree < 1.05 * expected


class TestQueries:
    def test_degree_and_edge_count_consistent(self, rng):
        graph = RandomGeometricGraph.sample(100, rng)
        assert graph.degrees().sum() == 2 * graph.edge_count()
        assert graph.degree(0) == len(graph.neighbors[0])

    def test_are_adjacent(self, rng):
        graph = RandomGeometricGraph.sample_connected(100, rng)
        node = 0
        for j in graph.neighbors[node]:
            assert graph.are_adjacent(node, int(j))

    def test_nearest_node_matches_brute_force(self, rng):
        graph = RandomGeometricGraph.sample(400, rng)
        for _ in range(25):
            q = rng.random(2)
            found = graph.nearest_node(q)
            dists = np.hypot(
                graph.positions[:, 0] - q[0], graph.positions[:, 1] - q[1]
            )
            assert dists[found] == pytest.approx(dists.min())

    def test_isolated_nodes_empty_at_connectivity_radius(self, rng):
        graph = RandomGeometricGraph.sample_connected(300, rng)
        assert graph.isolated_nodes().size == 0

    def test_isolated_nodes_found_at_tiny_radius(self, rng):
        graph = RandomGeometricGraph.sample(100, rng, radius=1e-6)
        assert graph.isolated_nodes().size > 0

    def test_n_property(self, rng):
        assert RandomGeometricGraph.sample(64, rng).n == 64
