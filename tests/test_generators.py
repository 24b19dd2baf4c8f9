"""Unit tests for repro.graphs.generators (adjacency API + topology zoo)."""

import numpy as np
import pytest

from repro.graphs import (
    RandomGeometricGraph,
    TOPOLOGIES,
    build_topology,
    complete_graph_adjacency,
    erdos_renyi_adjacency,
    grid2d_graph,
    grid_graph_adjacency,
    is_connected,
    ring_graph_adjacency,
    topology_names,
    torus_rgg_graph,
    watts_strogatz_graph,
)


def assert_symmetric(adjacency):
    for i, adj in enumerate(adjacency):
        for j in adj:
            assert i in adjacency[int(j)], f"edge {i}-{j} not symmetric"


class TestCompleteGraph:
    def test_degrees(self):
        adj = complete_graph_adjacency(6)
        assert all(len(a) == 5 for a in adj)

    def test_no_self_loops(self):
        adj = complete_graph_adjacency(4)
        for i, a in enumerate(adj):
            assert i not in a

    def test_symmetric(self):
        assert_symmetric(complete_graph_adjacency(5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            complete_graph_adjacency(0)


class TestRing:
    def test_degrees_are_two(self):
        adj = ring_graph_adjacency(9)
        assert all(len(a) == 2 for a in adj)

    def test_wraps_around(self):
        adj = ring_graph_adjacency(5)
        assert 4 in adj[0] and 1 in adj[0]

    def test_connected(self):
        assert is_connected(ring_graph_adjacency(20))

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            ring_graph_adjacency(2)


class TestGrid:
    def test_corner_and_interior_degrees(self):
        adj = grid_graph_adjacency(3, 4)
        assert len(adj[0]) == 2  # corner
        assert len(adj[5]) == 4  # interior (row 1, col 1)

    def test_node_count(self):
        assert len(grid_graph_adjacency(5, 7)) == 35

    def test_connected_and_symmetric(self):
        adj = grid_graph_adjacency(4, 4)
        assert is_connected(adj)
        assert_symmetric(adj)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            grid_graph_adjacency(0, 3)

    def test_single_row_is_path(self):
        adj = grid_graph_adjacency(1, 4)
        assert len(adj[0]) == 1
        assert len(adj[1]) == 2


class TestErdosRenyi:
    def test_p_one_gives_complete(self):
        rng = np.random.default_rng(41)
        adj = erdos_renyi_adjacency(6, 1.0, rng)
        assert all(len(a) == 5 for a in adj)

    def test_p_zero_gives_empty(self):
        rng = np.random.default_rng(43)
        adj = erdos_renyi_adjacency(6, 0.0, rng)
        assert all(len(a) == 0 for a in adj)

    def test_edge_density_close_to_p(self):
        rng = np.random.default_rng(47)
        n, p = 300, 0.1
        adj = erdos_renyi_adjacency(n, p, rng)
        edges = sum(len(a) for a in adj) / 2
        possible = n * (n - 1) / 2
        assert abs(edges / possible - p) < 0.01

    def test_symmetric(self):
        rng = np.random.default_rng(53)
        assert_symmetric(erdos_renyi_adjacency(40, 0.2, rng))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            erdos_renyi_adjacency(5, 1.5, np.random.default_rng(1))


# -- the positioned topology zoo --------------------------------------------


def _assert_valid_substrate(graph):
    """Structural invariants every zoo member owes the protocols."""
    assert isinstance(graph, RandomGeometricGraph)
    assert graph.positions.shape == (graph.n, 2)
    assert np.all(graph.positions >= 0.0) and np.all(graph.positions <= 1.0)
    assert graph.radius > 0
    for i, adj in enumerate(graph.neighbors):
        assert adj.dtype == np.int64
        assert i not in adj, f"self-loop at {i}"
        assert len(set(adj.tolist())) == len(adj), f"duplicate edge at {i}"
        for j in adj:
            assert i in graph.neighbors[int(j)], f"edge {i}-{j} not symmetric"


class TestTopologyZoo:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_connected_valid_substrate(self, name):
        graph = build_topology(name, 50, np.random.default_rng(3))
        assert graph.n == 50
        _assert_valid_substrate(graph)
        assert is_connected(graph.neighbors)

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_deterministic_by_seed(self, name):
        first = build_topology(name, 40, np.random.default_rng(5))
        second = build_topology(name, 40, np.random.default_rng(5))
        np.testing.assert_array_equal(first.positions, second.positions)
        for a, b in zip(first.neighbors, second.neighbors):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ["rgg", "torus-rgg", "erdos-renyi"])
    def test_different_seeds_differ(self, name):
        first = build_topology(name, 40, np.random.default_rng(5))
        second = build_topology(name, 40, np.random.default_rng(6))
        assert not np.array_equal(first.positions, second.positions)

    def test_smallworld_seed_drives_rewiring_not_positions(self):
        first = build_topology("smallworld", 40, np.random.default_rng(5))
        second = build_topology("smallworld", 40, np.random.default_rng(6))
        np.testing.assert_array_equal(first.positions, second.positions)
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(first.neighbors, second.neighbors)
        )

    def test_registry_and_names_agree(self):
        assert topology_names() == sorted(TOPOLOGIES)
        assert "rgg" in TOPOLOGIES

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            build_topology("moebius", 32, np.random.default_rng(0))


class TestTorusRgg:
    def test_superset_of_flat_rgg_on_same_positions(self):
        """Torus distance ≤ flat distance: wrap edges only add adjacency."""
        rng = np.random.default_rng(17)
        torus = torus_rgg_graph(80, rng, radius=0.25)
        flat = RandomGeometricGraph.build(torus.positions, 0.25)
        assert torus.edge_count() >= flat.edge_count()
        for i in range(80):
            assert set(flat.neighbors[i]) <= set(torus.neighbors[i].tolist())

    def test_degree_bounds_tighter_than_flat(self):
        """No boundary nodes: every disc has full wrap-around area."""
        torus = torus_rgg_graph(300, np.random.default_rng(23), radius=0.15)
        degrees = torus.degrees()
        # E[deg] = (n-1)·πr² ≈ 21; the min never collapses to the flat
        # graph's corner regime (quarter of the disc).
        assert degrees.min() >= 5
        assert degrees.max() <= 60


class TestGrid2d:
    def test_near_square_factorisation(self):
        graph = grid2d_graph(12)
        degrees = graph.degrees()
        assert graph.n == 12
        assert set(degrees.tolist()) <= {2, 3, 4}
        assert int(degrees.max()) == 4  # 3x4 has interior nodes

    def test_prime_size_degenerates_to_path(self):
        graph = grid2d_graph(13)
        degrees = sorted(graph.degrees().tolist())
        assert degrees == [1, 1] + [2] * 11

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            grid2d_graph(1)


class TestWattsStrogatz:
    def test_beta_zero_is_pure_ring_lattice(self):
        graph = watts_strogatz_graph(30, np.random.default_rng(1), k=4, beta=0.0)
        assert all(deg == 4 for deg in graph.degrees().tolist())
        assert is_connected(graph.neighbors)

    def test_rewiring_preserves_edge_count(self):
        rng = np.random.default_rng(2)
        graph = watts_strogatz_graph(40, rng, k=6, beta=0.5)
        assert graph.edge_count() == 40 * 6 // 2

    def test_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            watts_strogatz_graph(10, rng, k=3)  # odd k
        with pytest.raises(ValueError):
            watts_strogatz_graph(6, rng, k=6)  # n <= k
        with pytest.raises(ValueError):
            watts_strogatz_graph(10, rng, k=4, beta=1.5)


class TestZooEngineIntegration:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_sweep_cells_run_and_are_deterministic(self, topology):
        """Every protocol×topology pair is one reproducible sweep cell."""
        from repro.engine.executor import run_sweep_records
        from repro.experiments import ExperimentConfig

        config = ExperimentConfig(
            sizes=(32,),
            epsilon=0.3,
            trials=1,
            topology=topology,
            algorithms=("randomized", "path-averaging"),
        )
        first = run_sweep_records(config)
        second = run_sweep_records(config)
        assert first == second
        for record in first.values():
            assert record.total_transmissions > 0

    def test_config_rejects_round_based_protocols_without_geometry(self):
        """Greedy routes void on Erdős–Rényi edges, so a hierarchical
        cell there never converges: the config refuses it up front and
        names the topology, and still accepts the tick-driven protocols
        there and hierarchical on every other family."""
        from repro.experiments import ExperimentConfig, topology_incompatible

        with pytest.raises(ValueError, match="'erdos-renyi'.*hierarchical"):
            ExperimentConfig(
                sizes=(64,),
                topology="erdos-renyi",
                algorithms=("randomized", "hierarchical"),
            )
        ExperimentConfig(
            sizes=(64,),
            topology="erdos-renyi",
            algorithms=("randomized", "geographic", "path-averaging"),
        )
        for topology in sorted(set(TOPOLOGIES) - {"erdos-renyi"}):
            ExperimentConfig(
                sizes=(64,), topology=topology, algorithms=("hierarchical",)
            )
            assert topology_incompatible(("hierarchical",), topology) == []

    def test_config_rejects_unknown_topology(self):
        from repro.experiments import ExperimentConfig

        with pytest.raises(ValueError, match="unknown topology"):
            ExperimentConfig(sizes=(32,), topology="hypercube")
