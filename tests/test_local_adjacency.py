"""Unit tests for HierarchyTree.local_adjacency (the `Near` scope, with
its ancestor fallback)."""

import numpy as np
import pytest

from repro.geometry import random_points
from repro.graphs import RandomGeometricGraph
from repro.hierarchy import HierarchyTree


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(389)
    graph = RandomGeometricGraph.sample_connected(512, rng, radius_constant=2.0)
    tree = HierarchyTree.build(graph.positions)
    return graph, tree


class TestLocalAdjacency:
    def test_subset_of_graph_adjacency(self, world):
        graph, tree = world
        local = tree.local_adjacency(graph.neighbors)
        for sensor in range(graph.n):
            assert set(local[sensor].tolist()) <= set(
                int(v) for v in graph.neighbors[sensor]
            )

    def test_leaf_locality_when_possible(self, world):
        graph, tree = world
        local = tree.local_adjacency(graph.neighbors)
        leaf_of = {}
        for index, leaf in enumerate(tree.leaves()):
            for member in leaf.members:
                leaf_of[int(member)] = index
        for sensor in range(graph.n):
            same_leaf = [
                int(v)
                for v in graph.neighbors[sensor]
                if leaf_of[int(v)] == leaf_of[sensor]
            ]
            if same_leaf:
                assert sorted(local[sensor].tolist()) == sorted(same_leaf)

    def test_fallback_rescues_stranded_sensors(self, world):
        graph, tree = world
        strict = tree.local_adjacency(graph.neighbors, fallback=False)
        fallback = tree.local_adjacency(graph.neighbors, fallback=True)
        for sensor in range(graph.n):
            if graph.neighbors[sensor].size > 0:
                # With fallback nobody with graph neighbours is stranded.
                assert fallback[sensor].size > 0
            if strict[sensor].size > 0:
                np.testing.assert_array_equal(strict[sensor], fallback[sensor])

    def test_fallback_stays_within_an_ancestor(self, world):
        graph, tree = world
        strict = tree.local_adjacency(graph.neighbors, fallback=False)
        fallback = tree.local_adjacency(graph.neighbors, fallback=True)
        # Build ancestor membership sets per sensor.
        ancestors = {i: [] for i in range(graph.n)}
        for node in tree.all_squares():
            for member in node.members:
                ancestors[int(member)].append(node)
        for sensor in range(graph.n):
            if strict[sensor].size == 0 and fallback[sensor].size > 0:
                containing = [
                    set(int(m) for m in node.members)
                    for node in ancestors[sensor]
                ]
                chosen = set(fallback[sensor].tolist())
                assert any(chosen <= members for members in containing)

    def test_rejects_wrong_length(self, world):
        graph, tree = world
        with pytest.raises(ValueError):
            tree.local_adjacency(graph.neighbors[:-1])

    def test_flat_tree_equals_full_adjacency(self):
        rng = np.random.default_rng(397)
        positions = random_points(64, rng)
        graph = RandomGeometricGraph.build(positions, radius=0.3)
        tree = HierarchyTree(positions, [])  # root only
        local = tree.local_adjacency(graph.neighbors)
        for sensor in range(64):
            np.testing.assert_array_equal(
                np.sort(local[sensor]), graph.neighbors[sensor]
            )


def reference_local_adjacency(tree, neighbors, fallback):
    """The per-sensor loop: scan the sensor's squares from its leaf up and
    keep its neighbours inside the first square that holds any."""
    chains = {i: [] for i in range(tree.n)}
    for node in tree.all_squares():  # BFS: root first
        for member in node.members.tolist():
            chains[member].append(node)
    restricted = []
    for sensor in range(tree.n):
        adjacency = neighbors[sensor]
        chosen = adjacency[:0]
        for node in reversed(chains[sensor]):  # leaf, parent, ..., root
            member_set = set(node.members.tolist())
            local = np.array(
                [v for v in adjacency.tolist() if v in member_set],
                dtype=np.int64,
            )
            if local.size or not fallback:
                chosen = local
                break
        restricted.append(chosen)
    return restricted


class TestAgainstTheReferenceLoop:
    """The label-based kernel equals the per-sensor loop, array for array."""

    @pytest.mark.parametrize("fallback", [True, False])
    @pytest.mark.parametrize(
        "n, constant, seed",
        [(512, 2.0, 389), (300, 0.7, 5), (96, 3.0, 11), (40, 0.3, 13)],
    )
    def test_equals_reference(self, n, constant, seed, fallback):
        rng = np.random.default_rng(seed)
        graph = RandomGeometricGraph.sample(n, rng, radius_constant=constant)
        tree = HierarchyTree.build(graph.positions)
        got = tree.local_adjacency(graph.neighbors, fallback=fallback)
        want = reference_local_adjacency(tree, graph.neighbors, fallback)
        assert len(got) == len(want)
        for mine, theirs in zip(got, want):
            assert mine.dtype == theirs.dtype
            assert mine.tolist() == theirs.tolist()

    def test_reference_cases_include_stranded_sensors(self):
        # The sparse cases above exercise the fallback: some sensor has
        # neighbours but none in its leaf.
        rng = np.random.default_rng(5)
        graph = RandomGeometricGraph.sample(300, rng, radius_constant=0.7)
        tree = HierarchyTree.build(graph.positions)
        strict = tree.local_adjacency(graph.neighbors, fallback=False)
        assert any(
            strict[i].size == 0 and graph.neighbors[i].size
            for i in range(graph.n)
        )
