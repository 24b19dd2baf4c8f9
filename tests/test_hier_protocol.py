"""Protocol-level tests of the paper's Section 4.2 protocol.

`HierarchicalGossip` is the one executor of the protocol.  These tests run
it on a small two-level world (128 sensors, 16 leaf squares) and check
what the protocol promises there: the hierarchy it reads, the actions and
charges it records, and that every coefficient mode conserves the sum.
"""

import hashlib

import numpy as np
import pytest

from repro.engine.batching import run_batched
from repro.gossip.hierarchical import (
    CoefficientMode,
    HierarchicalGossip,
    RoundConfig,
    RoundStats,
)
from repro.graphs import RandomGeometricGraph
from repro.hierarchy import HierarchyTree


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(229)
    graph = RandomGeometricGraph.sample_connected(128, rng, radius_constant=2.5)
    tree = HierarchyTree.build(graph.positions, leaf_threshold=16.0)
    field = np.random.default_rng(233).normal(size=graph.n)
    return graph, tree, field


def _leaf_depth(tree):
    return len(tree.factors)


class TestInitialization:
    def test_stats_empty_before_run(self, setup):
        graph, tree, _ = setup
        assert HierarchicalGossip(graph, tree=tree).stats == RoundStats()

    def test_one_root_round_when_capped(self, setup):
        graph, tree, field = setup
        algo = HierarchicalGossip(graph, tree=tree)
        algo.run(field, epsilon=0.3, rng=np.random.default_rng(1), max_root_rounds=1)
        assert algo.stats.rounds_by_depth[0] == 1

    def test_every_occupied_square_elects_a_member(self, setup):
        _, tree, _ = setup
        occupied = [s for s in tree.all_squares() if s.occupancy > 0]
        assert occupied
        for square in occupied:
            assert square.supernode in set(int(m) for m in square.members)

    def test_supernodes_are_distinct(self, setup):
        _, tree, _ = setup
        elected = [s.supernode for s in tree.all_squares() if s.supernode >= 0]
        assert len(elected) == len(set(elected))
        assert sorted(elected) == tree.supernodes()


class TestExecution:
    def test_converges(self, setup):
        graph, tree, field = setup
        result = HierarchicalGossip(graph, tree=tree).run(
            field, epsilon=0.3, rng=np.random.default_rng(5)
        )
        assert result.converged
        assert result.error <= 0.3

    def test_sum_conserved(self, setup):
        graph, tree, field = setup
        result = HierarchicalGossip(graph, tree=tree).run(
            field, epsilon=0.3, rng=np.random.default_rng(7)
        )
        assert result.values.sum() == pytest.approx(field.sum(), abs=1e-9)

    def test_far_exchanges_happen(self, setup):
        graph, tree, field = setup
        algo = HierarchicalGossip(graph, tree=tree)
        result = algo.run(field, epsilon=0.3, rng=np.random.default_rng(9))
        assert algo.stats.exchanges_by_depth[0] > 0
        assert result.transmissions["far"] > 0
        assert algo.stats.routing_failures == 0

    def test_transmission_categories(self, setup):
        graph, tree, field = setup
        result = HierarchicalGossip(graph, tree=tree).run(
            field, epsilon=0.3, rng=np.random.default_rng(11)
        )
        categories = {k: v for k, v in result.transmissions.items() if k != "total"}
        assert set(categories) == {"activation", "near", "far"}
        assert all(count > 0 for count in categories.values())
        assert result.transmissions["total"] == sum(categories.values())

    def test_ticks_count_near_ticks_and_exchanges(self, setup):
        graph, tree, field = setup
        algo = HierarchicalGossip(graph, tree=tree)
        result = algo.run(field, epsilon=0.3, rng=np.random.default_rng(13))
        assert result.ticks == sum(algo.stats.near_ticks_by_depth.values()) + sum(
            algo.stats.exchanges_by_depth.values()
        )

    def test_actions_sit_at_their_depths(self, setup):
        # `Near` runs only inside leaves; `Far` exchanges only between the
        # children of an internal square.
        graph, tree, field = setup
        algo = HierarchicalGossip(graph, tree=tree)
        algo.run(field, epsilon=0.3, rng=np.random.default_rng(15))
        assert set(algo.stats.near_ticks_by_depth) == {_leaf_depth(tree)}
        assert set(algo.stats.exchanges_by_depth) <= set(range(_leaf_depth(tree)))

    def test_each_near_tick_charges_two_transmissions(self, setup):
        # No sensor of this world is stranded in its leaf, so every `Near`
        # tick averages one pair: one message each way.
        graph, tree, field = setup
        assert all(a.size for a in tree.local_adjacency(graph.neighbors))
        algo = HierarchicalGossip(graph, tree=tree)
        result = algo.run(field, epsilon=0.3, rng=np.random.default_rng(17))
        ticks = sum(algo.stats.near_ticks_by_depth.values())
        assert result.transmissions["near"] == 2 * ticks

    @pytest.mark.parametrize("mode", list(CoefficientMode))
    def test_every_mode_conserves_the_sum(self, setup, mode):
        graph, tree, field = setup
        algo = HierarchicalGossip(
            graph, tree=tree, config=RoundConfig(coefficient_mode=mode)
        )
        result = algo.run(field, epsilon=0.3, rng=np.random.default_rng(19))
        assert result.converged
        assert result.values.sum() == pytest.approx(field.sum(), abs=1e-9)


class TestEngineStrides:
    """The engine runs the round executor natively at every stride, so
    the numbers are the executor's own and do not depend on the stride."""

    @pytest.mark.parametrize("check_stride", [1, 4])
    def test_numbers_pinned_at_every_stride(self, setup, check_stride):
        graph, tree, field = setup
        result = run_batched(
            HierarchicalGossip(graph, tree=tree),
            field,
            0.3,
            np.random.default_rng(17),
            check_stride=check_stride,
        )
        assert result.converged
        assert result.ticks == 1038
        assert result.transmissions == {
            "activation": 1060, "near": 2012, "far": 148, "total": 3220,
        }
        digest = hashlib.sha256(result.values.tobytes()).hexdigest()
        assert digest.startswith("ee6318bd25d290f2")
