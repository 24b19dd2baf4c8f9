"""Unit tests for repro.gossip.hierarchical.protocol (async state machine)."""

import hashlib
import warnings

import numpy as np
import pytest

from repro.dynamics import DynamicGossip, DynamicSubstrate, FaultSpec
from repro.engine.batching import ScalarFallbackWarning, run_batched
from repro.gossip.hierarchical import AsyncHierarchicalProtocol
from repro.graphs import RandomGeometricGraph
from repro.hierarchy import HierarchyTree


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(229)
    graph = RandomGeometricGraph.sample_connected(128, rng, radius_constant=2.5)
    tree = HierarchyTree.build(graph.positions, leaf_threshold=16.0)
    field = np.random.default_rng(233).normal(size=graph.n)
    return graph, tree, field


class TestInitialization:
    def test_rejects_bad_separation(self, setup):
        graph, tree, _ = setup
        with pytest.raises(ValueError):
            AsyncHierarchicalProtocol(graph, tree=tree, separation=0.5)

    def test_all_states_off_before_run(self, setup):
        graph, tree, _ = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        assert not any(s.local_on or s.global_on for s in proto.states)

    def test_root_switched_on_by_run(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        proto.run(field, epsilon=0.9, rng=np.random.default_rng(1), max_ticks=1)
        assert proto.states[tree.root.supernode].global_on

    def test_supernode_square_map_shallowest_wins(self, setup):
        graph, tree, _ = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        assert proto._square_of[tree.root.supernode] is tree.root


class TestExecution:
    def test_converges(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        result = proto.run(field, epsilon=0.3, rng=np.random.default_rng(5))
        assert result.converged
        assert result.error <= 0.3

    def test_sum_conserved(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        result = proto.run(field, epsilon=0.3, rng=np.random.default_rng(7))
        assert result.values.sum() == pytest.approx(field.sum(), abs=1e-9)

    def test_far_exchanges_happen(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        proto.run(field, epsilon=0.3, rng=np.random.default_rng(9))
        assert proto.far_exchanges > 0

    def test_transmission_categories(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        result = proto.run(field, epsilon=0.3, rng=np.random.default_rng(11))
        assert result.transmissions.get("near", 0) > 0
        assert result.transmissions.get("far", 0) > 0
        assert result.transmissions.get("activation", 0) > 0

    def test_busy_guard_defers_overlapping_exchanges(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree, separation=1.0)
        proto.run(field, epsilon=0.3, rng=np.random.default_rng(13))
        # With no rate separation at all, the guard must be doing real work.
        assert proto.busy_aborts > 0

    def test_rerun_reuses_instance(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        first = proto.run(field, epsilon=0.4, rng=np.random.default_rng(15))
        second = proto.run(field, epsilon=0.4, rng=np.random.default_rng(15))
        assert first.converged and second.converged
        assert first.total_transmissions == second.total_transmissions

    def test_time_budgets_monotone(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        proto.run(field, epsilon=0.4, rng=np.random.default_rng(17), max_ticks=10)
        budgets = proto._time_budgets
        assert all(b > 0 for b in budgets)
        assert budgets[0] > budgets[-1]


class TestEngineStrides:
    """Per-run setup happens in ``begin_run``, which the one tick driver
    calls at every stride (a strided run used to skip it and index an
    empty time-budget list)."""

    @pytest.fixture(scope="class")
    def world(self):
        rng = np.random.default_rng(97)
        graph = RandomGeometricGraph.sample_connected(
            128, rng, radius_constant=2.5
        )
        tree = HierarchyTree.build(graph.positions, leaf_threshold=16.0)
        field = np.random.default_rng(101).normal(size=graph.n)
        return graph, tree, field

    def _run(self, world, check_stride):
        graph, tree, field = world
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScalarFallbackWarning)
            result = run_batched(
                proto, field, 0.3, np.random.default_rng(17),
                check_stride=check_stride,
            )
        return proto, result

    def test_stride1_numbers_unchanged(self, world):
        _, result = self._run(world, 1)
        assert result.converged
        assert result.ticks == 33248
        assert result.transmissions == {
            "activation": 373, "near": 39150, "far": 22, "total": 39545,
        }
        digest = hashlib.sha256(result.values.tobytes()).hexdigest()
        assert digest.startswith("14682978bf628119")

    def test_stride4_runs_the_per_run_setup(self, world):
        proto, result = self._run(world, 4)
        assert result.converged
        assert proto._time_budgets
        assert proto.far_exchanges > 0
        graph, _, field = world
        assert result.values.sum() == pytest.approx(field.sum(), abs=1e-9)

    def test_fault_free_wrapper_forwards_the_per_run_setup(self, world):
        graph, tree, field = world
        substrate = DynamicSubstrate(graph, FaultSpec(), seed=1)
        wrapped = DynamicGossip(
            AsyncHierarchicalProtocol(substrate, tree=tree), substrate
        )
        result = run_batched(wrapped, field, 0.3, np.random.default_rng(17))
        _, plain = self._run(world, 1)
        assert (result.ticks, result.transmissions) == (
            plain.ticks, plain.transmissions,
        )
        np.testing.assert_array_equal(result.values, plain.values)
