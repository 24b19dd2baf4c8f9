"""Integration tests: whole-pipeline behaviour across modules.

These exercise the public API end to end: build a graph, pick a workload,
run all three algorithms, compare costs, audit transmission accounting,
and check the experiment harness wiring — the same path the benchmarks
take, at test-friendly sizes.
"""

import numpy as np
import pytest

from repro import (
    GeographicGossip,
    HierarchicalGossip,
    HierarchyTree,
    RandomizedGossip,
    RandomGeometricGraph,
    normalized_error,
)
from repro.experiments import ExperimentConfig, run_convergence
from repro.gossip.hierarchical import CoefficientMode, RoundConfig
from repro.workloads import FIELD_GENERATORS


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(83)
    graph = RandomGeometricGraph.sample_connected(256, rng, radius_constant=2.2)
    field = np.random.default_rng(89).normal(size=graph.n)
    return graph, field


class TestThreeAlgorithmsOneWorld:
    def test_all_converge_to_same_average(self, world):
        graph, field = world
        target = field.mean()
        epsilon = 0.15
        results = {}
        results["randomized"] = RandomizedGossip(graph.neighbors).run(
            field, epsilon, np.random.default_rng(1)
        )
        results["geographic"] = GeographicGossip(graph).run(
            field, epsilon, np.random.default_rng(2)
        )
        results["hierarchical"] = HierarchicalGossip(graph).run(
            field, epsilon, np.random.default_rng(3)
        )
        for name, result in results.items():
            assert result.converged, name
            assert result.values.mean() == pytest.approx(target, abs=1e-6), name
            assert normalized_error(result.values, field) <= epsilon, name

    def test_costs_are_positive_and_audited(self, world):
        graph, field = world
        result = HierarchicalGossip(graph).run(
            field, 0.2, np.random.default_rng(5)
        )
        snapshot = result.transmissions
        categories = {k: v for k, v in snapshot.items() if k != "total"}
        assert sum(categories.values()) == snapshot["total"]
        assert snapshot["total"] == result.total_transmissions

    def test_every_workload_averages(self, world):
        graph, _ = world
        rng = np.random.default_rng(7)
        for name, generator in FIELD_GENERATORS.items():
            field = generator(graph.positions, rng)
            result = GeographicGossip(graph).run(
                field, 0.25, np.random.default_rng(11)
            )
            assert result.converged, name
            assert result.values.mean() == pytest.approx(
                field.mean(), abs=1e-9
            ), name


class TestHierarchyProtocolAgreement:
    @pytest.fixture(scope="class")
    def small_world(self):
        rng = np.random.default_rng(97)
        graph = RandomGeometricGraph.sample_connected(128, rng, radius_constant=2.5)
        tree = HierarchyTree.build(graph.positions, leaf_threshold=16.0)
        field = np.random.default_rng(101).normal(size=graph.n)
        return graph, tree, field

    def test_round_executor_agrees_with_flat_gossip(self, small_world):
        # The hierarchy changes how mass moves, not where it ends: on the
        # same world both protocols reach the same average.
        graph, tree, field = small_world
        epsilon = 0.3
        round_result = HierarchicalGossip(graph, tree=tree).run(
            field, epsilon, np.random.default_rng(13)
        )
        flat_result = RandomizedGossip(graph.neighbors).run(
            field, epsilon, np.random.default_rng(17)
        )
        assert round_result.converged and flat_result.converged
        assert round_result.values.mean() == pytest.approx(
            flat_result.values.mean(), abs=1e-9
        )

    def test_hierarchy_shared_between_algorithms(self, small_world):
        graph, tree, field = small_world
        a = HierarchicalGossip(graph, tree=tree)
        b = HierarchicalGossip(
            graph,
            tree=tree,
            config=RoundConfig(coefficient_mode=CoefficientMode.ACTUAL_MIN),
        )
        assert a.tree is b.tree
        for algo in (a, b):
            result = algo.run(field, 0.3, np.random.default_rng(19))
            assert result.converged
            # Running one never swaps in a tree of its own.
            assert algo.tree is tree


class TestHarnessEndToEnd:
    def test_run_convergence_all_three(self):
        config = ExperimentConfig(
            sizes=(128,),
            epsilon=0.3,
            trials=1,
            radius_constant=2.5,
            field="plume",
        )
        runs = run_convergence(config, 128)
        assert len(runs) == 3
        assert all(r.converged for r in runs)
        by_name = {r.algorithm: r for r in runs}
        # Routed/hierarchical algorithms must not exceed the flat baseline
        # by an order of magnitude even at this small n.
        assert (
            by_name["geographic"].transmissions
            < 10 * by_name["randomized"].transmissions
        )

    def test_seeded_reruns_identical(self):
        config = ExperimentConfig(
            sizes=(128,), epsilon=0.3, trials=1, radius_constant=2.5,
            algorithms=("hierarchical",),
        )
        first = run_convergence(config, 128)[0]
        second = run_convergence(config, 128)[0]
        assert first.transmissions == second.transmissions
        np.testing.assert_array_equal(
            first.result.values, second.result.values
        )
