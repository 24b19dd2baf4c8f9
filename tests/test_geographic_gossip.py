"""Unit tests for repro.gossip.geographic (Dimakis et al. baseline)."""

import numpy as np
import pytest

from repro.gossip import GeographicGossip, RandomizedGossip
from repro.graphs import RandomGeometricGraph
from repro.graphs.generators import erdos_renyi_graph


@pytest.fixture(scope="module")
def rgg():
    rng = np.random.default_rng(149)
    return RandomGeometricGraph.sample_connected(128, rng, radius_constant=2.5)


class TestGeographicGossip:
    def test_rejects_unknown_mode(self, rgg):
        with pytest.raises(ValueError):
            GeographicGossip(rgg, target_mode="telepathy")

    def test_converges_uniform_mode(self, rgg):
        algo = GeographicGossip(rgg)
        rng = np.random.default_rng(151)
        x0 = rng.normal(size=rgg.n)
        result = algo.run(x0, epsilon=0.05, rng=rng)
        assert result.converged
        assert result.values.sum() == pytest.approx(x0.sum(), rel=1e-9)

    def test_converges_position_mode(self, rgg):
        algo = GeographicGossip(rgg, target_mode="position")
        rng = np.random.default_rng(157)
        result = algo.run(rng.normal(size=rgg.n), epsilon=0.1, rng=rng)
        assert result.converged

    def test_converges_rejection_mode_and_charges_overhead(self, rgg):
        algo = GeographicGossip(rgg, target_mode="rejection")
        rng = np.random.default_rng(163)
        result = algo.run(rng.normal(size=rgg.n), epsilon=0.1, rng=rng)
        assert result.converged
        assert result.transmissions.get("route_rejected", 0) > 0

    def test_transmissions_dominated_by_routing(self, rgg):
        algo = GeographicGossip(rgg)
        rng = np.random.default_rng(167)
        result = algo.run(rng.normal(size=rgg.n), epsilon=0.1, rng=rng)
        assert result.transmissions["route"] == result.total_transmissions
        # Routed exchanges cost >> 2 per tick (that is the whole point).
        assert result.total_transmissions > 2 * result.ticks

    def test_fewer_transmissions_than_randomized_at_larger_n(self):
        # The Õ(n^1.5) vs Õ(n²) separation needs (a) n past the crossover
        # and (b) a *smooth* field: i.i.d. noise lives in fast eigenmodes
        # and hides slow mixing, while a gradient excites the slow mode
        # the spectral gap bounds (cf. E7/E8, which use gradients).
        from repro.workloads import linear_gradient_field

        rng = np.random.default_rng(149)
        big = RandomGeometricGraph.sample_connected(512, rng, radius_constant=2.0)
        x0 = linear_gradient_field(big.positions, np.random.default_rng(173))
        geo = GeographicGossip(big).run(
            x0, epsilon=0.1, rng=np.random.default_rng(2)
        )
        rnd = RandomizedGossip(big.neighbors).run(
            x0, epsilon=0.1, rng=np.random.default_rng(2)
        )
        assert geo.converged and rnd.converged
        assert geo.total_transmissions < rnd.total_transmissions

    def test_uniform_targets_exclude_self(self, rgg):
        algo = GeographicGossip(rgg)
        rng = np.random.default_rng(179)
        for node in (0, rgg.n // 2, rgg.n - 1):
            for _ in range(50):
                target = algo._choose_target(node, None, None, rng)
                assert target != node

    def test_failed_exchange_counter_starts_zero(self, rgg):
        assert GeographicGossip(rgg).failed_exchanges == 0


class TestBatchedWalkBlocks:
    """The walk-batched block hooks on a graph where greedy routes void.

    The golden suite checks every override against its base loop on a
    dense graph that never voids; here the routed overrides must also
    abort exactly the exchanges the per-tick loop aborts, and their
    summed events must replay to the same run.
    """

    GRAPH = erdos_renyi_graph(64, np.random.default_rng(5))

    @staticmethod
    def _protocol(name):
        from repro.gossip import PathAveragingGossip, SpatialGossip

        graph = TestBatchedWalkBlocks.GRAPH
        if name == "spatial":
            return SpatialGossip(graph, rho=1.0)
        if name == "path-averaging":
            return PathAveragingGossip(graph)
        return GeographicGossip(graph)

    @staticmethod
    def _run(name, check_stride, base_loop, fields=None):
        from repro.engine import run_batched
        from repro.gossip.base import AsynchronousGossip
        from repro.observability import capture

        algorithm = TestBatchedWalkBlocks._protocol(name)
        if base_loop:
            for hook in ("tick_block", "tick_window"):
                base = getattr(AsynchronousGossip, hook).__get__(algorithm)
                setattr(algorithm, hook, base)
        values = np.random.default_rng(9).normal(size=(64, fields or 1))
        values = values[:, 0] if fields is None else values
        with capture() as recorder:
            result = run_batched(
                algorithm,
                values,
                0.01,
                np.random.default_rng(11),
                check_stride=check_stride,
                max_ticks=3000,
            )
        return algorithm, result, recorder.events

    @pytest.mark.parametrize("fields", [None, 2], ids=["scalar", "k2"])
    @pytest.mark.parametrize("check_stride", [1, 4])
    @pytest.mark.parametrize("name", ["geographic", "spatial", "path-averaging"])
    def test_override_aborts_and_replays_like_the_base_loop(
        self, name, check_stride, fields
    ):
        from repro.observability import replay_events, validate_result

        algorithm, result, events = self._run(name, check_stride, False, fields)
        base, expected, _ = self._run(name, check_stride, True, fields)
        np.testing.assert_array_equal(result.values, expected.values)
        assert result.transmissions == expected.transmissions
        assert (result.ticks, result.error) == (expected.ticks, expected.error)
        assert algorithm.failed_exchanges == base.failed_exchanges > 0
        replay = replay_events(events)
        validate_result(replay, result)
        assert replay.aborted_routes == algorithm.failed_exchanges
        # Every routed protocol walks its windows and blocks in batches.
        assert algorithm.router.walks > 0
