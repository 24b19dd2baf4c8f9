"""Unit tests for repro.routing.cache (memoized greedy routing)."""

import numpy as np
import pytest

from repro.graphs.rgg import RandomGeometricGraph
from repro.routing import CachedGreedyRouter, GreedyRouter, TransmissionCounter


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(11)
    return RandomGeometricGraph.sample_connected(80, rng, radius_constant=3.0)


@pytest.fixture(scope="module")
def void_graph():
    # Two clusters out of radio range: cross-cluster greedy routes stop at
    # the cluster boundary (delivered=False), same as the uncached router.
    rng = np.random.default_rng(13)
    left = 0.25 * rng.random((12, 2))
    right = 0.25 * rng.random((12, 2)) + 0.75
    return RandomGeometricGraph.build(np.vstack([left, right]), radius=0.2)


class TestExactEquivalence:
    def test_all_pairs_match_uncached_router(self, graph):
        plain = GreedyRouter(graph)
        cached = CachedGreedyRouter(graph)
        rng = np.random.default_rng(17)
        pairs = rng.integers(graph.n, size=(300, 2))
        for source, target in pairs:
            source, target = int(source), int(target)
            expected = plain.route_to_node(source, target)
            got = cached.route_to_node(source, target)
            assert got.path == expected.path
            assert got.delivered == expected.delivered

    def test_round_trip_matches_and_charges_identically(self, graph):
        plain = GreedyRouter(graph)
        cached = CachedGreedyRouter(plain)
        plain_counter = TransmissionCounter()
        cached_counter = TransmissionCounter()
        rng = np.random.default_rng(19)
        for _ in range(100):
            source = int(rng.integers(graph.n))
            target = int(rng.integers(graph.n - 1))
            target = target + 1 if target >= source else target
            pf, pb = plain.round_trip(source, target, plain_counter)
            cf, cb = cached.round_trip(source, target, cached_counter)
            assert (cf.path, cb.path) == (pf.path, pb.path)
            assert (cf.delivered, cb.delivered) == (pf.delivered, pb.delivered)
        assert cached_counter.snapshot() == plain_counter.snapshot()

    def test_voids_fail_identically(self, void_graph):
        plain = GreedyRouter(void_graph)
        cached = CachedGreedyRouter(void_graph)
        n = void_graph.n
        crossings = [(0, n - 1), (1, n - 2), (n - 1, 0)]
        for source, target in crossings:
            expected = plain.route_to_node(source, target)
            got = cached.route_to_node(source, target)
            assert not got.delivered
            assert got.path == expected.path
        # Repeats of the failing route replay from cache, identically.
        again = cached.route_to_node(0, n - 1)
        assert again.path == plain.route_to_node(0, n - 1).path


class TestCacheBehaviour:
    def test_repeated_routes_hit_the_cache(self, graph):
        cached = CachedGreedyRouter(graph)
        cached.route_to_node(0, graph.n - 1)
        assert (cached.hits, cached.misses) == (0, 1)  # one column build
        cached.route_to_node(0, graph.n - 1)
        assert (cached.hits, cached.misses) == (1, 1)
        assert cached.hit_rate == pytest.approx(0.5)

    def test_one_column_serves_every_source(self, graph):
        cached = CachedGreedyRouter(graph)
        first = cached.route_to_node(0, graph.n - 1)
        assert len(cached) == 1  # one target column
        # Any route towards the same target — from mid-path or any other
        # source — re-uses the column: no new misses.
        suffix = cached.route_to_node(int(first.path[1]), graph.n - 1)
        assert suffix.path == first.path[1:]
        for source in range(1, graph.n, 7):
            cached.route_to_node(source, graph.n - 1)
        assert cached.misses == 1
        assert len(cached) == 1

    def test_counter_optional_and_charged_once_per_hop(self, graph):
        cached = CachedGreedyRouter(graph)
        counter = TransmissionCounter()
        result = cached.route_to_node(0, graph.n - 1, counter, "route")
        assert counter.snapshot() == {
            "route": result.hops,
            "total": result.hops,
        }

    def test_hit_rate_defined_before_any_route(self, graph):
        assert CachedGreedyRouter(graph).hit_rate == 0.0


class TestInvalidate:
    """The adjacency-change API the dynamics layer drives per epoch."""

    def _mutable_graph(self):
        rng = np.random.default_rng(23)
        return RandomGeometricGraph.sample_connected(
            60, rng, radius_constant=3.0
        )

    @staticmethod
    def _crash(graph, node):
        """Mask ``node`` out of the adjacency in place; returns changed rows."""
        changed = [node] + [int(v) for v in graph.neighbors[node]]
        for v in graph.neighbors[node]:
            adj = graph.neighbors[int(v)]
            graph.neighbors[int(v)] = adj[adj != node]
        graph.neighbors[node] = np.empty(0, dtype=np.int64)
        return changed

    def test_patched_columns_match_fresh_builds(self):
        graph = self._mutable_graph()
        cached = CachedGreedyRouter(graph)
        targets = [0, 17, 41, 59]
        for target in targets:
            cached.route_to_node(3, target)
        changed = self._crash(graph, 29)
        assert cached.invalidate(changed) == len(targets)
        fresh = CachedGreedyRouter(graph)
        rng = np.random.default_rng(29)
        for target in targets:
            for source in rng.integers(graph.n, size=20):
                got = cached.route_to_node(int(source), target)
                expected = fresh.route_to_node(int(source), target)
                assert got.path == expected.path
                assert got.delivered == expected.delivered

    def test_invalidate_none_drops_every_column(self):
        graph = self._mutable_graph()
        cached = CachedGreedyRouter(graph)
        cached.route_to_node(0, 10)
        cached.route_to_node(0, 20)
        assert len(cached) == 2
        assert cached.invalidate(None) == 2
        assert len(cached) == 0
        assert cached.invalidations == 1
        # Routing afterwards rebuilds from the current adjacency.
        self._crash(graph, 10)
        cached.invalidate(None)
        route = cached.route_to_node(0, 10)
        assert not route.delivered  # node 10 is unreachable now

    def test_invalidate_with_no_columns_is_cheap_and_safe(self):
        graph = self._mutable_graph()
        cached = CachedGreedyRouter(graph)
        assert cached.invalidate([1, 2, 3]) == 0
        assert cached.invalidate([]) == 0

    def test_routes_never_enter_a_masked_node(self):
        graph = self._mutable_graph()
        cached = CachedGreedyRouter(graph)
        # Populate a column that (likely) routes through the middle.
        for source in range(0, graph.n, 5):
            cached.route_to_node(source, 59)
        victim = int(cached.route_to_node(0, 59).path[1])
        changed = self._crash(graph, victim)
        cached.invalidate(changed)
        for source in range(graph.n):
            path = cached.route_to_node(source, 59).path
            assert victim not in path[1:], (source, path)


class TestRouteStatsVectors:
    """The per-target ``(hops, destination)`` vectors of ``route_stats``."""

    @pytest.fixture()
    def cache(self):
        graph = RandomGeometricGraph.sample_connected(
            40, np.random.default_rng(11), radius_constant=3.0
        )
        return graph, CachedGreedyRouter(graph)

    def test_stats_match_walked_routes(self, cache):
        graph, router = cache
        reference = CachedGreedyRouter(graph)
        for target in range(0, 40, 7):
            hops, dest = router.route_stats(target)
            for source in range(40):
                walked = reference.route_to_node(source, target)
                assert dest[source] == walked.path[-1]
                assert hops[source] == walked.hops

    def test_accounting_one_hit_or_miss_per_call(self, cache):
        _, router = cache
        router.route_stats(3)
        assert (router.hits, router.misses) == (0, 1)
        router.route_stats(3)
        assert (router.hits, router.misses) == (1, 1)
        # A column warmed by the scalar API counts as a hit for stats.
        router.route_to_node(0, 9)
        hits, misses = router.hits, router.misses
        router.route_stats(9)
        assert (router.hits, router.misses) == (hits + 1, misses)

    def test_invalidate_discards_stats(self, cache):
        _, router = cache
        hops_before, _ = router.route_stats(3)
        router.invalidate()
        hops_after, dest_after = router.route_stats(3)
        assert hops_after is not hops_before
        np.testing.assert_array_equal(hops_after, hops_before)
        assert int(dest_after[3]) == 3
