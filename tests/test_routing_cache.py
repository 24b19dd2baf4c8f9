"""Unit tests for repro.routing.cache (memoized greedy routing)."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import TOPOLOGIES, grid2d_graph
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
        cached = CachedGreedyRouter(graph)
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

    def test_columns_share_one_int_per_node(self):
        # Memory: a column holds pointers to the table's node ints, not
        # a fresh int object per entry.  Past n=256, where Python's
        # small-int cache ends, fresh ints would not be these objects.
        rng = np.random.default_rng(29)
        graph = RandomGeometricGraph.sample_connected(400, rng, radius_constant=3.0)
        cached = CachedGreedyRouter(graph)
        cached.route_to_node(0, graph.n - 1)
        cached.route_stats(1)
        assert len(cached) == 2
        for column in cached._columns.values():
            assert all(hop is cached._node_ints[hop] for hop in column)


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


class TestSharedCache:
    """``share``/``for_graph``: one route table per graph, when its owner
    asks for one."""

    @staticmethod
    def _protocols(graph):
        from repro.gossip.geographic import GeographicGossip
        from repro.gossip.hierarchical import HierarchicalGossip
        from repro.gossip.path_averaging import PathAveragingGossip
        from repro.gossip.spatial import SpatialGossip

        return (
            GeographicGossip(graph),
            SpatialGossip(graph),
            PathAveragingGossip(graph),
            HierarchicalGossip(graph),
        )

    def _graph(self):
        return RandomGeometricGraph.sample_connected(
            30, np.random.default_rng(7), radius_constant=3.0
        )

    def test_protocols_on_a_shared_graph_share_one_cache(self):
        graph = self._graph()
        shared = CachedGreedyRouter.share(graph)
        for protocol in self._protocols(graph):
            assert protocol.router is shared

    def test_unshared_graphs_get_private_caches(self):
        protocols = self._protocols(self._graph())
        assert len({id(p.router) for p in protocols}) == len(protocols)

    def test_graph_does_not_keep_the_shared_cache_alive(self):
        graph = self._graph()
        shared = weakref.ref(CachedGreedyRouter.share(graph))
        # The owner dropped it: freed by reference counting, no cycle.
        assert shared() is None
        protocol = self._protocols(graph)[0]
        assert protocol.router.graph is graph


class TestColumnBuildAfterResize:
    """Column builds after ``invalidate`` re-sized the pad buffers."""

    @staticmethod
    def _assert_columns_match_scalar_rule(cache, graph):
        positions = graph.positions
        for target in range(graph.n):
            column = cache._build_column(target)
            expected = [
                cache._next_hop(u, positions[target]) for u in range(graph.n)
            ]
            assert column.tolist() == expected, target

    @staticmethod
    def _isolate(graph, nodes):
        """Cut ``nodes`` out of the adjacency in place; returns changed rows."""
        changed = set(nodes)
        for node in nodes:
            for v in graph.neighbors[node]:
                adj = graph.neighbors[int(v)]
                graph.neighbors[int(v)] = adj[adj != node]
                changed.add(int(v))
            graph.neighbors[node] = np.empty(0, dtype=np.int64)
        return sorted(changed)

    def _graph(self):
        return RandomGeometricGraph.sample_connected(
            40, np.random.default_rng(31), radius_constant=3.0
        )

    def test_shrink_with_isolated_trailing_nodes(self):
        graph = self._graph()
        cache = CachedGreedyRouter(graph)
        edges = cache._flat.size
        changed = self._isolate(graph, [graph.n - 1, graph.n - 2, 7])
        cache.invalidate(changed)
        assert cache._flat.size < edges
        assert cache._neighbor_sq.size == cache._flat.size + 1
        self._assert_columns_match_scalar_rule(cache, graph)

    def test_grow_back_from_isolated_trailing_nodes(self):
        graph = self._graph()
        pristine = list(graph.neighbors)
        changed = self._isolate(graph, [graph.n - 1, graph.n - 3, 0])
        cache = CachedGreedyRouter(graph)
        for target in (1, 20, graph.n - 2):
            cache.route_to_node(5, target)
        edges = cache._flat.size
        graph.neighbors[:] = pristine
        cache.invalidate(changed)
        assert cache._flat.size > edges
        assert cache._neighbor_sq.size == cache._flat.size + 1
        self._assert_columns_match_scalar_rule(cache, graph)
        # The columns repaired in place agree with fresh builds too.
        fresh = CachedGreedyRouter(graph)
        for target in (1, 20, graph.n - 2):
            for source in range(graph.n):
                assert (
                    cache.route_to_node(source, target).path
                    == fresh.route_to_node(source, target).path
                )


class TestColumnTiesAndIsolation:
    """Every column entry equals the scalar rule where ties and holes are.

    On a square lattice a node's neighbours are often *exactly*
    equidistant from the target, so the column must pick the first
    minimal neighbour in adjacency order, as ``np.argmin`` does; and
    isolated nodes, mid-range and trailing, leave empty segments that
    must neither steal nor truncate a neighbour's segment.
    """

    @staticmethod
    def _tied_steps(graph):
        """``(u, t)`` steps with more than one minimal neighbour."""
        positions = graph.positions
        tied = 0
        for u in range(graph.n):
            adj = graph.neighbors[u]
            if adj.size < 2:
                continue
            for t in range(graph.n):
                pts = positions[adj]
                sq = (pts[:, 0] - positions[t][0]) ** 2 + (
                    pts[:, 1] - positions[t][1]
                ) ** 2
                tied += int((sq == sq.min()).sum() > 1)
        return tied

    def test_lattice_ties_break_on_the_first_minimum(self):
        graph = grid2d_graph(49)
        assert self._tied_steps(graph) > 100  # ties are the common case
        TestColumnBuildAfterResize._assert_columns_match_scalar_rule(
            CachedGreedyRouter(graph), graph
        )

    @pytest.mark.parametrize("lattice", [True, False], ids=["grid2d", "rgg"])
    def test_isolated_nodes_mid_range_and_trailing(self, lattice):
        if lattice:
            graph = grid2d_graph(48)
        else:
            graph = RandomGeometricGraph.sample_connected(
                48, np.random.default_rng(37), radius_constant=3.0
            )
        TestColumnBuildAfterResize._isolate(
            graph, [0, 9, 10, 24, graph.n - 2, graph.n - 1]
        )
        assert not graph.neighbors[graph.n - 1].size
        TestColumnBuildAfterResize._assert_columns_match_scalar_rule(
            CachedGreedyRouter(graph), graph
        )


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


def _walk_graph(family: str, n: int, seed: int) -> RandomGeometricGraph:
    """A graph of one of the shipped topologies, or an RGG with isolated
    nodes (``"isolated"``) or with coincident sensors (``"coincident"``)."""
    rng = np.random.default_rng(seed)
    if family == "isolated":
        graph = RandomGeometricGraph.build(rng.random((n, 2)), 0.35)
        TestColumnBuildAfterResize._isolate(
            graph, sorted({0, n // 2, n - 1, int(rng.integers(n))})
        )
        return graph
    if family == "coincident":
        points = rng.random((n, 2))
        copies = rng.integers(n, size=n // 3)
        points[rng.integers(n, size=n // 3)] = points[copies]
        return RandomGeometricGraph.build(points, 0.3)
    return TOPOLOGIES[family](n, rng, 2.0)


class TestBatchedWalk:
    """``walk`` routes a batch at once, equal to ``route_to_node`` per route."""

    @given(
        family=st.sampled_from([*TOPOLOGIES, "isolated", "coincident"]),
        n=st.integers(8, 70),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_walk_equals_column_routes(self, family, n, seed, data):
        graph = _walk_graph(family, n, seed)
        count = data.draw(st.integers(1, 40), label="routes")
        node = st.integers(0, graph.n - 1)
        sources = data.draw(st.lists(node, min_size=count, max_size=count))
        targets = data.draw(st.lists(node, min_size=count, max_size=count))
        router = CachedGreedyRouter(graph)
        router.WALK_CHUNK = data.draw(st.integers(1, count + 2), label="chunk")
        walk = router.walk(sources, targets, paths=True)
        bare = router.walk(sources, targets)
        assert bare.paths is None
        for i, (source, target) in enumerate(zip(sources, targets)):
            route = router.route_to_node(source, target)
            assert tuple(walk.paths[i]) == route.path
            assert walk.hops[i] == bare.hops[i] == route.hops
            assert (
                walk.destinations[i] == bare.destinations[i] == route.destination
            )
            assert (walk.destinations[i] == target) == route.delivered

    @given(
        n=st.integers(8, 60),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_routes_end_the_step_they_arrive(self, n, seed, data):
        """Routes of one chunk arrive at different steps; routes from a
        node to itself end before the first step, and a route to a
        coincident twin ends undelivered, at distance 0, where it began."""
        points = np.random.default_rng(seed).random((n, 2))
        points[1] = points[0]
        points[n - 1] = points[n // 2]
        graph = RandomGeometricGraph.build(points, 0.3)
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=20))
        pairs += [(3, 3), (0, 1), (1, 0), (n // 2, n - 1), (n - 1, n // 2)]
        # Towards node n - 1 a route reaches its lower-id twin first
        # wherever both are neighbours, and ends there undelivered.
        pairs += [(s, 0) for s in range(2, n, 3)]
        pairs += [(s, n - 1) for s in range(0, n, 3)]
        sources, targets = map(list, zip(*pairs))
        plain = GreedyRouter(graph)
        routes = [plain.route_to_node(s, t) for s, t in pairs]
        router = CachedGreedyRouter(graph)
        for chunk in range(1, len(pairs) + 3):
            router.WALK_CHUNK = chunk
            walk = router.walk(sources, targets, paths=True)
            assert [tuple(p) for p in walk.paths] == [r.path for r in routes]
            assert walk.hops.tolist() == [r.hops for r in routes]
            assert walk.destinations.tolist() == [r.destination for r in routes]
        for source, target, hops, end in zip(
            sources, targets, walk.hops.tolist(), walk.destinations.tolist()
        ):
            if source == target:
                assert (hops, end) == (0, source)
            elif (points[source] == points[target]).all():
                assert (hops, end) == (0, source)  # undelivered, distance 0

    def test_lattice_ties_and_voids_across_chunk_sizes(self):
        for graph in (grid2d_graph(64), _walk_graph("erdos-renyi", 60, 3)):
            plain = GreedyRouter(graph)
            pairs = [(s, t) for s in range(graph.n) for t in range(graph.n)]
            sources, targets = map(list, zip(*pairs))
            routes = [plain.route_to_node(s, t) for s, t in pairs]
            router = CachedGreedyRouter(graph)
            for chunk in (1, 5, 64, CachedGreedyRouter.WALK_CHUNK):
                router.WALK_CHUNK = chunk
                walk = router.walk(sources, targets, paths=True)
                assert [tuple(p) for p in walk.paths] == [r.path for r in routes]

    def test_walk_counts_routes_and_builds_no_column(self, graph):
        router = CachedGreedyRouter(graph)
        walk = router.walk([0, 1, 2], [5, 5, 9])
        assert router.walks == 3
        assert (router.hits, router.misses, len(router)) == (0, 0, 0)
        assert walk.hops.dtype == np.int64
        empty = router.walk([], [], paths=True)
        assert empty.paths == [] and router.walks == 3

    @pytest.mark.parametrize("rows", ["changed", "all"])
    def test_invalidate_drops_the_walk_tables(self, rows):
        graph = TestInvalidate()._mutable_graph()
        router = CachedGreedyRouter(graph)
        sources = list(range(graph.n))
        before = router.walk(sources, [59] * graph.n, paths=True)
        victim = before.paths[0][1]
        assert any(victim in path[1:] for path in before.paths)
        changed = TestInvalidate._crash(graph, victim)
        router.invalidate(changed if rows == "changed" else None)
        after = router.walk(sources, [59] * graph.n, paths=True)
        fresh = CachedGreedyRouter(graph)
        for source, path in zip(sources, after.paths):
            assert victim not in path[1:], (source, path)
            assert tuple(path) == fresh.route_to_node(source, 59).path
