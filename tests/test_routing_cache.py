"""Unit tests for repro.routing.cache (the route memo and batched walk)."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import DynamicSubstrate, FaultSpec
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
        assert (cached.hits, cached.misses) == (0, 1)  # one scalar route
        cached.route_to_node(0, graph.n - 1)
        assert (cached.hits, cached.misses) == (1, 1)
        assert cached.hit_rate == pytest.approx(0.5)

    def test_each_pair_is_memoised_once(self, graph):
        cached = CachedGreedyRouter(graph)
        first = cached.route_to_node(0, graph.n - 1)
        # Another source towards the same target is a pair of its own.
        cached.route_to_node(int(first.path[1]), graph.n - 1)
        assert (cached.hits, cached.misses) == (0, 2)
        assert cached.route_to_node(0, graph.n - 1) is first
        assert (cached.hits, cached.misses) == (1, 2)

    def test_counter_optional_and_charged_once_per_hop(self, graph):
        cached = CachedGreedyRouter(graph)
        counter = TransmissionCounter()
        result = cached.route_to_node(0, graph.n - 1, counter, "route")
        assert counter.snapshot() == {
            "route": result.hops,
            "total": result.hops,
        }
        # A memo hit is charged like the route it replays.
        cached.route_to_node(0, graph.n - 1, counter, "far")
        assert counter.snapshot() == {
            "route": result.hops,
            "far": result.hops,
            "total": 2 * result.hops,
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
        """Mask ``node`` out of the adjacency in place."""
        for v in graph.neighbors[node]:
            adj = graph.neighbors[int(v)]
            graph.neighbors[int(v)] = adj[adj != node]
        graph.neighbors[node] = np.empty(0, dtype=np.int64)

    def test_invalidate_drops_every_route(self):
        graph = self._mutable_graph()
        cached = CachedGreedyRouter(graph)
        cached.route_to_node(0, 10)
        cached.route_to_node(0, 20)
        assert cached.invalidate() == 2
        assert (cached.invalidations, cached.drops) == (1, 2)
        # Routing afterwards follows the current adjacency.
        self._crash(graph, 10)
        cached.invalidate()
        route = cached.route_to_node(0, 10)
        assert not route.delivered  # node 10 is unreachable now
        assert cached.misses == 3

    def test_invalidate_with_an_empty_memo_drops_nothing(self):
        cached = CachedGreedyRouter(self._mutable_graph())
        assert cached.invalidate() == 0
        assert (cached.invalidations, cached.drops) == (1, 0)

    def test_memoised_routes_never_enter_a_masked_node(self):
        graph = self._mutable_graph()
        cached = CachedGreedyRouter(graph)
        # Memoise routes that (likely) pass through the middle.
        for source in range(0, graph.n, 5):
            cached.route_to_node(source, 59)
        victim = int(cached.route_to_node(0, 59).path[1])
        self._crash(graph, victim)
        cached.invalidate()
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


def _assert_routes_match_scalar_rule(cache, graph):
    """Every pair's walk and memoised route equal the plain router's."""
    plain = GreedyRouter(graph)
    pairs = [(s, t) for s in range(graph.n) for t in range(graph.n)]
    sources, targets = map(list, zip(*pairs))
    walk = cache.walk(sources, targets, paths=True)
    for (source, target), path in zip(pairs, walk.paths):
        expected = plain.route_to_node(source, target)
        assert tuple(path) == expected.path, (source, target)
        route = cache.route_to_node(source, target)
        assert (route.path, route.delivered) == (
            expected.path,
            expected.delivered,
        )


def _edges(cache):
    """The edges in the walk's neighbour table (sentinel slots hold n)."""
    neighbors = cache._walk_tables()[0]
    return int((neighbors < cache.graph.n).sum())


class TestRoutesAfterResize:
    """Walks and memoised routes after ``invalidate`` on an adjacency
    that shrank or grew."""

    @staticmethod
    def _isolate(graph, nodes):
        """Cut ``nodes`` out of the adjacency in place."""
        for node in nodes:
            for v in graph.neighbors[node]:
                adj = graph.neighbors[int(v)]
                graph.neighbors[int(v)] = adj[adj != node]
            graph.neighbors[node] = np.empty(0, dtype=np.int64)

    def _graph(self):
        return RandomGeometricGraph.sample_connected(
            40, np.random.default_rng(31), radius_constant=3.0
        )

    def test_shrink_with_isolated_trailing_nodes(self):
        graph = self._graph()
        cache = CachedGreedyRouter(graph)
        edges = _edges(cache)
        self._isolate(graph, [graph.n - 1, graph.n - 2, 7])
        cache.invalidate()
        assert _edges(cache) < edges
        _assert_routes_match_scalar_rule(cache, graph)

    def test_grow_back_from_isolated_trailing_nodes(self):
        graph = self._graph()
        pristine = list(graph.neighbors)
        self._isolate(graph, [graph.n - 1, graph.n - 3, 0])
        cache = CachedGreedyRouter(graph)
        for target in (1, 20, graph.n - 2):
            cache.route_to_node(5, target)
        edges = _edges(cache)
        graph.neighbors[:] = pristine
        cache.invalidate()
        assert _edges(cache) > edges
        _assert_routes_match_scalar_rule(cache, graph)


class TestTiesAndIsolation:
    """Every walk and memoised route equals the scalar rule where ties
    and holes are.

    On a square lattice a node's neighbours are often *exactly*
    equidistant from the target, so a route must take the first minimal
    neighbour in adjacency order, as ``np.argmin`` does; and isolated
    nodes, mid-range and trailing, leave empty rows that must neither
    steal nor truncate a neighbour's row.
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
        _assert_routes_match_scalar_rule(CachedGreedyRouter(graph), graph)

    @pytest.mark.parametrize("lattice", [True, False], ids=["grid2d", "rgg"])
    def test_isolated_nodes_mid_range_and_trailing(self, lattice):
        if lattice:
            graph = grid2d_graph(48)
        else:
            graph = RandomGeometricGraph.sample_connected(
                48, np.random.default_rng(37), radius_constant=3.0
            )
        TestRoutesAfterResize._isolate(
            graph, [0, 9, 10, 24, graph.n - 2, graph.n - 1]
        )
        assert not graph.neighbors[graph.n - 1].size
        _assert_routes_match_scalar_rule(CachedGreedyRouter(graph), graph)


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

    def test_stats_follow_invalidate(self, cache):
        graph, router = cache
        _, dest_before = router.route_stats(3)
        assert (dest_before == 3).all()
        TestInvalidate._crash(graph, 3)
        router.invalidate()
        hops, dest = router.route_stats(3)
        assert (dest == 3).tolist() == [u == 3 for u in range(graph.n)]
        plain = GreedyRouter(graph)
        for source in range(graph.n):
            route = plain.route_to_node(source, 3)
            assert (hops[source], dest[source]) == (route.hops, route.destination)


def _walk_graph(family: str, n: int, seed: int) -> RandomGeometricGraph:
    """A graph of one of the shipped topologies, or an RGG with isolated
    nodes (``"isolated"``) or with coincident sensors (``"coincident"``)."""
    rng = np.random.default_rng(seed)
    if family == "isolated":
        graph = RandomGeometricGraph.build(rng.random((n, 2)), 0.35)
        TestRoutesAfterResize._isolate(
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
    def test_walk_equals_single_routes(self, family, n, seed, data):
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

    def test_walk_counts_routes_and_memoises_none(self, graph):
        router = CachedGreedyRouter(graph)
        walk = router.walk([0, 1, 2], [5, 5, 9])
        assert router.walks == 3
        assert (router.hits, router.misses, len(router._routes)) == (0, 0, 0)
        assert walk.hops.dtype == np.int64
        empty = router.walk([], [], paths=True)
        assert empty.paths == [] and router.walks == 3

    def test_invalidate_drops_the_walk_tables(self):
        graph = TestInvalidate()._mutable_graph()
        router = CachedGreedyRouter(graph)
        sources = list(range(graph.n))
        before = router.walk(sources, [59] * graph.n, paths=True)
        victim = before.paths[0][1]
        assert any(victim in path[1:] for path in before.paths)
        TestInvalidate._crash(graph, victim)
        router.invalidate()
        after = router.walk(sources, [59] * graph.n, paths=True)
        plain = GreedyRouter(graph)
        for source, path in zip(sources, after.paths):
            assert victim not in path[1:], (source, path)
            assert tuple(path) == plain.route_to_node(source, 59).path


class TestRouteMemo:
    """``route_to_node`` serves the plain router's routes from its memo."""

    @given(
        family=st.sampled_from([*TOPOLOGIES, "isolated", "coincident"]),
        n=st.integers(8, 70),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_memo_equals_the_scalar_router(self, family, n, seed, data):
        """On lattice ties, voids, isolated nodes and coincident sensors,
        a memoised route is the plain router's path and flag, on the miss
        that stores it and on every hit after."""
        graph = _walk_graph(family, n, seed)
        node = st.integers(0, graph.n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=40))
        plain = GreedyRouter(graph)
        router = CachedGreedyRouter(graph)
        for _ in range(2):
            for source, target in pairs:
                got = router.route_to_node(source, target)
                expected = plain.route_to_node(source, target)
                assert (got.path, got.delivered) == (
                    expected.path,
                    expected.delivered,
                )
        assert router.misses == len(set(pairs))
        assert router.hits == 2 * len(pairs) - len(set(pairs))

    @given(seed=st.integers(0, 2**31 - 1), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_no_memoised_route_crosses_a_node_crashed_since(self, seed, data):
        """On a churning substrate the epoch clock invalidates the memo,
        so after each epoch every route is the plain router's over the
        masked adjacency, and none passes through a node that crashed
        after the route was first stored."""
        graph = RandomGeometricGraph.sample_connected(
            48, np.random.default_rng(seed), radius_constant=3.0
        )
        spec = FaultSpec(churn_rate=0.15, recover_rate=0.2, epoch_ticks=8)
        substrate = DynamicSubstrate(graph, spec, seed=seed)
        router = CachedGreedyRouter(substrate)
        substrate.register_cache(router)
        plain = GreedyRouter(substrate)
        node = st.integers(0, graph.n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=30))
        for epoch in range(1, 5):
            for source, target in pairs:
                router.route_to_node(source, target)
            live = substrate.live.copy()
            substrate.advance_to(epoch * spec.epoch_ticks)
            crashed = set(np.flatnonzero(live & ~substrate.live).tolist())
            for source, target in pairs:
                got = router.route_to_node(source, target)
                expected = plain.route_to_node(source, target)
                assert (got.path, got.delivered) == (
                    expected.path,
                    expected.delivered,
                )
                assert not crashed.intersection(got.path[1:]), (crashed, got.path)
        assert substrate.crashes > 0
        assert router.invalidations > 0
