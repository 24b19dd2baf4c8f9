"""Exact fast greedy routing: a per-pair route memo and a batched walk.

Greedy geographic forwarding is deterministic: the route from ``u`` to
``t`` depends only on ``(u, t)`` and the fixed graph.
:class:`CachedGreedyRouter` serves node-target routes in two ways.

* :meth:`CachedGreedyRouter.walk` routes a whole batch at once: every
  route moves one hop per step over per-node tables of neighbour ids
  and coordinates, padded to the maximum degree with a sentinel node at
  ``inf``, and takes ``argmin`` of the neighbours' squared distances to
  its target.  Each step gathers the live routes' coordinate rows with
  ``np.take`` and subtracts the targets in place, and a route ends the
  step it reaches its target.  The window and block hooks of geographic
  gossip, spatial gossip and path averaging route through it.
* :meth:`CachedGreedyRouter.route_to_node` (and so
  :meth:`~CachedGreedyRouter.round_trip`) serves single routes from a
  memo keyed by ``(source, target)``; a miss stores the
  :class:`~repro.routing.greedy.RouteResult` of the plain
  :class:`~repro.routing.greedy.GreedyRouter`.  The paper's protocol
  routes between a few hundred supernodes, so its pairs repeat and
  most of its routes are memo hits; ``tick``, rejection sampling and
  faulted cells route here too.

Both are **exact**: the memo holds the plain router's own routes, and
the walk applies the same elementwise IEEE arithmetic and the same
first-minimum tie-breaking as the scalar
:meth:`GreedyRouter._closest_neighbor` step, so :meth:`walk` returns
the same hops, destinations and paths (tested).  It is every routed
protocol's one router, at every check stride.  Position targets are not
memoised: :meth:`CachedGreedyRouter.route_to_position` walks the plain
:class:`GreedyRouter`.

Routes depend only on the graph, so protocols routed over one graph can
share one cache.  Sharing is opt-in by the graph's owner:
:meth:`CachedGreedyRouter.share` builds a cache and attaches it to the
graph, and protocols built on that graph pick it up through
:meth:`CachedGreedyRouter.for_graph`; on any other graph they build a
private cache.  The sweep executor shares the route table of each
``(n, trial)`` graph it builds, so the routed cells of a trial that run
in one process share one memo and one set of walk tables — the numbers
are unaffected, because a route is the same whichever protocol asked
for it.

Memory is one :class:`~repro.routing.greedy.RouteResult` per distinct
pair routed through :meth:`route_to_node` — at most ``n²``, and in
practice bounded by the pairs a run actually routes — plus the walk's
``n × max degree`` tables once a walk has run.

>>> import numpy as np
>>> from repro.graphs.rgg import RandomGeometricGraph
>>> from repro.routing.greedy import GreedyRouter
>>> graph = RandomGeometricGraph.sample_connected(
...     24, np.random.default_rng(3), radius_constant=3.0
... )
>>> cached, plain = CachedGreedyRouter(graph), GreedyRouter(graph)
>>> cached.route_to_node(0, 5) == plain.route_to_node(0, 5)
True
>>> (cached.misses, cached.hits)  # the first route ran the plain router
(1, 0)
>>> _ = cached.route_to_node(0, 5)
>>> (cached.misses, cached.hits)
(1, 1)
>>> walk = cached.walk([0, 7], [5, 9], paths=True)
>>> walk.paths[0] == list(plain.route_to_node(0, 5).path)
True
>>> cached.walks  # two routes walked, none memoised
2
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

import numpy as np

from repro.graphs.rgg import RandomGeometricGraph, adjacency_csr
from repro.observability import events as _events
from repro.routing.cost import TransmissionCounter
from repro.routing.greedy import GreedyRouter, RouteResult

__all__ = ["CachedGreedyRouter", "Walk"]


class Walk(NamedTuple):
    """Routes served by :meth:`CachedGreedyRouter.walk`, in input order.

    ``hops[i]`` and ``destinations[i]`` are exactly ``route.hops`` and
    ``route.destination`` of ``route_to_node(sources[i], targets[i])``;
    ``paths[i]`` is its ``route.path`` as a list, or ``paths`` is
    ``None`` when the walk was not asked for paths.
    """

    hops: np.ndarray
    destinations: np.ndarray
    paths: "list[list[int]] | None"


class CachedGreedyRouter:
    """Exact drop-in for :class:`GreedyRouter`.

    Parameters
    ----------
    graph:
        The graph to route over; the cache walks a :class:`GreedyRouter`
        built on it for memo misses and position targets.

    Two ways to route share one graph snapshot.  :meth:`route_to_node`
    serves a single route from the ``(source, target)`` memo, filled on
    a miss by the plain router; :meth:`walk` moves a whole batch of
    routes one hop per step over per-node neighbour tables.  Both return
    the plain router's routes, bit for bit.

    Attributes
    ----------
    hits / misses:
        Memo statistics: a miss routes with the plain router and stores
        the route, a hit returns a stored route.
    walks:
        Routes served by :meth:`walk`, which touch no memo.
    invalidations / drops:
        :meth:`invalidate` calls, and the memoised routes they dropped.
    """

    #: Routes one :meth:`walk` step advances at most: its work arrays
    #: are this many rows by the maximum degree.
    WALK_CHUNK = 4096

    #: Attribute :meth:`share` stores a weak reference to a graph's
    #: shared cache under.
    _SHARED_ATTR = "_shared_route_cache"

    def __init__(self, graph: RandomGeometricGraph):
        self.router = GreedyRouter(graph)
        self.graph = graph
        #: (source, target) -> the plain router's route between them.
        self._routes: dict[tuple[int, int], RouteResult] = {}
        #: :meth:`walk`'s padded tables, built from the adjacency on
        #: first use and dropped by :meth:`invalidate`.
        self._tables: "tuple[np.ndarray, ...] | None" = None
        self.hits = 0
        self.misses = 0
        self.walks = 0
        self.invalidations = 0
        self.drops = 0

    @classmethod
    def share(cls, graph) -> "CachedGreedyRouter":
        """A cache that protocols later built on ``graph`` will share.

        The caller owns the returned cache; ``graph`` keeps only a weak
        reference to it, so there is no graph↔cache reference cycle and
        the route table is freed the moment its owner (and the protocols
        using it) let go.  A :class:`~repro.dynamics.overlay.DynamicSubstrate`
        is a graph object of its own, so a faulted cell built over a
        shared graph still gets a private cache.
        """
        cache = cls(graph)
        setattr(graph, cls._SHARED_ATTR, weakref.ref(cache))
        return cache

    @classmethod
    def for_graph(cls, graph) -> "CachedGreedyRouter":
        """``graph``'s shared cache if it has a live one, else a private
        cache over ``graph``."""
        ref = getattr(graph, cls._SHARED_ATTR, None)
        shared = ref() if ref is not None else None
        return shared if shared is not None else cls(graph)

    @property
    def hit_rate(self) -> float:
        """Fraction of single routes served from the memo."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def route_to_node(
        self,
        source: int,
        target_node: int,
        counter: TransmissionCounter | None = None,
        category: str = "route",
    ) -> RouteResult:
        """Route ``source`` → ``target_node``; same contract as the router.

        The route is the plain router's, stored on first use, so it
        fails (``delivered=False``) at a routing void exactly where the
        uncached greedy walk would.
        """
        key = (source, target_node)
        route = self._routes.get(key)
        if route is None:
            self.misses += 1
            route = self.router.route_to_node(int(source), int(target_node))
            self._routes[key] = route
        else:
            self.hits += 1
        hops = route.hops
        if counter is not None and hops:
            counter.charge(hops, category)
            # Same emit-at-the-charge-site rule as GreedyRouter: callers
            # holding counter=None are accounted for at their own layer.
            recorder = _events.active()
            if recorder is not None:
                recorder.emit({"e": "route", "hops": hops, "cat": category})
        return route

    def route_to_position(
        self,
        source: int,
        target: np.ndarray,
        counter: TransmissionCounter | None = None,
        category: str = "route",
    ) -> RouteResult:
        """:meth:`GreedyRouter.route_to_position`, unmemoised: a location
        target is drawn afresh for every route."""
        return self.router.route_to_position(source, target, counter, category)

    def round_trip(
        self,
        source: int,
        target_node: int,
        counter: TransmissionCounter | None = None,
        category: str = "route",
    ) -> tuple[RouteResult, RouteResult]:
        """Memoised mirror of :meth:`GreedyRouter.round_trip`."""
        forward = self.route_to_node(source, target_node, counter, category)
        backward = self.route_to_node(
            forward.destination, source, counter, category
        )
        return forward, backward

    def walk(self, sources, targets, paths: bool = False) -> Walk:
        """Route ``sources[i]`` → ``targets[i]`` for every ``i`` at once.

        Equal, route by route, to :meth:`route_to_node`: the same hops,
        destinations and (with ``paths=True``) paths; a route was
        delivered iff its destination is its target.  It charges no
        counter, emits no event and touches no memo, so the caller
        accounts for the routes: all routes of a chunk of at most
        :data:`WALK_CHUNK` move one hop per step.  At each step a
        route's neighbours' squared distances to its target are
        ``(x_v - x_t)² + (y_v - y_t)²``, the elementwise IEEE operations
        :meth:`GreedyRouter._closest_neighbor` applies, on coordinate
        rows gathered with ``np.take`` and shifted by the target in
        place; ``argmin`` takes the first minimal neighbour in adjacency
        order, and the route moves only if that minimum is strictly
        below its own distance (which is the minimum it moved on, so it
        is computed once).  Padding slots hold a sentinel node at
        ``inf``, which never wins.  A route ends the step it reaches its
        target, and a route from a node to itself before the first step:
        at distance 0 no neighbour is strictly closer, so the rule would
        end it one step later at the same node.  A coincident sensor is
        also at distance 0 but is not the target, so a route that
        reaches one ends there, undelivered, as :meth:`route_to_node`
        does.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        count = len(sources)
        self.walks += count
        hops = np.zeros(count, dtype=np.int64)
        destinations = sources.copy()
        steps: "list[tuple[int, np.ndarray, np.ndarray]] | None" = (
            [] if paths else None
        )
        size = self.WALK_CHUNK
        for start in range(0, count, size):
            stop = min(start + size, count)
            self._walk_chunk(
                sources, targets, start, stop, hops, destinations, steps
            )
        if steps is None:
            return Walk(hops, destinations, None)
        # Route i's path fills slots starts[i]:ends[i] of one flat
        # array: its source first, then the node it reached at step s in
        # slot starts[i] + s.
        ends = np.cumsum(hops + 1)
        starts = ends - (hops + 1)
        visited = np.empty(int(ends[-1]) if count else 0, dtype=np.int64)
        visited[starts] = sources
        for step, index, nodes in steps:
            visited[starts[index] + step] = nodes
        flat = visited.tolist()
        routes = [
            flat[start:end] for start, end in zip(starts.tolist(), ends.tolist())
        ]
        return Walk(hops, destinations, routes)

    def _walk_tables(self) -> "tuple[np.ndarray, ...]":
        """Neighbour ids and coordinates per node, padded to the maximum
        degree with a sentinel node ``n`` at ``(inf, inf)``, plus the
        nodes' own coordinates."""
        if self._tables is None:
            n = self.graph.n
            flat, offsets, degrees = adjacency_csr(self.graph.neighbors)
            width = max(int(degrees.max()) if n else 0, 1)
            rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
            slots = np.arange(flat.size, dtype=np.int64)
            slots -= np.repeat(offsets, degrees)
            positions = self.router._positions
            x = np.ascontiguousarray(positions[:, 0], dtype=np.float64)
            y = np.ascontiguousarray(positions[:, 1], dtype=np.float64)
            neighbors = np.full((n, width), n, dtype=np.int64)
            neighbors[rows, slots] = flat
            neighbor_x = np.full((n, width), np.inf)
            neighbor_x[rows, slots] = x[flat]
            neighbor_y = np.full((n, width), np.inf)
            neighbor_y[rows, slots] = y[flat]
            self._tables = (neighbors, neighbor_x, neighbor_y, x, y)
        return self._tables

    def _walk_chunk(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        start: int,
        stop: int,
        hops: np.ndarray,
        destinations: np.ndarray,
        steps: "list[tuple[int, np.ndarray, np.ndarray]] | None",
    ) -> None:
        """Walk routes ``start:stop`` to their ends, in place.

        Every live route moves once per step, so a route that ends after
        ``step`` steps took ``step`` hops.  A route ends the step it
        reaches its target (its own distance is then 0, and no squared
        distance is below 0, so it could not move again), or the step no
        neighbour is strictly closer (a void, or a coincident sensor at
        distance 0).  ``destinations`` already holds the sources, which
        are the ends of routes that start at their targets.
        """
        neighbors, neighbor_x, neighbor_y, x, y = self._walk_tables()
        width = neighbors.shape[1]
        flat_neighbors = neighbors.reshape(-1)
        index = np.arange(start, stop, dtype=np.int64)
        current = sources[start:stop]
        target = targets[start:stop]
        live = current != target
        if not live.all():
            index, current, target = index[live], current[live], target[live]
        target_x = x[target]
        target_y = y[target]
        dx = x[current] - target_x
        dy = y[current] - target_y
        own = dx * dx + dy * dy
        step = 0
        while index.size:
            sq = np.take(neighbor_x, current, axis=0)
            sq -= target_x[:, None]
            sq *= sq
            sq_y = np.take(neighbor_y, current, axis=0)
            sq_y -= target_y[:, None]
            sq_y *= sq_y
            sq += sq_y
            slot = sq.argmin(axis=1)
            own_next = np.take_along_axis(sq, slot[:, None], axis=1)[:, 0]
            moves = own_next < own
            if not moves.all():
                ended = ~moves
                hops[index[ended]] = step
                destinations[index[ended]] = current[ended]
                index, current, slot, own_next, target, target_x, target_y = (
                    a[moves]
                    for a in (
                        index, current, slot, own_next, target, target_x, target_y
                    )
                )
            current = np.take(flat_neighbors, current * width + slot)
            own = own_next
            step += 1
            if steps is not None:
                steps.append((step, index, current))
            arrived = current == target
            if arrived.any():
                hops[index[arrived]] = step
                destinations[index[arrived]] = target[arrived]
                stay = ~arrived
                index, current, own, target, target_x, target_y = (
                    a[stay] for a in (index, current, own, target, target_x, target_y)
                )

    def route_stats(self, target_node: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-source ``(hops, destination)`` vectors towards ``target_node``.

        ``hops[u]`` is exactly ``len(path) - 1`` of :meth:`route_to_node`'s
        route from ``u`` and ``destination[u]`` where it ends
        (``destination[u] == target_node`` means delivered): one
        :meth:`walk` from every node.
        """
        n = self.graph.n
        walk = self.walk(np.arange(n), np.full(n, target_node))
        return walk.hops, walk.destinations

    def invalidate(self) -> int:
        """Forget every route after an adjacency change.

        A time-varying substrate that masked crashed nodes or failed
        links, or moved every node, calls this once per epoch that
        changed any adjacency row.  The memo and the walk tables are
        dropped; both refill from the current graph on demand.

        Returns the number of memoised routes dropped.
        """
        self.invalidations += 1
        dropped = len(self._routes)
        self._routes.clear()
        self.drops += dropped
        self._tables = None
        return dropped
