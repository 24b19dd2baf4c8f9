"""Memoized greedy routing: per-target next-hop columns over :class:`GreedyRouter`.

Greedy geographic forwarding is deterministic: the hop taken at node ``u``
towards target node ``t`` depends only on ``(u, t)`` and the fixed graph.
The first time a target ``t`` is routed to, :class:`CachedGreedyRouter`
builds the *entire* next-hop column for ``t`` — the greedy successor of
every node — in one vectorized segment-min pass over the flattened
adjacency (``np.minimum.reduceat``).  One column build costs about as
much as a single scalar route walk, and afterwards every route towards
``t``, from any source, is a chain of O(1) array lookups.

The cache is **exact**: the column applies the same elementwise IEEE
arithmetic and the same first-minimum tie-breaking as the scalar
:meth:`GreedyRouter._closest_neighbor` step, so
:class:`CachedGreedyRouter` produces bit-identical
:class:`~repro.routing.greedy.RouteResult` paths, delivery flags and
transmission charges to the uncached router (tested).  It exists so the
engine's batched tick path (`tick_block` in the routed protocols) can
charge routed transmission costs without re-walking greedy paths; the
per-tick ``tick`` path (stride 1) keeps using the plain router.

Memory is one ``n``-vector of node indices per distinct target ever
routed to — at most O(n²) integers, and in practice bounded by the
targets a run actually draws.

>>> import numpy as np
>>> from repro.graphs.rgg import RandomGeometricGraph
>>> from repro.routing.greedy import GreedyRouter
>>> graph = RandomGeometricGraph.sample_connected(
...     24, np.random.default_rng(3), radius_constant=3.0
... )
>>> cached, plain = CachedGreedyRouter(graph), GreedyRouter(graph)
>>> cached.route_to_node(0, 5).path == plain.route_to_node(0, 5).path
True
>>> (cached.misses, cached.hits)  # first route built column for target 5
(1, 0)
>>> _ = cached.route_to_node(7, 5)
>>> (cached.misses, cached.hits)
(1, 1)
"""

from __future__ import annotations

import numpy as np

from repro.graphs.rgg import RandomGeometricGraph
from repro.observability import events as _events
from repro.observability import metrics as _metrics
from repro.routing.cost import TransmissionCounter
from repro.routing.greedy import GreedyRouter, RouteResult

__all__ = ["CachedGreedyRouter"]


class CachedGreedyRouter:
    """Exact drop-in for :class:`GreedyRouter`'s node-target routing.

    Parameters
    ----------
    router:
        The router to memoize, or a graph (a fresh router is built).

    Attributes
    ----------
    hits / misses:
        Route-level cache statistics: a miss builds the target's next-hop
        column, a hit routes through an existing column.
    """

    #: Above this many row-repairs (changed rows × cached columns) an
    #: :meth:`invalidate` call drops the columns instead of patching
    #: them: one vectorized column rebuild costs about one route walk,
    #: which beats a wide scalar repair sweep.
    REPAIR_BUDGET = 20_000

    def __init__(self, router: GreedyRouter | RandomGeometricGraph):
        if isinstance(router, RandomGeometricGraph):
            router = GreedyRouter(router)
        self.router = router
        self.graph = router.graph
        self._nodes = np.arange(self.graph.n, dtype=np.int64)
        #: target node -> next-hop column (a plain list: per-hop indexing
        #: is the innermost loop); ``column[u] == u`` marks "the route
        #: towards this target ends at u" (arrived, or a void).
        self._columns: dict[int, list[int]] = {}
        #: target node -> (hops, destination) vectors derived from the
        #: column by :meth:`route_stats`; rebuilt lazily after any
        #: :meth:`invalidate` (the columns they summarise may change).
        self._stats: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        #: Number of :meth:`invalidate` calls served (observability for
        #: the dynamics layer, which invalidates per epoch transition).
        self.invalidations = 0
        #: Row-repairs applied in place / columns dropped wholesale by
        #: :meth:`invalidate` — distinguishes cheap targeted patching
        #: from cache-flushing churn in the telemetry.
        self.repairs = 0
        self.drops = 0
        self._refresh_adjacency()
        # Metrics are pull-based here: the registry reads the counters
        # above at scrape time (weakly referenced), so the per-route hot
        # path pays nothing — see observability.metrics.cache_collector.
        registry = _metrics.active()
        if registry is not None:
            _metrics.cache_collector(registry, self)

    def _refresh_adjacency(self) -> None:
        """Snapshot ``graph.neighbors`` into the flattened reduceat layout."""
        neighbors = self.graph.neighbors
        n = self.graph.n
        degrees = np.array([adj.size for adj in neighbors], dtype=np.int64)
        flat = (
            np.concatenate(neighbors)
            if degrees.sum()
            else np.empty(0, dtype=np.int64)
        )
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(degrees[:-1], out=offsets[1:])
        self._degrees = degrees
        self._flat = flat
        #: Segment starts for ``reduceat`` over *sentinel-padded* value
        #: arrays (:meth:`_build_column` appends one pad element).  A
        #: zero-degree node's offset equals its successor's — clipping it
        #: into range (the old scheme) would also truncate the *previous*
        #: node's segment end whenever trailing nodes are isolated, which
        #: time-varying substrates produce routinely; padding keeps every
        #: offset valid without moving any segment boundary.
        self._offsets = offsets
        self._flat_index = np.arange(flat.size, dtype=np.int64)

    def __len__(self) -> int:
        """Number of cached next-hop columns (distinct targets seen)."""
        return len(self._columns)

    @property
    def hit_rate(self) -> float:
        """Fraction of routes served from an existing column."""
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

        Fails (``delivered=False``) at a routing void exactly where the
        uncached greedy walk would, because the column replays the
        identical deterministic hop decisions.
        """
        column = self._columns.get(target_node)
        if column is None:
            self.misses += 1
            column = self._build_column(target_node).tolist()
            self._columns[target_node] = column
        else:
            self.hits += 1
        path = [source]
        current = source
        while True:
            nxt = column[current]
            if nxt == current:
                break
            path.append(nxt)
            current = nxt
        if counter is not None and len(path) > 1:
            counter.charge(len(path) - 1, category)
            # Same emit-at-the-charge-site rule as GreedyRouter: callers
            # holding counter=None are accounted for at their own layer.
            recorder = _events.active()
            if recorder is not None:
                recorder.emit(
                    {"e": "route", "hops": len(path) - 1, "cat": category}
                )
        return RouteResult(path=tuple(path), delivered=current == target_node)

    def round_trip(
        self,
        source: int,
        target_node: int,
        counter: TransmissionCounter | None = None,
        category: str = "route",
    ) -> tuple[RouteResult, RouteResult]:
        """Cached mirror of :meth:`GreedyRouter.round_trip`."""
        forward = self.route_to_node(source, target_node, counter, category)
        backward = self.route_to_node(
            forward.destination, source, counter, category
        )
        return forward, backward

    def route_stats(self, target_node: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-source ``(hops, destination)`` vectors towards ``target_node``.

        ``hops[u]`` is exactly ``len(path) - 1`` of
        :meth:`route_to_node`'s walk from ``u`` and ``destination[u]`` its
        fixed point (``destination[u] == target_node`` means delivered),
        derived from the next-hop column by pointer doubling — O(n log
        diameter) for all ``n`` sources at once.

        Accounting mirrors :meth:`route_to_node`'s ledger: the call is a
        miss when the target's column had to be built, a hit otherwise
        (deriving stats from an already-cached column answers from cached
        routing work).

        The returned arrays are cached internals — callers must not
        mutate them.
        """
        stats = self._stats.get(target_node)
        if stats is not None:
            self.hits += 1
            return stats
        column = self._columns.get(target_node)
        if column is None:
            self.misses += 1
            array = self._build_column(target_node)
            self._columns[target_node] = array.tolist()
        else:
            self.hits += 1
            array = np.asarray(column, dtype=np.int64)
        stats = self._column_stats(array)
        self._stats[target_node] = stats
        return stats

    @staticmethod
    def _column_stats(
        column: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold a next-hop column into ``(hops, destination)`` vectors.

        Pointer doubling: ``jump[u]`` is the node reached after at most
        ``2^k`` real hops (fixed points absorb) and ``hops[u]`` the real
        hops taken, so composing ``jump`` with itself doubles the horizon
        until every walk has landed on its fixed point.  Greedy columns
        are acyclic (every hop moves strictly closer to the target), so
        this terminates in O(log diameter) rounds.
        """
        nodes = np.arange(column.size, dtype=np.int64)
        jump = column.astype(np.int64, copy=True)
        hops = (jump != nodes).astype(np.int64)
        while True:
            landed = jump[jump]
            if np.array_equal(landed, jump):
                return hops, jump
            hops = hops + hops[jump]
            jump = landed

    def invalidate(self, nodes: "list[int] | None" = None) -> int:
        """React to an adjacency change without rebuilding the whole cache.

        Parameters
        ----------
        nodes:
            The nodes whose adjacency arrays changed (a time-varying
            substrate masking crashed nodes or failed links), or ``None``
            for "anything may have changed, positions included" — e.g.
            after a mobility rebuild.

        With ``nodes=None`` every cached column is dropped.  With an
        explicit node list the flattened adjacency snapshot is refreshed
        and each cached column is *repaired in place* at exactly those
        rows: a column entry at an unchanged node is still the correct
        greedy next hop (the decision depends only on that node's own
        adjacency and the fixed positions), so only the changed rows need
        recomputing — O(|nodes| · degree) per cached target instead of a
        full column rebuild.  Repaired columns stay bit-identical to
        freshly built ones (tested).

        Repair is a scalar loop, so when the change is *wide* (many rows
        × many cached columns — e.g. heavy churn epochs) dropping the
        columns and letting the vectorized builder repopulate them on
        demand is cheaper; past :data:`REPAIR_BUDGET` row-repairs the
        call does exactly that.  Either way the observable routing
        behaviour is identical — dropping is always safe.

        Returns the number of columns dropped or repaired.
        """
        self.invalidations += 1
        self._refresh_adjacency()
        # Stats vectors summarise columns that may now be repaired or
        # dropped below; they are cheap to re-derive, so always discard.
        self._stats.clear()
        if nodes is not None:
            rows = [int(node) for node in nodes]
            if not rows or not self._columns:
                return 0
            if len(rows) * len(self._columns) > self.REPAIR_BUDGET:
                nodes = None
        if nodes is None:
            dropped = len(self._columns)
            self._columns.clear()
            self.drops += dropped
            return dropped
        positions = self.router._positions
        for target_node, column in self._columns.items():
            target = positions[target_node]
            for u in rows:
                column[u] = self._next_hop(u, target)
        self.repairs += len(rows) * len(self._columns)
        return len(self._columns)

    def _next_hop(self, u: int, target: np.ndarray) -> int:
        """The scalar greedy next-hop rule, matching the column semantics.

        Delegates to the router's own step primitives
        (``GreedyRouter._closest_neighbor`` / ``_squared_distance``) so
        the scalar greedy step has exactly one implementation — the same
        elementwise IEEE arithmetic and first-minimum tie-breaking that
        :meth:`_build_column` vectorizes.  A node with no strictly
        closer neighbour (or no neighbours at all) maps to itself.
        """
        step = self.router._closest_neighbor(u, target)
        if step is None:
            return u
        best, best_sq = step
        if best_sq < self.router._squared_distance(u, target):
            return best
        return u

    def _build_column(self, target_node: int) -> np.ndarray:
        """Every node's greedy next hop towards ``target_node``, vectorized.

        Replicates the scalar stopping rule bit for bit: the squared
        distances are the same elementwise IEEE operations the scalar
        path computes, segment minima break ties on the first minimal
        neighbour (as ``np.argmin`` does), and a node whose best
        neighbour is not *strictly* closer maps to itself.
        """
        positions = self.router._positions
        diff = positions - positions[target_node]
        dist_sq = diff[:, 0] ** 2 + diff[:, 1] ** 2
        if self._flat.size == 0:
            return self._nodes.copy()
        # One sentinel pad keeps every offset (including those of empty
        # trailing segments, which equal flat.size) a valid reduceat
        # index; padded slots only ever land in zero-degree segments,
        # which ``_degrees > 0`` masks out below.
        neighbor_sq = np.append(dist_sq[self._flat], np.inf)
        segment_min = np.minimum.reduceat(neighbor_sq, self._offsets)
        # First index attaining the per-segment minimum == np.argmin.
        masked_index = np.append(
            np.where(
                neighbor_sq[:-1] == np.repeat(segment_min, self._degrees),
                self._flat_index,
                self._flat.size,
            ),
            self._flat.size,
        )
        first_index = np.minimum.reduceat(masked_index, self._offsets)
        best_neighbor = self._flat[np.minimum(first_index, self._flat.size - 1)]
        progress = (self._degrees > 0) & (segment_min < dist_sq)
        return np.where(progress, best_neighbor, self._nodes)
