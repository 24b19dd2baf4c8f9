"""Exact fast greedy routing: per-target next-hop columns and a batched walk.

Greedy geographic forwarding is deterministic: the hop taken at node ``u``
towards target node ``t`` depends only on ``(u, t)`` and the fixed graph.
The first time a target ``t`` is routed to, :class:`CachedGreedyRouter`
builds the *entire* next-hop column for ``t`` — the greedy successor of
every node — in one vectorized segment-min pass over the flattened
adjacency (``np.minimum.reduceat``).  A column build is five O(edges)
array passes — the neighbours' squared distances, their segment minima,
those minima spread back over the edges, the comparison, and the
minimal slots it leaves — plus a ``searchsorted`` that finds each
node's first minimal slot, the neighbour ``np.argmin`` would pick.
Afterwards every route towards ``t``, from any source, is a chain of
O(1) array lookups.

Columns depend only on the graph, so protocols routed over one graph
can share one cache.  Sharing is opt-in by the graph's owner:
:meth:`CachedGreedyRouter.share` builds a cache and attaches it to the
graph, and protocols built on that graph pick it up through
:meth:`CachedGreedyRouter.for_graph`; on any other graph they build a
private cache.  The sweep executor shares the route table of each
``(n, trial)`` graph it builds, so the geographic, spatial,
path-averaging and hierarchical cells of a trial run in one process
reuse each other's columns — the numbers are unaffected, because a
column is the same whichever protocol built it.

A column pays off when many routes share few targets — the paper's
protocol routes to a few hundred supernodes.  Uniform random targets,
which the routed baselines draw, would build a column for nearly every
node and walk only about a dozen entries of each.  For them
:meth:`CachedGreedyRouter.walk` routes a whole batch at once and builds
no column: every route moves one hop per step over per-node tables of
neighbour ids and coordinates, padded to the maximum degree with a
sentinel node at ``inf``, and takes ``argmin`` of the same squared
distances.  Each step gathers the live routes' coordinate rows with
``np.take`` and subtracts the targets in place, and a route ends the
step it reaches its target.  Geographic gossip's block and stride-1
window hooks, and spatial gossip's and path averaging's block hooks,
route through it; ``tick``, the paper's protocol, rejection sampling
and faulted cells use the columns.

Both paths are **exact**: they apply the same elementwise IEEE
arithmetic and the same first-minimum tie-breaking as the scalar
:meth:`GreedyRouter._closest_neighbor` step, so
:class:`CachedGreedyRouter` produces bit-identical
:class:`~repro.routing.greedy.RouteResult` paths, delivery flags and
transmission charges to the uncached router, and :meth:`walk` the same
hops, destinations and paths (tested).  It is every routed protocol's
one router, at every check stride.  Position targets have no per-node
column, so :meth:`CachedGreedyRouter.route_to_position` walks the plain
:class:`GreedyRouter`.

Memory is one ``n``-list of pointers to shared node ints per distinct
target ever routed to — at most O(n²) pointers, and in practice bounded
by the targets a run actually draws — plus the walk's three
``n × max degree`` tables once a walk has run.

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
>>> walk = cached.walk([0, 7], [5, 9], paths=True)
>>> walk.paths[0] == list(plain.route_to_node(0, 5).path)
True
>>> (cached.walks, len(cached))  # two routes walked, no column built
(2, 1)
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
        built on it for position targets.

    Two ways to route share one graph snapshot.  :meth:`route_to_node`
    walks a per-target next-hop column, built on first use for the
    whole graph; :meth:`walk` moves a whole batch of routes one hop per
    step over per-node neighbour tables, and builds no column.  The
    columns pay off when many routes share few targets (the paper's
    protocol routes to a few hundred supernodes); uniform targets, as
    the routed baselines draw them, would build a column per node and
    walk about a dozen of its entries, so their block paths use
    :meth:`walk`.  Both apply the same greedy rule and return the same
    routes, bit for bit.

    Attributes
    ----------
    hits / misses:
        Column-route statistics: a miss builds the target's next-hop
        column, a hit routes through an existing column.
    walks:
        Routes served by :meth:`walk`, which touch no column.
    """

    #: Routes one :meth:`walk` step advances at most: its work arrays
    #: are this many rows by the maximum degree.
    WALK_CHUNK = 4096

    #: Above this many row-repairs (changed rows × cached columns) an
    #: :meth:`invalidate` call drops the columns instead of patching
    #: them: vectorized column rebuilds on demand beat a wide scalar
    #: repair sweep.
    REPAIR_BUDGET = 20_000

    #: Attribute :meth:`share` stores a weak reference to a graph's
    #: shared cache under.
    _SHARED_ATTR = "_shared_route_cache"

    def __init__(self, graph: RandomGeometricGraph):
        self.router = GreedyRouter(graph)
        self.graph = graph
        self._nodes = np.arange(self.graph.n, dtype=np.int64)
        #: One Python int per node.  Columns are gathered from it, so an
        #: entry costs one pointer, not a fresh int object (4.5x smaller).
        self._node_ints = self._nodes.astype(object)
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
        self.walks = 0
        #: Number of :meth:`invalidate` calls served (observability for
        #: the dynamics layer, which invalidates per epoch transition).
        self.invalidations = 0
        #: Row-repairs applied in place / columns dropped wholesale by
        #: :meth:`invalidate` — distinguishes cheap targeted patching
        #: from cache-flushing churn in the telemetry.
        self.repairs = 0
        self.drops = 0
        self._refresh_adjacency()

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

    def _refresh_adjacency(self) -> None:
        """Snapshot ``graph.neighbors`` into the flattened reduceat layout.

        Also (re)allocates :meth:`_build_column`'s padded distance
        buffer, sized to the snapshot's edge count, and drops
        :meth:`walk`'s neighbour tables; :meth:`invalidate` refreshes
        both through here, so neither outlives the adjacency it mirrors.
        """
        flat, offsets, degrees = adjacency_csr(self.graph.neighbors)
        self._flat = flat
        #: Segment starts for ``reduceat`` over the *sentinel-padded*
        #: distance buffer (it ends in one pad element).  A
        #: zero-degree node's offset equals its successor's — clipping it
        #: into range (the old scheme) would also truncate the *previous*
        #: node's segment end whenever trailing nodes are isolated, which
        #: time-varying substrates produce routinely; padding keeps every
        #: offset valid without moving any segment boundary.
        self._offsets = offsets
        self._degrees = degrees
        self._has_neighbors = degrees > 0
        edges = flat.size
        # Work buffer with one trailing sentinel pad, set once here:
        # ``inf`` never wins a minimum.
        self._neighbor_sq = np.empty(edges + 1, dtype=np.float64)
        self._neighbor_sq[edges] = np.inf
        #: :meth:`walk`'s padded tables, built from this snapshot on
        #: first use.
        self._tables: "tuple[np.ndarray, ...] | None" = None

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
            column = self._node_ints[self._build_column(target_node)].tolist()
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

    def route_to_position(
        self,
        source: int,
        target: np.ndarray,
        counter: TransmissionCounter | None = None,
        category: str = "route",
    ) -> RouteResult:
        """:meth:`GreedyRouter.route_to_position`, uncached: a location
        target has no next-hop column to memoize."""
        return self.router.route_to_position(source, target, counter, category)

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

    def walk(self, sources, targets, paths: bool = False) -> Walk:
        """Route ``sources[i]`` → ``targets[i]`` for every ``i`` at once.

        Equal, route by route, to :meth:`route_to_node`: the same hops,
        destinations and (with ``paths=True``) paths; a route was
        delivered iff its destination is its target.  It charges no
        counter and emits no event, so the caller accounts for the
        routes, and it builds no column: all routes of a chunk of at
        most :data:`WALK_CHUNK` move one hop per step.  At each step a
        route's neighbours' squared distances to its target are
        ``(x_v - x_t)² + (y_v - y_t)²``, the elementwise IEEE operations
        :meth:`_build_column` applies, on coordinate rows gathered with
        ``np.take`` and shifted by the target in place; ``argmin`` takes
        the first minimal neighbour in adjacency order, and the route
        moves only if that minimum is strictly below its own distance
        (which is the minimum it moved on, so it is computed once).
        Padding slots hold a sentinel node at ``inf``, which never wins.
        A route ends the step it reaches its target, and a route from a
        node to itself before the first step: at distance 0 no neighbour
        is strictly closer, so the rule would end it one step later at
        the same node.  A coincident sensor is also at distance 0 but is
        not the target, so a route that reaches one ends there,
        undelivered, as :meth:`route_to_node` does.
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
            degrees = self._degrees
            width = max(int(degrees.max()) if n else 0, 1)
            rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
            slots = np.arange(self._flat.size, dtype=np.int64)
            slots -= np.repeat(self._offsets, degrees)
            positions = self.router._positions
            x = np.ascontiguousarray(positions[:, 0], dtype=np.float64)
            y = np.ascontiguousarray(positions[:, 1], dtype=np.float64)
            neighbors = np.full((n, width), n, dtype=np.int64)
            neighbors[rows, slots] = self._flat
            neighbor_x = np.full((n, width), np.inf)
            neighbor_x[rows, slots] = x[self._flat]
            neighbor_y = np.full((n, width), np.inf)
            neighbor_y[rows, slots] = y[self._flat]
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
            self._columns[target_node] = self._node_ints[array].tolist()
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

        Five O(edges) passes — gather the neighbours' distances, take the
        segment minima, spread them back over the edges, compare, collect
        the minimal slots — then one binary search per node picks its
        segment's first minimal slot.
        """
        positions = self.router._positions
        diff = positions - positions[target_node]
        dist_sq = diff[:, 0] ** 2 + diff[:, 1] ** 2
        edges = self._flat.size
        if edges == 0:
            return self._nodes.copy()
        # The sentinel pad keeps every offset (including those of empty
        # trailing segments, which equal the edge count) a valid reduceat
        # index; padded slots only ever land in zero-degree segments,
        # which ``_has_neighbors`` masks out below.  ``mode="clip"`` lets
        # ``take`` write straight into ``out`` (indices are in range).
        neighbor_sq = self._neighbor_sq
        np.take(dist_sq, self._flat, out=neighbor_sq[:edges], mode="clip")
        segment_min = np.minimum.reduceat(neighbor_sq, self._offsets)
        # First slot attaining its segment's minimum == np.argmin: the
        # minimal slots in flat order, then the first at or after each
        # segment start (clipped for the empty trailing segments).
        edge_min = np.repeat(segment_min, self._degrees)
        hits = np.flatnonzero(neighbor_sq[:edges] == edge_min)
        first_hit = np.searchsorted(hits, self._offsets)
        np.minimum(first_hit, hits.size - 1, out=first_hit)
        best_neighbor = self._flat[hits[first_hit]]
        progress = self._has_neighbors & (segment_min < dist_sq)
        return np.where(progress, best_neighbor, self._nodes)
