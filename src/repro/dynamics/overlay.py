"""Time-varying substrates: masked graphs, lossy routing, dynamic runs.

Three pieces turn a static :class:`~repro.graphs.rgg.RandomGeometricGraph`
plus a :class:`~repro.dynamics.schedule.FaultSchedule` into a live
scenario any tick-driven protocol can run on unchanged:

* :class:`DynamicSubstrate` — a duck-typed graph wrapper that maintains
  the *current* adjacency view: crashed nodes and down links are masked
  out of the neighbour arrays (in place, so routers holding the list see
  every epoch transition), positions may jitter, and every registered
  :class:`~repro.routing.cache.CachedGreedyRouter` is invalidated exactly
  at the nodes whose adjacency changed.
* :class:`LossyRouter` — wraps a router with per-hop message loss from
  the schedule's :class:`~repro.dynamics.schedule.LossChannel`.  A lost
  transmission severs the route: the hops attempted are charged under
  ``"route_lost"`` and the result reports ``delivered=False``, which
  triggers the protocols' existing abort-without-update handling — the
  same mass-conservation contract as a routing void.
* :class:`DynamicGossip` — an :class:`~repro.gossip.base.AsynchronousGossip`
  wrapper that advances the substrate's epoch clock as ticks elapse,
  drops ticks owned by crashed nodes, and otherwise delegates to the
  wrapped protocol's ``tick``.  It preserves both engine contracts
  (stride-1 bit-identity, block-size invariance) because epoch
  boundaries are functions of the absolute tick index and all fault
  randomness lives on dedicated streams.

Conservation under dynamics: exchanges only ever touch live nodes (a
crashed node leaves every adjacency list, so no route enters it), crashed
nodes freeze their value and bring it back on recovery, and severed
transactions abort before any update — so the sum over *all* nodes is
invariant through churn, loss, and link failures, and the live-node sum
changes only by the frozen mass of currently-dead nodes (tested).

A disabled spec is a bit-exact pass-through:

>>> import numpy as np
>>> from repro.dynamics.schedule import FaultSpec
>>> from repro.gossip.randomized import RandomizedGossip
>>> from repro.graphs.rgg import RandomGeometricGraph
>>> graph = RandomGeometricGraph.sample_connected(
...     24, np.random.default_rng(3), radius_constant=3.0
... )
>>> substrate = DynamicSubstrate(graph, FaultSpec(), seed=1)
>>> dyn = DynamicGossip(RandomizedGossip(substrate.neighbors), substrate)
>>> values = np.random.default_rng(5).normal(size=24)
>>> lhs = dyn.run(values, 0.25, np.random.default_rng(7))
>>> rhs = RandomizedGossip(graph.neighbors).run(
...     values, 0.25, np.random.default_rng(7)
... )
>>> bool((lhs.values == rhs.values).all()) and lhs.ticks == rhs.ticks
True
"""

from __future__ import annotations

import math

import numpy as np

from repro.dynamics.schedule import FaultSchedule, FaultSpec, LossChannel
from repro.gossip.base import AsynchronousGossip
from repro.graphs.rgg import RandomGeometricGraph
from repro.metrics.error import deviation_norm, primary_field
from repro.observability import events as _events
from repro.routing.cache import CachedGreedyRouter
from repro.routing.cost import TransmissionCounter
from repro.routing.greedy import RouteResult

__all__ = [
    "DynamicGossip",
    "DynamicSubstrate",
    "LossyRouter",
    "live_node_error",
]


def live_node_error(
    values: np.ndarray, initial_values: np.ndarray, live: np.ndarray
) -> float:
    """Normalized deviation of the *live* nodes around their own mean.

    Under churn the meaningful convergence question is whether the
    surviving population agrees — crashed nodes hold stale frozen values
    that the global :func:`~repro.metrics.error.normalized_error` would
    charge against the run forever.  The denominator stays the full
    initial deviation (the paper's ``‖x(0)‖``) so the metric is
    comparable with the oracular error the engine records.

    ``(n, k)`` field matrices reduce to the primary field (column 0,
    like the engine's oracular error) rather than silently flattening a
    matrix into one norm across mixed columns.
    """
    live = np.asarray(live, dtype=bool)
    if not live.any():
        return 0.0
    initial = primary_field(np.asarray(initial_values, dtype=np.float64))
    initial_norm = deviation_norm(initial)
    if initial_norm == 0.0:
        return 0.0
    alive = primary_field(np.asarray(values, dtype=np.float64))[live]
    return deviation_norm(alive) / initial_norm


class DynamicSubstrate:
    """A time-varying view over a base graph, driven by a fault schedule.

    Duck-types the :class:`~repro.graphs.rgg.RandomGeometricGraph`
    surface the protocols consume (``n``, ``positions``, ``radius``,
    ``neighbors``, ``nearest_node``), so protocol factories accept it in
    place of the graph.  The masked ``neighbors`` list is updated *in
    place* at epoch boundaries; anything holding the list (routers, the
    randomized protocol) sees the current topology without re-wiring.

    Parameters
    ----------
    base:
        The pristine substrate; never mutated.
    spec_or_schedule:
        A :class:`FaultSpec` (a schedule is derived with ``seed``) or a
        ready :class:`FaultSchedule`.
    seed:
        Schedule seed when a spec is given; ignored for a schedule.
    """

    def __init__(
        self,
        base: RandomGeometricGraph,
        spec_or_schedule: FaultSpec | FaultSchedule,
        seed: int = 0,
    ):
        if isinstance(spec_or_schedule, FaultSchedule):
            schedule = spec_or_schedule
            if schedule.n != base.n:
                raise ValueError(
                    f"schedule sized for n={schedule.n} cannot drive a "
                    f"substrate of n={base.n}"
                )
        else:
            schedule = FaultSchedule(spec_or_schedule, base.n, seed)
        self.base = base
        self.schedule = schedule
        self.spec = schedule.spec
        #: The per-hop loss stream every lossy primitive of this run shares.
        self.channel: LossChannel = schedule.loss_channel()
        self.radius = base.radius
        self.positions = base.positions.copy()
        self._grid = base.grid
        #: Current adjacency of the *underlying* (fault-free) topology;
        #: replaced wholesale when jitter rebuilds the graph.
        self._base_neighbors: list[np.ndarray] = list(base.neighbors)
        #: The masked adjacency protocols and routers read.  Mutated in
        #: place (element assignment) so references stay live.
        self.neighbors: list[np.ndarray] = list(base.neighbors)
        self.live = np.ones(base.n, dtype=bool)
        self._epoch = 0
        self._caches: list[CachedGreedyRouter] = []
        self.crashes = 0
        self.recoveries = 0
        self._link_down_ids: np.ndarray | None = None
        self._rebuild_edge_index()

    # -- graph surface -------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes (live and crashed)."""
        return self.base.n

    @property
    def epoch(self) -> int:
        """The epoch the substrate currently sits in."""
        return self._epoch

    @property
    def live_count(self) -> int:
        """Number of currently live nodes."""
        return int(self.live.sum())

    def nearest_node(self, point: np.ndarray) -> int:
        """Nearest node to ``point`` (live or not — radios cannot know)."""
        return self._grid.nearest(point)

    def degree(self, node: int) -> int:
        """Current (masked) degree of ``node``."""
        return len(self.neighbors[node])

    # -- cache registration --------------------------------------------------

    def register_cache(self, cache: CachedGreedyRouter) -> None:
        """Invalidate ``cache`` whenever this substrate's adjacency changes.

        The cache must have been built over this substrate (its columns
        snapshot ``self.neighbors``); on every epoch transition it is
        patched at exactly the changed nodes, or dropped wholesale after
        a jitter rebuild.  Registration is idempotent per cache object:
        protocols built on a substrate that shares its cache
        (:meth:`CachedGreedyRouter.share`) all register that one cache,
        which must be invalidated once per epoch transition, not once per
        protocol.
        """
        if not any(known is cache for known in self._caches):
            self._caches.append(cache)

    # -- time ----------------------------------------------------------------

    def advance_to(self, tick: int) -> None:
        """Apply every epoch boundary at or before ``tick`` (idempotent)."""
        target = tick // self.spec.epoch_ticks
        while self._epoch < target:
            self._epoch += 1
            self._apply_epoch(self._epoch)

    def _apply_epoch(self, epoch: int) -> None:
        events = self.schedule.epoch_events(epoch)
        changed: set[int] = set()

        if events.jitter is not None:
            self._apply_jitter(events.jitter)
            changed = None  # everything moved; signal a full invalidation
        if events.crash.any() or events.recover.any():
            toggled, crashed, recovered = self._apply_churn(
                events.crash, events.recover
            )
            if changed is not None:
                changed.update(toggled)
            if crashed or recovered:
                recorder = _events.active()
                if recorder is not None:
                    recorder.emit(
                        {
                            "e": "epoch",
                            "epoch": epoch,
                            "tick": epoch * self.spec.epoch_ticks,
                            "crashed": crashed,
                            "recovered": recovered,
                        }
                    )
        # Link draws are sized by the *post-jitter* edge list — their
        # stream is separate from the node events precisely so this
        # ordering is safe (see FaultSchedule.link_events).
        link_changed = self._apply_links(
            self.schedule.link_events(epoch, len(self._edge_u))
        )
        if changed is not None:
            changed.update(link_changed)

        if changed is None:
            self._refresh_mask(None)
            for cache in self._caches:
                cache.invalidate(None)
        elif changed:
            # Adjacency arrays can survive a toggle untouched (e.g. a link
            # failing between two already-crashed nodes); only genuinely
            # changed rows need cache repair.
            actually_changed = self._refresh_mask(changed)
            if actually_changed:
                rows = sorted(actually_changed)
                for cache in self._caches:
                    cache.invalidate(rows)

    def _apply_jitter(self, jitter: np.ndarray) -> None:
        """Move every node and rebuild the base adjacency and grid."""
        moved = np.clip(self.positions + jitter, 0.0, 1.0)
        self.positions[:] = moved
        rebuilt = RandomGeometricGraph.build(self.positions.copy(), self.radius)
        self._base_neighbors = list(rebuilt.neighbors)
        self._grid = rebuilt.grid
        self._rebuild_edge_index()

    def _apply_churn(
        self, crash: np.ndarray, recover: np.ndarray
    ) -> tuple[set[int], list[int], list[int]]:
        """Toggle liveness.

        Returns ``(toggled, crashed, recovered)``: the nodes whose
        adjacency may have changed, plus the nodes that actually went
        down / came back this epoch (post live-floor clamping — the
        observable transitions, not the schedule's raw draws).
        """
        floor = math.ceil(self.spec.min_live_fraction * self.n)
        candidates = np.nonzero(self.live & crash)[0]
        headroom = self.live_count - floor
        if headroom < candidates.size:
            candidates = candidates[: max(headroom, 0)]
        recovering = np.nonzero(~self.live & recover)[0]
        toggled: set[int] = set()
        crashed: list[int] = []
        recovered: list[int] = []
        for node in candidates:
            self.live[node] = False
            self.crashes += 1
            crashed.append(int(node))
            toggled.add(int(node))
            toggled.update(int(v) for v in self._base_neighbors[node])
        for node in recovering:
            self.live[node] = True
            self.recoveries += 1
            recovered.append(int(node))
            toggled.add(int(node))
            toggled.update(int(v) for v in self._base_neighbors[node])
        return toggled, crashed, recovered

    def _apply_links(self, link_down: np.ndarray | None) -> set[int]:
        """Swap in this epoch's down-link set; returns affected endpoints."""
        affected: set[int] = set()
        if self._link_down_ids is not None:
            for edge in self._link_down_ids:
                affected.add(int(self._edge_u[edge]))
                affected.add(int(self._edge_v[edge]))
        if link_down is None or not link_down.any():
            self._link_down_ids = None
            self._link_down_mask = None
        else:
            self._link_down_ids = np.nonzero(link_down)[0]
            self._link_down_mask = link_down
            for edge in self._link_down_ids:
                affected.add(int(self._edge_u[edge]))
                affected.add(int(self._edge_v[edge]))
        return affected

    def _refresh_mask(self, nodes: set[int] | None) -> set[int] | None:
        """Recompute masked adjacency (for ``nodes``, or everywhere).

        Returns the set of nodes whose masked array actually changed, or
        ``None`` when the refresh was global.
        """
        targets = range(self.n) if nodes is None else sorted(nodes)
        changed: set[int] | None = None if nodes is None else set()
        for i in targets:
            new = self._masked_adjacency(i)
            if changed is not None and not np.array_equal(
                new, self.neighbors[i]
            ):
                changed.add(i)
            self.neighbors[i] = new
        return changed

    def _masked_adjacency(self, node: int) -> np.ndarray:
        if not self.live[node]:
            return _EMPTY_ADJACENCY
        adj = self._base_neighbors[node]
        if adj.size == 0:
            return adj
        keep = self.live[adj]
        if self._link_down_mask is not None:
            keep &= ~self._link_down_mask[self._edge_ids[node]]
        if keep.all():
            return adj
        return adj[keep]

    def _rebuild_edge_index(self) -> None:
        """Base edge list ``(u < v)`` plus per-node edge-id alignment."""
        edge_u: list[int] = []
        edge_v: list[int] = []
        edge_of: dict[tuple[int, int], int] = {}
        for i, adj in enumerate(self._base_neighbors):
            for j in adj:
                j = int(j)
                if j > i:
                    edge_of[(i, j)] = len(edge_u)
                    edge_u.append(i)
                    edge_v.append(j)
        self._edge_u = np.array(edge_u, dtype=np.int64)
        self._edge_v = np.array(edge_v, dtype=np.int64)
        self._edge_ids = [
            np.array(
                [edge_of[(min(i, int(j)), max(i, int(j)))] for j in adj],
                dtype=np.int64,
            )
            for i, adj in enumerate(self._base_neighbors)
        ]
        self._link_down_ids = None
        self._link_down_mask: np.ndarray | None = None


#: Shared empty adjacency for crashed nodes (never mutated).
_EMPTY_ADJACENCY = np.empty(0, dtype=np.int64)


class LossyRouter:
    """A router whose transmissions can be lost mid-route.

    Wraps any object with the :class:`~repro.routing.greedy.GreedyRouter`
    routing surface — in a :class:`DynamicGossip`, the protocol's
    memoized :class:`~repro.routing.cache.CachedGreedyRouter`, whose
    columns the substrate keeps current.  The wrapped
    router computes the intended path as usual; the
    :class:`~repro.dynamics.schedule.LossChannel` then decides the fate
    of each hop in order.  On a loss at transmission ``k`` the packet
    died between hops: ``k`` transmissions are charged under
    ``"route_lost"``, the returned path is truncated at the last node
    reached, and ``delivered`` is ``False`` — the protocols' existing
    void-abort handling conserves the sum.  With ``loss_prob == 0`` the
    wrapper charges and returns exactly what the wrapped router would
    (bit-identity, tested).
    """

    #: Category the severed hops of a lost route are charged under; the
    #: per-cell "wasted transmissions" metric reads this key.
    LOST_CATEGORY = "route_lost"

    def __init__(self, inner, channel: LossChannel):
        self.inner = inner
        self.channel = channel

    def route_to_node(
        self,
        source: int,
        target_node: int,
        counter: TransmissionCounter | None = None,
        category: str = "route",
    ) -> RouteResult:
        """Same contract as the wrapped router, plus loss truncation."""
        result, _ = self._route_node(source, target_node, counter, category)
        return result

    def route_to_position(
        self,
        source: int,
        target: np.ndarray,
        counter: TransmissionCounter | None = None,
        category: str = "route",
    ) -> RouteResult:
        """Position routing with loss; a severed walk is *not* delivered."""
        result = self.inner.route_to_position(source, target)
        delivered, _ = self._deliver(result, counter, category)
        return delivered

    def round_trip(
        self,
        source: int,
        target_node: int,
        counter: TransmissionCounter | None = None,
        category: str = "route",
    ) -> tuple[RouteResult, RouteResult]:
        """Out-and-back routing; a forward loss forfeits the reply leg.

        A forward *void* still routes the reply from the stop node (the
        historical semantics, preserved bit for bit at zero loss); a
        forward *loss* means the packet no longer exists, so the reply
        never launches and costs nothing.
        """
        forward, lost = self._route_node(source, target_node, counter, category)
        if lost:
            return forward, RouteResult(
                path=(forward.destination,), delivered=False
            )
        backward, _ = self._route_node(
            forward.destination, source, counter, category
        )
        return forward, backward

    def _route_node(
        self,
        source: int,
        target_node: int,
        counter: TransmissionCounter | None,
        category: str,
    ) -> tuple[RouteResult, bool]:
        result = self.inner.route_to_node(source, target_node)
        return self._deliver(result, counter, category)

    def _deliver(
        self,
        result: RouteResult,
        counter: TransmissionCounter | None,
        category: str,
    ) -> tuple[RouteResult, bool]:
        hops = result.hops
        delivered, attempted = self.channel.attempt(hops)
        if delivered:
            if counter is not None and hops:
                counter.charge(hops, category)
                recorder = _events.active()
                if recorder is not None:
                    recorder.emit({"e": "route", "hops": hops, "cat": category})
            return result, False
        if counter is not None and attempted:
            counter.charge(attempted, self.LOST_CATEGORY)
            recorder = _events.active()
            if recorder is not None:
                recorder.emit(
                    {"e": "drop", "tx": attempted, "cat": self.LOST_CATEGORY}
                )
        return (
            RouteResult(path=result.path[:attempted], delivered=False),
            True,
        )


class DynamicGossip(AsynchronousGossip):
    """Run any tick-driven protocol on a :class:`DynamicSubstrate`.

    The wrapper owns the run's notion of time: it counts ticks, applies
    the substrate's epoch transitions exactly at their boundaries, drops
    ticks owned by crashed nodes, and injects the substrate's loss
    channel into the protocol's router and loss hooks.  It has one tick
    path at every stride: at strides ``>= 2`` the engine's base loop runs
    :meth:`tick` per owner on the protocol's
    :class:`~repro.gossip.base.DrawStream`, and the epoch clock advances
    by absolute tick index, so results stay independent of the engine's
    block chunking.  The wrapped protocol's own ``tick_block`` (if any)
    is never called: its adjacency may change between any two ticks.
    The wrapped protocol must be built *over the substrate* (its router
    must read the masked adjacency), which is what
    :func:`repro.engine.executor.build_cell_algorithm` arranges.

    Round-based protocols (``batching_capability == "rounds"``, e.g. the
    hierarchical executor) have no tick loop to interleave with epoch
    boundaries and are rejected.

    Epoch masking and loss channels never read the values, so an
    ``(n, k)`` field matrix runs natively through the wrapper exactly as
    through the protocol it wraps: every column sees one fault timeline.

    Attributes
    ----------
    wasted_ticks:
        Clock ticks owned by crashed nodes (no action, no transmissions).
    """

    def __init__(self, inner: AsynchronousGossip, substrate: DynamicSubstrate):
        if not isinstance(inner, AsynchronousGossip):
            raise TypeError(
                f"{type(inner).__name__} is not tick-driven; fault dynamics "
                "only apply to AsynchronousGossip protocols (round-based "
                "protocols have no tick loop to interleave epochs with)"
            )
        if not getattr(inner, "supports_dynamics", True):
            raise TypeError(
                f"{type(inner).__name__} declares supports_dynamics=False "
                "(it has no radio model for faults to act on — e.g. the "
                "K_n affine comparator writes to arbitrary nodes, which "
                "would break the crashed-value freeze invariant)"
            )
        if inner.n != substrate.n:
            raise ValueError(
                f"protocol sized for n={inner.n} cannot run on a substrate "
                f"of n={substrate.n}"
            )
        super().__init__(inner.n)
        self.inner = inner
        self.substrate = substrate
        # The engine reports the inner protocol's name (aggregation and
        # stores key cells by algorithm name, not by wrapper).
        self.name = inner.name
        self.requires_centered_field = getattr(
            inner, "requires_centered_field", False
        )
        self.wasted_ticks = 0
        self._tick = 0
        channel = substrate.channel
        if hasattr(inner, "router"):
            substrate.register_cache(inner.router)
            inner.router = LossyRouter(inner.router, channel)
        # Single-hop / reverse-flash loss hooks (protocols that transmit
        # outside their router): see RandomizedGossip.loss_channel and
        # PathAveragingGossip.flash_channel.
        if hasattr(inner, "loss_channel"):
            inner.loss_channel = channel
        if hasattr(inner, "flash_channel"):
            inner.flash_channel = channel

    # -- protocol surface ----------------------------------------------------

    @property
    def ticks_elapsed(self) -> int:
        """Global clock ticks this wrapper has executed so far."""
        return self._tick

    @property
    def aborted_routes(self) -> int:
        """Operations aborted mid-transaction (voids plus severed routes)."""
        return int(getattr(self.inner, "failed_exchanges", 0))

    def tick(
        self,
        node: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: np.random.Generator,
    ) -> None:
        """One tick: advance epochs, then delegate unless the owner is dead."""
        self.substrate.advance_to(self._tick)
        self._tick += 1
        if not self.substrate.live[node]:
            self.wasted_ticks += 1
            recorder = _events.active()
            if recorder is not None:
                recorder.emit({"e": "dead", "ticks": 1})
            return
        self.inner.tick(node, values, counter, rng)

    def tick_budget(self, epsilon: float) -> int:
        """The wrapped budget, doubled when faults are live.

        Wasted ticks (dead owners) and aborted transactions slow
        convergence; doubling the inner protocol's already-generous
        budget keeps healthy faulted runs from hitting the cap while
        still terminating hopeless ones.
        """
        budget = self.inner.tick_budget(epsilon)
        return 2 * budget if self.spec_enabled else budget

    @property
    def spec_enabled(self) -> bool:
        """Whether the substrate's fault spec perturbs this run at all."""
        return self.substrate.spec.enabled

    def fault_metrics(
        self, values: np.ndarray, initial_values: np.ndarray
    ) -> dict[str, float]:
        """The per-cell fault observability payload the store persists."""
        substrate = self.substrate
        return {
            "aborted_routes": float(self.aborted_routes),
            "wasted_ticks": float(self.wasted_ticks),
            "lost_transmissions": float(substrate.channel.losses),
            "crashes": float(substrate.crashes),
            "recoveries": float(substrate.recoveries),
            "live_fraction": float(substrate.live.mean()),
            "live_node_error": live_node_error(
                values, initial_values, substrate.live
            ),
        }
