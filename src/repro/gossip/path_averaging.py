"""Randomized path averaging (Bénézit, Dimakis, Thiran, Vetterli 2008).

The order-optimal endpoint of the routed-gossip lineage this repository
reproduces (arXiv:0802.2587, "Order-optimal consensus through randomized
path averaging").  Geographic gossip routes Õ(√n) hops per exchange but
averages only the two endpoints; path averaging keeps the same routed
walk and averages the value over *every node the route visits*, so one
routed operation mixes Θ(√n) values instead of 2.  That single change
drops the transmission cost on ``G(n, r)`` from Õ(n^1.5) to the optimal
Õ(n) — the benchmark E9-PA measures the separation directly against
:class:`~repro.gossip.geographic.GeographicGossip`.

Execution model per clock tick of the owner ``u``:

1. ``u`` draws a target (a uniform random node, or the greedy sink of a
   uniform random position — the same two modes geographic gossip has);
2. the packet walks the greedy route towards the target, accumulating
   the running sum of the values it passes (one transmission per hop);
3. the final average is flashed back along the reverse path (one more
   transmission per hop), and every node on the route adopts it.

The per-hop cost is therefore ``2 · hops`` per completed operation —
identical in shape to geographic gossip's round trip, so the measured
cost separation is purely the protocol's doing, never the accounting's.

In ``"uniform"`` mode a routing void (greedy local minimum before the
target) aborts the operation with no update, conserving the global sum;
the forward hops already walked are still charged, exactly as in
:class:`~repro.gossip.geographic.GeographicGossip`.  In ``"position"``
mode the greedy sink *is* the delivery rule, so every operation
completes.

A quick sanity check — the global sum is invariant under ticks:

>>> import numpy as np
>>> from repro.graphs.rgg import RandomGeometricGraph
>>> from repro.routing.cost import TransmissionCounter
>>> rng = np.random.default_rng(7)
>>> graph = RandomGeometricGraph.sample_connected(32, rng, radius_constant=3.0)
>>> protocol = PathAveragingGossip(graph)
>>> values = rng.normal(size=32)
>>> before = values.sum()
>>> counter = TransmissionCounter()
>>> for node in range(10):
...     protocol.tick(node, values, counter, rng)
>>> bool(abs(values.sum() - before) < 1e-9)
True
"""

from __future__ import annotations

import numpy as np

from repro.gossip.base import (
    AsynchronousGossip,
    DrawStream,
    LegacyDrawStream,
    draw_pairs,
)
from repro.graphs.rgg import RandomGeometricGraph
from repro.observability import events as _events
from repro.routing.cache import CachedGreedyRouter
from repro.routing.cost import TransmissionCounter
from repro.routing.greedy import RouteResult

__all__ = ["PathAveragingGossip"]

_TARGET_MODES = ("uniform", "position")


class PathAveragingGossip(AsynchronousGossip):
    """Greedy-routed averaging over every node of the route.

    Parameters
    ----------
    graph:
        The positioned graph to run on (any :data:`repro.graphs.generators.TOPOLOGIES`
        member; greedy delivery is only guaranteed on the geometric families).
    target_mode:
        ``"uniform"`` — route to an oracle-uniform random node (aborts on
        a routing void); ``"position"`` — route greedily towards a uniform
        random location and average over the walk to its greedy sink
        (never aborts).

    Attributes
    ----------
    failed_exchanges:
        Number of ticks aborted at a routing void (``"uniform"`` mode) or
        severed by message loss on a dynamic substrate (any mode).
    flash_channel:
        Optional per-hop loss stream
        (:class:`~repro.dynamics.schedule.LossChannel`) applied to the
        reverse broadcast of the final average; ``None`` (the default)
        keeps the flash lossless.  Set by
        :class:`~repro.dynamics.overlay.DynamicGossip`, whose
        :class:`~repro.dynamics.overlay.LossyRouter` covers the forward
        walk — together the whole ``2 · hops`` transaction is subject to
        loss, and a loss anywhere aborts it with no update (the hops
        already attempted are charged under ``"route_lost"``).

    The route average handles (n, k) field matrices column by column
    (see :meth:`_average_route` for the reduction-order subtlety that
    keeps column 0 bit-identical to a scalar run).
    """

    name = "path-averaging"
    flash_channel = None

    def __init__(
        self,
        graph: RandomGeometricGraph,
        target_mode: str = "uniform",
    ):
        super().__init__(graph.n)
        if target_mode not in _TARGET_MODES:
            raise ValueError(
                f"unknown target mode {target_mode!r}; pick one of {_TARGET_MODES}"
            )
        self.graph = graph
        # Every stride routes through the exact memoized router (the
        # graph's shared one, if its owner attached one).
        self.router = CachedGreedyRouter.for_graph(graph)
        self.target_mode = target_mode
        self.failed_exchanges = 0

    def tick(
        self,
        node: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: np.random.Generator,
    ) -> None:
        """One path-averaging operation owned by ``node``, in place."""
        if self.target_mode == "uniform":
            target = int(rng.integers(self.n - 1))
            if target >= node:
                target += 1
            route = self.router.route_to_node(node, target, counter)
        else:
            route = self.router.route_to_position(node, rng.random(2), counter)
        self._apply_route(route, values, counter)

    def _walks_blocks(self) -> bool:
        """Whether the window and block hooks may batch: uniform targets
        over the plain memoized router with a lossless flash (position
        targets and a faulted cell's ``LossyRouter`` and
        :attr:`flash_channel` run the per-tick loop)."""
        return (
            self.target_mode == "uniform"
            and type(self.router) is CachedGreedyRouter
            and self.flash_channel is None
        )

    def tick_window(
        self,
        count: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        draws: LegacyDrawStream | np.random.Generator,
    ) -> None:
        """A stride-1 window: one decode of its draws, one batched walk.

        Equal, bit for bit, to the base loop running :meth:`tick` per
        tick: each tick draws its owner ``integers(n)`` and its target
        index ``integers(n - 1)``, decoded for the whole window by
        :func:`~repro.gossip.base.draw_pairs`; the routes then run
        through :meth:`_average_walks`.
        """
        if not self._walks_blocks():
            super().tick_window(count, values, counter, draws)
            return
        owners, picks = draw_pairs(draws, count, self.n, [self.n - 1] * self.n)
        owners = np.array(owners, dtype=np.int64)
        targets = np.array(picks, dtype=np.int64)
        targets += targets >= owners
        self._average_walks(owners, targets, values, counter)

    def tick_block(
        self,
        owners: np.ndarray,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: DrawStream,
    ) -> None:
        """Batched ticks: one draw per owner, one batched walk per block.

        Equal, bit for bit, to the base loop running :meth:`tick` per
        owner on the same :class:`~repro.gossip.base.DrawStream`: each
        owner takes the next double ``u`` and targets ``int(u · (n −
        1))``, shifted past itself; the routes then run through
        :meth:`_average_walks`.
        """
        if not self._walks_blocks():
            super().tick_block(owners, values, counter, rng)
            return
        targets = (rng.random(len(owners)) * (self.n - 1)).astype(np.int64)
        targets += targets >= owners
        self._average_walks(owners, targets, values, counter)

    def _average_walks(
        self,
        owners: np.ndarray,
        targets: np.ndarray,
        values: np.ndarray,
        counter: TransmissionCounter,
    ) -> None:
        """Run ``owners[i]``'s operation towards ``targets[i]``, in order.

        The routes are walked at once by
        :meth:`~repro.routing.cache.CachedGreedyRouter.walk` with their
        paths, their forward hops are charged (and emitted) as one sum,
        and each route is then averaged or aborted in tick order, as
        :meth:`tick` does.
        """
        walk = self.router.walk(owners, targets, paths=True)
        hops = int(walk.hops.sum())
        if hops:
            counter.charge(hops, "route")
            recorder = _events.active()
            if recorder is not None:
                recorder.emit({"e": "route", "hops": hops, "cat": "route"})
        delivered = (walk.destinations == targets).tolist()
        for path, reached in zip(walk.paths, delivered):
            self._apply_route(
                RouteResult(path=tuple(path), delivered=reached), values, counter
            )

    def tick_budget(self, epsilon: float) -> int:
        """Order-optimality budget: O(n log(1/ε)) operations, 40x slack.

        One operation mixes a whole Θ(√n)-node route, so convergence is
        at least as fast (in ticks) as geographic gossip's complete-graph
        emulation; the same generous budget applies.
        """
        log_term = 1 + abs(np.log(max(epsilon, 1e-12)))
        return int(40 * self.n * log_term) + 10_000

    def _average_route(
        self,
        path: tuple[int, ...],
        hops: int,
        values: np.ndarray,
        counter: TransmissionCounter,
    ) -> None:
        """Average ``values`` over ``path`` and charge the return flash.

        The forward hops were charged by the routing call; the reverse
        broadcast of the final average charges the same hop count again
        (category ``route``, mirroring the round-trip accounting of the
        endpoint-averaging protocols).  Greedy paths visit strictly
        closer nodes each hop, so ``path`` never repeats a node and the
        in-place mean conserves the sum up to float rounding.

        With a :attr:`flash_channel` the reverse broadcast itself can be
        severed: the transaction is all-or-nothing (a partial flash would
        leak mass), so a loss at any flash hop charges the transmissions
        attempted under ``"route_lost"`` and aborts with no update.

        Multi-field state averages column by column.  The reduction must
        *not* be ``values[nodes].mean(axis=0)``: NumPy accumulates
        strided axis-0 reductions in a different order than contiguous
        1-D reductions, which would break the column-0 bit-identity
        contract.  Transposing to a contiguous ``(k, hops+1)`` block
        makes each column's mean the exact kernel the scalar path runs.
        """
        if hops < 1:
            return
        recorder = _events.active()
        if self.flash_channel is not None:
            delivered, attempted = self.flash_channel.attempt(hops)
            if not delivered:
                counter.charge(attempted, "route_lost")
                self.failed_exchanges += 1
                if recorder is not None:
                    recorder.emit(
                        {"e": "drop", "tx": attempted, "cat": "route_lost"}
                    )
                    recorder.emit({"e": "abort"})
                return
        counter.charge(hops, "route")
        nodes = np.asarray(path, dtype=np.int64)
        if recorder is not None:
            # "flash" is the reverse-broadcast hop count charged above;
            # the forward hops were emitted by the routing layer.
            recorder.emit({"e": "path", "nodes": list(path), "flash": hops})
        block = values[nodes]
        if block.ndim == 1:
            values[nodes] = block.mean()
        else:
            values[nodes] = np.ascontiguousarray(block.T).mean(axis=1)

    def _apply_route(
        self, route: RouteResult, values: np.ndarray, counter: TransmissionCounter
    ) -> None:
        """Average over a delivered route; abort with no update otherwise.

        An undelivered route is a routing void (``"uniform"`` mode) or a
        walk a lossy substrate severed in flight; the packet's running
        sum never completed, so skipping the update conserves the sum.
        """
        if route.delivered:
            self._average_route(route.path, route.hops, values, counter)
            return
        self.failed_exchanges += 1
        recorder = _events.active()
        if recorder is not None:
            recorder.emit({"e": "abort"})
