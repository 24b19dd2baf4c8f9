"""Geographic gossip (Dimakis, Sarwate, Wainwright — IPSN 2006).

The stronger baseline the paper improves on (Section 1.1): "each node
exchanges its value with the node nearest to a position chosen randomly on
□, and both nodes replace their values by the average ...  Rejection
sampling is used to make the distribution roughly uniform on nodes.  The
routing takes Õ(√n) hops w.h.p., but since the mixing time on the complete
graph is O(1), one obtains an algorithm using Õ(n^1.5) transmissions."

Target selection modes:

* ``"uniform"`` — oracle-uniform random node: what rejection sampling
  achieves, without its constant-factor overhead.  Default for scaling
  experiments.
* ``"rejection"`` — full rejection sampling; every rejected proposal costs
  a routed round trip to the proposed node (category ``route_rejected``).
* ``"position"`` — raw nearest-node-to-random-position (Voronoi-biased);
  the ablation showing why rejection matters.

An exchange applies updates only if both routes deliver, so the global sum
is conserved even in the (vanishingly rare) presence of routing voids.

In ``"uniform"`` mode the block hooks route a whole window or block of
exchanges at once through :meth:`CachedGreedyRouter.walk
<repro.routing.cache.CachedGreedyRouter.walk>` (:func:`round_trip_block`),
bit for bit equal to the per-tick loop; the other modes run that loop.
"""

from __future__ import annotations

import numpy as np

from repro.gossip.base import (
    AsynchronousGossip,
    DrawStream,
    LegacyDrawStream,
    draw_pairs,
)
from repro.gossip.pairs import apply_pair_averages
from repro.graphs.rgg import RandomGeometricGraph
from repro.observability import events as _events
from repro.routing.cache import CachedGreedyRouter
from repro.routing.cost import TransmissionCounter
from repro.routing.rejection import RejectionSampler

__all__ = ["GeographicGossip", "round_trip_block"]

_TARGET_MODES = ("uniform", "rejection", "position")


def round_trip_block(
    router: CachedGreedyRouter,
    owners: np.ndarray,
    targets: np.ndarray,
    values: np.ndarray,
    counter: TransmissionCounter,
) -> int:
    """Run exchange ``owners[i]`` ⇄ ``targets[i]`` for each ``i`` in tick
    order, as ``tick`` runs one; returns the number aborted.

    Each exchange is a round trip: the forward route, then the return
    route from wherever it ended, both walked for the whole block at
    once by :meth:`~repro.routing.cache.CachedGreedyRouter.walk`.  Both
    legs' hops are charged under ``"route"`` whether or not they
    deliver, and an exchange updates its pair only if both legs
    deliver; the delivered pairs are averaged in tick order by
    :func:`~repro.gossip.pairs.apply_pair_averages`.  The ledger and the
    values equal the per-tick loop's bit for bit.  Under a recorder the
    block emits one ``route`` event for its summed hops, one ``abort``
    per aborted exchange and one ``pairs`` event, which replay to the
    same counts and values as the per-tick events.
    """
    forward = router.walk(owners, targets)
    backward = router.walk(forward.destinations, owners)
    hops = int(forward.hops.sum()) + int(backward.hops.sum())
    recorder = _events.active()
    if hops:
        counter.charge(hops, "route")
        if recorder is not None:
            recorder.emit({"e": "route", "hops": hops, "cat": "route"})
    delivered = (forward.destinations == targets) & (
        backward.destinations == owners
    )
    failed = len(owners) - int(np.count_nonzero(delivered))
    if failed:
        owners, targets = owners[delivered], targets[delivered]
        if recorder is not None:
            for _ in range(failed):
                recorder.emit({"e": "abort"})
    if len(owners):
        apply_pair_averages(values, owners, targets)
        if recorder is not None:
            recorder.emit(
                {
                    "e": "pairs",
                    "op": "avg",
                    "pairs": np.column_stack((owners, targets)),
                }
            )
    return failed


class GeographicGossip(AsynchronousGossip):
    """Routed pairwise averaging with (nearly) uniform random targets.

    Parameters
    ----------
    graph:
        The geometric random graph to run on.
    target_mode:
        One of ``"uniform"``, ``"rejection"``, ``"position"`` (see module
        docstring).
    reference_quantile:
        Rejection-sampler tuning (only used in ``"rejection"`` mode).

    Endpoint averaging is pure row arithmetic (see
    :class:`~repro.gossip.randomized.RandomizedGossip`); routing and
    target selection never read the values, so an (n, k) field matrix
    rides the identical routes the scalar run takes.
    """

    name = "geographic"

    def __init__(
        self,
        graph: RandomGeometricGraph,
        target_mode: str = "uniform",
        reference_quantile: float = 0.5,
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
        self.sampler = (
            RejectionSampler(graph.positions, reference_quantile)
            if target_mode == "rejection"
            else None
        )
        self.failed_exchanges = 0

    def tick(
        self,
        node: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: np.random.Generator,
    ) -> None:
        target = self._choose_target(node, values, counter, rng)
        if target is None or target == node:
            return
        forward, backward = self.router.round_trip(node, target, counter)
        recorder = _events.active()
        if not (forward.delivered and backward.delivered):
            # A routing void: abort with no update so the sum is conserved.
            self.failed_exchanges += 1
            if recorder is not None:
                recorder.emit({"e": "abort"})
            return
        average = 0.5 * (values[node] + values[target])
        values[node] = average
        values[target] = average
        if recorder is not None:
            # No "cat": the routed cost was charged (and emitted) at the
            # router layer; this event carries only the value update.
            recorder.emit(
                {"e": "pairs", "op": "avg", "pairs": [[node, target]]}
            )

    def _walks_blocks(self) -> bool:
        """Whether the block hooks may batch: uniform targets over the
        plain memoized router (a faulted cell's ``LossyRouter`` and the
        other target modes run the per-tick loop)."""
        return (
            self.target_mode == "uniform"
            and type(self.router) is CachedGreedyRouter
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
        :func:`~repro.gossip.base.draw_pairs`; the exchanges then run
        through :func:`round_trip_block`.
        """
        if not self._walks_blocks():
            super().tick_window(count, values, counter, draws)
            return
        owners, picks = draw_pairs(draws, count, self.n, [self.n - 1] * self.n)
        owners = np.array(owners, dtype=np.int64)
        targets = np.array(picks, dtype=np.int64)
        targets += targets >= owners
        self.failed_exchanges += round_trip_block(
            self.router, owners, targets, values, counter
        )

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
        1))``, shifted past itself, exactly what ``rng.integers``
        serves :meth:`tick`; the exchanges run through
        :func:`round_trip_block`.
        """
        if not self._walks_blocks():
            super().tick_block(owners, values, counter, rng)
            return
        targets = (rng.random(len(owners)) * (self.n - 1)).astype(np.int64)
        targets += targets >= owners
        self.failed_exchanges += round_trip_block(
            self.router, owners, targets, values, counter
        )

    def tick_budget(self, epsilon: float) -> int:
        # O(n log(1/ε)) exchanges suffice (complete-graph mixing); 40x slack.
        log_term = 1 + abs(np.log(max(epsilon, 1e-12)))
        return int(40 * self.n * log_term) + 10_000

    # -- target selection ---------------------------------------------------

    def _choose_target(
        self,
        node: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: np.random.Generator,
    ) -> int | None:
        if self.target_mode == "uniform":
            target = int(rng.integers(self.n - 1))
            return target + 1 if target >= node else target
        if self.target_mode == "position":
            return self.graph.nearest_node(rng.random(2))
        return self._rejection_target(node, counter, rng)

    def _rejection_target(
        self,
        node: int,
        counter: TransmissionCounter,
        rng: np.random.Generator,
    ) -> int | None:
        """Propose-and-reject; each rejected proposal costs a round trip."""
        assert self.sampler is not None
        max_attempts = 50  # expected_proposals() is small; this is a backstop
        for _ in range(max_attempts):
            proposal = self.sampler.propose(rng)
            accepted = rng.random() < self.sampler._accept[proposal]
            if accepted:
                return proposal
            if proposal != node:
                forward, backward = self.router.round_trip(
                    node, proposal, counter, category="route_rejected"
                )
                if not (forward.delivered and backward.delivered):
                    self.failed_exchanges += 1
                    recorder = _events.active()
                    if recorder is not None:
                        recorder.emit({"e": "abort"})
                    return None
        return None
