"""Spatial gossip (Kempe–Kleinberg–Demers) as an extra baseline.

The paper's related work ([7]: "Spatial gossip and resource location
protocols", STOC 2001) interpolates between nearest-neighbour and
uniform-target gossip: a node at position ``u`` picks its exchange
partner ``v`` with probability proportional to ``1/dist(u, v)^ρ``.

* ``ρ`` large  → mostly local partners (randomized-gossip-like mixing,
  cheap exchanges);
* ``ρ → 0``    → nearly uniform partners (geographic-gossip-like mixing,
  expensive routed exchanges).

The paper's §1.1 observes that "simply altering the probability
distribution with which a node picks targets seems to be
counterproductive" — long-range exchanges pay for themselves only at the
uniform extreme.  This implementation makes that observation measurable:
experiment E15 sweeps ρ and shows the cost is minimised at the uniform
end (ρ ≈ 0), never in between — the motivation for the paper's entirely
different (hierarchy + affine) route to beating ``Õ(n^1.5)``.

Exchanges are routed greedily and averaged convexly, with the same
delivery/abort semantics as :class:`~repro.gossip.geographic.GeographicGossip`.
"""

from __future__ import annotations

import numpy as np

from repro.gossip.base import AsynchronousGossip, DrawStream, LegacyDrawStream
from repro.gossip.geographic import round_trip_block
from repro.graphs.rgg import RandomGeometricGraph
from repro.observability import events as _events
from repro.routing.cache import CachedGreedyRouter
from repro.routing.cost import TransmissionCounter

__all__ = ["SpatialGossip"]


class SpatialGossip(AsynchronousGossip):
    """Distance-biased routed gossip: ``P(partner v) ∝ dist(u, v)^{-rho}``.

    Parameters
    ----------
    graph:
        The geometric random graph.
    rho:
        Distance-bias exponent; 0 recovers uniform targets, large values
        approach nearest-neighbour gossip.

    Endpoint averaging is pure row arithmetic; target CDFs depend only on
    positions, so (n, k) field matrices mix on the scalar run's routes.

    The CDFs are one ``(n, n)`` table, row ``u`` holding node ``u``'s
    cumulative target distribution.  :meth:`tick` finds its target with
    ``np.searchsorted`` on its own row; :meth:`tick_window` and
    :meth:`tick_block` find a whole window's or block's targets in one
    batched lower-bound search over the flattened table
    (:meth:`_search_targets`), with the same ``side="left"`` answers.
    """

    name = "spatial"

    #: Rows one block of the CDF table build covers; the build's one
    #: work array has this many rows by ``n``.
    TABLE_BLOCK = 64

    def __init__(self, graph: RandomGeometricGraph, rho: float = 2.0):
        super().__init__(graph.n)
        if rho < 0:
            raise ValueError(f"rho must be non-negative, got {rho}")
        self.graph = graph
        self.rho = rho
        # Every stride routes through the exact memoized router (the
        # graph's shared one, if its owner attached one).
        self.router = CachedGreedyRouter.for_graph(graph)
        self.failed_exchanges = 0
        self._cumulative = self._target_cdfs()

    def _target_cdfs(self) -> np.ndarray:
        """Per-node cumulative target distributions over all other nodes,
        one ``(n, n)`` row per node.

        Row ``u`` is ``cumsum(w / w.sum())`` with ``w[v] =
        max(hypot(x[v] - x[u], y[v] - y[u]), 1e-9) ** -rho`` and
        ``w[u] = 0``; a row whose sum is not finite and positive (a
        coincident sensor at a steep ρ weighs ``inf``) falls back to
        uniform over the other nodes.  The table is built in blocks of
        :attr:`TABLE_BLOCK` rows, top to bottom, each in two steps:

        1. *Weights, once per pair.*  Block ``[i0, i1)`` computes its
           upper band, columns ``i0:``, in its own rows, and copies the
           band's transpose into rows ``i1:`` of columns ``i0:i1``.
           That transpose is exact: entry ``(v, u)`` would compute
           ``hypot(-a, -b)`` from the ``a, b`` of entry ``(u, v)``
           (IEEE subtraction is odd), which is ``hypot(a, b)``, and the
           floor and power are elementwise.  So each pair's ``hypot``
           and power run once, on half the table.
        2. *Normalise.*  The earlier blocks' transposes filled the
           block's columns ``:i0``, so its rows are complete: it zeroes
           their diagonal, takes their sums, applies the uniform
           fallback, divides into a work array and accumulates that back
           into the rows, each row on its own as the per-row loop did.

        Every value goes through the same IEEE operations as a per-row
        loop, so the table is the same bit for bit.  Beside the table
        the build holds one ``TABLE_BLOCK × n`` work array.

        O(n²) memory; spatial gossip is a study baseline used at moderate
        n (the library's scaling experiments use the paper's algorithms).
        """
        n, rho, size = self.n, self.rho, self.TABLE_BLOCK
        x = np.ascontiguousarray(self.graph.positions[:, 0], dtype=np.float64)
        y = np.ascontiguousarray(self.graph.positions[:, 1], dtype=np.float64)
        cdfs = np.empty((n, n), dtype=np.float64)
        # The band's y differences, then the block's row shares.
        work = np.empty(min(size, n) * n, dtype=np.float64)
        for i0 in range(0, n, size):
            i1 = min(i0 + size, n)
            band = cdfs[i0:i1, i0:]
            dy = work[: band.size].reshape(band.shape)
            np.subtract(x[i0:], x[i0:i1, None], out=band)
            np.subtract(y[i0:], y[i0:i1, None], out=dy)
            np.hypot(band, dy, out=band)
            # Coincident sensors would get infinite weight; clamp to a tiny
            # floor so they are simply "very likely", not a division hazard.
            np.maximum(band, 1e-9, out=band)
            with np.errstate(over="ignore"):
                band **= -rho
            cdfs[i1:, i0:i1] = band[:, i1 - i0 :].T

            block = cdfs[i0:i1]
            rows = np.arange(i1 - i0)
            block[rows, rows + i0] = 0.0  # never pick yourself
            with np.errstate(over="ignore"):
                totals = block.sum(axis=1)
            fallback = np.flatnonzero(~np.isfinite(totals) | (totals <= 0))
            if fallback.size:
                block[fallback] = 1.0
                block[fallback, fallback + i0] = 0.0
                totals[fallback] = n - 1
            shares = work[: block.size].reshape(block.shape)
            np.divide(block, totals[:, None], out=shares)
            np.cumsum(shares, axis=1, out=block)
        return cdfs

    def _search_targets(
        self, owners: np.ndarray, picks: np.ndarray
    ) -> np.ndarray:
        """``self._cumulative[owners[i]].searchsorted(picks[i])`` for every
        ``i`` at once.

        A lower-bound binary search over the flattened table: each pass
        gathers one probe per owner and keeps the lower half when the
        probe is below the pick, so a row's answer is its first entry
        ``>= pick`` (``side="left"``), or ``n`` if none is.  A row is
        non-decreasing (its weights are non-negative), so that entry is
        the one ``searchsorted`` finds.  The probe interval halves each
        pass: ⌈log₂ n⌉ passes, then one last comparison.
        """
        flat = self._cumulative.reshape(-1)
        rows = np.asarray(owners, dtype=np.int64) * self.n
        base = rows.copy()
        length = self.n
        while length > 1:
            half = length // 2
            probe = base + half
            np.copyto(base, probe, where=np.take(flat, probe) < picks)
            length -= half
        base += np.take(flat, base) < picks
        base -= rows
        return base

    def tick(
        self,
        node: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: np.random.Generator,
    ) -> None:
        target = int(np.searchsorted(self._cumulative[node], rng.random()))
        target = min(target, self.n - 1)
        if target == node:
            return
        forward, backward = self.router.round_trip(node, target, counter)
        recorder = _events.active()
        if not (forward.delivered and backward.delivered):
            self.failed_exchanges += 1
            if recorder is not None:
                recorder.emit({"e": "abort"})
            return
        average = 0.5 * (values[node] + values[target])
        values[node] = average
        values[target] = average
        if recorder is not None:
            # Routed cost already emitted at the router layer (no "cat").
            recorder.emit(
                {"e": "pairs", "op": "avg", "pairs": [[node, target]]}
            )

    def tick_window(
        self,
        count: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        draws: LegacyDrawStream | np.random.Generator,
    ) -> None:
        """A stride-1 window: its draws in tick order, one batched walk.

        Equal, bit for bit, to the base loop running :meth:`tick` per
        tick: each tick draws its owner ``integers(n)`` and then its
        double ``random()``, read here for the whole window before the
        exchanges run as in :meth:`tick_block`.  A router other than the
        plain memoized one (a faulted cell's ``LossyRouter``) runs the
        base loop.
        """
        if type(self.router) is not CachedGreedyRouter:
            super().tick_window(count, values, counter, draws)
            return
        integers, random, n = draws.integers, draws.random, self.n
        owners: list[int] = []
        picks: list[float] = []
        for _ in range(count):
            owners.append(integers(n))
            picks.append(random())
        self._exchange(
            np.array(owners, dtype=np.int64), np.array(picks), values, counter
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
        owner takes the next double, and the block's exchanges run
        through :meth:`_exchange`.  A router other than the plain
        memoized one (a faulted cell's ``LossyRouter``) runs the
        per-tick loop.
        """
        if type(self.router) is not CachedGreedyRouter:
            super().tick_block(owners, values, counter, rng)
            return
        self._exchange(owners, rng.random(len(owners)), values, counter)

    def _exchange(
        self,
        owners: np.ndarray,
        picks: np.ndarray,
        values: np.ndarray,
        counter: TransmissionCounter,
    ) -> None:
        """Run ``owners[i]``'s tick on its double ``picks[i]``, in order.

        Each owner finds its target in its own CDF by :meth:`tick`'s
        ``searchsorted`` rule, for all owners in one batched search
        (:meth:`_search_targets`); owners that drew themselves skip
        their exchange, and the rest run through
        :func:`~repro.gossip.geographic.round_trip_block`.
        """
        targets = self._search_targets(owners, picks)
        np.minimum(targets, self.n - 1, out=targets)
        routed = targets != owners
        self.failed_exchanges += round_trip_block(
            self.router, owners[routed], targets[routed], values, counter
        )

    def tick_budget(self, epsilon: float) -> int:
        # Between randomized (n²) and geographic (n); allow the worst.
        log_term = 1 + abs(np.log(max(epsilon, 1e-12)))
        return int(30 * self.n * self.n * log_term / max(np.log(self.n), 1.0)) + 10_000
