"""Randomized gossip (Boyd, Ghosh, Prabhakar, Shah — INFOCOM 2005).

The baseline the paper's Section 1.1 describes: "when the clock of a sensor
s ticks, s sends its value x_s to a sensor v chosen uniformly at random
from its neighbors, and receives the value x_v of v.  Thereafter s and v
set their values to (x_s+x_v)/2."  Cost per exchange: 2 transmissions.

On a geometric random graph at the connectivity radius the number of
transmissions to ε-average is ``Θ(n · T_mix) = Õ(n²)`` — the slow baseline
of experiment E7, and the subject of the mixing-time link in E12.
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
from repro.graphs.rgg import adjacency_csr
from repro.observability import events as _events
from repro.routing.cost import TransmissionCounter

__all__ = ["RandomizedGossip"]


class RandomizedGossip(AsynchronousGossip):
    """Nearest-neighbour convex pairwise averaging.

    Parameters
    ----------
    neighbors:
        Per-node adjacency arrays (a
        :class:`~repro.graphs.rgg.RandomGeometricGraph`'s ``neighbors``, or
        any topology from :mod:`repro.graphs.generators`).

    Attributes
    ----------
    failed_exchanges:
        Exchanges severed by message loss (only on a dynamic substrate).
    loss_channel:
        Optional per-hop loss stream
        (:class:`~repro.dynamics.schedule.LossChannel`): each exchange is
        a send plus a reply, and a loss on either transmission aborts the
        exchange with no update, charging the transmissions attempted
        under ``"near_lost"``.  ``None`` (the default) is lossless.  Set
        by :class:`~repro.dynamics.overlay.DynamicGossip`.

    Pairwise averaging is pure row arithmetic: ``values[i]`` reads a
    scalar or a length-k row, and the convex average broadcasts over the
    row, so every column of an (n, k) field matrix mixes identically.
    """

    name = "randomized"
    loss_channel = None

    def __init__(self, neighbors: list[np.ndarray]):
        super().__init__(len(neighbors))
        self.neighbors = neighbors
        self.failed_exchanges = 0
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._lists: tuple[list[list[int]], list[int]] | None = None

    def tick(
        self,
        node: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: np.random.Generator,
    ) -> None:
        adjacency = self.neighbors[node]
        if adjacency.size == 0:
            return  # isolated node: its tick is wasted (cannot occur w.h.p.)
        partner = int(adjacency[rng.integers(adjacency.size)])
        if not self._exchange_survives(counter):
            return
        average = 0.5 * (values[node] + values[partner])
        values[node] = average
        values[partner] = average
        counter.charge(2, "near")
        recorder = _events.active()
        if recorder is not None:
            recorder.emit(
                {"e": "pairs", "op": "avg", "cat": "near", "pairs": [[node, partner]]}
            )

    def _exchange_survives(self, counter: TransmissionCounter) -> bool:
        """Subject one send+reply exchange to the loss channel, if any.

        A lost transmission aborts the exchange before any update: the
        attempted sends are charged under ``"near_lost"`` and the values
        stay untouched, conserving the sum.  Without a channel this is a
        no-op returning ``True`` (the historical lossless path, bit for
        bit).
        """
        if self.loss_channel is None:
            return True
        delivered, attempted = self.loss_channel.attempt(2)
        if delivered:
            return True
        counter.charge(attempted, "near_lost")
        self.failed_exchanges += 1
        recorder = _events.active()
        if recorder is not None:
            recorder.emit({"e": "drop", "tx": attempted, "cat": "near_lost"})
            recorder.emit({"e": "abort"})
        return False

    def tick_window(
        self,
        count: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        draws: LegacyDrawStream | np.random.Generator,
    ) -> None:
        """A stride-1 window: one decode of its draws, averages on floats.

        Equal, bit for bit, to the base loop running :meth:`tick` per
        tick: :func:`~repro.gossip.base.draw_pairs` serves each tick's
        owner and its neighbour index, with no draw (and no exchange)
        for an isolated owner.  Partners come from a list snapshot of
        ``neighbors`` taken on first use, under the same rule as
        :meth:`tick_block`'s CSR snapshot.  A :attr:`loss_channel` runs
        the per-tick loop.  The window's pairs are averaged in tick order
        by :func:`~repro.gossip.pairs.apply_pair_averages` (scalar state
        on Python floats, ``(n, k)`` state in levels of disjoint pairs).
        """
        if self.loss_channel is not None:
            super().tick_window(count, values, counter, draws)
            return
        if self._lists is None:
            rows = [adjacency.tolist() for adjacency in self.neighbors]
            self._lists = rows, [len(row) for row in rows]
        rows, degrees = self._lists
        owners, picks = draw_pairs(draws, count, self.n, degrees)
        if -1 in picks:  # isolated owners drew nothing and exchange nothing
            owners = [i for i, j in zip(owners, picks) if j >= 0]
            picks = [j for j in picks if j >= 0]
        partners = [rows[i][j] for i, j in zip(owners, picks)]
        if not owners:
            return
        apply_pair_averages(values, owners, partners)
        counter.charge(2 * len(owners), "near")
        recorder = _events.active()
        if recorder is not None:
            recorder.emit(
                {
                    "e": "pairs",
                    "op": "avg",
                    "cat": "near",
                    "pairs": [[i, v] for i, v in zip(owners, partners)],
                }
            )

    def tick_block(
        self,
        owners: np.ndarray,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: DrawStream,
    ) -> None:
        """Batched ticks: one draw and one averaging kernel per block.

        Equal, bit for bit, to the base loop running :meth:`tick` per
        owner on the same :class:`~repro.gossip.base.DrawStream`: each
        owner with neighbours takes the next double ``u`` and picks
        ``adjacency[int(u · degree)]``, exactly what ``rng.integers``
        serves :meth:`tick`; an isolated owner's tick is wasted before it
        draws.  Partners come from a CSR snapshot of ``neighbors`` taken
        on first use, so ``neighbors`` must not change afterwards
        (:class:`~repro.dynamics.overlay.DynamicGossip`, whose masked
        adjacency does, drives :meth:`tick` only).  A
        :attr:`loss_channel` runs the per-tick loop.

        The averages run through
        :func:`~repro.gossip.pairs.apply_pair_averages`, which applies the
        block in tick order: scalar state on Python floats, ``(n, k)``
        state in levels of disjoint pairs.
        """
        if self.loss_channel is not None:
            super().tick_block(owners, values, counter, rng)
            return
        if self._csr is None:
            self._csr = adjacency_csr(self.neighbors)
        flat, offsets, degrees = self._csr
        owner_degrees = degrees[owners]
        if not owner_degrees.all():
            # An isolated owner's tick is wasted before it draws.
            live = owner_degrees > 0
            owners, owner_degrees = owners[live], owner_degrees[live]
        picks = rng.random(len(owners))
        partners = flat[offsets[owners] + (picks * owner_degrees).astype(np.int64)]
        if not len(owners):
            return
        apply_pair_averages(values, owners, partners)
        counter.charge(2 * len(owners), "near")
        recorder = _events.active()
        if recorder is not None:
            recorder.emit(
                {
                    "e": "pairs",
                    "op": "avg",
                    "cat": "near",
                    "pairs": np.column_stack((owners, partners)),
                }
            )

    def tick_budget(self, epsilon: float) -> int:
        # T_ave = Θ(n²/log n · log(1/ε)) ticks on an RGG; allow 20x headroom.
        n = self.n
        log_term = 1 + abs(np.log(max(epsilon, 1e-12)))
        return int(20 * n * n / max(np.log(n), 1.0) * log_term) + 10_000
