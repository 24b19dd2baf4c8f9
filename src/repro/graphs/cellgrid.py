"""Spatial hash grid (cell lists) for neighbour queries in the unit square.

Building ``G(n, r)`` naively costs O(n²).  A grid of cells with side ≥ r
restricts candidate neighbours of a point to its own cell and the eight
surrounding cells, giving expected O(1) candidates per query when
``r = Θ(sqrt(log n / n))`` — the paper's regime — and hence an O(n · log n)
overall graph build (each cell holds O(log n) points in expectation).
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.squares import GridPartition, Square, UNIT_SQUARE

__all__ = ["CellGrid"]


class CellGrid:
    """Cell-list index over a fixed set of points.

    Parameters
    ----------
    points:
        ``(n, 2)`` array of positions inside ``region``.
    cell_side:
        Desired cell side length.  The actual side is ``region.side / k``
        for the largest integer ``k`` with ``region.side / k >= cell_side``,
        so that cells exactly tile the region and any two points within
        ``cell_side`` of each other are in the same or adjacent cells.
    region:
        The square being indexed; defaults to the unit square.
    """

    def __init__(
        self,
        points: np.ndarray,
        cell_side: float,
        region: Square = UNIT_SQUARE,
    ):
        if cell_side <= 0:
            raise ValueError(f"cell side must be positive, got {cell_side}")
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {self.points.shape}")
        self.region = region
        k = max(1, int(math.floor(region.side / cell_side)))
        # More cells than ~4x the point count buys nothing and (for tiny
        # radii) would explode memory; larger cells remain correct for
        # `within` queries because the cell side only grows.
        cap = max(1, 2 * int(math.ceil(math.sqrt(len(points) + 1))))
        k = min(k, cap)
        self.partition = GridPartition(region, k)
        cell_of_point = self.partition.cell_indices(self.points)
        self._order = np.argsort(cell_of_point, kind="stable")
        self._bounds = np.searchsorted(
            cell_of_point[self._order], np.arange(k * k + 1)
        )
        self._members: list[np.ndarray] = [
            self._order[start:stop]
            for start, stop in zip(self._bounds[:-1], self._bounds[1:])
        ]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def k(self) -> int:
        """Grid resolution (cells per axis)."""
        return self.partition.k

    def bucketed(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, bounds)``: point indices sorted by cell (stably), and
        each cell ``c``'s slice ``order[bounds[c] : bounds[c + 1]]``."""
        return self._order, self._bounds

    def cell_members(self, cell_index: int) -> np.ndarray:
        """Indices of points whose position falls in cell ``cell_index``."""
        return self._members[cell_index]

    def candidate_neighbors(self, point: np.ndarray) -> np.ndarray:
        """Point indices in the cell of ``point`` and the 8 adjacent cells."""
        cell = self.partition.cell_index(point)
        blocks = [self._members[cell]]
        blocks.extend(
            self._members[adjacent]
            for adjacent in self.partition.neighbors_of_cell(cell)
        )
        return np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)

    def within(self, point: np.ndarray, radius: float) -> np.ndarray:
        """Indices of all points within ``radius`` of ``point``.

        ``radius`` must not exceed the cell side, otherwise candidates could
        be missed; a :class:`ValueError` guards against silent wrong answers.
        """
        if radius > self.partition.cell_side * (1 + 1e-12):
            raise ValueError(
                f"query radius {radius} exceeds cell side "
                f"{self.partition.cell_side}; rebuild the grid with larger cells"
            )
        candidates = self.candidate_neighbors(point)
        if candidates.size == 0:
            return candidates
        diff = self.points[candidates] - np.asarray(point, dtype=np.float64)
        close = (diff[:, 0] ** 2 + diff[:, 1] ** 2) <= radius * radius
        return candidates[close]

    def nearest(self, point: np.ndarray) -> int:
        """Index of the point nearest to ``point`` (global, any distance).

        Searches outward ring by ring from the cell containing ``point``;
        terminates once a ring lies entirely farther than the best match.
        """
        if len(self.points) == 0:
            raise ValueError("cell grid holds no points")
        target = np.asarray(point, dtype=np.float64)
        k = self.partition.k
        row, col = self.partition.row_col(self.partition.cell_index(target))
        best_index = -1
        best_sq = math.inf
        for ring in range(k + 1):
            # Once the nearest possible point of this ring is farther than
            # the best match found, no later ring can improve it.
            ring_min = (ring - 1) * self.partition.cell_side
            if best_index >= 0 and ring_min > 0 and ring_min**2 > best_sq:
                break
            for cell in self._ring_cells(row, col, ring):
                members = self._members[cell]
                if members.size == 0:
                    continue
                diff = self.points[members] - target
                sq = diff[:, 0] ** 2 + diff[:, 1] ** 2
                local = int(np.argmin(sq))
                if sq[local] < best_sq:
                    best_sq = float(sq[local])
                    best_index = int(members[local])
        return best_index

    def _ring_cells(self, row: int, col: int, ring: int) -> list[int]:
        k = self.partition.k
        if ring == 0:
            return [row * k + col] if 0 <= row < k and 0 <= col < k else []
        cells = []
        for r in range(row - ring, row + ring + 1):
            for c in range(col - ring, col + ring + 1):
                on_ring = max(abs(r - row), abs(c - col)) == ring
                if on_ring and 0 <= r < k and 0 <= c < k:
                    cells.append(r * k + c)
        return cells
