"""Geometric random graphs ``G(n, r)``.

The paper's model (Section 2): ``n`` points i.i.d. uniform on the unit
square, an edge between any two points within Euclidean distance ``r``, and
the standard connectivity scaling ``r(n) = Θ(sqrt(log n / n))`` (Gupta–Kumar).

:class:`RandomGeometricGraph` stores positions, a radius, and per-node
neighbour arrays, and is the substrate object every algorithm in the library
operates on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.points import random_points
from repro.graphs.cellgrid import CellGrid

__all__ = ["RandomGeometricGraph", "adjacency_csr", "connectivity_radius"]


def connectivity_radius(n: int, constant: float = 2.0) -> float:
    """The paper's connectivity radius ``sqrt(constant · log n / n)``.

    Gupta–Kumar: ``r = Ω(sqrt(log n / n))`` suffices for connectivity with
    probability ``1 − n^{−Θ(1)}``.  ``constant = 2`` is a comfortable margin
    used throughout the experiments (the threshold is at constant 1/π for
    the disc model; for the unit square with this parameterisation any
    constant > 1 works w.h.p.).
    """
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n}")
    if constant <= 0:
        raise ValueError(f"radius constant must be positive, got {constant}")
    return math.sqrt(constant * math.log(n) / n)


def adjacency_csr(
    neighbors: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node neighbour arrays as ``(flat, offsets, degrees)`` int64 arrays.

    Node ``u``'s neighbours are ``flat[offsets[u] : offsets[u] +
    degrees[u]]``, in their adjacency order.  An isolated node's offset
    equals its successor's (the edge count, for trailing ones).
    """
    degrees = np.array([adj.size for adj in neighbors], dtype=np.int64)
    offsets = np.zeros(len(neighbors), dtype=np.int64)
    np.cumsum(degrees[:-1], out=offsets[1:])
    flat = (
        np.concatenate(neighbors).astype(np.int64, copy=False)
        if degrees.sum()
        else np.empty(0, dtype=np.int64)
    )
    return flat, offsets, degrees


@dataclass
class RandomGeometricGraph:
    """A geometric random graph over the unit square.

    Attributes
    ----------
    positions:
        ``(n, 2)`` node coordinates.
    radius:
        Connectivity radius; nodes within this Euclidean distance are
        adjacent.
    neighbors:
        ``neighbors[i]`` is a sorted integer array of the nodes adjacent to
        ``i`` (excluding ``i`` itself).
    grid:
        The :class:`~repro.graphs.cellgrid.CellGrid` used to build the graph;
        reused by greedy routing and rejection sampling.
    """

    positions: np.ndarray
    radius: float
    neighbors: list[np.ndarray] = field(repr=False)
    grid: CellGrid = field(repr=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, positions: np.ndarray, radius: float) -> "RandomGeometricGraph":
        """Build the graph for given ``positions`` and ``radius``."""
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(
                f"positions must have shape (n, 2), got {positions.shape}"
            )
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        grid = CellGrid(positions, cell_side=radius)
        neighbors = cls._neighbor_lists(positions, radius, grid)
        return cls(
            positions=positions, radius=radius, neighbors=neighbors, grid=grid
        )

    @classmethod
    def sample(
        cls,
        n: int,
        rng: np.random.Generator,
        radius: float | None = None,
        radius_constant: float = 2.0,
    ) -> "RandomGeometricGraph":
        """Sample node positions and build ``G(n, r)``.

        ``radius`` defaults to :func:`connectivity_radius` with
        ``radius_constant``.
        """
        if radius is None:
            radius = connectivity_radius(n, radius_constant)
        return cls.build(random_points(n, rng), radius)

    @classmethod
    def sample_connected(
        cls,
        n: int,
        rng: np.random.Generator,
        radius: float | None = None,
        radius_constant: float = 2.0,
        max_attempts: int = 50,
    ) -> "RandomGeometricGraph":
        """Sample until the graph is connected (fails after ``max_attempts``).

        At the paper's radius the first draw succeeds with overwhelming
        probability; the retry loop guards small-``n`` simulations, where a
        disconnected draw would make exact averaging impossible.
        """
        from repro.graphs.connectivity import is_connected

        for _ in range(max_attempts):
            graph = cls.sample(n, rng, radius=radius, radius_constant=radius_constant)
            if is_connected(graph.neighbors):
                return graph
        raise RuntimeError(
            f"no connected G({n}, r) found in {max_attempts} attempts; "
            "increase the radius constant"
        )

    @staticmethod
    def _neighbor_lists(
        positions: np.ndarray, radius: float, grid: CellGrid
    ) -> list[np.ndarray]:
        """Sorted neighbour arrays, built in whole-array passes.

        A pair of points within ``radius`` lies in one cell or in two
        adjacent ones, so pairing each cell with itself and its four
        forward neighbours (right, and the three above) visits every
        close pair exactly once.  Per neighbour offset, the candidate
        pairs of all cells are built as flat index arrays and tested with
        ``Δx**2 + Δy**2 <= r²``; the edges, in both directions, are then
        sorted by one key.
        """
        n = len(positions)
        if n == 0:
            return []
        order, bounds = grid.bucketed()
        k = grid.k
        cell = np.repeat(np.arange(k * k), np.diff(bounds))  # per sorted slot
        row, col = np.divmod(cell, k)
        slot = np.arange(n)
        lefts, rights = [], []
        for d_row, d_col in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
            if d_row == d_col == 0:
                # Within a cell: each slot with every later slot.
                low, high = slot + 1, bounds[cell + 1]
            else:
                other_row, other_col = row + d_row, col + d_col
                valid = (other_row < k) & (other_col >= 0) & (other_col < k)
                other = np.where(valid, other_row * k + other_col, 0)
                low = bounds[other]
                high = np.where(valid, bounds[other + 1], low)
            counts = high - low
            # Slot s pairs with slots low[s] .. high[s] - 1.
            starts = np.cumsum(counts) - counts
            left = order[np.repeat(slot, counts)]
            right = order[
                np.repeat(low - starts, counts) + np.arange(int(counts.sum()))
            ]
            diff = positions[left] - positions[right]
            close = (diff[:, 0] ** 2 + diff[:, 1] ** 2) <= radius * radius
            lefts.append(left[close])
            rights.append(right[close])
        left, right = np.concatenate(lefts), np.concatenate(rights)
        keys = np.sort(np.concatenate((left * n + right, right * n + left)))
        heads = np.cumsum(np.bincount(keys // n, minlength=n))[:-1]
        return np.split(keys % n, heads)

    # -- queries -----------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.positions)

    def degree(self, node: int) -> int:
        return len(self.neighbors[node])

    def degrees(self) -> np.ndarray:
        """All node degrees as an integer array."""
        return np.array([len(adj) for adj in self.neighbors], dtype=np.int64)

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return int(self.degrees().sum()) // 2

    def are_adjacent(self, u: int, v: int) -> bool:
        return bool(np.isin(v, self.neighbors[u], assume_unique=True))

    def nearest_node(self, point: np.ndarray) -> int:
        """The node nearest to an arbitrary ``point`` of the unit square.

        This is the primitive geographic gossip uses to resolve a random
        target *location* to a target *node*.
        """
        return self.grid.nearest(point)

    def isolated_nodes(self) -> np.ndarray:
        """Nodes with no neighbours (nonempty only below the threshold radius)."""
        return np.nonzero(self.degrees() == 0)[0]

    def to_networkx(self):
        """Export to a :mod:`networkx` graph (cross-validation in tests)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for i, adj in enumerate(self.neighbors):
            g.add_edges_from((i, int(j)) for j in adj if j > i)
        return g
