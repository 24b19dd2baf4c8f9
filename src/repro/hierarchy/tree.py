"""The built hierarchy: squares, members, supernodes, Levels.

:class:`HierarchyTree` materialises the paper's recursive partition for a
concrete sensor placement: every square at every depth with its member
sensors, expected occupancy ``E#``, and elected supernode ``s(□)`` (the
member nearest the square's centre).  Supernode Levels follow Section 4.1:
``s(□_{i₁…i_r})`` has Level ``ℓ − r``; ordinary sensors have Level 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.squares import GridPartition, Square, UNIT_SQUARE
from repro.graphs.rgg import adjacency_csr
from repro.hierarchy.addresses import SquareAddress
from repro.hierarchy.subdivision import practical_leaf_threshold, subdivision_factors

__all__ = ["SquareNode", "HierarchyTree"]


@dataclass
class SquareNode:
    """One square of the hierarchy.

    Attributes
    ----------
    address:
        Path of child indices from the root.
    square:
        The geometric region.
    members:
        Indices of sensors inside the square.
    expected_count:
        ``E#(□)`` — the expected number of sensors, ``n / ∏ factors`` along
        the path (the quantity the paper's affine coefficients use).
    supernode:
        Sensor elected as ``s(□)`` (member nearest the centre), or ``-1``
        for an empty square or one whose every member an enclosing square
        already claimed (neither occurs w.h.p. at paper parameters; both
        can at simulation scales, and the executor leaves such squares out
        of its exchange loops).
    children:
        Child squares, row-major; empty for leaves.
    """

    address: SquareAddress
    square: Square
    members: np.ndarray
    expected_count: float
    supernode: int = -1
    children: list["SquareNode"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return self.address.depth

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def occupancy(self) -> int:
        """Actual sensor count ``#(□)``."""
        return len(self.members)

    @property
    def occupancy_ratio(self) -> float:
        """``#(□) / E#(□)`` — concentrates near 1 by Chernoff (paper §3)."""
        return self.occupancy / self.expected_count

    def __repr__(self) -> str:  # keep reprs short for debugging sessions
        return (
            f"SquareNode({self.address}, members={self.occupancy}, "
            f"E#={self.expected_count:.1f}, s={self.supernode})"
        )


class HierarchyTree:
    """The full recursive partition for one sensor placement.

    Parameters
    ----------
    positions:
        ``(n, 2)`` sensor coordinates.
    factors:
        Per-depth subdivision factors (from
        :func:`~repro.hierarchy.subdivision.subdivision_factors`); each must
        be a perfect square (``k = sqrt(factor)`` cells per axis).
    """

    def __init__(self, positions: np.ndarray, factors: list[int]):
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
        for factor in factors:
            k = int(round(np.sqrt(factor)))
            if k * k != factor:
                raise ValueError(f"subdivision factor {factor} is not a square")
        self.positions = positions
        self.factors = list(factors)
        self.n = len(positions)
        self._claimed: set[int] = set()
        self.root = self._build(
            SquareAddress(), UNIT_SQUARE, np.arange(self.n), float(self.n), 0
        )
        self.levels = len(self.factors) + 1  # paper's ℓ = 1 + sup r
        self._node_level = self._assign_levels()
        self._by_address = {node.address: node for node in self.all_squares()}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        positions: np.ndarray,
        leaf_threshold: float | None = None,
    ) -> "HierarchyTree":
        """Build with factors derived from the subdivision rule.

        ``leaf_threshold`` defaults to the practical threshold; pass
        ``paper_leaf_threshold(n)`` for the literal rule (which yields a
        single-level hierarchy at simulable ``n``).
        """
        n = len(positions)
        if leaf_threshold is None:
            leaf_threshold = practical_leaf_threshold(n)
        return cls(positions, subdivision_factors(n, leaf_threshold))

    def _build(
        self,
        address: SquareAddress,
        square: Square,
        members: np.ndarray,
        expected: float,
        depth: int,
    ) -> SquareNode:
        node = SquareNode(
            address=address,
            square=square,
            members=members,
            expected_count=expected,
            supernode=self._elect_supernode(square, members),
        )
        if depth < len(self.factors):
            factor = self.factors[depth]
            k = int(round(np.sqrt(factor)))
            partition = GridPartition(square, k)
            assignment = (
                partition.cell_indices(self.positions[members])
                if members.size
                else np.empty(0, dtype=np.int64)
            )
            child_expected = expected / factor
            for cell in range(factor):
                child_members = members[assignment == cell]
                node.children.append(
                    self._build(
                        address.child(cell),
                        partition.cell(cell),
                        child_members,
                        child_expected,
                        depth + 1,
                    )
                )
        return node

    def _elect_supernode(self, square: Square, members: np.ndarray) -> int:
        """Member nearest the centre not already claimed by another square.

        The paper argues centres are well separated so claims never collide
        w.h.p.; the deterministic fallback (next-nearest member) keeps small
        simulations safe (each sensor represents at most one square).
        """
        if members.size == 0:
            return -1
        center = square.center
        diff = self.positions[members] - center
        order = np.argsort(diff[:, 0] ** 2 + diff[:, 1] ** 2, kind="stable")
        for position_in_order in order:
            candidate = int(members[position_in_order])
            if candidate not in self._claimed:
                self._claimed.add(candidate)
                return candidate
        return -1  # every member already claimed (tiny squares only)

    def _assign_levels(self) -> np.ndarray:
        level = np.zeros(self.n, dtype=np.int64)
        for node in self.all_squares():
            if node.supernode >= 0:
                level[node.supernode] = self.levels - node.depth
        return level

    # -- queries -----------------------------------------------------------

    def all_squares(self) -> list[SquareNode]:
        """Every square, BFS order (root first)."""
        out, frontier = [], [self.root]
        while frontier:
            out.extend(frontier)
            frontier = [c for node in frontier for c in node.children]
        return out

    def squares_at_depth(self, depth: int) -> list[SquareNode]:
        if not 0 <= depth <= len(self.factors):
            raise ValueError(
                f"depth {depth} out of range 0..{len(self.factors)}"
            )
        return [node for node in self.all_squares() if node.depth == depth]

    def leaves(self) -> list[SquareNode]:
        return [node for node in self.all_squares() if node.is_leaf]

    def node(self, address: SquareAddress) -> SquareNode:
        return self._by_address[address]

    def node_level(self, sensor: int) -> int:
        """The paper's Level of ``sensor`` (0 for ordinary sensors)."""
        return int(self._node_level[sensor])

    def supernodes(self) -> list[int]:
        """All sensors with Level ≥ 1."""
        return [int(i) for i in np.nonzero(self._node_level > 0)[0]]

    def local_adjacency(
        self,
        neighbors: list[np.ndarray],
        fallback: bool = True,
    ) -> list[np.ndarray]:
        """Per-sensor adjacency restricted to the sensor's leaf square.

        This realises the paper's `Near` rule ("an adjacent node v
        contained in □_{i₁…i_{ℓ−1}}").  In the paper's regime leaf squares
        are ``(log n)^{3.5}`` radii wide and internally connected w.h.p.;
        at simulation scale a leaf can be barely wider than ``r`` and a
        boundary sensor may have *no* same-leaf neighbour — a stranded
        sensor would never average and pins the global error.  With
        ``fallback=True`` such sensors escalate to
        neighbours within the nearest ancestor square that provides some,
        preserving the hierarchy's locality.
        """
        if len(neighbors) != self.n:
            raise ValueError(
                f"adjacency for {len(neighbors)} sensors, tree has {self.n}"
            )
        if not self.n:
            return []
        flat, offsets, degrees = adjacency_csr(neighbors)
        source = np.repeat(np.arange(self.n), degrees)
        # An edge's deepest common square: squares nest, so the depths at
        # which both ends share a square are 0 .. common.
        common = np.full(flat.size, -1, dtype=np.int64)
        for labels in self._square_labels():
            common += labels[source] == labels[flat]
        # Each sensor keeps its neighbours in the deepest square holding
        # any: its leaf, or with `fallback` the nearest ancestor that does.
        wanted = np.full(self.n, len(self.factors), dtype=np.int64)
        if fallback:
            linked = np.flatnonzero(degrees)
            wanted[linked] = np.maximum.reduceat(common, offsets[linked])
        keep = common >= wanted[source]
        heads = np.cumsum(np.bincount(source[keep], minlength=self.n))[:-1]
        return np.split(flat[keep], heads)

    def _square_labels(self) -> list[np.ndarray]:
        """Per depth, each sensor's square there (an index unique within
        the depth)."""
        labels = [np.empty(self.n, dtype=np.int64) for _ in range(self.levels)]
        for index, node in enumerate(self.all_squares()):
            labels[node.depth][node.members] = index
        return labels

    def occupancy_report(self) -> list[dict[str, float]]:
        """Per-depth occupancy statistics (drives experiments E6/E11)."""
        report = []
        for depth in range(len(self.factors) + 1):
            nodes = self.squares_at_depth(depth)
            counts = np.array([node.occupancy for node in nodes])
            expected = nodes[0].expected_count
            report.append(
                {
                    "depth": depth,
                    "squares": len(nodes),
                    "expected": expected,
                    "min": int(counts.min()),
                    "mean": float(counts.mean()),
                    "max": int(counts.max()),
                    "max_ratio_deviation": float(
                        np.abs(counts / expected - 1.0).max()
                    ),
                    "empty": int((counts == 0).sum()),
                }
            )
        return report
