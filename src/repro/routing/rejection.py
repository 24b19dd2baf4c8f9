"""Rejection sampling for near-uniform node targeting.

Geographic gossip picks a uniformly random *location* and routes to the
nearest node.  The induced node distribution is proportional to Voronoi
cell areas, not uniform; Dimakis et al. fix this with rejection sampling
("Rejection sampling is used to make the distribution roughly uniform on
nodes", paper Section 1.1).

:class:`RejectionSampler` implements the area-based scheme: a proposed node
``v`` (hit with probability ``area(v)``) is accepted with probability
``min(1, a_ref / area(v))``, giving acceptance mass ``min(area(v), a_ref)``
— uniform across all nodes whose cell area is at least ``a_ref``.  The
reference area ``a_ref`` trades uniformity (E13 measures total-variation
distance) against overhead (expected number of proposals, each costing a
routed round trip in the real protocol).
"""

from __future__ import annotations

import numpy as np

__all__ = ["voronoi_cell_areas", "RejectionSampler"]


def voronoi_cell_areas(positions: np.ndarray, resolution: int = 256) -> np.ndarray:
    """Estimate each node's Voronoi cell area within the unit square.

    A ``resolution × resolution`` grid of sample points is assigned to its
    nearest node; the returned fractions sum to 1.  Accuracy is O(1/resolution)
    per linear dimension, ample for sampling and for E13's statistics.
    """
    # Imported here: only rejection targeting and E13 need SciPy, so the
    # CLI does not load it at start-up.
    from scipy.spatial import cKDTree

    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    axis = (np.arange(resolution) + 0.5) / resolution
    gx, gy = np.meshgrid(axis, axis)
    samples = np.column_stack([gx.ravel(), gy.ravel()])
    _, owner = cKDTree(positions).query(samples, k=1)
    counts = np.bincount(owner, minlength=len(positions))
    return counts / counts.sum()


class RejectionSampler:
    """Draw target nodes nearly uniformly via propose-and-reject.

    Parameters
    ----------
    positions:
        Node coordinates, shape ``(n, 2)``.
    reference_quantile:
        ``a_ref`` is this quantile of the cell-area distribution.  Nodes
        with areas ≥ ``a_ref`` are all hit with equal probability; nodes
        with smaller cells keep their (already small) proposal probability.
        Lower quantiles mean better uniformity but more rejections.
    resolution:
        Grid resolution for the area estimate.
    """

    def __init__(
        self,
        positions: np.ndarray,
        reference_quantile: float = 0.5,
        resolution: int = 256,
    ):
        from scipy.spatial import cKDTree

        if not 0.0 < reference_quantile <= 1.0:
            raise ValueError(
                f"reference quantile must be in (0, 1], got {reference_quantile}"
            )
        self.positions = np.asarray(positions, dtype=np.float64)
        self.areas = voronoi_cell_areas(self.positions, resolution)
        self.reference_area = float(np.quantile(self.areas, reference_quantile))
        if self.reference_area <= 0:
            # Degenerate geometry (duplicate points): fall back to the mean.
            self.reference_area = float(self.areas.mean())
        self._tree = cKDTree(self.positions)
        self._accept = np.minimum(1.0, self.reference_area / np.maximum(self.areas, 1e-300))
        # Nodes with zero estimated area can never be proposed anyway.
        self._accept[self.areas == 0.0] = 1.0

    @property
    def n(self) -> int:
        return len(self.positions)

    def propose(self, rng: np.random.Generator) -> int:
        """One proposal: nearest node to a uniform random location."""
        _, node = self._tree.query(rng.random(2), k=1)
        return int(node)

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        """Draw an accepted target node.

        Returns
        -------
        (node, proposals):
            The accepted node and the number of proposals consumed
            (each proposal costs a routed probe in the deployed protocol;
            gossip simulations charge this overhead explicitly).
        """
        proposals = 0
        while True:
            proposals += 1
            node = self.propose(rng)
            if rng.random() < self._accept[node]:
                return node, proposals

    def target_distribution(self) -> np.ndarray:
        """Exact post-rejection node distribution (up to area-estimate error)."""
        mass = self.areas * self._accept
        return mass / mass.sum()

    def expected_proposals(self) -> float:
        """Expected number of proposals per accepted sample."""
        return float(1.0 / (self.areas * self._accept).sum())

    def total_variation_from_uniform(self) -> float:
        """TV distance between :meth:`target_distribution` and uniform."""
        target = self.target_distribution()
        uniform = np.full(self.n, 1.0 / self.n)
        return float(0.5 * np.abs(target - uniform).sum())
