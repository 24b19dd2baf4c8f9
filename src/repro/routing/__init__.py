"""Packet-level communication primitives.

Three mechanisms from the paper and its predecessor (Dimakis et al. 2006):

* **Greedy geographic routing** (:mod:`repro.routing.greedy`): forward a
  packet hop by hop to the neighbour nearest the target location.  Used by
  geographic gossip and by every `Far` exchange / high-level activation in
  the hierarchical protocol.
* **Flooding** (:mod:`repro.routing.flooding`): broadcast within a node
  subset; used by `Activate.square` / `Deactivate.square` at Level 1.
* **Rejection sampling** (:mod:`repro.routing.rejection`): turn "nearest
  node to a uniform location" (biased by Voronoi cell areas) into a nearly
  uniform distribution over nodes.

Greedy routing additionally has an exact fast form
(:mod:`repro.routing.cache`): every routed protocol walks its windows
and blocks of routes in one batch, and serves single routes from a
``(source, target)`` memo of the plain router's routes, at every check
stride, with identical results.

All primitives charge their cost to a shared
:class:`~repro.routing.cost.TransmissionCounter`.
"""

from repro.routing.cache import CachedGreedyRouter
from repro.routing.cost import TransmissionCounter
from repro.routing.flooding import flood
from repro.routing.greedy import GreedyRouter, RouteResult
from repro.routing.rejection import RejectionSampler, voronoi_cell_areas

__all__ = [
    "CachedGreedyRouter",
    "GreedyRouter",
    "RejectionSampler",
    "RouteResult",
    "TransmissionCounter",
    "flood",
    "voronoi_cell_areas",
]
