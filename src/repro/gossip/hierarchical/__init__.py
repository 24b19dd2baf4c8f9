"""The paper's hierarchical affine-combination protocol.

One executor: :class:`~repro.gossip.hierarchical.rounds.HierarchicalGossip`
runs the protocol round by round with the Section 3 semantics (a square's
round = activate children, exchange + re-average repeatedly, deactivate).
It is deterministic in structure, charges every transmission by category
(`Near`, `Far` routing, activation floods and routes) and reports per-depth
execution counts in :class:`~repro.gossip.hierarchical.rounds.RoundStats`.

Parameter schedules (the paper's ε_r/δ_r/time(·) and the practical
variants) live in :mod:`~repro.gossip.hierarchical.parameters`.
"""

from repro.gossip.hierarchical.parameters import (
    AccuracySchedule,
    ProtocolParameters,
    latency_schedule,
)
from repro.gossip.hierarchical.rounds import (
    CoefficientMode,
    HierarchicalGossip,
    RoundConfig,
    RoundStats,
)

__all__ = [
    "AccuracySchedule",
    "CoefficientMode",
    "HierarchicalGossip",
    "ProtocolParameters",
    "RoundConfig",
    "RoundStats",
    "latency_schedule",
]
