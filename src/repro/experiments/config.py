"""Experiment configuration and the algorithm registry.

``ALGORITHMS`` maps the three contenders of the paper's story to factory
functions ``graph -> algorithm``; the registry keeps benchmark code free of
constructor details and makes "run all three on the same graph and field"
one loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.dynamics.schedule import FaultSpec
from repro.gossip.affine import AffineGossipKn, sample_alphas
from repro.gossip.geographic import GeographicGossip
from repro.gossip.hierarchical.rounds import HierarchicalGossip
from repro.gossip.path_averaging import PathAveragingGossip
from repro.gossip.randomized import RandomizedGossip
from repro.gossip.spatial import SpatialGossip
from repro.graphs.generators import TOPOLOGIES, topology_names
from repro.graphs.rgg import RandomGeometricGraph
from repro.workloads.fields import WORKLOADS

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_CLASSES",
    "fault_incompatible",
    "make_algorithm",
    "topology_incompatible",
    "multifield_support",
    "protocol_batching",
    "ExperimentConfig",
]


def _make_randomized(graph: RandomGeometricGraph):
    return RandomizedGossip(graph.neighbors)


def _make_geographic(graph: RandomGeometricGraph):
    return GeographicGossip(graph)


def _make_hierarchical(graph: RandomGeometricGraph):
    return HierarchicalGossip(graph)


def _make_spatial(graph: RandomGeometricGraph):
    return SpatialGossip(graph, rho=2.0)


def _make_path_averaging(graph: RandomGeometricGraph):
    return PathAveragingGossip(graph)


#: Fixed seed for the affine comparator's coefficients: the registry
#: factory has no RNG argument, so α_i are a deterministic function of n
#: (same coefficients for every trial of a size — a controlled comparator,
#: not a random one).
_AFFINE_ALPHA_SEED = 1859  # Lemma 1's (1/3, 1/2) interval, fixed draw


def _make_affine(graph: RandomGeometricGraph):
    alphas = sample_alphas(graph.n, np.random.default_rng(_AFFINE_ALPHA_SEED))
    return AffineGossipKn(graph.n, alphas=alphas)


#: The single registry row per protocol: implementing class + factory.
#: ALGORITHMS and ALGORITHM_CLASSES are both derived from this table so
#: they can never drift apart (a name in one is always in the other).
_REGISTRY: dict[str, tuple[type, Callable[[RandomGeometricGraph], object]]] = {
    "randomized": (RandomizedGossip, _make_randomized),
    "geographic": (GeographicGossip, _make_geographic),
    "hierarchical": (HierarchicalGossip, _make_hierarchical),
    "spatial": (SpatialGossip, _make_spatial),
    "path-averaging": (PathAveragingGossip, _make_path_averaging),
    "affine": (AffineGossipKn, _make_affine),
}

#: name → factory(graph); the paper's three contenders plus the related
#: work: spatial gossip (E15), randomized path averaging (E9-PA), and the
#: Lemma-1 affine dynamics on K_n as the idealised complete-graph
#: comparator (its exchanges ignore the graph and cost 2 transmissions).
ALGORITHMS: dict[str, Callable[[RandomGeometricGraph], object]] = {
    name: factory for name, (_, factory) in _REGISTRY.items()
}

#: name → implementing class, to classify each registered protocol
#: without building a graph instance.
ALGORITHM_CLASSES: dict[str, type] = {
    name: cls for name, (cls, _) in _REGISTRY.items()
}


def _registry_row(name: str) -> tuple[type, Callable]:
    """``name``'s (class, factory) registry row; unknown names raise."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def protocol_batching(algorithms: tuple[str, ...] | list[str]) -> dict[str, str]:
    """Engine batching capability for each named algorithm.

    Maps each name to ``"block"`` / ``"rounds"`` (see
    :func:`repro.engine.batching.batching_capability`).  The result store
    persists this map so a resumed ``check_stride > 1`` sweep can detect
    that a protocol's execution path changed between engine versions —
    cells from different paths carry non-identical numbers and must not
    be mixed.
    """
    from repro.engine.batching import batching_capability

    return {
        name: batching_capability(_registry_row(name)[0]) for name in algorithms
    }


def multifield_support(
    algorithms: tuple[str, ...] | list[str],
) -> dict[str, str]:
    """Multi-field execution capability for each named algorithm.

    Maps each name to ``"native"`` (one pass mixes all ``k`` columns of
    an ``(n, k)`` field matrix on shared routing/sampling) or
    ``"per-column"`` (the engine runs ``k`` serial scalar passes with a
    :class:`~repro.engine.batching.MultiFieldFallbackWarning`) — see
    :func:`repro.engine.batching.multifield_capability`.  Every
    tick-driven protocol in the registry is ``"native"``;
    ``hierarchical``, the one round-based protocol, is ``"per-column"``
    by design — its adaptive round structure is an oracle over one
    field, so each column runs its own adaptive execution.
    """
    from repro.engine.batching import multifield_capability

    return {
        name: multifield_capability(_registry_row(name)[0]) for name in algorithms
    }


def fault_incompatible(algorithms: tuple[str, ...] | list[str]) -> list[str]:
    """The subset of ``algorithms`` that cannot run under fault dynamics.

    Two reasons disqualify a protocol: it is round-based (no tick loop
    to interleave epoch boundaries with — ``hierarchical``), or it
    declares ``supports_dynamics = False`` (no radio model for faults to
    act on — the ``affine`` K_n comparator).  Config validation and the
    CLI both consult this one rule.
    """
    from repro.engine.batching import batching_capability

    out = []
    for name in algorithms:
        cls = _registry_row(name)[0]
        if batching_capability(cls) == "rounds" or not getattr(
            cls, "supports_dynamics", True
        ):
            out.append(name)
    return sorted(out)


#: Topologies whose edges ignore node positions, so greedy geographic
#: routes void on most hops (``docs/topologies.md``).
_GEOMETRY_FREE_TOPOLOGIES = frozenset({"erdos-renyi"})


def topology_incompatible(
    algorithms: tuple[str, ...] | list[str], topology: str
) -> list[str]:
    """The subset of ``algorithms`` that cannot finish on ``topology``.

    Round-based protocols (``hierarchical``) move mass between squares
    only over greedy routes, so on a geometry-free family almost every
    exchange voids and the capped rounds repeat without converging (a
    64-node Erdős–Rényi cell ran for minutes).  Tick-driven routed
    protocols abort a void route, count it and move on, so they still
    finish.  Config validation and ``repro run`` both consult this rule;
    ``algorithms`` must be registered names.
    """
    from repro.engine.batching import batching_capability

    if topology not in _GEOMETRY_FREE_TOPOLOGIES:
        return []
    return sorted(
        name
        for name in algorithms
        if batching_capability(_registry_row(name)[0]) == "rounds"
    )


def make_algorithm(name: str, graph: RandomGeometricGraph):
    """Instantiate a registered algorithm on ``graph``."""
    return _registry_row(name)[1](graph)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment knobs.

    Attributes
    ----------
    sizes:
        Network sizes for scaling sweeps.
    epsilon:
        Target normalized error (paper's ε); scaling claims are about the
        dependence on ``n`` at fixed ε.
    trials:
        Independent placements/fields per point.
    radius_constant:
        ``r = sqrt(radius_constant · log n / n)``.
    field:
        Workload name from :data:`repro.workloads.FIELD_GENERATORS`.
    root_seed:
        Root of all derived randomness.
    algorithms:
        Names from :data:`ALGORITHMS` to include.
    topology:
        Graph family from :data:`repro.graphs.generators.TOPOLOGIES`;
        every sweep cell builds its instance from this family.  The
        default ``"rgg"`` reproduces the historical flat-RGG sweeps (and
        their seed streams) bit for bit.
    faults:
        Fault regime for every sweep cell: a preset name from
        :data:`repro.dynamics.schedule.FAULT_PRESETS` or a spec string
        such as ``"churn=0.02,loss=0.05"`` (see
        :meth:`repro.dynamics.schedule.FaultSpec.parse`).  The default
        ``"none"`` runs the historical fault-free engine path bit for
        bit; anything else wraps each cell's protocol in a
        :class:`~repro.dynamics.overlay.DynamicGossip` over a
        :class:`~repro.dynamics.overlay.DynamicSubstrate` whose schedule
        seed derives from ``root_seed`` and the cell's ``(n, trial)`` —
        so every algorithm of a trial faces the *same* fault scenario.
        Round-based protocols (``hierarchical``) have no tick loop to
        interleave epochs with and are rejected under faults.
    fields:
        Number of stacked fields per sweep cell.  The default ``1`` runs
        the historical scalar engine path bit for bit; ``k > 1`` builds
        an ``(n, k)`` matrix via the ``workload`` builder and runs all
        columns through one gossip pass per cell (column 0 stays
        bit-identical to the ``fields=1`` cell on the same seeds).
    workload:
        Stacking scheme from :data:`repro.workloads.fields.WORKLOADS`
        (``ensemble`` / ``quantile`` / ``histogram``); only consulted
        when ``fields > 1``.
    """

    sizes: tuple[int, ...] = (128, 256, 512, 1024)
    epsilon: float = 0.25
    trials: int = 3
    radius_constant: float = 2.0
    field: str = "random"
    root_seed: int = 20070801  # PODC 2007
    algorithms: tuple[str, ...] = ("randomized", "geographic", "hierarchical")
    topology: str = "rgg"
    faults: str = "none"
    fields: int = 1
    workload: str = "ensemble"

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("need at least one network size")
        if any(n < 8 for n in self.sizes):
            raise ValueError(f"sizes must be >= 8, got {self.sizes}")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.trials <= 0:
            raise ValueError(f"trials must be positive, got {self.trials}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; registered: "
                f"{topology_names()}"
            )
        unroutable = topology_incompatible(self.algorithms, self.topology)
        if unroutable:
            raise ValueError(
                f"topology {self.topology!r} has no geometric edges, so "
                f"greedy routes void and {unroutable} (round-based) cannot "
                "converge on it — drop them from `algorithms` or pick a "
                "geometric topology"
            )
        if self.fields < 1:
            raise ValueError(
                f"fields must be >= 1, got {self.fields}"
            )
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; registered: "
                f"{sorted(WORKLOADS)}"
            )
        spec = FaultSpec.parse(self.faults)  # raises on a malformed spec
        if spec.enabled:
            unsupported = fault_incompatible(self.algorithms)
            if unsupported:
                raise ValueError(
                    f"fault dynamics ({self.faults!r}) are not supported by "
                    f"{unsupported} (round-based, or no radio model) — drop "
                    "them from `algorithms` or run fault-free"
                )

    def fault_spec(self) -> FaultSpec:
        """The parsed fault regime of this config."""
        return FaultSpec.parse(self.faults)
