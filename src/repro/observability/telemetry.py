"""Run telemetry: lightweight counters and timers for sweep cells.

Complements the event stream with always-cheap aggregates: wall-clock
throughput, route-cache effectiveness, and which engine fallback a cell
hit.  The sweep executor collects one flat ``{name: float}`` mapping per
cell (:func:`collect_telemetry`) and stores it on the
:class:`~repro.engine.executor.CellRecord` — excluded from record
equality, omitted from serialisation when absent, so deterministic
record comparisons and old stores are both unaffected.

Everything here duck-types its inputs (stdlib only, no ``repro``
imports): this module is a leaf the engine layers can import freely.

>>> collect_telemetry(object(), wall_clock=2.0, ticks=1000)
{'ticks_per_sec': 500.0, 'multifield_fallback': 0.0}
"""

from __future__ import annotations

__all__ = [
    "CACHE_SERIES",
    "FAULT_SERIES",
    "LIVE_FRACTION_GAUGE",
    "cache_stats",
    "collect_telemetry",
    "fault_counts",
    "service_telemetry",
]

#: The route cache's counters, one row each: the ``cache_*`` telemetry
#: key a cell record carries (its suffix is the
#: :class:`~repro.routing.cache.CachedGreedyRouter` attribute), mapped
#: to the registry series and help text it is published as.  Cell
#: records (:func:`cache_stats`), the per-run registry publish
#: (:func:`~repro.engine.batching.run_batched`) and the fleet
#: coordinator's record sums all read this one table.
CACHE_SERIES = {
    "cache_hits": (
        "repro_route_cache_hits_total",
        "Single routes served from the route memo.",
    ),
    "cache_misses": (
        "repro_route_cache_misses_total",
        "Single routes computed by the scalar greedy router and memoised.",
    ),
    "cache_walks": (
        "repro_route_cache_walks_total",
        "Routes served by batched walks (no memo).",
    ),
    "cache_invalidations": (
        "repro_route_cache_invalidations_total",
        "Route-cache invalidation events.",
    ),
    "cache_drops": (
        "repro_route_cache_drops_total",
        "Memoised routes dropped on invalidation.",
    ),
}


#: A faulted run's counters, one row each: the count the run keeps
#: (the :class:`~repro.dynamics.overlay.DynamicSubstrate` churn counts,
#: the wrapper's ``wasted_ticks``, and ``lost_transmissions``, the
#: losses its :class:`~repro.dynamics.schedule.LossChannel` counted at
#: every loss site — the number a cell record's fault metrics carry),
#: mapped to the registry series and help text its movement is
#: published as, once per run, by :func:`~repro.gossip.base.drive_ticks`.
FAULT_SERIES = {
    "crashes": ("repro_fault_crashes_total", "Nodes crashed by churn."),
    "recoveries": ("repro_fault_recoveries_total", "Nodes recovered by churn."),
    "wasted_ticks": (
        "repro_fault_dead_ticks_total",
        "Ticks owned by crashed nodes (wasted).",
    ),
    "lost_transmissions": (
        "repro_fault_lost_transmissions_total",
        "Transmissions lost on the loss channel (one per severed send).",
    ),
}

#: The gauge a run whose churn moved sets to its live fraction.
LIVE_FRACTION_GAUGE = (
    "repro_fault_live_fraction",
    "Fraction of nodes live after the last churn epoch.",
)


def fault_counts(algorithm) -> "dict[str, float] | None":
    """The :data:`FAULT_SERIES` counts of a fault-wrapped protocol.

    ``algorithm`` duck-types
    :class:`~repro.dynamics.overlay.DynamicGossip` (a ``substrate`` and
    ``wasted_ticks``); anything else returns ``None``.  Every count is
    cumulative over the wrapper's life; ``lost_transmissions`` is the
    substrate's ``channel.losses``, the same count the record's fault
    metrics and replay carry.  ``live_fraction`` rides along for
    :data:`LIVE_FRACTION_GAUGE`.
    """
    substrate = getattr(algorithm, "substrate", None)
    if substrate is None:
        return None
    return {
        "crashes": float(substrate.crashes),
        "recoveries": float(substrate.recoveries),
        "wasted_ticks": float(algorithm.wasted_ticks),
        "lost_transmissions": float(substrate.channel.losses),
        "live_fraction": float(substrate.live.mean()),
    }


def cache_stats(algorithm) -> "dict[str, float] | None":
    """Route-cache counters of ``algorithm``'s memoized router, if any.

    Unwraps one :class:`~repro.dynamics.overlay.DynamicGossip` layer
    (``algorithm.inner``) and one
    :class:`~repro.dynamics.overlay.LossyRouter` layer
    (``router.inner``) to reach the underlying
    :class:`~repro.routing.cache.CachedGreedyRouter`; protocols without
    a router (randomized, the affine comparators) return ``None``.
    The keys are those of :data:`CACHE_SERIES`.
    """
    inner = getattr(algorithm, "inner", algorithm)
    cache = getattr(inner, "router", None)
    cache = getattr(cache, "inner", cache)
    if getattr(cache, "hits", None) is None:
        return None
    return {
        key: float(getattr(cache, key.removeprefix("cache_")))
        for key in CACHE_SERIES
    }


def collect_telemetry(
    algorithm,
    *,
    wall_clock: float,
    ticks: int,
    multifield_fallback: bool = False,
    multifield_runs: "int | None" = None,
    trace_events: "int | None" = None,
    cache_baseline: "dict[str, float] | None" = None,
) -> dict[str, float]:
    """One cell's flat telemetry mapping.

    Always present: ``ticks_per_sec`` and the fallback indicator
    ``multifield_fallback`` (``1.0`` when a round-based protocol ran the
    cell's ``(n, k)`` state one column at a time — the run is correct
    but missed the single-pass fast path).
    Added when applicable: the route-cache counters of
    :func:`cache_stats`, ``trace_events`` (events captured when the cell
    ran traced), and ``multifield_fallback_runs`` — the
    number of nested runs a per-column fallback cell executed on *one*
    protocol instance, which is the factor by which its cumulative
    counters (the route-cache hits/misses above) are inflated relative
    to a single run.

    Route caches are shared by the protocols of one graph, so their
    counters are cumulative across cells; ``cache_baseline`` (a
    :func:`cache_stats` snapshot taken before the run) turns them into
    this run's own movement.
    """
    telemetry = {
        "ticks_per_sec": (
            float(ticks) / wall_clock if wall_clock > 0 else 0.0
        ),
        "multifield_fallback": 1.0 if multifield_fallback else 0.0,
    }
    if multifield_runs is not None:
        telemetry["multifield_fallback_runs"] = float(multifield_runs)
    stats = cache_stats(algorithm)
    if stats is not None:
        if cache_baseline is not None:
            stats = {
                name: value - cache_baseline[name]
                for name, value in stats.items()
            }
        telemetry.update(stats)
    if trace_events is not None:
        telemetry["trace_events"] = float(trace_events)
    return telemetry


def service_telemetry(stats, done_log, service=None) -> dict:
    """A distributed-sweep snapshot: queue depth plus per-worker throughput.

    ``stats`` duck-types :class:`~repro.engine.queue.QueueStats`
    (``total``/``pending``/``leased``/``done``/``reclamations``; when it
    also carries ``pending_by_priority`` — format-2 queues do — the
    per-priority split lands under ``queue.pending_by_priority`` as
    ``{"p0": …, "p1": …, "p2": …}``); ``done_log`` is the queue's list
    of completion markers, each a mapping with ``owner``,
    ``claimed_at``, and ``completed_at``.  Busy time is the
    claim-to-completion span, so a worker's ``cells_per_sec`` reflects
    execution only — idle polling between leases never counts.
    ``service``, when given, is an opaque coordinator-state mapping
    (daemon flag, drain state, respawns…) copied under a ``"service"``
    key.

    >>> class S:
    ...     total, pending, leased, done, reclamations = 4, 1, 1, 2, 1
    >>> log = [
    ...     {"owner": "w0", "claimed_at": 0.0, "completed_at": 2.0},
    ...     {"owner": "w0", "claimed_at": 3.0, "completed_at": 5.0},
    ... ]
    >>> service_telemetry(S(), log)["workers"]["w0"]
    {'cells': 2, 'busy_seconds': 4.0, 'cells_per_sec': 0.5}
    """
    workers: dict = {}
    for entry in done_log:
        owner = str(entry["owner"])
        busy = float(entry["completed_at"]) - float(entry["claimed_at"])
        slot = workers.setdefault(owner, {"cells": 0, "busy_seconds": 0.0})
        slot["cells"] += 1
        slot["busy_seconds"] += max(busy, 0.0)
    for slot in workers.values():
        slot["cells_per_sec"] = (
            slot["cells"] / slot["busy_seconds"]
            if slot["busy_seconds"] > 0
            else 0.0
        )
    queue = {
        "total": int(stats.total),
        "pending": int(stats.pending),
        "leased": int(stats.leased),
        "done": int(stats.done),
        "reclamations": int(stats.reclamations),
    }
    by_priority = getattr(stats, "pending_by_priority", None)
    if by_priority is not None:
        queue["pending_by_priority"] = {
            f"p{index}": int(count)
            for index, count in enumerate(by_priority)
        }
    payload = {"queue": queue, "workers": workers}
    if service is not None:
        payload["service"] = dict(service)
    return payload
