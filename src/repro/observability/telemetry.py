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
    "cache_stats",
    "collect_telemetry",
    "metric_deltas",
    "service_telemetry",
]


def cache_stats(algorithm) -> "dict[str, float] | None":
    """Route-cache counters of ``algorithm``'s memoized router, if any.

    Unwraps one :class:`~repro.dynamics.overlay.DynamicGossip` layer
    (``algorithm.inner``) and one
    :class:`~repro.dynamics.overlay.LossyRouter` layer
    (``router.inner``) to reach the underlying
    :class:`~repro.routing.cache.CachedGreedyRouter`; protocols without
    a router (randomized, the affine comparators) return ``None``.
    """
    inner = getattr(algorithm, "inner", algorithm)
    cache = getattr(inner, "router", None)
    cache = getattr(cache, "inner", cache)
    if getattr(cache, "hits", None) is None:
        return None
    return {
        "cache_hits": float(cache.hits),
        "cache_misses": float(cache.misses),
        "cache_walks": float(cache.walks),
        "cache_invalidations": float(cache.invalidations),
        "cache_repairs": float(getattr(cache, "repairs", 0)),
        "cache_drops": float(getattr(cache, "drops", 0)),
    }


def collect_telemetry(
    algorithm,
    *,
    wall_clock: float,
    ticks: int,
    multifield_fallback: bool = False,
    multifield_runs: "int | None" = None,
    trace_events: "int | None" = None,
    metrics: "dict[str, float] | None" = None,
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
    to a single run.  ``metrics`` (from :func:`metric_deltas`) merges
    registry counter movement attributed to this cell, each entry
    prefixed ``metric_``.

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
    if metrics:
        telemetry.update(metrics)
    return telemetry


def metric_deltas(
    after: "dict[str, float]", before: "dict[str, float]"
) -> dict[str, float]:
    """Counter movement between two registry snapshots, per series.

    The sweep executor snapshots
    :meth:`~repro.observability.metrics.MetricsRegistry.counter_totals`
    around a cell and stores the nonzero deltas on the cell's record —
    which is how the distributed coordinator (a separate process from
    its workers) can still aggregate engine-level counters fleet-wide:
    they ride home inside each landed
    :class:`~repro.engine.executor.CellRecord`.

    >>> metric_deltas(
    ...     {"repro_x_total": 5.0, "repro_y_total": 2.0},
    ...     {"repro_x_total": 3.0})
    {'metric_repro_x_total': 2.0, 'metric_repro_y_total': 2.0}
    """
    deltas: dict[str, float] = {}
    for series, value in after.items():
        delta = value - before.get(series, 0.0)
        if delta:
            deltas[f"metric_{series}"] = delta
    return deltas


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
