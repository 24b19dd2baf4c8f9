"""Structured event tracing, replay validation, and run telemetry.

Three pieces make engine runs debuggable and independently checkable:

* :mod:`repro.observability.events` — an opt-in structured event stream.
  A :class:`~repro.observability.events.TraceRecorder` activated with
  :func:`~repro.observability.events.capture` receives every observable
  action of a run — pair updates, route hops, loss drops, aborted
  transactions, crash/recover epochs, convergence checks — as plain
  dictionaries, serialisable to JSONL.  When no recorder is active the
  instrumented hot paths reduce to one predictable ``is None`` branch,
  and the recorder never touches any RNG, so traced and untraced runs
  are identical in values, ticks, and transmissions (golden-suite
  tested) and trace-off runs are bit-identical to the pre-observability
  engine.
* :mod:`repro.observability.replay` — a replay engine that re-derives a
  run's error decay, transmission counts, conservation of mass, and
  fault metrics from the trace *alone* and asserts them against the
  live results — a cheap independent cross-check of the whole engine,
  run in CI on every golden-trace configuration.
* :mod:`repro.observability.telemetry` — lightweight per-cell counters
  and timers (ticks/sec, route-cache hit/repair/drop counts, fallback
  occurrences) surfaced in
  :class:`~repro.engine.executor.CellRecord` and the sweep report.

Three more pieces make a *running* sweep observable live:

* :mod:`repro.observability.metrics` — an opt-in metrics registry
  (labelled counters and gauges) with Prometheus text-exposition
  rendering.  The engine's, the faults' and the route cache's counts
  reach it once per run, so the same bit-identity and
  ``is None``-when-off guarantees as tracing hold (benchmark E22 gates
  the enabled overhead at 1.05×).
* :mod:`repro.observability.profile` — a nestable span profiler on
  :func:`time.perf_counter` aggregating into a per-phase hotpath table
  (count, total, mean, p50/p99), surfaced by ``repro profile``.
* :mod:`repro.observability.server` — the stdlib HTTP scrape endpoint
  (``GET /metrics``, ``GET /healthz``) the sweep-service coordinator
  runs behind ``repro serve-sweep --metrics-port``.

Layering: :mod:`~repro.observability.events`,
:mod:`~repro.observability.telemetry`,
:mod:`~repro.observability.metrics`, and
:mod:`~repro.observability.profile` are leaf modules (stdlib only), so
every protocol and routing layer can import them without cycles;
:mod:`~repro.observability.server` imports only the metrics leaf, and
:mod:`~repro.observability.replay` sits *above* the gossip/dynamics
layers it replays and is re-exported lazily.
"""

from repro.observability import events, metrics, profile, server
from repro.observability.events import TraceRecorder, active, capture, suspend
from repro.observability.metrics import MetricsRegistry
from repro.observability.profile import SpanProfiler
from repro.observability.server import MetricsServer
from repro.observability.telemetry import (
    cache_stats,
    collect_telemetry,
    service_telemetry,
)

__all__ = [
    "MetricsRegistry",
    "MetricsServer",
    "SpanProfiler",
    "TraceRecorder",
    "active",
    "cache_stats",
    "capture",
    "collect_telemetry",
    "events",
    "metrics",
    "profile",
    "server",
    "service_telemetry",
    "suspend",
    # Lazily re-exported from repro.observability.replay (see __getattr__):
    "ReplayError",
    "ReplayResult",
    "replay_events",
    "replay_file",
    "validate_record",
    "validate_result",
]

#: Names served from :mod:`repro.observability.replay` on first access.
#: Replay imports the gossip/metrics layers (which themselves import
#: :mod:`repro.observability.events`), so importing it eagerly here
#: would close an import cycle through the package ``__init__``.
_REPLAY_EXPORTS = frozenset(
    {
        "ReplayError",
        "ReplayResult",
        "replay_events",
        "replay_file",
        "validate_record",
        "validate_result",
    }
)


def __getattr__(name: str):
    if name in _REPLAY_EXPORTS:
        from repro.observability import replay

        return getattr(replay, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
