"""The metrics registry: labelled counters and gauges.

Where :mod:`repro.observability.events` answers "what happened, in
order", this module answers "how much, right now": live operational
counters a scraper can read from a running sweep service.  The design
rules mirror the event recorder's, because they are what keep the
engine's bit-identity guarantees intact:

* **Off by default.**  Instrumented layers ask :func:`active` for the
  current registry and update metrics only when one is installed.  When
  none is, the hot-path cost is one module-level read and an ``is
  None`` branch — no allocation, no locking.
* **Purely observational.**  The registry never consumes randomness and
  never changes a code path, so metrics-on runs are bit-identical to
  metrics-off runs in values, ticks, and transmissions (golden-suite
  tested; benchmark E22 gates the wall-clock cost at ≤1.05×).
* **Once per run.**  No site updates the registry per tick, window,
  route or event.  Layers keep their own plain counts and publish the
  movement once, when the run ends: the engine's ticks, checks and last
  error, and a faulted run's fault counters, from
  :func:`repro.gossip.base.drive_ticks`; the route cache's
  ``hits``/``misses``… from :func:`repro.engine.batching.run_batched`.
  The sweep coordinator re-derives its series from queue state and
  landed records (:mod:`repro.engine.service`).

Naming follows the Prometheus conventions: ``repro_`` prefix, base
units, ``_total`` suffix on counters, labels for bounded dimensions only
(algorithm, worker, state, priority — never per-node or per-tick
values).  One instrument may carry an unlabelled series *and* labelled
splits of it side by side — the sweep service publishes
``repro_queue_depth`` as the bare total plus one
``repro_queue_depth{priority="p0"}``… series per priority class.
:meth:`MetricsRegistry.render_prometheus` produces text exposition
format 0.0.4, which is what the sweep coordinator's ``/metrics``
endpoint (:mod:`repro.observability.server`) serves.

>>> active() is None
True
>>> with expose() as registry:
...     registry.counter("repro_demo_total", "Demo counter.").inc(
...         2, algorithm="geographic")
...     registry.gauge("repro_demo_depth", "Demo gauge.").set(3)
...     text = registry.render_prometheus()
>>> print(text)
# HELP repro_demo_depth Demo gauge.
# TYPE repro_demo_depth gauge
repro_demo_depth 3
# HELP repro_demo_total Demo counter.
# TYPE repro_demo_total counter
repro_demo_total{algorithm="geographic"} 2
<BLANKLINE>
>>> active() is None
True
"""

from __future__ import annotations

import math
import re
import threading
from contextlib import contextmanager

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "active",
    "disable",
    "enable",
    "expose",
]

#: HTTP content type of the exposition format ``render_prometheus``
#: emits, advertised by the ``/metrics`` endpoint.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

_ACTIVE: "MetricsRegistry | None" = None


def active() -> "MetricsRegistry | None":
    """The registry instrumented code should update (``None`` = off)."""
    return _ACTIVE


def enable(registry: "MetricsRegistry | None" = None) -> "MetricsRegistry":
    """Install ``registry`` (or a fresh one) as the process-wide registry.

    Unlike event capture, metrics are a long-lived concern — a daemon
    enables one registry at startup and leaves it on — so ``enable`` /
    :func:`disable` are plain calls rather than a context manager.
    Scoped use (tests, benchmarks) should prefer :func:`expose`.
    """
    global _ACTIVE
    if registry is None:
        registry = MetricsRegistry()
    _ACTIVE = registry
    return registry


def disable() -> None:
    """Deactivate metrics collection; :func:`active` returns ``None``."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def expose(registry: "MetricsRegistry | None" = None):
    """Activate a registry for the enclosed block, then restore the old.

    >>> with expose() as registry:
    ...     active() is registry
    True
    >>> active() is None
    True
    """
    global _ACTIVE
    saved = _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = saved


def _label_key(labels: dict) -> tuple:
    """Canonical, hashable form of a label set (sorted name/value pairs)."""
    if not labels:
        return ()
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_value(value: float) -> str:
    """Render a sample value: integers bare, floats via ``repr``."""
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _series_name(name: str, key: tuple) -> str:
    """Render ``name{label="value",...}`` for one labelled series."""
    if not key:
        return name
    inner = ",".join(
        f'{label}="{_escape_label_value(value)}"' for label, value in key
    )
    return f"{name}{{{inner}}}"


class _Metric:
    """Shared bookkeeping for one named family of labelled series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.Lock):
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self._lock = lock
        self._series: dict[tuple, float] = {}
        self._keys: dict[tuple, tuple] = {}

    def _key(self, labels: dict) -> tuple:
        # Memoised per label set: an update site repeats the same few
        # (the coordinator republishes its series on every refresh).
        items = tuple(labels.items())
        key = self._keys.get(items)
        if key is None:
            for label in labels:
                if not _LABEL_NAME.match(label):
                    raise ValueError(f"invalid label name {label!r}")
            key = self._keys[items] = _label_key(labels)
        return key

    def labels(self) -> list[tuple]:
        """The label sets observed so far (sorted for stable output)."""
        with self._lock:
            return sorted(self._series)


class Counter(_Metric):
    """A monotonically increasing labelled counter.

    >>> registry = MetricsRegistry()
    >>> cells = registry.counter("repro_cells_total", "Cells executed.")
    >>> cells.inc(algorithm="randomized")
    >>> cells.inc(2, algorithm="randomized")
    >>> cells.value(algorithm="randomized")
    3.0
    >>> cells.value(algorithm="geographic")
    0.0
    """

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be ≥ 0) to the series for ``labels``."""
        self._add(self._key(labels), amount)

    def _add(self, key: tuple, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def set_total(self, value: float, **labels) -> None:
        """Mirror an externally accumulated monotone total.

        The sweep coordinator republishes counts it re-derives from
        on-disk state (queue completions, per-worker cell counts, and
        route-cache totals summed from the ``cache_*`` telemetry of
        landed cell records); ``set_total`` lets it publish those as
        counters without double counting.  The value must not move
        backwards.
        """
        key = self._key(labels)
        with self._lock:
            if value < self._series.get(key, 0.0):
                raise ValueError(
                    f"counter {self.name} cannot decrease "
                    f"({value} < {self._series[key]})"
                )
            self._series[key] = float(value)

    def value(self, **labels) -> float:
        """Current value of one labelled series (0.0 if never touched)."""
        with self._lock:
            return self._series.get(self._key(labels), 0.0)


class Gauge(_Metric):
    """A labelled gauge: a value that can go up and down.

    >>> registry = MetricsRegistry()
    >>> depth = registry.gauge("repro_queue_depth", "Pending cells.")
    >>> depth.set(7)
    >>> depth.inc(-3)
    >>> depth.value()
    4.0
    """

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        """Set the series for ``labels`` to ``value``."""
        self._set(self._key(labels), value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (may be negative) to the series for ``labels``."""
        self._add(self._key(labels), amount)

    def _set(self, key: tuple, value: float) -> None:
        with self._lock:
            self._series[key] = float(value)

    def _add(self, key: tuple, amount: float) -> None:
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current value of one labelled series (0.0 if never set)."""
        with self._lock:
            return self._series.get(self._key(labels), 0.0)


class MetricsRegistry:
    """A thread-safe collection of named metrics.

    Instruments are created lazily and get-or-create by name —
    instrumented layers call ``registry.counter(name, help)`` at the
    update site without coordinating registration.  Asking for an
    existing name with a different metric type raises.

    >>> registry = MetricsRegistry()
    >>> a = registry.counter("repro_x_total", "X.")
    >>> a is registry.counter("repro_x_total", "X.")
    True
    >>> registry.gauge("repro_x_total", "X.")
    Traceback (most recent call last):
        ...
    ValueError: metric 'repro_x_total' already registered as counter
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _instrument(self, cls, name: str, help_text: str) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, self._lock)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the :class:`Counter` called ``name``."""
        return self._instrument(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create the :class:`Gauge` called ``name``."""
        return self._instrument(Gauge, name, help_text)

    def snapshot(self) -> dict:
        """Flat ``{series: value}`` map of every series.

        Series names are rendered exactly as in the exposition format,
        so snapshots diff cleanly against scrapes.
        """
        out: dict[str, float] = {}
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        for metric in metrics:
            for key in metric.labels():
                out[_series_name(metric.name, key)] = metric.value(**dict(key))
        return out

    def counter_totals(self) -> dict:
        """Flat ``{series: value}`` map of counter series only.

        ``repro profile`` prints it as its ``counters:`` section.
        """
        out: dict[str, float] = {}
        with self._lock:
            counters = sorted(
                (m for m in self._metrics.values() if isinstance(m, Counter)),
                key=lambda m: m.name,
            )
        for counter in counters:
            for key in counter.labels():
                out[_series_name(counter.name, key)] = counter.value(**dict(key))
        return out

    def render_prometheus(self) -> str:
        """Render every metric in text exposition format 0.0.4.

        Families are sorted by name and series by label set, so output
        is deterministic for a given state.
        """
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for key in metric.labels():
                value = metric.value(**dict(key))
                lines.append(
                    f"{_series_name(metric.name, key)} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n" if lines else ""
