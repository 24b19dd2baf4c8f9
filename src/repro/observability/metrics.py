"""The pull-based metrics registry: labelled counters, gauges, histograms.

Where :mod:`repro.observability.events` answers "what happened, in
order", this module answers "how much, right now": live operational
counters a scraper can pull from a running sweep service.  The design
rules mirror the event recorder's, because they are what keep the
engine's bit-identity guarantees intact:

* **Off by default.**  Instrumented layers ask :func:`active` for the
  current registry and update metrics only when one is installed.  When
  none is, the hot-path cost is one module-level read and an ``is
  None`` branch — no allocation, no locking.
* **Purely observational.**  The registry never consumes randomness and
  never changes a code path, so metrics-on runs are bit-identical to
  metrics-off runs in values, ticks, and transmissions (golden-suite
  tested, and held to a ≤1.05× wall-clock ceiling by benchmark E22).
* **Pull, not push, for the hottest sites.**  Layers whose own counters
  already exist (the route cache's ``hits``/``misses``) do not pay a
  registry update per operation; they register a *collector* via
  :meth:`MetricsRegistry.add_collector` and the registry reads their
  state at scrape time.  Per-operation :meth:`Counter.inc` calls are
  reserved for rare sites (per-window engine checks, lease operations,
  fault epochs, shard merges).

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
import weakref
from contextlib import contextmanager

__all__ = [
    "CONTENT_TYPE",
    "CollectorSink",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Series",
    "active",
    "cache_collector",
    "disable",
    "enable",
    "expose",
]

#: HTTP content type of the exposition format ``render_prometheus``
#: emits, advertised by the ``/metrics`` endpoint.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default histogram buckets, tuned for the sub-second spans this repo
#: measures (cell execution, lease hold times).  Upper bounds are
#: inclusive, matching Prometheus ``le`` semantics.
DEFAULT_BUCKETS = (0.005, 0.025, 0.1, 0.25, 1.0, 2.5, 10.0, 30.0)

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
        # (the engine updates its series once per check window).
        items = tuple(labels.items())
        key = self._keys.get(items)
        if key is None:
            for label in labels:
                if not _LABEL_NAME.match(label):
                    raise ValueError(f"invalid label name {label!r}")
            key = self._keys[items] = _label_key(labels)
        return key

    def series(self, **labels) -> "Series":
        """The series for ``labels``, resolved once.

        A site that updates the same labels over and over (the tick
        driver, once per window) keeps the handle and skips the label
        lookup on every update.
        """
        return Series(self, self._key(labels))

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

        The sweep coordinator aggregates counts it does not itself
        produce (queue completions, per-worker cell counts, route-cache
        totals summed from landed cell records); ``set_total`` lets it
        publish those as counters without double counting.  The value
        must not move backwards.
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


class Series:
    """One labelled series of a counter or gauge (:meth:`_Metric.series`).

    >>> registry = MetricsRegistry()
    >>> ticks = registry.counter("repro_ticks_total").series(algorithm="x")
    >>> ticks.inc(5)
    >>> registry.counter("repro_ticks_total").value(algorithm="x")
    5.0
    """

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: _Metric, key: tuple):
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        """:meth:`Counter.inc` / :meth:`Gauge.inc` on this series."""
        self._metric._add(self._key, amount)

    def set(self, value: float) -> None:
        """:meth:`Gauge.set` on this series (gauges only)."""
        self._metric._set(self._key, value)


class Histogram(_Metric):
    """A fixed-bucket labelled histogram (cumulative ``le`` buckets).

    Bucket upper bounds are inclusive and fixed at construction; a
    ``+Inf`` bucket, ``_sum``, and ``_count`` series are implicit, as in
    the Prometheus exposition format.

    >>> registry = MetricsRegistry()
    >>> hist = registry.histogram(
    ...     "repro_cell_seconds", "Cell wall clock.", buckets=(0.1, 1.0))
    >>> hist.observe(0.1)   # on the edge: le="0.1" is inclusive
    >>> hist.observe(0.5)
    >>> hist.observe(30.0)  # overflows into +Inf only
    >>> hist.bucket_counts()
    {0.1: 1, 1.0: 2, inf: 3}
    >>> hist.count(), round(hist.sum(), 10)
    (3, 30.6)
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: tuple = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, lock)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or sorted(bounds) != list(bounds):
            raise ValueError("histogram buckets must be sorted and non-empty")
        if math.inf in bounds:
            bounds = bounds[:-1]
        self.buckets = bounds
        # Per label set: [bucket counts..., +Inf count, sum].
        self._series: dict[tuple, list] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the series for ``labels``."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [0] * (len(self.buckets) + 1) + [0.0]
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series[index] += 1
            series[len(self.buckets)] += 1
            series[-1] += float(value)

    def bucket_counts(self, **labels) -> dict:
        """Cumulative counts per upper bound, ``inf`` last."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            counts = list(series[:-1]) if series else [0] * (len(self.buckets) + 1)
        bounds = list(self.buckets) + [math.inf]
        return dict(zip(bounds, counts))

    def count(self, **labels) -> int:
        """Total number of observations for ``labels``."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return int(series[len(self.buckets)]) if series else 0

    def sum(self, **labels) -> float:
        """Sum of all observed values for ``labels``."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return float(series[-1]) if series else 0.0


class MetricsRegistry:
    """A thread-safe collection of metrics with pull-time collectors.

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
        self._collectors: list = []
        #: Per-collector last report, folded into ``_retired`` when the
        #: collector's owner is garbage collected — keeps collected
        #: counters cumulative across object lifetimes.
        self._last_reports: dict[int, "CollectorSink"] = {}
        self._retired: dict[tuple, tuple] = {}

    def _instrument(self, cls, name: str, help_text: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, self._lock, **kwargs)
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

    def histogram(
        self, name: str, help_text: str = "", buckets: tuple = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the :class:`Histogram` called ``name``."""
        return self._instrument(Histogram, name, help_text, buckets=buckets)

    def add_collector(self, collect) -> None:
        """Register a pull-time collector, called before every scrape.

        ``collect`` is invoked with a :class:`CollectorSink` and should
        report its owner's *current cumulative* counts; the registry
        sums reports across collectors (several live route caches add
        up) and publishes the sums monotonically.  A collector that
        raises :class:`ReferenceError` — the natural failure of a
        ``weakref``-holding closure whose owner was garbage collected —
        is dropped silently, so hot objects can register themselves
        without extending their own lifetime.
        """
        self._collectors.append(collect)

    def collect(self) -> None:
        """Run all registered collectors, pruning dead ones.

        Collected counter series stay cumulative across their owners'
        lifetimes: each collector's latest report is remembered, and
        when its owner is garbage collected (the collector raises
        :class:`ReferenceError`) that last report folds into a retired
        base the live sums stack on.  Counts an object accrued *after*
        its last scrape and before collection are lost — the inherent
        imprecision of pull-based metrics — but the exported series
        never decreases, and anything scraped once is never un-counted.
        """
        live_sums = CollectorSink()
        live = []
        for collector in list(self._collectors):
            sink = CollectorSink()
            try:
                collector(sink)
            except ReferenceError:
                last = self._last_reports.pop(id(collector), None)
                if last is not None:
                    for key, (help_text, value) in last._counters.items():
                        _, base = self._retired.get(key, (help_text, 0.0))
                        self._retired[key] = (help_text, base + value)
                continue
            live.append(collector)
            self._last_reports[id(collector)] = sink
            for key, (help_text, value) in sink._counters.items():
                live_sums.counter(key[0], value, help_text, **dict(key[1]))
            for key, (help_text, value) in sink._gauges.items():
                live_sums.gauge(key[0], value, help_text, **dict(key[1]))
        self._collectors = live
        totals = dict(live_sums._counters)
        for key, (help_text, base) in self._retired.items():
            prior_help, value = totals.get(key, (help_text, 0.0))
            totals[key] = (prior_help or help_text, base + value)
        for (name, key), (help_text, value) in totals.items():
            metric = self.counter(name, help_text)
            with self._lock:
                # Monotone guard: a raced report can only hold, not
                # rewind, the exported value.
                if value > metric._series.get(key, 0.0):
                    metric._series[key] = value
        for (name, key), (help_text, value) in live_sums._gauges.items():
            metric = self.gauge(name, help_text)
            with self._lock:
                metric._series[key] = value

    def snapshot(self) -> dict:
        """Flat ``{series: value}`` map of every scalar series.

        Runs collectors first.  Histograms contribute their ``_sum`` and
        ``_count`` series.  Series names are rendered exactly as in the
        exposition format, so snapshots diff cleanly against scrapes.
        """
        self.collect()
        out: dict[str, float] = {}
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        for metric in metrics:
            if isinstance(metric, Histogram):
                for key in metric.labels():
                    labels = dict(key)
                    out[_series_name(metric.name + "_count", key)] = float(
                        metric.count(**labels)
                    )
                    out[_series_name(metric.name + "_sum", key)] = metric.sum(
                        **labels
                    )
            else:
                for key in metric.labels():
                    out[_series_name(metric.name, key)] = metric.value(
                        **dict(key)
                    )
        return out

    def counter_totals(self) -> dict:
        """Flat ``{series: value}`` map of counter series only.

        Runs collectors first.  This is what
        :func:`repro.observability.telemetry.metric_deltas` diffs to
        attribute counter movement to one executed cell.
        """
        self.collect()
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
        is deterministic for a given state.  Collectors run first.
        """
        self.collect()
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key in metric.labels():
                    labels = dict(key)
                    counts = metric.bucket_counts(**labels)
                    for bound, count in counts.items():
                        le = "+Inf" if bound == math.inf else _format_value(bound)
                        bucket_key = key + (("le", le),)
                        # ``le`` sorts inside the label set alphabetically
                        # in real exposition too; keep insertion order so
                        # buckets stay grouped and ascending.
                        lines.append(
                            f"{_series_name(metric.name + '_bucket', bucket_key)}"
                            f" {count}"
                        )
                    lines.append(
                        f"{_series_name(metric.name + '_sum', key)} "
                        f"{_format_value(metric.sum(**labels))}"
                    )
                    lines.append(
                        f"{_series_name(metric.name + '_count', key)} "
                        f"{metric.count(**labels)}"
                    )
            else:
                for key in metric.labels():
                    value = metric.value(**dict(key))
                    lines.append(
                        f"{_series_name(metric.name, key)} {_format_value(value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""




class CollectorSink:
    """Accumulates values reported by collectors during one scrape.

    Reports for the same ``(name, labels)`` series *sum* — several live
    route caches each report their own cumulative counts and the scrape
    exports the total.

    >>> sink = CollectorSink()
    >>> sink.counter("repro_hits_total", 3, "Hits.")
    >>> sink.counter("repro_hits_total", 4, "Hits.")
    >>> sink._counters[("repro_hits_total", ())]
    ('Hits.', 7.0)
    """

    def __init__(self) -> None:
        self._counters: dict[tuple, tuple] = {}
        self._gauges: dict[tuple, tuple] = {}

    def _add(self, store: dict, name: str, value: float, help_text: str, labels):
        key = (name, _label_key(labels))
        _, current = store.get(key, (help_text, 0.0))
        store[key] = (help_text, current + float(value))

    def counter(
        self, name: str, value: float, help_text: str = "", **labels
    ) -> None:
        """Report one object's cumulative count for a counter series."""
        self._add(self._counters, name, value, help_text, labels)

    def gauge(self, name: str, value: float, help_text: str = "", **labels) -> None:
        """Report one object's contribution to a gauge series."""
        self._add(self._gauges, name, value, help_text, labels)


def cache_collector(registry: "MetricsRegistry", cache) -> None:
    """Register pull-time route-cache series for ``cache``.

    Called by :class:`repro.routing.cache.CachedGreedyRouter` when a
    registry is active at construction.  Pull-time collection is what
    keeps the route hot path free: the cache maintains its own plain
    integer counters exactly as before, and the registry reads them only
    when scraped — zero cost per routed message, which is how benchmark
    E22 holds metrics-on runs to a ≤1.05× wall-clock ceiling.

    The collector holds only a weak reference, so registering never
    extends a cache's lifetime; once the cache is garbage collected the
    registry prunes the collector on the next scrape (exported counters
    hold their high-water marks).  Counts from multiple live caches
    (e.g. the protocols of one in-process sweep) sum.
    """
    ref = weakref.ref(cache)

    def collect(sink: CollectorSink) -> None:
        target = ref()
        if target is None:
            raise ReferenceError("route cache was garbage collected")
        sink.counter(
            "repro_route_cache_hits_total",
            target.hits,
            "Column routes served by an existing column.",
        )
        sink.counter(
            "repro_route_cache_misses_total",
            target.misses,
            "Column routes that built their column.",
        )
        sink.counter(
            "repro_route_cache_walks_total",
            target.walks,
            "Routes served by batched walks (no column).",
        )
        sink.counter(
            "repro_route_cache_invalidations_total",
            target.invalidations,
            "Route-cache invalidation events.",
        )
        sink.counter(
            "repro_route_cache_repairs_total",
            target.repairs,
            "Cached columns repaired in place on invalidation.",
        )
        sink.counter(
            "repro_route_cache_drops_total",
            target.drops,
            "Cached columns dropped on invalidation (past repair budget).",
        )

    registry.add_collector(collect)
