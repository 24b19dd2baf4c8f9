"""The span profiler: nestable wall-clock spans and a hotpath table.

Where :mod:`repro.observability.metrics` counts *how much*, this module
measures *where the time goes*: instrumented layers wrap their phases in
``with profile.span("window"):`` blocks and an active
:class:`SpanProfiler` aggregates the durations into a per-phase hotpath
table (count, total, mean, p50, p99).  Nested spans compose into dotted
paths — a ``"check"`` span opened inside a ``"run"`` span aggregates
under ``"run.check"`` — so the table reads as a call-tree flattened by
phase.

The activation contract matches the event recorder's exactly:

* **Off by default.**  :func:`span` returns a shared no-op context
  manager when no profiler is active — one module-level read, an ``is
  None`` branch, and *no allocation* (the same singleton every time,
  asserted in the test battery).
* **Purely observational.**  Spans read :func:`time.perf_counter` and
  nothing else: no RNG, no code-path changes, so profiled runs are
  bit-identical to unprofiled ones in values, ticks, and transmissions.
* **Window-granular.**  The engine opens spans per tick *window* (one
  per thousands of ticks), never per tick or per route, keeping the
  enabled overhead inside benchmark E22's ≤1.05× ceiling.

Per-span samples are kept for the percentiles under a deterministic
decimation policy (no reservoir RNG): when a phase's sample buffer
fills, every second sample is dropped and the sampling stride doubles.
Percentiles are nearest-rank over the retained samples.

>>> active() is None
True
>>> span("window") is span("check")   # disabled: one shared no-op
True
>>> with capture() as profiler:
...     with span("run"):
...         for _ in range(3):
...             with span("window"):
...                 pass
>>> [(row["span"], row["count"]) for row in profiler.hotpath_table()]
[('run', 1), ('run.window', 3)]
>>> active() is None
True
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "SpanProfiler",
    "active",
    "capture",
    "render_table",
    "span",
]

#: Per-phase sample cap; past it, decimation halves the buffer and
#: doubles the sampling stride (keeping percentile memory bounded).
SAMPLE_CAP = 4096

_ACTIVE: "SpanProfiler | None" = None


class _NoopSpan:
    """The shared do-nothing span returned while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _SpanStat:
    """Aggregated timings for one span path."""

    __slots__ = ("count", "total", "samples", "stride")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.samples: list[float] = []
        self.stride = 1

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if (self.count - 1) % self.stride == 0:
            self.samples.append(seconds)
            if len(self.samples) >= SAMPLE_CAP:
                del self.samples[::2]
                self.stride *= 2

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]


class _SpanHandle:
    """One live ``with`` span: pushes its name, times, records on exit."""

    __slots__ = ("_profiler", "_name", "_path", "_start")

    def __init__(self, profiler: "SpanProfiler", name: str):
        self._profiler = profiler
        self._name = name
        self._path = ""
        self._start = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._path = self._profiler._push(self._name)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = perf_counter() - self._start
        self._profiler._pop(self._path, elapsed)
        return False


class SpanProfiler:
    """Aggregates nested span timings into a per-phase hotpath table.

    Span nesting is tracked per thread (a heartbeat thread timing its
    own spans cannot corrupt the engine thread's path), while the
    aggregate table is shared under a lock.

    >>> profiler = SpanProfiler()
    >>> with profiler.span("run"):
    ...     with profiler.span("check"):
    ...         pass
    >>> sorted(stat["span"] for stat in profiler.hotpath_table())
    ['run', 'run.check']
    """

    def __init__(self) -> None:
        self._stats: dict[str, _SpanStat] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str) -> _SpanHandle:
        """A context manager timing one phase (nests into dotted paths)."""
        return _SpanHandle(self, name)

    def _push(self, name: str) -> str:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        path = f"{stack[-1]}.{name}" if stack else name
        stack.append(path)
        return path

    def _pop(self, path: str, seconds: float) -> None:
        self._local.stack.pop()
        with self._lock:
            stat = self._stats.get(path)
            if stat is None:
                stat = self._stats[path] = _SpanStat()
            stat.add(seconds)

    def __len__(self) -> int:
        """Number of distinct span paths recorded so far."""
        with self._lock:
            return len(self._stats)

    def hotpath_table(self) -> list[dict]:
        """Per-phase rows sorted by total time, hottest first.

        Each row carries ``span``, ``count``, ``total``, ``mean``,
        ``p50``, and ``p99`` (seconds).
        """
        with self._lock:
            items = list(self._stats.items())
        rows = []
        for path, stat in items:
            rows.append(
                {
                    "span": path,
                    "count": stat.count,
                    "total": stat.total,
                    "mean": stat.total / stat.count if stat.count else 0.0,
                    "p50": stat.percentile(0.50),
                    "p99": stat.percentile(0.99),
                }
            )
        rows.sort(key=lambda row: (-row["total"], row["span"]))
        return rows

    def render_table(self) -> str:
        """The hotpath table as aligned monospace text."""
        return render_table(self.hotpath_table())


def render_table(rows: list) -> str:
    """Format hotpath rows (see :meth:`SpanProfiler.hotpath_table`).

    >>> print(render_table([{"span": "run", "count": 2, "total": 0.5,
    ...                      "mean": 0.25, "p50": 0.2, "p99": 0.3}]))
    span  count    total     mean      p50      p99
    run       2  500.0ms  250.0ms  200.0ms  300.0ms
    """
    if not rows:
        return "(no spans recorded)"
    header = ("span", "count", "total", "mean", "p50", "p99")
    table = [header]
    for row in rows:
        table.append(
            (
                row["span"],
                str(row["count"]),
                _format_seconds(row["total"]),
                _format_seconds(row["mean"]),
                _format_seconds(row["p50"]),
                _format_seconds(row["p99"]),
            )
        )
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    lines = []
    for line in table:
        first = line[0].ljust(widths[0])
        rest = "  ".join(
            cell.rjust(width) for cell, width in zip(line[1:], widths[1:])
        )
        lines.append(f"{first}  {rest}".rstrip())
    return "\n".join(lines)


def _format_seconds(seconds: float) -> str:
    """Human-scale duration: µs/ms below a second, seconds above."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.1f}µs"


def active() -> "SpanProfiler | None":
    """The profiler instrumented code should time under (``None`` = off)."""
    return _ACTIVE


def span(name: str):
    """A span under the active profiler, or the shared no-op when off.

    This is the one call instrumented layers make.  Disabled cost is a
    module read, an ``is None`` branch, and no allocation.  A span may be
    entered again once it has exited, so a loop can take its handle once
    (the tick driver keeps one per phase per run).
    """
    profiler = _ACTIVE
    if profiler is None:
        return _NOOP_SPAN
    return profiler.span(name)


@contextmanager
def capture(profiler: "SpanProfiler | None" = None):
    """Activate a profiler for the enclosed block, then restore the old.

    Unlike event capture, span captures may nest (an outer benchmark
    harness profiling a block that itself profiles): the inner capture
    simply shadows the outer for its extent.
    """
    global _ACTIVE
    saved = _ACTIVE
    _ACTIVE = profiler if profiler is not None else SpanProfiler()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = saved
