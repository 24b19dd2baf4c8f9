"""The structured event stream: recorder, activation, JSONL persistence.

Every instrumented layer of the engine (the batched driver, the routers,
the dynamics overlay, each protocol's ``tick`` and randomized gossip's
``tick_block``) asks :func:`active` for the current recorder and emits
plain-dictionary events only when one is installed.  Design rules that
keep the stream trustworthy:

* **Purely observational.**  Emission never consumes randomness, never
  allocates on the hot path when no recorder is active (one module-level
  read and an ``is None`` branch), and never changes a code path — so
  trace-off runs are bit-identical to an uninstrumented engine and
  trace-on runs are identical in values, ticks, and transmissions
  (asserted in the golden-trace suite).
* **Emitted at the charge site.**  Transmission-shaped events (``route``,
  ``drop``, charged ``pairs``/``path``) are emitted exactly where the
  corresponding :class:`~repro.routing.cost.TransmissionCounter` charge
  happens — the layer holding a non-``None`` counter — so summing the
  charges implied by a trace reproduces the run's per-category counts
  exactly (the replay engine asserts this).
* **Plain JSON types only.**  Values are Python ints/floats/lists —
  ``json`` round-trips float64 exactly (shortest-repr serialisation),
  which is what lets replay re-derive errors *bitwise*.  The one
  exception is a batched ``pairs`` event's integer ``(m, 2)`` array,
  which :meth:`TraceRecorder.write` serialises as its ``tolist()``: the
  written bytes are those of the nested list, and building that list
  only when a trace is written keeps it off the run.

One run is one well-formed trace: a ``start`` event, a body of updates
and checks, one ``end`` event.  Round-based protocols, whose
multi-field runs execute one nested run per column, run wrapped in
:func:`suspend` so a trace never interleaves two runs.

The event vocabulary is documented in ``docs/observability.md``; the
replay semantics live in :mod:`repro.observability.replay`.

>>> active() is None
True
>>> with capture() as recorder:
...     rec = active()
...     rec.emit({"e": "check", "ticks": 12, "tx": 24, "error": 0.5})
...     with suspend():
...         inner = active()
>>> rec is recorder, inner is None, active() is None
(True, True, True)
>>> len(recorder)
1
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "active",
    "capture",
    "load_trace",
    "start_event",
    "suspend",
]

#: Bumped whenever the event vocabulary changes incompatibly; the replay
#: engine refuses traces from a different major schema.
TRACE_SCHEMA_VERSION = 1

_ACTIVE: "TraceRecorder | None" = None


class TraceRecorder:
    """An append-only buffer of trace events for one run.

    Events are plain dictionaries; serialisation is deferred to
    :meth:`write` so the per-event cost during the run is one list
    append.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        """Append one event (no validation — the hot path stays cheap)."""
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def annotate(self, **extra) -> None:
        """Merge metadata into the trace's ``start`` event.

        The engine layer that *owns* a run's identity (e.g. the sweep
        executor, which knows the ``(algorithm, n, trial)`` cell) calls
        this after the run so replay tooling can match the trace to its
        stored :class:`~repro.engine.executor.CellRecord`.
        """
        if not self.events or self.events[0].get("e") != "start":
            raise ValueError("no start event to annotate")
        self.events[0].update(extra)

    def write(self, path: str | Path) -> Path:
        """Write the buffered events to ``path`` as JSON lines."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(
                    json.dumps(event, separators=(",", ":"), default=_tolist)
                )
                handle.write("\n")
        return path


def _tolist(value):
    """JSON fallback for the arrays a batched event carries."""
    tolist = getattr(value, "tolist", None)
    if tolist is None:
        raise TypeError(f"{type(value).__name__} is not JSON serialisable")
    return tolist()


def active() -> "TraceRecorder | None":
    """The recorder instrumented code should emit to (``None`` = off)."""
    return _ACTIVE


@contextmanager
def capture():
    """Activate a fresh :class:`TraceRecorder` for the enclosed run.

    Exactly one recorder may be active at a time — a trace is one run's
    event stream, and nesting captures would interleave two runs.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError(
            "a trace capture is already active; one recorder traces one "
            "run at a time"
        )
    recorder = TraceRecorder()
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = None


@contextmanager
def suspend():
    """Temporarily deactivate tracing for a nested run.

    The engine's rounds-based delegation (one run per column on
    multi-field state) executes whole runs *inside* the traced run;
    suspending keeps the outer trace well-formed (one ``start``, one
    ``end``) instead of interleaving events from runs the replay engine
    cannot attribute.
    """
    global _ACTIVE
    saved = _ACTIVE
    _ACTIVE = None
    try:
        yield
    finally:
        _ACTIVE = saved


def start_event(algorithm, initial_values, epsilon: float, stride: int) -> dict:
    """The run-opening event: everything replay needs to reconstruct.

    ``initial`` carries the full starting state (exact float64 via JSON
    shortest-repr); protocols with fixed per-node coefficients (the
    affine :math:`K_n` family) contribute them once here instead of per
    exchange.
    """
    fields = 1 if initial_values.ndim == 1 else int(initial_values.shape[1])
    event = {
        "e": "start",
        "v": TRACE_SCHEMA_VERSION,
        "algorithm": str(getattr(algorithm, "name", type(algorithm).__name__)),
        "n": int(initial_values.shape[0]),
        "k": fields,
        "epsilon": float(epsilon),
        "stride": int(stride),
        "initial": initial_values.tolist(),
    }
    alphas = getattr(algorithm, "alphas", None)
    if alphas is not None:
        event["alphas"] = [float(alpha) for alpha in alphas]
    return event


def load_trace(path: str | Path) -> list[dict]:
    """Read a JSONL trace written by :meth:`TraceRecorder.write`."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not a JSON event line ({error})"
                ) from error
    return events
