"""The asynchronous gossip driver.

All gossip algorithms in this library share the paper's execution model
(Section 2): a global rate-``n`` Poisson clock assigns ticks to uniformly
random nodes; the owner of a tick performs one protocol action.  Subclasses
implement :meth:`AsynchronousGossip.tick`; this module provides the one
run-until-ε loop (:func:`drive_ticks`, behind both
:meth:`AsynchronousGossip.run` and :func:`repro.engine.batching.run_batched`)
with transmission accounting, tracing, instrumentation and the stopping
rule.

The stopping rule is *oracular*: the simulator measures the
true normalized error and stops when it crosses ε.  Deployed systems would
instead run for the worst-case tick counts the theorems prescribe; the
transmission *costs* recorded here are unaffected by that choice.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.metrics.error import (
    field_count,
    normalized_error,
    result_column_errors,
)
from repro.metrics.trace import ConvergenceTrace
from repro.observability import events as _events
from repro.observability import metrics as _metrics
from repro.observability import profile as _profile
from repro.routing.cost import TransmissionCounter

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "AsynchronousGossip",
    "DrawStream",
    "GossipRunResult",
    "check_state_shape",
    "drive_ticks",
    "split_streams",
]

#: Upper bound on one vectorized owner-sampling block.  Large enough to
#: amortize the RNG call, small enough to keep peak memory trivial.
DEFAULT_BLOCK_SIZE = 8192


class DrawStream:
    """A protocol generator's doubles, fetched in chunks, served one by one.

    At strides ``>= 2`` :func:`drive_ticks` hands this to every ``tick``
    (and ``tick_block``) in place of the protocol generator.  It serves
    the three draws a tick may make, all mapped from the doubles of
    ``rng.random`` in stream order:

    * ``random()`` / ``random(size)`` — the doubles themselves, the same
      values in the same order as ``Generator.random``;
    * ``integers(k)`` — ``int(u * k)``, a uniform index below ``k``;
    * ``uniform(lo, hi)`` — ``lo + (hi - lo) * u``, the formula of
      ``Generator.uniform``.

    One continuous stream makes a strided run independent of how its
    owners were chunked into blocks, even when a tick draws a variable
    number of doubles (rejection sampling).
    """

    __slots__ = ("_rng", "_block", "_doubles", "_pos")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._block = np.empty(0)
        self._doubles: list[float] = []
        self._pos = 0

    def _refill(self) -> None:
        self._block = self._rng.random(DEFAULT_BLOCK_SIZE)
        self._doubles = self._block.tolist()
        self._pos = 0

    def _next(self) -> float:
        pos = self._pos
        if pos == len(self._doubles):
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._doubles[pos]

    def random(self, size: int | None = None):
        """The next double, or an array of the next ``size`` doubles."""
        if size is None:
            return self._next()
        parts = []
        while size:
            if self._pos == len(self._doubles):
                self._refill()
            take = min(size, len(self._doubles) - self._pos)
            parts.append(self._block[self._pos : self._pos + take])
            self._pos += take
            size -= take
        return np.concatenate(parts) if parts else np.empty(0)

    def integers(self, k: int) -> int:
        """A uniform index in ``range(k)``: ``int(u * k)``."""
        return int(self._next() * k)

    def uniform(self, lo: float, hi: float) -> float:
        """A uniform double in ``[lo, hi)``: ``lo + (hi - lo) * u``."""
        return lo + (hi - lo) * self._next()


def check_state_shape(initial_values: np.ndarray, n: int) -> np.ndarray:
    """Validate gossip state: ``(n,)`` scalar or ``(n, k)`` field matrix.

    Returns the float64 array.  The two layouts share every protocol
    code path: NumPy row operations (``values[i]``) act on a scalar or
    a length-``k`` row identically, and the oracular error reduces an
    ``(n, k)`` matrix to its primary field (column 0) — see
    :mod:`repro.metrics.error`.
    """
    initial_values = np.asarray(initial_values, dtype=np.float64)
    ok = initial_values.shape == (n,) or (
        initial_values.ndim == 2
        and initial_values.shape[0] == n
        and initial_values.shape[1] >= 1
    )
    if not ok:
        raise ValueError(
            f"need one value (or one row of fields) per node: expected "
            f"shape ({n},) or ({n}, k), got {initial_values.shape}"
        )
    return initial_values


@dataclass
class GossipRunResult:
    """Outcome of one gossip run.

    Attributes
    ----------
    algorithm:
        Name of the algorithm that produced the run.
    values:
        Final sensor values.
    initial_values:
        The values the run started from (for re-deriving any error metric).
    transmissions:
        Per-category transmission counts, including ``"total"``.
    ticks:
        Global clock ticks consumed.
    converged:
        Whether the ε-criterion was met within the tick budget.
    epsilon:
        The target normalized error.
    error:
        Final normalized error ``‖x(t)‖/‖x(0)‖`` (primary field for
        multi-field runs).
    trace:
        Thinned (transmissions → error) curve.  For a run assembled by
        the engine's per-column multi-field fallback this is **column
        0's curve only**, while ``ticks``/``transmissions`` aggregate
        all ``k`` per-column passes — so the trace's final point ends at
        a fraction of ``total_transmissions`` there.  Native multi-field
        and scalar runs have no such split: one pass, one curve.
    column_errors:
        Per-column final normalized errors of an ``(n, k)`` multi-field
        run (``column_errors[0] == error``); ``None`` for scalar runs.
    """

    algorithm: str
    values: np.ndarray
    initial_values: np.ndarray
    transmissions: dict[str, int]
    ticks: int
    converged: bool
    epsilon: float
    error: float
    trace: ConvergenceTrace
    column_errors: np.ndarray | None = None

    @property
    def total_transmissions(self) -> int:
        return self.transmissions["total"]

    @property
    def fields(self) -> int:
        """Number of stacked fields the run carried (1 for scalar state)."""
        return field_count(self.values)


class AsynchronousGossip(ABC):
    """Base class: one protocol action per Poisson clock tick.

    Parameters
    ----------
    n:
        Number of nodes; tick owners are drawn uniformly from ``range(n)``.
    """

    name = "abstract-gossip"

    #: Whether ``tick`` handles an ``(n, k)`` field matrix
    #: natively (row operations, no scalar assumptions, no view aliasing).
    #: Conservative default for third-party subclasses: the engine falls
    #: back to per-column scalar passes (with a
    #: :class:`repro.engine.batching.MultiFieldFallbackWarning`) instead
    #: of risking silent broadcasting bugs.  Every protocol in this
    #: library declares ``True``; see ``docs/workloads.md`` for the audit
    #: checklist a ``tick`` implementation must pass.
    supports_multifield = False

    #: Whether one instance may be rerun from fresh initial values —
    #: what the engine's per-column multi-field fallback does ``k``
    #: times.  Protocols that carry state *across* runs (an epoch
    #: clock, a partially consumed loss stream — e.g. the dynamics
    #: wrapper) must set ``False`` so the fallback rejects them instead
    #: of silently replaying columns on spent state.
    multifield_fallback_safe = True

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"gossip needs at least two nodes, got {n}")
        self.n = n

    @abstractmethod
    def tick(
        self,
        node: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: np.random.Generator | DrawStream,
    ) -> None:
        """Execute ``node``'s action for one clock tick, in place.

        ``rng`` is the run's generator at stride 1 and a
        :class:`DrawStream` at strides ``>= 2``, so a tick may call only
        ``rng.random``, ``rng.integers(k)`` and ``rng.uniform(lo, hi)``.
        """

    def tick_block(
        self,
        owners: np.ndarray,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: DrawStream,
    ) -> None:
        """Execute a pre-sampled block of tick owners, in order, in place.

        At strides ``>= 2`` the tick driver (:func:`drive_ticks`)
        pre-samples owners in vectorized blocks and calls this hook, which
        runs :meth:`tick` for each owner on the protocol's
        :class:`DrawStream`.  An override must equal this loop bit for
        bit: the same values, ledger and draws from ``rng``.
        """
        tick = self.tick
        for node in owners.tolist():
            tick(node, values, counter, rng)

    def tick_budget(self, epsilon: float) -> int:
        """Default safety budget of clock ticks for :meth:`run`.

        Generous (an order of magnitude above the expected need) so that a
        healthy run never hits it; subclasses refine it with their own
        convergence orders.
        """
        return int(50 * self.n * self.n * (1 + abs(np.log(max(epsilon, 1e-12)))))

    def run(
        self,
        initial_values: np.ndarray,
        epsilon: float,
        rng: np.random.Generator,
        max_ticks: int | None = None,
        check_every: int | None = None,
        trace_thinning: float = 0.02,
    ) -> GossipRunResult:
        """Run until ``‖x(t)‖ ≤ ε·‖x(0)‖`` or the tick budget is exhausted.

        Parameters
        ----------
        initial_values:
            One value per node (shape ``(n,)``), or an ``(n, k)`` matrix
            of ``k`` stacked fields; the run works on a copy.  Multi-field
            runs apply every protocol action to all columns at once; the
            stopping rule (and the trace) track the primary field —
            column 0 — exactly as a scalar run would, so column 0 stays
            bit-identical to the legacy scalar run on the same seed.
        epsilon:
            Target normalized error (the paper's ε).
        rng:
            Drives clock-tick owners and all protocol randomness.
        max_ticks:
            Overrides :meth:`tick_budget`.
        check_every:
            Error-check (and trace) period in ticks; defaults to
            ``max(1, n // 4)`` so checking adds O(1) amortised work per tick.
        """
        initial_values = check_state_shape(initial_values, self.n)
        if initial_values.ndim == 2 and not self.supports_multifield:
            # Before multi-field state existed this raised a shape error;
            # admitting a matrix into an unaudited tick would let scalar
            # assumptions (flattening reductions, row-view aliasing)
            # corrupt columns silently.  The engine's run_batched offers
            # the audited per-column fallback; this legacy entry refuses.
            raise TypeError(
                f"{self.name!r} does not declare supports_multifield, so "
                f"run() only accepts scalar ({self.n},) state — audit "
                "tick against the checklist in "
                "docs/workloads.md and declare supports_multifield = "
                "True, or use repro.engine.run_batched, whose per-column "
                "fallback runs unaudited protocols one field at a time"
            )
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        period = max(1, self.n // 4) if check_every is None else max(1, check_every)
        return drive_ticks(
            self,
            initial_values,
            epsilon,
            rng,
            period=period,
            check_stride=1,
            max_ticks=max_ticks,
            trace_thinning=trace_thinning,
        )


def split_streams(
    rng: np.random.Generator,
) -> tuple[np.random.Generator, np.random.Generator]:
    """Split ``rng`` into deterministic (owner, protocol) child streams.

    Spawning (rather than sharing one stream) is what lets the owner draws
    be vectorized without perturbing the protocol's randomness.
    """
    owner_rng, protocol_rng = rng.spawn(2)
    return owner_rng, protocol_rng


def drive_ticks(
    algorithm: AsynchronousGossip,
    initial_values: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    *,
    period: int,
    check_stride: int,
    max_ticks: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    trace_thinning: float = 0.02,
) -> GossipRunResult:
    """The one tick loop: run ``period``-tick windows until ε or the budget.

    Callers validate their arguments first
    (:meth:`AsynchronousGossip.run`,
    :func:`repro.engine.batching.run_batched`).  Each window executes its
    ticks, then the oracular error is checked, traced and compared with
    ``epsilon``.  Only the source of tick owners depends on
    ``check_stride``:

    * ``1`` — one interleaved stream: each tick draws its owner from
      ``rng`` and hands ``rng`` to :meth:`AsynchronousGossip.tick`, the
      legacy draw order.  A window cut short by the budget ends the run
      without a check, as the per-tick loop always did.
    * ``>= 2`` — :func:`split_streams`: owners come in vectorized blocks
      of at most ``block_size`` from the owner stream and run through
      :meth:`AsynchronousGossip.tick_block` on a :class:`DrawStream` over
      the protocol stream; every window ends with a check.

    Windows, checks, spans, metrics and trace events all live here, so
    every stride is instrumented alike.  Metrics and spans are
    window-granular — a few registry updates and two spans per window,
    never per tick — which keeps their enabled overhead inside E22's
    ≤1.05× bar.
    """
    budget = algorithm.tick_budget(epsilon) if max_ticks is None else max_ticks
    n = algorithm.n
    values = initial_values.copy()
    counter = TransmissionCounter()
    recorder = _events.active()
    if check_stride == 1:
        tick, draw = algorithm.tick, rng.integers

        def advance(count: int) -> None:
            for _ in range(count):
                tick(int(draw(n)), values, counter, rng)

    else:
        owner_rng, protocol_rng = split_streams(rng)
        stream = DrawStream(protocol_rng)

        def advance(count: int) -> None:
            done = 0
            while done < count:
                block = min(block_size, count - done)
                owners = owner_rng.integers(n, size=block)
                algorithm.tick_block(owners, values, counter, stream)
                done += block
                if recorder is not None:
                    recorder.emit({"e": "batch", "ticks": block})

    trace = ConvergenceTrace(thinning=trace_thinning)
    error = normalized_error(values, initial_values)
    trace.force_record(0, 0, error)
    if recorder is not None:
        recorder.emit(
            _events.start_event(algorithm, initial_values, epsilon, check_stride)
        )
    # Instruments are resolved once, out here; the loop only increments.
    registry = _metrics.active()
    if registry is not None:
        registry.counter(
            "repro_engine_runs_total", "Engine runs started."
        ).inc(algorithm=algorithm.name)
        ticks_counter = registry.counter(
            "repro_engine_ticks_total", "Ticks executed by the engine."
        )
        checks_counter = registry.counter(
            "repro_engine_checks_total", "Error checks run."
        )
        error_gauge = registry.gauge(
            "repro_engine_error", "Normalized error at the last check."
        )
    ticks = 0
    converged = error <= epsilon
    while not converged and ticks < budget:
        window = min(period, budget - ticks)
        with _profile.span("window"):
            advance(window)
        ticks += window
        if registry is not None:
            ticks_counter.inc(window, algorithm=algorithm.name)
        if window < period and check_stride == 1:
            break  # the per-tick loop checked on period boundaries only
        with _profile.span("check"):
            error = normalized_error(values, initial_values)
        trace.record(counter.total, ticks, error)
        converged = error <= epsilon
        if recorder is not None:
            recorder.emit(
                {"e": "check", "ticks": ticks, "tx": counter.total, "error": error}
            )
        if registry is not None:
            checks_counter.inc(algorithm=algorithm.name)
            error_gauge.set(error, algorithm=algorithm.name)
    error = normalized_error(values, initial_values)
    converged = error <= epsilon
    trace.force_record(counter.total, ticks, error)
    if recorder is not None:
        recorder.emit(
            {
                "e": "end",
                "ticks": ticks,
                "tx": counter.snapshot(),
                "error": error,
                "converged": converged,
                "values": values.tolist(),
            }
        )
    return GossipRunResult(
        algorithm=algorithm.name,
        values=values,
        initial_values=initial_values,
        transmissions=counter.snapshot(),
        ticks=ticks,
        converged=converged,
        epsilon=epsilon,
        error=error,
        trace=trace,
        column_errors=result_column_errors(values, initial_values),
    )
