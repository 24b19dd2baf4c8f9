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

import operator
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
from repro.observability.telemetry import (
    FAULT_SERIES,
    LIVE_FRACTION_GAUGE,
    fault_counts,
)
from repro.routing.cost import TransmissionCounter

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "AsynchronousGossip",
    "DrawStream",
    "GossipRunResult",
    "LegacyDrawStream",
    "check_state_shape",
    "draw_pairs",
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


#: ``2**-53``: the spacing of PCG64's ``next_double``.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0


class LegacyDrawStream:
    """A PCG64 generator's scalar draws, replayed from chunked raw words.

    At stride 1 :func:`drive_ticks` draws every owner from this stream
    and hands it to every ``tick`` in place of the run's generator, and
    :class:`~repro.gossip.hierarchical.rounds.HierarchicalGossip` draws
    from it throughout a run.  Each call returns exactly what the same
    call on the generator would return, in the same order, from 64-bit
    words fetched ``RAW_CHUNK`` at a time with ``random_raw``:

    * ``integers(k)`` — NumPy's scalar path for ``1 <= k <= 2**32``: a
      word splits into 32-bit halves, low half first, and the high half
      is kept for the next call (PCG64's ``has_uint32``/``uinteger``);
      Lemire's method rejects while the low product word is below
      ``(2**32 - k) % k``.  ``k == 1`` draws nothing.
    * ``random()`` / ``random(size)`` — ``(w >> 11) * 2**-53`` per word,
      leaving the kept half alone.
    * ``uniform(lo, hi)`` — ``lo + (hi - lo) * random()``.
    * ``pairs(count, bound, second_bounds)`` — a window of ``count``
      ticks that each draw ``i = integers(bound)`` and then an index
      below ``second_bounds[i]``, decoded in one call.

    Prefetching runs the generator ahead, so nothing else may draw from
    it while the stream is open, and :meth:`close` must run (in a
    ``finally``) before anything does: it rewinds the bit generator to
    the state the scalar calls would have left.  Obtain a stream with
    :meth:`open`, which declines any bit generator but PCG64.
    """

    #: Raw words per ``random_raw`` fetch.
    RAW_CHUNK = 4096

    __slots__ = (
        "_bitgen",
        "_start",
        "_words",
        "_pos",
        "_spent",
        "_has_half",
        "_half",
    )

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator
        self._start = self._bitgen.state
        self._words: list[int] = []
        self._pos = 0
        self._spent = 0  # words in chunks already served in full
        self._has_half = bool(self._start["has_uint32"])
        self._half = self._start["uinteger"]

    @classmethod
    def open(cls, rng: np.random.Generator) -> "LegacyDrawStream | None":
        """A stream over ``rng``, or ``None`` unless its bit generator is
        PCG64 (the caller then draws from ``rng`` itself)."""
        if type(rng.bit_generator) is not np.random.PCG64:
            return None
        return cls(rng)

    def _word(self) -> int:
        pos = self._pos
        if pos == len(self._words):
            self._spent += pos
            self._words = self._bitgen.random_raw(self.RAW_CHUNK).tolist()
            pos = 0
        self._pos = pos + 1
        return self._words[pos]

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._word()
        self._has_half = True
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, k: int) -> int:
        """A uniform index in ``range(k)``, as ``Generator.integers(k)``."""
        if type(k) is not int:
            k = operator.index(k)  # a NumPy bound would overflow the products
        if not 1 < k < 0x100000000:
            if k == 1:
                return 0
            if k == 0x100000000:
                return self._uint32()
            raise ValueError(f"integers needs 1 <= k <= 2**32, got {k}")
        if self._has_half:  # `_uint32`, inlined on the hot path
            self._has_half = False
            product = self._half * k
        else:
            word = self._word()
            self._has_half = True
            self._half = word >> 32
            product = (word & 0xFFFFFFFF) * k
        leftover = product & 0xFFFFFFFF
        if leftover < k:
            threshold = (0x100000000 - k) % k
            while leftover < threshold:
                product = self._uint32() * k
                leftover = product & 0xFFFFFFFF
        return product >> 32

    def pairs(
        self, count: int, bound: int, second_bounds: list[int]
    ) -> tuple[list[int], list[int]]:
        """``count`` ticks' draws as two lists ``(first, second)``.

        Each tick draws ``i = integers(bound)``, then ``j =
        integers(second_bounds[i])`` when that bound is at least 2.  A
        bound of 1 gives ``j = 0`` and a bound of 0 gives ``j = -1`` (a
        wasted tick), neither drawing anything.  These are exactly the
        draws, in the same order, of ``count`` pairs of :meth:`integers`
        calls, with Lemire's method run inline on the buffered words.
        ``second_bounds`` holds Python ints below ``2**32``.
        """
        if type(bound) is not int:
            bound = operator.index(bound)
        if not 1 <= bound < 0x100000000:
            raise ValueError(f"pairs needs 1 <= bound < 2**32, got {bound}")
        first: list[int] = []
        second: list[int] = []
        push_first, push_second = first.append, second.append
        words, pos, spent = self._words, self._pos, self._spent
        has_half, half = self._has_half, self._half
        size = len(words)
        k = bound
        remaining = 2 * count  # draws left; odd after the decrement = `i`
        try:
            while remaining:
                remaining -= 1
                if k > 1:
                    while True:  # Lemire: retry while leftover < threshold
                        if has_half:
                            has_half = False
                            product = half * k
                        else:
                            if pos == size:
                                spent += pos
                                words = self._bitgen.random_raw(
                                    self.RAW_CHUNK
                                ).tolist()
                                pos, size = 0, len(words)
                            word = words[pos]
                            pos += 1
                            has_half = True
                            half = word >> 32
                            product = (word & 0xFFFFFFFF) * k
                        leftover = product & 0xFFFFFFFF
                        if leftover >= k or leftover >= (0x100000000 - k) % k:
                            break
                    drawn = product >> 32
                else:
                    drawn = k - 1  # bound 1 -> 0, bound 0 -> -1: no draw
                if remaining & 1:
                    push_first(drawn)
                    k = second_bounds[drawn]
                else:
                    push_second(drawn)
                    k = bound
        finally:
            self._words, self._pos, self._spent = words, pos, spent
            self._has_half, self._half = has_half, half
        return first, second

    def random(self, size: int | None = None):
        """The next double, or an array of the next ``size`` doubles."""
        if size is None:
            return (self._word() >> 11) * _DOUBLE_UNIT
        words = np.array([self._word() for _ in range(size)], dtype=np.uint64)
        return (words >> np.uint64(11)) * _DOUBLE_UNIT

    def uniform(self, lo: float, hi: float) -> float:
        """A uniform double in ``[lo, hi)``, as ``Generator.uniform``."""
        return lo + (hi - lo) * self.random()

    def close(self) -> None:
        """Leave the bit generator where the scalar calls would have."""
        bitgen = self._bitgen
        bitgen.state = self._start
        bitgen.advance(self._spent + self._pos)
        state = bitgen.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        bitgen.state = state


def draw_pairs(
    draws: "LegacyDrawStream | np.random.Generator",
    count: int,
    bound: int,
    second_bounds: list[int],
) -> tuple[list[int], list[int]]:
    """:meth:`LegacyDrawStream.pairs` on any stride-1 draw source.

    A stream decodes the window in one call; any other generator (a bit
    generator other than PCG64) serves the same pairs by scalar
    ``integers`` calls, so each consumer has one code path.
    """
    if type(draws) is LegacyDrawStream:
        return draws.pairs(count, bound, second_bounds)
    integers = draws.integers
    first: list[int] = []
    second: list[int] = []
    for _ in range(count):
        i = int(integers(bound))
        k = second_bounds[i]
        first.append(i)
        second.append(int(integers(k)) if k else -1)
    return first, second


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

    Every subclass runs an ``(n, k)`` field matrix natively: ``values``
    is ``(n,)`` or ``(n, k)``, and a ``tick`` must treat ``values[i]`` as
    a scalar or a length-``k`` row, never flatten a reduction across
    columns, and compute both sides of an exchange before writing either
    row.  Routing and sampling must not read the values, so every column
    rides the scalar run's draws and routes (``docs/workloads.md`` has
    the whole contract).  Round-based protocols, which are not subclasses,
    run a matrix one column at a time instead.

    Parameters
    ----------
    n:
        Number of nodes; tick owners are drawn uniformly from ``range(n)``.
    """

    name = "abstract-gossip"

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

        ``rng`` is a :class:`LegacyDrawStream` (or, for a bit generator
        other than PCG64, the run's generator) at stride 1 and a
        :class:`DrawStream` at strides ``>= 2``, so a tick may call only
        ``rng.random``, ``rng.integers(k)`` and ``rng.uniform(lo, hi)``.
        """

    def tick_window(
        self,
        count: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        draws: "LegacyDrawStream | np.random.Generator",
    ) -> None:
        """Execute one stride-1 window of ``count`` ticks, in place.

        At stride 1 the tick driver (:func:`drive_ticks`) calls this hook
        once per check window.  Each tick draws its owner with
        ``draws.integers(n)`` and runs :meth:`tick` on the same ``draws``
        — the legacy interleaved draw order.  An override must equal this
        loop bit for bit: the same values, ledger and draws.
        """
        tick, draw, n = self.tick, draws.integers, self.n
        for _ in range(count):
            tick(int(draw(n)), values, counter, draws)

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


def _publish_run(
    registry,
    algorithm,
    ticks: int,
    checks: int,
    error: float,
    counter: TransmissionCounter,
    faults_before: "dict[str, float] | None",
) -> None:
    """Publish one run's engine and fault counters to ``registry``.

    Engine series carry the protocol's name; the error gauge is the last
    checked error, so a run that made no check sets none.  For a
    fault-wrapped protocol, each :data:`FAULT_SERIES` counter receives
    the run's movement when it moved; the churn pair and the live
    fraction are published together whenever churn moved.
    """
    labels = {"algorithm": algorithm.name}
    registry.counter("repro_engine_runs_total", "Engine runs started.").inc(
        **labels
    )
    if ticks:
        registry.counter(
            "repro_engine_ticks_total", "Ticks executed by the engine."
        ).inc(ticks, **labels)
    if checks:
        registry.counter("repro_engine_checks_total", "Error checks run.").inc(
            checks, **labels
        )
        registry.gauge(
            "repro_engine_error", "Normalized error at the last check."
        ).set(error, **labels)
    if faults_before is None:
        return
    after = fault_counts(algorithm, counter.by_category)
    moved = {key: after[key] - faults_before[key] for key in FAULT_SERIES}
    churned = bool(moved["crashes"] or moved["recoveries"])
    for key, (series, help_text) in FAULT_SERIES.items():
        if moved[key] or (churned and key in ("crashes", "recoveries")):
            registry.counter(series, help_text).inc(moved[key])
    if churned:
        registry.gauge(*LIVE_FRACTION_GAUGE).set(after["live_fraction"])


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

    * ``1`` — one interleaved stream: each window runs through
      :meth:`AsynchronousGossip.tick_window`, whose base loop draws each
      tick's owner from ``rng`` and hands ``rng`` to
      :meth:`AsynchronousGossip.tick`, the legacy draw order.  A PCG64
      ``rng`` is served through one
      :class:`LegacyDrawStream`, which returns the same draws from
      chunked raw words and is closed in a ``finally``, so ``rng`` ends
      where the scalar calls would have left it.  A window cut short by
      the budget ends the run without a check, as the per-tick loop
      always did.
    * ``>= 2`` — :func:`split_streams`: owners come in vectorized blocks
      of at most ``block_size`` from the owner stream and run through
      :meth:`AsynchronousGossip.tick_block` on a :class:`DrawStream` over
      the protocol stream; every window ends with a check.

    Windows, checks, spans, metrics and trace events all live here, so
    every stride is instrumented alike.  Spans are window-granular (two
    per window, never per tick).  The loop keeps its tick and check
    counts in locals, and an active metrics registry receives them,
    with a fault-wrapped run's fault counters, once, when the run ends
    (:func:`_publish_run`).
    """
    budget = algorithm.tick_budget(epsilon) if max_ticks is None else max_ticks
    n = algorithm.n
    values = initial_values.copy()
    counter = TransmissionCounter()
    recorder = _events.active()
    exact = None  # the stride-1 stream, closed once the windows end
    if check_stride == 1:
        exact = LegacyDrawStream.open(rng)
        draws = rng if exact is None else exact
        tick_window = algorithm.tick_window

        def advance(count: int) -> None:
            tick_window(count, values, counter, draws)

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
    # Spans are resolved once, out here; the loop only enters them.
    window_span, check_span = _profile.span("window"), _profile.span("check")
    registry = _metrics.active()
    faults_before = None if registry is None else fault_counts(algorithm)
    ticks = checks = 0
    converged = error <= epsilon
    try:
        while not converged and ticks < budget:
            window = min(period, budget - ticks)
            with window_span:
                advance(window)
            ticks += window
            if window < period and check_stride == 1:
                break  # the per-tick loop checked on period boundaries only
            with check_span:
                error = normalized_error(values, initial_values)
            checks += 1
            trace.record(counter.total, ticks, error)
            converged = error <= epsilon
            if recorder is not None:
                recorder.emit(
                    {
                        "e": "check",
                        "ticks": ticks,
                        "tx": counter.total,
                        "error": error,
                    }
                )
    finally:
        if exact is not None:
            exact.close()
        if registry is not None:
            _publish_run(
                registry, algorithm, ticks, checks, error, counter, faults_before
            )
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
