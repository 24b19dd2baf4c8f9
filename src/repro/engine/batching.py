"""Batched tick execution: vectorized owner sampling, strided error checks.

Every tick-driven run goes through one loop,
:func:`repro.gossip.base.drive_ticks`, which executes ticks in windows
of ``check_stride * max(1, n // 4)`` and re-measures the oracular error
at the end of each window.  :func:`run_batched` validates a run, passes
round-based protocols to their own executor (one column at a time for
multi-field state) and hands every tick-driven run to that loop.  The
stride decides where the randomness comes from:

* ``check_stride=1`` — one interleaved stream: each tick draws its owner
  and then its protocol randomness from the caller's generator, the
  legacy :meth:`~repro.gossip.base.AsynchronousGossip.run` order, so
  results are bit-identical to it.
* ``check_stride >= 2`` — **owner batching**: the caller's generator is
  split into an *owner* stream and a *protocol* stream via deterministic
  ``Generator.spawn``; owners are pre-sampled in vectorized NumPy blocks
  (one ``Generator.integers`` call per block instead of one per tick)
  and every ``tick`` draws from a
  :class:`~repro.gossip.base.DrawStream` that serves the protocol
  stream's doubles from chunked ``Generator.random`` calls.  The error
  check runs ``check_stride`` times less often.

The protocol stream is one continuous sequence of doubles, consumed in
tick order, so a strided result is a pure function of
``(rng state, check_stride)`` — independent of the internal
``block_size`` used to chunk the owner sampling (verified in the test
suite).  Strided trajectories are statistically equivalent to stride 1
but not bit-identical (the RNG stream is split, integer draws map a
double instead of calling ``Generator.integers``, and the coarser
stopping rule can only run *past* the crossing, never stop short of it).
See ``docs/batching.md`` for the contract a ``tick`` must keep.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.gossip.base import (
    DEFAULT_BLOCK_SIZE,
    AsynchronousGossip,
    GossipRunResult,
    check_state_shape,
    drive_ticks,
    split_streams,
)
from repro.observability import events as _events
from repro.observability import metrics as _metrics
from repro.observability.telemetry import CACHE_SERIES, cache_stats
from repro.routing.cost import TransmissionCounter

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "MultiFieldFallbackWarning",
    "UncenteredFieldWarning",
    "batching_capability",
    "run_batched",
    "split_streams",
]

class MultiFieldFallbackWarning(UserWarning):
    """A round-based protocol ran an ``(n, k)`` matrix one column at a time.

    A round-based protocol (the hierarchical executor) adapts its rounds
    to the one field it measures, so the engine cannot hand it a field
    matrix.  The run is still correct: the engine executes ``k``
    independent scalar passes, column 0 on the caller's RNG
    (bit-identical to a plain scalar run) and each secondary column on
    its own spawned child stream.  But no routing or sampling is shared:
    the work is exactly the ``k`` serial runs that a tick-driven
    protocol's single ``(n, k)`` pass replaces.  Tick-driven protocols
    never raise it.
    """


class UncenteredFieldWarning(UserWarning):
    """A mean-sensitive protocol was handed an uncentred initial field.

    Protocols that declare ``requires_centered_field = True`` (the
    Lemma-1 affine dynamics) only converge on the mean-zero subspace —
    the paper's WLOG ``x̄(0) = 0``.  On an uncentred field the run stalls
    at a deviation floor and burns its whole tick budget.  Centre the
    field first (``values - values.mean()``), as
    ``benchmarks/bench_e09_path_averaging.py`` does.
    """


def _warn_if_uncentered(
    algorithm,
    initial_values: np.ndarray,
    epsilon: float,
    stacklevel: int = 3,
) -> None:
    """Emit :class:`UncenteredFieldWarning` when the run looks futile.

    The deviation floor the offset leakage sustains scales with the
    ratio ``‖offset·1‖ / ‖deviation‖`` (a protocol-dependent constant
    factor away), so only an offset within an order of magnitude of the
    ε target predicts a stall — tiny incidental means (every float field
    has one) converge fine and must not warn.

    Multi-field matrices are audited column by column (each column is an
    independent consensus problem); the first offending column is named.
    """
    if not getattr(algorithm, "requires_centered_field", False):
        return
    matrix = initial_values if initial_values.ndim == 2 else initial_values[:, None]
    for column_index in range(matrix.shape[1]):
        column = matrix[:, column_index]
        deviation = float(np.linalg.norm(column - column.mean()))
        offset = abs(float(column.mean())) * np.sqrt(len(column))
        if offset > 0.1 * epsilon * max(deviation, 1e-300):
            where = (
                ""
                if initial_values.ndim == 1
                else f" (field column {column_index})"
            )
            warnings.warn(
                f"{algorithm.name!r} assumes a mean-zero field (the paper's "
                f"WLOG x̄(0) = 0) but the initial values{where} have mean "
                f"{float(column.mean()):.3g}, large relative to the "
                f"eps={epsilon} target; the run is likely to stall at a "
                "deviation floor instead of converging — centre the field "
                "first (values - values.mean())",
                UncenteredFieldWarning,
                stacklevel=stacklevel,
            )
            return


def batching_capability(algorithm: AsynchronousGossip | type) -> str:
    """How ``algorithm`` executes under the batched engine.

    Returns one of:

    * ``"block"``  — tick-driven: at strides ``>= 2`` owners come in
      vectorized blocks and every ``tick`` draws from one
      :class:`~repro.gossip.base.DrawStream`.  It runs an ``(n, k)``
      field matrix natively and emits the full trace vocabulary.
    * ``"rounds"`` — not tick-driven at all (e.g. the hierarchical
      executor); the engine passes it through to its native ``run``,
      one column at a time for an ``(n, k)`` matrix, and it emits no
      trace events.

    This is the engine's one classifier of how a protocol runs.  Stores
    record its map in ``config.json``; the strings are those older
    stores wrote, so they still resume.

    >>> from repro.gossip.randomized import RandomizedGossip
    >>> batching_capability(RandomizedGossip)
    'block'
    >>> from repro.gossip.hierarchical.rounds import HierarchicalGossip
    >>> batching_capability(HierarchicalGossip)
    'rounds'
    """
    cls = algorithm if isinstance(algorithm, type) else type(algorithm)
    return "block" if issubclass(cls, AsynchronousGossip) else "rounds"


def run_batched(
    algorithm: AsynchronousGossip,
    initial_values: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    *,
    check_stride: int = 1,
    max_ticks: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    trace_thinning: float = 0.02,
    stacklevel: int = 2,
) -> GossipRunResult:
    """Run ``algorithm`` to ε through the batched engine.

    This is where the metrics registry gets the route cache's counts.
    When a registry is active, the run's movement in
    :func:`~repro.observability.telemetry.cache_stats` is added to the
    ``repro_route_cache_*_total`` counters once the run ends, even if
    it raised.  With no registry active the run pays one
    :func:`~repro.observability.metrics.active` read.

    Parameters
    ----------
    algorithm:
        Any :class:`~repro.gossip.base.AsynchronousGossip` (tick-driven,
        batchable), or a round-based protocol exposing the same
        ``run(initial_values, epsilon, rng, trace_thinning=...)`` surface —
        the latter runs its native executor at every stride.
    initial_values:
        One value per node (shape ``(n,)``), or an ``(n, k)`` matrix of
        ``k`` stacked fields.  Multi-field state shares every owner
        draw, target pick, and route across all columns; the stopping
        rule tracks the primary field (column 0), which stays
        bit-identical to the scalar run on the same seed.  Round-based
        protocols run it as per-column scalar passes with a
        :class:`MultiFieldFallbackWarning`.
    epsilon:
        Target normalized error (the paper's ε).
    rng:
        Source of all run randomness.  With ``check_stride=1`` it is
        consumed exactly as the legacy loop consumes it; otherwise it is
        split into owner/protocol child streams.
    check_stride:
        Multiplier on the legacy error-check period ``max(1, n // 4)``.
        ``1`` reproduces :meth:`AsynchronousGossip.run` bit for bit.
    max_ticks:
        Overrides the algorithm's :meth:`tick_budget`.
    block_size:
        Cap on one vectorized owner block; results do not depend on it.
    trace_thinning:
        Passed through to :class:`ConvergenceTrace`.
    stacklevel:
        How many frames above this function the *user's* call site sits,
        for warning attribution (``2``, the default, points at the
        direct caller).  Wrappers that re-enter the engine — the sweep
        executor, the CLI — thread their own depth through so fallback
        warnings name the entry point, not engine internals.
    """
    if check_stride < 1:
        raise ValueError(f"check_stride must be >= 1, got {check_stride}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    initial_values = np.asarray(initial_values, dtype=np.float64)
    if initial_values.ndim == 2 and initial_values.shape[1] == 0:
        # A degenerate zero-field matrix used to slip through to the
        # per-column fallback's column-0 slice (an opaque IndexError) or
        # run native protocols on an empty state; fail loudly at the door.
        raise ValueError(
            "multi-field state needs at least one field column: got shape "
            f"{initial_values.shape}"
        )
    if epsilon > 0:
        _warn_if_uncentered(
            algorithm, initial_values, epsilon, stacklevel=stacklevel + 1
        )
    registry = _metrics.active()
    cache_before = None if registry is None else cache_stats(algorithm)
    try:
        if batching_capability(algorithm) == "rounds":
            # Round-based protocols (e.g. the hierarchical executor) have no
            # global tick loop to batch or stride; they run their native
            # recursion unchanged at every stride, one column at a time on
            # (n, k) state.  They predate the tick-shaped event vocabulary,
            # and a per-column run would interleave k start/end streams into
            # one file, so tracing stays suspended.
            with _events.suspend():
                if initial_values.ndim != 2:
                    return algorithm.run(
                        initial_values, epsilon, rng, trace_thinning=trace_thinning
                    )
                name = getattr(algorithm, "name", type(algorithm).__name__)
                warnings.warn(
                    f"{name!r} is round-based, so it runs multi-field state per "
                    "column by design (an adaptive round structure is an "
                    f"oracle over one field): its {initial_values.shape[1]} "
                    "field columns execute as independent scalar passes — "
                    "correct results at the serial cost, with no cross-field "
                    "amortization (see docs/workloads.md)",
                    MultiFieldFallbackWarning,
                    stacklevel=stacklevel,
                )
                return _run_per_column(
                    algorithm, initial_values, epsilon, rng, trace_thinning
                )
        n = algorithm.n
        initial_values = check_state_shape(initial_values, n)
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        return drive_ticks(
            algorithm,
            initial_values,
            epsilon,
            rng,
            period=check_stride * max(1, n // 4),
            check_stride=check_stride,
            max_ticks=max_ticks,
            block_size=block_size,
            trace_thinning=trace_thinning,
        )
    finally:
        if cache_before is not None:
            # Only counters that moved are touched: a run that routed
            # nothing creates no series.
            cache_after = cache_stats(algorithm)
            for key, (series, help_text) in CACHE_SERIES.items():
                moved = cache_after[key] - cache_before[key]
                if moved:
                    registry.counter(series, help_text).inc(moved)


def _run_per_column(
    algorithm,
    initial_values: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    trace_thinning: float,
) -> GossipRunResult:
    """A round-based protocol's multi-field run: ``k`` scalar passes.

    Column 0 consumes the caller's generator exactly as a plain scalar
    run would (``Generator.spawn`` derives children from the seed
    sequence without advancing the stream), preserving the column-0
    bit-identity contract; each secondary column runs on its own spawned
    child, so its routing realization is independent — the semantics of
    the serial-sweep baseline the native multi-field path amortizes
    away.  Reuses the protocol instance across columns, which requires
    the round-based protocol to be rerunnable from fresh initial values
    (the hierarchical executor is).

    Ticks and transmissions accumulate across columns (the true serial
    cost); the trace and the scalar ``error`` are column 0's, and the
    per-column final errors land in ``column_errors``.
    """
    columns = [
        np.ascontiguousarray(initial_values[:, index])
        for index in range(initial_values.shape[1])
    ]
    runs = [
        algorithm.run(columns[0], epsilon, rng, trace_thinning=trace_thinning)
    ]
    # Children are spawned only *after* column 0's run, so column 0 sees
    # the caller's generator, spawn counter included, exactly as a plain
    # scalar run does.
    for column, child in zip(columns[1:], rng.spawn(len(columns) - 1)):
        runs.append(
            algorithm.run(column, epsilon, child, trace_thinning=trace_thinning)
        )
    counter = TransmissionCounter()
    for run in runs:
        for category, amount in run.transmissions.items():
            if category != "total":
                counter.charge(amount, category)
    return GossipRunResult(
        algorithm=runs[0].algorithm,
        values=np.column_stack([run.values for run in runs]),
        initial_values=initial_values,
        transmissions=counter.snapshot(),
        ticks=sum(run.ticks for run in runs),
        converged=all(run.converged for run in runs),
        epsilon=epsilon,
        error=runs[0].error,
        trace=runs[0].trace,
        column_errors=np.array([run.error for run in runs]),
    )
