"""Batched tick execution: vectorized owner sampling, strided error checks.

Every tick-driven run goes through one loop,
:func:`repro.gossip.base.drive_ticks`, which executes ticks in windows
of ``check_stride * max(1, n // 4)`` and re-measures the oracular error
at the end of each window.  :func:`run_batched` validates a run, picks
its fallbacks (per-column multi-field state, round-based protocols) and
hands the rest to that loop.  The stride decides where tick owners come
from:

* ``check_stride=1`` — one interleaved stream: each tick draws its owner
  and then its protocol randomness from the caller's generator, the
  legacy :meth:`~repro.gossip.base.AsynchronousGossip.run` order, so
  results are bit-identical to it.
* ``check_stride >= 2`` — **owner batching**: the caller's generator is
  split into an *owner* stream and a *protocol* stream via deterministic
  ``Generator.spawn``; owners are pre-sampled in vectorized NumPy blocks
  (one ``Generator.integers`` call per block instead of one per tick)
  and handed to the protocol's
  :meth:`~repro.gossip.base.AsynchronousGossip.tick_block` hook, which
  protocols may override to amortize their own per-tick randomness too.
  The error check runs ``check_stride`` times less often.

Owner draws and protocol draws each consume their stream in tick order
with a fixed number of draws per tick, so a strided result is a pure
function of ``(rng state, check_stride)`` — independent of the internal
``block_size`` used to chunk the sampling (verified in the test suite).
Strided trajectories are statistically equivalent to stride 1 but not
bit-identical (the RNG stream is split, and the coarser stopping rule can
only run *past* the crossing, never stop short of it).
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
from repro.routing.cost import TransmissionCounter

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "MultiFieldFallbackWarning",
    "ScalarFallbackWarning",
    "UncenteredFieldWarning",
    "batching_capability",
    "multifield_capability",
    "run_batched",
    "split_streams",
]

class ScalarFallbackWarning(UserWarning):
    """A ``check_stride > 1`` run hit the scalar per-tick fallback.

    The protocol never overrode
    :meth:`~repro.gossip.base.AsynchronousGossip.tick_block`, so the
    batched engine is only amortizing owner sampling and error checks —
    the protocol's own per-tick randomness still runs one scalar RNG call
    at a time.  The run is correct; it is just not getting the fast path
    the stride suggests it should.

    The warning message points at ``docs/batching.md`` (the batching
    contract and how to write a ``tick_block`` override) and at
    :func:`repro.experiments.config.protocol_batching`, which reports the
    capability (``"block"`` / ``"scalar"`` / ``"rounds"``) of every
    registered protocol without running anything.
    """


class MultiFieldFallbackWarning(UserWarning):
    """An ``(n, k)`` run hit the per-column scalar fallback.

    The protocol does not declare
    :attr:`~repro.gossip.base.AsynchronousGossip.supports_multifield`,
    so the engine cannot hand it a field matrix: an unaudited ``tick``
    may hold scalar assumptions (flattening reductions, row-view
    aliasing) that broadcast silently instead of failing.  The run is
    still correct — the engine executes ``k`` independent scalar passes,
    column 0 on the caller's RNG (bit-identical to a plain scalar run)
    and each secondary column on its own spawned child stream — but all
    routing/sampling amortization is lost: the work is exactly the
    ``k`` serial runs the multi-field engine exists to replace.

    The warning message points at ``docs/workloads.md`` (the audit
    checklist a ``tick`` must pass before declaring support) and at
    :func:`repro.experiments.config.multifield_support`, which reports
    every registered protocol's capability without running anything.
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

    * ``"block"``  — overrides ``tick_block``; the vectorized fast path.
    * ``"scalar"`` — tick-driven but falls back to per-tick execution
      inside each block (the base-class hook).
    * ``"rounds"`` — not tick-driven at all (e.g. the hierarchical
      executor); the engine passes it through to its native ``run``.

    >>> from repro.gossip.randomized import RandomizedGossip
    >>> batching_capability(RandomizedGossip)
    'block'
    >>> from repro.gossip.hierarchical.rounds import HierarchicalGossip
    >>> batching_capability(HierarchicalGossip)
    'rounds'
    """
    cls = algorithm if isinstance(algorithm, type) else type(algorithm)
    if not issubclass(cls, AsynchronousGossip):
        return "rounds"
    if cls.tick_block is AsynchronousGossip.tick_block:
        return "scalar"
    return "block"


def multifield_capability(algorithm) -> str:
    """How ``algorithm`` executes an ``(n, k)`` field matrix.

    Returns ``"native"`` when the protocol declares
    :attr:`~repro.gossip.base.AsynchronousGossip.supports_multifield`
    (one pass mixes all ``k`` columns on shared routing/sampling), or
    ``"per-column"`` when the engine would fall back to ``k`` serial
    scalar passes with a :class:`MultiFieldFallbackWarning`.

    >>> from repro.gossip.randomized import RandomizedGossip
    >>> multifield_capability(RandomizedGossip)
    'native'
    """
    # getattr on the instance, not its type: DynamicGossip propagates the
    # wrapped protocol's capability as an instance attribute.
    return (
        "native"
        if getattr(algorithm, "supports_multifield", False)
        else "per-column"
    )


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
        bit-identical to the scalar run on the same seed.  Protocols
        without :attr:`~repro.gossip.base.AsynchronousGossip.supports_multifield`
        fall back to per-column scalar passes with a
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
    if (
        initial_values.ndim == 2
        and multifield_capability(algorithm) != "native"
    ):
        if not getattr(algorithm, "multifield_fallback_safe", True):
            # A protocol carrying state across runs (a DynamicGossip
            # wrapper: its epoch clock and loss streams advance) cannot
            # be rerun per column — columns 1..k-1 would replay on a
            # spent fault timeline with no error raised.
            raise TypeError(
                f"{getattr(algorithm, 'name', type(algorithm).__name__)!r} "
                "declares multifield_fallback_safe=False (its state "
                "advances across runs), so the per-column multi-field "
                "fallback cannot rerun it for each field column; wrap a "
                "protocol that declares supports_multifield (every "
                "tick-driven registered protocol does) or pass scalar "
                "(n,) state"
            )
        name = getattr(algorithm, "name", type(algorithm).__name__)
        columns = initial_values.shape[1]
        reason = getattr(algorithm, "multifield_fallback_reason", None)
        if reason is not None:
            # Declared per-column by design (e.g. hierarchical): advising
            # the user to flip supports_multifield would be harmful.
            message = (
                f"{name!r} runs multi-field state per column by design "
                f"({reason}): its {columns} field columns execute as "
                "independent scalar passes — correct results at the "
                "serial cost, with no cross-field amortization (see "
                "docs/workloads.md)"
            )
        else:
            message = (
                f"{name!r} does not declare supports_multifield: the "
                f"engine is running its {columns} field columns as "
                "independent scalar passes (column 0 on the caller's "
                "RNG, secondaries on spawned child streams), so routing "
                "and owner sampling are not amortized across fields — "
                "audit tick/tick_block against the multi-field checklist "
                "in docs/workloads.md and declare supports_multifield = "
                "True for the single-pass fast path; "
                "repro.experiments.config.multifield_support reports "
                "every registered protocol's capability"
            )
        warnings.warn(message, MultiFieldFallbackWarning, stacklevel=stacklevel)
        # The fallback executes k whole runs inside this one; tracing
        # them would interleave k start/end streams into one file, so
        # the recorder is suspended (docs/observability.md lists the
        # traceable configurations).
        with _events.suspend():
            return _run_per_column(
                algorithm,
                initial_values,
                epsilon,
                rng,
                check_stride=check_stride,
                max_ticks=max_ticks,
                block_size=block_size,
                trace_thinning=trace_thinning,
                # Inner runs sit two frames deeper (this frame plus
                # _run_per_column's) from the user's call site.
                stacklevel=stacklevel + 2,
            )
    if epsilon > 0:
        _warn_if_uncentered(
            algorithm, initial_values, epsilon, stacklevel=stacklevel + 1
        )
    if not isinstance(algorithm, AsynchronousGossip):
        # Round-based protocols (e.g. the hierarchical executor) have no
        # global tick loop to batch or stride; they run their native
        # recursion unchanged at every stride.  They also predate the
        # tick-shaped event vocabulary, so tracing stays suspended.
        with _events.suspend():
            return algorithm.run(
                initial_values, epsilon, rng, trace_thinning=trace_thinning
            )
    if check_stride > 1 and batching_capability(algorithm) == "scalar":
        warnings.warn(
            f"{algorithm.name!r} does not override tick_block: "
            f"check_stride={check_stride} amortizes owner sampling and "
            "error checks, but the protocol's per-tick randomness still "
            "runs scalar — implement tick_block for the full fast path. "
            "See docs/batching.md for the tick_block contract and the "
            "protocol batching matrix; "
            "repro.experiments.config.protocol_batching reports every "
            "registered protocol's capability",
            ScalarFallbackWarning,
            stacklevel=stacklevel,
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


def _run_per_column(
    algorithm,
    initial_values: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    **kwargs,
) -> GossipRunResult:
    """The multi-field fallback: ``k`` independent scalar passes.

    Column 0 consumes the caller's generator exactly as a plain scalar
    run would (``Generator.spawn`` derives children from the seed
    sequence without advancing the stream), preserving the column-0
    bit-identity contract; each secondary column runs on its own spawned
    child, so its routing realization is independent — the semantics of
    the serial-sweep baseline the native multi-field path amortizes
    away.  Reuses the protocol instance across columns, which requires
    the protocol to be rerunnable from fresh initial values (every
    tick-driven protocol in this library is).  Protocols declaring
    ``multifield_fallback_safe = False`` — a
    :class:`~repro.dynamics.overlay.DynamicGossip` wrapping an inner
    protocol without multi-field support — are rejected with a
    :class:`TypeError` before this path, because rerunning them would
    replay columns 1..k-1 on a spent fault timeline.

    Ticks and transmissions accumulate across columns (the true serial
    cost); the trace and the scalar ``error`` are column 0's, and the
    per-column final errors land in ``column_errors``.
    """
    fields = initial_values.shape[1]
    runs = [
        run_batched(
            algorithm,
            np.ascontiguousarray(initial_values[:, 0]),
            epsilon,
            rng,
            **kwargs,
        )
    ]
    # Children are spawned only *after* column 0's run: a strided run
    # spawns its own (owner, protocol) children from ``rng``, and those
    # must get the same spawn indices a plain scalar run would hand them
    # for column 0 to stay bit-identical at every stride.
    children = rng.spawn(fields - 1) if fields > 1 else []
    for column_index, child in enumerate(children, start=1):
        runs.append(
            run_batched(
                algorithm,
                np.ascontiguousarray(initial_values[:, column_index]),
                epsilon,
                child,
                **kwargs,
            )
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
