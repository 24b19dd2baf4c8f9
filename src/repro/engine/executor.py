"""Parallel sweep executor: deterministic grid cells over worker pools.

A scaling sweep is a grid of independent cells, one per
``(algorithm, n, trial)``.  Each cell derives every RNG stream it needs —
placement, field, run — from the experiment's root seed via the same
:func:`repro.experiments.seeds.spawn_rng` tag paths the serial runner has
always used, so a cell's numbers never depend on which cells ran before
it, or where.  What cells *do* share is work: the protocols of one
``(n, trial)`` run on the same graph and field, so a process that
receives a trial's cells consecutively (the serial loop always does)
builds that substrate once (:func:`cell_substrate`, a one-entry memo),
hands every protocol the same read-only field, and lets the routed
protocols share one exact route table
(:meth:`repro.routing.cache.CachedGreedyRouter.share`).  Sharing is
invisible in the numbers: a sweep fanned across
``concurrent.futures.ProcessPoolExecutor`` workers, or run in any cell
order, produces records identical to a serial sweep on the same seeds
(tested).

:func:`run_sweep_records` is the engine entry point.  It optionally pairs
with a :class:`repro.engine.store.ResultStore`: finished cells are
appended as they complete, and cells already present in the store are
skipped, so an interrupted sweep resumes instead of restarting.
Aggregation into :class:`~repro.experiments.runner.ScalingPoint` rows
stays in :mod:`repro.experiments.runner`, which sits above this module.
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

from repro.engine.batching import batching_capability, run_batched
from repro.observability import events as _events
from repro.observability import profile as _profile
from repro.observability.telemetry import cache_stats, collect_telemetry
from repro.routing.cache import CachedGreedyRouter
from repro.workloads.fields import FIELD_GENERATORS, build_field_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids a layer cycle
    from repro.engine.store import ResultStore
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "CellKey",
    "CellRecord",
    "SweepCell",
    "build_cell_algorithm",
    "build_faulted_algorithm",
    "build_graph",
    "build_instance",
    "build_values",
    "cell_substrate",
    "cell_trace_path",
    "clear_substrate",
    "execute_cell",
    "expand_grid",
    "run_sweep_records",
]

#: How a cell is identified everywhere: (algorithm, n, trial).
CellKey = tuple[str, int, int]


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: run ``algorithm`` at size ``n``, trial ``trial``."""

    algorithm: str
    n: int
    trial: int

    @property
    def key(self) -> CellKey:
        return (self.algorithm, self.n, self.trial)


@dataclass(frozen=True)
class CellRecord:
    """The JSON-serialisable outcome of one executed cell.

    Carries everything aggregation and reporting need (transmission
    counts, convergence) without the arrays and traces of a full
    :class:`~repro.gossip.base.GossipRunResult`, so records are cheap to
    ship between worker processes and to persist.

    ``faults`` is the per-cell fault observability payload
    (:meth:`repro.dynamics.overlay.DynamicGossip.fault_metrics`: aborted
    routes, wasted ticks, lost transmissions, churn counts, live-node
    error); it is ``None`` for fault-free cells, and absent from their
    serialized form, so stores written before the dynamics subsystem
    existed load unchanged.

    ``field_errors`` is the per-column final normalized error of a
    multi-field cell (``field_errors[0] == error``, the primary field);
    it is ``None`` for scalar cells and absent from their serialized
    form, so stores written before the multi-field engine existed load
    unchanged — the same back-compat rule ``faults`` follows.

    ``wall_clock`` (seconds spent in the run itself) and ``telemetry``
    (:func:`repro.observability.telemetry.collect_telemetry`'s flat
    counters) follow the same omitted-when-absent rule, and are
    additionally excluded from equality: two cells with identical
    numbers *are* the same cell no matter how long the machine took, so
    the serial-vs-parallel determinism tests and store resume semantics
    stay byte-comparable.
    """

    algorithm: str
    n: int
    trial: int
    epsilon: float
    transmissions: Mapping[str, int]
    ticks: int
    converged: bool
    error: float
    faults: Mapping[str, float] | None = None
    field_errors: tuple[float, ...] | None = None
    wall_clock: float | None = field(default=None, compare=False)
    telemetry: Mapping[str, float] | None = field(default=None, compare=False)

    @property
    def key(self) -> CellKey:
        return (self.algorithm, self.n, self.trial)

    @property
    def total_transmissions(self) -> int:
        return self.transmissions["total"]

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["transmissions"] = dict(self.transmissions)
        if self.faults is None:
            del payload["faults"]
        else:
            payload["faults"] = dict(self.faults)
        if self.field_errors is None:
            del payload["field_errors"]
        else:
            payload["field_errors"] = list(self.field_errors)
        if self.wall_clock is None:
            del payload["wall_clock"]
        if self.telemetry is None:
            del payload["telemetry"]
        else:
            payload["telemetry"] = dict(self.telemetry)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CellRecord":
        faults = payload.get("faults")
        field_errors = payload.get("field_errors")
        wall_clock = payload.get("wall_clock")
        telemetry = payload.get("telemetry")
        return cls(
            algorithm=str(payload["algorithm"]),
            n=int(payload["n"]),
            trial=int(payload["trial"]),
            epsilon=float(payload["epsilon"]),
            transmissions={
                str(k): int(v) for k, v in payload["transmissions"].items()
            },
            ticks=int(payload["ticks"]),
            converged=bool(payload["converged"]),
            error=float(payload["error"]),
            faults=(
                None
                if faults is None
                else {str(k): float(v) for k, v in faults.items()}
            ),
            field_errors=(
                None
                if field_errors is None
                else tuple(float(v) for v in field_errors)
            ),
            wall_clock=None if wall_clock is None else float(wall_clock),
            telemetry=(
                None
                if telemetry is None
                else {str(k): float(v) for k, v in telemetry.items()}
            ),
        )


def build_graph(config: ExperimentConfig, n: int, trial: int):
    """The ``(n, trial)`` cell's placement graph, seeded by its tags.

    The graph comes from the config's topology family
    (:data:`repro.graphs.generators.TOPOLOGIES`).  For the default
    ``"rgg"`` the seed tags match the historical serial runner exactly,
    so flat-RGG instances are stable across engine versions and identical
    for every algorithm cell of the same ``(n, trial)``; other families
    include the topology name in their graph-seed tag so no two families
    ever share a placement stream.
    """
    # Imported here, not at module top: repro.experiments sits above the
    # engine (its runner imports this package), so the engine only reaches
    # up at call time.
    from repro.experiments.seeds import spawn_rng
    from repro.graphs.generators import build_topology, topology_seed_tags

    # topology_seed_tags keeps the pre-zoo tag shape for the default
    # family so historical instances reproduce bit for bit;
    # build_topology's "rgg" builder consumes the stream exactly as
    # sample_connected did.
    graph_rng = spawn_rng(
        config.root_seed, "graph", *topology_seed_tags(config.topology, n, trial)
    )
    return build_topology(
        config.topology, n, graph_rng, radius_constant=config.radius_constant
    )


def build_values(config: ExperimentConfig, graph, n: int, trial: int):
    """The ``(n, trial)`` cell's initial field (scalar or ``(n, k)`` matrix)."""
    from repro.experiments.seeds import spawn_rng

    field_rng = spawn_rng(config.root_seed, "field", config.field, n, trial)
    if config.fields == 1:
        # The historical scalar path, stream for stream: fields=1 cells
        # are bit-identical to every pre-multi-field engine version.
        return FIELD_GENERATORS[config.field](graph.positions, field_rng)
    # Multi-field cells share the field stream's *prefix*: every
    # workload builder draws the base scalar field first into column
    # 0, so column 0 equals the fields=1 cell's values bit for bit.
    return build_field_matrix(
        config.workload,
        config.field,
        graph.positions,
        field_rng,
        config.fields,
    )


def build_instance(config: ExperimentConfig, n: int, trial: int):
    """Placement, graph and field shared by all algorithms of one trial."""
    graph = build_graph(config, n, trial)
    return graph, build_values(config, graph, n, trial)


#: One-entry per-process memo behind :func:`cell_substrate`:
#: ``(key, graph, values, route_cache)``.  The memo owns the route cache;
#: the graph holds only a weak reference to it.
_memo: "tuple | None" = None


def cell_substrate(config: ExperimentConfig, cell: SweepCell):
    """The ``(graph, values)`` instance ``cell`` runs on, built once per trial.

    A one-entry per-process memo keyed by ``(config, n, trial)``: when a
    process receives a trial's cells consecutively — always in the
    serial loop, whose :func:`expand_grid` order keeps a trial's
    protocols adjacent — it builds the trial's graph and field once and
    hands them to every protocol of the trial, together with a route
    cache shared on the graph (:meth:`CachedGreedyRouter.share`).  Pool
    and service workers take cells one at a time from a shared queue, so
    their consecutive cells often come from different trials and the
    memo misses.  The field array is marked read-only (every run works
    on its own copy), so no cell can perturb the next one's input.
    """
    global _memo
    key = (config, cell.n, cell.trial)
    if _memo is None or _memo[0] != key:
        _memo = None  # free the previous trial's route table first
        graph, values = build_instance(config, cell.n, cell.trial)
        values.flags.writeable = False
        _memo = (key, graph, values, CachedGreedyRouter.share(graph))
    return _memo[1], _memo[2]


def clear_substrate() -> None:
    """Drop :func:`cell_substrate`'s memoized instance and route table."""
    global _memo
    _memo = None


def expand_grid(config: ExperimentConfig) -> list[SweepCell]:
    """All cells of a sweep, in the serial runner's historical order."""
    return [
        SweepCell(algorithm=name, n=n, trial=trial)
        for n in config.sizes
        for trial in range(config.trials)
        for name in config.algorithms
    ]


def build_faulted_algorithm(
    algorithm: str, graph, spec, root_seed: int, n: int, trial: int
):
    """Build ``algorithm`` over a dynamic substrate realising ``spec``.

    The one place the fault wiring lives: the protocol is constructed
    *over* the :class:`~repro.dynamics.overlay.DynamicSubstrate` (so its
    routers read the masked, time-varying adjacency) and wrapped in a
    :class:`~repro.dynamics.overlay.DynamicGossip`.  The schedule seed
    derives from ``(root_seed, "faults", n, trial)`` — *not* from the
    algorithm name — so every protocol of one trial faces the identical
    fault scenario, which is what makes robustness comparisons (and the
    serial-vs-parallel determinism guarantee) meaningful.  The CLI's
    ``run`` command routes through here too (as trial 0) and therefore
    faces the same fault *scenario* as sweep trial 0 — the scenario
    only: the CLI seeds its graph, field, and run streams with its own
    ``cli-*`` tags, so the rest of the randomness differs from the
    sweep cell's.
    """
    from repro.dynamics import DynamicGossip, DynamicSubstrate
    from repro.experiments.config import make_algorithm
    from repro.experiments.seeds import derive_seed

    substrate = DynamicSubstrate(
        graph, spec, seed=derive_seed(root_seed, "faults", n, trial)
    )
    return DynamicGossip(make_algorithm(algorithm, substrate), substrate)


def build_cell_algorithm(
    config: ExperimentConfig, graph, algorithm: str, n: int, trial: int
):
    """The cell's algorithm instance, fault-wrapped when the config asks.

    Fault-free configs build the registered algorithm on ``graph``
    directly — the historical path, bit for bit; enabled fault specs go
    through :func:`build_faulted_algorithm`.
    """
    from repro.experiments.config import make_algorithm

    spec = config.fault_spec()
    if not spec.enabled:
        return make_algorithm(algorithm, graph)
    return build_faulted_algorithm(
        algorithm, graph, spec, config.root_seed, n, trial
    )


def cell_trace_path(trace_dir: "str | Path", cell: SweepCell) -> Path:
    """Where a cell's JSONL trace lands under ``trace_dir``."""
    return Path(trace_dir) / (
        f"{cell.algorithm}__n{cell.n}__t{cell.trial}.jsonl"
    )


def execute_cell(
    config: ExperimentConfig,
    cell: SweepCell,
    check_stride: int = 1,
    trace_dir: "str | Path | None" = None,
    stacklevel: int = 2,
) -> CellRecord:
    """Run one grid cell to ε and summarise it as a :class:`CellRecord`.

    With ``trace_dir`` set, the run executes under an active
    :class:`~repro.observability.events.TraceRecorder` and its event
    stream is written to :func:`cell_trace_path` — annotated with the
    cell key so ``repro replay`` can match the trace to this record.
    Untraceable cells (round-based protocols) run normally and write no
    file.  The capture happens here, inside the (possibly worker-pool)
    process that runs the cell, so tracing works identically under
    serial and parallel sweeps.

    ``stacklevel`` threads through to :func:`run_batched`'s fallback
    warnings so they attribute to this function's caller (``2``, the
    default) or further up — never to engine internals.
    """
    from repro.experiments.seeds import spawn_rng

    with _profile.span("build"):
        graph, values = cell_substrate(config, cell)
        algorithm = build_cell_algorithm(
            config, graph, cell.algorithm, cell.n, cell.trial
        )
    # The route cache may already hold columns (and counts) from the
    # trial's earlier protocols: the cell reports only its own movement.
    cache_before = cache_stats(algorithm)
    run_rng = spawn_rng(config.root_seed, "run", cell.algorithm, cell.n, cell.trial)
    # Round-based protocols emit no events, so a capture would be empty.
    tick_driven = batching_capability(algorithm) == "block"
    tracing = trace_dir is not None and tick_driven
    capture = _events.capture() if tracing else contextlib.nullcontext()
    with capture as recorder:
        started = time.perf_counter()
        with _profile.span("run"):
            result = run_batched(
                algorithm,
                values,
                config.epsilon,
                run_rng,
                check_stride=check_stride,
                stacklevel=stacklevel + 1,
            )
        wall_clock = time.perf_counter() - started
    trace_events = None
    if tracing:
        recorder.annotate(
            cell={"algorithm": cell.algorithm, "n": cell.n, "trial": cell.trial}
        )
        recorder.write(cell_trace_path(trace_dir, cell))
        trace_events = len(recorder)
    multifield_fallback = values.ndim == 2 and not tick_driven
    telemetry = collect_telemetry(
        algorithm,
        wall_clock=wall_clock,
        ticks=result.ticks,
        multifield_fallback=multifield_fallback,
        # The per-column fallback reuses one instance across k nested
        # runs, so its cumulative counters (route-cache hits/misses)
        # cover k runs, not one; the run count annotates the inflation.
        multifield_runs=(values.shape[1] if multifield_fallback else None),
        trace_events=trace_events,
        cache_baseline=cache_before,
    )
    fault_metrics = getattr(algorithm, "fault_metrics", None)
    return CellRecord(
        algorithm=cell.algorithm,
        n=cell.n,
        trial=cell.trial,
        epsilon=config.epsilon,
        transmissions=dict(result.transmissions),
        ticks=result.ticks,
        converged=result.converged,
        error=result.error,
        faults=(
            None
            if fault_metrics is None
            else fault_metrics(result.values, result.initial_values)
        ),
        field_errors=(
            None
            if result.column_errors is None
            else tuple(float(v) for v in result.column_errors)
        ),
        wall_clock=wall_clock,
        telemetry=telemetry,
    )


def run_sweep_records(
    config: ExperimentConfig,
    *,
    workers: int = 1,
    check_stride: int = 1,
    store: "ResultStore | None" = None,
    on_record: Callable[[CellRecord, bool], None] | None = None,
    trace: bool = False,
    stacklevel: int = 2,
) -> dict[CellKey, CellRecord]:
    """Execute (or resume) a sweep grid; returns records keyed by cell.

    Parameters
    ----------
    config:
        The sweep definition; its root seed fixes every cell's randomness.
    workers:
        ``1`` runs cells inline in grid order; ``> 1`` fans pending cells
        across a process pool.  The records are identical either way.
    check_stride:
        Error-check stride forwarded to :func:`run_batched` (``1`` = the
        bit-identical legacy path).
    store:
        Optional :class:`ResultStore`.  Cells it already holds are *not*
        recomputed; newly finished cells are appended as they complete.
        Opening the store enforces the capability guard: a
        ``check_stride > 1`` store refuses to resume if any protocol's
        batching capability (tick-driven ``"block"`` vs round-based
        ``"rounds"``) changed since the store was created.
    on_record:
        Optional callback ``(record, fresh)`` invoked once per grid cell —
        ``fresh`` is False for cells reused from the store.
    trace:
        Capture each freshly executed cell's structured event stream and
        write it as JSONL under ``<store.directory>/traces/`` (requires
        ``store`` — traces live alongside the cells they explain, under
        the same content key).  Cells resumed from the store are not
        re-run and get no trace.
    stacklevel:
        Warning attribution depth: engine fallback warnings point at
        this function's caller by default; wrappers add their own frame.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if trace and store is None:
        raise ValueError(
            "trace=True stores each cell's JSONL alongside the ResultStore "
            "cells; pass a store (traces have no home without one)"
        )
    if store is not None and store.check_stride != check_stride:
        raise ValueError(
            f"store was keyed for check_stride={store.check_stride} but the "
            f"sweep is running with check_stride={check_stride}; mixing "
            "strides in one store would blend non-identical numbers"
        )
    grid = expand_grid(config)
    grid_keys = {cell.key for cell in grid}
    records: dict[CellKey, CellRecord] = {}
    if store is not None:
        store.open()
        for key, record in store.load_records().items():
            if key in grid_keys:
                records[key] = record
                if on_record is not None:
                    on_record(record, False)
    pending = [cell for cell in grid if cell.key not in records]
    trace_dir = store.directory / "traces" if trace else None

    def _finish(record: CellRecord) -> None:
        records[record.key] = record
        if store is not None:
            store.append(record)
        if on_record is not None:
            on_record(record, True)

    if workers == 1 or len(pending) <= 1:
        try:
            for cell in pending:
                _finish(
                    execute_cell(
                        config, cell, check_stride, trace_dir, stacklevel + 1
                    )
                )
        finally:
            clear_substrate()
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(execute_cell, config, cell, check_stride, trace_dir)
                for cell in pending
            ]
            for future in as_completed(futures):
                _finish(future.result())
    return records
