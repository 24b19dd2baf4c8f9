"""Sharded sweep service: coordinator, crash-surviving workers, shard merge.

The fifth engine layer turns the process-pool executor into a *fleet*:
sweep cells are enqueued as leases on a :class:`~repro.engine.queue.LeaseQueue`,
N worker **processes** (:func:`run_worker`, spawned via the
``repro serve-sweep`` / ``repro work`` CLI pair) pull cells, execute them
through the exact per-cell paths the serial engine uses
(:func:`~repro.engine.executor.execute_cell`), and append records to
*per-worker sharded store directories*; a merger
(:func:`merge_shards`) folds the shards back into one canonical
:class:`~repro.engine.store.ResultStore` keyed by the sweep's content key.

The correctness contract is the one PR 1 established for the process
pool, extended one ring out: **serial ≡ parallel ≡ distributed**.  Every
cell derives all of its randomness from the sweep's root seed, so it does
not matter which worker runs it, how many times it runs, or in what
order — the merged store is bit-identical (per canonical record bytes)
to a serial sweep of the same config, *including* runs where workers are
SIGKILLed mid-cell and their leases are reclaimed.  Duplicate
completions (a stalled worker presumed dead that later finishes anyway)
are resolved first-by-cell-key in deterministic shard order, and the
byte-identity of the discarded copy is *asserted*
(:class:`~repro.engine.store.ShardDivergenceError`), which doubles as a
corruption/nondeterminism detector.

Failure handling in one line each (the full matrix lives in
``docs/sweep_service.md``):

* worker dies mid-cell → its lease heartbeat goes stale, a surviving
  worker reclaims and re-executes;
* every worker dies → the coordinator respawns replacements (bounded);
* coordinator dies → completed shards survive on disk; the next
  ``serve-sweep`` merges them before enqueueing only what is missing;
* a shard record disagrees with the canonical store → the merge raises,
  nothing is silently overwritten.

The streaming aggregator (:func:`publish_partial_report`) renders the
partial sweep table after every completed cell, and service telemetry
(queue depth, reclamations, per-worker throughput — built on the PR 6
telemetry conventions via
:func:`repro.observability.telemetry.service_telemetry`) lands in
``<queue>/telemetry.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.engine.executor import (
    CellKey,
    CellRecord,
    clear_substrate,
    execute_cell,
    expand_grid,
)
from repro.engine.queue import (
    DEFAULT_PRIORITY,
    LeaseLost,
    LeaseQueue,
    QueueFull,
    QueueStats,
)
from repro.engine.store import (
    ResultStore,
    atomic_write_text,
    canonical_record_bytes,
    content_key,
)
from repro.observability.metrics import Counter, MetricsRegistry
from repro.observability.server import MetricsServer

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids a layer cycle
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "config_from_payload",
    "config_payload",
    "diff_stores",
    "enqueue_grid",
    "merge_shards",
    "publish_partial_report",
    "run_distributed_sweep",
    "run_sweep_daemon",
    "run_worker",
    "service_manifest",
    "shards_root",
    "worker_store",
]


def config_payload(config: "ExperimentConfig") -> dict:
    """The full, explicit JSON form of a sweep config.

    Unlike the store's content-key payload (which omits defaults for
    back-compat), this round-trips *every* field, so a worker process
    reconstructs exactly the coordinator's config — and the content key
    it derives is asserted against the manifest's.
    """
    return {
        "sizes": list(config.sizes),
        "epsilon": config.epsilon,
        "trials": config.trials,
        "radius_constant": config.radius_constant,
        "field": config.field,
        "root_seed": config.root_seed,
        "algorithms": list(config.algorithms),
        "topology": config.topology,
        "faults": config.faults,
        "fields": config.fields,
        "workload": config.workload,
    }


def config_from_payload(payload: Mapping) -> "ExperimentConfig":
    """Inverse of :func:`config_payload` (the worker-side entry)."""
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        sizes=tuple(int(n) for n in payload["sizes"]),
        epsilon=float(payload["epsilon"]),
        trials=int(payload["trials"]),
        radius_constant=float(payload["radius_constant"]),
        field=str(payload["field"]),
        root_seed=int(payload["root_seed"]),
        algorithms=tuple(str(a) for a in payload["algorithms"]),
        topology=str(payload["topology"]),
        faults=str(payload["faults"]),
        fields=int(payload["fields"]),
        workload=str(payload["workload"]),
    )


def service_manifest(
    config: "ExperimentConfig", check_stride: int = 1, trace: bool = False
) -> dict:
    """The opaque payload a sweep session pins to its queue manifest.

    Carries the full config, the engine stride, the trace flag, and the
    sweep's content key — the key is *recorded*, not re-derived, so
    workers can assert that the service layer did not perturb it.
    """
    return {
        "config": config_payload(config),
        "check_stride": int(check_stride),
        "trace": bool(trace),
        "key": content_key(config, check_stride),
    }


def shards_root(queue_dir: "str | os.PathLike") -> Path:
    """Where a queue session's per-worker shard stores live."""
    return Path(queue_dir) / "shards"


def worker_store(
    queue_dir: "str | os.PathLike",
    worker_id: str,
    config: "ExperimentConfig",
    check_stride: int = 1,
) -> ResultStore:
    """One worker's private shard: a full ResultStore under its own root.

    Shards reuse the canonical store layout (``<key>/cells.jsonl`` plus
    ``traces/``), so every existing tool — resume, ``repro replay``,
    reporting — works on a shard directly, and the merger is a plain
    record fold rather than a format conversion.
    """
    return ResultStore(
        shards_root(queue_dir) / worker_id, config, check_stride
    )


def _parse_cells_jsonl(path: Path) -> list[CellRecord]:
    """Records in one ``cells.jsonl``, in append order, torn tail skipped."""
    records: list[CellRecord] = []
    if not path.exists():
        return records
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(CellRecord.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            continue  # truncated tail of a killed worker
    return records


def merge_shards(
    store: ResultStore, shards: "str | os.PathLike"
) -> dict[str, int]:
    """Fold every worker shard under ``shards`` into the canonical store.

    Shards are visited in sorted worker-id order and their records in
    append order, so the merge is deterministic; first-by-cell-key wins
    and every duplicate is byte-verified
    (:meth:`~repro.engine.store.ResultStore.merge_records` — raises
    :class:`~repro.engine.store.ShardDivergenceError` on divergence).
    Trace files ride along: a cell's JSONL trace is copied into the
    canonical ``<key>/traces/`` unless one is already there (the same
    first-wins rule; duplicate traces of a deterministic cell are
    identical).

    Returns cumulative counts:
    ``{"shards": ..., "appended": ..., "duplicates": ..., "traces": ...}``.
    Missing or foreign-keyed shard directories contribute nothing — a
    shard only merges through the content key the store itself uses.
    """
    store.open()
    shards_path = Path(shards)
    report = {"shards": 0, "appended": 0, "duplicates": 0, "traces": 0}
    if not shards_path.is_dir():
        return report
    for shard_dir in sorted(p for p in shards_path.iterdir() if p.is_dir()):
        cells_path = shard_dir / store.key / "cells.jsonl"
        records = _parse_cells_jsonl(cells_path)
        if not records:
            continue
        report["shards"] += 1
        outcome = store.merge_records(records, source=str(cells_path))
        report["appended"] += outcome["appended"]
        report["duplicates"] += outcome["duplicates"]
        trace_dir = shard_dir / store.key / "traces"
        if trace_dir.is_dir():
            target_dir = store.directory / "traces"
            target_dir.mkdir(parents=True, exist_ok=True)
            for trace in sorted(trace_dir.glob("*.jsonl")):
                target = target_dir / trace.name
                if not target.exists():
                    shutil.copyfile(trace, target)
                    report["traces"] += 1
    return report


def _landed_records(
    store: ResultStore, shards: "str | os.PathLike"
) -> dict[CellKey, CellRecord]:
    """Everything landed so far: canonical store ∪ all worker shards.

    First-wins on overlap (canonical store first, then shards in sorted
    worker-id order); divergence checking is the *merge*'s job — this
    union is the crash-tolerant read path the streaming aggregator and
    the live metrics endpoint share, so it must never raise on a torn
    or half-written shard.
    """
    records: dict[CellKey, CellRecord] = dict(store.load_records())
    shards_path = Path(shards)
    if shards_path.is_dir():
        for shard_dir in sorted(
            p for p in shards_path.iterdir() if p.is_dir()
        ):
            for record in _parse_cells_jsonl(
                shard_dir / store.key / "cells.jsonl"
            ):
                records.setdefault(record.key, record)
    return records


def publish_partial_report(
    config: "ExperimentConfig",
    store: ResultStore,
    shards: "str | os.PathLike",
    out_path: "str | os.PathLike",
) -> int:
    """Render the partial sweep table from everything landed so far.

    The streaming aggregator: the union of the canonical store and every
    shard's records (:func:`_landed_records`) is aggregated through the
    standard reporting path and written atomically as Markdown
    (:func:`~repro.engine.store.atomic_write_text` — a reader never sees
    a torn report).  Returns the number of cells the report covers.
    """
    from repro.experiments.report import render_partial_markdown

    records = _landed_records(store, shards)
    atomic_write_text(out_path, render_partial_markdown(config, records))
    return len(records)


def _write_service_telemetry(
    queue: LeaseQueue,
    path: Path,
    registry: "MetricsRegistry | None" = None,
    service: "Mapping | None" = None,
) -> dict:
    """Snapshot queue health + per-worker throughput to ``path``.

    When the coordinator is serving live metrics, the same registry
    snapshot the ``/metrics`` endpoint would render is embedded under a
    ``"metrics"`` key, so the on-disk telemetry and the scrape endpoint
    can never drift apart.  ``service`` (daemon flag, drain state,
    respawn count, grid count…) lands under a ``"service"`` key.
    """
    from repro.observability.telemetry import service_telemetry

    payload = service_telemetry(
        queue.stats(), queue.done_log(), service=service
    )
    if registry is not None:
        payload["metrics"] = registry.snapshot()
    atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return payload


#: Route-cache counters a cell record carries home in its telemetry,
#: mapped to the fleet-wide series the coordinator republishes them as.
_RECORD_CACHE_SERIES = {
    "cache_hits": "repro_route_cache_hits_total",
    "cache_misses": "repro_route_cache_misses_total",
    "cache_invalidations": "repro_route_cache_invalidations_total",
    "cache_repairs": "repro_route_cache_repairs_total",
    "cache_drops": "repro_route_cache_drops_total",
}


def _set_total(counter: Counter, value: float, **labels) -> None:
    """``set_total`` clamped against transient dips.

    Coordinator totals are re-derived from on-disk state (done markers,
    shard files) that only grows, but a torn read can make one sample
    *look* smaller for a moment.  Publishing must never crash the
    coordinator, so a sample below the exported value simply holds the
    counter where it is.
    """
    counter.set_total(max(float(value), counter.value(**labels)), **labels)


def _update_service_metrics(
    registry: MetricsRegistry,
    queue: LeaseQueue,
    stores: "Iterable[ResultStore]",
    shards: "str | os.PathLike",
) -> None:
    """Refresh the coordinator's registry from queue + landed records.

    Called whenever the done count moves (and once at startup, so every
    pinned series exists from the first scrape).  Queue state feeds the
    depth gauges and completion counters directly — ``repro_queue_depth``
    is published both as the bare total and split per priority class
    (``{priority="p0"}``…); per-worker throughput comes through the
    standard telemetry aggregation; and engine-level route-cache totals
    — which accumulate in *worker* processes, invisible to this one —
    are recovered by summing the ``cache_*`` telemetry each landed
    :class:`CellRecord` carries.  ``stores`` holds one canonical store
    per registered grid (one-shot sessions pass exactly one).
    """
    from repro.observability.telemetry import service_telemetry

    stats = queue.stats()
    depth = registry.gauge(
        "repro_queue_depth", "Cells claimable right now."
    )
    depth.set(stats.pending)
    for index, count in enumerate(stats.pending_by_priority):
        depth.set(count, priority=f"p{index}")
    cells = registry.gauge(
        "repro_queue_cells", "Queue composition by cell state."
    )
    cells.set(stats.pending, state="pending")
    cells.set(stats.leased, state="leased")
    cells.set(stats.done, state="done")
    _set_total(
        registry.counter(
            "repro_cells_completed_total", "Cells completed fleet-wide."
        ),
        stats.done,
    )
    _set_total(
        registry.counter(
            "repro_queue_reclamations_total",
            "Stale leases reclaimed from presumed-dead workers.",
        ),
        stats.reclamations,
    )
    snapshot = service_telemetry(stats, queue.done_log())
    for worker, slot in sorted(snapshot["workers"].items()):
        _set_total(
            registry.counter(
                "repro_worker_cells_total", "Cells completed per worker."
            ),
            slot["cells"],
            worker=worker,
        )
        registry.gauge(
            "repro_worker_cells_per_sec",
            "Per-worker throughput over lease-held time.",
        ).set(slot["cells_per_sec"], worker=worker)
    sums = {series: 0.0 for series in _RECORD_CACHE_SERIES.values()}
    for store in stores:
        for record in _landed_records(store, shards).values():
            telemetry = record.telemetry or {}
            for field, series in _RECORD_CACHE_SERIES.items():
                sums[series] += float(telemetry.get(field, 0.0))
    for series, total in sums.items():
        _set_total(
            registry.counter(
                series, "Route-cache total summed from landed cell records."
            ),
            total,
        )


def _count_merge(registry: "MetricsRegistry | None", report: dict) -> None:
    """Fold one :func:`merge_shards` report into the merge counters."""
    if registry is None:
        return
    registry.counter(
        "repro_merge_appended_total", "Shard records merged into the store."
    ).inc(report["appended"])
    registry.counter(
        "repro_merge_duplicates_total",
        "Byte-verified duplicate records discarded at merge.",
    ).inc(report["duplicates"])
    registry.counter(
        "repro_merge_traces_total", "Trace files copied at merge."
    ).inc(report["traces"])


def run_worker(
    queue_dir: "str | os.PathLike",
    worker_id: str,
    *,
    heartbeat_interval: float = 1.0,
    poll_interval: float = 0.2,
    throttle: float = 0.0,
) -> int:
    """The worker process loop: claim → execute → shard-append → complete.

    Opens the queue at ``queue_dir`` and reconstructs each leased cell's
    sweep config from its *grid descriptor* (asserting per grid that the
    content key survived the round trip), appending records to one shard
    store per grid under this worker's shard root.  One-shot sessions
    exit once the queue drains; daemon sessions idle through an empty
    queue — new grids may arrive any moment — and exit only when the
    drain marker is set *and* the backlog is finished.  A daemon thread
    heartbeats the held lease every ``heartbeat_interval`` seconds while
    the cell executes, so long cells never go stale under a live worker;
    SIGKILL stops the heartbeats with the process, which is exactly the
    signal reclamation keys on.  When nothing is claimable but cells are
    still leased elsewhere, the worker naps ``poll_interval`` and retries.

    ``throttle`` sleeps that many seconds inside each leased window
    before executing — a chaos/testing knob that widens the
    kill-mid-cell window (it simulates slow hardware; the numbers are
    unaffected).  If a cell raises, the lease is released (the cell
    becomes claimable immediately) and the exception propagates — the
    worker exits nonzero and the coordinator's respawn cap bounds the
    retries a deterministically failing cell can consume.

    Returns the number of cells this worker completed.
    """
    queue = LeaseQueue.open(queue_dir)
    daemon = queue.daemon
    resolved: dict[str, tuple] = {}

    def _resolve(grid_id: str) -> tuple:
        """Per-grid execution context: (config, stride, trace dir, shard).

        Every grid descriptor runs the content-key round-trip guard
        (:meth:`ResultStore.from_grid_payload`) before its first cell —
        a perturbed payload stops the worker cold instead of landing
        records under a foreign key.  Resolutions are cached: a daemon
        worker re-resolves only for grids enqueued after it started.
        """
        if grid_id not in resolved:
            descriptor = queue.grid(grid_id)
            payload = descriptor["payload"]
            shard = ResultStore.from_grid_payload(
                shards_root(queue_dir) / worker_id, payload
            ).open()
            trace_dir = (
                shard.directory / "traces"
                if bool(payload.get("trace", False))
                else None
            )
            resolved[grid_id] = (
                shard.config,
                int(payload.get("check_stride", 1)),
                trace_dir,
                shard,
            )
        return resolved[grid_id]

    for grid_id in sorted(queue.grids()):
        _resolve(grid_id)  # validate everything registered so far, eagerly
    completed = 0
    while True:
        lease = queue.claim(worker_id)
        if lease is None:
            # Idle or done: do not hold the last trial's route table.
            clear_substrate()
            if queue.drained() and (
                not daemon or queue.drain_requested()
            ):
                return completed
            time.sleep(poll_interval)
            continue
        if lease.grid is None:
            queue.release(lease)
            raise ValueError(
                f"cell {lease.id} was enqueued without a grid descriptor; "
                "worker processes only execute gridded sessions "
                "(serve-sweep / enqueue)"
            )
        try:
            config, check_stride, trace_dir, shard = _resolve(lease.grid)
        except BaseException:
            queue.release(lease)
            raise
        stop = threading.Event()

        def _beat(lease=lease):
            while not stop.wait(heartbeat_interval):
                try:
                    queue.heartbeat(lease)
                except LeaseLost:
                    return  # presumed dead and reclaimed; stop beating

        beater = threading.Thread(target=_beat, daemon=True)
        beater.start()
        try:
            if throttle > 0:
                time.sleep(throttle)
            record = execute_cell(config, lease.cell, check_stride, trace_dir)
        except BaseException:
            stop.set()
            beater.join()
            queue.release(lease)
            raise
        stop.set()
        beater.join()
        # Append before marking done: a crash between the two leaves a
        # stale lease (re-executed, deduplicated at merge), never a done
        # marker without a record.
        shard.append(record)
        queue.complete(lease)
        completed += 1


def _spawn_worker(
    queue_dir: Path,
    worker_id: str,
    heartbeat_interval: float,
    poll_interval: float,
    throttle: float,
) -> subprocess.Popen:
    """Launch one ``repro work`` subprocess against ``queue_dir``."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + (os.pathsep + existing if existing else "")
        )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "work",
            "--queue-dir",
            str(queue_dir),
            "--worker-id",
            worker_id,
            "--heartbeat-interval",
            str(heartbeat_interval),
            "--poll-interval",
            str(poll_interval),
            "--throttle",
            str(throttle),
        ],
        env=env,
    )


class _WorkerFleet:
    """The coordinator's view of its worker subprocesses.

    Tracks live members, SIGKILLs a provable lease-holder for chaos
    injection, and — the robustness fix — respawns **individually**: any
    member that exited while work remains is replaced against the shared
    respawn budget, so one deterministically-crashing worker can no
    longer silently degrade an N-worker fleet to N−1 forever.  Members
    whose replacement the budget no longer covers are retired (kept for
    the final wait/kill sweep, never respawned again).
    """

    def __init__(
        self,
        queue_root: Path,
        heartbeat_interval: float,
        poll_interval: float,
        throttle: float,
        budget: int,
    ):
        self.queue_root = queue_root
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.throttle = throttle
        self.budget = budget
        self.respawns = 0
        self.members: list[tuple[str, subprocess.Popen]] = []
        self.retired: list[tuple[str, subprocess.Popen]] = []

    def spawn(self, worker_id: str) -> None:
        self.members.append(
            (
                worker_id,
                _spawn_worker(
                    self.queue_root,
                    worker_id,
                    self.heartbeat_interval,
                    self.poll_interval,
                    self.throttle,
                ),
            )
        )

    def alive_count(self) -> int:
        return sum(1 for _, proc in self.members if proc.poll() is None)

    def all_exited(self) -> bool:
        return self.alive_count() == 0

    def kill_lease_holder(self, queue: LeaseQueue) -> bool:
        """SIGKILL one member that provably holds a live lease.

        Returns whether a victim was found — the chaos knob retries
        every poll until one exists, so the injected death always
        exercises reclamation (a victim still importing NumPy would die
        without leaving work behind).
        """
        holders = queue.lease_owners()
        for worker_id, proc in self.members:
            if worker_id in holders and proc.poll() is None:
                proc.kill()  # SIGKILL: no cleanup, beats stop
                return True
        return False

    def respawn_fallen(self) -> int:
        """Replace every exited member the budget still covers.

        Returns how many replacements were spawned.  Replacements carry
        their ancestor's id plus an ``r<n>`` suffix, so shard provenance
        and the telemetry worker table stay readable across respawns.
        """
        replaced = 0
        kept: list[tuple[str, subprocess.Popen]] = []
        for worker_id, proc in self.members:
            if proc.poll() is None:
                kept.append((worker_id, proc))
                continue
            if self.respawns >= self.budget:
                self.retired.append((worker_id, proc))
                continue
            self.respawns += 1
            replacement = f"{worker_id}r{self.respawns}"
            kept.append(
                (
                    replacement,
                    _spawn_worker(
                        self.queue_root,
                        replacement,
                        self.heartbeat_interval,
                        self.poll_interval,
                        self.throttle,
                    ),
                )
            )
            replaced += 1
        self.members = kept
        return replaced

    def wait_all(self, timeout: float = 30.0) -> None:
        """Wait for members to exit on their own (post-drain shutdown)."""
        for _, proc in self.members:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    proc.wait(timeout=10)

    def kill_all(self) -> None:
        for _, proc in [*self.members, *self.retired]:
            if proc.poll() is None:
                proc.kill()


def run_distributed_sweep(
    config: "ExperimentConfig",
    *,
    store: ResultStore,
    queue_dir: "str | os.PathLike",
    workers: int = 2,
    check_stride: int = 1,
    ttl: float = 10.0,
    heartbeat_interval: float = 1.0,
    poll_interval: float = 0.2,
    worker_throttle: float = 0.0,
    trace: bool = False,
    chaos_kill_after: "float | None" = None,
    max_respawns: "int | None" = None,
    on_progress: "Callable[[QueueStats], None] | None" = None,
    metrics_port: "int | None" = None,
    on_metrics_url: "Callable[[str], None] | None" = None,
    monotonic: Callable[[], float] = time.monotonic,
) -> dict[CellKey, CellRecord]:
    """Coordinate one distributed sweep session; returns the merged records.

    The coordinator: merges any shards a previous (crashed) session left
    under ``queue_dir`` into ``store``, enqueues exactly the cells the
    store is still missing, spawns ``workers`` worker processes, watches
    the queue (publishing ``<queue>/partial_report.md`` and
    ``<queue>/telemetry.json`` as cells land), individually respawns any
    worker that exited with work remaining (at most ``max_respawns``
    replacements total, default ``workers``), and finally merges the
    shards into the canonical store.  Store layout, content keys, and
    resume semantics are identical to a plain ``run_sweep_records``
    sweep, so serial, parallel, and distributed sessions resume each
    other freely.

    ``chaos_kill_after`` SIGKILLs one live worker that many seconds into
    the session — the built-in chaos-engineering knob the CI smoke job
    uses to prove lease reclamation keeps the sweep lossless.  All
    in-process coordinator timing (the chaos timer included) runs on
    ``monotonic`` — wall-clock steps (NTP, DST) cannot delay or skip an
    injected kill; only the cross-process lease protocol uses the
    queue's injectable wall clock.

    ``metrics_port`` (``0`` = ephemeral) starts a
    :class:`~repro.observability.server.MetricsServer` beside the poll
    loop: ``GET /metrics`` serves live Prometheus exposition (queue
    depth and composition, completions, reclamations, per-worker
    throughput, route-cache totals aggregated from landed records,
    merge counters) and ``GET /healthz`` serves fresh service
    telemetry.  ``on_metrics_url`` receives the bound base URL once the
    server is listening — how the CLI prints it and tests find an
    ephemeral port.  The endpoint observes; it never alters scheduling
    or results.  A sweep with nothing left to run returns before the
    queue (and therefore the server) exists.

    Raises :class:`RuntimeError` when the respawn budget is exhausted
    with cells unfinished (the deterministic-failure escape hatch), and
    :class:`~repro.engine.store.ShardDivergenceError` if any shard
    disagrees with the canonical store byte-for-byte.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if store.check_stride != check_stride:
        raise ValueError(
            f"store was keyed for check_stride={store.check_stride} but the "
            f"service is running with check_stride={check_stride}; mixing "
            "strides in one store would blend non-identical numbers"
        )
    store.open()
    registry = MetricsRegistry() if metrics_port is not None else None
    server: "MetricsServer | None" = None
    queue_root = Path(queue_dir)
    shards = shards_root(queue_root)
    # A crashed session's completed work; counted so a resumed session's
    # merge counters reflect what it inherited.
    _count_merge(registry, merge_shards(store, shards))
    grid = expand_grid(config)
    held = store.load_records()
    pending = [cell for cell in grid if cell.key not in held]
    telemetry_path = queue_root / "telemetry.json"
    report_path = queue_root / "partial_report.md"
    if not pending:
        return {
            cell.key: held[cell.key] for cell in grid if cell.key in held
        }
    queue = LeaseQueue.create(
        queue_root,
        pending,
        ttl=ttl,
        payload=service_manifest(config, check_stride, trace),
    )
    budget = workers if max_respawns is None else max_respawns
    fleet = _WorkerFleet(
        queue_root, heartbeat_interval, poll_interval, worker_throttle, budget
    )

    def _service_state() -> dict:
        return {
            "daemon": False,
            "draining": False,
            "grids": len(queue.grids()),
            "respawns": fleet.respawns,
            "workers_alive": fleet.alive_count(),
        }

    try:
        if registry is not None:
            from repro.observability.telemetry import service_telemetry

            server = MetricsServer(
                registry,
                port=metrics_port,
                health=lambda: service_telemetry(
                    queue.stats(), queue.done_log(), service=_service_state()
                ),
            )
            server.start()
            # Seed every series before the first completion, so a scrape
            # that races the fleet spawn already parses cleanly.
            _update_service_metrics(registry, queue, [store], shards)
            if on_metrics_url is not None:
                on_metrics_url(server.url)
        for index in range(workers):
            fleet.spawn(f"w{index}")
        chaos_started = monotonic()
        chaos_done = chaos_kill_after is None
        last_done = -1
        while not queue.drained():
            time.sleep(poll_interval)
            if (
                not chaos_done
                and monotonic() - chaos_started >= chaos_kill_after
            ):
                # Retried every poll until a lease-holder exists; a
                # sweep that drains first simply escapes.
                chaos_done = fleet.kill_lease_holder(queue)
            stats = queue.stats()
            if stats.done != last_done:
                last_done = stats.done
                publish_partial_report(config, store, shards, report_path)
                if registry is not None:
                    _update_service_metrics(registry, queue, [store], shards)
                _write_service_telemetry(
                    queue, telemetry_path, registry, service=_service_state()
                )
                if on_progress is not None:
                    on_progress(stats)
            if queue.drained():
                break
            fleet.respawn_fallen()
            if fleet.all_exited():
                raise RuntimeError(
                    f"every worker exited with "
                    f"{stats.total - stats.done} cells unfinished and "
                    f"the respawn budget ({budget}) is spent — a cell "
                    "is failing deterministically; inspect the worker "
                    "output and the queue at "
                    f"{queue_root}"
                )
        fleet.wait_all()  # drained: workers exit on their own poll
    finally:
        fleet.kill_all()
        if server is not None:
            server.stop()
    _count_merge(registry, merge_shards(store, shards))
    publish_partial_report(config, store, shards, report_path)
    if registry is not None:
        _update_service_metrics(registry, queue, [store], shards)
    _write_service_telemetry(
        queue, telemetry_path, registry, service=_service_state()
    )
    return {
        key: record
        for key, record in store.load_records().items()
        if key in {cell.key for cell in grid}
    }


def enqueue_grid(
    queue: "LeaseQueue | str | os.PathLike",
    config: "ExperimentConfig",
    *,
    check_stride: int = 1,
    trace: bool = False,
    priority: int = DEFAULT_PRIORITY,
    store_root: "str | os.PathLike | None" = None,
    block: bool = False,
    block_poll_interval: float = 0.5,
    block_timeout: "float | None" = None,
    monotonic: Callable[[], float] = time.monotonic,
) -> dict:
    """Admit one sweep grid into a running daemon session's queue.

    The service-level face of :meth:`LeaseQueue.register_grid` — what
    ``repro enqueue`` calls.  The grid's canonical store root comes from
    the daemon manifest (``payload["store"]``) unless ``store_root``
    overrides it; any shards earlier sessions left for this grid's key
    are merged first, and only the cells the store is still missing are
    enqueued — so enqueueing is idempotent and resume-safe, exactly like
    a one-shot ``serve-sweep``.

    Backpressure: when admission would exceed the queue's
    ``max_pending``, :class:`~repro.engine.queue.QueueFull` propagates
    (the CLI turns it into exit code 3) — unless ``block=True``, which
    retries every ``block_poll_interval`` seconds until the backlog
    drains below the bound (or ``block_timeout`` seconds pass).

    Returns the registration report
    (``{"grid", "priority", "enqueued", "skipped", "pending_depth"}``).
    """
    if not isinstance(queue, LeaseQueue):
        queue = LeaseQueue.open(queue)
    payload = service_manifest(config, check_stride, trace)
    root = (
        store_root
        if store_root is not None
        else queue.manifest()["payload"].get("store")
    )
    if root is None:
        raise ValueError(
            f"queue {queue.root} records no store root in its manifest "
            "payload and none was passed — cannot place the grid's "
            "canonical store"
        )
    store = ResultStore(Path(root), config, check_stride)
    merge_shards(store, shards_root(queue.root))
    held = store.load_records()
    cells = [cell for cell in expand_grid(config) if cell.key not in held]
    started = monotonic()
    while True:
        try:
            return queue.register_grid(payload, cells, priority=priority)
        except QueueFull:
            if not block or (
                block_timeout is not None
                and monotonic() - started >= block_timeout
            ):
                raise
            time.sleep(block_poll_interval)


def _publish_daemon_report(
    stores: "Mapping[str, ResultStore]",
    shards: "str | os.PathLike",
    out_path: "str | os.PathLike",
) -> int:
    """The daemon's streaming aggregator: one partial-report section per
    registered grid, content keys in sorted order, written atomically.
    Returns the number of cells covered across all grids."""
    from repro.experiments.report import render_partial_markdown

    covered = 0
    parts = []
    for key in sorted(stores):
        store = stores[key]
        records = _landed_records(store, shards)
        covered += len(records)
        parts.append(
            f"## Grid `{key}`\n\n"
            + render_partial_markdown(store.config, records)
        )
    atomic_write_text(
        out_path,
        "\n\n".join(parts) if parts else "*No grids enqueued yet.*\n",
    )
    return covered


def run_sweep_daemon(
    store_root: "str | os.PathLike",
    *,
    queue_dir: "str | os.PathLike",
    workers: int = 2,
    ttl: float = 10.0,
    heartbeat_interval: float = 1.0,
    poll_interval: float = 0.2,
    worker_throttle: float = 0.0,
    max_pending: "int | None" = None,
    max_respawns: "int | None" = None,
    chaos_kill_after: "float | None" = None,
    metrics_port: "int | None" = None,
    on_metrics_url: "Callable[[str], None] | None" = None,
    on_progress: "Callable[[QueueStats], None] | None" = None,
    initial_grids: "Iterable[tuple] | None" = None,
    handle_signals: bool = False,
    monotonic: Callable[[], float] = time.monotonic,
) -> dict[str, dict[CellKey, CellRecord]]:
    """The long-lived coordinator: serve grids until drained *on request*.

    Where :func:`run_distributed_sweep` runs one grid to completion,
    the daemon opens an empty daemon-mode queue under ``queue_dir``
    (recording ``store_root`` in the manifest so ``repro enqueue`` can
    find it), spawns ``workers`` persistent workers, and then serves:
    new grids dropped into the queue by :func:`enqueue_grid` — from this
    process or any other sharing the filesystem — are discovered on the
    next poll, their stores opened under ``store_root`` (one content-key
    directory per grid), and their cells drained strictly
    high-priority-first.  The crash/reclaim/merge/telemetry machinery is
    the one-shot session's, running indefinitely: stale leases are
    reclaimed, fallen workers respawned individually (``max_respawns``
    total, default ``workers``), ``partial_report.md`` (one section per
    grid) and ``telemetry.json`` (with a ``service`` block: daemon flag,
    drain state, grid count, respawns) republished as cells land.

    Shutdown: :meth:`LeaseQueue.request_drain` (``repro drain``), or —
    with ``handle_signals=True`` from the main thread — SIGTERM/SIGINT,
    flips the drain marker; workers finish the backlog and exit, the
    daemon merges every grid's shards into its canonical store and
    returns ``{content key: merged records}``.  Because every cell's
    randomness derives from its grid's root seed, the merged stores are
    byte-identical to serial runs of the same grids *regardless of the
    enqueue interleaving* — the distributed ≡ serial battery extends to
    the daemon path unchanged.

    Raises :class:`RuntimeError` when every worker has exited with
    backlog remaining and the respawn budget is spent.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    store_base = Path(store_root)
    store_base.mkdir(parents=True, exist_ok=True)
    queue_root = Path(queue_dir)
    shards = shards_root(queue_root)
    telemetry_path = queue_root / "telemetry.json"
    report_path = queue_root / "partial_report.md"
    queue = LeaseQueue.create(
        queue_root,
        [],
        ttl=ttl,
        daemon=True,
        max_pending=max_pending,
        payload={"service": "daemon", "store": str(store_base.resolve())},
    )
    for entry in initial_grids or ():
        config, check_stride, trace, priority = entry
        enqueue_grid(
            queue,
            config,
            check_stride=check_stride,
            trace=trace,
            priority=priority,
        )
    budget = workers if max_respawns is None else max_respawns
    fleet = _WorkerFleet(
        queue_root, heartbeat_interval, poll_interval, worker_throttle, budget
    )
    registry = MetricsRegistry() if metrics_port is not None else None
    server: "MetricsServer | None" = None
    stores: dict[str, ResultStore] = {}

    def _refresh_stores() -> dict[str, ResultStore]:
        """Open a canonical store for every grid registered so far."""
        for key, descriptor in queue.grids().items():
            if key not in stores:
                stores[key] = ResultStore.from_grid_payload(
                    store_base, descriptor["payload"]
                ).open()
        return stores

    def _service_state() -> dict:
        return {
            "daemon": True,
            "draining": queue.drain_requested(),
            "grids": len(queue.grids()),
            "respawns": fleet.respawns,
            "workers_alive": fleet.alive_count(),
        }

    def _health() -> dict:
        from repro.observability.telemetry import service_telemetry

        payload = service_telemetry(
            queue.stats(), queue.done_log(), service=_service_state()
        )
        if queue.drain_requested():
            payload["status"] = "draining"  # overrides the default "ok"
        return payload

    previous_handlers: dict = {}
    if handle_signals and threading.current_thread() is threading.main_thread():
        def _on_signal(signum, frame):
            queue.request_drain()

        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, _on_signal)
    _refresh_stores()
    try:
        if registry is not None:
            server = MetricsServer(registry, port=metrics_port, health=_health)
            server.start()
            _update_service_metrics(registry, queue, stores.values(), shards)
            if on_metrics_url is not None:
                on_metrics_url(server.url)
        for index in range(workers):
            fleet.spawn(f"w{index}")
        chaos_started = monotonic()
        chaos_done = chaos_kill_after is None
        last_published: "tuple | None" = None
        while not (queue.drain_requested() and queue.drained()):
            time.sleep(poll_interval)
            if (
                not chaos_done
                and monotonic() - chaos_started >= chaos_kill_after
            ):
                chaos_done = fleet.kill_lease_holder(queue)
            _refresh_stores()
            stats = queue.stats()
            snapshot = (
                stats.done,
                stats.pending,
                len(stores),
                queue.drain_requested(),
            )
            if snapshot != last_published:
                last_published = snapshot
                _publish_daemon_report(stores, shards, report_path)
                if registry is not None:
                    _update_service_metrics(
                        registry, queue, stores.values(), shards
                    )
                _write_service_telemetry(
                    queue, telemetry_path, registry, service=_service_state()
                )
                if on_progress is not None:
                    on_progress(stats)
            if queue.drain_requested() and queue.drained():
                break
            fleet.respawn_fallen()
            if fleet.all_exited() and not queue.drained():
                raise RuntimeError(
                    f"every worker exited with {queue.pending_depth()} "
                    f"cells unfinished and the respawn budget ({budget}) "
                    "is spent — a cell is failing deterministically; "
                    f"inspect the worker output and the queue at "
                    f"{queue_root}"
                )
        fleet.wait_all()  # drain marker set: workers exit on their own
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        fleet.kill_all()
        if server is not None:
            server.stop()
    results: dict[str, dict[CellKey, CellRecord]] = {}
    for key in sorted(_refresh_stores()):
        store = stores[key]
        _count_merge(registry, merge_shards(store, shards))
        results[key] = store.load_records()
    _publish_daemon_report(stores, shards, report_path)
    if registry is not None:
        _update_service_metrics(registry, queue, stores.values(), shards)
    _write_service_telemetry(
        queue, telemetry_path, registry, service=_service_state()
    )
    return results


def _store_cells(root: Path) -> dict[str, dict[CellKey, CellRecord]]:
    """Every ``<content key>/cells.jsonl`` under a store root, parsed
    with the store's own semantics (later duplicate lines win)."""
    out: dict[str, dict[CellKey, CellRecord]] = {}
    for cells_path in sorted(root.glob("*/cells.jsonl")):
        records: dict[CellKey, CellRecord] = {}
        for record in _parse_cells_jsonl(cells_path):
            records[record.key] = record
        out[cells_path.parent.name] = records
    return out


def diff_stores(
    left: "str | os.PathLike", right: "str | os.PathLike"
) -> list[str]:
    """Canonical differences between two store roots (empty = identical).

    The bit-identity assertion behind ``repro store-diff``: both roots
    must hold the same content-key directories, the same cell keys per
    directory, and byte-identical canonical records per cell
    (:func:`~repro.engine.store.canonical_record_bytes` — timing and
    telemetry excluded, exactly as record equality excludes them).
    Returns human-readable difference lines, most structural first.
    """
    a, b = _store_cells(Path(left)), _store_cells(Path(right))
    differences: list[str] = []
    for key in sorted(set(a) - set(b)):
        differences.append(f"content key {key} only in {left}")
    for key in sorted(set(b) - set(a)):
        differences.append(f"content key {key} only in {right}")
    for key in sorted(set(a) & set(b)):
        cells_a, cells_b = a[key], b[key]
        for cell in sorted(set(cells_a) - set(cells_b)):
            differences.append(f"{key}: cell {cell} only in {left}")
        for cell in sorted(set(cells_b) - set(cells_a)):
            differences.append(f"{key}: cell {cell} only in {right}")
        for cell in sorted(set(cells_a) & set(cells_b)):
            bytes_a = canonical_record_bytes(cells_a[cell])
            bytes_b = canonical_record_bytes(cells_b[cell])
            if bytes_a != bytes_b:
                differences.append(
                    f"{key}: cell {cell} diverges\n"
                    f"  {left}: {bytes_a.decode('utf-8')}\n"
                    f"  {right}: {bytes_b.decode('utf-8')}"
                )
    return differences
