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
* any worker dies → the coordinator replaces it individually (bounded);
* coordinator dies → completed shards survive on disk; the next
  ``serve-sweep`` merges them before enqueueing only what is missing;
* a shard record disagrees with the canonical store → the merge raises,
  nothing is silently overwritten.

Both public coordinators — the one-shot :func:`run_distributed_sweep`
and the long-lived :func:`run_sweep_daemon` — are setup around one
coordinator loop.  It owns the fleet, the chaos timer, the ``/metrics``
server, the publishing and the final merge, and it stops on
:meth:`~repro.engine.queue.LeaseQueue.finished`, the exit rule the
workers share: a one-shot queue is finished once drained, a daemon
queue once drained after a drain request.  As cells are claimed and
land, the loop republishes ``<queue>/partial_report.md`` (one section
per grid) and ``<queue>/telemetry.json`` (queue depth, reclamations,
per-worker throughput, via
:func:`repro.observability.telemetry.service_telemetry`).
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
    SweepCell,
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


def _dispatch_order(cells: "Iterable[SweepCell]") -> list[SweepCell]:
    """Cells in the order a session enqueues them: largest ``n`` first.

    The largest cells hold most of a grid's run time (n = 512 is about
    three quarters of the default grid), so leasing them first leaves
    small cells for the end and the workers finish close together.  The
    sort is stable on ``(-n, trial)``: each trial's protocols stay
    adjacent in grid order, so a worker that runs them back to back
    reuses the trial's substrate
    (:func:`~repro.engine.executor.cell_substrate`) as before.
    """
    return sorted(cells, key=lambda cell: (-cell.n, cell.trial))


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
    from repro.observability.telemetry import CACHE_SERIES, service_telemetry

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
    sums = dict.fromkeys(CACHE_SERIES, 0.0)
    for store in stores:
        for record in _landed_records(store, shards).values():
            telemetry = record.telemetry or {}
            for key in CACHE_SERIES:
                sums[key] += float(telemetry.get(key, 0.0))
    for key, (series, help_text) in CACHE_SERIES.items():
        _set_total(registry.counter(series, help_text), sums[key])


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
    store per grid under this worker's shard root.  The worker exits on
    :meth:`LeaseQueue.finished`: one-shot sessions once the queue
    drains; daemon sessions idle through an empty queue — new grids may
    arrive any moment — until the drain marker is set *and* the backlog
    is finished.  A daemon thread
    heartbeats the held lease every ``heartbeat_interval`` seconds while
    the cell executes, so long cells never go stale under a live worker;
    SIGKILL stops the heartbeats with the process, which is exactly the
    signal reclamation keys on.  When nothing is claimable but cells are
    still leased elsewhere, the worker naps ``poll_interval`` and retries.
    The worker that completes a session's last cell therefore exits at
    once, and a napping one is not waited for: once the queue is
    finished, the ``serve-sweep`` coordinator SIGTERMs every worker that
    holds no lease (:meth:`_WorkerFleet.stop_idle`).  Such a worker has
    nothing left to write, since a record is in the shard before its
    done marker.

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
            if queue.finished():
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


class _WorkerFleet:
    """The coordinator's view of its worker subprocesses.

    Tracks live members, SIGKILLs a provable lease-holder for chaos
    injection, and — the robustness fix — respawns **individually**: any
    member that exited while work remains is replaced against the shared
    respawn budget, so one deterministically-crashing worker can no
    longer silently degrade an N-worker fleet to N−1 forever.  Members
    whose replacement the budget no longer covers are retired (kept for
    the final wait/kill sweep, never respawned again).

    Every launched process gets a daemon waiter thread that reaps it the
    moment it exits and then sets :attr:`exited`, so the coordinator
    loop wakes on a worker exit instead of on its next timer tick.
    """

    def __init__(
        self,
        queue_root: Path,
        heartbeat_interval: float,
        poll_interval: float,
        throttle: float,
        budget: int,
    ):
        import repro

        self.argv = [
            sys.executable, "-m", "repro", "work",
            "--queue-dir", str(queue_root),
            "--heartbeat-interval", str(heartbeat_interval),
            "--poll-interval", str(poll_interval),
            "--throttle", str(throttle),
        ]
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        self.env = dict(os.environ)
        existing = self.env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            self.env["PYTHONPATH"] = (
                src_dir + (os.pathsep + existing if existing else "")
            )
        self.budget = budget
        self.respawns = 0
        self.members: list[tuple[str, subprocess.Popen]] = []
        self.retired: list[tuple[str, subprocess.Popen]] = []
        self.exited = threading.Event()

    def _launch(self, worker_id: str) -> tuple[str, subprocess.Popen]:
        """Start one ``repro work`` subprocess and its waiter thread."""
        argv = [*self.argv, "--worker-id", worker_id]
        proc = subprocess.Popen(argv, env=self.env)

        def _reap() -> None:
            proc.wait()  # sets returncode before the event fires
            self.exited.set()

        threading.Thread(target=_reap, daemon=True).start()
        return worker_id, proc

    def spawn(self, worker_id: str) -> None:
        self.members.append(self._launch(worker_id))

    def alive_count(self) -> int:
        return sum(1 for _, proc in self.members if proc.poll() is None)

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
            kept.append(self._launch(f"{worker_id}r{self.respawns}"))
            replaced += 1
        self.members = kept
        return replaced

    def stop_idle(self, queue: LeaseQueue) -> list[subprocess.Popen]:
        """SIGTERM every live member that holds no lease; return the rest.

        Called once the queue is finished.  A member without a live
        lease is napping, starting up or on its way out: every cell is
        done and its records are already in its shard, so stopping it
        loses nothing and saves the rest of its nap.  A member that
        still holds a lease (a duplicate run of a reclaimed cell) is
        left to append its record and exit on its own; the returned
        processes are those to wait for before the merge.
        """
        holders = queue.lease_owners()
        busy = []
        for worker_id, proc in self.members:
            if proc.poll() is not None:
                continue
            if worker_id in holders:
                busy.append(proc)
            else:
                proc.terminate()
        return busy

    def wait_all(
        self,
        procs: "Iterable[subprocess.Popen] | None" = None,
        timeout: float = 30.0,
    ) -> None:
        """Wait until ``procs`` (default: every process launched) exit.

        Wakes on :attr:`exited`, so it returns as soon as the last one
        has been reaped.  Whatever still runs after ``timeout`` seconds
        is SIGKILLed.
        """
        if procs is None:
            procs = [proc for _, proc in [*self.members, *self.retired]]
        procs = list(procs)
        deadline = time.monotonic() + timeout
        while True:
            self.exited.clear()
            running = [proc for proc in procs if proc.poll() is None]
            if not running:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for proc in running:
                    proc.kill()
                    proc.wait(timeout=10)
                return
            self.exited.wait(remaining)

    def kill_all(self) -> None:
        for _, proc in [*self.members, *self.retired]:
            if proc.poll() is None:
                proc.kill()


def _publish_report(
    stores: "Mapping[str, ResultStore]",
    shards: "str | os.PathLike",
    out_path: "str | os.PathLike",
) -> None:
    """The coordinator's streaming aggregator: one partial-report section
    per registered grid, content keys in sorted order, written atomically
    from everything landed so far (canonical store ∪ shards)."""
    from repro.experiments.report import render_partial_markdown

    parts = [
        f"## Grid `{key}`\n\n"
        + render_partial_markdown(store.config, _landed_records(store, shards))
        for key, store in sorted(stores.items())
    ]
    atomic_write_text(
        out_path,
        "\n\n".join(parts) if parts else "*No grids enqueued yet.*\n",
    )


def _serve(
    queue: LeaseQueue,
    store_root: Path,
    *,
    stores: "dict[str, ResultStore] | None" = None,
    inherited: "Mapping | None" = None,
    workers: int,
    heartbeat_interval: float,
    poll_interval: float,
    worker_throttle: float,
    max_respawns: "int | None",
    chaos_kill_after: "float | None",
    metrics_port: "int | None",
    on_metrics_url: "Callable[[str], None] | None",
    on_progress: "Callable[[QueueStats], None] | None",
    handle_signals: bool,
    monotonic: Callable[[], float],
) -> dict[str, dict[CellKey, CellRecord]]:
    """The one coordinator loop behind both public entry points.

    Spawns the fleet and polls until :meth:`LeaseQueue.finished`, the
    exit rule the workers share.  A poll runs every ``poll_interval``
    seconds and at once when a worker exits.  Each poll fires the chaos
    kill once due, opens a store under ``store_root`` for every newly
    registered grid (``stores`` seeds that map), republishes report,
    telemetry and metrics when the ``(done, pending, grids, drain)``
    snapshot moves, and respawns fallen workers individually.  Once
    finished, it stops the workers that hold no lease, waits for those
    that do, merges every grid's shards (the merge counters include the
    ``inherited`` report), reaps the stopped workers and returns
    ``{content key: records}``.  Raises :class:`ValueError` when
    ``heartbeat_interval`` is not below the queue's ttl: live leases
    would go stale and be reclaimed again and again.
    """
    from repro.observability.telemetry import service_telemetry

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if heartbeat_interval >= queue.ttl:
        raise ValueError(
            f"heartbeat interval {heartbeat_interval}s must be below the "
            f"lease ttl {queue.ttl}s, or live leases go stale and are "
            "reclaimed again and again"
        )
    queue_root = queue.root
    shards = shards_root(queue_root)
    telemetry_path = queue_root / "telemetry.json"
    report_path = queue_root / "partial_report.md"
    stores = {} if stores is None else stores
    budget = workers if max_respawns is None else max_respawns
    fleet = _WorkerFleet(
        queue_root, heartbeat_interval, poll_interval, worker_throttle, budget
    )
    registry = MetricsRegistry() if metrics_port is not None else None
    server: "MetricsServer | None" = None
    if inherited is not None:
        _count_merge(registry, inherited)

    def _refresh_stores() -> None:
        """Open a canonical store for every grid registered so far."""
        for key, descriptor in queue.grids().items():
            if key not in stores:
                stores[key] = ResultStore.from_grid_payload(
                    store_root, descriptor["payload"]
                ).open()

    def _service_state() -> dict:
        return {
            "daemon": queue.daemon,
            "draining": queue.drain_requested(),
            "grids": len(queue.grids()),
            "respawns": fleet.respawns,
            "workers_alive": fleet.alive_count(),
        }

    def _health() -> dict:
        payload = service_telemetry(
            queue.stats(), queue.done_log(), service=_service_state()
        )
        if queue.drain_requested():
            payload["status"] = "draining"  # overrides the default "ok"
        return payload

    def _publish() -> None:
        _publish_report(stores, shards, report_path)
        if registry is not None:
            _update_service_metrics(registry, queue, stores.values(), shards)
        _write_service_telemetry(
            queue, telemetry_path, registry, service=_service_state()
        )

    _refresh_stores()
    previous_handlers: dict = {}
    if handle_signals and threading.current_thread() is threading.main_thread():
        def _on_signal(signum, frame):
            queue.request_drain()

        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, _on_signal)
    try:
        if registry is not None:
            server = MetricsServer(registry, port=metrics_port, health=_health)
            server.start()
            # Seed every series before the first completion, so a scrape
            # that races the fleet spawn already parses cleanly.
            _update_service_metrics(registry, queue, stores.values(), shards)
            if on_metrics_url is not None:
                on_metrics_url(server.url)
        for index in range(workers):
            fleet.spawn(f"w{index}")
        chaos_started = monotonic()
        chaos_done = chaos_kill_after is None
        last_published: "tuple | None" = None
        while not queue.finished():
            # A worker exit ends the wait early: the worker that lands
            # the last cell exits at once, and so does a crashed one.
            fleet.exited.wait(poll_interval)
            fleet.exited.clear()
            if (
                not chaos_done
                and monotonic() - chaos_started >= chaos_kill_after
            ):
                # Retried every poll until a lease-holder exists; a
                # session that finishes first simply escapes.
                chaos_done = fleet.kill_lease_holder(queue)
            _refresh_stores()
            stats = queue.stats()
            snapshot = (
                stats.done, stats.pending, len(stores), queue.drain_requested()
            )
            if snapshot != last_published:
                last_published = snapshot
                _publish()
                if on_progress is not None:
                    on_progress(stats)
            if queue.finished():
                break
            fleet.respawn_fallen()
            if fleet.alive_count() == 0 and not queue.drained():
                raise RuntimeError(
                    f"every worker exited with {queue.pending_depth()} "
                    f"cells unfinished and the respawn budget ({budget}) "
                    "is spent — a cell is failing deterministically; "
                    f"inspect the worker output and the queue at "
                    f"{queue_root}"
                )
        # Finished: stop the idle members rather than wait out their
        # nap, and let any lease holder land its record before the merge.
        fleet.wait_all(fleet.stop_idle(queue))
    except BaseException:
        fleet.kill_all()
        raise
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        if server is not None:
            server.stop()
    _refresh_stores()
    results: dict[str, dict[CellKey, CellRecord]] = {}
    for key, store in sorted(stores.items()):
        _count_merge(registry, merge_shards(store, shards))
        results[key] = store.load_records()
    fleet.wait_all()  # reap the members stopped above
    _publish()
    return results


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

    Merges any shards a crashed session left under ``queue_dir`` into
    ``store`` (counted into the merge counters), enqueues exactly the
    cells the store still misses, largest ``n`` first
    (:func:`_dispatch_order`), on a one-shot queue — finished as soon
    as it drains — and serves it with ``workers`` worker processes
    through the coordinator loop :func:`run_sweep_daemon` shares: fallen
    workers respawned individually (``max_respawns`` in total, default
    ``workers``), ``<queue>/partial_report.md`` and
    ``<queue>/telemetry.json`` republished as cells land, shards merged
    at the end.  Store layout, content keys and resume semantics are a
    plain ``run_sweep_records`` sweep's, so serial, parallel and
    distributed sessions resume each other freely.  A sweep with nothing
    left to run returns before any queue (or server) exists.

    ``chaos_kill_after`` SIGKILLs one live lease-holding worker that many
    seconds into the session (the CI chaos knob), timed on ``monotonic``
    so wall-clock steps (NTP, DST) cannot delay or skip it.
    ``metrics_port`` (``0`` = ephemeral) serves ``GET /metrics``
    (Prometheus exposition: queue depth, completions, reclamations,
    per-worker throughput, route-cache and merge totals) and
    ``GET /healthz`` (fresh service telemetry) beside the poll loop;
    ``on_metrics_url`` receives the bound base URL.  The endpoint
    observes; it never alters scheduling or results.

    Raises :class:`ValueError` on a stride mismatch or a heartbeat
    interval not below ``ttl``, :class:`RuntimeError` when the respawn
    budget is exhausted with cells unfinished (the deterministic-failure
    escape hatch), and :class:`~repro.engine.store.ShardDivergenceError`
    if any shard disagrees with the canonical store byte-for-byte.
    """
    if store.check_stride != check_stride:
        raise ValueError(
            f"store was keyed for check_stride={store.check_stride} but the "
            f"service is running with check_stride={check_stride}; mixing "
            "strides in one store would blend non-identical numbers"
        )
    store.open()
    queue_root = Path(queue_dir)
    # A crashed session's completed work; counted so a resumed session's
    # merge counters reflect what it inherited.
    inherited = merge_shards(store, shards_root(queue_root))
    grid = expand_grid(config)
    grid_keys = {cell.key for cell in grid}
    held = store.load_records()
    pending = _dispatch_order(cell for cell in grid if cell.key not in held)
    if pending:
        queue = LeaseQueue.create(
            queue_root,
            pending,
            ttl=ttl,
            payload=service_manifest(config, check_stride, trace),
        )
        held = _serve(
            queue,
            store.root,
            stores={store.key: store},
            inherited=inherited,
            workers=workers,
            heartbeat_interval=heartbeat_interval,
            poll_interval=poll_interval,
            worker_throttle=worker_throttle,
            max_respawns=max_respawns,
            chaos_kill_after=chaos_kill_after,
            metrics_port=metrics_port,
            on_metrics_url=on_metrics_url,
            on_progress=on_progress,
            handle_signals=False,
            monotonic=monotonic,
        )[store.key]
    return {key: record for key, record in held.items() if key in grid_keys}


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
    enqueued, largest ``n`` first (:func:`_dispatch_order`) — so
    enqueueing is idempotent and resume-safe, exactly like a one-shot
    ``serve-sweep``.

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
    cells = _dispatch_order(
        cell for cell in expand_grid(config) if cell.key not in held
    )
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
    the daemon opens a daemon-mode queue under ``queue_dir`` (recording
    ``store_root`` in the manifest so ``repro enqueue`` can find it),
    enqueues ``initial_grids`` (``(config, check_stride, trace,
    priority)`` tuples), and serves it through the same coordinator
    loop, with the same fleet, chaos and metrics arguments: grids
    :func:`enqueue_grid` adds later — from any process sharing the
    filesystem — are discovered on the next poll, their stores opened
    under ``store_root`` (one content-key directory per grid), and their
    cells drained strictly high-priority-first.  An empty daemon queue
    is drained but not finished: the fleet idles for more grids.

    Shutdown: :meth:`LeaseQueue.request_drain` (``repro drain``), or —
    with ``handle_signals=True`` from the main thread — SIGTERM/SIGINT,
    flips the drain marker; workers finish the backlog and exit, the
    daemon merges every grid's shards into its canonical store and
    returns ``{content key: merged records}``.  Because every cell's
    randomness derives from its grid's root seed, the merged stores are
    byte-identical to serial runs of the same grids *regardless of the
    enqueue interleaving* — the distributed ≡ serial battery extends to
    the daemon path unchanged.

    Raises :class:`ValueError` on a heartbeat interval not below
    ``ttl`` and :class:`RuntimeError` when every worker has exited with
    backlog remaining and the respawn budget is spent.
    """
    store_base = Path(store_root)
    store_base.mkdir(parents=True, exist_ok=True)
    queue = LeaseQueue.create(
        queue_dir,
        [],
        ttl=ttl,
        daemon=True,
        max_pending=max_pending,
        payload={"service": "daemon", "store": str(store_base.resolve())},
    )
    for config, check_stride, trace, priority in initial_grids or ():
        enqueue_grid(
            queue,
            config,
            check_stride=check_stride,
            trace=trace,
            priority=priority,
        )
    return _serve(
        queue,
        store_base,
        workers=workers,
        heartbeat_interval=heartbeat_interval,
        poll_interval=poll_interval,
        worker_throttle=worker_throttle,
        max_respawns=max_respawns,
        chaos_kill_after=chaos_kill_after,
        metrics_port=metrics_port,
        on_metrics_url=on_metrics_url,
        on_progress=on_progress,
        handle_signals=handle_signals,
        monotonic=monotonic,
    )


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
