"""Chaos and property tests for the sharded sweep service.

Two layers of assurance for ``repro.engine.{queue,service}``:

* **Chaos harness** — real worker *processes* against a real queue, one
  of them SIGKILLed while it provably holds a lease; the sweep must
  complete via reclamation and the merged store must be byte-identical
  to a serial run of the same config.
* **Property tests** — the lease queue driven deterministically with a
  fake clock and seeded schedule fuzzing; no cell lost, no cell
  duplicated in the merged store, reclamation never fires on a live
  heartbeat, and stale-lease re-execution is idempotent.
"""

import dataclasses
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine.executor import CellRecord, execute_cell, expand_grid
from repro.engine.queue import LeaseLost, LeaseQueue, cell_id
from repro.engine.service import (
    _publish_report,
    config_from_payload,
    config_payload,
    diff_stores,
    merge_shards,
    run_distributed_sweep,
    service_manifest,
    shards_root,
    worker_store,
)
from repro.engine.store import ResultStore, ShardDivergenceError
from repro.experiments import ExperimentConfig

CONFIG = ExperimentConfig(
    sizes=(32, 48),
    epsilon=0.3,
    trials=2,
    radius_constant=3.0,
    algorithms=("randomized", "geographic"),
)


@pytest.fixture(scope="module")
def serial_store(tmp_path_factory):
    """The ground truth: every grid cell executed serially, once."""
    store = ResultStore(tmp_path_factory.mktemp("serial"), CONFIG).open()
    for cell in expand_grid(CONFIG):
        store.append(execute_cell(CONFIG, cell))
    return store


def _spawn(queue_dir, worker_id, *, throttle=0.0, heartbeat=0.05):
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
            str(heartbeat),
            "--poll-interval",
            "0.05",
            "--throttle",
            str(throttle),
        ]
    )


def _wait_for(predicate, timeout, message):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout}s waiting for {message}")


class TestChaosHarness:
    def test_sigkill_mid_cell_recovers_and_matches_serial(
        self, tmp_path, serial_store
    ):
        """Three workers, one SIGKILLed while it provably holds a lease.

        The victim is throttled (sleeps inside its leased window), so
        the kill is guaranteed mid-cell — its lease can only complete
        through reclamation by a surviving worker.  The merged store
        must equal the serial reference byte for byte.
        """
        queue_dir = tmp_path / "queue"
        queue = LeaseQueue.create(
            queue_dir,
            expand_grid(CONFIG),
            ttl=0.6,
            payload=service_manifest(CONFIG),
        )
        victim = _spawn(queue_dir, "victim", throttle=120.0)
        workers = []
        try:
            _wait_for(
                lambda: "victim" in queue.lease_owners(),
                timeout=30,
                message="the victim to claim a lease",
            )
            victim.kill()  # SIGKILL: heartbeats stop with the process
            victim.wait(timeout=10)
            workers = [_spawn(queue_dir, f"w{i}") for i in range(2)]
            _wait_for(queue.drained, timeout=120, message="queue drain")
            for proc in workers:
                assert proc.wait(timeout=30) == 0
        finally:
            for proc in [victim, *workers]:
                if proc.poll() is None:
                    proc.kill()

        assert queue.stats().reclamations >= 1
        log = queue.reclamation_log()
        assert any(entry["reclaimed_by"].startswith("w") for entry in log)
        # The victim's shard holds nothing: it died mid-first-cell.
        merged = ResultStore(tmp_path / "merged", CONFIG)
        report = merge_shards(merged, shards_root(queue_dir))
        assert report["appended"] == len(expand_grid(CONFIG))
        assert diff_stores(serial_store.root, merged.root) == []

    def test_coordinator_chaos_kill_end_to_end(self, tmp_path, serial_store):
        """The full coordinator with the built-in chaos knob: injected
        worker death, reclamation, respawn if needed, merged store
        bit-identical to serial, telemetry recording the recovery."""
        store = ResultStore(tmp_path / "dist", CONFIG)
        queue_dir = tmp_path / "queue"
        progress = []
        records = run_distributed_sweep(
            CONFIG,
            store=store,
            queue_dir=queue_dir,
            workers=3,
            ttl=1.0,
            heartbeat_interval=0.1,
            poll_interval=0.05,
            worker_throttle=0.3,
            chaos_kill_after=0.0,  # kill as soon as any lease is held
            on_progress=progress.append,
        )
        assert set(records) == {cell.key for cell in expand_grid(CONFIG)}
        assert diff_stores(serial_store.root, store.root) == []
        telemetry = json.loads((queue_dir / "telemetry.json").read_text())
        assert telemetry["queue"]["done"] == len(expand_grid(CONFIG))
        assert telemetry["queue"]["reclamations"] >= 1
        assert sum(w["cells"] for w in telemetry["workers"].values()) >= len(
            expand_grid(CONFIG)
        )
        assert progress  # the streaming aggregator fired
        report = (queue_dir / "partial_report.md").read_text()
        assert f"{len(records)}/{len(records)} cells complete" in report

    def test_distributed_resumes_serial_store(self, tmp_path, serial_store):
        """A store started serially finishes distributed: only the
        missing cells are enqueued, held ones are never re-executed."""
        store = ResultStore(tmp_path / "dist", CONFIG).open()
        grid = expand_grid(CONFIG)
        held = serial_store.load_records()
        for cell in grid[: len(grid) // 2]:
            store.append(held[cell.key])
        records = run_distributed_sweep(
            CONFIG,
            store=store,
            queue_dir=tmp_path / "queue",
            workers=2,
            ttl=5.0,
            heartbeat_interval=0.1,
            poll_interval=0.05,
        )
        assert set(records) == {cell.key for cell in grid}
        assert diff_stores(serial_store.root, store.root) == []
        queue = LeaseQueue.open(tmp_path / "queue")
        assert queue.stats().total == len(grid) - len(grid) // 2

    def test_nothing_pending_spawns_no_workers(self, tmp_path, serial_store):
        store = ResultStore(tmp_path / "dist", CONFIG).open()
        for record in serial_store.load_records().values():
            store.append(record)
        records = run_distributed_sweep(
            CONFIG,
            store=store,
            queue_dir=tmp_path / "queue",
            workers=2,
        )
        assert set(records) == {cell.key for cell in expand_grid(CONFIG)}
        assert not (tmp_path / "queue" / "manifest.json").exists()


class FakeClock:
    """Deterministic time for queue property tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _fabricated_record(cell):
    """A deterministic stand-in for execute_cell: the payload is a pure
    function of the cell key, so duplicate executions are byte-identical
    (exactly the property the real engine guarantees via seeding)."""
    return CellRecord(
        algorithm=cell.algorithm,
        n=cell.n,
        trial=cell.trial,
        epsilon=CONFIG.epsilon,
        transmissions={"total": cell.n * 100 + cell.trial},
        ticks=cell.n + cell.trial,
        converged=True,
        error=0.01,
    )


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def queue(tmp_path, clock):
    return LeaseQueue.create(
        tmp_path / "queue", expand_grid(CONFIG), ttl=10.0, clock=clock
    )


class TestLeaseQueueProperties:
    def test_claims_are_exclusive(self, queue):
        grid = expand_grid(CONFIG)
        leases = [queue.claim(f"w{i}") for i in range(len(grid) + 2)]
        held = [lease for lease in leases if lease is not None]
        assert len(held) == len(grid)
        assert leases[-1] is None and leases[-2] is None
        assert {lease.id for lease in held} == {
            cell_id(cell) for cell in grid
        }

    def test_reclamation_never_fires_on_live_heartbeat(self, queue, clock):
        """As long as the owner heartbeats within the ttl, no amount of
        elapsed time or claim pressure can steal the lease."""
        lease = queue.claim("steady")
        for _ in range(50):  # 50 × 9s = 450s total, every beat in time
            clock.advance(9.0)
            queue.heartbeat(lease)
            stolen = queue.claim("thief")
            assert stolen is None or stolen.cell != lease.cell
            if stolen is not None:
                queue.release(stolen)
        assert queue.stats().reclamations == 0
        queue.complete(lease)  # still ours to complete

    def test_stale_lease_is_reclaimed_with_audit_trail(self, queue, clock):
        lease = queue.claim("doomed")
        clock.advance(10.0)  # exactly ttl: stale
        stolen = queue.claim("rescuer")
        assert stolen.cell == lease.cell
        assert stolen.attempt == lease.attempt + 1
        (entry,) = queue.reclamation_log()
        assert entry["reclaimed_by"] == "rescuer"
        assert entry["reclaimed_at"] - entry["stale_heartbeat"] >= queue.ttl
        with pytest.raises(LeaseLost):
            queue.heartbeat(lease)

    def test_zombie_completion_is_idempotent(self, queue, clock):
        """A reclaimed-but-alive worker finishing anyway is harmless:
        complete() is an atomic overwrite of an identical marker."""
        zombie = queue.claim("zombie")
        clock.advance(99.0)
        fresh = queue.claim("rescuer")
        assert fresh.cell == zombie.cell
        queue.complete(fresh)
        queue.complete(zombie)  # late duplicate: no error, still done
        assert cell_id(zombie.cell) in queue.done_cells()
        assert queue.claim("anyone") is not None  # next cell, not this one

    def test_drained_requires_every_cell(self, queue):
        grid = expand_grid(CONFIG)
        for _ in range(len(grid) - 1):
            queue.complete(queue.claim("w"))
        assert not queue.drained()
        queue.complete(queue.claim("w"))
        assert queue.drained()
        assert queue.claim("w") is None

    def test_torn_lease_write_counts_as_stale(self, queue, clock):
        """A claimant that died mid-claim leaves an unparseable lease;
        it must be reclaimable immediately, not wedge the cell."""
        lease = queue.claim("torn")
        lease.path.write_text('{"owner": "torn", "hea')
        rescued = queue.claim("rescuer")
        assert rescued.cell == lease.cell
        (entry,) = queue.reclamation_log()
        assert entry["stale_heartbeat"] is None

    def test_claim_never_sees_a_lease_half_written(
        self, queue, monkeypatch
    ):
        """A rival claiming while the creator is between creating its
        lease and writing it must not take the lease for a torn write
        and steal the cell: exactly one of them holds each cell."""
        rival: list = []
        write = json.dump

        def paused_write(payload, handle, **kwargs):
            if payload.get("owner") == "creator" and not rival:
                rival.append(queue.claim("rival"))
            write(payload, handle, **kwargs)

        monkeypatch.setattr(json, "dump", paused_write)
        creator = queue.claim("creator")
        monkeypatch.undo()
        (stolen,) = rival
        assert creator is not None and stolen is not None
        assert creator.cell != stolen.cell
        assert queue.reclamation_log() == []
        assert queue.lease_owners() == {"creator", "rival"}
        queue.heartbeat(creator)
        queue.heartbeat(stolen)

    def test_stray_claim_temp_file_is_not_a_lease(self, queue):
        """A claimant that died before linking its lease leaves only a
        temp file, which neither blocks the cell nor names an owner."""
        grid = expand_grid(CONFIG)
        queue.lease_dir.mkdir(parents=True, exist_ok=True)
        for cell in grid:
            stray = queue.lease_dir / f".{cell_id(cell)}.dead.claim"
            stray.write_text(json.dumps({"owner": "dead", "heartbeat": 0.0}))
        assert queue.lease_owners() == set()
        held = [queue.claim("w") for _ in grid]
        assert {lease.id for lease in held} == {cell_id(c) for c in grid}
        assert queue.lease_owners() == {"w"}
        assert queue.reclamation_log() == []

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_schedules_lose_and_duplicate_nothing(
        self, tmp_path, seed
    ):
        """Seeded schedule fuzzing: workers claim, beat, complete, stall,
        and crash in random interleavings; afterwards the merged store
        must hold every cell exactly once with zero divergence."""
        rng = random.Random(seed)
        clock = FakeClock()
        grid = expand_grid(CONFIG)
        queue = LeaseQueue.create(
            tmp_path / "queue", grid, ttl=5.0, clock=clock
        )
        shards = {f"w{i}": [] for i in range(3)}
        held = {}  # worker -> live lease
        for _ in range(600):
            if queue.drained():
                break
            clock.advance(rng.uniform(0.1, 1.5))
            worker = rng.choice(sorted(shards))
            lease = held.get(worker)
            if lease is None:
                lease = queue.claim(worker)
                if lease is not None:
                    held[worker] = lease
                continue
            action = rng.random()
            if action < 0.35:  # stay alive
                try:
                    queue.heartbeat(lease)
                except LeaseLost:
                    held.pop(worker)
            elif action < 0.75:  # finish the cell (maybe as a zombie)
                shards[worker].append(_fabricated_record(lease.cell))
                queue.complete(lease)
                held.pop(worker)
            elif action < 0.9:
                pass  # stall: no beat this round; may go stale
            else:  # crash: lease abandoned, worker reincarnates
                held.pop(worker)
        for worker in sorted(shards):  # drain deterministically
            while True:
                lease = queue.claim(worker)
                if lease is None:
                    break
                shards[worker].append(_fabricated_record(lease.cell))
                queue.complete(lease)
        assert queue.drained()
        merged = ResultStore(tmp_path / "merged", CONFIG).open()
        appended = duplicates = 0
        for worker in sorted(shards):
            outcome = merged.merge_records(shards[worker], source=worker)
            appended += outcome["appended"]
            duplicates += outcome["duplicates"]
        records = merged.load_records()
        assert set(records) == {cell.key for cell in grid}  # nothing lost
        assert appended == len(grid)  # nothing duplicated in the store
        executions = sum(len(s) for s in shards.values())
        assert duplicates == executions - len(grid)
        for cell in grid:  # re-execution was idempotent
            assert records[cell.key] == _fabricated_record(cell)

    def test_fuzzed_divergence_is_always_caught(self, tmp_path):
        """If a shard record were ever nondeterministic, the merge must
        refuse it — under any interleaving order of the shards."""
        grid = expand_grid(CONFIG)
        good = [_fabricated_record(cell) for cell in grid]
        evil = dataclasses.replace(
            good[3], transmissions={"total": 1}, ticks=1
        )
        for order in ([good, [evil]], [[evil], good]):
            merged = ResultStore(tmp_path / f"m{id(order)}", CONFIG).open()
            merged.merge_records(order[0], source="first")
            with pytest.raises(ShardDivergenceError):
                merged.merge_records(order[1], source="second")


class TestServiceHelpers:
    def test_config_payload_round_trips_every_field(self):
        config = ExperimentConfig(
            sizes=(16, 24),
            epsilon=0.25,
            trials=3,
            radius_constant=2.5,
            field="random",
            root_seed=7,
            algorithms=("randomized",),
            topology="grid2d",
            fields=2,
            workload="quantile",
        )
        assert config_from_payload(config_payload(config)) == config

    def test_manifest_pins_the_content_key(self):
        manifest = service_manifest(CONFIG, check_stride=4)
        restored = config_from_payload(manifest["config"])
        shard = worker_store("unused", "w0", restored, 4)
        assert shard.key == manifest["key"]

    def test_worker_refuses_a_perturbed_manifest(self, tmp_path):
        """The content-key round-trip guard: a manifest whose payload no
        longer matches its pinned key must stop the worker cold."""
        from repro.engine.service import run_worker

        manifest = service_manifest(CONFIG)
        manifest["key"] = "0" * 16  # not the key the config derives
        LeaseQueue.create(
            tmp_path / "queue",
            expand_grid(CONFIG),
            ttl=5.0,
            payload=manifest,
        )
        with pytest.raises(ValueError, match="content key"):
            run_worker(tmp_path / "queue", "w0")

    def test_merge_shards_copies_traces_first_wins(
        self, tmp_path, serial_store
    ):
        held = serial_store.load_records()
        grid = expand_grid(CONFIG)
        for worker, cells in (("w0", grid[:3]), ("w1", grid[2:])):
            shard = worker_store(tmp_path / "queue", worker, CONFIG).open()
            traces = shard.directory / "traces"
            traces.mkdir()
            for cell in cells:
                shard.append(held[cell.key])
                (traces / f"{cell_id(cell)}.jsonl").write_text(
                    f'{{"from": "{worker}"}}\n'
                )
        merged = ResultStore(tmp_path / "merged", CONFIG)
        report = merge_shards(merged, shards_root(tmp_path / "queue"))
        assert report == {
            "shards": 2,
            "appended": len(grid),
            "duplicates": 1,  # grid[2] landed in both shards
            "traces": len(grid),
        }
        overlap = merged.directory / "traces" / f"{cell_id(grid[2])}.jsonl"
        assert json.loads(overlap.read_text()) == {"from": "w0"}
        assert diff_stores(serial_store.root, merged.root) == []

    def test_partial_report_streams_shard_progress(
        self, tmp_path, serial_store
    ):
        store = ResultStore(tmp_path / "canonical", CONFIG).open()
        held = serial_store.load_records()
        grid = expand_grid(CONFIG)
        shard = worker_store(tmp_path / "queue", "w0", CONFIG).open()
        shard.append(held[grid[0].key])
        out = tmp_path / "report.md"
        _publish_report({store.key: store}, shards_root(tmp_path / "queue"), out)
        report = out.read_text()
        assert report.startswith(f"## Grid `{store.key}`")
        assert f"1/{len(grid)} cells complete" in report


class TestCoordinatorRecovery:
    def test_crashed_coordinator_shards_are_inherited(
        self, tmp_path, serial_store
    ):
        """A coordinator that died after a worker shard landed half the
        grid: the next session merges that shard first, enqueues only
        the missing cells, and counts the inherited records into its
        merge counters."""
        grid = expand_grid(CONFIG)
        held = serial_store.load_records()
        half = len(grid) // 2
        queue_dir = tmp_path / "queue"
        shard = worker_store(queue_dir, "w0", CONFIG).open()
        for cell in grid[:half]:
            shard.append(held[cell.key])
        assert (shard.directory / "cells.jsonl") == (
            queue_dir / "shards" / "w0" / shard.key / "cells.jsonl"
        )

        store = ResultStore(tmp_path / "dist", CONFIG)
        records = run_distributed_sweep(
            CONFIG,
            store=store,
            queue_dir=queue_dir,
            workers=2,
            ttl=5.0,
            heartbeat_interval=0.1,
            poll_interval=0.05,
            metrics_port=0,
        )
        assert set(records) == {cell.key for cell in grid}
        queue = LeaseQueue.open(queue_dir)
        assert queue.stats().total == len(grid) - half
        assert {tuple(entry["cell"]) for entry in queue.done_log()} == {
            cell.key for cell in grid[half:]
        }
        telemetry = json.loads((queue_dir / "telemetry.json").read_text())
        # The inherited half plus the half this session executed.
        assert telemetry["metrics"]["repro_merge_appended_total"] == len(grid)
        assert diff_stores(serial_store.root, store.root) == []


class _FakeProc:
    """A fleet member stand-in that records the signals it receives."""

    def __init__(self, exitcode=None):
        self.exitcode = exitcode
        self.signals = []

    def terminate(self):
        self.signals.append("SIGTERM")


class _FakeQueue:
    def __init__(self, owners):
        self.owners = set(owners)

    def lease_owners(self):
        return set(self.owners)


class TestSessionTail:
    """The end of a session waits for nothing but its last cell."""

    def test_session_returns_without_waiting_out_the_poll_interval(
        self, tmp_path, serial_store, monkeypatch
    ):
        """A 30 s poll interval used to bound the tail from below: the
        coordinator and the idle worker each napped it out.  The
        coordinator now wakes when a worker exits and stops the idle one,
        so the session ends as soon as its cells land and reaps every
        worker it started."""
        from repro.engine.service import _WorkerFleet

        launched = []
        launch = _WorkerFleet._launch

        def _recording_launch(self, worker_id):
            member = launch(self, worker_id)
            launched.append(member[1])
            return member

        monkeypatch.setattr(_WorkerFleet, "_launch", _recording_launch)
        store = ResultStore(tmp_path / "dist", CONFIG)
        started = time.monotonic()
        records = run_distributed_sweep(
            CONFIG,
            store=store,
            queue_dir=tmp_path / "queue",
            workers=2,
            poll_interval=30.0,
        )
        elapsed = time.monotonic() - started
        try:
            assert elapsed < 15.0, f"session took {elapsed:.1f}s"
            assert len(launched) == 2
            assert [proc.exitcode is None for proc in launched] == [False] * 2
        finally:
            for proc in launched:
                if proc.exitcode is None:
                    proc.kill()
        assert set(records) == {cell.key for cell in expand_grid(CONFIG)}
        assert diff_stores(serial_store.root, store.root) == []

    def test_stop_idle_signals_only_members_without_a_lease(self, tmp_path):
        from repro.engine.service import _WorkerFleet

        fleet = _WorkerFleet(tmp_path, 1.0, 0.2, 0.0, budget=0)
        busy, idle, gone = _FakeProc(), _FakeProc(), _FakeProc(exitcode=0)
        fleet.members = [("w0", busy), ("w1", idle), ("w2", gone)]
        assert fleet.stop_idle(_FakeQueue({"w0"})) == [busy]
        assert busy.signals == []
        assert idle.signals == ["SIGTERM"]
        assert gone.signals == []

    def test_dispatch_order_is_largest_n_first_with_trials_kept_together(
        self,
    ):
        from repro.engine.service import _dispatch_order

        config = ExperimentConfig(
            sizes=(32, 96, 64),
            trials=2,
            algorithms=("randomized", "geographic", "hierarchical"),
        )
        grid = expand_grid(config)
        order = _dispatch_order(grid)
        assert sorted(cell.key for cell in order) == sorted(
            cell.key for cell in grid
        )
        assert [cell.n for cell in order] == sorted(
            (cell.n for cell in grid), reverse=True
        )
        width = len(config.algorithms)
        for start in range(0, len(order), width):
            trial = order[start : start + width]
            assert len({(cell.n, cell.trial) for cell in trial}) == 1
            assert [cell.algorithm for cell in trial] == list(
                config.algorithms
            )

    def test_enqueued_grid_is_claimed_in_dispatch_order(self, tmp_path):
        from repro.engine.service import _dispatch_order, enqueue_grid

        queue = LeaseQueue.create(
            tmp_path / "queue",
            [],
            ttl=5.0,
            daemon=True,
            payload={"store": str(tmp_path / "store")},
        )
        enqueue_grid(queue, CONFIG)
        claimed = []
        while (lease := queue.claim("t")) is not None:
            claimed.append(lease.cell)
            queue.complete(lease)
        assert claimed == _dispatch_order(expand_grid(CONFIG))
        assert claimed[0].n == max(CONFIG.sizes)
