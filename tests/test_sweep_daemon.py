"""Daemon-mode sweep service: priorities, backpressure, robustness.

Three layers on top of ``test_sweep_service.py``'s chaos battery:

* **Priority queue semantics** — format-2 pending buckets drain
  strictly high-before-low, admission past ``max_pending`` is
  all-or-nothing (:class:`QueueFull` admits *nothing*), re-registration
  is idempotent, and a different config mapping to the same content key
  is refused before it can mix stores.
* **Daemon lifecycle** — a live :func:`run_sweep_daemon` session
  accepts a second grid at a different priority mid-run, serves its
  cells first, exposes per-priority queue depth on ``/metrics`` and the
  drain state on ``/healthz``, and — after ``request_drain`` — merges
  stores byte-identical to serial runs of the same grids.  A SIGKILL
  chaos variant proves the guarantee survives worker death.
* **Coordinator robustness regressions** — the chaos timer runs on the
  monotonic clock (a backwards wall-clock jump can no longer suppress
  an injected kill), and a single dead worker in a three-worker fleet
  is respawned individually instead of waiting for total fleet death.
"""

import json
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.engine.executor import execute_cell, expand_grid
from repro.engine.queue import LeaseQueue, QueueFull
from repro.engine.service import (
    diff_stores,
    enqueue_grid,
    run_distributed_sweep,
    run_sweep_daemon,
    service_manifest,
)
from repro.engine.store import ResultStore
from repro.experiments import ExperimentConfig

GRID_A = ExperimentConfig(
    sizes=(24, 32),
    epsilon=0.3,
    trials=1,
    radius_constant=3.0,
    algorithms=("randomized", "geographic"),
)  # 4 cells
GRID_B = ExperimentConfig(
    sizes=(24,),
    epsilon=0.25,
    trials=2,
    radius_constant=3.0,
    algorithms=("geographic",),
)  # 2 cells

KEY_A = service_manifest(GRID_A)["key"]
KEY_B = service_manifest(GRID_B)["key"]

_REAL_TIME = time.time  # pinned before any monkeypatching


@pytest.fixture(scope="module")
def serial_roots(tmp_path_factory):
    """Ground truth, each cell executed once: ``both`` holds serial runs
    of both grids in one store root, ``a_only`` just grid A."""
    both = tmp_path_factory.mktemp("serial-both")
    a_only = tmp_path_factory.mktemp("serial-a")
    for config, roots in ((GRID_A, (both, a_only)), (GRID_B, (both,))):
        stores = [ResultStore(root, config).open() for root in roots]
        for cell in expand_grid(config):
            record = execute_cell(config, cell)
            for store in stores:
                store.append(record)
    return {"both": both, "a_only": a_only}


def _wait_for(predicate, timeout, message):
    deadline = _REAL_TIME() + timeout
    while _REAL_TIME() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout}s waiting for {message}")


def _daemon_thread(store_root, queue_dir, **kwargs):
    """Run the daemon coordinator on a thread; surface result/error."""
    box = {"result": None, "error": None}

    def target():
        try:
            box["result"] = run_sweep_daemon(
                store_root, queue_dir=queue_dir, **kwargs
            )
        except BaseException as error:  # noqa: BLE001 — re-raised by test
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read().decode()


class TestPriorityQueue:
    def test_high_priority_grid_drains_first(self, tmp_path):
        """Grid B registered *later* at p0 is claimed entirely before
        the p1 backlog of grid A continues."""
        queue = LeaseQueue.create(tmp_path / "q", [], ttl=10.0, daemon=True)
        queue.register_grid(
            service_manifest(GRID_A), expand_grid(GRID_A), priority=1
        )
        queue.register_grid(
            service_manifest(GRID_B), expand_grid(GRID_B), priority=0
        )
        order = []
        while True:
            lease = queue.claim("w")
            if lease is None:
                break
            order.append(lease.grid)
            queue.complete(lease)
        assert order == [KEY_B] * 2 + [KEY_A] * 4
        assert queue.drained()

    def test_admission_past_max_pending_is_all_or_nothing(self, tmp_path):
        queue = LeaseQueue.create(
            tmp_path / "q", [], ttl=10.0, daemon=True, max_pending=5
        )
        queue.register_grid(
            service_manifest(GRID_A), expand_grid(GRID_A), priority=1
        )
        with pytest.raises(QueueFull):
            queue.register_grid(
                service_manifest(GRID_B), expand_grid(GRID_B), priority=0
            )
        # Nothing from the refused grid landed: no descriptor, no cells.
        assert KEY_B not in queue.grids()
        assert queue.pending_depth() == 4
        assert queue.stats().pending_by_priority == (0, 4, 0)
        # Draining one cell makes room for the whole grid (4-1+2 == 5).
        queue.complete(queue.claim("w"))
        report = queue.register_grid(
            service_manifest(GRID_B), expand_grid(GRID_B), priority=0
        )
        assert report["enqueued"] == 2
        assert queue.pending_depth() == 5

    def test_reregistration_is_idempotent(self, tmp_path):
        queue = LeaseQueue.create(tmp_path / "q", [], ttl=10.0, daemon=True)
        first = queue.register_grid(
            service_manifest(GRID_A), expand_grid(GRID_A), priority=1
        )
        again = queue.register_grid(
            service_manifest(GRID_A), expand_grid(GRID_A), priority=1
        )
        assert first["enqueued"] == 4
        assert (again["enqueued"], again["skipped"]) == (0, 4)
        assert queue.pending_depth() == 4

    def test_conflicting_payload_for_one_key_is_refused(self, tmp_path):
        queue = LeaseQueue.create(tmp_path / "q", [], ttl=10.0, daemon=True)
        payload = service_manifest(GRID_A)
        queue.register_grid(payload, expand_grid(GRID_A), priority=1)
        forged = dict(service_manifest(GRID_B), key=payload["key"])
        with pytest.raises(ValueError, match="refusing"):
            queue.register_grid(forged, expand_grid(GRID_B), priority=1)

    def test_invalid_priority_is_rejected(self, tmp_path):
        queue = LeaseQueue.create(tmp_path / "q", [], ttl=10.0, daemon=True)
        with pytest.raises(ValueError, match="priority"):
            queue.register_grid(
                service_manifest(GRID_A), expand_grid(GRID_A), priority=5
            )

    def test_drain_marker_and_daemon_flag(self, tmp_path):
        queue = LeaseQueue.create(tmp_path / "q", [], ttl=10.0, daemon=True)
        assert queue.daemon
        assert not queue.drain_requested()
        queue.request_drain()
        assert queue.drain_requested()
        # Reopened handles see the marker: it lives on the filesystem.
        assert LeaseQueue.open(queue.root).drain_requested()


class TestBackpressure:
    def _bounded_queue(self, tmp_path, max_pending=1):
        return LeaseQueue.create(
            tmp_path / "q",
            [],
            ttl=10.0,
            daemon=True,
            max_pending=max_pending,
            payload={"service": "daemon", "store": str(tmp_path / "store")},
        )

    def test_enqueue_grid_raises_queuefull(self, tmp_path):
        queue = self._bounded_queue(tmp_path)
        with pytest.raises(QueueFull):
            enqueue_grid(queue.root, GRID_A, priority=0)

    def test_blocking_enqueue_times_out(self, tmp_path):
        queue = self._bounded_queue(tmp_path)
        with pytest.raises(QueueFull):
            enqueue_grid(
                queue.root,
                GRID_A,
                priority=0,
                block=True,
                block_poll_interval=0.05,
                block_timeout=0.2,
            )

    def test_cli_enqueue_exits_3(self, tmp_path):
        queue = self._bounded_queue(tmp_path)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "enqueue",
                "--queue-dir",
                str(queue.root),
                "--sizes",
                "24,32",
                "--trials",
                "1",
                "--algorithms",
                "randomized,geographic",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 3
        assert "max_pending" in result.stderr


class TestDaemonLifecycle:
    def test_mid_run_enqueue_priority_and_bit_identity(
        self, tmp_path, serial_roots
    ):
        """The tentpole end to end: grid A starts at p1, grid B arrives
        mid-run at p0 and is served first, per-priority depth shows on
        /metrics, /healthz follows the lifecycle, and after drain both
        merged stores equal the serial references byte for byte."""
        store_root = tmp_path / "store"
        queue_dir = tmp_path / "queue"
        urls = []
        thread, box = _daemon_thread(
            store_root,
            queue_dir,
            workers=1,
            ttl=5.0,
            heartbeat_interval=0.05,
            poll_interval=0.05,
            worker_throttle=0.25,
            metrics_port=0,
            on_metrics_url=urls.append,
            initial_grids=[(GRID_A, 1, False, 1)],
        )
        try:
            _wait_for(
                lambda: (queue_dir / "manifest.json").exists(),
                timeout=10,
                message="the daemon queue to appear",
            )
            queue = LeaseQueue.open(queue_dir)
            _wait_for(
                lambda: len(queue.done_cells()) >= 1,
                timeout=60,
                message="the first grid-A cell to finish",
            )
            report = enqueue_grid(queue_dir, GRID_B, priority=0)
            t_enqueued = _REAL_TIME()
            assert report["grid"] == KEY_B
            assert report["enqueued"] == 2

            _wait_for(lambda: urls, timeout=10, message="the metrics URL")
            _wait_for(
                lambda: 'repro_queue_depth{priority="p0"}'
                in _get(f"{urls[0]}/metrics"),
                timeout=10,
                message="the per-priority depth gauge",
            )
            health = json.loads(_get(f"{urls[0]}/healthz"))
            assert health["status"] == "ok"
            assert health["service"]["daemon"] is True
            assert health["queue"]["pending_by_priority"].keys() == {
                "p0",
                "p1",
                "p2",
            }

            queue.request_drain()
            try:
                draining = json.loads(_get(f"{urls[0]}/healthz"))
            except OSError:
                pass  # already shut down — drain won the race
            else:
                assert draining["status"] == "draining"
            thread.join(timeout=120)
            assert not thread.is_alive()
        finally:
            try:
                LeaseQueue.open(queue_dir).request_drain()
            except (FileNotFoundError, ValueError):
                pass  # the daemon never got as far as creating the queue
            thread.join(timeout=30)
        if box["error"] is not None:
            raise box["error"]
        assert set(box["result"]) == {KEY_A, KEY_B}

        # Priority inversion check: once grid B (p0) was on disk, every
        # claim had to drain it before returning to grid A's p1 backlog.
        log = queue.done_log()
        b_claims = [e["claimed_at"] for e in log if e["grid"] == KEY_B]
        a_after = [
            e["claimed_at"]
            for e in log
            if e["grid"] == KEY_A and e["claimed_at"] > t_enqueued + 0.2
        ]
        assert len(b_claims) == 2
        assert a_after, "expected grid-A cells still pending at enqueue time"
        assert max(b_claims) < min(a_after)

        assert diff_stores(serial_roots["both"], store_root) == []

    def test_daemon_sigkill_chaos_stays_bit_identical(
        self, tmp_path, serial_roots
    ):
        """Both grids queued, one worker SIGKILLed while holding a
        lease: reclamation + individual respawn must still drain to a
        store byte-identical to the serial references."""
        store_root = tmp_path / "store"
        queue_dir = tmp_path / "queue"
        thread, box = _daemon_thread(
            store_root,
            queue_dir,
            workers=2,
            ttl=0.6,
            heartbeat_interval=0.05,
            poll_interval=0.05,
            worker_throttle=0.4,
            chaos_kill_after=0.2,
            initial_grids=[(GRID_A, 1, False, 1), (GRID_B, 1, False, 0)],
        )
        try:
            _wait_for(
                lambda: (queue_dir / "manifest.json").exists(),
                timeout=10,
                message="the daemon queue to appear",
            )
            queue = LeaseQueue.open(queue_dir)
            _wait_for(
                lambda: queue.stats().reclamations >= 1,
                timeout=60,
                message="the chaos kill to force a reclamation",
            )
        finally:
            try:
                LeaseQueue.open(queue_dir).request_drain()
            except (FileNotFoundError, ValueError):
                pass  # the daemon never got as far as creating the queue
            thread.join(timeout=120)
        assert not thread.is_alive()
        if box["error"] is not None:
            raise box["error"]
        assert set(box["result"]) == {KEY_A, KEY_B}
        assert queue.stats().reclamations >= 1
        telemetry = json.loads((queue_dir / "telemetry.json").read_text())
        assert telemetry["service"]["daemon"] is True
        assert telemetry["service"]["respawns"] >= 1
        assert diff_stores(serial_roots["both"], store_root) == []


class TestCoordinatorRobustness:
    def test_chaos_timer_survives_wall_clock_jump(self, tmp_path, monkeypatch):
        """Regression: the chaos timer used to run on ``time.time()``,
        so a backwards wall-clock step (NTP, DST) silently suppressed
        the injected kill.  With the coordinator on the monotonic clock
        the kill — and the reclamation it forces — must still happen
        even when the wall clock jumps back an hour mid-session."""
        start = _REAL_TIME()

        def jumping():
            now = _REAL_TIME()
            return now - (3600.0 if now - start > 0.15 else 0.0)

        monkeypatch.setattr(time, "time", jumping)
        store = ResultStore(tmp_path / "store", GRID_A)
        records = run_distributed_sweep(
            GRID_A,
            store=store,
            queue_dir=tmp_path / "queue",
            workers=2,
            ttl=0.6,
            heartbeat_interval=0.05,
            poll_interval=0.05,
            worker_throttle=0.4,
            chaos_kill_after=0.3,
        )
        assert len(records) == len(expand_grid(GRID_A))
        queue = LeaseQueue.open(tmp_path / "queue")
        assert queue.stats().reclamations >= 1

    def test_one_dead_worker_is_respawned_individually(
        self, tmp_path, serial_roots
    ):
        """Regression: respawning used to trigger only once *every*
        worker had exited, so killing 1 of 3 degraded the fleet to 2
        forever.  Now the victim is replaced against the budget while
        its siblings keep running, and the sweep drains bit-identical."""
        store_root = tmp_path / "store"
        store = ResultStore(store_root, GRID_A)
        records = run_distributed_sweep(
            GRID_A,
            store=store,
            queue_dir=tmp_path / "queue",
            workers=3,
            ttl=0.6,
            heartbeat_interval=0.05,
            poll_interval=0.05,
            worker_throttle=0.4,
            chaos_kill_after=0.2,
        )
        assert len(records) == len(expand_grid(GRID_A))
        queue = LeaseQueue.open(tmp_path / "queue")
        assert queue.stats().reclamations >= 1
        telemetry = json.loads(
            (tmp_path / "queue" / "telemetry.json").read_text()
        )
        assert telemetry["service"]["respawns"] >= 1
        # A respawned worker carries its ancestor's id plus an r<n>
        # suffix — provenance stays readable in the shard layout.
        shard_owners = {
            p.name for p in (tmp_path / "queue" / "shards").iterdir()
        }
        assert any("r" in owner for owner in shard_owners)
        assert diff_stores(serial_roots["a_only"], store_root) == []


class TestOneCoordinator:
    @pytest.mark.parametrize("daemon", [False, True])
    @pytest.mark.parametrize("drain", [False, True])
    def test_finished_is_the_shared_exit_rule(self, tmp_path, daemon, drain):
        """A queue with work left is never finished; a drained one is
        finished unless it is a daemon queue nobody asked to drain."""
        queue = LeaseQueue.create(
            tmp_path / "q",
            expand_grid(GRID_A),
            ttl=5.0,
            daemon=daemon,
            payload=service_manifest(GRID_A),
        )
        if drain:
            queue.request_drain()
        assert not queue.finished()
        for _ in expand_grid(GRID_A):
            queue.complete(queue.claim("w0"))
        assert queue.drained()
        assert queue.finished() == (not daemon or drain)

    def test_one_shot_and_drained_daemon_share_one_shape(
        self, tmp_path, serial_roots
    ):
        """The one-shot session and a daemon session with drain requested
        up front run the same loop: the same /healthz and telemetry.json
        key sets, and stores that diff clean against each other."""
        healths: dict[str, dict] = {}

        def scrape(mode, urls):
            def on_progress(stats) -> None:
                healths.setdefault(mode, json.loads(_get(f"{urls[0]}/healthz")))

            return on_progress

        one_urls: list[str] = []
        run_distributed_sweep(
            GRID_A,
            store=ResultStore(tmp_path / "one-shot", GRID_A),
            queue_dir=tmp_path / "q1",
            workers=2,
            ttl=5.0,
            heartbeat_interval=0.05,
            poll_interval=0.05,
            metrics_port=0,
            on_metrics_url=one_urls.append,
            on_progress=scrape("one-shot", one_urls),
        )
        daemon_urls: list[str] = []

        def drain_up_front(url: str) -> None:
            # Called once the queue exists and the fleet is forked,
            # before the coordinator's first poll.
            daemon_urls.append(url)
            LeaseQueue.open(tmp_path / "q2").request_drain()

        results = run_sweep_daemon(
            tmp_path / "daemon",
            queue_dir=tmp_path / "q2",
            workers=2,
            ttl=5.0,
            heartbeat_interval=0.05,
            poll_interval=0.05,
            metrics_port=0,
            on_metrics_url=drain_up_front,
            on_progress=scrape("daemon", daemon_urls),
            initial_grids=[(GRID_A, 1, False, 1)],
        )
        assert set(results) == {KEY_A}
        assert diff_stores(tmp_path / "one-shot", tmp_path / "daemon") == []
        assert diff_stores(serial_roots["a_only"], tmp_path / "daemon") == []

        one, daemon = (
            json.loads((tmp_path / q / "telemetry.json").read_text())
            for q in ("q1", "q2")
        )
        assert one.keys() == daemon.keys()
        assert "metrics" in one
        assert one["service"].keys() == daemon["service"].keys()
        assert (one["service"]["daemon"], daemon["service"]["daemon"]) == (
            False,
            True,
        )
        # The daemon drained on request; a one-shot queue never needs to.
        assert (one["service"]["draining"], daemon["service"]["draining"]) == (
            False,
            True,
        )
        for key in ("grids", "respawns", "workers_alive"):
            assert one["service"][key] == daemon["service"][key], key
        assert healths["one-shot"].keys() == healths["daemon"].keys()
        assert (
            healths["one-shot"]["service"].keys()
            == healths["daemon"]["service"].keys()
        )
        assert healths["one-shot"]["status"] == "ok"
        assert healths["daemon"]["status"] == "draining"
        for mode in ("q1", "q2"):
            report = (tmp_path / mode / "partial_report.md").read_text()
            assert report.startswith(f"## Grid `{KEY_A}`")


def _record_launches(monkeypatch) -> dict:
    """Record every member the fleet forks, by worker id."""
    from repro.engine.service import _WorkerFleet

    launched: dict = {}
    launch = _WorkerFleet._launch

    def recording(self, worker_id):
        member = launch(self, worker_id)
        launched[worker_id] = member[1]
        return member

    monkeypatch.setattr(_WorkerFleet, "_launch", recording)
    return launched


class TestForkedMembers:
    """Members are forked from the coordinator, so they must not keep
    what the coordinator installed: its SIGTERM/SIGINT drain handlers."""

    def test_sigterm_stops_an_idle_member_without_draining(
        self, tmp_path, monkeypatch
    ):
        """``stop_idle`` relies on SIGTERM stopping a member.  A member
        that kept the daemon's handler would request a drain instead."""
        launched = _record_launches(monkeypatch)
        queue_dir = tmp_path / "queue"
        seen: dict = {}

        def operator() -> None:
            try:
                _wait_for(
                    lambda: "w0" in launched
                    and (queue_dir / "manifest.json").exists(),
                    timeout=30,
                    message="the first member",
                )
                queue = LeaseQueue.open(queue_dir)
                victim = launched["w0"]
                victim.terminate()  # idle: the daemon queue is empty
                _wait_for(
                    lambda: victim.exitcode is not None,
                    timeout=30,
                    message="the member to stop",
                )
                seen["exitcode"] = victim.exitcode
                seen["draining"] = queue.drain_requested()
            finally:
                LeaseQueue.open(queue_dir).request_drain()

        thread = threading.Thread(target=operator, daemon=True)
        thread.start()
        results = run_sweep_daemon(
            tmp_path / "store",
            queue_dir=queue_dir,
            workers=1,
            poll_interval=0.05,
            handle_signals=True,
        )
        thread.join(timeout=30)
        assert results == {}
        assert seen == {"exitcode": -signal.SIGTERM, "draining": False}

    def test_member_restores_the_default_handlers(self, tmp_path, monkeypatch):
        """A member handles SIGINT and SIGTERM as a fresh interpreter
        would, not with the daemon coordinator's drain handler."""
        import repro.engine.service as service

        launched = _record_launches(monkeypatch)
        handlers = tmp_path / "handlers.json"

        def report_handlers(queue_dir, worker_id, **options) -> int:
            handlers.write_text(
                json.dumps(
                    {
                        "sigint": signal.getsignal(signal.SIGINT)
                        is signal.default_int_handler,
                        "sigterm": signal.getsignal(signal.SIGTERM)
                        == signal.SIG_DFL,
                    }
                )
            )
            return 0

        monkeypatch.setattr(service, "run_worker", report_handlers)

        def drain_once_reported() -> None:
            try:
                _wait_for(
                    lambda: "w0" in launched
                    and launched["w0"].exitcode is not None,
                    timeout=30,
                    message="the member to report and exit",
                )
            finally:
                LeaseQueue.open(tmp_path / "queue").request_drain()

        thread = threading.Thread(target=drain_once_reported, daemon=True)
        thread.start()
        results = run_sweep_daemon(
            tmp_path / "store",
            queue_dir=tmp_path / "queue",
            workers=1,
            max_respawns=0,
            poll_interval=0.05,
            handle_signals=True,
        )
        thread.join(timeout=30)
        assert results == {}
        assert json.loads(handlers.read_text()) == {
            "sigint": True,
            "sigterm": True,
        }
        assert launched["w0"].exitcode == 0

