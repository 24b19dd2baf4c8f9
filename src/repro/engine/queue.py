"""File-backed lease queue: the work-distribution substrate of the sweep
service.

A distributed sweep needs exactly one piece of shared mutable state: *who
is working on which cell right now*.  Everything else — what a cell is,
how it executes, where its record lands — is already deterministic and
append-only.  This module keeps that one piece of state on the
filesystem, using only atomic primitives every POSIX filesystem provides
(``O_CREAT | O_EXCL`` and ``os.link`` exclusive creation, ``os.rename``
within a directory), so N worker *processes* (or N hosts over a shared
filesystem) can coordinate without a broker.

Layout (queue format 2)::

    <queue root>/
      manifest.json            # format, lease ttl, daemon flag, admission
                               # bound, opaque service payload
      grids/<key>.json         # immutable grid descriptor per enqueued
                               # sweep (config payload + priority)
      pending/p0/              # priority-classed registration buckets:
      pending/p1/              #   <seq>__<stem>.json, claimed strictly
      pending/p2/              #   high-before-low (p0 first), FIFO within
      leases/<stem>.json       # live lease: owner, heartbeat, attempt
      done/<stem>.json         # completion marker: owner, attempt, timing
      reclaimed/<stem>.a<k>.json  # audit log of every reclaimed lease
      drain                    # drain marker: stop accepting, finish work

A cell's *stem* is its :func:`cell_id`, prefixed by its grid's content
key when the cell was enqueued through a grid descriptor — so a daemon
session can carry cells of several sweeps without identity collisions.

Lease lifecycle (see ``docs/sweep_service.md`` for the full rules):

* **claim** — a worker acquires a pending cell by *exclusively creating*
  its lease file; exactly one creator wins.  Pending entries are walked
  bucket by bucket (``p0`` → ``p1`` → ``p2``), in enqueue-sequence order
  within each bucket: priority drains strictly high-before-low.  A cell
  is pending when it has no ``done`` marker and no live lease.
* **heartbeat** — the owner periodically rewrites the lease with a fresh
  timestamp (atomic temp-file + ``os.replace``).  A heartbeat against a
  lease that was stolen or superseded raises :class:`LeaseLost`.
* **reclaim** — a lease whose heartbeat is older than the queue's
  ``ttl`` is presumed dead.  A claimant steals it by *renaming* the stale
  lease into the ``reclaimed/`` graveyard — rename is the atomic arbiter,
  so exactly one stealer wins — then claims the cell fresh with the
  attempt counter bumped.
* **complete** — the owner writes the ``done`` marker (atomic replace,
  idempotent), removes its lease, and retires the pending entry.

Daemon sessions additionally grow **admission control**: a queue created
with ``max_pending`` refuses (:class:`QueueFull`) any
:meth:`~LeaseQueue.register_grid` that would push the number of
unfinished registered cells past the bound — the backpressure signal
``repro enqueue`` turns into exit code 3.  :meth:`~LeaseQueue.request_drain`
drops a marker file that tells daemon workers and the coordinator to
finish the backlog and exit instead of idling for more work.

The queue never executes anything and never talks to the result store;
it only arbitrates ownership.  Duplicate execution is *possible by
design* (a worker that stalls past the ttl is presumed dead, gets
reclaimed, then wakes up and finishes anyway) and harmless: cells are
deterministic, so duplicates are byte-identical and the shard merger
(:func:`repro.engine.service.merge_shards`) deduplicates them — and
*asserts* the byte-identity, which turns the failure mode into a
nondeterminism detector.

The clock is injectable (``clock=time.time`` by default) so tests can
drive reclamation deterministically with a fake clock; real deployments
share wall-clock time across workers, and the ttl should be chosen
orders of magnitude above plausible clock skew.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.engine.executor import SweepCell

__all__ = [
    "DEFAULT_PRIORITY",
    "Lease",
    "LeaseLost",
    "LeaseQueue",
    "PRIORITIES",
    "QueueFull",
    "QueueStats",
    "cell_id",
]

#: Bump when the on-disk queue layout changes; refuses foreign manifests.
QUEUE_FORMAT = 2

#: The priority classes, highest first; claims drain p0 before p1 before p2.
PRIORITIES = (0, 1, 2)

#: Where a grid lands when the enqueuer does not say otherwise.
DEFAULT_PRIORITY = 1


def cell_id(cell: SweepCell) -> str:
    """The filesystem-safe identity of one sweep cell.

    Matches the trace-file naming convention
    (:func:`repro.engine.executor.cell_trace_path`) so a cell's lease,
    done marker, and trace all carry the same stem.
    """
    return f"{cell.algorithm}__n{cell.n}__t{cell.trial}"


class LeaseLost(RuntimeError):
    """Raised when a worker heartbeats a lease it no longer owns.

    This happens when the worker stalled past the queue ttl and another
    worker reclaimed the cell.  The correct response is to finish (or
    abandon) the current cell and move on: the record is deterministic,
    so a duplicate completion merges cleanly.
    """


class QueueFull(RuntimeError):
    """Raised when admitting a grid would exceed the queue's
    ``max_pending`` bound — the daemon's backpressure signal.

    Nothing is partially enqueued: the admission check runs before any
    pending entry is written, so a refused grid leaves the queue
    untouched and the enqueue can simply be retried after the backlog
    drains.
    """


@dataclass(frozen=True)
class Lease:
    """A worker's claim on one cell: the handle for heartbeat/complete.

    ``grid`` names the content key of the grid descriptor the cell was
    enqueued under (``None`` for gridless sessions, e.g. property
    tests), so a daemon worker can resolve the right config and shard
    store per cell.
    """

    cell: SweepCell
    owner: str
    attempt: int
    path: Path
    claimed_at: float
    grid: "str | None" = None

    @property
    def id(self) -> str:
        """The leased cell's :func:`cell_id`."""
        return cell_id(self.cell)

    @property
    def stem(self) -> str:
        """The cell's queue-wide identity (grid-prefixed when gridded)."""
        return self.id if self.grid is None else f"{self.grid}__{self.id}"


@dataclass(frozen=True)
class QueueStats:
    """One snapshot of queue health (the service telemetry payload).

    ``pending`` counts cells that are claimable right now — no done
    marker and no *live* lease; a stale-leased cell is pending, because
    the next claimant will reclaim it.  ``pending_by_priority`` splits
    that count per priority class (index 0 = ``p0``).
    """

    total: int
    pending: int
    leased: int
    done: int
    reclamations: int
    pending_by_priority: "tuple[int, ...]" = (0,) * len(PRIORITIES)


class LeaseQueue:
    """Lease-based work queue over a directory of sweep cells.

    Create one per sweep session with :meth:`create` (the coordinator),
    attach from worker processes (or ``repro enqueue`` / ``repro
    drain``) with :meth:`open`.

    Parameters
    ----------
    root:
        The queue directory.
    clock:
        Seconds-returning callable used for heartbeats and staleness;
        injectable so tests can simulate time deterministically.
    """

    def __init__(
        self, root: "str | os.PathLike", clock: Callable[[], float] = time.time
    ):
        self.root = Path(root)
        self.manifest_path = self.root / "manifest.json"
        self.grids_dir = self.root / "grids"
        self.pending_dir = self.root / "pending"
        self.lease_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        self.reclaimed_dir = self.root / "reclaimed"
        self.drain_path = self.root / "drain"
        self._clock = clock
        self._manifest: dict | None = None
        self._grid_cache: dict[str, dict] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        root: "str | os.PathLike",
        cells: Iterable[SweepCell],
        *,
        ttl: float,
        payload: "Mapping | None" = None,
        clock: Callable[[], float] = time.time,
        priority: int = DEFAULT_PRIORITY,
        daemon: bool = False,
        max_pending: "int | None" = None,
    ) -> "LeaseQueue":
        """Initialise a fresh queue session holding ``cells``.

        Any prior session state under ``root`` (leases, done markers,
        pending entries, grid descriptors, reclamation log, manifest,
        drain marker) is wiped — a new session decides pending-ness from
        the *result store*, not from old markers.  Sibling directories
        (notably ``shards/``) are left untouched so a crashed session's
        completed work survives into the next one.

        ``payload`` is an opaque service descriptor that workers read
        back via :meth:`manifest`.  When it carries a sweep grid (a
        ``config`` and its pinned content ``key``, i.e. a
        :func:`repro.engine.service.service_manifest`), the grid is
        registered as this session's first grid descriptor and ``cells``
        are enqueued under it at ``priority``; otherwise the cells are
        enqueued gridless.

        ``daemon=True`` marks a long-lived session: workers idle for
        more work when the queue is momentarily empty, until
        :meth:`request_drain` (or SIGTERM on the coordinator) flips the
        drain marker.  ``max_pending`` bounds admission
        (:meth:`register_grid` raises :class:`QueueFull` past it).
        """
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        queue = cls(root, clock=clock)
        buckets = [queue.pending_dir / f"p{p}" for p in PRIORITIES]
        wipe = [
            queue.lease_dir,
            queue.done_dir,
            queue.reclaimed_dir,
            queue.grids_dir,
            *buckets,
        ]
        for directory in wipe:
            directory.mkdir(parents=True, exist_ok=True)
            for stale in directory.glob("*.json"):
                stale.unlink()
        try:
            queue.drain_path.unlink()
        except FileNotFoundError:
            pass
        manifest = {
            "format": QUEUE_FORMAT,
            "ttl": float(ttl),
            "daemon": bool(daemon),
            "max_pending": max_pending,
            "payload": dict(payload) if payload is not None else {},
        }
        _atomic_write_json(queue.manifest_path, manifest)
        queue._manifest = manifest
        cell_list = list(cells)
        grid_payload = manifest["payload"]
        if "config" in grid_payload and "key" in grid_payload:
            queue.register_grid(grid_payload, cell_list, priority=priority)
        elif cell_list:
            queue._enqueue_cells(None, cell_list, priority)
        return queue

    @classmethod
    def open(
        cls, root: "str | os.PathLike", clock: Callable[[], float] = time.time
    ) -> "LeaseQueue":
        """Attach to an existing queue session (the worker entry)."""
        queue = cls(root, clock=clock)
        queue.manifest()  # raises early on a missing/foreign queue
        return queue

    def manifest(self) -> dict:
        """The session descriptor written by :meth:`create` (cached)."""
        if self._manifest is None:
            try:
                manifest = json.loads(
                    self.manifest_path.read_text(encoding="utf-8")
                )
            except FileNotFoundError:
                raise FileNotFoundError(
                    f"{self.root} holds no queue manifest — create the "
                    "session first (repro serve-sweep, or LeaseQueue.create)"
                ) from None
            if manifest.get("format") != QUEUE_FORMAT:
                raise ValueError(
                    f"queue {self.root} has format "
                    f"{manifest.get('format')!r}, this engine speaks "
                    f"{QUEUE_FORMAT}"
                )
            self._manifest = manifest
        return self._manifest

    @property
    def ttl(self) -> float:
        """Seconds after the last heartbeat at which a lease is stale."""
        return float(self.manifest()["ttl"])

    @property
    def daemon(self) -> bool:
        """True for a long-lived session (workers idle instead of exiting
        when the queue is momentarily empty)."""
        return bool(self.manifest().get("daemon", False))

    @property
    def max_pending(self) -> "int | None":
        """The admission bound (``None`` = unbounded)."""
        bound = self.manifest().get("max_pending")
        return None if bound is None else int(bound)

    # -- grid registry -------------------------------------------------

    def grids(self) -> dict[str, dict]:
        """Every registered grid descriptor, keyed by content key.

        Descriptors are immutable once written, so reads are cached;
        only keys not seen yet touch the filesystem — which is how a
        running daemon discovers grids enqueued after it started.
        """
        if self.grids_dir.is_dir():
            for path in sorted(self.grids_dir.glob("*.json")):
                key = path.stem
                if key in self._grid_cache:
                    continue
                entry = _read_json(path)
                if entry is not None:
                    self._grid_cache[key] = entry
        return dict(self._grid_cache)

    def grid(self, key: str) -> dict:
        """One grid descriptor; raises ``KeyError`` when unregistered."""
        if key not in self._grid_cache:
            entry = _read_json(self.grids_dir / f"{key}.json")
            if entry is None:
                raise KeyError(f"queue {self.root} has no grid {key!r}")
            self._grid_cache[key] = entry
        return self._grid_cache[key]

    def register_grid(
        self,
        payload: Mapping,
        cells: Iterable[SweepCell],
        *,
        priority: int = DEFAULT_PRIORITY,
    ) -> dict:
        """Admit one sweep grid into the session at ``priority``.

        ``payload`` must pin the grid's content ``key`` (a
        :func:`repro.engine.service.service_manifest`); it is written
        once as an immutable descriptor under ``grids/``.  Re-registering
        the same key is idempotent *only* with a byte-equal payload —
        two configs mapping to one key would mix stores, so a mismatch
        raises ``ValueError``.  Cells already done or already pending
        are skipped; the rest are enqueued under the grid's stem prefix.

        Admission is all-or-nothing: when the queue was created with
        ``max_pending`` and admitting the missing cells would push the
        unfinished backlog past it, :class:`QueueFull` is raised before
        anything is written.

        Returns ``{"grid", "priority", "enqueued", "skipped",
        "pending_depth"}``.
        """
        priority = int(priority)
        if priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {priority}"
            )
        payload = dict(payload)
        key = str(payload.get("key") or "")
        if not key:
            raise ValueError("grid payload pins no content key")
        existing = _read_json(self.grids_dir / f"{key}.json")
        if existing is not None and existing.get("payload") != payload:
            raise ValueError(
                f"grid {key} is already registered with a different "
                "payload; two configs mapping to one content key would "
                "mix stores — refusing"
            )
        done = self.done_cells()
        pending_stems = {
            stem for _, _, stem, _ in self._pending_entries()
        }
        fresh: list[SweepCell] = []
        skipped = 0
        for cell in cells:
            stem = f"{key}__{cell_id(cell)}"
            if stem in done or stem in pending_stems:
                skipped += 1
            else:
                fresh.append(cell)
        depth = len(pending_stems - done)
        bound = self.max_pending
        if bound is not None and fresh and depth + len(fresh) > bound:
            raise QueueFull(
                f"admitting {len(fresh)} cells of grid {key} would put "
                f"the queue at {depth + len(fresh)} pending, past "
                f"max_pending={bound} — drain the backlog and retry"
            )
        if existing is None:
            descriptor = {
                "payload": payload,
                "priority": priority,
                "registered_at": self._clock(),
            }
            self.grids_dir.mkdir(parents=True, exist_ok=True)
            try:
                fd = os.open(
                    self.grids_dir / f"{key}.json",
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                    0o644,
                )
            except FileExistsError:
                # Lost a registration race; the winner's payload must
                # agree (immutability is what makes the cache safe).
                other = _read_json(self.grids_dir / f"{key}.json")
                if other is not None and other.get("payload") != payload:
                    raise ValueError(
                        f"grid {key} was concurrently registered with a "
                        "different payload — refusing"
                    )
            else:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(descriptor, handle, sort_keys=True)
                    handle.flush()
                self._grid_cache[key] = descriptor
        self._enqueue_cells(key, fresh, priority)
        return {
            "grid": key,
            "priority": priority,
            "enqueued": len(fresh),
            "skipped": skipped,
            "pending_depth": depth + len(fresh),
        }

    def _enqueue_cells(
        self, grid: "str | None", cells: "list[SweepCell]", priority: int
    ) -> None:
        """Drop one registration file per cell into the priority bucket."""
        if not cells:
            return
        bucket = self.pending_dir / f"p{priority}"
        bucket.mkdir(parents=True, exist_ok=True)
        seq = self._next_seq()
        for cell in cells:
            stem = (
                cell_id(cell)
                if grid is None
                else f"{grid}__{cell_id(cell)}"
            )
            entry = {
                "cell": list(cell.key),
                "grid": grid,
                "priority": priority,
                "seq": seq,
                "enqueued_at": self._clock(),
            }
            _atomic_write_json(bucket / f"{seq:08d}__{stem}.json", entry)
            seq += 1

    def _next_seq(self) -> int:
        """One past the highest live enqueue sequence number.

        Sequence numbers only order claims *within* a priority bucket,
        so restarting after the backlog fully drains is harmless.
        """
        highest = 0
        for _, seq_text, _, _ in self._pending_entries():
            try:
                highest = max(highest, int(seq_text))
            except ValueError:
                continue
        return highest + 1

    def _pending_entries(self) -> "list[tuple[int, str, str, Path]]":
        """Every registration file as ``(priority, seq, stem, path)``,
        in claim order: bucket by bucket, enqueue sequence within."""
        entries: list[tuple[int, str, str, Path]] = []
        for priority in PRIORITIES:
            bucket = self.pending_dir / f"p{priority}"
            if not bucket.is_dir():
                continue
            for path in bucket.glob("*.json"):
                seq_text, sep, stem = path.name[: -len(".json")].partition(
                    "__"
                )
                if sep:
                    entries.append((priority, seq_text, stem, path))
        entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        return entries

    # -- drain protocol ------------------------------------------------

    def request_drain(self) -> None:
        """Flip the drain marker: finish the backlog, then shut down.

        Idempotent; observed by daemon workers (exit once drained
        instead of idling) and the daemon coordinator (stop after the
        final merge).  One-shot sessions drain by construction and
        ignore the marker.
        """
        _atomic_write_json(
            self.drain_path, {"requested_at": self._clock()}
        )

    def drain_requested(self) -> bool:
        """True once :meth:`request_drain` (or ``repro drain``) fired."""
        return self.drain_path.exists()

    # -- lease protocol ------------------------------------------------

    def claim(self, owner: str) -> "Lease | None":
        """Acquire the highest-priority claimable cell for ``owner``.

        Walks pending entries strictly ``p0`` → ``p1`` → ``p2``, in
        enqueue order within each bucket, skipping completed cells and
        live leases; a stale lease is reclaimed (renamed into the
        graveyard — the atomic arbiter, one winner per steal) and the
        cell claimed fresh with its attempt counter bumped.  Returns
        ``None`` when nothing is claimable right now — which means
        either the queue is drained (:meth:`drained`), idle awaiting
        more grids (daemon sessions), or every remaining cell is under
        a live lease (poll again after a beat).
        """
        seen: set[str] = set()
        for priority, _, stem, pending_path in self._pending_entries():
            if stem in seen:
                continue
            seen.add(stem)
            if (self.done_dir / f"{stem}.json").exists():
                # Crash leftovers: completed, but the registration file
                # survived.  Retire it so drains stay O(backlog).
                try:
                    pending_path.unlink()
                except FileNotFoundError:
                    pass
                continue
            entry = _read_json(pending_path)
            if entry is None:
                continue  # racing complete() just retired this entry
            cell = SweepCell(
                algorithm=str(entry["cell"][0]),
                n=int(entry["cell"][1]),
                trial=int(entry["cell"][2]),
            )
            grid = entry.get("grid")
            grid = None if grid is None else str(grid)
            lease_path = self.lease_dir / f"{stem}.json"
            attempt = 1
            if lease_path.exists():
                lease_entry = _read_json(lease_path)
                # Leases are linked into place whole, so an unreadable
                # one is a corrupted file: heartbeat unknown => stale.
                heartbeat = (
                    float(lease_entry["heartbeat"])
                    if lease_entry is not None
                    and "heartbeat" in lease_entry
                    else float("-inf")
                )
                now = self._clock()
                if now - heartbeat < self.ttl:
                    continue  # live lease; not ours to touch
                attempt = (
                    int(lease_entry.get("attempt", 0)) + 1
                    if lease_entry is not None
                    else 1
                )
                grave = self.reclaimed_dir / f"{stem}.a{attempt - 1}.json"
                try:
                    os.rename(lease_path, grave)
                except FileNotFoundError:
                    continue  # lost the reclaim race
                # The winner owns the graveyard file exclusively now;
                # annotate it so the audit log carries the full story.
                audit = _read_json(grave) or {}
                audit.update(
                    {
                        "cell": list(cell.key),
                        "grid": grid,
                        "reclaimed_by": owner,
                        "reclaimed_at": now,
                        "stale_heartbeat": (
                            None if heartbeat == float("-inf") else heartbeat
                        ),
                    }
                )
                _atomic_write_json(grave, audit)
            now = self._clock()
            lease_entry = {
                "cell": list(cell.key),
                "grid": grid,
                "owner": owner,
                "attempt": attempt,
                "claimed_at": now,
                "heartbeat": now,
            }
            if not self._publish_lease(lease_path, lease_entry):
                continue  # another claimant got here first
            return Lease(
                cell=cell,
                owner=owner,
                attempt=attempt,
                path=lease_path,
                claimed_at=now,
                grid=grid,
            )
        return None

    def _publish_lease(self, lease_path: Path, entry: Mapping) -> bool:
        """Create ``lease_path`` holding all of ``entry``; ``False`` if a
        lease is already there.

        The entry goes to a temp file first, which is then hard-linked
        into place: ``os.link`` creates the lease whole or fails because
        one exists, so no reader ever sees a lease half written.  The
        temp name embeds the pid and a random tag, so no other claim
        writes it, and does not end in ``.json``, so a stray one left by
        a claimant that died before linking is never read as a lease.
        """
        tag = f"{os.getpid()}.{os.urandom(4).hex()}"
        tmp = lease_path.with_name(f".{lease_path.stem}.{tag}.claim")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            try:
                os.link(tmp, lease_path)
            except FileExistsError:
                return False
            return True
        finally:
            os.unlink(tmp)

    def heartbeat(self, lease: Lease) -> None:
        """Refresh ``lease``'s timestamp; raises :class:`LeaseLost` if the
        lease was reclaimed (or superseded) since the last beat."""
        entry = _read_json(lease.path)
        if (
            entry is None
            or entry.get("owner") != lease.owner
            or int(entry.get("attempt", -1)) != lease.attempt
        ):
            raise LeaseLost(
                f"{lease.owner} no longer owns {lease.id} "
                f"(attempt {lease.attempt}): the lease went stale and was "
                "reclaimed"
            )
        entry["heartbeat"] = self._clock()
        _atomic_write_json(lease.path, entry)

    def complete(self, lease: Lease) -> None:
        """Mark the leased cell done and release the lease.

        Idempotent by construction: the done marker is an atomic
        replace, so a duplicate completion (a reclaimed-but-alive worker
        finishing anyway) simply rewrites it.  The lease file is removed
        only if this worker still owns it; the pending registration is
        retired last, so a crash at any point leaves the cell either
        claimable or provably done — never lost.
        """
        marker = {
            "cell": list(lease.cell.key),
            "grid": lease.grid,
            "owner": lease.owner,
            "attempt": lease.attempt,
            "claimed_at": lease.claimed_at,
            "completed_at": self._clock(),
        }
        _atomic_write_json(self.done_dir / f"{lease.stem}.json", marker)
        self.release(lease)
        self._retire_pending(lease.stem)

    def _retire_pending(self, stem: str) -> None:
        """Remove every registration file for ``stem`` (all buckets)."""
        for priority in PRIORITIES:
            bucket = self.pending_dir / f"p{priority}"
            if not bucket.is_dir():
                continue
            for path in bucket.glob(f"*__{stem}.json"):
                # The glob is a prefix wildcard; confirm the exact stem
                # (stems themselves contain ``__``).
                if path.name[: -len(".json")].partition("__")[2] != stem:
                    continue
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass

    def release(self, lease: Lease) -> None:
        """Drop ``lease`` without completing (graceful mid-cell shutdown);
        the cell becomes immediately claimable again."""
        entry = _read_json(lease.path)
        if (
            entry is not None
            and entry.get("owner") == lease.owner
            and int(entry.get("attempt", -1)) == lease.attempt
        ):
            try:
                lease.path.unlink()
            except FileNotFoundError:
                pass

    # -- observation ---------------------------------------------------

    def done_cells(self) -> set[str]:
        """Stems carrying a completion marker."""
        return {path.stem for path in self.done_dir.glob("*.json")}

    def lease_owners(self) -> set[str]:
        """Owners currently holding a *live* lease (stale ones excluded).

        The coordinator's chaos-kill knob uses this to pick a victim
        that is provably mid-cell, so an injected kill always exercises
        the reclamation path rather than racing worker startup.
        """
        now = self._clock()
        owners: set[str] = set()
        for path in self.lease_dir.glob("*.json"):
            entry = _read_json(path)
            if entry is None or "owner" not in entry:
                continue
            if now - float(entry.get("heartbeat", float("-inf"))) < self.ttl:
                owners.add(str(entry["owner"]))
        return owners

    def pending_depth(self) -> int:
        """Unfinished registered cells (leased or not): the admission
        metric ``max_pending`` bounds."""
        done = self.done_cells()
        stems = {stem for _, _, stem, _ in self._pending_entries()}
        return len(stems - done)

    def drained(self) -> bool:
        """True when every registered cell has a completion marker.

        An empty daemon queue is *drained but not done*: workers keep
        polling for new grids until :meth:`drain_requested` flips too.
        """
        done = self.done_cells()
        return all(
            stem in done for _, _, stem, _ in self._pending_entries()
        )

    def finished(self) -> bool:
        """The session's exit rule, shared by workers and the coordinator.

        A one-shot session is finished once it drains; a daemon session
        only once it drains *after* :meth:`request_drain` — until then
        an empty queue just waits for the next grid.
        """
        return self.drained() and (not self.daemon or self.drain_requested())

    def stats(self) -> QueueStats:
        """Queue-health snapshot: depth (split per priority class), live
        leases, completions, cumulative reclamations (the service
        telemetry payload)."""
        done_markers = self.done_cells()
        now = self._clock()
        seen: set[str] = set()
        leased = 0
        pending = 0
        by_priority = [0] * len(PRIORITIES)
        for priority, _, stem, _ in self._pending_entries():
            if stem in seen:
                continue
            seen.add(stem)
            if stem in done_markers:
                continue
            entry = _read_json(self.lease_dir / f"{stem}.json")
            if entry is not None and now - float(
                entry.get("heartbeat", float("-inf"))
            ) < self.ttl:
                leased += 1
            else:
                pending += 1
                by_priority[priority] += 1
        done = len(done_markers)
        return QueueStats(
            total=done + leased + pending,
            pending=pending,
            leased=leased,
            done=done,
            reclamations=sum(1 for _ in self.reclaimed_dir.glob("*.json")),
            pending_by_priority=tuple(by_priority),
        )

    def reclamation_log(self) -> list[dict]:
        """Every reclamation's audit entry (sorted by graveyard name)."""
        entries = []
        for path in sorted(self.reclaimed_dir.glob("*.json")):
            entry = _read_json(path)
            if entry is not None:
                entries.append(entry)
        return entries

    def done_log(self) -> list[dict]:
        """Every completion marker (owner, attempt, timing), sorted."""
        entries = []
        for path in sorted(self.done_dir.glob("*.json")):
            entry = _read_json(path)
            if entry is not None:
                entries.append(entry)
        return entries


def _read_json(path: Path) -> "dict | None":
    """Parse one JSON file; ``None`` on missing or torn content."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def _atomic_write_json(path: Path, payload: Mapping) -> None:
    """Write ``payload`` via the store's shared atomic-replace discipline.

    The temp name embeds the pid so two processes atomically writing the
    same target never collide on the intermediate file.
    """
    from repro.engine.store import atomic_write_text

    atomic_write_text(path, json.dumps(payload, sort_keys=True))
