"""Persistent result store: JSON-lines cells under a content-keyed directory.

Layout::

    <root>/
      <content-key>/            # 16 hex chars of sha256(canonical config)
        config.json             # the sweep definition, human-readable
        cells.jsonl             # one CellRecord per line, append-only

The content key hashes every knob that changes the *numbers* — the full
:class:`~repro.experiments.config.ExperimentConfig` plus the engine's
``check_stride`` — so results from different sweep definitions can never
collide in one directory.  ``workers`` is deliberately excluded: the
executor guarantees worker-count invariance, so a sweep may be resumed
with a different degree of parallelism.

Appends are line-atomic in practice (single short ``write`` + flush); a
run killed mid-write leaves at most one truncated trailing line, which
:meth:`ResultStore.load_records` tolerates by skipping lines that fail to
parse.  A skipped line simply means that cell gets recomputed.

``config.json`` additionally records each protocol's engine batching
capability (``"block"`` / ``"rounds"``) at the time the store was
created.  The capability is *not* part of the content key — the key
identifies the sweep definition, not the engine version — but a store
with ``check_stride > 1`` or ``fields > 1`` refuses to reopen if a
protocol's capability has since changed: a tick-driven protocol and a
round-based one consume randomness differently, so mixing their cells
in one ``cells.jsonl`` would blend non-identical numbers (mirrors the
stride-mismatch guard in the executor).  A scalar stride-1 cell runs
the same legacy loop on either path, so there the guard does not apply.
Stores from older engines also hold a ``multifield`` map that restates
the same fact (``"native"`` for ``"block"``, ``"per-column"`` for
``"rounds"``); it is ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.engine.executor import CellKey, CellRecord

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids a layer cycle
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "ResultStore",
    "ShardDivergenceError",
    "StoreDriftError",
    "atomic_write_text",
    "canonical_record_bytes",
    "content_key",
]

#: Bump when the record schema changes; part of the content key so old
#: stores are never misread as new ones.
STORE_FORMAT = 1


def atomic_write_text(path: "str | os.PathLike", text: str) -> None:
    """Replace ``path``'s contents with ``text`` atomically.

    Writes to a pid-suffixed sibling temp file and ``os.replace``s it
    over the target, so a reader never observes a torn file and a
    crashed writer leaves the previous version intact.  This is the one
    write discipline every service-published artifact uses
    (``partial_report.md``, ``telemetry.json``, lease heartbeats);
    multi-process safety comes from the pid in the temp name — two
    concurrent publishers race only on which complete version lands
    last.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, target)


class ShardDivergenceError(ValueError):
    """Two records claim the same cell but disagree on the numbers.

    Raised by :meth:`ResultStore.merge_records` when a record arriving
    from a shard matches an already-held cell key but its canonical
    payload bytes (:func:`canonical_record_bytes`) differ.  Cells are
    deterministic functions of their seeds, so duplicate completions —
    a reclaimed-but-alive worker finishing a cell someone else redid —
    must be byte-identical; a mismatch means corruption (a tampered or
    bit-rotted ``cells.jsonl``) or engine nondeterminism, and silently
    picking either copy would poison the sweep.  Nothing is appended
    for the offending record; the store is left as it was.
    """


class StoreDriftError(ValueError):
    """A store cannot be resumed: the engine's execution paths drifted.

    Raised by :meth:`ResultStore.open` when the protocol batching
    capabilities recorded in a store's ``config.json`` differ from the
    current engine's and the grid runs at ``check_stride > 1`` or with
    ``fields > 1``, where the tick-driven and round-based paths produce
    different numbers.  It is a refusal of the user's request, not an
    engine fault: the CLI prints its message and exits 2.
    """


def canonical_record_bytes(record: CellRecord) -> bytes:
    """The bytes that define a record's identity for merge/diff purposes.

    Canonical JSON (sorted keys, no whitespace) of the record's
    *comparable* payload: ``wall_clock`` and ``telemetry`` are stripped,
    exactly mirroring their exclusion from :class:`CellRecord` equality —
    two executions of one deterministic cell are the same result no
    matter how long the machine took.
    """
    payload = record.to_dict()
    payload.pop("wall_clock", None)
    payload.pop("telemetry", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _config_payload(config: ExperimentConfig, check_stride: int) -> dict:
    payload = {
        "format": STORE_FORMAT,
        "sizes": list(config.sizes),
        "epsilon": config.epsilon,
        "trials": config.trials,
        "radius_constant": config.radius_constant,
        "field": config.field,
        "root_seed": config.root_seed,
        "algorithms": list(config.algorithms),
        "check_stride": check_stride,
    }
    # The default topology is omitted (one shared rule with the seed
    # tags: graphs.generators.topology_seed_tags) so that stores written
    # before the topology zoo existed keep their content keys and stay
    # resumable; any other family keys a fresh directory.
    from repro.graphs.generators import DEFAULT_TOPOLOGY

    if config.topology != DEFAULT_TOPOLOGY:
        payload["topology"] = config.topology
    # Same back-compat rule for faults: disabled specs (however spelled)
    # keep the pre-dynamics content key, so historical stores resume; an
    # enabled spec is hashed in canonical form, so equivalent spellings
    # ("loss=0.05" vs "loss_prob=0.05") share one directory and resumes
    # can never mix fault regimes.
    spec = config.fault_spec()
    if spec.enabled:
        payload["faults"] = spec.canonical()
    # Same back-compat rule for multi-field sweeps: fields=1 (the scalar
    # engine, however the workload knob is spelled — it is only consulted
    # at k > 1) keeps the pre-multi-field content key, so historical
    # stores resume unchanged; a k > 1 sweep keys on (fields, workload)
    # and can never mix its (n, k) cells into a scalar store.
    if config.fields > 1:
        payload["fields"] = config.fields
        payload["workload"] = config.workload
    return payload


def content_key(config: ExperimentConfig, check_stride: int = 1) -> str:
    """A short stable key for everything that determines a sweep's numbers."""
    if check_stride < 1:
        raise ValueError(f"check_stride must be >= 1, got {check_stride}")
    canonical = json.dumps(
        _config_payload(config, check_stride), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class ResultStore:
    """Append-only persistence for one sweep definition.

    Parameters
    ----------
    root:
        Directory that holds one subdirectory per sweep definition.
    config:
        The sweep the store belongs to.
    check_stride:
        The engine stride the records were produced with (part of the key).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        config: ExperimentConfig,
        check_stride: int = 1,
    ):
        # Imported at call time: repro.experiments sits above the engine.
        from repro.experiments.config import protocol_batching

        self.root = Path(root)
        self.config = config
        self.check_stride = check_stride
        self.batching = protocol_batching(config.algorithms)
        self.key = content_key(config, check_stride)
        self.directory = self.root / self.key
        self.records_path = self.directory / "cells.jsonl"
        self.config_path = self.directory / "config.json"

    @classmethod
    def from_grid_payload(
        cls, root: str | os.PathLike, payload: "dict"
    ) -> "ResultStore":
        """Rebuild a store from a service grid descriptor, verifying it.

        ``payload`` is a :func:`repro.engine.service.service_manifest`
        (a full config payload plus its pinned content ``key``).  The
        store derives its own key from the reconstructed config, and the
        two must agree — the round-trip guard every queue consumer
        (worker shards, daemon per-grid stores, ``repro enqueue``) runs
        before mixing records, so a perturbed descriptor can never land
        cells under a foreign key.
        """
        from repro.engine.service import config_from_payload

        config = config_from_payload(payload["config"])
        store = cls(root, config, int(payload.get("check_stride", 1)))
        expected = payload.get("key")
        if expected is not None and store.key != expected:
            raise ValueError(
                f"derived content key {store.key} but the grid "
                f"descriptor pins {expected}; the config payload did "
                "not round-trip — refusing to mix stores"
            )
        return store

    def open(self) -> "ResultStore":
        """Create the directory and config descriptor if absent.

        Raises :class:`StoreDriftError` when reopening a store whose recorded
        protocol batching capabilities no longer match the current engine
        and either ``check_stride > 1`` or ``fields > 1``.  A protocol
        that moved between tick-driven (``"block"``) and round-based
        (``"rounds"``) ran a different execution path: at a stride the
        two draw their randomness differently, and on an ``(n, k)``
        field a tick-driven run mixes every column in one pass while a
        round-based one runs each column on its own spawned stream.
        Either way stored and fresh cells would carry non-identical
        numbers, and the two must not mix.  A scalar stride-1 cell is
        the same on both paths, so such a store still resumes.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.config_path.exists():
            recorded = self.recorded_batching()
            if (
                (self.check_stride > 1 or self.config.fields > 1)
                and recorded is not None
                and recorded != self.batching
            ):
                drifted = sorted(
                    name
                    for name in self.batching
                    if recorded.get(name) != self.batching[name]
                )
                raise StoreDriftError(
                    f"store {self.directory} recorded batching "
                    f"capabilities {recorded} but the current engine has "
                    f"{self.batching} (drifted: {drifted}); at "
                    f"check_stride={self.check_stride}, "
                    f"fields={self.config.fields} the tick-driven and "
                    "round-based paths produce non-identical numbers, so "
                    "this store cannot be resumed — use a fresh store "
                    "directory or reset this one"
                )
        else:
            payload = _config_payload(self.config, self.check_stride)
            payload["batching"] = dict(self.batching)
            self.config_path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        return self

    def recorded_batching(self) -> dict[str, str] | None:
        """The capability map persisted in ``config.json``.

        ``None`` when the store does not exist yet or predates capability
        recording (a legacy store, tolerated for backward compatibility).
        """
        if not self.config_path.exists():
            return None
        try:
            payload = json.loads(self.config_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            return None
        batching = payload.get("batching")
        if not isinstance(batching, dict):
            return None
        return {str(k): str(v) for k, v in batching.items()}

    def reset(self) -> "ResultStore":
        """Drop any persisted cells and descriptor (a fresh run).

        The escape hatch for a capability-drift refusal: the stale
        ``config.json`` is rewritten, so :meth:`open` succeeds again.
        """
        if self.records_path.exists():
            self.records_path.unlink()
        if self.config_path.exists():
            self.config_path.unlink()
        return self.open()

    def append(self, record: CellRecord) -> None:
        """Persist one finished cell (one JSON line, flushed immediately)."""
        self.open()
        with open(self.records_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            handle.flush()

    def merge_records(
        self,
        records: "Iterable[CellRecord]",
        source: str = "merge",
    ) -> dict[str, int]:
        """Fold ``records`` into this store, first-by-cell-key wins.

        The distributed merge primitive: records whose cell key is new
        are appended (in the order given — deterministic when callers
        iterate shards in sorted order); records whose key is already
        held are *verified*, not blindly skipped — their canonical
        payload bytes (:func:`canonical_record_bytes`) must equal the
        held record's, or :class:`ShardDivergenceError` is raised naming
        the cell and ``source``.  Timing/telemetry differences never
        trigger it (they are excluded from the canonical bytes).

        Returns ``{"appended": ..., "duplicates": ...}``.
        """
        held = self.load_records()
        appended = duplicates = 0
        for record in records:
            existing = held.get(record.key)
            if existing is None:
                self.append(record)
                held[record.key] = record
                appended += 1
                continue
            if canonical_record_bytes(existing) != canonical_record_bytes(
                record
            ):
                raise ShardDivergenceError(
                    f"cell {record.key} from {source} diverges from the "
                    f"record already held by {self.directory}: the cell "
                    "is a deterministic function of its seeds, so this "
                    "is corruption or nondeterminism, not a benign "
                    f"duplicate\n  held:     "
                    f"{canonical_record_bytes(existing).decode('utf-8')}\n"
                    f"  incoming: "
                    f"{canonical_record_bytes(record).decode('utf-8')}"
                )
            duplicates += 1
        return {"appended": appended, "duplicates": duplicates}

    def load_records(self) -> dict[CellKey, CellRecord]:
        """All parseable cells; later duplicates win, corrupt lines skipped."""
        records: dict[CellKey, CellRecord] = {}
        if not self.records_path.exists():
            return records
        for line in self.records_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = CellRecord.from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                continue  # truncated tail of an interrupted run
            records[record.key] = record
        return records

    def __len__(self) -> int:
        return len(self.load_records())
