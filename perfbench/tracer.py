"""In-memory span tracer that wraps the program's layers from outside.

The benchmark never edits ``src/``: a traced pass replaces each layer's
public functions and methods with thin wrappers that open a span on
entry and close it on exit.  A function that other modules imported by
name (``from repro.routing.flooding import flood``) is patched wherever
that name is looked up, so every call site is covered.  Spans live in
flat arrays until the pass ends; :func:`self_times` turns them into
per-layer self time afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "Target",
    "Tracer",
    "default_targets",
    "install",
    "load_spans",
    "restore",
    "self_times",
]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``qualname`` inside ``module``, timed as ``layer``.

    ``before`` sees the call's arguments and ``after`` its return value;
    the tracer uses them to attribute spans to sweep cells.
    """

    layer: str
    module: str
    qualname: str
    before: "Callable[[tuple, dict], None] | None" = None
    after: "Callable[[object], None] | None" = None


class Tracer:
    """Span recorder: parallel arrays, one entry per call, kept in memory."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cells: list[dict] = []
        self._stack: list[int] = []
        self._current_cell = -1
        self._instance = None
        # Anchors perf_counter spans to the wall clock other processes use.
        self.anchor = {"time": time.time(), "perf": time.perf_counter()}

    def layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def open(self, layer: int) -> int:
        index = len(self.start)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cell.append(self._current_cell)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def begin_cell(self, args: tuple, kwargs: dict) -> None:
        """``execute_cell(config, cell, ...)`` entry: open a cell slot."""
        cell = args[1] if len(args) > 1 else kwargs["cell"]
        self._current_cell = len(self.cells)
        self._instance = None
        self.cells.append(
            {"algorithm": cell.algorithm, "n": cell.n, "trial": cell.trial}
        )

    def capture_instance(self, instance) -> None:
        """``make_algorithm`` return: remember the cell's protocol."""
        self._instance = instance

    def end_cell(self, _record) -> None:
        """Copy the hierarchical executor's own counters onto the cell."""
        stats = getattr(self._instance, "stats", None)
        if stats is not None and hasattr(stats, "near_ticks_by_depth"):
            self.cells[self._current_cell]["hier"] = {
                "near_ticks": sum(stats.near_ticks_by_depth.values()),
                "far_exchanges": sum(stats.exchanges_by_depth.values()),
                "cap_hits": stats.cap_hits,
                "routing_failures": stats.routing_failures,
            }
        self._instance = None
        self._current_cell = -1

    def dump(self, directory: Path) -> None:
        """Write every span (``spans.npz``) and the cell table (``spans.json``)."""
        np.savez(
            directory / "spans.npz",
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            cell=np.frombuffer(self.cell, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        (directory / "spans.json").write_text(
            json.dumps(
                {"layers": self.layers, "cells": self.cells, "anchor": self.anchor}
            ),
            encoding="utf-8",
        )


def _protocol_targets() -> list[Target]:
    """``tick_block`` of every protocol class that defines its own."""
    importlib.import_module("repro.experiments.config")  # registers protocols
    base = importlib.import_module("repro.gossip.base").AsynchronousGossip
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "tick_block" in vars(cls):
            found.append(Target("gossip.tick_block", cls.__module__, f"{cls.__qualname__}.tick_block"))
    return sorted(found, key=lambda t: (t.module, t.qualname))


def default_targets(tracer: Tracer) -> list[Target]:
    """The layer table: which public callables make up which layer."""
    cache = "repro.routing.cache"
    greedy = "repro.routing.greedy"
    return [
        Target(
            "engine.cell",
            "repro.engine.executor",
            "execute_cell",
            before=tracer.begin_cell,
            after=tracer.end_cell,
        ),
        Target("graphs.build", "repro.engine.executor", "build_graph"),
        Target("hierarchy.build", "repro.hierarchy.tree", "HierarchyTree.build"),
        Target(
            "gossip.construct",
            "repro.experiments.config",
            "make_algorithm",
            after=tracer.capture_instance,
        ),
        Target("engine.run", "repro.engine.batching", "run_batched"),
        *_protocol_targets(),
        Target("routing.cache", cache, "CachedGreedyRouter.round_trip"),
        Target("routing.cache", cache, "CachedGreedyRouter.route_to_node"),
        Target("routing.cache", cache, "CachedGreedyRouter.route_stats"),
        Target("routing.greedy", greedy, "GreedyRouter.round_trip"),
        Target("routing.greedy", greedy, "GreedyRouter.route_to_node"),
        Target("routing.flood", "repro.routing.flooding", "flood"),
        Target("metrics.check", "repro.metrics.error", "normalized_error"),
        Target("engine.store.open", "repro.engine.store", "ResultStore.open"),
        Target("engine.store.append", "repro.engine.store", "ResultStore.append"),
        Target("engine.queue.create", "repro.engine.queue", "LeaseQueue.create"),
        Target("engine.service.merge", "repro.engine.service", "merge_shards"),
    ]


def _wrap(function: Callable, tracer: Tracer, target: Target) -> Callable:
    layer = tracer.layer_id(target.layer)
    before, after = target.before, target.after

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        index = tracer.open(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(result)
        return result

    return traced


def install(tracer: Tracer, targets: list[Target]) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the undo log :func:`restore` replays.

    Methods are replaced on their defining class, keeping the descriptor
    kind (``classmethod``/``staticmethod``).  Module functions are
    replaced in their defining module *and* in every loaded ``repro``
    module that holds the same object under the same name.
    """
    # Import every module first, so none binds a name after the scan.
    modules = [importlib.import_module(target.module) for target in targets]
    undo: list[tuple[object, str, object]] = []
    for target, module in zip(targets, modules):
        owner_path, _, name = target.qualname.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        raw = vars(owner)[name]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(_wrap(raw.__func__, tracer, target))
        else:
            replacement = _wrap(raw, tracer, target)
        holders = [owner]
        if owner is module:
            holders += [
                loaded
                for key, loaded in list(sys.modules.items())
                if key.startswith("repro") and loaded is not module
                and vars(loaded).get(name) is raw
            ]
        for holder in holders:
            undo.append((holder, name, raw))
            setattr(holder, name, replacement)
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    """Put back every original object :func:`install` replaced."""
    for holder, name, raw in reversed(undo):
        setattr(holder, name, raw)


def load_spans(directory: Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a pass's ``spans.npz`` and ``spans.json`` back."""
    with np.load(directory / "spans.npz") as data:
        spans = {key: data[key] for key in data.files}
    meta = json.loads((directory / "spans.json").read_text(encoding="utf-8"))
    return spans, meta


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread's call stack, so children nest inside
    their parent and never overlap each other: the covered time is the
    plain sum of the children's durations.
    """
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=duration.size
    )
    return duration - covered
