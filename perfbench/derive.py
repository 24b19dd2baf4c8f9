"""Metric arithmetic: end-to-end figures, per-layer sums and queue timing.

Everything here is a pure function of what a pass left behind — its
cell records, its spans and its queue's completion markers — so the
arithmetic is testable without running the program.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

import numpy as np

from tracer import self_times

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "end_to_end_metrics",
    "layer_metrics",
    "queue_metrics",
    "span_sums",
]

#: (name, unit, better) of every metric an untraced run reports.
END_TO_END = [
    ("cells_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("tx_to_eps", "count", "lower"),
    ("converged_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

#: (name, unit, better) of every metric a traced run reports.
PER_LAYER = [
    ("graphs.build_s", "s", "lower"),
    ("graphs.builds", "count", "lower"),
    ("hierarchy.build_s", "s", "lower"),
    ("hierarchy.builds", "count", "lower"),
    ("gossip.construct_s", "s", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.run.self_s", "s", "lower"),
    ("engine.ticks", "count", "lower"),
    ("engine.ticks_per_s", "1/s", "higher"),
    ("gossip.tick_block_s", "s", "lower"),
    ("gossip.tick_block_calls", "count", "lower"),
    ("routing.cache_s", "s", "lower"),
    ("routing.cache_calls", "count", "lower"),
    ("routing.cache_hit_ratio", "ratio", "higher"),
    ("routing.greedy_s", "s", "lower"),
    ("routing.greedy_calls", "count", "lower"),
    ("routing.flood_s", "s", "lower"),
    ("routing.flood_calls", "count", "lower"),
    ("routing.flood_tx", "count", "lower"),
    ("gossip.hier.near_ticks", "count", "lower"),
    ("gossip.hier.far_exchanges", "count", "lower"),
    ("gossip.hier.cap_hits", "count", "lower"),
    ("gossip.hier.routing_failures", "count", "lower"),
    ("gossip.hier.rest_s", "s", "lower"),
    ("metrics.check_s", "s", "lower"),
    ("metrics.checks", "count", "lower"),
    ("engine.store.open_s", "s", "lower"),
    ("engine.store.append_s", "s", "lower"),
    ("engine.store.appends", "count", "lower"),
    ("engine.queue.cell_s", "s", "lower"),
    ("engine.queue.overhead_s", "s", "lower"),
    ("engine.queue.idle_s", "s", "lower"),
    ("engine.queue.attempts_per_cell", "count", "lower"),
    ("engine.queue.reclaims", "count", "lower"),
    ("engine.service.merge_s", "s", "lower"),
    ("engine.service.first_claim_s", "s", "lower"),
    ("engine.service.worker_busy_frac", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]

#: Span layers whose summed self time and call count are reported as-is.
_TIMED_LAYERS = {
    "graphs.build": ("graphs.build_s", "graphs.builds"),
    "hierarchy.build": ("hierarchy.build_s", "hierarchy.builds"),
    "gossip.construct": ("gossip.construct_s", None),
    "engine.run": ("engine.run.self_s", None),
    "gossip.tick_block": ("gossip.tick_block_s", "gossip.tick_block_calls"),
    "routing.cache": ("routing.cache_s", "routing.cache_calls"),
    "routing.greedy": ("routing.greedy_s", "routing.greedy_calls"),
    "routing.flood": ("routing.flood_s", "routing.flood_calls"),
    "metrics.check": ("metrics.check_s", "metrics.checks"),
    "engine.store.open": ("engine.store.open_s", None),
    "engine.store.append": ("engine.store.append_s", "engine.store.appends"),
    "engine.service.merge": ("engine.service.merge_s", None),
}

_HIER_COUNTS = ("near_ticks", "far_exchanges", "cap_hits", "routing_failures")


def end_to_end_metrics(passes: Sequence[Mapping], setups: Iterable[float]) -> dict:
    """The untraced figures of one run.

    ``cells_per_s`` counts cells over the time after set-up (first cell
    start to process exit), so set-up and throughput do not overlap;
    ``setup_s`` is the median of every set-up sample; ``peak_rss_mb`` is
    the largest resident set of any one process of any pass.
    """
    records = [record for p in passes for record in p["records"].values()]
    busy = sum(p["wall"] - p["setup"] for p in passes)
    return {
        "cells_per_s": len(records) / busy,
        "setup_s": statistics.median(setups),
        "tx_to_eps": sum(record.total_transmissions for record in records),
        "converged_frac": sum(record.converged for record in records) / len(records),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }


def span_sums(spans: Mapping[str, np.ndarray], meta: Mapping, records: Mapping) -> dict:
    """One traced pass's per-layer self times and counts.

    Also derives ``gossip.hier.rest_s``: on each hierarchical cell, the
    run's wall clock minus the flood and greedy-route time inside it.
    """
    out: dict[str, float] = defaultdict(float)
    own = self_times(spans["parent"], spans["start"], spans["end"])
    layer_of = {name: index for index, name in enumerate(meta["layers"])}
    for layer, (seconds, calls) in _TIMED_LAYERS.items():
        if layer not in layer_of:
            continue
        mask = spans["layer"] == layer_of[layer]
        out[seconds] += float(own[mask].sum())
        if calls is not None:
            out[calls] += int(mask.sum())
    routed = np.isin(
        spans["layer"],
        [layer_of[name] for name in ("routing.flood", "routing.greedy") if name in layer_of],
    )
    for index, cell in enumerate(meta["cells"]):
        if "hier" not in cell:
            continue
        record = records[(cell["algorithm"], cell["n"], cell["trial"])]
        inside = routed & (spans["cell"] == index)
        out["gossip.hier.rest_s"] += record.wall_clock - float(own[inside].sum())
        for name in _HIER_COUNTS:
            out[f"gossip.hier.{name}"] += cell["hier"][name]
    return out


def queue_metrics(passes: Sequence[Mapping], workers: int) -> dict:
    """Fleet timing derived from the queue's completion markers.

    Each pass supplies ``done_log`` (markers with ``owner``,
    ``claimed_at``, ``completed_at``, ``attempt``), ``reclaims``,
    ``record_wall`` (summed record ``wall_clock``), ``wall`` (the pass's
    wall clock) and ``queue_created`` (wall-clock start of queue
    creation).  Idle time is each worker's gap from one completion to
    its next claim, plus its tail from its last completion to the drain
    (the last completion of the pass).
    """
    cell_s = overhead_s = idle_s = capacity = 0.0
    attempts = cells = reclaims = 0
    first_claims = []
    for p in passes:
        log = p["done_log"]
        spans = [entry["completed_at"] - entry["claimed_at"] for entry in log]
        cell_s += sum(spans)
        overhead_s += sum(spans) - p["record_wall"]
        drained = max(entry["completed_at"] for entry in log)
        by_owner = defaultdict(list)
        for entry in log:
            by_owner[entry["owner"]].append(entry)
        for entries in by_owner.values():
            entries.sort(key=lambda entry: entry["claimed_at"])
            for done, nxt in zip(entries, entries[1:]):
                idle_s += max(0.0, nxt["claimed_at"] - done["completed_at"])
            idle_s += drained - entries[-1]["completed_at"]
        attempts += sum(int(entry.get("attempt", 1)) for entry in log)
        cells += len(log)
        reclaims += p["reclaims"]
        capacity += workers * p["wall"]
        first_claims.append(min(entry["claimed_at"] for entry in log) - p["queue_created"])
    return {
        "engine.queue.cell_s": cell_s,
        "engine.queue.overhead_s": overhead_s,
        "engine.queue.idle_s": idle_s,
        "engine.queue.attempts_per_cell": attempts / cells,
        "engine.queue.reclaims": reclaims,
        "engine.service.first_claim_s": statistics.median(first_claims),
        "engine.service.worker_busy_frac": cell_s / capacity,
    }


def layer_metrics(span_parts: Sequence[Mapping], records: Sequence, queue: Mapping, overhead: float) -> dict:
    """Every per-layer metric of a traced run, zero where a layer idles.

    ``span_parts`` are :func:`span_sums` results, ``records`` every cell
    record of the traced passes, ``queue`` the :func:`queue_metrics`
    result (empty for serial workloads) and ``overhead`` the traced over
    untraced wall-clock ratio.
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for part in span_parts:
        for name, value in part.items():
            out[name] += value
    out.update(queue)
    run_s = sum(record.wall_clock for record in records)
    ticks = sum(record.ticks for record in records)
    hits = sum((record.telemetry or {}).get("cache_hits", 0.0) for record in records)
    misses = sum((record.telemetry or {}).get("cache_misses", 0.0) for record in records)
    out["engine.run_s"] = run_s
    out["engine.ticks"] = ticks
    out["engine.ticks_per_s"] = ticks / run_s if run_s > 0 else 0.0
    out["routing.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["routing.flood_tx"] = sum(
        record.transmissions.get("activation", 0)
        for record in records
        if record.algorithm == "hierarchical"
    )
    out["trace.overhead"] = overhead
    return out
