"""The benchmark's own arithmetic: self time, queue timing, wrappers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import derive
import tracer


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    assert tracer.self_times(parent, start, end).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_span_sums_attributes_hierarchical_rest_per_cell():
    layers = ["engine.cell", "engine.run", "routing.flood", "routing.greedy"]
    spans = {
        # cell [0, 10] > run [1, 9] > flood [2, 3], greedy [4, 6] > greedy [5, 6]
        "layer": np.array([0, 1, 2, 3, 3]),
        "parent": np.array([-1, 0, 1, 1, 3]),
        "cell": np.zeros(5, dtype=int),
        "start": np.array([0.0, 1.0, 2.0, 4.0, 5.0]),
        "end": np.array([10.0, 9.0, 3.0, 6.0, 6.0]),
    }
    hier = {"near_ticks": 7, "far_exchanges": 2, "cap_hits": 0, "routing_failures": 1}
    meta = {
        "layers": layers,
        "cells": [{"algorithm": "hierarchical", "n": 8, "trial": 0, "hier": hier}],
    }
    records = {("hierarchical", 8, 0): SimpleNamespace(wall_clock=8.0)}
    sums = derive.span_sums(spans, meta, records)
    assert sums["engine.run.self_s"] == 5.0
    assert sums["routing.flood_s"] == 1.0 and sums["routing.flood_calls"] == 1
    assert sums["routing.greedy_s"] == 2.0 and sums["routing.greedy_calls"] == 2
    assert sums["gossip.hier.rest_s"] == 8.0 - 1.0 - 2.0
    assert sums["gossip.hier.near_ticks"] == 7
    assert sums["gossip.hier.routing_failures"] == 1


def test_queue_metrics_from_a_synthetic_done_log():
    log = [
        {"owner": "w0", "claimed_at": 0.0, "completed_at": 2.0, "attempt": 1},
        {"owner": "w1", "claimed_at": 0.5, "completed_at": 4.0, "attempt": 2},
        {"owner": "w0", "claimed_at": 3.0, "completed_at": 5.0, "attempt": 1},
    ]
    metrics = derive.queue_metrics(
        [{"done_log": log, "reclaims": 1, "record_wall": 6.0, "wall": 10.0,
          "queue_created": -0.25}],
        workers=2,
    )
    assert metrics == {
        "engine.queue.cell_s": 7.5,
        "engine.queue.overhead_s": 1.5,
        # w0 waits 2 -> 3; w1 idles from 4 until the drain at 5.
        "engine.queue.idle_s": 2.0,
        "engine.queue.attempts_per_cell": 4 / 3,
        "engine.queue.reclaims": 1,
        "engine.service.first_claim_s": 0.25,
        "engine.service.worker_busy_frac": 7.5 / 20.0,
    }


def _bindings() -> dict:
    """Every attribute of every loaded repro module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    out[(name, key, attr)] = raw
    return out


def test_install_wraps_every_lookup_site_and_restore_undoes_it():
    import repro.cli  # noqa: F401  (loads every module that imports by name)

    probe = tracer.Tracer()
    targets = tracer.default_targets(probe)
    before = _bindings()
    undo = tracer.install(probe, targets)
    try:
        import repro.gossip.hierarchical.rounds as rounds
        import repro.routing.flooding as flooding
        from repro.hierarchy.tree import HierarchyTree

        assert rounds.flood is flooding.flood is not before[("repro.routing.flooding", "flood")]
        assert isinstance(vars(HierarchyTree)["build"], classmethod)
        assert {target.layer for target in targets} <= set(probe.layers)
        flooding.flood([np.array([1]), np.array([0])], 0, [0, 1])
        assert probe.layers[probe.layer[-1]] == "routing.flood"
        assert probe.end[-1] >= probe.start[-1]
    finally:
        tracer.restore(undo)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_benchmark_json_names_what_run_py_measures():
    import run

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    as_rows = lambda entries: [(e["name"], e["unit"], e["better"]) for e in entries]
    assert as_rows(spec["per_layer"]) == derive.PER_LAYER
    assert as_rows(spec["end_to_end"]) == derive.END_TO_END
    assert {entry["name"] for entry in spec["workloads"]} <= set(run.WORKLOADS)


def test_pass_seeds_come_from_the_vetted_pool():
    import run

    workload = run.WORKLOADS["sweep-default"]
    seeds = workload.pass_seeds(7, 20)
    assert seeds == workload.pass_seeds(7, 20) and len(seeds) == workload.passes(20)
    assert set(seeds) <= set(workload.seeds)
    assert {20070801 + 37, 20070801 + 59}.isdisjoint(workload.seeds)
