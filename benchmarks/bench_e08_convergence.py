"""E8 — convergence traces at fixed n: error vs transmissions.

Paper context (§2.1 problem statement): the algorithms drive
``‖x(t)‖/‖x(0)‖`` below ε; their *trajectories* differ sharply — flat
per-exchange cost but slow mixing (randomized) versus expensive routed
exchanges with complete-graph mixing (geographic, hierarchical).

Measured here: the error reached by each algorithm at shared transmission
budgets on one instance (vertical slices through the three curves, at
stride 1 for maximally dense traces), plus the engine's two fast-path
dividends on the same instance: the strided path (``check_stride=16``:
pre-sampled owners, chunked protocol draws, and the ``tick_block``
overrides) against the stride-1 loop, and the routed protocols' cached
router against the plain greedy walk at stride 1.
"""

import time

import numpy as np

from _common import emit, emit_timing, timed_pedantic
from repro.engine import build_instance, run_batched
from repro.experiments import (
    ExperimentConfig,
    format_table,
    make_algorithm,
    run_convergence,
    spawn_rng,
)
from repro.routing import GreedyRouter

N = 512
EPSILON = 0.05

#: Fast-path stride for the speedup comparison; large enough that owner
#: sampling, protocol randomness and error checks all amortize.
FAST_STRIDE = 16

#: The tick-driven protocols with vectorized block paths (hierarchical is
#: round-based: the engine passes it through, so there is nothing to
#: compare).
FAST_PATH_PROTOCOLS = ("randomized", "geographic", "spatial")

#: Routed protocols and the stride-1 speedup their cached router (a
#: batched walk per window) must show over the plain greedy walk, which
#: swaps in the per-tick loop.
ROUTE_TABLE_GATES = {"geographic": 2.0, "spatial": 1.5}

#: Floor on the routed protocols' stride-16 over stride-1 speedup.  Both
#: strides batch their routes (a walk per stride-1 window and per
#: block).  The floor leaves room for timing noise and still fails a
#: strided path that costs real time.
TICK_BLOCK_FLOOR = 0.8

#: Runs per timing; the gates compare best-of-``REPEATS`` seconds, so
#: one scheduler hiccup on a shared host cannot flip a close ratio.
REPEATS = 5


def test_e08_convergence_traces(benchmark):
    config = ExperimentConfig(
        sizes=(N,), epsilon=EPSILON, trials=1, field="gradient"
    )

    runs = timed_pedantic(
        benchmark,
        "e08_convergence",
        lambda: run_convergence(config, N, trace_thinning=0.01),
        n=N,
        epsilon=EPSILON,
        check_stride=1,
    )

    traces = {run.algorithm: run.result.trace for run in runs}
    budgets = (2_000, 10_000, 50_000, 200_000)
    rows = []
    for budget in budgets:
        row = [budget]
        for name in config.algorithms:
            tx, err = traces[name].as_arrays()
            reached = err[tx <= budget]
            row.append(float(reached.min()) if reached.size else float("nan"))
        rows.append(row)
    final = [
        ["(to ε)", *(traces[name].final_transmissions for name in config.algorithms)]
    ]
    emit(
        "e08_convergence",
        format_table(
            ["tx budget", *config.algorithms],
            rows,
            title=f"E8  best error within a transmission budget (n={N}, gradient field)",
        )
        + "\n\n"
        + format_table(
            ["", *config.algorithms],
            final,
            title=f"E8  transmissions to reach eps={EPSILON}",
        ),
    )

    for run in runs:
        assert run.converged, run.algorithm
        tx, err = run.result.trace.as_arrays()
        assert err[0] == 1.0
        assert err[-1] <= EPSILON
    # Geographic should beat randomized to the target at this size.
    assert (
        traces["geographic"].final_transmissions
        < traces["randomized"].final_transmissions
    )


def test_e08_fast_path_speedup(benchmark):
    """Wall clock of the engine's two dividends on one n=512 instance.

    Each protocol runs to ε at stride 1 and at stride 16.  Randomized
    gossip's dividend is the batched ``tick_block`` path, so its gate is
    stride 16 against stride 1.  The routed protocols' dividend is the
    cached router, their one router at every stride, so each also runs
    at stride 1 with the plain greedy walk swapped in (which sends the
    block hooks back to the per-tick loop): it must spend the same
    transmissions, and the gate is its time against the cached
    router's.  Their stride-16 run is gated only against regression: no
    slower than stride 1, up to timing noise.
    The timings land in per-protocol ``BENCH_e08_<protocol>.json``
    artifacts for trend tracking.
    """
    config = ExperimentConfig(
        sizes=(N,),
        epsilon=EPSILON,
        trials=1,
        field="gradient",
        algorithms=FAST_PATH_PROTOCOLS,
    )
    graph, values = build_instance(config, N, 0)

    def timed(name, variant):
        algorithm = make_algorithm(name, graph)
        if variant == "plain":
            algorithm.router = GreedyRouter(graph)
        stride = FAST_STRIDE if variant == FAST_STRIDE else 1
        rng = spawn_rng(config.root_seed, "run", name, N, 0)
        start = time.perf_counter()
        result = run_batched(algorithm, values, EPSILON, rng, check_stride=stride)
        seconds = time.perf_counter() - start
        assert result.converged, (name, variant)
        return seconds, result

    def compare():
        measured = {}
        for name in FAST_PATH_PROTOCOLS:
            variants = [1, FAST_STRIDE]
            if name in ROUTE_TABLE_GATES:
                variants.append("plain")
            seconds = dict.fromkeys(variants, float("inf"))
            # Interleaved, so drift in the host's speed hits every
            # variant alike.
            for _ in range(REPEATS):
                for variant in variants:
                    elapsed, result = timed(name, variant)
                    seconds[variant] = min(seconds[variant], elapsed)
                    if variant == 1:
                        transmissions = result.transmissions
                    elif variant == "plain":
                        assert result.transmissions == transmissions, name
            measured[name] = seconds
        return measured

    measured = timed_pedantic(
        benchmark,
        "e08_fast_path",
        compare,
        n=N,
        epsilon=EPSILON,
        check_stride=FAST_STRIDE,
    )

    rows = []
    speedups = {}
    for name, seconds in measured.items():
        speedups[name] = seconds[1] / seconds[FAST_STRIDE]
        extra = {}
        plain = table = "-"
        if "plain" in seconds:
            plain = seconds["plain"]
            table = speedups[f"{name}_route_table"] = plain / seconds[1]
            extra = {
                "plain_stride1_seconds": round(plain, 6),
                "route_table_speedup": round(table, 3),
            }
        emit_timing(
            f"e08_{name}",
            seconds[FAST_STRIDE],
            stride1_seconds=round(seconds[1], 6),
            n=N,
            epsilon=EPSILON,
            check_stride=FAST_STRIDE,
            speedup=round(speedups[name], 3),
            **extra,
        )
        rows.append(
            [name, seconds[1], seconds[FAST_STRIDE], speedups[name], plain, table]
        )
    emit(
        "e08_fast_path",
        format_table(
            [
                "protocol",
                "stride-1 s",
                f"stride-{FAST_STRIDE} s",
                "stride speedup",
                "plain-walk stride-1 s",
                "route-table speedup",
            ],
            rows,
            title=f"E8  batched tick path and route table (n={N})",
        ),
    )

    # Randomized gossip gains from pre-sampled owners and partners in
    # the batched path; the routed protocols gain from the cached
    # router's batched walks, at stride 1 as much as at stride 16.
    # Asserted with margin.
    assert speedups["randomized"] >= 1.5, speedups
    for name, gate in ROUTE_TABLE_GATES.items():
        assert speedups[f"{name}_route_table"] >= gate, (name, speedups)
        # The routed protocols' strided blocks must not cost time
        # against their stride-1 windows.
        assert speedups[name] >= TICK_BLOCK_FLOOR, (name, speedups)
    benchmark.extra_info.update(
        {f"speedup_{k}": round(v, 2) for k, v in speedups.items()}
    )
