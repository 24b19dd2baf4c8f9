"""E22 — metrics overhead: the cost of running fully observed.

The live-metrics layer promises an even tighter bar than tracing (E20):
where the event recorder pays one emission per batch window, the metrics
registry is updated once per run — the engine's ticks, checks and error
when ``drive_ticks`` ends, the route cache's movement when
``run_batched`` ends — never per window or on the route hot path.  The
span profiler touches :func:`time.perf_counter` twice per window.  So a
metrics-and-profiling-on run must cost at most 5% wall clock, an order
tighter than E20's 30% tracing ceiling.

Measured here, for the slow baseline (randomized) and the routed
workhorse (geographic) at benchmark scale (n=512), at stride 16 and at
the CLI's default stride 1 (the one tick driver instruments both alike,
window-granular; a stride-1 window is ``n // 4`` ticks): wall clock of
one engine run bare vs the same run under an active
:class:`~repro.observability.metrics.MetricsRegistry` *and*
:class:`~repro.observability.profile.SpanProfiler`.

One run takes 3–30 ms, short enough that scheduler noise is as large as
the 5% being judged, so the arms are sampled by
:func:`_common.sample_overhead` (shared with E20): an untimed warm-up,
samples of about :data:`SAMPLE_SECONDS` of repeated runs, interleaved
arms, best of :data:`SAMPLES`.  A third arm, *control*, is the bare run
again: its ratio to the bare arm is the noise floor of the measurement,
reported beside the observed ratio in the table and in the
``BENCH_e22_*_control.json`` artifacts.

Asserted: the observed run is bit-identical to the bare one (values,
transmissions, ticks — neither instrument consumes RNG), the registry's
tick counter agrees exactly with the run's tick count, the hotpath table
accounts for the run, and the observed arm costs at most 5% more than
the bare arm.  The control arm is reported, not gated.
"""

import time

import numpy as np

from _common import (
    OVERHEAD_ARMS,
    emit,
    emit_timing,
    sample_overhead,
    timed_pedantic,
)
from repro.engine import build_instance, run_batched
from repro.experiments import (
    ExperimentConfig,
    format_table,
    make_algorithm,
    spawn_rng,
)
from repro.observability import metrics, profile

#: Benchmark scale: big enough that one run is several windows long.
N = 512
EPSILON = 0.02
STRIDES = (16, 1)
PROTOCOLS = ("randomized", "geographic")
CONFIGS = tuple((name, stride) for stride in STRIDES for name in PROTOCOLS)
#: Samples per arm; each arm keeps its fastest.
SAMPLES = 7
#: Target length of one sample: the run repeats until it lasts this long.
SAMPLE_SECONDS = 0.15
OVERHEAD_CEILING = 1.05


def _run(name, stride, graph, values, config, observed: bool):
    """One engine run; returns ((result, registry, profiler), seconds).

    The observed variant (under a registry and a profiler) builds the
    algorithm *inside* the exposed scope, exactly as ``execute_cell``
    does, so whatever the build and the run record (the engine's
    counters, the run's route-cache movement) is part of what's timed.
    """
    rng = spawn_rng(config.root_seed, "e22", name)
    if observed:
        with metrics.expose() as registry, profile.capture() as profiler:
            start = time.perf_counter()
            algorithm = make_algorithm(name, graph)
            result = run_batched(
                algorithm, values, EPSILON, rng, check_stride=stride
            )
            seconds = time.perf_counter() - start
        return (result, registry, profiler), seconds
    start = time.perf_counter()
    algorithm = make_algorithm(name, graph)
    result = run_batched(algorithm, values, EPSILON, rng, check_stride=stride)
    seconds = time.perf_counter() - start
    return (result, None, None), seconds


def test_e22_metrics_overhead(benchmark):
    config = ExperimentConfig(
        sizes=(N,), epsilon=EPSILON, trials=1, field="random"
    )
    graph, values = build_instance(config, N, 0)

    def measure():
        results = {}
        for name, stride in CONFIGS:
            seconds, outputs, repeats = sample_overhead(
                lambda arm: _run(
                    name,
                    stride,
                    graph,
                    values,
                    config,
                    observed=arm == "observed",
                ),
                samples=SAMPLES,
                sample_seconds=SAMPLE_SECONDS,
            )
            base_result = outputs["bare"][0]
            observed_result, registry, profiler = outputs["observed"]

            # Purely observational: the observed run IS the bare run.
            np.testing.assert_array_equal(
                base_result.values,
                observed_result.values,
                err_msg=f"observed values differ ({name})",
            )
            assert base_result.transmissions == observed_result.transmissions
            assert base_result.ticks == observed_result.ticks
            assert base_result.error == observed_result.error

            # And the instruments accounted for the run exactly.
            ticks_counted = registry.counter("repro_engine_ticks_total").value(
                algorithm=name
            )
            assert ticks_counted == observed_result.ticks, (
                name,
                ticks_counted,
                observed_result.ticks,
            )
            spans = {row["span"]: row for row in profiler.hotpath_table()}
            assert {"window", "check"} <= set(spans), sorted(spans)

            results[(name, stride)] = {
                **{f"{arm}_seconds": seconds[arm] for arm in OVERHEAD_ARMS},
                "repeats": repeats,
                "windows": spans["window"]["count"],
                "ticks": base_result.ticks,
            }
        return results

    results = timed_pedantic(
        benchmark,
        "e22_metrics_overhead",
        measure,
        n=N,
        epsilon=EPSILON,
        check_strides=list(STRIDES),
        samples=SAMPLES,
        sample_seconds=SAMPLE_SECONDS,
    )

    rows = []
    ratios = {}
    controls = {}
    for (name, stride), stats in results.items():
        key = f"{name}_stride{stride}"
        bare = stats["bare_seconds"]
        for arm, into, suffix in (
            ("observed", ratios, ""),
            ("control", controls, "_control"),
        ):
            ratio = stats[f"{arm}_seconds"] / bare
            into[key] = ratio
            rows.append(
                [
                    name,
                    stride,
                    arm,
                    stats["ticks"],
                    stats["windows"],
                    stats["repeats"],
                    round(bare * 1e3, 2),
                    round(stats[f"{arm}_seconds"] * 1e3, 2),
                    round(ratio, 3),
                ]
            )
            emit_timing(
                f"e22_{key}{suffix}",
                stats[f"{arm}_seconds"],
                arm=arm,
                bare_seconds=round(bare, 6),
                overhead_ratio=round(ratio, 4),
                repeats=stats["repeats"],
                windows=stats["windows"],
                n=N,
                epsilon=EPSILON,
                check_stride=stride,
            )
    emit(
        "e22_metrics_overhead",
        format_table(
            [
                "protocol",
                "stride",
                "arm",
                "ticks",
                "windows",
                "repeats",
                "bare ms",
                "arm ms",
                "ratio",
            ],
            rows,
            title=(
                f"E22  metrics+profile-on vs off wall clock per run "
                f"(n={N}, eps={EPSILON}, best of {SAMPLES} samples of "
                f"~{SAMPLE_SECONDS} s; control = bare vs bare)"
            ),
        ),
    )

    benchmark.extra_info.update(
        {f"overhead_{k}": round(v, 3) for k, v in ratios.items()}
    )
    benchmark.extra_info.update(
        {f"control_{k}": round(v, 3) for k, v in controls.items()}
    )
    # The acceptance bar: full observation costs at most 5% at every stride.
    for key, ratio in ratios.items():
        assert ratio <= OVERHEAD_CEILING, (key, ratios, controls)
