"""E22 — metrics overhead: the cost of running fully observed.

The live-metrics layer promises an even tighter bar than tracing (E20):
where the event recorder pays one emission per batch window, the metrics
registry is updated once per window, and the route cache's counters
reach it once per run (``run_batched`` adds the run's movement when the
run ends), never on the route hot path.  The span profiler touches
:func:`time.perf_counter` twice per window.  So a
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
the 5% being judged.  So each *sample* repeats the run until it has
lasted about :data:`SAMPLE_SECONDS` (the repeat count is sized from an
untimed warm-up run, which is discarded), and each arm keeps the best of
:data:`SAMPLES` samples.  The arms are interleaved so clock drift hits
them alike.  A third arm, *control*, is the bare run again: its ratio to
the bare arm is the noise floor of the measurement, reported beside the
observed ratio in the table and in the ``BENCH_e22_*_control.json``
artifacts.

Asserted: the observed run is bit-identical to the bare one (values,
transmissions, ticks — neither instrument consumes RNG), the registry's
tick counter agrees exactly with the run's tick count, the hotpath table
accounts for the run, and the observed arm costs at most 5% more than
the bare arm.  The control arm is reported, not gated.
"""

import math
import time

import numpy as np

from _common import emit, emit_timing, timed_pedantic
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
#: ``bare`` and ``control`` run the same bare code; ``observed`` runs
#: under a registry and a profiler.  Interleaved in this order.
ARMS = ("bare", "observed", "control")
OVERHEAD_CEILING = 1.05


def _run(name, stride, graph, values, config, observed: bool):
    """One engine run; returns (result, seconds, registry, profiler).

    The observed variant builds the algorithm *inside* the exposed
    scope, exactly as ``execute_cell`` does, so whatever the build and
    the run record (the engine's window counters, the run's route-cache
    movement) is part of what's timed.
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
        return result, seconds, registry, profiler
    start = time.perf_counter()
    algorithm = make_algorithm(name, graph)
    result = run_batched(algorithm, values, EPSILON, rng, check_stride=stride)
    seconds = time.perf_counter() - start
    return result, seconds, None, None


def _sample(name, stride, graph, values, config, observed, repeats):
    """``repeats`` runs back to back: (last run's outputs, total seconds)."""
    total = 0.0
    for _ in range(repeats):
        result, seconds, registry, profiler = _run(
            name, stride, graph, values, config, observed
        )
        total += seconds
    return (result, registry, profiler), total


def test_e22_metrics_overhead(benchmark):
    config = ExperimentConfig(
        sizes=(N,), epsilon=EPSILON, trials=1, field="random"
    )
    graph, values = build_instance(config, N, 0)

    def measure():
        results = {}
        for name, stride in CONFIGS:
            # Warm-up, discarded: one run per arm's code path.  The bare
            # run's time sizes the samples.
            _run(name, stride, graph, values, config, observed=True)
            _, warm, _, _ = _run(
                name, stride, graph, values, config, observed=False
            )
            repeats = max(1, math.ceil(SAMPLE_SECONDS / warm))
            seconds = {arm: [] for arm in ARMS}
            outputs = {}
            for _ in range(SAMPLES):
                for arm in ARMS:
                    outputs[arm], total = _sample(
                        name,
                        stride,
                        graph,
                        values,
                        config,
                        observed=arm == "observed",
                        repeats=repeats,
                    )
                    seconds[arm].append(total / repeats)
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
                **{f"{arm}_seconds": min(seconds[arm]) for arm in ARMS},
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
