"""E22 — metrics overhead: the cost of running fully observed.

The live-metrics layer promises an even tighter bar than tracing (E20):
where the event recorder pays one emission per batch window, the metrics
registry is window-granular *and* pull-based — the route cache's
counters are read only at scrape time, never on the route hot path — and
the span profiler touches :func:`time.perf_counter` twice per window.
So a metrics-and-profiling-on run must cost at most 5% wall clock, an
order tighter than E20's 30% tracing ceiling.

Measured here, for the slow baseline (randomized) and the routed
workhorse (geographic) at benchmark scale (n=512), at stride 16 and at
the CLI's default stride 1 (the one tick driver instruments both alike,
window-granular; a stride-1 window is ``n // 4`` ticks): best-of-7
wall clock of one engine run bare vs the same run under an active
:class:`~repro.observability.metrics.MetricsRegistry` *and*
:class:`~repro.observability.profile.SpanProfiler`.  Asserted: the
observed run is bit-identical to the bare one (values, transmissions,
ticks — neither instrument consumes RNG), the registry's tick counter
agrees exactly with the run's tick count, the hotpath table accounts for
the run, and the enabled overhead is at most 5%.

Measured ≈1.00×/1.04× (geographic/randomized) on the reference box —
within noise of free, as the design predicts: the per-*window* cost is
three counter updates and four ``perf_counter`` reads, and the
per-*route*/per-*tick* cost is zero (pull-time collectors).
"""

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

#: Benchmark scale: big enough that one run is tens of milliseconds and
#: several windows long, so a 5% bar measures code-path cost rather than
#: scheduler noise on a millisecond-scale run.
N = 512
EPSILON = 0.02
STRIDES = (16, 1)
PROTOCOLS = ("randomized", "geographic")
CONFIGS = tuple((name, stride) for stride in STRIDES for name in PROTOCOLS)
REPS = 7
OVERHEAD_CEILING = 1.05


def _run(name, stride, graph, values, config, observed: bool):
    """One engine run; returns (result, seconds, registry, profiler).

    The observed variant builds the algorithm *inside* the exposed
    scope, exactly as ``execute_cell`` does, so construction-time
    collector registration (the route cache's) is part of what's timed.
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


def test_e22_metrics_overhead(benchmark):
    config = ExperimentConfig(
        sizes=(N,), epsilon=EPSILON, trials=1, field="random"
    )
    graph, values = build_instance(config, N, 0)

    def measure():
        results = {}
        for name, stride in CONFIGS:
            # Best-of-REPS on each side, with the two sides interleaved
            # so clock drift hits both equally: the identical (seed,
            # stride) run repeats bit for bit, so the minimum isolates
            # the code-path cost from scheduler noise.
            bare, observed = [], []
            for _ in range(REPS):
                bare.append(
                    _run(name, stride, graph, values, config, observed=False)
                )
                observed.append(
                    _run(name, stride, graph, values, config, observed=True)
                )
            base_result = bare[0][0]
            observed_result, _, registry, profiler = observed[0]

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
                "bare_seconds": min(s for _, s, _, _ in bare),
                "observed_seconds": min(s for _, s, _, _ in observed),
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
        reps=REPS,
    )

    rows = []
    ratios = {}
    for (name, stride), stats in results.items():
        ratio = stats["observed_seconds"] / stats["bare_seconds"]
        ratios[f"{name}_stride{stride}"] = ratio
        rows.append(
            [
                name,
                stride,
                stats["ticks"],
                stats["windows"],
                round(stats["bare_seconds"] * 1e3, 2),
                round(stats["observed_seconds"] * 1e3, 2),
                round(ratio, 3),
            ]
        )
        emit_timing(
            f"e22_{name}_stride{stride}",
            stats["observed_seconds"],
            bare_seconds=round(stats["bare_seconds"], 6),
            overhead_ratio=round(ratio, 4),
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
                "ticks",
                "windows",
                "bare ms",
                "observed ms",
                "overhead",
            ],
            rows,
            title=(
                f"E22  metrics+profile-on vs off wall clock "
                f"(n={N}, eps={EPSILON}, best of {REPS})"
            ),
        ),
    )

    # The acceptance bar: full observation costs at most 5% at every stride.
    for key, ratio in ratios.items():
        assert ratio <= OVERHEAD_CEILING, (key, ratios)
    benchmark.extra_info.update(
        {f"overhead_{k}": round(v, 3) for k, v in ratios.items()}
    )
