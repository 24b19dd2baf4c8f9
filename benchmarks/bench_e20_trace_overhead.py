"""E20 — trace overhead: the cost of running under the event recorder.

The observability layer's contract is "zero overhead off, cheap on":
trace-off runs share the untraced code path byte for byte (one module
read and an ``is None`` branch per emission site), and trace-on runs
must stay close enough to untraced wall clock that tracing a sweep is a
routine flag, not a special slow mode.

Measured here, for the slow baseline (randomized) and the routed
workhorse (geographic) at benchmark scale (n=256, stride 16): wall clock
of one engine run untraced vs the same run under an active
:class:`~repro.observability.events.TraceRecorder`.  An untraced run
takes about a millisecond, so the arms are sampled as E22 samples its
own (:func:`_common.sample_overhead`): an untimed warm-up, samples of
about :data:`SAMPLE_SECONDS` of repeated runs, interleaved arms, best of
:data:`SAMPLES`.  A *control* arm runs untraced again; its ratio to the
untraced arm is the noise floor, reported in the table and in the
``BENCH_e20_*_control.json`` artifacts.  Asserted: the traced run is
bit-identical to the untraced one (values, transmissions, ticks — the
recorder is purely observational), its event stream replays bitwise
through :func:`~repro.observability.replay.replay_events`, and the
trace-on overhead is at most 30%.  The control arm is reported, not
gated.
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
from repro.observability import capture, replay_events, validate_result

N = 256
EPSILON = 0.1
STRIDE = 16
PROTOCOLS = ("randomized", "geographic")
#: Samples per arm; each arm keeps its fastest.
SAMPLES = 7
#: Target length of one sample: the run repeats until it lasts this long.
SAMPLE_SECONDS = 0.15
OVERHEAD_CEILING = 1.30


def _run(name, graph, values, config, recorder_on: bool):
    """One engine run; returns ((result, events-or-None), seconds)."""
    algorithm = make_algorithm(name, graph)
    rng = spawn_rng(config.root_seed, "e20", name)
    if recorder_on:
        with capture() as recorder:
            start = time.perf_counter()
            result = run_batched(
                algorithm, values, EPSILON, rng, check_stride=STRIDE
            )
            seconds = time.perf_counter() - start
        return (result, recorder.events), seconds
    start = time.perf_counter()
    result = run_batched(algorithm, values, EPSILON, rng, check_stride=STRIDE)
    seconds = time.perf_counter() - start
    return (result, None), seconds


def test_e20_trace_overhead(benchmark):
    config = ExperimentConfig(
        sizes=(N,), epsilon=EPSILON, trials=1, field="random"
    )
    graph, values = build_instance(config, N, 0)

    def measure():
        results = {}
        for name in PROTOCOLS:
            # The identical (seed, stride) run repeats bit for bit, so
            # the best sample isolates the code path cost from noise.
            seconds, outputs, repeats = sample_overhead(
                lambda arm: _run(
                    name, graph, values, config, recorder_on=arm == "observed"
                ),
                samples=SAMPLES,
                sample_seconds=SAMPLE_SECONDS,
            )
            base_result = outputs["bare"][0]
            traced_result, events = outputs["observed"]

            # Purely observational: the traced run IS the untraced run.
            np.testing.assert_array_equal(
                base_result.values,
                traced_result.values,
                err_msg=f"traced values differ ({name})",
            )
            assert base_result.transmissions == traced_result.transmissions
            assert base_result.ticks == traced_result.ticks
            assert base_result.error == traced_result.error

            # And the captured stream replays the run bitwise.
            validate_result(replay_events(events), traced_result)

            results[name] = {
                **{f"{arm}_seconds": seconds[arm] for arm in OVERHEAD_ARMS},
                "repeats": repeats,
                "events": len(events),
                "ticks": base_result.ticks,
            }
        return results

    results = timed_pedantic(
        benchmark,
        "e20_trace_overhead",
        measure,
        n=N,
        epsilon=EPSILON,
        check_stride=STRIDE,
        samples=SAMPLES,
        sample_seconds=SAMPLE_SECONDS,
    )

    rows = []
    ratios = {}
    controls = {}
    for name, stats in results.items():
        untraced = stats["bare_seconds"]
        for arm, into, suffix in (
            ("observed", ratios, ""),
            ("control", controls, "_control"),
        ):
            ratio = stats[f"{arm}_seconds"] / untraced
            into[name] = ratio
            rows.append(
                [
                    name,
                    "traced" if arm == "observed" else arm,
                    stats["ticks"],
                    stats["events"],
                    stats["repeats"],
                    round(untraced * 1e3, 3),
                    round(stats[f"{arm}_seconds"] * 1e3, 3),
                    round(ratio, 3),
                ]
            )
            emit_timing(
                f"e20_{name}{suffix}",
                stats[f"{arm}_seconds"],
                arm=arm,
                untraced_seconds=round(untraced, 6),
                overhead_ratio=round(ratio, 4),
                repeats=stats["repeats"],
                trace_events=stats["events"],
                n=N,
                epsilon=EPSILON,
                check_stride=STRIDE,
            )
    emit(
        "e20_trace_overhead",
        format_table(
            [
                "protocol",
                "arm",
                "ticks",
                "events",
                "repeats",
                "untraced ms",
                "arm ms",
                "ratio",
            ],
            rows,
            title=(
                f"E20  trace-on vs trace-off wall clock per run "
                f"(n={N}, eps={EPSILON}, stride {STRIDE}, best of "
                f"{SAMPLES} samples of ~{SAMPLE_SECONDS} s; "
                "control = untraced vs untraced)"
            ),
        ),
    )

    benchmark.extra_info.update(
        {f"overhead_{k}": round(v, 3) for k, v in ratios.items()}
    )
    benchmark.extra_info.update(
        {f"control_{k}": round(v, 3) for k, v in controls.items()}
    )
    # The acceptance bar: tracing costs at most 30% at stride 16.
    for name in PROTOCOLS:
        assert ratios[name] <= OVERHEAD_CEILING, (name, ratios, controls)
