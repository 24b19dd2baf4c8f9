"""Shared helpers for the benchmark harness.

Every benchmark prints a paper-shaped table (visible with ``pytest -s``)
and also writes it to ``benchmarks/results/<experiment>.txt``, the
concrete artifact of the latest run.

Timings are additionally persisted machine-readably: one
``benchmarks/results/BENCH_<experiment>.json`` per benchmark, carrying
the measured wall-clock seconds plus free-form metadata (worker counts,
strides, fitted slopes, …).  CI and trend tooling diff these files across
runs to track the perf trajectory.
"""

from __future__ import annotations

import json
import pathlib
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(experiment: str, text: str) -> None:
    """Print a result block and persist it under ``benchmarks/results/``."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(text + "\n")


def emit_timing(experiment: str, seconds: float, **extra) -> None:
    """Persist one benchmark's wall-clock timing as ``BENCH_<experiment>.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"experiment": experiment, "seconds": round(seconds, 6), **extra}
    (RESULTS_DIR / f"BENCH_{experiment}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def timed_pedantic(benchmark, experiment: str, fn, **extra):
    """One measured round through pytest-benchmark, with a timing artifact.

    Wraps ``benchmark.pedantic(fn, rounds=1, iterations=1)`` — the harness
    convention for these long-running experiment sweeps — and persists
    pytest-benchmark's own measurement of the round (falling back to wall
    clock around the call if the stats are unavailable), so the JSON trend
    numbers exclude harness overhead.  Returns ``fn``'s result.
    """
    start = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    try:
        elapsed = float(benchmark.stats.stats.total)
    except AttributeError:
        pass
    emit_timing(experiment, elapsed, **extra)
    return result
