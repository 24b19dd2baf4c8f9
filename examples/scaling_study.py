#!/usr/bin/env python3
"""Scenario: measuring the paper's scaling claim on your machine.

Sweeps network sizes, runs all three algorithms to the same target ε on
the same placements, and fits log-log slopes — the measured analogue of
the paper's asymptotic table:

    randomized     Õ(n²)        (slope → ≈ 2)
    geographic     Õ(n^1.5)     (slope → ≈ 1.5)
    hierarchical   n^(1+o(1))   (slope → ≈ 1)

The sweep's (algorithm, n, trial) grid cells fan across the simulation
engine's worker pool; per-cell seed spawning makes the numbers identical
at any worker count, so parallelism is free accuracy-wise.

Run:  python examples/scaling_study.py            (quick: up to n=512)
      python examples/scaling_study.py --full     (up to n=1024)
"""

import os
import sys

import numpy as np

from repro.experiments import (
    ExperimentConfig,
    fit_loglog_slope,
    format_table,
    run_scaling_sweep,
)


def main() -> None:
    full = "--full" in sys.argv
    sizes = (128, 256, 512, 1024) if full else (128, 256, 512)
    if full:
        print(
            "note: n=1024 crosses a hierarchy-structure jump; the "
            "hierarchical runs there take minutes (one more hierarchy "
            "level, each multiplying the cost of a round)\n"
        )
    config = ExperimentConfig(sizes=sizes, epsilon=0.2, trials=2)
    workers = max(1, min(4, os.cpu_count() or 1))
    print(
        f"Sweeping n ∈ {sizes}, ε = {config.epsilon}, "
        f"{config.trials} trials per point, {workers} workers ...\n"
    )
    sweep = run_scaling_sweep(config, workers=workers)

    rows = []
    for n in sizes:
        row = [n]
        for name in config.algorithms:
            point = next(p for p in sweep[name] if p.n == n)
            row.append(int(point.transmissions_mean))
        rows.append(row)
    print(
        format_table(
            ["n", *config.algorithms],
            rows,
            title="mean transmissions to ε",
        )
    )

    print()
    slope_rows = []
    for name in config.algorithms:
        points = sweep[name]
        slope = fit_loglog_slope(
            np.array([p.n for p in points], dtype=float),
            np.array([p.transmissions_mean for p in points]),
        )
        claimed = {"randomized": 2.0, "geographic": 1.5, "hierarchical": 1.0}[name]
        slope_rows.append([name, f"{slope:.2f}", claimed])
    print(
        format_table(
            ["algorithm", "measured slope", "paper exponent"],
            slope_rows,
            title="fitted log-log slopes (finite-n measurements vs asymptotic claim)",
        )
    )
    print(
        "\nNote: finite-n slopes carry polylog corrections; the ordering of "
        "slopes is the reproduction target (benchmarks/bench_e07_scaling.py)."
    )


if __name__ == "__main__":
    main()
