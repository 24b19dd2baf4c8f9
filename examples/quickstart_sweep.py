#!/usr/bin/env python3
"""Tutorial sweep: path averaging through the engine, persisted to a store.

The companion script of ``docs/quickstart.md``.  It runs a small
path-averaging vs geographic scaling sweep through the full engine stack
— grid cells with deterministic per-cell seeds, the strided batched tick
path, and a resumable on-disk result store — then renders the result
table and the fitted log-log cost slopes.

Run:  python examples/quickstart_sweep.py [store_dir] [sizes]

e.g.  python examples/quickstart_sweep.py /tmp/pa-store 64,96,128

Run it twice with the same arguments: the second run resumes from the
store and recomputes nothing.
"""

import sys
import tempfile

import numpy as np

from repro.engine import ResultStore
from repro.experiments import (
    ExperimentConfig,
    fit_loglog_slope,
    format_table,
    run_scaling_sweep,
)

CHECK_STRIDE = 4  # strided error checks ride the vectorized owner-block path


def main() -> None:
    store_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="repro-quickstart-"
    )
    sizes = (
        tuple(int(s) for s in sys.argv[2].split(","))
        if len(sys.argv) > 2
        else (64, 96, 128)
    )

    config = ExperimentConfig(
        sizes=sizes,
        epsilon=0.25,
        trials=2,
        field="gradient",
        algorithms=("geographic", "path-averaging"),
        topology="rgg",  # swap for any repro.graphs.generators.TOPOLOGIES name
    )
    store = ResultStore(store_dir, config, CHECK_STRIDE)
    already = len(store.load_records())
    total = len(sizes) * config.trials * len(config.algorithms)
    print(f"store: {store.directory}")
    print(f"  {already}/{total} cells already on disk (resume skips them)\n")

    sweep = run_scaling_sweep(
        config, workers=2, check_stride=CHECK_STRIDE, store=store
    )

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
            title=(
                f"mean transmissions to eps={config.epsilon} "
                f"({config.trials} trials, '{config.topology}' topology)"
            ),
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
        slope_rows.append([name, slope])
    print(format_table(["protocol", "fitted log-log slope"], slope_rows))
    print(
        "\nPath averaging mixes a whole routed walk per operation, so its "
        "cost grows\nnear-linearly while geographic gossip trends toward "
        "n^1.5 (run larger sizes\nto watch the gap widen)."
    )


if __name__ == "__main__":
    main()
