"""E7 — the headline: transmissions-to-ε scaling of the three algorithms.

Paper claims (§1.1-§1.2, §5):

* randomized gossip  — Õ(n²) transmissions,
* geographic gossip  — Õ(n^1.5),
* hierarchical affine — n·(log(n/ε))^{O(log log n)} = n^{1+o(1)}.

What is measurable at laptop n (and what is not):

* The randomized-vs-geographic exponent separation is cleanly measurable:
  fitted log-log slopes ≈ 2 − O(1/log n) vs ≈ 1.4-1.6.
* The hierarchical protocol's *asymptotic* exponent is not directly
  measurable at n ≤ 1024: the subdivision rule inserts hierarchy levels
  within the sweep (ℓ jumps 2→3), and each insertion multiplies cost by
  k_r·log(·) — a slope fitted across an insertion measures the jump, not
  the limit.  The measured table therefore reports the
  level structure next to each cost, and the asymptotic ordering is
  checked on the closed-form models (`analysis.theory`), whose shapes are
  validated piecewise by E4/E9/E12/E14.

The honest headline: baselines' exponents reproduce quantitatively; the
contribution's mechanism (complete-graph-speed sum mixing at routed cost)
reproduces in E9/E14; its asymptotic win is a model-level statement with
constants that place the crossover far beyond simulable n.
"""

import dataclasses
import math
import os
import time

import numpy as np

from _common import emit, emit_timing, timed_pedantic
from repro.analysis import (
    geographic_gossip_prediction,
    paper_headline_form,
    randomized_gossip_prediction,
)
from repro.experiments import (
    ExperimentConfig,
    fit_loglog_slope,
    format_table,
    run_scaling_sweep,
)
from repro.hierarchy import practical_leaf_threshold, subdivision_factors

# n=1024 crosses a hierarchy-structure jump ([16,4] → [36,4]) whose
# multiplicative log-tower makes single runs take minutes — the very
# effect the module docstring describes; E16 charts it explicitly.  The
# sweep stays below the jump so every cell runs in seconds.
SIZES = (128, 256, 512)
EPSILON = 0.2

# Grid cells fan across the engine's worker pool; per-cell seed spawning
# makes the numbers identical at any worker count, so parallelism is free.
WORKERS = max(1, min(4, os.cpu_count() or 1))

# Strided error checks ride the engine's strided path (pre-sampled
# owners, chunked protocol draws; hierarchical is round-based and passes
# through).  The coarser stopping rule can only
# overshoot the ε-crossing by one check window, which scales like the
# tick count itself — so fitted slopes are unaffected.
CHECK_STRIDE = 4


def test_e07_scaling(benchmark):
    # A gradient field excites the slow eigenmode the worst-case bounds
    # describe; i.i.d. noise would flatter randomized gossip.
    config = ExperimentConfig(
        sizes=SIZES, epsilon=EPSILON, trials=2, field="gradient"
    )

    def sweep_per_protocol():
        """The full grid, one timed per-protocol sweep at a time.

        Cells are identical to one merged sweep (instances depend only on
        ``(n, trial)``); partitioning by protocol is what makes the
        per-protocol wall-clock attributable.
        """
        merged, seconds = {}, {}
        for name in config.algorithms:
            single = dataclasses.replace(config, algorithms=(name,))
            start = time.perf_counter()
            part = run_scaling_sweep(
                single, workers=WORKERS, check_stride=CHECK_STRIDE
            )
            seconds[name] = time.perf_counter() - start
            merged[name] = part[name]
        return merged, seconds

    sweep, protocol_seconds = timed_pedantic(
        benchmark,
        "e07_scaling",
        sweep_per_protocol,
        workers=WORKERS,
        check_stride=CHECK_STRIDE,
        sizes=list(SIZES),
        trials=config.trials,
    )
    for name, seconds in protocol_seconds.items():
        emit_timing(
            f"e07_{name}",
            seconds,
            workers=WORKERS,
            check_stride=CHECK_STRIDE,
            sizes=list(SIZES),
            trials=config.trials,
        )

    rows = []
    for n in SIZES:
        row = [n]
        for name in config.algorithms:
            point = next(p for p in sweep[name] if p.n == n)
            row.append(int(point.transmissions_mean))
        factors = subdivision_factors(n, practical_leaf_threshold(n))
        row.append(str(factors))
        rows.append(row)
    counts_table = format_table(
        ["n", *config.algorithms, "hier. levels"],
        rows,
        title=f"E7  mean transmissions to eps={EPSILON} (2 trials, shared instances)",
    )

    slopes = {}
    for name in config.algorithms:
        points = sweep[name]
        slopes[name] = fit_loglog_slope(
            np.array([p.n for p in points], dtype=float),
            np.array([p.transmissions_mean for p in points]),
        )
    slope_table = format_table(
        ["algorithm", f"measured slope (n={SIZES[0]}..{SIZES[-1]})", "paper exponent"],
        [
            ["randomized", slopes["randomized"], 2.0],
            ["geographic", slopes["geographic"], 1.5],
            [
                "hierarchical",
                slopes["hierarchical"],
                "1+o(1) asymptotic (see note)",
            ],
        ],
        title="E7  fitted log-log slopes",
    )

    # Model-level asymptotic ordering (constants calibrated in E4/E12).
    n_large = 10**8
    model_rows = [
        [
            "randomized model",
            randomized_gossip_prediction(n_large, EPSILON),
            _local_slope(randomized_gossip_prediction, n_large),
        ],
        [
            "geographic model",
            geographic_gossip_prediction(n_large, EPSILON),
            _local_slope(geographic_gossip_prediction, n_large),
        ],
        [
            "paper headline form",
            paper_headline_form(n_large, EPSILON),
            _local_slope(paper_headline_form, n_large),
        ],
    ]
    model_table = format_table(
        ["model at n=1e8", "transmissions", "local slope"],
        model_rows,
        title=(
            "E7  asymptotic ordering (models; hierarchical level-insertions "
            "make the small-n measured slope a jump artifact)"
        ),
    )
    emit(
        "e07_scaling",
        counts_table + "\n\n" + slope_table + "\n\n" + model_table,
    )

    for name in config.algorithms:
        for point in sweep[name]:
            assert point.converged_fraction == 1.0, (name, point.n)
    # Measured baseline separation — the paper's Õ(n²) vs Õ(n^1.5).
    assert slopes["randomized"] > slopes["geographic"] + 0.2
    assert slopes["randomized"] > 1.6
    assert slopes["geographic"] < 1.75
    # Model-level asymptotic ordering of the three exponents.
    headline = [row[1] for row in model_rows]
    assert headline[2] < headline[1] < headline[0]
    benchmark.extra_info.update({f"slope_{k}": round(v, 3) for k, v in slopes.items()})


def _local_slope(fn, n: int) -> float:
    return float(
        (math.log(fn(2 * n, EPSILON)) - math.log(fn(n, EPSILON))) / math.log(2.0)
    )
