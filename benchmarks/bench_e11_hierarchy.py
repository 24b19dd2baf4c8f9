"""E11 — hierarchy shape: ℓ ~ log log n levels; the paper's constants.

Paper claims (§4.1, §5): the subdivision rule (nearest even square to
√E#) recurses to ℓ ~ log log n levels under the (log n)^8 threshold, and
the schedule constants (ε_r shrinking by 25·n^{7/2+a}, latencies to the
16th power) are worst-case artifacts.

Measured here: factors/levels/leaf occupancies across n for the practical
threshold; the paper threshold's (trivial) depth at simulable n; and the
literal latency magnitudes — the recorded justification for simulating
practical schedules and practical leaf thresholds instead.
"""

import math

import numpy as np

from _common import emit
from repro.experiments import format_table
from repro.geometry import random_points
from repro.gossip.hierarchical import AccuracySchedule, latency_schedule
from repro.hierarchy import (
    HierarchyTree,
    paper_leaf_threshold,
    practical_leaf_threshold,
    subdivision_factors,
)


def test_e11_hierarchy_shape(benchmark):
    sizes = (256, 1024, 4096, 16384, 65536, 262144)

    def experiment():
        rows = []
        for n in sizes:
            practical = subdivision_factors(n, practical_leaf_threshold(n))
            paper = subdivision_factors(n, paper_leaf_threshold(n))
            leaf_expected = n / math.prod(practical) if practical else n
            rows.append(
                [
                    n,
                    str(practical),
                    len(practical) + 1,
                    len(paper) + 1,
                    leaf_expected,
                    math.log(max(math.log(n), math.e)),
                ]
            )
        # One realised tree for concreteness.
        tree = HierarchyTree.build(random_points(4096, np.random.default_rng(231)))
        occupancy = tree.occupancy_report()
        # The literal schedule magnitudes at n=1024.
        schedule = AccuracySchedule(n=1024, epsilon0=0.1, delta0=1e-2, a=1.0)
        times = latency_schedule(1024, [36, 4], schedule)
        return rows, occupancy, times

    rows, occupancy, times = benchmark.pedantic(experiment, rounds=1, iterations=1)
    shape_table = format_table(
        [
            "n",
            "factors (practical)",
            "levels ℓ",
            "ℓ at (log n)^8",
            "leaf E#",
            "log log n",
        ],
        rows,
        title="E11  subdivision shape across n",
    )
    occupancy_table = format_table(
        ["depth", "squares", "E#", "min #", "max #", "empty"],
        [
            [r["depth"], r["squares"], r["expected"], r["min"], r["max"], r["empty"]]
            for r in occupancy
        ],
        title="E11  realised tree at n=4096 (practical threshold)",
    )
    latency_note = (
        "E11  literal time(n,r,eps_r,delta_r) at n=1024, factors [36,4]: "
        + ", ".join(f"depth {d}: {t:.2e}" for d, t in enumerate(times))
        + "\n(astronomical => simulations use practical schedules)"
    )
    emit(
        "e11_hierarchy",
        shape_table + "\n\n" + occupancy_table + "\n\n" + latency_note,
    )
    levels = [row[2] for row in rows]
    assert all(b >= a for a, b in zip(levels, levels[1:])), "ℓ must not shrink"
    assert levels[-1] - levels[0] <= 3, "ℓ grows like log log n (very slowly)"
    assert all(row[3] == 1 for row in rows), "(log n)^8 never splits at these n"
    assert times[0] > 1e30
