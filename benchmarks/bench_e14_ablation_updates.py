"""E14 — ablation: affine vs convex supernode updates; sibling vs global targets.

Paper context: the *contribution* is using non-convex affine combinations
(coefficients Ω(√n)) for supernode exchanges (§1.2); and the recursion of
Observation 1 telescopes only if exchanges stay within the parent square,
which is why `Far` targets are siblings by default.

Measured here, at a ε tight enough that cross-square mass must move:

* affine (clamped) vs convex supernode updates — convex moves O(1) mass
  per routed exchange instead of O(E#), so it misses the target or pays
  far more;
* sibling vs global `Far` targets — global targets route across the whole
  unit square at every depth, inflating the routed cost per exchange.
"""

import numpy as np

from _common import emit
from repro.experiments import format_table
from repro.gossip.hierarchical import CoefficientMode, HierarchicalGossip, RoundConfig
from repro.graphs import RandomGeometricGraph

N, EPSILON = 512, 0.08


def test_e14_update_rule_ablation(benchmark):
    # hard_cap_factor=3 keeps the intentionally losing configurations short.
    configurations = [
        ("affine + sibling targets (paper)", RoundConfig(hard_cap_factor=3.0)),
        (
            "convex supernode updates",
            RoundConfig(
                coefficient_mode=CoefficientMode.CONVEX, hard_cap_factor=3.0
            ),
        ),
        (
            "global Far targets",
            RoundConfig(sibling_targets=False, hard_cap_factor=3.0),
        ),
    ]

    def experiment():
        rng = np.random.default_rng(251)
        graph = RandomGeometricGraph.sample_connected(N, rng)
        x0 = np.random.default_rng(253).normal(size=N)
        outcomes = {}
        for label, config in configurations:
            algo = HierarchicalGossip(graph, config=config)
            result = algo.run(
                x0, EPSILON, np.random.default_rng(257), max_root_rounds=1
            )
            outcomes[label] = (result, dict(algo.stats.exchanges_by_depth))
        return outcomes

    outcomes = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = []
    for label, (result, exchanges) in outcomes.items():
        rows.append(
            [
                label,
                result.converged,
                result.error,
                result.total_transmissions,
                result.transmissions.get("far", 0),
                sum(exchanges.values()),
            ]
        )
    emit(
        "e14_ablation_updates",
        format_table(
            [
                "configuration",
                "converged",
                "final error",
                "transmissions",
                "far routing tx",
                "exchanges",
            ],
            rows,
            title=f"E14  update-rule ablation at n={N}, eps={EPSILON} (1 root round)",
            precision=4,
        ),
    )
    paper_result, _ = outcomes["affine + sibling targets (paper)"]
    convex_result, _ = outcomes["convex supernode updates"]
    global_result, _ = outcomes["global Far targets"]
    assert paper_result.converged
    # Convex supernode updates move O(1) mass per exchange: worse target
    # or strictly more transmissions.
    assert (not convex_result.converged) or (
        convex_result.total_transmissions > paper_result.total_transmissions
    )
    # Global targets pay longer routes per deep exchange.
    paper_far_per_exchange = paper_result.transmissions.get("far", 1) / max(
        1, sum(outcomes["affine + sibling targets (paper)"][1].values())
    )
    global_far_per_exchange = global_result.transmissions.get("far", 1) / max(
        1, sum(outcomes["global Far targets"][1].values())
    )
    assert global_far_per_exchange > paper_far_per_exchange
