#!/usr/bin/env python3
"""Scenario: watching the paper's hierarchical protocol actually run.

Runs :class:`~repro.gossip.hierarchical.rounds.HierarchicalGossip` — the
Section 3/4 protocol, round by round: flooded leaf activations, `Near`
averaging inside leaves, greedy-routed affine `Far` exchanges between
sibling supernodes — at small ``n``, and inspects the machinery: the
hierarchy and its Levels, the per-depth execution counts the executor
keeps in ``RoundStats``, and the transmissions by category.

Run:  python examples/protocol_inspection.py
"""

import numpy as np

from repro import HierarchicalGossip, HierarchyTree, RandomGeometricGraph
from repro.experiments import format_table
from repro.workloads import linear_gradient_field


def main() -> None:
    n = 128
    epsilon = 0.25
    rng = np.random.default_rng(11)

    graph = RandomGeometricGraph.sample_connected(n, rng, radius_constant=2.5)
    tree = HierarchyTree.build(graph.positions, leaf_threshold=16.0)
    field = linear_gradient_field(graph.positions, rng)

    print("hierarchy structure:")
    print(
        format_table(
            ["depth", "squares", "E#", "min #", "mean #", "max #", "empty"],
            [
                [
                    r["depth"],
                    r["squares"],
                    r["expected"],
                    r["min"],
                    r["mean"],
                    r["max"],
                    r["empty"],
                ]
                for r in tree.occupancy_report()
            ],
        )
    )
    levels = {}
    for sensor in range(n):
        levels[tree.node_level(sensor)] = levels.get(tree.node_level(sensor), 0) + 1
    print(f"\nsensor Levels (paper §4.1): { {k: levels[k] for k in sorted(levels)} }")
    print(f"root supernode s(□): sensor {tree.root.supernode}")

    protocol = HierarchicalGossip(graph, tree=tree)
    result = protocol.run(field, epsilon, np.random.default_rng(3))
    stats = protocol.stats

    print()
    print(
        format_table(
            ["depth", "rounds", "skipped rounds", "Far exchanges", "Near ticks"],
            [
                [
                    depth,
                    stats.rounds_by_depth.get(depth, 0),
                    stats.skipped_rounds_by_depth.get(depth, 0),
                    stats.exchanges_by_depth.get(depth, 0),
                    stats.near_ticks_by_depth.get(depth, 0),
                ]
                for depth in range(len(tree.factors) + 1)
            ],
            title="per-depth round statistics (RoundStats)",
        )
    )
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["actions (Near ticks + Far exchanges)", result.ticks],
                ["cap hits", stats.cap_hits],
                ["routing failures", stats.routing_failures],
                ["transmissions (total)", result.total_transmissions],
                ["  … Near", result.transmissions.get("near", 0)],
                ["  … Far routing", result.transmissions.get("far", 0)],
                ["  … activation control", result.transmissions.get("activation", 0)],
                ["final relative error", result.error],
                ["converged", result.converged],
            ],
            title="hierarchical protocol run",
        )
    )


if __name__ == "__main__":
    main()
