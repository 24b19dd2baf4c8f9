"""Round-based executor for the hierarchical affine protocol (Section 3).

A square's **round** is the unit of work:

1. *Activate*: the square's supernode switches its children on — a flood
   within leaf squares, greedy routes to child supernodes above leaves.
2. *Settle*: each child square runs its own round so its members share a
   common value (the overview's "Suppose that A has been run on each
   subsquare … independently").
3. *Exchange loop*: repeatedly, a uniformly random child supernode picks a
   uniformly random sibling, the pair exchanges values by greedy routing,
   both apply the **affine update** with coefficient ``(2/5)·E#``, and both
   involved child squares re-run their rounds.
4. *Deactivate*: mirror of activation.

Leaf rounds are plain `Near` gossip: each tick, a uniform member averages
with a uniform neighbour inside the leaf square.

A leaf's flood charge depends only on the graph, its supernode and its
members, so each protocol instance computes it once, on the leaf's first
switch, and charges the memoised count on every later one.  So does the
leaf's `Near` table (its members and fallback partners, with each
member's partners in local indices), over which a leaf round runs on
Python floats.

Stopping: with ``adaptive=True`` (default) the exchange
and `Near` loops stop as soon as the square's internal deviation falls to
its depth's accuracy target ``ε_r · ‖x(0)‖`` (measured oracularly; costs
are still charged per transmission).  With ``adaptive=False`` loops run the
prescribed counts from :class:`~repro.gossip.hierarchical.parameters.
ProtocolParameters` — the paper's worst-case structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.gossip.base import (
    GossipRunResult,
    LegacyDrawStream,
    check_state_shape,
    draw_pairs,
)
from repro.gossip.hierarchical.parameters import ProtocolParameters
from repro.graphs.rgg import RandomGeometricGraph
from repro.hierarchy.addresses import SquareAddress
from repro.hierarchy.tree import HierarchyTree, SquareNode
from repro.metrics.error import deviation_norm, normalized_error
from repro.metrics.trace import ConvergenceTrace
from repro.routing.cache import CachedGreedyRouter
from repro.routing.cost import TransmissionCounter
from repro.routing.flooding import flood

__all__ = ["CoefficientMode", "RoundConfig", "RoundStats", "HierarchicalGossip"]


class CoefficientMode(Enum):
    """How the `Far` affine coefficient is computed.

    * ``PAPER_EXPECTED`` — the literal ``(2/5)·E#(□)``: correct whenever
      occupancy concentrates (the paper's ``(log n)^8`` leaves), but can
      push the induced sum-coefficient ``α = (2/5)·E#/#`` past 1 on
      under-occupied simulation-scale leaves and destabilise (E10).
    * ``CLAMPED`` — ``min((2/5)·E#, 0.48·min(#_i, #_j))``: identical to the
      paper when concentration holds, and contracting as long as every
      occupied child square has a supernode its parent's exchange loop
      can reach.  It is not when a leaf's only sensor was already elected
      by its parent: the leaf has no supernode, that sensor takes every
      `Far` kick one level up (β ≫ 1) and nothing spreads it, so the gap
      grows each exchange — ``repro sweep`` defaults, root seed
      20070838, hierarchical n=512, trial 1 diverges this way.
    * ``ACTUAL_MIN`` — ``(2/5)·min(#_i, #_j)``: fully local robust variant.
    * ``CONVEX`` — plain supernode averaging (coefficient ``1/2`` on the
      supernode *values*, no mass weighting): the E14 ablation showing why
      affine combinations are the paper's point.
    """

    PAPER_EXPECTED = "paper_expected"
    CLAMPED = "clamped"
    ACTUAL_MIN = "actual_min"
    CONVEX = "convex"


@dataclass(frozen=True)
class RoundConfig:
    """Executor knobs.

    Attributes
    ----------
    coefficient_mode:
        See :class:`CoefficientMode`.
    adaptive:
        Stop loops on measured accuracy (True) or run prescribed counts.
    sibling_targets:
        `Far` targets are siblings within the same parent.  ``False``
        targets any same-depth square — the E14 ablation (it breaks the
        recursion's locality and inflates routing cost).
    hard_cap_factor:
        Adaptive loops abort after ``hard_cap_factor ×`` the prescribed
        count (guards pathological placements; aborts are reported).
    """

    coefficient_mode: CoefficientMode = CoefficientMode.CLAMPED
    adaptive: bool = True
    sibling_targets: bool = True
    hard_cap_factor: float = 10.0


@dataclass
class RoundStats:
    """Aggregate execution statistics, split by hierarchy depth."""

    exchanges_by_depth: dict[int, int] = field(default_factory=dict)
    near_ticks_by_depth: dict[int, int] = field(default_factory=dict)
    rounds_by_depth: dict[int, int] = field(default_factory=dict)
    skipped_rounds_by_depth: dict[int, int] = field(default_factory=dict)
    routing_failures: int = 0
    cap_hits: int = 0

    def _bump(self, table: dict[int, int], depth: int, amount: int = 1) -> None:
        table[depth] = table.get(depth, 0) + amount


class HierarchicalGossip:
    """The paper's protocol, executed round by round.

    Parameters
    ----------
    graph:
        The geometric random graph.
    tree:
        A prebuilt hierarchy; defaults to
        :meth:`~repro.hierarchy.tree.HierarchyTree.build` with the
        practical leaf threshold.
    parameters:
        Accuracy/latency schedules; defaults to
        :meth:`ProtocolParameters.practical` at run time (using the run's
        ε).
    config:
        Executor behaviour (:class:`RoundConfig`).

    The adaptive round structure (settle checks, exchange counts, `Far`
    retries) is an oracle over ONE field, and the affine `Far`
    coefficient can exceed 1, an extrapolation the adaptive loop reins
    in for the field it measures.  Secondary columns of an (n, k) matrix
    would receive those β > 1 exchanges without their own settle checks
    and can *diverge* while the primary converges.  So ``run`` rejects
    matrix state, and the engine, like for every round-based protocol,
    runs each column through its own adaptive execution (`run_batched`
    and `MultiFieldFallbackWarning`), correct at the serial cost.
    """

    name = "hierarchical-affine"

    def __init__(
        self,
        graph: RandomGeometricGraph,
        tree: HierarchyTree | None = None,
        parameters: ProtocolParameters | None = None,
        config: RoundConfig | None = None,
    ):
        self.graph = graph
        self.tree = tree if tree is not None else HierarchyTree.build(graph.positions)
        self.parameters = parameters
        self.config = config if config is not None else RoundConfig()
        # `Far` exchanges and child activations route through the
        # graph's shared route table, if its owner attached one.
        self.router = CachedGreedyRouter.for_graph(graph)
        self.stats = RoundStats()
        # Per-sensor `Near` adjacency: leaf-local, falling back to the
        # nearest ancestor square for sensors stranded within their leaf.
        self._leaf_neighbors = self.tree.local_adjacency(
            graph.neighbors, fallback=True
        )
        self._depth_squares: dict[int, list[SquareNode]] = {
            depth: self.tree.squares_at_depth(depth)
            for depth in range(len(self.tree.factors) + 1)
        }
        # Each leaf's flood charge, filled on its first switch; the graph
        # is static (`DynamicGossip` rejects round-based protocols).
        self._flood_charges: dict[SquareAddress, int] = {}
        # Each leaf's `Near` table, filled on its first round.
        self._near_tables: dict[
            SquareAddress, tuple[np.ndarray, list[list[int]], list[int]]
        ] = {}

    # -- public API ----------------------------------------------------------

    def run(
        self,
        initial_values: np.ndarray,
        epsilon: float,
        rng: np.random.Generator,
        max_root_rounds: int = 3,
        trace_thinning: float = 0.02,
    ) -> GossipRunResult:
        """Average to ``‖x(t)‖ ≤ ε‖x(0)‖``, counting every transmission.

        One root round normally suffices (its exchange loop is the
        top-level averaging); extra root rounds are retried if the target
        is missed (e.g. a stranded sensor inside a leaf).  Every draw goes
        through one :class:`~repro.gossip.base.LegacyDrawStream` over a
        PCG64 ``rng`` (the same numbers as ``rng.integers``, from chunked
        raw words), closed in a ``finally`` so that ``rng`` ends where the
        scalar calls would have left it; other bit generators are drawn
        from directly.
        """
        initial_values = check_state_shape(initial_values, self.graph.n)
        if initial_values.ndim == 2:
            raise TypeError(
                f"{self.name!r} adapts its round structure to a single "
                "field (and its affine Far coefficient can exceed 1), so "
                "secondary columns of an (n, k) matrix would diverge "
                "unchecked; run matrix state through "
                "repro.engine.run_batched, whose per-column fallback "
                "executes each field adaptively on its own"
            )
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        parameters = self.parameters or ProtocolParameters.practical(
            self.graph.n, epsilon
        )
        values = initial_values.copy()
        counter = TransmissionCounter()
        trace = ConvergenceTrace(thinning=trace_thinning)
        self.stats = RoundStats()
        exact = LegacyDrawStream.open(rng)
        run_state = _RunState(
            values=values,
            counter=counter,
            rng=rng if exact is None else exact,
            parameters=parameters,
            scale=deviation_norm(initial_values),
            trace=trace,
            initial_values=initial_values,
        )
        error = normalized_error(values, initial_values)
        trace.force_record(0, 0, error)
        rounds = 0
        root_target = epsilon * run_state.scale
        try:
            while error > epsilon and rounds < max_root_rounds:
                self._round(
                    self.tree.root, depth=0, target=root_target, state=run_state
                )
                error = normalized_error(values, initial_values)
                rounds += 1
        finally:
            if exact is not None:
                exact.close()
        actions = sum(self.stats.near_ticks_by_depth.values()) + sum(
            self.stats.exchanges_by_depth.values()
        )
        trace.force_record(counter.total, actions, error)
        return GossipRunResult(
            algorithm=self.name,
            values=values,
            initial_values=initial_values,
            transmissions=counter.snapshot(),
            ticks=actions,
            converged=error <= epsilon,
            epsilon=epsilon,
            error=error,
            trace=trace,
        )

    # -- rounds ---------------------------------------------------------------

    def _round(
        self, node: SquareNode, depth: int, target: float, state: "_RunState"
    ) -> None:
        """Run one round of ``node``'s square to absolute accuracy ``target``.

        Targets propagate structurally: a square with ``k`` occupied
        children demands ``target / (2·√k)`` of each child, so the k
        residuals combine (in ℓ₂) to at most half the square's own budget
        — the adaptive analogue of the paper's ε_r schedule, sized so that
        the outer loop can actually reach its target instead of grinding
        against the children's collective noise floor.
        """
        if node.occupancy <= 1:
            return  # nothing to average
        if self.config.adaptive:
            if self._square_deviation(node, state) <= target:
                self.stats._bump(self.stats.skipped_rounds_by_depth, depth)
                return  # already internally consistent at this accuracy
        self.stats._bump(self.stats.rounds_by_depth, depth)
        if node.is_leaf:
            self._leaf_round(node, depth, target, state)
        else:
            self._internal_round(node, depth, target, state)

    def _leaf_round(
        self, node: SquareNode, depth: int, target: float, state: "_RunState"
    ) -> None:
        """`Near` gossip among the leaf's members until the target accuracy.

        Each tick, a uniform member averages with a uniform neighbour
        inside the same leaf square (paper Section 4.2); a member stranded
        within its leaf wastes its tick.  The round gathers the values of
        the leaf's table once, decodes each check window's draws in one
        :func:`~repro.gossip.base.draw_pairs` call, averages on Python
        floats, and scatters the values back in a ``finally``.  A
        window's exchanges are charged together, two transmissions (one
        message each way) per exchange.
        """
        self._switch_leaf(node, state)
        prescribed = state.parameters.near_ticks(node.occupancy, depth)
        cap = int(math.ceil(prescribed * self.config.hard_cap_factor))
        gathered, rows, row_sizes = self._near_table(node)
        size = node.occupancy
        vals = state.values[gathered].tolist()
        ticks = 0
        try:
            while ticks < (cap if self.config.adaptive else prescribed):
                exchanges = 0
                owners, picks = draw_pairs(state.rng, size, size, row_sizes)
                for a, j in zip(owners, picks):
                    if j >= 0:
                        b = rows[a][j]
                        average = 0.5 * (vals[a] + vals[b])
                        vals[a] = average
                        vals[b] = average
                        exchanges += 1
                ticks += size
                if exchanges:
                    state.counter.charge(2 * exchanges, "near")
                if self.config.adaptive:
                    if _deviation(np.array(vals[:size])) <= target:
                        break
                elif ticks >= prescribed:
                    break
            else:
                if self.config.adaptive:
                    self.stats.cap_hits += 1
        finally:
            state.values[gathered] = vals
        self.stats._bump(self.stats.near_ticks_by_depth, depth, ticks)
        self._switch_leaf(node, state)

    def _internal_round(
        self, node: SquareNode, depth: int, target: float, state: "_RunState"
    ) -> None:
        """Exchange loop over the child squares (Section 3's round)."""
        children = [c for c in node.children if c.occupancy > 0 and c.supernode >= 0]
        child_target = target / (2.0 * math.sqrt(max(1, len(children))))
        if len(children) < 2:
            # Degenerate: all mass in one child; just settle it.
            for child in children:
                self._round(child, depth + 1, child_target, state)
            return
        self._switch_children(node, children, state)
        for child in children:
            self._round(child, depth + 1, child_target, state)
        prescribed = state.parameters.exchange_count(len(children), depth)
        cap = int(math.ceil(prescribed * self.config.hard_cap_factor))
        limit = cap if self.config.adaptive else prescribed
        exchanges = 0
        while exchanges < limit:
            initiator = children[int(state.rng.integers(len(children)))]
            partner = self._pick_partner(initiator, children, depth, state)
            if partner is not None:
                self._far_exchange(initiator, partner, state)
                self._round(initiator, depth + 1, child_target, state)
                self._round(partner, depth + 1, child_target, state)
            exchanges += 1
            if depth == 0 and state.trace is not None:
                state.trace.record(
                    state.counter.total,
                    exchanges,
                    normalized_error(state.values, state.initial_values),
                )
            if self.config.adaptive and exchanges >= max(4, prescribed // 4):
                if self._square_deviation(node, state) <= target:
                    break
        else:
            if self.config.adaptive:
                self.stats.cap_hits += 1
        self.stats._bump(self.stats.exchanges_by_depth, depth, exchanges)
        self._switch_children(node, children, state)

    # -- protocol actions ------------------------------------------------------

    def _pick_partner(
        self,
        initiator: SquareNode,
        siblings: list[SquareNode],
        depth: int,
        state: "_RunState",
    ) -> SquareNode | None:
        """Uniform random exchange target for ``initiator``."""
        if self.config.sibling_targets:
            pool = siblings
        else:
            pool = [
                square
                for square in self._depth_squares[depth + 1]
                if square.occupancy > 0 and square.supernode >= 0
            ]
        if len(pool) < 2:
            return None
        while True:
            candidate = pool[int(state.rng.integers(len(pool)))]
            if candidate is not initiator:
                return candidate

    def _far_exchange(
        self, square_i: SquareNode, square_j: SquareNode, state: "_RunState"
    ) -> None:
        """The affine exchange of Section 4.2's `Far`: both endpoints
        update symmetrically from their pre-exchange values."""
        s_i, s_j = square_i.supernode, square_j.supernode
        forward, backward = self.router.round_trip(
            s_i, s_j, state.counter, category="far"
        )
        if not (forward.delivered and backward.delivered):
            self.stats.routing_failures += 1
            return
        x_i, x_j = state.values[s_i], state.values[s_j]
        if self.config.coefficient_mode is CoefficientMode.CONVEX:
            average = 0.5 * (x_i + x_j)
            state.values[s_i] = average
            state.values[s_j] = average
            return
        beta = self._coefficient(square_i, square_j, state)
        # Both sides computed from pre-exchange values (multi-field rows
        # are views, so neither row may be written before both updates
        # are built); the same β on both sides conserves the global sum
        # exactly.
        new_i = x_i + beta * (x_j - x_i)
        new_j = x_j + beta * (x_i - x_j)
        state.values[s_i] = new_i
        state.values[s_j] = new_j

    def _coefficient(
        self, square_i: SquareNode, square_j: SquareNode, state: "_RunState"
    ) -> float:
        gain = state.parameters.affine_gain
        expected = gain * square_i.expected_count
        smaller = min(square_i.occupancy, square_j.occupancy)
        mode = self.config.coefficient_mode
        if mode is CoefficientMode.PAPER_EXPECTED:
            return expected
        if mode is CoefficientMode.CLAMPED:
            return min(expected, 0.48 * smaller)
        if mode is CoefficientMode.ACTUAL_MIN:
            return gain * smaller
        raise AssertionError(f"unhandled coefficient mode {mode}")

    # -- activation / deactivation ---------------------------------------------

    def _switch_leaf(self, node: SquareNode, state: "_RunState") -> None:
        """Flood an on- or off-switch from the supernode to the leaf's members.

        The flood is charged one transmission per member it reaches; the
        count is computed on the leaf's first switch and memoised.
        """
        charge = self._flood_charges.get(node.address)
        if charge is None:
            charge = len(
                flood(self.graph.neighbors, node.supernode, node.members.tolist())
            )
            self._flood_charges[node.address] = charge
        state.counter.charge(charge, "activation")

    def _near_table(
        self, node: SquareNode
    ) -> tuple[np.ndarray, list[list[int]], list[int]]:
        """The leaf's `Near` table, built on its first round and memoised.

        ``gathered`` lists the members first, in ``node.members`` order,
        then the out-of-leaf partners that stranded members fall back to;
        ``rows[a]`` holds member ``a``'s partners as indices into
        ``gathered``, in adjacency order, and ``row_sizes`` their counts.
        """
        table = self._near_tables.get(node.address)
        if table is None:
            members = node.members.tolist()
            gathered = list(members)
            local = {sensor: index for index, sensor in enumerate(members)}
            rows = []
            for sensor in members:
                row = []
                for partner in self._leaf_neighbors[sensor].tolist():
                    index = local.get(partner)
                    if index is None:
                        index = local[partner] = len(gathered)
                        gathered.append(partner)
                    row.append(index)
                rows.append(row)
            table = (
                np.array(gathered, dtype=np.int64),
                rows,
                [len(row) for row in rows],
            )
            self._near_tables[node.address] = table
        return table

    def _switch_children(
        self, node: SquareNode, children: list[SquareNode], state: "_RunState"
    ) -> None:
        """Greedy-route an on- or off-switch to each child supernode
        (Section 4.2)."""
        for child in children:
            if child.supernode != node.supernode:
                self.router.route_to_node(
                    node.supernode,
                    child.supernode,
                    state.counter,
                    category="activation",
                )

    # -- helpers ----------------------------------------------------------------

    def _square_deviation(self, node: SquareNode, state: "_RunState") -> float:
        """ℓ₂ deviation of the square's members about their own mean.

        Always scalar state: ``run`` rejects (n, k) matrices up front
        (this executor runs multi-field state per column, via the
        engine's fallback), so no matrix branch exists here.
        """
        return _deviation(state.values[node.members])


def _deviation(slice_: np.ndarray) -> float:
    """ℓ₂ deviation of ``slice_`` about its own mean.

    The reductions `mean` and `linalg.norm` run, without their
    Python-level overhead; a leaf round's window check and
    :meth:`HierarchicalGossip._square_deviation` share this formula, so
    both reduce the same operands in the same order.
    """
    deviation = slice_ - slice_.sum() / slice_.size
    return math.sqrt(deviation.dot(deviation))


@dataclass
class _RunState:
    """Mutable state threaded through one run's recursion."""

    values: np.ndarray
    counter: TransmissionCounter
    rng: np.random.Generator | LegacyDrawStream
    parameters: ProtocolParameters
    scale: float
    trace: ConvergenceTrace | None
    initial_values: np.ndarray
