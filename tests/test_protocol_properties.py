"""Seed-sweep property tests: invariants of every protocol's fast path.

Two physical invariants hold for all gossip protocols in the library,
scalar or batched, on healthy and on pathological instances:

* **Sum conservation** — convex averaging, cross-weighted affine updates
  and antisymmetric perturbations all conserve the global sum; aborted
  (voided) exchanges must leave it untouched too.
* **Error monotone on average** — the normalized error, averaged over
  independent seeds, decreases through a run (individual seeds may wiggle;
  the perturbed affine dynamics have a noise floor, hence "on average").

Both are checked across a sweep of seeds for every tick-driven protocol
in the shared golden registry, driving the protocols exactly the way the
batched engine does (``split_streams`` + ``tick_block`` on a
``DrawStream``), and separately
on a routing-void instance where greedy forwarding fails.
"""

import numpy as np
import pytest

from protocol_equivalence import (
    CASES,
    case_names,
    initial_field_matrix,
    initial_values,
)
from repro.engine.batching import run_batched, split_streams
from repro.gossip.base import DrawStream
from repro.gossip.geographic import GeographicGossip
from repro.gossip.spatial import SpatialGossip
from repro.graphs.rgg import RandomGeometricGraph
from repro.metrics.error import column_errors, normalized_error
from repro.routing.cost import TransmissionCounter
from repro.routing.greedy import GreedyRouter

SEEDS = range(5)
WINDOWS = 8
WINDOW_TICKS = 250
FIELDS = 4


def _windowed_errors(case, seed):
    """Drive tick_block the way the engine does; error after each window."""
    algorithm = case.factory()
    initial = initial_values()
    values = initial.copy()
    counter = TransmissionCounter()
    owner_rng, protocol_rng = split_streams(
        np.random.default_rng([seed, 1234])
    )
    stream = DrawStream(protocol_rng)
    errors = [normalized_error(values, initial)]
    sums = [values.sum()]
    for _ in range(WINDOWS):
        owners = owner_rng.integers(algorithm.n, size=WINDOW_TICKS)
        algorithm.tick_block(owners, values, counter, stream)
        errors.append(normalized_error(values, initial))
        sums.append(values.sum())
    return np.array(errors), np.array(sums), counter


@pytest.mark.parametrize("name", case_names(tick_driven=True))
def test_sum_conserved_through_every_window(name):
    case = CASES[name]
    reference = initial_values().sum()
    for seed in SEEDS:
        _, sums, counter = _windowed_errors(case, seed)
        np.testing.assert_allclose(
            sums, reference, rtol=0, atol=1e-9 * max(1.0, abs(reference))
        )
        assert counter.total > 0  # the windows actually exchanged


@pytest.mark.parametrize("name", case_names(tick_driven=True))
def test_error_monotone_on_average(name):
    case = CASES[name]
    curves = np.array([_windowed_errors(case, seed)[0] for seed in SEEDS])
    averaged = curves.mean(axis=0)
    assert averaged[0] == pytest.approx(1.0)
    # Monotone on average: tiny per-window upticks (noise floors, routing
    # randomness) are tolerated; systematic growth is not.
    assert np.all(np.diff(averaged) <= 1e-3 * averaged[:-1] + 5e-5)
    assert averaged[-1] < 0.8 * averaged[0]


class TestRoutingVoids:
    """Voided routes abort exchanges without touching the sum."""

    @pytest.fixture(scope="class")
    def void_graph(self):
        # Two radio islands: every cross-island greedy route dies at the
        # island boundary, so roughly half of all uniform targets void.
        rng = np.random.default_rng(5)
        left = 0.3 * rng.random((16, 2))
        right = 0.3 * rng.random((16, 2)) + 0.7
        return RandomGeometricGraph.build(
            np.vstack([left, right]), radius=0.25
        )

    @pytest.mark.parametrize(
        "factory",
        [
            lambda g: GeographicGossip(g, target_mode="uniform"),
            lambda g: GeographicGossip(g, target_mode="position"),
            lambda g: SpatialGossip(g, rho=1.0),
        ],
        ids=["geographic-uniform", "geographic-position", "spatial"],
    )
    def test_batched_voids_abort_and_conserve_sum(self, void_graph, factory):
        for seed in SEEDS:
            algorithm = factory(void_graph)
            initial = np.random.default_rng(seed).normal(size=void_graph.n)
            values = initial.copy()
            counter = TransmissionCounter()
            owner_rng, protocol_rng = split_streams(
                np.random.default_rng([seed, 77])
            )
            owners = owner_rng.integers(void_graph.n, size=600)
            algorithm.tick_block(
                owners, values, counter, DrawStream(protocol_rng)
            )
            assert algorithm.failed_exchanges > 0  # voids were exercised
            assert values.sum() == pytest.approx(initial.sum(), abs=1e-9)
            # Within-island averaging still happened.
            assert normalized_error(values, initial) < 1.0

    def test_scalar_and_batched_voids_agree_on_failure_counts(
        self, void_graph
    ):
        """The batched path aborts exactly where the scalar walk would.

        Same pre-sampled owners and one shared uniform draw per tick: the
        batched uniform mode (``integers`` on a ``DrawStream``) and a
        hand-rolled scalar replay with the same target mapping must fail
        the same exchanges.
        """
        owners = np.random.default_rng(3).integers(void_graph.n, size=400)
        picks = np.random.default_rng(9).random(len(owners))

        batched = GeographicGossip(void_graph, target_mode="uniform")
        batched_values = np.random.default_rng(1).normal(size=void_graph.n)
        scalar_values = batched_values.copy()

        batched.tick_block(
            owners,
            batched_values,
            TransmissionCounter(),
            DrawStream(np.random.default_rng(9)),
        )

        # The reference is the plain greedy walk, not the protocol's own
        # memoized router (which tick routes through).
        plain = GreedyRouter(void_graph)
        failed = 0
        counter = TransmissionCounter()
        last = void_graph.n - 1
        for node, pick in zip(owners.tolist(), picks.tolist()):
            target = int(pick * last)
            target = target + 1 if target >= node else target
            forward, backward = plain.round_trip(node, target, counter)
            if not (forward.delivered and backward.delivered):
                failed += 1
                continue
            average = 0.5 * (scalar_values[node] + scalar_values[target])
            scalar_values[node] = average
            scalar_values[target] = average

        assert batched.failed_exchanges == failed
        np.testing.assert_array_equal(batched_values, scalar_values)


def _windowed_column_traces(case, seed, k=FIELDS):
    """Multi-field analogue of ``_windowed_errors``: per-column curves."""
    algorithm = case.factory()
    initial = initial_field_matrix(k)
    values = initial.copy()
    counter = TransmissionCounter()
    owner_rng, protocol_rng = split_streams(np.random.default_rng([seed, 1234]))
    stream = DrawStream(protocol_rng)
    errors = [column_errors(values, initial)]
    sums = [values.sum(axis=0)]
    for _ in range(WINDOWS):
        owners = owner_rng.integers(algorithm.n, size=WINDOW_TICKS)
        algorithm.tick_block(owners, values, counter, stream)
        errors.append(column_errors(values, initial))
        sums.append(values.sum(axis=0))
    return np.array(errors), np.array(sums), counter


class TestMultiFieldInvariants:
    """Per-column physics of stacked fields, fault-free and faulted.

    The registry's faulted cases run churn + link failures + per-hop
    loss, so these seed sweeps also pin the dynamics layer's (n, k)
    mass accounting: dead-owner tick drops and abort-and-charge paths
    must leave every column's sum untouched, not just column 0's.
    """

    @pytest.mark.parametrize("name", case_names(tick_driven=True))
    def test_every_column_sum_conserved_through_every_window(self, name):
        case = CASES[name]
        reference = initial_field_matrix(FIELDS).sum(axis=0)
        for seed in SEEDS:
            _, sums, counter = _windowed_column_traces(case, seed)
            # sums has shape (windows + 1, k): every window, every column.
            np.testing.assert_allclose(
                sums,
                np.broadcast_to(reference, sums.shape),
                rtol=0,
                atol=1e-9 * max(1.0, float(np.abs(reference).max())),
            )
            assert counter.total > 0  # the windows actually exchanged

    @pytest.mark.parametrize("name", case_names(tick_driven=True))
    def test_every_column_error_monotone_on_average(self, name):
        case = CASES[name]
        curves = np.array(
            [_windowed_column_traces(case, seed)[0] for seed in SEEDS]
        )
        averaged = curves.mean(axis=0)  # (windows + 1, k)
        np.testing.assert_allclose(averaged[0], 1.0, rtol=1e-12)
        # Monotone on average per column, same tolerance as the scalar
        # invariant: noise-floor wiggles pass, systematic growth fails.
        assert np.all(np.diff(averaged, axis=0) <= 1e-3 * averaged[:-1] + 5e-5)
        assert np.all(averaged[-1] < 0.8 * averaged[0])


def test_run_batched_converges_on_connected_instances():
    """End-to-end: every tick-driven protocol reaches ε under stride 4."""
    for name in case_names(tick_driven=True):
        case = CASES[name]
        result = run_batched(
            case.factory(),
            initial_values(),
            case.epsilon,
            np.random.default_rng([11, 13]),
            check_stride=4,
        )
        assert result.converged, name
        assert result.error <= case.epsilon, name
