"""Tests for repro.dynamics: schedules, substrates, dynamic runs, wiring.

Covers the subsystem's load-bearing guarantees:

* schedules are a pure function of ``(spec, n, seed)``;
* a disabled spec makes the whole wrapper a bit-exact pass-through of
  the fault-free engine path, at every stride;
* mass is conserved over live nodes under churn, loss, and link
  failures;
* the engine/config/store integration is deterministic across serial
  and parallel executors and resumes safely.
"""

import dataclasses

import numpy as np
import pytest

from repro.dynamics import (
    FAULT_PRESETS,
    DynamicGossip,
    DynamicSubstrate,
    FaultSchedule,
    FaultSpec,
    LossChannel,
    live_node_error,
)
from repro.engine.batching import run_batched
from repro.engine.executor import build_cell_algorithm, execute_cell, SweepCell
from repro.engine.store import ResultStore, content_key
from repro.experiments import ExperimentConfig
from repro.gossip.geographic import GeographicGossip
from repro.gossip.hierarchical.rounds import HierarchicalGossip
from repro.gossip.path_averaging import PathAveragingGossip
from repro.gossip.randomized import RandomizedGossip
from repro.gossip.spatial import SpatialGossip
from repro.graphs.rgg import RandomGeometricGraph
from repro.routing.cache import CachedGreedyRouter

HARSH = FaultSpec(
    churn_rate=0.1,
    recover_rate=0.3,
    link_failure_rate=0.1,
    loss_prob=0.08,
    epoch_ticks=64,
)


@pytest.fixture(scope="module")
def graph():
    return RandomGeometricGraph.sample_connected(
        48, np.random.default_rng(1), radius_constant=3.0
    )


@pytest.fixture(scope="module")
def values(graph):
    return np.random.default_rng(2).normal(size=graph.n)


class TestFaultSpec:
    def test_parse_aliases_and_presets(self):
        spec = FaultSpec.parse("churn=0.1,loss=0.05,epoch=128,floor=0.6")
        assert spec.churn_rate == 0.1
        assert spec.loss_prob == 0.05
        assert spec.epoch_ticks == 128
        assert spec.min_live_fraction == 0.6
        assert FaultSpec.parse("none") == FaultSpec()
        assert FaultSpec.parse("lossy") is FAULT_PRESETS["lossy"]
        # Full field names work too.
        assert FaultSpec.parse("loss_prob=0.05") == FaultSpec.parse("loss=0.05")

    def test_canonical_round_trips(self):
        spec = FaultSpec.parse("loss=0.05,churn=0.02")
        assert FaultSpec.parse(spec.canonical()) == spec
        assert FaultSpec().canonical() == "none"
        # Disabled however spelled renders as none.
        assert FaultSpec.parse("churn=0").canonical() == "none"

    def test_canonical_round_trips_extreme_values(self):
        # %g-style rendering would emit 'epoch=1e+06' (unparseable) and
        # truncate long floats (silent store-key collisions).
        spec = FaultSpec(loss_prob=0.123456789012, epoch_ticks=1_000_000)
        assert FaultSpec.parse(spec.canonical()) == spec
        near = FaultSpec(loss_prob=0.1234567890123)
        assert near.canonical() != FaultSpec(loss_prob=0.123456789012).canonical()

    @pytest.mark.parametrize(
        "text",
        ["churn=2", "loss=-0.1", "epoch=0", "floor=0", "telepathy=1", "churn", ""],
    )
    def test_rejects_malformed_specs(self, text):
        with pytest.raises(ValueError):
            FaultSpec.parse(text)

    def test_enabled_flag(self):
        assert not FaultSpec().enabled
        assert FaultSpec(loss_prob=0.01).enabled
        assert FaultSpec(jitter_sigma=0.01).enabled


class TestFaultSchedule:
    def test_same_seed_same_events(self):
        a = FaultSchedule(HARSH, n=32, seed=7)
        b = FaultSchedule(HARSH, n=32, seed=7)
        for epoch in (1, 2, 9):
            left, right = a.epoch_events(epoch), b.epoch_events(epoch)
            np.testing.assert_array_equal(left.crash, right.crash)
            np.testing.assert_array_equal(left.recover, right.recover)
            np.testing.assert_array_equal(
                a.link_events(epoch, 50), b.link_events(epoch, 50)
            )

    def test_different_seeds_differ(self):
        a = FaultSchedule(HARSH, n=256, seed=7).epoch_events(1)
        b = FaultSchedule(HARSH, n=256, seed=8).epoch_events(1)
        assert not np.array_equal(a.crash, b.crash)

    def test_epoch_zero_is_pristine(self):
        with pytest.raises(ValueError):
            FaultSchedule(HARSH, n=8, seed=0).epoch_events(0)
        with pytest.raises(ValueError):
            FaultSchedule(HARSH, n=8, seed=0).link_events(0, 5)

    def test_disabled_spec_draws_nothing(self):
        schedule = FaultSchedule(FaultSpec(), n=8, seed=0)
        events = schedule.epoch_events(1)
        assert not events.crash.any()
        assert events.jitter is None
        assert schedule.link_events(1, 12) is None

    def test_link_stream_independent_of_node_stream(self):
        """Link draws must not shift the node draws (jitter resizing)."""
        schedule = FaultSchedule(HARSH, n=32, seed=7)
        crash_before = schedule.epoch_events(1).crash
        for edge_count in (10, 500):
            schedule.link_events(1, edge_count)
        np.testing.assert_array_equal(
            schedule.epoch_events(1).crash, crash_before
        )


class TestLossChannel:
    def test_zero_loss_consumes_no_randomness(self):
        channel = LossChannel(0.0, np.random.default_rng(3))
        assert channel.attempt(10) == (True, 10)
        assert channel._buffer.size == 0  # never refilled

    def test_loss_counts_the_lost_transmission(self):
        channel = LossChannel(1.0, np.random.default_rng(3))
        assert channel.attempt(5) == (False, 1)  # first send always lost
        assert channel.losses == 1

    def test_deterministic_stream(self):
        a = LossChannel(0.3, np.random.default_rng(11), buffer_size=4)
        b = LossChannel(0.3, np.random.default_rng(11), buffer_size=1024)
        outcomes_a = [a.attempt(3) for _ in range(200)]
        outcomes_b = [b.attempt(3) for _ in range(200)]
        assert outcomes_a == outcomes_b  # buffering is invisible


class TestDynamicSubstrate:
    def test_crashed_nodes_leave_every_adjacency_list(self, graph):
        spec = dataclasses.replace(HARSH, loss_prob=0.0)
        substrate = DynamicSubstrate(graph, spec, seed=5)
        substrate.advance_to(10 * spec.epoch_ticks)
        dead = np.nonzero(~substrate.live)[0]
        assert dead.size > 0, "harsh churn should have crashed someone"
        for node in dead:
            assert substrate.neighbors[node].size == 0
        for adj in substrate.neighbors:
            assert not np.isin(dead, adj).any()
        # The base graph is untouched.
        for i in range(graph.n):
            np.testing.assert_array_equal(
                graph.neighbors[i], substrate.base.neighbors[i]
            )

    def test_recovery_restores_adjacency(self, graph):
        spec = FaultSpec(churn_rate=0.5, recover_rate=1.0, epoch_ticks=16)
        substrate = DynamicSubstrate(graph, spec, seed=5)
        substrate.advance_to(16)
        assert substrate.crashes > 0
        substrate.advance_to(32)  # everyone recovers at the next boundary
        assert substrate.recoveries >= substrate.crashes // 2
        # After an all-recover epoch with no fresh crashes possible we
        # cannot assert full restoration (new crashes land each epoch),
        # but live nodes must see exactly their live base neighbours.
        for i in np.nonzero(substrate.live)[0]:
            expected = [
                j for j in graph.neighbors[i] if substrate.live[j]
            ]
            np.testing.assert_array_equal(substrate.neighbors[i], expected)

    def test_min_live_fraction_floor_holds(self, graph):
        spec = FaultSpec(
            churn_rate=1.0, recover_rate=0.0, epoch_ticks=8,
            min_live_fraction=0.75,
        )
        substrate = DynamicSubstrate(graph, spec, seed=5)
        substrate.advance_to(800)
        assert substrate.live_count == int(np.ceil(0.75 * graph.n))

    def test_link_failures_are_transient(self, graph):
        spec = FaultSpec(link_failure_rate=0.3, epoch_ticks=10)
        substrate = DynamicSubstrate(graph, spec, seed=9)
        substrate.advance_to(10)
        masked = sum(adj.size for adj in substrate.neighbors)
        full = sum(adj.size for adj in graph.neighbors)
        assert masked < full
        # Each epoch redraws; a later epoch keeps (different) links down
        # but healing is implicit — no failure accumulates forever.
        down_per_epoch = []
        for epoch in range(2, 8):
            substrate.advance_to(10 * epoch)
            down_per_epoch.append(
                full - sum(adj.size for adj in substrate.neighbors)
            )
        assert max(down_per_epoch) < full // 2

    def test_advance_is_idempotent(self, graph):
        substrate = DynamicSubstrate(graph, HARSH, seed=5)
        substrate.advance_to(3 * HARSH.epoch_ticks)
        live = substrate.live.copy()
        crashes = substrate.crashes
        substrate.advance_to(3 * HARSH.epoch_ticks)
        np.testing.assert_array_equal(substrate.live, live)
        assert substrate.crashes == crashes

    def test_jitter_composes_with_link_failures(self, graph, values):
        """Regression: link draws must size to the *post-jitter* edge list.

        The first cut drew link events from the pre-jitter edge count and
        indexed them with post-rebuild edge ids — an IndexError whenever
        jitter shrank the edge list.
        """
        spec = FaultSpec(
            jitter_sigma=0.05, link_failure_rate=0.2, epoch_ticks=32
        )
        substrate = DynamicSubstrate(graph, spec, seed=5)
        dynamic = DynamicGossip(
            RandomizedGossip(substrate.neighbors), substrate
        )
        result = run_batched(
            dynamic,
            values,
            0.2,
            np.random.default_rng(7),
            check_stride=4,
            max_ticks=2_000,
        )
        assert substrate.epoch >= 2
        assert result.values.sum() == pytest.approx(values.sum(), abs=1e-9)

    def test_shared_cache_is_invalidated_once_per_epoch(self, graph):
        """Two protocols on one substrate share its route cache, which
        must be registered (and so invalidated) once, not once per
        wrapper."""
        spec = FaultSpec(churn_rate=0.2, recover_rate=0.0, epoch_ticks=16)
        substrate = DynamicSubstrate(graph, spec, seed=5)
        cache = CachedGreedyRouter.share(substrate)
        geographic = GeographicGossip(substrate)
        averaging = PathAveragingGossip(substrate)
        assert geographic.router is cache
        assert averaging.router is cache
        DynamicGossip(geographic, substrate)
        DynamicGossip(averaging, substrate)
        targets = (0, 11, 23, 47)
        for target in targets:
            cache.route_to_node(5, target)
        before = [adj.copy() for adj in substrate.neighbors]
        substrate.advance_to(spec.epoch_ticks)
        changed = sum(
            not np.array_equal(old, new)
            for old, new in zip(before, substrate.neighbors)
        )
        assert changed > 0, "churn should have crashed someone"
        assert cache.invalidations == 1
        assert cache.drops == len(targets)
        # The memo refills from the masked adjacency.
        cache.route_to_node(5, 0)
        assert cache.misses == len(targets) + 1

    def test_jitter_moves_positions_and_rebuilds(self, graph):
        spec = FaultSpec(jitter_sigma=0.05, epoch_ticks=16)
        substrate = DynamicSubstrate(graph, spec, seed=5)
        before = substrate.positions.copy()
        substrate.advance_to(16)
        assert not np.array_equal(substrate.positions, before)
        assert (substrate.positions >= 0).all()
        assert (substrate.positions <= 1).all()
        # Adjacency reflects the new geometry.
        rebuilt = RandomGeometricGraph.build(
            substrate.positions.copy(), graph.radius
        )
        for i in range(graph.n):
            np.testing.assert_array_equal(
                substrate.neighbors[i], rebuilt.neighbors[i]
            )

    def test_schedule_size_mismatch_rejected(self, graph):
        with pytest.raises(ValueError):
            DynamicSubstrate(graph, FaultSchedule(HARSH, n=graph.n + 1, seed=0))


def _protocol_makers():
    return {
        "randomized": lambda g: RandomizedGossip(g.neighbors),
        "geographic": lambda g: GeographicGossip(g),
        "geographic-position": lambda g: GeographicGossip(
            g, target_mode="position"
        ),
        "spatial": lambda g: SpatialGossip(g, rho=2.0),
        "path-averaging": lambda g: PathAveragingGossip(g),
        "path-averaging-position": lambda g: PathAveragingGossip(
            g, target_mode="position"
        ),
    }


class TestDynamicGossip:
    @pytest.mark.parametrize("name", sorted(_protocol_makers()))
    @pytest.mark.parametrize("check_stride", [1, 4])
    def test_disabled_spec_is_bit_identical(
        self, graph, values, name, check_stride
    ):
        """The acceptance bar: zero faults == the fault-free engine path."""
        maker = _protocol_makers()[name]
        substrate = DynamicSubstrate(graph, FaultSpec(), seed=9)
        dynamic = run_batched(
            DynamicGossip(maker(substrate), substrate),
            values,
            0.25,
            np.random.default_rng(7),
            check_stride=check_stride,
        )
        plain = run_batched(
            maker(graph),
            values,
            0.25,
            np.random.default_rng(7),
            check_stride=check_stride,
        )
        np.testing.assert_array_equal(dynamic.values, plain.values)
        assert dynamic.transmissions == plain.transmissions
        assert dynamic.ticks == plain.ticks
        assert dynamic.error == plain.error
        assert [(p.transmissions, p.ticks, p.error) for p in dynamic.trace.points] == [
            (p.transmissions, p.ticks, p.error) for p in plain.trace.points
        ]

    @pytest.mark.parametrize("name", sorted(_protocol_makers()))
    def test_mass_conserved_under_harsh_faults(self, graph, values, name):
        maker = _protocol_makers()[name]
        substrate = DynamicSubstrate(graph, HARSH, seed=9)
        dynamic = DynamicGossip(maker(substrate), substrate)
        result = run_batched(
            dynamic,
            values,
            0.2,
            np.random.default_rng(7),
            check_stride=4,
            max_ticks=5_000,
        )
        assert result.values.sum() == pytest.approx(values.sum(), abs=1e-8)
        metrics = dynamic.fault_metrics(result.values, values)
        assert metrics["crashes"] >= metrics["recoveries"]
        assert 0.0 <= metrics["live_fraction"] <= 1.0

    def test_loss_charges_route_lost_and_aborts(self, graph, values):
        spec = FaultSpec(loss_prob=0.15)
        substrate = DynamicSubstrate(graph, spec, seed=9)
        dynamic = DynamicGossip(PathAveragingGossip(substrate), substrate)
        result = run_batched(
            dynamic,
            values,
            0.2,
            np.random.default_rng(7),
            check_stride=4,
            max_ticks=3_000,
        )
        assert result.transmissions.get("route_lost", 0) > 0
        assert dynamic.aborted_routes > 0
        assert substrate.channel.losses > 0

    def test_randomized_loss_charges_near_lost(self, graph, values):
        spec = FaultSpec(loss_prob=0.2)
        substrate = DynamicSubstrate(graph, spec, seed=9)
        dynamic = DynamicGossip(
            RandomizedGossip(substrate.neighbors), substrate
        )
        result = run_batched(
            dynamic,
            values,
            0.2,
            np.random.default_rng(7),
            check_stride=4,
            max_ticks=3_000,
        )
        assert result.transmissions.get("near_lost", 0) > 0
        assert result.values.sum() == pytest.approx(values.sum(), abs=1e-9)

    def test_dead_owners_waste_ticks(self, graph, values):
        spec = FaultSpec(churn_rate=0.5, recover_rate=0.0, epoch_ticks=32)
        substrate = DynamicSubstrate(graph, spec, seed=9)
        dynamic = DynamicGossip(
            RandomizedGossip(substrate.neighbors), substrate
        )
        run_batched(
            dynamic,
            values,
            0.01,
            np.random.default_rng(7),
            check_stride=4,
            max_ticks=2_000,
        )
        assert dynamic.wasted_ticks > 0
        assert dynamic.ticks_elapsed == 2_000

    def test_rejects_round_based_protocols(self, graph):
        substrate = DynamicSubstrate(graph, HARSH, seed=9)
        with pytest.raises(TypeError):
            DynamicGossip(HierarchicalGossip(graph), substrate)

    def test_rejects_protocols_without_a_radio_model(self, graph):
        """Regression: affine writes to arbitrary nodes — under churn it
        would mutate crashed nodes' frozen values, so it is rejected."""
        from repro.gossip.affine import AffineGossipKn, sample_alphas

        substrate = DynamicSubstrate(graph, HARSH, seed=9)
        affine = AffineGossipKn(
            graph.n, alphas=sample_alphas(graph.n, np.random.default_rng(3))
        )
        with pytest.raises(TypeError, match="supports_dynamics"):
            DynamicGossip(affine, substrate)

    def test_live_node_error_ignores_the_dead(self):
        initial = np.array([1.0, -1.0, 5.0, -5.0])
        values = np.array([0.0, 0.0, 42.0, -42.0])
        live = np.array([True, True, False, False])
        assert live_node_error(values, initial, live) == 0.0
        assert live_node_error(values, initial, ~live) > 1.0


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def config(self):
        return ExperimentConfig(
            sizes=(48, 64),
            epsilon=0.3,
            trials=2,
            radius_constant=3.0,
            algorithms=("randomized", "geographic", "path-averaging"),
            faults="churn=0.05,recover=0.3,loss=0.05,epoch=128",
        )

    def test_config_validates_fault_spec(self):
        with pytest.raises(ValueError):
            ExperimentConfig(faults="telepathy=1")
        with pytest.raises(ValueError):
            # hierarchical is round-based: no tick loop to fault.
            ExperimentConfig(
                algorithms=("hierarchical",), faults="loss=0.05"
            )
        with pytest.raises(ValueError):
            # affine has no radio model for faults to act on.
            ExperimentConfig(algorithms=("affine",), faults="loss=0.05")
        # Fault-free hierarchical/affine stay fine.
        ExperimentConfig(
            algorithms=("hierarchical", "affine"), faults="none"
        )

    def test_build_cell_algorithm_shares_scenario_across_protocols(
        self, config, graph
    ):
        a = build_cell_algorithm(config, graph, "randomized", 48, 0)
        b = build_cell_algorithm(config, graph, "geographic", 48, 0)
        assert isinstance(a, DynamicGossip) and isinstance(b, DynamicGossip)
        assert a.substrate.schedule.seed == b.substrate.schedule.seed
        other_trial = build_cell_algorithm(config, graph, "randomized", 48, 1)
        assert (
            other_trial.substrate.schedule.seed != a.substrate.schedule.seed
        )

    def test_serial_and_parallel_sweeps_identical(self, config):
        """Satellite: identical fault schedules across executors."""
        from repro.engine.executor import run_sweep_records

        serial = run_sweep_records(config, workers=1, check_stride=4)
        parallel = run_sweep_records(config, workers=2, check_stride=4)
        assert serial.keys() == parallel.keys()
        for key, record in serial.items():
            assert record == parallel[key], key

    def test_cell_records_carry_fault_metrics(self, config):
        record = execute_cell(
            config, SweepCell("path-averaging", 48, 0), check_stride=4
        )
        assert record.faults is not None
        for field in (
            "aborted_routes",
            "wasted_ticks",
            "lost_transmissions",
            "crashes",
            "recoveries",
            "live_fraction",
            "live_node_error",
        ):
            assert field in record.faults
        clone = type(record).from_dict(record.to_dict())
        assert clone == record

    def test_fault_free_records_omit_fault_payload(self):
        config = ExperimentConfig(
            sizes=(48,), epsilon=0.3, trials=1, radius_constant=3.0,
            algorithms=("randomized",),
        )
        record = execute_cell(config, SweepCell("randomized", 48, 0))
        assert record.faults is None
        assert "faults" not in record.to_dict()

    def test_content_key_covers_fault_spec(self, config):
        fault_free = dataclasses.replace(config, faults="none")
        assert content_key(config) != content_key(fault_free)
        # Equivalent spellings share one key; disabled spellings keep the
        # legacy key so historical stores stay resumable.
        assert content_key(config) == content_key(
            dataclasses.replace(
                config, faults="churn_rate=0.05,recover_rate=0.3,"
                "loss_prob=0.05,epoch_ticks=128"
            )
        )
        assert content_key(fault_free) == content_key(
            dataclasses.replace(config, faults="churn=0")
        )

    def test_store_resume_round_trip(self, config, tmp_path):
        """Satellite: a faulted sweep resumes from its store untouched."""
        from repro.engine.executor import run_sweep_records

        small = dataclasses.replace(config, sizes=(48,), trials=1)
        store = ResultStore(tmp_path, small, check_stride=4)
        first = run_sweep_records(
            small, workers=1, check_stride=4, store=store
        )
        fresh_flags = []
        resumed = run_sweep_records(
            small,
            workers=1,
            check_stride=4,
            store=ResultStore(tmp_path, small, check_stride=4),
            on_record=lambda record, fresh: fresh_flags.append(fresh),
        )
        assert resumed == first
        assert fresh_flags and not any(fresh_flags)  # nothing recomputed
