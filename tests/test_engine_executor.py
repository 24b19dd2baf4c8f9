"""Unit tests for repro.engine.executor (parallel sweep execution)."""

import weakref

import numpy as np
import pytest

from repro.engine import executor as executor_module
from repro.engine.batching import run_batched
from repro.engine.executor import (
    SweepCell,
    build_cell_algorithm,
    build_instance,
    cell_substrate,
    clear_substrate,
    execute_cell,
    expand_grid,
    run_sweep_records,
)
from repro.engine.service import diff_stores
from repro.engine.store import ResultStore
from repro.experiments import (
    ExperimentConfig,
    aggregate_records,
    aggregate_trials,
    run_convergence,
    run_scaling_sweep,
)
from repro.experiments.seeds import spawn_rng
from repro.observability.telemetry import cache_stats

#: A routed grid: the three protocols that share a trial's route table.
ROUTED = ExperimentConfig(
    sizes=(64, 96),
    epsilon=0.3,
    trials=2,
    radius_constant=3.0,
    algorithms=("geographic", "spatial", "path-averaging"),
)
STRIDE = 4


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        sizes=(64, 96),
        epsilon=0.3,
        trials=2,
        radius_constant=3.0,
        algorithms=("randomized", "geographic"),
    )


class TestGrid:
    def test_expand_grid_covers_every_cell(self, config):
        grid = expand_grid(config)
        assert len(grid) == 2 * 2 * 2
        assert len(set(cell.key for cell in grid)) == len(grid)
        assert grid[0] == SweepCell(algorithm="randomized", n=64, trial=0)
        assert {cell.n for cell in grid} == {64, 96}

    def test_workers_validation(self, config):
        with pytest.raises(ValueError):
            run_sweep_records(config, workers=0)


class TestExecuteCell:
    def test_matches_legacy_convergence_run(self, config):
        """A cell record equals the serial runner's result on the same seeds."""
        legacy = run_convergence(config, 64, trial=1)
        for run in legacy:
            record = execute_cell(
                config, SweepCell(algorithm=run.algorithm, n=64, trial=1)
            )
            assert dict(record.transmissions) == run.result.transmissions
            assert record.ticks == run.result.ticks
            assert record.converged == run.result.converged
            assert record.error == run.result.error

    def test_record_roundtrips_through_dict(self, config):
        record = execute_cell(config, SweepCell("randomized", 64, 0))
        clone = type(record).from_dict(record.to_dict())
        assert clone == record
        assert clone.key == ("randomized", 64, 0)
        assert clone.total_transmissions == record.total_transmissions


class TestDeterminism:
    def test_serial_equals_parallel(self, config):
        """Same seeds => identical records at any worker count."""
        serial = run_sweep_records(config, workers=1)
        parallel = run_sweep_records(config, workers=2)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert serial[key] == parallel[key], key

    def test_serial_equals_parallel_with_stride(self, config):
        serial = run_sweep_records(config, workers=1, check_stride=4)
        parallel = run_sweep_records(config, workers=2, check_stride=4)
        assert serial == parallel

    def test_sweep_matches_legacy_aggregation(self, config):
        """run_scaling_sweep reproduces the historical serial sweep numbers."""
        sweep = run_scaling_sweep(config)
        for n in config.sizes:
            by_algorithm = {name: [] for name in config.algorithms}
            for trial in range(config.trials):
                for run in run_convergence(config, n, trial):
                    by_algorithm[run.algorithm].append(run.result)
            for name, results in by_algorithm.items():
                expected = aggregate_trials(name, n, results)
                point = next(p for p in sweep[name] if p.n == n)
                assert point == expected


def _isolated_run(config, cell, check_stride):
    """Run ``cell`` on a substrate and route table nothing else touched."""
    graph, values = build_instance(config, cell.n, cell.trial)
    algorithm = build_cell_algorithm(
        config, graph, cell.algorithm, cell.n, cell.trial
    )
    rng = spawn_rng(config.root_seed, "run", cell.algorithm, cell.n, cell.trial)
    result = run_batched(
        algorithm, values, config.epsilon, rng, check_stride=check_stride
    )
    return result, algorithm


class TestSharedSubstrate:
    """A trial's protocols share one substrate and route table per process;
    the numbers must not depend on who built what first."""

    def test_execution_order_never_changes_records(self, tmp_path):
        grid = expand_grid(ROUTED)
        run_sweep_records(
            ROUTED,
            check_stride=STRIDE,
            store=ResultStore(tmp_path / "grid", ROUTED, STRIDE),
        )
        reversed_store = ResultStore(tmp_path / "reversed", ROUTED, STRIDE).open()
        for cell in reversed(grid):
            reversed_store.append(execute_cell(ROUTED, cell, STRIDE))
        run_sweep_records(
            ROUTED,
            workers=2,
            check_stride=STRIDE,
            store=ResultStore(tmp_path / "pool", ROUTED, STRIDE),
        )
        assert diff_stores(tmp_path / "grid", tmp_path / "reversed") == []
        assert diff_stores(tmp_path / "grid", tmp_path / "pool") == []

    def test_records_match_unshared_runs(self):
        records = run_sweep_records(ROUTED, check_stride=STRIDE)
        for cell in expand_grid(ROUTED):
            result, _ = _isolated_run(ROUTED, cell, STRIDE)
            record = records[cell.key]
            assert dict(record.transmissions) == result.transmissions
            assert (record.ticks, record.error) == (result.ticks, result.error)

    def test_stride1_hierarchical_cell_routes_through_the_shared_table(self):
        config = ExperimentConfig(
            sizes=(64,),
            epsilon=0.3,
            trials=1,
            radius_constant=3.0,
            algorithms=("geographic", "spatial", "hierarchical"),
        )
        records = run_sweep_records(config)
        isolated_misses = {}
        for cell in expand_grid(config):
            result, algorithm = _isolated_run(config, cell, 1)
            record = records[cell.key]
            assert dict(record.transmissions) == result.transmissions
            isolated_misses[cell.algorithm] = algorithm.router.misses
        # Geographic's and spatial's stride-1 windows walk their routes
        # and memoise none.
        for name in ("geographic", "spatial"):
            telemetry = records[SweepCell(name, 64, 0).key].telemetry
            assert telemetry["cache_walks"] > 0
            assert telemetry["cache_hits"] + telemetry["cache_misses"] == 0
        # The paper's protocol routes between supernode pairs, which
        # repeat: most of its routes are memo hits.
        hierarchical = SweepCell("hierarchical", 64, 0)
        shared = records[hierarchical.key].telemetry
        assert shared["cache_walks"] == 0
        assert shared["cache_hits"] > shared["cache_misses"] > 0
        assert shared["cache_misses"] == isolated_misses["hierarchical"]
        # The memo is the trial's shared table: a second hierarchical
        # cell of the trial in the same process finds every route in it.
        clear_substrate()
        try:
            first = execute_cell(config, hierarchical).telemetry
            again = execute_cell(config, hierarchical).telemetry
        finally:
            clear_substrate()
        assert again["cache_misses"] == 0
        assert again["cache_hits"] == first["cache_hits"] + first["cache_misses"]

    def test_faulted_records_are_order_invariant(self):
        faulted = ExperimentConfig(
            sizes=(48,),
            epsilon=0.3,
            trials=2,
            radius_constant=3.0,
            algorithms=("geographic", "path-averaging"),
            faults="churn=0.05,recover=0.3,loss=0.05,epoch=128",
        )
        grid = expand_grid(faulted)
        forward = {
            cell.key: execute_cell(faulted, cell, STRIDE) for cell in grid
        }
        backward = {
            cell.key: execute_cell(faulted, cell, STRIDE)
            for cell in reversed(grid)
        }
        assert forward == backward
        for cell in grid:
            result, _ = _isolated_run(faulted, cell, STRIDE)
            assert dict(forward[cell.key].transmissions) == result.transmissions
            assert forward[cell.key].faults is not None

    def test_memoized_field_is_read_only(self):
        cell = SweepCell("geographic", 64, 0)
        graph, values = cell_substrate(ROUTED, cell)
        with pytest.raises(ValueError):
            values[0] = 1.0
        # The next protocol of the trial gets the very same instance.
        shared = cell_substrate(ROUTED, SweepCell("spatial", 64, 0))
        assert shared[0] is graph and shared[1] is values
        clear_substrate()

    def test_memo_owns_the_shared_route_cache(self):
        graph, _ = cell_substrate(ROUTED, SweepCell("geographic", 64, 0))
        geographic = build_cell_algorithm(ROUTED, graph, "geographic", 64, 0)
        spatial = build_cell_algorithm(ROUTED, graph, "spatial", 64, 0)
        assert geographic.router is spatial.router
        shared = weakref.ref(geographic.router)
        del geographic, spatial
        clear_substrate()
        # No graph<->cache cycle: the table is freed with its owner.
        assert shared() is None

    def test_sweep_releases_the_memo(self):
        run_sweep_records(ROUTED, check_stride=STRIDE)
        assert executor_module._memo is None

    def test_route_cache_telemetry_is_per_cell(self):
        records = run_sweep_records(ROUTED, check_stride=STRIDE)
        for n in ROUTED.sizes:
            for trial in range(ROUTED.trials):
                cells = [records[(name, n, trial)] for name in ROUTED.algorithms]
                misses = sum(r.telemetry["cache_misses"] for r in cells)
                # At most one memoised route per pair across the trial.
                assert misses <= n * n
        for cell in expand_grid(ROUTED):
            telemetry = records[cell.key].telemetry
            _, algorithm = _isolated_run(ROUTED, cell, STRIDE)
            alone = cache_stats(algorithm)
            # The cell's lookups are its own, whoever memoised the routes.
            assert (
                telemetry["cache_hits"] + telemetry["cache_misses"]
                == alone["cache_hits"] + alone["cache_misses"]
            )
            assert telemetry["cache_walks"] == alone["cache_walks"]
            assert telemetry["cache_misses"] <= alone["cache_misses"]


class TestAggregation:
    def test_aggregate_records_orders_and_averages(self, config):
        records = run_sweep_records(config)
        sweep = aggregate_records(config, records)
        assert set(sweep) == set(config.algorithms)
        for name in config.algorithms:
            assert [p.n for p in sweep[name]] == list(config.sizes)
            for point in sweep[name]:
                counts = [
                    records[(name, point.n, t)].total_transmissions
                    for t in range(config.trials)
                ]
                assert point.transmissions_mean == pytest.approx(np.mean(counts))
                assert point.transmissions_std == pytest.approx(np.std(counts))
                assert point.trials == config.trials

    def test_aggregate_records_tolerates_partial_grid(self, config):
        records = run_sweep_records(config)
        partial = {
            key: record for key, record in records.items() if key[1] == 64
        }
        sweep = aggregate_records(config, partial)
        for name in config.algorithms:
            assert [p.n for p in sweep[name]] == [64]

    def test_on_record_callback_sees_every_cell(self, config):
        seen = []
        run_sweep_records(
            config, on_record=lambda record, fresh: seen.append((record.key, fresh))
        )
        assert len(seen) == len(expand_grid(config))
        assert all(fresh for _, fresh in seen)


class TestResumeAcrossModes:
    """One store, four custodians: serial → killed distributed →
    resumed distributed → serial.  Execution mode is never part of a
    sweep's identity, so every hand-off resumes instead of recomputing
    and the final records equal an uninterrupted serial run."""

    def test_round_trip_serial_distributed_serial(self, tmp_path, config):
        from repro.engine.service import (
            run_distributed_sweep,
            worker_store,
        )
        from repro.engine.store import ResultStore

        reference = run_sweep_records(config)
        grid = expand_grid(config)
        store = ResultStore(tmp_path / "store", config).open()

        # Stage 1 — an interrupted *serial* run: two cells made it.
        for cell in grid[:2]:
            store.append(reference[cell.key])

        # Stage 2 — a *killed* distributed session: its coordinator died
        # after one worker shard landed two more cells, before any merge.
        queue_dir = tmp_path / "queue"
        shard = worker_store(queue_dir, "w0", config).open()
        for cell in grid[2:4]:
            shard.append(reference[cell.key])

        # Stage 3 — the resumed distributed session: recovers the
        # orphaned shard, enqueues only the genuinely missing cells,
        # and finishes the sweep with real worker processes.
        records = run_distributed_sweep(
            config,
            store=ResultStore(tmp_path / "store", config),
            queue_dir=queue_dir,
            workers=2,
            ttl=5.0,
            heartbeat_interval=0.1,
            poll_interval=0.05,
        )
        assert records == reference
        from repro.engine.queue import LeaseQueue

        session = LeaseQueue.open(queue_dir)
        assert session.stats().total == len(grid) - 4  # resumed, not redone

        # Stage 4 — back to serial: every cell reused, none recomputed.
        fresh = []
        final = run_sweep_records(
            config,
            store=ResultStore(tmp_path / "store", config),
            on_record=lambda record, is_fresh: fresh.append(is_fresh),
        )
        assert final == reference
        assert fresh == [False] * len(grid)

    def test_service_layer_leaves_the_pinned_key_unchanged(self, tmp_path):
        """The k=1 default content key, frozen since the multi-field PR:
        the service layer must neither perturb the key a shard derives
        nor the one it pins in the session manifest."""
        from repro.engine.service import service_manifest, worker_store
        from repro.engine.store import content_key

        pinned = "379068f1d8668c31"
        default = ExperimentConfig()
        assert content_key(default) == pinned
        assert service_manifest(default)["key"] == pinned
        shard = worker_store(tmp_path, "w0", default)
        assert shard.key == pinned
        assert shard.directory == tmp_path / "shards" / "w0" / pinned
