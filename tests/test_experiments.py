"""Unit tests for repro.experiments (config, seeds, runner, tables)."""

import numpy as np
import pytest

from repro.experiments import (
    ALGORITHMS,
    ExperimentConfig,
    aggregate_trials,
    derive_seed,
    fault_incompatible,
    fit_loglog_slope,
    format_table,
    format_value,
    make_algorithm,
    protocol_batching,
    run_convergence,
    run_scaling_sweep,
    spawn_rng,
    topology_incompatible,
)
from repro.experiments.config import multifield_support
from repro.graphs import RandomGeometricGraph


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_distinct_tags_distinct_seeds(self):
        seeds = {derive_seed(7, tag) for tag in ("a", "b", "c", 1, 2, 3)}
        assert len(seeds) == 6

    def test_spawn_rng_reproducible(self):
        a = spawn_rng(3, "x").random(4)
        b = spawn_rng(3, "x").random(4)
        np.testing.assert_array_equal(a, b)

    def test_rejects_negative_root(self):
        with pytest.raises(ValueError):
            derive_seed(-1, "a")


class TestConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert "hierarchical" in config.algorithms

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sizes=())
        with pytest.raises(ValueError):
            ExperimentConfig(sizes=(4,))
        with pytest.raises(ValueError):
            ExperimentConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=("telepathy",))

    def test_registry_and_factory(self):
        rng = np.random.default_rng(79)
        graph = RandomGeometricGraph.sample_connected(64, rng, radius_constant=3.0)
        for name in ALGORITHMS:
            algorithm = make_algorithm(name, graph)
            assert hasattr(algorithm, "run")
        with pytest.raises(ValueError):
            make_algorithm("nope", graph)

    @pytest.mark.parametrize(
        "lookup",
        [
            lambda name: protocol_batching((name,)),
            lambda name: multifield_support((name,)),
            lambda name: fault_incompatible((name,)),
            lambda name: topology_incompatible((name,), "erdos-renyi"),
            lambda name: make_algorithm(name, None),
        ],
        ids=[
            "protocol_batching",
            "multifield_support",
            "fault_incompatible",
            "topology_incompatible",
            "make_algorithm",
        ],
    )
    def test_registry_lookups_reject_unknown_names_alike(self, lookup):
        with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
            lookup("nope")


class TestRunner:
    def test_run_convergence_shares_instance(self):
        config = ExperimentConfig(
            sizes=(64,),
            epsilon=0.3,
            trials=1,
            radius_constant=3.0,
            algorithms=("randomized", "geographic"),
        )
        runs = run_convergence(config, 64)
        assert [r.algorithm for r in runs] == ["randomized", "geographic"]
        # Same placement & field => identical initial values.
        np.testing.assert_array_equal(
            runs[0].result.initial_values, runs[1].result.initial_values
        )
        assert all(r.converged for r in runs)

    def test_run_convergence_deterministic(self):
        config = ExperimentConfig(
            sizes=(64,), epsilon=0.3, trials=1, radius_constant=3.0,
            algorithms=("randomized",),
        )
        first = run_convergence(config, 64)[0]
        second = run_convergence(config, 64)[0]
        assert first.transmissions == second.transmissions

    def test_scaling_sweep_shape(self):
        config = ExperimentConfig(
            sizes=(64, 128),
            epsilon=0.3,
            trials=2,
            radius_constant=3.0,
            algorithms=("geographic",),
        )
        sweep = run_scaling_sweep(config)
        assert set(sweep) == {"geographic"}
        points = sweep["geographic"]
        assert [p.n for p in points] == [64, 128]
        assert all(p.trials == 2 for p in points)
        assert all(p.converged_fraction == 1.0 for p in points)

    def test_aggregate_trials_statistics(self):
        config = ExperimentConfig(
            sizes=(64,), epsilon=0.3, trials=1, radius_constant=3.0,
            algorithms=("randomized",),
        )
        results = [run_convergence(config, 64, t)[0].result for t in range(3)]
        point = aggregate_trials("randomized", 64, results)
        counts = [r.total_transmissions for r in results]
        assert point.transmissions_mean == pytest.approx(np.mean(counts))
        assert point.transmissions_std == pytest.approx(np.std(counts))

    def test_aggregate_requires_results(self):
        with pytest.raises(ValueError):
            aggregate_trials("x", 10, [])


class TestSlopeFit:
    def test_exact_power_law(self):
        sizes = np.array([100, 200, 400, 800])
        costs = 3.0 * sizes.astype(float) ** 1.5
        assert fit_loglog_slope(sizes, costs) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            fit_loglog_slope(np.array([1.0, 2.0]), np.array([0.0, 1.0]))


class TestTables:
    def test_format_value_kinds(self):
        assert format_value(True) == "yes"
        assert format_value(12345) == "12,345"
        assert format_value(0.0) == "0"
        assert format_value(1234567.0) == "1.235e+06"
        assert format_value("abc") == "abc"

    def test_format_table_alignment(self):
        table = format_table(["n", "cost"], [[10, 1.5], [20, 3.25]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("cost")
        assert set(lines[1]) <= {"-", "+"}

    def test_format_table_title(self):
        table = format_table(["a"], [[1]], title="T")
        assert table.splitlines()[0] == "T"

    def test_format_table_validation(self):
        with pytest.raises(ValueError):
            format_table([], [])
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_empty_rows_ok(self):
        table = format_table(["a", "b"], [])
        assert "a" in table
