"""Multi-field engine tests beyond the golden-trace battery.

Covers the pieces the shared registry cannot express:

* the NumPy reduction-order hazard the column-0 guarantee rests on;
* the metrics helpers (`field_count`, `primary_field`, `column_errors`);
* end-to-end quantile/histogram workloads against exact NumPy answers;
* how (n, k) state runs: natively for every tick-driven protocol, per
  column (`MultiFieldFallbackWarning`) for the round-based one;
* regressions for the dynamics layer's (n, k) handling — dead-owner
  tick drops and abort-and-charge mass accounting must treat columns
  independently, never silently broadcast.
"""

import warnings

import numpy as np
import pytest

from protocol_equivalence import (
    _FAULTED_SEED,
    _FAULTED_SPEC,
    _GRAPH,
    initial_field_matrix,
    initial_values,
)
from repro.dynamics import DynamicGossip, DynamicSubstrate
from repro.dynamics.overlay import live_node_error
from repro.engine.batching import (
    MultiFieldFallbackWarning,
    multifield_capability,
    run_batched,
    split_streams,
)
from repro.engine.executor import build_faulted_algorithm, cell_traceable
from repro.experiments.config import (
    ALGORITHM_CLASSES,
    fault_incompatible,
    make_algorithm,
    multifield_support,
    protocol_batching,
)
from repro.experiments.seeds import spawn_rng
from repro.gossip.base import AsynchronousGossip, DrawStream, check_state_shape
from repro.gossip.path_averaging import PathAveragingGossip
from repro.gossip.randomized import RandomizedGossip
from repro.graphs.rgg import RandomGeometricGraph
from repro.metrics.error import (
    column_errors,
    field_count,
    normalized_error,
    primary_field,
)
from repro.routing.cost import TransmissionCounter
from repro.workloads.fields import (
    FIELD_GENERATORS,
    build_field_matrix,
    ensemble_field,
    histogram_edges,
    histogram_indicator_stack,
    quantile_indicator_stack,
    quantile_thresholds,
)


class TestReductionKernels:
    """The column-0 guarantee rests on exact reduction-order identities."""

    @pytest.mark.parametrize("m", [2, 7, 8, 9, 17, 100, 1000, 10000])
    def test_transposed_contiguous_mean_matches_scalar_kernel(self, m):
        """The multi-field route average must reduce each column with the
        exact kernel the scalar path runs — `mean(axis=0)` on the strided
        block does NOT (NumPy accumulates strided axis reductions in a
        different order than contiguous 1-D pairwise summation)."""
        block = np.random.default_rng(m).normal(size=(m, 5))
        scalar = np.array(
            [np.ascontiguousarray(block[:, j]).mean() for j in range(5)]
        )
        multi = np.ascontiguousarray(block.T).mean(axis=1)
        np.testing.assert_array_equal(multi, scalar)

    def test_path_averaging_route_mean_is_columnwise_exact(self):
        """A long synthetic route averaged under (n, k) state: column 0
        must equal the scalar update bit for bit, other columns likewise."""
        protocol = PathAveragingGossip(_GRAPH, target_mode="uniform")
        path = tuple(range(30))  # longer than NumPy's 8-element unroll
        scalar_columns = []
        matrix = initial_field_matrix(6)
        for j in range(6):
            column = np.ascontiguousarray(matrix[:, j])
            protocol._average_route(path, len(path) - 1, column, TransmissionCounter())
            scalar_columns.append(column)
        protocol._average_route(
            path, len(path) - 1, matrix, TransmissionCounter()
        )
        np.testing.assert_array_equal(matrix, np.column_stack(scalar_columns))


class TestMetricsHelpers:
    def test_field_count(self):
        assert field_count(np.zeros(5)) == 1
        assert field_count(np.zeros((5, 3))) == 3
        with pytest.raises(ValueError):
            field_count(np.zeros((5, 0)))
        with pytest.raises(ValueError):
            field_count(np.zeros((2, 2, 2)))

    def test_primary_field_scalar_state_is_untouched(self):
        values = np.arange(4.0)
        assert primary_field(values) is values

    def test_primary_field_matrix_state_is_contiguous_column0(self):
        matrix = np.random.default_rng(3).normal(size=(10, 4))
        primary = primary_field(matrix)
        np.testing.assert_array_equal(primary, matrix[:, 0])
        assert primary.flags["C_CONTIGUOUS"]

    def test_normalized_error_matrix_reduces_to_primary(self):
        matrix = initial_field_matrix(5)
        shifted = matrix * 0.5
        assert normalized_error(shifted, matrix) == normalized_error(
            np.ascontiguousarray(shifted[:, 0]),
            np.ascontiguousarray(matrix[:, 0]),
        )

    def test_column_errors_column0_matches_scalar_metric(self):
        matrix = initial_field_matrix(5)
        drifted = matrix * np.linspace(0.1, 0.9, 5)
        errors = column_errors(drifted, matrix)
        assert errors.shape == (5,)
        for j in range(5):
            assert errors[j] == normalized_error(
                np.ascontiguousarray(drifted[:, j]),
                np.ascontiguousarray(matrix[:, j]),
            )

    def test_column_errors_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            column_errors(np.zeros((4, 2)), np.zeros((4, 3)))

    def test_normalized_error_rejects_mixed_layouts(self):
        """Comparing one sliced column against the full stored matrix is
        an easy slip with the (n, k) API; flattening silently would
        return a plausible-looking wrong number."""
        matrix = initial_field_matrix(3)
        with pytest.raises(ValueError, match="shapes differ"):
            normalized_error(matrix[:, 1], matrix)
        with pytest.raises(ValueError, match="shapes differ"):
            normalized_error(matrix, np.ascontiguousarray(matrix[:, 0]))

    def test_check_state_shape_rejects_bad_layouts(self):
        assert check_state_shape(np.zeros(6), 6).shape == (6,)
        assert check_state_shape(np.zeros((6, 2)), 6).shape == (6, 2)
        for bad in (np.zeros(5), np.zeros((5, 2)), np.zeros((6, 0)),
                    np.zeros((6, 2, 2))):
            with pytest.raises(ValueError):
                check_state_shape(bad, 6)


class TestWorkloadCorrectness:
    """End-to-end: indicator stacks converge to exact NumPy answers."""

    @pytest.fixture(scope="class")
    def small_instance(self):
        graph = RandomGeometricGraph.sample_connected(
            24, np.random.default_rng(11), radius_constant=3.0
        )
        values = np.random.default_rng(12).normal(size=24)
        return graph, values

    def test_quantile_stack_columns_average_to_exact_cdf(self, small_instance):
        graph, values = small_instance
        k = 6
        stack = quantile_indicator_stack(values, k=k)
        thresholds = quantile_thresholds(values, k - 1)
        result = run_batched(
            RandomizedGossip(graph.neighbors),
            stack,
            0.02,
            np.random.default_rng(77),
            check_stride=4,
        )
        assert result.converged
        for j, threshold in enumerate(thresholds, start=1):
            exact = float((values <= threshold).mean())  # the NumPy answer
            assert np.mean(result.values[:, j]) == pytest.approx(exact, abs=1e-12)
            # Every node's estimate sits near the exact CDF value: the
            # indicator columns have unit initial scale, so eps=0.02 of
            # ||x(0)|| bounds each node's deviation tightly.
            assert np.max(np.abs(result.values[:, j] - exact)) < 0.1

    def test_histogram_stack_columns_average_to_exact_bins(self, small_instance):
        graph, values = small_instance
        k = 5
        stack = histogram_indicator_stack(values, k=k)
        edges = histogram_edges(values, k - 1)
        exact = np.histogram(values, bins=edges)[0] / len(values)
        result = run_batched(
            RandomizedGossip(graph.neighbors),
            stack,
            0.02,
            np.random.default_rng(78),
            check_stride=4,
        )
        assert result.converged
        for j in range(k - 1):
            assert np.mean(result.values[:, j + 1]) == pytest.approx(
                exact[j], abs=1e-12
            )
            assert np.max(np.abs(result.values[:, j + 1] - exact[j])) < 0.1

    def test_histogram_partition_is_numpy_histogram(self, small_instance):
        """The indicator columns partition the sensors exactly as
        numpy.histogram does (every sensor in exactly one bin)."""
        _, values = small_instance
        stack = histogram_indicator_stack(values, k=7)
        counts = stack[:, 1:].sum(axis=0)
        np.testing.assert_array_equal(
            counts, np.histogram(values, bins=histogram_edges(values, 6))[0]
        )
        np.testing.assert_array_equal(stack[:, 1:].sum(axis=1), 1.0)

    def test_quantile_indicators_match_numpy_comparison(self, small_instance):
        _, values = small_instance
        stack = quantile_indicator_stack(values, k=4)
        for j, threshold in enumerate(quantile_thresholds(values, 3), start=1):
            np.testing.assert_array_equal(
                stack[:, j], (values <= threshold).astype(float)
            )

    def test_ensemble_column0_is_the_scalar_generator_draw(self):
        positions = np.random.default_rng(1).random((40, 2))
        for name in FIELD_GENERATORS:
            stacked = ensemble_field(
                positions, np.random.default_rng(5), base=name, k=3
            )
            scalar = FIELD_GENERATORS[name](positions, np.random.default_rng(5))
            np.testing.assert_array_equal(stacked[:, 0], scalar, err_msg=name)

    def test_build_field_matrix_validation(self):
        positions = np.random.default_rng(1).random((8, 2))
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="workload"):
            build_field_matrix("no-such", "random", positions, rng, 4)
        with pytest.raises(ValueError, match="field"):
            build_field_matrix("ensemble", "no-such", positions, rng, 4)
        with pytest.raises(ValueError):
            build_field_matrix("ensemble", "random", positions, rng, 0)

    def test_constant_field_degenerates_gracefully(self):
        constant = np.full(10, 3.0)
        stack = quantile_indicator_stack(constant, k=4)
        assert stack.shape == (10, 4)
        np.testing.assert_array_equal(stack[:, 1:], 1.0)  # all ≤ the value
        hist = histogram_indicator_stack(constant, k=4)
        np.testing.assert_array_equal(hist[:, -1], 1.0)  # closed last bin


class TickOnlyGossip(AsynchronousGossip):
    """A third-party protocol with only a ``tick``: row arithmetic."""

    name = "tick-only"

    def __init__(self, neighbors):
        super().__init__(len(neighbors))
        self.neighbors = neighbors

    def tick(self, node, values, counter, rng):
        adjacency = self.neighbors[node]
        if adjacency.size == 0:
            return
        partner = int(adjacency[rng.integers(adjacency.size)])
        average = 0.5 * (values[node] + values[partner])
        values[node] = average
        values[partner] = average
        counter.charge(2, "near")


class TestMultiFieldFallback:
    """One fact decides how (n, k) state runs: tick-driven protocols run
    it natively, round-based ones run it one column at a time."""

    @pytest.mark.parametrize("name", sorted(ALGORITHM_CLASSES))
    def test_registry_capabilities_agree(self, name):
        batching = protocol_batching((name,))[name]
        multifield = multifield_support((name,))[name]
        assert (batching == "block") == (multifield == "native")
        assert (batching == "rounds") == (multifield == "per-column")
        assert multifield_capability(ALGORITHM_CLASSES[name]) == multifield

    @pytest.mark.parametrize(
        "name",
        sorted(
            set(ALGORITHM_CLASSES)
            - set(fault_incompatible(tuple(ALGORITHM_CLASSES)))
        ),
    )
    def test_fault_wrapper_is_native(self, name):
        wrapper = build_faulted_algorithm(
            name, _GRAPH, _FAULTED_SPEC, _FAULTED_SEED, _GRAPH.n, 0
        )
        assert isinstance(wrapper, DynamicGossip)
        assert multifield_capability(wrapper) == "native"

    @pytest.mark.parametrize(
        "name",
        sorted(
            set(ALGORITHM_CLASSES)
            - set(fault_incompatible(tuple(ALGORITHM_CLASSES)))
        ),
    )
    def test_faulted_matrix_runs_natively(self, name):
        """`DynamicGossip` on (n, k) state takes the one-pass path: no
        warning, and column 0, ticks and ledger equal to the faulted
        scalar run, whose epoch draws the columns share."""

        def run(values):
            wrapper = build_faulted_algorithm(
                name, _GRAPH, _FAULTED_SPEC, _FAULTED_SEED, _GRAPH.n, 0
            )
            return run_batched(
                wrapper, values, 0.3, spawn_rng(11, name), check_stride=2
            )

        scalar = run(initial_values())
        with warnings.catch_warnings():
            warnings.simplefilter("error", MultiFieldFallbackWarning)
            multi = run(initial_field_matrix(2))
        np.testing.assert_array_equal(multi.values[:, 0], scalar.values)
        assert multi.ticks == scalar.ticks
        assert multi.transmissions == scalar.transmissions

    @pytest.mark.parametrize("name", sorted(ALGORITHM_CLASSES))
    def test_cell_traceable_is_decided_by_the_protocol(self, name):
        algorithm = make_algorithm(name, _GRAPH)
        traceable = protocol_batching((name,))[name] == "block"
        assert cell_traceable(algorithm, initial_values()) is traceable
        assert cell_traceable(algorithm, initial_field_matrix(3)) is traceable

    @pytest.mark.parametrize("check_stride", [1, 4])
    def test_tick_only_protocol_runs_matrix_natively(self, check_stride):
        """A protocol that declares nothing still takes the one-pass path:
        no warning, column 0 equal to the scalar run, and the scalar
        run's tick count (the columns share every draw)."""
        scalar = run_batched(
            TickOnlyGossip(_GRAPH.neighbors),
            initial_values(),
            0.25,
            spawn_rng(7, "tick-only"),
            check_stride=check_stride,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", MultiFieldFallbackWarning)
            multi = run_batched(
                TickOnlyGossip(_GRAPH.neighbors),
                initial_field_matrix(3),
                0.25,
                spawn_rng(7, "tick-only"),
                check_stride=check_stride,
            )
        np.testing.assert_array_equal(multi.values[:, 0], scalar.values)
        assert multi.ticks == scalar.ticks
        assert multi.transmissions == scalar.transmissions
        if check_stride == 1:
            legacy = TickOnlyGossip(_GRAPH.neighbors).run(
                initial_field_matrix(3), 0.25, spawn_rng(7, "tick-only")
            )
            np.testing.assert_array_equal(legacy.values, multi.values)

    def test_native_protocols_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", MultiFieldFallbackWarning)
            run_batched(
                RandomizedGossip(_GRAPH.neighbors),
                initial_field_matrix(3),
                0.25,
                spawn_rng(7, "fallback"),
            )


class TestHierarchicalPerColumn:
    """The hierarchical executor's multi-field story: per-column by design.

    Its adaptive round structure (settle checks, exchange counts, `Far`
    retries with β possibly > 1) is an oracle over one field — riding
    secondary columns through it unchecked made them *diverge* (final
    error above the initial deviation) while the run reported converged.
    The protocol therefore refuses matrix state at its own `run` entry,
    and the engine routes it through the per-column fallback, where every
    column gets its own adaptive execution and genuinely converges.
    """

    def _matrix(self, k=3):
        return initial_field_matrix(k)

    def test_run_entry_rejects_matrix_state(self):
        from repro.gossip.hierarchical.rounds import HierarchicalGossip

        with pytest.raises(TypeError, match="per-column"):
            HierarchicalGossip(_GRAPH).run(
                self._matrix(), 0.25, spawn_rng(7, "hier")
            )

    def test_engine_fallback_converges_every_column(self):
        """The regression that motivated the capability flip: secondary
        columns must END at or below ε, not above their initial error."""
        from repro.gossip.hierarchical.rounds import HierarchicalGossip

        with pytest.warns(MultiFieldFallbackWarning):
            result = run_batched(
                HierarchicalGossip(_GRAPH),
                self._matrix(),
                0.25,
                spawn_rng(7, "hier"),
            )
        assert result.converged
        assert result.column_errors is not None
        assert all(error <= 0.25 for error in result.column_errors)

    def test_by_design_warning_never_advises_declaring_support(self):
        """hierarchical's fallback warning must say this is by design —
        advising the user to declare or audit multi-field support would
        invite the secondary-column divergence."""
        from repro.gossip.hierarchical.rounds import HierarchicalGossip

        with pytest.warns(MultiFieldFallbackWarning) as captured:
            run_batched(
                HierarchicalGossip(_GRAPH),
                self._matrix(),
                0.25,
                spawn_rng(7, "hier"),
            )
        message = str(captured[0].message)
        assert "by design" in message
        assert "oracle over one field" in message
        assert "declare" not in message and "audit" not in message

    def test_engine_fallback_column0_matches_scalar_run(self):
        from repro.gossip.hierarchical.rounds import HierarchicalGossip

        scalar = HierarchicalGossip(_GRAPH).run(
            initial_values(), 0.25, spawn_rng(7, "hier")
        )
        with pytest.warns(MultiFieldFallbackWarning):
            multi = run_batched(
                HierarchicalGossip(_GRAPH),
                self._matrix(),
                0.25,
                spawn_rng(7, "hier"),
            )
        np.testing.assert_array_equal(multi.values[:, 0], scalar.values)
        assert multi.error == scalar.error
        # Serial semantics: ticks and transmissions accumulate the
        # per-column passes, the cost a native pass amortizes away.
        assert multi.ticks > scalar.ticks
        assert len(multi.column_errors) == 3


class TestMultiFieldSweep:
    def test_serial_and_parallel_multifield_sweeps_identical(self):
        """Worker-count invariance survives (n, k) cells — field_errors
        cross process boundaries intact."""
        from repro.engine.executor import run_sweep_records
        from repro.experiments import ExperimentConfig

        config = ExperimentConfig(
            sizes=(24, 32),
            epsilon=0.3,
            trials=1,
            algorithms=("randomized", "geographic"),
            root_seed=17,
            fields=4,
            workload="histogram",
        )
        serial = run_sweep_records(config)
        parallel = run_sweep_records(config, workers=2)
        assert serial == parallel
        for record in serial.values():
            assert record.field_errors is not None
            assert len(record.field_errors) == 4
            assert record.field_errors[0] == record.error


class TestFaultedMultiFieldRegressions:
    """The dynamics layer must treat (n, k) columns independently."""

    def _faulted(self, k):
        substrate = DynamicSubstrate(_GRAPH, _FAULTED_SPEC, seed=_FAULTED_SEED)
        protocol = DynamicGossip(
            PathAveragingGossip(substrate, target_mode="uniform"), substrate
        )
        return substrate, protocol

    def test_dead_owner_drops_and_aborts_conserve_every_column(self):
        """Churn masking plus abort-and-charge under loss: the sum over
        *all* nodes (live + frozen) must be invariant per column."""
        substrate, protocol = self._faulted(5)
        initial = initial_field_matrix(5)
        values = initial.copy()
        counter = TransmissionCounter()
        owner_rng, protocol_rng = split_streams(np.random.default_rng([3, 9]))
        stream = DrawStream(protocol_rng)
        for _ in range(12):
            owners = owner_rng.integers(protocol.n, size=200)
            protocol.tick_block(owners, values, counter, stream)
        assert protocol.wasted_ticks > 0  # churn actually dropped owners
        assert protocol.aborted_routes > 0  # loss actually severed routes
        np.testing.assert_allclose(
            values.sum(axis=0), initial.sum(axis=0), rtol=0, atol=1e-9
        )

    def test_live_node_error_reduces_matrix_to_primary_field(self):
        values = initial_field_matrix(4)
        drifted = values * 0.25
        live = np.ones(len(values), dtype=bool)
        live[::3] = False
        matrix_error = live_node_error(drifted, values, live)
        scalar_error = live_node_error(
            np.ascontiguousarray(drifted[:, 0]),
            np.ascontiguousarray(values[:, 0]),
            live,
        )
        assert matrix_error == scalar_error

    def test_faulted_fault_metrics_accept_matrix_state(self):
        _, protocol = self._faulted(4)
        initial = initial_field_matrix(4)
        result = run_batched(
            protocol, initial, 0.3, spawn_rng(5, "faulted-multi")
        )
        metrics = protocol.fault_metrics(result.values, result.initial_values)
        assert 0.0 <= metrics["live_fraction"] <= 1.0
        assert np.isfinite(metrics["live_node_error"])


class TestFallbackTelemetry:
    """Per-column fallback cells annotate their k-fold counter inflation.

    ``_run_per_column`` runs k nested engine passes on *one* protocol
    instance, so cumulative counters (route-cache hits/misses) come out
    k-fold inflated relative to a single run.  Rather than resetting
    state mid-cell, the record carries ``multifield_fallback_runs`` so a
    reader can normalise — this test pins that contract.
    """

    def test_fallback_cells_annotate_run_count(self):
        from repro.engine.executor import run_sweep_records
        from repro.experiments import ExperimentConfig

        fields = 3
        config = ExperimentConfig(
            sizes=(24,),
            trials=1,
            epsilon=0.3,
            algorithms=("hierarchical", "randomized"),
            fields=fields,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = run_sweep_records(config)
        fallback = records[("hierarchical", 24, 0)]
        assert fallback.telemetry["multifield_fallback"] == 1.0
        assert fallback.telemetry["multifield_fallback_runs"] == float(fields)
        native = records[("randomized", 24, 0)]
        assert native.telemetry["multifield_fallback"] == 0.0
        assert "multifield_fallback_runs" not in native.telemetry
