"""Unit tests for repro.engine.batching (batched tick execution)."""

import warnings

import numpy as np
import pytest

from repro.engine.batching import (
    ScalarFallbackWarning,
    batching_capability,
    run_batched,
    split_streams,
)
from repro.experiments.config import make_algorithm, protocol_batching
from repro.experiments.seeds import spawn_rng
from repro.gossip.base import AsynchronousGossip
from repro.gossip.hierarchical.rounds import HierarchicalGossip
from repro.graphs.rgg import RandomGeometricGraph
from repro.routing.cost import TransmissionCounter


class ScalarOnlyGossip(AsynchronousGossip):
    """A protocol that never overrode tick_block (the fallback path)."""

    name = "scalar-only"

    def tick(self, node, values, counter, rng):
        partner = int(rng.integers(self.n - 1))
        partner = partner + 1 if partner >= node else partner
        average = 0.5 * (values[node] + values[partner])
        values[node] = average
        values[partner] = average
        counter.charge(2, "near")


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(42)
    graph = RandomGeometricGraph.sample_connected(64, rng, radius_constant=3.0)
    values = rng.normal(size=64)
    return graph, values


class TestDegenerateCase:
    """check_stride=1 must reproduce the legacy scalar loop bit for bit."""

    @pytest.mark.parametrize("name", ["randomized", "geographic"])
    def test_bit_identical_to_legacy_run(self, instance, name):
        graph, values = instance
        legacy = make_algorithm(name, graph).run(
            values, 0.25, spawn_rng(7, "run", name)
        )
        batched = run_batched(
            make_algorithm(name, graph),
            values,
            0.25,
            spawn_rng(7, "run", name),
            check_stride=1,
        )
        np.testing.assert_array_equal(legacy.values, batched.values)
        assert legacy.transmissions == batched.transmissions
        assert legacy.ticks == batched.ticks
        assert legacy.error == batched.error
        assert [(p.transmissions, p.ticks, p.error) for p in legacy.trace.points] == [
            (p.transmissions, p.ticks, p.error) for p in batched.trace.points
        ]

    def test_validation(self, instance):
        graph, values = instance
        algorithm = make_algorithm("randomized", graph)
        rng = spawn_rng(1, "x")
        with pytest.raises(ValueError):
            run_batched(algorithm, values, 0.25, rng, check_stride=0)
        with pytest.raises(ValueError):
            run_batched(algorithm, values, 0.25, rng, check_stride=2, block_size=0)
        with pytest.raises(ValueError):
            run_batched(algorithm, values, -1.0, rng, check_stride=2)
        with pytest.raises(ValueError):
            run_batched(algorithm, values[:10], 0.25, rng, check_stride=2)


class TestBatchedPath:
    @pytest.mark.parametrize("name", ["randomized", "geographic"])
    def test_converges_and_conserves_mean(self, instance, name):
        graph, values = instance
        result = run_batched(
            make_algorithm(name, graph),
            values,
            0.25,
            spawn_rng(7, "run", name),
            check_stride=4,
        )
        assert result.converged
        assert result.error <= 0.25
        # Pairwise averaging conserves the sum, batched or not.
        assert result.values.mean() == pytest.approx(values.mean(), abs=1e-12)

    def test_deterministic(self, instance):
        graph, values = instance
        runs = [
            run_batched(
                make_algorithm("randomized", graph),
                values,
                0.25,
                spawn_rng(7, "run"),
                check_stride=4,
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].values, runs[1].values)
        assert runs[0].ticks == runs[1].ticks
        assert runs[0].transmissions == runs[1].transmissions

    def test_block_size_invariance(self, instance):
        """Results are a function of (seed, stride), never of chunking."""
        graph, values = instance
        results = [
            run_batched(
                make_algorithm("randomized", graph),
                values,
                0.25,
                spawn_rng(7, "run"),
                check_stride=4,
                block_size=block_size,
            )
            for block_size in (1, 7, 8192)
        ]
        for other in results[1:]:
            np.testing.assert_array_equal(results[0].values, other.values)
            assert results[0].ticks == other.ticks
            assert results[0].transmissions == other.transmissions

    def test_stride_equivalence_of_stopping_rule(self, instance):
        """Strided checking stops at the same crossing, up to one window.

        The batched path cannot stop *short* of the ε-crossing (the check
        only ever runs after more ticks than the legacy period), and its
        transmissions-to-ε agree with the legacy path to within the extra
        ticks of at most one check window.
        """
        graph, values = instance
        legacy = run_batched(
            make_algorithm("randomized", graph),
            values,
            0.25,
            spawn_rng(7, "run"),
            check_stride=1,
        )
        for stride in (2, 8):
            strided = run_batched(
                make_algorithm("randomized", graph),
                values,
                0.25,
                spawn_rng(7, "run"),
                check_stride=stride,
            )
            assert strided.converged
            assert strided.error <= 0.25
            # Checks land on multiples of the strided window.
            window = stride * max(1, graph.n // 4)
            assert strided.ticks % window == 0
            # Same order of magnitude as the legacy stopping tick.
            assert strided.ticks <= legacy.ticks + 2 * window
            assert strided.ticks >= legacy.ticks // 4

    def test_round_based_protocol_runs_natively_at_any_stride(self, instance):
        """Hierarchical gossip has no tick loop; the engine passes through."""
        graph, values = instance
        native = make_algorithm("hierarchical", graph).run(
            values, 0.25, spawn_rng(7, "run", "hierarchical")
        )
        engine = run_batched(
            make_algorithm("hierarchical", graph),
            values,
            0.25,
            spawn_rng(7, "run", "hierarchical"),
            check_stride=8,
        )
        np.testing.assert_array_equal(native.values, engine.values)
        assert native.transmissions == engine.transmissions
        assert native.ticks == engine.ticks

    def test_tick_budget_respected(self, instance):
        graph, values = instance
        result = run_batched(
            make_algorithm("randomized", graph),
            values,
            1e-9,
            spawn_rng(7, "run"),
            check_stride=4,
            max_ticks=100,
        )
        assert not result.converged
        assert result.ticks == 100


class TestSplitStreams:
    def test_deterministic_and_distinct(self):
        a_owner, a_proto = split_streams(spawn_rng(5, "s"))
        b_owner, b_proto = split_streams(spawn_rng(5, "s"))
        np.testing.assert_array_equal(a_owner.random(8), b_owner.random(8))
        np.testing.assert_array_equal(a_proto.random(8), b_proto.random(8))
        c_owner, c_proto = split_streams(spawn_rng(5, "s"))
        assert not np.array_equal(c_owner.random(8), c_proto.random(8))


class TestTickBlockHooks:
    def test_default_tick_block_matches_scalar_ticks(self, instance):
        """The base-class hook is literally the scalar loop."""
        graph, values = instance
        algorithm = ScalarOnlyGossip(graph.n)
        owners = spawn_rng(3, "owners").integers(graph.n, size=50)

        block_values = values.copy()
        block_counter = TransmissionCounter()
        algorithm.tick_block(
            owners, block_values, block_counter, spawn_rng(3, "proto")
        )

        scalar_values = values.copy()
        scalar_counter = TransmissionCounter()
        scalar_rng = spawn_rng(3, "proto")
        for node in owners:
            algorithm.tick(int(node), scalar_values, scalar_counter, scalar_rng)

        np.testing.assert_array_equal(block_values, scalar_values)
        assert block_counter.snapshot() == scalar_counter.snapshot()

    def test_randomized_tick_block_contract(self, instance):
        """The vectorized override: same costs, conserved sum, fixed draws."""
        graph, values = instance
        algorithm = make_algorithm("randomized", graph)
        owners = spawn_rng(3, "owners").integers(graph.n, size=128)

        out = values.copy()
        counter = TransmissionCounter()
        rng = spawn_rng(3, "proto")
        algorithm.tick_block(owners, out, counter, rng)

        # Every owner has neighbours on a connected graph: 2 tx per tick.
        assert counter.snapshot() == {"near": 256, "total": 256}
        assert out.mean() == pytest.approx(values.mean(), abs=1e-12)
        # Fixed draw count per tick: the stream advanced by exactly one
        # double per owner (the block-partitioning contract).
        reference = spawn_rng(3, "proto")
        reference.random(len(owners))
        np.testing.assert_array_equal(rng.random(4), reference.random(4))

    def test_chunked_tick_blocks_equal_one_block(self, instance):
        graph, values = instance
        algorithm = make_algorithm("randomized", graph)
        owners = spawn_rng(3, "owners").integers(graph.n, size=100)

        whole = values.copy()
        whole_counter = TransmissionCounter()
        algorithm.tick_block(owners, whole, whole_counter, spawn_rng(3, "p"))

        chunked = values.copy()
        chunked_counter = TransmissionCounter()
        chunk_rng = spawn_rng(3, "p")
        for part in (owners[:33], owners[33:70], owners[70:]):
            algorithm.tick_block(part, chunked, chunked_counter, chunk_rng)

        np.testing.assert_array_equal(whole, chunked)
        assert whole_counter.snapshot() == chunked_counter.snapshot()


class TestBatchingCapability:
    def test_classification(self, instance):
        graph, _ = instance
        assert batching_capability(ScalarOnlyGossip) == "scalar"
        assert batching_capability(ScalarOnlyGossip(graph.n)) == "scalar"
        assert batching_capability(make_algorithm("randomized", graph)) == "block"
        assert batching_capability(HierarchicalGossip) == "rounds"

    def test_registry_map(self):
        assert protocol_batching(
            ("randomized", "geographic", "spatial", "hierarchical")
        ) == {
            "randomized": "block",
            "geographic": "block",
            "spatial": "block",
            "hierarchical": "rounds",
        }

    def test_registry_map_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            protocol_batching(("randomized", "no-such-protocol"))


class TestScalarFallbackWarning:
    def test_strided_run_without_override_warns(self, instance):
        graph, values = instance
        with pytest.warns(ScalarFallbackWarning, match="scalar-only"):
            result = run_batched(
                ScalarOnlyGossip(graph.n),
                values,
                0.25,
                spawn_rng(7, "run"),
                check_stride=4,
            )
        assert result.converged  # the fallback still runs correctly

    def test_uncentered_field_warns_for_affine(self, instance):
        """Mean-sensitive protocols get a futility warning, not a stall."""
        from repro.engine.batching import UncenteredFieldWarning
        from repro.gossip.affine import AffineGossipKn, sample_alphas

        graph, values = instance
        shifted = values + 5.0
        algorithm = AffineGossipKn(
            graph.n, alphas=sample_alphas(graph.n, np.random.default_rng(1))
        )
        with pytest.warns(UncenteredFieldWarning, match="mean-zero"):
            run_batched(
                algorithm, shifted, 0.25, spawn_rng(7, "run"), max_ticks=10
            )
        centred = shifted - shifted.mean()
        with warnings.catch_warnings():
            warnings.simplefilter("error", UncenteredFieldWarning)
            run_batched(
                algorithm, centred, 0.25, spawn_rng(7, "run"), max_ticks=10
            )

    def test_warning_names_docs_page_and_registry(self, instance):
        """Discoverability: the message points at the fix, not just the fact."""
        graph, values = instance
        with pytest.warns(ScalarFallbackWarning) as captured:
            run_batched(
                ScalarOnlyGossip(graph.n),
                values,
                0.25,
                spawn_rng(7, "run"),
                check_stride=4,
            )
        message = str(captured[0].message)
        assert "docs/batching.md" in message
        assert "protocol_batching" in message
        assert "tick_block" in message

    def test_stride_one_never_warns(self, instance):
        graph, values = instance
        with warnings.catch_warnings():
            warnings.simplefilter("error", ScalarFallbackWarning)
            run_batched(
                ScalarOnlyGossip(graph.n),
                values,
                0.25,
                spawn_rng(7, "run"),
                check_stride=1,
            )

    def test_block_protocols_never_warn(self, instance):
        graph, values = instance
        with warnings.catch_warnings():
            warnings.simplefilter("error", ScalarFallbackWarning)
            for name in ("randomized", "geographic", "spatial"):
                run_batched(
                    make_algorithm(name, graph),
                    values,
                    0.3,
                    spawn_rng(7, "run", name),
                    check_stride=4,
                )


class TestDegenerateMatrixState:
    """(n, 0) state is a caller error, not an empty-column no-op run."""

    def test_zero_field_matrix_raises_named_shape(self, instance):
        graph, values = instance
        with pytest.raises(ValueError, match=r"\(64, 0\)"):
            run_batched(
                make_algorithm("randomized", graph),
                np.empty((graph.n, 0)),
                0.25,
                spawn_rng(7, "run"),
            )

    def test_zero_field_matrix_raises_on_per_column_path_too(self, instance):
        graph, _ = instance
        with pytest.raises(ValueError, match="at least one field column"):
            run_batched(
                ScalarOnlyGossip(graph.n),
                np.empty((graph.n, 0)),
                0.25,
                spawn_rng(7, "run"),
            )


class TestWarningAttribution:
    """Engine warnings must point at the caller's line, not engine frames.

    Each check pins ``warning.filename`` to this test module: a wrong
    ``stacklevel`` attributes the warning to batching.py (or executor.py),
    which is exactly the regression these tests exist to catch.
    """

    @staticmethod
    def _filenames(captured, category):
        return [
            w.filename
            for w in captured
            if issubclass(w.category, category)
        ]

    def test_multifield_fallback_attributes_to_caller(self, instance):
        graph, values = instance
        from repro.engine.batching import MultiFieldFallbackWarning

        state = np.column_stack([values, values * 0.5])
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            run_batched(
                ScalarOnlyGossip(graph.n),
                state,
                0.25,
                spawn_rng(7, "run"),
                max_ticks=16,
            )
        filenames = self._filenames(captured, MultiFieldFallbackWarning)
        assert filenames and all(
            name.endswith("test_engine_batching.py") for name in filenames
        ), filenames

    def test_scalar_fallback_attributes_to_caller(self, instance):
        graph, values = instance
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            run_batched(
                ScalarOnlyGossip(graph.n),
                values,
                0.25,
                spawn_rng(7, "run"),
                check_stride=4,
                max_ticks=16,
            )
        filenames = self._filenames(captured, ScalarFallbackWarning)
        assert filenames and all(
            name.endswith("test_engine_batching.py") for name in filenames
        ), filenames

    def test_uncentered_field_attributes_to_caller(self, instance):
        from repro.engine.batching import UncenteredFieldWarning
        from repro.gossip.affine import AffineGossipKn, sample_alphas

        graph, values = instance
        algorithm = AffineGossipKn(
            graph.n, alphas=sample_alphas(graph.n, np.random.default_rng(1))
        )
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            run_batched(
                algorithm, values + 5.0, 0.25, spawn_rng(7, "run"), max_ticks=8
            )
        filenames = self._filenames(captured, UncenteredFieldWarning)
        assert filenames and all(
            name.endswith("test_engine_batching.py") for name in filenames
        ), filenames

    def test_sweep_entry_point_attributes_to_caller(self):
        """The same warnings routed through run_sweep_records still point
        here — the executor threads its extra frames into stacklevel."""
        from repro.engine.batching import MultiFieldFallbackWarning
        from repro.engine.executor import run_sweep_records
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(
            sizes=(24,),
            trials=1,
            epsilon=0.3,
            algorithms=("hierarchical",),
            fields=2,
        )
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            run_sweep_records(config)
        filenames = self._filenames(captured, MultiFieldFallbackWarning)
        assert filenames and all(
            name.endswith("test_engine_batching.py") for name in filenames
        ), filenames
