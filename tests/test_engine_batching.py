"""Unit tests for repro.engine.batching (batched tick execution)."""

import warnings

import numpy as np
import pytest

from repro.engine.batching import (
    batching_capability,
    run_batched,
    split_streams,
)
from repro.experiments.config import make_algorithm, protocol_batching
from repro.experiments.seeds import spawn_rng
from repro.gossip.base import AsynchronousGossip, DrawStream, LegacyDrawStream
from repro.gossip.hierarchical.rounds import HierarchicalGossip
from repro.graphs.rgg import RandomGeometricGraph
from repro.routing.cost import TransmissionCounter


class ScalarOnlyGossip(AsynchronousGossip):
    """A protocol with only a ``tick``: the base loop serves every stride."""

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
        """The base-class hook is literally the per-owner tick loop."""
        graph, values = instance
        algorithm = ScalarOnlyGossip(graph.n)
        owners = spawn_rng(3, "owners").integers(graph.n, size=50)

        block_values = values.copy()
        block_counter = TransmissionCounter()
        block_rng = DrawStream(spawn_rng(3, "proto"))
        algorithm.tick_block(owners, block_values, block_counter, block_rng)

        scalar_values = values.copy()
        scalar_counter = TransmissionCounter()
        scalar_rng = DrawStream(spawn_rng(3, "proto"))
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

    def test_randomized_override_skips_isolated_owners_like_tick(self):
        """An isolated owner wastes its tick before drawing, in both paths."""
        from repro.gossip.randomized import RandomizedGossip

        # A path 0-1-2 plus an isolated node 3.
        neighbors = [
            np.array([1]),
            np.array([0, 2]),
            np.array([1]),
            np.array([], dtype=int),
        ]
        owners = spawn_rng(3, "owners").integers(4, size=40)
        assert (owners == 3).any()
        runs = []
        for hook in (RandomizedGossip.tick_block, AsynchronousGossip.tick_block):
            algorithm = RandomizedGossip(neighbors)
            out = np.arange(4.0)
            counter = TransmissionCounter()
            stream = DrawStream(spawn_rng(3, "proto"))
            hook(algorithm, owners, out, counter, stream)
            runs.append((out, counter.snapshot(), stream.random()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]  # the same number of draws

    @pytest.mark.parametrize("fields", [None, 3], ids=["scalar", "k3"])
    def test_randomized_override_draws_losses_in_pair_order(
        self, instance, fields
    ):
        """Under a loss channel the override aborts the same exchanges,
        charges the same ledger and consumes both streams alike."""
        from repro.dynamics.schedule import LossChannel
        from repro.gossip.randomized import RandomizedGossip

        graph, values = instance
        if fields is not None:
            values = np.column_stack([values * (1 + k) for k in range(fields)])
        owners = spawn_rng(3, "owners").integers(graph.n, size=300)
        runs = []
        for hook in (RandomizedGossip.tick_block, AsynchronousGossip.tick_block):
            algorithm = make_algorithm("randomized", graph)
            algorithm.loss_channel = LossChannel(0.2, spawn_rng(3, "loss"))
            out = values.copy()
            counter = TransmissionCounter()
            stream = DrawStream(spawn_rng(3, "proto"))
            hook(algorithm, owners, out, counter, stream)
            runs.append(
                (
                    out.tobytes(),
                    counter.snapshot(),
                    algorithm.failed_exchanges,
                    stream.random(),
                    algorithm.loss_channel.attempt(1),
                )
            )
        assert runs[0][2] > 0  # the channel did sever exchanges
        assert runs[0] == runs[1]

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


class TestTickWindowHooks:
    """Randomized gossip's stride-1 window against the base window loop."""

    @staticmethod
    def _window(hook, algorithm, values, count, seed):
        counter = TransmissionCounter()
        rng = spawn_rng(seed, "window")
        stream = LegacyDrawStream(rng)
        hook(algorithm, count, values, counter, stream)
        stream.close()
        return values.tobytes(), counter.snapshot(), rng.bit_generator.state

    def test_randomized_window_skips_isolated_owners_like_tick(self):
        from repro.gossip.randomized import RandomizedGossip

        # A path 0-1-2 plus an isolated node 3.
        neighbors = [
            np.array([1]),
            np.array([0, 2]),
            np.array([1]),
            np.array([], dtype=int),
        ]
        runs = [
            self._window(hook, RandomizedGossip(neighbors), np.arange(4.0), 60, 3)
            for hook in (RandomizedGossip.tick_window, AsynchronousGossip.tick_window)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("fields", [None, 3], ids=["scalar", "k3"])
    def test_randomized_window_draws_losses_in_pair_order(self, instance, fields):
        from repro.dynamics.schedule import LossChannel
        from repro.gossip.randomized import RandomizedGossip

        graph, values = instance
        if fields is not None:
            values = np.column_stack([values * (1 + k) for k in range(fields)])
        runs = []
        for hook in (RandomizedGossip.tick_window, AsynchronousGossip.tick_window):
            algorithm = make_algorithm("randomized", graph)
            algorithm.loss_channel = LossChannel(0.2, spawn_rng(3, "loss"))
            run = self._window(hook, algorithm, values.copy(), 300, 3)
            runs.append(
                (*run, algorithm.failed_exchanges, algorithm.loss_channel.attempt(1))
            )
        assert runs[0][3] > 0  # the channel did sever exchanges
        assert runs[0] == runs[1]


class TestBatchingCapability:
    def test_classification(self, instance):
        graph, _ = instance
        # Every tick-driven protocol gets the strided fast path.
        assert batching_capability(ScalarOnlyGossip) == "block"
        assert batching_capability(ScalarOnlyGossip(graph.n)) == "block"
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


class TestTickOnlyProtocols:
    def test_strided_run_is_silent_and_converges(self, instance):
        """A protocol with only ``tick`` runs strided with no warning."""
        graph, values = instance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_batched(
                ScalarOnlyGossip(graph.n),
                values,
                0.25,
                spawn_rng(7, "run"),
                check_stride=4,
            )
        assert result.converged


class TestUncenteredFieldWarning:
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
                HierarchicalGossip(graph),
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
                HierarchicalGossip(graph),
                state,
                0.25,
                spawn_rng(7, "run"),
            )
        filenames = self._filenames(captured, MultiFieldFallbackWarning)
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
