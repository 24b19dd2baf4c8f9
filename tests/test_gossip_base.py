"""Unit tests for repro.gossip.base (via a minimal concrete algorithm)."""

import numpy as np
import pytest

from repro.gossip.base import DEFAULT_BLOCK_SIZE, AsynchronousGossip, DrawStream
from repro.routing import TransmissionCounter


class PairAverager(AsynchronousGossip):
    """Smallest possible gossip: average with the next node (mod n)."""

    name = "pair-averager"

    def tick(self, node, values, counter, rng):
        partner = (node + 1) % self.n
        average = 0.5 * (values[node] + values[partner])
        values[node] = average
        values[partner] = average
        counter.charge(2, "near")


class FrozenAlgorithm(AsynchronousGossip):
    """Never changes anything; for budget-exhaustion tests."""

    name = "frozen"

    def tick(self, node, values, counter, rng):
        counter.charge(1, "noop")


class TestRunDriver:
    def test_converges_and_reports(self):
        algo = PairAverager(8)
        rng = np.random.default_rng(3)
        x0 = np.arange(8.0)
        result = algo.run(x0, epsilon=0.01, rng=rng)
        assert result.converged
        assert result.error <= 0.01
        assert result.algorithm == "pair-averager"
        np.testing.assert_allclose(result.values.mean(), x0.mean())

    def test_initial_values_untouched(self):
        algo = PairAverager(5)
        x0 = np.arange(5.0)
        saved = x0.copy()
        algo.run(x0, epsilon=0.1, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(x0, saved)

    def test_result_contains_transmissions(self):
        algo = PairAverager(6)
        result = algo.run(
            np.arange(6.0), epsilon=0.05, rng=np.random.default_rng(2)
        )
        assert result.total_transmissions == result.transmissions["near"]
        assert result.total_transmissions == 2 * result.ticks

    def test_budget_exhaustion_reports_not_converged(self):
        algo = FrozenAlgorithm(4)
        result = algo.run(
            np.array([0.0, 1.0, 2.0, 3.0]),
            epsilon=0.01,
            rng=np.random.default_rng(5),
            max_ticks=100,
        )
        assert not result.converged
        assert result.ticks == 100
        assert result.error == pytest.approx(1.0)

    def test_already_converged_input(self):
        algo = PairAverager(4)
        result = algo.run(
            np.ones(4), epsilon=0.5, rng=np.random.default_rng(7)
        )
        assert result.converged
        assert result.ticks == 0
        assert result.total_transmissions == 0

    def test_trace_starts_at_zero_and_ends_at_final(self):
        algo = PairAverager(8)
        result = algo.run(
            np.arange(8.0), epsilon=0.01, rng=np.random.default_rng(11)
        )
        assert result.trace.points[0].transmissions == 0
        assert result.trace.points[0].error == pytest.approx(1.0)
        assert result.trace.final_error == pytest.approx(result.error)

    def test_rejects_bad_epsilon(self):
        algo = PairAverager(4)
        with pytest.raises(ValueError):
            algo.run(np.arange(4.0), epsilon=0.0, rng=np.random.default_rng(1))

    def test_rejects_wrong_shape(self):
        algo = PairAverager(4)
        with pytest.raises(ValueError):
            algo.run(np.arange(5.0), epsilon=0.1, rng=np.random.default_rng(1))

    def test_rejects_tiny_networks(self):
        with pytest.raises(ValueError):
            PairAverager(1)

    def test_check_every_controls_trace_density(self):
        algo = PairAverager(8)
        dense = algo.run(
            np.arange(8.0),
            epsilon=0.01,
            rng=np.random.default_rng(13),
            check_every=1,
            trace_thinning=0.0,
        )
        sparse = algo.run(
            np.arange(8.0),
            epsilon=0.01,
            rng=np.random.default_rng(13),
            check_every=50,
            trace_thinning=0.0,
        )
        assert len(dense.trace) > len(sparse.trace)


class TestDrawStream:
    """The stride >= 2 draw source: ``Generator.random``'s doubles, in order."""

    #: Draws skipped before each check, so that it crosses a chunk refill.
    SKIP = DEFAULT_BLOCK_SIZE - 7

    def test_interleaved_draws_consume_the_generator_doubles(self):
        stream = DrawStream(np.random.default_rng(11))
        doubles = np.random.default_rng(11).random(self.SKIP + 64).tolist()
        stream.random(self.SKIP)
        expected = iter(doubles[self.SKIP :])
        for step in range(12):
            u = stream.random()
            assert isinstance(u, float) and u == next(expected)
            pair = stream.random(2)
            assert pair.shape == (2,)
            assert pair.tolist() == [next(expected), next(expected)]
            k = 3 + step
            assert stream.integers(k) == int(next(expected) * k)
            lo, hi = -0.25 * step, 1.5
            assert stream.uniform(lo, hi) == lo + (hi - lo) * next(expected)
        # 12 rounds of 5 doubles: the next draw is double SKIP + 60.
        assert stream.random() == doubles[self.SKIP + 60]

    def test_random_matches_the_generator_across_refills(self):
        stream = DrawStream(np.random.default_rng(4))
        reference = np.random.default_rng(4)
        for size in (self.SKIP, 3, 7, 1, 2 * DEFAULT_BLOCK_SIZE + 5, 0):
            np.testing.assert_array_equal(
                stream.random(size), reference.random(size)
            )
        assert stream.random() == reference.random()

    def test_uniform_matches_generator_uniform(self):
        stream = DrawStream(np.random.default_rng(8))
        reference = np.random.default_rng(8)
        for bound in (1e-4, 0.3, 2.0):
            assert stream.uniform(-bound, bound) == reference.uniform(
                -bound, bound
            )
