"""Unit tests for repro.gossip.base (via a minimal concrete algorithm)."""

import json

import numpy as np
import pytest

from repro.engine.batching import run_batched
from repro.experiments.config import ALGORITHMS, make_algorithm
from repro.gossip.base import (
    DEFAULT_BLOCK_SIZE,
    AsynchronousGossip,
    DrawStream,
    LegacyDrawStream,
)
from repro.graphs.rgg import RandomGeometricGraph
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


#: Bounds of ``integers(k)``: 1 draws nothing, 2**32 - 1 and 2**32 sit at
#: the ends of the 32-bit path, and 3_000_000_001 rejects often (its
#: threshold is 1_294_967_295 of 2**32).
LEGACY_BOUNDS = (1, 2, 7, 512, 2**31 + 7, 3_000_000_001, 2**32 - 1, 2**32)


def _twin_draws(stream, twin, picks, count):
    """``count`` random calls on ``stream`` and ``twin``, side by side."""
    for _ in range(count):
        op = int(picks.integers(4))
        if op == 0:
            k = LEGACY_BOUNDS[int(picks.integers(len(LEGACY_BOUNDS)))]
            got, want = stream.integers(k), twin.integers(k)
            assert type(got) is int
        elif op == 1:
            got, want = stream.random(), twin.random()
        elif op == 2:
            got, want = stream.random(2).tolist(), twin.random(2).tolist()
        else:
            lo, hi = picks.uniform(-2.0, 0.0), picks.uniform(0.0, 3.0)
            got, want = stream.uniform(lo, hi), twin.uniform(lo, hi)
        assert got == want


class DrawingTicker(AsynchronousGossip):
    """Draws an index, a double and a uniform per tick and changes nothing,
    raising on tick ``fail_at``."""

    name = "drawing-ticker"

    def __init__(self, n, fail_at):
        super().__init__(n)
        self.fail_at = fail_at
        self.ticks = 0

    def tick(self, node, values, counter, rng):
        self.ticks += 1
        if self.ticks == self.fail_at:
            raise RuntimeError("tick failed")
        rng.integers(self.n - 1)
        rng.random()
        rng.uniform(-1.0, 1.0)
        counter.charge(1, "noop")


def _disable_stream(monkeypatch):
    monkeypatch.setattr(
        LegacyDrawStream, "open", classmethod(lambda cls, rng: None)
    )


class TestLegacyDrawStream:
    """The stride-1 draw source: a PCG64 generator's scalar calls, exactly."""

    @pytest.mark.parametrize("chunk", [5, LegacyDrawStream.RAW_CHUNK])
    def test_interleaved_draws_match_the_generator(self, monkeypatch, chunk):
        # A 5-word chunk crosses a refill every few calls.
        monkeypatch.setattr(LegacyDrawStream, "RAW_CHUNK", chunk)
        for seed in range(120):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            if seed % 2:  # start with a kept half (has_uint32 == 1)
                assert rng.integers(9) == twin.integers(9)
                assert rng.bit_generator.state["has_uint32"] == 1
            stream = LegacyDrawStream(rng)
            _twin_draws(stream, twin, np.random.default_rng(10_000 + seed), 300)
            stream.close()
            assert rng.bit_generator.state == twin.bit_generator.state
            assert rng.integers(1000, size=8).tolist() == (
                twin.integers(1000, size=8).tolist()
            )
            assert rng.random() == twin.random()

    def test_draws_cross_a_full_chunk(self):
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        stream = LegacyDrawStream(rng)
        skip = LegacyDrawStream.RAW_CHUNK - 3
        assert stream.random(skip).tolist() == twin.random(skip).tolist()
        _twin_draws(stream, twin, np.random.default_rng(4), 50)
        stream.close()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_numpy_bounds_match_the_generator(self):
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        stream = LegacyDrawStream(rng)
        for k in (np.int64(3_000_000_001), np.uint32(7), np.int32(512)):
            got = [stream.integers(k) for _ in range(20)]
            assert got == [int(twin.integers(k)) for _ in range(20)]
            assert all(type(value) is int for value in got)

    def test_bound_one_draws_nothing(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        stream = LegacyDrawStream(rng)
        assert [stream.integers(1) for _ in range(10)] == [0] * 10
        stream.close()
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("k", [0, -3, 2**32 + 1])
    def test_bounds_outside_the_32_bit_path_raise(self, k):
        stream = LegacyDrawStream(np.random.default_rng(1))
        with pytest.raises(ValueError, match="2\\*\\*32"):
            stream.integers(k)

    def test_close_keeps_the_stale_half(self):
        # After a kept half is used NumPy clears has_uint32 but keeps the
        # value in uinteger; close must write back both.
        rng, twin = np.random.default_rng(12), np.random.default_rng(12)
        stream = LegacyDrawStream(rng)
        assert [stream.integers(100) for _ in range(3)] == [
            twin.integers(100) for _ in range(3)
        ]
        stream.close()
        assert twin.bit_generator.state["has_uint32"] == 1
        assert rng.bit_generator.state == twin.bit_generator.state
        stream = LegacyDrawStream(rng)
        assert stream.integers(100) == twin.integers(100)
        stream.close()
        state = twin.bit_generator.state
        assert state["has_uint32"] == 0 and state["uinteger"] != 0
        assert rng.bit_generator.state == state

    def test_open_serves_pcg64_only(self):
        assert isinstance(
            LegacyDrawStream.open(np.random.default_rng(1)), LegacyDrawStream
        )
        for bit_generator in (np.random.MT19937(1), np.random.PCG64DXSM(1)):
            rng = np.random.Generator(bit_generator)
            assert LegacyDrawStream.open(rng) is None

    @pytest.mark.parametrize("fail_at", [1, 2, 37, 5000])  # 5000 crosses a chunk
    def test_close_runs_after_a_tick_raises(self, monkeypatch, fail_at):
        rng = np.random.default_rng(21)
        with pytest.raises(RuntimeError, match="tick failed"):
            DrawingTicker(16, fail_at).run(np.arange(16.0), 0.1, rng)
        _disable_stream(monkeypatch)
        twin = np.random.default_rng(21)
        with pytest.raises(RuntimeError, match="tick failed"):
            DrawingTicker(16, fail_at).run(np.arange(16.0), 0.1, twin)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.random(3).tolist() == twin.random(3).tolist()


def _digest(result, rng):
    # MT19937's state holds an array, so compare the state's JSON.
    state = json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)
    return (
        result.values.tobytes(),
        dict(result.transmissions),
        result.ticks,
        result.converged,
        [(p.transmissions, p.ticks, p.error) for p in result.trace.points],
        state,
    )


class TestLegacyStreamRuns:
    """Every registered protocol at stride 1: the stream changes no number."""

    GRAPH = RandomGeometricGraph.sample_connected(
        96, np.random.default_rng(20070801), radius_constant=3.0
    )
    VALUES = np.random.default_rng(4242).normal(size=96)

    def _run(self, name, rng):
        algorithm = make_algorithm(name, self.GRAPH)
        return run_batched(algorithm, self.VALUES, 0.2, rng, check_stride=1)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_stream_run_equals_the_plain_run(self, monkeypatch, name):
        opened = []
        real_open = LegacyDrawStream.open.__func__

        def spy(cls, rng):
            stream = real_open(cls, rng)
            opened.append(stream)
            return stream

        with monkeypatch.context() as patch:
            patch.setattr(LegacyDrawStream, "open", classmethod(spy))
            rng = np.random.default_rng(17)
            streamed = _digest(self._run(name, rng), rng)
        assert opened and all(
            isinstance(stream, LegacyDrawStream) for stream in opened
        )
        _disable_stream(monkeypatch)
        rng = np.random.default_rng(17)
        assert streamed == _digest(self._run(name, rng), rng)

    @pytest.mark.parametrize("name", ["randomized", "hierarchical"])
    def test_other_bit_generators_take_the_plain_path(self, monkeypatch, name):
        rng = np.random.Generator(np.random.MT19937(17))
        plain = _digest(self._run(name, rng), rng)
        _disable_stream(monkeypatch)
        rng = np.random.Generator(np.random.MT19937(17))
        assert plain == _digest(self._run(name, rng), rng)
