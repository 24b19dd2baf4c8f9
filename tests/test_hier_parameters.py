"""Unit tests for repro.gossip.hierarchical.parameters."""

import math

import pytest

from repro.gossip.hierarchical import (
    AccuracySchedule,
    ProtocolParameters,
    latency_schedule,
)


class TestAccuracySchedule:
    def test_paper_epsilon_recurrence(self):
        # ε_{r+1} = ε_r / (25 n^{7/2+a})
        schedule = AccuracySchedule(n=1000, epsilon0=0.1, delta0=0.01, a=1.0)
        shrink = 25 * 1000 ** (3.5 + 1.0)
        assert schedule.epsilon(1) == pytest.approx(0.1 / shrink)
        assert schedule.epsilon(2) == pytest.approx(0.1 / shrink**2)

    def test_paper_delta_recurrence(self):
        # δ_{r+1} = δ_r / n^{2 a r}
        schedule = AccuracySchedule(n=100, epsilon0=0.1, delta0=0.01, a=1.0)
        for r in range(4):
            assert schedule.delta(r + 1) == pytest.approx(
                schedule.delta(r) / 100 ** (2.0 * r)
            )

    def test_practical_mode_geometric(self):
        schedule = AccuracySchedule(
            n=100, epsilon0=0.2, delta0=0.01, mode="practical", decay=0.5
        )
        assert schedule.epsilon(0) == 0.2
        assert schedule.epsilon(2) == pytest.approx(0.05)
        assert schedule.delta(3) == 0.01

    def test_epsilon_decreases_with_depth(self):
        for mode in ("paper", "practical"):
            schedule = AccuracySchedule(
                n=64, epsilon0=0.3, delta0=0.1, mode=mode
            )
            assert schedule.epsilon(0) > schedule.epsilon(1) > schedule.epsilon(2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            AccuracySchedule(n=1, epsilon0=0.1, delta0=0.1)
        with pytest.raises(ValueError):
            AccuracySchedule(n=10, epsilon0=0.0, delta0=0.1)
        with pytest.raises(ValueError):
            AccuracySchedule(n=10, epsilon0=0.1, delta0=1.5)
        with pytest.raises(ValueError):
            AccuracySchedule(n=10, epsilon0=0.1, delta0=0.1, mode="magic")
        with pytest.raises(ValueError):
            AccuracySchedule(n=10, epsilon0=0.1, delta0=0.1, decay=1.0)
        schedule = AccuracySchedule(n=10, epsilon0=0.1, delta0=0.1)
        with pytest.raises(ValueError):
            schedule.epsilon(-1)
        with pytest.raises(ValueError):
            schedule.delta(-1)


class TestLatencySchedule:
    def test_backward_recurrence(self):
        n, factors = 4096, [64, 4]
        schedule = AccuracySchedule(n=n, epsilon0=0.1, delta0=1e-3, a=1.0)
        times = latency_schedule(n, factors, schedule)
        assert len(times) == 3
        # time(r-1) = time(r) * n^a * (log(n_r/ε_r) log(1/δ_r))^16
        for depth in (1, 0):
            eps = schedule.epsilon(depth + 1)
            delta = schedule.delta(depth + 1)
            n_r = factors[depth]
            block = (math.log(n_r / eps) * math.log(1 / delta)) ** 16
            assert times[depth] == pytest.approx(
                times[depth + 1] * n**1.0 * block, rel=1e-9
            )

    def test_latencies_grow_towards_root(self):
        schedule = AccuracySchedule(n=1024, epsilon0=0.1, delta0=1e-2, a=0.5)
        times = latency_schedule(1024, [36, 4], schedule)
        assert times[0] > times[1] > times[2] > 0

    def test_paper_magnitudes_are_astronomical(self):
        # The documented reason simulations use practical schedules.
        schedule = AccuracySchedule(n=1024, epsilon0=0.1, delta0=1e-2, a=1.0)
        times = latency_schedule(1024, [36, 4], schedule)
        assert times[0] > 1e40


class TestProtocolParameters:
    def test_paper_factory(self):
        params = ProtocolParameters.paper(1000, epsilon=0.1, a=1.0)
        assert params.schedule.mode == "paper"
        assert params.schedule.a == 1.0
        assert params.schedule.delta0 == pytest.approx(1e-3)

    def test_practical_factory(self):
        params = ProtocolParameters.practical(1000, epsilon=0.2)
        assert params.schedule.mode == "practical"

    def test_affine_gain_is_two_fifths(self):
        params = ProtocolParameters.practical(100, 0.1)
        assert params.affine_gain == pytest.approx(0.4)

    def test_near_ticks_quadratic(self):
        params = ProtocolParameters.practical(1000, 0.1)
        small = params.near_ticks(8, depth=1)
        large = params.near_ticks(16, depth=1)
        # Doubling occupancy should roughly quadruple the ticks.
        assert 3.0 < large / small < 5.5

    def test_near_ticks_trivial_square(self):
        params = ProtocolParameters.practical(1000, 0.1)
        assert params.near_ticks(1, depth=1) == 0

    def test_exchange_count_shape(self):
        params = ProtocolParameters.practical(1000, 0.1)
        assert params.exchange_count(1, 0) == 0
        four = params.exchange_count(4, 0)
        sixteen = params.exchange_count(16, 0)
        assert sixteen > four > 0

    def test_validation(self):
        schedule = AccuracySchedule(n=10, epsilon0=0.1, delta0=0.1)
        with pytest.raises(ValueError):
            ProtocolParameters(schedule=schedule, affine_gain=0.6)
        with pytest.raises(ValueError):
            ProtocolParameters(schedule=schedule, near_multiplier=0.0)
