"""Live-metrics contracts: registry exactness, span profiling, scraping.

The metrics layer's headline guarantee mirrors the event recorder's:
collection is *purely observational*.  A run under an active
:class:`~repro.observability.metrics.MetricsRegistry` and
:class:`~repro.observability.profile.SpanProfiler` is bit-identical in
values, ticks, and transmissions to the same run with both off (neither
ever consumes RNG; the off path is one ``is None`` branch).  This module
asserts that across the golden protocol registry, plus the registry
battery itself (label cardinality, thread-safety under concurrent
increments, the disabled-mode zero-allocation path),
the span profiler, the Prometheus text exposition, the scrape endpoint,
and the live ``serve-sweep --metrics-port`` integration.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.error
import urllib.request
from collections import Counter

import pytest

from protocol_equivalence import (
    CASES,
    assert_results_identical,
    case_names,
    initial_values,
    run_engine,
)
from repro.dynamics import DynamicGossip, DynamicSubstrate, FaultSpec
from repro.engine.batching import run_batched
from repro.engine.executor import execute_cell, expand_grid
from repro.engine.queue import LeaseQueue
from repro.engine.service import (
    _update_service_metrics,
    diff_stores,
    run_distributed_sweep,
)
from repro.engine.store import ResultStore, atomic_write_text
from repro.experiments import ExperimentConfig
from repro.gossip.geographic import GeographicGossip
from repro.gossip.hierarchical.rounds import HierarchicalGossip
from repro.gossip.randomized import RandomizedGossip
from repro.graphs.rgg import RandomGeometricGraph
from repro.observability import metrics, profile
from repro.observability.metrics import CONTENT_TYPE, MetricsRegistry
from repro.observability.profile import SpanProfiler, render_table
from repro.observability.server import MetricsServer
from repro.observability.telemetry import (
    CACHE_SERIES,
    FAULT_SERIES,
    LIVE_FRACTION_GAUGE,
    cache_stats,
)

import numpy as np

STRIDES = (1, 4)

#: One exposition-format line: ``name{labels} value`` or ``name value``.
_SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? '
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$"
)


def assert_valid_exposition(text: str) -> dict:
    """Parse Prometheus text exposition 0.0.4; returns ``{series: value}``.

    Every non-comment line must match the sample grammar, every sample
    must follow a ``# TYPE`` for its family, and the text must end with
    a newline — the same checks a scraper's parser would make.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    typed: set[str] = set()
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, kind = rest.rsplit(" ", 1)
            assert kind in {"counter", "gauge", "untyped"}
            typed.add(name)
            continue
        if line.startswith("#"):
            continue
        assert _SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"
        series, _, value = line.rpartition(" ")
        family = series.split("{", 1)[0]
        assert family in typed, f"sample {series!r} precedes its # TYPE"
        samples[series] = float(value)
    return samples


class TestRegistryBattery:
    """The registry itself: instruments, labels, rendering, threads."""

    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "X.")
        counter.inc(algorithm="randomized")
        counter.inc(2.5, algorithm="randomized")
        counter.inc(algorithm="geographic", mode="uniform")
        assert counter.value(algorithm="randomized") == 3.5
        assert counter.value(algorithm="geographic", mode="uniform") == 1.0
        assert counter.value() == 0.0
        assert len(counter.labels()) == 2

    def test_label_order_is_not_cardinality(self):
        """Label sets are canonicalised: order never forks a series."""
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "X.")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(b="2", a="1") == 2.0
        assert len(counter.labels()) == 1

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "X.")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)
        counter.set_total(5)
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.set_total(4)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_depth", "Depth.")
        gauge.set(7, state="pending")
        gauge.inc(-3, state="pending")
        assert gauge.value(state="pending") == 4.0

    def test_get_or_create_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_x_total") is registry.counter(
            "repro_x_total"
        )
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("repro_x_total")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("repro-dashes")
        for _ in range(2):  # a rejected label set is never memoised
            with pytest.raises(ValueError, match="invalid label name"):
                registry.counter("repro_x_total").inc(**{"bad-label": "v"})

    def test_label_order_names_one_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "X.")
        counter.inc(algorithm="a", worker=1)
        counter.inc(worker="1", algorithm="a")
        counter.inc(2, worker=1, algorithm="a")
        assert counter.value(algorithm="a", worker="1") == 4.0
        assert counter.labels() == [(("algorithm", "a"), ("worker", "1"))]

    def test_thread_safety_under_concurrent_increments(self):
        """W worker threads × N increments lose nothing: exact totals."""
        registry = MetricsRegistry()
        counter = registry.counter("repro_hits_total", "Hits.")
        workers, per_worker = 8, 2500

        def work(worker: int) -> None:
            for _ in range(per_worker):
                counter.inc(worker=str(worker))
                counter.inc()

        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == workers * per_worker
        for worker in range(workers):
            assert counter.value(worker=str(worker)) == per_worker

    def test_render_prometheus_is_valid_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_cells_total", "Cells.").inc(
            3, algorithm="geographic"
        )
        registry.gauge("repro_queue_depth", "Depth.").set(5)
        text = registry.render_prometheus()
        samples = assert_valid_exposition(text)
        assert samples['repro_cells_total{algorithm="geographic"}'] == 3.0
        assert samples["repro_queue_depth"] == 5.0
        assert "# HELP repro_queue_depth Depth." in text

    def test_render_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "X.").inc(
            path='a"b\\c\nend'
        )
        text = registry.render_prometheus()
        assert r'path="a\"b\\c\nend"' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_snapshot_matches_rendered_scalars(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "X.").inc(2, algorithm="spatial")
        registry.gauge("repro_depth", "Depth.").set(0.5)
        snap = registry.snapshot()
        assert snap == {'repro_x_total{algorithm="spatial"}': 2.0,
                        "repro_depth": 0.5}
        assert assert_valid_exposition(registry.render_prometheus()) == snap


class TestDisabledMode:
    """Metrics off (the default) must cost nothing and allocate nothing."""

    def test_active_is_none_by_default(self):
        assert metrics.active() is None
        assert profile.active() is None

    def test_expose_restores_prior_state(self):
        with metrics.expose() as registry:
            assert metrics.active() is registry
            with metrics.expose() as inner:
                assert metrics.active() is inner
            assert metrics.active() is registry
        assert metrics.active() is None

    def test_enable_disable_round_trip(self):
        registry = metrics.enable()
        try:
            assert metrics.active() is registry
        finally:
            metrics.disable()
        assert metrics.active() is None

    def test_disabled_span_is_one_shared_object(self):
        """The zero-allocation path: every disabled span is the same
        singleton, so the hot loop never constructs anything."""
        spans = {id(profile.span(name)) for name in ("a", "b", "c")}
        assert len(spans) == 1
        with profile.span("anything"):
            pass  # and it is a working (no-op) context manager

    def test_disabled_run_records_nothing(self):
        """An instrumented engine path runs clean with everything off."""
        result = run_engine(CASES["randomized"], seed=11, check_stride=4)
        assert result.converged
        assert metrics.active() is None and profile.active() is None


class TestRouteCachePublish:
    """``run_batched`` adds each run's route-cache movement, once."""

    GRAPH = RandomGeometricGraph.sample_connected(
        48, np.random.default_rng(20070801), radius_constant=3.0
    )
    VALUES = np.random.default_rng(4242).normal(size=48)

    @classmethod
    def _faulted_geographic(cls):
        substrate = DynamicSubstrate(
            cls.GRAPH,
            FaultSpec(link_failure_rate=0.1, loss_prob=0.05, epoch_ticks=64),
            seed=1312,
        )
        return DynamicGossip(
            GeographicGossip(substrate, target_mode="uniform"), substrate
        )

    #: name -> (factory, check stride, the counters the run must move).
    RUNS = {
        "geographic-stride1": (
            lambda cls: GeographicGossip(cls.GRAPH, target_mode="uniform"),
            1,
            ("cache_walks",),
        ),
        "geographic-stride16": (
            lambda cls: GeographicGossip(cls.GRAPH, target_mode="uniform"),
            16,
            ("cache_walks",),
        ),
        "hierarchical": (
            lambda cls: HierarchicalGossip(cls.GRAPH),
            1,
            ("cache_hits", "cache_misses"),
        ),
        "geographic-faulted": (
            lambda cls: cls._faulted_geographic(),
            4,
            ("cache_hits", "cache_misses", "cache_invalidations"),
        ),
    }

    @staticmethod
    def _route_totals(registry) -> dict:
        return {
            series: value
            for series, value in registry.counter_totals().items()
            if series.startswith("repro_route_cache_")
        }

    @staticmethod
    def _movement(after: dict, before: dict) -> dict:
        return {
            series: after[key] - before[key]
            for key, (series, _) in CACHE_SERIES.items()
            if after[key] != before[key]
        }

    def _run(self, algorithm, stride, seed=7, epsilon=0.25):
        return run_batched(
            algorithm,
            self.VALUES.copy(),
            epsilon,
            np.random.default_rng(seed),
            check_stride=stride,
        )

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_adds_exactly_the_runs_movement(self, name):
        factory, stride, moved = self.RUNS[name]
        algorithm = factory(type(self))
        with metrics.expose() as registry:
            before = cache_stats(algorithm)
            self._run(algorithm, stride)
            after = cache_stats(algorithm)
            totals = self._route_totals(registry)
        assert totals == self._movement(after, before)
        for key in moved:
            assert totals[CACHE_SERIES[key][0]] > 0, (key, totals)

    def test_two_runs_add_up(self):
        algorithm = GeographicGossip(self.GRAPH, target_mode="uniform")
        with metrics.expose() as registry:
            before = cache_stats(algorithm)
            self._run(algorithm, 4, seed=1)
            self._run(algorithm, 4, seed=2)
            after = cache_stats(algorithm)
            totals = self._route_totals(registry)
        assert totals == self._movement(after, before)
        assert totals["repro_route_cache_walks_total"] == after["cache_walks"]

    def test_no_movement_creates_no_series(self):
        algorithm = GeographicGossip(self.GRAPH, target_mode="uniform")
        with metrics.expose() as registry:
            # Already within ε of the mean: the run stops before a tick.
            result = self._run(algorithm, 1, epsilon=10.0)
            # Randomized gossip has no route cache at all.
            self._run(RandomizedGossip(self.GRAPH.neighbors), 1)
            totals = self._route_totals(registry)
        assert result.ticks == 0
        assert totals == {}


class TestSpanProfiler:
    def test_nested_spans_make_dotted_paths(self):
        profiler = SpanProfiler()
        with profiler.span("run"):
            for _ in range(3):
                with profiler.span("window"):
                    pass
            with profiler.span("check"):
                pass
        spans = {row["span"]: row for row in profiler.hotpath_table()}
        assert set(spans) == {"run", "run.window", "run.check"}
        assert spans["run.window"]["count"] == 3
        assert spans["run"]["count"] == 1

    def test_one_span_handle_reenters(self):
        profiler = SpanProfiler()
        window = profiler.span("window")
        with profiler.span("run"):
            for _ in range(3):
                with window:
                    pass
        with window:
            pass
        spans = {row["span"]: row["count"] for row in profiler.hotpath_table()}
        assert spans == {"run": 1, "run.window": 3, "window": 1}

    def test_module_span_uses_active_profiler(self):
        with profile.capture() as profiler:
            with profile.span("outer"):
                with profile.span("inner"):
                    pass
        assert {row["span"] for row in profiler.hotpath_table()} == {
            "outer",
            "outer.inner",
        }

    def test_table_rows_carry_the_stats(self):
        profiler = SpanProfiler()
        for seconds in (0.1, 0.2, 0.3, 0.4):
            profiler._push("phase")
            profiler._pop("phase", seconds)
        (row,) = profiler.hotpath_table()
        assert row["count"] == 4
        assert row["total"] == pytest.approx(1.0)
        assert row["mean"] == pytest.approx(0.25)
        assert row["p50"] == pytest.approx(0.2)  # nearest-rank: ceil(2)=0.2
        assert row["p99"] == pytest.approx(0.4)

    def test_rows_sorted_by_total_descending(self):
        profiler = SpanProfiler()
        for name, seconds in (("cold", 0.1), ("hot", 5.0), ("warm", 1.0)):
            profiler._push(name)
            profiler._pop(name, seconds)
        assert [row["span"] for row in profiler.hotpath_table()] == [
            "hot",
            "warm",
            "cold",
        ]

    def test_decimation_bounds_samples_but_not_totals(self):
        from repro.observability.profile import SAMPLE_CAP, _SpanStat

        stat = _SpanStat()
        count = SAMPLE_CAP * 4
        for index in range(count):
            stat.add(float(index))
        assert stat.count == count
        assert stat.total == pytest.approx(count * (count - 1) / 2)
        assert len(stat.samples) < SAMPLE_CAP
        assert stat.stride > 1
        # Percentiles still track the distribution's scale.
        assert stat.percentile(0.99) >= 0.9 * count

    def test_threads_keep_independent_stacks(self):
        profiler = SpanProfiler()
        barrier = threading.Barrier(2)

        def work(name: str) -> None:
            with profiler.span(name):
                barrier.wait(timeout=10)
                with profiler.span("inner"):
                    pass

        threads = [
            threading.Thread(target=work, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = {row["span"] for row in profiler.hotpath_table()}
        assert spans == {"a", "b", "a.inner", "b.inner"}

    def test_render_table_aligns_and_formats(self):
        text = render_table(
            [
                {
                    "span": "run.window",
                    "count": 12,
                    "total": 1.5,
                    "mean": 0.125,
                    "p50": 0.1,
                    "p99": 0.4,
                }
            ]
        )
        lines = text.splitlines()
        assert lines[0].split() == ["span", "count", "total", "mean", "p50", "p99"]
        assert "run.window" in lines[1]
        assert "1.500s" in lines[1]
        assert "125.0ms" in lines[1]
        assert render_table([]) == "(no spans recorded)"


@pytest.mark.parametrize("check_stride", STRIDES)
@pytest.mark.parametrize("name", case_names())
def test_metrics_on_runs_are_bit_identical(name, check_stride):
    """The acceptance contract: registry + profiler never touch RNG, so
    every golden config is bit-identical with both enabled."""
    case = CASES[name]
    plain = run_engine(case, seed=7, check_stride=check_stride)
    with metrics.expose() as registry, profile.capture() as profiler:
        instrumented = run_engine(case, seed=7, check_stride=check_stride)
    assert_results_identical(
        plain, instrumented, f"{name}, stride {check_stride}, metrics on"
    )
    if case.tick_driven and check_stride > 1:
        # The instrumented engine loop ran: its counters must be exact.
        algorithm = case.factory()
        ticks = registry.counter("repro_engine_ticks_total").value(
            algorithm=algorithm.name
        )
        assert ticks == instrumented.ticks
        assert len(profiler) > 0


@pytest.mark.parametrize("check_stride", [1, 4])
def test_every_stride_records_spans_and_engine_metrics(check_stride):
    """One tick driver serves every stride, so the CLI's default stride 1
    is instrumented exactly like the strided path."""
    case = CASES["geographic-uniform"]
    with metrics.expose() as registry, profile.capture() as profiler:
        result = run_engine(case, seed=7, check_stride=check_stride)
    name = case.factory().name
    checks = registry.counter("repro_engine_checks_total").value(algorithm=name)
    assert registry.counter("repro_engine_runs_total").value(algorithm=name) == 1
    assert (
        registry.counter("repro_engine_ticks_total").value(algorithm=name)
        == result.ticks
    )
    assert checks >= 1
    spans = {row["span"]: row["count"] for row in profiler.hotpath_table()}
    assert spans["window"] >= checks and spans["check"] == checks


def test_engine_series_update_once_per_run(monkeypatch):
    """Each ``repro_engine_*`` series is written once per run, however
    many windows the run takes: the loop keeps its counts in locals."""
    writes = []
    for cls, method in (
        (metrics.Counter, "_add"),
        (metrics.Gauge, "_add"),
        (metrics.Gauge, "_set"),
    ):
        original = getattr(cls, method)

        def counted(self, key, value, _original=original):
            writes.append(self.name)
            _original(self, key, value)

        monkeypatch.setattr(cls, method, counted)
    windows = []
    for epsilon in (0.3, 0.02):
        writes.clear()
        with metrics.expose(), profile.capture() as profiler:
            run_batched(
                CASES["randomized"].factory(),
                initial_values(),
                epsilon,
                np.random.default_rng(7),
            )
        spans = {row["span"]: row["count"] for row in profiler.hotpath_table()}
        windows.append(spans["window"])
        assert Counter(writes) == {
            "repro_engine_runs_total": 1,
            "repro_engine_ticks_total": 1,
            "repro_engine_checks_total": 1,
            "repro_engine_error": 1,
        }
    assert 1 < windows[0] < windows[1]


def _churned_geographic():
    substrate = DynamicSubstrate(
        TestRouteCachePublish.GRAPH,
        FaultSpec(
            churn_rate=0.1, recover_rate=0.3, loss_prob=0.08, epoch_ticks=64
        ),
        seed=1312,
    )
    return DynamicGossip(
        GeographicGossip(substrate, target_mode="uniform"), substrate
    )


#: name -> factory of a fault-wrapped protocol whose churn moves.
FAULTED = {
    "geographic-churned": _churned_geographic,
    "path-averaging-faulted": CASES["path-averaging-faulted"].factory,
    "randomized-faulted": CASES["randomized-faulted"].factory,
}


@pytest.mark.parametrize("name", sorted(FAULTED))
def test_fault_counters_populate_under_churn(name):
    """A faulted run's ``repro_fault_*`` series are exactly the counts
    the run keeps: its fault metrics and its ``route_lost`` category."""
    algorithm = FAULTED[name]()
    with metrics.expose() as registry:
        result = run_batched(
            algorithm,
            initial_values(),
            0.1,
            np.random.default_rng(7),
            check_stride=4,
        )
    faults = algorithm.fault_metrics(result.values, result.initial_values)
    expected = {
        "crashes": faults["crashes"],
        "recoveries": faults["recoveries"],
        "wasted_ticks": faults["wasted_ticks"],
        "route_lost": result.transmissions.get("route_lost", 0),
    }
    assert expected["crashes"] > 0 and expected["wasted_ticks"] > 0
    if name != "randomized-faulted":  # randomized loses single hops only
        assert expected["route_lost"] > 0
    for key, (series, _) in FAULT_SERIES.items():
        assert registry.counter(series).value() == expected[key], key
    live = registry.gauge(LIVE_FRACTION_GAUGE[0]).value()
    assert live == faults["live_fraction"] < 1.0


def _families(registry, prefix: str) -> set:
    return {
        series.split("{", 1)[0]
        for series in registry.snapshot()
        if series.startswith(prefix)
    }


def test_run_that_makes_no_check_sets_no_engine_error():
    """A run already within ε stops before a tick: it counts as a run
    and writes no tick, check or error series."""
    with metrics.expose() as registry:
        result = run_batched(
            GeographicGossip(TestRouteCachePublish.GRAPH, target_mode="uniform"),
            TestRouteCachePublish.VALUES.copy(),
            10.0,
            np.random.default_rng(7),
        )
    assert result.ticks == 0
    assert _families(registry, "repro_engine_") == {"repro_engine_runs_total"}
    assert registry.counter("repro_engine_runs_total").value(
        algorithm="geographic"
    ) == 1.0


def test_unfaulted_run_publishes_no_fault_series():
    with metrics.expose() as registry:
        result = run_batched(
            GeographicGossip(TestRouteCachePublish.GRAPH, target_mode="uniform"),
            TestRouteCachePublish.VALUES.copy(),
            0.1,
            np.random.default_rng(7),
            check_stride=4,
        )
    assert result.ticks > 0
    assert "repro_engine_ticks_total" in _families(registry, "repro_engine_")
    assert _families(registry, "repro_fault_") == set()


def test_loss_without_churn_publishes_only_lost_transmissions():
    """With no churn, the lost-transmission counter alone moves: no
    crash or recovery series and no live-fraction gauge appear."""
    substrate = DynamicSubstrate(
        TestRouteCachePublish.GRAPH,
        FaultSpec(loss_prob=0.08, epoch_ticks=64),
        seed=1312,
    )
    algorithm = DynamicGossip(
        GeographicGossip(substrate, target_mode="uniform"), substrate
    )
    with metrics.expose() as registry:
        result = run_batched(
            algorithm,
            TestRouteCachePublish.VALUES.copy(),
            0.1,
            np.random.default_rng(7),
            check_stride=4,
        )
    lost = result.transmissions.get("route_lost", 0)
    assert lost > 0
    assert substrate.crashes == substrate.recoveries == 0
    assert _families(registry, "repro_fault_") == {
        "repro_fault_lost_transmissions_total"
    }
    assert registry.counter("repro_fault_lost_transmissions_total").value() == lost


def test_fault_counters_of_two_runs_add_up():
    """The wrapper's churn and dead-tick counts are cumulative over its
    life; each run publishes only its own movement, so two runs total
    the wrapper's final counts, and lost transmissions total both runs'."""
    algorithm = _churned_geographic()
    lost, crashes = 0, []
    with metrics.expose() as registry:
        for seed in (7, 8):
            result = run_batched(
                algorithm,
                initial_values(),
                0.1,
                np.random.default_rng(seed),
                check_stride=4,
            )
            lost += result.transmissions.get("route_lost", 0)
            crashes.append(algorithm.substrate.crashes)
    faults = algorithm.fault_metrics(result.values, result.initial_values)
    assert 0 < crashes[0] < crashes[1] == faults["crashes"]
    for key, expected in (
        ("crashes", faults["crashes"]),
        ("recoveries", faults["recoveries"]),
        ("wasted_ticks", faults["wasted_ticks"]),
        ("route_lost", lost),
    ):
        assert registry.counter(FAULT_SERIES[key][0]).value() == expected, key
    live = registry.gauge(LIVE_FRACTION_GAUGE[0]).value()
    assert live == faults["live_fraction"]


class TestQueueStatePublish:
    """The lease queue writes no registry; the coordinator publishes
    completions and reclamations from the queue's own state."""

    def _queue(self, tmp_path, clock):
        cells = expand_grid(
            ExperimentConfig(
                sizes=(32,), trials=2, algorithms=("randomized",)
            )
        )
        return LeaseQueue.create(tmp_path / "q", cells, ttl=10.0, clock=clock)

    def test_completion_is_published_from_queue_state(self, tmp_path):
        clock = FakeClock()
        with metrics.expose() as registry:
            queue = self._queue(tmp_path, clock)
            lease = queue.claim("w0")
            queue.heartbeat(lease)
            clock.now += 2.0
            queue.complete(lease)
            assert registry.snapshot() == {}
            _update_service_metrics(registry, queue, [], tmp_path / "shards")
            snap = registry.snapshot()
        assert snap["repro_cells_completed_total"] == 1.0
        assert snap['repro_worker_cells_total{worker="w0"}'] == 1.0
        assert snap['repro_queue_cells{state="done"}'] == 1.0
        assert snap['repro_queue_cells{state="pending"}'] == 1.0
        assert snap["repro_queue_reclamations_total"] == 0.0

    def test_reclamation_is_published_from_queue_state(self, tmp_path):
        clock = FakeClock()
        with metrics.expose() as registry:
            queue = self._queue(tmp_path, clock)
            assert queue.claim("dead") is not None
            clock.now += 100.0  # way past ttl
            assert queue.claim("live") is not None
            assert registry.snapshot() == {}
            _update_service_metrics(registry, queue, [], tmp_path / "shards")
            snap = registry.snapshot()
        assert snap["repro_queue_reclamations_total"] == 1.0
        assert snap['repro_queue_cells{state="leased"}'] == 1.0
        assert snap["repro_cells_completed_total"] == 0.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestScrapeServer:
    def test_metrics_and_healthz_endpoints(self):
        registry = MetricsRegistry()
        registry.gauge("repro_queue_depth", "Pending cells.").set(5)
        registry.counter("repro_cells_completed_total", "Done.").inc(3)
        with MetricsServer(
            registry, health=lambda: {"queue": {"done": 3}}
        ) as server:
            assert server.port != 0 and server.url is not None
            with urllib.request.urlopen(f"{server.url}/metrics") as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                text = response.read().decode("utf-8")
            samples = assert_valid_exposition(text)
            assert samples["repro_queue_depth"] == 5.0
            assert samples["repro_cells_completed_total"] == 3.0
            with urllib.request.urlopen(f"{server.url}/healthz") as response:
                assert response.status == 200
                health = json.loads(response.read().decode("utf-8"))
            assert health["status"] == "ok"
            assert health["queue"]["done"] == 3

    def test_unknown_path_is_404(self):
        with MetricsServer(MetricsRegistry()) as server:
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(f"{server.url}/nope")
            assert caught.value.code == 404

    def test_stop_is_idempotent_and_start_once(self):
        server = MetricsServer(MetricsRegistry())
        port = server.start()
        with pytest.raises(RuntimeError, match="already started"):
            server.start()
        server.stop()
        server.stop()
        # The port is actually released: a fresh server can bind it.
        rebound = MetricsServer(MetricsRegistry(), port=port)
        assert rebound.start() == port
        rebound.stop()


class TestAtomicWrites:
    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "nested" / "telemetry.json"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text(encoding="utf-8") == "second"
        assert [p.name for p in target.parent.iterdir()] == ["telemetry.json"]


class TestExecutorIntegration:
    CONFIG = ExperimentConfig(
        sizes=(32,), epsilon=0.3, trials=1, algorithms=("geographic",)
    )

    def test_cell_record_under_a_registry_is_the_plain_record(self):
        (cell,) = expand_grid(self.CONFIG)
        plain = execute_cell(self.CONFIG, cell, check_stride=4)
        with metrics.expose() as registry:
            instrumented = execute_cell(self.CONFIG, cell, check_stride=4)
        assert instrumented == plain  # telemetry/timing excluded from ==
        assert sorted(instrumented.telemetry) == sorted(plain.telemetry)
        assert "metric_" not in str(instrumented.telemetry)
        # The run itself still published to the registry, once.
        assert (
            registry.counter("repro_engine_ticks_total").value(
                algorithm="geographic"
            )
            == instrumented.ticks
        )
        # Geographic's strided blocks route through the batched walk.
        walks = instrumented.telemetry["cache_walks"]
        assert walks > 0
        assert registry.counter("repro_route_cache_walks_total").value() == walks

    def test_trial_substrate_is_shared_across_registries(self, monkeypatch):
        """A cell run under a registry reuses the trial's substrate (and
        route cache) that an unobserved cell built, and the registry's
        route-cache series are exactly its own ``cache_*`` movement."""
        from repro.engine import executor

        config = ExperimentConfig(
            sizes=(64,),
            epsilon=0.3,
            trials=1,
            radius_constant=3.0,
            algorithms=("geographic", "path-averaging"),
        )
        builds = []
        build_instance = executor.build_instance
        monkeypatch.setattr(
            executor,
            "build_instance",
            lambda *args: builds.append(args) or build_instance(*args),
        )
        first, second = expand_grid(config)
        executor.clear_substrate()
        try:
            execute_cell(config, first)
            with metrics.expose() as registry:
                record = execute_cell(config, second)
        finally:
            executor.clear_substrate()
        assert len(builds) == 1
        telemetry = record.telemetry
        # Stride-1 path averaging routes through next-hop columns.
        assert telemetry["cache_hits"] + telemetry["cache_misses"] > 0
        for key, (series, _) in CACHE_SERIES.items():
            assert registry.counter(series).value() == telemetry[key], key


class TestServeSweepMetrics:
    CONFIG = ExperimentConfig(
        sizes=(32, 48),
        epsilon=0.3,
        trials=1,
        radius_constant=3.0,
        algorithms=("randomized", "geographic"),
    )

    #: Every family the coordinator's registry holds once a session has
    #: merged: queue state, per-worker throughput, the record-summed
    #: route-cache totals and the merge counters — and nothing else
    #: (docs/observability.md lists the same set).
    COORDINATOR_FAMILIES = {
        "repro_cells_completed_total",
        "repro_merge_appended_total",
        "repro_merge_duplicates_total",
        "repro_merge_traces_total",
        "repro_queue_cells",
        "repro_queue_depth",
        "repro_queue_reclamations_total",
        "repro_worker_cells_per_sec",
        "repro_worker_cells_total",
        *(series for series, _ in CACHE_SERIES.values()),
    }

    def test_live_scrape_during_distributed_sweep(self, tmp_path):
        """The acceptance contract's service half: a live coordinator
        answers /metrics with valid exposition carrying queue, worker,
        and route-cache series — scraped mid-sweep, from on_progress."""
        store = ResultStore(tmp_path / "dist", self.CONFIG, check_stride=4)
        urls: list[str] = []
        scrapes: list[str] = []
        healths: list[dict] = []

        def scrape(stats) -> None:
            base = urls[0]
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
                assert r.headers["Content-Type"] == CONTENT_TYPE
                scrapes.append(r.read().decode("utf-8"))
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as r:
                healths.append(json.loads(r.read().decode("utf-8")))

        records = run_distributed_sweep(
            self.CONFIG,
            store=store,
            queue_dir=tmp_path / "queue",
            workers=2,
            ttl=10.0,
            heartbeat_interval=0.1,
            poll_interval=0.05,
            # Stride 4 exercises the strided engine path, whose
            # geographic cells bank batched walks in their records.
            check_stride=4,
            metrics_port=0,
            on_metrics_url=urls.append,
            on_progress=scrape,
        )
        grid = expand_grid(self.CONFIG)
        assert set(records) == {cell.key for cell in grid}
        assert urls and scrapes
        samples = assert_valid_exposition(scrapes[-1])
        assert "repro_queue_depth" in samples
        assert samples["repro_cells_completed_total"] >= 1
        assert "repro_route_cache_walks_total" in samples
        assert any(
            series.startswith("repro_worker_cells_total{") for series in samples
        )
        assert any(
            series.startswith('repro_queue_cells{state="done"}')
            for series in samples
        )
        # Monotone across scrapes: completions never rewind.
        done = [
            assert_valid_exposition(text)["repro_cells_completed_total"]
            for text in scrapes
        ]
        assert done == sorted(done)
        assert healths[-1]["queue"]["done"] >= 1
        # telemetry.json embeds the same registry snapshot; by the final
        # publish every cell has landed, so the record-derived
        # route-cache totals cover the geographic cells too.
        telemetry = json.loads((tmp_path / "queue" / "telemetry.json").read_text())
        assert telemetry["metrics"]["repro_cells_completed_total"] == len(grid)
        assert telemetry["metrics"]["repro_route_cache_walks_total"] > 0
        families = {series.split("{", 1)[0] for series in telemetry["metrics"]}
        assert families == self.COORDINATOR_FAMILIES

    def test_cli_serve_sweep_prints_metrics_url(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "serve-sweep",
                "--sizes",
                "32",
                "--trials",
                "1",
                "--epsilon",
                "0.3",
                "--algorithms",
                "randomized",
                "--workers",
                "1",
                "--store-dir",
                str(tmp_path / "store"),
                "--queue-dir",
                str(tmp_path / "queue"),
                "--metrics-port",
                "0",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        match = re.search(r"metrics: (http://127\.0\.0\.1:\d+)/metrics", printed)
        assert match, printed

    def test_metrics_endpoint_changes_no_numbers(self, tmp_path):
        """Same config, metrics on vs off: stores are byte-identical."""
        plain = ResultStore(tmp_path / "plain", self.CONFIG)
        for cell in expand_grid(self.CONFIG):
            plain.open().append(execute_cell(self.CONFIG, cell))
        observed = ResultStore(tmp_path / "observed", self.CONFIG)
        run_distributed_sweep(
            self.CONFIG,
            store=observed,
            queue_dir=tmp_path / "queue",
            workers=2,
            ttl=10.0,
            heartbeat_interval=0.1,
            poll_interval=0.05,
            metrics_port=0,
        )
        assert diff_stores(plain.root, observed.root) == []


class TestProfileCommand:
    def test_profile_prints_hotpath_table_and_counters(self, capsys):
        from repro.cli import main

        code = main(
            [
                "profile",
                "--algorithm",
                "geographic",
                "--n",
                "48",
                "--epsilon",
                "0.3",
                "--check-stride",
                "4",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "hotpath table" in printed
        for span in ("build", "run", "run.window", "run.check"):
            assert re.search(rf"^{re.escape(span)}\s", printed, re.M), span
        assert "repro_engine_ticks_total" in printed
        assert "repro_route_cache_walks_total" in printed

    def test_profile_numbers_match_a_plain_run(self, capsys):
        """The command's banner promise: profiling changes no numbers."""
        from repro.cli import main

        args = ["--algorithm", "randomized", "--n", "48", "--epsilon", "0.3"]
        assert main(["profile", *args, "--check-stride", "4"]) == 0
        profiled = capsys.readouterr().out
        assert main(["run", *args, "--check-stride", "4"]) == 0
        plain = capsys.readouterr().out

        def numbers(text: str) -> dict:
            out = {}
            # 'run' prints no ticks row; compare the rows both commands
            # share (the engine result fields).
            for field in ("converged", "final error", "transmissions"):
                match = re.search(rf"{field}\s+\|\s+(\S+)", text)
                assert match, f"{field} row missing"
                out[field] = match.group(1)
            return out

        assert numbers(profiled) == numbers(plain)

    def test_profile_defaults_match_run_defaults(self, capsys):
        """Both commands default to stride 1, so their numbers agree
        without any stride flag (profile's default algorithm is passed
        to 'run', whose own default is hierarchical)."""
        from repro.cli import main

        assert main(["profile"]) == 0
        profiled = capsys.readouterr().out
        assert main(["run", "--algorithm", "geographic"]) == 0
        plain = capsys.readouterr().out

        def numbers(text: str) -> dict:
            out = {}
            for field in ("converged", "transmissions", "ticks"):
                match = re.search(rf"^\s*{field}\s+\|\s+(\S+)", text, re.M)
                assert match, f"{field} row missing"
                out[field] = match.group(1)
            return out

        assert numbers(profiled) == numbers(plain)
        for span in ("run.window", "run.check"):
            assert re.search(rf"^{re.escape(span)}\s", profiled, re.M), span

    def test_profile_leaves_observability_off_afterwards(self):
        from repro.cli import main

        main(["profile", "--algorithm", "randomized", "--n", "32",
              "--epsilon", "0.3"])
        assert metrics.active() is None
        assert profile.active() is None


class TestReplayWorkers:
    @pytest.fixture()
    def traced_store(self, tmp_path):
        from repro.cli import main

        store = tmp_path / "store"
        code = main(
            [
                "sweep",
                "--sizes",
                "32,48",
                "--trials",
                "2",
                "--epsilon",
                "0.3",
                "--algorithms",
                "randomized,geographic",
                "--store-dir",
                str(store),
                "--trace",
            ]
        )
        assert code == 0
        return store

    def test_parallel_replay_output_matches_serial(self, traced_store, capsys):
        from repro.cli import main

        assert main(["replay", str(traced_store)]) == 0
        serial = capsys.readouterr().out
        assert main(["replay", str(traced_store), "--workers", "3"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial  # line order and summary, byte for byte
        assert "8/8 traces replayed and validated" in parallel

    def test_worker_count_capped_by_trace_count(self, tmp_path, capsys):
        """More workers than traces is fine (the pool is clamped)."""
        from repro.cli import main

        out = tmp_path / "run.jsonl"
        main(
            [
                "trace",
                "--algorithm",
                "randomized",
                "--n",
                "32",
                "--epsilon",
                "0.3",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert main(["replay", str(out), "--workers", "8"]) == 0
        assert "1/1 traces replayed and validated" in capsys.readouterr().out
