"""Unit tests for repro.gossip.spatial (Kempe–Kleinberg baseline)."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip import SpatialGossip
from repro.graphs import RandomGeometricGraph


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(283)
    return RandomGeometricGraph.sample_connected(128, rng, radius_constant=2.5)


class TestConstruction:
    def test_rejects_negative_rho(self, graph):
        with pytest.raises(ValueError):
            SpatialGossip(graph, rho=-1.0)

    def test_cdfs_are_distributions(self, graph):
        algo = SpatialGossip(graph, rho=2.0)
        for u in (0, 5, graph.n - 1):
            cdf = algo._cumulative[u]
            assert cdf[-1] == pytest.approx(1.0)
            assert (np.diff(cdf) >= -1e-12).all()

    def test_rho_zero_is_uniform(self, graph):
        algo = SpatialGossip(graph, rho=0.0)
        cdf = algo._cumulative[0]
        pmf = np.diff(np.concatenate([[0.0], cdf]))
        expected = np.full(graph.n, 1.0 / (graph.n - 1))
        expected[0] = 0.0
        np.testing.assert_allclose(pmf, expected, atol=1e-12)

    def test_high_rho_prefers_near_targets(self, graph):
        algo = SpatialGossip(graph, rho=4.0)
        rng = np.random.default_rng(3)
        node = 0
        positions = graph.positions
        draws = []
        for _ in range(300):
            target = int(np.searchsorted(algo._cumulative[node], rng.random()))
            draws.append(
                np.hypot(*(positions[min(target, graph.n - 1)] - positions[node]))
            )
        uniform_mean_distance = np.mean(
            [np.hypot(*(p - positions[node])) for p in positions[1:]]
        )
        assert np.mean(draws) < 0.6 * uniform_mean_distance


class TestExecution:
    def test_converges(self, graph):
        algo = SpatialGossip(graph, rho=2.0)
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=graph.n)
        result = algo.run(x0, epsilon=0.15, rng=rng)
        assert result.converged
        assert result.values.sum() == pytest.approx(x0.sum(), rel=1e-9)

    def test_never_picks_self(self, graph):
        algo = SpatialGossip(graph, rho=1.0)
        rng = np.random.default_rng(7)
        for node in (0, 64, 127):
            for _ in range(200):
                target = int(
                    np.searchsorted(algo._cumulative[node], rng.random())
                )
                assert min(target, graph.n - 1) != node

    def test_rho_interpolates_cost_per_exchange(self, graph):
        # Larger rho = shorter routes = fewer transmissions per tick.
        x0 = np.random.default_rng(11).normal(size=graph.n)
        local = SpatialGossip(graph, rho=6.0).run(
            x0, 0.3, np.random.default_rng(13)
        )
        uniform = SpatialGossip(graph, rho=0.0).run(
            x0, 0.3, np.random.default_rng(13)
        )
        per_tick_local = local.total_transmissions / max(1, local.ticks)
        per_tick_uniform = uniform.total_transmissions / max(1, uniform.ticks)
        assert per_tick_local < per_tick_uniform

    def test_duplicate_positions_handled(self):
        positions = np.vstack(
            [np.full((3, 2), 0.5), np.random.default_rng(17).random((20, 2))]
        )
        graph = RandomGeometricGraph.build(positions, radius=0.6)
        algo = SpatialGossip(graph, rho=2.0)
        x0 = np.random.default_rng(19).normal(size=23)
        result = algo.run(x0, 0.3, np.random.default_rng(23))
        assert result.converged


def _twinned_graph(n: int, seed: int, twins: bool) -> RandomGeometricGraph:
    """An RGG on ``n`` random points; with ``twins``, nodes 1 and
    ``n - 1`` sit exactly on nodes 0 and ``n // 2``."""
    points = np.random.default_rng(seed).random((n, 2))
    if twins:
        points[1] = points[0]
        points[n - 1] = points[n // 2]
    return RandomGeometricGraph.build(points, 0.4)


class TestBatchedTargetSearch:
    """``tick_block``'s one batched search equals ``np.searchsorted`` on
    each owner's own CDF row (``side="left"``), pick by pick."""

    @staticmethod
    def _assert_rowwise_equal(algo, owners, picks):
        owners = np.asarray(owners, dtype=np.int64)
        picks = np.asarray(picks, dtype=np.float64)
        expected = [
            int(np.searchsorted(algo._cumulative[u], p, side="left"))
            for u, p in zip(owners.tolist(), picks.tolist())
        ]
        assert algo._search_targets(owners, picks).tolist() == expected

    @given(
        n=st.integers(2, 40),
        seed=st.integers(0, 2**31 - 1),
        twins=st.booleans(),
        rho=st.one_of(
            st.sampled_from([0.0, 2.0, 60.0]),
            st.floats(0.0, 8.0, allow_nan=False),
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_search_equals_searchsorted(self, n, seed, twins, rho, data):
        algo = SpatialGossip(_twinned_graph(n, seed, twins and n >= 3), rho=rho)
        cdfs = algo._cumulative
        node = st.integers(0, n - 1)
        entry = st.builds(lambda u, v: float(cdfs[u, v]), node, node)
        pick = st.one_of(
            st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
            entry,  # exactly on a CDF entry, the flat step at u included
            entry.map(lambda p: float(np.nextafter(p, 0.0))),
            entry.map(lambda p: float(np.nextafter(p, 1.0))),
            st.sampled_from([0.0, float(np.nextafter(1.0, 0.0))]),
        )
        pairs = data.draw(st.lists(st.tuples(node, pick), max_size=60))
        owners = [u for u, _ in pairs]
        picks = [p for _, p in pairs]
        self._assert_rowwise_equal(algo, owners, picks)

    def test_every_row_at_its_own_flat_step_and_the_ends(self):
        """Each owner at each of its row's entries (so at the repeated
        entry of its own index), at 0.0 and just below 1.0."""
        algo = SpatialGossip(_twinned_graph(33, 7, twins=True), rho=2.0)
        n = algo.n
        owners = np.repeat(np.arange(n), n + 2)
        ends = np.array([0.0, np.nextafter(1.0, 0.0)])
        picks = np.concatenate(
            [np.concatenate([algo._cumulative[u], ends]) for u in range(n)]
        )
        self._assert_rowwise_equal(algo, owners, picks)

    def test_a_row_on_the_uniform_fallback(self):
        """Coincident sensors at a steep ρ weigh ``1e-9 ** -60`` = ``inf``:
        their rows fall back to uniform, and the search still agrees."""
        algo = SpatialGossip(_twinned_graph(17, 3, twins=True), rho=60.0)
        uniform = np.cumsum(np.where(np.arange(17) == 0, 0.0, 1.0) / 16)
        assert algo._cumulative[0].tolist() == uniform.tolist()
        owners = np.repeat([0, 1, 8, 16, 5], 20)
        picks = np.tile(np.concatenate([uniform, [0.0, 0.5, 0.999]]), 5)
        self._assert_rowwise_equal(algo, owners, picks)

    def test_rho_zero_rows_and_an_empty_block(self, graph):
        algo = SpatialGossip(graph, rho=0.0)
        rng = np.random.default_rng(29)
        self._assert_rowwise_equal(
            algo, rng.integers(graph.n, size=500), rng.random(500)
        )
        self._assert_rowwise_equal(algo, [], [])


def _reference_cdfs(positions: np.ndarray, rho: float) -> np.ndarray:
    """The table as a per-row loop builds it: one row's weights, sum,
    fallback and cumulative sum at a time."""
    n = len(positions)
    cdfs = np.empty((n, n), dtype=np.float64)
    for u in range(n):
        diff = positions - positions[u]
        dist = np.hypot(diff[:, 0], diff[:, 1])
        dist = np.maximum(dist, 1e-9)
        dist[u] = np.inf  # never pick yourself
        weights = dist ** (-rho) if rho > 0 else np.ones(n)
        weights[u] = 0.0
        total = weights.sum()
        if not np.isfinite(total) or total <= 0:
            weights = np.ones(n)
            weights[u] = 0.0
            total = weights.sum()
        np.cumsum(weights / total, out=cdfs[u])
    return cdfs


class TestTargetTableBuild:
    """The blocked table equals the per-row loop bit for bit and holds
    one block-sized work array beside it."""

    @given(
        n=st.integers(2, 300),
        seed=st.integers(0, 2**31 - 1),
        placement=st.sampled_from(["random", "twins", "coincident"]),
        rho=st.one_of(
            st.sampled_from([0.0, 2.0, 60.0]),
            st.floats(0.0, 8.0, allow_nan=False),
        ),
        block=st.sampled_from([1, 7, SpatialGossip.TABLE_BLOCK]),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_equals_the_per_row_loop(self, n, seed, placement, rho, block):
        points = np.random.default_rng(seed).random((n, 2))
        if placement == "twins" and n >= 3:
            points[1] = points[0]
            points[n - 1] = points[n // 2]
        elif placement == "coincident":
            points[:] = points[0]  # every row falls back to uniform
        graph = RandomGeometricGraph.build(points, 0.4)
        with np.errstate(over="ignore"):
            expected = _reference_cdfs(graph.positions, rho).tobytes()
        with mock.patch.object(SpatialGossip, "TABLE_BLOCK", block):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                table = SpatialGossip(graph, rho=rho)._cumulative
        assert table.tobytes() == expected, block

    def test_steep_rho_with_twins_builds_without_warnings(self):
        """``1e-9 ** -60`` overflows to ``inf`` on every diagonal and on
        each coincident pair; neither warns, and the twin rows fall back
        to uniform."""
        with mock.patch.object(SpatialGossip, "TABLE_BLOCK", 4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                algo = SpatialGossip(_twinned_graph(17, 3, twins=True), rho=60.0)
        for u in (0, 1, 8, 16):
            uniform = np.cumsum(np.where(np.arange(17) == u, 0.0, 1.0) / 16)
            assert algo._cumulative[u].tolist() == uniform.tolist()

    @pytest.mark.parametrize("n", [1024, 1500])
    def test_the_build_holds_one_block_of_scratch(self, n):
        """Beside the table, the build holds the position columns, one
        ``TABLE_BLOCK × n`` work array and NumPy's ufunc buffers (a
        constant, about 200 KiB): nothing that grows with the number of
        blocks, and no temporary copy of a block."""
        algo = SpatialGossip.__new__(SpatialGossip)
        algo.n, algo.rho = n, 2.0
        algo.graph = _twinned_graph(n, 19, True)
        tracemalloc.start()
        try:
            algo._target_cdfs()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table, work = n * n * 8, SpatialGossip.TABLE_BLOCK * n * 8
        assert peak <= table + work + 2 * n * 8 + 256 * 1024
