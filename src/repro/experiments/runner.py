"""Experiment runners: convergence runs, scaling sweeps, slope fits.

The scaling sweep is the headline (experiment E7): for each ``n`` and each
algorithm, run to the target ε on the same placement and field, record
transmissions, and fit per-algorithm log-log slopes — the paper's claimed
exponents are ≈2 (randomized), ≈1.5 (geographic), ≈1+o(1) (hierarchical).

Execution goes through :mod:`repro.engine`: the sweep grid is expanded
into independent ``(algorithm, n, trial)`` cells with deterministically
spawned seeds, optionally fanned across worker processes and persisted to
a resumable :class:`~repro.engine.store.ResultStore`.  The defaults
(``workers=1, check_stride=1``) reproduce the historical serial runner
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.engine.batching import run_batched
from repro.engine.executor import (
    CellKey,
    CellRecord,
    build_cell_algorithm,
    build_instance,
    run_sweep_records,
)
from repro.engine.store import ResultStore
from repro.experiments.config import ExperimentConfig
from repro.experiments.seeds import spawn_rng
from repro.gossip.base import GossipRunResult

__all__ = [
    "ConvergenceRun",
    "ScalingPoint",
    "run_convergence",
    "run_scaling_sweep",
    "aggregate_trials",
    "aggregate_records",
    "fit_loglog_slope",
]


@dataclass
class ConvergenceRun:
    """One algorithm's run on one placement/field."""

    algorithm: str
    n: int
    trial: int
    result: GossipRunResult

    @property
    def transmissions(self) -> int:
        return self.result.total_transmissions

    @property
    def converged(self) -> bool:
        return self.result.converged


@dataclass
class ScalingPoint:
    """Aggregated transmissions for one (algorithm, n) cell.

    ``wall_clock_mean`` is the mean per-cell run time in seconds; it is
    ``None`` when any contributing record predates per-cell timing (old
    stores), mirroring the record-level omitted-when-absent rule.  Like
    :class:`~repro.engine.executor.CellRecord`'s timing fields it is
    excluded from equality: two points with identical numbers are the
    same point no matter how long the machine took to produce them.
    """

    algorithm: str
    n: int
    transmissions_mean: float
    transmissions_std: float
    converged_fraction: float
    trials: int
    wall_clock_mean: float | None = field(default=None, compare=False)


def run_convergence(
    config: ExperimentConfig,
    n: int,
    trial: int = 0,
    trace_thinning: float = 0.02,
    check_stride: int = 1,
) -> list[ConvergenceRun]:
    """Run every configured algorithm on one shared placement and field.

    With ``config.faults`` enabled every algorithm additionally runs on
    its own :class:`~repro.dynamics.overlay.DynamicSubstrate` realising
    the *same* fault scenario (the schedule seed depends only on
    ``(root_seed, n, trial)``), so the comparison stays apples to apples.
    """
    graph, values = build_instance(config, n, trial)
    runs = []
    for name in config.algorithms:
        algorithm = build_cell_algorithm(config, graph, name, n, trial)
        run_rng = spawn_rng(config.root_seed, "run", name, n, trial)
        result = run_batched(
            algorithm,
            values,
            config.epsilon,
            run_rng,
            check_stride=check_stride,
            trace_thinning=trace_thinning,
        )
        runs.append(ConvergenceRun(algorithm=name, n=n, trial=trial, result=result))
    return runs


def run_scaling_sweep(
    config: ExperimentConfig,
    *,
    workers: int = 1,
    check_stride: int = 1,
    store: ResultStore | None = None,
    trace: bool = False,
) -> dict[str, list[ScalingPoint]]:
    """The E7 sweep: transmissions-to-ε for every algorithm and size.

    Parameters
    ----------
    config:
        Sweep definition; the root seed fixes every cell's randomness.
    workers:
        Grid cells run inline when ``1``, across a process pool otherwise;
        results are identical either way (per-cell seed spawning).
    check_stride:
        Engine error-check stride; ``1`` is the bit-identical legacy path.
    store:
        Optional result store — finished cells are persisted as they
        complete and already-stored cells are skipped (resume semantics).
    trace:
        Write each freshly executed cell's structured event trace under
        ``<store.directory>/traces/`` (requires ``store``); see
        :func:`repro.engine.executor.run_sweep_records`.
    """
    records = run_sweep_records(
        config,
        workers=workers,
        check_stride=check_stride,
        store=store,
        trace=trace,
        stacklevel=3,
    )
    return aggregate_records(config, records)


def _aggregate_point(
    algorithm: str,
    n: int,
    totals: list[int],
    converged: list[bool],
    wall_clocks: "list[float | None] | None" = None,
) -> ScalingPoint:
    """The one aggregation formula both result paths share.

    ``wall_clock_mean`` is only computed when *every* trial carries a
    timing — a mean over a mixed old/new store would silently average a
    different trial population than the transmissions column.
    """
    counts = np.array(totals, dtype=np.float64)
    wall_clock_mean = None
    if wall_clocks and all(clock is not None for clock in wall_clocks):
        wall_clock_mean = float(np.mean(wall_clocks))
    return ScalingPoint(
        algorithm=algorithm,
        n=n,
        transmissions_mean=float(counts.mean()),
        transmissions_std=float(counts.std()),
        converged_fraction=float(np.mean(converged)),
        trials=len(totals),
        wall_clock_mean=wall_clock_mean,
    )


def aggregate_trials(
    algorithm: str, n: int, results: list[GossipRunResult]
) -> ScalingPoint:
    """Mean/std of transmissions over a point's trials."""
    if not results:
        raise ValueError("need at least one result to aggregate")
    return _aggregate_point(
        algorithm,
        n,
        [r.total_transmissions for r in results],
        [r.converged for r in results],
    )


def aggregate_records(
    config: ExperimentConfig, records: Mapping[CellKey, CellRecord]
) -> dict[str, list[ScalingPoint]]:
    """Fold engine cell records into per-algorithm scaling points.

    Trials are aggregated in trial order so the floating-point results
    match the historical serial runner exactly.  Cells missing from
    ``records`` (a partially completed store) are simply left out, and an
    ``(algorithm, n)`` point with no finished trials is omitted.
    """
    sweep: dict[str, list[ScalingPoint]] = {name: [] for name in config.algorithms}
    for name in config.algorithms:
        for n in config.sizes:
            cells = [
                records[(name, n, trial)]
                for trial in range(config.trials)
                if (name, n, trial) in records
            ]
            if not cells:
                continue
            sweep[name].append(
                _aggregate_point(
                    name,
                    n,
                    [c.total_transmissions for c in cells],
                    [c.converged for c in cells],
                    [c.wall_clock for c in cells],
                )
            )
    return sweep


def fit_loglog_slope(sizes: np.ndarray, costs: np.ndarray) -> float:
    """Least-squares slope of ``log(cost)`` against ``log(n)``.

    This is the measured exponent: the paper claims ≈2 / ≈1.5 / ≈1+o(1)
    for the three algorithms.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    if sizes.size != costs.size or sizes.size < 2:
        raise ValueError("need matching arrays of at least two points")
    if (sizes <= 0).any() or (costs <= 0).any():
        raise ValueError("sizes and costs must be positive for a log-log fit")
    slope = np.polyfit(np.log(sizes), np.log(costs), deg=1)[0]
    return float(slope)
