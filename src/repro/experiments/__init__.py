"""Experiment harness: configs, runners, sweeps, and ASCII tables.

Every benchmark in ``benchmarks/`` is a thin wrapper over this package so
that experiments are reproducible from library code alone:

* :mod:`repro.experiments.config` — experiment configuration dataclasses
  and the algorithm registry.
* :mod:`repro.experiments.runner` — convergence runs, n-sweeps, slope
  fitting, trial aggregation.
* :mod:`repro.experiments.tables` — fixed-width table rendering for
  paper-vs-measured rows.
* :mod:`repro.experiments.seeds` — deterministic seed derivation.

Execution itself is delegated to :mod:`repro.engine` (batched ticks,
parallel sweep workers, resumable result stores); the runners here are
the experiment-facing API over that engine.
"""

from repro.experiments.config import (
    ALGORITHMS,
    ALGORITHM_CLASSES,
    ExperimentConfig,
    fault_incompatible,
    make_algorithm,
    multifield_support,
    protocol_batching,
    topology_incompatible,
)
from repro.experiments.runner import (
    ConvergenceRun,
    ScalingPoint,
    aggregate_records,
    aggregate_trials,
    fit_loglog_slope,
    run_convergence,
    run_scaling_sweep,
)
from repro.experiments.seeds import derive_seed, spawn_rng
from repro.experiments.tables import format_table, format_value

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_CLASSES",
    "ConvergenceRun",
    "ExperimentConfig",
    "ScalingPoint",
    "aggregate_records",
    "aggregate_trials",
    "derive_seed",
    "fault_incompatible",
    "fit_loglog_slope",
    "format_table",
    "format_value",
    "make_algorithm",
    "multifield_support",
    "protocol_batching",
    "run_convergence",
    "run_scaling_sweep",
    "spawn_rng",
    "topology_incompatible",
]
