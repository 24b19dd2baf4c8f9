"""High-throughput simulation engine.

The rest of the library describes *what* a gossip protocol does per clock
tick; this package decides *how fast* the ticks get executed.  Four layers
stack to turn the paper's per-tick Python loop into something that can run
large scaling sweeps:

* :mod:`repro.engine.batching` — the entry to the one tick driver
  (:func:`repro.gossip.base.drive_ticks`).  ``check_stride=1`` draws tick
  owners from one interleaved stream and reproduces the legacy
  :meth:`~repro.gossip.base.AsynchronousGossip.run` loop bit for bit;
  strides ``>= 2`` pre-sample owners in vectorized NumPy blocks on a
  split stream and check the oracular error less often, amortizing RNG
  and error-check overhead across thousands of ticks.  Every stride
  records the same window/check spans and engine metrics.
* :mod:`repro.engine.executor` — a parallel sweep executor.  A sweep is
  expanded into independent ``(algorithm, n, trial)`` grid cells whose RNG
  streams are spawned deterministically from the experiment's root seed,
  so fanning cells across ``concurrent.futures`` workers yields results
  identical to a serial run.
* :mod:`repro.engine.store` — a persistent result store.  Completed cells
  append to a JSON-lines file under a content-keyed directory; re-running
  an interrupted sweep skips every finished cell instead of restarting.
* :mod:`repro.engine.queue` and :mod:`repro.engine.service` distribute
  the sweep across *processes that may die*: a file-backed lease queue
  (claim via ``O_CREAT | O_EXCL``, heartbeats, stale-lease reclamation)
  and worker fleets running against it, whose per-worker store shards
  merge back into one canonical store with byte-level divergence
  checking.  Because every cell's randomness derives from the root seed,
  a distributed sweep is bit-identical to a serial one.

``repro.experiments.runner`` and the CLI sit on top of this package; the
benchmarks route through them, so every experiment inherits the engine.
"""

from repro.engine.batching import (
    DEFAULT_BLOCK_SIZE,
    MultiFieldFallbackWarning,
    UncenteredFieldWarning,
    batching_capability,
    run_batched,
    split_streams,
)
from repro.engine.executor import (
    CellRecord,
    SweepCell,
    build_cell_algorithm,
    build_faulted_algorithm,
    build_graph,
    build_instance,
    build_values,
    cell_substrate,
    clear_substrate,
    execute_cell,
    expand_grid,
    run_sweep_records,
)
from repro.engine.queue import Lease, LeaseLost, LeaseQueue, QueueStats, cell_id
from repro.engine.service import (
    diff_stores,
    merge_shards,
    run_distributed_sweep,
    run_worker,
    worker_store,
)
from repro.engine.store import (
    ResultStore,
    ShardDivergenceError,
    StoreDriftError,
    canonical_record_bytes,
    content_key,
)

__all__ = [
    "CellRecord",
    "DEFAULT_BLOCK_SIZE",
    "Lease",
    "LeaseLost",
    "LeaseQueue",
    "MultiFieldFallbackWarning",
    "QueueStats",
    "ResultStore",
    "ShardDivergenceError",
    "StoreDriftError",
    "SweepCell",
    "UncenteredFieldWarning",
    "batching_capability",
    "build_cell_algorithm",
    "build_faulted_algorithm",
    "build_graph",
    "build_instance",
    "build_values",
    "canonical_record_bytes",
    "cell_id",
    "cell_substrate",
    "clear_substrate",
    "content_key",
    "diff_stores",
    "execute_cell",
    "expand_grid",
    "merge_shards",
    "run_batched",
    "run_distributed_sweep",
    "run_sweep_records",
    "run_worker",
    "split_streams",
    "worker_store",
]
