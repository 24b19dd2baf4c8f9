"""Trace replay: re-derive a run's numbers from its event stream alone.

The replay engine reconstructs a run from nothing but the JSONL trace:
starting from the ``start`` event's initial state it re-applies every
update event with the *exact* NumPy kernels the protocols use (convex
pair average, contiguous route mean,
:func:`~repro.gossip.affine.affine_pair_update`), re-accumulates every
transmission charge the events imply, and re-checks every recorded
convergence check **bitwise**.  Because emission happens at the charge
sites and the kernels are shared, replay is an independent end-to-end
cross-check of the engine: if any layer charged, updated, or stopped
differently than its events claim, replay raises :class:`ReplayError`.

Invariants asserted while replaying:

* every ``check`` event's error equals ``normalized_error`` of the
  reconstructed state, bitwise, at the recorded transmission count;
* the ``end`` event's final values, error, converged flag, and
  per-category transmission snapshot equal the reconstruction exactly;
* ``batch`` events (when present) account for every tick;
* conservation of mass — per-column sums of the reconstructed state
  drift from the initial sums only by float rounding.

:func:`validate_result` and :func:`validate_record` then compare a
:class:`ReplayResult` against the live
:class:`~repro.gossip.base.GossipRunResult` /
:class:`~repro.engine.executor.CellRecord`, including re-derived fault
metrics (aborts, wasted ticks, losses, churn counts, live-node error)
and per-column field errors.

>>> trace = [
...     {"e": "start", "v": 1, "algorithm": "randomized", "n": 2, "k": 1,
...      "epsilon": 0.5, "stride": 1, "initial": [1.0, -1.0]},
...     {"e": "pairs", "op": "avg", "cat": "near", "pairs": [[0, 1]]},
...     {"e": "check", "ticks": 1, "tx": 2, "error": 0.0},
...     {"e": "end", "ticks": 1, "tx": {"near": 2, "total": 2},
...      "error": 0.0, "converged": True, "values": [0.0, 0.0]},
... ]
>>> result = replay_events(trace)
>>> result.transmissions["total"], result.converged, result.checks
(2, True, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.dynamics.overlay import live_node_error
from repro.gossip.affine import affine_pair_update
from repro.metrics.error import normalized_error, result_column_errors
from repro.observability.events import TRACE_SCHEMA_VERSION, load_trace
from repro.routing.cost import TransmissionCounter

__all__ = [
    "ReplayError",
    "ReplayResult",
    "replay_events",
    "replay_file",
    "validate_record",
    "validate_result",
]

#: Relative tolerance for the conservation-of-mass invariant.  The
#: engine's updates conserve each column's sum exactly up to float
#: rounding (convex averages, cross-weighted affine exchanges,
#: antisymmetric noise, abort-before-update transactions); accumulated
#: rounding over a full run is orders of magnitude below this bound.
_MASS_TOLERANCE = 1e-9


class ReplayError(Exception):
    """A trace is malformed, or its replay contradicts what it recorded."""


@dataclass
class ReplayResult:
    """Everything re-derived from one trace.

    ``values``/``transmissions``/``ticks``/``converged``/``error`` mirror
    the fields of a live run; the fault tallies mirror
    :meth:`~repro.dynamics.overlay.DynamicGossip.fault_metrics`.
    """

    algorithm: str
    n: int
    fields: int
    epsilon: float
    check_stride: int
    values: np.ndarray
    initial_values: np.ndarray
    transmissions: dict[str, int]
    ticks: int
    converged: bool
    error: float
    checks: int
    batches: int
    aborted_routes: int
    wasted_ticks: int
    lost_transmissions: int
    crashes: int
    recoveries: int
    live: np.ndarray
    mass_drift: float

    @property
    def field_errors(self) -> "np.ndarray | None":
        """Per-column final errors (``None`` for scalar traces)."""
        return result_column_errors(self.values, self.initial_values)

    def fault_metrics(self) -> dict[str, float]:
        """The fault payload re-derived purely from trace events."""
        return {
            "aborted_routes": float(self.aborted_routes),
            "wasted_ticks": float(self.wasted_ticks),
            "lost_transmissions": float(self.lost_transmissions),
            "crashes": float(self.crashes),
            "recoveries": float(self.recoveries),
            "live_fraction": float(self.live.mean()),
            "live_node_error": live_node_error(
                self.values, self.initial_values, self.live
            ),
        }


def _apply_avg_pairs(values: np.ndarray, pairs) -> None:
    """The convex pair average, exactly as every endpoint protocol does.

    ``0.5 · (x + y)`` is the scalar protocols' literal expression; the
    multi-field fast path's in-place ``(x + y) · 0.5`` is bitwise equal
    (IEEE multiplication commutes), so one kernel replays both.
    """
    for i, j in pairs:
        average = 0.5 * (values[i] + values[j])
        values[i] = average
        values[j] = average


def _apply_route_mean(values: np.ndarray, nodes: np.ndarray) -> None:
    """Path averaging's route mean — the exact engine kernel.

    The 2-D branch transposes to a contiguous block so each column's
    mean reduces in the same order as the scalar 1-D mean (see
    ``PathAveragingGossip._average_route``).
    """
    block = values[nodes]
    if block.ndim == 1:
        values[nodes] = block.mean()
    else:
        values[nodes] = np.ascontiguousarray(block.T).mean(axis=1)


def replay_events(events: list[dict]) -> ReplayResult:
    """Reconstruct a run from its events; raise :class:`ReplayError`
    on any internal contradiction (see the module docstring's list)."""
    if not events or events[0].get("e") != "start":
        raise ReplayError("trace must begin with a start event")
    start = events[0]
    version = int(start.get("v", 0))
    if version != TRACE_SCHEMA_VERSION:
        raise ReplayError(
            f"trace schema v{version} is not the supported "
            f"v{TRACE_SCHEMA_VERSION}"
        )
    initial = np.asarray(start["initial"], dtype=np.float64)
    n = int(start["n"])
    if initial.shape[0] != n:
        raise ReplayError(
            f"start event claims n={n} but carries {initial.shape[0]} rows"
        )
    alphas = (
        np.asarray(start["alphas"], dtype=np.float64)
        if "alphas" in start
        else None
    )
    values = initial.copy()
    counter = TransmissionCounter()
    live = np.ones(n, dtype=bool)
    aborted = wasted = lost = crashes = recoveries = 0
    checks = batches = batch_ticks = 0
    end: "dict | None" = None

    for event in events[1:]:
        if end is not None:
            raise ReplayError("events found after the end event")
        kind = event.get("e")
        if kind == "pairs":
            pairs = event["pairs"]
            op = event.get("op")
            if op == "avg":
                _apply_avg_pairs(values, pairs)
                category = event.get("cat")
                if category is not None:
                    counter.charge(2 * len(pairs), category)
            elif op == "affine":
                if alphas is None:
                    raise ReplayError(
                        "affine pairs event but the start event carries "
                        "no alphas"
                    )
                nus = event.get("nus")
                for index, (i, j) in enumerate(pairs):
                    affine_pair_update(
                        values, i, j, float(alphas[i]), float(alphas[j])
                    )
                    if nus is not None:
                        nu = nus[index]
                        values[i] += nu
                        values[j] -= nu
                counter.charge(2 * len(pairs), "exchange")
            else:
                raise ReplayError(f"unknown pairs op {op!r}")
        elif kind == "route":
            counter.charge(int(event["hops"]), event["cat"])
        elif kind == "path":
            counter.charge(int(event["flash"]), "route")
            _apply_route_mean(
                values, np.asarray(event["nodes"], dtype=np.int64)
            )
        elif kind == "drop":
            counter.charge(int(event["tx"]), event["cat"])
            lost += 1
        elif kind == "abort":
            aborted += 1
        elif kind == "dead":
            wasted += int(event["ticks"])
        elif kind == "epoch":
            for node in event["crashed"]:
                live[node] = False
            for node in event["recovered"]:
                live[node] = True
            crashes += len(event["crashed"])
            recoveries += len(event["recovered"])
        elif kind == "batch":
            batches += 1
            batch_ticks += int(event["ticks"])
        elif kind == "check":
            error = normalized_error(values, initial)
            if error != event["error"]:
                raise ReplayError(
                    f"check at tick {event['ticks']}: replayed error "
                    f"{error!r} != recorded {event['error']!r}"
                )
            if counter.total != int(event["tx"]):
                raise ReplayError(
                    f"check at tick {event['ticks']}: replayed "
                    f"{counter.total} transmissions != recorded "
                    f"{event['tx']}"
                )
            checks += 1
        elif kind == "end":
            end = event
        elif kind == "start":
            raise ReplayError(
                "second start event — the trace interleaves two runs"
            )
        else:
            raise ReplayError(f"unknown event kind {kind!r}")

    if end is None:
        raise ReplayError("trace has no end event")

    final_error = normalized_error(values, initial)
    if final_error != end["error"]:
        raise ReplayError(
            f"final error: replayed {final_error!r} != recorded "
            f"{end['error']!r}"
        )
    snapshot = counter.snapshot()
    recorded_snapshot = {str(k): int(v) for k, v in end["tx"].items()}
    if snapshot != recorded_snapshot:
        raise ReplayError(
            f"transmissions: replayed {snapshot} != recorded "
            f"{recorded_snapshot}"
        )
    recorded_values = np.asarray(end["values"], dtype=np.float64)
    if recorded_values.shape != values.shape or not np.array_equal(
        recorded_values, values
    ):
        raise ReplayError(
            "final values: the reconstruction differs from the state the "
            "end event recorded"
        )
    ticks = int(end["ticks"])
    if batches and batch_ticks != ticks:
        raise ReplayError(
            f"batch events account for {batch_ticks} ticks but the run "
            f"recorded {ticks}"
        )
    converged = bool(end["converged"])
    epsilon = float(start["epsilon"])
    if converged != (final_error <= epsilon):
        raise ReplayError(
            f"converged flag {converged} contradicts error "
            f"{final_error!r} vs epsilon {epsilon!r}"
        )

    # Conservation of mass: every update either conserves each column's
    # sum exactly in real arithmetic (convex averages, route means,
    # cross-weighted affine exchanges, antisymmetric noise) or aborts
    # before touching the state — so the replayed sums may drift from
    # the initial ones only by accumulated float rounding.
    matrix = values if values.ndim == 2 else values[:, None]
    initial_matrix = initial if initial.ndim == 2 else initial[:, None]
    drift = np.abs(matrix.sum(axis=0) - initial_matrix.sum(axis=0))
    scale = np.maximum(np.abs(initial_matrix).sum(axis=0), 1.0)
    mass_drift = float((drift / scale).max())
    if mass_drift > _MASS_TOLERANCE:
        raise ReplayError(
            f"conservation of mass violated: relative column-sum drift "
            f"{mass_drift:.3e} exceeds {_MASS_TOLERANCE:.0e}"
        )

    return ReplayResult(
        algorithm=str(start["algorithm"]),
        n=n,
        fields=int(start.get("k", 1)),
        epsilon=epsilon,
        check_stride=int(start.get("stride", 1)),
        values=values,
        initial_values=initial,
        transmissions=snapshot,
        ticks=ticks,
        converged=converged,
        error=final_error,
        checks=checks,
        batches=batches,
        aborted_routes=aborted,
        wasted_ticks=wasted,
        lost_transmissions=lost,
        crashes=crashes,
        recoveries=recoveries,
        live=live,
        mass_drift=mass_drift,
    )


def replay_file(path: "str | Path") -> ReplayResult:
    """:func:`replay_events` over a JSONL trace file."""
    return replay_events(load_trace(path))


def validate_result(replay: ReplayResult, result) -> None:
    """Assert a replay equals a live :class:`GossipRunResult` exactly."""
    problems = []
    if not np.array_equal(replay.values, result.values):
        problems.append("final values differ")
    if replay.transmissions != dict(result.transmissions):
        problems.append(
            f"transmissions {replay.transmissions} != "
            f"{dict(result.transmissions)}"
        )
    if replay.ticks != result.ticks:
        problems.append(f"ticks {replay.ticks} != {result.ticks}")
    if replay.converged != result.converged:
        problems.append(
            f"converged {replay.converged} != {result.converged}"
        )
    if replay.error != result.error:
        problems.append(f"error {replay.error!r} != {result.error!r}")
    if problems:
        raise ReplayError(
            "replay does not match the live run: " + "; ".join(problems)
        )


def validate_record(replay: ReplayResult, record) -> None:
    """Assert a replay equals a stored
    :class:`~repro.engine.executor.CellRecord` exactly — including the
    fault metrics and per-column field errors re-derived from the trace.
    """
    from repro.experiments.config import ALGORITHM_CLASSES

    problems = []
    # A trace names the protocol class (``affine-kn``); a record names
    # its registry entry (``affine``).
    registered = ALGORITHM_CLASSES.get(record.algorithm)
    expected = record.algorithm if registered is None else registered.name
    if replay.algorithm != expected:
        problems.append(
            f"algorithm {replay.algorithm!r} != {expected!r} "
            f"(record {record.algorithm!r})"
        )
    if replay.n != record.n:
        problems.append(f"n {replay.n} != {record.n}")
    if replay.epsilon != record.epsilon:
        problems.append(f"epsilon {replay.epsilon!r} != {record.epsilon!r}")
    if replay.transmissions != dict(record.transmissions):
        problems.append(
            f"transmissions {replay.transmissions} != "
            f"{dict(record.transmissions)}"
        )
    if replay.ticks != record.ticks:
        problems.append(f"ticks {replay.ticks} != {record.ticks}")
    if replay.converged != record.converged:
        problems.append(
            f"converged {replay.converged} != {record.converged}"
        )
    if replay.error != record.error:
        problems.append(f"error {replay.error!r} != {record.error!r}")
    if record.faults is not None:
        derived = replay.fault_metrics()
        if derived != dict(record.faults):
            problems.append(
                f"fault metrics {derived} != {dict(record.faults)}"
            )
    if record.field_errors is not None:
        derived_columns = replay.field_errors
        if derived_columns is None:
            problems.append(
                "record has field_errors but the trace is scalar"
            )
        elif tuple(float(v) for v in derived_columns) != tuple(
            record.field_errors
        ):
            problems.append(
                f"field errors {tuple(derived_columns)} != "
                f"{tuple(record.field_errors)}"
            )
    if problems:
        raise ReplayError(
            f"replay does not match cell "
            f"({record.algorithm}, n={record.n}, trial={record.trial}): "
            + "; ".join(problems)
        )
