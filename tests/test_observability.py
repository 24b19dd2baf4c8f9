"""Observability contracts: trace identity, replay exactness, telemetry.

The recorder's headline guarantee is that tracing is *purely
observational*: a run under an active
:class:`~repro.observability.events.TraceRecorder` is identical in
values, ticks, and transmissions to the same run untraced (the trace-off
path shares the untraced code byte for byte — the recorder read is one
``is None`` branch).  On top of that, the replay engine must re-derive
every recorded number from the JSONL events alone, bitwise, including
fault metrics and per-column field errors.  This module asserts both
across the golden protocol registry, plus the telemetry satellites
(per-cell wall clock, route-cache counters, the ``CellRecord``
back-compat rules) and the trace-driven timeline renderer.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import numpy as np
import pytest

from protocol_equivalence import (
    CASES,
    assert_results_identical,
    case_names,
    initial_field_matrix,
    initial_values,
    multifield_native_case_names,
    run_engine,
)
from repro.engine.batching import batching_capability, run_batched
from repro.engine.executor import CellRecord, run_sweep_records
from repro.engine.store import ResultStore
from repro.experiments.config import ExperimentConfig
from repro.experiments.seeds import spawn_rng
from repro.observability import (
    ReplayError,
    TraceRecorder,
    cache_stats,
    capture,
    collect_telemetry,
    replay_events,
    replay_file,
    validate_record,
    validate_result,
)
from repro.observability.events import load_trace
from repro.viz import render_timeline

STRIDES = (1, 4)

#: The faulted golden cases: replay must re-derive their fault metrics.
FAULTED = ("path-averaging-faulted", "randomized-faulted")


def run_traced(case, seed=7, check_stride=1, fields=None):
    """One engine run of ``case`` under a capture; returns the recorder too.

    Mirrors :func:`protocol_equivalence.run_engine` (same seeds, same
    initial state) so traced and untraced runs are directly comparable.
    """
    algorithm = case.factory()
    state = initial_values() if fields is None else initial_field_matrix(fields)
    with capture() as recorder:
        result = run_batched(
            algorithm,
            state,
            case.epsilon,
            spawn_rng(seed, "golden", case.name),
            check_stride=check_stride,
        )
    return algorithm, result, recorder


# -- trace identity + replay exactness ---------------------------------------


@pytest.mark.parametrize("check_stride", STRIDES)
@pytest.mark.parametrize("name", case_names(tick_driven=True))
def test_traced_run_is_identical_and_replays_bitwise(name, check_stride):
    """Trace-on identity *and* replay exactness for every tick-driven case.

    The untraced engine run is the reference; the traced run must match
    it bit for bit (the recorder never consumes randomness or changes a
    code path), and replaying the captured events must reconstruct the
    run's values, transmissions, ticks, error, and converged flag
    exactly.
    """
    case = CASES[name]
    baseline = run_engine(case, seed=7, check_stride=check_stride)
    _, traced, recorder = run_traced(case, seed=7, check_stride=check_stride)
    assert_results_identical(
        baseline, traced, f"{name}, stride {check_stride}, traced vs untraced"
    )
    assert recorder.events[0]["e"] == "start"
    assert recorder.events[-1]["e"] == "end"
    validate_result(replay_events(recorder.events), traced)


@pytest.mark.parametrize("check_stride", STRIDES)
@pytest.mark.parametrize("name", FAULTED)
def test_replay_rederives_fault_metrics(name, check_stride):
    """Aborts, wasted ticks, losses, churn, and live-node error — all
    recomputed from trace events alone, equal to the live overlay's."""
    case = CASES[name]
    algorithm, result, recorder = run_traced(
        case, seed=7, check_stride=check_stride
    )
    live = algorithm.fault_metrics(result.values, result.initial_values)
    replay = replay_events(recorder.events)
    assert replay.fault_metrics() == dict(live)


@pytest.mark.parametrize("check_stride", STRIDES)
@pytest.mark.parametrize(
    "name",
    [n for n in multifield_native_case_names() if CASES[n].tick_driven],
)
def test_multifield_replay_matches_column_errors(name, check_stride):
    """A k=8 matrix trace replays to the exact per-column final errors."""
    case = CASES[name]
    _, result, recorder = run_traced(
        case, seed=7, check_stride=check_stride, fields=8
    )
    replay = replay_events(recorder.events)
    validate_result(replay, result)
    assert replay.fields == 8
    np.testing.assert_array_equal(replay.field_errors, result.column_errors)


def test_trace_round_trips_through_jsonl(tmp_path):
    """write → load_trace → replay: the file is the trace, exactly.

    Batched ``pairs`` events hold their pairs as an array in memory; the
    file holds its nested list, so the file equals the JSON-normalised
    events."""
    _, result, recorder = run_traced(CASES["randomized"], check_stride=4)
    assert any(isinstance(e.get("pairs"), np.ndarray) for e in recorder.events)
    path = recorder.write(tmp_path / "trace.jsonl")
    normalised = [
        json.loads(json.dumps(event, default=np.ndarray.tolist))
        for event in recorder.events
    ]
    assert load_trace(path) == normalised
    validate_result(replay_file(path), result)


# -- recorder discipline ------------------------------------------------------


@pytest.mark.filterwarnings("ignore::Warning")  # per-column fallback notice
@pytest.mark.parametrize("fields", [None, 2])
def test_nested_runs_suspend_the_recorder(fields):
    """Round-based delegation and the per-column multi-field fallback run
    whole runs inside the traced run; both suspend the recorder, so a
    capture around them yields an *empty* trace, never an interleaved one.
    """
    case = CASES["hierarchical"]
    _, result, recorder = run_traced(case, fields=fields)
    assert len(recorder) == 0
    assert result.error <= 1.0  # the run itself still completed


def test_cell_traceable_predicate():
    """Tracing follows the protocol's one classifier: every golden case
    that emits events under a capture is ``"block"``, and the round-based
    executor, which emits none, is ``"rounds"``."""
    assert batching_capability(CASES["randomized"].factory()) == "block"
    assert batching_capability(CASES["geographic-uniform"].factory()) == "block"
    assert batching_capability(CASES["hierarchical"].factory()) == "rounds"
    _, _, recorder = run_traced(CASES["geographic-uniform"], fields=4)
    assert len(recorder) > 0


def test_capture_nesting_raises():
    with capture():
        with pytest.raises(RuntimeError, match="already active"):
            with capture():
                pass  # pragma: no cover


def test_annotate_requires_a_start_event():
    recorder = TraceRecorder()
    with pytest.raises(ValueError, match="no start event"):
        recorder.annotate(cell={"algorithm": "x", "n": 1, "trial": 0})


# -- tamper detection ---------------------------------------------------------


def _tamper_check_error(events):
    check = next(e for e in events if e["e"] == "check")
    check["error"] = check["error"] + 1e-12


def _tamper_drop_update(events):
    index = next(i for i, e in enumerate(events) if e["e"] == "pairs")
    del events[index]


def _tamper_end_transmissions(events):
    events[-1]["tx"]["total"] += 1


def _tamper_converged_flag(events):
    events[-1]["converged"] = not events[-1]["converged"]


def _tamper_final_values(events):
    events[-1]["values"][0] += 0.5


def _tamper_schema_version(events):
    events[0]["v"] = 999


def _tamper_truncate_end(events):
    events.pop()


@pytest.mark.parametrize(
    "tamper",
    [
        _tamper_check_error,
        _tamper_drop_update,
        _tamper_end_transmissions,
        _tamper_converged_flag,
        _tamper_final_values,
        _tamper_schema_version,
        _tamper_truncate_end,
    ],
)
def test_replay_detects_tampered_traces(tamper):
    """Any edit to what the trace *claims* contradicts the reconstruction."""
    _, _, recorder = run_traced(CASES["randomized"], check_stride=4)
    events = copy.deepcopy(recorder.events)
    tamper(events)
    with pytest.raises(ReplayError):
        replay_events(events)


def test_replay_rejects_interleaved_traces():
    _, _, recorder = run_traced(CASES["randomized"])
    events = copy.deepcopy(recorder.events)
    events.insert(2, copy.deepcopy(events[0]))
    with pytest.raises(ReplayError, match="second start"):
        replay_events(events)


# -- telemetry + CellRecord ---------------------------------------------------


@pytest.mark.parametrize("check_stride", [1, 4])
def test_cache_stats_reaches_the_route_cache(check_stride):
    # The memoized router is the protocol's one router: its stride-1
    # windows and strided blocks go through the batched walk, the
    # per-tick loop of a faulted cell through the route memo, and the
    # ledger tells them apart.
    algorithm, _, _ = run_traced(
        CASES["path-averaging"], check_stride=check_stride
    )
    stats = cache_stats(algorithm)
    assert stats is not None
    assert stats["cache_walks"] > 0
    assert stats["cache_hits"] + stats["cache_misses"] == 0
    # Through the DynamicGossip + LossyRouter wrappers too.
    faulted, _, _ = run_traced(
        CASES["path-averaging-faulted"], check_stride=check_stride
    )
    stats = cache_stats(faulted)
    assert stats is not None
    assert stats["cache_misses"] > 0 and stats["cache_walks"] == 0
    # Cache-less protocols report nothing rather than zeros.
    assert cache_stats(CASES["randomized"].factory()) is None


def test_collect_telemetry_flat_mapping():
    telemetry = collect_telemetry(
        object(), wall_clock=2.0, ticks=1000, trace_events=42
    )
    assert telemetry["ticks_per_sec"] == 500.0
    assert telemetry["trace_events"] == 42.0
    assert telemetry["multifield_fallback"] == 0.0
    assert "scalar_fallback" not in telemetry  # every stride is the fast path


_RECORD_KWARGS = dict(
    algorithm="randomized",
    n=8,
    trial=0,
    epsilon=0.1,
    transmissions={"near": 2, "total": 2},
    ticks=1,
    converged=True,
    error=0.05,
)


def test_cell_record_timing_excluded_from_equality():
    """Wall clock and telemetry never make two otherwise-equal cells
    differ — the serial-vs-parallel determinism tests depend on it."""
    plain = CellRecord(**_RECORD_KWARGS)
    timed = CellRecord(
        **_RECORD_KWARGS,
        wall_clock=1.25,
        telemetry={"ticks_per_sec": 0.8},
    )
    assert plain == timed


def test_cell_record_timing_round_trip_and_back_compat():
    timed = CellRecord(
        **_RECORD_KWARGS,
        wall_clock=0.5,
        telemetry={"ticks_per_sec": 2.0, "trace_events": 7.0},
    )
    payload = timed.to_dict()
    again = CellRecord.from_dict(payload)
    assert again.wall_clock == 0.5
    assert again.telemetry == {"ticks_per_sec": 2.0, "trace_events": 7.0}
    # A pre-telemetry store line (no timing keys) loads unchanged...
    legacy_payload = {
        k: v
        for k, v in payload.items()
        if k not in ("wall_clock", "telemetry")
    }
    legacy = CellRecord.from_dict(legacy_payload)
    assert legacy.wall_clock is None and legacy.telemetry is None
    # ...and serialises without inventing the keys.
    assert "wall_clock" not in legacy.to_dict()
    assert "telemetry" not in legacy.to_dict()


# -- the traced sweep path ----------------------------------------------------


def test_traced_sweep_writes_validating_traces(tmp_path):
    """End to end: sweep → JSONL traces beside the store → replay each
    trace and validate it against its stored cell record exactly."""
    config = ExperimentConfig(
        sizes=(32,),
        epsilon=0.3,
        trials=2,
        field="random",
        root_seed=11,
        algorithms=("randomized", "geographic", "hierarchical"),
    )
    store = ResultStore(tmp_path, config, check_stride=4)
    records = run_sweep_records(
        config, check_stride=4, store=store, trace=True
    )
    traces = sorted((store.directory / "traces").glob("*.jsonl"))
    # Tick-driven cells write traces; the round-based hierarchical
    # executor (whose nested runs suspend the recorder) writes none.
    assert len(traces) == 4
    assert all("hierarchical" not in trace.name for trace in traces)
    for trace in traces:
        start = load_trace(trace)[0]
        cell = start["cell"]
        record = records[(cell["algorithm"], cell["n"], cell["trial"])]
        validate_record(replay_file(trace), record)
        assert record.wall_clock is not None
        assert record.telemetry is not None
        assert record.telemetry["ticks_per_sec"] > 0
        assert record.telemetry["trace_events"] == float(len(load_trace(trace)))
    # Untraced cells still carry wall clock + telemetry (minus the count).
    hierarchical = records[("hierarchical", 32, 0)]
    assert hierarchical.wall_clock is not None
    assert "trace_events" not in hierarchical.telemetry


@pytest.mark.filterwarnings("ignore::repro.engine.batching.UncenteredFieldWarning")
def test_traced_affine_cell_validates_against_its_record(tmp_path):
    """The trace names the class (``affine-kn``) and the record the
    registry entry (``affine``); validation maps one onto the other."""
    config = ExperimentConfig(
        sizes=(32,), epsilon=0.3, trials=1, root_seed=11, algorithms=("affine",)
    )
    store = ResultStore(tmp_path, config, check_stride=2)
    records = run_sweep_records(config, check_stride=2, store=store, trace=True)
    (trace,) = (store.directory / "traces").glob("*.jsonl")
    replay = replay_file(trace)
    record = records[("affine", 32, 0)]
    assert (replay.algorithm, record.algorithm) == ("affine-kn", "affine")
    validate_record(replay, record)
    mislabelled = dataclasses.replace(record, algorithm="randomized")
    with pytest.raises(ReplayError, match="algorithm 'affine-kn'"):
        validate_record(replay, mislabelled)


def test_trace_without_store_is_refused():
    config = ExperimentConfig(
        sizes=(32,), trials=1, algorithms=("randomized",)
    )
    with pytest.raises(ValueError, match="trace"):
        run_sweep_records(config, trace=True)


# -- the timeline renderer ----------------------------------------------------


def test_render_timeline_from_a_real_trace():
    _, _, recorder = run_traced(CASES["randomized"], check_stride=4)
    art = render_timeline(recorder.events)
    assert "n=48" in art
    assert "stride=4" in art
    assert "ticks" in art


def test_render_timeline_fault_lane():
    trace = [
        {
            "e": "start",
            "v": 1,
            "algorithm": "demo",
            "n": 4,
            "k": 1,
            "epsilon": 0.1,
            "stride": 1,
            "initial": [1.0, -1.0, 0.5, -0.5],
        },
        {"e": "check", "ticks": 10, "tx": 2, "error": 0.5},
        {"e": "epoch", "epoch": 1, "tick": 16, "crashed": [1], "recovered": []},
        {"e": "epoch", "epoch": 2, "tick": 32, "crashed": [], "recovered": [1]},
        {
            "e": "end",
            "ticks": 40,
            "tx": {"total": 2},
            "error": 0.25,
            "converged": False,
            "values": [1.0, -1.0, 0.5, -0.5],
        },
    ]
    art = render_timeline(trace)
    assert "faults" in art
    assert "x = crashes" in art


def test_render_timeline_rejects_non_traces():
    with pytest.raises(ValueError, match="no start event"):
        render_timeline([{"e": "check", "ticks": 1, "tx": 1, "error": 0.5}])


# -- the CLI surface ----------------------------------------------------------


def test_cli_trace_then_replay(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "run.jsonl"
    code = main(
        [
            "trace",
            "--algorithm",
            "randomized",
            "--n",
            "48",
            "--epsilon",
            "0.3",
            "--out",
            str(out),
        ]
    )
    assert code in (0, 1)
    assert out.exists()
    assert json.loads(out.read_text().splitlines()[0])["e"] == "start"
    assert main(["replay", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "traced run" in printed
    assert "replayed and validated" in printed


def test_cli_trace_refuses_round_based(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "--algorithm", "hierarchical", "--n", "48"])
    assert excinfo.value.code == 2


def test_cli_replay_fails_on_tampered_file(tmp_path, capsys):
    from repro.cli import main

    _, _, recorder = run_traced(CASES["randomized"])
    events = copy.deepcopy(recorder.events)
    events[-1]["tx"]["total"] += 1
    path = tmp_path / "bad.jsonl"
    path.write_text(
        "".join(json.dumps(event) + "\n" for event in events),
        encoding="utf-8",
    )
    assert main(["replay", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out
