"""Command-line interface: ``python -m repro <command>``.

Eleven commands cover the common workflows without writing any code:

* ``run``         — one algorithm, one field, one graph; prints the
  outcome and an ASCII view of the field before/after.
* ``sweep``       — the scaling sweep (experiment E7) at chosen sizes.
* ``serve-sweep`` — the same sweep, distributed: a coordinator enqueues
  cells on a file-backed lease queue and spawns crash-surviving worker
  processes (:mod:`repro.engine.service`); results are bit-identical to
  ``sweep`` at any worker count, even across worker kills.  With
  ``--daemon`` the session outlives its first grid: the fleet keeps
  serving until ``repro drain`` (or SIGTERM), accepting new grids from
  ``repro enqueue`` with priority classes (``p0`` drains before ``p1``
  before ``p2``) and bounded admission (``--max-pending``).
* ``work``        — one worker process; attaches to a queue directory
  and pulls cells until the queue drains — or, on a daemon queue, until
  drain is requested (``serve-sweep`` spawns these, but extra workers
  can be pointed at the same queue from other shells or hosts sharing
  the filesystem).
* ``enqueue``     — admit another sweep grid into a running daemon
  session, at a chosen ``--priority``; exits 3 (backpressure) when the
  queue's ``--max-pending`` bound would be exceeded, unless ``--block``.
* ``drain``       — flip a daemon session's drain marker: workers finish
  the backlog and exit, the coordinator merges and shuts down
  (``--wait`` blocks until the backlog is done).
* ``inspect``     — build and display the hierarchy for a placement.
* ``trace``       — one run under the structured event recorder; writes
  the JSONL trace and draws its convergence/fault timeline.
* ``profile``     — one run under the span profiler and metrics
  registry (:mod:`repro.observability`); prints the per-phase hotpath
  table and the counters the run moved — numbers identical to ``run``
  at the same flags.
* ``replay``      — re-derive a trace's numbers from its events alone
  (:mod:`repro.observability.replay`) and check them against the stored
  cell records when the trace lives under a sweep store; ``--workers``
  fans the traces across processes (identical output and summary).
* ``store-diff``  — compare two result-store roots record by record
  (canonical bytes, timing/telemetry excluded); exits 1 on any
  difference.  The distributed ≡ serial assertion as a shell command.

``run`` and ``sweep`` execute through :mod:`repro.engine`: ``--check-stride``
selects the batched tick path (``1`` = the bit-identical legacy loop),
``--workers`` fans sweep grid cells across processes (identical results at
any worker count), and ``--store-dir``/``--resume`` persist finished cells
so an interrupted sweep continues instead of restarting.  ``sweep
--trace`` additionally writes each fresh cell's event stream under
``<store>/traces/`` (requires ``--store-dir``).

Examples::

    python -m repro run --algorithm hierarchical --n 512 --epsilon 0.15
    python -m repro sweep --sizes 128,256,512 --epsilon 0.2 --trials 2
    python -m repro sweep --sizes 256,512,1024 --workers 4 --check-stride 8 \
        --store-dir results --resume
    python -m repro inspect --n 1024 --leaf-threshold 24
    python -m repro trace --algorithm geographic --n 256 --out run.jsonl
    python -m repro replay run.jsonl
    python -m repro sweep --sizes 128,256 --store-dir results --trace
    python -m repro replay results
    python -m repro serve-sweep --sizes 128,256 --workers 3 \
        --store-dir results --resume --metrics-port 9100
    python -m repro serve-sweep --sizes 128,256 --store-dir results \
        --daemon --max-pending 64 --metrics-port 9100
    python -m repro enqueue --queue-dir results/_service_queue \
        --sizes 512 --algorithms hierarchical --priority 0
    python -m repro drain --queue-dir results/_service_queue --wait
    python -m repro profile --algorithm geographic --n 512
    python -m repro store-diff results other-results
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys

import numpy as np

from pathlib import Path

from repro.dynamics import FaultSpec
from repro.engine import (
    ResultStore,
    StoreDriftError,
    batching_capability,
    build_faulted_algorithm,
    run_batched,
)
from repro.engine.executor import CellRecord
from repro.experiments import (
    ALGORITHMS,
    ExperimentConfig,
    fault_incompatible,
    fit_loglog_slope,
    format_table,
    make_algorithm,
    run_scaling_sweep,
    spawn_rng,
    topology_incompatible,
)
from repro.graphs.generators import (
    build_topology,
    topology_names,
    topology_seed_tags,
)
from repro.graphs.rgg import RandomGeometricGraph
from repro.hierarchy.tree import HierarchyTree
from repro.metrics.error import primary_field
from repro.observability import ReplayError, events, replay_events, validate_record
from repro.viz import render_field, render_hierarchy, render_timeline
from repro.workloads.fields import FIELD_GENERATORS, WORKLOADS, build_field_matrix

__all__ = ["main", "build_parser"]

# Interpreter finalization ends with full garbage collections that free
# nothing a finished process needs (every store, queue and trace writer
# closes its file in a ``with`` block): freezing the heap at exit lets
# them skip the live objects and takes about 30 ms off every ``repro``
# process, the coordinator and each fleet worker included.  Registered at
# import, not in ``main()``, so in-process callers keep collecting.
atexit.register(gc.freeze)


def _positive_int(text: str) -> int:
    """argparse type for flags that must be >= 1 (clean usage errors)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for durations that must be > 0 (clean usage errors)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _port(text: str) -> int:
    """argparse type for a TCP port, 0 (ephemeral) to 65535."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0..65535, got {value}")
    return value


def _add_multifield_flags(parser: argparse.ArgumentParser) -> None:
    """The multi-field flags shared by ``run`` and ``sweep``."""
    parser.add_argument(
        "--fields",
        type=_positive_int,
        default=1,
        help="number of stacked fields per node (1 = the scalar engine, "
        "bit for bit; k > 1 runs an (n, k) matrix through one gossip "
        "pass — see docs/workloads.md)",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default="ensemble",
        help="stacking scheme for --fields > 1: independent 'ensemble' "
        "draws of --field, or 'quantile'/'histogram' indicator stacks "
        "over it",
    )


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    """The fault-dynamics flags shared by ``run`` and ``sweep``."""
    parser.add_argument(
        "--faults",
        default="none",
        help="fault regime: a preset (none, lossy, churny, harsh) or a "
        "spec string like 'churn=0.02,loss=0.05,epoch=256' "
        "(see docs/dynamics.md)",
    )
    parser.add_argument(
        "--churn-rate",
        type=float,
        default=None,
        help="override the spec's per-epoch node crash probability",
    )
    parser.add_argument(
        "--loss-prob",
        type=float,
        default=None,
        help="override the spec's per-hop message-loss probability",
    )


def _fault_spec(args: argparse.Namespace) -> FaultSpec:
    """Compose --faults with the explicit override flags.

    Malformed specs exit with a clean usage error instead of a traceback.
    """
    import dataclasses

    try:
        spec = FaultSpec.parse(args.faults)
        if args.churn_rate is not None:
            spec = dataclasses.replace(spec, churn_rate=args.churn_rate)
        if args.loss_prob is not None:
            spec = dataclasses.replace(spec, loss_prob=args.loss_prob)
    except ValueError as error:
        _usage_error(str(error))
    return spec


def _usage_error(message: str) -> None:
    """Print a clean CLI error and exit 2 (no traceback)."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _reject_fault_incompatible(spec: FaultSpec, algorithms) -> None:
    """Exit cleanly when faults are combined with unsupported protocols."""
    if not spec.enabled:
        return
    try:
        unsupported = fault_incompatible(tuple(algorithms))
    except ValueError as error:
        _usage_error(str(error))
    if unsupported:
        _usage_error(
            f"fault dynamics ({spec.canonical()!r}) are not supported by "
            f"{unsupported} (round-based, or no radio model) — pick "
            "tick-driven protocols via --algorithm(s) or drop --faults"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Geographic gossip via affine combinations — reproduction CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm on one instance")
    run.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="hierarchical",
    )
    run.add_argument("--n", type=int, default=512)
    run.add_argument("--epsilon", type=float, default=0.2)
    run.add_argument(
        "--topology",
        choices=topology_names(),
        default="rgg",
        help="graph family from the topology zoo (default: flat RGG)",
    )
    run.add_argument(
        "--field", choices=sorted(FIELD_GENERATORS), default="random"
    )
    run.add_argument("--seed", type=int, default=20070801)
    run.add_argument(
        "--show-field", action="store_true", help="ASCII field before/after"
    )
    run.add_argument(
        "--check-stride",
        type=_positive_int,
        default=1,
        help="engine error-check stride (1 = legacy bit-identical loop)",
    )
    _add_multifield_flags(run)
    _add_fault_flags(run)

    def _add_sweep_grid_flags(parser: argparse.ArgumentParser) -> None:
        """The sweep-grid flags ``sweep`` and ``serve-sweep`` share, so a
        distributed session accepts exactly the serial sweep's config."""
        parser.add_argument("--sizes", default="128,256,512")
        parser.add_argument("--epsilon", type=float, default=0.2)
        parser.add_argument("--trials", type=int, default=2)
        parser.add_argument(
            "--topology",
            choices=topology_names(),
            default="rgg",
            help="graph family from the topology zoo (default: flat RGG)",
        )
        parser.add_argument(
            "--field", choices=sorted(FIELD_GENERATORS), default="gradient"
        )
        parser.add_argument("--seed", type=int, default=20070801)
        parser.add_argument(
            "--algorithms", default="randomized,geographic,hierarchical"
        )
        parser.add_argument(
            "--check-stride",
            type=_positive_int,
            default=1,
            help="engine error-check stride (1 = legacy bit-identical loop)",
        )
        _add_multifield_flags(parser)
        _add_fault_flags(parser)

    sweep = sub.add_parser("sweep", help="scaling sweep (experiment E7)")
    _add_sweep_grid_flags(sweep)
    sweep.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="parallel grid-cell workers (results identical at any count)",
    )
    sweep.add_argument(
        "--store-dir",
        default=None,
        help="persist finished cells under this directory (JSON lines)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="with --store-dir: reuse already-finished cells instead of "
        "starting fresh",
    )
    sweep.add_argument(
        "--trace",
        action="store_true",
        help="with --store-dir: write each fresh cell's structured event "
        "stream under <store>/traces/ (validate with 'repro replay')",
    )

    serve = sub.add_parser(
        "serve-sweep",
        help="the scaling sweep, distributed across crash-surviving worker "
        "processes via a file-backed lease queue (bit-identical to 'sweep')",
    )
    _add_sweep_grid_flags(serve)
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="worker processes to spawn (results identical at any count)",
    )
    serve.add_argument(
        "--store-dir",
        required=True,
        help="the canonical result store the shards merge into",
    )
    serve.add_argument(
        "--queue-dir",
        default=None,
        help="lease queue + per-worker shard directory (default: "
        "<store-dir>/_service_queue)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="reuse already-finished cells (including shards a crashed "
        "session left in the queue dir) instead of starting fresh",
    )
    serve.add_argument(
        "--ttl",
        type=_positive_float,
        default=10.0,
        help="seconds without a heartbeat before a lease counts as stale "
        "and may be reclaimed",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=_positive_float,
        default=1.0,
        help="seconds between a worker's heartbeats on its held lease",
    )
    serve.add_argument(
        "--poll-interval",
        type=_positive_float,
        default=0.2,
        help="idle-poll interval for workers and the coordinator",
    )
    serve.add_argument(
        "--worker-throttle",
        type=float,
        default=0.0,
        help="chaos/testing knob: each worker sleeps this many seconds "
        "inside every leased window before executing (numbers unaffected)",
    )
    serve.add_argument(
        "--chaos-kill-after",
        type=float,
        default=None,
        help="chaos/testing knob: SIGKILL one live worker this many "
        "seconds into the session and let reclamation recover it",
    )
    serve.add_argument(
        "--max-respawns",
        type=_positive_int,
        default=None,
        help="replacement workers to spawn when the whole fleet has died "
        "with cells unfinished (default: --workers)",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="write each cell's structured event stream under the shard "
        "stores; merged into <store>/<key>/traces/ "
        "(validate with 'repro replay')",
    )
    serve.add_argument(
        "--metrics-port",
        type=_port,
        default=None,
        help="serve live GET /metrics (Prometheus text exposition) and "
        "GET /healthz from the coordinator on this loopback port while "
        "the sweep runs (0 = pick an ephemeral port; printed at startup)",
    )
    serve.add_argument(
        "--daemon",
        action="store_true",
        help="long-lived mode: keep the fleet serving after this grid "
        "drains, accepting further grids from 'repro enqueue' until "
        "'repro drain' or SIGTERM",
    )
    serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=None,
        help="daemon admission bound: refuse enqueues that would push "
        "the unfinished backlog past this many cells ('repro enqueue' "
        "exits 3)",
    )
    serve.add_argument(
        "--priority",
        type=int,
        choices=(0, 1, 2),
        default=None,
        help="daemon priority class for this first grid (p0 drains "
        "before p1 before p2; default 1)",
    )

    work = sub.add_parser(
        "work",
        help="one sweep-service worker: attach to a queue directory and "
        "pull cells until the queue drains — or, on a daemon queue, "
        "until drain is requested ('serve-sweep' spawns these)",
    )
    work.add_argument(
        "--queue-dir",
        required=True,
        help="the lease queue a 'serve-sweep' session created",
    )
    work.add_argument(
        "--worker-id",
        default=None,
        help="shard / lease-owner identity (default: pid-based; must be "
        "unique per live worker on the queue)",
    )
    work.add_argument(
        "--heartbeat-interval", type=_positive_float, default=1.0
    )
    work.add_argument("--poll-interval", type=_positive_float, default=0.2)
    work.add_argument(
        "--throttle",
        type=float,
        default=0.0,
        help="chaos/testing knob: sleep this many seconds inside each "
        "leased window before executing",
    )

    enqueue = sub.add_parser(
        "enqueue",
        help="admit another sweep grid into a running daemon session "
        "('serve-sweep --daemon'); exits 3 when --max-pending would be "
        "exceeded (backpressure)",
    )
    enqueue.add_argument(
        "--queue-dir",
        required=True,
        help="the daemon session's lease queue",
    )
    _add_sweep_grid_flags(enqueue)
    enqueue.add_argument(
        "--priority",
        type=int,
        choices=(0, 1, 2),
        default=1,
        help="priority class (p0 drains before p1 before p2)",
    )
    enqueue.add_argument(
        "--trace",
        action="store_true",
        help="write each cell's structured event stream under the shard "
        "stores (merged into the grid's canonical traces/)",
    )
    enqueue.add_argument(
        "--store-dir",
        default=None,
        help="override the canonical store root (default: the one the "
        "daemon recorded in its queue manifest)",
    )
    enqueue.add_argument(
        "--block",
        action="store_true",
        help="instead of exiting 3 on backpressure, wait for the backlog "
        "to drain below --max-pending and then enqueue",
    )

    drain = sub.add_parser(
        "drain",
        help="ask a daemon session to finish its backlog and shut down "
        "(workers exit once drained; the coordinator merges and stops)",
    )
    drain.add_argument(
        "--queue-dir",
        required=True,
        help="the daemon session's lease queue",
    )
    drain.add_argument(
        "--wait",
        action="store_true",
        help="block until the backlog is fully drained",
    )
    drain.add_argument(
        "--poll-interval",
        type=_positive_float,
        default=0.5,
        help="with --wait: seconds between drain checks",
    )

    inspect = sub.add_parser("inspect", help="build and display a hierarchy")
    inspect.add_argument("--n", type=int, default=1024)
    inspect.add_argument("--leaf-threshold", type=float, default=None)
    inspect.add_argument("--seed", type=int, default=20070801)

    trace = sub.add_parser(
        "trace",
        help="run one algorithm under the event recorder; write the JSONL "
        "trace and draw its timeline",
    )
    trace.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="randomized",
        help="tick-driven protocols only (round-based runs suspend the "
        "recorder)",
    )
    trace.add_argument("--n", type=int, default=256)
    trace.add_argument("--epsilon", type=float, default=0.2)
    trace.add_argument(
        "--topology",
        choices=topology_names(),
        default="rgg",
        help="graph family from the topology zoo (default: flat RGG)",
    )
    trace.add_argument(
        "--field", choices=sorted(FIELD_GENERATORS), default="random"
    )
    trace.add_argument("--seed", type=int, default=20070801)
    trace.add_argument(
        "--check-stride",
        type=_positive_int,
        default=1,
        help="engine error-check stride (1 = legacy bit-identical loop)",
    )
    trace.add_argument(
        "--out",
        default="trace.jsonl",
        help="where to write the JSONL event stream",
    )
    _add_multifield_flags(trace)
    _add_fault_flags(trace)

    profile = sub.add_parser(
        "profile",
        help="run one algorithm under the span profiler + metrics "
        "registry and print the per-phase hotpath table (numbers "
        "identical to 'run' at the same flags)",
    )
    profile.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="geographic",
    )
    profile.add_argument("--n", type=int, default=512)
    profile.add_argument("--epsilon", type=float, default=0.2)
    profile.add_argument(
        "--topology",
        choices=topology_names(),
        default="rgg",
        help="graph family from the topology zoo (default: flat RGG)",
    )
    profile.add_argument(
        "--field", choices=sorted(FIELD_GENERATORS), default="random"
    )
    profile.add_argument("--seed", type=int, default=20070801)
    profile.add_argument(
        "--check-stride",
        type=_positive_int,
        default=1,
        help="engine error-check stride (1 = legacy bit-identical loop; "
        "every stride records window and check spans)",
    )
    _add_multifield_flags(profile)
    _add_fault_flags(profile)

    replay = sub.add_parser(
        "replay",
        help="re-derive a trace's numbers from its events and cross-check "
        "them (bitwise) against what it recorded",
    )
    replay.add_argument(
        "path",
        help="a .jsonl trace file, a directory of traces, or a sweep "
        "store root (every **/traces/*.jsonl is validated against its "
        "stored cell record)",
    )
    replay.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="replay traces across this many processes (output lines "
        "stay in input order; the summary is identical at any count)",
    )

    diff = sub.add_parser(
        "store-diff",
        help="compare two result-store roots record by record (canonical "
        "bytes; timing/telemetry excluded) — exit 1 on any difference",
    )
    diff.add_argument("left", help="first store root")
    diff.add_argument("right", help="second store root")
    return parser


def _build_run_instance(args: argparse.Namespace):
    """Graph, field, fault spec, and algorithm for one CLI run.

    The one instance-building path ``run`` and ``trace`` share, so a
    traced run reproduces the plain run at the same flags bit for bit.
    """
    if topology_incompatible((args.algorithm,), args.topology):
        _usage_error(
            f"topology {args.topology!r} has no geometric edges, so greedy "
            f"routes void and {args.algorithm!r} (round-based) cannot "
            "converge on it — pick another --algorithm or --topology"
        )
    graph = build_topology(
        args.topology,
        args.n,
        spawn_rng(
            args.seed, "cli-graph", *topology_seed_tags(args.topology, args.n)
        ),
    )
    field_rng = spawn_rng(args.seed, "cli-field", args.field)
    if args.fields == 1:
        values = FIELD_GENERATORS[args.field](graph.positions, field_rng)
    else:
        values = build_field_matrix(
            args.workload, args.field, graph.positions, field_rng, args.fields
        )
    spec = _fault_spec(args)
    _reject_fault_incompatible(spec, [args.algorithm])
    if spec.enabled:
        # The engine's per-cell fault wiring, as trial 0: the run faces
        # the same fault *scenario* as sweep trial 0 at this seed (graph,
        # field, and run streams keep their own cli-* tags).
        algorithm = build_faulted_algorithm(
            args.algorithm, graph, spec, args.seed, args.n, 0
        )
    else:
        algorithm = make_algorithm(args.algorithm, graph)
    return graph, values, spec, algorithm


def _command_run(args: argparse.Namespace) -> int:
    graph, values, spec, algorithm = _build_run_instance(args)
    if args.show_field:
        print("initial field:")
        print(render_field(graph.positions, primary_field(values)))
    result = run_batched(
        algorithm,
        values,
        args.epsilon,
        spawn_rng(args.seed, "cli-run", args.algorithm),
        check_stride=args.check_stride,
    )
    field_rows = []
    if result.column_errors is not None:
        field_rows = [["fields", f"{args.fields} ({args.workload})"]] + [
            [f"  field {index} error", error]
            for index, error in enumerate(result.column_errors)
        ]
    fault_rows = []
    if spec.enabled:
        fault_rows = [["faults", spec.canonical()]] + [
            [f"  {metric}", value]
            for metric, value in sorted(
                algorithm.fault_metrics(
                    result.values, result.initial_values
                ).items()
            )
        ]
    print(
        format_table(
            ["metric", "value"],
            [
                ["algorithm", args.algorithm],
                ["topology", args.topology],
                ["n", args.n],
                ["converged", result.converged],
                ["final error", result.error],
                ["ticks", result.ticks],
                ["transmissions", result.total_transmissions],
                *[
                    [f"  {cat}", count]
                    for cat, count in sorted(result.transmissions.items())
                    if cat != "total"
                ],
                *field_rows,
                *fault_rows,
            ],
            title=f"run to ε={args.epsilon} on a '{args.field}' field",
        )
    )
    if args.show_field:
        print("\nfinal field:")
        print(render_field(graph.positions, primary_field(result.values)))
    return 0 if result.converged else 1


def _command_trace(args: argparse.Namespace) -> int:
    graph, values, spec, algorithm = _build_run_instance(args)
    if batching_capability(algorithm) == "rounds":
        _usage_error(
            f"'{args.algorithm}' does not emit a trace (round-based "
            "protocols emit no events and suspend the recorder) — pick "
            "a tick-driven protocol"
        )
    with events.capture() as recorder:
        result = run_batched(
            algorithm,
            values,
            args.epsilon,
            spawn_rng(args.seed, "cli-run", args.algorithm),
            check_stride=args.check_stride,
        )
    path = recorder.write(args.out)
    print(
        format_table(
            ["metric", "value"],
            [
                ["algorithm", args.algorithm],
                ["n", args.n],
                ["converged", result.converged],
                ["final error", result.error],
                ["transmissions", result.total_transmissions],
                ["ticks", result.ticks],
                ["trace events", len(recorder)],
                ["trace file", str(path)],
            ],
            title=f"traced run to ε={args.epsilon}",
        )
    )
    print()
    print(render_timeline(recorder.events))
    return 0 if result.converged else 1


def _command_profile(args: argparse.Namespace) -> int:
    from repro.observability import metrics, profile

    with metrics.expose() as registry, profile.capture() as profiler:
        # Built inside the exposed scope so construction-time collectors
        # (the route cache's) register; building consumes the same RNG
        # either way, so the numbers still match a plain 'run'.
        with profile.span("build"):
            graph, values, spec, algorithm = _build_run_instance(args)
        with profile.span("run"):
            result = run_batched(
                algorithm,
                values,
                args.epsilon,
                spawn_rng(args.seed, "cli-run", args.algorithm),
                check_stride=args.check_stride,
            )
    print(
        format_table(
            ["metric", "value"],
            [
                ["algorithm", args.algorithm],
                ["topology", args.topology],
                ["n", args.n],
                ["converged", result.converged],
                ["final error", result.error],
                ["transmissions", result.total_transmissions],
                ["ticks", result.ticks],
            ],
            title=f"profiled run to ε={args.epsilon}",
        )
    )
    print("\nhotpath table (wall clock by span):")
    print(profiler.render_table())
    counters = registry.counter_totals()
    if counters:
        width = max(len(series) for series in counters)
        print("\ncounters:")
        for series, value in sorted(counters.items()):
            print(f"  {series.ljust(width)}  {value:g}")
    return 0 if result.converged else 1


def _trace_files(target: Path) -> list[Path]:
    """The trace files a ``repro replay`` target names.

    A ``.jsonl`` file replays alone; a directory holding traces replays
    each of them; any other directory is treated as a sweep store root
    and searched for ``**/traces/*.jsonl``.
    """
    if target.is_file():
        return [target]
    if target.is_dir():
        direct = sorted(target.glob("*.jsonl"))
        if direct:
            return direct
        return sorted(target.glob("**/traces/*.jsonl"))
    return []


def _trace_cell_record(trace: Path, start: dict) -> "CellRecord | None":
    """The stored cell a sweep trace belongs to, when it can be found.

    Sweep traces carry their ``(algorithm, n, trial)`` key in the start
    event and live in ``<store cell dir>/traces/``, next to the
    ``cells.jsonl`` their record was appended to.  Ad-hoc traces (``repro
    trace``) carry no cell key and validate only internally.
    """
    cell = start.get("cell")
    if not isinstance(cell, dict):
        return None
    records_path = trace.parent.parent / "cells.jsonl"
    if not records_path.exists():
        return None
    try:
        key = (str(cell["algorithm"]), int(cell["n"]), int(cell["trial"]))
    except (KeyError, TypeError, ValueError):
        return None
    for line in records_path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = CellRecord.from_dict(json.loads(line))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            continue
        if record.key == key:
            return record
    return None


def _replay_one(trace_path: str) -> "tuple[bool, str]":
    """Replay one trace file; returns ``(ok, report line)``.

    Module-level and picklable, so ``repro replay --workers N`` can fan
    traces across a process pool; each trace's validation is
    self-contained, which is what makes the fan-out safe.
    """
    trace = Path(trace_path)
    try:
        trace_events = events.load_trace(trace)
        replay = replay_events(trace_events)
        start = trace_events[0] if trace_events else {}
        record = _trace_cell_record(trace, start)
        if record is not None:
            validate_record(replay, record)
    except (ReplayError, ValueError) as error:
        return False, f"FAIL {trace}: {error}"
    against = "trace + cell record" if record is not None else "trace"
    return True, (
        f"ok   {trace}: {replay.algorithm} n={replay.n} "
        f"k={replay.fields} — {replay.transmissions['total']} tx, "
        f"{replay.checks} checks replayed bitwise ({against})"
    )


def _command_replay(args: argparse.Namespace) -> int:
    target = Path(args.path)
    traces = _trace_files(target)
    if not traces:
        _usage_error(
            f"{target}: no trace found (expected a .jsonl file, a traces "
            "directory, or a sweep store root)"
        )
    paths = [str(trace) for trace in traces]
    workers = min(args.workers, len(paths))
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        outcomes = pool.map(_replay_one, paths)
    else:
        outcomes = map(_replay_one, paths)
    failures = 0
    try:
        # ``map`` yields in input order for both paths, so the report —
        # and the summary line below — is byte-identical at any worker
        # count.
        for ok, line in outcomes:
            if not ok:
                failures += 1
            print(line, flush=True)
    finally:
        if pool is not None:
            pool.shutdown()
    print(
        f"\n{len(traces) - failures}/{len(traces)} traces replayed "
        "and validated" + (f", {failures} FAILED" if failures else "")
    )
    return 1 if failures else 0


def _sweep_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ExperimentConfig a sweep-grid flag set names (usage errors
    exit cleanly).  ``sweep`` and ``serve-sweep`` share this, which is
    what makes their stores interchangeable."""
    sizes = tuple(int(s) for s in args.sizes.split(","))
    algorithms = tuple(a.strip() for a in args.algorithms.split(","))
    spec = _fault_spec(args)
    _reject_fault_incompatible(spec, algorithms)
    try:
        return ExperimentConfig(
            sizes=sizes,
            epsilon=args.epsilon,
            trials=args.trials,
            field=args.field,
            root_seed=args.seed,
            algorithms=algorithms,
            topology=args.topology,
            faults=spec.canonical(),
            fields=args.fields,
            workload=args.workload,
        )
    except ValueError as error:
        _usage_error(str(error))


def _print_sweep_tables(
    args: argparse.Namespace, config: ExperimentConfig, sweep
) -> None:
    """The sweep summary tables ``sweep`` and ``serve-sweep`` both print."""
    sizes = config.sizes
    algorithms = config.algorithms
    rows = []
    for n in sizes:
        row = [n]
        for name in algorithms:
            point = next(p for p in sweep[name] if p.n == n)
            row.append(int(point.transmissions_mean))
        rows.append(row)
    print(
        format_table(
            ["n", *algorithms],
            rows,
            title=(
                f"mean transmissions to ε={args.epsilon} on "
                f"'{args.topology}' ({args.trials} trials)"
                + (
                    f", {config.fields} '{config.workload}' fields"
                    if config.fields > 1
                    else ""
                )
                + (
                    f", faults '{config.faults}'"
                    if config.fault_spec().enabled
                    else ""
                )
            ),
        )
    )
    if len(sizes) >= 2:
        slopes = []
        for name in algorithms:
            points = sweep[name]
            slopes.append(
                [
                    name,
                    fit_loglog_slope(
                        np.array([p.n for p in points], dtype=float),
                        np.array([p.transmissions_mean for p in points]),
                    ),
                ]
            )
        print()
        print(format_table(["algorithm", "log-log slope"], slopes))
    if any(p.wall_clock_mean is not None for ps in sweep.values() for p in ps):
        timing_rows = []
        for n in sizes:
            row = [n]
            for name in algorithms:
                point = next(p for p in sweep[name] if p.n == n)
                clock = point.wall_clock_mean
                row.append("—" if clock is None else f"{clock * 1e3:,.1f}")
            timing_rows.append(row)
        print()
        print(
            format_table(
                ["n", *algorithms],
                timing_rows,
                title="mean wall clock per cell (ms)",
            )
        )


def _command_sweep(args: argparse.Namespace) -> int:
    config = _sweep_config(args)
    store = None
    if args.store_dir is not None:
        store = ResultStore(args.store_dir, config, args.check_stride)
        already = len(store.load_records()) if args.resume else 0
        if not args.resume:
            store.reset()
        print(
            f"store: {store.directory}"
            + (f" (resuming past {already} finished cells)" if already else "")
        )
    elif args.resume:
        print("--resume requires --store-dir", file=sys.stderr)
        return 2
    if args.trace and store is None:
        print("--trace requires --store-dir", file=sys.stderr)
        return 2
    try:
        sweep = run_scaling_sweep(
            config,
            workers=args.workers,
            check_stride=args.check_stride,
            store=store,
            trace=args.trace,
        )
    except StoreDriftError as error:
        _usage_error(str(error))
    _print_sweep_tables(args, config, sweep)
    if args.trace and store is not None:
        traces = sorted((store.directory / "traces").glob("*.jsonl"))
        print(
            f"\ntraces: {len(traces)} JSONL event streams under "
            f"{store.directory / 'traces'} "
            f"(validate with: python -m repro replay {store.directory})"
        )
    return 0


def _command_serve_sweep(args: argparse.Namespace) -> int:
    import shutil

    from repro.engine.queue import DEFAULT_PRIORITY
    from repro.engine.service import run_distributed_sweep, run_sweep_daemon
    from repro.engine.store import ShardDivergenceError
    from repro.experiments.report import sweep_from_store

    if not args.daemon and (args.max_pending, args.priority) != (None, None):
        _usage_error("--max-pending and --priority only apply with --daemon")
    config = _sweep_config(args)
    store = ResultStore(args.store_dir, config, args.check_stride)
    queue_dir = (
        Path(args.queue_dir)
        if args.queue_dir is not None
        else Path(args.store_dir) / "_service_queue"
    )
    if not args.resume:
        store.reset()
        if queue_dir.exists():
            shutil.rmtree(queue_dir)
    already = len(store.load_records()) if args.resume else 0
    print(
        f"store: {store.directory}"
        + (f" (resuming past {already} finished cells)" if already else "")
    )
    print(f"queue: {queue_dir} ({args.workers} workers, ttl {args.ttl}s)")

    def _progress(stats) -> None:
        print(
            f"  {stats.done}/{stats.total} cells done, "
            f"{stats.leased} leased, {stats.reclamations} reclamations",
            flush=True,
        )

    def _metrics_url(url: str) -> None:
        print(f"metrics: {url}/metrics  (health: {url}/healthz)", flush=True)

    session = dict(
        queue_dir=queue_dir,
        workers=args.workers,
        ttl=args.ttl,
        heartbeat_interval=args.heartbeat_interval,
        poll_interval=args.poll_interval,
        worker_throttle=args.worker_throttle,
        chaos_kill_after=args.chaos_kill_after,
        max_respawns=args.max_respawns,
        on_progress=_progress,
        metrics_port=args.metrics_port,
        on_metrics_url=_metrics_url,
    )
    try:
        if args.daemon:
            print(
                "daemon: accepting further grids via 'repro enqueue "
                f"--queue-dir {queue_dir}'; stop with 'repro drain "
                f"--queue-dir {queue_dir}' or SIGTERM"
            )
            priority = (
                DEFAULT_PRIORITY if args.priority is None else args.priority
            )
            results = run_sweep_daemon(
                args.store_dir,
                max_pending=args.max_pending,
                initial_grids=[
                    (config, args.check_stride, args.trace, priority)
                ],
                handle_signals=True,
                **session,
            )
        else:
            run_distributed_sweep(
                config,
                store=store,
                check_stride=args.check_stride,
                trace=args.trace,
                **session,
            )
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ShardDivergenceError:
        raise
    except ValueError as error:
        _usage_error(str(error))
    if args.daemon:
        print(f"\ndrained {len(results)} grid(s):")
        for key in sorted(results):
            print(f"  {key}: {len(results[key])} cells -> "
                  f"{Path(args.store_dir) / key}")
        print(f"(partial report + telemetry under {queue_dir})")
        return 0
    _print_sweep_tables(args, config, sweep_from_store(store))
    print(
        f"\nmerged store: {store.directory}  "
        f"(partial report + telemetry under {queue_dir})"
    )
    if args.trace:
        print(f"validate traces with: python -m repro replay {store.root}")
    return 0


def _command_work(args: argparse.Namespace) -> int:
    import os

    from repro.engine.service import run_worker

    worker_id = (
        args.worker_id if args.worker_id is not None else f"pid{os.getpid()}"
    )
    try:
        completed = run_worker(
            args.queue_dir,
            worker_id,
            heartbeat_interval=args.heartbeat_interval,
            poll_interval=args.poll_interval,
            throttle=args.throttle,
        )
    except FileNotFoundError as error:
        _usage_error(str(error))
    print(f"worker {worker_id}: {completed} cells completed, queue drained")
    return 0


def _command_enqueue(args: argparse.Namespace) -> int:
    from repro.engine.queue import QueueFull
    from repro.engine.service import enqueue_grid

    config = _sweep_config(args)
    try:
        report = enqueue_grid(
            args.queue_dir,
            config,
            check_stride=args.check_stride,
            trace=args.trace,
            priority=args.priority,
            store_root=args.store_dir,
            block=args.block,
        )
    except QueueFull as error:
        print(f"backpressure: {error}", file=sys.stderr)
        return 3
    except (FileNotFoundError, ValueError) as error:
        _usage_error(str(error))
    print(
        f"grid {report['grid']} at p{report['priority']}: "
        f"{report['enqueued']} cells enqueued, {report['skipped']} already "
        f"finished ({report['pending_depth']} pending overall)"
    )
    return 0


def _command_drain(args: argparse.Namespace) -> int:
    import time

    from repro.engine.queue import LeaseQueue

    try:
        queue = LeaseQueue.open(args.queue_dir)
    except (FileNotFoundError, ValueError) as error:
        _usage_error(str(error))
    queue.request_drain()
    print(f"drain requested on {queue.root}")
    if args.wait:
        while not queue.drained():
            time.sleep(args.poll_interval)
        stats = queue.stats()
        print(f"drained: {stats.done} cells done")
    return 0


def _command_store_diff(args: argparse.Namespace) -> int:
    from repro.engine.service import diff_stores

    for side in (args.left, args.right):
        if not Path(side).is_dir():
            _usage_error(f"{side}: not a store root (directory not found)")
    differences = diff_stores(args.left, args.right)
    for line in differences:
        print(line)
    if differences:
        print(f"\n{len(differences)} difference(s)")
        return 1
    print(f"stores identical: {args.left} == {args.right}")
    return 0


def _command_inspect(args: argparse.Namespace) -> int:
    rng = spawn_rng(args.seed, "cli-inspect", args.n)
    graph = RandomGeometricGraph.sample_connected(args.n, rng)
    tree = HierarchyTree.build(
        graph.positions, leaf_threshold=args.leaf_threshold
    )
    print(
        format_table(
            ["depth", "squares", "E#", "min #", "mean #", "max #", "empty"],
            [
                [
                    r["depth"],
                    r["squares"],
                    r["expected"],
                    r["min"],
                    r["mean"],
                    r["max"],
                    r["empty"],
                ]
                for r in tree.occupancy_report()
            ],
            title=(
                f"hierarchy at n={args.n}: factors {tree.factors}, "
                f"ℓ={tree.levels}"
            ),
        )
    )
    print()
    print(render_hierarchy(tree))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "sweep": _command_sweep,
        "serve-sweep": _command_serve_sweep,
        "work": _command_work,
        "enqueue": _command_enqueue,
        "drain": _command_drain,
        "inspect": _command_inspect,
        "trace": _command_trace,
        "profile": _command_profile,
        "replay": _command_replay,
        "store-diff": _command_store_diff,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
