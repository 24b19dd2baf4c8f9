"""The repository benchmark: one command, several workloads, checked outputs.

Usage::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  Each workload is a fixed ``repro``
CLI command.  A run executes it as a number of *passes*, one child
process each (see ``child.py``), so that every pass pays, and measures,
interpreter start, import and store open.  Pass ``p`` takes its root
seed from the workload's vetted pool, at index ``seed * passes + p``;
the pass count depends only on ``--seconds``, so a given seed always
names the same cells and the same transmission count.  Passes run one after another; only the fleet workload runs more
than one process at a time (the two workers ``serve-sweep`` spawns).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
pass both untraced and traced, alternating which goes first, checks that
both produced byte-identical records, and prints the per-layer metrics
together with the traced/untraced wall-clock ratio.  The last line of standard output
is a JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The command exits 1 when a correctness check fails and
2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: A run that has not finished after this long fails, so every run ends
#: within three minutes.
DEADLINE_S = 165.0
#: Set-up samples per run; probes top the passes up to this many.
SETUP_SAMPLES = 5
FLEET_WORKERS = 2


def vetted(count: int, stalls: tuple[int, ...] = ()) -> tuple[int, ...]:
    """Root seeds ``20070801 + k`` for ``k < count``, minus ``stalls``.

    Every candidate was run once as a pass of its workload.  On a few
    root seeds the program stalls for minutes — a hierarchical n=512 cell
    of the default sweep runs into its loop caps (k = 37 and 59 of 80) —
    so the benchmark draws its inputs only from seeds the program
    completes in its usual time.
    """
    return tuple(20070801 + k for k in range(count) if k not in stalls)


@dataclass(frozen=True)
class Workload:
    """A ``repro`` command (without ``--seed``/``--store-dir``), the cells
    one pass of it executes, the wall clock that pass takes on a 2-core
    machine, and the pool of root seeds its passes draw from.
    ``reference`` names the serial command whose store a fleet pass must
    equal."""

    command: tuple[str, ...]
    cells: int
    pass_seconds: float
    seeds: tuple[int, ...]
    reference: "tuple[str, ...] | None" = None

    @property
    def fleet(self) -> bool:
        return self.reference is not None

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))

    def pass_seeds(self, seed: int, seconds: float) -> list[int]:
        count = self.passes(seconds)
        return [self.seeds[(seed * count + p) % len(self.seeds)] for p in range(count)]


SWEEP_SEEDS = vetted(80, stalls=(37, 59))


WORKLOADS = {
    # `repro sweep` exactly at its CLI defaults (2 trials per pass).
    "sweep-default": Workload(("sweep",), 18, 5.0, SWEEP_SEEDS),
    "routed-strided": Workload(
        (
            "sweep",
            "--algorithms", "randomized,geographic,spatial,path-averaging",
            "--sizes", "1024,2048",
            "--trials", "1",
            "--check-stride", "16",
        ),
        8,
        18.0,
        vetted(24),
    ),
    # Run by hand, not listed in BENCHMARK.json: on a shared 2-core host its
    # runs swung by more than the 0.25 bound across seeds (see README).
    "hier-scale": Workload(
        (
            "sweep",
            "--algorithms", "hierarchical",
            "--sizes", "2048,4096",
            "--trials", "1",
            "--field", "random",
        ),
        2,
        10.0,
        vetted(40),
    ),
    # The sweep-default grid, served by a two-worker fleet.
    "fleet-default": Workload(
        ("serve-sweep", "--workers", str(FLEET_WORKERS)), 18, 5.0, SWEEP_SEEDS,
        reference=("sweep",),
    ),
}


class PassFailed(RuntimeError):
    """A pass exited non-zero, timed out, or left no usable output."""


def _wait(proc: subprocess.Popen, deadline: float):
    """``wait4`` on ``proc`` until ``deadline``; kills its group on timeout."""

    def _expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BaseException:
        _kill_group(proc)
        raise
    finally:
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the pass's whole process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _load_records(store: Path) -> dict:
    from repro.engine.executor import CellRecord

    records = {}
    for path in sorted(store.glob("*/cells.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = CellRecord.from_dict(json.loads(line))
            records[record.key] = record
    return records


def run_pass(directory: Path, mode: str, command: list[str], deadline: float) -> dict:
    """Run one child pass; returns its timing, memory and records."""
    directory.mkdir(parents=True)
    store = directory / "store"
    argv = [sys.executable, str(HERE / "child.py"), str(directory), mode, "--",
            *command, "--store-dir", str(store)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(directory / "output.log", "wb") as log:
        started = time.time()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code, usage = _wait(proc, deadline)
        except TimeoutError:
            raise PassFailed(f"{mode} pass in {directory.name} ran past the deadline") from None
        wall = time.time() - started
    # A finished serve-sweep reaped its workers, so the group is empty;
    # this only matters when a pass failed part-way.
    _kill_group(proc)
    if code != 0:
        tail = (directory / "output.log").read_text(errors="replace")[-2000:]
        raise PassFailed(f"{mode} pass in {directory.name} exited {code}:\n{tail}")
    report = json.loads((directory / "child.json").read_text(encoding="utf-8"))
    result = {
        "dir": directory,
        "store": store,
        "wall": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "setup": None if report["first_cell"] is None else report["first_cell"] - started,
        "records": {} if mode == "probe" else _load_records(store),
    }
    if (store / "_service_queue").is_dir():
        from repro.engine.queue import LeaseQueue

        queue = LeaseQueue.open(store / "_service_queue")
        result["done_log"] = queue.done_log()
        result["reclaims"] = len(queue.reclamation_log())
        result["setup"] = min(entry["claimed_at"] for entry in result["done_log"]) - started
    return result


def converged(record) -> bool:
    return record.converged and record.error <= record.epsilon


def check_records(passes: list[dict], cells: int, problems: list[str]) -> None:
    """Every pass holds its full grid and every cell converged to ε."""
    for p in passes:
        if len(p["records"]) != cells:
            problems.append(f"{p['dir'].name}: {len(p['records'])} cells, expected {cells}")
        for record in p["records"].values():
            if not converged(record):
                problems.append(f"{p['dir'].name}: cell {record.key} did not converge")


def compare_records(plain: list[dict], traced: list[dict], problems: list[str]) -> None:
    """Traced passes must reproduce the untraced records byte for byte."""
    from repro.engine.store import canonical_record_bytes

    for before, after in zip(plain, traced):
        for key in sorted(set(before["records"]) | set(after["records"])):
            left, right = before["records"].get(key), after["records"].get(key)
            if left is None or right is None or canonical_record_bytes(left) != canonical_record_bytes(right):
                problems.append(f"{after['dir'].name}: traced record {key} differs from the untraced one")


def queue_pass(p: dict, spans, meta) -> dict:
    """What :func:`derive.queue_metrics` needs from one traced fleet pass."""
    create = meta["layers"].index("engine.queue.create")
    first = int(np.flatnonzero(spans["layer"] == create)[0])
    anchor = meta["anchor"]
    return {
        "done_log": p["done_log"],
        "reclaims": p["reclaims"],
        "record_wall": sum(record.wall_clock for record in p["records"].values()),
        "wall": p["wall"],
        "queue_created": anchor["time"] + spans["start"][first] - anchor["perf"],
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Run the workload; returns (metrics, attempted, failed, problems)."""
    import derive
    from tracer import load_spans

    deadline = time.monotonic() + DEADLINE_S
    seeds = workload.pass_seeds(seed, seconds)
    problems: list[str] = []

    def one(mode: str, command: tuple[str, ...], index: int, pass_seed: int) -> dict:
        directory = work / f"{mode}-{command[0]}-{index}"
        return run_pass(directory, mode, [*command, "--seed", str(pass_seed)], deadline)

    plain, traced = [], []
    for i, pass_seed in enumerate(seeds):
        # A traced run alternates which side goes first, so drift in the
        # machine's speed does not land on one side of the overhead ratio.
        order = ("plain", "trace") if i % 2 == 0 else ("trace", "plain")
        for mode in order if trace else ("plain",):
            (plain if mode == "plain" else traced).append(one(mode, workload.command, i, pass_seed))
    check_records(plain, workload.cells, problems)
    attempted = len(seeds) * workload.cells
    failed = attempted - sum(converged(r) for p in plain for r in p["records"].values())
    if workload.fleet:
        from repro.engine.service import diff_stores

        reference = one("plain", workload.reference, 0, seeds[0])
        problems.extend(diff_stores(plain[0]["store"], reference["store"]))

    if not trace:
        setups = [p["setup"] for p in plain]
        for i in range(len(setups), SETUP_SAMPLES):
            setups.append(one("probe", workload.command, i, seeds[i % len(seeds)])["setup"])
        return derive.end_to_end_metrics(plain, setups), attempted, failed, problems

    check_records(traced, workload.cells, problems)
    compare_records(plain, traced, problems)
    plain_wall = sum(p["wall"] for p in plain)
    if len(seeds) == 1:
        # One pass: bracket the traced pass with a second untraced one.
        plain_wall = (plain_wall + one("plain", workload.command, 1, seeds[0])["wall"]) / 2
    parts, queue_passes = [], []
    for p in traced:
        spans, meta = load_spans(p["dir"])
        parts.append(derive.span_sums(spans, meta, p["records"]))
        if workload.fleet:
            queue_passes.append(queue_pass(p, spans, meta))
    metrics = derive.layer_metrics(
        parts,
        [record for p in traced for record in p["records"].values()],
        derive.queue_metrics(queue_passes, FLEET_WORKERS) if workload.fleet else {},
        sum(p["wall"] for p in traced) / plain_wall,
    )
    return metrics, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20070801)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the running pass's group is killed
    # and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import derive

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        try:
            metrics, attempted, failed, problems = measure(
                workload, args.seed, args.seconds, bool(args.trace), work
            )
        except PassFailed as error:
            metrics, attempted, failed, problems = {}, 1, 1, [str(error)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    units ={name: unit for name, unit, _ in (derive.PER_LAYER if args.trace else derive.END_TO_END)}
    print(f"workload {args.workload}  seed {args.seed}  passes {workload.passes(args.seconds)}  "
          f"trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
