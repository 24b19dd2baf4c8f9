"""Absolute numbers of every golden-registry case, pinned to a fixture.

The golden suite compares engine paths with *each other* (stride 1 vs
the legacy loop, block sizes, field counts), so a refactor that changes
every path the same way would pass it.  This module compares them with
numbers committed to ``data/pinned_digests.json`` instead: for every
case of the ``protocol_equivalence`` registry, at strides 1 and 4, with
scalar state and with a k=3 field stack, it records a digest of the
final values' bytes, the tick count, the transmission ledger and every
trace point.  Two budget-capped runs per tick-driven case also pin the
stop at a window that ends short of a full check period.

Regenerate the fixture only when a change is *meant* to move the
numbers::

    PYTHONPATH=src python tests/test_pinned_digests.py
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from protocol_equivalence import CASES, initial_values, run_engine
from repro.engine.batching import run_batched
from repro.experiments.seeds import spawn_rng

FIXTURE = Path(__file__).parent / "data" / "pinned_digests.json"
SEED = 7
STRIDES = (1, 4)
FIELDS = (None, 3)
#: Budget for the capped runs: not a multiple of the n=48 check period
#: (12 ticks at stride 1, 48 at stride 4), so the last window is short.
CAPPED_TICKS = 50


def digest(result) -> dict:
    """The pinned summary of one run."""
    values = np.ascontiguousarray(result.values, dtype=np.float64)
    return {
        "values_sha256": hashlib.sha256(values.tobytes()).hexdigest(),
        "ticks": result.ticks,
        "transmissions": dict(result.transmissions),
        "trace": [
            [point.transmissions, point.ticks, point.error]
            for point in result.trace.points
        ],
    }


def run_key(name: str, stride: int, fields, capped: bool = False) -> str:
    key = f"{name}|stride={stride}|fields={fields or 'scalar'}"
    return key + f"|max_ticks={CAPPED_TICKS}" if capped else key


def _capped_run(name: str, stride: int):
    case = CASES[name]
    return run_batched(
        case.factory(),
        initial_values(),
        case.epsilon,
        spawn_rng(SEED, "golden", name),
        check_stride=stride,
        max_ticks=CAPPED_TICKS,
    )


def all_runs():
    """``(key, thunk)`` for every pinned run, in fixture order."""
    for name, case in CASES.items():
        for stride in STRIDES:
            for fields in FIELDS:
                yield run_key(name, stride, fields), (
                    lambda c=case, s=stride, f=fields: run_engine(
                        c, SEED, s, fields=f
                    )
                )
            if case.tick_driven:
                yield run_key(name, stride, None, capped=True), (
                    lambda n=name, s=stride: _capped_run(n, s)
                )


def capture() -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {key: digest(thunk()) for key, thunk in all_runs()}


# Absent only while the fixture is being (re)generated.
_PINNED = (
    json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
)
_RUNS = dict(all_runs())


def test_fixture_covers_every_run():
    assert sorted(_PINNED) == sorted(_RUNS)


@pytest.mark.filterwarnings("ignore::Warning")  # fallback / capped notices
@pytest.mark.parametrize("key", sorted(_RUNS))
def test_run_reproduces_pinned_digest(key):
    assert digest(_RUNS[key]()) == _PINNED[key]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
