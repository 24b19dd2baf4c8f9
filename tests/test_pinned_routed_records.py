"""The routed baselines' strided cells, pinned.

``tests/test_pinned_sweep_records.py`` pins the paper's protocol on the
CLI sweep's default grid.  This module pins the tick-driven baselines
where their block kernels run: randomized, geographic, spatial and path
averaging at n = 256 and 512, one trial, ``--check-stride 16``, root
seed 20070801 (ε 0.2, gradient field).  Each cell executes through
:func:`~repro.engine.executor.execute_cell` and is compared by
:func:`~repro.engine.store.canonical_record_bytes` with records committed
to ``data/pinned_routed_records.json``.  A change to the batched walk,
the pair-averaging kernel or spatial gossip's target search must leave
every byte of these records as it was.

Regenerate the fixture only when a change is *meant* to move the
numbers::

    PYTHONPATH=src python tests/test_pinned_routed_records.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine.executor import SweepCell, execute_cell, expand_grid
from repro.engine.store import canonical_record_bytes
from repro.experiments.config import ExperimentConfig

FIXTURE = Path(__file__).parent / "data" / "pinned_routed_records.json"

CHECK_STRIDE = 16

ROUTED_GRID = ExperimentConfig(
    sizes=(256, 512),
    epsilon=0.2,
    trials=1,
    field="gradient",
    root_seed=20070801,
    algorithms=("randomized", "geographic", "spatial", "path-averaging"),
)
CELLS = list(expand_grid(ROUTED_GRID))


def cell_id(cell: SweepCell) -> str:
    return f"{cell.algorithm}|n={cell.n}|trial={cell.trial}"


def record_text(cell: SweepCell) -> str:
    record = execute_cell(ROUTED_GRID, cell, check_stride=CHECK_STRIDE)
    return canonical_record_bytes(record).decode("utf-8")


# Absent only while the fixture is being (re)generated.
_PINNED = (
    json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
)


def test_fixture_covers_every_cell():
    assert sorted(_PINNED) == sorted(cell_id(cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_cell_reproduces_pinned_record(cell):
    assert record_text(cell) == _PINNED[cell_id(cell)]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({cell_id(cell): record_text(cell) for cell in CELLS}, indent=1)
        + "\n",
        encoding="utf-8",
    )
