"""The hierarchical cells of ``repro sweep`` at its defaults, pinned.

``tests/test_pinned_digests.py`` pins the paper's protocol on one
48-sensor world.  This module pins it where users run it: the
hierarchical cells of the CLI sweep's default grid (root seed 20070801,
n = 128, 256, 512, trials 0 and 1, ε 0.2, gradient field), executed
through :func:`~repro.engine.executor.execute_cell` and compared by
:func:`~repro.engine.store.canonical_record_bytes` with records committed
to ``data/pinned_sweep_records.json``.  A change that speeds the
protocol up must leave every byte of these records as it was.

Regenerate the fixture only when a change is *meant* to move the
numbers::

    PYTHONPATH=src python tests/test_pinned_sweep_records.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine.executor import SweepCell, execute_cell, expand_grid
from repro.engine.store import canonical_record_bytes
from repro.experiments.config import ExperimentConfig

FIXTURE = Path(__file__).parent / "data" / "pinned_sweep_records.json"

#: ``repro sweep``'s defaults (``cli._add_sweep_grid_flags``).
SWEEP_DEFAULTS = ExperimentConfig(
    sizes=(128, 256, 512),
    epsilon=0.2,
    trials=2,
    field="gradient",
    root_seed=20070801,
    algorithms=("randomized", "geographic", "hierarchical"),
)
CELLS = [cell for cell in expand_grid(SWEEP_DEFAULTS) if cell.algorithm == "hierarchical"]


def cell_id(cell: SweepCell) -> str:
    return f"{cell.algorithm}|n={cell.n}|trial={cell.trial}"


def record_text(cell: SweepCell) -> str:
    return canonical_record_bytes(execute_cell(SWEEP_DEFAULTS, cell)).decode("utf-8")


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
