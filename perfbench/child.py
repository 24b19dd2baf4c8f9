"""One benchmark pass: run the ``repro`` CLI in this process, observed.

Usage: ``python3 perfbench/child.py OUT_DIR MODE -- <repro CLI args>``

``MODE`` is one of

* ``plain`` — run the command; record the wall-clock time the first
  sweep cell starts (one wrapper, removed on its first call);
* ``probe`` — the same, but stop as soon as the first cell starts: a
  set-up sample that costs only the set-up;
* ``trace`` — run the command with every layer wrapped by
  :mod:`tracer`, then write the spans to ``OUT_DIR``.

``OUT_DIR/child.json`` receives the exit code and the first-cell time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


class _SetupReached(Exception):
    """Raised by the probe at the first cell to end the pass there."""


def main(argv: list[str]) -> int:
    out, mode, separator, *command = argv
    if separator != "--" or mode not in ("plain", "probe", "trace"):
        raise SystemExit(f"usage: child.py OUT_DIR plain|probe|trace -- ARGS (got {argv})")
    out = Path(out)
    sys.path.insert(0, str(SRC))
    import repro.cli
    import repro.engine.executor as executor

    report: dict = {"first_cell": None}
    tracer = None
    if mode == "trace":
        from tracer import Tracer, default_targets, install

        tracer = Tracer()
        install(tracer, default_targets(tracer))
    else:
        original = executor.execute_cell

        def first_cell(*args, **kwargs):
            report["first_cell"] = time.time()
            executor.execute_cell = original
            if mode == "probe":
                raise _SetupReached
            return original(*args, **kwargs)

        executor.execute_cell = first_cell
    try:
        code = repro.cli.main(command)
    except _SetupReached:
        code = 0
    if tracer is not None:
        tracer.dump(out)
    report["exit"] = code
    (out / "child.json").write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
