"""Apply a sequence of pairwise averages in tick order.

A block of pairwise averages ``x_a, x_b ← (x_a + x_b) / 2`` is inherently
sequential: an average reads the values earlier averages wrote.  Scalar
``(n,)`` state runs that loop as it stands, on Python floats
(``values.tolist()``), and is written back once: a Python float add and
multiply are the same correctly rounded IEEE double operations as
NumPy's, so this is the per-tick rule bit for bit, and per pair it costs
less than any array pass.

``(n, k)`` field matrices average whole rows, where array passes pay.
Two averages that share no node commute, so the sequence is regrouped
into *levels*: a pair's level is one more than the latest level already
given to either of its nodes.  The pairs within one level touch disjoint
nodes, and each node meets its averages in the original order, so
applying the levels in turn — one gather, one ``0.5 · (x + y)`` and one
scatter per level — performs every node's operations on the same
operands in the same order.  IEEE addition and multiplication are
correctly rounded elementwise, so the result equals the sequential loop
bit for bit.  Both layouts are tested with hypothesis against that loop.

>>> import numpy as np
>>> values = np.array([0.0, 1.0, 2.0, 3.0])
>>> apply_pair_averages(values, [0, 2, 1], [1, 3, 2])
>>> values.tolist()
[0.5, 1.5, 1.5, 2.5]
>>> fields = np.column_stack([np.arange(4.0), np.arange(4.0)])
>>> apply_pair_averages(fields, [0, 2, 1], [1, 3, 2])  # levels 0, 0, 1
>>> fields[:, 1].tolist()
[0.5, 1.5, 1.5, 2.5]
"""

from __future__ import annotations

import numpy as np

__all__ = ["apply_pair_averages"]


def apply_pair_averages(values: np.ndarray, first, second) -> None:
    """Average ``values[first[i]]`` with ``values[second[i]]`` for each
    ``i`` in order, in place.

    ``values`` is scalar ``(n,)`` state or an ``(n, k)`` field matrix;
    ``first`` and ``second`` are equal-length sequences of node indices in
    tick order (lists or integer arrays).  Scalar state runs the
    sequential loop ``0.5 · (x + y)`` on Python floats and is written
    back once.  A field matrix is averaged one gather/scatter per
    dependency level; each level computes ``(x + y) · 0.5`` with in-place
    row arithmetic, the same IEEE operations as the scalar rule
    (multiplication commutes exactly), so every column mixes exactly as
    the scalar state would.
    """
    if isinstance(first, np.ndarray):
        first = first.tolist()
    if isinstance(second, np.ndarray):
        second = second.tolist()
    if values.ndim == 1:
        vals = values.tolist()
        for a, b in zip(first, second):
            average = 0.5 * (vals[a] + vals[b])
            vals[a] = average
            vals[b] = average
        values[:] = vals
        return
    # A plain list indexed by node: per-pair scalar reads and writes on a
    # list beat NumPy scalar indexing several times over.
    latest = [0] * len(values)
    levels = []
    for a, b in zip(first, second):
        level = latest[a]
        if latest[b] > level:
            level = latest[b]
        latest[a] = latest[b] = level + 1
        levels.append(level)
    levels = np.array(levels, dtype=np.int64)
    order = np.argsort(levels, kind="stable")
    first = np.asarray(first, dtype=np.int64)[order]
    second = np.asarray(second, dtype=np.int64)[order]
    bounds = np.cumsum(np.bincount(levels)).tolist()
    start = 0
    for stop in bounds:
        _average(values, first[start:stop], second[start:stop])
        start = stop


def _average(values: np.ndarray, first: np.ndarray, second: np.ndarray) -> None:
    """One level: pairs sharing no node, averaged in one gather/scatter."""
    average = values[first]
    average += values[second]
    average *= 0.5
    values[first] = average
    values[second] = average
