"""Distance-to-average metrics.

The paper centres values ("Without loss of generality, we assume
x̄(0) = 0") and studies ``‖x(t)‖``.  Simulations keep raw sensor values, so
the metrics here subtract the *initial* mean — which every sum-conserving
protocol preserves — making ``deviation_norm`` the paper's ``‖x(t)‖``
exactly.

**Multi-field state.**  Gossip state is either a scalar field (one value
per node, shape ``(n,)``) or a stacked field matrix (``k`` concurrent
measurements per node, shape ``(n, k)``).  All protocols apply the same
mixing operation to every column, so the paper's scalar theory applies
column by column.  The oracular stopping rule tracks the **primary
field** — column 0 — exactly as the scalar engine always has:
:func:`primary_field` extracts it as a *contiguous* 1-D array, so every
reduction over it (sums, norms) runs the identical NumPy kernel the
scalar path runs, and column 0 of a ``k``-field run stays bit-identical
to the legacy scalar run (the golden-trace suite asserts this).
:func:`column_errors` reports the per-column errors of the secondary
fields, which contract at the same rate because they share the mixing
matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "consensus_value",
    "deviation_norm",
    "normalized_error",
    "variance",
    "max_deviation",
    "field_count",
    "primary_field",
    "column_errors",
    "result_column_errors",
]


def field_count(values: np.ndarray) -> int:
    """Number of stacked fields: 1 for ``(n,)`` state, ``k`` for ``(n, k)``.

    >>> import numpy as np
    >>> field_count(np.zeros(5))
    1
    >>> field_count(np.zeros((5, 3)))
    3
    """
    values = np.asarray(values)
    if values.ndim == 1:
        return 1
    if values.ndim == 2 and values.shape[1] >= 1:
        return int(values.shape[1])
    raise ValueError(
        f"gossip state must have shape (n,) or (n, k), got {values.shape}"
    )


def primary_field(values: np.ndarray) -> np.ndarray:
    """Column 0 of the state as a contiguous 1-D array.

    Scalar (1-D) state is returned unchanged — no copy, so the legacy
    code path is untouched.  Matrix state yields a *contiguous copy* of
    its first column: NumPy's strided axis reductions accumulate in a
    different order than its contiguous 1-D reductions, so operating on
    a strided column view would break the column-0 bit-identity
    guarantee (``tests/test_multifield.py`` checks the kernel identity
    directly).
    """
    values = np.asarray(values)
    if values.ndim == 1:
        return values
    if values.ndim == 2 and values.shape[1] >= 1:
        return np.ascontiguousarray(values[:, 0])
    raise ValueError(
        f"gossip state must have shape (n,) or (n, k), got {values.shape}"
    )


def column_errors(values: np.ndarray, initial_values: np.ndarray) -> np.ndarray:
    """Per-column :func:`normalized_error` of an ``(n, k)`` field matrix.

    Each column is reduced through the same contiguous 1-D kernels the
    scalar metric uses, so ``column_errors(X, X0)[0]`` equals
    ``normalized_error(X[:, 0], X0[:, 0])`` bit for bit.  1-D state
    returns a length-1 array.
    """
    values = np.asarray(values, dtype=np.float64)
    initial_values = np.asarray(initial_values, dtype=np.float64)
    if values.shape != initial_values.shape:
        raise ValueError(
            f"state and initial state shapes differ: {values.shape} vs "
            f"{initial_values.shape}"
        )
    if values.ndim == 1:
        return np.array([normalized_error(values, initial_values)])
    if values.ndim != 2 or values.shape[1] < 1:
        raise ValueError(
            f"gossip state must have shape (n,) or (n, k), got {values.shape}"
        )
    current = np.ascontiguousarray(values.T)
    initial = np.ascontiguousarray(initial_values.T)
    return np.array(
        [
            normalized_error(current[j], initial[j])
            for j in range(values.shape[1])
        ]
    )


def result_column_errors(
    values: np.ndarray, initial_values: np.ndarray
) -> np.ndarray | None:
    """The ``GossipRunResult.column_errors`` construction rule, in one place.

    Matrix state yields :func:`column_errors`; scalar state yields
    ``None`` (scalar results never grew the field, so pre-multi-field
    consumers see exactly what they always saw).  Every run-result build
    site — the tick driver and the trace replayer — goes through here so
    the rule can never desynchronize between them.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        return None
    return column_errors(values, initial_values)


def consensus_value(values: np.ndarray) -> float:
    """The average the protocol should converge to."""
    return float(np.mean(values))


def deviation_norm(values: np.ndarray, mean: float | None = None) -> float:
    """ℓ₂ norm of the deviation from the mean — the paper's ``‖x(t)‖``.

    ``mean`` defaults to the current mean; sum-conserving protocols keep
    that equal to the initial mean, but pass the initial mean explicitly
    when auditing protocols that may leak mass.
    """
    if mean is None:
        mean = consensus_value(values)
    return float(np.linalg.norm(values - mean))


def normalized_error(values: np.ndarray, initial_values: np.ndarray) -> float:
    """``‖x(t)‖ / ‖x(0)‖`` with both deviations taken about the initial mean.

    This is the ε of the paper's problem statement: the algorithm succeeds
    once ``normalized_error ≤ ε``.  Degenerate inputs (initially consensual)
    return 0: any consensus-preserving run is vacuously converged.

    ``(n, k)`` field matrices reduce to their **primary field** (column
    0, via :func:`primary_field`) — the multi-field engine's oracular
    stopping rule; per-column errors are :func:`column_errors`.  Mixing
    a 1-D state with a 2-D one is rejected: silently flattening a matrix
    into the scalar norms would return a plausible-looking wrong number.
    """
    values = np.asarray(values)
    initial_values = np.asarray(initial_values)
    if values.ndim == 2 or initial_values.ndim == 2:
        if values.shape != initial_values.shape:
            raise ValueError(
                f"state and initial state shapes differ: {values.shape} vs "
                f"{initial_values.shape} — compare matching layouts (for "
                "one column of a matrix, slice both sides, or use "
                "column_errors)"
            )
        return normalized_error(
            primary_field(values), primary_field(initial_values)
        )
    initial_mean = consensus_value(initial_values)
    initial_norm = deviation_norm(initial_values, initial_mean)
    if initial_norm == 0.0:
        return 0.0
    return deviation_norm(values, initial_mean) / initial_norm


def variance(values: np.ndarray) -> float:
    """Population variance — ``‖x − x̄‖²/n``, the per-sensor energy."""
    return float(np.var(values))


def max_deviation(values: np.ndarray, mean: float | None = None) -> float:
    """ℓ∞ distance from the mean (stricter than the paper's ℓ₂ criterion)."""
    if mean is None:
        mean = consensus_value(values)
    return float(np.max(np.abs(values - mean)))
