"""The paper's subdivision rule (Section 4.1).

"The square □ is partitioned into n₁ subsquares □_i, where n₁ is the
nearest integer to √n that is the square of an even number.  ...  while
E#□_{i₁…i_r} > (log n)^8, the square □_{i₁…i_r} is partitioned into
n_{r+1} subsquares □_{i₁…i_{r+1}}, where n_{r+1} is the nearest integer to
√(E#□_{i₁…i_r}) that is the square of an even number."

Squares of *even* numbers matter: with an even number of cells per axis no
child's centre coincides with its parent's centre, so the nearest-to-centre
supernodes of nested squares are distinct sensors w.h.p. ("these centers
are well separated").

The paper's ``(log n)^8`` leaf threshold exceeds every reachable ``n`` (it
passes 10⁶ already at n ≈ 32); simulations therefore use
:func:`practical_leaf_threshold` — same rule, smaller constant.
"""

from __future__ import annotations

import math

__all__ = [
    "nearest_even_square",
    "subdivision_factors",
    "paper_leaf_threshold",
    "practical_leaf_threshold",
]


def nearest_even_square(target: float) -> int:
    """The integer ``(2j)²`` (``j ≥ 1``) nearest to ``target``.

    Ties break towards the smaller square (fewer, larger subsquares).
    """
    if target <= 0 or not math.isfinite(target):
        raise ValueError(f"target must be positive and finite, got {target}")
    # (2j)^2 nearest to target  <=>  j near sqrt(target)/2.
    j = max(1, round(math.sqrt(target) / 2.0))
    best = None
    for candidate_j in (j - 1, j, j + 1):
        if candidate_j < 1:
            continue
        value = (2 * candidate_j) ** 2
        key = (abs(value - target), value)
        if best is None or key < best[0]:
            best = (key, value)
    return best[1]


def subdivision_factors(n: int, leaf_threshold: float) -> list[int]:
    """Per-depth child counts ``[n₁, n₂, …]`` for a field of ``n`` sensors.

    ``factors[r]`` is the number of subsquares a depth-``r`` square splits
    into.  Splitting stops once the expected occupancy drops to
    ``leaf_threshold`` or below, or when a split would no longer reduce the
    expected occupancy below one sensor per subsquare.
    """
    if n < 1:
        raise ValueError(f"need at least one sensor, got {n}")
    if leaf_threshold < 1:
        raise ValueError(f"leaf threshold must be >= 1, got {leaf_threshold}")
    factors: list[int] = []
    expected = float(n)
    while expected > leaf_threshold:
        factor = nearest_even_square(math.sqrt(expected))
        if expected / factor < 1.0:
            # Sub-sensor occupancy: further splitting is meaningless.
            break
        factors.append(factor)
        expected /= factor
    return factors


def paper_leaf_threshold(n: int) -> float:
    """The paper's literal threshold ``(log n)^8`` (natural log)."""
    if n < 2:
        raise ValueError(f"need at least two sensors, got {n}")
    return math.log(n) ** 8


def practical_leaf_threshold(n: int, constant: float = 3.0) -> float:
    """A simulable threshold ``max(8, constant · log n)``.

    Keeps leaves at ``Θ(log n)`` sensors — large enough for occupancy
    concentration to be meaningful, small enough that quadratic `Near`
    averaging inside leaves stays cheap.
    """
    if n < 2:
        raise ValueError(f"need at least two sensors, got {n}")
    if constant <= 0:
        raise ValueError(f"threshold constant must be positive, got {constant}")
    return max(8.0, constant * math.log(n))
