"""Parameter schedules for the hierarchical protocol (Section 4.1).

The paper prescribes, for constants ``a > 0``:

* accuracies   ``ε₀ = ε``,  ``ε_{r+1} = ε_r / (25 n^{7/2+a})``
* confidences  ``δ₀ = δ``,  ``δ_{r+1} = δ_r / n^{2 a r}``
* latencies    ``time(n, ℓ−1, ε_{ℓ−1}, δ_{ℓ−1}) = (log(n/ε_{ℓ−1}) · log(1/δ_{ℓ−1}))^16``
               ``time(n, r−1, …) = time(n, r, …) · n^a · (log(n_r/ε_r) · log(1/δ_r))^16``
* `Far` rate   ``n^{-a} / time(n, r, ε_r, δ_r)`` per tick of an active supernode.

These are worst-case constants: run literally they exceed any simulable
horizon (the module lets you *evaluate* them — experiment E11 tabulates
them — and the tests check their recurrences).  Simulations therefore
never run the literal constants: they use
:meth:`ProtocolParameters.practical`, which keeps the schedule *shapes*
(geometric ε-tightening, `Near` work quadratic in leaf occupancy, `Far`
exchanges ``Θ(k log(k/ε_r))`` per round) with constants that terminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AccuracySchedule", "latency_schedule", "ProtocolParameters"]


@dataclass(frozen=True)
class AccuracySchedule:
    """Per-depth accuracy/confidence targets ``(ε_r, δ_r)``.

    ``mode="paper"`` uses the literal recurrences above; ``mode="practical"``
    tightens ε geometrically (``ε_{r+1} = ε_r · decay``) and keeps δ fixed,
    which is what an adaptive simulation actually needs.
    """

    n: int
    epsilon0: float
    delta0: float
    a: float = 1.0
    mode: str = "paper"
    decay: float = 0.2

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least two sensors, got n={self.n}")
        if not 0 < self.epsilon0:
            raise ValueError(f"epsilon0 must be positive, got {self.epsilon0}")
        if not 0 < self.delta0 < 1:
            raise ValueError(f"delta0 must lie in (0, 1), got {self.delta0}")
        if self.mode not in ("paper", "practical"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if not 0 < self.decay < 1:
            raise ValueError(f"decay must lie in (0, 1), got {self.decay}")

    def epsilon(self, depth: int) -> float:
        """``ε_r`` — the accuracy demanded of rounds at ``depth`` ``r``."""
        if depth < 0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        if self.mode == "practical":
            return self.epsilon0 * self.decay**depth
        shrink = 25.0 * self.n ** (3.5 + self.a)
        return self.epsilon0 / shrink**depth

    def delta(self, depth: int) -> float:
        """``δ_r`` — the failure budget for rounds at ``depth`` ``r``."""
        if depth < 0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        if self.mode == "practical":
            return self.delta0
        # δ_{r+1} = δ_r / n^{2 a r}  =>  δ_r = δ₀ / n^{2a·(0+1+…+(r−1))}.
        exponent = 2.0 * self.a * (depth * (depth - 1) / 2.0)
        return self.delta0 / self.n**exponent


def latency_schedule(
    n: int,
    factors: list[int],
    schedule: AccuracySchedule,
) -> list[float]:
    """The paper's ``time(n, r, ε_r, δ_r)`` for every depth ``r``.

    Returns ``times[r]`` for ``r = 0..ℓ−1`` (the latency of a round run at
    depth ``r``; depth ``ℓ−1`` is the deepest supernode level, whose rounds
    are leaf `Near` phases).  Built by the paper's backward recurrence:

        time(ℓ−1) = (log(n/ε_{ℓ−1}) · log(1/δ_{ℓ−1}))^16
        time(r−1) = time(r) · n^a · (log(n_r/ε_r) · log(1/δ_r))^16
    """
    depth_count = len(factors) + 1  # ℓ levels => rounds at depths 0..ℓ-1
    deepest = depth_count - 1
    times = [0.0] * depth_count

    def log_block(numerator: float, depth: int) -> float:
        eps, delta = schedule.epsilon(depth), schedule.delta(depth)
        return (math.log(numerator / eps) * math.log(1.0 / delta)) ** 16

    times[deepest] = log_block(float(n), deepest)
    for depth in range(deepest - 1, -1, -1):
        n_r = float(factors[depth]) if depth < len(factors) else float(n)
        times[depth] = times[depth + 1] * n**schedule.a * log_block(n_r, depth + 1)
    return times


@dataclass(frozen=True)
class ProtocolParameters:
    """Everything the executor needs, bundled.

    Attributes
    ----------
    schedule:
        The accuracy/confidence schedule (paper or practical mode).
    affine_gain:
        The paper's ``2/5`` coefficient in `Far` updates.
    near_multiplier:
        Leaf `Near` phases run ``near_multiplier · m² · ln(m/ε_r)`` ticks
        (plain gossip averages in quadratic time, paper §5 / [1, 2]).
    exchange_multiplier:
        Rounds make ``exchange_multiplier · k · ln(k/ε_r)`` `Far` exchanges
        among ``k`` child squares (Observation 1's ``Θ(ñ log(ñ/ε_r))``).
    """

    schedule: AccuracySchedule
    affine_gain: float = 0.4
    near_multiplier: float = 3.0
    exchange_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if not 0 < self.affine_gain < 0.5:
            raise ValueError(
                f"affine gain must lie in (0, 1/2), got {self.affine_gain}"
            )
        if self.near_multiplier <= 0 or self.exchange_multiplier <= 0:
            raise ValueError("multipliers must be positive")

    @classmethod
    def paper(
        cls, n: int, epsilon: float, delta: float | None = None, a: float = 1.0
    ) -> "ProtocolParameters":
        """The literal constants (for evaluation/tabulation, not simulation)."""
        if delta is None:
            delta = 1.0 / n  # δ = n^{-O(1)}, the paper's regime
        schedule = AccuracySchedule(
            n=n, epsilon0=epsilon, delta0=delta, a=a, mode="paper"
        )
        return cls(schedule=schedule)

    @classmethod
    def practical(
        cls,
        n: int,
        epsilon: float,
        decay: float = 0.2,
    ) -> "ProtocolParameters":
        """Simulable constants with the paper's schedule shapes."""
        schedule = AccuracySchedule(
            n=n, epsilon0=epsilon, delta0=1.0 / n, mode="practical", decay=decay
        )
        return cls(schedule=schedule)

    def near_ticks(self, occupancy: int, depth: int) -> int:
        """Prescribed `Near` ticks for a leaf of ``occupancy`` sensors."""
        if occupancy <= 1:
            return 0
        eps = self.schedule.epsilon(depth)
        return int(
            math.ceil(
                self.near_multiplier
                * occupancy**2
                * max(1.0, math.log(occupancy / eps))
            )
        )

    def exchange_count(self, children: int, depth: int) -> int:
        """Prescribed `Far` exchanges for a round over ``children`` squares."""
        if children <= 1:
            return 0
        eps = self.schedule.epsilon(depth)
        return int(
            math.ceil(
                self.exchange_multiplier
                * children
                * max(1.0, math.log(children / eps))
            )
        )
