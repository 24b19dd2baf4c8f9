"""The paper's affine pairwise dynamics on the complete graph (Appendix).

Lemma 1's setting: nodes ``1..n`` on ``K_n``, coefficients
``α_i ∈ (1/3, 1/2)``.  When node ``i``'s clock ticks it picks ``j``
uniformly at random and the pair updates *from pre-exchange values*:

    x_i(t) = (1 − α_i)·x_i(t−1) + α_j·x_j(t−1)
    x_j(t) = (1 − α_j)·x_j(t−1) + α_i·x_i(t−1)

Note the cross-weighting — ``i`` gains exactly the mass ``j`` loses and
vice versa — which conserves the sum even with unequal coefficients.  This
is precisely the form induced on square *sums* by the hierarchical
protocol's `Far` exchanges, and Lemma 1 proves
``E‖x(t)‖² < (1 − 1/(2n))^t · ‖x(0)‖²`` (experiment E1).

Lemma 2's perturbed variant adds an antisymmetric disturbance ``±ν(t)``
with ``|ν(t)| < ε_ν``, modelling imperfect intra-square averaging;
experiment E3 checks the paper's deviation bound.
"""

from __future__ import annotations

import numpy as np

from repro.gossip.base import AsynchronousGossip
from repro.observability import events as _events
from repro.routing.cost import TransmissionCounter

__all__ = [
    "sample_alphas",
    "affine_pair_update",
    "AffineGossipKn",
    "PerturbedAffineGossipKn",
]

ALPHA_LOW = 1.0 / 3.0
ALPHA_HIGH = 1.0 / 2.0


def sample_alphas(n: int, rng: np.random.Generator) -> np.ndarray:
    """Coefficients ``α_i`` drawn uniformly from the paper's ``(1/3, 1/2)``."""
    if n <= 0:
        raise ValueError(f"need a positive node count, got {n}")
    return rng.uniform(ALPHA_LOW, ALPHA_HIGH, size=n)


def affine_pair_update(
    values: np.ndarray,
    i: int,
    j: int,
    alpha_i: float,
    alpha_j: float,
) -> None:
    """Apply the cross-weighted affine update to the pair ``(i, j)`` in place.

    Both sides are computed from pre-exchange values *before* either row
    is written: on an ``(n, k)`` field matrix ``values[i]`` is a live row
    view, and writing it first would silently feed post-exchange values
    into ``j``'s update (scalar state never hits this — indexing a 1-D
    array copies).
    """
    if i == j:
        raise ValueError(f"affine update needs two distinct nodes, got {i}=={j}")
    xi, xj = values[i], values[j]
    new_i = (1.0 - alpha_i) * xi + alpha_j * xj
    new_j = (1.0 - alpha_j) * xj + alpha_i * xi
    values[i] = new_i
    values[j] = new_j


class AffineGossipKn(AsynchronousGossip):
    """Lemma 1 dynamics: affine pairwise exchanges on the complete graph.

    Parameters
    ----------
    alphas:
        Per-node coefficients; defaults to a uniform draw from
        ``(1/3, 1/2)`` using ``alpha_rng``.  Values outside ``(0, 1)`` make
        the update non-contracting — permitted here deliberately, because
        experiment E10 uses this class to demonstrate the instability the
        paper's occupancy concentration guards against.

    Cross-weighted pair updates are row arithmetic with both sides
    computed before either row is written (no view aliasing), so an
    (n, k) field matrix updates column by column exactly like k scalar
    runs sharing one pair sequence.  Every column must be mean-zero (see
    ``requires_centered_field``).
    """

    name = "affine-kn"

    #: Lemma 1's contraction is a statement about the mean-zero subspace
    #: (the paper's WLOG ``x̄(0) = 0``): the cross-weighted update does
    #: not preserve a constant offset pointwise, so an uncentred field
    #: stalls at a deviation floor instead of converging.  The engine
    #: warns when such a field is handed to this protocol.
    requires_centered_field = True

    #: The comparator has no radio model: exchanges pick *any* node of
    #: ``K_n`` and write to it directly, so fault dynamics (which freeze
    #: crashed nodes' values and sever routed transmissions) have nothing
    #: coherent to attach to — the dynamics layer rejects it.
    supports_dynamics = False

    def __init__(
        self,
        n: int,
        alphas: np.ndarray | None = None,
        alpha_rng: np.random.Generator | None = None,
    ):
        super().__init__(n)
        if alphas is None:
            if alpha_rng is None:
                raise ValueError("provide either explicit alphas or alpha_rng")
            alphas = sample_alphas(n, alpha_rng)
        alphas = np.asarray(alphas, dtype=np.float64)
        if alphas.shape != (n,):
            raise ValueError(
                f"need one alpha per node: expected shape ({n},), got {alphas.shape}"
            )
        self.alphas = alphas

    def tick(
        self,
        node: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: np.random.Generator,
    ) -> None:
        partner = self._choose_partner(node, rng)
        affine_pair_update(
            values, node, partner, self.alphas[node], self.alphas[partner]
        )
        counter.charge(2, "exchange")
        recorder = _events.active()
        if recorder is not None:
            # The per-node alphas ride the start event once; each event
            # only needs the pair.
            recorder.emit(
                {"e": "pairs", "op": "affine", "pairs": [[node, partner]]}
            )

    def tick_budget(self, epsilon: float) -> int:
        # Lemma 1: rate (1 - 1/2n) per tick => ~2n·log(1/ε²) ticks; 30x slack.
        log_term = 1 + 2 * abs(np.log(max(epsilon, 1e-12)))
        return int(60 * self.n * log_term) + 1_000

    def _choose_partner(self, node: int, rng: np.random.Generator) -> int:
        partner = int(rng.integers(self.n - 1))
        return partner + 1 if partner >= node else partner


class PerturbedAffineGossipKn(AffineGossipKn):
    """Lemma 2 dynamics: affine exchanges with bounded antisymmetric noise.

    Each exchange adds ``+ν`` to one side and ``−ν`` to the other with
    ``|ν| < noise_bound``, so the sum stays conserved while the deviation
    floor rises — the model of error injected by imperfect intra-square
    averaging one level down the hierarchy.
    """

    name = "affine-kn-perturbed"

    def __init__(
        self,
        n: int,
        noise_bound: float,
        alphas: np.ndarray | None = None,
        alpha_rng: np.random.Generator | None = None,
    ):
        super().__init__(n, alphas=alphas, alpha_rng=alpha_rng)
        if noise_bound < 0:
            raise ValueError(f"noise bound must be non-negative, got {noise_bound}")
        self.noise_bound = noise_bound

    def tick(
        self,
        node: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: np.random.Generator,
    ) -> None:
        partner = self._choose_partner(node, rng)
        affine_pair_update(
            values, node, partner, self.alphas[node], self.alphas[partner]
        )
        # Lemma 2: y_i gets +ν(t−1) and y_j gets −ν(t−1), i.e. the noise
        # perturbs exactly the exchanging pair, antisymmetrically.
        nu = rng.uniform(-self.noise_bound, self.noise_bound)
        values[node] += nu
        values[partner] -= nu
        counter.charge(2, "exchange")
        recorder = _events.active()
        if recorder is not None:
            recorder.emit(
                {
                    "e": "pairs",
                    "op": "affine",
                    "pairs": [[node, partner]],
                    "nus": [float(nu)],
                }
            )
