"""Shared golden-trace equivalence harness for gossip protocols.

Every protocol that runs under :func:`repro.engine.batching.run_batched`
owes the engine two contracts:

1. **Stride-1 bit-identity** — ``run_batched(check_stride=1)`` must equal
   the legacy scalar loop bit for bit (values, transmissions, ticks,
   error, and every trace point).
2. **Block-size invariance** — at any ``check_stride``, results are a
   pure function of ``(seed, stride)``: the internal ``block_size`` used
   to chunk owner sampling must never leak into the numbers.

Since the multi-field engine, a third contract joins them:

3. **Column-0 bit-identity** — an ``(n, k)`` multi-field run's first
   column must equal the legacy scalar run bit for bit (values, ticks,
   transmissions, error, and every trace point), at stride 1 and at any
   stride; equivalently, column 0 is invariant to ``k`` (k=1 vs k=8
   agree).  All stopping decisions read the primary field only, and all
   protocol randomness is value-independent, so the scalar run replays
   inside every multi-field run.

A fourth keeps the strided fast paths honest:

4. **Override ≡ base loop** — a class that overrides ``tick_block`` must
   equal the base loop (its own ``tick`` per owner on the same
   ``DrawStream``) bit for bit, at any stride and field count.

A fifth does the same at stride 1:

5. **Window override ≡ base loop** — a class that overrides
   ``tick_window`` must equal the base ``tick_window`` (its own ``tick``
   per owner, drawing from the run's stride-1 source) bit for bit, with
   the chunked PCG64 stream and with a generator served by scalar calls.

This module factors those assertions (plus strided determinism) into
reusable helpers and a registry of ready-made protocol cases, so adding a
protocol to the golden suite is one `ProtocolCase` entry — future
protocols get the whole equivalence battery for free by registering here
and parametrizing over :func:`case_names`.  The registry includes fully
faulted cases (churn + link failures + loss on a pinned schedule), so
each contract is exercised through the dynamics layer too.

Not a test module itself (no ``test_`` prefix): imported by
``test_golden_traces.py``, ``test_protocol_properties.py`` and
``test_multifield.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.dynamics import DynamicGossip, DynamicSubstrate, FaultSpec
from repro.engine.batching import run_batched
from repro.experiments.seeds import spawn_rng
from repro.gossip.affine import (
    AffineGossipKn,
    PerturbedAffineGossipKn,
    sample_alphas,
)
from repro.gossip.base import AsynchronousGossip, GossipRunResult
from repro.gossip.geographic import GeographicGossip
from repro.gossip.hierarchical.rounds import HierarchicalGossip
from repro.gossip.path_averaging import PathAveragingGossip
from repro.gossip.randomized import RandomizedGossip
from repro.gossip.spatial import SpatialGossip
from repro.graphs.rgg import RandomGeometricGraph

#: One shared substrate for every graph-based case: small enough that the
#: full battery runs in seconds, dense enough that routing never voids.
_N = 48
_GRAPH = RandomGeometricGraph.sample_connected(
    _N, np.random.default_rng(20070801), radius_constant=3.0
)
_VALUES = np.random.default_rng(4242).normal(size=_N)
#: Mean-zero (the paper's WLOG): keeps the affine-K_n cases in the
#: regime Lemma 1 covers, so no UncenteredFieldWarning noise in runs.
_VALUES -= _VALUES.mean()
_ALPHAS = sample_alphas(_N, np.random.default_rng(99))


#: A fixed, fully-enabled fault schedule for the faulted golden cases:
#: churn, link failures, and per-hop loss all active, epochs short enough
#: that a 48-node run crosses several boundaries.  The schedule seed is
#: pinned so every factory call realises the identical scenario — the
#: whole equivalence battery (stride-1 bit-identity, block-size
#: invariance, strided determinism) then applies to the dynamics layer.
_FAULTED_SPEC = FaultSpec(
    churn_rate=0.1,
    recover_rate=0.3,
    link_failure_rate=0.1,
    loss_prob=0.08,
    epoch_ticks=64,
)
_FAULTED_SEED = 1312


def _make_faulted():
    substrate = DynamicSubstrate(_GRAPH, _FAULTED_SPEC, seed=_FAULTED_SEED)
    return DynamicGossip(
        PathAveragingGossip(substrate, target_mode="uniform"), substrate
    )


def _make_faulted_randomized():
    substrate = DynamicSubstrate(_GRAPH, _FAULTED_SPEC, seed=_FAULTED_SEED)
    return DynamicGossip(RandomizedGossip(substrate.neighbors), substrate)


@dataclass(frozen=True)
class ProtocolCase:
    """One protocol under test: a fresh-instance factory plus run knobs."""

    name: str
    factory: Callable[[], object]
    epsilon: float = 0.25
    #: Round-based protocols have no tick loop: stride/block contracts do
    #: not apply, only the stride-1 pass-through identity.
    tick_driven: bool = True


CASES: dict[str, ProtocolCase] = {
    case.name: case
    for case in (
        ProtocolCase(
            "randomized", lambda: RandomizedGossip(_GRAPH.neighbors)
        ),
        ProtocolCase(
            "geographic-uniform",
            lambda: GeographicGossip(_GRAPH, target_mode="uniform"),
        ),
        ProtocolCase(
            "geographic-position",
            lambda: GeographicGossip(_GRAPH, target_mode="position"),
        ),
        ProtocolCase(
            "geographic-rejection",
            lambda: GeographicGossip(_GRAPH, target_mode="rejection"),
        ),
        ProtocolCase("spatial", lambda: SpatialGossip(_GRAPH, rho=2.0)),
        ProtocolCase(
            "path-averaging",
            lambda: PathAveragingGossip(_GRAPH, target_mode="uniform"),
        ),
        ProtocolCase(
            "path-averaging-position",
            lambda: PathAveragingGossip(_GRAPH, target_mode="position"),
        ),
        ProtocolCase(
            "affine-kn", lambda: AffineGossipKn(_N, alphas=_ALPHAS)
        ),
        ProtocolCase(
            "affine-kn-perturbed",
            lambda: PerturbedAffineGossipKn(
                _N, noise_bound=1e-4, alphas=_ALPHAS
            ),
        ),
        ProtocolCase(
            "hierarchical",
            lambda: HierarchicalGossip(_GRAPH),
            tick_driven=False,
        ),
        ProtocolCase("path-averaging-faulted", _make_faulted),
        ProtocolCase("randomized-faulted", _make_faulted_randomized),
    )
}


def case_names(tick_driven: bool | None = None) -> list[str]:
    """Registered case names, optionally filtered to tick-driven ones."""
    return [
        name
        for name, case in CASES.items()
        if tick_driven is None or case.tick_driven == tick_driven
    ]


def override_case_names() -> list[str]:
    """Tick-driven cases whose class overrides ``tick_block``."""
    return [
        name
        for name, case in CASES.items()
        if case.tick_driven
        and type(case.factory()).tick_block is not AsynchronousGossip.tick_block
    ]


def window_override_case_names() -> list[str]:
    """Tick-driven cases whose class overrides ``tick_window``."""
    return [
        name
        for name, case in CASES.items()
        if case.tick_driven
        and type(case.factory()).tick_window is not AsynchronousGossip.tick_window
    ]


def multifield_native_case_names() -> list[str]:
    """Cases whose protocol carries (n, k) state natively in one pass.

    The hierarchical executor is the deliberate exception — its adaptive
    round structure is an oracle over one field, so matrix state routes
    through the engine's per-column fallback instead (covered by its own
    dedicated tests).
    """
    from repro.engine.batching import multifield_capability

    return [
        name
        for name, case in CASES.items()
        if multifield_capability(case.factory()) == "native"
    ]


def initial_values() -> np.ndarray:
    """The shared field every case starts from (copied per run)."""
    return _VALUES.copy()


def initial_field_matrix(k: int) -> np.ndarray:
    """A deterministic ``(n, k)`` stack whose column 0 is the shared field.

    Secondary columns are independent mean-zero draws from a pinned
    stream (mean-zero keeps every column inside the regime the affine
    K_n cases require, so no ``UncenteredFieldWarning`` noise), scaled
    differently per column so a column-mixing bug cannot cancel out.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    columns = [initial_values()]
    secondary = np.random.default_rng(60203).normal(size=(_N, max(k - 1, 0)))
    for j in range(k - 1):
        column = secondary[:, j] * (1.0 + 0.5 * j)
        columns.append(column - column.mean())
    return np.column_stack(columns)


def assert_results_identical(
    left: GossipRunResult, right: GossipRunResult, context: str = ""
) -> None:
    """Bit-level equality of two run results, traces included."""
    suffix = f" ({context})" if context else ""
    np.testing.assert_array_equal(
        left.values, right.values, err_msg=f"values differ{suffix}"
    )
    assert left.transmissions == right.transmissions, (
        f"transmissions differ{suffix}"
    )
    assert left.ticks == right.ticks, f"ticks differ{suffix}"
    assert left.error == right.error, f"error differs{suffix}"
    assert left.converged == right.converged, f"converged differs{suffix}"
    left_trace = [(p.transmissions, p.ticks, p.error) for p in left.trace.points]
    right_trace = [
        (p.transmissions, p.ticks, p.error) for p in right.trace.points
    ]
    assert left_trace == right_trace, f"trace points differ{suffix}"


def run_engine(
    case: ProtocolCase,
    seed: int,
    check_stride: int,
    block_size: int | None = None,
    fields: int | None = None,
    bit_generator: type | None = None,
) -> GossipRunResult:
    """One engine run of ``case`` from the shared field, fresh instance.

    ``fields=None`` runs the legacy scalar state; ``fields=k`` runs the
    deterministic ``(n, k)`` stack of :func:`initial_field_matrix` (whose
    column 0 is the scalar field) from the *same* RNG.  ``bit_generator``
    (say ``np.random.Philox``) replaces the run's PCG64 on the same seed
    sequence.
    """
    kwargs = {} if block_size is None else {"block_size": block_size}
    state = initial_values() if fields is None else initial_field_matrix(fields)
    rng = spawn_rng(seed, "golden", case.name)
    if bit_generator is not None:
        rng = np.random.Generator(bit_generator(rng.bit_generator.seed_seq))
    return run_batched(
        case.factory(),
        state,
        case.epsilon,
        rng,
        check_stride=check_stride,
        **kwargs,
    )


def assert_stride1_bit_identical(case: ProtocolCase, seed: int = 7) -> None:
    """Contract 1: the stride-1 engine path is the legacy loop, bit for bit."""
    legacy = case.factory().run(
        initial_values(), case.epsilon, spawn_rng(seed, "golden", case.name)
    )
    engine = run_engine(case, seed, check_stride=1)
    assert_results_identical(legacy, engine, f"{case.name}, stride 1 vs legacy")


def assert_block_size_invariant(
    case: ProtocolCase,
    seed: int = 7,
    check_stride: int = 4,
    block_sizes: tuple[int, ...] = (1, 7, 8192),
) -> None:
    """Contract 2: stride-k results depend only on (seed, stride)."""
    reference = run_engine(case, seed, check_stride, block_sizes[0])
    for block_size in block_sizes[1:]:
        other = run_engine(case, seed, check_stride, block_size)
        assert_results_identical(
            reference,
            other,
            f"{case.name}, stride {check_stride}, "
            f"block {block_sizes[0]} vs {block_size}",
        )


def assert_strided_deterministic(
    case: ProtocolCase, seed: int = 7, check_stride: int = 4
) -> None:
    """Same (seed, stride) twice — fresh instances — identical results."""
    first = run_engine(case, seed, check_stride)
    second = run_engine(case, seed, check_stride)
    assert_results_identical(
        first, second, f"{case.name}, stride {check_stride}, repeat run"
    )


# -- multi-field contracts ---------------------------------------------------


def assert_column0_matches(
    scalar: GossipRunResult, multi: GossipRunResult, context: str = ""
) -> None:
    """Contract 3's comparison: the scalar run replays as column 0."""
    suffix = f" ({context})" if context else ""
    assert multi.values.ndim == 2, f"expected a multi-field run{suffix}"
    np.testing.assert_array_equal(
        multi.values[:, 0],
        scalar.values if scalar.values.ndim == 1 else scalar.values[:, 0],
        err_msg=f"column 0 differs from the scalar run{suffix}",
    )
    assert multi.ticks == scalar.ticks, f"ticks differ{suffix}"
    assert multi.transmissions == scalar.transmissions, (
        f"transmissions differ{suffix}"
    )
    assert multi.error == scalar.error, f"primary error differs{suffix}"
    assert multi.converged == scalar.converged, f"converged differs{suffix}"
    assert multi.column_errors is not None, f"missing column errors{suffix}"
    assert multi.column_errors[0] == multi.error, (
        f"column_errors[0] is not the primary error{suffix}"
    )
    multi_trace = [(p.transmissions, p.ticks, p.error) for p in multi.trace.points]
    scalar_trace = [
        (p.transmissions, p.ticks, p.error) for p in scalar.trace.points
    ]
    assert multi_trace == scalar_trace, f"trace points differ{suffix}"


def assert_multifield_column0_bit_identical(
    case: ProtocolCase, k: int = 8, seed: int = 7
) -> None:
    """Contract 3 vs the *legacy scalar loop*: column 0 of a stride-1
    ``(n, k)`` engine run equals ``AsynchronousGossip.run`` bit for bit."""
    legacy = case.factory().run(
        initial_values(), case.epsilon, spawn_rng(seed, "golden", case.name)
    )
    multi = run_engine(case, seed, check_stride=1, fields=k)
    assert_column0_matches(
        legacy, multi, f"{case.name}, k={k} stride 1 vs legacy scalar"
    )


def assert_column0_k_invariant(
    case: ProtocolCase,
    seed: int = 7,
    check_stride: int = 4,
    k_pair: tuple[int, int] = (1, 8),
) -> None:
    """Column 0 is a pure function of (seed, stride) — never of ``k``."""
    low = run_engine(case, seed, check_stride, fields=k_pair[0])
    high = run_engine(case, seed, check_stride, fields=k_pair[1])
    # An (n, 1) matrix must come back as a matrix; collapsing it to (n,)
    # is the regression class this helper exists to catch, so failing
    # here beats silently comparing `high` against itself.
    assert low.values.ndim == 2, (
        f"k={k_pair[0]} matrix state collapsed to shape "
        f"{low.values.shape} ({case.name})"
    )
    assert_column0_matches(
        low,
        high,
        f"{case.name}, stride {check_stride}, k={k_pair[0]} vs k={k_pair[1]}",
    )
    # And the (n, 1) matrix path agrees with the plain scalar path.
    scalar = run_engine(case, seed, check_stride)
    assert_column0_matches(
        scalar,
        low,
        f"{case.name}, stride {check_stride}, scalar vs k={k_pair[0]} matrix",
    )


def assert_multifield_strided_deterministic(
    case: ProtocolCase, k: int = 8, seed: int = 7, check_stride: int = 4
) -> None:
    """Same (seed, stride, k) twice — fresh instances — identical matrices."""
    first = run_engine(case, seed, check_stride, fields=k)
    second = run_engine(case, seed, check_stride, fields=k)
    assert_results_identical(
        first,
        second,
        f"{case.name}, stride {check_stride}, k={k}, repeat run",
    )
    np.testing.assert_array_equal(
        first.column_errors,
        second.column_errors,
        err_msg=f"column errors differ ({case.name}, repeat run)",
    )


def assert_override_matches_base_loop(
    case: ProtocolCase,
    check_stride: int,
    fields: int | None = None,
    seed: int = 7,
) -> None:
    """Contract 4: the ``tick_block`` override equals the base loop."""

    def base_loop():
        algorithm = case.factory()
        algorithm.tick_block = AsynchronousGossip.tick_block.__get__(algorithm)
        return algorithm

    override = run_engine(case, seed, check_stride, fields=fields)
    reference = run_engine(
        replace(case, factory=base_loop), seed, check_stride, fields=fields
    )
    assert_results_identical(
        override,
        reference,
        f"{case.name}, stride {check_stride}, "
        f"fields={fields or 'scalar'}, override vs base loop",
    )


def assert_window_override_matches_base_loop(
    case: ProtocolCase,
    fields: int | None = None,
    bit_generator: type | None = None,
    seed: int = 7,
) -> None:
    """Contract 5: the ``tick_window`` override equals the base loop."""

    def base_loop():
        algorithm = case.factory()
        algorithm.tick_window = AsynchronousGossip.tick_window.__get__(algorithm)
        return algorithm

    runs = [
        run_engine(
            variant, seed, 1, fields=fields, bit_generator=bit_generator
        )
        for variant in (case, replace(case, factory=base_loop))
    ]
    assert_results_identical(
        *runs,
        f"{case.name}, stride 1, fields={fields or 'scalar'}, "
        f"{bit_generator.__name__ if bit_generator else 'PCG64'}, "
        "window override vs base loop",
    )
