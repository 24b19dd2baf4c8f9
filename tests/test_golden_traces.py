"""Golden-trace equivalence suite: every protocol × the engine contracts.

Parametrized over the shared registry in ``protocol_equivalence.py``:

* stride-1 runs are bit-identical to the legacy scalar loop;
* stride-k runs are a pure function of ``(seed, stride)`` — invariant to
  the engine's internal block chunking and reproducible across fresh
  protocol instances;
* multi-field ``(n, k)`` runs replay the scalar run as their column 0 —
  bit-identical to the legacy loop at stride 1, invariant to ``k`` at
  any stride, and deterministic across fresh instances;
* a class that overrides ``tick_block`` equals the base loop running its
  ``tick`` per owner, bit for bit;
* a class that overrides ``tick_window`` equals the base stride-1 window
  loop, bit for bit, on the PCG64 stream and on a Philox generator.

The registry includes fully faulted cases (churn + link failures + loss
on a pinned schedule), so every contract also covers the dynamics layer.
A new protocol only needs a ``ProtocolCase`` entry in the registry to be
covered by the whole battery.
"""

import numpy as np
import pytest

from protocol_equivalence import (
    CASES,
    assert_block_size_invariant,
    assert_column0_k_invariant,
    assert_multifield_column0_bit_identical,
    assert_multifield_strided_deterministic,
    assert_override_matches_base_loop,
    assert_stride1_bit_identical,
    assert_strided_deterministic,
    assert_window_override_matches_base_loop,
    case_names,
    multifield_native_case_names,
    override_case_names,
    window_override_case_names,
)


@pytest.mark.parametrize("name", case_names())
def test_stride1_bit_identical_to_legacy_loop(name):
    assert_stride1_bit_identical(CASES[name])


@pytest.mark.parametrize("name", case_names(tick_driven=True))
def test_block_size_invariance(name):
    assert_block_size_invariant(CASES[name])


@pytest.mark.parametrize("name", case_names(tick_driven=True))
@pytest.mark.parametrize("check_stride", [2, 8])
def test_strided_runs_deterministic(name, check_stride):
    assert_strided_deterministic(CASES[name], check_stride=check_stride)


@pytest.mark.parametrize("name", override_case_names())
@pytest.mark.parametrize("check_stride", [2, 8])
@pytest.mark.parametrize("fields", [None, 3], ids=["scalar", "k3"])
def test_tick_block_override_matches_base_loop(name, check_stride, fields):
    assert_override_matches_base_loop(
        CASES[name], check_stride=check_stride, fields=fields
    )


@pytest.mark.parametrize("name", window_override_case_names())
@pytest.mark.parametrize(
    "fields, bit_generator",
    [(None, None), (None, np.random.Philox), (3, None)],
    ids=["scalar", "scalar-philox", "k3"],
)
def test_tick_window_override_matches_base_loop(name, fields, bit_generator):
    assert_window_override_matches_base_loop(
        CASES[name], fields=fields, bit_generator=bit_generator
    )


def test_registry_covers_every_registered_algorithm():
    """The sweep registry's protocols all appear in the golden registry."""
    from repro.experiments.config import ALGORITHM_CLASSES

    covered = {type(case.factory()) for case in CASES.values()}
    assert set(ALGORITHM_CLASSES.values()) <= covered


class TestMultiField:
    """Contract 3: the scalar run replays as column 0 of any (n, k) run.

    Runs over *every* registry case — including the faulted
    configurations, so churn masking, link failures, and per-hop loss
    are all exercised with matrix state.
    """

    @pytest.mark.parametrize("name", multifield_native_case_names())
    def test_column0_bit_identical_to_legacy_scalar_run(self, name):
        assert_multifield_column0_bit_identical(CASES[name], k=8)

    @pytest.mark.parametrize("name", case_names(tick_driven=True))
    def test_column0_invariant_to_field_count_when_strided(self, name):
        assert_column0_k_invariant(CASES[name], check_stride=4, k_pair=(1, 8))

    @pytest.mark.parametrize("name", case_names(tick_driven=True))
    def test_multifield_strided_runs_deterministic(self, name):
        assert_multifield_strided_deterministic(CASES[name], k=8)

    @pytest.mark.parametrize("name", case_names(tick_driven=True))
    def test_multifield_block_size_invariance(self, name):
        """The block-size contract holds with matrix state too."""
        from protocol_equivalence import assert_results_identical, run_engine

        reference = run_engine(CASES[name], 7, 4, block_size=1, fields=4)
        other = run_engine(CASES[name], 7, 4, block_size=8192, fields=4)
        assert_results_identical(
            reference, other, f"{name}, k=4, block 1 vs 8192"
        )

    def test_registry_capabilities_are_pinned(self):
        """Tick-driven protocols are native; hierarchical is per-column
        by design (its adaptive round structure is a one-field oracle —
        see tests/test_multifield.py for its fallback battery).  Any
        drift here is a deliberate decision, not an accident."""
        from repro.experiments.config import ALGORITHM_CLASSES, multifield_support

        support = multifield_support(tuple(ALGORITHM_CLASSES))
        assert support.pop("hierarchical") == "per-column"
        assert set(support.values()) == {"native"}, support
