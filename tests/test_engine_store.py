"""Unit tests for repro.engine.store (persistent, resumable results)."""

import json

import pytest

import dataclasses

from repro.engine.executor import CellRecord, expand_grid, run_sweep_records
from repro.engine.store import (
    ResultStore,
    ShardDivergenceError,
    canonical_record_bytes,
    content_key,
)
from repro.experiments import ExperimentConfig
from repro.experiments.report import sweep_from_store


@pytest.fixture
def config():
    return ExperimentConfig(
        sizes=(64,),
        epsilon=0.3,
        trials=2,
        radius_constant=3.0,
        algorithms=("randomized",),
    )


def _fake_record(config, trial=0, total=999_999):
    return CellRecord(
        algorithm="randomized",
        n=64,
        trial=trial,
        epsilon=config.epsilon,
        transmissions={"near": total, "total": total},
        ticks=123,
        converged=True,
        error=0.1,
    )


class TestContentKey:
    def test_stable(self, config):
        assert content_key(config) == content_key(config)

    def test_sensitive_to_config_and_stride(self, config):
        keys = {
            content_key(config),
            content_key(config, check_stride=8),
            content_key(ExperimentConfig(
                sizes=(64,), epsilon=0.3, trials=3, radius_constant=3.0,
                algorithms=("randomized",),
            )),
            content_key(ExperimentConfig(
                sizes=(64,), epsilon=0.3, trials=2, radius_constant=3.0,
                algorithms=("randomized",), root_seed=1,
            )),
        }
        assert len(keys) == 4

    def test_validation(self, config):
        with pytest.raises(ValueError):
            content_key(config, check_stride=0)

    def test_topology_keys_distinct_but_rgg_matches_legacy(self, config):
        """Zoo sweeps get fresh directories; flat-RGG keys are unchanged
        from before the topology field existed, so old stores resume."""
        import dataclasses

        zoo = dataclasses.replace(config, topology="grid2d")
        assert content_key(zoo) != content_key(config)
        explicit = dataclasses.replace(config, topology="rgg")
        assert content_key(explicit) == content_key(config)

    def test_multifield_keys_distinct_but_scalar_matches_legacy(self, config):
        """fields > 1 sweeps key fresh directories (on both k and the
        workload); fields=1 keeps the pre-multi-field key regardless of
        how the (unused) workload knob is spelled, so k=1 stores written
        before the multi-field engine existed resume unchanged."""
        import dataclasses

        multi = dataclasses.replace(config, fields=8)
        assert content_key(multi) != content_key(config)
        assert content_key(multi) != content_key(
            dataclasses.replace(config, fields=8, workload="quantile")
        )
        explicit = dataclasses.replace(config, fields=1, workload="quantile")
        assert content_key(explicit) == content_key(config)

    def test_default_key_pinned_across_engine_versions(self):
        """The k=1 default-config key, frozen: any change to this hash
        silently orphans every historical store directory.  (Pinned at
        the multi-field PR against the pre-multi-field engine.)"""
        assert content_key(ExperimentConfig()) == "379068f1d8668c31"


class TestResultStore:
    def test_roundtrip(self, tmp_path, config):
        store = ResultStore(tmp_path, config)
        record = _fake_record(config)
        store.append(record)
        store.append(_fake_record(config, trial=1))
        loaded = ResultStore(tmp_path, config).load_records()
        assert len(loaded) == 2
        assert loaded[record.key] == record
        assert store.config_path.exists()
        descriptor = json.loads(store.config_path.read_text())
        assert descriptor["epsilon"] == config.epsilon

    def test_duplicate_cells_last_wins(self, tmp_path, config):
        store = ResultStore(tmp_path, config)
        store.append(_fake_record(config, total=1))
        store.append(_fake_record(config, total=2))
        (loaded,) = store.load_records().values()
        assert loaded.total_transmissions == 2

    def test_tolerates_truncated_tail(self, tmp_path, config):
        store = ResultStore(tmp_path, config)
        store.append(_fake_record(config))
        with open(store.records_path, "a", encoding="utf-8") as handle:
            handle.write('{"algorithm": "randomized", "n": 64, "tr')
        assert len(store.load_records()) == 1

    def test_reset_drops_cells(self, tmp_path, config):
        store = ResultStore(tmp_path, config)
        store.append(_fake_record(config))
        store.reset()
        assert len(store) == 0
        assert store.config_path.exists()

    def test_different_strides_never_collide(self, tmp_path, config):
        plain = ResultStore(tmp_path, config).open()
        strided = ResultStore(tmp_path, config, check_stride=8).open()
        assert plain.directory != strided.directory

    def test_field_errors_roundtrip(self, tmp_path, config):
        """Multi-field cells persist per-column errors; scalar cells omit
        the key entirely so pre-multi-field readers still parse them."""
        import dataclasses

        store = ResultStore(tmp_path, dataclasses.replace(config, fields=3))
        record = dataclasses.replace(
            _fake_record(config), field_errors=(0.1, 0.2, 0.05)
        )
        store.append(record)
        (loaded,) = store.load_records().values()
        assert loaded.field_errors == (0.1, 0.2, 0.05)
        line = json.loads(store.records_path.read_text().splitlines()[0])
        assert line["field_errors"] == [0.1, 0.2, 0.05]

        scalar_line = _fake_record(config).to_dict()
        assert "field_errors" not in scalar_line
        assert CellRecord.from_dict(scalar_line).field_errors is None

    def test_scalar_store_resumes_a_multifield_engine(self, tmp_path, config):
        """The CI round-trip in miniature: a store written at k=1 (by any
        engine version) resumes under the multi-field engine without
        recomputation — same key, same cells."""
        run_sweep_records(config, store=ResultStore(tmp_path, config))
        resumed = ResultStore(tmp_path, config)
        fresh = []
        records = run_sweep_records(
            config,
            store=resumed,
            on_record=lambda record, is_fresh: fresh.append(is_fresh),
        )
        assert len(records) == len(expand_grid(config))
        assert fresh and not any(fresh)  # every cell reused, none rerun


class TestBatchingCapabilityGuard:
    def _drift_recorded_batching(self, store):
        payload = json.loads(store.config_path.read_text())
        payload["batching"]["randomized"] = "scalar"  # an older engine
        store.config_path.write_text(json.dumps(payload))

    def test_capability_recorded_in_descriptor(self, tmp_path, config):
        store = ResultStore(tmp_path, config, check_stride=8).open()
        assert store.recorded_batching() == {"randomized": "block"}
        payload = json.loads(store.config_path.read_text())
        assert payload["batching"] == {"randomized": "block"}
        assert "multifield" not in payload  # the one capability map

    def test_strided_store_refuses_capability_drift(self, tmp_path, config):
        """Scalar-path and block-path cells must never mix in one store."""
        store = ResultStore(tmp_path, config, check_stride=8).open()
        store.append(_fake_record(config))
        self._drift_recorded_batching(store)
        with pytest.raises(ValueError, match="batching"):
            ResultStore(tmp_path, config, check_stride=8).open()
        with pytest.raises(ValueError, match="batching"):
            run_sweep_records(
                config,
                check_stride=8,
                store=ResultStore(tmp_path, config, check_stride=8),
            )

    def test_stride_one_store_tolerates_drift(self, tmp_path, config):
        """At stride 1 every protocol runs the same legacy loop."""
        store = ResultStore(tmp_path, config, check_stride=1).open()
        self._drift_recorded_batching(store)
        ResultStore(tmp_path, config, check_stride=1).open()

    def test_legacy_store_without_capability_is_tolerated(
        self, tmp_path, config
    ):
        multi = dataclasses.replace(config, fields=4)
        for sweep, check_stride in ((config, 8), (multi, 1)):
            store = ResultStore(tmp_path, sweep, check_stride).open()
            payload = json.loads(store.config_path.read_text())
            del payload["batching"]
            store.config_path.write_text(json.dumps(payload))
            reopened = ResultStore(tmp_path, sweep, check_stride).open()
            assert reopened.recorded_batching() is None

    def test_reset_clears_a_drifted_store(self, tmp_path, config):
        store = ResultStore(tmp_path, config, check_stride=8).open()
        store.append(_fake_record(config))
        self._drift_recorded_batching(store)
        fresh = ResultStore(tmp_path, config, check_stride=8).reset()
        assert len(fresh) == 0
        assert fresh.recorded_batching() == {"randomized": "block"}

    def test_multifield_store_refuses_capability_drift(self, tmp_path, config):
        """At fields > 1 a drifted map refuses even at stride 1: a
        tick-driven run mixes all k columns in one pass, a round-based
        one runs each column on its own spawned stream."""
        multi = dataclasses.replace(config, fields=4)
        store = ResultStore(tmp_path, multi, check_stride=1).open()
        store.append(_fake_record(config))
        self._drift_recorded_batching(store)
        with pytest.raises(ValueError, match="fields=4"):
            ResultStore(tmp_path, multi, check_stride=1).open()
        # reset is the documented escape hatch.
        fresh = ResultStore(tmp_path, multi, check_stride=1).reset()
        assert len(fresh) == 0
        assert fresh.recorded_batching() == {"randomized": "block"}
        ResultStore(tmp_path, multi, check_stride=1).open()  # no raise

    @pytest.mark.parametrize("fields, check_stride", [(4, 1), (1, 8), (4, 8)])
    def test_store_with_both_maps_resumes_without_recomputation(
        self, tmp_path, config, fields, check_stride
    ):
        """Older engines wrote a second ``multifield`` map
        ("native"/"per-column") next to ``batching``; it is ignored, and
        such a store resumes at fields > 1 and check_stride > 1 with no
        cell recomputed."""
        sweep = dataclasses.replace(config, fields=fields)
        run_sweep_records(
            sweep,
            check_stride=check_stride,
            store=ResultStore(tmp_path, sweep, check_stride),
        )
        store = ResultStore(tmp_path, sweep, check_stride)
        payload = json.loads(store.config_path.read_text())
        payload["multifield"] = {"randomized": "native"}
        store.config_path.write_text(json.dumps(payload))
        lines_before = store.records_path.read_text().count("\n")
        fresh = []
        records = run_sweep_records(
            sweep,
            check_stride=check_stride,
            store=ResultStore(tmp_path, sweep, check_stride),
            on_record=lambda record, is_fresh: fresh.append(is_fresh),
        )
        assert len(records) == len(expand_grid(sweep))
        assert fresh and not any(fresh)
        assert store.records_path.read_text().count("\n") == lines_before


class TestResume:
    def test_stored_cells_are_not_recomputed(self, tmp_path, config):
        """A sentinel record survives the sweep untouched => cell skipped."""
        store = ResultStore(tmp_path, config)
        sentinel = _fake_record(config, trial=0)
        store.append(sentinel)
        records = run_sweep_records(config, store=store)
        assert len(records) == len(expand_grid(config))
        assert records[sentinel.key] == sentinel
        # The genuinely computed cell does not look like the sentinel.
        other = records[("randomized", 64, 1)]
        assert other.total_transmissions != sentinel.total_transmissions

    def test_interrupted_sweep_completes_from_store(self, tmp_path, config):
        reference = run_sweep_records(config)
        store = ResultStore(tmp_path, config)
        # "Interrupted" run: only the first grid cell made it to disk.
        first_key = expand_grid(config)[0].key
        store.append(reference[first_key])
        resumed = run_sweep_records(config, store=store)
        assert resumed == reference
        # And the store now holds the full grid for the next resume.
        assert len(ResultStore(tmp_path, config)) == len(expand_grid(config))

    def test_resume_reports_reused_cells(self, tmp_path, config):
        store = ResultStore(tmp_path, config)
        run_sweep_records(config, store=store)
        seen = []
        run_sweep_records(
            config,
            store=store,
            on_record=lambda record, fresh: seen.append(fresh),
        )
        assert seen == [False] * len(expand_grid(config))

    def test_stride_mismatch_with_store_is_rejected(self, tmp_path, config):
        """Records from different strides must never blend in one result."""
        store = ResultStore(tmp_path, config, check_stride=1)
        with pytest.raises(ValueError, match="check_stride"):
            run_sweep_records(config, check_stride=8, store=store)

    def test_foreign_cells_in_store_are_ignored(self, tmp_path, config):
        store = ResultStore(tmp_path, config)
        foreign = CellRecord(
            algorithm="randomized",
            n=512,  # not part of this sweep's grid
            trial=0,
            epsilon=config.epsilon,
            transmissions={"total": 5},
            ticks=5,
            converged=False,
            error=0.9,
        )
        store.append(foreign)
        records = run_sweep_records(config, store=store)
        assert foreign.key not in records
        assert len(records) == len(expand_grid(config))


class TestReportIntegration:
    def test_sweep_from_store_aggregates_partial_results(self, tmp_path, config):
        reference = run_sweep_records(config)
        store = ResultStore(tmp_path, config)
        store.append(reference[("randomized", 64, 0)])
        partial = sweep_from_store(store)
        assert [p.trials for p in partial["randomized"]] == [1]
        run_sweep_records(config, store=store)
        complete = sweep_from_store(store)
        assert [p.trials for p in complete["randomized"]] == [config.trials]


class TestMergeRecords:
    """The distributed-merge primitive: first wins, duplicates verified.

    The divergence check is the sweep service's corruption and
    nondeterminism detector — cells are deterministic functions of their
    seeds, so a same-key record with different payload bytes is never a
    benign duplicate.
    """

    def test_appends_new_and_counts_identical_duplicates(
        self, tmp_path, config
    ):
        store = ResultStore(tmp_path, config).open()
        first = _fake_record(config, trial=0)
        second = _fake_record(config, trial=1)
        outcome = store.merge_records([first, second, first])
        assert outcome == {"appended": 2, "duplicates": 1}
        assert store.load_records()[first.key] == first

    def test_tampered_payload_raises_named_error(self, tmp_path, config):
        """A 1e-12 nudge on one float — the subtlest corruption a shard
        can carry — must be caught and must name the cell and source."""
        store = ResultStore(tmp_path, config).open()
        record = _fake_record(config)
        store.merge_records([record])
        tampered = dataclasses.replace(record, error=record.error + 1e-12)
        with pytest.raises(ShardDivergenceError, match="randomized"):
            store.merge_records([tampered], source="shard w1")
        with pytest.raises(ShardDivergenceError, match="shard w1"):
            store.merge_records([tampered], source="shard w1")
        # Nothing was appended for the offending record.
        assert len(store.load_records()) == 1

    def test_divergent_transmissions_raise(self, tmp_path, config):
        store = ResultStore(tmp_path, config).open()
        store.merge_records([_fake_record(config, total=100)])
        with pytest.raises(ShardDivergenceError):
            store.merge_records([_fake_record(config, total=101)])

    def test_timing_and_telemetry_do_not_diverge(self, tmp_path, config):
        """wall_clock/telemetry are machine noise, excluded from record
        equality — a duplicate differing only there merges cleanly."""
        store = ResultStore(tmp_path, config).open()
        record = _fake_record(config)
        store.merge_records([record])
        slower = dataclasses.replace(
            record, wall_clock=123.0, telemetry={"ticks_per_sec": 1.0}
        )
        outcome = store.merge_records([slower])
        assert outcome == {"appended": 0, "duplicates": 1}

    def test_canonical_bytes_strip_timing_and_telemetry(self, config):
        record = _fake_record(config)
        noisy = dataclasses.replace(
            record, wall_clock=9.0, telemetry={"cache_hits": 4.0}
        )
        assert canonical_record_bytes(record) == canonical_record_bytes(noisy)
        payload = json.loads(canonical_record_bytes(noisy))
        assert "wall_clock" not in payload and "telemetry" not in payload
        assert payload["algorithm"] == "randomized"


class TestContentKeyPin:
    def test_default_content_key_stays_pinned(self):
        """Execution modes (workers, stride source) are not sweep identity:
        the default config keeps its pinned key."""
        assert content_key(ExperimentConfig()) == "379068f1d8668c31"
