"""Unit tests for repro.cli."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main

SRC_DIR = pathlib.Path(__file__).parent.parent / "src"


class TestStartup:
    def test_import_leaves_scipy_unloaded(self):
        # Only rejection targeting and E13 need SciPy; a fresh interpreter
        # importing the CLI must not pay for it.
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.cli; print('scipy.spatial' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "hierarchical"
        assert args.n == 512
        assert args.epsilon == 0.2

    def test_sweep_parsing(self):
        args = build_parser().parse_args(
            ["sweep", "--sizes", "64,128", "--trials", "1"]
        )
        assert args.sizes == "64,128"
        assert args.trials == 1

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workers == 1
        assert args.check_stride == 1
        assert args.store_dir is None
        assert args.resume is False
        run_args = build_parser().parse_args(["run"])
        assert run_args.check_stride == 1

    def test_engine_flag_parsing(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--workers", "4",
                "--check-stride", "8",
                "--store-dir", "results",
                "--resume",
            ]
        )
        assert args.workers == 4
        assert args.check_stride == 8
        assert args.store_dir == "results"
        assert args.resume is True

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "telepathy"])

    def test_fault_flag_defaults(self):
        for command in ("run", "sweep"):
            args = build_parser().parse_args([command])
            assert args.faults == "none"
            assert args.churn_rate is None
            assert args.loss_prob is None

    def test_multifield_flag_defaults(self):
        for command in ("run", "sweep"):
            args = build_parser().parse_args([command])
            assert args.fields == 1
            assert args.workload == "ensemble"

    def test_multifield_flag_parsing(self):
        args = build_parser().parse_args(
            ["run", "--fields", "8", "--workload", "quantile"]
        )
        assert args.fields == 8
        assert args.workload == "quantile"

    def test_rejects_bad_multifield_flags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fields", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--workload", "no-such"])

    def test_round_based_protocol_on_erdos_renyi_exits_cleanly(
        self, capsys, tmp_path
    ):
        # It would never converge there (greedy routes void); `run`,
        # `sweep` and `serve-sweep` refuse it before building anything.
        for argv in (
            ["run", "--algorithm", "hierarchical", "--n", "64"],
            ["sweep", "--sizes", "64", "--trials", "1"],
            [
                "serve-sweep", "--sizes", "64", "--trials", "1",
                "--store-dir", str(tmp_path),
            ],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([*argv, "--topology", "erdos-renyi"])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "erdos-renyi" in err and "hierarchical" in err

    def test_faults_with_incompatible_defaults_exit_cleanly(self, capsys):
        # The sweep default algorithm set includes round-based
        # `hierarchical`; combining it with --faults must be a clean
        # usage error (exit 2), not a traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--sizes", "48", "--trials", "1", "--faults", "lossy"])
        assert excinfo.value.code == 2
        assert "hierarchical" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "run", "--algorithm", "hierarchical",
                    "--n", "48", "--faults", "lossy",
                ]
            )
        assert excinfo.value.code == 2
        assert "hierarchical" in capsys.readouterr().err

    def test_malformed_fault_spec_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--n", "48", "--faults", "telepathy=1"])
        assert excinfo.value.code == 2
        assert "telepathy" in capsys.readouterr().err

    def test_fault_flag_composition(self):
        from repro.cli import _fault_spec

        args = build_parser().parse_args(
            ["run", "--faults", "lossy", "--churn-rate", "0.1"]
        )
        spec = _fault_spec(args)
        assert spec.loss_prob == 0.05  # from the preset
        assert spec.churn_rate == 0.1  # from the override
        args = build_parser().parse_args(["sweep", "--loss-prob", "0.2"])
        assert _fault_spec(args).loss_prob == 0.2

    def test_topology_flag(self):
        assert build_parser().parse_args(["run"]).topology == "rgg"
        assert build_parser().parse_args(["sweep"]).topology == "rgg"
        args = build_parser().parse_args(["sweep", "--topology", "grid2d"])
        assert args.topology == "grid2d"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--topology", "hypercube"])

    def test_rejects_non_positive_engine_flags(self, capsys):
        for argv, fragment in (
            (["sweep", "--workers", "0"], "must be >= 1"),
            (["sweep", "--check-stride", "0"], "must be >= 1"),
            (["run", "--check-stride", "-3"], "must be >= 1"),
            (["sweep", "--workers", "two"], "expected an integer"),
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["drain", "--poll-interval", "-1"], "must be > 0"),
            (["drain", "--poll-interval", "0"], "must be > 0"),
            (["serve-sweep", "--metrics-port", "-3"], "must be in 0..65535"),
            (["serve-sweep", "--metrics-port", "65536"], "must be in 0..65535"),
            (["serve-sweep", "--metrics-port", "http"], "expected an integer"),
        ],
    )
    def test_rejects_out_of_range_service_flags(self, capsys, argv, fragment):
        required = {
            "drain": ["--queue-dir", "q"],
            "serve-sweep": ["--store-dir", "s"],
        }
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, *required[argv[0]]])
        assert excinfo.value.code == 2
        assert fragment in capsys.readouterr().err

    def test_service_flag_bounds_accepted(self):
        parser = build_parser()
        drain = parser.parse_args(
            ["drain", "--queue-dir", "q", "--poll-interval", "0.05"]
        )
        assert drain.poll_interval == 0.05
        for port in ("0", "65535"):
            args = parser.parse_args(
                ["serve-sweep", "--store-dir", "s", "--metrics-port", port]
            )
            assert args.metrics_port == int(port)


class TestCommands:
    def test_run_command(self, capsys):
        code = main(
            [
                "run",
                "--algorithm",
                "geographic",
                "--n",
                "128",
                "--epsilon",
                "0.3",
                "--show-field",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out
        assert "transmissions" in out
        assert "initial field" in out

    def test_run_hierarchical(self, capsys):
        code = main(["run", "--n", "128", "--epsilon", "0.3"])
        assert code == 0
        assert "hierarchical" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        code = main(
            [
                "sweep",
                "--sizes",
                "64,128",
                "--epsilon",
                "0.3",
                "--trials",
                "1",
                "--algorithms",
                "geographic",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "log-log slope" in out

    def test_run_multifield_reports_per_field_errors(self, capsys):
        code = main(
            [
                "run",
                "--algorithm", "geographic",
                "--n", "64",
                "--epsilon", "0.3",
                "--fields", "4",
                "--workload", "quantile",
                "--show-field",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 (quantile)" in out
        for index in range(4):
            assert f"field {index} error" in out

    def test_sweep_multifield(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--sizes", "24,32",
                "--epsilon", "0.3",
                "--trials", "1",
                "--algorithms", "randomized",
                "--fields", "8",
                "--store-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "8 'ensemble' fields" in out
        # Resume reuses every multi-field cell.
        code = main(
            [
                "sweep",
                "--sizes", "24,32",
                "--epsilon", "0.3",
                "--trials", "1",
                "--algorithms", "randomized",
                "--fields", "8",
                "--store-dir", str(tmp_path),
                "--resume",
            ]
        )
        assert code == 0
        assert "resuming past 2 finished cells" in capsys.readouterr().out

    def test_run_with_faults_reports_metrics(self, capsys):
        code = main(
            [
                "run",
                "--algorithm", "geographic",
                "--n", "64",
                "--epsilon", "0.3",
                "--check-stride", "2",
                "--faults", "churn=0.05,loss=0.05,epoch=64",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)  # faulted runs may legitimately not converge
        assert "faults" in out
        assert "live_node_error" in out
        assert "aborted_routes" in out

    def test_sweep_with_faults(self, capsys):
        code = main(
            [
                "sweep",
                "--sizes", "48,64",
                "--epsilon", "0.3",
                "--trials", "1",
                "--algorithms", "randomized",
                "--check-stride", "2",
                "--loss-prob", "0.05",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "faults 'loss=0.05'" in out

    def test_sweep_with_engine_store_and_resume(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--sizes", "64,96",
            "--epsilon", "0.3",
            "--trials", "1",
            "--algorithms", "geographic",
            "--workers", "2",
            "--check-stride", "2",
            "--store-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "store:" in first
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resuming past 2 finished cells" in second
        # Identical numbers whether computed or resumed from the store.
        assert first.splitlines()[-6:] == second.splitlines()[-6:]

    def test_run_on_zoo_topology(self, capsys):
        code = main(
            [
                "run",
                "--algorithm", "path-averaging",
                "--topology", "grid2d",
                "--n", "64",
                "--epsilon", "0.3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "grid2d" in out
        assert "path-averaging" in out

    def test_sweep_on_zoo_topology(self, capsys):
        code = main(
            [
                "sweep",
                "--sizes", "48,64",
                "--epsilon", "0.3",
                "--trials", "1",
                "--topology", "smallworld",
                "--algorithms", "randomized,path-averaging",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "'smallworld'" in out

    def test_resume_requires_store_dir(self, capsys):
        assert main(["sweep", "--resume"]) == 2
        assert "--resume requires --store-dir" in capsys.readouterr().err

    def test_run_with_check_stride(self, capsys):
        code = main(
            [
                "run",
                "--algorithm", "randomized",
                "--n", "64",
                "--epsilon", "0.3",
                "--check-stride", "4",
            ]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_inspect_command(self, capsys):
        code = main(["inspect", "--n", "256", "--leaf-threshold", "24"])
        out = capsys.readouterr().out
        assert code == 0
        assert "factors" in out
        assert "Levels" in out

    def test_module_entry_point_importable(self):
        import importlib

        module = importlib.import_module("repro.cli")
        assert callable(module.main)


class TestSweepFlags:
    def test_trial_batch_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sweep", "--trial-batch"])
        assert excinfo.value.code == 2
        assert "--trial-batch" in capsys.readouterr().err

    def test_fields_zero_is_a_usage_error(self, capsys):
        """--fields 0 exits 2 with a clean message, never a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--fields", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--fields", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

class TestSweepService:
    def test_serve_sweep_parser_defaults(self):
        args = build_parser().parse_args(
            ["serve-sweep", "--store-dir", "results"]
        )
        assert args.workers == 2
        assert args.queue_dir is None
        assert args.ttl == 10.0
        assert args.heartbeat_interval == 1.0
        assert args.worker_throttle == 0.0
        assert args.chaos_kill_after is None
        assert args.max_respawns is None
        assert args.resume is False and args.trace is False
        # The grid flags are the sweep's own, verbatim.
        assert args.sizes == "128,256,512"
        assert args.check_stride == 1

    def test_serve_sweep_requires_store_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sweep"])

    def test_work_parser(self):
        args = build_parser().parse_args(
            ["work", "--queue-dir", "q", "--worker-id", "w7",
             "--throttle", "0.5"]
        )
        assert args.queue_dir == "q"
        assert args.worker_id == "w7"
        assert args.throttle == 0.5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["work"])  # --queue-dir is required

    def test_work_on_missing_queue_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["work", "--queue-dir", str(tmp_path / "nowhere")])
        assert excinfo.value.code == 2
        assert "no queue manifest" in capsys.readouterr().err

    def test_store_diff_on_missing_root_is_a_usage_error(
        self, capsys, tmp_path
    ):
        (tmp_path / "a").mkdir()
        with pytest.raises(SystemExit) as excinfo:
            main(["store-diff", str(tmp_path / "a"), str(tmp_path / "b")])
        assert excinfo.value.code == 2
        assert "not a store root" in capsys.readouterr().err

    def test_serve_sweep_matches_sweep_end_to_end(self, capsys, tmp_path):
        """The acceptance criterion as a CLI round-trip: a distributed
        session with an injected worker kill produces a store that
        'store-diff' certifies identical to the serial sweep's."""
        grid = [
            "--sizes", "32,48",
            "--epsilon", "0.3",
            "--trials", "1",
            "--algorithms", "randomized,geographic",
        ]
        assert main(
            [
                "serve-sweep", *grid,
                "--store-dir", str(tmp_path / "dist"),
                "--workers", "2",
                "--ttl", "2",
                "--heartbeat-interval", "0.2",
                "--poll-interval", "0.05",
                "--worker-throttle", "0.3",
                "--chaos-kill-after", "0",
            ]
        ) == 0
        served = capsys.readouterr().out
        assert "queue:" in served and "cells done" in served
        assert main(
            ["sweep", *grid, "--store-dir", str(tmp_path / "serial")]
        ) == 0
        serial = capsys.readouterr().out
        assert main(
            ["store-diff", str(tmp_path / "dist"), str(tmp_path / "serial")]
        ) == 0
        assert "stores identical" in capsys.readouterr().out
        # And the two commands printed the same sweep table.
        marker = "mean transmissions"
        assert served.split(marker)[1].split("\n\n")[0] == (
            serial.split(marker)[1].split("\n\n")[0]
        )

    def test_store_diff_flags_divergence(self, capsys, tmp_path):
        import json

        flags = [
            "sweep",
            "--sizes", "32",
            "--epsilon", "0.3",
            "--trials", "1",
            "--algorithms", "randomized",
        ]
        assert main([*flags, "--store-dir", str(tmp_path / "a")]) == 0
        assert main([*flags, "--store-dir", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        (cells,) = (tmp_path / "b").glob("*/cells.jsonl")
        record = json.loads(cells.read_text().splitlines()[0])
        record["ticks"] += 1
        cells.write_text(json.dumps(record) + "\n")
        assert main(
            ["store-diff", str(tmp_path / "a"), str(tmp_path / "b")]
        ) == 1
        out = capsys.readouterr().out
        assert "diverges" in out and "1 difference(s)" in out


class TestServiceFlagValidation:
    GRID = ["--sizes", "32", "--trials", "1", "--algorithms", "randomized"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-sweep", "--store-dir", "s", "--ttl", "0"],
            ["serve-sweep", "--store-dir", "s", "--heartbeat-interval", "0"],
            ["serve-sweep", "--store-dir", "s", "--poll-interval", "-1"],
            ["serve-sweep", "--store-dir", "s", "--ttl", "nan"],
            ["work", "--queue-dir", "q", "--heartbeat-interval", "-0.5"],
            ["work", "--queue-dir", "q", "--poll-interval", "0"],
        ],
    )
    def test_timing_flags_must_be_positive(self, capsys, argv):
        """Non-positive durations are usage errors at parse time, before
        a queue exists or a worker spawns."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    def test_heartbeat_not_below_ttl_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "serve-sweep", *self.GRID,
                    "--store-dir", str(tmp_path / "store"),
                    "--ttl", "1", "--heartbeat-interval", "1",
                ]
            )
        assert excinfo.value.code == 2
        assert "below the lease ttl" in capsys.readouterr().err
        # Refused before any worker ran: nothing landed anywhere.
        assert not list((tmp_path / "store").glob("**/cells.jsonl"))

    @pytest.mark.parametrize(
        "flags", [["--max-pending", "3"], ["--priority", "0"]]
    )
    def test_daemon_only_flags_need_daemon(self, capsys, tmp_path, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "serve-sweep", *self.GRID,
                    "--store-dir", str(tmp_path / "store"), *flags,
                ]
            )
        assert excinfo.value.code == 2
        assert "only apply with --daemon" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    def test_priority_default_is_unset(self):
        args = build_parser().parse_args(
            ["serve-sweep", "--store-dir", "s", "--daemon"]
        )
        assert args.priority is None and args.max_pending is None


def test_cli_import_freezes_the_heap_only_at_exit():
    """Importing the CLI registers ``gc.freeze`` to run at interpreter
    exit (finalization then skips collecting live objects); it does not
    freeze anything in the importing process itself."""
    import gc

    import repro.cli  # noqa: F401 - already imported; the import is the point

    assert gc.get_freeze_count() == 0
    # atexit runs handlers last-registered first, so a handler registered
    # before the import observes the heap after the CLI's freeze.
    code = (
        "import atexit, gc\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "import repro.cli\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "frozen True"
