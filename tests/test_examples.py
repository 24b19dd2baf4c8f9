"""Smoke tests: the example scripts compile and the quickstart runs."""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


class TestExamples:
    def test_examples_directory_populated(self):
        scripts = sorted(EXAMPLES_DIR.glob("*.py"))
        assert len(scripts) >= 3, "the paper repo promises at least 3 examples"
        assert (EXAMPLES_DIR / "quickstart.py").exists()

    @pytest.mark.parametrize(
        "script",
        sorted(p.name for p in EXAMPLES_DIR.glob("*.py")),
    )
    def test_example_compiles(self, script):
        py_compile.compile(str(EXAMPLES_DIR / script), doraise=True)

    def test_quickstart_runs_end_to_end(self):
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "quickstart.py"), "128"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "transmissions" in completed.stdout
        assert "Cheapest at this size" in completed.stdout

    def test_protocol_inspection_prints_round_stats(self):
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "protocol_inspection.py")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "sensor Levels" in completed.stdout
        assert "per-depth round statistics (RoundStats)" in completed.stdout
        assert "activation control" in completed.stdout

    def test_quickstart_sweep_runs_and_resumes(self, tmp_path):
        """The docs/quickstart.md tutorial script: sweep, then resume."""
        command = [
            sys.executable,
            str(EXAMPLES_DIR / "quickstart_sweep.py"),
            str(tmp_path),
            "48,64",
        ]
        first = subprocess.run(
            command, capture_output=True, text=True, timeout=300
        )
        assert first.returncode == 0, first.stderr
        assert "path-averaging" in first.stdout
        assert "0/8 cells already on disk" in first.stdout
        second = subprocess.run(
            command, capture_output=True, text=True, timeout=300
        )
        assert second.returncode == 0, second.stderr
        assert "8/8 cells already on disk" in second.stdout
