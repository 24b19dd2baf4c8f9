"""Docs-site tests: API generator coverage and docs/mkdocs consistency.

The CI docs job runs ``docs/gen_api_ref.py`` then ``mkdocs build
--strict``; mkdocs is not a runtime dependency, so these tests cover the
parts that matter locally: the generator runs, every public symbol of
the strict packages is documented (the acceptance bar for the rendered
API reference), and the pages mkdocs.yml's nav references are exactly
the pages the generator emits.
"""

import importlib.util
import pathlib
import re
import sys

import pytest

REPO = pathlib.Path(__file__).parent.parent
DOCS = REPO / "docs"


@pytest.fixture(scope="module")
def gen_api_ref():
    spec = importlib.util.spec_from_file_location(
        "gen_api_ref", DOCS / "gen_api_ref.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def generated(gen_api_ref, tmp_path_factory):
    out = tmp_path_factory.mktemp("api")
    missing = gen_api_ref.generate(out)
    return out, missing


class TestApiReference:
    def test_strict_packages_fully_documented(self, generated):
        """Every gossip/engine/routing public symbol has a docstring."""
        _, missing = generated
        assert missing == [], f"undocumented public symbols: {missing}"

    def test_one_page_per_package_plus_index(self, gen_api_ref, generated):
        out, _ = generated
        pages = sorted(p.name for p in out.glob("*.md"))
        expected = sorted(
            [pkg.replace(".", "-") + ".md" for pkg in gen_api_ref.PACKAGES]
            + ["index.md"]
        )
        assert pages == expected

    def test_new_protocol_and_zoo_symbols_rendered(self, generated):
        out, _ = generated
        gossip = (out / "repro-gossip.md").read_text(encoding="utf-8")
        assert "PathAveragingGossip" in gossip
        assert "tick_block" in gossip
        graphs = (out / "repro-graphs.md").read_text(encoding="utf-8")
        assert "build_topology" in graphs
        dynamics = (out / "repro-dynamics.md").read_text(encoding="utf-8")
        assert "DynamicSubstrate" in dynamics
        assert "FaultSpec" in dynamics
        assert "LossChannel" in dynamics
        assert "watts_strogatz_graph" in graphs

    def test_multifield_symbols_rendered(self, generated):
        out, _ = generated
        engine = (out / "repro-engine.md").read_text(encoding="utf-8")
        assert "MultiFieldFallbackWarning" in engine
        assert "batching_capability" in engine
        workloads = (out / "repro-workloads.md").read_text(encoding="utf-8")
        assert "build_field_matrix" in workloads
        assert "quantile_indicator_stack" in workloads
        metrics = (out / "repro-metrics.md").read_text(encoding="utf-8")
        assert "primary_field" in metrics
        assert "column_errors" in metrics

    def test_sweep_service_symbols_rendered(self, generated):
        """repro.engine is strict, so the queue/service modules ride the
        same docstring bar as the rest of the engine."""
        out, _ = generated
        engine = (out / "repro-engine.md").read_text(encoding="utf-8")
        assert "repro.engine.queue" in engine
        assert "repro.engine.service" in engine
        assert "LeaseQueue" in engine
        assert "run_distributed_sweep" in engine
        assert "ShardDivergenceError" in engine
        assert "canonical_record_bytes" in engine
        observability = (out / "repro-observability.md").read_text(
            encoding="utf-8"
        )
        assert "service_telemetry" in observability
        experiments = (out / "repro-experiments.md").read_text(
            encoding="utf-8"
        )
        assert "render_partial_markdown" in experiments

    def test_classmethods_and_properties_rendered(self, generated):
        """vars() yields raw descriptors; the generator must not drop them."""
        out, _ = generated
        graphs = (out / "repro-graphs.md").read_text(encoding="utf-8")
        assert "RandomGeometricGraph.sample_connected" in graphs  # classmethod
        assert "RandomGeometricGraph.n` *(property)*" in graphs
        routing = (out / "repro-routing.md").read_text(encoding="utf-8")
        assert "CachedGreedyRouter.hit_rate` *(property)*" in routing

    def test_cli_entry_reports_coverage(self, gen_api_ref, tmp_path, capsys):
        assert gen_api_ref.main(["--out", str(tmp_path)]) == 0
        assert "API reference written" in capsys.readouterr().out


class TestDocsSite:
    def test_nav_pages_exist_or_are_generated(self, gen_api_ref):
        """Every nav entry is a committed page or a generator output."""
        nav_paths = re.findall(
            r":\s*([\w/-]+\.md)\s*$",
            (REPO / "mkdocs.yml").read_text(encoding="utf-8"),
            flags=re.MULTILINE,
        )
        assert nav_paths, "mkdocs.yml nav parsed empty"
        generated = {
            "api/" + pkg.replace(".", "-") + ".md"
            for pkg in gen_api_ref.PACKAGES
        } | {"api/index.md"}
        for path in nav_paths:
            assert (DOCS / path).exists() or path in generated, (
                f"nav references {path}, which neither exists in docs/ nor "
                "is produced by docs/gen_api_ref.py"
            )

    def test_markdown_paths_named_in_code_exist(self):
        """Every ``*.md`` path a module, example or benchmark names
        exists, relative to the repository root."""
        written = {"partial_report.md"}  # an output of the sweep service
        dangling = []
        for top in ("src", "examples", "benchmarks"):
            for path in sorted((REPO / top).rglob("*.py")):
                text = path.read_text(encoding="utf-8")
                for name in re.findall(r"[\w./-]*\w\.md\b", text):
                    if pathlib.PurePosixPath(name).name in written:
                        continue
                    if not (REPO / name).is_file():
                        dangling.append(f"{path.relative_to(REPO)}: {name}")
        assert dangling == []

    def test_batching_page_states_the_draw_stream_contract(self):
        """The page names the draws a strided tick may make."""
        page = (DOCS / "batching.md").read_text(encoding="utf-8")
        assert "DrawStream" in page
        for draw in ("random", "integers", "uniform"):
            assert f"`{draw}" in page, draw
        assert "tick_block" in page
        assert "protocol_batching" in page

    def test_matrix_page_covers_every_registered_name(self):
        from repro.experiments.config import ALGORITHMS
        from repro.graphs.generators import TOPOLOGIES

        page = (DOCS / "matrix.md").read_text(encoding="utf-8")
        for name in list(ALGORITHMS) + list(TOPOLOGIES):
            assert f"`{name}`" in page, f"matrix page missing {name!r}"

    def test_sweep_service_page_backs_the_code_references(self):
        """queue.py/service.py docstrings point here for the full lease
        lifecycle and failure matrix; keep the page load-bearing."""
        page = (DOCS / "sweep_service.md").read_text(encoding="utf-8")
        for anchor in (
            "Lease lifecycle",
            "heartbeat",
            "reclaim",
            "Shard-merge semantics",
            "ShardDivergenceError",
            "Failure matrix",
            "serve-sweep",
            "store-diff",
        ):
            assert anchor in page, f"sweep_service.md missing {anchor!r}"
        matrix = (DOCS / "matrix.md").read_text(encoding="utf-8")
        assert "sweep_service.md" in matrix  # the service column's footnote
