#!/usr/bin/env python3
"""Generate the Markdown API reference for the docs site.

Stdlib-only introspection: walks the ``repro`` package tree, renders one
Markdown page per top-level subpackage (module docstrings, public
signatures, docstrings) into ``docs/api/``, and writes ``docs/api/index.md``.
The CI docs job runs this before ``mkdocs build --strict``.

The generator doubles as the documentation linter: every public symbol
of the **strict packages** (``repro.gossip``, ``repro.engine``,
``repro.dynamics``, ``repro.routing``, ``repro.metrics``,
``repro.workloads``, ``repro.observability``) must carry a docstring,
or the build fails — the
acceptance bar "every gossip/ and engine/ public symbol has a docstring
rendered in the API reference" is enforced here (and re-checked by
``tests/test_docs.py``).

Run:  PYTHONPATH=src python docs/gen_api_ref.py [--out docs/api]
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

#: Top-level subpackages rendered, in docs order.
PACKAGES = [
    "repro.gossip",
    "repro.engine",
    "repro.dynamics",
    "repro.routing",
    "repro.graphs",
    "repro.experiments",
    "repro.hierarchy",
    "repro.analysis",
    "repro.metrics",
    "repro.workloads",
    "repro.observability",
    "repro.geometry",
    "repro.viz",
]

#: Packages whose public symbols MUST all be documented (build-failing).
STRICT_PACKAGES = (
    "repro.gossip",
    "repro.engine",
    "repro.dynamics",
    "repro.routing",
    "repro.metrics",
    "repro.workloads",
    "repro.observability",
)


def iter_modules(package_name: str):
    """Yield the package module and every submodule, depth-first by name."""
    package = importlib.import_module(package_name)
    yield package
    if not hasattr(package, "__path__"):
        return
    for info in sorted(
        pkgutil.walk_packages(package.__path__, prefix=package_name + "."),
        key=lambda info: info.name,
    ):
        yield importlib.import_module(info.name)


def public_symbols(module) -> list[str]:
    """The module's public API: ``__all__`` if declared, else public attrs."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and getattr(obj, "__module__", None) == module.__name__
    )


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _first_line(doc: str | None) -> str:
    return (doc or "").strip().splitlines()[0] if (doc or "").strip() else ""


def render_symbol(module, name: str, missing: list[str]) -> list[str]:
    """Markdown section for one public symbol; records missing docstrings."""
    obj = getattr(module, name, None)
    qualified = f"{module.__name__}.{name}"
    lines: list[str] = []
    if inspect.isclass(obj):
        lines.append(f"### `{name}{_signature(obj)}`\n")
        doc = inspect.getdoc(obj)
        if doc:
            lines.append(doc + "\n")
        else:
            missing.append(qualified)
        for method_name, raw in sorted(vars(obj).items()):
            # vars() yields raw descriptors: classmethod/staticmethod and
            # property objects are not callable, so test the descriptor
            # kinds explicitly and introspect through getattr.
            if method_name.startswith("_"):
                continue
            if not (
                inspect.isfunction(raw)
                or isinstance(raw, (classmethod, staticmethod, property))
            ):
                continue
            if isinstance(raw, property):
                lines.append(f"#### `{name}.{method_name}` *(property)*\n")
                method_doc = inspect.getdoc(raw)
            else:
                bound = getattr(obj, method_name)
                lines.append(
                    f"#### `{name}.{method_name}{_signature(bound)}`\n"
                )
                method_doc = inspect.getdoc(bound)
            if method_doc:
                lines.append(method_doc + "\n")
    elif inspect.isfunction(obj):
        lines.append(f"### `{name}{_signature(obj)}`\n")
        doc = inspect.getdoc(obj)
        if doc:
            lines.append(doc + "\n")
        else:
            missing.append(qualified)
    else:
        lines.append(f"### `{name}`\n")
        kind = type(obj).__name__
        lines.append(f"*constant / data* (`{kind}`)\n")
    return lines


def render_package(package_name: str, missing: list[str]) -> str:
    """One Markdown page covering a package and all its submodules."""
    lines = [f"# `{package_name}`\n"]
    for module in iter_modules(package_name):
        strict = package_name in STRICT_PACKAGES
        doc = inspect.getdoc(module)
        if module.__name__ != package_name:
            lines.append(f"## `{module.__name__}`\n")
        if doc:
            lines.append(doc + "\n")
        elif strict:
            missing.append(module.__name__)
        symbol_missing = missing if strict else []
        for name in public_symbols(module):
            if module.__name__ == package_name and hasattr(module, "__path__"):
                continue  # package __init__ re-exports live on their module page
            lines.extend(render_symbol(module, name, symbol_missing))
    return "\n".join(lines) + "\n"


def generate(out_dir: Path) -> list[str]:
    """Write every API page; returns the missing-docstring list."""
    out_dir.mkdir(parents=True, exist_ok=True)
    missing: list[str] = []
    index = [
        "# API reference\n",
        "Auto-generated from source docstrings by `docs/gen_api_ref.py`.\n",
    ]
    for package_name in PACKAGES:
        page = render_package(package_name, missing)
        slug = package_name.replace(".", "-") + ".md"
        (out_dir / slug).write_text(page, encoding="utf-8")
        summary = _first_line(
            inspect.getdoc(importlib.import_module(package_name))
        )
        index.append(f"- [`{package_name}`]({slug}) — {summary}")
    (out_dir / "index.md").write_text(
        "\n".join(index) + "\n", encoding="utf-8"
    )
    return missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).parent / "api"),
        help="output directory (default: docs/api)",
    )
    args = parser.parse_args(argv)
    missing = generate(Path(args.out))
    if missing:
        print(
            "undocumented public symbols in strict packages "
            f"({', '.join(STRICT_PACKAGES)}):",
            file=sys.stderr,
        )
        for name in missing:
            print(f"  - {name}", file=sys.stderr)
        return 1
    print(f"API reference written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
