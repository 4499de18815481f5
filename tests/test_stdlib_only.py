"""codemix runs on the Python standard library alone."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _absolute_imports():
    """(file:line, module) for each module that a file under src/codemix/ imports by an absolute name."""
    sources = sorted((ROOT / "src" / "codemix").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}", name


def test_package_imports_only_stdlib_and_itself():
    foreign = []
    for where, name in _absolute_imports():
        top = name.split(".")[0]
        if top != "codemix" and top not in sys.stdlib_module_names:
            foreign.append(f"{where}: {name}")
    assert foreign == []
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "\ndependencies = []\n" in project


def test_package_imports_no_typing():
    # Annotations stay strings under `from __future__ import annotations` and every
    # record is a collections.namedtuple subclass, so typing would only cost start-up time.
    assert [f"{where}: {name}" for where, name in _absolute_imports() if name.split(".")[0] == "typing"] == []
