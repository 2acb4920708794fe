"""The benchmark harness imports the package by name; a trimmed public
surface must keep every name it uses. The harness files are read with
ast, not imported, so this runs without their own imports."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for every import of a malbehave module in the file;
    name is None for a plain `import malbehave...`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "malbehave":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "malbehave")
    return found


@pytest.mark.parametrize("filename", ["worker.py", "workloads.py"])
def test_harness_imports_exist(filename):
    imports = _package_imports(PERFBENCH / filename)
    assert {"malbehave", "malbehave.cli"} & {module for module, _ in imports}
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if name is not None and not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
