"""The runtime depends on numpy alone; scipy is a test-only dependency."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert "scipy>=1.10" in project["optional-dependencies"]["test"]


def test_no_source_module_imports_scipy():
    imports = []
    for path in sorted((ROOT / "src" / "diraclab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append((path.name, node.module))
    assert len(imports) > 10
    assert [(f, m) for f, m in imports if m.split(".")[0] == "scipy"] == []
