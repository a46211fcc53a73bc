"""No module of the package imports a name that it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kernelbound"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is re-exported, which is a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\n"
                          "from typing import Any, Optional\n"
                          "x: Optional[int] = sys.maxsize\n") == ["Any", "os"]


def test_scan_reads_imports_inside_functions():
    # solver imports scipy.sparse where an operator is built, and its module
    # __getattr__ (PEP 562) imports and returns it on attribute access
    assert unused_imports("def __getattr__(name):\n"
                          "    from scipy import sparse\n"
                          "    return sparse\n"
                          "def f():\n"
                          "    import json\n") == ["json"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
