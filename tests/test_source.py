"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import blocksym

MODULES = sorted(
    p for p in Path(blocksym.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names an import binds in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    # __init__.py is left out: its imports are the package's exports.
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_what_no_expression_reads():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import prod, comb as c\n"
        "def f(x: np.ndarray) -> int:\n"
        "    return prod(x.shape)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: c"]
