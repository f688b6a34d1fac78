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


def unused_parameters(source: str) -> list[str]:
    """Parameters of a function or lambda in ``source`` that its body never
    reads.  A default value is read by the enclosing function, and the
    receivers ``self`` and ``cls`` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "lambda")
        found += [
            (node.lineno, f"{name}({a.arg})")
            for a in params
            if a is not None and a.arg not in read and a.arg not in ("self", "cls")
        ]
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_parameter(path):
    assert unused_parameters(path.read_text()) == []


def test_unused_parameters_finds_what_no_body_reads():
    source = (
        "class T:\n"
        "    def __init__(self, n):\n"
        "        super().__init__()\n"
        "    @classmethod\n"
        "    def make(cls, n, *rest, **options):\n"
        "        return n, options\n"
        "def outer(k, unused, /, *, flag=False):\n"
        "    def inner(x, k=k):\n"
        "        return x\n"
        "    return inner\n"
        "key = lambda pid, _: pid\n"
    )
    assert unused_parameters(source) == [
        "line 2: __init__(n)",
        "line 5: make(rest)",
        "line 7: outer(flag)",
        "line 7: outer(unused)",
        "line 8: inner(k)",
        "line 11: lambda(_)",
    ]


def unused_private_names(source: str) -> list[str]:
    """Module-level private names in ``source`` (a function, class or
    assignment whose name starts with one underscore) that nothing in the
    module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        bound[n.id] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}"
        for name, line in bound.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_private_name(path):
    # No other module may import a private name, so one its module never
    # reads is dead code.
    assert unused_private_names(path.read_text()) == []


def test_unused_private_names_finds_what_no_module_code_reads():
    source = (
        "__all__ = ['public']\n"
        "_LIMIT = 4\n"
        "_a, (_b, c) = 1, (2, 3)\n"
        "_scale: float = 2.0\n"
        "def _helper(x):\n"
        "    _local = x\n"
        "    return _local * _scale\n"
        "class _Dead:\n"
        "    _attr = 1\n"
        "def _check_out():\n"
        "    pass\n"
        "def public(y=_LIMIT):\n"
        "    return _helper(y) + _a\n"
    )
    assert unused_private_names(source) == [
        "line 3: _b",
        "line 8: _Dead",
        "line 10: _check_out",
    ]


def split_policy_breaches(source: str) -> list[str]:
    """Imports of ``concurrent.futures`` or ``threading``, and ``_SPLIT*``
    names assigned, in ``source``: the split policy belongs to ``split.py``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        modules = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id.startswith("_SPLIT"):
                found.append(f"line {node.lineno}: {node.id}")
        found += [
            f"line {node.lineno}: import {name}"
            for name in modules
            if name.split(".")[0] in ("threading", "concurrent")
        ]
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "split.py"], ids=lambda p: p.name
)
def test_split_policy_stays_in_split_module(path):
    assert split_policy_breaches(path.read_text()) == []


def test_split_policy_breaches_finds_pools_locks_and_constants():
    source = (
        "import threading\n"
        "import concurrent.futures as cf\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from contextlib import nullcontext\n"
        "_SPLIT_SLAB = 1 << 15\n"
        "_SPLIT_CHUNKS: int = 4\n"
        "_CHUNK = 1 << 16\n"
    )
    assert split_policy_breaches(source) == [
        "line 1: import threading",
        "line 2: import concurrent.futures",
        "line 3: import concurrent.futures",
        "line 5: _SPLIT_SLAB",
        "line 6: _SPLIT_CHUNKS",
    ]


def isinstance_names(node: ast.AST) -> set[str]:
    """The names (last attribute of a dotted one) that ``node`` tests
    against if it is an ``isinstance`` call, else none."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
    ):
        return set()
    return {
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node.args[1])
        if isinstance(n, (ast.Attribute, ast.Name))
    }


def argument_rule_spellings(source: str) -> list[str]:
    """``isinstance`` tests against ``np.integer`` or ``numbers.Real`` and
    reads of a ``dtype.kind`` in ``source``: the integer, real-scalar and
    real-operand rules are ``dense.is_integer``, ``dense.is_real`` and
    ``dense.real_array``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "kind":
            if isinstance(node.value, ast.Attribute) and node.value.attr == "dtype":
                found.append((node.lineno, "dtype.kind"))
        names = isinstance_names(node)
        found += [
            (node.lineno, f"isinstance {name}") for name in ("Real", "integer") if name in names
        ]
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "dense.py"], ids=lambda p: p.name
)
def test_argument_rules_stay_in_dense_module(path):
    assert argument_rule_spellings(path.read_text()) == []


def test_argument_rule_spellings_finds_integer_and_kind_tests():
    source = (
        "import numpy as np\n"
        "ok = isinstance(v, (int, np.integer))\n"
        "ok = isinstance(v, np.integer)\n"
        "real = x.dtype.kind in 'biuf'\n"
        "real = np.asarray(x).dtype.kind == 'f'\n"
        "ok = isinstance(v, (int, float))\n"
        "kind = spec.kind\n"
        "dt = x.dtype\n"
        "ok = isinstance(tol, numbers.Real)\n"
        "ok = isinstance(tol, (Real, np.integer))\n"
        "ok = isinstance(tol, numbers.Number)\n"
    )
    assert argument_rule_spellings(source) == [
        "line 2: isinstance integer",
        "line 3: isinstance integer",
        "line 4: dtype.kind",
        "line 5: dtype.kind",
        "line 9: isinstance Real",
        "line 10: isinstance Real",
        "line 10: isinstance integer",
    ]


def dense_kind_tests(source: str) -> list[str]:
    """``isinstance`` tests against ``DenseTensor`` in ``source``: the
    dense-operand rule is ``dense.dense_operand``."""
    return [
        f"line {node.lineno}: isinstance DenseTensor"
        for node in ast.walk(ast.parse(source))
        if "DenseTensor" in isinstance_names(node)
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "dense.py"], ids=lambda p: p.name
)
def test_dense_operand_rule_stays_in_dense_module(path):
    assert dense_kind_tests(path.read_text()) == []


def test_dense_kind_tests_finds_isinstance_against_dense_tensor():
    source = (
        "from blocksym import dense\n"
        "ok = isinstance(t, DenseTensor)\n"
        "ok = isinstance(t, dense.DenseTensor)\n"
        "ok = isinstance(t, (BcssTensor, DenseTensor))\n"
        "ok = isinstance(t, BcssTensor)\n"
        "ok = type(t) is DenseTensor\n"
        "t = DenseTensor(x)\n"
        "ok = isinstance(DenseTensor, type)\n"
    )
    assert dense_kind_tests(source) == [
        "line 2: isinstance DenseTensor",
        "line 3: isinstance DenseTensor",
        "line 4: isinstance DenseTensor",
    ]


def set_once_breaches(source: str) -> list[str]:
    """Definitions of ``__setattr__`` or ``__delattr__`` in ``source``: the
    set-once rule for tensor state is ``dense.Fixed``."""
    found = [
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("__setattr__", "__delattr__")
    ]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "dense.py"], ids=lambda p: p.name
)
def test_set_once_rule_stays_in_dense_module(path):
    assert set_once_breaches(path.read_text()) == []


def test_set_once_breaches_finds_attribute_hooks():
    source = (
        "class T:\n"
        "    def __setattr__(self, name, value):\n"
        "        object.__setattr__(self, name, value)\n"
        "    def __delattr__(self, name):\n"
        "        pass\n"
        "    def __getattr__(self, name):\n"
        "        return 0\n"
        "def __setattr__(obj, name, value):\n"
        "    setattr(obj, name, value)\n"
        "class U(Fixed):\n"
        "    __slots__ = ('a',)\n"
    )
    assert set_once_breaches(source) == [
        "line 2: __setattr__",
        "line 4: __delattr__",
        "line 8: __setattr__",
    ]


def private_imports(source: str) -> list[str]:
    """Underscore names that ``source`` imports from a package module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "blocksym"
        ):
            found += [
                f"line {node.lineno}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_no_private_name(path):
    # A name another module needs belongs to that module's public surface.
    assert private_imports(path.read_text()) == []


def test_private_imports_finds_underscore_names_from_the_package():
    source = (
        "import io as _io\n"
        "from os import _exit\n"
        "from .costs import _levels\n"
        "from .split import share, _DONE as done\n"
        "from blocksym.dense import _chunk_grid\n"
        "from . import _private\n"
        "from .dense import DenseTensor\n"
    )
    assert private_imports(source) == [
        "line 3: _levels",
        "line 4: _DONE",
        "line 5: _chunk_grid",
        "line 6: _private",
    ]
