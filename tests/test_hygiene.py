"""Every name a module imports or defines as module-level private is used
in that module, and no module reads the ``tensor`` alias of a parameter
(a parameter is the tensor itself)."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parents[1] / "src" / "dyngcn").glob("*.py")
                 if p.name != "__init__.py")


def unused_names(source):
    tree = ast.parse(source)
    imported = {}
    private = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            private[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        private[name.id] = node.lineno
    private = {name: line for name, line in private.items()
               if name.startswith("_") and not name.startswith("__")}
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in {**imported, **private}.items()
                  if name not in used)


def tensor_reads(source):
    """Line numbers of every ``<expr>.tensor`` attribute read."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "tensor"
            and isinstance(node.ctx, ast.Load)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_reads_no_tensor_alias(path):
    assert tensor_reads(path.read_text()) == []


def test_tensor_reads_are_found():
    source = ("from .tensor import add\n\n"
              "def f(p, q):\n    p.tensor.requires_grad = False\n"
              "    q.tensor = p\n    return add(p.tensor, q)\n")
    assert tensor_reads(source) == [4, 6]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import_and_private_name(path):
    assert unused_names(path.read_text()) == []


def test_unused_names_are_found():
    source = ("from __future__ import annotations\n"
              "import os\nfrom json import dumps, loads as _loads\n"
              "_TABLE = {}\n_USED = 1\n\ndef _helper():\n    return _USED\n\n"
              "def public():\n    return dumps\n")
    assert unused_names(source) == [(2, "os"), (3, "_loads"), (4, "_TABLE"), (7, "_helper")]
