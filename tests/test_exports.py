"""The package root's export list and the modules' imports."""

import ast
import doctest
import re
from pathlib import Path

import pytest

import trunca

MODULES = sorted(Path(trunca.__file__).parent.glob("*.py"))


def test_every_exported_name_resolves():
    assert len(set(trunca.__all__)) == len(trunca.__all__)
    for name in trunca.__all__:
        assert hasattr(trunca, name), name


def test_star_import_is_clean():
    namespace = {}
    exec("from trunca import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(trunca.__all__)


def _bound_names(tree):
    """Each name an import statement binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    """Names read by the code, by the doctests, or listed in ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    parser = doctest.DocTestParser()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            for example in parser.get_examples(ast.get_docstring(node) or ""):
                used.update(re.findall(r"[A-Za-z_]\w*", example.source))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _bound_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"
