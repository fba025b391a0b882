"""The package root's export list and the modules' imports."""

import ast
import doctest
import re
from collections import Counter
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


BENCH = Path(__file__).resolve().parents[1] / "bench"
# argparse itself calls _Parser.error on a usage error, which the CLI tests
# reach; no code calls it by name.
UNREACHED_ON_PURPOSE = {"_Parser.error"}


def _definitions(tree):
    """Each top-level function and class, and each method, with its
    qualified name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_names(func):
    """Names a function binds itself: its parameters and every name it
    assigns, those of nested functions excepted."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a)
    stack = list(func.body) if isinstance(func.body, list) else [func.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _code_references(node):
    """Names the code under ``node`` reads, and apart from them the
    attribute names it reads; docstrings and ``__all__`` are strings, so
    they do not count, and neither does a name inside a function that binds
    it itself (a local of the same name is not the module's definition)."""
    names, attrs = Counter(), Counter()
    stack = [(node, frozenset())]
    while stack:
        item, local = stack.pop()
        if isinstance(item, _SCOPES):
            local = local | _local_names(item)
        if isinstance(item, ast.Attribute):
            attrs[item.attr] += 1
        elif isinstance(item, ast.Name) and item.id not in local:
            names[item.id] += 1
        stack.extend((child, local) for child in ast.iter_child_nodes(item))
    return names, attrs


def test_every_public_definition_is_reached():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES + sorted(BENCH.glob("*.py"))}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attrs = _code_references(tree)
        names.update(tree_names)
        attrs.update(tree_attrs)
    unreached = []
    for path in MODULES:
        for qualname, node in _definitions(trees[path]):
            if node.name.startswith("_") or qualname in UNREACHED_ON_PURPOSE:
                continue
            own_names, own_attrs = _code_references(node)
            # a method is reached only through an attribute access; a plain
            # name of the same spelling (``operator.mul`` imported as ``mul``)
            # is something else
            outside = attrs[node.name] - own_attrs[node.name]
            if "." not in qualname:
                outside += names[node.name] - own_names[node.name]
            if not outside:
                unreached.append(f"{path.name}: {qualname}")
    assert not unreached, f"nothing in src/trunca or bench/ reaches: {unreached}"
