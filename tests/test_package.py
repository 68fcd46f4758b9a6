"""Tests for the package's public surface."""

import ast
from collections import Counter
from pathlib import Path

import quadprimes


def test_every_export_resolves():
    missing = [name for name in quadprimes.__all__ if not hasattr(quadprimes, name)]
    assert missing == []


def _references(tree) -> Counter:
    """Identifiers used as names or attributes anywhere under tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_function_has_a_production_caller():
    # src/ holds what the package runs: a public function, class, method or
    # property that nothing in src/ refers to, outside its own definition and
    # the __init__ re-export, is test-only code and belongs in tests/oracles.py
    modules = {path.name: ast.parse(path.read_text())
               for path in Path(quadprimes.__file__).parent.glob("*.py")
               if path.name != "__init__.py"}
    used = sum((_references(tree) for tree in modules.values()), Counter())
    unused = []
    for module, tree in sorted(modules.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef)]
            for label, definition in members:
                name = definition.name
                if name.startswith("_"):
                    continue
                if used[name] - _references(definition)[name] == 0:
                    unused.append(f"{module}:{label}")
    assert unused == []
