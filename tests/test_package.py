"""Tests for the package's public surface."""

import ast
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path

import quadprimes
from quadprimes.arith import sieve_window
from quadprimes.scan import progression_sums
from quadprimes.singular import batch_singular_values


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


# per_layer metrics that are derived from several spans, not one hooked function
_DERIVED_LAYERS = {"scan.useful_cell_ratio", "cli.results_csv.bytes"}


def test_benchmark_layers_name_hooked_public_functions():
    # perfbench's tracer hooks each public plain function by its
    # <module>.<function> name; a renamed, private or wrapped one loses its metric
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    missing = []
    for metric in bench["per_layer"]:
        layer = metric["name"].rpartition(".")[0]
        if metric["name"] in _DERIVED_LAYERS or layer.startswith("trace"):
            continue
        module, _, name = layer.partition(".")
        mod = importlib.import_module(f"quadprimes.{module}")
        fn = getattr(mod, name, None)
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__):
            missing.append(metric["name"])
    assert missing == []


def test_traced_layers_keep_their_parameter_names():
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(progression_sums) == ["t", "delta", "K"]
    assert names(sieve_window) == ["lo", "hi", "table"]
    assert names(batch_singular_values) == ["K", "P"]



def _memoizes(node) -> bool:
    """node names lru_cache or cache anywhere in it, as in the decorator
    @functools.cache or the call chain lru_cache(maxsize=512)(f)."""
    return any((isinstance(sub, ast.Name) and sub.id in ("cache", "lru_cache"))
               or (isinstance(sub, ast.Attribute) and sub.attr in ("cache", "lru_cache"))
               for sub in ast.walk(node))


def _empty_container(node) -> bool:
    return ((isinstance(node, ast.Dict) and not node.keys)
            or (isinstance(node, ast.List) and not node.elts)
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("dict", "list") and not node.args
                and not node.keywords))


def test_no_process_wide_caches():
    # a value that one run reuses belongs to that run: src/ keeps no state
    # across calls in `global`s, module-level memoized functions or empty
    # module-level containers
    found = []
    for path in sorted(Path(quadprimes.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{node.lineno} global" for node in ast.walk(tree)
                  if isinstance(node, ast.Global)]
        for node in tree.body:
            where = f"{path.name}:{node.lineno}"
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if any(map(_memoizes, node.decorator_list)):
                    found.append(f"{where} memoized {node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
                if isinstance(node.value, ast.Call) and _memoizes(node.value.func):
                    found.append(f"{where} memoized wrapper")
                if _empty_container(node.value):
                    found.append(f"{where} empty container")
    assert found == []


def _users(node, name: str, where: str) -> list[str]:
    """where.f for each Name or attribute `name` under node, f the innermost
    function (or class) around it; where alone at module level."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        where = f"{where.partition('.')[0]}.{node.name}"
    elif ((isinstance(node, ast.Name) and node.id == name)
          or (isinstance(node, ast.Attribute) and node.attr == name)):
        return [where]
    return [user for child in ast.iter_child_nodes(node)
            for user in _users(child, name, where)]


def test_sieve_window_has_one_caller():
    # scan._pieces is the one walker that cuts a window into sieved pieces, so
    # every window sum holds one piece at a time; a second caller of
    # sieve_window in src/ would be a second walker
    users = [user for path in sorted(Path(quadprimes.__file__).parent.glob("*.py"))
             for user in _users(ast.parse(path.read_text()), "sieve_window", path.stem)]
    assert users == ["scan._pieces"]
