import ast
from pathlib import Path

import pytest

import ncsym

MODULES = sorted(Path(ncsym.__file__).parent.glob("*.py"))

# methods that change a list, dict or set in place; functools caches and
# their cache_clear are the one cache policy, so they are not listed
MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "setdefault", "update", "add", "discard", "sort", "reverse",
    "difference_update", "intersection_update", "symmetric_difference_update",
})


def _outer_functions(node: ast.AST):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _outer_functions(child)


def _module_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _local_names(func: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def module_state_mutations(source: str) -> list[str]:
    """'function: what' for each place a function declares a global, stores
    or deletes an item or attribute of a module-level name, or calls an
    in-place mutator on one."""
    tree = ast.parse(source)
    shared = _module_names(tree)
    found = []
    for func in _outer_functions(tree):
        module_level = shared - _local_names(func)
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found.append(f"{func.name}: global {', '.join(node.names)}")
            elif (isinstance(node, (ast.Subscript, ast.Attribute))
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name)
                    and node.value.id in module_level):
                found.append(f"{func.name}: {node.value.id} item or attribute")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in module_level):
                found.append(f"{func.name}: {node.func.value.id}.{node.func.attr}")
    return found


def test_detector_flags_each_kind_of_mutation():
    source = (
        "_memo = {}\n"
        "_seen = []\n"
        "_count = 0\n"
        "def lookup(key):\n"
        "    return _memo.setdefault(key, len(_seen))\n"
        "def forget(key):\n"
        "    del _memo[key]\n"
        "def bump():\n"
        "    global _count\n"
        "    _count += 1\n"
        "def local_only(_seen):\n"
        "    _seen.append(1)\n"
        "    cache = {}\n"
        "    cache.clear()\n"
    )
    assert module_state_mutations(source) == [
        "lookup: _memo.setdefault",
        "forget: _memo item or attribute",
        "bump: global _count",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_mutates_module_state(path):
    assert module_state_mutations(path.read_text(encoding="utf-8")) == []
