import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncsym

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p for p in Path(ncsym.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports at any level and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_detector_flags_an_unused_name():
    source = "from math import factorial, prod\nprint(prod([2]))\n"
    assert unused_imports(source) == ["factorial"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_import_loads_no_introspection_modules():
    # compared against the same interpreter's own start-up, so whatever site
    # preloads does not count
    probe = ("import sys; before = set(sys.modules); import ncsym.cli; "
             "print(ncsym.cli.__file__); print(*sorted(set(sys.modules) - before))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=60)
    location, added = result.stdout.splitlines()
    assert Path(location).resolve().parent.parent == SRC
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(added.split())
