"""README names the package's API as it stands: every backticked
`module.NAME` whose module is an ncsym submodule resolves in that module."""

import importlib
import pkgutil
import re
from pathlib import Path

import ncsym

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_module_names_resolve():
    submodules = {info.name for info in pkgutil.iter_modules(ncsym.__path__)}
    text = README.read_text(encoding="utf-8")
    named = {(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)", text)
             if module in submodules}
    assert named
    missing = [f"{module}.{name}" for module, name in sorted(named)
               if not hasattr(importlib.import_module(f"ncsym.{module}"), name)]
    assert missing == []
