"""The mutation sweep in tools/ stays runnable: each mutant's text occurs
exactly once in its file, so every mutant still applies."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutation_sweep", ROOT / "tools" / "mutation_sweep.py")
sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(sweep)


def test_every_mutant_applies_once():
    for name, path, text, replacement, _ in sweep.MUTANTS:
        source = (ROOT / path).read_text(encoding="utf-8")
        assert source.count(text) == 1, name
        assert text != replacement, name

