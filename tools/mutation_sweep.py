"""Mutation sweep: does the tier-1 suite notice a wrong cap, a wrong
change of basis or a wrong writer?

Copies the repository into a temporary directory, and that copy again once
per mutant; applies each mutant to its copy as a plain-text replacement, runs
the tier-1 suite there and prints a kill table in Markdown.  A mutant is
killed when tier-1 fails on it.  A mutant marked equivalent changes no output, for the reason given; it
runs too, and may survive.  The unmutated copy runs first, so a suite that
already fails cannot pass for a kill.

    python tools/mutation_sweep.py

Exits 1 if tier-1 fails on the unmutated copy or a mutant not marked
equivalent survives.  Needs only what the tier-1 suite needs; the mutants
are plain text, so the script needs no mutation package.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "*.egg-info")

# (name, file, text, replacement, reason the mutant is equivalent or None);
# each text occurs exactly once in its file
MUTANTS = [
    ("conversion-pairs-cap", "src/ncsym/elements.py",
     "if pairs > MAX_CONVERSION_PAIRS:", "if pairs >= MAX_CONVERSION_PAIRS:", None),
    ("print-digits-cap", "src/ncsym/cli.py",
     ">= 10 ** limit:", "> 10 ** limit:", None),
    ("subset-edge-cap", "src/ncsym/chromatic.py",
     "if len(graph.edges) > SUBSET_EDGE_LIMIT:", "if len(graph.edges) >= SUBSET_EDGE_LIMIT:",
     None),
    ("delcon-budget", "src/ncsym/chromatic.py",
     "if expanded >= DELCON_BUDGET:", "if expanded > DELCON_BUDGET:", None),
    ("matrix-cells-cap", "src/ncsym/chromatic_bases.py",
     "if cells > MAX_MATRIX_CELLS:", "if cells >= MAX_MATRIX_CELLS:", None),
    ("ground-set-cap", "src/ncsym/partitions.py",
     "    if n > limit:", "    if n >= limit:", None),
    ("refine-delta", "src/ncsym/elements.py",
     "sum(map(code_of, parts)) - whole", "sum(map(code_of, parts))", None),
    ("p-to-eh-scaling", "src/ncsym/elements.py",
     "top // bottom(masks) if scaled", "top if scaled", None),
    ("delcon-sign", "src/ncsym/chromatic.py",
     "terms.get(lifted, 0) - coeff", "terms.get(lifted, 0) + coeff", None),
    ("refine-singletons", "src/ncsym/elements.py",
     'smallest = 1 if basis == "m" else 2', "smallest = 1",
     "same output: a one-element block then gets a mask, which the column drops; only "
     "memory grows"),
    ("columns-key-without-target", "src/ncsym/elements.py",
     "_small_columns(n, source, target)", '_small_columns(n, source, "")', None),
    ("small-columns-mask", "src/ncsym/elements.py",
     "set_partitions((1 << (n + 1)) - 2)", "set_partitions((1 << n) - 2)", None),
    ("combination-rescale", "src/ncsym/elements.py",
     "if den % bottom:", "if bottom % den:", None),
    ("express-level-filter", "src/ncsym/chromatic_bases.py",
     "len(pi.blocks) == k", "len(pi.blocks) <= k",
     "same output: a coarser partition's residue coefficient is already 0 when its level "
     "comes again; only the coefficient lookups grow"),
    ("walker-changed-field", "src/ncsym/elements.py",
     "+ field - 1) // field", "+ field) // field", None),
    ("walker-undo-join", "src/ncsym/elements.py",
     "blocks[joined[0]] = joined[1]", "pass", None),
]


def tier1(copy: Path) -> tuple[bool, str, float]:
    """Run tier-1 on a copy: (passed, first failing test, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, failed[0] if failed else "", elapsed


def mutated_copy(source: Path, copy: Path, path: str = "", text: str = "",
                 replacement: str = "") -> Path:
    shutil.copytree(source, copy, ignore=IGNORE)
    if path:
        target = copy / path
        code = target.read_text(encoding="utf-8")
        if code.count(text) != 1:
            raise SystemExit(f"{text!r} occurs {code.count(text)} times in {path}")
        target.write_text(code.replace(text, replacement), encoding="utf-8")
    return copy


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        # later edits to the repository do not reach the mutants
        unmutated = mutated_copy(ROOT, workdir / "unmutated")
        passed, failed, elapsed = tier1(unmutated)
        print(f"unmutated tier-1: {'passed' if passed else 'FAILED ' + failed} "
              f"in {elapsed:.0f} s", flush=True)
        if not passed:
            return 1
        print("\n| mutant | file | change | result | first failing test | s |")
        print("| --- | --- | --- | --- | --- | --- |", flush=True)
        survivors = []
        for name, path, text, replacement, equivalent in MUTANTS:
            copy = mutated_copy(unmutated, workdir / name, path, text, replacement)
            passed, failed, elapsed = tier1(copy)
            shutil.rmtree(copy)
            result = "survived" if passed else "killed"
            if equivalent:
                result += f" (equivalent: {equivalent})"
            elif passed:
                survivors.append(name)
            print(f"| {name} | `{path}` | `{text.strip()}` → `{replacement.strip()}` "
                  f"| {result} | {failed or '-'} | {elapsed:.0f} |", flush=True)
    if survivors:
        print(f"\nsurvivors not marked equivalent: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
