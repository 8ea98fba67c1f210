"""Line coverage of src/ncsym under the tier-1 suite, with the standard
library only: which executable lines does no tier-1 test run?

Runs tier-1 in this process under a ``sys.settrace`` line tracer.  A small
pytest plugin arms the tracer again before each phase of each test, because
Hypothesis sets its own tracer while it explains a failure and then clears
it.  Unless ``--no-children`` is given, a ``sitecustomize`` module on
``PYTHONPATH`` traces every Python child the tests start, such as the CLI
runs of ``tests/test_cli.py``, and each child writes its lines on exit.

    python tools/line_coverage.py               # tier-1 and its children
    python tools/line_coverage.py --no-children
    python tools/line_coverage.py -- tests/test_elements.py   # other pytest args

Prints, for each module, how many of its executable lines ran and the text
of every line that never ran.  A line counts as executable when the
module's compiled code holds an instruction for it.  Tracing slows the
suite several times over (tier-1 takes about 5 minutes instead of 45 s), so
tests with a time bound may fail here; that does not change which lines
ran.  Exits with pytest's exit status.  Not part of tier-1.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import textwrap
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncsym"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
# the directory a traced child writes its lines to, one file per process
OUT_VAR = "LINE_COVERAGE_OUT"

# the child tracer: the same tracer as Tracer below, written out at exit
CHILD = textwrap.dedent('''
    import atexit, os, sys

    _prefix = {prefix!r}
    _ran = set()

    def _local(frame, event, arg):
        if event == "line":
            _ran.add((frame.f_code.co_filename, frame.f_lineno))
        return _local

    def _global(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(_prefix):
            return None
        _ran.add((filename, frame.f_code.co_firstlineno))
        return _local

    def _write():
        sys.settrace(None)
        path = os.path.join(os.environ["{var}"], f"lines-{{os.getpid()}}.txt")
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(f"{{lineno}} {{filename}}\\n" for filename, lineno in _ran)

    if os.environ.get("{var}"):
        sys.settrace(_global)
        atexit.register(_write)
''')


class Tracer:
    """Records (filename, line) of every line run in files under prefix."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.ran: set[tuple[str, int]] = set()

    def local(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        # a call runs the def line, which gets no line event of its own
        self.ran.add((filename, frame.f_code.co_firstlineno))
        return self.local

    def arm(self) -> None:
        sys.settrace(self)


class Rearm:
    """pytest plugin: arm the tracer again before every test phase."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def pytest_runtest_setup(self, item):
        self.tracer.arm()

    def pytest_runtest_call(self, item):
        self.tracer.arm()

    def pytest_runtest_teardown(self, item):
        self.tracer.arm()


def executable_lines(path: Path) -> set[int]:
    """The lines of a module that some instruction of its code belongs to."""
    lines = set()
    stack: list[CodeType] = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # line 0 (or None) marks instructions of no source line
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def child_lines(directory: Path) -> set[tuple[str, int]]:
    ran = set()
    for path in directory.glob("lines-*.txt"):
        for entry in path.read_text(encoding="utf-8").splitlines():
            lineno, filename = entry.split(" ", 1)
            ran.add((filename, int(lineno)))
    return ran


def report(ran: set[tuple[str, int]]) -> None:
    total_run = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        run = {lineno for filename, lineno in ran if filename == str(path)} & executable
        missed = sorted(executable - run)
        total_run += len(run)
        total += len(executable)
        source = path.read_text(encoding="utf-8").splitlines()
        print(f"{path.relative_to(ROOT)}: {len(run)} of {len(executable)} executable "
              f"lines run")
        for lineno in missed:
            print(f"  {lineno}: {source[lineno - 1].strip()}")
    print(f"total: {total_run} of {total} executable lines run, {total - total_run} never")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--no-children", dest="children", action="store_false",
                        help="trace only this process, not the Python children of the tests")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest after --")
    args = parser.parse_args(argv)
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + os.sep
    with tempfile.TemporaryDirectory() as tmp:
        if args.children:
            site = Path(tmp) / "site"
            out = Path(tmp) / "out"
            site.mkdir()
            out.mkdir()
            (site / "sitecustomize.py").write_text(CHILD.format(prefix=prefix, var=OUT_VAR),
                                                   encoding="utf-8")
            os.environ[OUT_VAR] = str(out)
            os.environ["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(site), os.environ.get("PYTHONPATH")]))
        tracer = Tracer(prefix)
        tracer.arm()
        try:
            status = pytest.main(TIER1 + args.pytest_args, plugins=[Rearm(tracer)])
        finally:
            sys.settrace(None)
        ran = tracer.ran | (child_lines(out) if args.children else set())
    report(ran)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
