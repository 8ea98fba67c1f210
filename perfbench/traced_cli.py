"""Run one ncsym CLI request in-process under the tracer.

Usage: python traced_cli.py SPANS_FILE REQUEST_ID -- NCSYM_ARGS...

Stdin and stdout pass through untouched, so stdout is byte-identical to
``python -m ncsym.cli NCSYM_ARGS...``; spans and counters go to SPANS_FILE.
"""

from __future__ import annotations

import sys
from time import perf_counter

from tracing import Tracer


def main(argv: list[str]) -> int:
    spans_file, request_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE REQUEST_ID -- NCSYM_ARGS...")
    start = perf_counter()
    import ncsym.cli
    import_s = perf_counter() - start
    tracer = Tracer(int(request_id))
    tracer.install()
    try:
        code = ncsym.cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(spans_file, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
