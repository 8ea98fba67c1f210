"""Library process for the dense-yg workload.

Usage: python dense_worker.py IN_FILE OUT_FILE [--spans FILE] [--crosscheck]

IN_FILE holds {"graphs": [{"key", "text"}, ...], "timeout_s": T}.  For each
graph in order the worker parses it, computes chromatic_symmetric_function
on the default route and renders element_to_json_dict as `expand --json`
would print it.  Each call is timed on its own and bounded by a per-graph
timer; a timeout, MemoryError or exception is recorded and the next graph
runs.  The calibration loop is timed before the first graph and after each
one, and each record keeps the mean of the two around its graph.  With --crosscheck the worker instead compares the default route with
csf_by_deletion_contraction, untimed.  Results go to OUT_FILE.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import traceback
from time import perf_counter

import calibration


class GraphTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise GraphTimeout()


def _render(element_to_json_dict, value) -> bytes:
    text = json.dumps(element_to_json_dict(value), indent=2, sort_keys=True) + "\n"
    return text.encode()


def _run_one(ncsym, item: dict, timeout_s: float, crosscheck: bool) -> dict:
    """Run one graph; the caller adds the calibration times around it."""
    # attributes are looked up per call, so a tracer's rebinding is seen
    render = ncsym.elements.element_to_json_dict
    record = {"key": item["key"], "ok": False, "latency_s": None,
              "digest": None, "reason": None}
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        graph = ncsym.graphs.parse_graph(item["text"])
        value = ncsym.chromatic.chromatic_symmetric_function(graph)
        out = _render(render, value)
        record["latency_s"] = perf_counter() - start
        if crosscheck:
            other = _render(render, ncsym.chromatic.csf_by_deletion_contraction(graph))
            if other != out:
                record["reason"] = "default route differs from deletion-contraction"
                return record
        record["digest"] = hashlib.sha256(out).hexdigest()
        record["ok"] = True
    except GraphTimeout:
        record["reason"] = f"timeout after {timeout_s} s"
    except MemoryError:
        record["reason"] = "MemoryError"
    except Exception:
        record["reason"] = "traceback: " + traceback.format_exc(limit=3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if record["latency_s"] is None:
            record["latency_s"] = perf_counter() - start
    return record


def main(argv: list[str]) -> int:
    in_file, out_file, *flags = argv
    spans_file = flags[flags.index("--spans") + 1] if "--spans" in flags else None
    crosscheck = "--crosscheck" in flags
    with open(in_file, encoding="utf-8") as handle:
        job = json.load(handle)
    signal.signal(signal.SIGALRM, _on_alarm)

    start = perf_counter()
    import ncsym
    import_s = perf_counter() - start

    tracer = None
    if spans_file:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    loop_before = calibration.loop_s()
    try:
        for index, item in enumerate(job["graphs"]):
            if tracer is not None:
                tracer.request_id = index
            record = _run_one(ncsym, item, job["timeout_s"], crosscheck)
            loop_after = calibration.loop_s()
            record["loop_s"] = (loop_before + loop_after) / 2
            loop_before = loop_after
            records.append(record)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.write(spans_file, import_s=import_s)
    with open(out_file, "w", encoding="utf-8") as handle:
        json.dump({"records": records}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
