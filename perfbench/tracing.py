"""Run-time tracing of ncsym from outside the package.

A Tracer rebinds module attributes of the loaded ``ncsym`` modules to
wrappers: every module that imported a traced function under some name gets
the wrapper under that name, so calls through any import path are seen.
Module-level calls record spans (name, start, end, parent, request id);
the partition primitives, which run millions of times, only add to counters.
Spans stay in memory until ``write`` is called.  ``uninstall`` puts every
original object back.

Nothing under ``src/`` knows about this module.  A traced name that no longer
exists in the package is skipped, so its metrics read zero.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

# (module, attribute, span name).  The span name 'verification.suite' gets
# the suite name appended so per-suite times can be split out.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("ncsym.cli", "main", "cli.main"),
    ("ncsym.graphs", "parse_graph", "graphs.parse"),
    ("ncsym.graphs", "contraction_lattice", "graphs.lattice"),
    ("ncsym.chromatic", "chromatic_symmetric_function", "chromatic.yg"),
    ("ncsym.chromatic", "csf_from_edge_subsets", "chromatic.route_subset"),
    ("ncsym.chromatic", "csf_from_contraction_lattice", "chromatic.route_mobius"),
    ("ncsym.chromatic", "csf_by_deletion_contraction", "chromatic.route_delcon"),
    ("ncsym.chromatic", "csf_from_colorings", "chromatic.route_definition"),
    ("ncsym.chromatic", "classify_e_positivity", "chromatic.classify"),
    ("ncsym.chromatic", "x_sign_report", "chromatic.classify"),
    ("ncsym.elements", "convert", "elements.convert"),
    ("ncsym.elements", "element_to_json_dict", "elements.render"),
    ("ncsym.chromatic_bases", "build_basis", "chromatic_bases.build"),
    ("ncsym.chromatic_bases", "express", "chromatic_bases.express"),
    ("ncsym.verification", "run_suite", "verification.suite"),
)

# Counted and timed per call, without spans: (module, attribute, counter).
# Recursive calls inside the same counter are counted but timed once.
COUNTER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("ncsym.partitions", "mobius_interval", "partitions.mobius"),
    ("ncsym.partitions", "mobius_from_bottom", "partitions.mobius"),
    # change-of-basis columns; the p->target counter gets the basis appended
    ("ncsym.elements", "_to_p_column", "elements.convert_to_p"),
    ("ncsym.elements", "_from_p_column", "elements.convert_p"),
)

# Generators whose yielded items are counted and whose next() calls are timed.
ENUM_TARGETS: tuple[tuple[str, str], ...] = (
    ("ncsym.partitions", "iter_partitions"),
    ("ncsym.partitions", "finer_partitions"),
    ("ncsym.partitions", "coarser_partitions"),
)

ROUTE_PREFIX = "chromatic.route_"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self, request_id: int = 0):
        self.request_id = request_id
        self.spans: list[Optional[tuple]] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._rebound: list[tuple[object, str, object]] = []
        self._module_depth: defaultdict[str, int] = defaultdict(int)

    # -- installation -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _rebind(self, original: object, wrapper: object) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "ncsym" or name.startswith("ncsym.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._rebound.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function in every loaded ncsym module."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span_name in SPAN_TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is not None:
                self._rebind(original, self._span_wrapper(original, span_name))
        for module_name, attr, counter in COUNTER_TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is not None:
                self._rebind(original, self._counter_wrapper(original, counter))
        for module_name, attr in ENUM_TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is not None:
                self._rebind(original, self._enum_wrapper(original))
        partitions = sys.modules.get("ncsym.partitions")
        set_partition = getattr(partitions, "SetPartition", None)
        refines = getattr(set_partition, "refines", None)
        if refines is not None:
            self._rebound.append((set_partition, "refines", refines))
            set_partition.refines = self._counter_wrapper(refines, "partitions.refines")

    def uninstall(self) -> None:
        """Restore every rebound attribute, newest first."""
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn: Callable, span_name: str) -> Callable:
        module = span_name.split(".")[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span_name
            if name == "verification.suite":
                name = f"{name}:{kwargs.get('suite', args[0] if args else '')}"
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            outermost = tracer._module_depth[module] == 0
            tracer._module_depth[module] += 1
            rss_before = _maxrss_mb() if outermost else 0.0
            routes_before = tracer.counters["_route_calls"]
            if name.startswith(ROUTE_PREFIX):
                tracer.counters["_route_calls"] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._module_depth[module] -= 1
                tracer.spans[index] = (name, start, end, parent, tracer.request_id)
                if outermost:
                    tracer.counters[f"{module}.rss_growth_mb"] += _maxrss_mb() - rss_before
            tracer._after(name, args, kwargs, result, routes_before)
            return result

        return wrapper

    def _after(self, name: str, args, kwargs, result, routes_before: float) -> None:
        counters = self.counters
        if name == "chromatic.yg":
            counters["chromatic.yg_terms"] += len(result.terms)
            method = kwargs.get("method", args[1] if len(args) > 1 else "auto")
            if method == "auto":
                counters["chromatic.auto_calls"] += 1
                if counters["_route_calls"] == routes_before:
                    counters["chromatic.auto_hits"] += 1
        elif name == "graphs.lattice":
            counters["graphs.lattice_elements"] += len(result.elements)
        elif name == "elements.convert":
            counters["elements.convert_terms_in"] += len(args[0].terms)
            counters["elements.convert_terms_out"] += len(result.terms)
        elif name.startswith("verification.suite"):
            counters["verification.checks"] += result.total

    def _counter_wrapper(self, fn: Callable, counter: str) -> Callable:
        depth = [0]
        counters = self.counters
        per_basis = counter == "elements.convert_p"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = f"{counter}_{args[0]}" if per_basis else counter
            counters[key + "_calls"] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[key + "_s"] += perf_counter() - start
                depth[0] -= 1

        return wrapper

    def _enum_wrapper(self, fn: Callable) -> Callable:
        counters = self.counters

        def timed(iterator):
            while True:
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    counters["partitions.enum_s"] += perf_counter() - start
                    return
                counters["partitions.enum_s"] += perf_counter() - start
                counters["partitions.enum_items"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            iterator = iter(fn(*args, **kwargs))
            counters["partitions.enum_s"] += perf_counter() - start
            return timed(iterator)

        return wrapper

    # -- output ---------------------------------------------------------

    def to_json(self, **extra) -> dict:
        spans = [list(s) for s in self.spans if s is not None]
        counters = {k: v for k, v in self.counters.items() if not k.startswith("_")}
        return dict(extra, spans=spans, counters=counters)

    def write(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(**extra), handle)
