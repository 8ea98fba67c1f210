"""Percentiles, span arithmetic and the per-layer metrics of a traced pass."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

# Time metrics summed over the spans of a name prefix (union of intervals,
# so nested spans of one name are not counted twice).
SPAN_TIME_METRICS: tuple[tuple[str, str], ...] = (
    ("graphs.parse_s", "graphs.parse"),
    ("graphs.lattice_s", "graphs.lattice"),
    ("chromatic.yg_s", "chromatic.yg"),
    ("chromatic.classify_s", "chromatic.classify"),
    ("elements.convert_s", "elements.convert"),
    ("elements.render_s", "elements.render"),
    ("chromatic_bases.build_s", "chromatic_bases.build"),
    ("chromatic_bases.express_s", "chromatic_bases.express"),
    ("verification.suite_s", "verification.suite"),
)

SPAN_COUNT_METRICS: tuple[tuple[str, str], ...] = (
    ("graphs.lattice_calls", "graphs.lattice"),
    ("chromatic.yg_calls", "chromatic.yg"),
    ("chromatic.route_subset_calls", "chromatic.route_subset"),
    ("chromatic.route_mobius_calls", "chromatic.route_mobius"),
    ("chromatic.route_delcon_calls", "chromatic.route_delcon"),
    ("chromatic.route_definition_calls", "chromatic.route_definition"),
    ("elements.convert_calls", "elements.convert"),
)

COUNTER_METRICS: tuple[str, ...] = (
    "graphs.lattice_elements",
    "partitions.enum_items", "partitions.enum_s",
    "partitions.refines_calls", "partitions.refines_s",
    "partitions.mobius_calls", "partitions.mobius_s",
    "chromatic.yg_terms", "chromatic.rss_growth_mb",
    "elements.convert_terms_in", "elements.convert_terms_out",
    "elements.convert_p_m_s", "elements.convert_p_e_s",
    "elements.convert_p_h_s", "elements.convert_p_x_s",
    "elements.convert_to_p_s", "elements.rss_growth_mb",
    "verification.checks",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile by linear interpolation between the two nearest order
    statistics (position q * (n - 1) in the sorted samples)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def tail_quantile(count: int) -> float:
    """The 90th percentile when there are at least 100 samples, otherwise the
    highest percentile with at least ten samples above it, never below the
    median (with fewer than 21 samples no tail is resolved)."""
    if count >= 100:
        return 0.9
    return max(0.5, (count - 11) / (count - 1)) if count > 1 else 0.5


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    A span is (name, start, end, parent_index, request_id); parent_index is
    -1 for a root and otherwise indexes the same list.
    """
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _request in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, _parent, _request) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children[index]
                   if min(e, end) > max(s, start)]
        out.append((end - start) - union_length(clipped))
    return out


def layer_metrics(traces: Sequence[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the traced processes of one pass.

    Each trace is what Tracer.to_json wrote for one process, plus its
    'import_s'.
    """
    out: dict[str, float] = defaultdict(float)
    auto_calls = auto_hits = 0.0
    for trace in traces:
        spans = trace["spans"]
        counters = trace["counters"]
        out["cli.import_s"] += trace["import_s"]
        for span, own in zip(spans, self_times(spans)):
            if span[0] == "cli.main":
                out["cli.self_s"] += own
        for metric, prefix in SPAN_TIME_METRICS:
            out[metric] += union_length((s[1], s[2]) for s in spans
                                        if s[0].split(":")[0] == prefix)
        for metric, prefix in SPAN_COUNT_METRICS:
            out[metric] += sum(1 for s in spans if s[0] == prefix)
        for span in spans:
            if span[0].startswith("verification.suite:"):
                suite = span[0].split(":", 1)[1]
                out[f"verification.{suite}_s"] += span[2] - span[1]
        for metric in COUNTER_METRICS:
            out[metric] += counters.get(metric, 0.0)
        auto_calls += counters.get("chromatic.auto_calls", 0.0)
        auto_hits += counters.get("chromatic.auto_hits", 0.0)
    out["chromatic.auto_hit_frac"] = auto_hits / auto_calls if auto_calls else 0.0
    return dict(out)
