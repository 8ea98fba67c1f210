"""Fuzz the three text parsers: each may raise only its documented errors.

No generated input can allocate a large graph in the test process.  Header
values are either small (at most 10^4) or at least 2^63, which fails at once
with OverflowError; every other token is built without decimal digits, so
no line can spell a header in between.
"""

import json
from importlib import resources

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsym.elements import BASES, element_from_json_dict, element_to_json_dict
from ncsym.errors import DomainError, GraphParseError
from ncsym.graphs import format_graph, parse_graph
from ncsym.partitions import parse_partition

SCHEMA = json.loads(resources.files("ncsym").joinpath("schema.json").read_text())

NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd",)), max_size=6)
SMALL_INTS = st.integers(min_value=-3, max_value=12).map(str)
HEADER_VALUES = st.one_of(st.integers(min_value=-5, max_value=10**4),
                          st.integers(min_value=2**63, max_value=2**80))

GRAPH_LINES = st.one_of(
    st.just(""),
    NO_DIGITS.map(lambda t: "#" + t),
    HEADER_VALUES.map(lambda n: f"n {n}"),
    st.tuples(SMALL_INTS, SMALL_INTS).map(lambda uv: f"e {uv[0]} {uv[1]}"),
    st.lists(st.one_of(st.sampled_from(["n", "e"]), SMALL_INTS, NO_DIGITS),
             max_size=4).map(" ".join),
)


@settings(max_examples=300)
@given(st.lists(GRAPH_LINES, max_size=8), st.sampled_from(["\n", "\r\n"]))
def test_parse_graph_raises_only_documented_errors(lines, newline):
    try:
        graph = parse_graph(newline.join(lines))
    except (GraphParseError, OverflowError):
        return
    assert parse_graph(format_graph(graph)) == graph


PARTITION_TEXT = st.one_of(
    st.text(st.sampled_from("0123456789,/ -"), max_size=12),
    st.text(max_size=8),
)


@settings(max_examples=300)
@given(PARTITION_TEXT)
def test_parse_partition_raises_only_documented_errors(text):
    try:
        pi = parse_partition(text)
    except DomainError:
        return
    assert parse_partition(pi.to_text()) == pi


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
TERMS = st.fixed_dictionaries({
    "partition": st.one_of(st.text(st.sampled_from("123,/"), max_size=6), JSON_VALUES),
    "num": st.one_of(st.integers(-5, 5), st.booleans(), JSON_VALUES),
    "den": st.one_of(st.integers(-2, 5), st.booleans(), JSON_VALUES),
})
ELEMENTS = st.fixed_dictionaries({
    "basis": st.one_of(st.sampled_from(BASES), JSON_VALUES),
    "degree": st.one_of(st.integers(-1, 4), st.booleans(), JSON_VALUES),
    "terms": st.one_of(st.lists(st.one_of(TERMS, JSON_VALUES), max_size=3), JSON_VALUES),
})


@settings(max_examples=300)
@given(st.one_of(ELEMENTS, JSON_VALUES))
def test_element_from_json_dict_raises_only_documented_errors(data):
    try:
        f = element_from_json_dict(data)
    except DomainError:
        return
    out = element_to_json_dict(f)
    jsonschema.validate(out, SCHEMA)
    assert element_from_json_dict(out) == f
