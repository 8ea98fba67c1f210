"""Fuzz the whole CLI in-process: every command keeps the exit-code contract.

Each generated run must exit 0, 2 or 3 (1 would mean a failed verification
or invariant, which no generated input can cause), write no traceback, and
write nothing to stdout unless it succeeds.  Graphs have at most 6 vertices,
or a header above the vertex cap, so no route meets a large input; element
degrees stay at most 5 and verify sizes at most 3.
"""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsym.cli import METHODS
from ncsym.elements import BASES
from ncsym.graphs import MAX_VERTICES, LabeledGraph, format_graph
from ncsym.partitions import enumerate_partitions
from ncsym.verification import SUITES
from test_cli import run_cli
from test_parser_fuzz import ELEMENTS, JSON_VALUES, NO_DIGITS

# stand-ins replaced after json.dumps, which cannot write integers this long
LIMIT_DIGITS, OVER_LIMIT_DIGITS = "@limit@", "@limit+1@"

VERTICES = st.integers(min_value=-1, max_value=7).map(str)
GRAPH_LINES = st.one_of(
    st.just(""),
    NO_DIGITS.map(lambda t: "#" + t),
    st.one_of(st.integers(min_value=-1, max_value=6),
              st.sampled_from([MAX_VERTICES + 1, 2**63])).map(lambda n: f"n {n}"),
    st.tuples(VERTICES, VERTICES).map(lambda uv: f"e {uv[0]} {uv[1]}"),
    st.lists(st.one_of(st.sampled_from(["n", "e"]), NO_DIGITS), max_size=4).map(" ".join),
)
VALID_GRAPHS = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.sets(st.tuples(st.integers(1, n), st.integers(1, n))).map(
        lambda pairs: format_graph(LabeledGraph(n, [(u, v) for u, v in pairs if u != v]))))
GRAPH_TEXTS = st.one_of(VALID_GRAPHS, st.lists(GRAPH_LINES, max_size=8).map("\n".join))


# well-formed elements of degree at most 5; ELEMENTS adds junk partitions,
# booleans and wrong types, and JSON_VALUES JSON that is not an object
VALID_ELEMENTS = st.integers(min_value=0, max_value=5).flatmap(
    lambda d: st.fixed_dictionaries({
        "basis": st.sampled_from(BASES),
        "degree": st.just(d),
        "terms": st.lists(st.fixed_dictionaries({
            "partition": st.sampled_from([pi.to_text() for pi in enumerate_partitions(d)]),
            "num": st.one_of(st.integers(-5, 5),
                             st.sampled_from([LIMIT_DIGITS, OVER_LIMIT_DIGITS])),
            "den": st.integers(1, 5),
        }), max_size=4),
    }))


def element_text(data) -> str:
    limit = sys.get_int_max_str_digits()
    return (json.dumps(data)
            .replace(f'"{LIMIT_DIGITS}"', "9" * limit)
            .replace(f'"{OVER_LIMIT_DIGITS}"', "9" * (limit + 1)))


BASIS_NAMES = st.sampled_from(BASES)
JSON_FLAG = st.sampled_from([[], ["--json"]])
SEED_FLAG = st.one_of(st.just([]), st.integers(min_value=-5, max_value=2**64).map(
    lambda seed: ["--seed", str(seed)]))


def convert_run(from_basis, to_basis, flag, text):
    return ["convert", "--expr", "-", "--from", from_basis, "--to", to_basis, *flag], text


# each run is (argv, stdin text or None)
RUNS = {
    "expand": st.builds(
        lambda basis, method, flag, text: (
            ["expand", "--graph", "-", "--basis", basis, "--method", method, *flag], text),
        BASIS_NAMES, st.sampled_from(METHODS), JSON_FLAG, GRAPH_TEXTS),
    "classify-info": st.builds(
        lambda command, flag, text: ([command, "--graph", "-", *flag], text),
        st.sampled_from(["classify", "info"]), JSON_FLAG, GRAPH_TEXTS),
    # --from names the element's own basis
    "convert": st.builds(
        lambda element, to_basis, flag: convert_run(
            element["basis"], to_basis, flag, element_text(element)),
        VALID_ELEMENTS, BASIS_NAMES, JSON_FLAG),
    "convert-junk": st.builds(
        convert_run, BASIS_NAMES, BASIS_NAMES, JSON_FLAG,
        st.one_of(st.one_of(ELEMENTS, JSON_VALUES).map(json.dumps), st.text(max_size=12))),
    "verify": st.builds(
        lambda suite, n, seed, flag: (
            ["verify", "--suite", suite, "--n", str(n), *seed, *flag], None),
        st.sampled_from(SUITES), st.integers(min_value=0, max_value=3), SEED_FLAG, JSON_FLAG),
    "basis": st.builds(
        lambda n, strategy, flag: (["basis", "--n", str(n), "--strategy", strategy, *flag], None),
        st.integers(min_value=0, max_value=4), st.sampled_from(["clique", "path"]), JSON_FLAG),
}


@pytest.mark.parametrize("kind", list(RUNS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_command_keeps_the_exit_code_contract(kind, data):
    argv, stdin = data.draw(RUNS[kind])
    code, out, err = run_cli(*argv, stdin_text=stdin)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert code == 0 or out == ""
