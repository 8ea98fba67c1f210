"""The public shape of the result records: attribute names in order and their
values on one small input, each record built through its public function."""

from fractions import Fraction

import pytest

from ncsym import (
    PATH_PER_BLOCK,
    AtomicGeneratorStrategy,
    LabeledGraph,
    SetPartition,
    build_basis,
    classify_e_positivity,
    x_sign_report,
)
from ncsym.verification import run_suite

PATH3 = LabeledGraph(3, [(1, 2), (2, 3)])


def attribute_names(record) -> list[str]:
    """The record's public data attributes in definition order."""
    if isinstance(record, tuple):
        return list(record._fields)
    names = getattr(type(record), "__slots__", None) or vars(record)
    return [name for name in names if not name.startswith("_")]


def values(record) -> dict:
    return {name: getattr(record, name) for name in attribute_names(record)}


def parts(*texts: str) -> tuple[SetPartition, ...]:
    return tuple(map(SetPartition.parse, texts))


def test_e_positivity_report():
    report = classify_e_positivity(PATH3)
    assert values(report) == {
        "verdict": "mixed",
        "is_clique_union": False,
        "negative_witness": (SetPartition.parse("1,3/2"), Fraction(-1, 2)),
        "top_coefficient": Fraction(1, 2),
    }
    assert repr(report) == (
        "EPositivityReport(verdict='mixed', is_clique_union=False, "
        "negative_witness=(SetPartition.parse('1,3/2'), Fraction(-1, 2)), "
        "top_coefficient=Fraction(1, 2))")


def test_x_sign_report():
    report = x_sign_report(PATH3)
    assert values(report) == {"n": 3, "component_count": 1, "sign": 1}
    assert repr(report) == "XSignReport(n=3, component_count=1, sign=1)"


@pytest.mark.parametrize("build", [
    lambda: classify_e_positivity(PATH3),
    lambda: x_sign_report(PATH3),
    lambda: PATH_PER_BLOCK,
], ids=["e-positivity", "x-sign", "strategy"])
def test_value_records_are_immutable_with_value_equality(build):
    record, again = build(), build()
    rebuilt = type(record)(**values(record))
    assert record == again == rebuilt
    assert hash(record) == hash(again) == hash(rebuilt)
    with pytest.raises(AttributeError):
        setattr(record, attribute_names(record)[0], None)


def test_generator_strategy():
    assert attribute_names(PATH_PER_BLOCK) == ["name", "rule"]
    assert PATH_PER_BLOCK.name == "path_per_block"
    assert PATH_PER_BLOCK.rule(SetPartition.parse("1,2,3")).edges == ((1, 2), (2, 3))
    assert AtomicGeneratorStrategy(name="x", rule=len).rule is len


def test_chromatic_basis():
    basis = build_basis(3, PATH_PER_BLOCK)
    assert attribute_names(basis) == ["n", "strategy", "order", "graphs", "elements"]
    assert basis.n == 3
    assert basis.strategy is PATH_PER_BLOCK
    assert basis.order == parts("1,2,3", "1,2/3", "1,3/2", "1/2,3", "1/2/3")
    assert [g.edges for g in basis.graphs] == [
        ((1, 2), (2, 3)), ((1, 2),), ((1, 3),), ((2, 3),), ()]
    assert [str(f) for f in basis.elements] == [
        "p{1,2,3} - p{1,2/3} - p{1/2,3} + p{1/2/3}",
        "-p{1,2/3} + p{1/2/3}",
        "-p{1,3/2} + p{1/2/3}",
        "-p{1/2,3} + p{1/2/3}",
        "p{1/2/3}",
    ]
    assert basis.index_of(SetPartition.parse("1/2,3")) == 3
    # the lazily built index is not a public attribute
    assert attribute_names(basis) == ["n", "strategy", "order", "graphs", "elements"]


def test_suite_result():
    result = run_suite("roundtrip", 3)
    assert values(result) == {"suite": "roundtrip", "n": 3, "seed": None,
                              "total": 20, "passed": 20, "failures": []}
    assert result.ok
    result.total += 1
    result.failures.append({"instance": "i", "expected": "e", "actual": "a"})
    assert not result.ok
    assert result.to_json_dict()["failed"] == 1
