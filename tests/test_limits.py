"""Every NCSYM_MAX_N refusal goes through partitions.check_ground_set."""

import ast
from pathlib import Path

import pytest

import ncsym
from ncsym.chromatic import connected_mobius, csf_from_colorings, tree_x_expansion
from ncsym.errors import DomainError, ResourceLimitError
from ncsym.graphs import (
    LabeledGraph,
    all_labeled_graphs,
    all_labeled_trees,
    contraction_lattice,
    random_graph,
)
from ncsym.partitions import enumerate_partitions

PATH4 = LabeledGraph(4, [(1, 2), (2, 3), (3, 4)])

GUARDED = {
    "enumerate_partitions": lambda: enumerate_partitions(4),
    "all_labeled_graphs": lambda: next(all_labeled_graphs(4)),
    "all_labeled_trees": lambda: next(all_labeled_trees(4)),
    "random_graph": lambda: random_graph(4, 0.5, 1),
    "contraction_lattice": lambda: contraction_lattice(PATH4),
    "connected_mobius": lambda: connected_mobius(PATH4),
    "csf_from_colorings": lambda: csf_from_colorings(PATH4),
    "tree_x_expansion": lambda: tree_x_expansion(PATH4),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_entry_point_refuses_above_the_cap(name, monkeypatch):
    GUARDED[name]()
    monkeypatch.setenv("NCSYM_MAX_N", "3")
    with pytest.raises(ResourceLimitError) as err:
        GUARDED[name]()
    assert "n <= 3 (NCSYM_MAX_N), got 4" in str(err.value)


@pytest.mark.parametrize("call", [
    lambda: enumerate_partitions(-1),
    lambda: next(all_labeled_graphs(-1)),
    lambda: next(all_labeled_trees(0)),
    lambda: random_graph(-1, 0.5, 1),
], ids=["enumerate_partitions", "all_labeled_graphs", "all_labeled_trees", "random_graph"])
def test_negative_size_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_only_the_guard_reads_the_cap():
    callers = []
    for path in sorted(Path(ncsym.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "max_ground_set"):
                    callers.append(f"{path.name}:{func.name}")
    assert callers == ["partitions.py:check_ground_set"]
