"""Every NCSYM_MAX_N refusal goes through partitions.check_ground_set, and
each size cap passes a request at the cap and refuses one past it."""

import ast
import re
from itertools import combinations
from pathlib import Path

import pytest

import ncsym.chromatic
import ncsym.chromatic_bases
from ncsym.chromatic import (
    DELCON_BUDGET,
    SUBSET_EDGE_LIMIT,
    _check_subset_limit,
    chromatic_symmetric_function,
    connected_mobius,
    csf_by_deletion_contraction,
    csf_from_colorings,
    csf_from_contraction_lattice,
    tree_x_expansion,
)
from ncsym.chromatic_bases import MAX_MATRIX_CELLS, check_matrix_size
from ncsym.elements import MAX_CONVERSION_PAIRS, check_conversion_pairs
from ncsym.errors import DomainError, ResourceLimitError
from ncsym.graphs import (
    MAX_VERTICES,
    LabeledGraph,
    all_labeled_graphs,
    all_labeled_trees,
    bond_mobius,
    random_graph,
)
from ncsym.partitions import DEFAULT_MAX_GROUND_SET, enumerate_partitions

PATH4 = LabeledGraph(4, [(1, 2), (2, 3), (3, 4)])

GUARDED = {
    "enumerate_partitions": lambda: enumerate_partitions(4),
    "all_labeled_graphs": lambda: next(all_labeled_graphs(4)),
    "all_labeled_trees": lambda: next(all_labeled_trees(4)),
    "random_graph": lambda: random_graph(4, 0.5, 1),
    "bond_mobius": lambda: bond_mobius(PATH4),
    "csf_from_contraction_lattice": lambda: csf_from_contraction_lattice(PATH4),
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


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_entry_point_runs_at_the_cap(name, monkeypatch):
    monkeypatch.setenv("NCSYM_MAX_N", "4")
    GUARDED[name]()


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


SIZE_LIMITS = {
    "MAX_CONVERSION_PAIRS": MAX_CONVERSION_PAIRS,
    "MAX_MATRIX_CELLS": MAX_MATRIX_CELLS,
    "MAX_VERTICES": MAX_VERTICES,
    "DEFAULT_MAX_GROUND_SET": DEFAULT_MAX_GROUND_SET,
    "SUBSET_EDGE_LIMIT": SUBSET_EDGE_LIMIT,
    "DELCON_BUDGET": DELCON_BUDGET,
}


@pytest.mark.parametrize("name", sorted(SIZE_LIMITS))
def test_readme_names_every_size_limit(name):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # README groups digits with commas: 2,000,000
    value = re.escape(f"{SIZE_LIMITS[name]:,}")
    assert re.search(rf"(?<![\d,]){value}(?![\d,])", readme), name


def test_conversion_pairs_at_the_cap_pass():
    check_conversion_pairs(MAX_CONVERSION_PAIRS, "at the cap")
    with pytest.raises(ResourceLimitError) as err:
        check_conversion_pairs(MAX_CONVERSION_PAIRS + 1, "past the cap")
    assert str(MAX_CONVERSION_PAIRS + 1) in str(err.value)


def test_edge_subsets_at_the_edge_limit_pass():
    # the check alone: the expansion of 22 edges would walk 4 million subsets
    edges = [(u, v) for u in range(1, 9) for v in range(u + 1, 9)]
    _check_subset_limit(LabeledGraph(8, edges[:SUBSET_EDGE_LIMIT]))
    with pytest.raises(ResourceLimitError) as err:
        _check_subset_limit(LabeledGraph(8, edges[:SUBSET_EDGE_LIMIT + 1]))
    assert f"graph has {SUBSET_EDGE_LIMIT + 1}" in str(err.value)


def test_delcon_budget_at_the_count_passes(monkeypatch):
    # K_5 expands exactly 32 distinct subproblems
    k5 = LabeledGraph(5, combinations(range(1, 6), 2))
    monkeypatch.setattr(ncsym.chromatic, "DELCON_BUDGET", 32)
    assert csf_by_deletion_contraction(k5) == chromatic_symmetric_function(k5)
    monkeypatch.setattr(ncsym.chromatic, "DELCON_BUDGET", 31)
    with pytest.raises(ResourceLimitError) as err:
        csf_by_deletion_contraction(k5)
    assert "limit 31 expansions" in str(err.value)


def test_matrix_cells_at_the_cap_pass(monkeypatch):
    # the degree-5 matrix has B_5^2 = 2,704 cells
    monkeypatch.setattr(ncsym.chromatic_bases, "MAX_MATRIX_CELLS", 2704)
    check_matrix_size(5)
    monkeypatch.setattr(ncsym.chromatic_bases, "MAX_MATRIX_CELLS", 2703)
    with pytest.raises(ResourceLimitError) as err:
        check_matrix_size(5)
    assert "2704" in str(err.value)
