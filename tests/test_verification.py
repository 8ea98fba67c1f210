import hashlib
import json
from fractions import Fraction

import pytest

import ncsym.chromatic
import ncsym.elements
import ncsym.verification
from ncsym.chromatic import (
    chromatic_symmetric_function,
    classify_e_positivity,
    tree_x_expansion,
)
from ncsym.chromatic_bases import PATH_PER_BLOCK, build_basis
from ncsym.cli import main
from ncsym.elements import _block_codes, act, basis_term, convert, multiply, scale
from ncsym.errors import DomainError, InvariantViolation
from ncsym.graphs import bond_mobius
from ncsym.partitions import SetPartition, parse_partition
from ncsym.verification import SUITES, run_suite


def test_registry_is_complete():
    assert set(SUITES) == {
        "agreement", "roundtrip", "kdeletion", "trees", "multiplicativity",
        "relabeling", "epos-scan", "xsign-scan", "bases"}


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("everything", 3)


@pytest.mark.parametrize("suite,n", [
    ("agreement", 6), ("kdeletion", 6), ("epos-scan", 6), ("xsign-scan", 6),
    ("trees", 7), ("multiplicativity", 7), ("relabeling", 2), ("bases", 2),
])
def test_sampling_sizes_need_a_seed(suite, n):
    with pytest.raises(DomainError, match="needs an explicit seed"):
        run_suite(suite, n)


@pytest.mark.parametrize("suite,n", [
    ("xsign-scan", 5), ("trees", 6), ("multiplicativity", 6), ("roundtrip", 6),
])
def test_largest_exhaustive_sizes_run_without_a_seed(suite, n):
    # the graph corpus of agreement, kdeletion, epos-scan and xsign-scan is shared
    result = run_suite(suite, n)
    assert result.seed is None and result.ok


def test_missing_seed_is_a_domain_error():
    with pytest.raises(DomainError):
        run_suite("agreement", 6)
    with pytest.raises(DomainError):
        run_suite("relabeling", 3)


@pytest.mark.parametrize("suite,n,seed,total", [
    ("agreement", 3, None, 8),
    ("roundtrip", 4, None, 60),       # 15 partitions x 4 bases
    ("epos-scan", 4, None, 64),
    ("xsign-scan", 3, None, 8),
    ("trees", 4, None, 16),
    ("multiplicativity", 3, None, 4),  # 1x2(x2 splits) and 2... see below
    ("relabeling", 4, 5, 20),
    ("kdeletion", 3, None, 1),         # only K3 has a cycle
])
def test_small_suites_pass(suite, n, seed, total):
    result = run_suite(suite, n, seed=seed)
    assert result.ok, result.failures[:2]
    assert result.total == total
    assert result.passed == total
    assert result.failures == []


def test_multiplicativity_pair_count():
    # splits of 4: (1,3) 1x8, (2,2) 2x2, (3,1) 8x1 -> 20 ordered pairs
    result = run_suite("multiplicativity", 4)
    assert result.total == 20 and result.ok


def test_bases_suite_passes():
    result = run_suite("bases", 3, seed=13)
    assert result.ok
    # 2 constructions + clique-vs-e + 20 round trips
    assert result.total == 23


def test_agreement_sampled_runs_are_seed_stable():
    a = run_suite("agreement", 6, seed=41)
    b = run_suite("agreement", 6, seed=41)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.total == 50


@pytest.mark.parametrize("suite", ["trees", "multiplicativity"])
def test_sampled_suites_above_six_pass_and_are_seed_stable(suite):
    # above n = 6 both suites draw 50 instances instead of listing them all
    a = run_suite(suite, 7, seed=3)
    assert (a.total, a.passed, a.failures) == (50, 50, [])
    assert a.to_json_dict() == run_suite(suite, 7, seed=3).to_json_dict()


def test_result_json_shape():
    data = run_suite("xsign-scan", 2).to_json_dict()
    assert data["suite"] == "xsign-scan"
    assert data["n"] == 2
    assert data["seed"] is None
    assert data["failed"] == 0
    assert data["failures"] == []
    assert data["total"] == data["passed"] == 2


def test_xsign_scan_fails_on_a_wrong_sign(monkeypatch):
    # the suite itself must check every x coefficient against the reported sign
    monkeypatch.setattr(ncsym.verification, "chromatic_symmetric_function",
                        lambda g: scale(chromatic_symmetric_function(g), -1))
    result = run_suite("xsign-scan", 3)
    assert result.total == 8
    assert result.passed == 0 and not result.ok


def test_agreement_fails_on_a_wrong_kernel(monkeypatch, capsys):
    monkeypatch.setattr(ncsym.verification, "chromatic_symmetric_function",
                        lambda g: scale(chromatic_symmetric_function(g), -1))
    result = run_suite("agreement", 3)
    assert result.total == 8
    assert result.passed == 0 and not result.ok
    assert main(["verify", "--suite", "agreement", "--n", "3"]) == 1
    assert "[connected subsets]" in capsys.readouterr().out



def test_agreement_fails_on_a_wrong_lattice_mobius_entry(monkeypatch):
    # negate m[V] of every connected graph: only the lattice route reads m
    def wrong(graph):
        m = bond_mobius(graph)
        m[-2] = -m[-2]
        return m

    monkeypatch.setattr(ncsym.chromatic, "bond_mobius", wrong)
    result = run_suite("agreement", 3)
    assert result.total == 8 and result.passed == 4
    assert all(f["instance"].endswith("[contraction lattice]") for f in result.failures)
    assert main(["verify", "--suite", "agreement", "--n", "3"]) == 1


def test_agreement_fails_on_a_wrong_block_code(monkeypatch):
    # label the block {2, 3} as the blocks {2} and {3}; the edge-subset
    # reference encodes each block on its own
    def wrong(n, weight):
        codes = _block_codes(n, weight)
        codes[0b1100] = codes[0b100] + codes[0b1000]
        return codes

    monkeypatch.setattr(ncsym.elements, "_block_codes", wrong)
    result = run_suite("agreement", 3)
    # {2, 3} is a block of the kernel when it is an edge, and of the coloring
    # definition when it is not
    assert result.total == 8 and result.passed == 0
    labels = {f["instance"].rsplit(" [", 1)[1] for f in result.failures}
    assert labels == {"connected subsets]", "coloring definition]"}
    assert main(["verify", "--suite", "agreement", "--n", "3"]) == 1


def _reported(**changes):
    """classify_e_positivity with fields of each report replaced by
    changes[field](report)."""
    def classify(graph):
        report = classify_e_positivity(graph)
        return report._replace(**{name: change(report) for name, change in changes.items()})
    return classify


def test_epos_scan_fails_on_a_zero_witness_coefficient(monkeypatch):
    # e_{1/2/3} really has coefficient 0 in every Y on three vertices, so
    # only the sign check can refuse this witness
    finest = SetPartition.singletons(3)
    zero = _reported(negative_witness=lambda r: r.negative_witness and (finest, Fraction(0)))
    monkeypatch.setattr(ncsym.verification, "classify_e_positivity", zero)
    result = run_suite("epos-scan", 3)
    # the three paths on three vertices are the graphs that are not clique unions
    assert (result.total, result.passed) == (8, 5)
    assert [(f["expected"], f["actual"]) for f in result.failures] == [("0", "0")] * 3
    assert all(f["instance"].endswith(" witness 1/2/3") for f in result.failures)
    assert main(["verify", "--suite", "epos-scan", "--n", "3"]) == 1


def test_epos_scan_fails_on_a_wrong_verdict(monkeypatch):
    flipped = _reported(verdict=lambda r: "mixed" if r.verdict == "e_positive" else "e_positive")
    monkeypatch.setattr(ncsym.verification, "classify_e_positivity", flipped)
    result = run_suite("epos-scan", 3)
    assert (result.total, result.passed) == (8, 0)
    assert {(f["expected"], f["actual"]) for f in result.failures} == {
        ("e_positive", "mixed"), ("mixed", "e_positive")}
    assert main(["verify", "--suite", "epos-scan", "--n", "3"]) == 1


def test_epos_scan_fails_when_a_mixed_graph_has_one_sign(monkeypatch):
    # every graph gets the Y of the edgeless graph, p_{1/2/3} = e_{1/2/3}
    monkeypatch.setattr(ncsym.verification, "chromatic_symmetric_function",
                        lambda g: basis_term("p", SetPartition.singletons(g.n)))
    result = run_suite("epos-scan", 3)
    assert (result.total, result.passed) == (8, 5)
    assert {f["expected"] for f in result.failures} == {
        "both positive and negative e coefficients"}
    assert main(["verify", "--suite", "epos-scan", "--n", "3"]) == 1


def test_bases_fails_on_a_wrong_clique_element(monkeypatch):
    # the path strategy's elements stand in for the clique strategy's
    monkeypatch.setattr(ncsym.verification, "build_basis",
                        lambda n, strategy: build_basis(n, PATH_PER_BLOCK))
    result = run_suite("bases", 3, seed=13)
    assert (result.total, result.passed) == (23, 22)
    [failure] = result.failures
    assert failure["instance"].startswith("clique element at ")
    assert main(["verify", "--suite", "bases", "--n", "3", "--seed", "13"]) == 1


def _negated(fn):
    return lambda *args: scale(fn(*args), -1)


def _finest_p(graph, edges):
    return basis_term("p", parse_partition("/".join(map(str, range(1, graph.n + 1)))))


def _uncertified(n, strategy):
    raise InvariantViolation("diagonal coefficient at 1,2/3 is 0")


# case -> (suite, patched name, fault, n, seed); one injected fault per suite
FAULTS = {
    "agreement": ("agreement", "chromatic_symmetric_function",
                  _negated(chromatic_symmetric_function), 3, None),
    "roundtrip": ("roundtrip", "convert", lambda f, b: scale(convert(f, b), 2), 3, None),
    "kdeletion": ("kdeletion", "k_deletion_sum", _finest_p, 4, None),
    "trees": ("trees", "tree_x_expansion", _negated(tree_x_expansion), 4, None),
    "multiplicativity": ("multiplicativity", "multiply", _negated(multiply), 3, None),
    "relabeling": ("relabeling", "act", _negated(act), 3, 5),
    "epos-scan": ("epos-scan", "chromatic_symmetric_function",
                  _negated(chromatic_symmetric_function), 3, None),
    "xsign-scan": ("xsign-scan", "chromatic_symmetric_function",
                   _negated(chromatic_symmetric_function), 3, None),
    "bases": ("bases", "express", lambda f, basis: {}, 3, 13),
    "bases uncertified": ("bases", "build_basis", _uncertified, 3, 13),
}

# SHA-256 of each failing report's sorted, indented JSON, recorded while every
# suite still built its instances up front
FAILING_DIGESTS = {
    "agreement": "29c3a529291238d5b38ef139dfa57a3f459f00f0c8a05ac756d9c3579181e7f0",
    "bases": "a635b917d89048d5e09ba1ac57c7670d22e11f4f50804b9bfd6c2a1531133dbf",
    "bases uncertified": "dd7b02fa94186e970dc4e37252d3fd4d98ed5d1519cf36c1fed543a1af5c5639",
    "epos-scan": "eb5cb28a00bd9673324b33d69e4d02bf0cbb6b0fc747781de666e0b27871a50a",
    "kdeletion": "d35038c082524dab3220325ac1f81cec671a6239c923b9e173124429bcfbd3ed",
    "multiplicativity": "001716d67a641db9f81b8ca6bf8820fcb5b7bb45a9642c4a265041db4fa9c6b5",
    "relabeling": "68aa0c663ec7ee2d0ed5315f6b31b274e10e079e9506fa549a94d89ae7d19535",
    "roundtrip": "cc237571de791e365fc7594ec926fcf1d59ee9a6544453436a3f6eae560ed1e3",
    "trees": "3b3574d934ae8a5017cd63763852b28c56ee6a2fd2a5b612b06e5ec2045f162c",
    "xsign-scan": "8e990792f4ae624114840040b14390dcd6c2e9cb15f557238cb2dc2c235f8fe2",
}


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_failing_reports_are_pinned(case, monkeypatch):
    suite, name, fault, n, seed = FAULTS[case]
    monkeypatch.setattr(ncsym.verification, name, fault)
    result = run_suite(suite, n, seed=seed)
    assert not result.ok
    text = json.dumps(result.to_json_dict(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FAILING_DIGESTS[case]
