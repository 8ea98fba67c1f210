import pytest

import ncsym.verification
from ncsym.chromatic import chromatic_symmetric_function
from ncsym.cli import main
from ncsym.elements import scale
from ncsym.errors import DomainError
from ncsym.verification import SUITES, needs_seed, run_suite


def test_registry_is_complete():
    assert set(SUITES) == {
        "agreement", "roundtrip", "kdeletion", "trees", "multiplicativity",
        "relabeling", "epos-scan", "xsign-scan", "bases"}


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("everything", 3)


def test_seed_requirements():
    assert needs_seed("relabeling", 2)
    assert needs_seed("bases", 2)
    assert needs_seed("agreement", 6)
    assert not needs_seed("agreement", 5)
    assert not needs_seed("roundtrip", 6)
    assert not needs_seed("trees", 6)
    assert needs_seed("trees", 7)


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
    monkeypatch.setattr(ncsym.verification, "csf_from_connected_subsets",
                        lambda g: scale(chromatic_symmetric_function(g), -1))
    result = run_suite("agreement", 3)
    assert result.total == 8
    assert result.passed == 0 and not result.ok
    assert main(["verify", "--suite", "agreement", "--n", "3"]) == 1
    assert "[connected subsets]" in capsys.readouterr().out
