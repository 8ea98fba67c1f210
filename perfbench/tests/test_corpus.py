import hashlib
import json
import os
import subprocess
import sys

import pytest

import corpus
from conftest import BENCH

SEEDS = (0, 1, 2, 17, corpus.HELD_OUT_SEED)


def _fresh_digest(workload, seed, hash_seed):
    code = ("import corpus, hashlib, sys; "
            f"sys.stdout.write(hashlib.sha256(corpus.corpus_bytes({workload!r}, {seed})).hexdigest())")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return out.stdout


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_byte_deterministic(workload):
    here = hashlib.sha256(corpus.corpus_bytes(workload, 5)).hexdigest()
    assert corpus.corpus_bytes(workload, 5) == corpus.corpus_bytes(workload, 5)
    # fresh interpreters with different hash seeds produce the same bytes
    assert _fresh_digest(workload, 5, 1) == here
    assert _fresh_digest(workload, 5, 2) == here


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_seed_changes_the_inputs(workload):
    assert corpus.corpus_bytes(workload, 1) != corpus.corpus_bytes(workload, 2)


def _edges(text):
    return [tuple(map(int, line.split()[1:])) for line in text.splitlines()[1:]]


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_graphs_are_distinct_and_sized(seed):
    graphs = corpus.dense_graphs(seed)
    assert len({g.text for g in graphs}) == len(graphs)
    invariants = {corpus._isomorphism_invariant(g.n, _edges(g.text)) for g in graphs}
    assert len(invariants) == len(graphs)
    wanted = sorted((n, m) for n, m, count in corpus.DENSE_CLASSES for _ in range(count))
    assert sorted((g.n, g.edge_count) for g in graphs) == wanted
    for graph in graphs:
        lines = graph.text.splitlines()
        assert lines[0] == f"n {graph.n}" and len(lines) == graph.edge_count + 1
    checked = corpus.crosscheck_graphs(seed, graphs)
    assert len(checked) == corpus.CROSSCHECK_COUNT
    assert all(g in graphs for g in checked)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_request_has_a_reference_digest(seed):
    reference = json.loads((BENCH / "reference.json").read_text())
    assert corpus.SETUP_REQUEST.key in reference["setup"]
    assert all(r.key in reference["cli-oneshot"] for r in corpus.cli_requests(seed))
    assert all(g.key in reference["dense-yg"] for g in corpus.dense_graphs(seed))
    for request in corpus.verify_requests(seed):
        assert request.key in reference["verify-sweep"]
        assert request.key in reference["verify-sweep"]["checks"]


def test_requests_never_choose_workers_or_method():
    requests = corpus.cli_pool() + corpus.verify_pool()
    for request in requests:
        assert "--workers" not in request.argv and "--method" not in request.argv
    suites = {r.argv[2] for r in corpus.verify_requests(3)}
    assert len(suites) == 9


@pytest.mark.parametrize("family", ["path", "cycle", "star", "tree", "gnm0.35"])
def test_family_edges_are_simple_graphs(family):
    import random

    for n in (6, 7, 8, 9):
        edges = corpus.family_edges(family, n, random.Random(n))
        canon = {tuple(sorted(e)) for e in edges}
        assert len(canon) == len(edges)
        assert all(1 <= u < v <= n for u, v in canon)
        if family in ("path", "star", "tree"):
            assert len(edges) == n - 1
