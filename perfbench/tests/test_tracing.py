import contextlib
import io
import json
import os
import subprocess
import sys

import corpus
import ncsym.cli
from conftest import BENCH, ROOT
from tracing import Tracer


def _snapshot():
    state = {}
    for name, module in sys.modules.items():
        if module is not None and (name == "ncsym" or name.startswith("ncsym.")):
            state.update({(name, attr): id(value) for attr, value in vars(module).items()})
    state[("SetPartition", "refines")] = id(ncsym.partitions.SetPartition.refines)
    return state


def _main_stdout(argv, stdin):
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = ncsym.cli.main(argv)
    finally:
        sys.stdin = old_stdin
    assert code == 0
    return out.getvalue()


def test_in_process_trace_keeps_stdout_and_removes_wrappers():
    stdin = corpus.graph_text(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    argv = ["classify", "--graph", "-", "--json"]
    plain = _main_stdout(argv, stdin)
    # the traced call must reach a route, not the result cached by the first
    ncsym.chromatic.clear_caches()
    ncsym.elements.clear_caches()
    before = _snapshot()
    tracer = Tracer(request_id=3)
    tracer.install()
    try:
        assert _snapshot() != before
        traced = _main_stdout(argv, stdin)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert _snapshot() == before
    names = {span[0] for span in tracer.to_json()["spans"]}
    assert {"cli.main", "graphs.parse", "chromatic.classify", "chromatic.yg",
            "chromatic.route_subset", "elements.convert"} <= names
    assert all(span[4] == 3 for span in tracer.to_json()["spans"])
    assert tracer.counters["partitions.enum_items"] > 0


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_traced_process_stdout_matches_untraced(tmp_path):
    requests = [r for r in corpus.cli_requests(4) if r.argv[0] in ("expand", "convert")][:3]
    requests.append(corpus.SETUP_REQUEST)
    for index, request in enumerate(requests):
        plain = subprocess.run([sys.executable, "-m", "ncsym.cli", *request.argv],
                               input=request.stdin.encode(), env=_env(), cwd=ROOT,
                               capture_output=True, timeout=120, check=True)
        spans = tmp_path / f"spans-{index}.json"
        traced = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(spans),
                                 str(index), "--", *request.argv],
                                input=request.stdin.encode(), env=_env(), cwd=ROOT,
                                capture_output=True, timeout=120, check=True)
        assert traced.stdout == plain.stdout
        data = json.loads(spans.read_text())
        assert data["import_s"] > 0
        assert any(span[0] == "cli.main" for span in data["spans"])


def test_dense_worker_traced_digests_match_untraced(tmp_path):
    graphs = [g for g in corpus.dense_graphs(4) if g.edge_count <= 14][:3]
    job = tmp_path / "in.json"
    job.write_text(json.dumps({"graphs": [g.to_json() for g in graphs], "timeout_s": 60}))
    digests = []
    for flags in ([], ["--spans", str(tmp_path / "spans.json")], ["--crosscheck"]):
        out = tmp_path / "out.json"
        subprocess.run([sys.executable, str(BENCH / "dense_worker.py"), str(job), str(out),
                        *flags], env=_env(), cwd=ROOT, check=True, timeout=120)
        records = json.loads(out.read_text())["records"]
        assert all(r["ok"] for r in records)
        digests.append([r["digest"] for r in records])
    assert digests[0] == digests[1] == digests[2]
    reference = json.loads((BENCH / "reference.json").read_text())["dense-yg"]
    assert digests[0] == [reference[g.key] for g in graphs]
