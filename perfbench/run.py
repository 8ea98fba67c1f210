"""ncsym benchmark: three closed-loop workloads with one client each.

Run from the root of a checkout that holds ``src/ncsym``:

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --record        # rebuild reference.json

With ``--trace 0`` the run repeats passes over the workload's corpus for the
given seconds and reports the end-to-end metrics, each latency rescaled to a
fixed machine speed (see ``calibration.py`` and ``end_to_end``).  With ``--trace 1`` it runs one untimed-by-
wrapper pass and one traced replay of the same requests and reports the
per-layer metrics.  Every output is checked against the reference digests
recorded in ``reference.json``; the last line of stdout is one JSON object.
README.md in this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import calibration
import corpus
import metrics

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

SETUP_BATCH = 3
RUN_DEADLINE_S = 165.0
CLI_TIMEOUT_S = 60.0
VERIFY_TIMEOUT_S = 90.0
DENSE_GRAPH_TIMEOUT_S = 60.0

# End-to-end metrics in the order BENCHMARK.json lists them.
END_TO_END = ("setup_s", "wall_s", "req_p50_s", "req_p90_s", "peak_rss_mb")

# Per-layer metrics printed on the last line under --trace 1: those that can
# be non-zero on every workload.  The full set goes to the lines above it
# and to the results file.
PER_LAYER = (
    "cli.import_s", "graphs.lattice_s", "graphs.lattice_calls",
    "graphs.lattice_elements", "partitions.enum_items", "partitions.enum_s",
    "partitions.refines_calls", "partitions.refines_s", "partitions.mobius_calls",
    "chromatic.yg_s", "chromatic.yg_calls", "chromatic.yg_terms",
    "chromatic.route_subset_calls", "chromatic.route_mobius_calls",
    "chromatic.route_delcon_calls", "chromatic.route_definition_calls",
    "chromatic.auto_hit_frac", "chromatic.rss_growth_mb",
    "elements.convert_calls", "elements.convert_terms_in",
    "elements.convert_terms_out", "elements.rss_growth_mb",
    "verification.checks", "trace.overhead_frac",
)

LIMITS = (
    "no page-cache dropping",
    "no CPU pinning",
    "memory is ru_maxrss from wait4/getrusage only",
    "shared 2-CPU machine: load from other tenants is not controlled",
)


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# processes


@dataclass
class ProcResult:
    code: Optional[int]
    stdout: bytes
    stderr: bytes
    elapsed_s: float
    maxrss_mb: float
    timed_out: bool
    loop_s: float


class Runner:
    """Starts request processes in the checkout and reaps them with wait4."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("NCSYM_MAX_N", None)
        # installed packages run from bytecode caches; the first setup run
        # writes them into src/, so no request pays for compiling ncsym
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
        self.env = env
        self.last_loop_s: Optional[float] = None

    def loop_s(self) -> float:
        """Time the calibration loop and keep the time for the next request."""
        self.last_loop_s = calibration.loop_s()
        return self.last_loop_s

    def remaining(self) -> float:
        return self.deadline - perf_counter()

    def run(self, argv: list[str], stdin: bytes, timeout_s: float) -> ProcResult:
        timeout_s = min(timeout_s, self.remaining())
        if timeout_s <= 0:
            return ProcResult(None, b"", b"run deadline reached", 0.0, 0.0, True,
                              calibration.REFERENCE_S)
        loop_before = self.last_loop_s or self.loop_s()
        stdin_path = self.work / "stdin"
        stdin_path.write_bytes(stdin)
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        expired = threading.Event()
        with open(stdin_path, "rb") as fin, open(out_path, "wb") as fout, \
                open(err_path, "wb") as ferr:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr,
                                    cwd=self.root, env=self.env)

            def expire() -> None:
                expired.set()
                proc.kill()

            timer = threading.Timer(timeout_s, expire)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        # the machine's speed around the request: the loop just before it
        # and just after it, the latter shared with the next request
        loop_s = (loop_before + self.loop_s()) / 2
        return ProcResult(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                          elapsed, usage.ru_maxrss / 1024.0, expired.is_set(), loop_s)


def _process_failure(result: ProcResult) -> Optional[str]:
    if result.timed_out:
        return "timeout"
    if b"MemoryError" in result.stderr:
        return "MemoryError"
    if b"Traceback" in result.stderr:
        return "traceback: " + result.stderr.decode(errors="replace")[-300:]
    if result.code != 0:
        return f"exit code {result.code}"
    return None


# ---------------------------------------------------------------------------
# outcomes and passes


@dataclass
class Outcome:
    key: str
    latency_s: float
    maxrss_mb: float
    digest: Optional[str]
    loop_s: float = calibration.REFERENCE_S
    attempted: int = 1
    failed: int = 0
    reason: Optional[str] = None

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class Pass:
    wall_s: float
    outcomes: list[Outcome]
    traces: list[dict] = field(default_factory=list)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Issues one pass over a corpus and judges every output."""

    name = ""

    def __init__(self, runner: Runner, reference: dict, seed: int):
        self.runner = runner
        self.reference = reference.get(self.name, {})
        self.seed = seed

    def run_pass(self, traced: bool) -> Pass:
        raise NotImplementedError

    def extra_checks(self) -> list[Outcome]:
        return []


class CliWorkload(Workload):
    """One fresh `python -m ncsym.cli` process per request."""

    name = "cli-oneshot"
    timeout_s = CLI_TIMEOUT_S

    def requests(self) -> list[corpus.Request]:
        return corpus.cli_requests(self.seed)

    def judge(self, request: corpus.Request, result: ProcResult) -> Outcome:
        digest = _digest(result.stdout)
        outcome = Outcome(request.key, result.elapsed_s, result.maxrss_mb, digest,
                          result.loop_s)
        reason = _process_failure(result)
        if reason is None and digest != self.reference.get(request.key):
            reason = "stdout differs from the reference"
        if reason is not None:
            outcome.failed, outcome.reason = 1, reason
        return outcome

    def run_pass(self, traced: bool) -> Pass:
        python = sys.executable
        outcomes, traces = [], []
        start = perf_counter()
        for index, request in enumerate(self.requests()):
            if traced:
                spans = self.runner.work / f"spans-{index}.json"
                spans.unlink(missing_ok=True)
                argv = [python, str(HERE / "traced_cli.py"), str(spans), str(index),
                        "--", *request.argv]
            else:
                argv = [python, "-m", "ncsym.cli", *request.argv]
            result = self.runner.run(argv, request.stdin.encode(), self.timeout_s)
            outcomes.append(self.judge(request, result))
            if traced and spans.exists():
                traces.append(json.loads(spans.read_text()))
        return Pass(perf_counter() - start, outcomes, traces)


class VerifyWorkload(CliWorkload):
    """One `ncsym verify --json` process per suite; each check is an operation."""

    name = "verify-sweep"
    timeout_s = VERIFY_TIMEOUT_S

    def requests(self) -> list[corpus.Request]:
        return corpus.verify_requests(self.seed)

    def judge(self, request: corpus.Request, result: ProcResult) -> Outcome:
        outcome = super().judge(request, result)
        checks = self.reference.get("checks", {}).get(request.key, 1)
        try:
            report = json.loads(result.stdout)
            checks, failed = report["total"], report["failed"]
        except (ValueError, KeyError, TypeError):
            failed = checks
        outcome.attempted = checks
        if failed:
            outcome.reason = outcome.reason or f"{failed} checks failed"
        if outcome.reason:
            outcome.failed = max(1, failed)
        return outcome


class DenseWorkload(Workload):
    """One library process per pass over distinct dense graphs."""

    name = "dense-yg"

    def _run_worker(self, graphs: list[corpus.GraphItem], flags: list[str],
                    tag: str) -> tuple[ProcResult, list[dict]]:
        job = self.runner.work / f"dense-{tag}-in.json"
        out = self.runner.work / f"dense-{tag}-out.json"
        job.write_text(json.dumps({"graphs": [g.to_json() for g in graphs],
                                   "timeout_s": DENSE_GRAPH_TIMEOUT_S}))
        out.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "dense_worker.py"), str(job), str(out), *flags]
        result = self.runner.run(argv, b"", self.runner.remaining())
        records = []
        if _process_failure(result) is None and out.exists():
            records = json.loads(out.read_text())["records"]
        return result, records

    def _outcomes(self, graphs, result: ProcResult, records: list[dict]) -> list[Outcome]:
        if len(records) != len(graphs):
            reason = _process_failure(result) or "worker wrote no results"
            return [Outcome(g.key, result.elapsed_s, result.maxrss_mb, None,
                            result.loop_s, failed=1, reason=reason) for g in graphs]
        outcomes = []
        for graph, record in zip(graphs, records):
            outcome = Outcome(graph.key, record["latency_s"], result.maxrss_mb,
                              record["digest"], record["loop_s"], reason=record["reason"])
            if record["ok"] and record["digest"] != self.reference.get(graph.key):
                outcome.reason = "output differs from the reference"
            outcome.failed = 1 if outcome.reason else 0
            outcomes.append(outcome)
        return outcomes

    def run_pass(self, traced: bool) -> Pass:
        graphs = corpus.dense_graphs(self.seed)
        spans = self.runner.work / "dense-spans.json"
        spans.unlink(missing_ok=True)
        flags = ["--spans", str(spans)] if traced else []
        result, records = self._run_worker(graphs, flags, "pass")
        traces = [json.loads(spans.read_text())] if traced and spans.exists() else []
        return Pass(result.elapsed_s, self._outcomes(graphs, result, records), traces)

    def extra_checks(self) -> list[Outcome]:
        """Untimed: the default route must equal deletion-contraction."""
        graphs = corpus.crosscheck_graphs(self.seed, corpus.dense_graphs(self.seed))
        result, records = self._run_worker(graphs, ["--crosscheck"], "crosscheck")
        return self._outcomes(graphs, result, records)


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    "cli-oneshot": CliWorkload,
    "dense-yg": DenseWorkload,
    "verify-sweep": VerifyWorkload,
}


# ---------------------------------------------------------------------------
# measurement


# Every timed run makes at least this many passes, so each request's
# latency is a median of three or more.
MIN_PASSES = 3


def measure_setup(runner: Runner, reference: dict) -> list[Outcome]:
    """One batch of timed starts: interpreter, import and `ncsym info` on a
    1-vertex graph.  A run takes a batch before its passes and one after
    each, so the starts are spread across the whole run."""
    request = corpus.SETUP_REQUEST
    argv = [sys.executable, "-m", "ncsym.cli", *request.argv]
    outcomes = []
    for _ in range(SETUP_BATCH):
        result = runner.run(argv, request.stdin.encode(), CLI_TIMEOUT_S)
        digest = _digest(result.stdout)
        reason = _process_failure(result)
        if reason is None and digest != reference.get("setup", {}).get(request.key):
            reason = "stdout differs from the reference"
        outcomes.append(Outcome(request.key, result.elapsed_s, result.maxrss_mb, digest,
                                result.loop_s, failed=1 if reason else 0, reason=reason))
    return outcomes


def rescaled(outcome: Outcome) -> float:
    return calibration.rescale(outcome.latency_s, outcome.loop_s)


def typical(passes: list[Pass], scale=rescaled) -> list[float]:
    """Each request's median latency over the run's passes.

    Every pass issues the same requests in the same order.  By default each
    latency is first rescaled to the reference machine speed by the
    calibration loop timed around it: other tenants of the shared machine
    slow it by up to a half for seconds or for a whole run, and the loop
    slows with it.
    """
    return [statistics.median(column) for column in
            zip(*([scale(o) for o in p.outcomes] for p in passes))]


def end_to_end(passes: list[Pass], setup: list[Outcome], scale=rescaled) -> dict:
    latencies = typical(passes, scale)
    q = metrics.tail_quantile(len(latencies))
    return {
        "values": {
            "setup_s": statistics.median(scale(o) for o in setup),
            "wall_s": sum(latencies),
            "req_p50_s": metrics.percentile(latencies, 0.5),
            "req_p90_s": metrics.percentile(latencies, q),
            "peak_rss_mb": max(o.maxrss_mb for p in passes for o in p.outcomes),
        },
        "samples": {"requests": len(latencies), "passes": len(passes),
                    "setup_runs": len(setup), "req_p90_quantile": q},
    }


def per_layer(untraced: Pass, traced: Pass) -> dict[str, float]:
    values = metrics.layer_metrics(traced.traces)
    for suite, _n in corpus.VERIFY_SIZES:
        values.setdefault(f"verification.{suite}_s", 0.0)
    values["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 runner: Runner, reference: dict) -> dict:
    workload = WORKLOAD_CLASSES[name](runner, reference, seed)
    setup = corpus.SETUP_REQUEST
    # the first start writes the bytecode caches under src/
    runner.run([sys.executable, "-m", "ncsym.cli", *setup.argv], setup.stdin.encode(),
               CLI_TIMEOUT_S)
    setup: list[Outcome] = []

    def sample_setup() -> None:
        setup.extend(measure_setup(runner, reference))

    report: dict = {"workload": name, "seed": seed, "trace": int(trace)}
    if trace:
        untraced = workload.run_pass(traced=False)
        traced = workload.run_pass(traced=True)
        for plain, replay in zip(untraced.outcomes, traced.outcomes):
            if plain.digest != replay.digest and not replay.failed:
                replay.failed, replay.reason = 1, "traced stdout differs from untraced"
        passes = [untraced, traced]
        report["metrics"] = per_layer(untraced, traced)
        report["traces"] = traced.traces
    else:
        passes = []
        sample_setup()
        start = perf_counter()
        # a pass starts only if it should end within the run's seconds
        while len(passes) < MIN_PASSES or (
                perf_counter() - start + passes[-1].wall_s <= seconds
                and runner.remaining() > 2 * passes[-1].wall_s):
            passes.append(workload.run_pass(traced=False))
            sample_setup()
        summary = end_to_end(passes, setup)
        report["metrics"] = summary["values"]
        report["samples"] = summary["samples"]
        report["unscaled_metrics"] = end_to_end(passes, setup,
                                                lambda o: o.latency_s)["values"]
        report["calibration_loop_s"] = {
            "reference": calibration.REFERENCE_S,
            "median": statistics.median(o.loop_s for o in setup),
            "min": min(o.loop_s for o in setup), "max": max(o.loop_s for o in setup)}
    checks = setup + workload.extra_checks()
    outcomes = [o for p in passes for o in p.outcomes] + checks
    report["attempted"] = sum(o.attempted for o in outcomes)
    report["failed"] = sum(o.failed for o in outcomes)
    report["failed_frac"] = report["failed"] / report["attempted"]
    report["failures"] = [o.to_json() for o in outcomes if o.failed]
    report["pass_walls_s"] = [p.wall_s for p in passes]
    report["requests"] = [[o.to_json() for o in p.outcomes] for p in passes]
    return report


# ---------------------------------------------------------------------------
# reference digests


def record_reference(runner: Runner) -> dict:
    """Run every request any seed can produce, untimed, and keep its digest."""
    reference: dict = {"setup": {}, "cli-oneshot": {}, "verify-sweep": {"checks": {}},
                       "dense-yg": {}}
    python = sys.executable
    setup = corpus.SETUP_REQUEST
    jobs = [("setup", setup)] + [("cli-oneshot", r) for r in corpus.cli_pool()] \
        + [("verify-sweep", r) for r in corpus.verify_pool()]
    for name, request in jobs:
        result = runner.run([python, "-m", "ncsym.cli", *request.argv],
                            request.stdin.encode(), 600.0)
        reason = _process_failure(result)
        if reason is not None:
            raise BenchError(f"{name} request {request.argv} failed: {reason}")
        reference[name][request.key] = _digest(result.stdout)
        if name == "verify-sweep":
            report = json.loads(result.stdout)
            if report["failed"]:
                raise BenchError(f"verify request {request.argv} reported failures")
            reference[name]["checks"][request.key] = report["total"]
    dense = DenseWorkload(runner, {}, 0)
    graphs = corpus.dense_pool()
    result, records = dense._run_worker(graphs, ["--crosscheck"], "record")
    if len(records) != len(graphs) or not all(r["ok"] for r in records):
        raise BenchError("dense-yg reference run failed")
    for graph, record in zip(graphs, records):
        reference["dense-yg"][graph.key] = record["digest"]
    return reference


# ---------------------------------------------------------------------------
# entry point


def _src_digest(src: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def machine_facts(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        found = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
        commit = found.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "src_commit": commit,
        "src_sha256": _src_digest(root / "src"),
        "limits": list(LIMITS),
    }


def check_checkout(root: Path, runner: Runner) -> None:
    """Refuse to measure an ncsym that is not this checkout's src/."""
    probe = runner.run([sys.executable, "-c", "import ncsym, sys; sys.stdout.write(ncsym.__file__)"],
                       b"", 60.0)
    location = Path(probe.stdout.decode(errors="replace") or "/nonexistent").resolve()
    if probe.code != 0 or (root / "src") not in location.parents:
        raise BenchError(f"ncsym does not import from {root / 'src'}")


def _print_report(report: dict, names) -> None:
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']}")
    for name in names:
        value = report["metrics"][name]
        print(f"{report['workload']} {name} = {value:.6g} {metrics.unit_of(name)}")
    print(f"{report['workload']} failed_frac = {report['failed_frac']:.6g} frac "
          f"({report['failed']} of {report['attempted']} operations)")
    if "samples" in report:
        s = report["samples"]
        print(f"{report['workload']} samples: {s['requests']} requests in "
              f"{s['passes']} passes, each its median over the passes at the "
              f"reference speed; req_p90_s is the q={s['req_p90_quantile']:.3f} "
              f"percentile, setup_s is the median of {s['setup_runs']} runs")
    for failure in report["failures"][:10]:
        print(f"{report['workload']} FAILED {failure['key']}: {failure['reason']}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rebuild reference.json from this checkout")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    out_dir = root / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    runner = Runner(root, work, perf_counter() + (1e9 if args.record else RUN_DEADLINE_S))
    try:
        if not (root / "src" / "ncsym").is_dir():
            raise BenchError(f"no src/ncsym under {root}; run from the root of an ncsym checkout")
        work.mkdir(parents=True, exist_ok=True)
        check_checkout(root, runner)
        if args.record:
            REFERENCE_FILE.write_text(json.dumps(record_reference(runner), indent=1,
                                                 sort_keys=True) + "\n")
            print(f"wrote {REFERENCE_FILE}")
            return 0
        reference = json.loads(REFERENCE_FILE.read_text())
        facts = machine_facts(root)
        names = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
        reports = []
        for name in names:
            # with --workload all, each workload gets a whole run's deadline
            runner.deadline = perf_counter() + RUN_DEADLINE_S
            reports.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        runner, reference))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    for report in reports:
        listed = sorted(report["metrics"]) if args.trace else wanted
        _print_report(report, listed)
        stem = f"{report['workload']}-seed{args.seed}-trace{args.trace}"
        traces = report.pop("traces", None)
        if traces is not None:
            (results / f"{stem}-spans.json").write_text(json.dumps(traces))
        report.update(machine=facts, held_out_seed=corpus.HELD_OUT_SEED,
                      seconds=args.seconds)
        (results / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    def pick(report: dict) -> dict:
        picked = {}
        for name in wanted:
            unit = metrics.unit_of(name)
            value = report["metrics"][name]
            picked[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
        return picked

    if len(reports) == 1:
        picked = pick(reports[0])
    else:
        picked = {f"{r['workload']}.{k}": v for r in reports for k, v in pick(r).items()}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": failed, "metrics": picked}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
