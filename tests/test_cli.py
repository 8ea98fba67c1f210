import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import ncsym
from ncsym import cli
from ncsym.chromatic_bases import MAX_MATRIX_CELLS
from ncsym.cli import main
from ncsym.elements import MAX_CONVERSION_PAIRS
from ncsym.errors import InvariantViolation
from ncsym.graphs import (
    MAX_VERTICES,
    LabeledGraph,
    all_labeled_graphs,
    format_graph,
)
from ncsym.verification import SUITES


def run_cli(*argv, stdin_text=None):
    """Invoke the CLI in-process, capturing stdout/stderr and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        import sys
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
        finally:
            sys.stdin = old
    else:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_cli_limited(*argv, memory_mb=1024, stdout=subprocess.PIPE):
    """Invoke the CLI in a child process whose address space is capped, so a
    request that would exhaust memory cannot take the test process with it.
    stdout may be an open file, for an output too large to hold as text."""
    limit = memory_mb << 20
    src = str(Path(ncsym.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "ncsym.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
        text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


class DigestSink:
    """A stdout that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.fixture(scope="module")
def schema():
    text = resources.files("ncsym").joinpath("schema.json").read_text()
    return json.loads(text)


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.graph"
    path.write_text("n 3\ne 1 2\ne 2 3\n")
    return str(path)


@pytest.fixture()
def k13_2_file(tmp_path):
    path = tmp_path / "k.graph"
    path.write_text("n 3\ne 1 3\n")
    return str(path)


class TestExpand:
    def test_path_in_x(self, p3_file):
        code, out, err = run_cli("expand", "--graph", p3_file, "--basis", "x")
        assert code == 0 and err == ""
        assert out.strip() == "x{1,2,3} + x{1,3/2}"

    def test_fractional_coefficients_in_h(self, p3_file):
        code, out, _ = run_cli("expand", "--graph", p3_file, "--basis", "h")
        assert code == 0
        assert out == ("1/2*h{1,2,3} - 3/2*h{1,2/3} - 1/2*h{1,3/2} "
                       "- 3/2*h{1/2,3} + 4*h{1/2/3}\n")

    def test_clique_union_in_e(self, k13_2_file):
        code, out, _ = run_cli("expand", "--graph", k13_2_file, "--basis", "e")
        assert code == 0
        assert out.strip() == "e{1,3/2}"

    def test_edgeless_in_p(self, tmp_path):
        path = tmp_path / "g"
        path.write_text("n 2\n")
        code, out, _ = run_cli("expand", "--graph", str(path), "--basis", "p")
        assert code == 0
        assert out.strip() == "p{1/2}"

    @pytest.mark.parametrize("method", ["subset", "mobius", "delcon",
                                        "definition", "auto"])
    def test_methods_agree_via_m(self, p3_file, method):
        code, out, _ = run_cli("expand", "--graph", p3_file, "--basis", "m",
                               "--method", method)
        assert code == 0
        assert out.strip() == "m{1,3/2} + m{1/2/3}"

    def test_default_route_into_m_matches_the_definition(self):
        graphs = [g for n in range(5) for g in all_labeled_graphs(n)]
        graphs.append(LabeledGraph(10, [(v, v + 1) for v in range(1, 10)]))
        for graph in graphs:
            text = format_graph(graph)
            for mode in ([], ["--json"]):
                argv = ["expand", "--graph", "-", "--basis", "m", *mode]
                default = run_cli(*argv, stdin_text=text)
                assert default[0] == 0
                assert default == run_cli(*argv, "--method", "definition", stdin_text=text)

    def test_json_mode_validates(self, p3_file, schema):
        code, out, _ = run_cli("expand", "--graph", p3_file, "--basis", "x",
                               "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["terms"][0]["partition"] == "1,2,3"

    def test_stdin_input(self):
        code, out, _ = run_cli("expand", "--graph", "-", "--basis", "p",
                               stdin_text="n 2\ne 1 2\n")
        assert code == 0
        assert out.strip() == "-p{1,2} + p{1/2}"

    def test_parse_error_exits_2(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("n 2\ne 1 5\n")
        code, out, err = run_cli("expand", "--graph", str(path), "--basis", "p")
        assert code == 2
        assert "line 2" in err

    def test_undecodable_input_exits_2(self, tmp_path):
        path = tmp_path / "bin"
        path.write_bytes(b"n 2\n\xff\xfe\n")
        code, out, err = run_cli("info", "--graph", str(path))
        assert code == 2 and out == ""
        assert "can't decode byte 0xff" in err

    def test_unknown_method_exits_2(self, p3_file):
        code, out, err = run_cli("expand", "--graph", p3_file, "--basis", "p",
                                 "--method", "fastest")
        assert code == 2 and out == ""
        assert "invalid choice: 'fastest'" in err

    def test_resource_limit_exits_3(self, tmp_path):
        lines = ["n 9"]
        lines += [f"e {u} {v}" for u in range(1, 10) for v in range(u + 1, 10)]
        path = tmp_path / "big"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli("expand", "--graph", str(path), "--basis", "p",
                                 "--method", "subset")
        assert code == 3
        assert "22" in err


class TestConvert:
    def test_p_to_x_example(self, tmp_path):
        payload = {"basis": "p", "degree": 3,
                   "terms": [{"partition": "1,3/2", "num": 1, "den": 1}]}
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli("convert", "--expr", str(path),
                               "--from", "p", "--to", "x")
        assert code == 0
        assert out.strip() == "x{1,3/2} + x{1/2/3}"

    def test_basis_mismatch_is_rejected(self, tmp_path):
        payload = {"basis": "m", "degree": 1,
                   "terms": [{"partition": "1", "num": 1, "den": 1}]}
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli("convert", "--expr", str(path),
                               "--from", "p", "--to", "x")
        assert code == 2 and "basis" in err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "expr.json"
        path.write_text("{broken")
        code, _, err = run_cli("convert", "--expr", str(path),
                               "--from", "p", "--to", "x")
        assert code == 2

    @pytest.mark.parametrize("payload", [
        {"basis": "p", "degree": 1, "terms": 5},
        {"basis": "p", "degree": 1,
         "terms": [{"partition": 5, "num": 1, "den": 1}]},
    ], ids=["terms-not-a-list", "partition-not-a-string"])
    def test_malformed_element_exits_2(self, tmp_path, payload):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli("convert", "--expr", str(path),
                                 "--from", "p", "--to", "m")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("field", ["degree", "num", "den"])
    def test_json_boolean_is_not_an_integer(self, tmp_path, field):
        if field == "degree":
            # false == 0, so an element with no terms would otherwise pass
            payload = {"basis": "p", "degree": False, "terms": []}
        else:
            payload = {"basis": "p", "degree": 1,
                       "terms": [{"partition": "1", "num": 1, "den": 1, field: True}]}
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli("convert", "--expr", str(path),
                                 "--from", "p", "--to", "m", "--json")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_huge_degree_is_refused_without_listing_it(self, tmp_path):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps({"basis": "p", "degree": 100000000, "terms": [
            {"partition": "1/100000000", "num": 1, "den": 1}]}))
        start = time.perf_counter()
        proc = run_cli_limited("convert", "--expr", str(path), "--from", "p", "--to", "m")
        assert time.perf_counter() - start < 10
        assert proc.returncode == 2
        assert proc.stderr == ("error: blocks do not cover the ground set; "
                               "smallest missing element 2\n")

    def test_wide_singleton_term_converts_in_little_memory(self, tmp_path):
        # every block is a singleton, so nothing is refined and no block needs
        # a mask; one full-width mask per singleton once peaked at 232 MB here
        text = "/".join(map(str, range(1, 40001)))
        path = tmp_path / "expr.json"
        path.write_text(json.dumps({"basis": "p", "degree": 40000, "terms": [
            {"partition": text, "num": 1, "den": 1}]}))
        proc = run_cli_limited("convert", "--expr", str(path), "--from", "p", "--to", "x",
                               memory_mb=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"x{{{text}}}\n"

    def test_round_trip_through_files(self, p3_file, tmp_path, schema):
        code, out, _ = run_cli("expand", "--graph", p3_file, "--basis", "x",
                               "--json")
        expr = tmp_path / "y.json"
        expr.write_text(out)
        code, out2, _ = run_cli("convert", "--expr", str(expr),
                                "--from", "x", "--to", "p", "--json")
        assert code == 0
        payload = json.loads(out2)
        jsonschema.validate(payload, schema)
        code, out3, _ = run_cli("expand", "--graph", p3_file, "--basis", "p",
                                "--json")
        assert json.loads(out3) == payload


@pytest.mark.skipif(not sys.get_int_max_str_digits(),
                    reason="this interpreter has no integer string limit")
class TestBigIntegers:
    """Exact coefficients longer than the interpreter's integer string limit
    are refused with an exit code, in both output modes."""

    @staticmethod
    def _element(tmp_path, terms):
        path = tmp_path / "big.json"
        entries = ", ".join(f'{{"partition": "{pi}", "num": {num}, "den": 1}}'
                            for pi, num in terms)
        path.write_text(f'{{"basis": "p", "degree": 2, "terms": [{entries}]}}')
        return str(path)

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_integer_over_the_parse_limit_exits_2(self, tmp_path, mode):
        limit = sys.get_int_max_str_digits()
        expr = self._element(tmp_path, [("1/2", "9" * (limit + 1))])
        start = time.perf_counter()
        code, out, err = run_cli("convert", "--expr", expr, "--from", "p", "--to", "m", *mode)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        # name the limit and the knob a CLI user has, not the interpreter's advice
        assert err == (f"error: invalid JSON input: an integer has more than {limit} digits, "
                       "the integer string limit of this Python (PYTHONINTMAXSTRDIGITS)\n")
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_sum_over_the_print_limit_exits_3(self, tmp_path, mode):
        # p{1/2} = m{1/2} + m{1,2}, so the m{1,2} coefficient is 2 * (10^L - 1)
        limit = sys.get_int_max_str_digits()
        expr = self._element(tmp_path, [("1/2", "9" * limit), ("1,2", "9" * limit)])
        start = time.perf_counter()
        code, out, err = run_cli("convert", "--expr", expr, "--from", "p", "--to", "m", *mode)
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err == (f"error: a coefficient has more than {limit} digits, the integer "
                       "string limit of this Python (PYTHONINTMAXSTRDIGITS)\n")

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_coefficient_at_the_print_limit_is_printed(self, tmp_path, mode):
        num = "9" * sys.get_int_max_str_digits()
        expr = self._element(tmp_path, [("1,2", num)])
        code, out, _ = run_cli("convert", "--expr", expr, "--from", "p", "--to", "m", *mode)
        assert code == 0 and num in out

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_limit_applies_to_each_coefficient_in_lowest_terms(self, tmp_path, mode):
        # over the common denominator 2 the m{1,2} count is 10^L, one digit
        # too long, but the coefficient itself, 5 * 10^(L-1), has L digits
        num = "5" + "0" * (sys.get_int_max_str_digits() - 1)
        path = tmp_path / "half.json"
        path.write_text('{"basis": "m", "degree": 2, "terms": ['
                        '{"partition": "1/2", "num": 1, "den": 2}, '
                        f'{{"partition": "1,2", "num": {num}, "den": 1}}]}}')
        code, out, _ = run_cli("convert", "--expr", str(path), "--from", "m", "--to", "m", *mode)
        assert code == 0 and num in out


    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_classify_coefficient_over_the_print_limit_exits_3(self, tmp_path, mode):
        # 310 disjoint 6-vertex paths: the top e coefficient is 1/120^310,
        # whose denominator has 645 digits
        path = tmp_path / "paths"
        path.write_text(format_graph(LabeledGraph(
            1860, [(6 * k + i, 6 * k + i + 1) for k in range(310) for i in range(1, 6)])))
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli("classify", "--graph", str(path), *mode)
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 3 and out == ""
        assert err == ("error: a coefficient has more than 640 digits, the integer "
                       "string limit of this Python (PYTHONINTMAXSTRDIGITS)\n")

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_coefficient_of_exactly_ten_to_the_limit_exits_3(self, tmp_path, mode):
        # p{1/2} + p{1,2} = m{1/2} + 2 m{1,2}: two 640-digit counts of
        # 5 * 10^639 sum to 10^640, the least count with 641 digits
        half = "5" + "0" * 639
        expr = self._element(tmp_path, [("1/2", half), ("1,2", half)])
        src = str(Path(ncsym.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "ncsym.cli", "convert", "--expr", expr, "--from", "p",
             "--to", "m", *mode], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == ("error: a coefficient has more than 640 digits, the integer "
                               "string limit of this Python (PYTHONINTMAXSTRDIGITS)\n")


class TestClassify:
    def test_path(self, p3_file, schema):
        code, out, _ = run_cli("classify", "--graph", p3_file, "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        ep = payload["e_positivity"]
        assert ep["verdict"] == "mixed"
        assert ep["negative_witness"] == {
            "partition": "1,3/2", "num": -1, "den": 2}
        assert payload["x_sign"]["sign"] == 1

    def test_complete_graph(self, tmp_path, schema):
        path = tmp_path / "k4"
        path.write_text("n 4\n" + "".join(
            f"e {u} {v}\n" for u in range(1, 5) for v in range(u + 1, 5)))
        code, out, _ = run_cli("classify", "--graph", str(path), "--json")
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["e_positivity"]["verdict"] == "e_positive"
        assert payload["x_sign"]["sign"] == -1
        assert payload["x_sign"]["z_is_x_positive"] is True

    def test_edgeless(self, tmp_path):
        path = tmp_path / "e3"
        path.write_text("n 3\n")
        code, out, _ = run_cli("classify", "--graph", str(path))
        assert code == 0
        assert "e_positive" in out
        assert "= 1 with n=3, k=3" in out

    def test_twelve_vertex_path_answers_from_closed_forms(self, tmp_path):
        path = tmp_path / "p12"
        path.write_text("n 12\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 12)))
        code, out, _ = run_cli("classify", "--graph", str(path))
        assert code == 0
        assert out == (
            "verdict: mixed\n"
            "clique union: False\n"
            "top e coefficient: 1/39916800\n"
            "negative witness: [1,3/2,4,5,6,7,8,9,10,11,12] = -1/39916800\n"
            "x sign: (-1)^(n-k) = -1 with n=12, k=1; "
            "signed expansion x-positive: True\n")


    def test_nine_clique_reads_the_top_coefficient_directly(self, tmp_path):
        path = tmp_path / "k9"
        path.write_text("n 9\n" + "".join(
            f"e {u} {v}\n" for u in range(1, 10) for v in range(u + 1, 10)))
        start = time.perf_counter()
        code, out, _ = run_cli("classify", "--graph", str(path))
        assert time.perf_counter() - start < 10
        assert code == 0
        assert out == (
            "verdict: e_positive\n"
            "clique union: True\n"
            "top e coefficient: 1\n"
            "x sign: (-1)^(n-k) = 1 with n=9, k=1; "
            "signed expansion x-positive: True\n")
        code, out, _ = run_cli("classify", "--graph", str(path), "--json")
        top = json.loads(out)["e_positivity"]["top_coefficient"]
        assert top == {"num": 1, "den": 1}

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_many_equal_components_cost_one(self, tmp_path, mode):
        # 833 disjoint 12-vertex paths: the top coefficient 1/11!^833 is too
        # long to print, and one component's closed form serves them all
        path = tmp_path / "paths"
        path.write_text(format_graph(LabeledGraph(
            9996, [(12 * k + i, 12 * k + i + 1) for k in range(833) for i in range(1, 12)])))
        start = time.perf_counter()
        code, out, err = run_cli("classify", "--graph", str(path), *mode)
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert "coefficient has more than" in err

    def test_component_over_the_ground_set_cap_is_refused(self, tmp_path):
        # a path has a closed form, but the per-component cap still holds
        path = tmp_path / "p13"
        path.write_text("n 13\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 13)))
        code, out, err = run_cli("classify", "--graph", str(path))
        assert code == 3 and out == ""
        assert err == "error: connected-subset kernel limited to n <= 12 (NCSYM_MAX_N), got 13\n"


class TestSizeCap:
    def test_long_path_is_refused_promptly(self, tmp_path):
        path = tmp_path / "p40"
        path.write_text("n 40\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 40)))
        start = time.perf_counter()
        code, out, err = run_cli("expand", "--graph", str(path), "--basis", "p")
        assert time.perf_counter() - start < 5
        assert code == 3 and out == ""
        assert "NCSYM_MAX_N" in err

    def test_explicit_oracle_routes_run_beyond_the_cap(self, tmp_path, monkeypatch):
        path = tmp_path / "p4"
        path.write_text("n 4\ne 1 2\ne 2 3\ne 3 4\n")
        _, expected, _ = run_cli("expand", "--graph", str(path), "--basis", "p")
        monkeypatch.setenv("NCSYM_MAX_N", "3")
        code, _, err = run_cli("expand", "--graph", str(path), "--basis", "p")
        assert code == 3 and "NCSYM_MAX_N" in err
        for method in ("subset", "delcon"):
            code, out, _ = run_cli("expand", "--graph", str(path), "--basis", "p",
                                   "--method", method)
            assert code == 0 and out == expected

    @pytest.mark.parametrize("suite", SUITES)
    def test_every_suite_refuses_above_the_cap(self, suite, monkeypatch):
        monkeypatch.setenv("NCSYM_MAX_N", "3")
        code, out, err = run_cli("verify", "--suite", suite, "--n", "4", "--seed", "1")
        assert code == 3 and out == ""
        assert "NCSYM_MAX_N" in err

    def test_tree_suite_refuses_before_sampling(self):
        # in a child under a memory limit, so trees sampled by mistake cannot
        # take the test process with them
        start = time.perf_counter()
        proc = run_cli_limited("verify", "--suite", "trees", "--n", "1000000", "--seed", "1")
        assert time.perf_counter() - start < 1
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: tree corpus limited to n <= ")
        assert "NCSYM_MAX_N" in proc.stderr

    def test_roundtrip_above_the_default_cap_exits_3(self):
        code, _, err = run_cli("verify", "--suite", "roundtrip", "--n", "13")
        assert code == 3
        assert err == ("error: partition enumeration limited to n <= 12 "
                       "(NCSYM_MAX_N), got 13\n")


class TestConversionCap:
    @staticmethod
    def clique(tmp_path, n):
        path = tmp_path / f"k{n}"
        path.write_text(f"n {n}\n" + "".join(
            f"e {u} {v}\n" for u in range(1, n + 1) for v in range(u + 1, n + 1)))
        return str(path)

    @pytest.mark.parametrize("basis", ["e", "h", "x"])
    def test_k12_is_refused_before_y_g_is_built(self, tmp_path, basis):
        path = self.clique(tmp_path, 12)
        start = time.perf_counter()
        code, out, err = run_cli("expand", "--graph", path, "--basis", basis)
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert "2276423485" in err and str(MAX_CONVERSION_PAIRS) in err

    def test_k12_into_m_reads_the_coloring_table(self, tmp_path):
        path = self.clique(tmp_path, 12)
        start = time.perf_counter()
        code, out, _ = run_cli("expand", "--graph", path, "--basis", "m")
        assert time.perf_counter() - start < 2
        assert code == 0 and out == "m{1/2/3/4/5/6/7/8/9/10/11/12}\n"

    def test_edgeless_twelve_into_m_is_refused(self, tmp_path):
        path = tmp_path / "e12"
        path.write_text("n 12\n")
        code, out, err = run_cli("expand", "--graph", str(path), "--basis", "m")
        assert code == 3 and out == ""
        assert "4213597" in err and str(MAX_CONVERSION_PAIRS) in err

    # stdout digests recorded with the per-partition column conversion
    @pytest.mark.parametrize("basis,sha", [
        ("x", "e38a09989fc22676b75316cdea8c32d44014d66d538961fa85a831b736652507"),
        ("e", "84ef9fa7f7d21a4d9a0df20f72ab1ca04cf4805ed06223a7d2b1ef0c4ae59ec8"),
    ], ids=["x", "e"])
    def test_k9_runs_under_the_cap(self, tmp_path, basis, sha):
        path = self.clique(tmp_path, 9)
        start = time.perf_counter()
        code, out, _ = run_cli("expand", "--graph", path, "--basis", basis)
        assert time.perf_counter() - start < 10
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    def test_convert_refuses_an_oversized_element(self, tmp_path):
        path = tmp_path / "p12.json"
        path.write_text(json.dumps({"basis": "p", "degree": 12, "terms": [
            {"partition": ",".join(map(str, range(1, 13))), "num": 1, "den": 1}]}))
        code, out, err = run_cli("convert", "--expr", str(path), "--from", "p", "--to", "h")
        assert code == 3 and out == ""
        assert "4213597" in err and str(MAX_CONVERSION_PAIRS) in err


class TestOracleRouteLimits:
    """--method definition refuses up front instead of running for minutes
    past NCSYM_MAX_N's reach; --method mobius costs what the kernel does and
    refuses only beyond NCSYM_MAX_N."""

    def test_mobius_on_k9_prints_the_kernels_bytes(self, tmp_path):
        # K_9 has B_9 = 21,147 connected partitions
        path = TestConversionCap.clique(tmp_path, 9)
        _, expected, _ = run_cli("expand", "--graph", path, "--basis", "p")
        start = time.perf_counter()
        code, out, _ = run_cli("expand", "--graph", path, "--basis", "p",
                               "--method", "mobius")
        assert time.perf_counter() - start < 2
        assert code == 0 and out == expected
        assert out.count("p{") == 21147

    def test_definition_on_edgeless_twelve_is_refused(self, tmp_path):
        path = tmp_path / "e12"
        path.write_text("n 12\n")
        start = time.perf_counter()
        code, out, err = run_cli("expand", "--graph", str(path), "--basis", "m",
                                 "--method", "definition")
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert "4213597" in err and str(MAX_CONVERSION_PAIRS) in err

    @pytest.mark.parametrize("n,edges", [
        (8, [(u, v) for u in range(1, 9) for v in range(u + 1, 9)]),
        (12, [(i, i + 1) for i in range(1, 12)]),
    ], ids=["k8", "path12"])
    def test_mobius_prints_the_kernels_bytes(self, tmp_path, n, edges):
        path = tmp_path / "g"
        path.write_text(format_graph(LabeledGraph(n, edges)))
        _, expected, _ = run_cli("expand", "--graph", str(path), "--basis", "p")
        code, out, _ = run_cli("expand", "--graph", str(path), "--basis", "p",
                               "--method", "mobius")
        assert code == 0 and out == expected


class TestOutOfResources:
    def test_deep_recursion_exits_3(self, tmp_path):
        path = tmp_path / "k45"
        path.write_text("n 45\n" + "".join(
            f"e {u} {v}\n" for u in range(1, 46) for v in range(u + 1, 46)))
        code, out, err = run_cli("expand", "--graph", str(path), "--basis", "p",
                                 "--method", "delcon")
        assert code == 3 and out == ""
        assert err.startswith("error: maximum recursion depth exceeded")

    def test_vertex_count_too_large_to_index_exits_3(self):
        # the header is refused before anything is allocated, so this runs
        # safely in-process
        code, out, err = run_cli("info", "--graph", "-",
                                 stdin_text="n 100000000000000000000\n")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_out_of_memory_exits_3(self, tmp_path, monkeypatch):
        # a header this large no longer reaches an allocation at all
        path = tmp_path / "huge"
        path.write_text("n 300000000\n")
        proc = run_cli_limited("info", "--graph", str(path))
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == (f"error: line 1: vertex count 300000000 exceeds "
                               f"the cap of {MAX_VERTICES}\n")

        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(cli, "parse_graph", exhausted)
        code, out, err = run_cli("info", "--graph", "-", stdin_text="n 3\n")
        assert code == 3 and out == ""
        assert err == "error: MemoryError\n"


class TestVertexCap:
    @pytest.mark.parametrize("command", ["info", "classify"])
    def test_header_over_the_cap_is_refused_up_front(self, command):
        start = time.perf_counter()
        code, out, err = run_cli(command, "--graph", "-",
                                 stdin_text=f"n {MAX_VERTICES + 1}\n")
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert str(MAX_VERTICES) in err and "Traceback" not in err

    def test_header_at_the_cap_is_accepted(self):
        code, out, _ = run_cli("info", "--graph", "-", stdin_text=f"n {MAX_VERTICES}\n")
        assert code == 0
        assert out.startswith(f"vertices: {MAX_VERTICES}\n")


class TestZeroElement:
    @pytest.mark.parametrize("target", ["m", "e", "h", "x"])
    def test_zero_of_huge_degree_converts_without_a_table(self, tmp_path, target):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"basis": "p", "degree": 10**8, "terms": []}))
        # under a memory limit first, so a table built by mistake cannot take
        # the test process with it
        proc = run_cli_limited("convert", "--expr", str(path), "--from", "p", "--to", target)
        assert proc.returncode == 0 and proc.stdout == "0\n"
        start = time.perf_counter()
        code, out, _ = run_cli("convert", "--expr", str(path), "--from", "p", "--to", target)
        assert time.perf_counter() - start < 1
        assert code == 0 and out == "0\n"

    def test_zero_of_huge_degree_converts_to_json_in_little_memory(self, tmp_path):
        # a zero element lists no term, so nothing is built per degree
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"basis": "p", "degree": 100000000, "terms": []}))
        proc = run_cli_limited("convert", "--expr", str(path), "--from", "p", "--to", "m",
                               "--json", memory_mb=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == json.dumps({"basis": "m", "degree": 100000000, "terms": []},
                                         indent=2, sort_keys=True) + "\n"


def test_text_mode_never_builds_the_json_payload(p3_file, tmp_path, monkeypatch):
    expected = run_cli("expand", "--graph", p3_file, "--basis", "x")
    expr = tmp_path / "y.json"
    expr.write_text(run_cli("expand", "--graph", p3_file, "--basis", "p", "--json")[1])
    converted = run_cli("convert", "--expr", str(expr), "--from", "p", "--to", "x")

    def refuse(value):
        raise AssertionError("text mode ran the JSON writer")

    monkeypatch.setattr(cli, "iter_json", refuse)
    assert run_cli("expand", "--graph", p3_file, "--basis", "x") == expected
    assert run_cli("convert", "--expr", str(expr), "--from", "p", "--to", "x") == converted
    assert expected == converted == (0, "x{1,2,3} + x{1,3/2}\n", "")


class TestVerify:
    def test_passing_suite(self, schema):
        code, out, _ = run_cli("verify", "--suite", "roundtrip", "--n", "4",
                               "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["total"] == 60 and payload["failed"] == 0

    def test_missing_seed_exits_2(self):
        code, _, err = run_cli("verify", "--suite", "agreement", "--n", "6")
        assert code == 2 and "seed" in err

    def test_unknown_suite_exits_2(self):
        code, _, err = run_cli("verify", "--suite", "nonsense", "--n", "3")
        assert code == 2

    def test_repeat_runs_are_byte_identical(self):
        first = run_cli("verify", "--suite", "relabeling", "--n", "4",
                        "--seed", "17", "--json")
        second = run_cli("verify", "--suite", "relabeling", "--n", "4",
                         "--seed", "17", "--json")
        assert first == second


class TestBasis:
    def test_clique_n3(self, schema):
        code, out, _ = run_cli("basis", "--n", "3", "--strategy", "clique",
                               "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert len(payload["order"]) == 5
        assert len(payload["generators"]) == 5
        # diagonal against e: element at the finest partition is p_{1/2/3}
        assert payload["matrix"][4][4] == {"num": 1, "den": 1}

    def test_text_mode_mentions_every_partition(self):
        code, out, _ = run_cli("basis", "--n", "2", "--strategy", "path")
        assert code == 0
        assert "1,2" in out and "1/2" in out

    def test_clique_n3_text(self):
        code, out, _ = run_cli("basis", "--n", "3", "--strategy", "clique")
        assert code == 0
        assert out == (
            "chromatic basis n=3 strategy=clique_per_block\n"
            "  1,2,3: n 3; e 1 2; e 1 3; e 2 3\n"
            "  1,2/3: n 3; e 1 2\n"
            "  1,3/2: n 3; e 1 3\n"
            "  1/2,3: n 3; e 2 3\n"
            "  1/2/3: n 3\n"
            "transition rows (basis element -> p coordinates):\n"
            "  1,2,3: 1,2,3:2 1,2/3:-1 1,3/2:-1 1/2,3:-1 1/2/3:1\n"
            "  1,2/3: 1,2/3:-1 1/2/3:1\n"
            "  1,3/2: 1,3/2:-1 1/2/3:1\n"
            "  1/2,3: 1/2,3:-1 1/2/3:1\n"
            "  1/2/3: 1/2/3:1\n")

    @pytest.mark.parametrize("strategy", ["path", "clique"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_text_rows_are_the_nonzero_cells_of_the_json_matrix(self, n, strategy):
        _, text, _ = run_cli("basis", "--n", str(n), "--strategy", strategy)
        _, out, _ = run_cli("basis", "--n", str(n), "--strategy", strategy, "--json")
        data = json.loads(out)
        lines = [f"chromatic basis n={n} strategy={data['strategy']}"]
        for entry in data["generators"]:
            graph_line = entry["graph"].replace("\n", "; ").strip("; ")
            lines.append(f"  {entry['partition']}: {graph_line}")
        lines.append("transition rows (basis element -> p coordinates):")
        for label, row in zip(data["order"], data["matrix"]):
            cells = [f"{header}:{Fraction(cell['num'], cell['den'])}"
                     for header, cell in zip(data["order"], row) if cell["num"]]
            lines.append(f"  {label}: " + " ".join(cells))
        assert text == "\n".join(lines) + "\n"

    def test_bad_n_exits_2(self):
        code, out, err = run_cli("basis", "--n", "-1", "--strategy", "path")
        assert code == 2 and out == ""
        assert err == "error: partition enumeration needs n >= 0, got -1\n"

    def test_n_past_the_ground_set_cap_exits_3(self):
        code, out, err = run_cli("basis", "--n", "13", "--strategy", "path")
        assert code == 3 and out == ""
        assert err == ("error: partition enumeration limited to n <= 12 "
                       "(NCSYM_MAX_N), got 13\n")

    def test_dense_matrix_over_the_cell_cap_is_refused_up_front(self):
        start = time.perf_counter()
        code, out, err = run_cli("basis", "--n", "8", "--strategy", "path", "--json")
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert "17139600" in err and str(MAX_MATRIX_CELLS) in err

    def test_invariant_violation_exits_1_without_traceback(self, monkeypatch):
        def broken(n, strategy):
            raise InvariantViolation("diagonal coefficient at 1,2 is 0")

        monkeypatch.setattr(cli, "build_basis", broken)
        code, out, err = run_cli("basis", "--n", "2", "--strategy", "path")
        assert code == 1 and out == ""
        assert err == "error: diagonal coefficient at 1,2 is 0\n"

    def test_invariant_violation_with_json_exits_1_with_empty_stdout(self, monkeypatch):
        def broken(n, strategy):
            raise InvariantViolation("diagonal coefficient at 1,2 is 0")

        monkeypatch.setattr(cli, "build_basis", broken)
        code, out, err = run_cli("basis", "--n", "2", "--strategy", "path", "--json")
        assert code == 1 and out == ""
        assert err == "error: diagonal coefficient at 1,2 is 0\n"

    def test_json_at_n6_is_written_in_under_5_mb(self):
        sink = DigestSink()
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                code = main(["basis", "--n", "6", "--strategy", "path", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # the "basis 6 path --json" pin of tests/test_golden.py
        assert sink.digest.hexdigest() == (
            "e96535a9d5d35ce4fd17e89ffdafe155b6c66487962e46b3873169f80c3e5b72")
        assert peak < 5 << 20

    @pytest.mark.parametrize("strategy,sha", [
        ("path", "7ec15c655f9d2f61f09963f8b7bc683f9a4f7e070de487277f4a02c4fbd5f969"),
        ("clique", "ab639fb16a25a5df49f30317c7008ba2e40b8acde9e5f897479c45ae2bce5d39"),
    ])
    def test_json_at_n7_runs_in_256_mb(self, tmp_path, strategy, sha):
        # about 40 MB of stdout each; recorded when the matrix was built whole
        path = tmp_path / "basis.json"
        with path.open("wb") as handle:
            result = run_cli_limited("basis", "--n", "7", "--strategy", strategy, "--json",
                                     memory_mb=256, stdout=handle)
        assert result.returncode == 0, result.stderr
        with path.open("rb") as handle:
            assert hashlib.file_digest(handle, "sha256").hexdigest() == sha


class TestInfo:
    def test_clique_union_report(self, tmp_path, schema):
        path = tmp_path / "kpi"
        path.write_text(
            "n 8\ne 1 3\ne 1 4\ne 3 4\ne 2 5\ne 7 8\n")
        code, out, _ = run_cli("info", "--graph", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["components"] == "1,3,4/2,5/6/7,8"
        assert payload["is_clique_union"] is True
        assert payload["is_tree"] is False

    def test_text_mode(self, p3_file):
        code, out, _ = run_cli("info", "--graph", p3_file)
        assert code == 0
        assert "components: 1,2,3" in out
        assert "tree: True" in out


def test_identical_invocations_identical_bytes(p3_file):
    runs = [run_cli("expand", "--graph", p3_file, "--basis", "h", "--json")
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
