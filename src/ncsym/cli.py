"""Command-line front end.

Commands: expand, convert, classify, verify, basis, info.  Every command has
a human-readable text mode and a --json mode; '-' as a file argument reads
standard input.  Exit codes: 0 success, 1 verification failures, 2 parse or
domain errors, 3 resource limits (a configured cap or budget, a size too
large to index, or running out of memory or stack).  A failed internal
invariant is a bug; it exits 1 with its message, like a failed verification.

``expand --method`` names one route function of ``chromatic``; the default,
auto, runs the kernel, or the coloring definition when the target basis is m.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Iterable, Optional

from .chromatic import (
    chromatic_symmetric_function,
    classify_e_positivity,
    conversion_pairs,
    csf_by_deletion_contraction,
    csf_from_colorings,
    csf_from_contraction_lattice,
    csf_from_edge_subsets,
    x_sign_report,
)
from .chromatic_bases import (
    CLIQUE_PER_BLOCK,
    PATH_PER_BLOCK,
    build_basis,
    check_matrix_size,
    iter_basis_json,
    iter_basis_text,
)
from .elements import (
    BASES,
    check_conversion_pairs,
    coefficient_bounds,
    convert,
    element_from_json_dict,
    iter_json,
    iter_text,
)
from .errors import DomainError, GraphParseError, InvariantViolation, ResourceLimitError
from .graphs import (
    components_partition,
    is_clique_union,
    is_tree,
    parse_graph,
)
from .verification import SUITES, run_suite

# the auto path calls its routes by name, so a tracer that rebinds module
# attributes sees them; only the oracle flags go through this table
_ROUTE_FLAG = {"subset": csf_from_edge_subsets, "mobius": csf_from_contraction_lattice,
               "delcon": csf_by_deletion_contraction, "definition": csf_from_colorings}
METHODS = (*_ROUTE_FLAG, "auto")
_STRATEGY_FLAG = {"path": PATH_PER_BLOCK, "clique": CLIQUE_PER_BLOCK}


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(payload: dict, as_json: bool, render) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        render(payload)


def _check_digits(numbers: Iterable[int]) -> None:
    # refuse before writing a byte: str() of an int fails past this limit
    limit = sys.get_int_max_str_digits()
    if limit and max(map(abs, numbers), default=0) >= 10 ** limit:
        raise ResourceLimitError(
            f"a coefficient has more than {limit} digits, the integer "
            "string limit of this Python (PYTHONINTMAXSTRDIGITS)")


def _print_element(value, as_json: bool) -> None:
    _check_digits(coefficient_bounds(value))
    # one term at a time from the sorted codes: no payload or whole string
    sys.stdout.writelines(iter_json(value) if as_json else iter_text(value))
    sys.stdout.write("\n")


def _cmd_expand(args: argparse.Namespace) -> int:
    graph = parse_graph(_read_input(args.graph))
    if args.method != "auto":
        # subset and delcon may run beyond NCSYM_MAX_N, where convert still
        # refuses their results by the conversion-pair cap
        value = _ROUTE_FLAG[args.method](graph)
    elif args.basis == "m":
        # the coloring definition lists the m terms without going through p,
        # and counts them before it lists them
        value = csf_from_colorings(graph)
    else:
        # refuse before Y_G is built
        check_conversion_pairs(conversion_pairs(graph, args.basis), f"p -> {args.basis}")
        value = chromatic_symmetric_function(graph)
    _print_element(convert(value, args.basis), args.json)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    text = _read_input(args.expr)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON input: {exc}") from exc
    except ValueError as exc:
        # an integer literal longer than the interpreter will parse
        raise DomainError(
            f"invalid JSON input: an integer has more than {sys.get_int_max_str_digits()} "
            "digits, the integer string limit of this Python (PYTHONINTMAXSTRDIGITS)") from exc
    if not isinstance(data, dict):
        raise DomainError("expression file must hold a JSON object")
    f = element_from_json_dict(data)
    if f.basis != args.from_basis:
        raise DomainError(
            f"expression is in basis {f.basis!r}, not {args.from_basis!r}")
    value = convert(f, args.to_basis)
    _print_element(value, args.json)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    graph = parse_graph(_read_input(args.graph))
    epos = classify_e_positivity(graph)
    xsign = x_sign_report(graph)
    printed = [epos.top_coefficient]
    if epos.negative_witness is not None:
        printed.append(epos.negative_witness[1])
    _check_digits(part for coeff in printed for part in (coeff.numerator, coeff.denominator))
    payload = {"e_positivity": epos.to_json_dict(),
               "x_sign": xsign.to_json_dict()}

    def render(data: dict) -> None:
        ep = data["e_positivity"]
        print(f"verdict: {ep['verdict']}")
        print(f"clique union: {ep['is_clique_union']}")
        top = ep["top_coefficient"]
        print(f"top e coefficient: {Fraction(top['num'], top['den'])}")
        witness = ep["negative_witness"]
        if witness is not None:
            coeff = Fraction(witness["num"], witness["den"])
            print(f"negative witness: [{witness['partition']}] = {coeff}")
        xs = data["x_sign"]
        print(f"x sign: (-1)^(n-k) = {xs['sign']} with n={xs['n']}, "
              f"k={xs['component_count']}; signed expansion x-positive: "
              f"{xs['z_is_x_positive']}")

    _emit(payload, args.json, render)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    result = run_suite(args.suite, args.n, seed=args.seed)
    payload = result.to_json_dict()

    def render(data: dict) -> None:
        print(f"suite {data['suite']} at n={data['n']}: "
              f"{data['passed']}/{data['total']} passed")
        for failure in data["failures"]:
            print(f"FAIL {failure['instance']}")
            print(f"  expected: {failure['expected']}")
            print(f"  actual:   {failure['actual']}")

    _emit(payload, args.json, render)
    return 0 if result.ok else 1


def _cmd_basis(args: argparse.Namespace) -> int:
    if args.json:
        # the schema asks for the dense matrix, so only --json is capped
        check_matrix_size(args.n)
    basis = build_basis(args.n, _STRATEGY_FLAG[args.strategy])
    # one row at a time, once every refusal has had its chance
    sys.stdout.writelines(iter_basis_json(basis) if args.json else iter_basis_text(basis))
    sys.stdout.write("\n")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = parse_graph(_read_input(args.graph))
    comp = components_partition(graph)
    payload = {
        "n": graph.n,
        "edge_count": len(graph.edges),
        "edges": [[u, v] for u, v in graph.edges],
        "components": comp.to_text(),
        "component_count": len(comp.blocks),
        "is_tree": is_tree(graph),
        "is_clique_union": is_clique_union(graph),
    }

    def render(data: dict) -> None:
        print(f"vertices: {data['n']}")
        edge_text = ", ".join(f"({u},{v})" for u, v in data["edges"])
        print(f"edges ({data['edge_count']}): {edge_text if edge_text else 'none'}")
        print(f"components: {data['components']}")
        print(f"tree: {data['is_tree']}")
        print(f"clique union: {data['is_clique_union']}")

    _emit(payload, args.json, render)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncsym",
        description="Chromatic symmetric functions in noncommuting variables.")
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", help="expand a graph's chromatic function")
    expand.add_argument("--graph", required=True,
                        help="graph file, or - for standard input")
    expand.add_argument("--basis", required=True, choices=BASES)
    expand.add_argument("--method", default="auto", choices=METHODS)
    expand.add_argument("--json", action="store_true")
    expand.set_defaults(handler=_cmd_expand)

    conv = sub.add_parser("convert", help="rewrite a serialized element")
    conv.add_argument("--expr", required=True,
                      help="element JSON file, or - for standard input")
    conv.add_argument("--from", dest="from_basis", required=True, choices=BASES)
    conv.add_argument("--to", dest="to_basis", required=True, choices=BASES)
    conv.add_argument("--json", action="store_true")
    conv.set_defaults(handler=_cmd_convert)

    classify = sub.add_parser("classify", help="positivity and sign reports")
    classify.add_argument("--graph", required=True)
    classify.add_argument("--json", action="store_true")
    classify.set_defaults(handler=_cmd_classify)

    verify = sub.add_parser("verify", help="run a property suite")
    verify.add_argument("--suite", required=True, choices=SUITES)
    verify.add_argument("--n", required=True, type=int)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=_cmd_verify)

    basis = sub.add_parser("basis", help="build a chromatic basis")
    basis.add_argument("--n", required=True, type=int)
    basis.add_argument("--strategy", required=True, choices=sorted(_STRATEGY_FLAG))
    basis.add_argument("--json", action="store_true")
    basis.set_defaults(handler=_cmd_basis)

    info = sub.add_parser("info", help="describe a graph file")
    info.add_argument("--graph", required=True)
    info.add_argument("--json", action="store_true")
    info.set_defaults(handler=_cmd_info)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help and flag errors itself; keep the int contract
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (GraphParseError, DomainError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError, OverflowError, RecursionError) as exc:
        # a MemoryError usually carries no message; an OverflowError means a
        # size too large to index, refused before anything is allocated
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
