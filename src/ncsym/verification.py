"""Property suites behind the command-line verify command.

Each suite builds a deterministic list of instances, runs one check per
instance, and reports pass/fail counts plus a verbatim record of every
failure.  Graph corpora are exhaustive through n = 5 and switch to seeded
random sampling above that; every suite that samples randomly refuses to run
without an explicit seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .chromatic import (
    chromatic_symmetric_function,
    classify_e_positivity,
    csf_by_deletion_contraction,
    csf_from_colorings,
    csf_from_connected_subsets,
    csf_from_contraction_lattice,
    csf_from_edge_subsets,
    k_deletion_sum,
    tree_x_expansion,
    x_sign_report,
)
from .chromatic_bases import (
    CLIQUE_PER_BLOCK,
    PATH_PER_BLOCK,
    build_basis,
    combine,
    express,
)
from .elements import act, basis_term, convert, multiply
from .errors import DomainError, InvariantViolation
from .graphs import (
    LabeledGraph,
    all_labeled_graphs,
    all_labeled_trees,
    find_cycles,
    format_graph,
    is_clique_union,
    random_graph,
    relabel,
    slash_union,
)
from .partitions import Permutation, check_ground_set, enumerate_partitions

EXHAUSTIVE_N = 5
SAMPLE_COUNT = 50
EDGE_PROBABILITY = 0.5


@dataclass
class SuiteResult:
    suite: str
    n: int
    seed: Optional[int]
    total: int = 0
    passed: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "seed": self.seed,
            "total": self.total,
            "passed": self.passed,
            "failed": self.total - self.passed,
            "failures": self.failures,
        }


Check = Callable[[], Optional[dict]]


def _graph_text(graph: LabeledGraph) -> str:
    return format_graph(graph).replace("\n", "; ").strip("; ")


def _failure(instance: str, expected: str, actual: str) -> dict:
    return {"instance": instance, "expected": expected, "actual": actual}


def _graph_corpus(n: int, seed: Optional[int]) -> list[LabeledGraph]:
    if n <= EXHAUSTIVE_N:
        return list(all_labeled_graphs(n))
    rng = random.Random(seed)
    return [random_graph(n, EDGE_PROBABILITY, rng.getrandbits(32))
            for _ in range(SAMPLE_COUNT)]


def _require_seed(suite: str, seed: Optional[int]) -> None:
    if seed is None:
        raise DomainError(f"suite {suite!r} samples randomly at this n "
                          "and needs an explicit seed")


# ---------------------------------------------------------------------------
# individual suites, each returning a list of (name, check) pairs


def _agreement_checks(n: int, seed: Optional[int]) -> list[Check]:
    graphs = _graph_corpus(n, seed)

    def check(graph: LabeledGraph) -> Optional[dict]:
        reference = csf_from_edge_subsets(graph)
        for label, other in (
                ("connected subsets", csf_from_connected_subsets(graph)),
                ("contraction lattice", csf_from_contraction_lattice(graph)),
                ("deletion-contraction", csf_by_deletion_contraction(graph)),
                ("coloring definition", convert(csf_from_colorings(graph), "p"))):
            if other != reference:
                return _failure(f"{_graph_text(graph)} [{label}]",
                                str(reference), str(other))
        return None

    return [(lambda g=g: check(g)) for g in graphs]


def _roundtrip_checks(n: int, seed: Optional[int]) -> list[Check]:
    del seed
    partitions = enumerate_partitions(n)
    checks: list[Check] = []
    for pi in partitions:
        for basis in ("m", "e", "h", "x"):
            def check(pi=pi, basis=basis) -> Optional[dict]:
                start = basis_term(basis, pi)
                back = convert(convert(start, "p"), basis)
                if back != start or dict(back.terms) != dict(start.terms):
                    return _failure(f"{basis}_{{{pi.to_text()}}}",
                                    str(start), str(back))
                return None
            checks.append(check)
    return checks


def _kdeletion_checks(n: int, seed: Optional[int]) -> list[Check]:
    graphs = _graph_corpus(n, seed)
    checks: list[Check] = []
    for graph in graphs:
        for vertices, edges in find_cycles(graph, 5):
            def check(graph=graph, vertices=vertices, edges=edges) -> Optional[dict]:
                value = k_deletion_sum(graph, edges)
                if not value.is_zero():
                    return _failure(
                        f"{_graph_text(graph)} cycle {vertices}", "0", str(value))
                return None
            checks.append(check)
    return checks


def _tree_corpus(n: int, seed: Optional[int]) -> list[LabeledGraph]:
    check_ground_set(n, "tree corpus")
    if n <= 6:
        return list(all_labeled_trees(n))
    from .graphs import _tree_from_pruefer

    rng = random.Random(seed)
    trees = []
    for _ in range(SAMPLE_COUNT):
        seq = tuple(rng.randrange(1, n + 1) for _ in range(n - 2))
        trees.append(_tree_from_pruefer(seq, n))
    return trees


def _trees_checks(n: int, seed: Optional[int]) -> list[Check]:
    trees = _tree_corpus(n, seed)

    def check(tree: LabeledGraph) -> Optional[dict]:
        closed = tree_x_expansion(tree)
        computed = convert(chromatic_symmetric_function(tree), "x")
        if closed != computed or dict(closed.terms) != dict(computed.terms):
            return _failure(_graph_text(tree), str(closed), str(computed))
        return None

    return [(lambda t=t: check(t)) for t in trees]


def _multiplicativity_checks(n: int, seed: Optional[int]) -> list[Check]:
    pairs: list[tuple[LabeledGraph, LabeledGraph]] = []
    if n <= 6:
        for a in range(1, n):
            left = list(all_labeled_graphs(a))
            right = list(all_labeled_graphs(n - a))
            pairs.extend((g, h) for g in left for h in right)
    else:
        rng = random.Random(seed)
        for _ in range(SAMPLE_COUNT):
            a = rng.randrange(1, n)
            pairs.append((random_graph(a, EDGE_PROBABILITY, rng.getrandbits(32)),
                          random_graph(n - a, EDGE_PROBABILITY, rng.getrandbits(32))))

    def check(g: LabeledGraph, h: LabeledGraph) -> Optional[dict]:
        joined = chromatic_symmetric_function(slash_union(g, h))
        product = multiply(chromatic_symmetric_function(g),
                           chromatic_symmetric_function(h))
        if joined != product:
            return _failure(f"{_graph_text(g)} || {_graph_text(h)}",
                            str(product), str(joined))
        return None

    return [(lambda g=g, h=h: check(g, h)) for g, h in pairs]


def _relabeling_checks(n: int, seed: Optional[int]) -> list[Check]:
    rng = random.Random(seed)
    instances: list[tuple[LabeledGraph, Permutation]] = []
    for _ in range(20):
        graph = random_graph(n, EDGE_PROBABILITY, rng.getrandbits(32))
        images = list(range(1, n + 1))
        rng.shuffle(images)
        instances.append((graph, Permutation(images)))

    def check(graph: LabeledGraph, delta: Permutation) -> Optional[dict]:
        moved = chromatic_symmetric_function(relabel(delta, graph))
        acted = act(delta, chromatic_symmetric_function(graph))
        if moved != acted:
            return _failure(f"{_graph_text(graph)} via {delta.images}",
                            str(acted), str(moved))
        return None

    return [(lambda g=g, d=d: check(g, d)) for g, d in instances]


def _epos_checks(n: int, seed: Optional[int]) -> list[Check]:
    graphs = _graph_corpus(n, seed)

    def check(graph: LabeledGraph) -> Optional[dict]:
        report = classify_e_positivity(graph)
        expected_verdict = "e_positive" if is_clique_union(graph) else "mixed"
        if report.verdict != expected_verdict:
            return _failure(_graph_text(graph), expected_verdict, report.verdict)
        in_e = convert(chromatic_symmetric_function(graph), "e")
        values = list(in_e.terms.values())
        if report.verdict == "e_positive":
            if any(c < 0 for c in values):
                return _failure(_graph_text(graph), "no negative e coefficients",
                                str(in_e))
        else:
            if not (any(c > 0 for c in values) and any(c < 0 for c in values)):
                return _failure(_graph_text(graph),
                                "both positive and negative e coefficients",
                                str(in_e))
            pi, coeff = report.negative_witness
            extracted = in_e.terms.get(pi, Fraction(0))
            if coeff >= 0 or extracted != coeff:
                return _failure(f"{_graph_text(graph)} witness {pi.to_text()}",
                                str(coeff), str(extracted))
        return None

    return [(lambda g=g: check(g)) for g in graphs]


def _xsign_checks(n: int, seed: Optional[int]) -> list[Check]:
    graphs = _graph_corpus(n, seed)

    def check(graph: LabeledGraph) -> Optional[dict]:
        sign = x_sign_report(graph).sign
        in_x = convert(chromatic_symmetric_function(graph), "x")
        if any(sign * c < 0 for c in in_x.terms.values()):
            return _failure(_graph_text(graph),
                            f"x coefficients of sign {sign}", str(in_x))
        return None

    return [(lambda g=g: check(g)) for g in graphs]


def _bases_checks(n: int, seed: Optional[int]) -> list[Check]:
    rng = random.Random(seed)
    checks: list[Check] = []
    partitions = enumerate_partitions(n)
    built: dict[str, object] = {}

    def basis_for(strategy):
        # build at most once per strategy; cache the error as well
        if strategy.name not in built:
            try:
                built[strategy.name] = build_basis(n, strategy)
            except InvariantViolation as exc:
                built[strategy.name] = exc
        value = built[strategy.name]
        if isinstance(value, InvariantViolation):
            raise value
        return value

    for strategy in (PATH_PER_BLOCK, CLIQUE_PER_BLOCK):
        def construction(strategy=strategy) -> Optional[dict]:
            try:
                basis_for(strategy)
            except InvariantViolation as exc:
                return _failure(f"build {strategy.name} n={n}",
                                "triangular with nonzero diagonal", str(exc))
            return None
        checks.append(construction)

    def clique_is_e() -> Optional[dict]:
        try:
            basis = basis_for(CLIQUE_PER_BLOCK)
        except InvariantViolation as exc:
            return _failure("clique strategy build", "a certified basis", str(exc))
        for pi in basis.order:
            if basis.element_at(pi) != basis_term("e", pi):
                return _failure(f"clique element at {pi.to_text()}",
                                str(convert(basis_term("e", pi), "p")),
                                str(basis.element_at(pi)))
        return None

    checks.append(clique_is_e)

    coefficient_pool = [Fraction(k, d) for k in range(-4, 5) for d in (1, 2, 3)]
    for index in range(20):
        coords = {pi: rng.choice(coefficient_pool) for pi in partitions
                  if rng.random() < 0.5}
        strategy = PATH_PER_BLOCK if index % 2 == 0 else CLIQUE_PER_BLOCK

        def roundtrip(coords=coords, strategy=strategy, index=index) -> Optional[dict]:
            try:
                basis = basis_for(strategy)
            except InvariantViolation as exc:
                return _failure(f"combination {index} in {strategy.name}",
                                "a certified basis", str(exc))
            f = combine(basis, coords)
            recovered = express(f, basis)
            wanted = {pi: c for pi, c in coords.items() if c}
            if recovered != wanted:
                return _failure(f"combination {index} in {strategy.name}",
                                str(sorted((p.to_text(), str(c))
                                           for p, c in wanted.items())),
                                str(sorted((p.to_text(), str(c))
                                           for p, c in recovered.items())))
            return None

        checks.append(roundtrip)
    return checks


_SUITES: dict[str, Callable[[int, Optional[int]], list[Check]]] = {
    "agreement": _agreement_checks,
    "roundtrip": _roundtrip_checks,
    "kdeletion": _kdeletion_checks,
    "trees": _trees_checks,
    "multiplicativity": _multiplicativity_checks,
    "relabeling": _relabeling_checks,
    "epos-scan": _epos_checks,
    "xsign-scan": _xsign_checks,
    "bases": _bases_checks,
}

SUITES = tuple(sorted(_SUITES))


def needs_seed(suite: str, n: int) -> bool:
    """Whether the suite samples randomly at this n (seed then mandatory)."""
    if suite in ("relabeling", "bases"):
        return True
    if suite in ("agreement", "kdeletion", "epos-scan", "xsign-scan"):
        return n > EXHAUSTIVE_N
    if suite == "trees":
        return n > 6
    if suite == "multiplicativity":
        return n > 6
    return False


def run_suite(suite: str, n: int, seed: Optional[int] = None) -> SuiteResult:
    """Run one named suite and collect a deterministic result.

    Instances are constructed up front in a fixed order and checked in that
    order, so repeated runs give identical reports.
    """
    builder = _SUITES.get(suite)
    if builder is None:
        raise DomainError(f"unknown suite {suite!r}; choose from {list(SUITES)}")
    if n < 1:
        raise DomainError("suite size must be at least 1")
    if needs_seed(suite, n):
        _require_seed(suite, seed)
    checks = builder(n, seed)
    result = SuiteResult(suite, n, seed, total=len(checks))
    for check in checks:
        outcome = check()
        if outcome is None:
            result.passed += 1
        else:
            result.failures.append(outcome)
    return result
