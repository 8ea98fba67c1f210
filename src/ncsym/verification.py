"""Property suites behind the command-line verify command.

Each suite is a generator over one deterministic sequence of instances.  It
checks each instance as it reaches it and yields the outcome: None for a
pass, or a verbatim record of the failure.  Graph corpora are exhaustive
through n = 5 and switch to seeded random sampling above that.  A suite asks
for its random source only on the branch that samples, and that request
fails without an explicit seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Optional

from .chromatic import (
    chromatic_symmetric_function,
    classify_e_positivity,
    csf_by_deletion_contraction,
    csf_from_colorings,
    csf_from_contraction_lattice,
    csf_from_edge_subsets,
    k_deletion_sum,
    tree_x_expansion,
    x_sign_report,
)
from .chromatic_bases import (
    CLIQUE_PER_BLOCK,
    PATH_PER_BLOCK,
    ChromaticBasis,
    build_basis,
    combine,
    express,
)
from .elements import (
    NCSymElement,
    act,
    basis_term,
    coefficient,
    convert,
    is_negative_in,
    is_positive_in,
    multiply,
)
from .errors import DomainError, InvariantViolation
from .graphs import (
    LabeledGraph,
    _tree_from_pruefer,
    all_labeled_graphs,
    all_labeled_trees,
    find_cycles,
    format_graph_line,
    is_clique_union,
    random_graph,
    relabel,
    slash_union,
)
from .partitions import Permutation, SetPartition, check_ground_set, enumerate_partitions

EXHAUSTIVE_N = 5
SAMPLE_COUNT = 50
EDGE_PROBABILITY = 0.5


class SuiteResult:
    """Counts of one suite run and the verbatim record of each failure."""

    def __init__(self, suite: str, n: int, seed: Optional[int]) -> None:
        self.suite = suite
        self.n = n
        self.seed = seed
        self.total = 0
        self.passed = 0
        self.failures: list[dict] = []

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


def _failure(instance: str, expected: str, actual: str) -> dict:
    return {"instance": instance, "expected": expected, "actual": actual}


def _graph_corpus(n: int, rng: Callable[[], random.Random]) -> Iterator[LabeledGraph]:
    if n <= EXHAUSTIVE_N:
        yield from all_labeled_graphs(n)
        return
    sample = rng()
    for _ in range(SAMPLE_COUNT):
        yield random_graph(n, EDGE_PROBABILITY, sample.getrandbits(32))


# ---------------------------------------------------------------------------
# individual suites, each yielding one outcome per instance


def _per_graph(check: Callable[[LabeledGraph], Optional[dict]], n: int,
               rng: Callable[[], random.Random]) -> Iterator[Optional[dict]]:
    for graph in _graph_corpus(n, rng):
        yield check(graph)


def _check_agreement(graph: LabeledGraph) -> Optional[dict]:
    reference = csf_from_edge_subsets(graph)
    for label, other in (
            ("connected subsets", chromatic_symmetric_function(graph)),
            ("contraction lattice", csf_from_contraction_lattice(graph)),
            ("deletion-contraction", csf_by_deletion_contraction(graph)),
            ("coloring definition", convert(csf_from_colorings(graph), "p"))):
        if other != reference:
            return _failure(f"{format_graph_line(graph)} [{label}]",
                            str(reference), str(other))
    return None


def _roundtrip(n: int, rng: Callable[[], random.Random]) -> Iterator[Optional[dict]]:
    for pi in enumerate_partitions(n):
        for basis in ("m", "e", "h", "x"):
            yield _check_roundtrip(pi, basis)


def _check_roundtrip(pi: SetPartition, basis: str) -> Optional[dict]:
    start = basis_term(basis, pi)
    back = convert(convert(start, "p"), basis)
    if back != start:
        return _failure(f"{basis}_{{{pi.to_text()}}}",
                        str(start), str(back))
    return None


def _kdeletion(n: int, rng: Callable[[], random.Random]) -> Iterator[Optional[dict]]:
    for graph in _graph_corpus(n, rng):
        for vertices, edges in find_cycles(graph, 5):
            yield _check_kdeletion(graph, vertices, edges)


def _check_kdeletion(graph: LabeledGraph, vertices, edges) -> Optional[dict]:
    value = k_deletion_sum(graph, edges)
    if not value.is_zero():
        return _failure(
            f"{format_graph_line(graph)} cycle {vertices}", "0", str(value))
    return None


def _trees(n: int, rng: Callable[[], random.Random]) -> Iterator[Optional[dict]]:
    if n <= 6:
        for tree in all_labeled_trees(n):
            yield _check_tree(tree)
        return
    sample = rng()
    check_ground_set(n, "tree corpus")
    for _ in range(SAMPLE_COUNT):
        seq = tuple(sample.randrange(1, n + 1) for _ in range(n - 2))
        yield _check_tree(_tree_from_pruefer(seq, n))


def _check_tree(tree: LabeledGraph) -> Optional[dict]:
    closed = tree_x_expansion(tree)
    computed = convert(chromatic_symmetric_function(tree), "x")
    if closed != computed:
        return _failure(format_graph_line(tree), str(closed), str(computed))
    return None


def _multiplicativity(n: int, rng: Callable[[], random.Random]) -> Iterator[Optional[dict]]:
    if n <= 6:
        for a in range(1, n):
            # each factor's Y_G once per list, not once per pair
            left = [(g, chromatic_symmetric_function(g)) for g in all_labeled_graphs(a)]
            right = [(h, chromatic_symmetric_function(h)) for h in all_labeled_graphs(n - a)]
            for g, yg in left:
                for h, yh in right:
                    yield _check_product(g, h, yg, yh)
        return
    sample = rng()
    for _ in range(SAMPLE_COUNT):
        a = sample.randrange(1, n)
        g = random_graph(a, EDGE_PROBABILITY, sample.getrandbits(32))
        h = random_graph(n - a, EDGE_PROBABILITY, sample.getrandbits(32))
        yield _check_product(g, h, chromatic_symmetric_function(g),
                             chromatic_symmetric_function(h))


def _check_product(g: LabeledGraph, h: LabeledGraph, yg: NCSymElement,
                   yh: NCSymElement) -> Optional[dict]:
    joined = chromatic_symmetric_function(slash_union(g, h))
    product = multiply(yg, yh)
    if joined != product:
        return _failure(f"{format_graph_line(g)} || {format_graph_line(h)}",
                        str(product), str(joined))
    return None


def _relabeling(n: int, rng: Callable[[], random.Random]) -> Iterator[Optional[dict]]:
    sample = rng()
    for _ in range(20):
        graph = random_graph(n, EDGE_PROBABILITY, sample.getrandbits(32))
        images = list(range(1, n + 1))
        sample.shuffle(images)
        yield _check_relabeling(graph, Permutation(images))


def _check_relabeling(graph: LabeledGraph, delta: Permutation) -> Optional[dict]:
    moved = chromatic_symmetric_function(relabel(delta, graph))
    acted = act(delta, chromatic_symmetric_function(graph))
    if moved != acted:
        return _failure(f"{format_graph_line(graph)} via {delta.images}",
                        str(acted), str(moved))
    return None


def _check_epos(graph: LabeledGraph) -> Optional[dict]:
    report = classify_e_positivity(graph)
    expected_verdict = "e_positive" if is_clique_union(graph) else "mixed"
    if report.verdict != expected_verdict:
        return _failure(format_graph_line(graph), expected_verdict, report.verdict)
    in_e = convert(chromatic_symmetric_function(graph), "e")
    if report.verdict == "e_positive":
        if not is_positive_in(in_e, "e"):
            return _failure(format_graph_line(graph), "no negative e coefficients",
                            str(in_e))
    else:
        if is_positive_in(in_e, "e") or is_negative_in(in_e, "e"):
            return _failure(format_graph_line(graph),
                            "both positive and negative e coefficients",
                            str(in_e))
        pi, coeff = report.negative_witness
        extracted = coefficient(in_e, "e", pi)
        if coeff >= 0 or extracted != coeff:
            return _failure(f"{format_graph_line(graph)} witness {pi.to_text()}",
                            str(coeff), str(extracted))
    return None


def _check_xsign(graph: LabeledGraph) -> Optional[dict]:
    sign = x_sign_report(graph).sign
    in_x = convert(chromatic_symmetric_function(graph), "x")
    if not (is_positive_in if sign > 0 else is_negative_in)(in_x, "x"):
        return _failure(format_graph_line(graph),
                        f"x coefficients of sign {sign}", str(in_x))
    return None


def _bases(n: int, rng: Callable[[], random.Random]) -> Iterator[Optional[dict]]:
    sample = rng()
    partitions = enumerate_partitions(n)
    # each strategy's basis, or the reason it failed to certify
    built: dict[str, ChromaticBasis | InvariantViolation] = {}
    for strategy in (PATH_PER_BLOCK, CLIQUE_PER_BLOCK):
        try:
            built[strategy.name] = build_basis(n, strategy)
        except InvariantViolation as exc:
            built[strategy.name] = exc
            yield _failure(f"build {strategy.name} n={n}",
                           "triangular with nonzero diagonal", str(exc))
        else:
            yield None

    basis = built[CLIQUE_PER_BLOCK.name]
    if isinstance(basis, InvariantViolation):
        yield _failure("clique strategy build", "a certified basis", str(basis))
    else:
        yield _check_clique_is_e(basis)

    coefficient_pool = [Fraction(k, d) for k in range(-4, 5) for d in (1, 2, 3)]
    for index in range(20):
        coords = {pi: sample.choice(coefficient_pool) for pi in partitions
                  if sample.random() < 0.5}
        strategy = PATH_PER_BLOCK if index % 2 == 0 else CLIQUE_PER_BLOCK
        basis = built[strategy.name]
        if isinstance(basis, InvariantViolation):
            yield _failure(f"combination {index} in {strategy.name}",
                           "a certified basis", str(basis))
        else:
            yield _check_combination(basis, coords, index)


def _check_clique_is_e(basis: ChromaticBasis) -> Optional[dict]:
    for pi in basis.order:
        if basis.element_at(pi) != basis_term("e", pi):
            return _failure(f"clique element at {pi.to_text()}",
                            str(convert(basis_term("e", pi), "p")),
                            str(basis.element_at(pi)))
    return None


def _check_combination(basis: ChromaticBasis, coords: dict[SetPartition, Fraction],
                       index: int) -> Optional[dict]:
    f = combine(basis, coords)
    recovered = express(f, basis)
    wanted = {pi: c for pi, c in coords.items() if c}
    if recovered != wanted:
        return _failure(f"combination {index} in {basis.strategy.name}",
                        str(sorted((p.to_text(), str(c))
                                   for p, c in wanted.items())),
                        str(sorted((p.to_text(), str(c))
                                   for p, c in recovered.items())))
    return None


_SUITES: dict[str, Callable[[int, Callable[[], random.Random]],
                            Iterator[Optional[dict]]]] = {
    "agreement": partial(_per_graph, _check_agreement),
    "roundtrip": _roundtrip,
    "kdeletion": _kdeletion,
    "trees": _trees,
    "multiplicativity": _multiplicativity,
    "relabeling": _relabeling,
    "epos-scan": partial(_per_graph, _check_epos),
    "xsign-scan": partial(_per_graph, _check_xsign),
    "bases": _bases,
}

SUITES = tuple(sorted(_SUITES))


def run_suite(suite: str, n: int, seed: Optional[int] = None) -> SuiteResult:
    """Run one named suite and collect a deterministic result.

    The suite yields its outcomes in a fixed order and they are counted as
    they arrive, so repeated runs give identical reports.  A suite that
    samples at this n draws from random.Random(seed), and refuses to run
    without a seed.
    """
    outcomes = _SUITES.get(suite)
    if outcomes is None:
        raise DomainError(f"unknown suite {suite!r}; choose from {list(SUITES)}")
    if n < 1:
        raise DomainError("suite size must be at least 1")

    def rng() -> random.Random:
        if seed is None:
            raise DomainError(f"suite {suite!r} samples randomly at this n "
                              "and needs an explicit seed")
        return random.Random(seed)

    result = SuiteResult(suite, n, seed)
    for outcome in outcomes(n, rng):
        result.total += 1
        if outcome is None:
            result.passed += 1
        else:
            result.failures.append(outcome)
    return result
