"""End-to-end acceptance checks.

Each test exercises one headline guarantee on the full advertised corpus and
prints a single pass/fail line (run with -s to watch them stream by).  The
shared corpus is every labeled graph on up to 5 vertices plus 50 seeded
random graphs each at n = 6 and n = 7.
"""

import time
from fractions import Fraction
from functools import lru_cache
from math import prod

from helpers import collapse_words, rank_over_q, sym_monomial_expansion
from ncsym.chromatic import (
    chromatic_symmetric_function,
    classical_csf,
    classify_e_positivity,
    csf_by_deletion_contraction,
    csf_from_colorings,
    csf_from_contraction_lattice,
    csf_from_edge_subsets,
    k_deletion_sum,
    matching_x_identity,
    tree_x_expansion,
)
from ncsym.chromatic_bases import (
    CLIQUE_PER_BLOCK,
    PATH_PER_BLOCK,
    build_basis,
    combine,
    express,
    transition_matrix,
)
from ncsym.elements import (
    act,
    basis_term,
    coefficient,
    convert,
    induce,
    is_positive_in,
    multiply,
    project,
    word_expansion,
)
from ncsym.graphs import (
    LabeledGraph,
    all_labeled_graphs,
    all_labeled_trees,
    bond_mobius,
    complete_graph_union,
    components_partition,
    find_cycles,
    is_clique_union,
    random_graph,
    relabel,
    slash_union,
)
from ncsym.partitions import (
    Permutation,
    SetPartition,
    enumerate_partitions,
    parse_partition,
)

RANDOM_PER_N = 50
EDGE_PROBABILITY = 0.5


def report(number: int, label: str, ok: bool, extra: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"criterion {number:2d} {state}: {label}{tail}", flush=True)
    assert ok, f"criterion {number} failed: {label}"


@lru_cache(maxsize=None)
def exhaustive_corpus(n: int) -> tuple:
    return tuple(all_labeled_graphs(n))


@lru_cache(maxsize=None)
def random_corpus(n: int) -> tuple:
    return tuple(random_graph(n, EDGE_PROBABILITY, 100 * n + i)
                 for i in range(RANDOM_PER_N))


def full_corpus():
    for n in range(1, 6):
        yield from exhaustive_corpus(n)
    for n in (6, 7):
        yield from random_corpus(n)


def test_criterion_01_method_agreement():
    started = time.monotonic()
    checked = 0
    ok = True
    for graph in full_corpus():
        reference = csf_from_edge_subsets(graph)
        agreed = (
            csf_from_contraction_lattice(graph) == reference
            and csf_by_deletion_contraction(graph) == reference
            and convert(csf_from_colorings(graph), "p") == reference)
        if not agreed:
            ok = False
            break
        checked += 1
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 120.0
    report(1, "four computation methods agree on the whole corpus", ok,
           f"{checked} graphs, {elapsed:.1f}s")


def test_criterion_02_clique_identity():
    checked = 0
    ok = True
    for n in range(1, 7):
        for pi in enumerate_partitions(n):
            if chromatic_symmetric_function(complete_graph_union(pi)) != \
                    basis_term("e", pi):
                ok = False
                break
            checked += 1
        if not ok:
            break
    report(2, "clique unions expand to single elementary terms", ok,
           f"{checked} partitions")


def test_criterion_03_round_trips_and_word_agreement():
    ok = True
    trips = 0
    for n in range(1, 7):
        for pi in enumerate_partitions(n):
            for basis in ("m", "e", "h", "x"):
                start = basis_term(basis, pi)
                if convert(convert(start, "p"), basis) != start:
                    ok = False
                trips += 1
    words = 0
    for n in range(1, 6):
        for pi in enumerate_partitions(n):
            reference = word_expansion(basis_term("p", pi), n)
            for basis in ("m", "e", "h", "x"):
                if word_expansion(convert(basis_term("p", pi), basis), n) != \
                        reference:
                    ok = False
                words += 1
    report(3, "basis round-trips are exact and word expansions agree", ok,
           f"{trips} trips, {words} word comparisons")


def test_criterion_04_e_positivity_classification():
    ok = True
    graphs = 0
    for n in range(1, 6):
        for graph in exhaustive_corpus(n):
            rep = classify_e_positivity(graph)
            expansion = convert(chromatic_symmetric_function(graph), "e")
            values = list(expansion.terms.values())
            if is_clique_union(graph):
                ok = ok and rep.verdict == "e_positive"
                ok = ok and all(c >= 0 for c in values)
            else:
                ok = ok and rep.verdict == "mixed"
                ok = ok and any(c > 0 for c in values) and any(c < 0 for c in values)
                witness, coeff = rep.negative_witness
                ok = ok and coeff < 0
                ok = ok and expansion.terms.get(witness, Fraction(0)) == coeff
            # never e-negative: some coefficient is strictly positive
            ok = ok and any(c > 0 for c in values)
            graphs += 1
            if not ok:
                break
        if not ok:
            break
    p3 = LabeledGraph(3, [(1, 2), (2, 3)])
    y = chromatic_symmetric_function(p3)
    ok = ok and coefficient(y, "e", parse_partition("1,3/2")) == Fraction(-1, 2)
    ok = ok and coefficient(y, "e", parse_partition("1,2,3")) == Fraction(1, 2)
    report(4, "elementary-basis positivity matches the clique-union test", ok,
           f"{graphs} graphs")


def test_criterion_05_x_sign():
    ok = True
    graphs = 0
    for graph in full_corpus():
        expansion = convert(chromatic_symmetric_function(graph), "x")
        k = len(components_partition(graph).blocks)
        sign = (-1) ** (graph.n - k)
        if not all(sign * c >= 0 for c in expansion.terms.values()):
            ok = False
            break
        graphs += 1
    report(5, "signed x expansions are coordinate-wise nonnegative", ok,
           f"{graphs} graphs")


def test_criterion_06_tree_formula():
    ok = True
    trees = 0
    for n in range(1, 7):
        for tree in all_labeled_trees(n):
            if tree_x_expansion(tree) != \
                    convert(chromatic_symmetric_function(tree), "x"):
                ok = False
                break
            trees += 1
        if not ok:
            break
    p3 = LabeledGraph(3, [(1, 2), (2, 3)])
    ok = ok and tree_x_expansion(p3) == (
        basis_term("x", parse_partition("1,2,3"))
        + basis_term("x", parse_partition("1,3/2")))
    report(6, "tree closed form equals the general computation", ok,
           f"{trees} trees")


def test_criterion_07_cycle_deletion():
    ok = True
    cycles = 0
    for n in range(3, 6):
        for graph in exhaustive_corpus(n):
            for vertices, edges in find_cycles(graph, 5):
                value = k_deletion_sum(graph, edges)
                if not (value.is_zero() and value.degree == graph.n):
                    ok = False
                    break
                cycles += 1
            if not ok:
                break
        if not ok:
            break
    report(7, "alternating deletion sums vanish on every short cycle", ok,
           f"{cycles} cycles")


def test_criterion_08_multiplicativity_and_relabeling():
    ok = True
    pairs = 0
    for a in range(1, 6):
        for b in range(1, 7 - a):
            for g in exhaustive_corpus(a):
                for h in exhaustive_corpus(b):
                    lhs = chromatic_symmetric_function(slash_union(g, h))
                    rhs = multiply(chromatic_symmetric_function(g),
                                   chromatic_symmetric_function(h))
                    if lhs != rhs:
                        ok = False
                        break
                    pairs += 1
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    relabelings = 0
    import random as rnd
    for n in range(1, 7):
        rng = rnd.Random(9000 + n)
        for _ in range(20):
            graph = random_graph(n, EDGE_PROBABILITY, rng.getrandbits(32))
            images = list(range(1, n + 1))
            rng.shuffle(images)
            delta = Permutation(images)
            if chromatic_symmetric_function(relabel(delta, graph)) != \
                    act(delta, chromatic_symmetric_function(graph)):
                ok = False
                break
            relabelings += 1
        if not ok:
            break
    report(8, "slash products multiply and relabelings act naturally", ok,
           f"{pairs} pairs, {relabelings} relabelings")


def test_criterion_09_chromatic_bases():
    ok = True
    built = 0
    import random as rnd
    for n in range(1, 6):
        for strategy in (PATH_PER_BLOCK, CLIQUE_PER_BLOCK):
            basis = build_basis(n, strategy)
            matrix = transition_matrix(basis)
            if rank_over_q(matrix) != len(basis.order):
                ok = False
            for i, pi in enumerate(basis.order):
                m = bond_mobius(basis.graphs[i])
                expected = prod(m[sum(1 << x for x in block)] for block in pi.blocks)
                if matrix[i][i] != expected or not matrix[i][i]:
                    ok = False
            built += 1
        clique = build_basis(n, CLIQUE_PER_BLOCK)
        for pi in clique.order:
            if clique.element_at(pi) != basis_term("e", pi):
                ok = False
        rng = rnd.Random(300 + n)
        partitions = enumerate_partitions(n)
        for index in range(20):
            strategy = PATH_PER_BLOCK if index % 2 else CLIQUE_PER_BLOCK
            basis = build_basis(n, strategy)
            coords = {pi: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for pi in partitions if rng.random() < 0.5}
            coords = {pi: c for pi, c in coords.items() if c}
            if express(combine(basis, coords), basis) != coords:
                ok = False
    report(9, "generator families form certified bases with exact coordinates",
           ok, f"{built} bases")


def test_criterion_10_matching_identity():
    ok = True
    matchings = 0
    for n in range(1, 9):
        for pi in enumerate_partitions(n):
            if any(len(block) > 2 for block in pi.blocks):
                continue
            if matching_x_identity(pi) != basis_term("x", pi):
                ok = False
                break
            matchings += 1
        if not ok:
            break
    spot = convert(chromatic_symmetric_function(
        complete_graph_union(parse_partition("1,3/2"))), "x")
    ok = ok and spot == basis_term("x", parse_partition("1,3/2"), -1)
    report(10, "pair-block partitions match signed clique-union expansions",
           ok, f"{matchings} partitions")


def test_criterion_11_induction_positivity():
    ok = True
    induced = 0
    for n in range(1, 6):
        for pi in enumerate_partitions(n):
            if not is_positive_in(convert(induce(basis_term("x", pi)), "x"), "x"):
                ok = False
                break
            induced += 1
        if not ok:
            break
    for n in range(2, 7):
        image = convert(
            induce(basis_term("x", SetPartition.single_block(n - 1))), "x")
        expected = {
            sigma: Fraction(1) for sigma in enumerate_partitions(n)
            if len(sigma.blocks) <= 2
            and all(n in block or n - 1 in block for block in sigma.blocks)}
        if dict(image.terms) != expected:
            ok = False
    report(11, "induced x terms stay positive and the top case is closed-form",
           ok, f"{induced} inductions")


def test_criterion_12_projection_consistency():
    ok = True
    graphs = 0
    for graph in full_corpus():
        if project(chromatic_symmetric_function(graph)) != classical_csf(graph):
            ok = False
            break
        graphs += 1
    scalars = 0
    for n in range(1, 6):
        for pi in enumerate_partitions(n):
            for basis in ("m", "p", "e", "h"):
                f = basis_term(basis, pi)
                if collapse_words(word_expansion(f, n), n) != \
                        sym_monomial_expansion(project(f), n):
                    ok = False
                scalars += 1
    report(12, "projection to commuting variables is consistent everywhere",
           ok, f"{graphs} graphs, {scalars} scalar checks")


def test_criterion_13_single_term_realizability():
    ok = True
    graphs = 0
    for n in range(1, 5):
        complete = complete_graph_union(SetPartition.single_block(n))
        for graph in exhaustive_corpus(n):
            y = chromatic_symmetric_function(graph)
            edgeless = not graph.edges
            small = all(len(block) <= 2
                        for block in components_partition(graph).blocks)
            checks = (
                (len(convert(y, "m").terms) == 1) == (graph == complete),
                (len(convert(y, "p").terms) == 1) == edgeless,
                (len(convert(y, "h").terms) == 1) == edgeless,
                (len(convert(y, "x").terms) == 1) == small,
            )
            if not all(checks):
                ok = False
                break
            graphs += 1
        if not ok:
            break
    report(13, "single-term expansions occur only in the degenerate cases",
           ok, f"{graphs} graphs")
