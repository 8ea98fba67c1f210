"""Chromatic symmetric functions in noncommuting variables.

``chromatic_symmetric_function`` computes Y_G by the exponential formula over
connected vertex subsets: Y_G = sum over set partitions pi of prod_B c(B)
p_pi, where c(S) is the bond-lattice Moebius value of the induced subgraph on
S, tabulated for every vertex subset in O(3^n) time.  Four independent routes
serve as its oracles and must agree with it:

* ``csf_from_edge_subsets``: signed sum over edge subsets, indexed by the
  partition into connected components of each spanning subgraph;
* ``csf_from_contraction_lattice``: Moebius-weighted sum over the contraction
  lattice;
* ``csf_by_deletion_contraction``: deletion-contraction on the original labels;
* ``csf_from_colorings``: monomial expansion over proper-coloring patterns,
  i.e. the partitions all of whose blocks are independent sets.

``csf_from_colorings`` is also the CLI's default route into m: its terms are
the output, where the kernel would need a change of basis out of p.  ``verify
--suite agreement`` still checks it independently, converted into p.  The
CLI's ``--method`` flags name these functions.

The kernel, ``csf_from_colorings`` and ``csf_from_contraction_lattice`` each
build one table over vertex bitmasks and hand it to
``elements.from_weighted_blocks``, which lists the partitions into blocks of
nonzero weight through ``partitions.weighted_partitions`` and labels each with
its partition code from one table of block codes.  The tables come from
different identities: the kernel's from the independent-set identity of
``connected_mobius``, the lattice route's from the bond lattice's defining
recursion in ``graphs.bond_mobius``, the coloring definition's from the
independent sets.  The edge-subset and deletion-contraction routes enumerate
no partitions and hand block bitmasks to ``elements.from_block_masks``, which
encodes each block on its own, so a fault in the enumerator or in the code
table still shows up as a disagreement.  No route goes through the public
``NCSymElement`` constructor, which ``tests/test_element_codes.py`` checks
against the term view.

On top of these sit the classification reports (elementary-basis positivity,
the global sign pattern in the x basis), the k-cycle deletion identity, the
tree expansion in the x basis, and the matching identity tying single x
terms to clique unions.

No route caches its results: one Y_G costs one O(3^n) table, which is cheap
to recompute on the graphs that repeat.  Of the 4,566 Y_G that ``verify
--suite multiplicativity --n 6`` computes, 1,348 repeat an earlier graph.
The module keeps no state: deletion-contraction memoizes its subproblems
for one call only, so its result and its use of the expansion budget do
not depend on what ran before.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Callable, Iterable, NamedTuple, Optional

from .elements import (
    NCSymElement,
    SymElement,
    basis_term,
    check_conversion_pairs,
    clear_caches as clear_element_caches,
    from_block_masks,
    from_weighted_blocks,
    linear_combination,
)
from .errors import DomainError, InvariantViolation, ResourceLimitError
from .graphs import (
    LabeledGraph,
    bond_mobius,
    complete_graph_union,
    components_partition,
    delete_edges,
    is_clique_union,
    is_tree,
)
from .partitions import (
    IntegerPartition,
    SetPartition,
    bell_number,
    block_elements,
    check_ground_set,
    weighted_partition_sums,
    weighted_partitions,
)

SUBSET_EDGE_LIMIT = 22
DELCON_BUDGET = 1 << 21


# elements drops every cache; the alias stays for callers of this module
clear_caches = clear_element_caches


# ---------------------------------------------------------------------------
# route 1: edge subsets


def _walk_edge_subsets(graph: LabeledGraph,
                       visit: Callable[[tuple[int, ...], int], None]) -> None:
    """Call visit(masks, sign) once per edge subset, where masks holds the
    vertex bitmasks (bit x for vertex x) of the subset's components in
    increasing order of least vertex and sign is (-1)^|subset|.

    The recursion skips each edge, then takes it.  Taking an edge that joins
    two components puts their union in the place of the one with the smaller
    least vertex and drops the other; the union keeps that least vertex, so
    the order holds without sorting.
    """
    ends = [1 << u | 1 << v for u, v in graph.edges]

    def recurse(i: int, masks: tuple[int, ...], sign: int) -> None:
        if i == len(ends):
            visit(masks, sign)
            return
        recurse(i + 1, masks, sign)
        hit = [k for k, mask in enumerate(masks) if mask & ends[i]]
        if len(hit) == 1:
            recurse(i + 1, masks, -sign)
            return
        a, b = hit
        recurse(i + 1, masks[:a] + (masks[a] | masks[b],) + masks[a + 1:b] + masks[b + 1:],
                -sign)

    recurse(0, tuple(1 << x for x in range(1, graph.n + 1)), 1)


def _check_subset_limit(graph: LabeledGraph) -> None:
    if len(graph.edges) > SUBSET_EDGE_LIMIT:
        raise ResourceLimitError(
            f"edge-subset expansion limited to {SUBSET_EDGE_LIMIT} edges, "
            f"graph has {len(graph.edges)}")


def csf_from_edge_subsets(graph: LabeledGraph) -> NCSymElement:
    """Signed edge-subset expansion; returns a p-basis element."""
    _check_subset_limit(graph)
    counts: dict[tuple[int, ...], int] = {}

    def visit(masks, sign):
        counts[masks] = counts.get(masks, 0) + sign

    _walk_edge_subsets(graph, visit)
    return from_block_masks("p", graph.n, counts.items())


def classical_csf(graph: LabeledGraph) -> SymElement:
    """The commuting-variable chromatic symmetric function, computed by its
    own edge-subset expansion over power sums indexed by component shapes."""
    _check_subset_limit(graph)
    counts: dict[tuple, int] = {}

    def visit(masks, sign):
        lam = tuple(sorted(map(int.bit_count, masks), reverse=True))
        counts[lam] = counts.get(lam, 0) + sign

    _walk_edge_subsets(graph, visit)
    return SymElement("p", graph.n, ((IntegerPartition(lam), total)
                                     for lam, total in counts.items()))


# ---------------------------------------------------------------------------
# the kernel: the exponential formula over connected vertex subsets


def _independent_sets(graph: LabeledGraph) -> bytearray:
    """The table over vertex bitmasks (bit x for vertex x) that is 1 exactly
    on the independent sets; the kernel and the coloring definition read it."""
    n = graph.n
    check_ground_set(n, "coloring expansion")
    adj = graph._adj
    size = 1 << (n + 1)
    indep = bytearray(size)
    indep[0] = 1
    for s in range(2, size, 2):
        low = s & -s
        rest = s ^ low
        indep[s] = indep[rest] and not adj[low.bit_length() - 1] & rest
    return indep


def connected_mobius(graph: LabeledGraph) -> list[int]:
    """The table c over vertex bitmasks (bit x for vertex x): c[S] is the
    Moebius value mu(0, 1) of the bond lattice of the induced subgraph on S,
    nonzero exactly when S is nonempty and connected.

    Splitting the edge subsets of G[S] by the component T of min S gives
    [S independent] = sum over min S in T <= S, S minus T independent, of
    c[T], which is solved for c[S] over masks in increasing order; O(3^n).
    A mask that meets two components of G is disconnected, and is skipped.
    """
    check_ground_set(graph.n, "connected-subset kernel")
    indep = _independent_sets(graph)
    component = [0] * (graph.n + 1)
    for mask in graph.component_masks():
        for v in block_elements(mask):
            component[v] = mask
    c = [0] * len(indep)
    for s in range(2, len(indep), 2):
        low = s & -s
        if s & ~component[low.bit_length() - 1]:
            continue
        rest = s ^ low
        total = indep[s]
        sub = rest
        while sub:
            if indep[sub]:
                total -= c[s ^ sub]
            sub = (sub - 1) & rest
        c[s] = total
    return c


def chromatic_symmetric_function(graph: LabeledGraph) -> NCSymElement:
    """The chromatic symmetric function Y_G of a labeled graph, in p.

    Y_G = sum over set partitions pi of prod_B c[B] p_pi, with c from
    connected_mobius: mu(0, pi) in the bond lattice factors over the blocks
    of pi.  Refuses graphs with more than NCSYM_MAX_N vertices.
    """
    return from_weighted_blocks("p", graph.n, connected_mobius(graph))


def conversion_pairs(graph: LabeledGraph, basis: str) -> int:
    """The partition pairs that expanding Y_G into basis visits, counted
    without building Y_G.  Out of p into e, h or x each partition pi into
    connected blocks, the p support, costs prod_B B_|B|.  Into m, which the
    coloring definition gives directly, the count is the number of output
    terms: the partitions into independent sets."""
    if basis == "p":
        return 0
    full = (1 << (graph.n + 1)) - 2
    if basis == "m":
        return weighted_partition_sums(graph.n, _independent_sets(graph))[full]
    weight = [bell_number(mask.bit_count()) if value else 0
              for mask, value in enumerate(connected_mobius(graph))]
    return weighted_partition_sums(graph.n, weight)[full]


# ---------------------------------------------------------------------------
# route 2: contraction lattice


def csf_from_contraction_lattice(graph: LabeledGraph) -> NCSymElement:
    """Moebius-weighted sum of power sums over the connected partitions:
    mu(0, pi) = prod_B m[B], with m from ``graphs.bond_mobius``."""
    return from_weighted_blocks("p", graph.n, bond_mobius(graph))


# ---------------------------------------------------------------------------
# route 3: deletion-contraction


def csf_by_deletion_contraction(graph: LabeledGraph) -> NCSymElement:
    """Deletion-contraction recursion on subgraphs that keep their labels.

    For any edge uv, Y_G = Y_{G-uv} - lift(Y_{G/uv}), where G/uv merges v
    into u and lift adds v to the block of u.  Colorings of G-uv that give u
    and v one color are the colorings of G/uv, so this holds in m; lift
    commutes with the change to p because the coarsenings of pi + v are the
    lifts of the coarsenings of pi.  A disconnected graph is the product of
    its components.  A subproblem is a vertex bitmask plus a graph on the
    original labels, keyed by the mask and the edge tuple; a term is a tuple
    of block bitmasks in increasing order of least vertex, which lifting v
    into the block of u < v keeps.  The memo lives for one call, and the
    budget counts the distinct subproblems that call expands.
    """
    memo: dict[tuple[int, tuple], dict[tuple[int, ...], int]] = {}
    expanded = 0
    n = graph.n

    def expand(verts: int, sub: LabeledGraph) -> dict[tuple[int, ...], int]:
        nonlocal expanded
        edges = sub.edges
        key = (verts, edges)
        terms = memo.get(key)
        if terms is not None:
            return terms
        if expanded >= DELCON_BUDGET:
            raise ResourceLimitError(
                "deletion-contraction expansion budget exhausted "
                f"(limit {DELCON_BUDGET} expansions)")
        expanded += 1
        low = (verts & -verts).bit_length() - 1
        if not edges:
            terms = {tuple(1 << x for x in block_elements(verts)): 1}
        elif (piece := sub._reach_mask(low, verts)) != verts:
            # the component of the least vertex times the rest
            inside = expand(piece, LabeledGraph(n, [e for e in edges if piece >> e[0] & 1]))
            outside = expand(verts ^ piece,
                             LabeledGraph(n, [e for e in edges if not piece >> e[0] & 1]))
            terms = {tuple(sorted(left + right, key=lambda b: b & -b)): a * b
                     for left, a in inside.items() for right, b in outside.items()}
        else:
            u, v = edges[-1]
            terms = dict(expand(verts, LabeledGraph(n, edges[:-1])))
            # uv is the largest edge, so every other edge at v is av with a < u
            contracted = LabeledGraph(n, {(a, u if b == v else b) for a, b in edges[:-1]})
            bit_u, bit_v = 1 << u, 1 << v
            for blocks, coeff in expand(verts ^ bit_v, contracted).items():
                lifted = tuple(b | bit_v if b & bit_u else b for b in blocks)
                terms[lifted] = terms.get(lifted, 0) - coeff
        memo[key] = terms
        return terms

    return from_block_masks("p", n, expand((1 << (n + 1)) - 2, graph).items())


# ---------------------------------------------------------------------------
# route 4: the coloring definition


def csf_from_colorings(graph: LabeledGraph) -> NCSymElement:
    """Monomial expansion: one m term per partition of the vertices into
    independent sets (the equality patterns of proper colorings).  Refuses,
    before listing them, more than MAX_CONVERSION_PAIRS terms."""
    check_conversion_pairs(conversion_pairs(graph, "m"), "into m")
    return from_weighted_blocks("m", graph.n, _independent_sets(graph))


# ---------------------------------------------------------------------------
# identities


def k_deletion_sum(graph: LabeledGraph,
                   cycle_edges: Iterable[tuple[int, int]]) -> NCSymElement:
    """Alternating sum of chromatic functions over deletions of all subsets
    of the first k-1 listed cycle edges.  The listed edges must form a simple
    cycle in the graph; the result is the zero element of the same degree."""
    edges = [(u, v) if u < v else (v, u) for u, v in cycle_edges]
    k = len(edges)
    if k < 3:
        raise DomainError("a cycle needs at least 3 edges")
    if len(set(edges)) != k:
        raise DomainError("cycle edges must be distinct")
    degree: dict[int, int] = {}
    for u, v in edges:
        if (u, v) not in graph.edges:
            raise DomainError(f"edge ({u}, {v}) not present in the graph")
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if len(degree) != k or any(d != 2 for d in degree.values()):
        raise DomainError("listed edges do not form a simple cycle")
    if not LabeledGraph(graph.n, edges).is_connected_subset(sum(1 << v for v in degree)):
        raise DomainError("listed edges do not form a single cycle")

    removable = edges[:-1]
    subsets = ([edge for i, edge in enumerate(removable) if bits >> i & 1]
               for bits in range(1 << len(removable)))
    return linear_combination("p", graph.n, (
        (chromatic_symmetric_function(delete_edges(graph, subset)), (-1) ** len(subset))
        for subset in subsets))


def tree_x_expansion(tree: LabeledGraph) -> NCSymElement:
    """Signed x expansion of a tree's chromatic symmetric function.

    Sums x_sigma, with the global sign (-1)^(n-1), over the partitions sigma
    that leave no leaf in a singleton block and whose path closure uses every
    tree edge.  The path between two members of a block uses an edge exactly
    when they lie on different sides of it, so sigma is counted when every
    edge is cut: some block has members on both of its sides.  The block of
    a leaf cuts the leaf's edge, so only edges between inner vertices are
    tested, each test stopping at the first cutting block.
    """
    if not is_tree(tree):
        raise DomainError("tree expansion requires a tree")
    n = tree.n
    check_ground_set(n, "tree expansion")
    leaves = {v for v in range(1, n + 1) if tree.degree(v) == 1}
    allowed = [1] * (1 << (n + 1))
    for v in leaves:
        allowed[1 << v] = 0
    # one side of each inner edge: the vertices v reaches without crossing it
    everything = (1 << (n + 1)) - 2
    sides = [tree._reach_mask(v, everything ^ 1 << u) for u, v in tree.edges
             if u not in leaves and v not in leaves]
    sign = -1 if (n - 1) % 2 else 1
    key = [()] + [(s,) for s in range(1, 1 << (n + 1))]
    return from_block_masks("x", n, (
        (masks, sign) for masks in weighted_partitions(n, allowed, key)
        if all(any(0 != m & side != m for m in masks) for side in sides)))


def matching_x_identity(pi: SetPartition) -> NCSymElement:
    """For a partition with blocks of size at most two, the signed chromatic
    function of its clique union equals the single basis element x_pi.

    Returns (-1)^t * csf(clique union) converted to x, where t counts the
    two-element blocks, after asserting the equality."""
    if any(len(block) > 2 for block in pi.blocks):
        raise DomainError("matching identity needs blocks of size at most 2")
    t = sum(len(block) == 2 for block in pi.blocks)
    value = chromatic_symmetric_function(complete_graph_union(pi))
    signed = linear_combination("x", pi.n, ((value, (-1) ** t),))
    if signed != basis_term("x", pi):
        raise InvariantViolation(f"matching identity failed at {pi}")
    return signed


# ---------------------------------------------------------------------------
# classification reports


class EPositivityReport(NamedTuple):
    """Outcome of the elementary-basis positivity test.

    verdict is 'e_positive' exactly when every component is a clique, else
    'mixed' (a strictly positive and a strictly negative e coefficient both
    occur); 'zero' is reserved for the zero element and unreachable for
    graphs.  negative_witness, present whenever some component is not
    complete, pairs a witness partition with its negative coefficient: the
    witness splits the first non-complete component into {u, v} and the
    rest, for its first non-adjacent pair u < v, and keeps every other
    component whole.  top_coefficient is the coefficient of e at the
    components partition, always positive.
    """

    verdict: str
    is_clique_union: bool
    negative_witness: Optional[tuple[SetPartition, Fraction]]
    top_coefficient: Fraction

    def to_json_dict(self) -> dict:
        witness = None
        if self.negative_witness is not None:
            pi, coeff = self.negative_witness
            witness = {"partition": pi.to_text(),
                       "num": coeff.numerator, "den": coeff.denominator}
        return {
            "verdict": self.verdict,
            "is_clique_union": self.is_clique_union,
            "negative_witness": witness,
            "top_coefficient": {"num": self.top_coefficient.numerator,
                                "den": self.top_coefficient.denominator},
        }


def _component_top_coefficient(sub: LabeledGraph) -> Fraction:
    """Leading e coefficient of a connected graph on k vertices: |c(V)|/(k-1)!,
    since the top p coefficient is the connected Moebius value c(V).  A tree
    has |c(V)| = 1 and a clique |c(V)| = (k-1)!, so neither needs the table."""
    k, edges = sub.n, len(sub.edges)
    # the closed forms keep the component cap that connected_mobius applies
    check_ground_set(k, "connected-subset kernel")
    if edges == k - 1:
        return Fraction(1, factorial(k - 1))
    if 2 * edges == k * (k - 1):
        return Fraction(1)
    lead = connected_mobius(sub)[(1 << (k + 1)) - 2]
    return Fraction(abs(lead), factorial(k - 1))


def classify_e_positivity(graph: LabeledGraph) -> EPositivityReport:
    """Classify the e-basis sign pattern of a graph's chromatic function.

    The verdict rests on the clique-union criterion applied per component.
    The witness coefficient is the closed form -top.  On a connected graph
    with k vertices and top coefficient t, [e_{B1/B2}] = -t + (-1)^k
    [p_{B1/B2}] / ((|B1|-1)! (|B2|-1)!), and [p_{B1/B2}] = 0 when
    B1 = {u, v} is not an edge; e coefficients multiply over components.  The verify suite
    epos-scan checks the verdict and the witness against the e expansion.
    Components that relabel to the same graph share one top coefficient.
    """
    comp = components_partition(graph)
    # each component's edges, relabelled order-preservingly to [k], in one pass
    position = [0] * (graph.n + 1)
    for block in comp.blocks:
        for i, v in enumerate(block, 1):
            position[v] = i
    owner = comp.rgs
    relabelled: list[list[tuple[int, int]]] = [[] for _ in comp.blocks]
    for u, v in graph.edges:
        relabelled[owner[u - 1]].append((position[u], position[v]))
    tops: dict[tuple[int, tuple], Fraction] = {}
    top = Fraction(1)
    for block, edges in zip(comp.blocks, relabelled):
        sub = LabeledGraph(len(block), edges)
        key = (sub.n, sub.edges)
        if key not in tops:
            tops[key] = _component_top_coefficient(sub)
        top *= tops[key]
    cliqueish = is_clique_union(graph)
    witness = None
    if not cliqueish:
        pair = next(pair for block in comp.blocks for pair in combinations(block, 2)
                    if not graph.has_edge(*pair))
        blocks = [pair] + [tuple(x for x in block if x not in pair) for block in comp.blocks]
        witness = (SetPartition(graph.n, blocks), -top)
    verdict = "e_positive" if cliqueish else "mixed"
    return EPositivityReport(verdict, cliqueish, witness, top)


class XSignReport(NamedTuple):
    """Sign pattern of the x expansion: with k components, the chromatic
    function times (-1)^(n-k) has nonnegative coordinates everywhere, so
    the JSON key z_is_x_positive is always true."""

    n: int
    component_count: int
    sign: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "component_count": self.component_count,
            "sign": self.sign,
            "z_is_x_positive": True,
        }


def x_sign_report(graph: LabeledGraph) -> XSignReport:
    """Report the global sign (-1)^(n-k) of the x expansion, k the number of
    components; the verify suite xsign-scan checks every x coefficient."""
    k = len(components_partition(graph).blocks)
    return XSignReport(graph.n, k, -1 if (graph.n - k) % 2 else 1)
