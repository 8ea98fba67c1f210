"""Chromatic symmetric functions in noncommuting variables.

The default route ``auto`` is the exponential formula over connected vertex
subsets: Y_G = sum over set partitions pi of prod_B c(B) p_pi, where c(S) is
the bond-lattice Moebius value of the induced subgraph on S, tabulated for
every vertex subset in O(3^n) time.  Four independent routes serve as its
oracles and must agree with it:

* ``subset``     signed sum over edge subsets, indexed by the partition into
                 connected components of each spanning subgraph;
* ``mobius``     Moebius-weighted sum over the contraction lattice;
* ``delcon``     deletion-contraction recursion on the original labels;
* ``definition`` monomial expansion over proper-coloring patterns, i.e. the
                 partitions all of whose blocks are independent sets.

``definition`` is also the CLI's default route into m: its terms are the
output, where the kernel would need a change of basis out of p.  ``verify
--suite agreement`` still checks it independently, converted into p.

The kernel, ``definition`` and ``mobius`` all enumerate partitions through
``partitions.weighted_partitions``, each with its own per-block table:
connected Moebius values, independent sets, connected sets.  ``subset`` and
``delcon`` enumerate no partitions, so a fault in that one enumerator still
shows up as a disagreement.

On top of these sit the classification reports (elementary-basis positivity,
the global sign pattern in the x basis), the k-cycle deletion identity, the
tree expansion in the x basis, and the matching identity tying single x
terms to clique unions.

No route caches its results: one Y_G costs one O(3^n) table, which is cheap
to recompute on the graphs that repeat.  Of the 7,104 Y_G that ``verify
--suite multiplicativity --n 6`` computes, 3,886 repeat an earlier graph,
and the suite takes the same 1.9 s of CPU with or without a cache.  The module
keeps no state: deletion-contraction memoizes its subproblems for one call
only, so its result and its use of the expansion budget do not depend on
what ran before.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, prod
from typing import Callable, Iterable, Optional

from .elements import (
    NCSymElement,
    SymElement,
    _accumulate,
    basis_term,
    convert,
    scale,
)
from .errors import DomainError, InvariantViolation, ResourceLimitError
from .graphs import (
    LabeledGraph,
    complete_graph_union,
    components_partition,
    contraction_lattice,
    delete_edges,
    induced_subgraph,
    is_clique_union,
    is_tree,
)
from .partitions import (
    IntegerPartition,
    SetPartition,
    bell_number,
    block_elements,
    check_ground_set,
    clear_caches as clear_partition_caches,
    weighted_partition_sums,
    weighted_partitions,
)

SUBSET_EDGE_LIMIT = 22
DELCON_BUDGET = 1 << 21


def clear_caches() -> None:
    """Drop the set partitions of small masks that ``partitions`` caches; no
    route here keeps state between calls."""
    clear_partition_caches()


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
    terms = {SetPartition._raw(graph.n, tuple(map(block_elements, masks))): Fraction(total)
             for masks, total in counts.items() if total}
    return NCSymElement._raw("p", graph.n, terms)


def classical_csf(graph: LabeledGraph) -> SymElement:
    """The commuting-variable chromatic symmetric function, computed by its
    own edge-subset expansion over power sums indexed by component shapes."""
    _check_subset_limit(graph)
    counts: dict[tuple, int] = {}

    def visit(masks, sign):
        lam = tuple(sorted(map(int.bit_count, masks), reverse=True))
        counts[lam] = counts.get(lam, 0) + sign

    _walk_edge_subsets(graph, visit)
    terms = {IntegerPartition(lam): Fraction(total)
             for lam, total in counts.items() if total}
    return SymElement._raw("p", graph.n, terms)


# ---------------------------------------------------------------------------
# auto: the exponential formula over connected vertex subsets


def connected_mobius(graph: LabeledGraph) -> list[int]:
    """The table c over vertex bitmasks (bit x for vertex x): c[S] is the
    Moebius value mu(0, 1) of the bond lattice of the induced subgraph on S,
    nonzero exactly when S is nonempty and connected.

    Splitting the edge subsets of G[S] by the component T of min S gives
    [S independent] = sum over min S in T <= S, S minus T independent, of
    c[T], which is solved for c[S] over masks in increasing order; O(3^n).
    """
    n = graph.n
    check_ground_set(n, "connected-subset kernel")
    adj = graph._adj
    size = 1 << (n + 1)
    indep = bytearray(size)
    indep[0] = 1
    c = [0] * size
    for s in range(2, size, 2):
        low = s & -s
        rest = s ^ low
        indep[s] = indep[rest] and not adj[low.bit_length() - 1] & rest
        total = indep[s]
        sub = rest
        while sub:
            if indep[sub]:
                total -= c[s ^ sub]
            sub = (sub - 1) & rest
        c[s] = total
    return c


def csf_from_connected_subsets(graph: LabeledGraph) -> NCSymElement:
    """Y_G = sum over set partitions pi of prod_B c[B] p_pi, with c from
    connected_mobius: mu(0, pi) in the bond lattice factors over the blocks
    of pi."""
    terms = weighted_partitions(graph.n, connected_mobius(graph))
    for pi, value in terms.items():
        terms[pi] = Fraction(value)
    return NCSymElement._raw("p", graph.n, terms)


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
    """Moebius-weighted sum of power sums over the connected partitions."""
    lattice = contraction_lattice(graph)
    terms = {pi: Fraction(value) for pi, value in lattice.mobius0.items()}
    return NCSymElement._raw("p", graph.n, terms)


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
                total = terms.get(lifted, 0) - coeff
                if total:
                    terms[lifted] = total
                else:
                    del terms[lifted]
        memo[key] = terms
        return terms

    terms = {SetPartition._raw(n, tuple(map(block_elements, blocks))): Fraction(coeff)
             for blocks, coeff in expand((1 << (n + 1)) - 2, graph).items()}
    return NCSymElement._raw("p", n, terms)


# ---------------------------------------------------------------------------
# route 4: the coloring definition


def _independent_sets(graph: LabeledGraph) -> bytearray:
    """The table over vertex bitmasks (bit x for vertex x) that is 1 exactly
    on the independent sets, filled as connected_mobius fills its own."""
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


def csf_from_colorings(graph: LabeledGraph) -> NCSymElement:
    """Monomial expansion: one m term per partition of the vertices into
    independent sets (the equality patterns of proper colorings)."""
    terms = weighted_partitions(graph.n, _independent_sets(graph))
    for pi in terms:
        terms[pi] = Fraction(1)
    return NCSymElement._raw("m", graph.n, terms)


# ---------------------------------------------------------------------------
# dispatcher


def chromatic_symmetric_function(graph: LabeledGraph,
                                 method: str = "auto") -> NCSymElement:
    """Compute the chromatic symmetric function of a labeled graph.

    method 'auto' runs the connected-subset kernel, refusing graphs with more
    than NCSYM_MAX_N vertices.  The oracle routes 'subset', 'mobius', 'delcon'
    and 'definition' compute the same function independently; 'definition'
    returns an m-basis element, all others return p-basis.
    """
    if method == "auto":
        return csf_from_connected_subsets(graph)
    if method == "subset":
        return csf_from_edge_subsets(graph)
    if method == "mobius":
        return csf_from_contraction_lattice(graph)
    if method == "delcon":
        return csf_by_deletion_contraction(graph)
    if method == "definition":
        return csf_from_colorings(graph)
    raise DomainError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# identities


def k_deletion_sum(graph: LabeledGraph,
                   cycle_edges: Iterable[tuple[int, int]]) -> NCSymElement:
    """Alternating sum of chromatic functions over deletions of all subsets
    of the first k-1 listed cycle edges.  The listed edges must form a simple
    cycle in the graph; the result is the zero element of the same degree."""
    edges = []
    for edge in cycle_edges:
        u, v = edge
        edges.append((u, v) if u < v else (v, u))
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
    cycle_graph = LabeledGraph(graph.n, edges)
    mask = 0
    for v in degree:
        mask |= 1 << v
    if not cycle_graph.is_connected_subset(mask):
        raise DomainError("listed edges do not form a single cycle")

    removable = edges[:-1]
    totals: dict[SetPartition, Fraction] = {}
    for mask_bits in range(1 << len(removable)):
        subset = [removable[i] for i in range(len(removable)) if mask_bits >> i & 1]
        sign = -1 if len(subset) % 2 else 1
        value = chromatic_symmetric_function(delete_edges(graph, subset))
        for pi, coeff in value._terms.items():
            _accumulate(totals, pi, sign * coeff)
    return NCSymElement._raw("p", graph.n, totals)


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
    sign = Fraction(-1 if (n - 1) % 2 else 1)
    terms = {}
    for sigma in weighted_partitions(n, allowed):
        masks = [sum(1 << x for x in block) for block in sigma.blocks]
        if all(any(0 != m & side != m for m in masks) for side in sides):
            terms[sigma] = sign
    return NCSymElement._raw("x", n, terms)


def matching_x_identity(pi: SetPartition) -> NCSymElement:
    """For a partition with blocks of size at most two, the signed chromatic
    function of its clique union equals the single basis element x_pi.

    Returns (-1)^t * csf(clique union) converted to x, where t counts the
    two-element blocks, after asserting the equality."""
    t = 0
    for block in pi.blocks:
        if len(block) > 2:
            raise DomainError("matching identity needs blocks of size at most 2")
        if len(block) == 2:
            t += 1
    value = chromatic_symmetric_function(complete_graph_union(pi))
    signed = convert(scale(value, -1 if t % 2 else 1), "x")
    if signed != basis_term("x", pi):
        raise InvariantViolation(f"matching identity failed at {pi}")
    return signed


# ---------------------------------------------------------------------------
# classification reports


@dataclass(frozen=True)
class EPositivityReport:
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
    since the top p coefficient is the connected Moebius value c(V)."""
    lead = connected_mobius(sub)[(1 << (sub.n + 1)) - 2]
    return Fraction(abs(lead), factorial(sub.n - 1))


def classify_e_positivity(graph: LabeledGraph) -> EPositivityReport:
    """Classify the e-basis sign pattern of a graph's chromatic function.

    The verdict rests on the clique-union criterion applied per component.
    The witness coefficient is the closed form -top.  On a connected graph
    with k vertices and top coefficient t, [e_{B1/B2}] = -t + (-1)^k
    [p_{B1/B2}] / ((|B1|-1)! (|B2|-1)!), and [p_{B1/B2}] = 0 when
    B1 = {u, v} is not an edge; e coefficients multiply over components.  The verify suite
    epos-scan checks the verdict and the witness against the e expansion.
    """
    comp = components_partition(graph)
    subgraphs = [induced_subgraph(graph, block) for block in comp.blocks]
    top = prod(map(_component_top_coefficient, subgraphs), start=Fraction(1))
    cliqueish = is_clique_union(graph)
    witness = None
    if not cliqueish:
        pair = next(pair for block in comp.blocks for pair in combinations(block, 2)
                    if not graph.has_edge(*pair))
        blocks = [pair] + [tuple(x for x in block if x not in pair) for block in comp.blocks]
        witness = (SetPartition(graph.n, blocks), -top)
    verdict = "e_positive" if cliqueish else "mixed"
    return EPositivityReport(verdict, cliqueish, witness, top)


@dataclass(frozen=True)
class XSignReport:
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
