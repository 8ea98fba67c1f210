"""Chromatic symmetric functions in noncommuting variables.

The default route ``auto`` is the exponential formula over connected vertex
subsets: Y_G = sum over set partitions pi of prod_B c(B) p_pi, where c(S) is
the bond-lattice Moebius value of the induced subgraph on S, tabulated for
every vertex subset in O(3^n) time.  Four independent routes serve as its
oracles and must agree with it:

* ``subset``     signed sum over edge subsets, indexed by the partition into
                 connected components of each spanning subgraph;
* ``mobius``     Moebius-weighted sum over the contraction lattice;
* ``delcon``     deletion-contraction recursion on a relabeled last edge;
* ``definition`` monomial expansion over proper-coloring patterns, i.e. the
                 partitions all of whose blocks are independent sets.

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
and the suite takes the same 1.9 s of CPU with or without a cache.  The only
module state is the memo shared by
deletion-contraction calls, which pays because the agreement suite runs that
route on many graphs with common subgraphs: made local to one call, it raised
the CPU time of ``verify --suite agreement --n 5`` from 4.0 s to 5.2 s
(medians of five runs on a 2-vCPU VM).  The memo changes no result, only how
much of the expansion budget a call uses.
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
    contract_last_edge,
    contraction_lattice,
    delete_edges,
    induced_subgraph,
    is_clique_union,
    is_tree,
)
from .partitions import (
    Permutation,
    SetPartition,
    bell_number,
    check_ground_set,
    weighted_partition_sums,
    weighted_partitions,
)

DEFAULT_SUBSET_EDGE_LIMIT = 22
DEFAULT_DELCON_BUDGET = 1 << 21

_delcon_memo: dict[tuple, dict] = {}


def clear_caches() -> None:
    """Drop the deletion-contraction memo, the module's only state."""
    _delcon_memo.clear()


# ---------------------------------------------------------------------------
# route 1: edge subsets


def _walk_edge_subsets(graph: LabeledGraph,
                       visit: Callable[[tuple[tuple[int, ...], ...], int], None]) -> None:
    """Call visit(blocks, sign) once per edge subset, where blocks is the
    canonical component partition of the subset and sign is (-1)^|subset|.

    Uses a union-find with an undo trail so each inclusion/exclusion step is
    near constant time.
    """
    n = graph.n
    edges = graph.edges
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    trail: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def union(u: int, v: int) -> None:
        ru, rv = find(u), find(v)
        if ru == rv:
            trail.append(0)
            return
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        size[ru] += size[rv]
        trail.append(rv)

    def undo() -> None:
        rv = trail.pop()
        if rv:
            ru = parent[rv]
            parent[rv] = rv
            size[ru] -= size[rv]

    def blocks_now() -> tuple[tuple[int, ...], ...]:
        groups: dict[int, list[int]] = {}
        for x in range(1, n + 1):
            groups.setdefault(find(x), []).append(x)
        return tuple(tuple(g) for g in sorted(groups.values(), key=lambda b: b[0]))

    def recurse(i: int, sign: int) -> None:
        if i == len(edges):
            visit(blocks_now(), sign)
            return
        recurse(i + 1, sign)
        union(*edges[i])
        recurse(i + 1, -sign)
        undo()

    recurse(0, 1)


def _check_subset_limit(graph: LabeledGraph, edge_limit: Optional[int]) -> None:
    limit = DEFAULT_SUBSET_EDGE_LIMIT if edge_limit is None else edge_limit
    if len(graph.edges) > limit:
        raise ResourceLimitError(
            f"edge-subset expansion limited to {limit} edges, graph has {len(graph.edges)}")


def csf_from_edge_subsets(graph: LabeledGraph,
                          edge_limit: Optional[int] = None) -> NCSymElement:
    """Signed edge-subset expansion; returns a p-basis element."""
    _check_subset_limit(graph, edge_limit)
    counts: dict[tuple, int] = {}

    def visit(blocks, sign):
        counts[blocks] = counts.get(blocks, 0) + sign

    _walk_edge_subsets(graph, visit)
    terms = {SetPartition._raw(graph.n, blocks): Fraction(total)
             for blocks, total in counts.items() if total}
    return NCSymElement._raw("p", graph.n, terms)


def classical_csf(graph: LabeledGraph,
                  edge_limit: Optional[int] = None) -> SymElement:
    """The commuting-variable chromatic symmetric function, computed by its
    own edge-subset expansion over power sums indexed by component shapes."""
    _check_subset_limit(graph, edge_limit)
    from .partitions import IntegerPartition

    counts: dict[tuple, int] = {}

    def visit(blocks, sign):
        lam = tuple(sorted((len(b) for b in blocks), reverse=True))
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
    """The partition pairs that convert(Y_G, basis) visits out of p, counted
    from connected_mobius without building Y_G: its p support is the
    partitions into connected blocks.  Into e, h or x each support partition
    pi costs prod_B B_|B|, into m B_k(pi); the latter sum is recounted by the
    coarsening sigma, each block C of sigma paying the number of connected
    partitions of C."""
    if basis == "p":
        return 0
    connected = [1 if value else 0 for value in connected_mobius(graph)]
    full = (1 << (graph.n + 1)) - 2
    if basis == "m":
        return weighted_partition_sums(graph.n, weighted_partition_sums(graph.n, connected))[full]
    weight = [bell_number(mask.bit_count()) if flag else 0
              for mask, flag in enumerate(connected)]
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


class _BudgetExhausted(Exception):
    """Raised inside the recursion; reported with the limit by the caller."""


def csf_by_deletion_contraction(graph: LabeledGraph,
                                budget: Optional[int] = None) -> NCSymElement:
    """Deletion-contraction recursion, memoized on the exact labeled graph.

    Each expansion relabels the lexicographically largest edge onto the two
    top labels (order-preservingly elsewhere), recurses on deletion and on
    contraction followed by induction, then undoes the relabeling.
    Disconnected graphs split into components first.
    """
    limit = DEFAULT_DELCON_BUDGET if budget is None else budget
    try:
        terms = _delcon(graph, [limit])
    except _BudgetExhausted:
        raise ResourceLimitError(
            "deletion-contraction expansion budget exhausted "
            f"(limit {limit} expansions)") from None
    return NCSymElement._raw("p", graph.n, dict(terms))


def _delcon(graph: LabeledGraph, remaining: list[int]) -> dict:
    key = graph.key()
    hit = _delcon_memo.get(key)
    if hit is not None:
        return hit
    if remaining[0] <= 0:
        raise _BudgetExhausted
    remaining[0] -= 1
    n = graph.n
    if not graph.edges:
        result = {SetPartition.singletons(n): Fraction(1)}
    else:
        comp = components_partition(graph)
        if len(comp.blocks) > 1:
            result = _delcon_split(graph, comp, remaining)
        else:
            u, v = graph.edges[-1]
            others = [x for x in range(1, n + 1) if x != u and x != v]
            images = [0] * n
            images[u - 1] = n - 1
            images[v - 1] = n
            for slot, x in enumerate(others, start=1):
                images[x - 1] = slot
            delta = Permutation(images)
            moved = LabeledGraph(n, [(delta(a), delta(b)) for a, b in graph.edges])
            deleted = LabeledGraph(n, [e for e in moved.edges if e != (n - 1, n)])
            del_terms = _delcon(deleted, remaining)
            con_terms = _delcon(contract_last_edge(moved), remaining)
            combined = dict(del_terms)
            for pi, coeff in con_terms.items():
                _accumulate(combined, pi.adjoin_top(), -coeff)
            inverse = delta.inverse()
            result = {pi.permuted(inverse): coeff for pi, coeff in combined.items()}
    return _delcon_memo.setdefault(key, result)


def _delcon_split(graph: LabeledGraph, comp: SetPartition,
                  remaining: list[int]) -> dict:
    # product over components, then undo the relabeling onto slash position
    order = [x for block in comp.blocks for x in block]
    images = [0] * graph.n
    for slot, x in enumerate(order, start=1):
        images[x - 1] = slot
    delta = Permutation(images)
    product_terms = {SetPartition.empty(): Fraction(1)}
    for block in comp.blocks:
        piece = induced_subgraph(graph, block)
        piece_terms = _delcon(piece, remaining)
        merged: dict[SetPartition, Fraction] = {}
        for left, a in product_terms.items():
            for right, b in piece_terms.items():
                merged[left.slash(right)] = a * b
        product_terms = merged
    inverse = delta.inverse()
    return {pi.permuted(inverse): coeff for pi, coeff in product_terms.items()}


# ---------------------------------------------------------------------------
# route 4: the coloring definition


def csf_from_colorings(graph: LabeledGraph) -> NCSymElement:
    """Monomial expansion: one m term per partition of the vertices into
    independent sets (the equality patterns of proper colorings)."""
    n = graph.n
    check_ground_set(n, "coloring expansion")
    adj = graph._adj
    independent = [not any(s >> x & 1 and adj[x] & s for x in range(1, n + 1))
                   for s in range(1 << (n + 1))]
    terms = weighted_partitions(n, independent)
    for pi in terms:
        terms[pi] = Fraction(1)
    return NCSymElement._raw("m", n, terms)


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
        index = next(i for i, sub in enumerate(subgraphs) if not is_clique_union(sub))
        sub, block = subgraphs[index], comp.blocks[index]
        pair = next((u, v) for u, v in combinations(range(1, sub.n + 1), 2)
                    if not sub.has_edge(u, v))
        embedded_blocks = [tuple(block[x - 1] for x in pair),
                           tuple(x for i, x in enumerate(block, 1) if i not in pair)]
        embedded_blocks.extend(b for i, b in enumerate(comp.blocks) if i != index)
        witness = (SetPartition(graph.n, embedded_blocks), -top)
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
