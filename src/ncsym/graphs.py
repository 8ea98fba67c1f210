"""Labeled simple graphs on {1, ..., n} and the constructions the chromatic
machinery needs: connected partitions, the bond-lattice Moebius table,
corpora of graphs and trees, cycle search, and a line-oriented text format.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations, product
from typing import Iterable, Iterator

from .errors import DomainError, GraphParseError, ResourceLimitError
from .partitions import (
    Permutation,
    SetPartition,
    block_elements,
    check_ground_set,
)

# parse_graph refuses a larger 'n' header before anything is allocated
MAX_VERTICES = 10_000


class LabeledGraph:
    """A finite simple graph on vertex labels 1..n; immutable and hashable.

    Edges are stored as a sorted tuple of (u, v) pairs with u < v, which is
    also the canonical encoding used for memoization keys.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        canon = set()
        for edge in edges:
            u, v = edge
            if not (1 <= u <= n and 1 <= v <= n):
                raise DomainError(f"edge {tuple(edge)} outside vertex range [{n}]")
            if u == v:
                raise DomainError(f"loop at vertex {u} not allowed")
            canon.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = tuple(sorted(canon))
        adj = [0] * (n + 1)
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._adj = tuple(adj)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not (1 <= u <= self.n and 1 <= v <= self.n):
            return False
        return bool(self._adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise DomainError(f"vertex {v} outside [{self.n}]")
        return bin(self._adj[v]).count("1")

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.n:
            raise DomainError(f"vertex {v} outside [{self.n}]")
        return tuple(u for u in range(1, self.n + 1) if self._adj[v] >> u & 1)

    def _reach_mask(self, start: int, allowed: int) -> int:
        """Vertices reachable from start using only vertices in allowed."""
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            rest = frontier
            while rest:
                low = rest & -rest
                nxt |= self._adj[low.bit_length() - 1]
                rest ^= low
            nxt &= allowed & ~comp
            comp |= nxt
            frontier = nxt
        return comp

    def component_masks(self) -> list[int]:
        full = (1 << (self.n + 1)) - 2  # bits 1..n
        masks = []
        seen = 0
        for v in range(1, self.n + 1):
            if seen >> v & 1:
                continue
            mask = self._reach_mask(v, full)
            masks.append(mask)
            seen |= mask
        return masks

    def is_connected_subset(self, mask: int) -> bool:
        """True when the induced subgraph on the vertex bitmask is connected."""
        if mask == 0:
            return True
        start = (mask & -mask).bit_length() - 1
        return self._reach_mask(start, mask) == mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"LabeledGraph({self.n}, {list(self.edges)!r})"


def components_partition(graph: LabeledGraph) -> SetPartition:
    """Set partition of the vertices into connected components."""
    # component masks come out by increasing least vertex, so blocks are canonical
    return SetPartition._raw(graph.n, tuple(map(block_elements, graph.component_masks())))


def complete_graph_union(pi: SetPartition) -> LabeledGraph:
    """Disjoint union of complete graphs, one per block of pi."""
    edges = []
    for block in pi.blocks:
        edges.extend(combinations(block, 2))
    return LabeledGraph(pi.n, edges)


def slash_union(g: LabeledGraph, h: LabeledGraph) -> LabeledGraph:
    """Place h next to g with its labels shifted up by g.n."""
    shifted = [(u + g.n, v + g.n) for u, v in h.edges]
    return LabeledGraph(g.n + h.n, list(g.edges) + shifted)


def delete_edges(graph: LabeledGraph, removed: Iterable[tuple[int, int]]) -> LabeledGraph:
    """Remove the listed edges; all of them must be present."""
    gone = set()
    for edge in removed:
        u, v = edge
        key = (u, v) if u < v else (v, u)
        if key not in graph.edges:
            raise DomainError(f"edge {tuple(edge)} not present in the graph")
        gone.add(key)
    return LabeledGraph(graph.n, [e for e in graph.edges if e not in gone])


def relabel(delta: Permutation, graph: LabeledGraph) -> LabeledGraph:
    """Apply a permutation of [n] to the vertex labels."""
    if delta.n != graph.n:
        raise DomainError("permutation size must match the vertex count")
    return LabeledGraph(graph.n, [(delta(u), delta(v)) for u, v in graph.edges])


def induced_subgraph(graph: LabeledGraph, vertices: Iterable[int]) -> LabeledGraph:
    """Induced subgraph on the given vertices, relabeled order-preservingly to [k]."""
    ordered = sorted(set(vertices))
    for v in ordered:
        if not 1 <= v <= graph.n:
            raise DomainError(f"vertex {v} outside [{graph.n}]")
    position = {v: i + 1 for i, v in enumerate(ordered)}
    edges = [(position[u], position[v]) for u, v in graph.edges
             if u in position and v in position]
    return LabeledGraph(len(ordered), edges)


def is_tree(graph: LabeledGraph) -> bool:
    return (graph.n >= 1 and len(graph.edges) == graph.n - 1
            and len(graph.component_masks()) == 1)


def is_clique_union(graph: LabeledGraph) -> bool:
    """True when every connected component is complete."""
    for mask in graph.component_masks():
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if (graph._adj[v] & mask) != mask & ~low:
                return False
            rest ^= low
    return True


def bond_mobius(graph: LabeledGraph) -> list[int]:
    """The table m over vertex bitmasks (bit x for vertex x): m[S] is the
    Moebius value mu(0, 1) of the bond lattice L(G[S]), nonzero exactly when
    S is nonempty and connected.

    The interval [0, pi] of L(G) is the product of the L(G[B]) over the
    blocks B of pi, so mu(0, pi) = prod_B m[B], and the defining recursion,
    the sum of mu(0, sigma) over L(G[S]) being 0, solves for m[S] over masks
    in increasing order.  W[S] sums prod_B m[B] over the partitions of S
    into connected blocks, each block chosen as a submask holding min S;
    W[S] = 0 for connected S with two or more vertices; O(3^n).
    """
    n = graph.n
    check_ground_set(n, "bond lattice")
    size = 1 << (n + 1)
    m = [0] * size
    whole = [0] * size
    whole[0] = 1
    for s in range(2, size, 2):
        low = s & -s
        rest = s ^ low
        if not rest:
            m[s] = whole[s] = 1
            continue
        # m[s] is still 0, so the block s itself adds nothing
        total = 0
        sub = rest
        while True:
            value = m[sub | low]
            if value:
                total += value * whole[rest ^ sub]
            if not sub:
                break
            sub = (sub - 1) & rest
        if graph.is_connected_subset(s):
            m[s] = -total
        else:
            whole[s] = total
    return m


# ---------------------------------------------------------------------------
# corpora


def all_labeled_graphs(n: int) -> Iterator[LabeledGraph]:
    """Every graph on [n], enumerated by edge-set bitmask in sorted edge order."""
    if n < 0:
        raise DomainError(f"graph corpus needs n >= 0, got {n}")
    check_ground_set(n, "graph corpus")
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield LabeledGraph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def all_labeled_trees(n: int) -> Iterator[LabeledGraph]:
    """Every labeled tree on [n], enumerated by lexicographic Pruefer sequence."""
    if n < 1:
        raise DomainError(f"tree corpus needs n >= 1, got {n}")
    check_ground_set(n, "tree corpus")
    if n == 1:
        yield LabeledGraph(1)
        return
    for seq in product(range(1, n + 1), repeat=n - 2):
        yield _tree_from_pruefer(seq, n)


def _tree_from_pruefer(seq: tuple[int, ...], n: int) -> LabeledGraph:
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return LabeledGraph(n, edges)


def random_graph(n: int, edge_probability: float, seed: int) -> LabeledGraph:
    """Independent coin flip per possible edge, driven by the explicit seed."""
    if n < 0:
        raise DomainError(f"random graph needs n >= 0, got {n}")
    check_ground_set(n, "random graph")
    if not 0 <= edge_probability <= 1:
        raise DomainError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [pair for pair in combinations(range(1, n + 1), 2)
             if rng.random() < edge_probability]
    return LabeledGraph(n, edges)


def find_cycles(graph: LabeledGraph, max_length: int) -> list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """Simple cycles with 3..max_length vertices.

    Each cycle appears once as (vertices, edges): the vertex tuple starts at
    the smallest label and runs in the direction whose second vertex is
    smaller than its last; edges follow the traversal and close the loop.
    """
    if max_length < 0:
        raise DomainError("max_length must be nonnegative")
    cycles = []
    if max_length < 3:
        return cycles
    n = graph.n

    def extend(path: list[int], mask: int) -> None:
        last = path[-1]
        start = path[0]
        if len(path) >= 3 and graph.has_edge(last, start) and path[1] < path[-1]:
            vertices = tuple(path)
            edges = tuple((min(a, b), max(a, b))
                          for a, b in zip(path, path[1:] + [start]))
            cycles.append((vertices, edges))
        if len(path) >= max_length:
            return
        for u in range(start + 1, n + 1):
            if mask >> u & 1 or not graph.has_edge(last, u):
                continue
            path.append(u)
            extend(path, mask | 1 << u)
            path.pop()

    for start in range(1, n + 1):
        extend([start], 1 << start)
    cycles.sort(key=lambda item: (len(item[0]), item[0]))
    return cycles


# ---------------------------------------------------------------------------
# text format


def parse_graph(text: str) -> LabeledGraph:
    """Parse the line format: '#' comments, one 'n <N>' header, then
    'e <u> <v>' lines with 1 <= u < v <= N.  Errors carry line numbers; a
    header above MAX_VERTICES raises ResourceLimitError instead."""
    n = None
    edges = []
    seen = set()
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "n":
            if n is not None:
                raise GraphParseError("duplicate 'n' header", lineno)
            if len(fields) != 2:
                raise GraphParseError("header must be 'n <N>'", lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise GraphParseError(f"bad vertex count {fields[1]!r}", lineno) from None
            if n < 0:
                raise GraphParseError("vertex count must be nonnegative", lineno)
            if n > MAX_VERTICES:
                raise ResourceLimitError(
                    f"line {lineno}: vertex count {n} exceeds the cap of {MAX_VERTICES}")
        elif fields[0] == "e":
            if n is None:
                raise GraphParseError("edge line before 'n' header", lineno)
            if len(fields) != 3:
                raise GraphParseError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphParseError(f"bad edge endpoints {fields[1:]!r}", lineno) from None
            if not (1 <= u < v <= n):
                raise GraphParseError(
                    f"edge ({u}, {v}) violates 1 <= u < v <= {n}", lineno)
            if (u, v) in seen:
                raise GraphParseError(f"duplicate edge ({u}, {v})", lineno)
            seen.add((u, v))
            edges.append((u, v))
        else:
            raise GraphParseError(f"unrecognized line start {fields[0]!r}", lineno)
    if n is None:
        raise GraphParseError("missing 'n <N>' header", lineno or 1)
    return LabeledGraph(n, edges)


def format_graph(graph: LabeledGraph) -> str:
    """Canonical text form readable by parse_graph."""
    lines = [f"n {graph.n}"]
    lines.extend(f"e {u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def format_graph_line(graph: LabeledGraph) -> str:
    """The text form of format_graph on one line, its lines joined by '; '."""
    return format_graph(graph).replace("\n", "; ").strip("; ")
