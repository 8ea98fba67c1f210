"""Families of chromatic symmetric functions that form bases of NCSym.

A generator strategy assigns to each atomic partition a connected graph on
the same ground set whose components partition is that partition.  Slashing
the generators along the atomic decomposition of an arbitrary pi produces a
graph G_pi; the chromatic functions of these graphs, written in the p basis,
are supported on refinements of pi with diagonal coefficient mu_L(0, pi),
which is never zero.  Triangularity with nonzero diagonal certifies a basis.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

from .chromatic import chromatic_symmetric_function
from .elements import (
    NCSymElement,
    coefficient,
    convert,
    first_term_not_refining,
    iter_terms,
    linear_combination,
)
from .errors import DomainError, InvariantViolation, ResourceLimitError
from .graphs import (
    LabeledGraph,
    complete_graph_union,
    components_partition,
    format_graph,
    format_graph_line,
    slash_union,
)
from .partitions import (
    SetPartition,
    bell_number,
    check_ground_set,
    enumerate_partitions,
)

MAX_MATRIX_CELLS = 1_000_000


class AtomicGeneratorStrategy(NamedTuple):
    """Names a rule producing one connected generator graph per atomic
    partition; rule(alpha) must return a connected graph on alpha's ground
    set whose components partition equals alpha."""

    name: str
    rule: Callable[[SetPartition], LabeledGraph]


def _path_rule(alpha: SetPartition) -> LabeledGraph:
    edges = []
    for block in alpha.blocks:
        edges.extend((block[i], block[i + 1]) for i in range(len(block) - 1))
    return LabeledGraph(alpha.n, edges)


PATH_PER_BLOCK = AtomicGeneratorStrategy("path_per_block", _path_rule)
CLIQUE_PER_BLOCK = AtomicGeneratorStrategy("clique_per_block", complete_graph_union)


def strategy_from_generators(name: str,
                             table: dict[SetPartition, LabeledGraph]) -> AtomicGeneratorStrategy:
    """Wrap an explicit atomic-partition-to-graph table as a strategy.

    Every key must be atomic and every value a graph on the key's ground set
    whose components partition equals the key."""
    for alpha, g in table.items():
        if not alpha.is_atomic:
            raise DomainError(f"{alpha.to_text()} is not atomic")
        if g.n != alpha.n:
            raise DomainError(
                f"generator for {alpha.to_text()} must have {alpha.n} vertices, got {g.n}")
        if components_partition(g) != alpha:
            raise DomainError(
                f"generator for {alpha.to_text()} has components "
                f"{components_partition(g).to_text()}")
    frozen = dict(table)

    def rule(alpha: SetPartition) -> LabeledGraph:
        g = frozen.get(alpha)
        if g is None:
            raise DomainError(f"no generator supplied for {alpha.to_text()}")
        return g

    return AtomicGeneratorStrategy(name, rule)


def generator_graph(strategy: AtomicGeneratorStrategy,
                    alpha: SetPartition) -> LabeledGraph:
    """The strategy's generator for one atomic partition, validated."""
    if not alpha.is_atomic:
        raise DomainError(f"{alpha.to_text()} is not atomic")
    graph = strategy.rule(alpha)
    if graph.n != alpha.n or components_partition(graph) != alpha:
        raise InvariantViolation(
            f"strategy {strategy.name} returned a graph whose components "
            f"partition is not {alpha.to_text()}")
    return graph


def basis_graph(strategy: AtomicGeneratorStrategy, pi: SetPartition) -> LabeledGraph:
    """Build G_pi by slashing generators along pi's atomic decomposition."""
    graph = LabeledGraph(0, [])
    for atom in pi.atomic_decomposition():
        graph = slash_union(graph, generator_graph(strategy, atom))
    return graph


class ChromaticBasis:
    """A certified chromatic basis in degree n.

    order lists the set partitions in canonical enumeration order; graphs and
    elements are aligned with it, elements in the p basis.
    """

    def __init__(self, n: int, strategy: AtomicGeneratorStrategy,
                 order: tuple[SetPartition, ...], graphs: tuple[LabeledGraph, ...],
                 elements: tuple[NCSymElement, ...]) -> None:
        self.n = n
        self.strategy = strategy
        self.order = order
        self.graphs = graphs
        self.elements = elements

    @cached_property
    def _index(self) -> dict[SetPartition, int]:
        return {pi: i for i, pi in enumerate(self.order)}

    def index_of(self, pi: SetPartition) -> int:
        try:
            return self._index[pi]
        except KeyError:
            raise DomainError(
                f"{pi} is not a degree-{self.n} partition") from None

    def element_at(self, pi: SetPartition) -> NCSymElement:
        return self.elements[self.index_of(pi)]


def build_basis(n: int, strategy: AtomicGeneratorStrategy) -> ChromaticBasis:
    """Construct and certify the chromatic basis of degree n.

    Certification checks, for every partition pi, that the p expansion of
    Y applied to the slashed generator graph is supported on refinements of
    pi and that its diagonal coefficient is nonzero: together these make the
    transition matrix invertible, and a failure of either raises.  That the
    diagonal equals mu_L(0, pi) is checked by the tests and by the verify
    suite agreement, which matches the lattice route against edge subsets.
    """
    order = tuple(enumerate_partitions(n))
    graphs = []
    elements = []
    for pi in order:
        graph = basis_graph(strategy, pi)
        value = chromatic_symmetric_function(graph)
        sigma = first_term_not_refining(value, pi)
        if sigma is not None:
            raise InvariantViolation(
                f"p support of basis element at {pi.to_text()} leaks to "
                f"{sigma.to_text()}")
        if not coefficient(value, "p", pi):
            raise InvariantViolation(f"diagonal coefficient at {pi.to_text()} is 0")
        graphs.append(graph)
        elements.append(value)
    return ChromaticBasis(n, strategy, order, tuple(graphs), tuple(elements))


def express(f: NCSymElement, basis: ChromaticBasis) -> dict[SetPartition, Fraction]:
    """Coordinates of f in the chromatic basis, in canonical order, by
    back-substitution one block count k at a time: each element is supported
    on refinements of its partition, and partitions with k blocks refine each
    other only when equal.  So once the elements with fewer blocks are
    subtracted, the residue over the diagonal at each pi with k blocks is its
    coordinate, one linear combination subtracts the level, and the residue
    ends empty."""
    if f.degree != basis.n:
        raise DomainError(
            f"element of degree {f.degree} cannot be expressed "
            f"in a degree-{basis.n} basis")
    residue = convert(f, "p")
    coords: dict[SetPartition, Fraction] = {}
    for k in range(basis.n + 1):
        level = {pi: value / coefficient(element, "p", pi)
                 for pi, element in zip(basis.order, basis.elements)
                 if len(pi.blocks) == k and (value := coefficient(residue, "p", pi))}
        if level:
            coords.update(level)
            residue = linear_combination("p", basis.n, [(residue, 1)] + [
                (basis.element_at(pi), -c) for pi, c in level.items()])
    if not residue.is_zero():
        raise InvariantViolation("back-substitution left a nonzero residue")
    return {pi: coords[pi] for pi in basis.order if pi in coords}


def combine(basis: ChromaticBasis,
            coords: dict[SetPartition, Fraction]) -> NCSymElement:
    """Inverse of express: assemble the linear combination sum c_pi Y_{G_pi}."""
    return linear_combination("p", basis.n, ((basis.element_at(pi), c)
                                             for pi, c in coords.items() if c))


def check_matrix_size(n: int) -> None:
    """Refuse, before the basis is built, a dense degree-n transition matrix
    of B_n^2 cells when that exceeds MAX_MATRIX_CELLS."""
    check_ground_set(n, "partition enumeration")
    cells = bell_number(n) ** 2 if n >= 0 else 0
    if cells > MAX_MATRIX_CELLS:
        raise ResourceLimitError(
            f"dense degree-{n} transition matrix has {cells} cells, "
            f"over the cap of {MAX_MATRIX_CELLS}")


def transition_matrix(basis: ChromaticBasis) -> list[list[Fraction]]:
    """Rows follow canonical order; row i holds the p coordinates of basis
    element i, columns in the same canonical order."""
    column = {pi.to_text(): j for j, pi in enumerate(basis.order)}
    matrix = []
    for element in basis.elements:
        row = [Fraction(0)] * len(column)
        for text, num, den in iter_terms(element):
            row[column[text]] = Fraction(num, den)
        matrix.append(row)
    return matrix


def iter_basis_text(basis: ChromaticBasis) -> Iterator[str]:
    """The text form of basis, one line at a time: the generator graph of
    every partition, then the nonzero p coordinates of every element."""
    yield f"chromatic basis n={basis.n} strategy={basis.strategy.name}"
    for pi, graph in zip(basis.order, basis.graphs):
        yield f"\n  {pi}: {format_graph_line(graph)}"
    yield "\ntransition rows (basis element -> p coordinates):"
    for pi, element in zip(basis.order, basis.elements):
        cells = " ".join(f"{text}:{num}" if den == 1 else f"{text}:{num}/{den}"
                         for text, num, den in iter_terms(element))
        yield f"\n  {pi}: {cells}"


_ZERO_CELL = '      {\n        "den": 1,\n        "num": 0\n      }'


def _json_list(items: list[str], indent: str) -> str:
    """json.dumps(..., indent=2) of a list at this indent, from its items'
    text, each already indented one level deeper."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def iter_basis_json(basis: ChromaticBasis) -> Iterator[str]:
    """The JSON form of basis, as json.dumps(..., indent=2, sort_keys=True)
    writes it, one transition matrix row at a time: generators (partition
    and graph text), matrix (row i holds the p coordinates of element i as
    num/den pairs over the columns of order), n, order (partition texts in
    canonical order) and strategy."""
    texts = [pi.to_text() for pi in basis.order]
    column = {text: j for j, text in enumerate(texts)}
    yield '{\n  "generators": ' + _json_list([
        f'    {{\n      "graph": {json.dumps(format_graph(graph))},\n'
        f'      "partition": {json.dumps(text)}\n    }}'
        for text, graph in zip(texts, basis.graphs)], "  ")
    yield ',\n  "matrix": '
    separator = "["
    for element in basis.elements:
        cells = [_ZERO_CELL] * len(texts)
        for text, num, den in iter_terms(element):
            cells[column[text]] = f'      {{\n        "den": {den},\n        "num": {num}\n      }}'
        yield f"{separator}\n    {_json_list(cells, '    ')}"
        separator = ","
    yield "[]" if separator == "[" else "\n  ]"
    yield (f',\n  "n": {basis.n},\n  "order": '
           + _json_list([f"    {json.dumps(text)}" for text in texts], "  ")
           + f',\n  "strategy": {json.dumps(basis.strategy.name)}\n}}')
