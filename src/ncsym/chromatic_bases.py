"""Families of chromatic symmetric functions that form bases of NCSym.

A generator strategy assigns to each atomic partition a connected graph on
the same ground set whose components partition is that partition.  Slashing
the generators along the atomic decomposition of an arbitrary pi produces a
graph G_pi; the chromatic functions of these graphs, written in the p basis,
are supported on refinements of pi with diagonal coefficient mu_L(0, pi),
which is never zero.  Triangularity with nonzero diagonal certifies a basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .chromatic import chromatic_symmetric_function
from .elements import NCSymElement, _accumulate, convert
from .errors import DomainError, InvariantViolation, ResourceLimitError
from .graphs import LabeledGraph, complete_graph_union, components_partition, slash_union
from .partitions import (
    SetPartition,
    bell_number,
    check_ground_set,
    enumerate_partitions,
)

MAX_MATRIX_CELLS = 1_000_000


@dataclass(frozen=True)
class AtomicGeneratorStrategy:
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


@dataclass(frozen=True)
class ChromaticBasis:
    """A certified chromatic basis in degree n.

    order lists the set partitions in canonical enumeration order; graphs and
    elements are aligned with it, elements in the p basis.
    """

    n: int
    strategy: AtomicGeneratorStrategy
    order: tuple[SetPartition, ...]
    graphs: tuple[LabeledGraph, ...]
    elements: tuple[NCSymElement, ...]

    @cached_property
    def _index(self) -> dict[SetPartition, int]:
        return {pi: i for i, pi in enumerate(self.order)}

    def index_of(self, pi: SetPartition) -> int:
        try:
            return self._index[pi]
        except KeyError:
            raise DomainError(
                f"{pi.to_text()} is not a degree-{self.n} partition") from None

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
        for sigma, coeff in value._terms.items():
            if not sigma.refines(pi):
                raise InvariantViolation(
                    f"p support of basis element at {pi.to_text()} leaks to "
                    f"{sigma.to_text()}")
        if pi not in value._terms:
            raise InvariantViolation(f"diagonal coefficient at {pi.to_text()} is 0")
        graphs.append(graph)
        elements.append(value)
    return ChromaticBasis(n, strategy, order, tuple(graphs), tuple(elements))


def express(f: NCSymElement, basis: ChromaticBasis) -> dict[SetPartition, Fraction]:
    """Coordinates of f in the chromatic basis, by back-substitution.

    Works coarsest-first: the coarsest partition carrying a residue has its
    coefficient fixed by the diagonal, then that multiple of the basis
    element is subtracted; triangularity guarantees termination with an
    empty residue.
    """
    if f.degree != basis.n:
        raise DomainError(
            f"element of degree {f.degree} cannot be expressed "
            f"in a degree-{basis.n} basis")
    residue = dict(convert(f, "p")._terms)
    coords: dict[SetPartition, Fraction] = {}
    # coarsest first: fewest blocks, ties broken by canonical encoding
    for pi, element in sorted(zip(basis.order, basis.elements),
                              key=lambda item: (len(item[0].blocks), item[0].rgs)):
        value = residue.get(pi)
        if not value:
            continue
        coeff = value / element._terms[pi]
        coords[pi] = coeff
        for sigma, c in element._terms.items():
            _accumulate(residue, sigma, -coeff * c)
    if residue:
        raise InvariantViolation("back-substitution left a nonzero residue")
    return coords


def combine(basis: ChromaticBasis,
            coords: dict[SetPartition, Fraction]) -> NCSymElement:
    """Inverse of express: assemble the linear combination sum c_pi Y_{G_pi}."""
    total: dict[SetPartition, Fraction] = {}
    for pi, coeff in coords.items():
        if not coeff:
            continue
        for sigma, c in basis.element_at(pi)._terms.items():
            _accumulate(total, sigma, coeff * c)
    return NCSymElement._raw("p", basis.n, total)


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
    matrix = []
    for element in basis.elements:
        row = [Fraction(0)] * len(basis.order)
        for sigma, coeff in element._terms.items():
            row[basis.index_of(sigma)] = coeff
        matrix.append(row)
    return matrix


def transition_matrix_json(basis: ChromaticBasis) -> dict:
    """JSON-ready transition data: partition labels in canonical order and
    the matrix rows as exact fraction pairs."""
    return {
        "n": basis.n,
        "strategy": basis.strategy.name,
        "order": [pi.to_text() for pi in basis.order],
        "matrix": [[{"num": c.numerator, "den": c.denominator} for c in row]
                   for row in transition_matrix(basis)],
    }
