import hashlib
import random
from fractions import Fraction

import pytest

from helpers import rank_over_q
from ncsym.chromatic import chromatic_symmetric_function
from ncsym.chromatic_bases import (
    CLIQUE_PER_BLOCK,
    MAX_MATRIX_CELLS,
    PATH_PER_BLOCK,
    AtomicGeneratorStrategy,
    basis_graph,
    build_basis,
    check_matrix_size,
    combine,
    express,
    generator_graph,
    strategy_from_generators,
    transition_matrix,
    transition_matrix_json,
)
from ncsym.elements import basis_term, convert, multiply, one
from ncsym.errors import DomainError, InvariantViolation, ResourceLimitError
from ncsym.graphs import LabeledGraph, components_partition, contraction_lattice
from ncsym.partitions import SetPartition, enumerate_partitions, parse_partition


class TestGenerators:
    def test_path_example(self):
        g = generator_graph(PATH_PER_BLOCK, parse_partition("1,3,4/2,5"))
        assert g.edges == ((1, 3), (2, 5), (3, 4))
        assert components_partition(g) == parse_partition("1,3,4/2,5")

    def test_clique_example(self):
        g = generator_graph(CLIQUE_PER_BLOCK, parse_partition("1,2,4/3"))
        assert g.edges == ((1, 2), (1, 4), (2, 4))

    def test_single_vertex(self):
        for strategy in (PATH_PER_BLOCK, CLIQUE_PER_BLOCK):
            g = generator_graph(strategy, parse_partition("1"))
            assert g.n == 1 and g.edges == ()

    def test_non_atomic_rejected(self):
        with pytest.raises(DomainError):
            generator_graph(PATH_PER_BLOCK, parse_partition("1/2"))

    def test_basis_graph_slashes_atoms(self):
        g = basis_graph(PATH_PER_BLOCK, parse_partition("1,2/3"))
        assert g.edges == ((1, 2),)
        # atoms of 13/2/45 are 13/2 and 12; cliques live inside blocks
        g = basis_graph(CLIQUE_PER_BLOCK, parse_partition("1,3/2/4,5"))
        assert g.edges == ((1, 3), (4, 5))

    def test_custom_generator_table(self):
        alpha = parse_partition("1,3/2")
        table = {
            parse_partition("1"): LabeledGraph(1, []),
            parse_partition("1,2"): LabeledGraph(2, [(1, 2)]),
            alpha: LabeledGraph(3, [(1, 3)]),
        }
        strategy = strategy_from_generators("custom", table)
        assert generator_graph(strategy, alpha).edges == ((1, 3),)
        with pytest.raises(DomainError):
            generator_graph(strategy, parse_partition("1,2,3"))

    def test_custom_table_validates_components(self):
        with pytest.raises(DomainError):
            strategy_from_generators("broken", {
                parse_partition("1,2"): LabeledGraph(2, [])})
        with pytest.raises(DomainError):
            strategy_from_generators("broken", {
                parse_partition("1/2"): LabeledGraph(2, [(1, 2)])})


class TestBuildBasis:
    def test_degree_one(self):
        basis = build_basis(1, PATH_PER_BLOCK)
        assert len(basis.elements) == 1
        assert basis.elements[0] == basis_term("p", parse_partition("1"))

    def test_clique_strategy_is_e_basis(self):
        for n in range(1, 6):
            basis = build_basis(n, CLIQUE_PER_BLOCK)
            for pi in basis.order:
                assert basis.element_at(pi) == basis_term("e", pi)

    def test_path_element_at_full_block(self):
        basis = build_basis(3, PATH_PER_BLOCK)
        expected = (basis_term("p", SetPartition.singletons(3))
                    - basis_term("p", parse_partition("1,2/3"))
                    - basis_term("p", parse_partition("1/2,3"))
                    + basis_term("p", parse_partition("1,2,3")))
        assert basis.element_at(parse_partition("1,2,3")) == expected

    @pytest.mark.parametrize("strategy", [PATH_PER_BLOCK, CLIQUE_PER_BLOCK])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_transition_is_triangular_and_invertible(self, n, strategy):
        basis = build_basis(n, strategy)
        matrix = transition_matrix(basis)
        size = len(basis.order)
        assert rank_over_q(matrix) == size
        index = {pi: i for i, pi in enumerate(basis.order)}
        for i, pi in enumerate(basis.order):
            # diagonal carries the lattice value, support refines pi
            lattice = contraction_lattice(basis.graphs[i])
            assert matrix[i][i] == lattice.mobius0[pi] != 0
            for j, sigma in enumerate(basis.order):
                if matrix[i][j]:
                    assert sigma.refines(pi)

    def test_elements_multiply_along_atoms(self):
        basis = build_basis(4, PATH_PER_BLOCK)
        for pi in basis.order:
            product = one("p")
            for atom in pi.atomic_decomposition():
                atom_value = chromatic_symmetric_function(
                    generator_graph(PATH_PER_BLOCK, atom))
                product = multiply(product, atom_value)
            assert product == basis.element_at(pi)

    def test_defective_strategy_is_caught(self):
        # a rule returning disconnected graphemes must fail certification
        broken = AtomicGeneratorStrategy(
            "broken", lambda alpha: LabeledGraph(alpha.n, []))
        with pytest.raises((InvariantViolation, DomainError)):
            build_basis(2, broken)


class TestExpress:
    def test_indicator_on_basis_elements(self):
        basis = build_basis(3, PATH_PER_BLOCK)
        for pi in basis.order:
            coords = express(basis.element_at(pi), basis)
            assert coords == {pi: Fraction(1)}

    def test_e_indicator_in_clique_basis(self):
        basis = build_basis(3, CLIQUE_PER_BLOCK)
        coords = express(basis_term("e", parse_partition("1,2,3")), basis)
        assert coords == {parse_partition("1,2,3"): Fraction(1)}

    def test_p_term_round_trip(self):
        basis = build_basis(3, PATH_PER_BLOCK)
        f = basis_term("p", parse_partition("1,2,3"))
        assert combine(basis, express(f, basis)) == f

    @pytest.mark.parametrize("strategy", [PATH_PER_BLOCK, CLIQUE_PER_BLOCK])
    def test_random_round_trips(self, strategy):
        rng = random.Random(20)
        for n in (2, 3, 4):
            basis = build_basis(n, strategy)
            partitions = enumerate_partitions(n)
            for _ in range(5):
                coords = {pi: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                          for pi in partitions if rng.random() < 0.6}
                coords = {pi: c for pi, c in coords.items() if c}
                f = combine(basis, coords)
                assert express(f, basis) == coords

    def test_degree_mismatch(self):
        basis = build_basis(3, PATH_PER_BLOCK)
        with pytest.raises(DomainError):
            express(basis_term("p", parse_partition("1,2")), basis)

    def test_combine_rejects_a_coordinate_outside_the_basis(self):
        basis = build_basis(3, PATH_PER_BLOCK)
        with pytest.raises(DomainError):
            combine(basis, {parse_partition("1,2"): Fraction(1)})
        with pytest.raises(DomainError):
            basis.index_of(parse_partition("1,2/3/4"))

    def test_combine_over_every_coordinate_at_n7(self):
        basis = build_basis(7, PATH_PER_BLOCK)
        assert all(basis.index_of(pi) == i for i, pi in enumerate(basis.order))
        coords = {pi: Fraction(i % 7 - 3, i % 4 + 1) for i, pi in enumerate(basis.order)}
        f = combine(basis, coords)
        # recorded with the linear order.index lookup
        assert len(f.terms) == 838
        assert hashlib.sha256(str(f).encode()).hexdigest() == (
            "412588ae6eaed97f57b6d915ad6c4631468b20a3b840ee18381f112c41d4bfb3")


class TestMatrixCap:
    def test_n7_fits_and_n8_is_refused(self):
        check_matrix_size(7)
        with pytest.raises(ResourceLimitError) as err:
            check_matrix_size(8)
        assert str(MAX_MATRIX_CELLS) in str(err.value)
        assert "17139600" in str(err.value)

    def test_negative_degree_is_left_to_build_basis(self):
        check_matrix_size(-1)
        with pytest.raises(DomainError):
            build_basis(-1, PATH_PER_BLOCK)


class TestJsonExport:
    def test_shape_and_orientation(self):
        basis = build_basis(2, CLIQUE_PER_BLOCK)
        data = transition_matrix_json(basis)
        assert data["order"] == ["1,2", "1/2"]
        assert data["strategy"] == "clique_per_block"
        # first row: e_{12} = -p_{12} + p_{1/2}
        assert data["matrix"][0] == [{"num": -1, "den": 1}, {"num": 1, "den": 1}]
        assert data["matrix"][1] == [{"num": 0, "den": 1}, {"num": 1, "den": 1}]
