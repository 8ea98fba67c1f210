import hashlib
import json
import random
from fractions import Fraction
from math import prod

import pytest

import ncsym.chromatic_bases
import ncsym.elements
from helpers import basis_json_payload, no_term_view, rank_over_q
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
    iter_basis_json,
    iter_basis_text,
    strategy_from_generators,
    transition_matrix,
)
from ncsym.elements import basis_term, multiply, one
from ncsym.errors import DomainError, InvariantViolation, ResourceLimitError
from ncsym.graphs import (
    LabeledGraph,
    bond_mobius,
    components_partition,
    format_graph_line,
)
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
            # diagonal carries the lattice value mu(0, pi), support refines pi
            m = bond_mobius(basis.graphs[i])
            mobius0 = prod(m[sum(1 << x for x in block)] for block in pi.blocks)
            assert matrix[i][i] == mobius0 != 0
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
        for key in (parse_partition("1,2"), "1,2/3"):
            with pytest.raises(DomainError):
                combine(basis, {key: Fraction(1)})
        for key in (parse_partition("1,2/3/4"), "1,2/3"):
            with pytest.raises(DomainError):
                basis.index_of(key)
        # a zero coordinate looks up no partition
        assert combine(basis, {"1,2/3": Fraction(0)}).is_zero()

    @pytest.mark.parametrize("strategy", [PATH_PER_BLOCK, CLIQUE_PER_BLOCK])
    def test_round_trip_builds_no_view(self, strategy):
        basis = build_basis(4, strategy)
        # every fifth coordinate is 0, which combine skips
        coords = {pi: Fraction(i % 5 - 2, i % 3 + 1) for i, pi in enumerate(basis.order)}
        with no_term_view():
            f = combine(basis, coords)
            recovered = express(f, basis)
            matrix = transition_matrix(basis)
        assert recovered == {pi: c for pi, c in coords.items() if c}
        assert matrix == [[element.terms.get(sigma, 0) for sigma in basis.order]
                          for element in basis.elements]

    def test_combine_over_every_coordinate_at_n7(self):
        basis = build_basis(7, PATH_PER_BLOCK)
        assert all(basis.index_of(pi) == i for i, pi in enumerate(basis.order))
        coords = {pi: Fraction(i % 7 - 3, i % 4 + 1) for i, pi in enumerate(basis.order)}
        f = combine(basis, coords)
        # recorded with the linear order.index lookup
        assert len(f.terms) == 838
        assert hashlib.sha256(str(f).encode()).hexdigest() == (
            "412588ae6eaed97f57b6d915ad6c4631468b20a3b840ee18381f112c41d4bfb3")


class TestOnePass:
    """express subtracts one linear combination per block count, combine
    sums in one, and express reads each residue coefficient once."""

    @staticmethod
    def count(monkeypatch, name, module=ncsym.chromatic_bases):
        calls = []
        original = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("strategy", [PATH_PER_BLOCK, CLIQUE_PER_BLOCK])
    def test_express_subtracts_one_level_at_a_time(self, strategy, monkeypatch):
        n = 6
        basis = build_basis(n, strategy)
        rng = random.Random(6)
        coords = {pi: Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))
                  for pi in basis.order if rng.random() < 0.5}
        f = combine(basis, coords)
        calls = self.count(monkeypatch, "linear_combination")
        lookups = self.count(monkeypatch, "coefficient")
        recovered = express(f, basis)
        assert recovered == coords
        assert list(recovered) == [pi for pi in basis.order if pi in coords]
        assert len(calls) <= n
        assert len(lookups) <= len(basis.order) + len(coords)

    def test_express_reads_p_coefficients_without_converting(self, monkeypatch):
        # every residue and every basis element is already in p
        n = 6
        basis = build_basis(n, PATH_PER_BLOCK)
        rng = random.Random(6)
        coords = {pi: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                  for pi in basis.order if rng.random() < 0.5}
        f = combine(basis, coords)
        conversions = self.count(monkeypatch, "convert", ncsym.elements)
        assert express(f, basis) == coords
        assert conversions == []

    def test_combine_sums_in_one_call(self, monkeypatch):
        basis = build_basis(5, PATH_PER_BLOCK)
        coords = {pi: Fraction(i % 5 - 2, i % 3 + 1) for i, pi in enumerate(basis.order)}
        calls = self.count(monkeypatch, "linear_combination")
        f = combine(basis, coords)
        assert len(calls) == 1
        assert express(f, basis) == {pi: c for pi, c in coords.items() if c}


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


class TestCertification:
    def test_first_leak_in_canonical_order_is_named(self, monkeypatch):
        # the element at 1/2/3, whose graph is edgeless, gains two coarser terms
        def leaky(graph):
            value = chromatic_symmetric_function(graph)
            if graph.edges:
                return value
            return (value + basis_term("p", parse_partition("1,3/2"))
                    + basis_term("p", parse_partition("1,2,3")))

        monkeypatch.setattr(ncsym.chromatic_bases, "chromatic_symmetric_function", leaky)
        with pytest.raises(InvariantViolation) as err:
            build_basis(3, PATH_PER_BLOCK)
        assert str(err.value) == "p support of basis element at 1/2/3 leaks to 1,2,3"

    def test_zero_diagonal_is_named(self, monkeypatch):
        def no_diagonal(graph):
            value = chromatic_symmetric_function(graph)
            return value if graph.edges else value - value

        monkeypatch.setattr(ncsym.chromatic_bases, "chromatic_symmetric_function", no_diagonal)
        with pytest.raises(InvariantViolation) as err:
            build_basis(3, PATH_PER_BLOCK)
        assert str(err.value) == "diagonal coefficient at 1/2/3 is 0"


def old_text(basis):
    """The text form as it was written from each element's SetPartition view."""
    lines = [f"chromatic basis n={basis.n} strategy={basis.strategy.name}"]
    lines += [f"  {pi}: {format_graph_line(graph)}"
              for pi, graph in zip(basis.order, basis.graphs)]
    lines.append("transition rows (basis element -> p coordinates):")
    for pi, element in zip(basis.order, basis.elements):
        cells = " ".join(f"{sigma}:{coeff}" for sigma, coeff in element.terms.items())
        lines.append(f"  {pi}: {cells}")
    return "\n".join(lines)


def path_generators(n):
    """The path strategy's generator for every atomic partition of at most n."""
    return {alpha: generator_graph(PATH_PER_BLOCK, alpha)
            for k in range(1, n + 1) for alpha in enumerate_partitions(k) if alpha.is_atomic}


class TestWriters:
    @pytest.mark.parametrize("strategy", [PATH_PER_BLOCK, CLIQUE_PER_BLOCK])
    @pytest.mark.parametrize("n", range(7))
    def test_writers_match_the_dense_payload_and_the_views(self, n, strategy):
        # neither the build nor the writers need the SetPartition/Fraction view
        with no_term_view():
            basis = build_basis(n, strategy)
            streamed_json = "".join(iter_basis_json(basis))
            streamed_text = "".join(iter_basis_text(basis))
        assert streamed_json == json.dumps(basis_json_payload(basis), indent=2, sort_keys=True)
        assert streamed_text == old_text(basis)

    def test_strategy_name_is_escaped_as_json_dumps_escapes_it(self):
        name = 'quote " backslash \\ newline \n tab \t non-ASCII \u00e9\u20ac\U0001d11e'
        basis = build_basis(4, strategy_from_generators(name, path_generators(4)))
        streamed = "".join(iter_basis_json(basis))
        assert streamed == json.dumps(basis_json_payload(basis), indent=2, sort_keys=True)
        assert json.loads(streamed)["strategy"] == name
        assert "".join(iter_basis_text(basis)) == old_text(basis)


class TestJsonExport:
    def test_shape_and_orientation(self):
        basis = build_basis(2, CLIQUE_PER_BLOCK)
        data = json.loads("".join(iter_basis_json(basis)))
        assert data["order"] == ["1,2", "1/2"]
        assert data["strategy"] == "clique_per_block"
        # first row: e_{12} = -p_{12} + p_{1/2}
        assert data["matrix"][0] == [{"num": -1, "den": 1}, {"num": 1, "den": 1}]
        assert data["matrix"][1] == [{"num": 0, "den": 1}, {"num": 1, "den": 1}]
