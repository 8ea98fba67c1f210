import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import coloring_words, signed_subset_expansion
from ncsym import chromatic
from ncsym.chromatic import (
    chromatic_symmetric_function,
    classical_csf,
    classify_e_positivity,
    connected_mobius,
    csf_by_deletion_contraction,
    csf_from_colorings,
    csf_from_contraction_lattice,
    csf_from_edge_subsets,
    k_deletion_sum,
    matching_x_identity,
    tree_x_expansion,
    x_sign_report,
)
from ncsym.elements import (
    basis_term,
    coefficient,
    convert,
    multiply,
    project,
    scale,
    sym_basis_term,
    word_expansion,
)
from ncsym.errors import DomainError, InvariantViolation, ResourceLimitError
from ncsym.graphs import (
    LabeledGraph,
    _tree_from_pruefer,
    all_labeled_graphs,
    all_labeled_trees,
    bond_mobius,
    complete_graph_union,
    components_partition,
    find_cycles,
    induced_subgraph,
    is_clique_union,
    random_graph,
    slash_union,
)
from ncsym.partitions import (
    IntegerPartition,
    SetPartition,
    enumerate_partitions,
    parse_partition,
)


def graph(n, *edges):
    return LabeledGraph(n, list(edges))


K2 = graph(2, (1, 2))
P3 = graph(3, (1, 2), (2, 3))
K3 = graph(3, (1, 2), (1, 3), (2, 3))


def term(basis, text, coeff=1):
    return basis_term(basis, parse_partition(text), coeff)


class TestSubsetRoute:
    def test_k2(self):
        assert csf_from_edge_subsets(K2) == term("p", "1/2") - term("p", "1,2")

    def test_edgeless(self):
        for n in (1, 3, 5):
            assert csf_from_edge_subsets(graph(n)) == \
                basis_term("p", SetPartition.singletons(n))

    def test_k3(self):
        expected = (term("p", "1/2/3") - term("p", "1,2/3") - term("p", "1,3/2")
                    - term("p", "1/2,3") + term("p", "1,2,3", 2))
        assert csf_from_edge_subsets(K3) == expected

    def test_matches_independent_subset_walk(self):
        for g in all_labeled_graphs(4):
            assert dict(csf_from_edge_subsets(g).terms) == \
                signed_subset_expansion(g)

    def test_edge_limit_is_named(self, monkeypatch):
        big = complete_graph_union(SetPartition.single_block(8))  # 28 edges
        with pytest.raises(ResourceLimitError) as err:
            csf_from_edge_subsets(big)
        assert "22" in str(err.value)
        # the limit is read at call time
        monkeypatch.setattr(chromatic, "SUBSET_EDGE_LIMIT", 2)
        with pytest.raises(ResourceLimitError) as err:
            csf_from_edge_subsets(K3)
        assert str(err.value) == "edge-subset expansion limited to 2 edges, graph has 3"


class TestMobiusRoute:
    def test_path_example(self):
        assert csf_from_contraction_lattice(P3) == (
            term("p", "1/2/3") - term("p", "1,2/3") - term("p", "1/2,3")
            + term("p", "1,2,3"))

    def test_single_vertex(self):
        assert csf_from_contraction_lattice(graph(1)) == term("p", "1")
        assert csf_from_contraction_lattice(graph(1)) == term("x", "1")

    def test_clique_union_matches_e_term(self):
        pi = parse_partition("1,3/2")
        assert csf_from_contraction_lattice(complete_graph_union(pi)) == \
            basis_term("e", pi)


class TestDeletionContraction:
    def test_k2_single_step(self):
        assert csf_by_deletion_contraction(K2) == term("p", "1/2") - term("p", "1,2")

    # the last graph is the star centred at 3, whose largest edge is {3, 5}
    @pytest.mark.parametrize("g", [P3, K3, graph(4, (1, 3), (2, 4)),
                                   graph(1), graph(4),
                                   graph(5, (1, 3), (2, 3), (3, 4), (3, 5))])
    def test_agrees_with_subset_route(self, g):
        assert csf_by_deletion_contraction(g) == csf_from_edge_subsets(g)

    def test_budget_exhaustion_is_reported(self, monkeypatch):
        monkeypatch.setattr(chromatic, "DELCON_BUDGET", 5)
        with pytest.raises(ResourceLimitError) as err:
            csf_by_deletion_contraction(complete_graph_union(
                SetPartition.single_block(5)))
        assert "budget" in str(err.value)
        assert "limit 5 expansions" in str(err.value)

    def test_budget_outcome_does_not_depend_on_call_order(self, monkeypatch):
        k5 = complete_graph_union(SetPartition.single_block(5))
        with monkeypatch.context() as patch:
            patch.setattr(chromatic, "DELCON_BUDGET", 5)
            with pytest.raises(ResourceLimitError) as cold:
                csf_by_deletion_contraction(k5)
        csf_by_deletion_contraction(k5)
        monkeypatch.setattr(chromatic, "DELCON_BUDGET", 5)
        with pytest.raises(ResourceLimitError) as warm:
            csf_by_deletion_contraction(k5)
        assert str(warm.value) == str(cold.value) == (
            "deletion-contraction expansion budget exhausted (limit 5 expansions)")


class TestDefinitionRoute:
    def test_complete_graph_collapses_to_finest(self):
        for n in (2, 3, 4):
            kn = complete_graph_union(SetPartition.single_block(n))
            assert csf_from_colorings(kn) == \
                basis_term("m", SetPartition.singletons(n))

    def test_edgeless_sums_everything(self):
        total = csf_from_colorings(graph(3))
        assert dict(total.terms) == {
            pi: Fraction(1) for pi in enumerate_partitions(3)}

    def test_clique_union_example(self):
        value = csf_from_colorings(complete_graph_union(parse_partition("1,3/2")))
        assert value == (term("m", "1/2/3") + term("m", "1,2/3")
                         + term("m", "1/2,3"))
        assert value == convert(term("e", "1,3/2"), "m")

    def test_empty_graph(self):
        value = csf_from_colorings(graph(0))
        assert value.basis == "m"
        assert dict(value.terms) == {SetPartition.empty(): Fraction(1)}

    def test_words_match_proper_coloring_scan(self):
        for g in list(all_labeled_graphs(3)) + [graph(4, (1, 2), (3, 4)),
                                                graph(4, (1, 2), (2, 3), (3, 4))]:
            assert word_expansion(csf_from_colorings(g), g.n) == \
                coloring_words(g, g.n)


def full_mask(g):
    return (1 << (g.n + 1)) - 2


class TestConnectedSubsetKernel:
    def test_same_terms_as_edge_subsets(self):
        for n in range(5):
            for g in all_labeled_graphs(n):
                assert chromatic_symmetric_function(g)._terms == \
                    csf_from_edge_subsets(g)._terms

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_agrees_with_deletion_contraction_on_random_graphs(self, n):
        g = random_graph(n, 0.5, seed=n)
        assert chromatic_symmetric_function(g) == csf_by_deletion_contraction(g)

    def test_agrees_with_deletion_contraction_on_k9(self):
        k9 = complete_graph_union(SetPartition.single_block(9))
        value = chromatic_symmetric_function(k9)
        assert len(value.terms) == 21147  # the Bell number B_9
        assert value == csf_by_deletion_contraction(k9)

    def test_empty_graph(self):
        assert chromatic_symmetric_function(graph(0)) == \
            basis_term("p", SetPartition.empty())

    def test_edgeless(self):
        for n in (1, 3, 5):
            assert chromatic_symmetric_function(graph(n)) == \
                basis_term("p", SetPartition.singletons(n))

    def test_disconnected_is_the_slash_product(self):
        g = slash_union(P3, K2)
        expected = multiply(chromatic_symmetric_function(P3),
                            chromatic_symmetric_function(K2))
        assert chromatic_symmetric_function(g) == expected

    def test_top_value_on_complete_graphs(self):
        for n in range(1, 9):
            k = complete_graph_union(SetPartition.single_block(n))
            assert connected_mobius(k)[full_mask(k)] == \
                (-1) ** (n - 1) * factorial(n - 1)

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_top_value_on_trees(self, n):
        for tree in all_labeled_trees(n):
            assert connected_mobius(tree)[full_mask(tree)] == (-1) ** (n - 1)

    def test_zero_exactly_off_connected_subsets(self):
        g = slash_union(P3, K3)
        c = connected_mobius(g)
        assert c[full_mask(g)] == 0
        for mask in range(2, full_mask(g) + 1, 2):
            assert (c[mask] != 0) == g.is_connected_subset(mask)


class TestTwoMoebiusRecursions:
    """graphs.bond_mobius solves the bond lattice's defining recursion and
    connected_mobius the independent-set identity; their tables agree."""

    def test_every_graph_on_five_vertices(self):
        for g in all_labeled_graphs(5):
            assert bond_mobius(g) == connected_mobius(g)

    @pytest.mark.parametrize("n", range(6, 10))
    def test_random_graphs(self, n):
        for seed in range(3):
            g = random_graph(n, 0.5, seed)
            assert bond_mobius(g) == connected_mobius(g)

    @pytest.mark.parametrize("g", [
        complete_graph_union(SetPartition.single_block(12)),
        graph(12, *((i, i + 1) for i in range(1, 12))),
    ], ids=["k12", "path12"])
    def test_twelve_vertices(self, g):
        assert bond_mobius(g) == connected_mobius(g)


class TestMethodDispatch:
    def test_all_methods_agree_small(self):
        for g in all_labeled_graphs(4):
            reference = csf_from_edge_subsets(g)
            assert csf_from_contraction_lattice(g) == reference
            assert csf_by_deletion_contraction(g) == reference
            assert convert(csf_from_colorings(g), "p") == reference
            assert chromatic_symmetric_function(g) == reference


ROUTES = (chromatic_symmetric_function, csf_from_edge_subsets, csf_from_contraction_lattice,
          csf_by_deletion_contraction, csf_from_colorings)


def assert_canonical_terms(element):
    for pi, coeff in element.terms.items():
        canonical = SetPartition(pi.n, pi.blocks)
        assert pi == canonical and pi.blocks == canonical.blocks
        assert type(coeff) is Fraction and coeff != 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_routes_build_canonical_keys_and_nonzero_fractions(n, data):
    pairs = list(combinations(range(1, n + 1), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = LabeledGraph(n, edges)
    for route in ROUTES:
        assert_canonical_terms(route(g))
    seq = data.draw(st.lists(st.integers(min_value=1, max_value=n),
                             min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    tree = _tree_from_pruefer(tuple(seq), n) if n >= 2 else LabeledGraph(1)
    assert_canonical_terms(tree_x_expansion(tree))


class TestClassical:
    def test_k2(self):
        assert classical_csf(K2) == (
            sym_basis_term("p", IntegerPartition((1, 1)))
            - sym_basis_term("p", IntegerPartition((2,))))

    def test_edgeless(self):
        assert classical_csf(graph(4)) == \
            sym_basis_term("p", IntegerPartition((1, 1, 1, 1)))

    def test_is_projection_of_every_route(self):
        for g in all_labeled_graphs(4):
            assert project(csf_from_edge_subsets(g)) == classical_csf(g)

    def test_distinct_y_can_collapse_classically(self):
        # relabelings change Y_G but never X_G
        g1 = graph(3, (1, 2))
        g2 = graph(3, (1, 3))
        assert csf_from_edge_subsets(g1) != csf_from_edge_subsets(g2)
        assert classical_csf(g1) == classical_csf(g2)


class TestKDeletion:
    def test_triangle(self):
        out = k_deletion_sum(K3, [(1, 2), (2, 3), (1, 3)])
        assert out.is_zero()
        assert out.degree == 3

    def test_four_cycle(self):
        c4 = graph(4, (1, 2), (2, 3), (3, 4), (1, 4))
        assert k_deletion_sum(c4, [(1, 2), (2, 3), (3, 4), (1, 4)]).is_zero()

    def test_cycle_with_chords_present(self):
        k4 = complete_graph_union(SetPartition.single_block(4))
        for vertices, edges in find_cycles(k4, 4):
            assert k_deletion_sum(k4, edges).is_zero()

    def test_five_cycle_inside_bigger_graph(self):
        g = graph(6, (1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (2, 6))
        cycles = [edges for vertices, edges in find_cycles(g, 5)
                  if len(vertices) == 5]
        assert cycles
        for edges in cycles:
            assert k_deletion_sum(g, edges).is_zero()

    def test_rejects_non_cycles(self):
        with pytest.raises(DomainError):
            k_deletion_sum(K3, [(1, 2), (2, 3)])  # too short
        with pytest.raises(DomainError):
            k_deletion_sum(P3, [(1, 2), (2, 3), (1, 3)])  # edge absent
        g = graph(4, (1, 2), (2, 3), (3, 4), (1, 4), (1, 3))
        with pytest.raises(DomainError):
            # a theta shape: degrees are wrong for a single cycle
            k_deletion_sum(g, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        with pytest.raises(DomainError):
            k_deletion_sum(K3, [(1, 2), (1, 2), (2, 3)])  # repeats

    def test_rejects_two_disjoint_triangles(self):
        g = complete_graph_union(parse_partition("1,2,3/4,5,6"))
        with pytest.raises(DomainError):
            k_deletion_sum(g, [(1, 2), (2, 3), (1, 3),
                               (4, 5), (5, 6), (4, 6)])


class TestTrees:
    def test_path_example(self):
        assert tree_x_expansion(P3) == term("x", "1,2,3") + term("x", "1,3/2")

    def test_k2(self):
        assert tree_x_expansion(K2) == term("x", "1,2", -1)

    def test_star_matches_computation(self):
        star = graph(4, (1, 2), (1, 3), (1, 4))
        assert tree_x_expansion(star) == \
            convert(csf_from_edge_subsets(star), "x")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_trees_match(self, n):
        for tree in all_labeled_trees(n):
            assert dict(tree_x_expansion(tree).terms) == \
                dict(convert(chromatic_symmetric_function(tree), "x").terms)

    def test_seeded_trees_on_seven_vertices_match(self):
        trees = random.Random(29).sample(list(all_labeled_trees(7)), 30)
        for tree in trees:
            assert dict(tree_x_expansion(tree).terms) == \
                dict(convert(chromatic_symmetric_function(tree), "x").terms)

    def test_non_tree_rejected(self):
        with pytest.raises(DomainError):
            tree_x_expansion(K3)
        with pytest.raises(DomainError):
            tree_x_expansion(graph(3, (1, 2)))


class TestEPositivity:
    def test_path_witness(self):
        report = classify_e_positivity(P3)
        assert report.verdict == "mixed"
        assert not report.is_clique_union
        witness, coeff = report.negative_witness
        assert witness == parse_partition("1,3/2")
        assert coeff == Fraction(-1, 2)
        assert report.top_coefficient == Fraction(1, 2)

    def test_clique_union_examples(self):
        for text in ("1,3,4/2,5/6/7,8", "1,2,3,4", "1/2/3"):
            g = complete_graph_union(parse_partition(text))
            report = classify_e_positivity(g)
            assert report.verdict == "e_positive"
            assert report.negative_witness is None
            assert report.top_coefficient > 0

    def test_every_non_clique_union_is_mixed_and_never_negative(self):
        for g in all_labeled_graphs(4):
            report = classify_e_positivity(g)
            expansion = convert(chromatic_symmetric_function(g), "e")
            values = list(expansion.terms.values())
            assert any(c > 0 for c in values)
            if is_clique_union(g):
                assert report.verdict == "e_positive"
                assert all(c > 0 for c in values) or not any(c < 0 for c in values)
            else:
                assert report.verdict == "mixed"
                assert any(c < 0 for c in values)
                witness, coeff = report.negative_witness
                assert len(witness.blocks) >= 2
                assert coefficient(chromatic_symmetric_function(g), "e", witness) \
                    == coeff < 0

    def test_witness_embeds_across_components(self):
        # path on {1,2,3} plus an edge on {4,5}: the witness cuts the path
        g = graph(5, (1, 2), (2, 3), (4, 5))
        report = classify_e_positivity(g)
        witness, coeff = report.negative_witness
        assert witness == parse_partition("1,3/2/4,5")
        assert coeff == Fraction(-1, 2)
        assert coefficient(chromatic_symmetric_function(g), "e", witness) == coeff
        assert report.top_coefficient == Fraction(1, 2)

    def test_top_coefficient_formula(self):
        for g in list(all_labeled_graphs(4))[:32]:
            report = classify_e_positivity(g)
            comp = components_partition(g)
            expected = Fraction(1)
            value = chromatic_symmetric_function(g)
            for block in comp.blocks:
                sub = induced_subgraph(g, block)
                top = coefficient(chromatic_symmetric_function(sub), "p",
                                  SetPartition.single_block(sub.n))
                expected *= Fraction(abs(top), factorial(sub.n - 1))
            assert report.top_coefficient == expected
            assert coefficient(value, "e", comp) == expected

    def test_two_block_coefficient_formula(self):
        # for connected graphs, [e_{B1/B2}] decomposes into the top p
        # coefficient plus the signed subset count at exactly B1/B2
        for g in all_labeled_graphs(4):
            if not g.edges or len(components_partition(g).blocks) > 1:
                continue
            n = g.n
            y = chromatic_symmetric_function(g)
            top = abs(coefficient(y, "p", SetPartition.single_block(n)))
            for pi in enumerate_partitions(n):
                if len(pi.blocks) != 2:
                    continue
                b1, b2 = pi.blocks
                direct = (-Fraction(top, factorial(n - 1))
                          + Fraction((-1) ** n,
                                     factorial(len(b1) - 1) * factorial(len(b2) - 1))
                          * coefficient(y, "p", pi))
                assert coefficient(y, "e", pi) == direct


class TestXSign:
    def test_examples(self):
        assert x_sign_report(P3).sign == 1
        assert x_sign_report(K2).sign == -1
        g = complete_graph_union(parse_partition("1,3/2"))
        report = x_sign_report(g)
        assert report.sign == -1
        assert report.component_count == 2
        expansion = convert(chromatic_symmetric_function(g), "x")
        assert all(report.sign * c > 0 for c in expansion.terms.values())

    def test_full_small_scan(self):
        for g in all_labeled_graphs(4):
            report = x_sign_report(g)
            k = len(components_partition(g).blocks)
            assert report.sign == (-1) ** (g.n - k)
            expansion = convert(chromatic_symmetric_function(g), "x")
            assert all(report.sign * c >= 0 for c in expansion.terms.values())

    def test_big_components_need_two_terms(self):
        for g in all_labeled_graphs(4):
            if any(len(b) >= 3 for b in components_partition(g).blocks):
                expansion = convert(chromatic_symmetric_function(g), "x")
                assert len(expansion.terms) >= 2


class TestMatchingIdentity:
    def test_single_vertex(self):
        assert matching_x_identity(parse_partition("1")) == term("x", "1")

    def test_one_pair(self):
        assert matching_x_identity(parse_partition("1,3/2")) == term("x", "1,3/2")

    def test_two_pairs(self):
        assert matching_x_identity(parse_partition("1,2/3,4")) == \
            term("x", "1,2/3,4")

    def test_all_matchings_through_n6(self):
        for n in range(1, 7):
            for pi in enumerate_partitions(n):
                if all(len(b) <= 2 for b in pi.blocks):
                    assert matching_x_identity(pi) == basis_term("x", pi)

    def test_rejects_big_blocks(self):
        with pytest.raises(DomainError):
            matching_x_identity(parse_partition("1,2,3"))

    def test_a_wrong_chromatic_function_violates_the_identity(self, monkeypatch):
        right = chromatic.chromatic_symmetric_function
        monkeypatch.setattr(chromatic, "chromatic_symmetric_function",
                            lambda graph: scale(right(graph), 2))
        with pytest.raises(InvariantViolation, match="1,2/3"):
            matching_x_identity(parse_partition("1,2/3"))


class TestNonRealizability:
    def test_single_term_expansions_are_rare(self):
        # single m term only for complete graphs, single p/h only edgeless,
        # single x only when every component has at most two vertices
        for n in range(1, 5):
            complete = complete_graph_union(SetPartition.single_block(n))
            for g in all_labeled_graphs(n):
                y = chromatic_symmetric_function(g)
                edgeless = not g.edges
                small_blocks = all(
                    len(b) <= 2 for b in components_partition(g).blocks)
                assert (len(convert(y, "m").terms) == 1) == (g == complete)
                assert (len(convert(y, "p").terms) == 1) == edgeless
                assert (len(convert(y, "h").terms) == 1) == edgeless
                assert (len(convert(y, "x").terms) == 1) == small_blocks


class TestProductAndRelabeling:
    def test_slash_product_multiplies(self):
        for g, h in [(K2, K2), (P3, K2), (K3, graph(1)), (graph(2), P3)]:
            assert chromatic_symmetric_function(slash_union(g, h)) == \
                multiply(chromatic_symmetric_function(g),
                         chromatic_symmetric_function(h))

    def test_relabeling_example(self):
        from ncsym.elements import act
        from ncsym.graphs import relabel
        from ncsym.partitions import Permutation
        delta = Permutation((2, 3, 1))
        assert chromatic_symmetric_function(relabel(delta, P3)) == \
            act(delta, chromatic_symmetric_function(P3))


class TestLimits:
    def test_coloring_route_respects_env(self, monkeypatch):
        monkeypatch.setenv("NCSYM_MAX_N", "3")
        with pytest.raises(ResourceLimitError):
            csf_from_colorings(graph(4))

    def test_auto_respects_env_even_when_cached(self, monkeypatch):
        chromatic_symmetric_function(graph(4))
        monkeypatch.setenv("NCSYM_MAX_N", "3")
        with pytest.raises(ResourceLimitError) as err:
            chromatic_symmetric_function(graph(4))
        assert "NCSYM_MAX_N" in str(err.value)
        with pytest.raises(ResourceLimitError):
            connected_mobius(graph(4))
        # the oracle routes have limits of their own
        path = graph(4, (1, 2), (2, 3), (3, 4))
        assert csf_from_edge_subsets(path) == csf_by_deletion_contraction(path)

    def test_tree_expansion_respects_env(self, monkeypatch):
        monkeypatch.setenv("NCSYM_MAX_N", "3")
        with pytest.raises(ResourceLimitError):
            tree_x_expansion(graph(4, (1, 2), (2, 3), (3, 4)))
