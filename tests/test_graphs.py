from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bell_numbers
from ncsym.errors import DomainError, GraphParseError, ResourceLimitError
from ncsym.graphs import (
    LabeledGraph,
    all_labeled_graphs,
    all_labeled_trees,
    bond_mobius,
    complete_graph_union,
    components_partition,
    delete_edges,
    find_cycles,
    format_graph,
    induced_subgraph,
    is_clique_union,
    is_tree,
    parse_graph,
    random_graph,
    relabel,
    slash_union,
)
from ncsym.partitions import (
    Permutation,
    SetPartition,
    enumerate_partitions,
    mobius_from_bottom,
    parse_partition,
)


def graph(n, *edges):
    return LabeledGraph(n, list(edges))


def lattice_values(g):
    """mu(0, pi) for each connected partition pi of g, from bond_mobius."""
    m = bond_mobius(g)
    values = {pi: prod(m[sum(1 << x for x in block)] for block in pi.blocks)
              for pi in enumerate_partitions(g.n)}
    return {pi: value for pi, value in values.items() if value}


class TestConstruction:
    def test_edges_canonicalized(self):
        g = LabeledGraph(4, [(3, 1), (2, 4), (1, 3)])
        assert g.edges == ((1, 3), (2, 4))
        assert g.has_edge(3, 1)
        assert not g.has_edge(1, 2)
        # a loop or a vertex outside [n] is never an edge
        assert not g.has_edge(3, 3) and not g.has_edge(0, 1) and not g.has_edge(4, 5)
        assert (g == g.edges) is False

    def test_repr_evaluates_back(self):
        g = LabeledGraph(4, [(3, 1), (2, 4)])
        assert repr(g) == "LabeledGraph(4, [(1, 3), (2, 4)])"
        assert eval(repr(g), {"LabeledGraph": LabeledGraph}) == g
        assert eval(repr(LabeledGraph(0)), {"LabeledGraph": LabeledGraph}) == LabeledGraph(0)

    def test_validation(self):
        with pytest.raises(DomainError):
            LabeledGraph(2, [(1, 3)])
        with pytest.raises(DomainError):
            LabeledGraph(2, [(2, 2)])
        with pytest.raises(DomainError):
            LabeledGraph(-1, [])

    def test_degree_and_neighbors(self):
        g = graph(4, (1, 2), (1, 3))
        assert g.degree(1) == 2
        assert g.degree(4) == 0
        assert g.neighbors(1) == (2, 3)


class TestComponents:
    def test_components_partition(self):
        g = graph(5, (1, 3), (2, 5))
        assert components_partition(g) == parse_partition("1,3/2,5/4")

    def test_complete_graph_union(self):
        g = complete_graph_union(parse_partition("1,3,4/2,5/6/7,8"))
        assert components_partition(g) == parse_partition("1,3,4/2,5/6/7,8")
        assert is_clique_union(g)
        assert len(g.edges) == 3 + 1 + 0 + 1

    def test_slash_union(self):
        joined = slash_union(graph(2, (1, 2)), graph(3, (1, 3)))
        assert joined.n == 5
        assert joined.edges == ((1, 2), (3, 5))

    def test_clique_union_flag(self):
        assert is_clique_union(graph(3))
        assert is_clique_union(graph(3, (1, 2)))
        assert not is_clique_union(graph(3, (1, 2), (2, 3)))

    def test_connected_subsets(self):
        g = graph(4, (1, 2), (3, 4))
        # the empty vertex set counts as connected
        assert g.is_connected_subset(0)
        assert g.is_connected_subset(0b110) and g.is_connected_subset(0b10000)
        assert not g.is_connected_subset(0b1010)


class TestSurgery:
    def test_delete_edges(self):
        g = graph(3, (1, 2), (2, 3))
        assert delete_edges(g, [(2, 3)]).edges == ((1, 2),)
        with pytest.raises(DomainError):
            delete_edges(g, [(1, 3)])

    def test_relabel(self):
        delta = Permutation((2, 3, 1))
        g = relabel(delta, graph(3, (1, 2)))
        assert g.edges == ((2, 3),)

    def test_induced_subgraph_keeps_relative_order(self):
        g = graph(5, (1, 3), (3, 5), (2, 4))
        sub = induced_subgraph(g, [1, 3, 5])
        assert sub.n == 3
        assert sub.edges == ((1, 2), (2, 3))


class TestContractionLattice:
    """bond_mobius(g)[S] is mu(0, 1) of the contraction lattice L(G[S]), and
    mu(0, pi) in L(G) is its product over the blocks of pi, nonzero exactly
    on the connected partitions."""

    def test_path_example(self):
        values = {pi.to_text(): v
                  for pi, v in lattice_values(graph(3, (1, 2), (2, 3))).items()}
        assert values == {"1/2/3": 1, "1,2/3": -1, "1/2,3": -1, "1,2,3": 1}

    def test_complete_graph_gives_whole_lattice(self):
        for n in (2, 3, 4):
            kn = complete_graph_union(SetPartition.single_block(n))
            values = lattice_values(kn)
            assert len(values) == bell_numbers(n)[n]
            for pi, value in values.items():
                assert value == mobius_from_bottom(pi)

    def test_edgeless_graph_is_trivial(self):
        assert lattice_values(graph(3)) == {SetPartition.singletons(3): 1}

    def test_empty_graph(self):
        assert lattice_values(graph(0)) == {SetPartition.empty(): 1}

    def test_respects_ground_set_limit(self, monkeypatch):
        monkeypatch.setenv("NCSYM_MAX_N", "3")
        with pytest.raises(ResourceLimitError) as err:
            bond_mobius(graph(4, (1, 2)))
        assert "3" in str(err.value)


class TestCorpora:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64)])
    def test_graph_counts(self, n, count):
        graphs = list(all_labeled_graphs(n))
        assert len(graphs) == count
        assert len(set(graphs)) == count

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)])
    def test_tree_counts_follow_cayley(self, n, count):
        trees = list(all_labeled_trees(n))
        assert len(trees) == count
        assert len(set(trees)) == count
        for t in trees:
            assert is_tree(t)
            assert len(t.edges) == n - 1

    def test_is_tree(self):
        assert is_tree(graph(1))
        assert is_tree(graph(3, (1, 2), (2, 3)))
        assert not is_tree(graph(3, (1, 2)))
        assert not is_tree(graph(3, (1, 2), (2, 3), (1, 3)))

    def test_random_graph_is_seed_deterministic(self):
        a = random_graph(6, 0.5, 99)
        b = random_graph(6, 0.5, 99)
        c = random_graph(6, 0.5, 100)
        assert a.edges == b.edges
        assert a.n == 6
        assert a != c

    def test_random_graph_probability_bounds(self):
        assert len(random_graph(5, 0.0, 1).edges) == 0
        assert len(random_graph(5, 1.0, 1).edges) == 10
        with pytest.raises(DomainError):
            random_graph(5, 1.5, 1)


class TestCycles:
    def test_triangle_counts_in_k4(self):
        k4 = complete_graph_union(SetPartition.single_block(4))
        assert len(find_cycles(k4, 3)) == 4
        assert len(find_cycles(k4, 4)) == 7

    def test_cycle_edges_are_traversal_ordered(self):
        c4 = graph(4, (1, 2), (2, 3), (3, 4), (1, 4))
        cycles = find_cycles(c4, 4)
        assert len(cycles) == 1
        vertices, edges = cycles[0]
        assert vertices == (1, 2, 3, 4)
        assert edges == ((1, 2), (2, 3), (3, 4), (1, 4))

    def test_trees_have_no_cycles(self):
        for tree in all_labeled_trees(5):
            assert find_cycles(tree, 5) == []

    def test_five_cycle_found_inside_larger_graph(self):
        g = graph(6, (1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6))
        lengths = {len(c[0]) for c in find_cycles(g, 5)}
        assert lengths == {5}

    def test_short_bound_returns_nothing(self):
        k4 = complete_graph_union(SetPartition.single_block(4))
        assert find_cycles(k4, 2) == []


class TestParsing:
    def test_round_trip(self):
        g = graph(4, (1, 2), (3, 4))
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_blanks(self):
        text = "# a graph\n\nn 3\n e 1 2 \n# done\ne 2 3\n"
        assert parse_graph(text) == graph(3, (1, 2), (2, 3))

    def test_edgeless(self):
        assert parse_graph("n 4\n") == graph(4)
        assert format_graph(graph(2)) == "n 2\n"

    @pytest.mark.parametrize("text,line", [
        ("e 1 2\nn 3\n", 1),
        ("n 3\nn 4\n", 2),
        ("n 3\ne 1 2\ne 1 2\n", 3),
        ("n 3\ne 0 2\n", 2),
        ("n 3\ne 2 2\n", 2),
        ("n 3\ne 1 4\n", 2),
        ("n 3\nv 1 2\n", 2),
        ("n 3\ne 1\n", 2),
        ("n 3\ne 1 x\n", 2),
        ("n x\n", 1),
        ("", 1),
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert err.value.line_number == line
        assert f"line {line}" in str(err.value)


@st.composite
def labeled_graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = [pair for pair in pairs if draw(st.booleans())]
    return LabeledGraph(n, edges)


@settings(max_examples=80)
@given(labeled_graphs())
def test_format_parse_round_trip(g):
    assert parse_graph(format_graph(g)) == g


@settings(max_examples=80)
@given(labeled_graphs())
def test_components_refine_nothing_spurious(g):
    comp = components_partition(g)
    for u, v in g.edges:
        assert comp.rgs[u - 1] == comp.rgs[v - 1]
    # every block really is connected
    for block in comp.blocks:
        sub = induced_subgraph(g, block)
        assert components_partition(sub) == SetPartition.single_block(sub.n)


@settings(max_examples=50)
@given(labeled_graphs(max_n=5))
def test_relabel_preserves_structure(g):
    import random as rnd
    images = list(range(1, g.n + 1))
    rnd.Random(7).shuffle(images)
    delta = Permutation(images)
    moved = relabel(delta, g)
    assert len(moved.edges) == len(g.edges)
    assert sorted(len(b) for b in components_partition(moved).blocks) == \
        sorted(len(b) for b in components_partition(g).blocks)
