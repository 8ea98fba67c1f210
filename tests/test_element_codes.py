"""Elements store one int code per partition, int counts and one reduced
denominator.  Every public view of an element must be what the same terms
held as ``SetPartition`` keys and ``Fraction`` values would give."""

import json
import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _apply_columns, from_p_column, no_term_view, signed_subset_expansion
from ncsym.chromatic import (
    chromatic_symmetric_function,
    csf_by_deletion_contraction,
    csf_from_colorings,
    csf_from_contraction_lattice,
    csf_from_edge_subsets,
    tree_x_expansion,
)
from ncsym.elements import (
    BASES,
    NCSymElement,
    _decoder,
    _encode,
    act,
    add,
    convert,
    element_to_json_dict,
    first_term_not_refining,
    from_block_masks,
    induce,
    iter_json,
    iter_terms,
    iter_text,
    multiply,
    scale,
)
from ncsym.graphs import LabeledGraph, _tree_from_pruefer
from ncsym.partitions import Permutation, SetPartition, enumerate_partitions


def canonical_order(terms):
    return sorted(terms.items(), key=lambda item: item[0].rgs)


def reference_str(basis, terms):
    """str of an element as it was computed from SetPartition/Fraction terms."""
    if not terms:
        return "0"
    chunks = []
    for pi, coeff in canonical_order(terms):
        lead = "-" if coeff < 0 else ("+" if chunks else "")
        value = abs(coeff)
        body = f"{basis}{{{pi.to_text()}}}"
        piece = body if value == 1 else f"{value}*{body}"
        chunks.append(f"{lead}{piece}" if not chunks else f"{lead} {piece}")
    return " ".join(chunks)


def reference_json(basis, degree, terms):
    return {"basis": basis, "degree": degree,
            "terms": [{"partition": pi.to_text(), "num": c.numerator, "den": c.denominator}
                      for pi, c in canonical_order(terms)]}


def assert_matches_reference(f, terms):
    """f against its terms given as {SetPartition: Fraction}, nonzero."""
    assert dict(f.terms) == terms
    assert all(type(pi) is SetPartition and type(c) is Fraction for pi, c in f.terms.items())
    assert list(f.terms.items()) == canonical_order(terms)
    assert str(f) == "".join(iter_text(f)) == reference_str(f.basis, terms)
    assert list(iter_terms(f)) == [(pi.to_text(), c.numerator, c.denominator)
                                   for pi, c in canonical_order(terms)]
    payload = element_to_json_dict(f)
    assert payload == reference_json(f.basis, f.degree, terms)
    assert "".join(iter_json(f)) == json.dumps(payload, indent=2, sort_keys=True)
    rebuilt = NCSymElement(f.basis, f.degree, terms)
    assert f == rebuilt and hash(f) == hash(rebuilt)
    for basis in BASES:
        other = convert(f, basis)
        assert other == f and f == other and hash(other) == hash(f)


def in_basis(p_terms, basis):
    return _apply_columns(p_terms, lambda pi: from_p_column(basis, pi))


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return LabeledGraph(n, edges)


@st.composite
def elements(draw, max_n=6, basis=None):
    n = draw(st.integers(min_value=0, max_value=max_n))
    basis = basis or draw(st.sampled_from(BASES))
    partitions = enumerate_partitions(n)
    pairs = draw(st.lists(st.tuples(st.sampled_from(partitions),
                                    st.fractions(min_value=-9, max_value=9,
                                                 max_denominator=12)), max_size=6))
    return NCSymElement(basis, n, pairs)


def summed(pairs):
    out = {}
    for pi, coeff in pairs:
        out[pi] = out.get(pi, 0) + coeff
    return {pi: Fraction(c) for pi, c in out.items() if c}


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_routes_match_the_reference_views(g):
    in_p = signed_subset_expansion(g)
    for route in (chromatic_symmetric_function, csf_from_edge_subsets,
                  csf_from_contraction_lattice, csf_by_deletion_contraction):
        assert_matches_reference(route(g), in_p)
    assert_matches_reference(csf_from_colorings(g), in_basis(in_p, "m"))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_tree_expansion_matches_the_reference_views(n, data):
    seq = data.draw(st.lists(st.integers(min_value=1, max_value=n),
                             min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    tree = _tree_from_pruefer(tuple(seq), n) if n >= 2 else LabeledGraph(1)
    assert_matches_reference(tree_x_expansion(tree), in_basis(signed_subset_expansion(tree), "x"))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.sampled_from(BASES), st.data())
def test_public_constructor_matches_the_reference_views(n, basis, data):
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(enumerate_partitions(n)),
                                         st.fractions(min_value=-9, max_value=9,
                                                      max_denominator=12)), max_size=6))
    assert_matches_reference(NCSymElement(basis, n, pairs), summed(pairs))


@settings(max_examples=40, deadline=None)
@given(elements(max_n=5), elements(max_n=5))
def test_slash_product_on_codes_is_the_slash_of_partitions(f, g):
    fp, gp = convert(f, "p").terms, convert(g, "p").terms
    expected = summed((pi.slash(sigma), a * b) for pi, a in fp.items() for sigma, b in gp.items())
    assert dict(multiply(f, g).terms) == expected


@settings(max_examples=40, deadline=None)
@given(elements(max_n=8, basis="p"), st.data())
def test_induce_and_act_on_codes_relabel_partitions(f, data):
    if f.degree == 0:
        return
    assert dict(induce(f).terms) == summed((pi.adjoin_top(), c) for pi, c in f.terms.items())
    images = data.draw(st.permutations(range(1, f.degree + 1)))
    delta = Permutation(images)
    # the same coefficients in any basis: act relabels the indices there
    g = NCSymElement(data.draw(st.sampled_from(BASES)), f.degree, f.terms)
    moved = act(delta, g)
    assert moved.basis == g.basis
    assert dict(moved.terms) == summed((pi.permuted(delta), c) for pi, c in g.terms.items())
    assert convert(moved, "p") == act(delta, convert(g, "p"))


@st.composite
def wide_p_elements(draw, n):
    """A p-basis element of degree n with up to four terms, each partition
    drawn as the equality pattern of n labels."""
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        labels = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
        blocks = {}
        for x, label in enumerate(labels, 1):
            blocks.setdefault(label, []).append(x)
        pairs.append((SetPartition(n, blocks.values()),
                      draw(st.integers(min_value=-9, max_value=9))))
    return NCSymElement("p", n, pairs)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=17), st.integers(min_value=16, max_value=20), st.data())
def test_slash_product_of_degree_sixteen_and_more_is_the_slash(k, n, data):
    # from degree 16 on a code field has 5 bits, not 4
    k = min(k, n - 1)
    f, g = data.draw(wide_p_elements(k)), data.draw(wide_p_elements(n - k))
    expected = summed((pi.slash(sigma), a * b)
                      for pi, a in f.terms.items() for sigma, b in g.terms.items())
    assert dict(multiply(f, g).terms) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.data())
def test_first_term_not_refining_agrees_with_set_partition_refines(n, data):
    partitions = enumerate_partitions(n)
    pi = data.draw(st.sampled_from(partitions))
    finer = [sigma for sigma in partitions if sigma.refines(pi)]
    counts = st.integers(min_value=-3, max_value=3)
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(finer), counts), max_size=6))
    pairs += data.draw(st.lists(st.tuples(st.sampled_from(partitions), counts), max_size=2))
    f = NCSymElement("p", n, pairs)
    with no_term_view():
        found = first_term_not_refining(f, pi)
    assert found == next((sigma for sigma in f.terms if not sigma.refines(pi)), None)


def test_codes_increase_along_the_canonical_order():
    for n in range(9):
        partitions = enumerate_partitions(n)
        codes = [_encode(pi) for pi in partitions]
        assert all(a < b for a, b in zip(codes, codes[1:]))
        blocks = _decoder(n, range(n + 1))
        for pi, code in zip(partitions, codes):
            assert tuple(map(tuple, blocks(code))) == pi.blocks


def decoded_terms(f):
    """iter_terms as the decoder gives it: every code decoded on its own."""
    blocks = _decoder(f.degree, [str(x) for x in range(f.degree + 1)])
    terms = []
    for code in sorted(f._terms):
        value = Fraction(f._terms[code], f._den)
        terms.append(("/".join(map(",".join, blocks(code))), value.numerator,
                      value.denominator))
    return terms


def random_rgs(rng, n):
    rgs, blocks = [], 0
    for _ in range(n):
        b = rng.randrange(blocks + 1)
        blocks += b == blocks
        rgs.append(b)
    return rgs


def test_walker_lists_every_partition_as_the_decoder_does():
    for n in range(9):
        f = NCSymElement("p", n, {pi: i + 1 for i, pi in enumerate(enumerate_partitions(n))})
        assert list(iter_terms(f)) == decoded_terms(f)
        assert [text for text, _, _ in iter_terms(f)] == [
            pi.to_text() for pi in enumerate_partitions(n)]


def test_walker_on_sparse_supports_at_every_field_width():
    # degrees on both sides of each change of n.bit_length(); random
    # supports make consecutive codes differ in high fields
    rng = random.Random(26)
    for n in (1, 2, 3, 4, 7, 8, 15, 16):
        for size in (1, 2, 5, 40):
            pairs = [(SetPartition.from_rgs(random_rgs(rng, n)), rng.randint(-9, 9))
                     for _ in range(size)]
            f = NCSymElement(rng.choice(BASES), n, pairs)
            assert list(iter_terms(f)) == decoded_terms(f), (n, size)
            assert [text for text, _, _ in iter_terms(f)] == [
                pi.to_text() for pi in sorted(f.terms, key=lambda pi: pi.rgs)]


def test_walker_reduces_each_coefficient_over_a_shared_denominator():
    rng = random.Random(7)
    pairs = [(SetPartition.from_rgs(random_rgs(rng, 7)), Fraction(rng.randint(-20, 20), 12))
             for _ in range(60)]
    f = NCSymElement("x", 7, pairs)
    assert f._den == 12
    terms = list(iter_terms(f))
    assert terms == decoded_terms(f)
    assert {den for _, _, den in terms} > {1, 12}


def test_strict_refinements_have_larger_codes():
    # so the writers' sorted codes list every partition before its strict
    # refinements, as canonical order does
    for n in range(7):
        partitions = enumerate_partitions(n)
        for pi in partitions:
            for sigma in partitions:
                if sigma != pi and sigma.refines(pi):
                    assert _encode(sigma) > _encode(pi), (sigma, pi)


def test_equal_elements_share_one_reduced_denominator():
    pi, sigma = SetPartition.parse("1,3/2"), SetPartition.parse("1/2/3")
    f = NCSymElement("p", 3, {pi: Fraction(1, 2), sigma: Fraction(3, 4)})
    paths = [convert(convert(f, basis), "p") for basis in BASES]
    paths += [add(f, f) - f, scale(scale(f, 6), Fraction(1, 6)),
              from_block_masks("p", 3, [((0b1010, 0b100), 2), ((0b10, 0b100, 0b1000), 3)], 4)]
    for g in paths:
        assert g == f
        assert (g._den, g._terms) == (f._den, f._terms) == (4, g._terms)
    assert from_block_masks("p", 2, [((0b110,), 6)], 4)._den == 2


def test_zero_element_writers():
    zero = NCSymElement.zero("e", 3)
    assert str(zero) == "".join(iter_text(zero)) == "0"
    assert "".join(iter_json(zero)) == json.dumps(element_to_json_dict(zero), indent=2,
                                                  sort_keys=True)
    assert '"terms": []' in "".join(iter_json(zero))
    assert (scale(zero, 3)._den, (zero - zero)._den) == (1, 1)
