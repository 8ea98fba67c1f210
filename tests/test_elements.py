import random
import time
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    collapse_words,
    definitional_words,
    rank_over_q,
    sym_monomial_expansion,
)
from ncsym.elements import (
    BASES,
    NCSymElement,
    SymElement,
    act,
    add,
    basis_term,
    coefficient,
    convert,
    element_from_json_dict,
    element_to_json_dict,
    induce,
    is_negative_in,
    is_positive_in,
    iter_json,
    iter_terms,
    linear_combination,
    multiply,
    multiply_sym,
    one,
    project,
    scale,
    sym_basis_term,
    word_expansion,
)
from ncsym.errors import DomainError
from ncsym.partitions import (
    IntegerPartition,
    Permutation,
    SetPartition,
    enumerate_partitions,
    parse_partition,
)


def term(basis, text, coeff=1):
    return basis_term(basis, parse_partition(text), coeff)


class TestConstruction:
    def test_terms_are_validated(self):
        with pytest.raises(DomainError):
            NCSymElement("p", 3, {parse_partition("1,2"): Fraction(1)})
        with pytest.raises(DomainError):
            NCSymElement("q", 2, {})

    def test_zero_pruning(self):
        f = NCSymElement("p", 2, {parse_partition("1,2"): Fraction(0)})
        assert f.is_zero()
        assert not f.terms

    def test_degree_zero_is_scalar(self):
        assert one("p").degree == 0
        assert scale(one("p"), Fraction(3, 2)).terms[SetPartition.empty()] == \
            Fraction(3, 2)


class TestZeroOfHugeDegree:
    """A zero element builds nothing that grows with its degree."""

    def test_views_and_writers_allocate_nothing_per_degree(self):
        n = 10 ** 6
        z = NCSymElement.zero("p", n)
        tracemalloc.start()
        try:
            assert list(iter_terms(z)) == []
            assert "".join(iter_json(z)) == \
                f'{{\n  "basis": "p",\n  "degree": {n},\n  "terms": []\n}}'
            assert element_to_json_dict(z) == {"basis": "p", "degree": n, "terms": []}
            assert not z.terms
            assert word_expansion(z, 2) == {}
            assert project(z) == SymElement.zero("p", n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_zero_factor_gives_zero_at_once(self):
        n = 10 ** 5
        z = NCSymElement.zero("e", n)
        start = time.perf_counter()
        products = [multiply(z, z), multiply(z, term("p", "1,2")), multiply(term("x", "1"), z)]
        assert time.perf_counter() - start < 1
        assert [(f.basis, f.degree, f.is_zero()) for f in products] == \
            [("p", 2 * n, True), ("p", n + 2, True), ("p", n + 1, True)]


class TestConversions:
    def test_p_to_x_example(self):
        assert convert(term("p", "1,3/2"), "x") == \
            term("x", "1,3/2") + term("x", "1/2/3")

    def test_x_to_p_example(self):
        assert convert(term("x", "1,2"), "p") == \
            term("p", "1,2") - term("p", "1/2")

    def test_p_to_e_example(self):
        assert convert(term("p", "1,2"), "e") == \
            term("e", "1/2") - term("e", "1,2")

    def test_p_to_m_examples(self):
        assert convert(term("p", "1,2"), "m") == term("m", "1,2")
        assert convert(term("p", "1/2"), "m") == \
            term("m", "1/2") + term("m", "1,2")

    def test_h_to_p_uses_unsigned_lattice_weights(self):
        # h_{12} = |mu(0,1/2)| p_{1/2} + |mu(0,12)| p_{12}
        assert convert(term("h", "1,2"), "p") == \
            term("p", "1/2") + term("p", "1,2")

    @pytest.mark.parametrize("basis", ["m", "e", "h", "x"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_round_trips_through_p(self, basis, n):
        for pi in enumerate_partitions(n):
            start = basis_term(basis, pi)
            assert convert(convert(start, "p"), basis) == start

    @pytest.mark.parametrize("target", ["x", "e", "h"])
    @pytest.mark.parametrize("n", [1, 2, 2000])
    def test_singletons_refine_only_to_themselves(self, target, n):
        # no block splits, and the p -> e/h scaling (n-1)!/mu(0, 0) cancels
        pi = SetPartition.singletons(n)
        result = convert(basis_term("p", pi), target)
        assert result.basis == target and result == basis_term(target, pi)

    def test_conversion_preserves_value_under_word_expansion(self):
        for n in range(1, 5):
            for pi in enumerate_partitions(n):
                reference = word_expansion(basis_term("p", pi), n)
                for basis in ("m", "e", "h", "x"):
                    alt = word_expansion(convert(basis_term("p", pi), basis), n)
                    assert alt == reference


class TestWordExpansion:
    @pytest.mark.parametrize("basis", ["m", "p", "e"])
    def test_matches_definitional_scan(self, basis):
        for n in range(1, 5):
            for pi in enumerate_partitions(n):
                for k in (1, 2, n):
                    assert word_expansion(basis_term(basis, pi), k) == \
                        definitional_words(basis, pi, k)

    def test_spot_values(self):
        assert word_expansion(term("m", "1,3/2"), 2) == {
            (1, 2, 1): Fraction(1), (2, 1, 2): Fraction(1)}
        assert word_expansion(term("p", "1,3/2"), 1) == {(1, 1, 1): Fraction(1)}
        assert word_expansion(term("e", "1,2"), 2) == {
            (1, 2): Fraction(1), (2, 1): Fraction(1)}

    def test_distinguishes_distinct_elements_at_full_width(self):
        for n in (1, 2, 3):
            seen = {}
            for pi in enumerate_partitions(n):
                for basis in BASES:
                    image = frozenset(
                        word_expansion(basis_term(basis, pi), n).items())
                    if image in seen:
                        assert convert(basis_term(basis, pi), "p") == \
                            convert(basis_term(*seen[image]), "p")
                    else:
                        seen[image] = (basis, pi)

    def test_k_must_be_positive(self):
        with pytest.raises(DomainError):
            word_expansion(term("p", "1"), 0)


class TestArithmetic:
    def test_add_requires_matching_degree(self):
        with pytest.raises(DomainError):
            add(term("p", "1"), term("p", "1,2"))

    def test_add_allows_zero_sides(self):
        z = NCSymElement.zero("p", 0)
        f = term("p", "1,2")
        assert add(f, z) == f
        assert add(z, f) == f

    def test_mixed_basis_addition_lands_in_p(self):
        total = add(term("x", "1,2"), term("p", "1/2"))
        assert total.basis == "p"
        assert total == term("p", "1,2")

    def test_cancellation(self):
        f = term("p", "1,2")
        assert (f - f).is_zero()
        assert scale(f, 0).is_zero()

    def test_multiply_p_slash_example(self):
        assert multiply(term("p", "1,3,4/2,5"), term("p", "1/2,3")) == \
            term("p", "1,3,4/2,5/6/7,8")

    def test_multiply_unit(self):
        f = term("x", "1,2") + term("x", "1/2", Fraction(1, 3))
        assert multiply(f, one()) == f
        assert multiply(one(), f) == f

    def test_multiply_x_example(self):
        assert multiply(term("x", "1"), term("x", "1,2")) == term("x", "1/2,3")

    @pytest.mark.parametrize("basis", ["p", "e", "x"])
    def test_slash_multiplicative_bases(self, basis):
        for n in range(1, 3):
            for m in range(1, 6 - n):
                for pi in enumerate_partitions(n):
                    for sigma in enumerate_partitions(m):
                        assert multiply(basis_term(basis, pi),
                                        basis_term(basis, sigma)) == \
                            basis_term(basis, pi.slash(sigma))

    def test_m_products_do_not_follow_slash(self):
        # m_1 m_1 = m_{1/2} + m_{12}, not m_{1/2}
        product = multiply(term("m", "1"), term("m", "1"))
        assert product == term("m", "1/2") + term("m", "1,2")
        assert product != term("m", "1/2")

    def test_h_products_follow_slash_on_small_degrees(self):
        # the unsigned-weight basis is slash-multiplicative: the interval
        # below pi|sigma factors block by block, so the weights multiply
        for n in range(1, 4):
            for m in range(1, 5 - n):
                for pi in enumerate_partitions(n):
                    for sigma in enumerate_partitions(m):
                        assert multiply(basis_term("h", pi),
                                        basis_term("h", sigma)) == \
                            basis_term("h", pi.slash(sigma))


class TestLinearCombination:
    @staticmethod
    def random_element(rng, basis, n):
        partitions = enumerate_partitions(n)
        return NCSymElement(basis, n, {pi: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                       for pi in rng.sample(partitions, min(4, len(partitions)))})

    def random_pairs(self, rng, n):
        pairs = []
        for _ in range(rng.randint(1, 6)):
            f = self.random_element(rng, rng.choice(BASES), n)
            pairs.append((f, rng.choice([0, 1, -1, rng.randint(-5, 5),
                                         Fraction(rng.randint(-5, 5), rng.randint(1, 6))])))
            if rng.random() < 0.3:
                pairs.append((NCSymElement.zero(rng.choice(BASES), n + 1), rng.randint(-3, 3)))
        return pairs

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_equals_the_fold_of_add_and_scale(self, n):
        rng = random.Random(n)
        for _ in range(25):
            pairs = self.random_pairs(rng, n)
            basis = rng.choice(BASES)
            total = linear_combination(basis, n, pairs)
            assert total.basis == basis and total.degree == n
            fold = reduce(add, (scale(f, c) for f, c in pairs), NCSymElement.zero(basis, n))
            assert total == fold
            # an oracle built from the exported views only
            wanted = {}
            for f, c in pairs:
                if c and not f.is_zero():
                    for pi, value in convert(f, basis).terms.items():
                        wanted[pi] = wanted.get(pi, 0) + c * value
            assert dict(total.terms) == {pi: value for pi, value in wanted.items() if value}

    def test_canonical_storage_matches_the_constructor(self):
        f = term("p", "1,2/3", Fraction(1, 6)) + term("p", "1/2,3", Fraction(1, 10))
        total = linear_combination("p", 3, [(f, Fraction(3, 7)), (term("p", "1,2/3"), Fraction(-1, 14))])
        assert total._den == 70 and total._terms == NCSymElement("p", 3, total.terms)._terms
        assert total == term("p", "1/2,3", Fraction(3, 70))

    def test_accepts_a_one_shot_generator(self):
        rng = random.Random(7)
        pairs = self.random_pairs(rng, 4)
        total = linear_combination("x", 4, iter(pairs))
        assert total == linear_combination("x", 4, list(pairs))
        assert linear_combination("h", 4, iter([])) == NCSymElement.zero("h", 4)

    def test_zero_terms_of_any_degree_are_skipped(self):
        f = term("e", "1,2/3", Fraction(2, 3))
        pairs = [(term("p", "1,2"), 0), (NCSymElement.zero("m", 5), 3), (f, 1)]
        assert linear_combination("e", 3, pairs) == f
        assert linear_combination("e", 3, pairs)._terms == f._terms

    def test_a_nonzero_element_of_another_degree_names_both_degrees(self):
        with pytest.raises(DomainError, match="cannot add degree 3 to degree 2"):
            linear_combination("p", 3, [(term("p", "1/2/3"), 1), (term("x", "1,2"), 1)])
        with pytest.raises(DomainError, match="cannot add degree 1 to degree 2"):
            add(term("p", "1"), term("h", "1,2"))

    def test_adding_a_zero_of_another_degree_returns_the_other_side(self):
        g = term("x", "1,2", Fraction(-5, 2))
        assert add(NCSymElement.zero("p", 3), g) is g
        assert add(g, NCSymElement.zero("m", 3)) is g
        assert g.basis == "x"

    def test_two_zeros_of_different_degrees_keep_the_first_degree(self):
        f, g = NCSymElement.zero("e", 4), NCSymElement.zero("m", 5)
        assert add(f, g) is f and add(g, f) is g
        assert (add(f, g).degree, add(g, f).degree) == (4, 5)
        assert linear_combination("e", 4, [(f, 1), (g, 1)]).degree == 4


class TestOperators:
    def f(self):
        return term("p", "1,2") + term("p", "1/2", Fraction(1, 3))

    def test_match_the_module_functions(self):
        f, g = self.f(), term("x", "1,2")
        assert -f == scale(f, -1)
        assert f * g == multiply(f, g)
        assert 2 * f == scale(f, 2)
        assert f * Fraction(1, 3) == scale(f, Fraction(1, 3))
        assert repr(f) == "<NCSymElement p{1,2} + 1/3*p{1/2}>"

    def test_foreign_operands(self):
        f = self.f()
        with pytest.raises(TypeError):
            f * "x"
        with pytest.raises(TypeError):
            f + 1
        with pytest.raises(TypeError):
            f - 1
        with pytest.raises(TypeError):
            "x" * f
        assert (f == 3) is False

    def test_zero_coefficient_term_is_zero(self):
        zero = basis_term("e", parse_partition("1,2/3"), 0)
        assert zero.is_zero()
        assert zero == NCSymElement.zero("e", 3)

    def test_elements_of_different_degrees_are_unequal(self):
        assert (term("p", "1") == term("p", "1/2")) is False
        assert (term("x", "1,2") == term("p", "1,2,3")) is False
        assert NCSymElement.zero("m", 2) != NCSymElement.zero("m", 3)


class TestSymElement:
    def lam(self, *parts):
        return IntegerPartition(parts)

    def test_arithmetic(self):
        a = sym_basis_term("p", self.lam(2, 1), 3)
        b = sym_basis_term("p", self.lam(1, 1, 1), Fraction(1, 2))
        both = a + b
        assert both.terms == {self.lam(2, 1): 3, self.lam(1, 1, 1): Fraction(1, 2)}
        assert (both - a) == b
        assert (a - a).is_zero()
        assert -a == sym_basis_term("p", self.lam(2, 1), -3)
        assert 2 * a == a * 2 == sym_basis_term("p", self.lam(2, 1), 6)
        assert (a * 0).is_zero() and (0 * a).is_zero()
        assert (a * 0).degree == 3
        assert a * Fraction(1, 3) == sym_basis_term("p", self.lam(2, 1))

    def test_foreign_operands(self):
        a = sym_basis_term("p", self.lam(2, 1), 3)
        for operation in (lambda: a + 1, lambda: a - 1, lambda: a * "x", lambda: "x" * a):
            with pytest.raises(TypeError):
                operation()
        assert (a == 3) is False

    def test_zero_of_another_degree_adds_as_zero(self):
        a = sym_basis_term("p", self.lam(2, 1), 3)
        zero = SymElement.zero("e", 5)
        assert a + zero == a and zero + a == a
        assert (a + zero).degree == (zero + a).degree == 3

    def test_zero_coefficient_gives_the_zero_of_the_degree(self):
        zero = sym_basis_term("h", self.lam(2, 1), 0)
        assert zero.is_zero() and zero.degree == 3
        assert zero == SymElement.zero("h", 3) != SymElement.zero("h", 4)

    def test_product_is_multiply_sym(self):
        a = sym_basis_term("p", self.lam(2, 1), 3)
        b = sym_basis_term("p", self.lam(1, 1), 2) + sym_basis_term("p", self.lam(2))
        assert a * b == multiply_sym(a, b)
        assert a * b == sym_basis_term("p", self.lam(2, 1, 1, 1), 6) \
            + sym_basis_term("p", self.lam(2, 2, 1), 3)

    def test_hash_and_repr(self):
        a = sym_basis_term("p", self.lam(2, 1), 3)
        assert hash(a) == hash(sym_basis_term("p", self.lam(2, 1), 3))
        assert len({a, a * 1, a * 2}) == 2
        assert repr(a) == "<SymElement 3*p(2,1)>"
        assert repr(SymElement.zero("e", 4)) == "<SymElement 0>"

    def test_mismatches_are_domain_errors(self):
        p21 = sym_basis_term("p", self.lam(2, 1))
        with pytest.raises(DomainError):
            p21 + sym_basis_term("p", self.lam(1))
        with pytest.raises(DomainError):
            p21 + sym_basis_term("e", self.lam(2, 1))
        with pytest.raises(DomainError):
            multiply_sym(p21, sym_basis_term("m", self.lam(1)))
        with pytest.raises(DomainError):
            sym_basis_term("h", self.lam(1)) * p21


class TestInduce:
    def test_p_examples(self):
        assert induce(term("p", "1,4/2,3")) == term("p", "1,4,5/2,3")
        assert induce(term("p", "1")) == term("p", "1,2")

    def test_x_example(self):
        assert convert(induce(term("x", "1,2")), "x") == \
            term("x", "1,2,3") + term("x", "1,2/3") + term("x", "1,3/2")

    def test_degree_zero_rejected(self):
        with pytest.raises(DomainError):
            induce(one())

    def test_induced_x_terms_stay_positive(self):
        for n in range(1, 6):
            for pi in enumerate_partitions(n):
                image = convert(induce(basis_term("x", pi)), "x")
                assert is_positive_in(image, "x")

    def test_top_block_induction_closed_form(self):
        for n in range(2, 7):
            image = convert(induce(basis_term("x", SetPartition.single_block(n - 1))), "x")
            expected = {}
            for sigma in enumerate_partitions(n):
                if len(sigma.blocks) <= 2 and all(
                        n in block or n - 1 in block for block in sigma.blocks):
                    expected[sigma] = Fraction(1)
            assert dict(image.terms) == expected


class TestAct:
    def test_m_example(self):
        delta = Permutation((2, 1, 3))
        assert act(delta, term("m", "1/2,3")) == term("m", "1,3/2")

    def test_identity(self):
        f = term("x", "1,2/3") + term("x", "1,2,3", Fraction(-2, 5))
        assert act(Permutation.identity(3), f) == f

    def test_setwise_fixed_partition(self):
        delta = Permutation((2, 1, 3))
        assert act(delta, term("x", "1,2/3")) == term("x", "1,2/3")

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            act(Permutation((1, 2)), term("p", "1,2,3"))

    def test_action_is_a_homomorphism(self):
        delta = Permutation((3, 1, 2))
        f = term("p", "1,2/3") - term("p", "1,2,3", Fraction(1, 2))
        g = term("p", "1/2")
        lhs = act(Permutation((3, 1, 2, 4, 5)), multiply(f, g))
        # block permutation acting only on the first factor's labels
        rhs = multiply(act(delta, f), g)
        assert lhs == rhs


class TestProjection:
    def test_p_is_plain(self):
        assert project(term("p", "1,3/2")) == \
            sym_basis_term("p", IntegerPartition((2, 1)))

    def test_e_scalar(self):
        assert project(term("e", "1,3,4/2,5/6/7,8")) == \
            sym_basis_term("e", IntegerPartition((3, 2, 2, 1)), 24)

    def test_h_scalar(self):
        assert project(term("h", "1,2/3")) == \
            sym_basis_term("h", IntegerPartition((2, 1)), 2)

    def test_m_scalar_uses_multiplicities(self):
        # two blocks of size 2: lambda^! = 2!
        assert project(term("m", "1,2/3,4")) == \
            sym_basis_term("m", IntegerPartition((2, 2)), 2)

    def test_zero(self):
        assert project(NCSymElement.zero("p", 3)) == SymElement.zero("p", 3)

    def test_scalars_match_commuted_word_counts(self):
        for n in range(1, 5):
            for pi in enumerate_partitions(n):
                for basis in ("m", "p", "e", "h"):
                    f = basis_term(basis, pi)
                    assert collapse_words(word_expansion(f, n), n) == \
                        sym_monomial_expansion(project(f), n)

    def test_morphism_on_products(self):
        for n, m in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3)]:
            for pi in enumerate_partitions(n)[:3]:
                for sigma in enumerate_partitions(m)[:3]:
                    f, g = basis_term("p", pi), basis_term("p", sigma)
                    assert project(multiply(f, g)) == \
                        multiply_sym(project(f), project(g))


class TestSigns:
    def test_positive_and_negative_flags(self):
        f = term("e", "1,3/2")
        assert is_positive_in(f, "e")
        assert is_negative_in(scale(f, -1), "e")
        assert not is_positive_in(term("x", "1,2"), "p")

    def test_coefficient_lookup(self):
        f = convert(term("p", "1,3/2"), "x")
        assert coefficient(f, "x", parse_partition("1/2/3")) == 1
        assert coefficient(f, "x", parse_partition("1,2/3")) == 0
        assert coefficient(f, "p", parse_partition("1,2")) == 0  # degree mismatch

    def test_e_to_x_alternating_sign(self):
        for n in range(1, 6):
            for pi in enumerate_partitions(n):
                signed = scale(convert(basis_term("e", pi), "x"),
                               (-1) ** (n - len(pi.blocks)))
                assert is_positive_in(signed, "x")


def test_atomic_e_products_span_everything():
    # products of e over atomic decompositions form a square invertible system
    for n in range(1, 6):
        partitions = enumerate_partitions(n)
        index = {pi: i for i, pi in enumerate(partitions)}
        rows = []
        for pi in partitions:
            product = one("e")
            for atom in pi.atomic_decomposition():
                product = multiply(product, basis_term("e", atom))
            as_p = convert(product, "p")
            row = [Fraction(0)] * len(partitions)
            for sigma, c in as_p.terms.items():
                row[index[sigma]] = c
            rows.append(row)
        assert rank_over_q(rows) == len(partitions)


class TestJson:
    def test_round_trip(self):
        f = term("p", "1,3/2", Fraction(-1, 2)) + term("p", "1/2/3", 3)
        data = element_to_json_dict(f)
        assert data["basis"] == "p" and data["degree"] == 3
        assert element_from_json_dict(data) == f

    def test_terms_are_sorted_canonically(self):
        f = term("m", "1/2/3") + term("m", "1,2,3") + term("m", "1,3/2")
        texts = [t["partition"] for t in element_to_json_dict(f)["terms"]]
        assert texts == ["1,2,3", "1,3/2", "1/2/3"]

    @pytest.mark.parametrize("data", [
        {"basis": "p", "degree": 2},
        {"basis": "p", "degree": 2, "terms": [{"partition": "1,2", "num": 1}]},
        {"basis": "z", "degree": 2, "terms": []},
        {"basis": "p", "degree": 2,
         "terms": [{"partition": "1,2,3", "num": 1, "den": 1}]},
        {"basis": "p", "degree": 2,
         "terms": [{"partition": "1,2", "num": 1, "den": 0}]},
        {"basis": "p", "degree": -1, "terms": []},
    ])
    def test_malformed_payloads_rejected(self, data):
        with pytest.raises(DomainError):
            element_from_json_dict(data)


@st.composite
def elements(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    basis = draw(st.sampled_from(BASES))
    partitions = enumerate_partitions(n)
    count = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(count):
        pi = draw(st.sampled_from(partitions))
        num = draw(st.integers(min_value=-6, max_value=6))
        den = draw(st.integers(min_value=1, max_value=4))
        terms[pi] = terms.get(pi, Fraction(0)) + Fraction(num, den)
    return NCSymElement(basis, n, {p: c for p, c in terms.items() if c})


@settings(max_examples=60)
@given(elements())
def test_conversion_cycles_preserve_elements(f):
    for target in BASES:
        assert convert(convert(f, target), f.basis) == f


@settings(max_examples=40)
@given(elements(max_n=3), elements(max_n=3))
def test_multiplication_distributes_over_addition(f, g):
    if f.degree != g.degree:
        return
    h = term("p", "1")
    lhs = multiply(add(f, g), h)
    rhs = add(multiply(f, h), multiply(g, h))
    assert lhs == rhs
