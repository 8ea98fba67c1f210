from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bell_numbers,
    coarser_partitions,
    finer_partitions,
    mobius_by_recursion,
    rgs_walk,
)
from ncsym import partitions
from ncsym.elements import from_block_masks, from_weighted_blocks
from ncsym.errors import DomainError
from ncsym.graphs import random_graph
from ncsym.partitions import (
    IntegerPartition,
    Permutation,
    SetPartition,
    block_elements,
    enumerate_partitions,
    max_ground_set,
    mobius_from_bottom,
    mobius_interval,
    multiplicity_factorial,
    parse_partition,
    parts_factorial,
    weighted_partitions,
)

BELL = bell_numbers(8)


def part(text: str) -> SetPartition:
    return parse_partition(text)


class TestConstruction:
    def test_blocks_are_canonical(self):
        pi = SetPartition(5, [[2, 5], [4, 1, 3]])
        assert pi.blocks == ((1, 3, 4), (2, 5))
        assert pi.rgs == (0, 1, 0, 0, 1)

    def test_cover_must_be_exact(self):
        with pytest.raises(DomainError):
            SetPartition(3, [[1, 2]])
        with pytest.raises(DomainError):
            SetPartition(3, [[1, 2], [2, 3]])
        with pytest.raises(DomainError):
            SetPartition(2, [[1, 2], []])
        with pytest.raises(DomainError):
            SetPartition(2, [[1, 2, 3]])

    def test_empty_partition(self):
        empty = SetPartition.empty()
        assert empty.n == 0
        assert empty.blocks == ()
        assert empty == SetPartition(0, [])

    def test_from_rgs_round_trip(self):
        for n in range(6):
            for pi in enumerate_partitions(n):
                assert SetPartition.from_rgs(pi.rgs) == pi

    def test_parse_comma_form(self):
        pi = part("1,3,4/2,5")
        assert pi.n == 5
        assert pi.blocks == ((1, 3, 4), (2, 5))
        assert pi.to_text() == "1,3,4/2,5"

    def test_parse_compact_form(self):
        assert part("134/25") == part("1,3,4/2,5")
        assert part("13/2") == part("1,3/2")
        # single digits with no grouping stay unambiguous either way
        assert part("1/2/3") == SetPartition.singletons(3)

    def test_parse_rejects_garbage(self):
        for bad in ("1,3/3", "1//2", "0,1", "1,2/4", "a/b", "/"):
            with pytest.raises(DomainError):
                part(bad)

    def test_parse_empty_text_is_degree_zero(self):
        assert part("") == SetPartition.empty()


class TestEnumeration:
    @pytest.mark.parametrize("n", range(8))
    def test_counts_are_bell_numbers(self, n):
        assert len(enumerate_partitions(n)) == BELL[n]

    def test_order_is_lexicographic_in_rgs(self):
        for n in range(1, 6):
            seq = [pi.rgs for pi in enumerate_partitions(n)]
            assert seq == sorted(seq)
            assert len(set(seq)) == len(seq)

    @pytest.mark.parametrize("n", range(10))
    def test_order_matches_the_rgs_walk(self, n):
        walk = list(rgs_walk(n))
        assert [pi.rgs for pi in enumerate_partitions(n)] == walk
        assert [pi.blocks for pi in enumerate_partitions(n)] == [
            SetPartition.from_rgs(r).blocks for r in walk]

    def test_set_partitions_of_a_mask(self):
        mask = 0b10110100
        found = partitions.set_partitions(mask)
        assert len(found) == BELL[4]
        for masks in found:
            assert sum(masks) == mask and len(set(masks)) == len(masks)
            assert list(masks) == sorted(masks, key=lambda m: m & -m)
        assert partitions.set_partitions(0) == ((),)

    def test_block_elements(self):
        assert block_elements(0) == ()
        assert block_elements(0b10110100) == (2, 4, 5, 7)

    def test_limit_is_enforced(self, monkeypatch):
        monkeypatch.setenv("NCSYM_MAX_N", "4")
        assert max_ground_set() == 4
        with pytest.raises(Exception) as err:
            enumerate_partitions(5)
        assert "4" in str(err.value)

    def test_bad_limit_env(self, monkeypatch):
        monkeypatch.setenv("NCSYM_MAX_N", "zero")
        with pytest.raises(DomainError):
            max_ground_set()


def mask_keys(n):
    # one-mask tuples label each partition by its block masks, least element first
    return [()] + [(s,) for s in range(1, 1 << (n + 1))]


class TestWeightedPartitions:
    # keys are block-mask tuples, least element first; the elements built from
    # them are checked in tests/test_chromatic.py
    @pytest.mark.parametrize("n", range(7))
    def test_unit_weights_give_every_partition(self, n):
        found = weighted_partitions(n, [1] * (1 << (n + 1)), mask_keys(n))
        assert set(found) == {masks_of(pi) for pi in enumerate_partitions(n)}
        assert set(found.values()) == {1}

    def test_leaf_condition_drops_singletons(self):
        weight = [1] * 16
        weight[1 << 3] = 0
        found = weighted_partitions(3, weight, mask_keys(3))
        assert set(found) == {masks_of(part(text)) for text in ["1,2,3", "1,3/2", "1/2,3"]}


def block_mask(block):
    return sum(1 << x for x in block)


def masks_of(pi: SetPartition) -> tuple[int, ...]:
    return tuple(map(block_mask, pi.blocks))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=99),
       st.data())
def test_weighted_partitions_multiply_block_weights(n, seed, data):
    g = random_graph(n, 0.5, seed)
    weight = [0] * (1 << (n + 1))
    for s in range(2, 1 << (n + 1), 2):
        if g.is_connected_subset(s):
            weight[s] = data.draw(st.integers(min_value=-3, max_value=3))
    expected = {}
    for pi in enumerate_partitions(n):
        value = prod(weight[block_mask(b)] for b in pi.blocks)
        if value:
            expected[masks_of(pi)] = value
    found = weighted_partitions(n, weight, mask_keys(n))
    assert found == expected
    # the code-keyed element against the independent per-mask encoder
    assert from_weighted_blocks("p", n, weight) == from_block_masks("p", n, found.items())


class TestRefinement:
    def test_examples(self):
        assert part("1,3/2/4").refines(part("1,3,4/2"))
        assert not part("1,2/3").refines(part("1,3/2"))
        assert part("1,2,3").refines(part("1,2,3"))

    def test_matches_blockwise_definition(self):
        for pi in enumerate_partitions(4):
            for sigma in enumerate_partitions(4):
                expected = all(
                    any(set(b).issubset(set(c)) for c in pi.blocks)
                    for b in sigma.blocks)
                assert sigma.refines(pi) == expected

    def test_finer_partitions_agree_with_scan(self):
        for pi in enumerate_partitions(5):
            fine = set(finer_partitions(pi))
            scan = {s for s in enumerate_partitions(5) if s.refines(pi)}
            assert fine == scan

    def test_coarser_partitions_agree_with_scan(self):
        for pi in enumerate_partitions(5):
            coarse = set(coarser_partitions(pi))
            scan = {s for s in enumerate_partitions(5) if pi.refines(s)}
            assert coarse == scan


class TestSlashAndAtoms:
    def test_slash_shifts_second_factor(self):
        assert part("1,3,4/2,5").slash(part("1/2,3")) == part("1,3,4/2,5/6/7,8")
        assert SetPartition.empty().slash(part("1,2")) == part("1,2")
        assert part("1").slash(SetPartition.empty()) == part("1")

    def test_atomic_flags(self):
        assert part("1,3,4/2,5").is_atomic
        assert part("1").is_atomic
        assert not part("1,2/3").is_atomic
        assert not SetPartition.empty().is_atomic

    def test_decomposition_example(self):
        atoms = part("1,3,4/2,5/6/7,8").atomic_decomposition()
        assert [a.to_text() for a in atoms] == ["1,3,4/2,5", "1", "1,2"]

    def test_decomposition_multiplies_back(self):
        for n in range(7):
            for pi in enumerate_partitions(n):
                rebuilt = SetPartition.empty()
                for atom in pi.atomic_decomposition():
                    assert atom.is_atomic
                    rebuilt = rebuilt.slash(atom)
                assert rebuilt == pi

    def test_adjoin_top(self):
        assert part("1,4/2,3").adjoin_top() == part("1,4,5/2,3")
        assert part("1").adjoin_top() == part("1,2")


class TestShape:
    def test_shape_sorts_descending(self):
        assert part("1,3,4/2,5/6/7,8").shape().parts == (3, 2, 2, 1)

    def test_factorials(self):
        lam = IntegerPartition((3, 2, 2, 1))
        assert parts_factorial(lam) == 24
        assert multiplicity_factorial(lam) == 2
        assert parts_factorial(IntegerPartition(())) == 1
        assert multiplicity_factorial(IntegerPartition(())) == 1

    def test_integer_partition_validation(self):
        assert IntegerPartition([2, 3, 1]).parts == (3, 2, 1)
        with pytest.raises(DomainError):
            IntegerPartition((0,))
        with pytest.raises(DomainError):
            IntegerPartition((-1, 2))

    def test_integer_partitions_order_iterate_and_repr(self):
        lam = IntegerPartition([1, 3, 2])
        assert list(lam) == [3, 2, 1]
        # by size first, then by parts
        assert IntegerPartition([2, 1]) < IntegerPartition([3]) < IntegerPartition([1, 1, 1, 1])
        assert not IntegerPartition([3]) < IntegerPartition([2, 1])
        assert (IntegerPartition([2]) == (2,)) is False
        assert repr(lam) == "IntegerPartition([3, 2, 1])"
        assert eval(repr(lam), {"IntegerPartition": IntegerPartition}) == lam


class TestOrder:
    def test_set_partitions_order_by_size_then_rgs(self):
        assert part("1,2") < part("1/2") < part("1,2,3")
        assert not part("1/2") < part("1,2")
        assert (part("1,2") == "1,2") is False
        assert sorted([part("1/2/3"), part("1/2"), part("1,3/2"), part("1")]) == \
            [part("1"), part("1/2"), part("1,3/2"), part("1/2/3")]


class TestMobius:
    def test_bottom_values_follow_shape_product(self):
        assert mobius_from_bottom(part("1,2,3")) == 2
        assert mobius_from_bottom(part("1,2/3")) == -1
        assert mobius_from_bottom(SetPartition.singletons(4)) == 1
        assert mobius_from_bottom(part("1,2,3,4")) == -6

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_interval_values_match_recursion(self, n):
        for sigma in enumerate_partitions(n):
            for pi in enumerate_partitions(n):
                if sigma.refines(pi):
                    assert mobius_interval(sigma, pi) == mobius_by_recursion(sigma, pi)

    def test_interval_requires_refinement(self):
        with pytest.raises(DomainError):
            mobius_interval(part("1,2/3"), part("1,3/2"))

    def test_full_interval_equals_bottom_formula(self):
        for pi in enumerate_partitions(5):
            assert mobius_interval(SetPartition.singletons(5), pi) == \
                mobius_from_bottom(pi)


class TestPermutations:
    def test_compose_and_inverse(self):
        delta = Permutation((2, 3, 1))
        assert delta(1) == 2
        assert (delta.inverse().compose(delta)).images == (1, 2, 3)
        assert Permutation.identity(3).images == (1, 2, 3)

    def test_must_be_bijection(self):
        with pytest.raises(DomainError):
            Permutation((1, 1, 3))
        with pytest.raises(DomainError):
            Permutation((0, 1))

    def test_apply_to_partition(self):
        delta = Permutation((2, 1, 3))
        assert part("1/2,3").permuted(delta) == part("1,3/2")
        assert part("1,2/3").permuted(delta) == part("1,2/3")

    def test_apply_needs_matching_size(self):
        with pytest.raises(DomainError):
            part("1,2,3").permuted(Permutation((1, 2)))

    def test_equality_hash_and_repr(self):
        delta = Permutation([2, 1, 3])
        assert delta == Permutation((2, 1, 3)) and delta != Permutation.identity(3)
        assert (delta == (2, 1, 3)) is False
        assert hash(delta) == hash(Permutation((2, 1, 3)))
        assert len({delta, Permutation((2, 1, 3)), Permutation.identity(3)}) == 2
        assert repr(delta) == "Permutation([2, 1, 3])"
        assert eval(repr(delta), {"Permutation": Permutation}) == delta


@st.composite
def set_partitions(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    rgs = []
    top = -1
    for _ in range(n):
        value = draw(st.integers(min_value=0, max_value=top + 1))
        rgs.append(value)
        top = max(top, value)
    return SetPartition.from_rgs(tuple(rgs))


@given(set_partitions())
def test_text_round_trip(pi):
    assert parse_partition(pi.to_text()) == pi


@given(set_partitions(max_n=5), set_partitions(max_n=5))
def test_slash_shape_concatenates(a, b):
    joined = a.slash(b)
    assert joined.n == a.n + b.n
    assert sorted(joined.shape().parts, reverse=True) == \
        sorted(a.shape().parts + b.shape().parts, reverse=True)


@settings(max_examples=60)
@given(set_partitions(max_n=4), set_partitions(max_n=4), set_partitions(max_n=4))
def test_slash_is_associative(a, b, c):
    assert a.slash(b).slash(c) == a.slash(b.slash(c))


@settings(max_examples=80)
@given(set_partitions(max_n=5))
def test_refinement_is_reflexive_and_bounded(pi):
    assert pi.refines(pi)
    if pi.n:
        assert SetPartition.singletons(pi.n).refines(pi)
        assert pi.refines(SetPartition.single_block(pi.n))
