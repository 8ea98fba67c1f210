"""The integer-coded change of basis against the column-by-column oracle,
its up-front refusal, and its bounded caches."""

import hashlib
import importlib
import pkgutil
import random
import time
from fractions import Fraction
from itertools import permutations
from math import comb, prod

import pytest

import ncsym
from helpers import bell_numbers, convert_by_columns
from ncsym import chromatic, elements, partitions
from ncsym.chromatic import chromatic_symmetric_function, conversion_pairs, csf_from_colorings
from ncsym.elements import (
    BASES,
    MAX_CONVERSION_PAIRS,
    NCSymElement,
    basis_term,
    convert,
)
from ncsym.errors import ResourceLimitError
from ncsym.graphs import LabeledGraph, random_graph
from ncsym.partitions import (
    SetPartition,
    bell_number,
    enumerate_partitions,
    weighted_partition_sums,
    weighted_partitions,
)

PAIRS = list(permutations(BASES, 2))


def functools_caches() -> dict:
    """Every functools cache at the top level of an ncsym module, by name."""
    found = {}
    for info in pkgutil.iter_modules(ncsym.__path__):
        module = importlib.import_module(f"ncsym.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                found[name] = value
    return found


def digest(terms) -> str:
    text = "\n".join(f"{pi.to_text()} {coeff}"
                     for pi, coeff in sorted(terms.items(), key=lambda item: item[0].rgs))
    return hashlib.sha256(text.encode()).hexdigest()


def complete_graph(n: int) -> LabeledGraph:
    return LabeledGraph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


@pytest.mark.parametrize("source,target", PAIRS)
def test_every_basis_term_up_to_n6_matches_the_columns(source, target):
    for n in range(7):
        for pi in enumerate_partitions(n):
            f = basis_term(source, pi)
            assert dict(convert(f, target).terms) == convert_by_columns(f, target), pi


@pytest.mark.parametrize("seed", range(3))
def test_fractional_elements_at_n7_match_the_columns(seed):
    rng = random.Random(seed)
    support = enumerate_partitions(7)
    for source, target in PAIRS:
        terms = {rng.choice(support): Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                 for _ in range(6)}
        f = NCSymElement(source, 7, terms)
        assert dict(convert(f, target).terms) == convert_by_columns(f, target)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_graph_on_8_vertices_hashes_like_the_columns(seed):
    y = chromatic_symmetric_function(random_graph(8, 0.5, seed))
    for target in "mehx":
        assert digest(convert(y, target).terms) == digest(convert_by_columns(y, target))


def test_degree_zero_round_trips():
    unit = basis_term("p", SetPartition.empty(), Fraction(5, 3))
    for target in BASES:
        assert dict(convert(unit, target).terms) == {SetPartition.empty(): Fraction(5, 3)}


class TestPairCount:
    def test_bell_numbers(self):
        assert [bell_number(k) for k in range(13)] == bell_numbers(12)

    @pytest.mark.parametrize("n", range(6))
    def test_weighted_sums_add_up_the_enumeration(self, n):
        rng = random.Random(n)
        weight = [rng.randint(-2, 3) for _ in range(1 << (n + 1))]
        full = (1 << (n + 1)) - 2
        key = [()] + [(s,) for s in range(1, 1 << (n + 1))]
        total = sum(weighted_partitions(n, weight, key).values())
        assert weighted_partition_sums(n, weight)[full] == total

    @pytest.mark.parametrize("seed", range(4))
    def test_graph_count_matches_the_support(self, seed):
        graph = random_graph(6, 0.5, seed)
        support = chromatic_symmetric_function(graph).terms
        assert conversion_pairs(graph, "p") == 0
        assert conversion_pairs(graph, "m") == len(csf_from_colorings(graph).terms)
        for target in "ehx":
            assert conversion_pairs(graph, target) == sum(
                prod(bell_number(len(b)) for b in pi.blocks) for pi in support)

    def test_cap_sits_between_k9_and_k10(self):
        assert conversion_pairs(complete_graph(9), "e") == 1_606_137
        assert conversion_pairs(complete_graph(9), "e") <= MAX_CONVERSION_PAIRS
        assert conversion_pairs(complete_graph(10), "e") > MAX_CONVERSION_PAIRS
        assert conversion_pairs(complete_graph(12), "x") == 2_276_423_485


class TestRefusal:
    @pytest.mark.parametrize("target", "ehx")
    def test_a_twelve_element_block_is_refused_promptly(self, target):
        f = basis_term("p", SetPartition.single_block(12))
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            convert(f, target)
        assert time.perf_counter() - start < 1
        assert str(MAX_CONVERSION_PAIRS) in str(err.value)
        assert str(bell_number(12)) in str(err.value)

    def test_twelve_singletons_into_m_are_refused(self):
        with pytest.raises(ResourceLimitError):
            convert(basis_term("p", SetPartition.singletons(12)), "m")

    def test_a_huge_block_is_refused_without_computing_its_bell_number(self):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            convert(basis_term("x", SetPartition.single_block(3000)), "p")
        assert time.perf_counter() - start < 1

    def test_wide_element_with_small_blocks_still_converts(self):
        f = basis_term("p", SetPartition.singletons(14))
        assert convert(f, "x") == f


class TestCaches:
    def test_only_small_blocks_are_cached(self):
        partitions.clear_caches()
        convert(basis_term("p", SetPartition.single_block(8)), "x")
        cached = partitions._small_mask_partitions.cache_info().currsize
        # at most the submasks of {1..8} with up to CACHED_BLOCK_SIZE elements
        assert 0 < cached <= sum(comb(8, k) for k in range(partitions.CACHED_BLOCK_SIZE + 1))
        partitions.set_partitions(sum(1 << x for x in range(1, 9)))
        assert partitions._small_mask_partitions.cache_info().currsize == cached
        partitions.clear_caches()
        assert partitions._small_mask_partitions.cache_info().currsize == 0

    @pytest.mark.parametrize("clear", [elements.clear_caches, chromatic.clear_caches],
                             ids=["elements", "chromatic"])
    def test_clear_caches_empties_every_functools_cache(self, clear):
        caches = functools_caches()
        assert {"_small_mask_partitions", "bell_number", "_columns",
                "_kept_change_of_basis"} <= set(caches)
        for n in (5, 8):
            y = chromatic_symmetric_function(random_graph(n, 0.5, 1))
            for target in "mehx":
                convert(convert(y, target), "p")
        assert all(cache.cache_info().currsize for cache in caches.values())
        clear()
        sizes = {name: cache.cache_info().currsize for name, cache in caches.items()}
        assert sizes == dict.fromkeys(caches, 0)

    def test_partitions_clears_its_own_caches(self):
        convert(basis_term("p", SetPartition.single_block(5)), "x")
        partitions.clear_caches()
        assert partitions._small_mask_partitions.cache_info().currsize == 0
        assert bell_number.cache_info().currsize == 0

    @pytest.mark.parametrize("source,target", PAIRS)
    def test_cold_equals_warm_on_every_basis_term_up_to_n5(self, source, target):
        for n in range(6):
            for pi in enumerate_partitions(n):
                f = basis_term(source, pi)
                elements.clear_caches()
                cold = convert(f, target)
                warm = convert(f, target)
                assert (cold.basis, cold._den, cold._terms) == (warm.basis, warm._den, warm._terms)
                assert dict(cold.terms) == convert_by_columns(f, target), pi

    @pytest.mark.parametrize("source", BASES)
    def test_one_process_converts_to_two_targets_and_back(self, source):
        y = chromatic_symmetric_function(random_graph(5, 0.6, 2))
        f = convert(y, source)
        elements.clear_caches()
        for target in BASES:
            g = convert(f, target)
            assert dict(g.terms) == convert_by_columns(f, target), target
            assert convert(g, source) == f and convert(g, "p") == y

    def test_results_do_not_depend_on_cache_state(self):
        f = chromatic_symmetric_function(random_graph(7, 0.5, 4))
        partitions.clear_caches()
        cold = {target: convert(f, target) for target in "mehx"}
        warm = {target: convert(f, target) for target in "mehx"}
        for target in "mehx":
            assert dict(cold[target].terms) == dict(warm[target].terms)
