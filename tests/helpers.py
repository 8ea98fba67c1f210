"""Independent oracle computations the tests compare the library against.

Everything here is deliberately written from first principles with different
algorithms than the package uses: Bell numbers by the triangle recurrence,
the order of set partitions by the restricted-growth-string successor walk,
Moebius values by the recursive defining sum, word expansions by filtering
all k^n words against the tuple conditions, Y_G by enumerating proper
colorings, ranks by fraction Gaussian elimination, and commutative monomial
expansions by direct polynomial arithmetic.  Changes of basis are composed
from one cached column per basis term, each listed by the interval
enumerators below, where the package converts on integer codes.
"""

from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from ncsym.chromatic_bases import ChromaticBasis, transition_matrix
from ncsym.elements import NCSymElement
from ncsym.graphs import LabeledGraph, format_graph
from ncsym.partitions import (
    SetPartition,
    enumerate_partitions,
    mobius_from_bottom,
    mobius_interval,
)


def bell_numbers(limit: int) -> list[int]:
    """Bell numbers B_0..B_limit via the Bell triangle."""
    values = [1]
    row = [1]
    for _ in range(limit):
        nxt = [row[-1]]
        for entry in row:
            nxt.append(nxt[-1] + entry)
        values.append(nxt[0])
        row = nxt
    return values


def rgs_walk(n: int):
    """Restricted growth strings of length n in lexicographic order, by the
    classical successor walk rather than by sorting."""
    if n == 0:
        yield ()
        return
    a = [0] * n
    # b[i] = 1 + max(a[:i]); position i may legally hold any value in 0..b[i]
    b = [1] * n
    while True:
        yield tuple(a)
        i = n - 1
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        m = b[i] if a[i] < b[i] else a[i] + 1
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = m


def mobius_by_recursion(sigma: SetPartition, pi: SetPartition) -> int:
    """mu(sigma, pi) from the defining recursion over the interval."""
    assert sigma.refines(pi)
    interval = [tau for tau in enumerate_partitions(pi.n)
                if sigma.refines(tau) and tau.refines(pi)]
    values: dict[SetPartition, int] = {}
    # finest first so every proper lower bound is ready when needed
    for tau in sorted(interval, key=lambda t: (-len(t.blocks), t.rgs)):
        if tau == sigma:
            values[tau] = 1
        else:
            values[tau] = -sum(values[rho] for rho in interval
                               if sigma.refines(rho) and rho.refines(tau)
                               and rho != tau)
    return values[pi]


def _same_block_pairs(pi: SetPartition):
    for block in pi.blocks:
        for a, b in combinations(block, 2):
            yield a - 1, b - 1


def definitional_words(basis: str, pi: SetPartition, k: int) -> dict:
    """Word expansion of m/p/e basis terms by scanning all k^n words."""
    n = pi.n
    pairs = list(_same_block_pairs(pi))
    out = {}
    for word in product(range(1, k + 1), repeat=n):
        if basis == "m":
            ok = all((word[a] == word[b]) == (pi.rgs[a] == pi.rgs[b])
                     for a in range(n) for b in range(a + 1, n))
        elif basis == "p":
            ok = all(word[a] == word[b] for a, b in pairs)
        elif basis == "e":
            ok = all(word[a] != word[b] for a, b in pairs)
        else:
            raise ValueError(basis)
        if ok:
            out[word] = Fraction(1)
    return out


def coloring_words(graph: LabeledGraph, k: int) -> dict:
    """Y_G by brute force: one word per proper coloring with palette [k]."""
    out = {}
    for coloring in product(range(1, k + 1), repeat=graph.n):
        if all(coloring[u - 1] != coloring[v - 1] for u, v in graph.edges):
            word = tuple(coloring)
            out[word] = out.get(word, Fraction(0)) + 1
    return {w: c for w, c in out.items() if c}


def signed_subset_expansion(graph: LabeledGraph) -> dict:
    """Y_G in the p basis by iterating subsets with a throwaway merge-find."""
    n = graph.n
    out: dict[SetPartition, Fraction] = {}
    edges = graph.edges
    for r in range(len(edges) + 1):
        for subset in combinations(edges, r):
            parent = list(range(n + 1))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for u, v in subset:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)
            blocks: dict[int, list[int]] = {}
            for x in range(1, n + 1):
                blocks.setdefault(find(x), []).append(x)
            pi = SetPartition(n, list(blocks.values()))
            sign = Fraction(-1 if r % 2 else 1)
            out[pi] = out.get(pi, Fraction(0)) + sign
    return {p: c for p, c in out.items() if c}


def rank_over_q(matrix: list[list[Fraction]]) -> int:
    """Exact rank by fraction Gaussian elimination."""
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [value / lead for value in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


@contextmanager
def no_term_view():
    """Within the block, reading ``NCSymElement.terms`` fails the test: the
    code run there must not build the ``SetPartition``/``Fraction`` view."""
    def fail(element):
        pytest.fail("NCSymElement.terms was read")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NCSymElement, "terms", property(fail))
        yield


def basis_json_payload(basis: ChromaticBasis) -> dict:
    """The whole ``basis --json`` document as one dict, built from the dense
    ``Fraction`` matrix the way the CLI built it before it wrote row by row;
    json.dumps(..., indent=2, sort_keys=True) of it is the expected output."""
    return {
        "n": basis.n,
        "strategy": basis.strategy.name,
        "order": [pi.to_text() for pi in basis.order],
        "matrix": [[{"num": c.numerator, "den": c.denominator} for c in row]
                   for row in transition_matrix(basis)],
        "generators": [{"partition": pi.to_text(), "graph": format_graph(graph)}
                       for pi, graph in zip(basis.order, basis.graphs)],
    }


def collapse_words(word_map: dict, k: int) -> dict:
    """Let the variables commute: word coefficients regrouped by exponent
    vector of x_1..x_k."""
    out: dict[tuple, Fraction] = {}
    for word, coeff in word_map.items():
        exponents = [0] * k
        for letter in word:
            exponents[letter - 1] += 1
        key = tuple(exponents)
        out[key] = out.get(key, Fraction(0)) + coeff
    return {e: c for e, c in out.items() if c}


def _poly_mul(f: dict, g: dict, k: int) -> dict:
    out: dict[tuple, Fraction] = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _one(k: int) -> dict:
    return {tuple([0] * k): Fraction(1)}


def _sym_generator(basis: str, r: int, k: int) -> dict:
    """p_r, e_r, or h_r as a polynomial in x_1..x_k (exponent-vector dict)."""
    out: dict[tuple, Fraction] = {}
    if basis == "p":
        for i in range(k):
            e = [0] * k
            e[i] = r
            out[tuple(e)] = Fraction(1)
        return out
    chooser = combinations if basis == "e" else combinations_with_replacement
    for pick in chooser(range(k), r):
        e = [0] * k
        for i in pick:
            e[i] += 1
        key = tuple(e)
        out[key] = out.get(key, Fraction(0)) + 1
    return out


def sym_monomial_expansion(f, k: int) -> dict:
    """A SymElement as a polynomial in k commuting variables."""
    total: dict[tuple, Fraction] = {}
    for lam, coeff in f.terms.items():
        if f.basis == "m":
            term: dict[tuple, Fraction] = {}
            padded = tuple(lam.parts) + (0,) * (k - len(lam.parts))
            if len(lam.parts) > k:
                continue
            for arrangement in set(permutations(padded)):
                term[arrangement] = Fraction(1)
        else:
            term = _one(k)
            for part in lam.parts:
                term = _poly_mul(term, _sym_generator(f.basis, part, k), k)
        for e, c in term.items():
            total[e] = total.get(e, Fraction(0)) + coeff * c
    return {e: c for e, c in total.items() if c}


@cache
def partitions_of_labels(labels: tuple) -> tuple:
    """All partitions of an ascending label tuple, as tuples of blocks."""
    return tuple(tuple(tuple(labels[x - 1] for x in block) for block in pi.blocks)
                 for pi in enumerate_partitions(len(labels)))


# Both enumerators build canonical blocks (ascending, ordered by least
# element), so they skip SetPartition's validation.


def finer_partitions(pi: SetPartition):
    """All sigma <= pi: each block of pi refined independently."""
    per_block = [partitions_of_labels(block) for block in pi.blocks]
    for combo in product(*per_block):
        blocks = [block for part in combo for block in part]
        blocks.sort(key=lambda b: b[0])
        yield SetPartition._raw(pi.n, tuple(blocks))


def coarser_partitions(pi: SetPartition):
    """All sigma >= pi: blocks of pi merged along a partition of the block list."""
    for grouping in partitions_of_labels(tuple(range(len(pi.blocks)))):
        blocks = tuple(tuple(sorted(x for index in group for x in pi.blocks[index]))
                       for group in grouping)
        yield SetPartition._raw(pi.n, blocks)


@cache
def to_p_column(basis: str, pi: SetPartition) -> dict:
    """b_pi over p by the Rosas-Sagan interval sums, as {sigma: coefficient}."""
    if basis == "p":
        return {pi: Fraction(1)}
    if basis == "m":
        return {sigma: Fraction(mobius_interval(pi, sigma)) for sigma in coarser_partitions(pi)}
    if basis == "x":
        return {sigma: Fraction(mobius_interval(sigma, pi)) for sigma in finer_partitions(pi)}
    sign = abs if basis == "h" else int
    return {sigma: Fraction(sign(mobius_from_bottom(sigma))) for sigma in finer_partitions(pi)}


@cache
def from_p_column(basis: str, pi: SetPartition) -> dict:
    """p_pi over the given basis, as {sigma: coefficient}."""
    if basis == "p":
        return {pi: Fraction(1)}
    if basis == "m":
        return {sigma: Fraction(1) for sigma in coarser_partitions(pi)}
    if basis == "x":
        return {sigma: Fraction(1) for sigma in finer_partitions(pi)}
    bottom = abs(mobius_from_bottom(pi)) if basis == "h" else mobius_from_bottom(pi)
    return {sigma: Fraction(mobius_interval(sigma, pi), bottom) for sigma in finer_partitions(pi)}


def _apply_columns(terms: dict, column) -> dict:
    out: dict = {}
    for pi, coeff in terms.items():
        for sigma, weight in column(pi).items():
            out[sigma] = out.get(sigma, 0) + coeff * weight
    return {sigma: c for sigma, c in out.items() if c}


def convert_by_columns(f: NCSymElement, target: str) -> dict:
    """The terms of f in the target basis, composed column by column through p."""
    if f.basis == target:
        return dict(f.terms)
    p_terms = _apply_columns(dict(f.terms), lambda pi: to_p_column(f.basis, pi))
    return _apply_columns(p_terms, lambda pi: from_p_column(target, pi))
