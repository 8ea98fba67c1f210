"""Sparse exact elements of the algebra of symmetric functions in
noncommuting variables.

Five bases, each indexed by set partitions of [n] for homogeneous degree n:

* ``m`` monomial: words whose equality pattern is exactly the partition;
* ``p`` power sum: words constant on every block;
* ``e`` elementary: words with distinct letters inside every block;
* ``h`` complete homogeneous;
* ``x`` the Schur-like basis, triangular against ``p`` with Moebius weights.

The power-sum basis is the conversion hub: every change of basis routes
through ``p``, multiplication concatenates indices (slash product), and the
degree-raising operator and the symmetric group action act on ``p`` indices.
Coefficients are exact rationals; zero coefficients are never stored.

An element stores its degree, one int code per set partition with an int
count, and one positive int denominator: the coefficient of b_pi is
count / denominator.  The code of a partition of [n] has n fields of
n.bit_length() bits, element 1 in the most significant, and the field of x
holds the least element of the block of x.  It is the sum of its blocks'
codes, so it needs no sorting, and int order is the canonical order by
restricted growth string, so the sorted codes are the output order.  The
storage is canonical: no count is 0 and gcd(denominator, *counts) == 1, so
two elements of one basis are equal exactly when their dicts and
denominators are.  ``linear_combination`` sums c * f over pairs in one pass,
int counts over one running denominator; ``add`` and ``scale`` call it.
Two constructors build an element from block bitmasks (bit x for element
x).  ``from_block_masks`` takes partitions as mask tuples
with int counts, as the edge-subset and deletion-contraction routes give
them, and encodes each distinct mask on its own.  ``from_weighted_blocks``
takes a table of block weights, fills the codes of the blocks of nonzero
weight in one pass, and has ``partitions.weighted_partitions`` label each
partition with the sum of its blocks' codes as it lists it; the kernel, the
lattice route and the coloring definition use it.  ``terms`` is the
``SetPartition`` to ``Fraction`` view, in canonical order: an export only,
built anew on each read and kept nowhere, and no other ncsym module reads
it.  ``str``, ``element_to_json_dict``, the writers ``iter_text`` and
``iter_json`` and ``iter_terms``, which lists each term's text and
coefficient, never build it: ``iter_terms`` walks the sorted codes as a
trie, keeping the open blocks' texts and re-reading only the fields below
the highest one that changed from the previous code, and reduces each
coefficient on its own, or not at all over the denominator 1.

``convert`` applies the Rosas-Sagan closed forms on the codes, one step
into p and one out of it.  A step sums coeff times the column of each
support code, the expansion of that one basis element, and stores the codes
it makes.  It decodes a code into the elements of each block and builds a
bitmask only for a block that splits: a one-element block is its own only
refinement, with weight 1 in every basis.  The counts stay ints: a step out
of p into e or h also multiplies the denominator by (n - 1)!, which every
|mu(0, pi)| divides, and the result is reduced once.  Conversions between m
and p sum over coarsenings, the set partitions of a partition's k blocks;
those between x, e or h and p over refinements, one set partition of each
block.

Both come from ``partitions.set_partitions``, which caches the set partitions
of small masks.  Up to degree ``CACHED_BLOCK_SIZE`` = 6 a step also keeps
its tables and the column of every code it meets, keyed by degree, source
and target: at most 279 codes in 8 directions, 2,232 columns.  That is the
``set_partitions`` policy applied to degree, the same computation cached
only below the bound, and ``clear_caches`` drops every cache.  Above the
bound a step builds its tables for one call and each column only while it
sums it.  A zero element converts to the zero element of the target at once.

Before each step above the bound ``convert`` counts the pairs it will
visit, sum_pi prod_B B_|B| over the support for x, e and h and sum_pi
B_k(pi) for m, and raises ``ResourceLimitError`` above
``MAX_CONVERSION_PAIRS`` = 2,000,000.  Y of K_9 (1,606,137 pairs) converts
into any basis in about 1 s at under 60 MB; K_10 (16.7 million) and K_12
(2.28 billion) are refused.  A step makes at most one output term per pair.  The single term
p_{1,...,11} into x (678,570 pairs, all distinct terms) peaks at 188 MB,
about 260 bytes a term over the 17 MB of the interpreter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import factorial, gcd, lcm, prod
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, ResourceLimitError
from .partitions import (
    CACHED_BLOCK_SIZE,
    IntegerPartition,
    Permutation,
    SetPartition,
    bell_number,
    clear_caches as clear_partition_caches,
    multiplicity_factorial,
    parse_partition,
    parts_factorial,
    set_partitions,
    weighted_partitions,
)

BASES = ("m", "p", "e", "h", "x")
SYM_BASES = ("m", "p", "e", "h")

MAX_CONVERSION_PAIRS = 2_000_000
_EXACT_BELL = 20

_ZERO = Fraction(0)


def clear_caches() -> None:
    """Drop every cache: the set partitions of small masks, the Bell
    numbers, and the conversion tables and columns of small degrees."""
    clear_partition_caches()
    _columns.cache_clear()
    _kept_change_of_basis.cache_clear()


def _accumulate(target: dict, key, delta: int | Fraction) -> None:
    old = target.get(key)
    total = delta if old is None else old + delta
    if total:
        target[key] = total
    else:
        target.pop(key, None)


# ---------------------------------------------------------------------------
# partition codes


def _least(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _spread(mask: int, n: int) -> int:
    """One in the field of every element of mask, in the codes of degree n."""
    field = n.bit_length()
    total = 0
    while mask:
        low = mask & -mask
        # low is bit x, and the field of x starts at bit field * (n - x)
        total += 1 << field * (n + 1 - low.bit_length())
        mask ^= low
    return total


def _block_code(mask: int, n: int) -> int:
    """A block's share of the code of any partition of [n] that holds it."""
    return _least(mask) * _spread(mask, n)


def _encode(pi: SetPartition) -> int:
    n, blocks = pi.n, pi.blocks
    field = n.bit_length()
    # a canonical block lists its least element first
    return sum(blocks[b][0] << field * (n - x) for x, b in enumerate(pi.rgs, 1))


def _decoder(n: int, labels):
    """A function from a partition code of [n] to its blocks by increasing
    least element, each the list of labels[x] for its elements x."""
    field = n.bit_length()
    ones = (1 << field) - 1
    fields = [(x, field * (n - x), labels[x]) for x in range(1, n + 1)]

    def blocks(code: int):
        out: dict[int, list] = {}
        for x, shift, label in fields:
            least = code >> shift & ones
            if least == x:
                out[x] = [label]
            else:
                out[least].append(label)
        return out.values()

    return blocks


def _widen(code: int, k: int, n: int) -> int:
    """A code of k fields of k.bit_length() bits, rewritten with the fields
    of degree n >= k."""
    old, new = k.bit_length(), n.bit_length()
    if old == new:
        return code
    ones = (1 << old) - 1
    return sum((code >> old * i & ones) << new * i for i in range(k))


# ---------------------------------------------------------------------------
# change of basis against the power-sum basis, on codes


def check_conversion_pairs(pairs: int, what: str) -> None:
    """Refuse a change of basis that visits more than MAX_CONVERSION_PAIRS
    pairs of partitions (a support partition and one of its refinements or
    coarsenings)."""
    if pairs > MAX_CONVERSION_PAIRS:
        raise ResourceLimitError(
            f"conversion {what} visits at least {pairs} partition pairs, "
            f"over the cap of {MAX_CONVERSION_PAIRS}")


def _bell(k: int) -> int:
    # exact up to _EXACT_BELL, where it already far exceeds the pair cap; a
    # lower bound beyond, so a huge block is refused without computing B_k
    return bell_number(min(k, _EXACT_BELL))


class _Memo(dict):
    """A dict that fills a missing key with fn(key)."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _change_of_basis(n: int, source: str, target: str):
    """One Rosas-Sagan change of basis of degree n, into or out of p, as
    three functions: decode(code), the blocks of a partition as the change
    needs them; pairs(blocks), the number of pairs its column visits; and
    column(code, blocks), the expansion of b_code alone.  A column (start,
    value, head, last) stands for the codes start + the sum of one delta
    from each (deltas, weights) of head and of last, with counts value *
    the product of their weights.  All three share tables filled on first
    use: the refinements of each block, or the groupings of each block
    count.

    b_pi over p: m sums mu(pi, sigma) over coarsenings; x sums mu(sigma, pi),
    e sums mu(0, sigma) and h sums |mu(0, sigma)| over refinements.  p_pi
    over b: m and x sum 1 over coarsenings and refinements; e and h sum
    mu(sigma, pi) / mu(0, pi) and / |mu(0, pi)| over refinements, here times
    (n-1)!, which every |mu(0, pi)| divides.  Every Moebius value is a
    product of mu[j] = (-1)^(j-1) (j-1)!.
    """
    basis = target if source == "p" else source
    # each block as the list of its elements, so no singleton needs a mask
    blocks_of = _decoder(n, range(n + 1))
    bit = (1).__lshift__
    # filled only for the sizes that passed the pair check
    mu = _Memo(lambda j: factorial(j - 1) if j % 2 else -factorial(j - 1))
    if basis == "m":
        return _coarsenings(n, blocks_of, bit, mu, source == "m")
    sign = abs if "h" in (source, target) else (lambda value: value)

    def bottom(blocks: Iterable[int]) -> int:
        # mu(0, .) of the partition into these blocks, |mu(0, .)| for h
        return sign(prod(map(mu.__getitem__, map(int.bit_count, blocks))))

    if target == "x":
        weight = lambda parts: 1
    elif source in ("p", "x"):
        weight = lambda parts: mu[len(parts)]
    else:
        weight = bottom
    code_of = _Memo(lambda mask: _block_code(mask, n)).__getitem__

    def refinements(mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # the change each set partition of the block makes to the code, and
        # the weights
        every = set_partitions(mask)
        whole = code_of(mask)
        return (tuple([sum(map(code_of, parts)) - whole for parts in every]),
                tuple(map(weight, every)))

    choices = _Memo(refinements).__getitem__
    scaled = source == "p" and target != "x"
    top = factorial(n - 1) if scaled and n else 1

    def split(code: int) -> list[int]:
        # only the blocks that split have a choice, and a one-element block
        # has weight 1 in every basis
        return [sum(map(bit, block)) for block in blocks_of(code) if len(block) > 1]

    def pairs(masks: list[int]) -> int:
        return prod(_bell(mask.bit_count()) for mask in masks)

    def column(code: int, masks: list[int]) -> tuple:
        # the largest block goes last, so the products of the others stay short
        per_block = list(map(choices, sorted(masks, key=int.bit_count)))
        last = per_block.pop() if per_block else _UNCHANGED
        return code, top // bottom(masks) if scaled else 1, tuple(per_block), last

    return split, pairs, column


def _coarsenings(n: int, blocks_of, bit, mu, weighted: bool):
    """_change_of_basis between m and p: the sums run over the groupings of
    a partition's k blocks, the set partitions of range(k), each weighted by
    prod_groups mu[size] when weighted, else by 1."""

    def grouping(k: int) -> tuple[tuple, tuple[int, ...]]:
        every = set_partitions((1 << k) - 1)
        if not weighted:
            return every, (1,) * len(every)
        return every, tuple(prod(mu[g.bit_count()] for g in groups) for groups in every)

    groupings = _Memo(grouping).__getitem__
    spread_of = _Memo(lambda mask: _spread(mask, n)).__getitem__

    def column(code: int, blocks: list[list[int]]) -> tuple:
        # merged[s]: the code of the union of the blocks indexed by the bits
        # of s, whose least element is that of its first block
        k = len(blocks)
        spreads = [spread_of(sum(map(bit, block))) for block in blocks]
        spread = [0] * (1 << k)
        merged = [0] * (1 << k)
        for s in range(1, 1 << k):
            low = s & -s
            first = low.bit_length() - 1
            spread[s] = spread[s ^ low] + spreads[first]
            merged[s] = blocks[first][0] * spread[s]
        union = merged.__getitem__
        table = groupings(k)
        return 0, 1, (), (tuple([sum(map(union, groups)) for groups in table[0]]), table[1])

    return (lambda code: list(blocks_of(code))), (lambda blocks: _bell(len(blocks))), column


# the last of a column whose partition has no block that splits
_UNCHANGED = ((0,), (1,))

# up to degree CACHED_BLOCK_SIZE the tables outlive the call, so the columns
# of every call share them
_kept_change_of_basis = cache(_change_of_basis)


@cache
def _columns(n: int, source: str, target: str) -> dict[int, tuple]:
    """The columns of one change of basis of degree n, by code; filled by
    _convert_codes and kept until clear_caches."""
    return {}


def _convert_codes(terms: dict[int, int], source: str, target: str,
                   n: int) -> dict[int, int]:
    """One change of basis on codes, into or out of p: the sum of coeff
    times the column of code over the support.  Up to degree
    CACHED_BLOCK_SIZE each column is built once and kept, and the pairs
    are not counted: all partitions of [6] together visit 2,471.  Above,
    the pairs of the whole support are counted first, and each column lives
    only while it is summed."""
    support = [(code, coeff) for code, coeff in terms.items() if coeff]
    if n > CACHED_BLOCK_SIZE:
        decode, pairs, column = _change_of_basis(n, source, target)
        decoded = [(code, decode(code)) for code, _ in support]
        check_conversion_pairs(sum(pairs(blocks) for _, blocks in decoded),
                               f"{source} -> {target}")
        columns = (column(code, blocks) for code, blocks in decoded)
    else:
        decode, _, column = _kept_change_of_basis(n, source, target)
        kept = _columns(n, source, target)
        kept.update([(code, column(code, decode(code)))
                     for code, _ in support if code not in kept])
        columns = (kept[code] for code, _ in support)
    out: dict[int, int] = {}
    for (_, coeff), (start, value, head, (deltas, weights)) in zip(support, columns):
        partial = [(start, value * coeff)]
        for options in head:
            partial = [(code + delta, count * w)
                       for code, count in partial for delta, w in zip(*options)]
        for start, value in partial:
            for delta, w in zip(deltas, weights):
                key = start + delta
                out[key] = out.get(key, 0) + value * w
    return out


# ---------------------------------------------------------------------------
# elements


class NCSymElement:
    """A finite linear combination of one basis, with exact coefficients.

    The coefficient of b_pi is _terms[code of pi] / _den.  Equality across
    bases converts both sides to p first; within one basis the stored codes,
    counts and denominators are compared directly (basis expansions are
    unique, and the storage is canonical).  Zero elements remember their
    degree.
    """

    __slots__ = ("basis", "degree", "_terms", "_den")

    def __init__(self, basis: str, degree: int,
                 terms: Mapping[SetPartition, object] | Iterable[tuple[SetPartition, object]]):
        if basis not in BASES:
            raise DomainError(f"unknown basis {basis!r}")
        if degree < 0:
            raise DomainError("degree must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        values: dict[int, Fraction] = {}
        for pi, coeff in items:
            if not isinstance(pi, SetPartition):
                raise DomainError(f"term index {pi!r} is not a set partition")
            if pi.n != degree:
                raise DomainError(
                    f"index {pi} lives on [{pi.n}] but the element has degree {degree}")
            _accumulate(values, _encode(pi), Fraction(coeff))
        # over the lcm of reduced fractions the counts share no factor with it
        den = lcm(*(value.denominator for value in values.values()))
        self.basis = basis
        self.degree = degree
        self._terms = {code: value.numerator * (den // value.denominator)
                       for code, value in values.items()}
        self._den = den

    @classmethod
    def _raw(cls, basis: str, degree: int, terms: dict[int, int],
             den: int = 1) -> "NCSymElement":
        """Wrap canonical storage: nonzero counts, gcd(den, *counts) == 1."""
        self = object.__new__(cls)
        self.basis = basis
        self.degree = degree
        self._terms = terms
        self._den = den
        return self

    @classmethod
    def zero(cls, basis: str, degree: int) -> "NCSymElement":
        if basis not in BASES:
            raise DomainError(f"unknown basis {basis!r}")
        return cls._raw(basis, degree, {})

    @property
    def terms(self) -> Mapping[SetPartition, Fraction]:
        """Coefficients by partition in canonical order: an export, built on
        each read and read by no other ncsym module."""
        n, den = self.degree, self._den
        blocks = _decoder(n, range(n + 1))
        # Fraction of one int skips the gcd
        value = Fraction if den == 1 else (lambda count: Fraction(count, den))
        return MappingProxyType({
            SetPartition._raw(n, tuple(map(tuple, blocks(code)))): value(self._terms[code])
            for code in sorted(self._terms)})

    def is_zero(self) -> bool:
        return not self._terms

    # operators delegate to the module functions

    def __add__(self, other):
        if not isinstance(other, NCSymElement):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other):
        if not isinstance(other, NCSymElement):
            return NotImplemented
        return add(self, scale(other, -1))

    def __neg__(self):
        return scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, NCSymElement):
            return multiply(self, other)
        if isinstance(other, (int, Fraction)):
            return scale(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return scale(self, other)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCSymElement):
            return NotImplemented
        if self.degree != other.degree:
            return False
        if self.basis != other.basis:
            self, other = convert(self, "p"), convert(other, "p")
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        canonical = convert(self, "p")
        return hash((self.degree, canonical._den, frozenset(canonical._terms.items())))

    def __repr__(self) -> str:
        return f"<NCSymElement {self}>"

    def __str__(self) -> str:
        return "".join(iter_text(self))


def _element(basis: str, degree: int, terms: dict[int, int], den: int = 1) -> NCSymElement:
    """The element sum count / den * b_code over nonzero counts, reduced."""
    if den != 1:
        common = gcd(den, *terms.values())
        if common != 1:
            terms = {code: count // common for code, count in terms.items()}
            den //= common
    return NCSymElement._raw(basis, degree, terms, den)


def from_block_masks(basis: str, n: int, pairs: Iterable[tuple[Iterable[int], int]],
                     denominator: int = 1) -> NCSymElement:
    """The element sum count / denominator * b_pi over pairs (masks, count)
    of distinct partitions, pi given by its block bitmasks; each mask's code
    is computed once per call."""
    code_of = _Memo(lambda mask: _block_code(mask, n)).__getitem__
    return _element(basis, n, {sum(map(code_of, masks)): count
                               for masks, count in pairs if count}, denominator)


def _block_codes(n: int, weight: Sequence[int]) -> list[int]:
    """Each block's share of a partition code, at the masks of nonzero
    weight, in one pass: a mask's spread is that of the mask without its
    least bit plus that bit's field."""
    field = n.bit_length()
    size = 1 << (n + 1)
    spread = [0] * size
    codes = [0] * size
    for s in range(2, size, 2):
        low = s & -s
        least = low.bit_length() - 1
        spread[s] = spread[s ^ low] + (1 << field * (n - least))
        if weight[s]:
            codes[s] = least * spread[s]
    return codes


def from_weighted_blocks(basis: str, n: int, weight: Sequence[int]) -> NCSymElement:
    """The element sum over the partitions pi of [n] into blocks of nonzero
    weight of prod_B weight[B] * b_pi, weight indexed by block bitmask (bit
    x for element x); each partition is labeled by its code as it is
    listed."""
    codes = _block_codes(n, weight)
    return NCSymElement._raw(basis, n, weighted_partitions(n, weight, codes))


def basis_term(basis: str, pi: SetPartition, coeff=1) -> NCSymElement:
    """The single-term element coeff * b_pi."""
    coeff = Fraction(coeff)
    if basis not in BASES:
        raise DomainError(f"unknown basis {basis!r}")
    if coeff == 0:
        return NCSymElement.zero(basis, pi.n)
    return NCSymElement._raw(basis, pi.n, {_encode(pi): coeff.numerator}, coeff.denominator)


def one(basis: str = "p") -> NCSymElement:
    """The multiplicative unit: the degree-0 empty-index term."""
    return basis_term(basis, SetPartition.empty())


def convert(f: NCSymElement, target: str) -> NCSymElement:
    """Rewrite f in the target basis, exactly, through p.

    Raises ResourceLimitError before a step that would visit more than
    MAX_CONVERSION_PAIRS partition pairs.
    """
    if target not in BASES:
        raise DomainError(f"unknown basis {target!r}")
    if f.basis == target:
        return f
    n = f.degree
    terms, den = f._terms, f._den
    if not terms:
        return NCSymElement.zero(target, n)
    if f.basis != "p":
        terms = _convert_codes(terms, f.basis, "p", n)
    if target != "p":
        terms = _convert_codes(terms, "p", target, n)
        if target in ("e", "h") and n:
            den *= factorial(n - 1)
    return _element(target, n, {code: count for code, count in terms.items() if count}, den)


def linear_combination(basis: str, degree: int,
                       pairs: Iterable[tuple[NCSymElement, object]]) -> NCSymElement:
    """Sum of c * f over pairs (f, c), written in basis, in one pass: int
    counts over one running denominator, rescaled only when it must grow.
    Zero terms and zero elements of any degree are skipped; a nonzero
    element of another degree raises DomainError."""
    terms: dict[int, int] = {}
    den = 1
    for f, c in pairs:
        c = Fraction(c)
        if not c or not f._terms:
            continue
        if f.degree != degree:
            raise DomainError(f"cannot add degree {degree} to degree {f.degree}")
        if f.basis != basis:
            f = convert(f, basis)
        bottom = f._den * c.denominator
        if den % bottom:
            grown = lcm(den, bottom)
            terms = {code: count * (grown // den) for code, count in terms.items()}
            den = grown
        factor = c.numerator * (den // bottom)
        for code, count in f._terms.items():
            terms[code] = terms.get(code, 0) + count * factor
    return _element(basis, degree, {code: count for code, count in terms.items() if count}, den)


def add(f: NCSymElement, g: NCSymElement) -> NCSymElement:
    """Sum of two elements, in p when their bases differ; degrees must match
    unless one side is zero, which gives back the other unchanged.  Two
    zeros of different degrees give f."""
    if f.degree != g.degree and (f.is_zero() or g.is_zero()):
        return g if g._terms else f
    return linear_combination(f.basis if f.basis == g.basis else "p", f.degree,
                              ((f, 1), (g, 1)))


def scale(f: NCSymElement, factor) -> NCSymElement:
    return linear_combination(f.basis, f.degree, ((f, factor),))


def multiply(f: NCSymElement, g: NCSymElement) -> NCSymElement:
    """Product in NCSym; on the p-basis indices concatenate by slash."""
    fp = convert(f, "p")
    gp = convert(g, "p")
    k, m = f.degree, g.degree
    n = k + m
    field = n.bit_length()
    # the slash puts f's fields above g's, whose least elements move up by k;
    # distinct pairs give distinct codes
    lift = k * sum(1 << field * i for i in range(m))
    right = [(_widen(code, m, n) + lift, b) for code, b in gp._terms.items()]
    return _element("p", n, {(_widen(code, k, n) << field * m) + low: a * b
                             for code, a in fp._terms.items() for low, b in right},
                    fp._den * gp._den)


def induce(f: NCSymElement) -> NCSymElement:
    """Degree-raising operator: on p indices, adjoin the new top element to
    the block containing the current top.  Returns a p-basis element."""
    if f.degree < 1:
        raise DomainError("induction requires degree at least 1")
    fp = convert(f, "p")
    n = f.degree
    # the last field holds the least element of the block of n
    ones = (1 << n.bit_length()) - 1
    field = (n + 1).bit_length()
    return NCSymElement._raw("p", n + 1, {
        (_widen(code, n, n + 1) << field) + (code & ones): count
        for code, count in fp._terms.items()}, fp._den)


def act(delta: Permutation, f: NCSymElement) -> NCSymElement:
    """Symmetric group action by place permutation; relabels p indices."""
    if delta.n != f.degree:
        raise DomainError("permutation size must equal the element degree")
    fp = convert(f, "p")
    # decode each block straight into the bitmask of its image
    moved = _decoder(f.degree, [0] + [1 << image for image in delta.images])
    return convert(from_block_masks("p", f.degree, ((map(sum, moved(code)), count)
                                                    for code, count in fp._terms.items()),
                                    fp._den), f.basis)


def coefficient(f: NCSymElement, basis: str, pi: SetPartition) -> Fraction:
    """The coefficient of b_pi once f is written in the given basis."""
    if pi.n != f.degree:
        return _ZERO
    g = f if f.basis == basis else convert(f, basis)
    return Fraction(g._terms.get(_encode(pi), 0), g._den)


def first_term_not_refining(f: NCSymElement, pi: SetPartition) -> SetPartition | None:
    """The first index of f, in canonical order, that does not refine pi, a
    partition of [f.degree]; None when every index refines pi."""
    n = f.degree
    field = n.bit_length()
    ones = (1 << field) - 1
    # own[x]: the least element of the pi block of x, the field of x in pi's code
    own = [0] + [pi.blocks[b][0] for b in pi.rgs]
    # sigma refines pi when each x shares its pi block with the least element
    # of its sigma block
    leaks = [code for x in range(1, n + 1) for code in f._terms
             if own[code >> field * (n - x) & ones] != own[x]]
    if not leaks:
        return None
    return SetPartition._raw(n, tuple(map(tuple, _decoder(n, range(n + 1))(min(leaks)))))


def is_positive_in(f: NCSymElement, basis: str) -> bool:
    """All coefficients nonnegative in the given basis (vacuously for 0)."""
    return all(count >= 0 for count in convert(f, basis)._terms.values())


def is_negative_in(f: NCSymElement, basis: str) -> bool:
    """All coefficients nonpositive in the given basis (vacuously for 0)."""
    return all(count <= 0 for count in convert(f, basis)._terms.values())


# ---------------------------------------------------------------------------
# word expansions in k noncommuting variables


def word_expansion(f: NCSymElement, k: int) -> dict[tuple[int, ...], Fraction]:
    """Expand f into words over the alphabet {1, ..., k}.

    The m, p, and e bases expand straight from their defining conditions on
    letter positions; h and x are converted to p first.
    """
    if k < 1:
        raise DomainError("word expansion needs at least one variable")
    rules = {"m": _monomial_words, "p": _power_sum_words, "e": _elementary_words}
    source = f if f.basis in rules else convert(f, "p")
    words = rules[source.basis]
    out: dict[tuple[int, ...], Fraction] = {}
    for pi, coeff in source.terms.items():
        for word in words(pi, k):
            _accumulate(out, word, coeff)
    return out


def _fill(pi: SetPartition, values) -> tuple[int, ...]:
    word = [0] * pi.n
    for block, value in zip(pi.blocks, values):
        for x in block:
            word[x - 1] = value
    return tuple(word)


def _power_sum_words(pi: SetPartition, k: int) -> list[tuple[int, ...]]:
    # every block takes one letter, letters free across blocks
    return [_fill(pi, assignment)
            for assignment in product(range(1, k + 1), repeat=len(pi.blocks))]


def _monomial_words(pi: SetPartition, k: int) -> list[tuple[int, ...]]:
    # blocks take pairwise distinct letters
    return [_fill(pi, assignment)
            for assignment in permutations(range(1, k + 1), len(pi.blocks))]


def _elementary_words(pi: SetPartition, k: int) -> list[tuple[int, ...]]:
    # letters distinct inside each block, free across blocks
    choices = [tuple(permutations(range(1, k + 1), len(block))) for block in pi.blocks]
    words = []
    for combo in product(*choices):
        word = [0] * pi.n
        for block, letters in zip(pi.blocks, combo):
            for x, letter in zip(block, letters):
                word[x - 1] = letter
        words.append(tuple(word))
    return words


# ---------------------------------------------------------------------------
# the commuting image


class SymElement:
    """A sparse element of ordinary Sym over integer partitions.

    Supports addition, scaling, and power-sum products; cross-basis
    conversion is deliberately out of scope.
    """

    __slots__ = ("basis", "degree", "_terms")

    def __init__(self, basis: str, degree: int,
                 terms: Mapping[IntegerPartition, object] | Iterable[tuple[IntegerPartition, object]]):
        if basis not in SYM_BASES:
            raise DomainError(f"unknown Sym basis {basis!r}")
        if degree < 0:
            raise DomainError("degree must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        cleaned: dict[IntegerPartition, Fraction] = {}
        for lam, coeff in items:
            if not isinstance(lam, IntegerPartition):
                raise DomainError(f"term index {lam!r} is not an integer partition")
            if lam.n != degree:
                raise DomainError(
                    f"index {lam} has size {lam.n} but the element has degree {degree}")
            _accumulate(cleaned, lam, Fraction(coeff))
        self.basis = basis
        self.degree = degree
        self._terms = cleaned

    @classmethod
    def _raw(cls, basis, degree, terms):
        self = object.__new__(cls)
        self.basis = basis
        self.degree = degree
        self._terms = terms
        return self

    @classmethod
    def zero(cls, basis: str, degree: int) -> "SymElement":
        return cls._raw(basis, degree, {})

    @property
    def terms(self) -> Mapping[IntegerPartition, Fraction]:
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if not isinstance(other, SymElement):
            return NotImplemented
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DomainError("cannot add Sym elements of different degrees")
        if self.basis != other.basis:
            raise DomainError("Sym addition requires matching bases")
        terms = dict(self._terms)
        for lam, coeff in other._terms.items():
            _accumulate(terms, lam, coeff)
        return SymElement._raw(self.basis, self.degree, terms)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, SymElement):
            return NotImplemented
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return SymElement.zero(self.basis, self.degree)
            return SymElement._raw(self.basis, self.degree,
                                   {lam: coeff * other for lam, coeff in self._terms.items()})
        if isinstance(other, SymElement):
            return multiply_sym(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymElement):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return self.degree == other.degree
        return (self.basis == other.basis and self.degree == other.degree
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.basis, self.degree, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return "<SymElement 0>"
        body = " + ".join(f"{coeff}*{self.basis}{lam}"
                          for lam, coeff in sorted(self._terms.items()))
        return f"<SymElement {body}>"


def sym_basis_term(basis: str, lam: IntegerPartition, coeff=1) -> SymElement:
    coeff = Fraction(coeff)
    if coeff == 0:
        return SymElement.zero(basis, lam.n)
    return SymElement._raw(basis, lam.n, {lam: coeff})


def multiply_sym(f: SymElement, g: SymElement) -> SymElement:
    """Power-sum product: indices merge as multisets."""
    if f.basis != "p" or g.basis != "p":
        raise DomainError("Sym products are supported on the power-sum basis only")
    terms: dict[IntegerPartition, Fraction] = {}
    for lam, a in f._terms.items():
        for mu, b in g._terms.items():
            _accumulate(terms, IntegerPartition(lam.parts + mu.parts), a * b)
    return SymElement._raw("p", f.degree + g.degree, terms)


def project(f: NCSymElement) -> SymElement:
    """Let the variables commute.

    On basis terms the image is a scalar multiple of the same-named Sym basis
    element at the shape: the scalar is 1 for p, the product of block-size
    factorials for e and h, and the product of multiplicity factorials for m.
    The x basis has no commuting counterpart here, so x input converts to p.
    """
    source = f if f.basis in SYM_BASES else convert(f, "p")
    out: dict[IntegerPartition, Fraction] = {}
    for pi, coeff in source.terms.items():
        lam = pi.shape()
        if source.basis == "p":
            scalar = 1
        elif source.basis in ("e", "h"):
            scalar = parts_factorial(lam)
        else:
            scalar = multiplicity_factorial(lam)
        _accumulate(out, lam, coeff * scalar)
    return SymElement._raw(source.basis, f.degree, out)


# ---------------------------------------------------------------------------
# writers, from the sorted codes


def iter_terms(f: NCSymElement) -> Iterator[tuple[str, int, int]]:
    """(partition text, numerator, denominator) of every term of f in
    canonical order, each coefficient in lowest terms.

    The sorted codes are walked as a trie: consecutive codes share their
    high fields, so only the elements from the highest changed field on are
    taken back out of the open blocks, in reverse, and placed again from
    their fields.  Each placement records how to undo it: None when the
    element opened a block, else the index and old text of the block it
    joined."""
    n, terms, den = f.degree, f._terms, f._den
    # degree 0 has one code, 0, with no fields
    field = n.bit_length() or 1
    ones = (1 << field) - 1
    labels = [str(x) for x in range(n + 1)]
    joins = ["," + label for label in labels]
    blocks: list[str] = []
    # opened[x]: the index in blocks of the block whose least element is x
    opened = [0] * (n + 1)
    undo: list[tuple[int, str] | None] = []
    prev = 0
    for code in sorted(terms):
        # elements 1..kept have the same fields as in the previous code
        kept = n - ((code ^ prev).bit_length() + field - 1) // field
        prev = code
        while len(undo) > kept:
            joined = undo.pop()
            if joined is None:
                blocks.pop()
            else:
                blocks[joined[0]] = joined[1]
        for x in range(kept + 1, n + 1):
            least = code >> field * (n - x) & ones
            if least == x:
                opened[x] = len(blocks)
                blocks.append(labels[x])
                undo.append(None)
            else:
                index = opened[least]
                text = blocks[index]
                undo.append((index, text))
                blocks[index] = text + joins[x]
        count = terms[code]
        if den == 1:
            yield "/".join(blocks), count, 1
        else:
            common = gcd(count, den)
            yield "/".join(blocks), count // common, den // common


def iter_text(f: NCSymElement) -> Iterator[str]:
    """str(f), one term at a time."""
    if not f._terms:
        yield "0"
        return
    plus, minus = "", "-"
    for text, num, den in iter_terms(f):
        value = -num if num < 0 else num
        piece = f"{f.basis}{{{text}}}"
        if den != 1:
            piece = f"{value}/{den}*{piece}"
        elif value != 1:
            piece = f"{value}*{piece}"
        yield (minus if num < 0 else plus) + piece
        plus, minus = " + ", " - "


def iter_json(f: NCSymElement) -> Iterator[str]:
    """json.dumps(element_to_json_dict(f), indent=2, sort_keys=True), one
    term at a time."""
    yield f'{{\n  "basis": "{f.basis}",\n  "degree": {f.degree},\n  "terms": ['
    separator = "\n"
    for text, num, den in iter_terms(f):
        yield (f'{separator}    {{\n      "den": {den},\n      "num": {num},\n'
               f'      "partition": "{text}"\n    }}')
        separator = ",\n"
    yield "]\n}" if separator == "\n" else "\n  ]\n}"


def coefficient_bounds(f: NCSymElement) -> tuple[int, int]:
    """The largest |numerator| and the largest denominator among f's
    coefficients in lowest terms; (0, 1) for zero."""
    den, counts = f._den, f._terms.values()
    if den == 1:
        return max(map(abs, counts), default=0), 1
    # only a nonzero element has a denominator above 1
    return (max(abs(count) // gcd(count, den) for count in counts),
            max(den // gcd(count, den) for count in counts))


# ---------------------------------------------------------------------------
# JSON interchange


def element_to_json_dict(f: NCSymElement) -> dict:
    """Interchange form with terms sorted by canonical partition encoding."""
    return {
        "basis": f.basis,
        "degree": f.degree,
        "terms": [{"partition": text, "num": num, "den": den}
                  for text, num, den in iter_terms(f)],
    }


def element_from_json_dict(data: Mapping) -> NCSymElement:
    """Inverse of element_to_json_dict, with validation."""
    try:
        basis = data["basis"]
        degree = data["degree"]
        raw_terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"element JSON needs basis/degree/terms: {exc}") from exc
    if basis not in BASES:
        raise DomainError(f"unknown basis {basis!r}")
    # type(...) is int, since JSON true and false decode to bool, an int subclass
    if type(degree) is not int or degree < 0:
        raise DomainError("degree must be a nonnegative integer")
    if not isinstance(raw_terms, list):
        raise DomainError("element JSON terms must be a list")
    terms: list[tuple[SetPartition, Fraction]] = []
    for entry in raw_terms:
        try:
            text = entry["partition"]
            num = entry["num"]
            den = entry["den"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"bad term entry {entry!r}") from exc
        if not isinstance(text, str):
            raise DomainError(f"term partition must be a string in {entry!r}")
        pi = parse_partition(text)
        if type(num) is not int or type(den) is not int or den == 0:
            raise DomainError(f"bad rational in term {entry!r}")
        if pi.n != degree:
            raise DomainError(
                f"term index {pi} does not match element degree {degree}")
        terms.append((pi, Fraction(num, den)))
    return NCSymElement(basis, degree, terms)
