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

``convert`` applies the Rosas-Sagan closed forms on integer codes.  Inside it
a block is a bitmask with bit x for element x, and a set partition of [n] is
one int whose x-th field of n.bit_length() bits holds the least element of
the block of x.  The code of a partition is the sum of its blocks' codes, so
it needs no sorting, and it is O(n log n) bits wide.  Coefficients are ints:
the element is scaled by the lcm of its denominators, a step out of p into e
or h also by (n - 1)!, which every |mu(0, pi)| divides, and each output
coefficient is divided once; ``from_block_masks`` makes the output terms from
block masks and int counts, as it does for all Y_G routes but the lattice's.
Conversions between m and p sum over coarsenings, the set partitions of a
partition's k blocks; those between x, e or h and p over refinements, one set
partition of each block.

Both come from ``partitions.set_partitions``, which caches the set partitions
of small masks; this module keeps no cache of its own.  A zero element
converts to the zero element of the target at once.

Before each step ``convert`` counts the pairs it will visit,
sum_pi prod_B B_|B| over the support for x, e and h and sum_pi B_k(pi) for
m, and raises ``ResourceLimitError`` above ``MAX_CONVERSION_PAIRS`` =
2,000,000.  Y of K_9 (1,606,137 pairs) converts into any basis in about 2 s
at under 50 MB; K_10 (16.7 million) and K_12 (2.28 billion) are refused.
A step makes at most one output term per pair, about 0.5 KB each: the single
term p_{1,...,11} into x (678,570 pairs, all distinct terms) peaks at
354 MB.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import factorial, lcm, prod
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import DomainError, ResourceLimitError
from .partitions import (
    IntegerPartition,
    Permutation,
    SetPartition,
    bell_number,
    block_elements,
    clear_caches as clear_partition_caches,
    multiplicity_factorial,
    parse_partition,
    parts_factorial,
    set_partitions,
)

BASES = ("m", "p", "e", "h", "x")
SYM_BASES = ("m", "p", "e", "h")

MAX_CONVERSION_PAIRS = 2_000_000
_EXACT_BELL = 20

_ZERO = Fraction(0)


def clear_caches() -> None:
    """Drop the set partitions of small masks that ``partitions`` caches."""
    clear_partition_caches()


def _accumulate(target: dict, key, delta: Fraction) -> None:
    old = target.get(key)
    total = delta if old is None else old + delta
    if total:
        target[key] = total
    else:
        target.pop(key, None)


# ---------------------------------------------------------------------------
# change of basis against the power-sum basis, on integer codes


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
    """A dict that fills a missing key with fn(key); lives for one call."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _least(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _spread(mask: int, field: int) -> int:
    """One in the field of every element of mask."""
    return sum(1 << field * x for x in block_elements(mask))


def _block_masks(code: int, field: int, n: int) -> list[int]:
    """The block bitmasks of a partition code, by increasing least element."""
    ones = (1 << field) - 1
    masks: dict[int, int] = {}
    for x in range(1, n + 1):
        least = code >> field * x & ones
        masks[least] = masks.get(least, 0) | 1 << x
    return list(masks.values())


def _refine(support: list, field: int, weight, factor=None) -> dict[int, int]:
    """Sum coeff * factor(masks) * prod_B weight(parts of B) over every
    refinement of every support partition; a refinement is one set partition
    of each block, so per block mask its choices are listed once."""
    code_of = _Memo(lambda mask: _least(mask) * _spread(mask, field)).__getitem__
    choices_of: dict[int, list[tuple[int, int]]] = {}
    out: dict[int, int] = {}
    for masks, coeff in support:
        per_block = []
        for mask in masks:
            choices = choices_of.get(mask)
            if choices is None:
                choices = choices_of[mask] = [
                    (sum(map(code_of, parts)), weight(parts))
                    for parts in set_partitions(mask)]
            per_block.append(choices)
        if factor is not None:
            coeff *= factor(masks)
        # the longest list goes innermost, so the partial products stay short
        per_block.sort(key=len)
        last = per_block.pop() if per_block else [(0, 1)]
        partial = [(0, coeff)]
        for choices in per_block:
            partial = [(code + part, value * w)
                       for code, value in partial for part, w in choices]
        for code, value in partial:
            for part, w in last:
                key = code + part
                out[key] = out.get(key, 0) + value * w
    return out


def _coarsen(support: list, field: int, mu: list[int] | None) -> dict[int, int]:
    """Sum coeff * weight over every coarsening of every support partition:
    a grouping of its k blocks, i.e. a set partition of range(k), weighted by
    prod_groups mu[size] when mu is given, else by 1."""
    groupings: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    spread_of = _Memo(lambda mask: _spread(mask, field)).__getitem__
    out: dict[int, int] = {}
    for masks, coeff in support:
        k = len(masks)
        table = groupings.get(k)
        if table is None:
            table = groupings[k] = [
                (groups, prod(mu[g.bit_count()] for g in groups) if mu else 1)
                for groups in set_partitions((1 << k) - 1)]
        # merged[s]: the code of the union of the blocks indexed by the bits
        # of s, whose least element is that of its first block
        spreads = list(map(spread_of, masks))
        leasts = list(map(_least, masks))
        spread = [0] * (1 << k)
        merged = [0] * (1 << k)
        for s in range(1, 1 << k):
            low = s & -s
            first = low.bit_length() - 1
            spread[s] = spread[s ^ low] + spreads[first]
            merged[s] = leasts[first] * spread[s]
        for groups, w in table:
            key = sum(map(merged.__getitem__, groups))
            out[key] = out.get(key, 0) + coeff * w
    return out


def _convert_codes(terms: dict[int, int], source: str, target: str,
                   n: int) -> dict[int, int]:
    """One Rosas-Sagan change of basis on codes, into or out of p.

    b_pi over p: m sums mu(pi, sigma) over coarsenings; x sums mu(sigma, pi),
    e sums mu(0, sigma) and h sums |mu(0, sigma)| over refinements.  p_pi
    over b: m and x sum 1 over coarsenings and refinements; e and h sum
    mu(sigma, pi) / mu(0, pi) and / |mu(0, pi)| over refinements, here times
    (n-1)!, which every |mu(0, pi)| divides.  Every Moebius value is a
    product of mu[j] = (-1)^(j-1) (j-1)!.
    """
    basis = target if source == "p" else source
    field = n.bit_length()
    support = [(_block_masks(code, field, n), coeff) for code, coeff in terms.items() if coeff]
    if basis == "m":
        pairs = sum(_bell(len(masks)) for masks, _ in support)
        largest = max((len(masks) for masks, _ in support), default=0)
    else:
        pairs = sum(prod(_bell(mask.bit_count()) for mask in masks) for masks, _ in support)
        largest = max((mask.bit_count() for masks, _ in support for mask in masks), default=0)
    check_conversion_pairs(pairs, f"{source} -> {target}")
    # Moebius values are needed only up to the largest block or block count
    mu = [1, 1]
    for j in range(1, largest):
        mu.append(-j * mu[-1])
    if basis == "m":
        return _coarsen(support, field, mu if source == "m" else None)
    if target == "x":
        return _refine(support, field, lambda parts: 1)
    if source == "x":
        return _refine(support, field, lambda parts: mu[len(parts)])
    sign = abs if "h" in (source, target) else (lambda value: value)

    def bottom(blocks: Iterable[int]) -> int:
        # mu(0, .) of the partition into these blocks, |mu(0, .)| for h
        return sign(prod(map(mu.__getitem__, map(int.bit_count, blocks))))

    if source == "p":
        top = factorial(n - 1) if n else 1
        return _refine(support, field, lambda parts: mu[len(parts)],
                       lambda masks: top // bottom(masks))
    return _refine(support, field, bottom)


# ---------------------------------------------------------------------------
# elements


class NCSymElement:
    """A finite linear combination of one basis, with exact coefficients.

    Equality across bases converts both sides to p first; within one basis
    the stored term dictionaries are compared directly (basis expansions are
    unique).  Zero elements remember their degree.
    """

    __slots__ = ("basis", "degree", "_terms")

    def __init__(self, basis: str, degree: int,
                 terms: Mapping[SetPartition, object] | Iterable[tuple[SetPartition, object]]):
        if basis not in BASES:
            raise DomainError(f"unknown basis {basis!r}")
        if degree < 0:
            raise DomainError("degree must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        cleaned: dict[SetPartition, Fraction] = {}
        for pi, coeff in items:
            if not isinstance(pi, SetPartition):
                raise DomainError(f"term index {pi!r} is not a set partition")
            if pi.n != degree:
                raise DomainError(
                    f"index {pi} lives on [{pi.n}] but the element has degree {degree}")
            _accumulate(cleaned, pi, Fraction(coeff))
        self.basis = basis
        self.degree = degree
        self._terms = cleaned

    @classmethod
    def _raw(cls, basis: str, degree: int,
             terms: dict[SetPartition, Fraction]) -> "NCSymElement":
        self = object.__new__(cls)
        self.basis = basis
        self.degree = degree
        self._terms = terms
        return self

    @classmethod
    def zero(cls, basis: str, degree: int) -> "NCSymElement":
        if basis not in BASES:
            raise DomainError(f"unknown basis {basis!r}")
        return cls._raw(basis, degree, {})

    @property
    def terms(self) -> Mapping[SetPartition, Fraction]:
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def sorted_terms(self) -> list[tuple[SetPartition, Fraction]]:
        """Terms ordered by the canonical partition encoding."""
        return sorted(self._terms.items(), key=lambda item: item[0].rgs)

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
        if self.basis == other.basis:
            return self._terms == other._terms
        return convert(self, "p")._terms == convert(other, "p")._terms

    def __hash__(self) -> int:
        canonical = convert(self, "p")
        return hash((self.degree, frozenset(canonical._terms.items())))

    def __repr__(self) -> str:
        return f"<NCSymElement {self}>"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for pi, coeff in self.sorted_terms():
            lead = "-" if coeff < 0 else ("+" if chunks else "")
            value = abs(coeff)
            body = f"{self.basis}{{{pi.to_text()}}}"
            piece = body if value == 1 else f"{value}*{body}"
            chunks.append(f"{lead}{piece}" if not chunks else f"{lead} {piece}")
        return " ".join(chunks)


def from_block_masks(basis: str, n: int, pairs: Iterable[tuple[Iterable[int], int]],
                     denominator: int = 1) -> NCSymElement:
    """The element sum count / denominator * b_pi over pairs (masks, count),
    pi given by its block bitmasks by increasing least element; the one place
    that turns masks into ``SetPartition`` keys and counts into ``Fraction``."""
    elements_of = _Memo(block_elements).__getitem__
    value = Fraction if denominator == 1 else (lambda count: Fraction(count, denominator))
    terms = {SetPartition._raw(n, tuple(map(elements_of, masks))): value(count)
             for masks, count in pairs if count}
    return NCSymElement._raw(basis, n, terms)


def basis_term(basis: str, pi: SetPartition, coeff=1) -> NCSymElement:
    """The single-term element coeff * b_pi."""
    coeff = Fraction(coeff)
    if basis not in BASES:
        raise DomainError(f"unknown basis {basis!r}")
    if coeff == 0:
        return NCSymElement.zero(basis, pi.n)
    return NCSymElement._raw(basis, pi.n, {pi: coeff})


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
    if not f._terms:
        return NCSymElement.zero(target, n)
    field = n.bit_length()
    denominator = lcm(*(coeff.denominator for coeff in f._terms.values()))
    terms = {sum(block[0] * sum(1 << field * x for x in block) for block in pi.blocks):
             coeff.numerator * (denominator // coeff.denominator)
             for pi, coeff in f._terms.items()}
    if f.basis != "p":
        terms = _convert_codes(terms, f.basis, "p", n)
    if target != "p":
        terms = _convert_codes(terms, "p", target, n)
        if target in ("e", "h") and n:
            denominator *= factorial(n - 1)
    return from_block_masks(target, n, ((_block_masks(code, field, n), total)
                                        for code, total in terms.items()), denominator)


def add(f: NCSymElement, g: NCSymElement) -> NCSymElement:
    """Sum of two elements; degrees must match unless one side is zero."""
    if f.degree != g.degree:
        if f.is_zero():
            return g
        if g.is_zero():
            return f
        raise DomainError(
            f"cannot add degree {f.degree} to degree {g.degree}")
    if f.basis != g.basis:
        f = convert(f, "p")
        g = convert(g, "p")
    terms = dict(f._terms)
    for pi, coeff in g._terms.items():
        _accumulate(terms, pi, coeff)
    return NCSymElement._raw(f.basis, f.degree, terms)


def scale(f: NCSymElement, factor) -> NCSymElement:
    factor = Fraction(factor)
    if factor == 0:
        return NCSymElement.zero(f.basis, f.degree)
    return NCSymElement._raw(f.basis, f.degree,
                             {pi: coeff * factor for pi, coeff in f._terms.items()})


def multiply(f: NCSymElement, g: NCSymElement) -> NCSymElement:
    """Product in NCSym; on the p-basis indices concatenate by slash."""
    fp = convert(f, "p")
    gp = convert(g, "p")
    terms: dict[SetPartition, Fraction] = {}
    for pi, a in fp._terms.items():
        for sigma, b in gp._terms.items():
            _accumulate(terms, pi.slash(sigma), a * b)
    return NCSymElement._raw("p", f.degree + g.degree, terms)


def induce(f: NCSymElement) -> NCSymElement:
    """Degree-raising operator: on p indices, adjoin the new top element to
    the block containing the current top.  Returns a p-basis element."""
    if f.degree < 1:
        raise DomainError("induction requires degree at least 1")
    fp = convert(f, "p")
    return NCSymElement._raw(
        "p", f.degree + 1,
        {pi.adjoin_top(): coeff for pi, coeff in fp._terms.items()})


def act(delta: Permutation, f: NCSymElement) -> NCSymElement:
    """Symmetric group action by place permutation; relabels p indices."""
    if delta.n != f.degree:
        raise DomainError("permutation size must equal the element degree")
    fp = convert(f, "p")
    moved = {pi.permuted(delta): coeff for pi, coeff in fp._terms.items()}
    return convert(NCSymElement._raw("p", f.degree, moved), f.basis)


def coefficient(f: NCSymElement, basis: str, pi: SetPartition) -> Fraction:
    """The coefficient of b_pi once f is written in the given basis."""
    if pi.n != f.degree:
        return _ZERO
    return convert(f, basis)._terms.get(pi, _ZERO)


def is_positive_in(f: NCSymElement, basis: str) -> bool:
    """All coefficients nonnegative in the given basis (vacuously for 0)."""
    return all(coeff >= 0 for coeff in convert(f, basis)._terms.values())


def is_negative_in(f: NCSymElement, basis: str) -> bool:
    """All coefficients nonpositive in the given basis (vacuously for 0)."""
    return all(coeff <= 0 for coeff in convert(f, basis)._terms.values())


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
    for pi, coeff in source._terms.items():
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
    for pi, coeff in source._terms.items():
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
# JSON interchange


def element_to_json_dict(f: NCSymElement) -> dict:
    """Interchange form with terms sorted by canonical partition encoding."""
    return {
        "basis": f.basis,
        "degree": f.degree,
        "terms": [
            {"partition": pi.to_text(), "num": coeff.numerator, "den": coeff.denominator}
            for pi, coeff in f.sorted_terms()
        ],
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
    terms: dict[SetPartition, Fraction] = {}
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
        _accumulate(terms, pi, Fraction(num, den))
    return NCSymElement._raw(basis, degree, terms)
