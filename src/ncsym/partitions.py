"""Set partitions of {1, ..., n}, the refinement order, and Moebius arithmetic.

A set partition splits the ground set [n] = {1, ..., n} into disjoint
nonempty blocks.  Canonical form lists blocks by increasing least element,
with elements increasing inside each block.  The restricted growth string
(entry i-1 gives the index of the block containing i) doubles as the
canonical encoding used for hashing, ordering, and enumeration order.

This module is the one place that lists set partitions.  Inside the
enumerators a block is a bitmask with bit x for element x, which
``block_elements`` turns back into a block.  ``set_partitions`` lists every
set partition of a bitmask and ``enumerate_partitions`` those of [n], sorted
by restricted growth string.  ``weighted_partitions`` keeps only those whose
blocks all have nonzero weight, pruning as it goes (the 12-vertex path has
2,048 connected partitions against B_12 = 4.2 million), and labels each by
summing a per-block key table the caller passes: block-mask tuples, or
partition codes straight away.

``set_partitions`` caches its result only for masks of at most
``CACHED_BLOCK_SIZE`` = 6 bits: at ``NCSYM_MAX_N`` = 12 that is at most
2,510 masks holding sum_{k <= 6} C(12, k) B_k = 237,426 block tuples, plus
278 groupings of up to six blocks; larger masks are enumerated per call (a
single 12-element block has B_12 = 4.2 million refinements).  The cache keeps
at most 4,096 masks, so only elements of larger degree meet the bound, and
``clear_caches`` drops it with the Bell numbers; ``elements.clear_caches``
also drops the conversion columns.  The small tables pay in the verify suites:
without them ``verify --suite agreement --n 5`` took 3.05 s of CPU instead
of 2.77 s and ``--suite roundtrip --n 6`` 0.81 s instead of 0.71 s (medians
of six interleaved runs on a shared 2-vCPU VM).

Everything defined here is immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import os
from functools import cache, lru_cache
from math import comb, factorial
from typing import Iterable, Sequence

from .errors import DomainError, ResourceLimitError

DEFAULT_MAX_GROUND_SET = 12
CACHED_BLOCK_SIZE = 6
_CACHED_MASKS = 4096


def max_ground_set() -> int:
    """Limit for exhaustive enumerations; the NCSYM_MAX_N env var overrides it."""
    raw = os.environ.get("NCSYM_MAX_N")
    if raw is None:
        return DEFAULT_MAX_GROUND_SET
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"NCSYM_MAX_N must be an integer, got {raw!r}") from exc
    if value < 1:
        raise DomainError("NCSYM_MAX_N must be at least 1")
    return value


def check_ground_set(n: int, what: str) -> None:
    """Refuse a ground set larger than NCSYM_MAX_N.  Every enumeration whose
    size grows like B_n or 2^n calls this before it allocates anything."""
    limit = max_ground_set()
    if n > limit:
        raise ResourceLimitError(f"{what} limited to n <= {limit} (NCSYM_MAX_N), got {n}")


def block_elements(mask: int) -> tuple[int, ...]:
    """The elements of a block bitmask, bit x for element x, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def set_partitions(mask: int) -> tuple[tuple[int, ...], ...]:
    """Every set partition of the set bits of mask, as tuples of submasks in
    increasing order of least bit; cached up to CACHED_BLOCK_SIZE bits."""
    if mask.bit_count() <= CACHED_BLOCK_SIZE:
        return _small_mask_partitions(mask)
    return _mask_partitions(mask)


def _mask_partitions(mask: int) -> tuple[tuple[int, ...], ...]:
    if not mask:
        return ((),)
    low = mask & -mask
    rest = mask ^ low
    out = []
    sub = rest
    while True:
        block = sub | low
        out.extend((block,) + tail for tail in set_partitions(mask ^ block))
        if not sub:
            break
        sub = (sub - 1) & rest
    return tuple(out)


_small_mask_partitions = lru_cache(maxsize=_CACHED_MASKS)(_mask_partitions)


def clear_caches() -> None:
    """Drop the cached set partitions of small masks and Bell numbers."""
    _small_mask_partitions.cache_clear()
    bell_number.cache_clear()


class SetPartition:
    """A partition of {1, ..., n} into disjoint nonempty blocks."""

    __slots__ = ("n", "blocks", "rgs", "_hash")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        if n < 0:
            raise DomainError("ground set size must be nonnegative")
        cleaned = sorted((tuple(sorted(block)) for block in blocks),
                         key=lambda b: b[0] if b else 0)
        seen = set()
        for block in cleaned:
            if not block:
                raise DomainError("blocks must be nonempty")
            for x in block:
                if not isinstance(x, int) or not 1 <= x <= n:
                    raise DomainError(f"element {x!r} outside ground set [{n}]")
                if x in seen:
                    raise DomainError(f"element {x} appears in two blocks")
                seen.add(x)
        if len(seen) != n:
            missing = next(x for x in range(1, n + 1) if x not in seen)
            raise DomainError(
                f"blocks do not cover the ground set; smallest missing element {missing}")
        self._install(n, tuple(cleaned))

    def _install(self, n: int, blocks: tuple[tuple[int, ...], ...]) -> None:
        self.n = n
        self.blocks = blocks
        owner = [0] * n
        for index, block in enumerate(blocks):
            for x in block:
                owner[x - 1] = index
        self.rgs = tuple(owner)
        self._hash = hash((n,) + self.rgs)

    @classmethod
    def _raw(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> "SetPartition":
        """Bypass validation; caller guarantees canonical disjoint cover."""
        self = object.__new__(cls)
        self._install(n, blocks)
        return self

    @classmethod
    def from_rgs(cls, rgs: Iterable[int]) -> "SetPartition":
        """Rebuild a partition from its restricted growth string."""
        blocks: list[list[int]] = []
        n = 0
        for i, b in enumerate(rgs):
            if b == len(blocks):
                blocks.append([])
            elif b > len(blocks) or b < 0:
                raise DomainError("not a restricted growth string")
            blocks[b].append(i + 1)
            n = i + 1
        return cls._raw(n, tuple(tuple(block) for block in blocks))

    @classmethod
    def singletons(cls, n: int) -> "SetPartition":
        """The finest partition 1/2/.../n."""
        if n < 0:
            raise DomainError("ground set size must be nonnegative")
        return cls._raw(n, tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def single_block(cls, n: int) -> "SetPartition":
        """The coarsest partition 12...n."""
        if n < 1:
            raise DomainError("single-block partition needs n >= 1")
        return cls._raw(n, (tuple(range(1, n + 1)),))

    @classmethod
    def empty(cls) -> "SetPartition":
        """The unique partition of the empty ground set."""
        return cls._raw(0, ())

    @classmethod
    def parse(cls, text: str) -> "SetPartition":
        return parse_partition(text)

    # -- order and algebra on indices ------------------------------------

    def refines(self, other: "SetPartition") -> bool:
        """True when every block of self lies inside a block of other."""
        if self.n != other.n:
            raise DomainError("refinement compares partitions of the same ground set")
        mine = self.rgs
        theirs = other.rgs
        image: dict[int, int] = {}
        for i in range(self.n):
            b = mine[i]
            t = theirs[i]
            prev = image.get(b)
            if prev is None:
                image[b] = t
            elif prev != t:
                return False
        return True

    def slash(self, other: "SetPartition") -> "SetPartition":
        """Concatenate ground sets: blocks of self, then other shifted by n."""
        shifted = tuple(tuple(x + self.n for x in block) for block in other.blocks)
        return SetPartition._raw(self.n + other.n, self.blocks + shifted)

    def shape(self) -> "IntegerPartition":
        """Multiset of block sizes, weakly decreasing."""
        return IntegerPartition(len(block) for block in self.blocks)

    def _cut_points(self) -> list[int]:
        # k is a cut point when no block straddles the boundary between k and k+1
        spanned = [False] * (self.n + 1)
        for block in self.blocks:
            for k in range(block[0], block[-1]):
                spanned[k] = True
        return [k for k in range(1, self.n) if not spanned[k]]

    @property
    def is_atomic(self) -> bool:
        return self.n > 0 and not self._cut_points()

    def atomic_decomposition(self) -> list["SetPartition"]:
        """Split at every cut point; each factor is atomic on its own ground set.

        The factors recombine to self under repeated slash.
        """
        if self.n == 0:
            return []
        boundaries = self._cut_points() + [self.n]
        factors = []
        start = 0
        for end in boundaries:
            segment = tuple(tuple(x - start for x in block)
                            for block in self.blocks if start < block[0] <= end)
            factors.append(SetPartition._raw(end - start, segment))
            start = end
        return factors

    def adjoin_top(self) -> "SetPartition":
        """Extend the ground set by one, placing n+1 in the block containing n."""
        if self.n == 0:
            raise DomainError("cannot adjoin to the empty partition")
        target = self.rgs[self.n - 1]
        blocks = list(self.blocks)
        blocks[target] = blocks[target] + (self.n + 1,)
        return SetPartition._raw(self.n + 1, tuple(blocks))

    def permuted(self, delta: "Permutation") -> "SetPartition":
        """Replace each element x by delta(x)."""
        if delta.n != self.n:
            raise DomainError("permutation size must match the ground set")
        images = delta.images
        return SetPartition(self.n, [[images[x - 1] for x in block] for block in self.blocks])

    # -- text form --------------------------------------------------------

    def to_text(self) -> str:
        """Comma form, e.g. '1,3,4/2,5/6/7,8'.  Empty partition gives ''."""
        return "/".join(",".join(str(x) for x in block) for block in self.blocks)

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.n == other.n and self.rgs == other.rgs

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "SetPartition") -> bool:
        return (self.n, self.rgs) < (other.n, other.rgs)

    def __repr__(self) -> str:
        return f"SetPartition.parse({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()


def parse_partition(text: str) -> SetPartition:
    """Parse comma form '1,3,4/2'.  A compact all-digit form like '134/2' is
    accepted when it forms a valid partition with elements at most 9."""
    text = text.strip()
    if not text:
        return SetPartition.empty()
    groups = text.split("/")
    if any(not g for g in groups):
        raise DomainError(f"empty block in partition text {text!r}")
    blocks: list[list[int]]
    compact_ok = ("," not in text
                  and any(len(g) > 1 for g in groups)
                  and all(all(c in "123456789" for c in g) for g in groups))
    if compact_ok:
        blocks = [[int(c) for c in g] for g in groups]
    else:
        try:
            blocks = [[int(piece) for piece in g.split(",")] for g in groups]
        except ValueError as exc:
            raise DomainError(f"bad partition text {text!r}") from exc
    n = max(max(block) for block in blocks)
    return SetPartition(n, blocks)


def enumerate_partitions(n: int) -> list[SetPartition]:
    """All set partitions of [n], lexicographic by restricted growth string."""
    if n < 0:
        raise DomainError(f"partition enumeration needs n >= 0, got {n}")
    check_ground_set(n, "partition enumeration")
    blocks = [block_elements(s) for s in range(1 << (n + 1))]
    found = [SetPartition._raw(n, tuple(map(blocks.__getitem__, masks)))
             for masks in set_partitions((1 << (n + 1)) - 2)]
    found.sort(key=lambda pi: pi.rgs)
    return found


@cache
def bell_number(n: int) -> int:
    """B_n, the number of set partitions of an n-element set."""
    return sum(comb(n - 1, j) * bell_number(j) for j in range(n)) if n else 1


def weighted_partition_sums(n: int, weight: Sequence[int]) -> list[int]:
    """For every vertex bitmask S (bit x for element x), the sum over the
    partitions of S of the product of their block weights, indexed like
    weight; the values weighted_partitions would sum, without listing the
    partitions.  O(3^n), each block chosen as a submask holding min S."""
    size = 1 << (n + 1)
    total = [0] * size
    total[0] = 1
    for s in range(2, size, 2):
        low = s & -s
        rest = s ^ low
        value = 0
        sub = rest
        while True:
            block_weight = weight[sub | low]
            if block_weight:
                value += block_weight * total[rest ^ sub]
            if not sub:
                break
            sub = (sub - 1) & rest
        total[s] = value
    return total


def weighted_partitions(n: int, weight: Sequence[int], key: Sequence) -> dict:
    """Every partition of [n] all of whose blocks have nonzero weight, labeled
    key[0] + sum_B key[B] and mapped to the product of its block weights.

    weight and key are indexed by block bitmask, bit x for element x, so they
    have 2^(n+1) entries of which only mask 0 and the even masks are read, and
    key[B] only where weight[B] is nonzero.  The labels must be distinct per
    partition: one-mask tuples (key[B] = (B,), key[0] = ()) give the tuple of
    block masks, and ``elements`` passes each block's share of a partition
    code.  Each block is chosen as a submask holding the least unplaced
    element, so blocks are added least element first and each partition is
    reached once; the labels are in no particular order.
    """
    if not n:
        return {key[0]: 1}
    out: dict = {}

    def place(remaining: int, label, coeff: int) -> None:
        low = remaining & -remaining
        rest = remaining ^ low
        sub = rest
        while True:
            block = sub | low
            value = weight[block]
            if value:
                if sub == rest:
                    out[label + key[block]] = coeff * value
                else:
                    place(rest ^ sub, label + key[block], coeff * value)
            if not sub:
                break
            sub = (sub - 1) & rest

    place((1 << (n + 1)) - 2, key[0], 1)
    return out


def mobius_from_bottom(pi: SetPartition) -> int:
    """Moebius value of the interval from the all-singletons partition to pi.

    Equals the product over blocks of (-1)^(size-1) * (size-1)!.
    """
    out = 1
    for block in pi.blocks:
        k = len(block)
        out *= (-1) ** (k - 1) * factorial(k - 1)
    return out


def mobius_interval(sigma: SetPartition, pi: SetPartition) -> int:
    """Moebius value of the interval [sigma, pi] in the refinement order.

    The interval is a product of smaller partition lattices, one per block of
    pi, so the value is the product over blocks B of (-1)^(k-1) * (k-1)! where
    k counts the blocks of sigma inside B.
    """
    if not sigma.refines(pi):
        raise DomainError("mobius_interval requires sigma <= pi in refinement order")
    counts = [0] * len(pi.blocks)
    owner = pi.rgs
    for block in sigma.blocks:
        counts[owner[block[0] - 1]] += 1
    out = 1
    for k in counts:
        out *= (-1) ** (k - 1) * factorial(k - 1)
    return out


class IntegerPartition:
    """A weakly decreasing tuple of positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(sorted(parts, reverse=True))
        for part in parts:
            if not isinstance(part, int) or part < 1:
                raise DomainError(f"parts must be positive integers, got {part!r}")
        self.parts = parts

    @property
    def n(self) -> int:
        return sum(self.parts)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for part in self.parts:
            out[part] = out.get(part, 0) + 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerPartition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("IntegerPartition", self.parts))

    def __lt__(self, other: "IntegerPartition") -> bool:
        return (self.n, self.parts) < (other.n, other.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"IntegerPartition({list(self.parts)!r})"

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def parts_factorial(lam: IntegerPartition) -> int:
    """Product of the factorials of the parts."""
    out = 1
    for part in lam.parts:
        out *= factorial(part)
    return out


def multiplicity_factorial(lam: IntegerPartition) -> int:
    """Product of the factorials of the part multiplicities."""
    out = 1
    for count in lam.multiplicities().values():
        out *= factorial(count)
    return out


class Permutation:
    """A permutation of [n] in one-line notation: images[i-1] = image of i."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise DomainError("one-line notation must list each of 1..n exactly once")
        self.images = images

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise DomainError(f"argument {i} outside [{self.n}]")
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """Composition self o other: apply other first, then self."""
        if self.n != other.n:
            raise DomainError("can only compose permutations of equal size")
        return Permutation(self.images[other.images[i] - 1] for i in range(self.n))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, image in enumerate(self.images, start=1):
            inv[image - 1] = i
        return Permutation(inv)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(("Permutation", self.images))

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"
