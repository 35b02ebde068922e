"""Chamber combinatorics of the wall arrangement ε_I(r) = 0.

For a side-length vector r ∈ ℚⁿ₊ and a proper nonempty index set
I ⊆ {1,…,n}, define ε_I(r) = Σ_{i∈I} rᵢ − Σ_{i∉I} rᵢ.  I is "short" when
ε_I < 0 and "long" when ε_I > 0; r is "generic" when no ε_I vanishes.  The
hyperplanes ε_I = 0 cut the positive cone into chambers; a chamber is
uniquely encoded by its family of short sets, equivalently by the
inclusion-maximal ones.

This module classifies points, builds chamber signatures, walks across walls
exactly (adjacent representatives, segment crossings), and enumerates the
whole chamber graph for small n.  Everything is exact: r is scaled to
integers by the lcm of its denominators, so classifying the 2ⁿ subsets is
integer subset sums, and a chamber is held as one Python int with bit m set
when the index set of mask m is short.  Index sets are bitmasks internally
and sorted 1-based integer lists externally.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from math import lcm
from typing import Container, Iterable, Iterator, Sequence

from polygonspace import exactlp
from polygonspace.ratpoly import Scalar, _primitive, _scaled, format_rational, parse_rational

class SingularLength(ValueError):
    """Some ε_I(r) = 0: r lies on a wall and has no chamber."""

    def __init__(self, r: "LengthVector", index_set: "IndexSet") -> None:
        self.r = r
        self.index_set = index_set
        super().__init__(f"epsilon vanishes for I = {index_set}: r = {r} is not generic")


class NotAFacet(ValueError):
    """The requested wall does not bound the chamber of r."""


class DegenerateWall(RuntimeError):
    """No interior wall point with the required perimeter was found."""


class NonGenericSegment(ValueError):
    """Two walls are crossed at the same parameter, or an ε vanishes at an endpoint."""

    def __init__(self, message: str, t: Fraction | None = None) -> None:
        self.t = t
        super().__init__(message)


class BudgetExceeded(RuntimeError):
    """Chamber enumeration hit its node budget."""


@dataclass(frozen=True)
class LengthVector:
    """A vector of n ≥ 3 strictly positive rational side lengths."""

    lengths: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        lengths = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if len(self.lengths) < 3:
            raise ValueError(f"need at least 3 side lengths, got {len(self.lengths)}")
        if any(x <= 0 for x in self.lengths):
            raise ValueError(f"side lengths must be strictly positive: {self}")

    @classmethod
    def from_values(cls, values: Sequence[Scalar]) -> LengthVector:
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def parse(cls, text: str) -> LengthVector:
        """Parse comma-separated lengths, each an integer, "p/q", or exact decimal."""
        return cls(tuple(parse_rational(part) for part in text.split(",")))

    @property
    def n(self) -> int:
        return len(self.lengths)

    @property
    def perimeter(self) -> Fraction:
        return sum(self.lengths, Fraction(0))

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.lengths)

    def __getitem__(self, i: int) -> Fraction:
        return self.lengths[i]

    def to_strings(self) -> list[str]:
        return [format_rational(x) for x in self.lengths]

    def __str__(self) -> str:
        return "(" + ", ".join(self.to_strings()) + ")"


@dataclass(frozen=True)
class IndexSet:
    """A proper nonempty subset of {1,…,n}, stored as a bitmask."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"n must be at least 3, got {self.n}")
        if not 0 < self.mask < (1 << self.n) - 1:
            raise ValueError(f"index set must be nonempty and proper (n={self.n}, mask={self.mask:b})")

    @classmethod
    def from_indices(cls, n: int, indices: Sequence[int]) -> IndexSet:
        """Build from 1-based indices."""
        mask = 0
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError(f"index {i} out of range 1..{n}")
            if mask >> (i - 1) & 1:
                raise ValueError(f"repeated index {i}")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @property
    def p(self) -> int:
        return self.mask.bit_count()

    @property
    def q(self) -> int:
        return self.n - self.p

    @property
    def complement(self) -> IndexSet:
        return IndexSet(self.n, ((1 << self.n) - 1) ^ self.mask)

    @property
    def indices(self) -> tuple[int, ...]:
        """Sorted 1-based member indices."""
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    @property
    def sort_key(self) -> tuple[int, int]:
        """Canonical order: by cardinality, then lexicographically by sorted
        indices, i.e. first the set holding the lowest index where two differ,
        which is the one with the larger bit-reversed mask."""
        return (self.p, -int(format(self.mask, f"0{self.n}b")[::-1], 2))

    def contains(self, index: int) -> bool:
        """Membership of a 1-based index (False outside 1..n)."""
        return 1 <= index <= self.n and bool(self.mask >> (index - 1) & 1)

    def is_subset_of(self, other: IndexSet) -> bool:
        return self.mask & ~other.mask == 0

    def permute(self, perm: Sequence[int]) -> IndexSet:
        """Relabel members: 0-based position i maps to perm[i]."""
        mask = 0
        for i in range(self.n):
            if self.mask >> i & 1:
                mask |= 1 << perm[i]
        return IndexSet(self.n, mask)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.indices)) + "}"


@dataclass(frozen=True)
class Wall:
    """A wall crossing, oriented: index_set is long before and short after.

    The undirected wall is the hyperplane ε = 0 of the complementary pair
    {index_set, index_setᶜ}.
    """

    index_set: IndexSet

    @property
    def p(self) -> int:
        return self.index_set.p

    @property
    def q(self) -> int:
        return self.index_set.q

    def __str__(self) -> str:
        return f"wall {self.index_set} (long -> short)"


# A family of index sets is a bitset: an int with bit m set when mask m is a
# member.  Complementing every member reverses the 2^n bits, and with sel[i],
# the masks that contain i, removing i from every member is one shift:
# (bits & sel[i]) >> 2^i.


@lru_cache(maxsize=None)
def _selectors(n: int) -> tuple[int, ...]:
    """sel[i]: the bitset of the masks that contain index i (0-based)."""
    ones = (1 << (1 << n)) - 1
    return tuple(
        (((1 << h) - 1) << h) * (ones // ((1 << 2 * h) - 1))
        for h in (1 << i for i in range(n))
    )


@lru_cache(maxsize=None)
def _pair_classes(n: int) -> tuple[tuple[int, int, int], ...]:
    """(masks holding i not j, 2^j − 2^i, masks holding j not i), i < j."""
    sel = _selectors(n)
    return tuple(
        (sel[i] & ~sel[j], (1 << j) - (1 << i), sel[j] & ~sel[i])
        for i in range(n) for j in range(i + 1, n)
    )


def _complete(n: int, shorts: int) -> bool:
    """The completeness test of enumerate_chambers and canonical_form."""
    for i_not_j, shift, j_not_i in _pair_classes(n):
        a, b = (shorts & i_not_j) << shift, shorts & j_not_i
        if a & ~b and b & ~a:
            return False
    return True


@lru_cache(maxsize=None)
def _ranks(n: int) -> dict[int, int]:
    """The position of each proper nonempty mask in IndexSet.sort_key order."""
    order = sorted(range(1, (1 << n) - 1), key=lambda m: IndexSet(n, m).sort_key)
    return dict(zip(order, range(len(order))))


def _proper(n: int) -> int:
    """The bitset of the proper nonempty masks."""
    return (1 << ((1 << n) - 1)) - 2


def _bitset(n: int, masks: Iterable[int]) -> int:
    """The bitset holding the given masks."""
    flags = bytearray(b"0") * (1 << n)
    for m in masks:
        flags[m] = ord("1")
    return int(flags[::-1], 2)


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _members(bits: int) -> list[int]:
    """The masks in a bitset, increasing."""
    flags = format(bits, "b")[::-1].encode().translate(_BIT_VALUES)
    return list(compress(range(len(flags)), flags))


def _down_closure(n: int, bits: int) -> int:
    """Every proper nonempty subset of a member, and the members."""
    for i, sel in enumerate(_selectors(n)):
        bits |= (bits & sel) >> (1 << i)
    return bits & ~1


def _maximal(n: int, bits: int) -> int:
    """The members of a down-closed family that no other member contains."""
    below = 0
    for i, sel in enumerate(_selectors(n)):
        below |= (bits & sel) >> (1 << i)
    return bits & ~below


def _subset_sums(a: Sequence[int]) -> list[int]:
    """sums[m] = Σ_{i∈m} aᵢ for all 2^n masks m."""
    sums = [0]
    for k in a:
        sums += [s + k for s in sums]
    return sums


def _short_bits(sums: list[int]) -> int:
    """The bitset of the nonempty masks m with 2·sums[m] < sums[full]."""
    cut = (sums[-1] + 1) // 2  # 2s < total exactly when s < cut
    return int("".join(["1" if s < cut else "0" for s in reversed(sums)]), 2) & ~1


def epsilon(r: LengthVector, I: IndexSet) -> Fraction:
    """ε_I(r) = Σ_{i∈I} rᵢ − Σ_{i∉I} rᵢ."""
    if I.n != r.n:
        raise ValueError(f"index set over {I.n} indices applied to {r.n} lengths")
    inside = sum((x for i, x in enumerate(r) if I.mask >> i & 1), Fraction(0))
    return 2 * inside - r.perimeter


def _generic_sums(r: LengthVector, den: int | None = None) -> list[int]:
    """The integer subset sums of r; SingularLength, naming the canonically
    first I, if some ε_I(r) vanishes."""
    sums = _subset_sums(_scaled(r.lengths, den)[0])
    total = sums[-1]
    if total % 2 == 0 and total // 2 in sums:
        zeros = [IndexSet(r.n, m) for m, s in enumerate(sums) if 2 * s == total]
        raise SingularLength(r, min(zeros, key=lambda s: s.sort_key))
    return sums


@dataclass(frozen=True)
class ChamberSignature:
    """A chamber, held as the bitset of all its short sets (see _selectors).

    Bit m of `shorts` is set when the index set of mask m is short; two
    signatures are equal when these bitsets are.  Construction checks, with
    a fixed number of big-int operations, that the bitset holds only proper
    nonempty masks, is closed under taking nonempty subsets, and classifies
    every complementary pair exactly once.  The inclusion-maximal short
    sets are derived on first use.
    """

    n: int
    shorts: int

    def __post_init__(self) -> None:
        n, shorts = self.n, self.shorts
        if n < 3:
            raise ValueError(f"n must be at least 3, got {n}")
        if shorts & ~_proper(n):
            raise ValueError("short sets must be proper and nonempty")
        missing = _down_closure(n, shorts) & ~shorts
        if missing:
            subset = IndexSet(n, (missing & -missing).bit_length() - 1)
            raise ValueError(f"{subset} is a subset of a short set but is not short")
        longs = int(format(shorts, f"0{1 << n}b")[::-1], 2)  # complements of the shorts
        unclassified = (shorts & longs | _proper(n) & ~(shorts | longs)) & _selectors(n)[0]
        if unclassified:
            pair = IndexSet(n, (unclassified & -unclassified).bit_length() - 1)
            raise ValueError(f"maximal shorts do not classify the pair {pair}/{pair.complement}")

    def __repr__(self) -> str:
        # hexadecimal: a decimal int of 2^n bits exceeds Python's
        # int-to-str digit limit from n = 14 on
        return f"ChamberSignature(n={self.n}, shorts={self.shorts:#x})"

    @cached_property
    def maximal_shorts(self) -> tuple[IndexSet, ...]:
        """The inclusion-maximal short sets, canonically sorted."""
        n = self.n
        return tuple(sorted((IndexSet(n, m) for m in _members(_maximal(n, self.shorts))), key=lambda s: s.sort_key))

    def is_short(self, I: IndexSet) -> bool:
        return bool(self.shorts >> I.mask & 1)

    def is_empty(self) -> bool:
        """True iff some singleton is long (polygon space empty)."""
        return any(not self.shorts >> (1 << i) & 1 for i in range(self.n))

    def is_external(self) -> bool:
        """True iff some singleton is itself a maximal short set."""
        maximal = _maximal(self.n, self.shorts)
        return any(maximal >> (1 << i) & 1 for i in range(self.n))

    def flip(self, I: IndexSet) -> ChamberSignature:
        """The signature across the facet wall of the long set I."""
        if self.is_short(I):
            raise NotAFacet(f"{I} is short here; only long sets name exit walls")
        if not _maximal(self.n, self.shorts) >> I.complement.mask & 1:
            raise NotAFacet(f"{I.complement} is not a maximal short set; {I} does not bound this chamber")
        return self._across(I.mask)

    def _across(self, exit_mask: int) -> ChamberSignature:
        """flip unchecked, for a long set whose complement is maximal short:
        the result is then a valid family, so __post_init__ is skipped."""
        across = object.__new__(ChamberSignature)
        across.__dict__.update(n=self.n, shorts=self.shorts & ~(1 << ((1 << self.n) - 1 ^ exit_mask)) | 1 << exit_mask)
        return across

    def adjacent_pair_with(self, other: ChamberSignature) -> IndexSet | None:
        """The set long here and short in `other`, if the two signatures differ
        in exactly that complementary pair; otherwise None."""
        if self.n != other.n:
            return None
        differ = (self.shorts ^ other.shorts) & _selectors(self.n)[0]
        if differ.bit_count() != 1:
            return None
        flip = differ.bit_length() - 1
        long_here = ((1 << self.n) - 1) ^ flip if self.shorts >> flip & 1 else flip
        return IndexSet(self.n, long_here)

    def permute(self, perm: Sequence[int]) -> ChamberSignature:
        """Relabel indices: 0-based position i maps to perm[i]."""
        tops = _bitset(self.n, (s.permute(perm).mask for s in self.maximal_shorts))
        return ChamberSignature(self.n, _down_closure(self.n, tops))

    def sort_key(self) -> tuple[tuple[int, int], ...]:
        return tuple(s.sort_key for s in self.maximal_shorts)

    def to_lists(self) -> list[list[int]]:
        return [list(s.indices) for s in self.maximal_shorts]

    @classmethod
    def from_lists(cls, n: int, lists: Sequence[Sequence[int]]) -> ChamberSignature:
        """The chamber whose maximal short sets are the given 1-based index lists."""
        sets = [IndexSet.from_indices(n, ix) for ix in lists]
        if not sets:
            raise ValueError("a chamber has at least one maximal short set")
        tops = _bitset(n, (s.mask for s in sets))
        if tops.bit_count() != len(sets):
            raise ValueError("duplicate maximal short sets")
        shorts = _down_closure(n, tops)
        maximal = _maximal(n, shorts)
        if maximal != tops:
            a = next(s for s in sets if not maximal >> s.mask & 1)
            b = next(t for t in sets if t is not a and a.is_subset_of(t))
            raise ValueError(f"{a} is contained in {b}; sets must be inclusion-maximal")
        return cls(n, shorts)

    def __str__(self) -> str:
        return "[" + ", ".join(str(s) for s in self.maximal_shorts) + "]"


def signature(r: LengthVector) -> ChamberSignature:
    """The chamber signature of a generic r."""
    return ChamberSignature(r.n, _short_bits(_generic_sums(r)))


def canonical_form(sig: ChamberSignature) -> ChamberSignature:
    """One relabeling shared by all chambers that agree up to permuting the sides.

    The sides are relabeled by decreasing cᵢ, the number of short sets that
    contain side i.  A chamber is a weighted majority game and so complete
    (Taylor–Zwicker, *Simple Games*): cᵢ orders the sides by desirability,
    and sides with equal cᵢ are interchangeable, so the order among them
    does not change the result.  This is one sort, not a search over the n!
    relabelings, and the result need not be the smallest relabeling under
    `sort_key`.  A family that fails the completeness test is no chamber
    and raises ValueError.
    """
    n = sig.n
    if not _complete(n, sig.shorts):
        raise ValueError(f"{sig} is not a complete family, so it is no chamber")
    counts = [(sig.shorts & sel).bit_count() for sel in _selectors(n)]
    order = sorted(range(n), key=lambda i: -counts[i])
    return sig.permute([order.index(i) for i in range(n)])


def external_representative(n: int, j: int = 1, perimeter: Scalar = 1) -> LengthVector:
    """A generic external point: side j just below half the perimeter, rest equal.

    r_j = (1/2 - 1/(8n))·P makes {j} a maximal short set, so the chamber is
    external; the construction is generic for every n ≥ 3.
    """
    if not 1 <= j <= n:
        raise ValueError(f"index {j} out of range 1..{n}")
    P = Fraction(perimeter)
    if P <= 0:
        raise ValueError("perimeter must be positive")
    big = (Fraction(1, 2) - Fraction(1, 8 * n)) * P
    rest = (P - big) / (n - 1)
    return LengthVector.from_values([big if i == j - 1 else rest for i in range(n)])


def _max_margin_point(
    n: int, shorts: int, sums: Sequence[tuple[int, Fraction]], skip: Container[int] = ()
) -> tuple[tuple[Fraction, ...], bool] | None:
    """(The max-margin point of the chamber under equality constraints, True if certified unique), or None.

    Solves max λ over {x ≥ λ, Σ_{i∈m} xᵢ = value for each (m, value) in
    `sums`, every complementary pair whose canonical mask is not in `skip`
    keeps its chamber sign with slack ≥ λ} (exact LP, integer rows).  A
    positive optimum is the most wall-distant point of that region; a
    nonpositive one, or infeasibility, gives None.  Only pairs whose short
    member is a maximal short set get a row: for J ⊊ M with M short,
    ε_J = ε_M − 2·Σ_{M∖J} x ≤ −λ − 2λ as x ≥ λ ≥ 0, so the other rows are
    implied (also under a skipped wall pair whose equalities put ε_{Iᶜ} = 0).
    """
    full = (1 << n) - 1
    maximal = _maximal(n, shorts)
    ge_rows: list[tuple[list[int], int]] = []
    for mask in range(1, full, 2):  # one mask per pair, the member holding index 1
        short = shorts >> mask & 1
        if mask in skip or not maximal >> (mask if short else full ^ mask) & 1:
            continue
        sign = -1 if short else 1
        # sign·ε_J(x) − λ ≥ 0
        ge_rows.append(([sign if mask >> i & 1 else -sign for i in range(n)] + [-1], 0))
    for i in range(n):
        ge_rows.append(([int(j == i) for j in range(n)] + [-1], 0))
    eq_rows = [
        ([value.denominator if mask >> i & 1 else 0 for i in range(n)] + [0], value.numerator)
        for mask, value in sums
    ]
    solved = exactlp.maximize([0] * n + [1], eq_rows, ge_rows)
    if solved is None or solved[0] <= 0:
        return None
    return solved[1][:n], solved[2]


def _facet_point(n: int, shorts: int, mask: int, value: Fraction, memo: dict) -> tuple[Fraction, ...] | None:
    """The max-margin point of the wall of `mask` (its pair's sums at `value`),
    or None, solved once per relabeling class: the LP is equivariant under
    relabeling the sides, so a certified unique optimum, relabeled, or None
    holds for the whole orbit.  `memo` keys a result by the facet relabeled by
    decreasing cᵢ (as in canonical_form), ties broken by membership in `mask`;
    a key that is not canonical only misses."""
    counts = [(shorts & sel).bit_count() for sel in _selectors(n)]
    order = sorted(range(n), key=lambda i: (-counts[i], mask >> i & 1))
    slot = [order.index(i) for i in range(n)]  # side i is relabeled slot[i]

    def relabel(m: int) -> int:
        return sum(1 << slot[i] for i in range(n) if m >> i & 1)

    key = (sum(1 << relabel(m) for m in _members(_maximal(n, shorts))), relabel(mask), value)
    stored = memo.get(key, ((), False))  # a missing key reads as uncertified
    if stored is None or stored[1]:
        return stored and tuple(stored[0][s] for s in slot)
    pair = (mask, (1 << n) - 1 ^ mask)
    solved = _max_margin_point(n, shorts, [(m, value) for m in pair], skip=pair)
    memo[key] = solved and ([solved[0][i] for i in order], solved[1])  # replaces an uncertified entry
    return solved and solved[0]


def representative(sig: ChamberSignature, perimeter: Scalar = 1) -> LengthVector:
    """A deep interior point of the chamber, at the given perimeter.

    The max-margin point with Σx = P; the optimum is the most wall-distant
    point, so the result is generic and canonical.
    """
    P = Fraction(perimeter)
    if P <= 0:
        raise ValueError("perimeter must be positive")
    solved = _max_margin_point(sig.n, sig.shorts, [((1 << sig.n) - 1, P)])
    if solved is None:
        raise ValueError(f"signature {sig} is not realizable by any length vector")
    point = LengthVector.from_values(solved[0])
    if signature(point) != sig:
        raise ValueError(f"interior-point search failed for {sig}")
    return point


def _wall_point_ok(values: Sequence[int], shorts: int, mask: int) -> bool:
    """Strictly positive, ε = 0 on the wall of `mask`, every other pair keeps
    its sign in `shorts` (`values`: the wall point times a positive number,
    as integers; a second vanishing pair leaves both its members long)."""
    if any(x <= 0 for x in values):
        return False
    sums = _subset_sums(values)
    if 2 * sums[mask] != sums[-1]:
        return False
    return _short_bits(sums) == shorts & ~(1 << (len(sums) - 1 ^ mask))


def adjacent_representative(
    r: LengthVector, I: IndexSet
) -> tuple[LengthVector, LengthVector]:
    """Cross the facet wall of the long set I: (wall point, point beyond).

    Returns a wall point r_c (ε_I(r_c) = 0, every other ε keeps its sign,
    perimeter preserved) and a generic r_after just beyond it whose signature
    differs from signature(r) exactly in the pair {I, Iᶜ}.  r_after may lie in
    an empty chamber; callers detect that from its signature.  The wall point
    is the first valid one of r + (ε_I/2)·u (u = −χ_I/p + χ_{Iᶜ}/q), r scaled
    to P/2 on each side, and the facet's max-margin point; r_after is it plus
    (P/4)/2^k·u for the least k that works.  All in integers (r times a lcm).
    """
    if I.n != r.n:
        raise ValueError(f"index set over {I.n} indices applied to {r.n} lengths")
    den = lcm(*(x.denominator for x in r))
    sums = _generic_sums(r, den)
    if 2 * sums[I.mask] <= sums[-1]:
        raise NotAFacet(f"{I} is not long at r = {r}")
    sig = ChamberSignature(r.n, _short_bits(sums))  # sig.flip(I) checks Iᶜ is maximal short
    point, point_den, after, after_den = _cross(r.n, sig.shorts, sig.flip(I).shorts, sums, den, I.mask, {})
    wall_point = LengthVector(tuple(Fraction(x, point_den) for x in point))
    return wall_point, LengthVector(tuple(Fraction(x, after_den) for x in after))


def _cross(n: int, shorts: int, target: int, sums: list[int], den: int,
           mask: int, memo: dict) -> tuple[list[int], int, list[int], int]:
    """adjacent_representative in integers, from the bitsets and the subset sums
    of den·r: (wall point, its denominator, point beyond, its denominator)."""
    total, inside = sums[-1], sums[mask]
    p, q, e = mask.bit_count(), n - mask.bit_count(), 2 * inside - total
    a = [(sums[1 << i], mask >> i & 1) for i in range(n)]
    point, point_den = [2 * p * q * x - (q * e if m else -p * e) for x, m in a], 2 * p * q * den
    if not _wall_point_ok(point, shorts, mask):
        point = [x * total * (total - inside if m else inside) for x, m in a]
        point_den = 2 * inside * (total - inside) * den
        if not _wall_point_ok(point, shorts, mask):
            # the facet's max-margin point; a nonpositive margin means no facet
            chosen = _facet_point(n, shorts, mask, Fraction(total, 2 * den), memo)
            if chosen is not None:
                point, point_den = _scaled(chosen)
            if chosen is None or not _wall_point_ok(point, shorts, mask):
                wall, sig = IndexSet(n, mask), ChamberSignature(n, shorts)
                raise DegenerateWall(f"the wall of {wall} does not carry a facet of {sig}")
    # after = point/point_den + (P/4)/2^k·u over the denominator 4pq·2^k·point_den
    size = sum(point)
    step = [-q * size if m else p * size for _, m in a]
    base, after_den = [4 * p * q * x for x in point], 4 * p * q * point_den
    for _ in range(200):
        after = [x + s for x, s in zip(base, step)]
        if all(x > 0 for x in after) and _short_bits(_subset_sums(after)) == target:
            # equal short bits classify every pair, so after is generic; lowest
            # terms keep the integers of a walk small
            *after, after_den = _primitive([*after, after_den])
            return point, point_den, after, after_den
        base, after_den = [2 * x for x in base], 2 * after_den
    wall, sig = IndexSet(n, mask), ChamberSignature(n, shorts)
    raise DegenerateWall(f"no generic point found just beyond the wall of {wall} from {sig}")


def segment_crossings(
    r_from: LengthVector, r_to: LengthVector
) -> list[tuple[Fraction, Wall]]:
    """Ordered wall crossings of the straight segment from r_from to r_to.

    Each crossing is (t, wall) with t ∈ (0,1) the parameter where ε vanishes
    and the wall oriented in the direction of travel (its index_set is long
    before the crossing).  Raises NonGenericSegment when two distinct pairs
    vanish at the same t; endpoints must be generic with equal perimeter.
    """
    if r_from.n != r_to.n:
        raise ValueError(f"mismatched lengths: n={r_from.n} vs n={r_to.n}")
    if r_from.perimeter != r_to.perimeter:
        raise ValueError(
            f"perimeter changes along the segment: {r_from.perimeter} vs {r_to.perimeter}"
        )
    den = lcm(*(x.denominator for x in (*r_from, *r_to)))
    sums_from = _generic_sums(r_from, den)
    sums_to = _generic_sums(r_to, den)
    n = r_from.n
    total = sums_from[-1]
    flipped = (_short_bits(sums_from) ^ _short_bits(sums_to)) & _selectors(n)[0]
    crossings: dict[Fraction, tuple[Fraction, Wall]] = {}
    for mask in _members(flipped):
        e0 = 2 * sums_from[mask] - total
        e1 = 2 * sums_to[mask] - total
        t = Fraction(e0, e0 - e1)
        long_before = mask if e0 > 0 else ((1 << n) - 1) ^ mask
        wall = Wall(IndexSet(n, long_before))
        if t in crossings:
            other = crossings[t][1]
            raise NonGenericSegment(
                f"walls {other.index_set} and {wall.index_set} are crossed at the same t = {t}",
                t=t,
            )
        crossings[t] = (t, wall)
    return [crossings[t] for t in sorted(crossings)]


def nudge_within_chamber(
    r: LengthVector, k: int, sig: ChamberSignature | None = None
) -> LengthVector | None:
    """Deterministic retry-k perturbation of r staying inside its chamber.

    Adds a zero-perimeter direction drawn from a k-seeded generator, so
    every coordinate moves by a different tiny amount; a vector with tied
    coordinates has all its ties broken in one step, and each retry explores
    a fresh direction at a magnitude that shrinks with k.  The weights range
    over ±2^(n+10), so that ties among the 2ⁿ subset sums of the direction
    stay rare as n grows, and the magnitude is scaled to keep the step size
    of weights in ±1000.  Returns None when the candidate leaves the chamber
    (caller tries k+1); passing `sig`, the chamber of r, saves signing r.
    """
    if k < 1:
        raise ValueError("retry counter starts at 1")
    n = r.n
    rng = random.Random(k)
    bound = 1 << (n + 10)
    weights = [rng.randint(-bound, bound) for _ in range(n)]
    mean = Fraction(sum(weights), n)
    magnitude = r.perimeter * 1000 / (10**7 * bound * (1 << ((k - 1) // (n - 1))))
    values = [x + magnitude * (w - mean) for x, w in zip(r.lengths, weights)]
    if any(x <= 0 for x in values):
        return None
    candidate = LengthVector(tuple(values))
    try:
        if signature(candidate) == (signature(r) if sig is None else sig):
            return candidate
    except SingularLength:
        return None
    return None


@dataclass(frozen=True)
class ChamberNode:
    """One chamber: signature, a generic representative, and status flags."""

    signature: ChamberSignature
    representative: LengthVector
    empty: bool
    external: bool


@dataclass(frozen=True)
class ChamberGraph:
    """All chambers for a given n, with facet adjacency.

    Edges are (source node index, target node index, wall) with the wall
    oriented source → target; one edge per unordered chamber pair.
    """

    n: int
    nodes: tuple[ChamberNode, ...]
    edges: tuple[tuple[int, int, Wall], ...]


_N_LIMIT = 7  # the largest n enumerate_chambers accepts; n = 8 has ~3.3·10⁷ chambers


def enumerate_chambers(n: int, max_nodes: int | None = None) -> ChamberGraph:
    """Breadth-first enumeration of every chamber (empty ones included).

    Starts from a constructed external representative and crosses a facet
    wall only to reach a new chamber: two held chambers differing in one pair
    {I, Iᶜ} are adjacent, as the segment between their generic points keeps
    every other ε strictly signed and so meets the wall of I alone, at a
    facet point of both.  Walls are taken in canonical order, so node order,
    representatives and adjacency are deterministic.  A target is crossed
    into only if it is complete: for each i < j, trading i for j in the
    short sets holding i but not j (a shift by 2ʲ − 2ⁱ) keeps them short, or
    trading j for i does.  Skipping the rest is exact, as every chamber is
    complete (for rᵢ ≥ rⱼ the first trade never raises a sum), so their
    crossings would end in DegenerateWall; complete targets still may.
    """
    reps, found = _walk(n, max_nodes)
    order = _node_order(n, reps)
    index_of = {shorts: i for i, shorts in enumerate(order)}
    nodes = tuple(
        ChamberNode(sig, LengthVector(tuple(Fraction(x, den) for x in scaled)),
                    sig.is_empty(), sig.is_external())
        for sig, (scaled, den) in ((ChamberSignature(n, s), reps[s]) for s in order)
    )
    # the target swaps the pair {I, Iᶜ}; one edge per chamber pair, so the
    # wall never decides the order
    full = (1 << n) - 1
    edges = sorted((index_of[a], index_of[a ^ (1 << mask | 1 << (full ^ mask))], mask) for a, mask in found)
    return ChamberGraph(n, nodes, tuple((a, b, Wall(IndexSet(n, mask))) for a, b, mask in edges))


def _node_order(n: int, chambers: Iterable[int]) -> list[int]:
    """The chambers' bitsets in node order: by the sorted ranks of their
    maximal short sets, the order ChamberSignature.sort_key gives."""
    rank = _ranks(n)
    return sorted(chambers, key=lambda shorts: sorted(rank[m] for m in _members(_maximal(n, shorts))))


def _walk(
    n: int, max_nodes: int | None = None
) -> tuple[dict[int, tuple[list[int], int]], list[tuple[int, int]]]:
    """The walk of enumerate_chambers on bitsets, with no node objects: each
    chamber's shorts → its representative as (integers, denominator), and
    the edges as (source shorts, long set at the source)."""
    if not 3 <= n <= _N_LIMIT:
        raise ValueError(f"n = {n} outside the tractable range 3..{_N_LIMIT}")
    if max_nodes is not None and max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    full, rank = (1 << n) - 1, _ranks(n)
    start = external_representative(n)
    start_shorts = signature(start).shorts
    reps: dict[int, tuple[list[int], int]] = {start_shorts: _scaled(start.lengths)}
    found: list[tuple[int, int]] = []
    done: set[int] = set()
    memo: dict = {}
    queue: deque[int] = deque([start_shorts])
    while queue:
        shorts = queue.popleft()
        done.add(shorts)
        sums = None
        for m in sorted(_members(_maximal(n, shorts)), key=rank.__getitem__):
            neighbor = shorts & ~(1 << m) | 1 << (full ^ m)
            if neighbor in done:
                # probed from there already, as m is a maximal short set there
                continue
            if neighbor not in reps:
                if not _complete(n, neighbor):
                    continue
                if sums is None:
                    scaled, den = reps[shorts]
                    sums = _subset_sums(scaled)
                try:
                    *_, after, after_den = _cross(n, shorts, neighbor, sums, den, full ^ m, memo)
                except DegenerateWall:
                    # combinatorially adjacent pair whose common wall carries
                    # no facet; not an edge of the chamber graph
                    continue
                if max_nodes is not None and len(reps) >= max_nodes:
                    raise BudgetExceeded(f"more than {max_nodes} chambers at n = {n}")
                reps[neighbor] = (after, after_den)
                queue.append(neighbor)
            found.append((shorts, full ^ m))
    return reps, found
