"""Closed-form oracles for polygon spaces, written apart from the package.

Nothing here imports ``polygonspace``.  Index sets are bitmasks over the
0-based sides (bit i is side i+1), side lengths are ``Fraction``s, and a
chamber is given by its family of short masks (proper nonempty subsets I
with ε_I(r) < 0).  The formulas:

- classification: I is short iff 2·Σ_{i∈I} rᵢ < Σ rᵢ;
- volume: v = −1/(2(n−3)!)·Σ_{I long or I = full} σ_I·ε_I(x)^{n−3}, with
  σ_I = (−1)^{n−|I|}; applying Q(∂) gives
  −1/(2(n−3−d)!)·Σ σ_I·Q(s_I)·ε_I(x)^{n−3−d}, s_I the ±1 sign vector of I;
- intersection numbers: ∫x^α = −½·Σ σ_I·∏_{i∉I}(−1)^{α_i};
- Betti numbers by the Hausmann–Knutson count of short sets containing a
  fixed side ("The cohomology ring of polygon spaces", Ann. Inst. Fourier
  1998);
- chamber classes under permutation of the sides, counted from sorted
  integer length vectors with odd perimeter (every such vector is generic,
  because ε_I = 2·Σ_I r − P is then odd).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from typing import Iterable, Mapping, Sequence

Exps = tuple[int, ...]


def subset_sums(r: Sequence[Fraction | int]) -> list:
    """sums[mask] = Σ_{i in mask} r_i for every mask."""
    n = len(r)
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + r[low.bit_length() - 1]
    return sums


def short_masks(r: Sequence[Fraction | int]) -> frozenset[int]:
    """Short proper nonempty subsets of a generic r; ValueError on a wall."""
    n = len(r)
    sums = subset_sums(r)
    perimeter = sums[-1]
    out = []
    for mask in range(1, (1 << n) - 1):
        twice = 2 * sums[mask]
        if twice == perimeter:
            raise ValueError(f"r lies on the wall of mask {mask:b}")
        if twice < perimeter:
            out.append(mask)
    return frozenset(out)


def maximal(n: int, shorts: Iterable[int]) -> frozenset[int]:
    """Inclusion-maximal members of a down-closed family over n sides."""
    family = set(shorts)
    return frozenset(
        m for m in family
        if not any(m | 1 << i in family for i in range(n) if not m >> i & 1)
    )


def down_closure(n: int, maximals: Iterable[int]) -> frozenset[int]:
    tops = list(maximals)
    return frozenset(
        m for m in range(1, (1 << n) - 1) if any(m & ~t == 0 for t in tops)
    )


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask of 1-based indices."""
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def is_empty(n: int, shorts: frozenset[int]) -> bool:
    return any(1 << i not in shorts for i in range(n))


def is_external(n: int, shorts: frozenset[int]) -> bool:
    """Some singleton is short while every pair containing it is long."""
    return any(
        1 << i in shorts
        and all((1 << i | 1 << j) not in shorts for j in range(n) if j != i)
        for i in range(n)
    )


def _signed_sets(n: int, shorts: frozenset[int]) -> list[tuple[int, int]]:
    """(σ_I, mask) for every long proper set and for the full set."""
    full = (1 << n) - 1
    out = [(1, full)]
    for mask in range(1, full):
        if mask not in shorts:
            out.append((-1 if (n - mask.bit_count()) % 2 else 1, mask))
    return out


def _eps(mask: int, x: Sequence[Fraction]) -> Fraction:
    return sum((v if mask >> i & 1 else -v for i, v in enumerate(x)), Fraction(0))


def operator_on_volume(
    n: int, shorts: frozenset[int], q: Mapping[Exps, Fraction], x: Sequence[Fraction]
) -> Fraction:
    """(Q(∂)v)(x) for a homogeneous Q of degree d, from the signed power sum."""
    degrees = {sum(e) for e in q}
    if not degrees:
        return Fraction(0)
    if len(degrees) != 1:
        raise ValueError("operator must be homogeneous")
    d = degrees.pop()
    if d > n - 3:
        return Fraction(0)
    k = n - 3 - d
    total = Fraction(0)
    for sigma, mask in _signed_sets(n, shorts):
        q_at_s = sum(
            c * (-1) ** sum(ei for i, ei in enumerate(e) if not mask >> i & 1)
            for e, c in q.items()
        )
        if q_at_s:
            total += sigma * q_at_s * _eps(mask, x) ** k
    return Fraction(-1, 2 * factorial(k)) * total


def volume(n: int, shorts: frozenset[int], x: Sequence[Fraction]) -> Fraction:
    """Value at x of the chamber's volume polynomial, in units of (2π)^(n−3)."""
    return operator_on_volume(n, shorts, {(0,) * n: Fraction(1)}, x)


def intersection_number(n: int, shorts: frozenset[int], alpha: Sequence[int]) -> Fraction:
    """∫ x^α over M(r) for |α| = n−3, in the homogeneous convention."""
    if sum(alpha) != n - 3:
        raise ValueError("|alpha| must be n-3")
    total = 0
    for sigma, mask in _signed_sets(n, shorts):
        odd = sum(a for i, a in enumerate(alpha) if not mask >> i & 1) % 2
        total += -sigma if odd else sigma
    return Fraction(-total, 2)


def betti_hk(n: int, shorts: frozenset[int], k: int = 0) -> tuple[int, ...]:
    """(b₀, b₂, …, b_{2(n−3)}) by the Hausmann–Knutson count, fixing side k (0-based).

    a_j counts short J ∋ k with |J| = j+1 and c_j those with n−|J|−1 = j;
    b_{2j} = Σ_{i≤j} (a_i − c_i).
    """
    a = [0] * (n - 2)
    c = [0] * (n - 2)
    for mask in shorts:
        if not mask >> k & 1:
            continue
        size = mask.bit_count()
        if size - 1 <= n - 3:
            a[size - 1] += 1
        if n - size - 1 <= n - 3:
            c[n - size - 1] += 1
    out, acc = [], 0
    for j in range(n - 2):
        acc += a[j] - c[j]
        out.append(acc)
    return tuple(out)


def monomials(n: int, degree: int) -> list[Exps]:
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def segment_crossings(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> list[tuple[Fraction, int]]:
    """(t, mask long before) for every sign change of ε along a→b, sorted by t."""
    n = len(a)
    full = (1 << n) - 1
    sa, sb = subset_sums(a), subset_sums(b)
    out = []
    for mask in range(1, full):
        if not mask & 1:
            continue
        e0 = 2 * sa[mask] - sa[full]
        e1 = 2 * sb[mask] - sb[full]
        if (e0 > 0) != (e1 > 0):
            out.append((Fraction(e0) / (e0 - e1), mask if e0 > 0 else full ^ mask))
    return sorted(out)


def _stabilizer_order(n: int, shorts: frozenset[int]) -> int:
    """Number of side permutations fixing a chamber whose sides are sorted.

    Sides i and i+1 of a sorted vector are interchangeable exactly when the
    swap fixes the family; interchangeability classes are runs of adjacent
    sides, and the stabilizer is the product of their symmetric groups.
    """
    def swapped(mask: int, i: int) -> int:
        bi, bj = mask >> i & 1, mask >> (i + 1) & 1
        return mask if bi == bj else mask ^ (1 << i | 1 << (i + 1))

    order, run = 1, 1
    for i in range(n - 1):
        if all(swapped(m, i) in shorts for m in shorts):
            run += 1
        else:
            order *= factorial(run)
            run = 1
    return order * factorial(run)


def chamber_classes(n: int, max_side: int) -> tuple[int, int]:
    """(classes under permutation, total chambers) at n, empty ones included.

    Every chamber has a sorted representative, and sorted representatives of
    one orbit share their short family, so the classes are the distinct
    families of sorted integer vectors 1 ≤ r₁ ≤ … ≤ rₙ ≤ max_side with odd
    perimeter; each class contributes n!/|stabilizer| chambers.  Too small a
    max_side undercounts.
    """
    families: set[frozenset[int]] = set()
    for r in combinations_with_replacement(range(1, max_side + 1), n):
        if sum(r) % 2:
            families.add(short_masks(r))
    total = sum(factorial(n) // _stabilizer_order(n, f) for f in families)
    return len(families), total
