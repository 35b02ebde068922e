"""Cohomology of a polygon space through apolarity of its volume polynomial.

The rational cohomology ring of M(r) is ℚ[x₁..xₙ]/Ann(v): a polynomial Q in
the degree-2 generators is zero exactly when Q(∂₁..∂ₙ) kills the chamber's
volume polynomial v.  Everything is read exactly from the chamber's Walsh
table W: Betti numbers and annihilator generators are ranks and kernels of
catalecticants (degree-d monomials acting on v by differentiation), while
membership and the pairing are integer sums over W (`volume._read_walsh`)
that compute no kernel; affine classes are lifted by `volume._fold`.

Degrees are polynomial degrees throughout: a degree-d class lives in
cohomological degree 2d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from polygonspace.chambers import ChamberSignature, IndexSet
from polygonspace.ratpoly import Exponents, MultiPoly, _primitive, _scaled, matrix_rank, sparse_kernel
from polygonspace.volume import (
    Convention,
    Fold,
    VolumePolynomial,
    WrongTotalDegree,
    _columns,
    _monomials,
    _lifted_fold,
    _read_walsh,
    volume_polynomial,
)


class DegreeOutOfRange(ValueError):
    """Degree outside 0..n−3 where a catalecticant is meaningful."""


class EmptyChamber(ValueError):
    """The chamber's polygon space is empty; it has no cohomology ring."""


class BaseNotInSet(ValueError):
    """The base index of a submanifold class must belong to the index set."""


@dataclass(frozen=True)
class CohomologyClass:
    """A homogeneous polynomial in the degree-2 generators x₁..xₙ.

    Represents an element of H^{2d} where d is the polynomial degree; the
    generator xᵢ is the first Chern class attached to the i-th side.
    """

    poly: MultiPoly

    def __post_init__(self) -> None:
        if not self.poly.is_homogeneous():
            raise ValueError("a cohomology class must be homogeneous")

    @property
    def degree(self) -> int:
        return self.poly.degree()

    @property
    def nvars(self) -> int:
        return self.poly.nvars


@dataclass(frozen=True)
class ApolarPresentation:
    """Betti numbers plus minimal annihilator generators for one chamber."""

    chamber: ChamberSignature
    convention: Convention
    betti: tuple[int, ...]
    ann_generators: tuple[tuple[int, tuple[MultiPoly, ...]], ...]


@lru_cache(maxsize=None)
def _odd_sets(n: int, j: int) -> tuple[int, ...]:
    """P(n, j), the odd-exponent sets of the degree-j monomials: |S| ≤ j, |S| ≡ j (mod 2)."""
    return tuple(m for m in range(1 << n) if m.bit_count() <= j and (j - m.bit_count()) % 2 == 0)


@lru_cache(maxsize=None)
def _parity_columns(n: int, d: int) -> tuple[tuple[Exponents, ...], tuple[int, ...], Callable[[Exponents], int]]:
    """The first degree-d monomial of each odd set (graded-lex), those odd sets, and e ↦ odd(e)."""
    odd = dict(zip(*_monomials(n, d)))
    first = {s: e for e, s in reversed(odd.items())}
    columns = tuple(dict.fromkeys(odd.values()))
    return tuple(first[s] for s in columns), columns, odd.__getitem__


def _catalecticant(
    w: list[int], n: int, d: int, columns: Sequence[int] | Sequence[Fold], conv: Convention
) -> list[list[int]]:
    """Rows T ∈ P(n, n−3−d) of W(S ^ T) over the homogeneous columns S, or
    of Σ c·W(S ^ T) over the pairs (c, S) of each affine fold.

    The coefficient of x^γ in Q(∂)v is s·Σ_S q_S·W(S ^ odd(γ))/(2·γ!) over
    the odd-set sums q_S of Q (see `volume._read_walsh`), and odd(γ) runs
    over P(n, n−3−d): up to one nonzero factor per row these are the
    distinct rows of Q ↦ Q(∂)v over the columns' (lifted) classes Q, with
    the same rank and reduced-echelon kernel; lifting loses nothing (see
    `volume._fold`).
    """
    rows = _odd_sets(n, n - 3 - d)
    if conv.is_homogeneous:
        return [[w[s ^ t] for s in columns] for t in rows]
    return [[sum(c * w[s ^ t] for c, s in fold) for fold in columns] for t in rows]


def _betti(w: list[int], n: int, d: int, conv: Convention) -> int:
    """b_{2d}: the rank of the degree-d catalecticant over its distinct
    columns, one per odd set when homogeneous."""
    columns = _odd_sets(n, d) if conv.is_homogeneous else list(dict.fromkeys(_columns(n, d, conv)[1]))
    return matrix_rank(_catalecticant(w, n, d, columns, conv))


def catalecticant_rank(vp: VolumePolynomial, d: int, conv: Convention) -> int:
    """Rank of degree-d differentiation against the chamber polynomial.

    Equals the Betti number b_{2d} of M(r) for nonempty chambers; it is
    read from the Walsh table the polynomial was built from.
    """
    n = vp.chamber.n
    if not 0 <= d <= n - 3:
        raise DegreeOutOfRange(f"degree {d} outside 0..{n - 3}")
    return _betti(vp.walsh, n, d, conv)


def betti_numbers(sig: ChamberSignature, conv: Convention) -> tuple[int, ...]:
    """(b₀, b₂, …, b_{2(n−3)}); odd-degree cohomology vanishes.

    The homogeneous convention is authoritative; both are read from W (see
    `_catalecticant`).  An affine convention presents the subalgebra
    generated by the difference classes xᵢ − x_j, which is the whole ring
    iff the degree-1 annihilator contains a form with nonzero coefficient
    sum; for chambers with no linear relation at all (b₂ = n) every affine
    presentation loses one degree-1 generator.
    """
    if sig.is_empty():
        raise EmptyChamber(f"no cohomology: {sig} has a long singleton")
    w, n = volume_polynomial(sig).walsh, sig.n
    return tuple(_betti(w, n, d, conv) for d in range(n - 2))


def _reduce_modulo(
    kernel: list[dict[Exponents, Fraction]],
    prev_kernel: list[dict[Exponents, Fraction]],
    nvars: int,
    column: Callable[[Exponents], object],
) -> list[int]:
    """Positions k of the basis vectors g_k of K_d that are new generators.

    g_k is new when it lies outside the span of xᵢ·K_{d−1} and g₀..g_{k−1}.
    All of these lie in K_d (Ann is an ideal), whose members are written in
    the coordinates of its canonical basis: their coefficients at the free
    columns, where g_k is the unit vector e_k.  e_k lies in
    span(xᵢ·K_{d−1}) + span(e₀..e_{k−1}) exactly when some vector of the
    first span has its last nonzero coordinate at k, so the new positions
    are those at which no row of an echelon form of the xᵢ·g ends, in
    whatever order the rows are taken.  `column` keys a degree-d monomial:
    itself, or its odd set on odd-set columns, where products on one key
    are summed.  Each g is scaled to integers once and its products are
    read off those integers.  A product whose last position is free enters
    as it is; the others are eliminated fraction-free with their content
    divided out, until the rank reaches dim K_d.
    """
    position = {column(next(reversed(g))): k for k, g in enumerate(kernel)}
    shifts: dict[Exponents, list[tuple[int, int]]] = {}  # x^e -> (i, position of xᵢ·x^e)
    echelon: dict[int, dict[int, int]] = {}  # last position -> row ending there
    deferred = []
    for g in prev_kernel:
        rows: list[dict[int, int]] = [{} for _ in range(nvars)]
        for e, c in zip(g, _scaled(list(g.values()))[0]):
            if e not in shifts:
                shifted = (position.get(column(e[:i] + (e[i] + 1,) + e[i + 1 :])) for i in range(nvars))
                shifts[e] = [(i, k) for i, k in enumerate(shifted) if k is not None]
            for i, k in shifts[e]:
                rows[i][k] = rows[i].get(k, 0) + c
        for row in rows:
            row = {k: c for k, c in row.items() if c}
            if row and echelon.setdefault(max(row), row) is not row:  # last position taken
                deferred.append(row)
    for row in deferred:
        if len(echelon) == len(kernel):
            return []
        while row:
            last = max(row)
            base = echelon.get(last)
            if base is None:
                echelon[last] = row
                break
            a, b = base[last], row[last]
            row = {
                k: v
                for k in row.keys() | base.keys()
                if (v := a * row.get(k, 0) - b * base.get(k, 0))
            }
            row = dict(zip(row, _primitive(list(row.values()))))
    return [k for k in range(len(kernel)) if k not in echelon]


def annihilator_generators(
    sig: ChamberSignature, conv: Convention
) -> tuple[tuple[int, tuple[MultiPoly, ...]], ...]:
    """Minimal generators of Ann(v) per degree d = 1..n−2.

    In each degree the kernel K_d is reduced modulo the span of xᵢ·K_{d−1}
    (products of lower-degree annihilators), keeping only new generators;
    see `presentation` for the odd-set columns and degree n−2.  Output is
    deterministic: kernels are canonical reduced echelon bases in graded-lex
    coordinates, and a kernel vector is kept when it extends the span of
    those products and of the kernel vectors before it.
    """
    return presentation(sig, conv).ann_generators


def is_zero_class(
    c: CohomologyClass, sig: ChamberSignature, conv: Convention
) -> bool:
    """True iff the class annihilates the chamber polynomial (is zero in H*).

    The class is lifted to the homogeneous ring (see `volume._fold`) and
    summed by odd set to q̃; Q(∂)v has coefficient s·Σ_S q̃_S·W(S △ T)/(2·D·γ!)
    at each x^γ with odd(γ) = T (see `volume._read_walsh`), so Q is zero
    exactly when these integer sums vanish for every T ∈ P(n, n−3−deg Q).
    """
    n = sig.n
    # every class above the top degree is zero; its variables are still checked
    fold = _lifted_fold(c.poly if c.degree <= n - 3 else MultiPoly.zero(c.nvars), conv, n)[0]
    if not fold:
        return True
    w = volume_polynomial(sig).walsh
    return not any(_read_walsh(w, fold, t) for t in _odd_sets(n, n - 3 - c.degree))


def poincare_pairing(
    a: CohomologyClass,
    b: CohomologyClass,
    sig: ChamberSignature,
    conv: Convention,
) -> Fraction:
    """⟨a·b, [M(r)]⟩ for complementary degrees (deg a + deg b = n−3).

    With a and b lifted and summed by odd set to ã/D_a and b̃/D_b (see
    `volume._read_walsh`), (a·b)(∂)v is s·Σ_{S,T} ã_S·b̃_T·W(S △ T)/(2·D_a·D_b).
    The zero class pairs to 0 with any class.
    """
    n, zero = sig.n, not (a.poly and b.poly)
    if not zero and a.degree + b.degree != n - 3:
        raise WrongTotalDegree(
            f"degrees {a.degree}+{b.degree} != n-3 = {n - 3}"
        )
    # the zero class is lifted as itself, for its variables to be checked
    (fa, da), (fb, db) = (_lifted_fold(MultiPoly.zero(x.nvars) if zero else x.poly, conv, n) for x in (a, b))
    w = volume_polynomial(sig).walsh
    total = sum(cb * _read_walsh(w, fa, t) for cb, t in fb)
    return Fraction((-1) ** n * total, 2 * da * db)


def pd_class(I: IndexSet, base: int) -> CohomologyClass:
    """Poincaré dual of the sub-polygon-space where the sides of I align.

    For |I| = p the class is (−1)^{p−1}·∏_{j∈I, j≠base}(x_j + x_base),
    of degree p−1; `base` is 1-based and must lie in I.  Expanded, it is
    (−1)^{p−1}·Σ_S x^S·x_base^{p−1−|S|} over the subsets S of I∖{base}:
    2^{p−1} distinct monomials, built directly.
    """
    if not I.contains(base):
        raise BaseNotInSet(f"base {base} not in {I}")
    others = [j - 1 for j in I.indices if j != base]
    sign = Fraction(-1 if I.p % 2 == 0 else 1)
    terms = {}
    for subset in range(1 << len(others)):
        e = [0] * I.n
        e[base - 1] = len(others) - subset.bit_count()
        for k, j in enumerate(others):
            e[j] = subset >> k & 1
        terms[tuple(e)] = sign
    return CohomologyClass(MultiPoly._from_terms(I.n, terms))


def normal_bundle_chern(I: IndexSet, base: int) -> CohomologyClass:
    """First Chern class of the normal bundle of that sub-polygon-space.

    −2·Σ_{j∈I, j≠base} x_j, degree 1; `base` is 1-based and must lie in I.
    """
    if not I.contains(base):
        raise BaseNotInSet(f"base {base} not in {I}")
    return CohomologyClass(MultiPoly.linear_form([-2 * (i != base and I.contains(i)) for i in range(1, I.n + 1)]))


def pd_bases_agree(
    I: IndexSet, sig: ChamberSignature, conv: Convention
) -> bool:
    """Whether pd_class(I, base) mod Ann is the same for every base in I.

    Reported rather than assumed; compares each base choice against the
    smallest element of I by testing the difference for membership in the
    annihilator.
    """
    ref = pd_class(I, I.indices[0]).poly
    diffs = (pd_class(I, base).poly - ref for base in I.indices[1:])
    return all(is_zero_class(CohomologyClass(diff), sig, conv) for diff in diffs if diff)


def presentation(sig: ChamberSignature, conv: Convention) -> ApolarPresentation:
    """Betti numbers together with minimal annihilator generators.

    Each degree's catalecticant is built once and gives both: its rank is
    the Betti number, and its kernel K_d the degree-d annihilator, in a
    canonical basis whose vectors each end at their free column with
    coefficient 1.  The ranks of degrees 0..n−3 are the Betti numbers.  In
    each degree d = 1..n−2 the kernel K_d is reduced modulo the span of
    xᵢ·K_{d−1} (K_0 is empty for a nonempty chamber).  Catalecticants are
    read from W, one row per odd set (see `_columns`).

    Homogeneous degrees d ≥ 3 keep one column per odd set, its first
    monomial.  Every ε_I has coefficients ±1, so J = (xᵢ² − xⱼ²) ⊆ Ann(v)
    and monomials with one odd set have equal columns.  A duplicate column
    is never a pivot, so the kept columns have the full matrix's kernel
    vectors, and a dropped one is ≡ a kept one or 0 modulo J_d ⊆ xᵢ·K_{d−1}
    (d ≥ 3): it is never new, and the kept ones reduce in ℚ[x]_d/J_d, whose
    basis is the odd sets.  J₂ ⊄ xᵢ·K₁, so d ≤ 2 keeps monomial columns.

    Degree n − 2 is skipped when homogeneous and b₂ ≥ 2, since then the
    xᵢ·K_s span ℚ[x]_{s+1}, s = n − 3 (Macaulay duality; Iarrobino–Kanev,
    LNM 1721): a functional vanishing on them is an F with ∂ᵢF = λᵢ·v, so
    λᵢ∂ⱼv = λⱼ∂ᵢv and either F = 0 or v = c·(Σλᵢxᵢ)^s, when b₂ =
    dim span{∂ᵢv} = 1.  The affine conventions keep that degree.
    """
    if sig.is_empty():
        raise EmptyChamber(f"no cohomology: {sig} has a long singleton")
    n, w, nvars, hom = sig.n, volume_polynomial(sig).walsh, conv.nvars(sig.n), conv.is_homogeneous
    ranks, generators, prev = [], [], []
    for d in range(n - 1):
        if d == n - 2 >= 2 and hom and ranks[1] >= 2:
            generators.append((d, ()))
            break
        if hom and d >= 3:
            domain, columns, key = _parity_columns(n, d)
        else:
            (domain, columns), key = _columns(n, d, conv), (lambda e: e)
        rank, kernel = sparse_kernel(_catalecticant(w, n, d, columns, conv), ncols=len(domain))
        ranks.append(rank)
        kernel = [{domain[col]: c for col, c in vec.items()} for vec in kernel]
        new = _reduce_modulo(kernel, prev, nvars, key)
        generators.append((d, tuple(MultiPoly._from_terms(nvars, kernel[k]) for k in new)))
        prev = kernel
    return ApolarPresentation(
        chamber=sig, convention=conv, betti=tuple(ranks[: n - 2]), ann_generators=tuple(generators[1:])
    )
