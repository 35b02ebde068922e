"""Volume polynomials of polygon spaces, one per chamber.

For a generic length vector r the moduli space of closed n-gons with those
side lengths carries a symplectic volume that is polynomial in r on each
chamber.  This module builds that polynomial exactly from the chamber
signature, evaluates it, differentiates it (the constants of top-order
derivatives are intersection numbers of the first Chern classes), and
computes the jump between the polynomials of two adjacent chambers.

All volumes are reported without the transcendental prefactor: the true
symplectic volume is (2π)^(n−3) times the rational value computed here.
Every polynomial is stored in the homogeneous convention (all n variables);
an affine convention is a change of variables on classes (`_fold`), and
derivatives in every convention are read from the chamber's Walsh table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from polygonspace.chambers import ChamberSignature, IndexSet, _members, _proper
from polygonspace.ratpoly import Exponents, MultiIndex, MultiPoly, _scaled, monomial_exponents

SCALE_NOTE = "(2pi)^(n-3)"


class AffineIndexUsed(ValueError):
    """A multi-index touches the variable eliminated by an affine convention."""


class WrongTotalDegree(ValueError):
    """A multi-index or class has the wrong total degree for the operation."""


class NotAdjacent(ValueError):
    """Two signatures do not differ in exactly one complementary pair."""


@dataclass(frozen=True)
class Convention:
    """Presentation convention for chamber polynomials.

    The homogeneous convention keeps all n length variables.  AFFINE(j)
    restricts to the unit-perimeter slice by substituting
    r_j = 1 − Σ_{i≠j} r_i and dropping variable j, so its polynomials live
    in the n−1 variables r_i, i ≠ j, in increasing order.
    """

    affine_index: int | None = None

    def __post_init__(self) -> None:
        j = self.affine_index
        if j is not None and j < 1:
            raise ValueError(f"affine index must be 1-based, got {j}")

    @classmethod
    def homogeneous(cls) -> Convention:
        return cls(None)

    @classmethod
    def affine(cls, j: int) -> Convention:
        return cls(j)

    @classmethod
    def parse(cls, text: str) -> Convention:
        """Accepts "homogeneous" or "affine:j" (j a 1-based variable index)."""
        if text == "homogeneous":
            return cls(None)
        if text.startswith("affine:"):
            try:
                j = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"convention {text!r}: expected affine:J with J an integer") from None
            return cls(j)
        raise ValueError(f"unknown convention {text!r}")

    @property
    def is_homogeneous(self) -> bool:
        return self.affine_index is None

    def __str__(self) -> str:
        if self.affine_index is None:
            return "homogeneous"
        return f"affine:{self.affine_index}"

    def nvars(self, n: int) -> int:
        """The number of variables of this convention for n sides."""
        j = self.affine_index
        if j is None:
            return n
        if j > n:
            raise ValueError(f"affine index {j} exceeds n = {n}")
        return n - 1

    def reduce_multiindex(self, alpha: MultiIndex, n: int) -> MultiIndex:
        """Drop the eliminated position from alpha; reject if it is used."""
        if len(alpha) != n:
            raise ValueError(f"multi-index has length {len(alpha)}, expected {n}")
        j = self.affine_index
        if j is None:
            return alpha
        self.nvars(n)  # rejects an index above n
        if alpha.exponents[j - 1] != 0:
            raise AffineIndexUsed(
                f"derivative in r_{j} is not available under {self}"
            )
        return MultiIndex(alpha.exponents[: j - 1] + alpha.exponents[j:])


@lru_cache(maxsize=None)
def _monomials(n: int, d: int) -> tuple[tuple[Exponents, ...], tuple[int, ...]]:
    """The degree-d monomials in n variables, graded-lex, and their odd sets
    (the masks of their odd exponents)."""
    domain = tuple(monomial_exponents(n, d))
    return domain, tuple(sum(1 << i for i, k in enumerate(e) if k % 2) for e in domain)


def _walsh(sig: ChamberSignature) -> list[int]:
    """W(m) = Σ_I σ_I (−1)^{|m∩I|}, the Walsh–Hadamard transform of the signed
    indicator I ↦ σ_I of the long sets and the full set (see `VolumePolynomial.v`)."""
    n = sig.n
    size = 1 << n
    w = [0] * size
    w[size - 1] = 1  # full set
    for m in _members(_proper(n) & ~sig.shorts):  # the long sets
        w[m] = -1 if (n - m.bit_count()) % 2 else 1
    half = 1
    while half < size:
        for start in range(0, size, 2 * half):
            for j in range(start, start + half):
                a, b = w[j], w[j + half]
                w[j], w[j + half] = a + b, a - b
        half *= 2
    return w


@dataclass(frozen=True)
class VolumePolynomial:
    """The chamber's volume polynomial, homogeneous of degree n−3 in r₁..rₙ.

    The record is the chamber and its Walsh table W (`_walsh`), which every
    class, pairing and catalecticant is read from; the expanded v is built
    from W on first read.  The true volume is (2π)^(n−3) times v (`SCALE_NOTE`).
    """

    chamber: ChamberSignature
    walsh: list[int] = field(repr=False, compare=False)

    @cached_property
    def v(self) -> MultiPoly:
        """The signed sum of ε_I^{n−3} over long sets, full set included.

        v = −1/(2(n−3)!) · Σ_I σ_I ε_I^{n−3} over the long sets I and the full
        set, with σ_I = (−1)^{n−|I|}; ε_I is the linear form
        Σ_{i∈I} rᵢ − Σ_{i∉I} rᵢ, and the full set contributes ε = perimeter
        with sign +1.  Expanding each power, the coefficient of r^e is
        −S(m)/(2·∏eᵢ!), where m is the mask of the odd exponents of e and
        S(m) = Σ_I σ_I (−1)^{|m∖I|}.  Since |m| ≡ n−3 (mod 2),
        S(m) = (−1)^{n−3}·W(m), with W the Walsh–Hadamard transform of the
        signed indicator I ↦ σ_I: O(n·2ⁿ) integer work and one pass over the
        monomials.  Empty chambers cancel to the zero polynomial.
        """
        n, w = self.chamber.n, self.walsh
        deg = n - 3
        sign = 1 if deg % 2 else -1  # −(−1)^{n−3}
        factorials = [math.factorial(k) for k in range(deg + 1)]
        terms = {}
        for e, odd in zip(*_monomials(n, deg)):
            total = w[odd]
            if total:
                terms[e] = Fraction(sign * total, 2 * math.prod(factorials[k] for k in e))
        return MultiPoly._from_terms(n, terms)

    @cached_property
    def integer_table(self) -> list[int] | None:
        """w_e = 2·e!·c_e over the coefficients c_e of the expanded v, in
        `_monomials(n, n−3)` order, each by exact division: None if one leaves
        a remainder or v has a term outside that domain (the wall-jump check)."""
        n, terms, table = self.chamber.n, dict(self.v.terms()), []
        for e in _monomials(n, n - 3)[0]:
            c = terms.pop(e, 0)
            w, rest = divmod(2 * math.prod(map(math.factorial, e)) * c.numerator, c.denominator)
            if rest:
                return None
            table.append(w)
        return None if terms else table


# A rebuild is one `_walsh`, 0.1 ms at n = 7 and 5 ms at n = 12 (2-core x86, Python
# 3.11): a bounded cache loses little and keeps a long run from holding every table.
VOLUME_CACHE_SIZE = 256


@lru_cache(maxsize=VOLUME_CACHE_SIZE)
def volume_polynomial(sig: ChamberSignature) -> VolumePolynomial:
    """The chamber's record: its signature and Walsh table, v unexpanded."""
    return VolumePolynomial(sig, _walsh(sig))


Fold = tuple[tuple[int, int], ...]


def _fold(beta: Exponents, j: int | None) -> Fold:
    """The lift of y^β to the homogeneous ring, summed by odd set, as
    (coefficient, odd set) pairs: ((1, odd(β)),) when homogeneous (j None).

    Under AFFINE(j), β has the n − 1 exponents of the variables i ≠ j.
    ∂/∂yᵢ of v restricted to the slice is (∂ᵢ − ∂ⱼ)v restricted, so
    Q(∂)v_aff is L(Q)(∂)v restricted, where L substitutes xᵢ − xⱼ for yᵢ.
    L is a ring map, and restriction to Σr = 1 is injective on homogeneous
    polynomials, so Q is zero in the affine ring iff L(Q) is zero in the
    homogeneous one.  L(y^β) = ∏_{i∈B}(xᵢ − xⱼ)^{bᵢ}, B the support of β.
    Taking kᵢ of the bᵢ factors from −xⱼ gives a monomial whose odd set
    depends on the parities ρᵢ of the kᵢ only, and
    Σ_{k≡ρ (2)} C(b,k)(−1)^k = (−1)^ρ·2^{b−1} for b ≥ 1, so the lift sums to
    2^{|β|−|B|}·Σ_{F⊆B} (−1)^{|F|} at odd(β) △ F △ ({j} if |F| is odd).
    """
    if j is None:
        return ((1, sum(1 << i for i, b in enumerate(beta) if b % 2)),)
    beta = beta[: j - 1] + (0,) + beta[j - 1 :]
    fold = [(1 << sum(beta) - sum(map(bool, beta)), sum(1 << i for i, b in enumerate(beta) if b % 2))]
    for i in (i for i, b in enumerate(beta) if b):
        fold += [(-c, s ^ (1 << i | 1 << j - 1)) for c, s in fold]
    return tuple(fold)


@lru_cache(maxsize=16)  # the n − 1 degrees of one convention; at n = 10 they hold 54 MB
def _columns(n: int, d: int, conv: Convention) -> tuple[tuple[Exponents, ...], Sequence[int] | tuple[Fold, ...]]:
    """The degree-d monomials in the convention's variables, graded-lex, and
    their odd sets when homogeneous, or each one's `_fold` under AFFINE(j)."""
    domain, odd = _monomials(conv.nvars(n), d)
    if conv.is_homogeneous:
        return domain, odd
    return domain, tuple(_fold(beta, conv.affine_index) for beta in domain)


def _lifted_fold(poly: MultiPoly, conv: Convention, n: int) -> tuple[Fold, int]:
    """(q̃, D): the class's coefficients scaled to integers by their least
    common denominator D, lifted and summed by odd set (see `_fold`)."""
    if poly.nvars != (expected := conv.nvars(n)):
        raise ValueError(f"wrong variable count: class has {poly.nvars} variables, "
                         f"convention expects {expected}")
    terms, sums = poly.terms(), {}
    scaled, scale = _scaled([c for _, c in terms])
    for (e, _), c in zip(terms, scaled):
        for f, s in _fold(e, conv.affine_index):
            sums[s] = sums.get(s, 0) + c * f
    return tuple((c, s) for s, c in sums.items()), scale


def _read_walsh(w: list[int], fold: Fold, t: int = 0) -> int:
    """Σ_S q̃_S·W(S △ T) over the fold's pairs (q̃_S, S): by `VolumePolynomial.v`'s
    coefficient formula, and ∂^α x^e = e!/(e−α)!·x^{e−α}, Q(∂)v has
    coefficient s·Σ/(2·D·γ!) at any x^γ with odd(γ) = T, s = (−1)ⁿ."""
    return sum(c * w[s ^ t] for c, s in fold)


def presented_volume(vp: VolumePolynomial, conv: Convention) -> MultiPoly:
    """The chamber polynomial in the convention's variables.

    Under AFFINE(j), the coefficient of y^β in v_aff is ∂_y^β v_aff(0)/β!,
    and ∂_y^β v_aff(0) = (L(y^β)(∂)v)(e_j) (see `_fold`), k! times the
    coefficient of x_j^k, k = n−3−|β|.  So it is
    s·Σ_{(c,S)} c·W(S △ T_k)/(2·β!·k!) over the fold of y^β (see `_fold`),
    T_k = {j} if k is odd and ∅ otherwise.
    """
    n, j = vp.chamber.n, conv.affine_index
    if j is None:
        return vp.v
    w, sign, terms = vp.walsh, (-1) ** n, {}
    for d in range(n - 2):
        k = n - 3 - d
        t, kfact = (1 << j - 1) * (k % 2), math.factorial(k)
        for beta, fold in zip(*_columns(n, d, conv)):
            if total := _read_walsh(w, fold, t):
                terms[beta] = Fraction(sign * total, 2 * kfact * math.prod(map(math.factorial, beta)))
    return MultiPoly._from_terms(n - 1, terms)


def intersection_number(
    sig: ChamberSignature, alpha: MultiIndex, conv: Convention
) -> Fraction:
    """∫ c₁^{α₁}⋯cₙ^{αₙ} over M(r) for r in the chamber, |α| = n−3.

    The top-order derivative of the volume polynomial is a constant; its
    value is the intersection number in the chosen convention.  With x^α
    lifted and summed by odd set to q̃ (see `_fold`), it is s·Σ_S q̃_S·W(S)/2,
    s = (−1)ⁿ, read from the Walsh table (see `_read_walsh`).
    """
    n = sig.n
    if alpha.total != n - 3:
        raise WrongTotalDegree(
            f"|alpha| = {alpha.total}, expected n-3 = {n - 3}"
        )
    fold = _fold(conv.reduce_multiindex(alpha, n).exponents, conv.affine_index)
    return Fraction((-1) ** n * _read_walsh(volume_polynomial(sig).walsh, fold), 2)


def wall_jump(
    sig0: ChamberSignature, sig1: ChamberSignature
) -> tuple[IndexSet, MultiPoly]:
    """(I_p, v₁ − v₀) for adjacent chambers; I_p is long in sig0, short in sig1.

    The difference is computed from the two expanded polynomials, not from
    a closed form, so it can serve as one side of an identity check.
    """
    flipped = sig0.adjacent_pair_with(sig1)
    if flipped is None:
        raise NotAdjacent(
            "signatures must differ in exactly one complementary pair"
        )
    jump = volume_polynomial(sig1).v - volume_polynomial(sig0).v
    return flipped, jump
