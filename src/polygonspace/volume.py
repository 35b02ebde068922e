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
another convention is applied on first use and kept with the polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from polygonspace.chambers import ChamberSignature, IndexSet, LengthVector, _members, _proper, signature
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

    def _check_n(self, n: int) -> None:
        j = self.affine_index
        if j is not None and j > n:
            raise ValueError(f"affine index {j} exceeds n = {n}")

    def apply(self, poly: MultiPoly) -> MultiPoly:
        """Present a homogeneous n-variable polynomial in this convention."""
        j = self.affine_index
        if j is None:
            return poly
        self._check_n(poly.nvars)
        replacement = 1 - MultiPoly.linear_form([1] * (poly.nvars - 1))
        return poly.eliminate_variable(j - 1, replacement)

    def reduce_multiindex(self, alpha: MultiIndex, n: int) -> MultiIndex:
        """Drop the eliminated position from alpha; reject if it is used."""
        if len(alpha) != n:
            raise ValueError(f"multi-index has length {len(alpha)}, expected {n}")
        j = self.affine_index
        if j is None:
            return alpha
        self._check_n(n)
        if alpha.exponents[j - 1] != 0:
            raise AffineIndexUsed(
                f"derivative in r_{j} is not available under {self}"
            )
        return MultiIndex(alpha.exponents[: j - 1] + alpha.exponents[j:])


class Presented:
    """A chamber polynomial in one convention, with its integer Hankel table.

    ``hankel`` maps each exponent e of ``poly`` to w_e = D·c_e·e!, where c_e
    is the coefficient and D = ``scale`` the least common denominator of the
    c_e·e!.  Since ∂^α x^e = e!/(e−α)!·x^{e−α}, the coefficient of x^γ in
    Q(∂)poly is Σ_α q_α·w_{α+γ}/(D·γ!), so membership tests, pairings and
    catalecticants read this table instead of differentiating.
    """

    def __init__(self, poly: MultiPoly) -> None:
        table, self.scale = _scaled([c * math.prod(map(math.factorial, e)) for e, c in poly.terms()])
        self.poly = poly
        self.hankel = {e: w for (e, _), w in zip(poly.terms(), table)}
        self.homogeneous = poly.is_homogeneous()


@dataclass(frozen=True)
class VolumePolynomial:
    """The chamber's volume polynomial, homogeneous of degree n−3 in r₁..rₙ.

    The true volume is (2π)^(n−3) times v; identically zero on empty
    chambers.  Its presentation in each convention is built on first use
    and kept here, so it lives exactly as long as the cached polynomial.
    """

    chamber: ChamberSignature
    v: MultiPoly
    scale_note: str = SCALE_NOTE
    _presented: dict[Convention, Presented] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def presented(self, conv: Convention) -> Presented:
        """v in the given convention, with its Hankel table (built once)."""
        out = self._presented.get(conv)
        if out is None:
            out = self._presented[conv] = Presented(conv.apply(self.v))
        return out


@lru_cache(maxsize=None)
def _monomials(n: int, d: int) -> tuple[tuple[Exponents, ...], tuple[int, ...]]:
    """The degree-d monomials in n variables, graded-lex, and their odd sets
    (the masks of their odd exponents)."""
    domain = tuple(monomial_exponents(n, d))
    return domain, tuple(sum(1 << i for i, k in enumerate(e) if k % 2) for e in domain)


def _walsh(sig: ChamberSignature) -> list[int]:
    """W(m) = Σ_I σ_I (−1)^{|m∩I|}, the Walsh–Hadamard transform of the signed
    indicator I ↦ σ_I of the long sets and the full set (see volume_polynomial)."""
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


# A rebuild takes 0.2-0.4 ms at n = 7 and 1-7 ms at n = 9 once the first
# build has made the monomial table (five random chambers each, 2-core x86,
# Python 3.11), so a bounded cache loses little and keeps a long run from
# holding the polynomial of every chamber it has met.
VOLUME_CACHE_SIZE = 256


@lru_cache(maxsize=VOLUME_CACHE_SIZE)
def volume_polynomial(sig: ChamberSignature) -> VolumePolynomial:
    """The signed sum of ε_I^{n−3} over long sets, full set included.

    v = −1/(2(n−3)!) · Σ_I σ_I ε_I^{n−3} over the long sets I and the full
    set, with σ_I = (−1)^{n−|I|}; ε_I is the linear form
    Σ_{i∈I} rᵢ − Σ_{i∉I} rᵢ, and the full set contributes ε = perimeter with
    sign +1.  Expanding each power, the coefficient of r^e is
    −S(m)/(2·∏eᵢ!), where m is the mask of the odd exponents of e and
    S(m) = Σ_I σ_I (−1)^{|m∖I|}.  Since |m| ≡ n−3 (mod 2),
    S(m) = (−1)^{n−3}·W(m), with W the Walsh–Hadamard transform of the
    signed indicator I ↦ σ_I: O(n·2ⁿ) integer work and one pass over the
    monomials.  Empty chambers cancel to the zero polynomial.
    """
    n = sig.n
    deg = n - 3
    w = _walsh(sig)
    sign = 1 if deg % 2 else -1  # −(−1)^{n−3}
    factorials = [math.factorial(k) for k in range(deg + 1)]
    terms = {}
    for e, odd in zip(*_monomials(n, deg)):
        total = w[odd]
        if total:
            terms[e] = Fraction(sign * total, 2 * math.prod(factorials[k] for k in e))
    return VolumePolynomial(sig, MultiPoly._from_terms(n, terms))


def volume_value(r: LengthVector) -> Fraction:
    """vol(M(r)) / (2π)^{n−3} at a generic r; zero iff the space is empty."""
    return volume_polynomial(signature(r)).v.evaluate(tuple(r))


def derivative_polynomial(
    vp: VolumePolynomial, alpha: MultiIndex, conv: Convention
) -> MultiPoly:
    """∂^α of the chamber polynomial presented in the given convention."""
    reduced = conv.reduce_multiindex(alpha, vp.chamber.n)
    return vp.presented(conv).poly.differentiate(reduced)


def intersection_number(
    sig: ChamberSignature, alpha: MultiIndex, conv: Convention
) -> Fraction:
    """∫ c₁^{α₁}⋯cₙ^{αₙ} over M(r) for r in the chamber, |α| = n−3.

    The top-order derivative of the volume polynomial is a constant; its
    value is the intersection number in the chosen convention.
    """
    if alpha.total != sig.n - 3:
        raise WrongTotalDegree(
            f"|alpha| = {alpha.total}, expected n-3 = {sig.n - 3}"
        )
    return derivative_polynomial(volume_polynomial(sig), alpha, conv).constant_value()


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
