"""Cohomology of a polygon space through apolarity of its volume polynomial.

The rational cohomology ring of M(r) is ℚ[x₁..xₙ]/Ann(v): a polynomial Q in
the degree-2 generators is zero exactly when Q(∂₁..∂ₙ) kills the chamber's
volume polynomial v.  Everything here reduces to exact rank and kernel
computations on catalecticant matrices (degree-d monomials acting on v by
differentiation), so Betti numbers, annihilator generators, the Poincaré
pairing, and the distinguished submanifold classes all come out exact.

Degrees are polynomial degrees throughout: a degree-d class lives in
cohomological degree 2d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from polygonspace.chambers import ChamberSignature, IndexSet
from polygonspace.ratpoly import (
    Exponents,
    MultiPoly,
    _primitive,
    _scaled,
    matrix_rank,
    monomial_exponents,
    sparse_kernel,
)
from polygonspace.volume import (
    Convention,
    Presented,
    VolumePolynomial,
    WrongTotalDegree,
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


def _image_monomials(pres: Presented, d: int) -> list[Exponents]:
    """The monomials γ at which Q(∂)poly can be nonzero, for Q of degree d.

    A single graded piece when poly is homogeneous, every lower degree
    otherwise.
    """
    top = max(pres.poly.degree() - d, 0)
    degrees = [top] if pres.homogeneous and not pres.poly.is_zero else range(top + 1)
    return [gamma for k in degrees for gamma in monomial_exponents(pres.poly.nvars, k)]


def _apolarity_matrix(pres: Presented, d: int) -> tuple[list[Exponents], list[list[int]]]:
    """Integer matrix of Q ↦ Q(∂)poly restricted to degree-d monomials Q.

    Columns are the degree-d monomials α in graded-lex order, rows the
    monomials γ of the image space.  ∂^α poly has coefficient
    c_{α+γ}·(α+γ)!/γ! at x^γ; row γ is scaled by γ! and every row by the
    table's common denominator D, so the entry is the Hankel table's
    w_{α+γ} = D·c_{α+γ}·(α+γ)!.  Nonzero row scaling keeps the rank and the
    right kernel, which is the degree-d annihilator in graded-lex
    coordinates.
    """
    hankel = pres.hankel
    domain = monomial_exponents(pres.poly.nvars, d)
    mat = [
        [hankel.get(tuple(map(add, alpha, gamma)), 0) for alpha in domain]
        for gamma in _image_monomials(pres, d)
    ]
    return domain, mat


def catalecticant_rank(vp: VolumePolynomial, d: int, conv: Convention) -> int:
    """Rank of degree-d differentiation against the chamber polynomial.

    Equals the Betti number b_{2d} of M(r) for nonempty chambers.
    """
    n = vp.chamber.n
    if not 0 <= d <= n - 3:
        raise DegreeOutOfRange(f"degree {d} outside 0..{n - 3}")
    return _rank(vp.presented(conv), d)


def _rank(pres: Presented, d: int) -> int:
    if pres.poly.is_zero:
        return 0
    domain, mat = _apolarity_matrix(pres, d)
    return matrix_rank(mat, ncols=len(domain))


def betti_numbers(sig: ChamberSignature, conv: Convention) -> tuple[int, ...]:
    """(b₀, b₂, …, b_{2(n−3)}); odd-degree cohomology vanishes.

    The homogeneous convention is authoritative.  An affine convention
    presents the subalgebra generated by the difference classes xᵢ − x_j,
    which is the whole ring iff the degree-1 annihilator contains a form
    with nonzero coefficient sum; for chambers with no linear relation at
    all (b₂ = n) every affine presentation loses one degree-1 generator.
    """
    if sig.is_empty():
        raise EmptyChamber(f"no cohomology: {sig} has a long singleton")
    pres = volume_polynomial(sig).presented(conv)
    return tuple(_rank(pres, d) for d in range(sig.n - 2))


def _reduce_modulo(
    kernel: list[dict[Exponents, Fraction]],
    prev_kernel: list[dict[Exponents, Fraction]],
    nvars: int,
) -> list[int]:
    """Positions k of the basis vectors g_k of K_d that are new generators.

    g_k is new when it lies outside the span of xᵢ·K_{d−1} and g₀..g_{k−1}.
    All of these lie in K_d (Ann is an ideal), whose members are written in
    the coordinates of its canonical basis: their coefficients at the free
    monomials, where g_k is the unit vector e_k.  e_k lies in
    span(xᵢ·K_{d−1}) + span(e₀..e_{k−1}) exactly when some vector of the
    first span has its last nonzero coordinate at k, so the new positions
    are those at which no row of an echelon form of the xᵢ·g ends, in
    whatever order the rows are taken.  Each g is scaled to integers once
    and its products are read off those integers.  A product whose last
    position is free enters as it is; the others are eliminated
    fraction-free with their content divided out, until the rank reaches
    dim K_d.
    """
    position = {next(reversed(g)): k for k, g in enumerate(kernel)}
    shifts: dict[Exponents, list[tuple[int, int]]] = {}  # x^e -> (i, position of xᵢ·x^e)
    echelon: dict[int, dict[int, int]] = {}  # last position -> row ending there
    deferred = []
    for g in prev_kernel:
        rows: list[dict[int, int]] = [{} for _ in range(nvars)]
        for e, c in zip(g, _scaled(list(g.values()))[0]):
            if e not in shifts:
                shifted = (position.get(e[:i] + (e[i] + 1,) + e[i + 1 :]) for i in range(nvars))
                shifts[e] = [(i, k) for i, k in enumerate(shifted) if k is not None]
            for i, k in shifts[e]:
                rows[i][k] = c
        for row in filter(None, rows):
            if echelon.setdefault(max(row), row) is not row:  # last position taken
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

    In each degree the full kernel K_d is reduced modulo the span of
    xᵢ·K_{d−1} (products of lower-degree annihilators), keeping only new
    generators; in degree n−2 every monomial annihilates, so the reduction
    is against the whole of x·K_{n−3}.  Output is deterministic: kernels are
    canonical reduced echelon bases in graded-lex coordinates, and a kernel
    vector is kept when it extends the span of those products and of the
    kernel vectors before it.
    """
    return presentation(sig, conv).ann_generators


def is_zero_class(
    c: CohomologyClass, sig: ChamberSignature, conv: Convention
) -> bool:
    """True iff the class annihilates the chamber polynomial (is zero in H*).

    Q(∂)v has coefficient Σ_α q_α·w_{α+γ}/(D·γ!) at x^γ (see `Presented`),
    so Q is zero exactly when each of these integer sums vanishes.
    """
    pres = volume_polynomial(sig).presented(conv)
    if c.nvars != pres.poly.nvars:
        raise ValueError(
            f"class has {c.nvars} variables, convention expects {pres.poly.nvars}"
        )
    if c.poly.is_zero or c.degree > pres.poly.degree():
        return True
    hankel = pres.hankel
    alphas, coeffs = zip(*c.poly.terms())
    q = _scaled(coeffs)[0]
    return not any(
        sum(qa * hankel.get(tuple(map(add, alpha, gamma)), 0) for alpha, qa in zip(alphas, q))
        for gamma in _image_monomials(pres, c.degree)
    )


def poincare_pairing(
    a: CohomologyClass,
    b: CohomologyClass,
    sig: ChamberSignature,
    conv: Convention,
) -> Fraction:
    """⟨a·b, [M(r)]⟩ for complementary degrees (deg a + deg b = n−3).

    The top derivative (a·b)(∂)v is the constant Σ_{α,β} a_α·b_β·w_{α+β}/D.
    """
    if a.degree + b.degree != sig.n - 3:
        raise WrongTotalDegree(
            f"degrees {a.degree}+{b.degree} != n-3 = {sig.n - 3}"
        )
    pres = volume_polynomial(sig).presented(conv)
    if a.nvars != pres.poly.nvars or b.nvars != pres.poly.nvars:
        raise ValueError("class variable count does not match the convention")
    hankel = pres.hankel
    (ia, da), (ib, db) = (_scaled([c for _, c in x.poly.terms()]) for x in (a, b))
    total = sum(
        ca * cb * hankel.get(tuple(map(add, alpha, beta)), 0)
        for (alpha, _), ca in zip(a.poly.terms(), ia)
        for (beta, _), cb in zip(b.poly.terms(), ib)
    )
    return Fraction(total, pres.scale * da * db)


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
    n = I.n
    out = MultiPoly.zero(n)
    for j in I.indices:
        if j != base:
            out = out - 2 * MultiPoly.variable(n, j - 1)
    return CohomologyClass(out)


def pd_bases_agree(
    I: IndexSet, sig: ChamberSignature, conv: Convention
) -> bool:
    """Whether pd_class(I, base) mod Ann is the same for every base in I.

    Reported rather than assumed; compares each base choice against the
    smallest element of I by testing the difference for membership in the
    annihilator.
    """
    indices = I.indices
    ref = pd_class(I, indices[0])
    for base in indices[1:]:
        diff = pd_class(I, base).poly - ref.poly
        if diff.is_zero:
            continue
        if not is_zero_class(CohomologyClass(diff), sig, conv):
            return False
    return True


def presentation(sig: ChamberSignature, conv: Convention) -> ApolarPresentation:
    """Betti numbers together with minimal annihilator generators.

    Each degree's catalecticant is built once and gives both: its rank is
    the Betti number, and its kernel K_d the degree-d annihilator, in a
    canonical basis whose vectors each end at their free monomial with
    coefficient 1.  The ranks of degrees 0..n−3 are the Betti numbers.  In
    each degree d = 1..n−2 the kernel K_d is reduced modulo the span of
    xᵢ·K_{d−1} (K_0 is empty for a nonempty chamber).
    """
    if sig.is_empty():
        raise EmptyChamber(f"no cohomology: {sig} has a long singleton")
    pres = volume_polynomial(sig).presented(conv)
    nvars = pres.poly.nvars
    ranks, kernels = [], []
    for d in range(sig.n - 1):
        domain, mat = _apolarity_matrix(pres, d)
        rank, kernel = sparse_kernel(mat, ncols=len(domain))
        ranks.append(rank)
        kernels.append([{domain[col]: c for col, c in vec.items()} for vec in kernel])
    generators = tuple(
        (d, tuple(
            MultiPoly._from_terms(nvars, kernels[d][k])
            for k in _reduce_modulo(kernels[d], kernels[d - 1], nvars)
        ))
        for d in range(1, sig.n - 1)
    )
    return ApolarPresentation(
        chamber=sig, convention=conv, betti=tuple(ranks[:-1]), ann_generators=generators
    )
