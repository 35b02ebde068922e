"""Wall-crossing analysis: how a polygon space changes across a chamber wall.

Crossing the wall of a long set I_p (|I_p| = p, complement size q = n − p)
replaces the sub-polygon-space M_{I_pᶜ} ≅ CP^{p−2} by M_{I_p} ≅ CP^{q−2};
cohomology gains one generator in each even degree 2d with p−1 ≤ d ≤ q−2
(and loses them in the mirrored range when p > q).  This module produces
per-crossing reports with the distinguished classes of the newly born
submanifold, computes Betti numbers from an external chamber as the sum of
the deltas of the walls that separate it from r (the walls a generic
straight segment between the two crosses, each once), and cross-validates
that route against the apolarity route.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import sub

from polygonspace.apolar import (
    CohomologyClass,
    EmptyChamber,
    catalecticant_rank,
    is_zero_class,
    normal_bundle_chern,
    pd_class,
)
from polygonspace.chambers import (
    ChamberSignature,
    IndexSet,
    LengthVector,
    Wall,
    _N_LIMIT,
    _members,
    _proper,
    _selectors,
    signature,
)
from polygonspace.volume import Convention, NotAdjacent, _monomials, volume_polynomial


class BadPartition(ValueError):
    """p + q must equal n with both parts at least 1."""


def betti_delta(p: int, q: int, n: int) -> tuple[int, ...]:
    """Betti-number change across a wall with |I_p| = p, indexed by d = k/2.

    +1 in each even cohomological degree k ∈ [2p−2, 2q−4] when q ≥ p, −1 in
    k ∈ [2q−2, 2p−4] when p ≥ q; the two ranges are empty for p = q.  The
    vector has one entry per even degree 0, 2, …, 2(n−3).
    """
    if p < 1 or q < 1 or p + q != n:
        raise BadPartition(f"need p + q = n with p, q >= 1, got p={p} q={q} n={n}")
    delta = [0] * (n - 2)
    if q > p:
        for d in range(p - 1, q - 1):
            delta[d] = 1
    elif p > q:
        for d in range(q - 1, p - 1):
            delta[d] = -1
    return tuple(delta)


@dataclass(frozen=True)
class DecompositionClass:
    """One summand pd·(normal chern)^power, tagged with its vanishing status
    in the chamber after the crossing."""

    power: int
    cls: CohomologyClass
    is_zero: bool


@dataclass(frozen=True)
class WallCrossingReport:
    """Everything that changes when one wall is crossed, long side first."""

    wall: Wall
    dies: str
    born: str
    betti_delta: tuple[int, ...]
    pd_born: CohomologyClass | None
    normal_chern: CohomologyClass | None
    decomposition_classes: tuple[DecompositionClass, ...]

    @property
    def p(self) -> int:
        return self.wall.p

    @property
    def q(self) -> int:
        return self.wall.q


def _projective_space(dim: int) -> str:
    return "CP^%d" % dim if dim >= 0 else "empty"


def crossing_report(
    sig0: ChamberSignature, sig1: ChamberSignature
) -> WallCrossingReport:
    """Report for the single crossing sig0 → sig1 (one pair flips).

    The distinguished classes live in the after-chamber sig1: the Poincaré
    dual of the born submanifold M_{I_p}, the first Chern class of its
    normal bundle, and the products pd·chern^a for a = 0..q−p, each tagged
    by is_zero_class in sig1.  For p = 1 the dual-class formula degenerates
    (empty product), so those fields are omitted.
    """
    flipped = sig0.adjacent_pair_with(sig1)
    if flipped is None:
        raise NotAdjacent("signatures must differ in exactly one complementary pair")
    n = sig0.n
    p, q = flipped.p, flipped.q
    delta = betti_delta(p, q, n)
    dies = (
        f"M_{flipped.complement} = {_projective_space(p - 2)}"
        " (present before, absent after)"
    )
    born = (
        f"M_{flipped} = {_projective_space(q - 2)}"
        " (absent before, present after)"
    )
    pd_born: CohomologyClass | None = None
    chern: CohomologyClass | None = None
    decomposition: tuple[DecompositionClass, ...] = ()
    if p >= 2:
        base = flipped.indices[0]
        pd_born = pd_class(flipped, base)
        chern = normal_bundle_chern(flipped, base)
        hom = Convention.homogeneous()
        classes = []
        for a in range(q - p + 1):
            product = CohomologyClass(pd_born.poly * chern.poly**a)
            classes.append(
                DecompositionClass(a, product, is_zero_class(product, sig1, hom))
            )
        decomposition = tuple(classes)
    return WallCrossingReport(
        wall=Wall(flipped),
        dies=dies,
        born=born,
        betti_delta=delta,
        pd_born=pd_born,
        normal_chern=chern,
        decomposition_classes=decomposition,
    )


def _anchor_shorts(n: int, j: int) -> int:
    """The short sets of external_representative(n, j + 1) in closed form: {j}
    and every proper nonempty set without j but the complement of {j}."""
    return _proper(n) & ~_selectors(n)[j] & ~(1 << ((1 << n) - 1 ^ 1 << j)) | 1 << (1 << j)


def _path_betti(sig: ChamberSignature, j: int = 0) -> tuple[int, ...]:
    """(1, …, 1) plus the Betti delta of every set short in sig and long at the
    external anchor of side j + 1 (0-based j), with p its size."""
    n = sig.n
    sizes = Counter(m.bit_count() for m in _members(sig.shorts & ~_anchor_shorts(n, j)))
    return tuple(1 + sum(count * betti_delta(p, n - p, n)[d] for p, count in sizes.items()) for d in range(n - 2))


def betti_via_path(r: LengthVector, anchor_index: int | None = None) -> tuple[int, ...]:
    """Betti numbers of M(r) by wall-crossing from an external chamber.

    Starts at the all-ones vector of CP^{n−3} on an external anchor (largest
    side just below half the perimeter by default) and adds the Betti delta
    of every wall that separates the anchor from r: one per set J long at
    the anchor and short at r, with p = |J|.  This equals walking the
    straight segment from the anchor to r, since ε_J is affine along it, so
    a generic segment crosses exactly these walls, each once and long side
    first, and a delta depends only on p.  This route never touches the
    volume polynomial, so it can cross-validate the apolarity computation.
    """
    sig = signature(r)
    if sig.is_empty():
        raise EmptyChamber(f"polygon space is empty for r = {r}")
    if anchor_index is None:
        anchor_index = r.lengths.index(max(r.lengths)) + 1
    if not 1 <= anchor_index <= r.n:
        raise ValueError(f"index {anchor_index} out of range 1..{r.n}")
    return _path_betti(sig, anchor_index - 1)


@lru_cache(maxsize=1 << _N_LIMIT)  # one entry per exit set: the 2^n − 2 of a whole walk at n <= _N_LIMIT
def _expected_table(n: int, exit_mask: int) -> list[int]:
    """Twice the table e!·c_e (all integers) of (−1)^q/(n−3)!·ε^(n−3), ε the form of
    the exit set, in `_monomials(n, n−3)` order: x^e has coefficient
    (−1)^q·∏ sᵢ^eᵢ/∏ eᵢ!, sᵢ = ±1 the sign of xᵢ in ε (−1 off the exit set), so
    e!·c_e = (−1)^(q + Σ_{i∉I} eᵢ), whose parity is that of the odd exponents off I."""
    minus, q = ~exit_mask, n - exit_mask.bit_count()
    return [2 * (-1) ** (q + (odd & minus).bit_count()) for odd in _monomials(n, n - 3)[1]]


def _jump_agrees(w0: list[int] | None, sig1: ChamberSignature, exit_mask: int) -> bool:
    """v₁ − v₀ is the closed form of exit_mask: w¹ − w⁰ = 2·wˣ on the integer
    tables of the expanded polynomials (`VolumePolynomial.integer_table`), w0 that of v₀."""
    w1 = volume_polynomial(sig1).integer_table
    return w0 is not None and w1 is not None and list(map(sub, w1, w0)) == _expected_table(sig1.n, exit_mask)


@dataclass(frozen=True)
class ChamberValidation:
    """Cross-validation outcome for one chamber; passed is the conjunction."""

    signature: ChamberSignature
    betti_apolar: tuple[int, ...]
    betti_path: tuple[int, ...]
    betti_agree: bool
    jump_checks: tuple[tuple[IndexSet, bool], ...]
    passed: bool


def validate_chamber(sig: ChamberSignature) -> ChamberValidation:
    """Pit the two Betti routes against each other and check every wall jump.

    The apolarity route (catalecticant ranks of the volume polynomial) and
    the wall-crossing route (walls between sig and the external chamber of
    side 1) must agree; the jump of the volume polynomial across each
    bounding wall must equal (−1)^q/(n−3)!·ε_{I_p}^{n−3}, compared exponent
    by exponent on the integer tables w = 2·e!·c_e of the two chambers'
    expanded polynomials and twice the closed form's.  Both routes read the
    signature alone, so no point of the chamber is needed.  Failures are
    recorded, not raised.
    """
    if sig.is_empty():
        raise EmptyChamber(f"cannot validate the empty space: {sig}")
    vp = volume_polynomial(sig)  # its Walsh table gives the apolar Betti numbers
    betti_a = tuple(catalecticant_rank(vp, d, Convention.homogeneous()) for d in range(sig.n - 2))
    betti_p = _path_betti(sig)
    checks = [(I, _jump_agrees(vp.integer_table, sig._across(I.mask), I.mask))
              for I in (short.complement for short in sig.maximal_shorts)]
    agree = betti_a == betti_p
    return ChamberValidation(
        signature=sig,
        betti_apolar=betti_a,
        betti_path=betti_p,
        betti_agree=agree,
        jump_checks=tuple(checks),
        passed=agree and all(ok for _, ok in checks),
    )
