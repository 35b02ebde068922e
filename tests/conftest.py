"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from itertools import permutations, product
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from operator import add
from typing import Optional, Sequence

import pytest

from polygonspace.chambers import (
    ChamberGraph,
    ChamberNode,
    ChamberSignature,
    DegenerateWall,
    IndexSet,
    LengthVector,
    NonGenericSegment,
    SingularLength,
    Wall,
    adjacent_representative,
    enumerate_chambers,
    external_representative,
    nudge_within_chamber,
    segment_crossings,
    signature,
)
from polygonspace.exactlp import _STALL_LIMIT, Row
from polygonspace.ratpoly import (
    Exponents, MultiPoly, _primitive, _scaled, matrix_rank, monomial_exponents, sparse_kernel,
)
from polygonspace.volume import Convention, volume_polynomial
from polygonspace.wallcross import betti_delta

# The two n = 5 reference chambers used throughout: an external one (complex
# projective plane) and its neighbor across the wall of {1,3} (the one-point
# blow-up).  Their side lengths sum to 1.
CP2_R = LengthVector.parse("3/20,3/20,2/5,3/20,3/20")
BLOWUP_R = LengthVector.parse("3/60,11/60,24/60,11/60,11/60")


@pytest.fixture(scope="session")
def cp2_sig() -> ChamberSignature:
    return signature(CP2_R)


@pytest.fixture(scope="session")
def blowup_sig() -> ChamberSignature:
    return signature(BLOWUP_R)


@pytest.fixture(scope="session")
def graph3() -> ChamberGraph:
    return enumerate_chambers(3)


@pytest.fixture(scope="session")
def graph4() -> ChamberGraph:
    return enumerate_chambers(4)


@pytest.fixture(scope="session")
def graph5() -> ChamberGraph:
    return enumerate_chambers(5)


@pytest.fixture(scope="session")
def graph6() -> ChamberGraph:
    return enumerate_chambers(6)


def reference_walk(n: int) -> ChamberGraph:
    """The chamber graph by a breadth-first walk through the public
    ``adjacent_representative``, one ``LengthVector`` held per chamber.

    Crosses every facet wall of every discovered chamber once per chamber
    pair, from the first side to reach it, and orders nodes and edges as
    ``enumerate_chambers`` documents.  Oracle for its integer walk.
    """
    start = external_representative(n)
    reps = {signature(start): start}
    found: list[tuple[ChamberSignature, ChamberSignature, Wall]] = []
    probed: set[frozenset[ChamberSignature]] = set()
    queue = deque(reps)
    while queue:
        sig = queue.popleft()
        for short in sig.maximal_shorts:
            exit_set = short.complement
            neighbor = sig.flip(exit_set)
            if frozenset((sig, neighbor)) in probed:
                continue
            probed.add(frozenset((sig, neighbor)))
            try:
                _, after = adjacent_representative(reps[sig], exit_set)
            except DegenerateWall:
                continue
            assert signature(after) == neighbor
            if neighbor not in reps:
                reps[neighbor] = after
                queue.append(neighbor)
            found.append((sig, neighbor, Wall(exit_set)))
    ordered = sorted(reps, key=lambda s: s.sort_key())
    index_of = {sig: i for i, sig in enumerate(ordered)}
    nodes = tuple(ChamberNode(s, reps[s], s.is_empty(), s.is_external()) for s in ordered)
    edges = sorted(
        ((index_of[a], index_of[b], wall) for a, b, wall in found),
        key=lambda e: (e[0], e[1], e[2].index_set.sort_key),
    )
    return ChamberGraph(n, nodes, tuple(edges))


def reference_canonical_form(sig: ChamberSignature) -> ChamberSignature:
    """The smallest relabeling under ``sort_key``, by trying all n! of them.

    Oracle for ``canonical_form``: the two pick different members of an
    orbit, but must split chambers into the same classes.
    """
    return min((sig.permute(perm) for perm in permutations(range(sig.n))), key=lambda s: s.sort_key())


def walk_betti(r: LengthVector, anchor_index: int | None = None) -> tuple[int, ...]:
    """Betti numbers of a nonempty M(r) by walking a straight segment.

    Starts at (1, ..., 1) on ``external_representative`` (the largest side's
    index, the first of ties, by default), lists the crossings of the segment
    to r with ``segment_crossings`` and adds each wall's ``betti_delta`` in
    turn.  When two walls are crossed at once, r is moved inside its chamber
    by ``nudge_within_chamber`` with k = 1, 2, ... (up to 200) until the
    segment is generic.  Oracle for wallcross.betti_via_path.
    """
    sig, n = signature(r), r.n
    if anchor_index is None:
        anchor_index = r.lengths.index(max(r.lengths)) + 1
    anchor = external_representative(n, anchor_index, perimeter=r.perimeter)
    target, k = r, 1
    while True:
        try:
            crossings = segment_crossings(anchor, target)
            break
        except NonGenericSegment:
            target = None
            while target is None:
                assert k <= 200, f"no generic segment to {r}"
                target, k = nudge_within_chamber(r, k, sig), k + 1
    betti = [1] * (n - 2)
    for _, wall in crossings:
        betti = [b + d for b, d in zip(betti, betti_delta(wall.p, wall.q, n))]
    return tuple(betti)


def random_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 120), rng.randint(1, 40))


def random_generic(rng: random.Random, n: int) -> LengthVector:
    """A uniformly messy generic length vector (rejection sampling)."""
    while True:
        r = LengthVector.from_values([random_positive(rng) for _ in range(n)])
        try:
            signature(r)
        except SingularLength:
            continue
        return r


def random_nonempty(rng: random.Random, n: int) -> LengthVector:
    while True:
        r = random_generic(rng, n)
        if not signature(r).is_empty():
            return r


def random_empty(rng: random.Random, n: int) -> LengthVector:
    """Generic vector with one side longer than all the others combined."""
    while True:
        values = [random_positive(rng) for _ in range(n)]
        i = rng.randrange(n)
        values[i] = sum(values) - values[i] + random_positive(rng)
        r = LengthVector.from_values(values)
        try:
            sig = signature(r)
        except SingularLength:
            continue
        if sig.is_empty():
            return r


def odd_perimeter_point(rng: random.Random, n: int, top: int = 200) -> LengthVector:
    """Integer sides 1..top with an odd sum, scaled to perimeter 1.

    No subset sum is half of an odd total, so the point is generic without
    asking the library.
    """
    values = [rng.randint(1, top) for _ in range(n)]
    if sum(values) % 2 == 0:
        values[rng.randrange(n)] += 1
    total = sum(values)
    return LengthVector.from_values([Fraction(v, total) for v in values])


def short_masks(r: LengthVector) -> set[int]:
    """Short proper subsets of a generic r, one Fraction sum per subset.

    Oracle for the chamber layer: no bitset, no signature.
    """
    n = r.n
    out = set()
    for mask in range(1, (1 << n) - 1):
        inside = sum((x for i, x in enumerate(r) if mask >> i & 1), Fraction(0))
        assert 2 * inside != r.perimeter, "oracle given a non-generic point"
        if 2 * inside < r.perimeter:
            out.add(mask)
    return out


def is_generic_point(r: LengthVector) -> bool:
    """No epsilon_I(r) vanishes, one Fraction sum per subset."""
    return all(
        2 * sum((x for i, x in enumerate(r) if mask >> i & 1), Fraction(0)) != r.perimeter
        for mask in range(1, (1 << r.n) - 1)
    )


def long_sets(sig: ChamberSignature) -> list[IndexSet]:
    """The proper nonempty index sets that ``is_short`` rejects, by mask."""
    n = sig.n
    return [IndexSet(n, m) for m in range(1, (1 << n) - 1) if not sig.is_short(IndexSet(n, m))]


def maximal_masks(n: int, shorts: set[int]) -> set[int]:
    """Members of a family with no member one index larger containing them."""
    return {
        m for m in shorts
        if not any(m | 1 << i in shorts for i in range(n) if not m >> i & 1)
    }


def hausmann_knutson_betti(n: int, shorts: set[int], k: int = 0) -> tuple[int, ...]:
    """(b_0, b_2, ..., b_2(n-3)) counted from the short sets containing side k.

    Hausmann-Knutson: the Poincare polynomial is
    sum over short J containing k of (t^(2(|J|-1)) - t^(2(n-|J|-1))) / (1 - t^2),
    so b_2j is the number of such J with |J| - 1 <= j minus the number with
    n - |J| - 1 <= j.
    """
    return tuple(
        sum(1 for m in shorts if m >> k & 1 and m.bit_count() - 1 <= j)
        - sum(1 for m in shorts if m >> k & 1 and n - m.bit_count() - 1 <= j)
        for j in range(n - 2)
    )


def direct_volume_value(
    r: LengthVector,
    operator: MultiPoly | None = None,
    at: Sequence[Fraction] | None = None,
) -> Fraction:
    """Independent evaluation of the signed power sum, no polynomial algebra.

    Walks every proper subset of {1..n} plus the full set, raises each
    positive epsilon to the n-3 power, and applies the parity sign and the
    -1/(2(n-3)!) factor numerically.  Oracle for the volume module.

    With a homogeneous ``operator`` Q of degree d, returns instead the value
    of Q(d/dr) applied to the chamber's polynomial, at the point ``at`` (r
    by default): each d^a/dr^a takes eps_I^(n-3) to
    (n-3)!/(n-3-d)! * s^a * eps_I^(n-3-d), where s holds the signs of eps_I.
    """
    n = r.n
    deg = n - 3
    values = list(r.lengths)
    point = values if at is None else list(at)
    terms = [((0,) * n, Fraction(1))] if operator is None else list(operator.terms())
    d = sum(terms[0][0]) if terms else 0
    if d > deg:
        return Fraction(0)

    def term(signs: list[int]) -> Fraction:
        q = sum(c * prod(s**k for s, k in zip(signs, e)) for e, c in terms)
        return q * sum(s * x for s, x in zip(signs, point)) ** (deg - d)

    acc = term([1] * n)
    for mask in range(1, (1 << n) - 1):
        signs = [1 if mask >> i & 1 else -1 for i in range(n)]
        if sum(s * x for s, x in zip(signs, values)) > 0:
            sign = -1 if (n - mask.bit_count()) % 2 else 1
            acc += sign * term(signs)
    return Fraction(-1, 2 * factorial(deg - d)) * acc


def signed_power_sum(sig: ChamberSignature) -> MultiPoly:
    """The defining expansion of the volume polynomial, by powers of linear forms.

    -1/(2(n-3)!) * sum of sigma_I * eps_I^(n-3) over the long sets I and the
    full set, sigma_I = (-1)^(n-|I|), each power expanded with
    ``MultiPoly.linear_form(...) ** (n-3)``.  Oracle for volume_polynomial.
    """
    n = sig.n
    deg = n - 3
    total = MultiPoly.linear_form([1] * n) ** deg  # full-set term, sign +1
    for index_set in long_sets(sig):
        form = MultiPoly.linear_form(
            [1 if index_set.mask >> i & 1 else -1 for i in range(n)]
        )
        term = form**deg
        total = total - term if (n - index_set.p) % 2 else total + term
    return total * Fraction(-1, 2 * factorial(deg))


def _reference_kernel(poly: MultiPoly, d: int) -> list[MultiPoly]:
    """Canonical kernel basis of Q -> Q(d)poly on degree-d monomials.

    The matrix is built from ``differentiate`` and reduced by Gauss-Jordan
    over Fraction; one basis vector per free column, with a 1 there.
    """
    nvars = poly.nvars
    domain = monomial_exponents(nvars, d)
    top = max(poly.degree() - d, 0)
    degrees = [top] if poly.is_homogeneous() else range(top + 1)
    image = [e for k in degrees for e in monomial_exponents(nvars, k)]
    index = {e: i for i, e in enumerate(image)}
    rows = [[Fraction(0)] * len(domain) for _ in image]
    for col, alpha in enumerate(domain):
        for e, c in poly.differentiate(alpha).terms():
            rows[index[e]][col] = c
    pivots: list[int] = []
    for col in range(len(domain)):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for fc in (c for c in range(len(domain)) if c not in pivots):
        terms = {domain[fc]: Fraction(1)}
        for k, col in enumerate(pivots):
            terms[domain[col]] = -rows[k][fc]
        basis.append(MultiPoly(nvars, terms))
    return basis


def _reference_reduce_modulo(
    kernel: list[MultiPoly], old_span: list[MultiPoly], nvars: int, d: int
) -> list[MultiPoly]:
    """Members of `kernel` that extend the span of `old_span`, canonically.

    One dense Fraction echelon pass over old_span followed by the kernel
    basis; a kernel vector is a new generator exactly when it enlarges the
    span.
    """
    cols = monomial_exponents(nvars, d)
    col_index = {e: k for k, e in enumerate(cols)}

    def as_row(p: MultiPoly) -> list[Fraction]:
        row = [Fraction(0)] * len(cols)
        for e, c in p.terms():
            row[col_index[e]] = c
        return row

    echelon: list[tuple[int, list[Fraction]]] = []  # (pivot column, row)

    def insert(row: list[Fraction]) -> bool:
        for piv, base in echelon:
            if row[piv]:
                f = row[piv] / base[piv]
                for k in range(piv, len(row)):
                    row[k] -= f * base[k]
        lead = next((k for k, v in enumerate(row) if v), None)
        if lead is None:
            return False
        echelon.append((lead, row))
        echelon.sort(key=lambda t: t[0])
        return True

    for p in old_span:
        insert(as_row(p))
    return [g for g in kernel if insert(as_row(g))]


def reference_annihilator_generators(
    sig: ChamberSignature, conv: Convention
) -> tuple[tuple[int, tuple[MultiPoly, ...]], ...]:
    """Minimal annihilator generators per degree, by dense Fraction algebra.

    In each degree d = 1..n-2 the kernel basis is reduced modulo the span of
    x_i times the previous degree's kernel.  Oracle for
    apolar.annihilator_generators.
    """
    poly = presented(sig, conv)
    nvars = poly.nvars
    out = []
    prev_kernel: list[MultiPoly] = []
    for d in range(1, sig.n - 1):
        kernel = _reference_kernel(poly, d)
        old_span = [
            MultiPoly.variable(nvars, i) * g for g in prev_kernel for i in range(nvars)
        ]
        out.append((d, tuple(_reference_reduce_modulo(kernel, old_span, nvars, d))))
        prev_kernel = kernel
    return tuple(out)


def span_rank(polys: list[MultiPoly], nvars: int, degree: int) -> int:
    """Rank of the coefficient matrix of degree-`degree` polynomials."""
    basis = monomial_exponents(nvars, degree)
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(basis)
        for e, c in p.terms():
            row[index[e]] = c
        rows.append(row)
    return matrix_rank(rows, ncols=len(basis))


def same_span(a: list[MultiPoly], b: list[MultiPoly], nvars: int, degree: int) -> bool:
    ra = span_rank(a, nvars, degree)
    rb = span_rank(b, nvars, degree)
    return ra == rb == span_rank(a + b, nvars, degree)


def oracle_is_zero(c: MultiPoly, sig: ChamberSignature, conv: Convention) -> bool:
    """Q(d)v = 0, with v expanded by ``presented`` and the operator applied term by term.

    Goes through ``MultiPoly.apply_operator`` (one ``differentiate`` per
    term of Q), not the chamber's Hankel table.  Oracle for
    apolar.is_zero_class.
    """
    return c.apply_operator(presented(sig, conv)).is_zero


def oracle_pairing(
    a: MultiPoly, b: MultiPoly, sig: ChamberSignature, conv: Convention
) -> Fraction:
    """(a*b)(d)v by ``apply_operator``, a constant.  Oracle for poincare_pairing."""
    value = (a * b).apply_operator(presented(sig, conv))
    assert value.degree() <= 0, "the pairing of complementary degrees is a constant"
    return value.coefficient((0,) * value.nvars)


# -- the expanded route: the chamber polynomial presented in a convention,
# its Hankel table and catalecticants with rows in every degree.  Oracle for
# the library, which reads only the homogeneous tables and lifts affine
# classes to them.


def eliminate_variable(poly: MultiPoly, index: int, replacement: MultiPoly) -> MultiPoly:
    """Substitute a polynomial in the remaining variables for x_index.

    ``replacement`` must have nvars-1 variables, ordered as the original
    variables with position ``index`` removed; the result lives in that
    smaller variable set.
    """
    if not 0 <= index < poly.nvars:
        raise ValueError(f"variable index {index} out of range")
    if replacement.nvars != poly.nvars - 1:
        raise ValueError("replacement must have one variable fewer")
    acc: dict[Exponents, Fraction] = {}
    powers: dict[int, MultiPoly] = {}
    for e, c in poly.terms():
        k = e[index]
        if k not in powers:
            powers[k] = replacement**k
        rest = e[:index] + e[index + 1 :]
        for pe, pc in powers[k].terms():
            key = tuple(a + b for a, b in zip(rest, pe))
            acc[key] = acc.get(key, 0) + c * pc
    return MultiPoly._from_terms(poly.nvars - 1, {e: c for e, c in acc.items() if c})


def apply_convention(conv: Convention, poly: MultiPoly) -> MultiPoly:
    """Present a homogeneous n-variable polynomial in the convention, by
    substituting r_j = 1 - sum of the others under AFFINE(j).  Oracle for
    ``presented_volume``, which reads the Walsh table instead."""
    j = conv.affine_index
    if j is None:
        return poly
    replacement = 1 - MultiPoly.linear_form([1] * conv.nvars(poly.nvars))
    return eliminate_variable(poly, j - 1, replacement)


def lift(conv: Convention, poly: MultiPoly, n: int) -> MultiPoly:
    """The homogeneous class that a class in the convention stands for: under
    AFFINE(j), xᵢ − xⱼ substituted for yᵢ and expanded by binomials.  Oracle
    for ``volume._fold``, which sums the lift by odd set in closed form."""
    if poly.nvars != (expected := conv.nvars(n)):
        raise ValueError(f"wrong variable count: class has {poly.nvars} variables, "
                         f"convention expects {expected}")
    j = conv.affine_index
    if j is None:
        return poly
    acc: dict[Exponents, Fraction] = {}
    for e, c in poly.terms():
        for ks in product(*(range(b + 1) for b in e)):  # kᵢ of the eᵢ factors xᵢ − xⱼ give −xⱼ
            alpha = tuple(b - k for b, k in zip(e, ks))
            alpha = alpha[: j - 1] + (sum(ks),) + alpha[j - 1 :]
            acc[alpha] = acc.get(alpha, 0) + (-1) ** sum(ks) * prod(map(comb, e, ks)) * c
    return MultiPoly._from_terms(n, {e: c for e, c in acc.items() if c})


def odd_set_sums(poly: MultiPoly) -> dict[int, Fraction]:
    """The coefficients of poly summed by the mask of each term's odd exponents,
    zero sums dropped."""
    sums: dict[int, Fraction] = {}
    for e, c in poly.terms():
        odd = sum(1 << i for i, k in enumerate(e) if k % 2)
        sums[odd] = sums.get(odd, 0) + c
    return {s: c for s, c in sums.items() if c}


@lru_cache(maxsize=1024)
def presented(sig: ChamberSignature, conv: Convention) -> MultiPoly:
    """The chamber polynomial in the convention, expanded by ``apply_convention``
    (kept for the oracles that ask for it again)."""
    return apply_convention(conv, volume_polynomial(sig).v)


def hankel_table(poly: MultiPoly) -> tuple[dict[Exponents, int], int]:
    """(w, D): w_e = D*c_e*e! over the coefficients c_e of poly, D the least
    common denominator of the c_e*e!."""
    values = {e: c * prod(map(factorial, e)) for e, c in poly.terms()}
    scale = lcm(*(x.denominator for x in values.values()))
    return {e: x.numerator * (scale // x.denominator) for e, x in values.items()}, scale


def expanded_catalecticant(
    poly: MultiPoly, d: int, hankel: dict[Exponents, int] | None = None
) -> tuple[list[Exponents], list[list[int]]]:
    """Integer matrix of Q -> Q(d)poly on the degree-d monomials Q.

    Columns are the degree-d monomials a, rows the monomials g of the image
    space: one graded piece when poly is homogeneous and nonzero, every
    lower degree otherwise.  The entry is the Hankel table's w_{a+g} (row g
    scaled by D*g!), which keeps the rank and the right kernel; the table
    is built here unless given.
    """
    hankel = hankel_table(poly)[0] if hankel is None else hankel
    domain = monomial_exponents(poly.nvars, d)
    top = max(poly.degree() - d, 0)
    degrees = [top] if poly.is_homogeneous() and not poly.is_zero else range(top + 1)
    rows = [
        [hankel.get(tuple(map(add, alpha, gamma)), 0) for alpha in domain]
        for k in degrees
        for gamma in monomial_exponents(poly.nvars, k)
    ]
    return domain, rows


def expanded_betti(sig: ChamberSignature, conv: Convention) -> tuple[int, ...]:
    """Catalecticant ranks of the presented polynomial in degrees 0..n-3."""
    poly = presented(sig, conv)
    hankel = hankel_table(poly)[0]
    matrices = (expanded_catalecticant(poly, d, hankel) for d in range(sig.n - 2))
    return tuple(matrix_rank(rows, ncols=len(domain)) for domain, rows in matrices)


# -- the monomial-column presentation: kernels and the generator reduction on
# every degree-d monomial, with nothing reduced modulo (x_i^2 - x_j^2) and
# degree n-2 reduced in every chamber.  It reads only the expanded
# polynomial and ``sparse_kernel``.


def _monomial_reduce_modulo(
    kernel: list[dict[Exponents, Fraction]], prev_kernel: list[dict[Exponents, Fraction]], nvars: int
) -> list[int]:
    """Positions of the kernel vectors outside the span of the x_i*g, g in
    prev_kernel, and of the kernel vectors before them.

    Everything lies in the kernel, so it is written in the coordinates of
    its canonical basis (the free monomials); a position is new exactly when
    no row of an echelon form of the products ends there.  Products whose
    last position is still free enter first; the rest are eliminated on
    integers until the echelon form is full.
    """
    position = {next(reversed(g)): k for k, g in enumerate(kernel)}
    shifted = {
        e: [position.get(e[:i] + (e[i] + 1,) + e[i + 1:]) for i in range(nvars)]
        for e in {e for g in prev_kernel for e in g}
    }
    echelon: dict[int, dict[int, int]] = {}
    deferred = []
    for g in prev_kernel:
        scale = lcm(*(c.denominator for c in g.values()))
        rows: list[dict[int, int]] = [{} for _ in range(nvars)]
        for e, c in g.items():
            for row, k in zip(rows, shifted[e]):
                if k is not None:
                    row[k] = c.numerator * (scale // c.denominator)
        for row in filter(None, rows):
            if echelon.setdefault(max(row), row) is not row:
                deferred.append(row)
    for row in deferred:
        if len(echelon) == len(kernel):
            break
        while row:
            last = max(row)
            base = echelon.get(last)
            if base is None:
                echelon[last] = row
                break
            a, b = base[last], row[last]
            row = {k: v for k in row.keys() | base.keys() if (v := a * row.get(k, 0) - b * base.get(k, 0))}
            common = gcd(*row.values()) if row else 1
            row = {k: v // common for k, v in row.items()}
    return [k for k in range(len(kernel)) if k not in echelon]


@lru_cache(maxsize=None)
def oracle_presentation(
    sig: ChamberSignature, conv: Convention
) -> tuple[tuple[int, ...], tuple[tuple[int, tuple[MultiPoly, ...]], ...]]:
    """(Betti numbers, minimal annihilator generators per degree 1..n-2) on
    monomial columns in every degree.

    Catalecticants come from the Hankel table of the presented polynomial,
    one row per distinct row; in each degree the kernel K_d is reduced
    modulo the span of x_i*K_{d-1}, degree n-2 included.  Oracle for
    apolar.presentation.
    """
    poly = presented(sig, conv)
    hankel = hankel_table(poly)[0]
    betti, kernels = [], []
    for d in range(sig.n - 1):
        domain, rows = expanded_catalecticant(poly, d, hankel)
        rank, kernel = sparse_kernel(list(dict.fromkeys(map(tuple, rows))), len(domain))
        betti.append(rank)
        kernels.append([{domain[col]: c for col, c in vec.items()} for vec in kernel])
    generators = tuple(
        (d, tuple(MultiPoly._from_terms(poly.nvars, kernels[d][k])
                  for k in _monomial_reduce_modulo(kernels[d], kernels[d - 1], poly.nvars)))
        for d in range(1, sig.n - 1)
    )
    return tuple(betti[:-1]), generators


# -- the full-tableau simplex: exactlp.maximize as it was before it kept only
# the nonbasic columns, verbatim but for the names.  Every basic column is
# stored, so it is the reference for the condensed solver's pivots, integers
# and vertices.

def full_tableau_maximize(
    objective: Sequence[Fraction | int],
    eq_rows: Sequence[Row],
    ge_rows: Sequence[Row],
) -> Optional[tuple[Fraction, tuple[Fraction, ...]]]:
    """Maximize ``objective . x`` subject to ``x >= 0``, equalities and ``>=`` rows.

    ``eq_rows`` and ``ge_rows`` are ``(coefficients, rhs)`` pairs.  Returns
    ``(value, x)`` at an optimal vertex, or ``None`` when the constraints are
    infeasible.  Raises ``ValueError`` if the objective is unbounded above.
    """
    nvars = len(objective)
    neq, nge = len(eq_rows), len(ge_rows)
    width = nvars + nge  # structural + slack columns; artificials appended later
    if any(len(coeffs) != nvars for coeffs, _ in (*eq_rows, *ge_rows)):
        raise ValueError("constraint width does not match the objective")
    # Each row is scaled to integers, its slack column (-1 on a >= row) with it.
    rows: list[list[int]] = []
    for k, (coeffs, rhs) in enumerate((*eq_rows, *ge_rows)):
        scaled, den = _scaled([*coeffs, rhs])
        slack = [0] * nge
        if k >= neq:
            slack[k - neq] = -den
        rows.append(scaled[:-1] + slack + scaled[-1:])
    for row in rows:
        if row[-1] < 0:
            for j in range(len(row)):
                row[j] = -row[j]

    # Initial basis: the slack column of a >= row (a unit column; a negative
    # coefficient is fixed by flipping the row, legal only when the right
    # side is zero), an artificial column otherwise.
    basis: list[int] = []
    artificial: list[int] = []
    for r, row in enumerate(rows):
        col = nvars + r - neq
        if r >= neq and (row[col] > 0 or row[-1] == 0):
            if row[col] < 0:
                for j in range(len(row)):
                    row[j] = -row[j]
            basis.append(col)
            continue
        basis.append(-1)
        artificial.append(r)
    total_width = width + len(artificial)
    for row in rows:
        row[-1:-1] = [0] * len(artificial)
    for k, r in enumerate(artificial):
        rows[r][width + k] = 1
        basis[r] = width + k

    if artificial:
        # Phase one minimizes the sum of the artificials; priced out against
        # their rows (basic coefficient 1) the reduced costs are integers.
        cost = [0] * (total_width + 1)
        for r in artificial:
            cost = [c - v for c, v in zip(cost, rows[r])]
        for k in range(len(artificial)):
            cost[width + k] += 1
        _full_pivot_to_optimum(rows, cost, basis)
        if any(row[-1] != 0 for r, row in enumerate(rows) if basis[r] >= width):
            return None
        # Drive leftover artificials out of the basis; an all-zero row is
        # redundant and dropped.
        keep: list[int] = []
        for r in range(len(rows)):
            if basis[r] < width:
                keep.append(r)
                continue
            col = next((j for j in range(width) if rows[r][j] != 0), None)
            if col is None:
                continue
            _full_pivot(rows, None, basis, r, col)
            keep.append(r)
        rows = [rows[r][:width] + rows[r][-1:] for r in keep]
        basis = [basis[r] for r in keep]

    # basic entries d > 0: d·cost − factor·row is a positive multiple of cost − factor·row/d
    cost = _scaled([-c for c in objective])[0] + [0] * (nge + 1)
    for r, row in enumerate(rows):
        factor, d = cost[basis[r]], row[basis[r]]
        if factor:
            cost = _primitive([c * d - factor * v for c, v in zip(cost, row)])
    _full_pivot_to_optimum(rows, cost, basis)

    point = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            point[b] = Fraction(rows[r][-1], rows[r][b])
    value = sum((Fraction(c) * x for c, x in zip(objective, point)), Fraction(0))
    return value, tuple(point)


def _full_pivot_to_optimum(
    rows: list[list[int]], cost: list[int], basis: list[int]
) -> None:
    """Pivot until no reduced cost is negative (minimization form).

    Every row keeps a positive coefficient in its basic column, so the ratio
    test needs only rows with a positive entry in the entering column.
    """
    ncols = len(cost) - 1
    bland = False
    stall = 0
    while True:
        if bland:
            enter = next((j for j in range(ncols) if cost[j] < 0), None)
        else:
            best = min(cost[:ncols])  # Dantzig: the first most negative
            enter = cost.index(best) if best < 0 else None
        if enter is None:
            return
        leave = None
        best_num = best_den = 0  # running minimum ratio rhs/entry
        for r, row in enumerate(rows):
            entry = row[enter]
            if entry <= 0:
                continue
            num, den = row[-1], entry
            if (
                leave is None
                or num * best_den < best_num * den
                or (num * best_den == best_num * den and basis[r] < basis[leave])
            ):
                best_num, best_den = num, den
                leave = r
        if leave is None:
            raise ValueError("objective is unbounded")
        if best_num == 0:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        _full_pivot(rows, cost, basis, leave, enter)


def _full_pivot(
    rows: list[list[int]],
    cost: list[int] | None,
    basis: list[int],
    r: int,
    j: int,
) -> None:
    pivot_row = rows[r]
    piv = pivot_row[j]
    if piv < 0:
        pivot_row[:] = [-v for v in pivot_row]
        piv = -piv
    for i, other in enumerate(rows):
        if other is pivot_row or other[j] == 0:
            continue
        f = other[j]
        rows[i] = _primitive([a * piv - b * f for a, b in zip(other, pivot_row)])
    if cost is not None and cost[j] != 0:
        f = cost[j]
        cost[:] = _primitive([a * piv - b * f for a, b in zip(cost, pivot_row)])
    rows[r] = _primitive(pivot_row)
    basis[r] = j
