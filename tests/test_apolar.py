"""Cohomology via apolarity: Betti numbers, annihilators, pairings, PD classes."""

from __future__ import annotations

import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from polygonspace import (
    BaseNotInSet,
    CohomologyClass,
    Convention,
    DegreeOutOfRange,
    EmptyChamber,
    IndexSet,
    LengthVector,
    MultiIndex,
    MultiPoly,
    WrongTotalDegree,
    annihilator_generators,
    betti_numbers,
    catalecticant_rank,
    intersection_number,
    is_zero_class,
    normal_bundle_chern,
    pd_bases_agree,
    pd_class,
    poincare_pairing,
    presentation,
    presented_volume,
    signature,
    volume_polynomial,
)
from polygonspace import volume
from polygonspace.apolar import _catalecticant, _columns
from polygonspace.ratpoly import matrix_rank, monomial_exponents, rank_and_kernel, sparse_kernel
from polygonspace.volume import _fold, _lifted_fold, _monomials, _walsh

from conftest import (
    apply_convention,
    expanded_betti,
    expanded_catalecticant,
    hausmann_knutson_betti,
    lift,
    odd_perimeter_point,
    odd_set_sums,
    oracle_presentation,
    oracle_is_zero,
    oracle_pairing,
    presented,
    random_nonempty,
    reference_annihilator_generators,
    same_span,
    short_masks,
    span_rank,
)

F = Fraction

HOM = Convention.homogeneous()
AFF5 = Convention.affine(5)


def var(nvars: int, i: int) -> MultiPoly:
    return MultiPoly.linear_form([int(j == i - 1) for j in range(nvars)])


def cls(poly: MultiPoly) -> CohomologyClass:
    return CohomologyClass(poly)


# ------------------------------------------------------- ranks and Betti rows


def test_catalecticant_rank_examples(cp2_sig, blowup_sig) -> None:
    vp0 = volume_polynomial(cp2_sig)
    vp1 = volume_polynomial(blowup_sig)
    assert catalecticant_rank(vp0, 0, HOM) == 1
    assert catalecticant_rank(vp0, 1, HOM) == 1
    assert catalecticant_rank(vp1, 1, HOM) == 2
    assert catalecticant_rank(vp1, 1, AFF5) == 2
    with pytest.raises(DegreeOutOfRange):
        catalecticant_rank(vp0, 3, HOM)
    with pytest.raises(DegreeOutOfRange):
        catalecticant_rank(vp0, -1, HOM)


def test_betti_numbers_examples(cp2_sig, blowup_sig) -> None:
    assert betti_numbers(signature(LengthVector.parse("1,1,1")), HOM) == (1,)
    assert betti_numbers(signature(LengthVector.parse("2,1,1,1")), HOM) == (1, 1)
    assert betti_numbers(cp2_sig, HOM) == (1, 1, 1)
    assert betti_numbers(blowup_sig, HOM) == (1, 2, 1)
    near_equilateral = LengthVector.parse("19/100,21/100,20/100,19/100,21/100")
    assert betti_numbers(signature(near_equilateral), HOM) == (1, 5, 1)


def test_betti_rejects_empty_chamber() -> None:
    sig = signature(LengthVector.parse("10,1,1,1"))
    with pytest.raises(EmptyChamber, match=r"no cohomology: \[\{2,3,4\}\] has a long singleton"):
        betti_numbers(sig, HOM)
    with pytest.raises(EmptyChamber):
        annihilator_generators(sig, HOM)


def _ann1_has_unit_sum_form(sig) -> bool:
    # the affine presentation keeps every generator exactly when some linear
    # annihilator has nonzero coefficient sum (it then solves for the
    # eliminated variable in terms of the differences); kernel built here
    # from first derivatives, independent of annihilator_generators
    v = volume_polynomial(sig).v
    n = sig.n
    derivatives = [v.differentiate([1 if j == i else 0 for j in range(n)]) for i in range(n)]
    cols = monomial_exponents(n, n - 4) if n >= 4 else [()]
    index = {e: k for k, e in enumerate(cols)}
    mat = [[F(0)] * n for _ in cols]
    for i, d in enumerate(derivatives):
        for e, c in d.terms():
            mat[index[e]][i] = c
    _, kernel = rank_and_kernel(mat, ncols=n)
    return any(sum(vec) != 0 for vec in kernel)


def test_betti_convention_agreement_characterized_n5(graph5) -> None:
    conventions = [Convention.affine(j) for j in range(1, 6)]
    for node in graph5.nodes:
        if node.empty:
            continue
        hom = betti_numbers(node.signature, HOM)
        agree = all(
            betti_numbers(node.signature, conv) == hom for conv in conventions
        )
        assert agree == _ann1_has_unit_sum_form(node.signature)


def test_betti_convention_agreement_characterized_sampled() -> None:
    rng = random.Random(211)
    for n, count in ((6, 8), (7, 4)):
        for _ in range(count):
            sig = signature(random_nonempty(rng, n))
            agree = betti_numbers(sig, HOM) == betti_numbers(
                sig, Convention.affine(rng.randint(1, n))
            )
            if _ann1_has_unit_sum_form(sig):
                assert agree


def test_betti_affine_loses_a_generator_without_linear_relations() -> None:
    # all pairs short: b2 = n, the annihilator has no linear part, and every
    # affine presentation can only reach n-1 degree-1 generators
    sig = signature(LengthVector.parse("19/100,21/100,20/100,19/100,21/100"))
    assert dict(annihilator_generators(sig, HOM))[1] == ()
    assert betti_numbers(sig, HOM) == (1, 5, 1)
    for j in range(1, 6):
        assert betti_numbers(sig, Convention.affine(j)) == (1, 4, 1)


def test_gorenstein_duality_sampled() -> None:
    rng = random.Random(223)
    for _ in range(30):
        n = rng.randint(4, 6)
        betti = betti_numbers(signature(random_nonempty(rng, n)), HOM)
        assert betti[0] == 1 and betti[-1] == 1
        assert betti == betti[::-1]


# ------------------------------------------- catalecticants from the Walsh table


def _monomial_betti(sig) -> tuple[int, ...]:
    # the expanded route: ranks of the integer Hankel catalecticants of v
    return expanded_betti(sig, HOM)


def test_walsh_betti_matches_the_monomial_route(graph5, graph6) -> None:
    sigs = [node.signature for g in (graph5, graph6) for node in g.nodes if not node.empty]
    rng = random.Random(1515)
    sigs += [signature(random_nonempty(rng, n)) for n in (7, 7, 7, 8, 8)]
    assert len(sigs) == 76 + 1678 + 5
    for sig in sigs:
        assert betti_numbers(sig, HOM) == _monomial_betti(sig), sig
    vp = volume_polynomial(sigs[-1])
    assert [catalecticant_rank(vp, d, HOM) for d in range(6)] == list(_monomial_betti(sigs[-1]))


def test_walsh_betti_matches_hausmann_knutson_at_large_n() -> None:
    rng = random.Random(1516)
    points = [odd_perimeter_point(rng, 9) for _ in range(4)] + [odd_perimeter_point(rng, 10)]
    nonempty = 0
    for r in points:
        sig = signature(r)
        if sig.is_empty():
            continue
        nonempty += 1
        assert betti_numbers(sig, HOM) == hausmann_knutson_betti(r.n, short_masks(r)), r
    assert nonempty == len(points)


def test_walsh_kernels_match_the_hankel_kernels(graph5) -> None:
    # presentation reads the homogeneous catalecticant from W: same
    # columns, one row per odd set; its canonical kernels must be those of
    # the monomial matrix over the Hankel table in every degree
    rng = random.Random(1517)
    sigs = [node.signature for node in graph5.nodes if not node.empty]
    sigs += [signature(random_nonempty(rng, n)) for n in (6, 6, 6, 7, 7)]
    for sig in sigs:
        n, w, v = sig.n, _walsh(sig), presented(sig, HOM)
        for d in range(n - 1):
            domain, mat = expanded_catalecticant(v, d)
            assert tuple(domain) == _monomials(n, d)[0] == _columns(n, d, HOM)[0]
            rows = _catalecticant(w, n, d, _monomials(n, d)[1], HOM)
            assert sparse_kernel(rows, len(domain)) == sparse_kernel(mat, len(domain)), (sig, d)


def test_a_wrong_walsh_sign_is_caught(graph5, monkeypatch) -> None:
    # flipping one σ_I of the signed indicator adds −2σ_I·(−1)^|m∩I| to
    # W(m), by linearity; the Betti numbers read from W, by betti_numbers and
    # by presentation alike, must then disagree with the Hausmann–Knutson
    # count on some chamber.  W is computed once per chamber, by the cached
    # volume_polynomial, so the cache is cleared around the mutation.
    def flipped(sig):
        n = sig.n
        I = min(m for m in range(1, 1 << n) if not sig.shorts >> m & 1)
        sigma = -1 if (n - I.bit_count()) % 2 else 1
        return [x - 2 * sigma * (-1) ** (m & I).bit_count() for m, x in enumerate(_walsh(sig))]

    nodes = [node for node in graph5.nodes if not node.empty]
    expected = [hausmann_knutson_betti(5, short_masks(node.representative)) for node in nodes]
    assert [betti_numbers(node.signature, HOM) for node in nodes] == expected
    assert [presentation(node.signature, HOM).betti for node in nodes] == expected
    volume_polynomial.cache_clear()
    monkeypatch.setattr(volume, "_walsh", flipped)
    try:
        assert sum(betti_numbers(node.signature, HOM) != hk for node, hk in zip(nodes, expected)) > 0
        assert sum(presentation(node.signature, HOM).betti != hk for node, hk in zip(nodes, expected)) > 0
    finally:
        volume_polynomial.cache_clear()


# ----------------------------------------------------------------- annihilator


def test_annihilator_degree_one_spans(cp2_sig) -> None:
    gens = dict(annihilator_generators(cp2_sig, HOM))
    expected = [var(5, j) + var(5, 3) for j in (1, 2, 4, 5)]
    assert same_span(list(gens[1]), expected, nvars=5, degree=1)

    gens_aff = dict(annihilator_generators(cp2_sig, AFF5))
    assert same_span(list(gens_aff[1]), [var(4, 1), var(4, 2), var(4, 4)], 4, 1)


def test_annihilator_blowup_affine(blowup_sig) -> None:
    gens = dict(annihilator_generators(blowup_sig, AFF5))
    assert same_span(list(gens[1]), [var(4, 2), var(4, 4)], 4, 1)
    v_aff = presented(blowup_sig, AFF5)
    relation = var(4, 1) ** 2 - var(4, 1) * var(4, 3)
    assert not relation.apply_operator(v_aff)
    assert same_span(list(gens[2]), [relation, var(4, 3) ** 2], 4, 2)
    assert gens[3] == ()


def test_powers_of_short_singleton_variable(cp2_sig) -> None:
    # the external chamber's affine ring is generated by one class x3 with
    # x3^2 != 0 and x3^3 = 0
    v_aff = presented(cp2_sig, AFF5)
    x3 = var(4, 3)
    assert not (x3**3).apply_operator(v_aff)
    assert (x3**2).apply_operator(v_aff)


def test_generators_annihilate_everywhere(graph4) -> None:
    conventions = [Convention.homogeneous(), Convention.affine(2)]
    for node in graph4.nodes:
        if node.empty:
            continue
        for conv in conventions:
            v = presented(node.signature, conv)
            for _, gens in annihilator_generators(node.signature, conv):
                for g in gens:
                    assert not g.apply_operator(v)


def test_generators_are_complete(cp2_sig, blowup_sig, graph4) -> None:
    # multiples of the generators must fill the whole annihilator in
    # every degree: dim Ann_d = #monomials(d) - b_{2d}
    cases = [
        (cp2_sig, HOM),
        (cp2_sig, AFF5),
        (blowup_sig, HOM),
        (blowup_sig, AFF5),
        (graph4.nodes[0].signature, HOM),
    ]
    for sig, conv in cases:
        if sig.is_empty():
            continue
        betti = betti_numbers(sig, conv)
        gens = annihilator_generators(sig, conv)
        nvars = sig.n if conv.is_homogeneous else sig.n - 1
        for d in range(1, sig.n - 1):
            multiples = []
            for e, gen_list in gens:
                if e > d:
                    continue
                for g in gen_list:
                    for exps in monomial_exponents(nvars, d - e):
                        multiples.append(g * MultiPoly(nvars, {exps: F(1)}))
            want = len(monomial_exponents(nvars, d))
            if d <= sig.n - 3:
                want -= betti[d]
            assert span_rank(multiples, nvars, d) == want


def test_generators_are_minimal(blowup_sig) -> None:
    # no generator may lie in the span of lower-degree multiples
    gens = annihilator_generators(blowup_sig, AFF5)
    lookup = dict(gens)
    for d in (2, 3):
        lower = []
        for e in range(1, d):
            for g in lookup.get(e, ()):
                for exps in monomial_exponents(4, d - e):
                    lower.append(g * MultiPoly(4, {exps: F(1)}))
        base = span_rank(lower, 4, d)
        for g in lookup.get(d, ()):
            assert span_rank(lower + [g], 4, d) == base + 1


# The five n = 6 chamber classes of the benchmark's ring workload, one for
# each b2 = 2..6: the lexicographically first sorted integer side vector with
# sides <= 9 and odd perimeter whose chamber is nonempty and not external.
RING_CLASSES_N6 = (
    (1, 2, 2, 2, 2, 6),
    (1, 1, 1, 4, 4, 4),
    (1, 1, 1, 2, 2, 4),
    (1, 1, 1, 1, 2, 3),
    (1, 1, 1, 1, 1, 2),
)


def test_generators_match_dense_reference(graph5) -> None:
    cases = [
        (node.signature, conv)
        for node in graph5.nodes
        if not node.empty
        for conv in (HOM, AFF5)
    ]
    cases += [
        (signature(LengthVector.from_values(r)), HOM) for r in RING_CLASSES_N6
    ]
    assert len(cases) == 2 * 76 + 5
    for sig, conv in cases:
        assert annihilator_generators(sig, conv) == reference_annihilator_generators(
            sig, conv
        )


def test_presentation_matches_the_monomial_columns(graph5, graph6) -> None:
    # homogeneous degrees >= 3 are reduced on odd-set columns modulo
    # (x_i^2 - x_j^2), and degree n-2 is skipped when b2 >= 2; the oracle
    # keeps every monomial column and reduces every degree
    rng = random.Random(1717)
    cases = [(node.signature, HOM) for g in (graph5, graph6) for node in g.nodes if not node.empty]
    cases += [(signature(random_nonempty(rng, n)), conv) for n in (7, 7, 8) for conv in (HOM, Convention.affine(2))]
    assert len(cases) == 76 + 1678 + 6
    for sig, conv in cases:
        pres = presentation(sig, conv)
        assert (pres.betti, pres.ann_generators) == oracle_presentation(sig, conv), (sig, conv)


def test_degree_n_minus_2_is_new_only_when_b2_is_one(graph4, graph5, graph6) -> None:
    # the x_i*K_{n-3} span every monomial of degree n-2 unless v is a power
    # of one linear form, that is unless b2 = 1: the external chambers, and
    # every chamber at n = 4.  Read off the oracle, which reduces that degree
    # in every chamber.
    seen = Counter()
    for graph in (graph4, graph5, graph6):
        for node in graph.nodes:
            if node.empty:
                continue
            betti, generators = oracle_presentation(node.signature, HOM)
            top = dict(generators)[graph.n - 2]
            assert len(top) == (betti[1] == 1), node.signature
            assert (betti[1] == 1) == (node.external or graph.n == 4), node.signature
            seen[graph.n, betti[1] == 1] += 1
    assert seen == {(4, True): 8, (5, True): 5, (5, False): 71, (6, True): 6, (6, False): 1672}


def test_presentation_bundles_everything(blowup_sig) -> None:
    pres = presentation(blowup_sig, AFF5)
    assert pres.chamber == blowup_sig
    assert pres.convention == AFF5
    assert pres.betti == betti_numbers(blowup_sig, AFF5)
    assert pres.ann_generators == annihilator_generators(blowup_sig, AFF5)


# -------------------------------------------------------------------- pairing


def test_poincare_pairing_examples(cp2_sig, blowup_sig) -> None:
    assert poincare_pairing(cls(var(4, 3)), cls(var(4, 3)), cp2_sig, AFF5) == 4
    assert poincare_pairing(cls(var(5, 3)), cls(var(5, 3)), cp2_sig, HOM) == 1
    assert (
        poincare_pairing(
            cls(var(5, 1) + var(5, 3)), cls(var(5, 3)), blowup_sig, HOM
        )
        == -2
    )
    one = cls(MultiPoly.constant(5, 1))
    top = cls(var(5, 3) ** 2)
    assert poincare_pairing(one, top, cp2_sig, HOM) == 1


def test_poincare_pairing_errors(cp2_sig) -> None:
    with pytest.raises(WrongTotalDegree, match=r"degrees 1\+2 != n-3 = 2"):
        poincare_pairing(cls(var(5, 1)), cls(var(5, 2) ** 2), cp2_sig, HOM)
    with pytest.raises(ValueError, match="variable count"):
        poincare_pairing(cls(var(4, 1)), cls(var(4, 2)), cp2_sig, HOM)


def test_pairing_nondegenerate_in_middle_degree(blowup_sig) -> None:
    near_equilateral = signature(
        LengthVector.parse("19/100,21/100,20/100,19/100,21/100")
    )
    for sig, middle_rank in ((blowup_sig, 2), (near_equilateral, 5)):
        xs = [cls(var(5, i + 1)) for i in range(5)]
        mat = [[poincare_pairing(a, b, sig, HOM) for b in xs] for a in xs]
        assert matrix_rank(mat, ncols=5) == middle_rank
        assert middle_rank == betti_numbers(sig, HOM)[1]


# ------------------------------------------------------------------ PD classes


def test_pd_class_formulas() -> None:
    assert pd_class(IndexSet.from_indices(5, (1, 3)), 1).poly == -(
        var(5, 1) + var(5, 3)
    )
    assert pd_class(IndexSet.from_indices(5, (1, 3, 4)), 1).poly == (
        var(5, 3) + var(5, 1)
    ) * (var(5, 4) + var(5, 1))
    assert pd_class(IndexSet.from_indices(5, (2, 5)), 5).poly == -(
        var(5, 2) + var(5, 5)
    )
    assert pd_class(IndexSet.from_indices(5, (2,)), 2).poly == MultiPoly.constant(5, 1)
    assert pd_class(IndexSet.from_indices(5, (1, 3)), 1).degree == 1
    assert pd_class(IndexSet.from_indices(5, (1, 3, 4)), 3).degree == 2


def test_normal_bundle_chern_formulas() -> None:
    assert normal_bundle_chern(IndexSet.from_indices(5, (1, 3)), 1).poly == (
        -2 * var(5, 3)
    )
    assert normal_bundle_chern(IndexSet.from_indices(5, (1, 3, 4)), 1).poly == (
        -2 * (var(5, 3) + var(5, 4))
    )
    assert normal_bundle_chern(IndexSet.from_indices(5, (2, 5)), 2).poly == (
        -2 * var(5, 5)
    )


def test_pd_class_base_must_belong() -> None:
    with pytest.raises(BaseNotInSet, match=r"base 2 not in \{1,3\}"):
        pd_class(IndexSet.from_indices(5, (1, 3)), 2)
    for outside in (0, -1, 6):
        with pytest.raises(BaseNotInSet, match=rf"base {outside} not in"):
            pd_class(IndexSet.from_indices(5, (1, 3, 5)), outside)
    with pytest.raises(BaseNotInSet):
        normal_bundle_chern(IndexSet.from_indices(5, (1, 3)), 4)


def test_pd_class_vanishes_iff_long(blowup_sig) -> None:
    long_pair = IndexSet.from_indices(5, (2, 3))
    short_pair = IndexSet.from_indices(5, (1, 3))
    assert not blowup_sig.is_short(long_pair)
    assert blowup_sig.is_short(short_pair)
    assert is_zero_class(pd_class(long_pair, 2), blowup_sig, HOM)
    assert not is_zero_class(pd_class(short_pair, 1), blowup_sig, HOM)


def test_is_zero_class_examples(blowup_sig) -> None:
    assert is_zero_class(cls(var(5, 2) + var(5, 3)), blowup_sig, HOM)
    assert not is_zero_class(cls(var(5, 1) + var(5, 3)), blowup_sig, HOM)
    # everything above the top degree dies
    assert is_zero_class(cls(var(5, 1) ** 3), blowup_sig, HOM)
    with pytest.raises(ValueError, match="class has 4 variables"):
        is_zero_class(cls(var(4, 1)), blowup_sig, HOM)


def _random_class(rng: random.Random, nvars: int, d: int) -> MultiPoly:
    monomials = monomial_exponents(nvars, d)
    picked = rng.sample(monomials, rng.randint(1, min(4, len(monomials))))
    return MultiPoly(
        nvars, {e: F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)) for e in picked}
    )


def _seeded_classes(rng: random.Random, sig, conv: Convention, nvars: int) -> list[MultiPoly]:
    """The zero class and, in every degree 0..n-1, random classes and relations.

    A relation is an annihilator generator times a monomial with a Fraction
    factor; adding a random class to it usually gives a nonzero class.
    """
    gens = () if sig.is_empty() else annihilator_generators(sig, conv)
    out = [MultiPoly.zero(nvars)]
    for d in range(sig.n):
        out += [_random_class(rng, nvars, d) for _ in range(2)]
        for dg, polys in gens:
            if dg <= d and polys:
                e = rng.choice(monomial_exponents(nvars, d - dg))
                relation = rng.choice(polys) * MultiPoly(nvars, {e: F(rng.randint(1, 9), rng.randint(1, 5))})
                out += [relation, relation + _random_class(rng, nvars, d)]
    return out


def test_membership_and_pairing_match_apply_operator_n5(graph5) -> None:
    rng = random.Random(4040)
    verdicts: Counter[bool] = Counter()
    nonempty = 0
    for node in graph5.nodes:
        sig = node.signature
        nonempty += not node.empty
        for conv in (HOM, Convention.affine(1), AFF5):
            nvars = 5 if conv.is_homogeneous else 4
            for c in _seeded_classes(rng, sig, conv, nvars):
                expected = oracle_is_zero(c, sig, conv)
                assert is_zero_class(cls(c), sig, conv) == expected, (sig, conv, c)
                verdicts[expected] += 1
            pairs = [(MultiPoly.zero(nvars), _random_class(rng, nvars, 3))]
            for d in range(3):
                pairs += [(_random_class(rng, nvars, d), _random_class(rng, nvars, 2 - d)) for _ in range(2)]
            for a, b in pairs:
                assert poincare_pairing(cls(a), cls(b), sig, conv) == oracle_pairing(a, b, sig, conv)
    assert nonempty == 76
    assert verdicts[True] > 3000 and verdicts[False] > 1000


def test_lifted_route_matches_the_expanded_route(graph5) -> None:
    # every answer in every convention comes from the homogeneous W with
    # the class lifted; the oracle expands v in the convention by
    # substitution instead, with catalecticant rows in every degree
    rng = random.Random(1616)
    sigs = [node.signature for node in graph5.nodes if not node.empty]
    sigs += [signature(random_nonempty(rng, n)) for n in (6, 6, 7)]
    for sig in sigs:
        n, w = sig.n, _walsh(sig)
        for conv in [*map(Convention.affine, range(1, n + 1)), HOM]:
            v_aff, nvars = presented(sig, conv), conv.nvars(n)
            assert presented_volume(volume_polynomial(sig), conv) == v_aff, (sig, conv)
            for d in range(n - 1):
                domain, columns = _columns(n, d, conv)
                expected_domain, mat = expanded_catalecticant(v_aff, d)
                assert list(domain) == expected_domain
                kernel = sparse_kernel(_catalecticant(w, n, d, columns, conv), len(domain))
                assert kernel == sparse_kernel(mat, len(domain)), (sig, conv, d)
            assert betti_numbers(sig, conv) == expanded_betti(sig, conv), (sig, conv)
            for c in _seeded_classes(rng, sig, conv, nvars)[:: 3 if n == 5 else 1]:
                assert is_zero_class(cls(c), sig, conv) == oracle_is_zero(c, sig, conv), (sig, conv, c)
            for da in range(n - 2):
                a, b = _random_class(rng, nvars, da), _random_class(rng, nvars, n - 3 - da)
                assert poincare_pairing(cls(a), cls(b), sig, conv) == oracle_pairing(a, b, sig, conv)
            for beta in monomial_exponents(nvars, n - 3)[:: 1 if n == 5 else 7]:
                j = conv.affine_index
                alpha = MultiIndex(beta if j is None else beta[: j - 1] + (0,) + beta[j - 1 :])
                expected = dict(v_aff.differentiate(beta).terms()).get((0,) * nvars, 0)
                assert intersection_number(sig, alpha, conv) == expected, (sig, conv, alpha)


def test_lift_is_the_chain_rule() -> None:
    # Q(d)v_aff is L(Q)(d)v restricted to the slice, for any class Q
    rng = random.Random(1617)
    for n in (4, 5, 6):
        for _ in range(3):
            v = volume_polynomial(signature(random_nonempty(rng, n))).v
            for conv in map(Convention.affine, range(1, n + 1)):
                for d in range(n - 1):
                    q = _random_class(rng, n - 1, d)
                    lifted = lift(conv, q, n)
                    assert lifted.nvars == n and lifted.is_homogeneous() and lifted.degree() == d
                    assert apply_convention(conv, lifted.apply_operator(v)) == q.apply_operator(apply_convention(conv, v))
    # the closed-form fold is the expanded lift summed by odd set, monomial by monomial and on classes
    for n in range(3, 8):
        for conv in [HOM, *map(Convention.affine, range(1, n + 1))]:
            nvars, j = conv.nvars(n), conv.affine_index
            for d in range(n - 2):
                for beta in monomial_exponents(nvars, d):
                    fold = _fold(beta, j)
                    assert len({s for _, s in fold}) == len(fold), (n, conv, beta)
                    assert {s: c for c, s in fold} == odd_set_sums(lift(conv, MultiPoly(nvars, {beta: 1}), n))
                q = _random_class(rng, nvars, d)
                fold, scale = _lifted_fold(q, conv, n)
                assert {s: F(c, scale) for c, s in fold if c} == odd_set_sums(lift(conv, q, n)), (n, conv, q)
    q = _random_class(rng, 5, 2)
    assert lift(HOM, q, 5) is q
    assert lift(Convention.affine(2), var(4, 1) * var(4, 3), 5) == (var(5, 1) - var(5, 2)) * (var(5, 4) - var(5, 2))
    with pytest.raises(ValueError, match="affine index 6 exceeds n = 5"):
        _lifted_fold(q, Convention.affine(6), 5)
    with pytest.raises(ValueError, match="^wrong variable count: class has 5 variables, convention expects 4$"):
        _lifted_fold(q, AFF5, 5)
    with pytest.raises(ValueError, match="^wrong variable count: class has 4 variables, convention expects 5$"):
        _lifted_fold(var(4, 1), HOM, 5)


def test_classes_above_the_top_degree_are_never_folded(monkeypatch, blowup_sig) -> None:
    # the fold of y^β holds 2^(|β|−|B|), so a class of degree 99 must be dropped, not lifted
    calls = []
    fold = volume._fold
    monkeypatch.setattr(volume, "_fold", lambda beta, j: calls.append(beta) or fold(beta, j))
    assert is_zero_class(cls(var(5, 1) ** 3), blowup_sig, HOM)
    assert is_zero_class(cls(var(4, 1) ** 99), blowup_sig, AFF5)
    assert poincare_pairing(cls(MultiPoly.zero(4)), cls(var(4, 1) ** 99), blowup_sig, AFF5) == 0
    assert calls == []
    is_zero_class(cls(var(4, 1) * var(4, 2)), blowup_sig, AFF5)
    assert calls == [(1, 1, 0, 0)]


def test_the_zero_class_pairs_to_zero(blowup_sig) -> None:
    zero = cls(MultiPoly.zero(5))
    for other in (var(5, 1) * var(5, 2), var(5, 1), var(5, 3) ** 7, MultiPoly.zero(5)):
        assert poincare_pairing(zero, cls(other), blowup_sig, HOM) == 0
        assert poincare_pairing(cls(other), zero, blowup_sig, HOM) == 0
    assert poincare_pairing(cls(MultiPoly.zero(4)), cls(var(4, 1) ** 99), blowup_sig, AFF5) == 0
    with pytest.raises(ValueError, match="affine index 6 exceeds n = 5"):
        poincare_pairing(zero, cls(var(5, 1)), blowup_sig, Convention.affine(6))
    with pytest.raises(ValueError, match="class has 5 variables, convention expects 4"):
        poincare_pairing(zero, cls(var(4, 1)), blowup_sig, AFF5)
    with pytest.raises(WrongTotalDegree, match=r"degrees 1\+2 != n-3 = 2"):
        poincare_pairing(cls(var(5, 1)), cls(var(5, 1) * var(5, 2)), blowup_sig, HOM)


def test_affine_membership_reads_every_degree() -> None:
    # under affine:1 this degree-2 class sends v to the constant 2: the
    # image has no top-degree term, so only its lower degrees show it
    sig = signature(LengthVector.parse("87/23,13/3,95/32,3/38,4,48/17"))
    aff1 = Convention.affine(1)
    q = MultiPoly(5, {
        (2, 0, 0, 0, 0): F(-1, 4), (1, 0, 1, 0, 0): 1, (0, 1, 1, 0, 0): 1,
        (0, 0, 2, 0, 0): F(-5, 2), (0, 0, 1, 1, 0): 1, (0, 0, 1, 0, 1): 1,
    })
    assert q.apply_operator(presented(sig, aff1)) == MultiPoly.constant(5, 2)
    assert not is_zero_class(cls(q), sig, aff1)


def test_pd_class_is_the_product_formula() -> None:
    for n in range(3, 8):
        for mask in range(1, (1 << n) - 1):
            I = IndexSet(n, mask)
            for base in I.indices:
                product = MultiPoly.constant(n, (-1) ** (I.p - 1))
                for j in I.indices:
                    if j != base:
                        product = product * (var(n, j) + var(n, base))
                assert pd_class(I, base).poly == product


def test_hankel_tables_go_with_the_volume_cache(blowup_sig) -> None:
    aff_class = cls(var(4, 1) ** 2 - var(4, 1) * var(4, 3))

    def answers() -> list[object]:
        return [
            is_zero_class(cls(var(5, 2) + var(5, 3)), blowup_sig, HOM),
            is_zero_class(cls(var(5, 1) + var(5, 3)), blowup_sig, HOM),
            is_zero_class(aff_class, blowup_sig, AFF5),
            poincare_pairing(cls(var(5, 1) + var(5, 3)), cls(var(5, 3)), blowup_sig, HOM),
            poincare_pairing(cls(var(4, 3)), cls(var(4, 1)), blowup_sig, AFF5),
        ]

    before = answers()
    assert before == [True, False, True, -2, oracle_pairing(var(4, 3), var(4, 1), blowup_sig, AFF5)]
    vp = volume_polynomial(blowup_sig)
    # one homogeneous table serves every convention, kept on the cached polynomial
    assert vp.walsh is volume_polynomial(blowup_sig).walsh
    assert vars(vp)["walsh"] is vp.walsh
    refs = [weakref.ref(vp)]
    del vp
    volume_polynomial.cache_clear()
    gc.collect()
    assert [ref() for ref in refs] == [None]
    assert answers() == before


def test_membership_and_pairing_errors(blowup_sig) -> None:
    aff6 = Convention.affine(6)
    with pytest.raises(ValueError, match="class has 5 variables, convention expects 4"):
        is_zero_class(cls(var(5, 1)), blowup_sig, AFF5)
    with pytest.raises(ValueError, match="affine index 6 exceeds n = 5"):
        is_zero_class(cls(var(5, 1)), blowup_sig, aff6)
    with pytest.raises(ValueError, match="affine index 6 exceeds n = 5"):
        poincare_pairing(cls(var(5, 1)), cls(var(5, 1)), blowup_sig, aff6)
    with pytest.raises(ValueError, match="variable count"):
        poincare_pairing(cls(var(5, 1)), cls(var(5, 1)), blowup_sig, AFF5)
    with pytest.raises(WrongTotalDegree):
        poincare_pairing(cls(var(4, 1)), cls(var(4, 1) ** 2), blowup_sig, AFF5)
    # the lift and the displayed presentation check the index the same way
    with pytest.raises(ValueError, match="affine index 6 exceeds n = 5"):
        _lifted_fold(var(5, 1), aff6, 5)
    with pytest.raises(ValueError, match="affine index 6 exceeds n = 5"):
        apply_convention(aff6, volume_polynomial(blowup_sig).v)
    with pytest.raises(ValueError, match="affine index 6 exceeds n = 5"):
        presented_volume(volume_polynomial(blowup_sig), aff6)


def test_pd_bases_agree_observed(cp2_sig, blowup_sig) -> None:
    # observed to hold on the reference chambers; reported, not a theorem here
    for I in ((2, 3), (1, 3), (1, 2, 4), (2, 4, 5)):
        index_set = IndexSet.from_indices(5, I)
        assert pd_bases_agree(index_set, blowup_sig, HOM)
        assert pd_bases_agree(index_set, cp2_sig, HOM)


def test_cohomology_class_must_be_homogeneous() -> None:
    with pytest.raises(ValueError, match="homogeneous"):
        CohomologyClass(var(5, 1) + MultiPoly.constant(5, 1))
