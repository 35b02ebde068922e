"""Acceptance gate: the ten headline guarantees, one test per criterion.

Each test prints a single PASS line when its criterion holds; every
assertion is exact rational arithmetic unless the criterion itself states a
runtime bound.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from polygonspace import (
    Convention,
    IndexSet,
    LengthVector,
    MultiPoly,
    betti_numbers,
    betti_via_path,
    catalecticant_rank,
    external_representative,
    intersection_number,
    is_zero_class,
    pd_class,
    signature,
    volume_polynomial,
    wall_jump,
)
from polygonspace.chambers import NonGenericSegment, segment_crossings
from polygonspace.ratpoly import MultiIndex
from polygonspace.volume import SCALE_NOTE

from conftest import (
    BLOWUP_R,
    CP2_R,
    direct_volume_value,
    random_empty,
    random_generic,
)

F = Fraction
HOM = Convention.homogeneous()
AFF5 = Convention.affine(5)

EQUILATERAL_PERTURBED = LengthVector.parse("19/100,21/100,20/100,19/100,21/100")


def test_c01_volume_values_exact() -> None:
    assert volume_polynomial(signature(CP2_R)).v.evaluate(tuple(CP2_R)) == F(1, 50)
    blowup = LengthVector.parse("1/20,11/60,2/5,11/60,11/60")
    assert volume_polynomial(signature(blowup)).v.evaluate(tuple(blowup)) == F(3, 200)
    assert SCALE_NOTE == "(2pi)^(n-3)"
    print("C01 volume values 1/50 and 3/200, exact: PASS")


def test_c02_volume_polynomials_closed_forms() -> None:
    v0 = volume_polynomial(signature(CP2_R)).v
    v1 = volume_polynomial(signature(BLOWUP_R)).v
    assert v0 == MultiPoly.linear_form([1, 1, -1, 1, 1]) ** 2 * F(1, 2)
    x = [MultiPoly.linear_form([int(j == i) for j in range(5)]) for i in range(5)]
    assert v1 == x[0] * (x[1] - x[2] + x[3] + x[4]) * 2
    # independent check: the signed power sum evaluated directly at three
    # rational points of each chamber
    for r in (
        CP2_R,
        LengthVector.parse("16/100,14/100,41/100,15/100,14/100"),
        LengthVector.parse("3/21,3/21,9/21,3/21,3/21"),
    ):
        assert signature(r) == signature(CP2_R)
        assert v0.evaluate(tuple(r)) == direct_volume_value(r)
    for r in (
        BLOWUP_R,
        LengthVector.parse("4/60,10/60,25/60,11/60,10/60"),
        LengthVector.parse("2/60,12/60,23/60,12/60,11/60"),
    ):
        assert signature(r) == signature(BLOWUP_R)
        assert v1.evaluate(tuple(r)) == direct_volume_value(r)
    print("C02 closed-form polynomials, doubly verified: PASS")


def test_c03_affine_intersection_numbers() -> None:
    cp2 = signature(CP2_R)
    blowup = signature(BLOWUP_R)
    assert intersection_number(cp2, MultiIndex((0, 0, 2, 0, 0)), AFF5) == 4
    assert intersection_number(blowup, MultiIndex((2, 0, 0, 0, 0)), AFF5) == -4
    # -4, not +4: differentiating 2*r1*(1-r1-2*r3) in r1 then r3 gives -4
    assert intersection_number(blowup, MultiIndex((1, 0, 1, 0, 0)), AFF5) == -4
    print("C03 affine intersection numbers 4, -4, -4: PASS")


def test_c04_betti_vectors_three_chambers() -> None:
    cases = (
        (CP2_R, (1, 1, 1)),
        (BLOWUP_R, (1, 2, 1)),
        (EQUILATERAL_PERTURBED, (1, 5, 1)),
    )
    for r, expected in cases:
        assert betti_numbers(signature(r), HOM) == expected
        assert betti_via_path(r) == expected
    print("C04 Betti vectors (1,1,1), (1,2,1), (1,5,1) by both routes: PASS")


def test_c05_external_chamber_law_under_60s() -> None:
    started = time.monotonic()
    for n in range(4, 9):
        r = external_representative(n)
        sig = signature(r)
        assert betti_numbers(sig, HOM) == tuple([1] * (n - 2))
        # degree-1 annihilator = degree-1 catalecticant kernel
        ann1_dim = n - catalecticant_rank(volume_polynomial(sig), 1, HOM)
        assert ann1_dim == n - 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"C05 external chambers n=4..8 all ones, {elapsed:.1f}s < 60s: PASS")


def test_c06_exhaustive_betti_cross_validation(graph5, graph6) -> None:
    checked = 0
    for graph in (graph5, graph6):
        for node in graph.nodes:
            if node.empty:
                continue
            betti = betti_numbers(node.signature, HOM)
            assert betti_via_path(node.representative) == betti
            assert betti == betti[::-1]  # Gorenstein duality
            checked += 1
    assert checked == 76 + 1678
    print(f"C06 path == catalecticant + duality on {checked} chambers: PASS")


def test_c07_wall_jump_identity_every_edge(graph5, graph6) -> None:
    checked = 0
    for graph in (graph5, graph6):
        n = graph.n
        deg = n - 3
        fact = 1
        for k in range(2, deg + 1):
            fact *= k
        for source, target, wall in graph.edges:
            exit_set = wall.index_set
            flipped, jump = wall_jump(
                graph.nodes[source].signature, graph.nodes[target].signature
            )
            assert flipped == exit_set
            form = MultiPoly.linear_form(
                [1 if exit_set.mask >> i & 1 else -1 for i in range(n)]
            )
            assert jump == form**deg * F((-1) ** exit_set.q, fact)
            checked += 1
    assert checked == 185 + 5646
    print(f"C07 wall-jump identity on {checked} edges: PASS")


def test_c08_emptiness_cancellation() -> None:
    rng = random.Random(808)
    for n in range(4, 8):
        for _ in range(100):
            r = random_empty(rng, n)
            assert direct_volume_value(r) == 0
            assert volume_polynomial(signature(r)).v.evaluate(tuple(r)) == 0
    print("C08 signed sum vanishes on 400 random empty chambers: PASS")


def test_c09_pd_class_coherence(graph5, graph6) -> None:
    checked = 0
    for graph in (graph5, graph6):
        n = graph.n
        sets = [
            IndexSet(n, mask)
            for mask in range(1, (1 << n) - 1)
            if 2 <= bin(mask).count("1") <= n - 2
        ]
        for node in graph.nodes:
            if node.empty:
                continue
            for I in sets:
                dual = pd_class(I, I.indices[0])
                vanishes = is_zero_class(dual, node.signature, HOM)
                assert vanishes == (not node.signature.is_short(I))
                checked += 1
    print(f"C09 PD duals vanish iff the set is long, {checked} checks: PASS")


def test_c10_property_suites() -> None:
    rng = random.Random(1010)

    # Euler homogeneity: r . grad v = (n-3) v, evaluated exactly at r
    for _ in range(500):
        n = rng.randint(4, 6)
        r = random_generic(rng, n)
        v = volume_polynomial(signature(r)).v
        point = tuple(r)
        graded = F(0)
        for i in range(n):
            alpha = [1 if j == i else 0 for j in range(n)]
            graded += r[i] * v.differentiate(alpha).evaluate(point)
        assert graded == (n - 3) * v.evaluate(point)

    # permutation equivariance of signature and volume
    for _ in range(500):
        n = rng.randint(4, 6)
        r = random_generic(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = LengthVector.from_values([r[perm.index(i)] for i in range(n)])
        assert signature(permuted) == signature(r).permute(perm)
        v = volume_polynomial(signature(r)).v
        assert volume_polynomial(signature(permuted)).v.evaluate(tuple(permuted)) == v.evaluate(tuple(r))

    # scaling invariance of signatures
    for _ in range(500):
        n = rng.randint(4, 7)
        r = random_generic(rng, n)
        scale = F(rng.randint(1, 60), rng.randint(1, 60))
        scaled = LengthVector.from_values([scale * x for x in r])
        assert signature(scaled) == signature(r)

    # segment reverse-symmetry, rejection-sampled to 500 generic segments
    successes = 0
    while successes < 500:
        n = rng.randint(4, 6)
        a = random_generic(rng, n)
        b = random_generic(rng, n)
        b = LengthVector.from_values([x * a.perimeter / b.perimeter for x in b])
        try:
            forward = segment_crossings(a, b)
            backward = segment_crossings(b, a)
        except (NonGenericSegment, ValueError):
            continue
        assert len(forward) == len(backward)
        for (tf, wf), (tb, wb) in zip(forward, reversed(backward)):
            assert tf == 1 - tb
            assert wf.index_set == wb.index_set.complement
        successes += 1

    print("C10 four property suites, 500+ instances each, exact: PASS")
