"""Volume polynomials: closed forms, evaluation, derivatives, wall jumps."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from polygonspace import (
    AffineIndexUsed,
    Convention,
    LengthVector,
    MultiIndex,
    MultiPoly,
    NotAdjacent,
    WrongTotalDegree,
    intersection_number,
    presented_volume,
    signature,
    volume_polynomial,
    wall_jump,
)
from polygonspace.volume import SCALE_NOTE, VOLUME_CACHE_SIZE

from conftest import (
    BLOWUP_R,
    apply_convention,
    CP2_R,
    direct_volume_value,
    random_empty,
    random_generic,
    random_nonempty,
    signed_power_sum,
)

F = Fraction

HOM = Convention.homogeneous()
AFF5 = Convention.affine(5)


def test_convention_parsing() -> None:
    assert Convention.parse("homogeneous") == HOM
    assert Convention.parse("affine:5") == AFF5
    assert str(HOM) == "homogeneous"
    assert str(AFF5) == "affine:5"
    assert HOM.is_homogeneous and not AFF5.is_homogeneous
    with pytest.raises(ValueError):
        Convention.parse("projective")
    with pytest.raises(ValueError):
        Convention.affine(0)


def test_cp2_chamber_polynomial(cp2_sig) -> None:
    vp = volume_polynomial(cp2_sig)
    assert vp.chamber == cp2_sig
    assert SCALE_NOTE == "(2pi)^(n-3)"
    expected = MultiPoly.linear_form([1, 1, -1, 1, 1]) ** 2 * F(1, 2)
    assert vp.v == expected
    assert vp.v.is_homogeneous() and vp.v.degree() == 2
    assert vp.v.evaluate(tuple(CP2_R)) == F(1, 50)
    assert volume_polynomial(signature(CP2_R)).v.evaluate(tuple(CP2_R)) == F(1, 50)


def test_blowup_chamber_polynomial(blowup_sig) -> None:
    vp = volume_polynomial(blowup_sig)
    x = [MultiPoly.linear_form([int(j == i) for j in range(5)]) for i in range(5)]
    expected = (x[0] * (x[1] - x[2] + x[3] + x[4])) * 2
    assert vp.v == expected
    assert vp.v.evaluate(tuple(BLOWUP_R)) == F(3, 200)
    assert volume_polynomial(signature(BLOWUP_R)).v.evaluate(tuple(BLOWUP_R)) == F(3, 200)


def test_triangle_volume_is_one() -> None:
    vp = volume_polynomial(signature(LengthVector.parse("1,1,1")))
    assert vp.v == MultiPoly.constant(3, 1)
    assert volume_polynomial(signature(LengthVector.parse("2,3,4"))).v.evaluate((2, 3, 4)) == 1


def test_empty_chamber_volume_vanishes() -> None:
    sig = signature(LengthVector.parse("10,1,1,1"))
    assert not volume_polynomial(sig).v
    assert volume_polynomial(sig).v.evaluate((10, 1, 1, 1)) == 0


def test_polynomial_cache_is_stable(cp2_sig) -> None:
    assert volume_polynomial(cp2_sig) is volume_polynomial(cp2_sig)
    assert volume_polynomial.cache_info().maxsize == VOLUME_CACHE_SIZE
    volume_polynomial.cache_clear()
    assert volume_polynomial.cache_info().currsize == 0
    assert volume_polynomial(cp2_sig) == volume_polynomial(cp2_sig)


def test_volume_matches_defining_expansion(graph5) -> None:
    # the parity transform against the signed sum of powers of linear forms,
    # on every n = 5 chamber (empty ones included) and sampled n = 6, 7 ones
    rng = random.Random(107)
    sigs = [node.signature for node in graph5.nodes]
    sigs += [signature(random_generic(rng, n)) for n in [6] * 20 + [7] * 5]
    for sig in sigs:
        assert volume_polynomial(sig).v == signed_power_sum(sig)


def test_volume_matches_direct_power_sum() -> None:
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(4, 6)
        r = random_generic(rng, n)
        assert volume_polynomial(signature(r)).v.evaluate(tuple(r)) == direct_volume_value(r)


def test_empty_chambers_sum_to_zero() -> None:
    rng = random.Random(103)
    for _ in range(80):
        n = rng.randint(4, 6)
        r = random_empty(rng, n)
        assert volume_polynomial(signature(r)).v.evaluate(tuple(r)) == 0
        assert direct_volume_value(r) == 0


def test_volume_positive_on_all_nonempty_chambers(graph4, graph5) -> None:
    for graph in (graph4, graph5):
        for node in graph.nodes:
            value = volume_polynomial(node.signature).v.evaluate(tuple(node.representative))
            if node.empty:
                assert value == 0
            else:
                assert value > 0


def test_homogeneity_under_scaling() -> None:
    rng = random.Random(107)
    for _ in range(40):
        n = rng.randint(4, 6)
        r = random_generic(rng, n)
        scale = F(rng.randint(1, 7), rng.randint(1, 7))
        scaled = tuple(scale * x for x in r)
        v = volume_polynomial(signature(r)).v
        assert volume_polynomial(signature(LengthVector.from_values(scaled))).v.evaluate(scaled) == scale ** (
            n - 3
        ) * v.evaluate(tuple(r))


def test_euler_identity() -> None:
    # r·∇v = (n-3)·v for a homogeneous polynomial of degree n-3
    rng = random.Random(109)
    for _ in range(25):
        n = rng.randint(4, 6)
        sig = signature(random_nonempty(rng, n))
        v = volume_polynomial(sig).v
        graded = MultiPoly.zero(n)
        for i in range(n):
            alpha = [0] * n
            alpha[i] = 1
            graded = graded + MultiPoly.linear_form(alpha) * v.differentiate(alpha)
        assert graded == v * (n - 3)


def test_permutation_equivariance() -> None:
    rng = random.Random(113)
    for _ in range(30):
        n = rng.randint(4, 6)
        sig = signature(random_generic(rng, n))
        perm = list(range(n))
        rng.shuffle(perm)
        assert volume_polynomial(sig.permute(perm)).v == volume_polynomial(
            sig
        ).v.permute(perm)


def test_affine_presentation_agrees_on_unit_slice(graph4) -> None:
    conv = Convention.affine(2)
    for node in graph4.nodes:
        v = volume_polynomial(node.signature).v
        r = node.representative  # perimeter 1 by construction
        assert r.perimeter == 1
        sliced = apply_convention(conv, v)
        assert sliced.nvars == 3
        point = tuple(x for i, x in enumerate(r) if i != 1)
        assert sliced.evaluate(point) == v.evaluate(tuple(r))


def test_derivative_polynomial_examples(cp2_sig, blowup_sig) -> None:
    def derivative(vp, alpha, conv):
        return presented_volume(vp, conv).differentiate(conv.reduce_multiindex(alpha, vp.chamber.n))

    vp0 = volume_polynomial(cp2_sig)
    d = derivative(vp0, MultiIndex((0, 0, 2, 0, 0)), AFF5)
    assert d == MultiPoly.constant(4, 4)
    d = derivative(vp0, MultiIndex((0, 0, 2, 0, 0)), HOM)
    assert d == MultiPoly.constant(5, 1)

    vp1 = volume_polynomial(blowup_sig)
    d = derivative(vp1, MultiIndex((2, 0, 0, 0, 0)), AFF5)
    assert d == MultiPoly.constant(4, -4)
    # first-order derivative is still a polynomial, not a constant
    d = derivative(vp1, MultiIndex((1, 0, 0, 0, 0)), HOM)
    assert d == MultiPoly.linear_form([0, 2, -2, 2, 2])


def test_intersection_numbers(cp2_sig, blowup_sig) -> None:
    assert intersection_number(cp2_sig, MultiIndex((0, 0, 2, 0, 0)), AFF5) == 4
    assert intersection_number(blowup_sig, MultiIndex((2, 0, 0, 0, 0)), AFF5) == -4
    assert intersection_number(blowup_sig, MultiIndex((1, 0, 1, 0, 0)), AFF5) == -4
    assert intersection_number(blowup_sig, MultiIndex((0, 2, 0, 0, 0)), HOM) == 0
    assert intersection_number(cp2_sig, MultiIndex((0, 0, 2, 0, 0)), HOM) == 1


def test_intersection_number_errors(cp2_sig) -> None:
    with pytest.raises(WrongTotalDegree, match=r"\|alpha\| = 1, expected n-3 = 2"):
        intersection_number(cp2_sig, MultiIndex((0, 0, 1, 0, 0)), HOM)
    with pytest.raises(
        AffineIndexUsed, match="derivative in r_5 is not available under affine:5"
    ):
        intersection_number(cp2_sig, MultiIndex((0, 0, 0, 0, 2)), AFF5)
    with pytest.raises(ValueError, match="multi-index has length 4"):
        intersection_number(cp2_sig, MultiIndex((0, 0, 1, 1)), HOM)
    with pytest.raises(ValueError, match="affine index 7 exceeds n = 5"):
        intersection_number(cp2_sig, MultiIndex((0, 0, 2, 0, 0)), Convention.affine(7))


def test_wall_jump_closed_form(cp2_sig, blowup_sig) -> None:
    eps13 = MultiPoly.linear_form([1, -1, 1, -1, -1])
    flipped, jump = wall_jump(cp2_sig, blowup_sig)
    assert flipped.indices == (1, 3)
    assert jump == eps13**2 * F(-1, 2)

    flipped, jump = wall_jump(blowup_sig, cp2_sig)
    assert flipped.indices == (2, 4, 5)
    assert jump == eps13**2 * F(1, 2)

    with pytest.raises(NotAdjacent):
        wall_jump(cp2_sig, cp2_sig)


def test_wall_jump_depends_only_on_the_wall(graph5) -> None:
    # two crossings of the same oriented wall produce the same jump
    seen: dict[tuple, MultiPoly] = {}
    for source, target, wall in graph5.edges[:40]:
        key = (wall.index_set.mask, True)
        _, jump = wall_jump(
            graph5.nodes[source].signature, graph5.nodes[target].signature
        )
        if key in seen:
            assert seen[key] == jump
        seen[key] = jump
