"""Tests of the benchmark's oracles on the README's worked examples.

Run with ``python3 -m pytest perfbench``.  Nothing here imports
``polygonspace``: the oracles must stand on their own.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles as orc
import workloads as wls

CP2 = tuple(map(Fraction, ("3/20", "3/20", "2/5", "3/20", "3/20")))
BLOWUP = tuple(map(Fraction, ("3/60", "11/60", "24/60", "11/60", "11/60")))
PENTAGON = tuple(map(Fraction, ("19/100", "21/100", "20/100", "19/100", "21/100")))


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_cp2_chamber_volume_and_intersection() -> None:
    shorts = orc.short_masks(CP2)
    assert orc.is_external(5, shorts) and not orc.is_empty(5, shorts)
    assert orc.volume(5, shorts, CP2) == Fraction(1, 50)
    rng = random.Random(0)
    for _ in range(5):
        x = [Fraction(rng.randint(1, 50), rng.randint(1, 9)) for _ in range(5)]
        assert orc.volume(5, shorts, x) == Fraction(1, 2) * (x[0] + x[1] - x[2] + x[3] + x[4]) ** 2
    assert orc.intersection_number(5, shorts, (0, 0, 2, 0, 0)) == 1
    assert orc.betti_hk(5, shorts) == (1, 1, 1)


@pytest.mark.parametrize("r, betti", [(CP2, (1, 1, 1)), (BLOWUP, (1, 2, 1)), (PENTAGON, (1, 5, 1))])
def test_hausmann_knutson_count_for_every_side(r, betti) -> None:
    shorts = orc.short_masks(r)
    assert {orc.betti_hk(len(r), shorts, k) for k in range(len(r))} == {betti}


@pytest.mark.parametrize("r", [CP2, BLOWUP, PENTAGON])
def test_linear_annihilators_match_b2(r) -> None:
    """dim of the span of the ∂ᵢv is b₂: the two oracles agree (Macaulay duality)."""
    n, shorts = len(r), orc.short_masks(r)
    rng = random.Random(1)
    points = [[Fraction(rng.randint(1, 90), 7) for _ in range(n)] for _ in range(2 * n)]
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rows = [[orc.operator_on_volume(n, shorts, {u: Fraction(1)}, x) for u in units] for x in points]
    assert _rank(rows) == orc.betti_hk(n, shorts)[1]


def test_wall_crossing_from_cp2_to_blowup() -> None:
    """One crossing at t = 1/2 on the wall of {1,3}; the volume jumps by
    (−1)^q/(n−3)!·ε_I^{n−3} and b₂ grows by one."""
    (t, wall), = orc.segment_crossings(CP2, BLOWUP)
    assert (t, wall) == (Fraction(1, 2), orc.mask_of((1, 3)))
    before, after = orc.short_masks(CP2), orc.short_masks(BLOWUP)
    assert after == before - {0b11111 ^ wall} | {wall}
    x = [Fraction(k, 11) for k in (3, 5, 8, 2, 7)]
    eps = x[0] + x[2] - x[1] - x[3] - x[4]
    assert orc.volume(5, after, x) - orc.volume(5, before, x) == Fraction(-1, 2) * eps**2
    delta = [b - a for a, b in zip(orc.betti_hk(5, before), orc.betti_hk(5, after))]
    assert delta == [0, 1, 0]


def test_empty_chamber_volume_cancels() -> None:
    r = tuple(map(Fraction, (1, 1, 1, 1, 5)))
    shorts = orc.short_masks(r)
    assert orc.is_empty(5, shorts)
    assert orc.volume(5, shorts, [Fraction(k) for k in (2, 3, 5, 7, 11)]) == 0


@pytest.mark.parametrize("n, classes, chambers", [(3, 2, 4), (4, 3, 12), (5, 7, 81), (6, 21, 1684)])
def test_chamber_classes_under_permutation(n, classes, chambers) -> None:
    """Hausmann–Rodriguez count 2, 3, 7, 21 classes for n = 3..6, the empty
    chamber included; the orbit sizes add up to the chamber counts that
    `polygonspace chambers --n N --counts-only` reports (81 and 1684)."""
    assert orc.chamber_classes(n, 9) == (classes, chambers)
    assert orc.chamber_classes(n, 13) == (classes, chambers)


def test_inputs_depend_only_on_the_seed() -> None:
    assert wls.make_ring(3) == wls.make_ring(3)
    assert wls.make_ring(3)["cases"][0]["r"] != wls.make_ring(4)["cases"][0]["r"]
    assert wls.make_census(3) == wls.make_census(3)
