"""Wall-crossing reports, the path route to Betti numbers, cross-validation."""

from __future__ import annotations

import io
import json
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import factorial

import pytest

from polygonspace import (
    BadPartition,
    ChamberSignature,
    Convention,
    EmptyChamber,
    IndexSet,
    LengthVector,
    MultiPoly,
    NonGenericSegment,
    NotAdjacent,
    VolumePolynomial,
    adjacent_representative,
    betti_delta,
    betti_numbers,
    betti_via_path,
    canonical_form,
    crossing_report,
    external_representative,
    nudge_within_chamber,
    segment_crossings,
    signature,
    validate_chamber,
    volume_polynomial,
    wall_jump,
)
from polygonspace import cli, exactlp, wallcross
from polygonspace.chambers import _members
from polygonspace.ratpoly import monomial_exponents

from conftest import (
    BLOWUP_R,
    CP2_R,
    hankel_table,
    hausmann_knutson_betti,
    odd_perimeter_point,
    random_nonempty,
    short_masks,
    walk_betti,
)

F = Fraction

HOM = Convention.homogeneous()


def var(nvars: int, i: int) -> MultiPoly:
    return MultiPoly.variable(nvars, i - 1)


# ----------------------------------------------------------------- betti_delta


def test_betti_delta_examples() -> None:
    assert betti_delta(2, 3, 5) == (0, 1, 0)
    assert betti_delta(3, 2, 5) == (0, -1, 0)
    assert betti_delta(2, 2, 4) == (0, 0)
    assert betti_delta(2, 5, 7) == (0, 1, 1, 1, 0)
    assert betti_delta(1, 4, 5) == (1, 1, 1)
    assert betti_delta(4, 1, 5) == (-1, -1, -1)


def test_betti_delta_antisymmetry_and_sum() -> None:
    for n in range(3, 10):
        for p in range(1, n):
            q = n - p
            delta = betti_delta(p, q, n)
            assert len(delta) == n - 2
            mirrored = betti_delta(q, p, n)
            assert tuple(-d for d in delta) == mirrored
            assert sum(delta) == q - p
            # the support sits between degrees min(p,q)-1 and max(p,q)-2
            for d, value in enumerate(delta):
                if value:
                    assert min(p, q) - 1 <= d <= max(p, q) - 2


def test_betti_delta_rejects_bad_partitions() -> None:
    with pytest.raises(BadPartition):
        betti_delta(0, 5, 5)
    with pytest.raises(BadPartition):
        betti_delta(2, 2, 5)
    with pytest.raises(BadPartition):
        betti_delta(5, -1, 4)


# ------------------------------------------------------------- crossing report


def test_crossing_report_cp2_to_blowup(cp2_sig, blowup_sig) -> None:
    report = crossing_report(cp2_sig, blowup_sig)
    assert report.wall.index_set == IndexSet.from_indices(5, (1, 3))
    assert report.p == 2 and report.q == 3
    assert report.dies == "M_{2,4,5} = CP^0 (present before, absent after)"
    assert report.born == "M_{1,3} = CP^1 (absent before, present after)"
    assert report.betti_delta == (0, 1, 0)
    assert report.pd_born is not None
    assert report.pd_born.poly == -(var(5, 1) + var(5, 3))
    assert report.normal_chern is not None
    assert report.normal_chern.poly == -2 * var(5, 3)
    assert [c.power for c in report.decomposition_classes] == [0, 1]
    assert [c.is_zero for c in report.decomposition_classes] == [False, False]
    assert report.decomposition_classes[1].cls.poly == (
        (var(5, 1) + var(5, 3)) * 2 * var(5, 3)
    )


def test_crossing_report_reverse_direction(cp2_sig, blowup_sig) -> None:
    report = crossing_report(blowup_sig, cp2_sig)
    assert report.wall.index_set == IndexSet.from_indices(5, (2, 4, 5))
    assert report.p == 3 and report.q == 2
    assert report.betti_delta == (0, -1, 0)
    assert report.dies == "M_{1,3} = CP^1 (present before, absent after)"
    assert report.born == "M_{2,4,5} = CP^0 (absent before, present after)"
    # q < p: nothing is born in excess, no decomposition summands
    assert report.decomposition_classes == ()
    assert report.pd_born is not None
    assert report.pd_born.poly == (var(5, 4) + var(5, 2)) * (var(5, 5) + var(5, 2))


def test_crossing_report_singleton_wall_has_no_dual() -> None:
    # leaving an empty chamber: the whole space is born, dual formula
    # degenerates to an empty product and is omitted
    empty_r = LengthVector.parse("10,1,1,1")
    sig_empty = signature(empty_r)
    sig_near = sig_empty.flip(IndexSet.from_indices(4, (1,)))
    report = crossing_report(sig_empty, sig_near)
    assert report.p == 1 and report.q == 3
    assert report.betti_delta == (1, 1)
    assert report.born == "M_{1} = CP^1 (absent before, present after)"
    assert report.dies == "M_{2,3,4} = empty (present before, absent after)"
    assert report.pd_born is None
    assert report.normal_chern is None
    assert report.decomposition_classes == ()


def test_crossing_report_into_empty_chamber() -> None:
    # crossing that kills the whole space: formulas stay, every class is
    # zero because the after-chamber polynomial is zero
    sig_near = signature(LengthVector.parse("2,1,1,1"))
    sig_empty = sig_near.flip(IndexSet.from_indices(4, (2, 3, 4)))
    assert sig_empty.is_empty()
    report = crossing_report(sig_near, sig_empty)
    assert report.p == 3 and report.q == 1
    assert report.betti_delta == (-1, -1)
    assert report.born == "M_{2,3,4} = empty (absent before, present after)"
    assert report.pd_born is not None
    assert report.decomposition_classes == ()


def test_crossing_report_equal_split(graph4) -> None:
    for source, target, wall in graph4.edges:
        if wall.p != 2 or graph4.nodes[source].empty or graph4.nodes[target].empty:
            continue
        report = crossing_report(
            graph4.nodes[source].signature, graph4.nodes[target].signature
        )
        assert report.betti_delta == (0, 0)
        assert report.decomposition_classes[0].power == 0
        return
    raise AssertionError("no p = q = 2 edge between nonempty chambers at n = 4")


def test_crossing_report_requires_adjacency(cp2_sig, blowup_sig) -> None:
    with pytest.raises(NotAdjacent):
        crossing_report(cp2_sig, cp2_sig)
    far = signature(LengthVector.parse("19/100,21/100,20/100,19/100,21/100"))
    with pytest.raises(NotAdjacent):
        crossing_report(cp2_sig, far)


def test_decomposition_invariant_on_edges(graph5) -> None:
    # crossing with q > p: the first q-p summands pd·chern^a are nonzero in
    # the after chamber (they carry the new Betti classes)
    checked = 0
    for source, target, wall in graph5.edges:
        if graph5.nodes[target].empty or wall.p < 2:
            continue
        report = crossing_report(
            graph5.nodes[source].signature, graph5.nodes[target].signature
        )
        for cls in report.decomposition_classes[: max(report.q - report.p, 0)]:
            assert not cls.is_zero
        checked += 1
        if checked >= 40:
            break
    assert checked >= 10


# --------------------------------------------------------------- path recursion


def test_betti_via_path_examples() -> None:
    assert betti_via_path(CP2_R) == (1, 1, 1)
    assert betti_via_path(BLOWUP_R) == (1, 2, 1)
    near_equilateral = LengthVector.parse("19/100,21/100,20/100,19/100,21/100")
    assert betti_via_path(near_equilateral) == (1, 5, 1)
    for n in range(3, 8):
        assert betti_via_path(external_representative(n)) == tuple([1] * (n - 2))


def test_betti_via_path_anchor_independence() -> None:
    rng = random.Random(307)
    for _ in range(6):
        r = random_nonempty(rng, 5)
        rows = {betti_via_path(r, anchor_index=j) for j in range(1, 6)}
        assert len(rows) == 1


def test_anchor_shorts_are_the_external_representatives() -> None:
    for n in range(3, 15):
        for j in range(n):
            assert wallcross._anchor_shorts(n, j) == signature(external_representative(n, j + 1)).shorts
    r = LengthVector.parse("1,1,1,1,1")
    for bad in (0, 6):
        with pytest.raises(ValueError) as expected:
            external_representative(5, bad)
        with pytest.raises(ValueError) as raised:
            betti_via_path(r, anchor_index=bad)
        assert str(raised.value) == str(expected.value)


def test_betti_via_path_representative_independence(graph4) -> None:
    for node in graph4.nodes:
        if node.empty:
            continue
        base = betti_via_path(node.representative)
        moved = nudge_within_chamber(node.representative, 1)
        if moved is not None:
            assert betti_via_path(moved) == base


def test_betti_via_path_rejects_empty_target() -> None:
    with pytest.raises(EmptyChamber, match="polygon space is empty"):
        betti_via_path(LengthVector.parse("10,1,1,1"))


def test_betti_via_path_agrees_with_apolarity_sampled() -> None:
    rng = random.Random(311)
    for _ in range(15):
        n = rng.randint(4, 6)
        r = random_nonempty(rng, n)
        assert betti_via_path(r) == betti_numbers(signature(r), HOM)


def test_betti_via_path_matches_hausmann_knutson_large_n() -> None:
    rng = random.Random(421)
    for n in (9, 9, 10, 10, 11, 11, 12, 12):
        shorts: set[int] = set()
        while not all(1 << i in shorts for i in range(n)):  # nonempty
            r = odd_perimeter_point(rng, n)
            shorts = short_masks(r)
        assert betti_via_path(r) == hausmann_knutson_betti(n, shorts)
    # nearly equal sides tie many subset sums, so the segment from the anchor
    # meets several walls at one point; integer sums, because the Fraction
    # oracle takes seconds at n = 17
    for lengths in ([*range(100, 115), 116], [*range(100, 116), 117]):
        n, total = len(lengths), sum(lengths)
        shorts = {
            m for m in range(1, (1 << n) - 1)
            if 2 * sum(x for i, x in enumerate(lengths) if m >> i & 1) < total
        }
        assert betti_via_path(LengthVector.from_values(lengths)) == hausmann_knutson_betti(n, shorts)


def test_betti_via_path_equals_segment_walk(graph4, graph5) -> None:
    for graph in (graph4, graph5):
        for node in graph.nodes:
            if node.empty:
                continue
            r = node.representative
            for j in (None, *range(1, graph.n + 1)):
                assert betti_via_path(r, j) == walk_betti(r, j), (r, j)
    rng = random.Random(613)
    for n in range(6, 13):
        for _ in range(2):
            r = random_nonempty(rng, n)
            assert betti_via_path(r) == walk_betti(r)
            j = rng.randint(1, n)
            assert betti_via_path(r, j) == walk_betti(r, j)
    # its segment crosses two walls at once, so the walk has to nudge r
    tied = LengthVector.from_values([*range(100, 115), 116])
    with pytest.raises(NonGenericSegment):
        segment_crossings(external_representative(16, 16, perimeter=tied.perimeter), tied)
    assert betti_via_path(tied) == walk_betti(tied)


# ----------------------------------------------------------------- validation


def test_validate_chamber_reference_chambers(cp2_sig, blowup_sig) -> None:
    for sig, betti in ((cp2_sig, (1, 1, 1)), (blowup_sig, (1, 2, 1))):
        result = validate_chamber(sig)
        assert result.signature == sig
        assert result.betti_apolar == betti
        assert result.betti_path == betti
        assert result.betti_agree
        assert len(result.jump_checks) == len(sig.maximal_shorts)
        assert all(ok for _, ok in result.jump_checks)
        assert result.passed


def test_validate_chamber_reads_the_signature_alone(monkeypatch, graph5, graph6) -> None:
    # no LP solve, and no point signed: every nonempty n = 5 chamber and one
    # canonical chamber of each nonempty n = 6 class
    classes = {canonical_form(node.signature) for node in graph6.nodes if not node.empty}
    chambers = [node.signature for node in graph5.nodes if not node.empty] + sorted(classes, key=str)

    def forbidden(*args, **kwargs):
        raise AssertionError("validate_chamber needs no point of the chamber")

    monkeypatch.setattr(exactlp, "maximize", forbidden)
    monkeypatch.setattr(wallcross, "signature", forbidden)
    for sig in chambers:
        result = validate_chamber(sig)
        assert result.passed, sig
        assert result.betti_path == hausmann_knutson_betti(sig.n, set(_members(sig.shorts)))
    assert len(chambers) == 76 + 20


def test_validate_chamber_all_nonempty_n4(graph4) -> None:
    for node in graph4.nodes:
        if node.empty:
            continue
        result = validate_chamber(node.signature)
        assert result.passed, node.signature


def test_validate_chamber_rejects_empty() -> None:
    sig = signature(LengthVector.parse("10,1,1,1"))
    with pytest.raises(EmptyChamber, match="cannot validate the empty space"):
        validate_chamber(sig)


def test_validate_detects_a_wrong_jump(monkeypatch, blowup_sig) -> None:
    bad_wall = blowup_sig.maximal_shorts[0].complement
    true_table = wallcross._expected_table

    def flipped_table(n, exit_mask):
        table = true_table(n, exit_mask)
        if exit_mask == bad_wall.mask:
            table = [-table[0], *table[1:]]
        return table

    monkeypatch.setattr(wallcross, "_expected_table", flipped_table)
    result = validate_chamber(blowup_sig)
    assert result.betti_agree
    assert dict(result.jump_checks) == {
        short.complement: short.complement != bad_wall for short in blowup_sig.maximal_shorts
    }
    assert not result.passed
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["validate", "--r", ",".join(BLOWUP_R.to_strings())], out, err) == 1
    doc = json.loads(out.getvalue())
    assert doc["passed"] is False
    assert [c["ok"] for c in doc["jump_checks"]].count(False) == 1


def closed_form_jump(n: int, exit_mask: int) -> MultiPoly:
    """(−1)^q/(n−3)!·ε_I^(n−3), expanded by MultiPoly powers."""
    form = MultiPoly.linear_form([1 if exit_mask >> i & 1 else -1 for i in range(n)])
    return form ** (n - 3) * Fraction((-1) ** IndexSet(n, exit_mask).q, factorial(n - 3))


def test_integer_jump_check_agrees_with_wall_jump(graph5) -> None:
    # both orientations of every edge, against the right closed form and
    # against the one of the complementary set, which has the opposite sign
    for a, b, wall in graph5.edges:
        sig_a, sig_b = graph5.nodes[a].signature, graph5.nodes[b].signature
        for sig0, sig1, exit_set in ((sig_a, sig_b, wall.index_set),
                                     (sig_b, sig_a, wall.index_set.complement)):
            flipped, jump = wall_jump(sig0, sig1)
            assert flipped == exit_set
            for mask in (exit_set.mask, exit_set.complement.mask):
                agrees = wallcross._jump_agrees(volume_polynomial(sig0).integer_table, sig1, mask)
                assert agrees == (jump == closed_form_jump(5, mask))
                assert agrees == (mask == exit_set.mask)


def test_jump_check_divides_exactly(monkeypatch, cp2_sig, blowup_sig) -> None:
    # 2·e!·c_e is an integer for every coefficient of v; x1^2 (2·e! = 4) at
    # 2/3 instead of 1/2 would read 2·(4 // 3) = 2, the true value, if the
    # division were floored, so only an exact one fails the check here
    mask = cp2_sig.adjacent_pair_with(blowup_sig).mask
    true_vp = wallcross.volume_polynomial
    vp = true_vp(cp2_sig)
    assert wallcross._jump_agrees(vp.integer_table, blowup_sig, mask)
    assert wallcross._jump_agrees(true_vp(blowup_sig).integer_table, cp2_sig, (1 << 5) - 1 ^ mask)
    assert vp.v.coefficient((2, 0, 0, 0, 0)) == Fraction(1, 2)
    # a record of the same chamber whose expanded v is off in that one coefficient
    off = VolumePolynomial(cp2_sig, vp.walsh)
    vars(off)["v"] = MultiPoly(5, {**dict(vp.v.terms()), (2, 0, 0, 0, 0): Fraction(2, 3)})
    monkeypatch.setattr(wallcross, "volume_polynomial", lambda sig: off if sig == cp2_sig else true_vp(sig))
    assert off.integer_table is None
    assert not wallcross._jump_agrees(off.integer_table, blowup_sig, mask)
    assert not wallcross._jump_agrees(true_vp(blowup_sig).integer_table, cp2_sig, (1 << 5) - 1 ^ mask)


def test_jump_check_rejects_a_term_outside_the_top_degree(cp2_sig) -> None:
    vp = volume_polynomial(cp2_sig)
    off = VolumePolynomial(cp2_sig, vp.walsh)
    vars(off)["v"] = vp.v + MultiPoly.variable(5, 0)
    assert vp.integer_table is not None and off.integer_table is None


def _count_builds(monkeypatch, name: str) -> Counter:
    """Wrap the cached property `name` of VolumePolynomial to count its builds per chamber."""
    built, build = Counter(), getattr(VolumePolynomial, name).func

    def counted(vp):
        built[vp.chamber] += 1
        return build(vp)

    prop = cached_property(counted)
    prop.__set_name__(VolumePolynomial, name)
    monkeypatch.setattr(VolumePolynomial, name, prop)
    return built


def test_validate_builds_each_table_once_per_record(monkeypatch) -> None:
    # a whole-graph validate expands v and builds the integer table once per
    # distinct chamber, itself or a neighbour across a wall; the tables live
    # on the cached records, so clearing the cache builds them again
    expanded, tables = _count_builds(monkeypatch, "v"), _count_builds(monkeypatch, "integer_table")
    for run in (1, 2):
        volume_polynomial.cache_clear()
        assert cli.run(["validate", "--n", "5"], io.StringIO(), io.StringIO()) == 0
        assert len(tables) == 81 and set(tables.values()) == {run}
        assert expanded == tables


def test_jump_checks_name_exit_walls(cp2_sig) -> None:
    result = validate_chamber(cp2_sig)
    named = {exit_set for exit_set, _ in result.jump_checks}
    expected = {short.complement for short in cp2_sig.maximal_shorts}
    assert named == expected


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_expected_jump_cache_matches_linear_form_power(n: int) -> None:
    # the ±1 table is the Hankel table of the closed form expanded by powers
    for mask in range(1, (1 << n) - 1):
        table, scale = hankel_table(closed_form_jump(n, mask))
        cached = wallcross._expected_table(n, mask)
        assert scale == 1
        assert cached == [2 * table[e] for e in monomial_exponents(n, n - 3)]
        assert wallcross._expected_table(n, mask) is cached
