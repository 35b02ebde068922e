"""Chamber combinatorics: epsilons, signatures, walls, and enumeration."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from polygonspace import (
    BudgetExceeded,
    ChamberSignature,
    DegenerateWall,
    IndexSet,
    LengthVector,
    NonGenericSegment,
    NotAFacet,
    SingularLength,
    adjacent_representative,
    canonical_form,
    enumerate_chambers,
    epsilon,
    external_representative,
    nudge_within_chamber,
    representative,
    segment_crossings,
    signature,
)
from polygonspace import chambers, exactlp
from polygonspace.chambers import _complete, _max_margin_point, _maximal, _members, _selectors

from conftest import (
    BLOWUP_R,
    CP2_R,
    is_generic_point,
    long_sets,
    maximal_masks,
    odd_perimeter_point,
    reference_canonical_form,
    random_empty,
    random_generic,
    random_nonempty,
    reference_walk,
    short_masks,
)

F = Fraction


def iset(n: int, *indices: int) -> IndexSet:
    return IndexSet.from_indices(n, indices)


# ---------------------------------------------------------------- basic types


def test_length_vector_parse_and_validate() -> None:
    r = LengthVector.parse("3/20, 3/20, 2/5, 0.15, 3/20")
    assert r.n == 5
    assert r.lengths == CP2_R.lengths
    assert r.perimeter == 1
    assert str(r) == "(3/20, 3/20, 2/5, 3/20, 3/20)"
    with pytest.raises(ValueError):
        LengthVector.parse("1,2")  # fewer than 3 sides
    with pytest.raises(ValueError):
        LengthVector.parse("1,2,-3")
    with pytest.raises(ValueError):
        LengthVector.parse("1,0,3")


def test_index_set_basics() -> None:
    I = iset(5, 1, 3)
    assert I.p == 2 and I.q == 3
    assert I.indices == (1, 3)
    assert I.complement.indices == (2, 4, 5)
    assert str(I) == "{1,3}"
    assert I.contains(3) and not I.contains(2)
    assert I.is_subset_of(iset(5, 1, 2, 3))
    with pytest.raises(ValueError):
        iset(5, 0, 2)
    with pytest.raises(ValueError):
        iset(5, 1, 6)
    with pytest.raises(ValueError):
        iset(4, 2, 2)


def test_index_set_permute() -> None:
    # position i relabels to perm[i] (0-based)
    I = iset(4, 1, 3)
    assert I.permute((1, 0, 3, 2)).indices == (2, 4)


# ------------------------------------------------------------------- epsilon


def test_epsilon_examples() -> None:
    square = LengthVector.parse("1/4,1/4,1/4,1/4")
    assert epsilon(square, iset(4, 1, 2)) == 0
    assert epsilon(CP2_R, iset(5, 3)) == F(-1, 5)
    assert epsilon(CP2_R, iset(5, 1, 3)) == F(1, 10)
    with pytest.raises(ValueError):
        epsilon(CP2_R, iset(4, 1))


def test_epsilon_antisymmetry() -> None:
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(3, 6)
        r = random_generic(rng, n)
        mask = rng.randint(1, (1 << n) - 2)
        I = IndexSet(n, mask)
        assert epsilon(r, I) == -epsilon(r, I.complement)
        assert epsilon(r, I) != 0


# ------------------------------------------------------- long sets, emptiness


def test_long_sets_of_cp2_chamber() -> None:
    longs = set(long_sets(signature(CP2_R)))
    expected = (
        [iset(5, 3, j) for j in (1, 2, 4, 5)]
        + [
            iset(5, *sorted((3, a, b)))
            for a, b in [(1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (4, 5)]
        ]
        + [iset(5, *sorted(set(range(1, 6)) - {j})) for j in range(1, 6)]
    )
    assert longs == set(expected)
    assert len(longs) == 15


def test_long_sets_triangle_and_empty() -> None:
    triangle = LengthVector.parse("1,1,1")
    assert long_sets(signature(triangle)) == [iset(3, 1, 2), iset(3, 1, 3), iset(3, 2, 3)]
    spear = LengthVector.parse("10,1,1,1")
    assert not signature(spear).is_short(iset(4, 1))
    assert signature(spear).is_empty()
    assert not signature(LengthVector.parse("2,1,1,1")).is_empty()


def test_singular_inputs_raise_with_witness() -> None:
    with pytest.raises(SingularLength) as info:
        signature(LengthVector.parse("1,1,1,1"))
    assert info.value.index_set == iset(4, 1, 2)
    assert "epsilon vanishes for I = {1,2}" in str(info.value)

    with pytest.raises(SingularLength) as info:
        signature(LengthVector.parse("1,2,3"))
    assert info.value.index_set == iset(3, 3)


# ---------------------------------------------------------------- signatures


def test_signature_triangle() -> None:
    sig = signature(LengthVector.parse("1,1,1"))
    assert sig.to_lists() == [[1], [2], [3]]
    assert sig.is_external()
    assert not sig.is_empty()


def test_signature_cp2_chamber(cp2_sig: ChamberSignature) -> None:
    assert cp2_sig.to_lists() == [[3], [1, 2, 4], [1, 2, 5], [1, 4, 5], [2, 4, 5]]
    assert cp2_sig.is_external()
    assert not cp2_sig.is_empty()
    assert cp2_sig.is_short(iset(5, 3))
    assert not cp2_sig.is_short(iset(5, 1, 3))


def test_signature_blowup_chamber(blowup_sig: ChamberSignature) -> None:
    assert blowup_sig.to_lists() == [[1, 3], [1, 2, 4], [1, 2, 5], [1, 4, 5]]
    assert not blowup_sig.is_external()
    assert not blowup_sig.is_empty()
    # the two chambers differ exactly in the pair {1,3}/{2,4,5}
    assert blowup_sig.adjacent_pair_with(signature(CP2_R)) == iset(5, 2, 4, 5)
    assert signature(CP2_R).adjacent_pair_with(blowup_sig) == iset(5, 1, 3)


def test_signature_all_pairs_short() -> None:
    r = LengthVector.parse("19/100,21/100,20/100,19/100,21/100")
    sig = signature(r)
    assert len(sig.maximal_shorts) == 10
    assert all(s.p == 2 for s in sig.maximal_shorts)
    assert not sig.is_external()


def test_signature_validation() -> None:
    with pytest.raises(ValueError):
        ChamberSignature.from_lists(4, [[1], [1, 2]])  # nested sets
    with pytest.raises(ValueError):
        ChamberSignature.from_lists(4, [[1]])  # pairs left unclassified
    with pytest.raises(ValueError):
        ChamberSignature(4, 0)
    # the bitset itself: bit m is set when the set of mask m is short
    sig = signature(CP2_R)
    n, shorts = sig.n, sig.shorts
    assert ChamberSignature(n, shorts) == sig
    for outside in (0, (1 << n) - 1):  # the empty and the full mask
        with pytest.raises(ValueError, match="proper and nonempty"):
            ChamberSignature(n, shorts | 1 << outside)
    # {1,2} ⊂ {1,2,4} leaves the shorts and {3,4,5} joins them: every pair
    # stays classified once, but the family is no longer down-closed
    swapped = shorts & ~(1 << iset(5, 1, 2).mask) | 1 << iset(5, 3, 4, 5).mask
    with pytest.raises(ValueError, match="subset of a short set"):
        ChamberSignature(n, swapped)
    with pytest.raises(ValueError, match="do not classify the pair"):
        ChamberSignature(n, shorts & ~(1 << iset(5, 1, 2, 4).mask))  # a maximal set


def test_signature_matches_brute_force_maximality() -> None:
    rng = random.Random(401)
    for k in range(200):
        n = 3 + k % 8
        r = odd_perimeter_point(rng, n)
        shorts = short_masks(r)
        sig = signature(r)
        assert {s.mask for s in sig.maximal_shorts} == maximal_masks(n, shorts)
        assert list(sig.maximal_shorts) == sorted(sig.maximal_shorts, key=lambda s: s.sort_key)
        assert list(sig.maximal_shorts) == sorted(sig.maximal_shorts, key=lambda s: (s.p, s.indices))
        assert sig.is_external() == any(1 << i in maximal_masks(n, shorts) for i in range(n))
        assert {m for m in range(1 << n) if sig.shorts >> m & 1} == shorts
        assert {s.mask for s in long_sets(sig)} == set(range(1, (1 << n) - 1)) - shorts
        assert signature(r).shorts == sig.shorts
        assert sig.is_empty() == signature(r).is_empty() == any(1 << i not in shorts for i in range(n))


def test_signature_validation_rejects_bad_families_n6() -> None:
    sig = signature(LengthVector.parse("1,2,3,4,5,6"))  # odd perimeter: generic
    lists = sig.to_lists()
    top = next(ix for ix in lists if len(ix) > 1)
    with pytest.raises(ValueError, match="is contained in"):
        ChamberSignature.from_lists(6, lists + [top[:-1]])
    with pytest.raises(ValueError, match="do not classify the pair"):
        ChamberSignature.from_lists(6, [ix for ix in lists if ix != top])
    # a long set holding no short set: listing it makes both of its pair short
    free = next(L for L in long_sets(sig) if not any(s.is_subset_of(L) for s in sig.maximal_shorts))
    with pytest.raises(ValueError, match="do not classify the pair"):
        ChamberSignature.from_lists(6, lists + [list(free.indices)])
    with pytest.raises(ValueError, match="duplicate"):
        ChamberSignature.from_lists(6, lists + [top])
    with pytest.raises(ValueError, match="at least one"):
        ChamberSignature.from_lists(6, [])
    assert ChamberSignature.from_lists(6, list(reversed(lists))) == sig


def test_signature_round_trip_and_flip(cp2_sig: ChamberSignature) -> None:
    again = ChamberSignature.from_lists(5, cp2_sig.to_lists())
    assert again == cp2_sig
    flipped = cp2_sig.flip(iset(5, 1, 3))
    assert flipped == signature(BLOWUP_R)
    assert flipped.flip(iset(5, 2, 4, 5)) == cp2_sig
    with pytest.raises(NotAFacet):
        cp2_sig.flip(iset(5, 3))  # short set
    with pytest.raises(NotAFacet):
        cp2_sig.flip(iset(5, 1, 2, 3))  # long, but {4,5} is not maximal short


def test_signature_equivariance_and_scaling() -> None:
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(3, 6)
        r = random_generic(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = LengthVector.from_values([r[perm.index(i)] for i in range(n)])
        assert signature(permuted) == signature(r).permute(perm)
        scale = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = LengthVector.from_values([scale * x for x in r])
        assert signature(scaled) == signature(r)


def test_canonical_form_identifies_relabelings() -> None:
    a = signature(LengthVector.parse("10,1,1,1,1,10,10"))
    perm = (2, 0, 4, 6, 1, 3, 5)
    assert canonical_form(a.permute(perm)) == canonical_form(a)


def _classes(graph, form) -> set[frozenset[int]]:
    by_form: dict[ChamberSignature, set[int]] = {}
    for i, node in enumerate(graph.nodes):
        by_form.setdefault(form(node.signature), set()).add(i)
    return {frozenset(members) for members in by_form.values()}


@pytest.mark.parametrize("fixture", ["graph4", "graph5"])
def test_canonical_form_splits_like_the_relabeling_search(fixture: str, request) -> None:
    graph = request.getfixturevalue(fixture)
    assert _classes(graph, canonical_form) == _classes(graph, reference_canonical_form)


@pytest.mark.parametrize("fixture, classes", [("graph3", 2), ("graph4", 3), ("graph5", 7), ("graph6", 21)])
def test_canonical_form_class_counts(fixture: str, classes: int, request) -> None:
    graph = request.getfixturevalue(fixture)
    assert len(_classes(graph, canonical_form)) == classes
    rng = random.Random(graph.n)
    for node in graph.nodes:
        perm = list(range(graph.n))
        rng.shuffle(perm)
        form = canonical_form(node.signature)
        assert canonical_form(node.signature.permute(perm)) == form
        # sides sorted by how many short sets hold them, most first
        counts = [(form.shorts & sel).bit_count() for sel in _selectors(graph.n)]
        assert counts == sorted(counts, reverse=True)
        assert form.shorts.bit_count() == node.signature.shorts.bit_count()


def test_canonical_form_rejects_an_incomplete_family() -> None:
    # short {1,2,3} but long {2,3,6}, short {2,5,6} but long {1,2,5}: sides 1
    # and 6 are not comparable, so no length vector has this family
    family = ChamberSignature.from_lists(
        6, [[1, 2, 3], [1, 4, 5], [2, 4, 6], [2, 5, 6], [3, 4, 6], [3, 5, 6], [2, 3, 4, 5]]
    )
    with pytest.raises(ValueError, match="not a complete family"):
        canonical_form(family)


# ------------------------------------------------------------ representatives


def test_external_representative_properties() -> None:
    for n in range(3, 10):
        r = external_representative(n)
        assert r.n == n and r.perimeter == 1
        sig = signature(r)
        assert sig.is_external() and not sig.is_empty()
    r = external_representative(5, j=3, perimeter=2)
    assert r.perimeter == 2
    assert iset(5, 3) in signature(r).maximal_shorts
    with pytest.raises(ValueError):
        external_representative(5, j=6)
    with pytest.raises(ValueError):
        external_representative(5, perimeter=0)


def test_representative_realizes_signature(graph4) -> None:
    for node in graph4.nodes:
        r = representative(node.signature)
        assert r.perimeter == 1
        assert signature(r) == node.signature
    scaled = representative(graph4.nodes[0].signature, perimeter=3)
    assert scaled.perimeter == 3
    with pytest.raises(ValueError):
        representative(graph4.nodes[0].signature, perimeter=-1)


def test_representative_on_degenerate_wall_chamber() -> None:
    # regression: the margin LP for this chamber once returned an infeasible
    # point under an inexact solver, producing a wrong signature downstream
    sig = ChamberSignature.from_lists(
        5, [[1, 3], [2, 3], [4, 5], [1, 2, 4], [1, 2, 5]]
    )
    r = representative(sig)
    assert signature(r) == sig


def test_nudge_within_chamber() -> None:
    r = CP2_R
    found = None
    for k in range(1, 30):
        candidate = nudge_within_chamber(r, k)
        if candidate is not None:
            found = candidate
            break
    assert found is not None
    assert found.lengths != r.lengths
    assert found.perimeter == r.perimeter
    assert signature(found) == signature(r)
    with pytest.raises(ValueError):
        nudge_within_chamber(r, 0)


# ------------------------------------------------------------- wall crossing


def test_adjacent_representative_contract() -> None:
    wall_point, after = adjacent_representative(CP2_R, iset(5, 1, 3))
    assert wall_point.perimeter == 1 and after.perimeter == 1
    assert epsilon(wall_point, iset(5, 1, 3)) == 0
    # every non-crossed pair keeps its sign at the wall point
    sig = signature(CP2_R)
    for mask in range(1, (1 << 5) - 1):
        I = IndexSet(5, mask)
        if I.mask in (iset(5, 1, 3).mask, iset(5, 2, 4, 5).mask):
            continue
        e = epsilon(wall_point, I)
        assert e != 0
        assert (e < 0) == sig.is_short(I)
    assert signature(after) == sig.flip(iset(5, 1, 3))
    assert signature(after) == signature(BLOWUP_R)


def test_adjacent_representative_into_empty_chamber() -> None:
    r = LengthVector.parse("2,1,1,1")
    _, after = adjacent_representative(r, iset(4, 2, 3, 4))
    assert signature(after).is_empty()
    assert epsilon(after, iset(4, 1)) > 0


def test_adjacent_representative_rejects_non_facets() -> None:
    with pytest.raises(NotAFacet):
        adjacent_representative(CP2_R, iset(5, 3))  # short set
    with pytest.raises(NotAFacet):
        adjacent_representative(CP2_R, iset(5, 1, 2, 3))  # no facet there


def _full_row_margin_lp(sig, sums, skip=()):
    """The max-margin LP with a row for every complementary pair (oracle).

    Same variables and objective as the library's facet-row LP: x ≥ λ, the
    equalities Σ_{i∈m} xᵢ = value, and sign·ε_J(x) ≥ λ for every pair not
    skipped.  Returns (λ, x, unique) or None as exactlp.maximize does.
    """
    n = sig.n
    ge_rows = []
    for mask in range(1, (1 << n) - 1, 2):
        if mask in skip:
            continue
        sign = -1 if sig.is_short(IndexSet(n, mask)) else 1
        ge_rows.append(([sign if mask >> i & 1 else -sign for i in range(n)] + [-1], 0))
    ge_rows += [([int(j == i) for j in range(n)] + [-1], 0) for i in range(n)]
    eq_rows = [
        ([value.denominator if mask >> i & 1 else 0 for i in range(n)] + [0], value.numerator)
        for mask, value in sums
    ]
    return exactlp.maximize([0] * n + [1], eq_rows, ge_rows)


def _margin(x, sig, skip=()):
    """min(xᵢ, |ε_J(x)| over the pairs not skipped), in Fractions."""
    n, total = sig.n, sum(x)
    slacks = list(x)
    for mask in range(1, (1 << n) - 1, 2):
        if mask not in skip:
            slacks.append(abs(2 * sum(v for i, v in enumerate(x) if mask >> i & 1) - total))
    return min(slacks)


def test_facet_row_lp_matches_full_lp(graph4, graph5) -> None:
    for graph in (graph4, graph5):
        n, full = graph.n, (1 << graph.n) - 1
        for node in graph.nodes:
            sig = node.signature
            solved = _full_row_margin_lp(sig, [(full, F(1))])
            assert solved is not None and solved[0] > 0
            rep = representative(sig)
            assert rep.lengths == solved[1][:n]
            assert _margin(rep.lengths, sig) == solved[0]
            for short in sig.maximal_shorts:
                pair = (short.complement.mask, short.mask)
                sums = [(m, F(1, 2)) for m in pair]
                canonical = tuple(m for m in pair if m & 1)
                facet = _max_margin_point(n, sig.shorts, sums, skip=canonical)
                solved = _full_row_margin_lp(sig, sums, skip=canonical)
                if solved is None or solved[0] <= 0:
                    assert facet is None
                    continue
                assert facet is not None and facet[0] == solved[1][:n]
                assert _margin(facet[0], sig, canonical) == solved[0]


def _wall_point_valid(x, sig, I) -> bool:
    """Positive, ε_I(x) = 0 and every other pair strictly on its chamber side."""
    n, total = sig.n, sum(x)
    if any(v <= 0 for v in x):
        return False
    for mask in range(1, (1 << n) - 1):
        twice = 2 * sum(v for i, v in enumerate(x) if mask >> i & 1)
        if mask in (I.mask, I.complement.mask):
            if twice != total:
                return False
        elif twice == total or (twice < total) != sig.is_short(IndexSet(n, mask)):
            return False
    return True


def _in_chamber(x, sig) -> bool:
    if any(v <= 0 for v in x):
        return False
    try:
        return signature(LengthVector.from_values(x)) == sig
    except SingularLength:
        return False


def test_integer_crossing_is_exact() -> None:
    # the wall point is the first valid one of r + (ε_I/2)·u, r scaled to
    # P/2 on each side, and the facet LP's point, all made here in Fractions
    rng = random.Random(401)
    hits = [0, 0, 0]
    for n in range(4, 8):
        for _ in range(4):
            r = random_generic(rng, n)
            sig = signature(r)
            P = r.perimeter
            for short in sig.maximal_shorts:
                I = short.complement
                u = [F(-1, I.p) if I.contains(i + 1) else F(1, I.q) for i in range(n)]
                e = epsilon(r, I)
                inside = sum(x for i, x in enumerate(r) if I.contains(i + 1))
                scale = [P / 2 / (inside if I.contains(i + 1) else P - inside) for i in range(n)]
                canonical = tuple(m for m in (I.mask, short.mask) if m & 1)
                solved = _full_row_margin_lp(sig, [(I.mask, P / 2), (short.mask, P / 2)], canonical)
                candidates = [
                    tuple(x + e / 2 * ux for x, ux in zip(r, u)),
                    tuple(x * c for x, c in zip(r, scale)),
                    solved[1][:n] if solved is not None and solved[0] > 0 else (F(0),) * n,
                ]
                valid = [_wall_point_valid(c, sig, I) for c in candidates]
                try:
                    wall_point, after = adjacent_representative(r, I)
                except DegenerateWall:
                    assert not any(valid)
                    continue
                k = valid.index(True)
                hits[k] += 1
                assert wall_point.lengths == candidates[k]
                target = sig.flip(I)
                delta = P / 4
                while not _in_chamber([w + delta * ux for w, ux in zip(wall_point, u)], target):
                    delta /= 2
                assert after.lengths == tuple(w + delta * ux for w, ux in zip(wall_point, u))
    assert all(hits), hits


def test_segment_crossings_examples() -> None:
    crossings = segment_crossings(CP2_R, BLOWUP_R)
    assert len(crossings) == 1
    t, wall = crossings[0]
    assert t == F(1, 2)
    assert wall.index_set == iset(5, 1, 3)

    assert segment_crossings(CP2_R, CP2_R) == []

    r0 = LengthVector.parse("1,1,1")
    r1 = LengthVector.parse("9/5,3/5,3/5")
    crossings = segment_crossings(r0, r1)
    assert len(crossings) == 1
    t, wall = crossings[0]
    assert t == F(5, 8)
    assert wall.index_set == iset(3, 2, 3)


def test_segment_crossings_reverse_symmetry() -> None:
    rng = random.Random(31)
    done = 0
    while done < 25:
        n = rng.randint(3, 5)
        a = random_generic(rng, n)
        scale = a.perimeter
        b = random_generic(rng, n)
        b = LengthVector.from_values([x * scale / b.perimeter for x in b])
        if not is_generic_point(b):
            continue
        try:
            forward = segment_crossings(a, b)
            backward = segment_crossings(b, a)
        except NonGenericSegment:
            continue
        assert len(forward) == len(backward)
        for (tf, wf), (tb, wb) in zip(forward, reversed(backward)):
            assert tf == 1 - tb
            assert wf.index_set == wb.index_set.complement
        done += 1


def test_segment_crossings_match_direct_fractions() -> None:
    rng = random.Random(419)
    for k in range(40):
        n = 4 + k % 6
        a, b = odd_perimeter_point(rng, n, 60), odd_perimeter_point(rng, n, 60)
        expected = []
        for mask in range(1, (1 << n) - 1, 2):
            I = IndexSet(n, mask)
            e0, e1 = epsilon(a, I), epsilon(b, I)
            if (e0 > 0) != (e1 > 0):
                expected.append((e0 / (e0 - e1), I if e0 > 0 else I.complement))
        expected.sort(key=lambda c: c[0])
        try:
            crossings = segment_crossings(a, b)
        except NonGenericSegment as exc:
            ts = [t for t, _ in expected]
            assert ts.count(exc.t) > 1
            continue
        assert [(t, w.index_set) for t, w in crossings] == expected
        assert all(type(t) is Fraction for t, _ in crossings)


def test_segment_crossings_errors() -> None:
    with pytest.raises(ValueError, match="mismatched lengths"):
        segment_crossings(LengthVector.parse("1,1,1,1/2"), CP2_R)
    with pytest.raises(ValueError, match="perimeter changes"):
        segment_crossings(LengthVector.parse("1,1,1"), LengthVector.parse("1,1,2"))
    with pytest.raises(SingularLength):
        segment_crossings(
            LengthVector.parse("1,1,1,1"), LengthVector.parse("2,1,1/2,1/2")
        )
    # two distinct walls vanish at the midpoint
    with pytest.raises(NonGenericSegment) as info:
        segment_crossings(
            LengthVector.parse("1,2,4,8"), LengthVector.parse("2,1,8,4")
        )
    assert info.value.t == F(1, 2)


def test_wall_orientation_is_long_before() -> None:
    rng = random.Random(41)
    done = 0
    while done < 20:
        a = random_generic(rng, 4)
        b = random_generic(rng, 4)
        b = LengthVector.from_values([x * a.perimeter / b.perimeter for x in b])
        if not is_generic_point(b):
            continue
        try:
            crossings = segment_crossings(a, b)
        except NonGenericSegment:
            continue
        for t, wall in crossings:
            before = LengthVector.from_values(
                [x + (t / 2) * (y - x) for x, y in zip(a, b)]
            )
            assert epsilon(before, wall.index_set) > 0
        done += 1


# ------------------------------------------------------------- chamber graph


def test_census_n3(graph3) -> None:
    assert len(graph3.nodes) == 4
    assert sum(1 for node in graph3.nodes if not node.empty) == 1
    assert sum(1 for node in graph3.nodes if node.empty) == 3
    assert len(graph3.edges) == 3


def test_census_n4(graph4) -> None:
    assert len(graph4.nodes) == 12
    assert sum(1 for node in graph4.nodes if not node.empty) == 8
    assert sum(1 for node in graph4.nodes if node.empty) == 4
    assert sum(1 for node in graph4.nodes if node.external) == 4
    assert len(graph4.edges) == 16


def test_census_n5(graph5) -> None:
    assert len(graph5.nodes) == 81
    assert sum(1 for node in graph5.nodes if not node.empty) == 76
    assert sum(1 for node in graph5.nodes if node.empty) == 5
    assert sum(1 for node in graph5.nodes if node.external) == 5
    assert len(graph5.edges) == 185


def test_graph_nodes_are_consistent(graph5) -> None:
    seen = set()
    for node in graph5.nodes:
        assert signature(node.representative) == node.signature
        assert node.empty == node.signature.is_empty()
        assert node.external == node.signature.is_external()
        assert node.signature not in seen
        seen.add(node.signature)


def test_graph_edges_are_facet_adjacencies(graph4, graph5) -> None:
    for graph in (graph4, graph5):
        for source, target, wall in graph.edges:
            src = graph.nodes[source]
            dst = graph.nodes[target]
            assert src.signature.adjacent_pair_with(dst.signature) == wall.index_set
            assert epsilon(src.representative, wall.index_set) > 0
            assert epsilon(dst.representative, wall.index_set) < 0


def test_edges_are_exactly_the_one_pair_neighbors(graph4, graph5, graph6) -> None:
    # the walk records an edge to a chamber it already holds without crossing
    # the wall; brute force over node pairs: one flipped pair means adjacent
    for graph in (graph4, graph5, graph6):
        ones = _selectors(graph.n)[0]  # one member of each complementary pair
        keys = [node.signature.shorts & ones for node in graph.nodes]
        one_pair = {
            (i, j)
            for i in range(len(keys))
            for j in range(i + 1, len(keys))
            if (keys[i] ^ keys[j]).bit_count() == 1
        }
        assert {(min(a, b), max(a, b)) for a, b, _ in graph.edges} == one_pair
        assert len(graph.edges) == len(one_pair)


def test_flip_and_adjacency_match_set_definitions(graph5) -> None:
    n = 5
    full = (1 << n) - 1
    shorts = [{m for m in range(1 << n) if node.signature.shorts >> m & 1} for node in graph5.nodes]
    for source, target, wall in graph5.edges:
        I = wall.index_set
        expected = shorts[source] - {full ^ I.mask} | {I.mask}
        assert expected == shorts[target]
        flipped = graph5.nodes[source].signature.flip(I)
        assert {s.mask for s in flipped.maximal_shorts} == maximal_masks(n, expected)
        assert flipped == graph5.nodes[target].signature
    # flip builds the neighbour unchecked; the checks would pass on every wall
    for node in graph5.nodes:
        for I in (short.complement for short in node.signature.maximal_shorts):
            flipped = node.signature.flip(I)
            assert ChamberSignature(n, flipped.shorts) == flipped
    for i, a in enumerate(graph5.nodes):
        for j, b in enumerate(graph5.nodes):
            differ = [m for m in range(1, full, 2) if (m in shorts[i]) != (m in shorts[j])]
            expected = None
            if len(differ) == 1:
                m = differ[0]
                expected = IndexSet(n, full ^ m if m in shorts[i] else m)
            assert a.signature.adjacent_pair_with(b.signature) == expected


def test_graph_contains_sampled_chambers(graph4, graph5) -> None:
    rng = random.Random(53)
    sigs4 = {node.signature for node in graph4.nodes}
    sigs5 = {node.signature for node in graph5.nodes}
    for _ in range(1500):
        assert signature(random_generic(rng, 4)) in sigs4
    for _ in range(3000):
        assert signature(random_generic(rng, 5)) in sigs5


def test_graph_contains_worked_example_edge(graph5, cp2_sig, blowup_sig) -> None:
    index_of = {node.signature: k for k, node in enumerate(graph5.nodes)}
    i = index_of[cp2_sig]
    j = index_of[blowup_sig]
    connecting = [
        (s, t, wall)
        for s, t, wall in graph5.edges
        if {s, t} == {i, j}
    ]
    assert len(connecting) == 1
    s, _, wall = connecting[0]
    expected = iset(5, 1, 3) if s == i else iset(5, 2, 4, 5)
    assert wall.index_set == expected


def test_graph_budget_and_range() -> None:
    with pytest.raises(BudgetExceeded, match="more than 10 chambers at n = 5"):
        enumerate_chambers(5, max_nodes=10)
    with pytest.raises(ValueError, match="outside the tractable range"):
        enumerate_chambers(2)
    for n in (8, 10):
        with pytest.raises(ValueError, match=f"n = {n} outside the tractable range 3..7"):
            enumerate_chambers(n)
    for budget in (0, -3):
        with pytest.raises(ValueError, match="max_nodes must be at least 1"):
            enumerate_chambers(4, max_nodes=budget)


def _flip_targets(graph) -> list[int]:
    """The family beyond each wall of each node, one per maximal short set."""
    n, full = graph.n, (1 << graph.n) - 1
    return [
        node.signature.shorts & ~(1 << m) | 1 << (full ^ m)
        for node in graph.nodes
        for m in _members(_maximal(n, node.signature.shorts))
    ]


def test_every_chamber_passes_the_completeness_test(graph5, graph6) -> None:
    for graph in (graph5, graph6):
        assert all(_complete(graph.n, node.signature.shorts) for node in graph.nodes)
    # the graphs are walked with the test, so also sign points it never saw
    rng = random.Random(71)
    for n in range(3, 10):
        for _ in range(40):
            assert _complete(n, signature(random_generic(rng, n)).shorts)


def test_completeness_test_rejects_only_unrealizable_targets(graph3, graph4, graph5, graph6) -> None:
    rejected = {}
    for graph in (graph3, graph4, graph5, graph6):
        n = graph.n
        held = {node.signature.shorts for node in graph.nodes}
        targets = [t for t in _flip_targets(graph) if not _complete(n, t)]
        for target in set(targets):
            assert target not in held
            assert _max_margin_point(n, target, [((1 << n) - 1, F(1))]) is None
        rejected[n] = len(targets)
    # the walls enumerate_chambers skips with no LP
    assert rejected == {3: 0, 4: 0, 5: 0, 6: 2180}


def test_walk_crosses_only_into_new_complete_targets(monkeypatch) -> None:
    calls = {"maximize": 0, "_cross": 0}

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counted(exactlp, "maximize")
    counted(chambers, "_cross")
    graph = enumerate_chambers(6)
    assert len(graph.nodes) == 1684 and len(graph.edges) == 5646
    # every crossing reaches a new chamber (no DegenerateWall is left at
    # n = 6), and the LP runs only where both wall-point candidates fail
    assert calls["_cross"] == len(graph.nodes) - 1
    assert calls["maximize"] == 25


@pytest.mark.parametrize("n, solves, facets", [(5, 4, 14), (6, 25, 320)])
def test_walk_solves_each_facet_lp_once_per_relabeling(n: int, solves: int, facets: int, monkeypatch) -> None:
    calls = {"maximize": 0}
    solve, facet_point = exactlp.maximize, chambers._facet_point
    read: list[tuple] = []

    def counted(*args):
        calls["maximize"] += 1
        return solve(*args)

    def recorded(size, shorts, mask, value, memo):
        point = facet_point(size, shorts, mask, value, memo)
        read.append((shorts, mask, value, point))
        return point

    monkeypatch.setattr(exactlp, "maximize", counted)
    monkeypatch.setattr(chambers, "_facet_point", recorded)
    reps, found = chambers._walk(n)
    monkeypatch.undo()
    assert (len(reps), calls["maximize"], len(read)) == ({5: 81, 6: 1684}[n], solves, facets)
    # every point, the reused ones among them, is the direct solve of its facet
    for shorts, mask, value, point in read:
        pair = (mask, (1 << n) - 1 ^ mask)
        solved = _max_margin_point(n, shorts, [(m, value) for m in pair], skip=pair)
        assert point == (solved and solved[0])


def test_walk_reuses_only_certified_optima(monkeypatch) -> None:
    # with every uniqueness certificate withheld, the walk solves each facet
    # LP itself and still finds the same chambers through the same points
    expected = chambers._walk(5)
    solve, calls = exactlp.maximize, []

    def uncertified(*args):
        calls.append(args)
        solved = solve(*args)
        return solved and (*solved[:2], False)

    monkeypatch.setattr(exactlp, "maximize", uncertified)
    assert chambers._walk(5) == expected
    assert len(calls) == 14


@pytest.mark.parametrize("n", [3, 4, 5])
def test_integer_walk_matches_reference_walk(n: int) -> None:
    graph = enumerate_chambers(n)
    reference = reference_walk(n)
    assert [node.signature for node in graph.nodes] == [node.signature for node in reference.nodes]
    assert [node.representative for node in graph.nodes] == [
        node.representative for node in reference.nodes
    ]
    assert graph.edges == reference.edges


@pytest.mark.parametrize("fixture", ["graph3", "graph4", "graph5", "graph6"])
def test_node_order_is_sort_key_order(fixture: str, request) -> None:
    # enumerate_chambers sorts by the ranks of the maximal short sets
    signatures = [node.signature for node in request.getfixturevalue(fixture).nodes]
    assert signatures == sorted(signatures, key=lambda sig: sig.sort_key())


def test_length_vector_keeps_fractions() -> None:
    third = Fraction(1, 3)
    r = LengthVector((third, third, 1))
    assert r.lengths[0] is third and r.lengths[1] is third
    assert r.lengths[2] == Fraction(1) and type(r.lengths[2]) is Fraction


def test_nonempty_sampler_matches_signature_flags() -> None:
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(4, 6)
        assert not signature(random_nonempty(rng, n)).is_empty()
        assert signature(random_empty(rng, n)).is_empty()
