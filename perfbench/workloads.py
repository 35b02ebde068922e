"""The three workloads: seeded inputs, the operations of one round, their checks.

A workload is built in two steps.  ``make_*`` derives every input and every
expected value from the seed with the oracles alone; ``bind`` turns the
inputs into operations on a freshly imported ``polygonspace`` and warms the
caches a user would have warm.  Each operation is one call (a CLI command
through ``cli.run``, or one library query); its check compares the output
with the oracle values and returns the problems it finds.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import ModuleType
from typing import Any, Callable

import oracles as orc

Check = Callable[[Any], list[str]]


class OpFailed(RuntimeError):
    """The program reported failure (non-zero exit code or an exception)."""


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Check
    units: Callable[[Any], int] | None = None  # work units in one output


@dataclass
class Workload:
    ops: list[Op]
    # Cross-command facts gathered from checked outputs, compared at the end.
    facts: dict[str, set] = field(default_factory=dict)

    def note(self, key: str, value: Any) -> None:
        self.facts.setdefault(key, set()).add(value)

    def final_problems(self) -> list[str]:
        return [f"{k} differs between commands: {sorted(v)}" for k, v in self.facts.items() if len(v) > 1]


# -- seeded inputs (oracles only) -------------------------------------------


def _text(r) -> str:
    return ",".join(f"{x.numerator}/{x.denominator}" for x in r)


def _normalized(values) -> tuple[Fraction, ...]:
    total = sum(values, Fraction(0))
    return tuple(Fraction(v) / total for v in values)


def random_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """Perimeter-1 point from integers with odd sum, hence generic."""
    while True:
        k = [rng.randint(1, 200) for _ in range(n)]
        if sum(k) % 2:
            return _normalized(k)


def random_nonempty(rng: random.Random, n: int, external: bool = True):
    while True:
        r = random_point(rng, n)
        shorts = orc.short_masks(r)
        if not orc.is_empty(n, shorts) and (external or not orc.is_external(n, shorts)):
            return r, shorts


def point_in_class(rng: random.Random, sorted_rep: tuple[int, ...]):
    """A random point in the chamber of an odd-perimeter integer vector.

    Every ε of the integer vector is an odd integer, so moving each side by
    less than 1/(2n) keeps every sign.  The labeling stays sorted: relabeling
    the sides alone changes the time of a ``ring`` command by up to 2x, which
    would make runs with different seeds incomparable.
    """
    bound = 2 * len(sorted_rep) + 1
    r = _normalized([k + Fraction(rng.randint(-999, 999), 1000 * bound) for k in sorted_rep])
    return r, orc.short_masks(r)


RING_CLASS_N = 6
RING_CLASS_MAX_SIDE = 9


def ring_classes() -> list[tuple[int, ...]]:
    """For each b₂ = 2..RING_CLASS_N, the lexicographically first sorted
    integer vector (odd perimeter, sides ≤ RING_CLASS_MAX_SIDE) of a nonempty,
    non-external chamber with that b₂.  A fixed rule, so every seed sees the
    same mix of chambers."""
    from itertools import combinations_with_replacement

    n = RING_CLASS_N
    first: dict[int, tuple[int, ...]] = {}
    for r in combinations_with_replacement(range(1, RING_CLASS_MAX_SIDE + 1), n):
        if sum(r) % 2 == 0:
            continue
        shorts = orc.short_masks(r)
        if orc.is_empty(n, shorts) or orc.is_external(n, shorts):
            continue
        first.setdefault(orc.betti_hk(n, shorts)[1], r)
    return [first[b2] for b2 in sorted(first)]


def _fracs(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _palindromic(b) -> bool:
    return list(b) == list(b)[::-1]


def _poly_value(records, x) -> Fraction:
    total = Fraction(0)
    for rec in records:
        term = Fraction(rec["coeff"])
        for xi, k in zip(x, rec["exps"]):
            term *= xi**k
        total += term
    return total


def _masks(lists) -> frozenset[int]:
    return frozenset(orc.mask_of(ix) for ix in lists)


# -- the CLI runner shared by census and ring -------------------------------


def cli_op(lib: ModuleType, clear_cache: Callable[[], None], argv: list[str],
           counter: Callable[[str, int], None]):
    """One CLI invocation in-process; the volume cache starts empty, as in a new process."""

    def call():
        clear_cache()
        out, err = io.StringIO(), io.StringIO()
        code = lib.cli.run(argv, out, err)
        text = out.getvalue()
        counter("cli.stdout_bytes", len(text.encode()))
        if code != 0:
            raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
        return json.loads(text)

    return call


# -- census -----------------------------------------------------------------

CENSUS_COMMANDS = (
    ("chambers", ["chambers", "--n", "4"]),
    ("chambers", ["chambers", "--n", "5"]),
    ("chambers", ["chambers", "--n", "5", "--counts-only"]),
    ("validate", ["validate", "--n", "5", "--full"]),
)
# Independent cross-check of the counts the test suite asserts, which
# `polygonspace chambers --n N --counts-only` regenerates: the oracle below
# must give 81 chambers at n = 5 (and 1684 at n = 6, see the tests).
CLASS_SIDE_BOUND = 9


def make_census(seed: int) -> dict:
    rng = random.Random(seed)
    order = list(range(len(CENSUS_COMMANDS)))
    rng.shuffle(order)
    totals = {n: orc.chamber_classes(n, CLASS_SIDE_BOUND)[1] for n in (4, 5)}
    return {"order": order, "totals": totals}


def _check_graph(doc: dict, totals: dict[int, int], wl: Workload) -> list[str]:
    n = doc["n"]
    bad = []
    if doc["count"] != totals[n]:
        bad.append(f"n={n}: {doc['count']} chambers, the oracle counts {totals[n]}")
    if (doc["empty"], doc["external"], doc["nonempty"]) != (n, n, doc["count"] - n):
        bad.append(f"n={n}: empty/external/nonempty = {doc['empty']}/{doc['external']}/{doc['nonempty']}")
    if "nodes" not in doc:
        wl.note(f"edge_count n={n}", doc["edge_count"])
        return bad
    families = []
    for node in doc["nodes"]:
        shorts = orc.short_masks(_fracs(node["representative"]))
        families.append(shorts)
        if orc.maximal(n, shorts) != _masks(node["signature"]):
            bad.append(f"node {node['index']}: representative is not in its chamber")
        if node["empty"] != orc.is_empty(n, shorts) or node["external"] != orc.is_external(n, shorts):
            bad.append(f"node {node['index']}: wrong empty/external flag")
    if len(set(families)) != len(families) or len(families) != doc["count"]:
        bad.append(f"n={n}: signatures are not distinct")
    full = (1 << n) - 1
    index = {f: i for i, f in enumerate(families)}
    expected = set()
    for i, f in enumerate(families):
        for s in orc.maximal(n, f):
            j = index.get(f - {s} | {full ^ s})
            if j is not None:
                expected.add(frozenset((i, j)))
    seen = set()
    for e in doc["edges"]:
        a, b, w = e["source"], e["target"], orc.mask_of(e["wall_long_at_source"])
        fa, fb = families[a], families[b]
        if w in fa or fb != fa - {full ^ w} | {w}:
            bad.append(f"edge {a}->{b} does not flip exactly the pair of {e['wall_long_at_source']}")
        seen.add(frozenset((a, b)))
    if seen != expected or len(doc["edges"]) != doc["edge_count"]:
        bad.append(f"n={n}: edges differ from the chamber pairs separated by one wall")
    reach, frontier = {0}, [0]
    adjacency: dict[int, list[int]] = {}
    for e in seen:
        a, b = tuple(e)
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    while frontier:
        for j in adjacency.get(frontier.pop(), []):
            if j not in reach:
                reach.add(j)
                frontier.append(j)
    if len(reach) != len(families):
        bad.append(f"n={n}: chamber graph is not connected")
    wl.note(f"edge_count n={n}", doc["edge_count"])
    return bad


def _check_validate(doc: dict, totals: dict[int, int]) -> list[str]:
    n = doc["n"]
    bad = []
    if doc["checked"] != totals[n] - n or not doc["all_passed"] or doc["failures"]:
        bad.append(f"validate n={n}: checked {doc['checked']}, all_passed {doc['all_passed']}")
    sigs = set()
    for rep in doc["reports"]:
        shorts = orc.down_closure(n, _masks(rep["signature"]))
        sigs.add(shorts)
        hk = list(orc.betti_hk(n, shorts))
        if not rep["passed"] or rep["betti_apolar"] != hk or rep["betti_wallcross"] != hk:
            bad.append(f"validate {rep['signature']}: {rep['betti_apolar']}/{rep['betti_wallcross']} vs {hk}")
        if orc.is_empty(n, shorts) or len(rep["jump_checks"]) != len(rep["signature"]):
            bad.append(f"validate {rep['signature']}: empty chamber or missing wall checks")
    if len(sigs) != len(doc["reports"]):
        bad.append("validate: repeated chambers")
    return bad


def bind_census(lib: ModuleType, inputs: dict, clear_cache, counter) -> Workload:
    wl = Workload([])
    totals = inputs["totals"]
    for k in inputs["order"]:
        kind, argv = CENSUS_COMMANDS[k]
        check = (
            (lambda doc: _check_validate(doc, totals)) if kind == "validate"
            else (lambda doc: _check_graph(doc, totals, wl))
        )
        units = (lambda doc: doc["checked"]) if kind == "validate" else (lambda doc: doc["count"])
        wl.ops.append(Op(kind, cli_op(lib, clear_cache, argv, counter), check, units))
    return wl


# -- ring -------------------------------------------------------------------

RING_N = 7
EVAL_POINTS = 2


def make_ring(seed: int) -> dict:
    rng = random.Random(seed)
    r7, s7 = random_nonempty(rng, RING_N, external=False)
    alpha = [0] * RING_N
    for _ in range(RING_N - 3):
        alpha[rng.randrange(RING_N)] += 1
    cases = [(r7, s7)] + [point_in_class(rng, rep) for rep in ring_classes()]
    out = []
    for r, shorts in cases:
        n = len(r)
        points = [random_point(rng, n) for _ in range(EVAL_POINTS)]
        out.append({
            "r": r, "shorts": shorts, "points": points,
            "values": [orc.volume(n, shorts, x) for x in points],
            "value_at_r": orc.volume(n, shorts, r),
            "betti": list(orc.betti_hk(n, shorts)),
        })
    out[0]["alpha"] = alpha
    out[0]["intersection"] = orc.intersection_number(RING_N, s7, alpha)
    order = [("volume", 0), ("intersect", 0), ("betti", 0)] + [("ring", i) for i in range(1, len(out))]
    rng.shuffle(order)
    return {"cases": out, "order": order}


def _check_volume(doc: dict, case: dict) -> list[str]:
    bad = []
    if Fraction(doc["value_at_r"]) != case["value_at_r"]:
        bad.append(f"volume at r: {doc['value_at_r']} vs {case['value_at_r']}")
    records = doc["poly"]["records"]
    for x, v in zip(case["points"], case["values"]):
        if _poly_value(records, x) != v:
            bad.append("volume polynomial differs from the signed power sum")
    return bad


def _check_betti(doc: dict, case: dict) -> list[str]:
    b = case["betti"]
    if doc["apolar"] != b or doc["wallcross"] != b or doc["agree"] is not True or not _palindromic(b):
        return [f"betti {doc} vs Hausmann-Knutson {b}"]
    return []


def _check_ring(doc: dict, case: dict) -> list[str]:
    n, shorts, b = len(case["r"]), case["shorts"], case["betti"]
    bad = []
    if doc["betti"] != b or not _palindromic(doc["betti"]):
        bad.append(f"ring betti {doc['betti']} vs Hausmann-Knutson {b}")
    for group in doc["generators"]:
        for cls in group["classes"]:
            q = {tuple(rec["exps"]): Fraction(rec["coeff"]) for rec in cls["records"]}
            if any(orc.operator_on_volume(n, shorts, q, x) for x in case["points"]):
                bad.append(f"generator {cls['text']} does not annihilate v")
        if group["degree"] == 1 and len(group["classes"]) != n - b[1]:
            bad.append(f"{len(group['classes'])} degree-1 generators, expected n - b2 = {n - b[1]}")
    return bad


def bind_ring(lib: ModuleType, inputs: dict, clear_cache, counter) -> Workload:
    wl = Workload([])
    for kind, i in inputs["order"]:
        case = inputs["cases"][i]
        argv = [kind, "--r", _text(case["r"])]
        if kind == "volume":
            check = lambda doc, c=case: _check_volume(doc, c)
        elif kind == "intersect":
            argv += ["--alpha", ",".join(map(str, case["alpha"]))]
            check = lambda doc, c=case: (
                [] if Fraction(doc["intersection_number"]) == c["intersection"]
                else [f"intersection {doc['intersection_number']} vs {c['intersection']}"]
            )
        elif kind == "betti":
            argv += ["--method", "both"]
            check = lambda doc, c=case: _check_betti(doc, c)
        else:
            check = lambda doc, c=case: _check_ring(doc, c)
        wl.ops.append(Op(kind, cli_op(lib, clear_cache, argv, counter), check))
    return wl


# -- queries ----------------------------------------------------------------

QUERY_CHAMBERS = (6, 6, 6, 7)
FACETS_PER_CHAMBER = {6: 2, 7: 1}
QUERY_COUNTS = {"signature": 40, "pd_zero": 60, "pairing": 40, "segment": 20}
PATH_SIZES = (9, 9, 10, 10, 11, 11, 12, 12)
# The seed draws the points, sets and monomials; which chamber (or n) a query
# uses, the size of its set and the degree of its monomials go round in a
# fixed cycle, so that every seed has the same mix of query costs.


def _generic_segment(rng: random.Random, a):
    """A target b whose segment from a crosses each wall at its own t."""
    while True:
        b = random_point(rng, len(a))  # every generated point has perimeter 1
        crossings = orc.segment_crossings(a, b)
        ts = [t for t, _ in crossings]
        if len(set(ts)) == len(ts):
            return b, crossings


def _facets(rng: random.Random, r, shorts, count: int) -> list[dict]:
    """Facets of the chamber of r with a nonempty chamber beyond, found as the
    first wall that a segment from r to a random point crosses."""
    n = len(r)
    full = (1 << n) - 1
    found: dict[int, dict] = {}
    while len(found) < count:
        b, crossings = _generic_segment(rng, r)
        if not crossings:
            continue
        t1, wall = crossings[0]
        t2 = crossings[1][0] if len(crossings) > 1 else Fraction(1)
        beyond = tuple(x + (t1 + t2) / 2 * (y - x) for x, y in zip(r, b))
        after = shorts - {full ^ wall} | {wall}
        if wall in found or orc.is_empty(n, after):
            continue
        found[wall] = {"wall": wall, "beyond": beyond, "after": after,
                       "delta": [y - x for x, y in zip(orc.betti_hk(n, shorts), orc.betti_hk(n, after))]}
    return [found[w] for w in sorted(found)]


def _dense(n: int, shorts: frozenset[int]) -> bool:
    """Whether the volume polynomial has every monomial of degree n−3: the
    coefficient of x^α is the intersection number of α over α!."""
    return all(orc.intersection_number(n, shorts, e) for e in orc.monomials(n, n - 3))


def make_queries(seed: int) -> dict:
    """Membership tests cost in proportion to the terms of a chamber's volume
    polynomial, which range from 1 to 210 between random chambers, so the
    queried chambers are drawn among those with every term: seeds then
    differ in the chambers but not in the cost of a query."""
    rng = random.Random(seed)
    chambers = []
    for n in QUERY_CHAMBERS:
        r, shorts = random_nonempty(rng, n)
        while not _dense(n, shorts):
            r, shorts = random_nonempty(rng, n)
        chambers.append({"r": r, "shorts": shorts,
                         "facets": _facets(rng, r, shorts, FACETS_PER_CHAMBER[n])})
    queries: list[tuple] = []
    for i in range(QUERY_COUNTS["signature"]):
        r = random_point(rng, QUERY_CHAMBERS[i % len(QUERY_CHAMBERS)])
        queries.append(("signature", r, orc.maximal(len(r), orc.short_masks(r))))
    for i in range(QUERY_COUNTS["pd_zero"]):
        c = i % len(chambers)
        n = len(chambers[c]["r"])
        members = rng.sample(range(1, n + 1), 1 + i // len(chambers) % (n - 1))
        mask = orc.mask_of(members)
        queries.append(("pd_zero", c, sorted(members), rng.choice(members), mask not in chambers[c]["shorts"]))
    for i in range(QUERY_COUNTS["pairing"]):
        c = i % len(chambers)
        n = len(chambers[c]["r"])
        da = i // len(chambers) % (n - 2)
        a = rng.choice(orc.monomials(n, da))
        b = rng.choice(orc.monomials(n, n - 3 - da))
        alpha = [x + y for x, y in zip(a, b)]
        queries.append(("pairing", c, a, b, orc.intersection_number(n, chambers[c]["shorts"], alpha)))
    for c, ch in enumerate(chambers):
        for facet in ch["facets"]:
            queries.append(("crossing", c, facet))
    for i in range(QUERY_COUNTS["segment"]):
        a = random_point(rng, QUERY_CHAMBERS[i % len(QUERY_CHAMBERS)])
        b, crossings = _generic_segment(rng, a)
        queries.append(("segment", a, b, crossings))
    for n in PATH_SIZES:
        r, shorts = random_nonempty(rng, n)
        queries.append(("betti_via_path", r, orc.betti_hk(n, shorts)))
    rng.shuffle(queries)
    return {"chambers": chambers, "queries": queries}


def _wall_point_ok(point, shorts, wall) -> bool:
    n = len(point)
    full = (1 << n) - 1
    sums = orc.subset_sums(point)
    for mask in range(1, full):
        e = 2 * sums[mask] - sums[full]
        if mask in (wall, full ^ wall):
            if e != 0:
                return False
        elif e == 0 or (e < 0) != (mask in shorts):
            return False
    return min(point) > 0


def bind_queries(lib: ModuleType, inputs: dict) -> Workload:
    """Library calls on chambers whose volume polynomials are built here."""
    hom = lib.Convention.homogeneous()
    vec = lib.LengthVector.from_values
    chambers = []
    for ch in inputs["chambers"]:
        r = vec(ch["r"])
        sig = lib.signature(r)
        lib.volume_polynomial(sig)
        for facet in ch["facets"]:
            lib.volume_polynomial(lib.signature(vec(facet["beyond"])))
        chambers.append((r, sig, len(ch["r"])))

    def monomial(n, e):
        return lib.CohomologyClass(lib.MultiPoly(n, {tuple(e): 1}))

    ops = []
    for q in inputs["queries"]:
        kind = q[0]
        if kind == "signature":
            _, r, expected = q
            point = vec(r)
            call = lambda p=point: lib.signature(p).to_lists()
            check = lambda out, e=expected: [] if _masks(out) == e else [f"signature {out}"]
        elif kind == "pd_zero":
            _, c, members, base, expected = q
            r, sig, n = chambers[c]
            index_set = lib.IndexSet.from_indices(n, members)

            def call(I=index_set, b=base, s=sig):
                return lib.is_zero_class(lib.pd_class(I, b), s, hom)

            check = lambda out, e=expected, m=members: (
                [] if out is e else [f"pd_class({m}) zero={out}, long={e}"]
            )
        elif kind == "pairing":
            _, c, a, b, expected = q
            r, sig, n = chambers[c]
            ca, cb = monomial(n, a), monomial(n, b)
            call = lambda x=ca, y=cb, s=sig: lib.poincare_pairing(x, y, s, hom)
            check = lambda out, e=expected, a=a, b=b: [] if out == e else [f"pairing {a},{b}: {out} vs {e}"]
        elif kind == "crossing":
            _, c, facet = q
            r, sig, n = chambers[c]
            exit_set = lib.IndexSet(n, facet["wall"])
            shorts = inputs["chambers"][c]["shorts"]

            def call(r=r, I=exit_set, s=sig):
                wall_point, after = lib.adjacent_representative(r, I)
                report = lib.crossing_report(s, lib.signature(after))
                return wall_point, after, report

            def check(out, f=facet, shorts=shorts):
                wall_point, after, report = out
                bad = []
                if not _wall_point_ok(tuple(wall_point), shorts, f["wall"]):
                    bad.append("wall point is off the facet")
                if orc.short_masks(tuple(after)) != f["after"]:
                    bad.append("point beyond the wall is in the wrong chamber")
                if report.wall.index_set.mask != f["wall"] or list(report.betti_delta) != f["delta"]:
                    bad.append(f"crossing report {report.betti_delta} vs {f['delta']}")
                return bad
        elif kind == "segment":
            _, a, b, expected = q
            pa, pb = vec(a), vec(b)
            call = lambda x=pa, y=pb: [(t, w.index_set.mask) for t, w in lib.segment_crossings(x, y)]
            check = lambda out, e=expected: [] if out == e else ["segment crossings differ from the sign changes"]
        else:
            _, r, expected = q
            point = vec(r)
            call = lambda p=point: lib.betti_via_path(p)
            check = lambda out, e=expected: [] if tuple(out) == e else [f"betti_via_path {out} vs {e}"]
        ops.append(Op(kind, call, check))
    return Workload(ops)
