"""Command-line front end: every library operation behind one executable.

Output is deterministic (byte-identical for identical invocations): JSON by
default, aligned plain text via --format text.  Every number is an exact
rational rendered as "p/q"; --decimal K adds sibling *_approx fields that
are explicitly marked approximate.

Exit codes: 0 success; 1 internal failure or failed cross-validation;
2 singular or non-generic input (the message names a vanishing pair);
3 empty polygon space where a nonempty one is required; 4 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence, TextIO

from polygonspace.apolar import (
    CohomologyClass,
    EmptyChamber,
    betti_numbers,
    is_zero_class,
    normal_bundle_chern,
    pd_bases_agree,
    pd_class,
    poincare_pairing,
    presentation,
)
from polygonspace.chambers import (
    ChamberSignature,
    IndexSet,
    LengthVector,
    NonGenericSegment,
    SingularLength,
    _index_set,
    _indexed,
    _maximal,
    _node_order,
    _walk,
    epsilon,
    segment_crossings,
    signature,
)
from polygonspace.ratpoly import (
    MultiIndex,
    MultiPoly,
    format_rational,
    parse_rational,
)
from polygonspace.volume import SCALE_NOTE, Convention, intersection_number, presented_volume, volume_polynomial
from polygonspace.wallcross import (
    ChamberValidation,
    betti_via_path,
    crossing_report,
    validate_chamber,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_SINGULAR = 2
EXIT_EMPTY = 3
EXIT_USAGE = 4

# Per-point commands do 2^n work or more.  At 16 sides, as fresh processes,
# `analyze` takes 0.19-0.43 s and `betti --method wallcross` 0.20-0.28 s; at
# 17 sides the same library calls take 0.07-0.34 s and 0.08-0.10 s (random
# to nearly equal lengths, the nearly equal ones slowest for `analyze`;
# 2-core x86, Python 3.11).
MAX_SIDES = 16

# --decimal renders through 10^K; beyond this many digits that integer
# alone would dwarf the document.
MAX_DECIMAL_DIGITS = 10_000


class _UsageError(Exception):
    """Replaces argparse's SystemExit so run() can map it to exit code 4."""


class _HelpRequested(Exception):
    """Carries the -h/--help text out of argparse so run() writes it to its stdout."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def print_help(self, file: TextIO | None = None) -> None:
        raise _HelpRequested(self.format_help())


# -- rendering ---------------------------------------------------------------


def _variable_names(n: int, conv: Convention, letter: str) -> list[str]:
    """1-based labels of the convention's variables, original indices kept."""
    return [f"{letter}{i}" for i in range(1, n + 1) if i != conv.affine_index]


def _poly_doc(poly: MultiPoly, names: Sequence[str]) -> dict[str, object]:
    return {"text": poly.format(names), "records": poly.to_records()}


def _decimal_text(value: Fraction, digits: int) -> str:
    """Round-half-up decimal rendering, explicitly marked approximate."""
    if digits < 1:
        raise ValueError("--decimal needs at least 1 digit")
    if digits > MAX_DECIMAL_DIGITS:
        raise ValueError(f"--decimal takes at most {MAX_DECIMAL_DIGITS} digits")
    v = Fraction(value)
    sign = "-" if v < 0 else ""
    scaled = abs(v) * 10**digits
    whole = scaled.numerator // scaled.denominator
    if 2 * (scaled - whole) >= 1:
        whole += 1
    text = str(whole).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]} (approx)"


def _is_poly_doc(value: object) -> bool:
    return isinstance(value, dict) and set(value) == {"text", "records"}


def _fmt_scalar(value: object) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _scalar_list(value: object) -> bool:
    return isinstance(value, list) and not any(
        isinstance(x, (dict, list)) for x in value
    )


def _render(value: object, key: str, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if _is_poly_doc(value):
        lines.append(f"{pad}{key}: {value['text']}")  # type: ignore[index]
    elif isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _render(v, k, indent + 1, lines)
    elif _scalar_list(value):
        body = ", ".join(_fmt_scalar(x) for x in value)
        lines.append(f"{pad}{key}: [{body}]")
    elif isinstance(value, list) and all(_scalar_list(x) for x in value):
        body = ", ".join(
            "[" + ",".join(_fmt_scalar(y) for y in x) + "]" for x in value
        )
        lines.append(f"{pad}{key}: [{body}]")
    elif isinstance(value, list):
        lines.append(f"{pad}{key}:")
        for i, item in enumerate(value):
            _render(item, f"[{i}]", indent + 1, lines)
    else:
        lines.append(f"{pad}{key}: {_fmt_scalar(value)}")


def _json(value: object, pad: str, parts: list[str]) -> None:
    """Append value as json.dumps(value, indent=2) writes it at indent pad."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif type(value) is int:
        parts.append(int.__repr__(value))
    elif value is None or type(value) is bool:
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, (list, tuple)) and value and all(type(x) is int or type(x) is str for x in value):
        items = [int.__repr__(x) if type(x) is int else encode_basestring_ascii(x) for x in value]
        parts.append(f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]")
    elif isinstance(value, (dict, list, tuple)):
        is_dict, inner = isinstance(value, dict), pad + "  "
        parts.append("{" if is_dict else "[")
        for k, item in enumerate(value.items() if is_dict else value):
            parts.append(",\n" + inner if k else "\n" + inner)
            if is_dict:
                key, item = item
                parts += (encode_basestring_ascii(key) if isinstance(key, str) else json.dumps({key: 0})[1:-4], ": ")
            _json(item, inner, parts)
        parts.append(("\n" + pad if value else "") + ("}" if is_dict else "]"))
    else:  # floats as json writes them; json raises the TypeError of any other type
        parts.append(json.dumps(value))


def _emit(doc: dict[str, object], fmt: str, out: TextIO) -> None:
    if fmt == "json":
        _json(doc, "", parts := [])
        out.write("".join(parts) + "\n")
        return
    lines: list[str] = []
    for k, v in doc.items():
        _render(v, k, 0, lines)
    out.write("\n".join(lines) + "\n")


# -- polynomial input --------------------------------------------------------

_TOKEN = re.compile(r"\d+/\d+|\d+\.\d+|\d+|[A-Za-z_]\w*|[+\-*^]")


def _parse_poly(text: str, names: Sequence[str], flag: str) -> MultiPoly:
    """Parse "3/2*x1^2*x3 - x2 + 5" or a JSON record list into a polynomial.

    Terms are ±coefficient*monomial with explicit '*' and '^'; variable
    labels must come from `names`, whose positions follow the active
    convention.  No parentheses.  Errors in a record list name `flag`.
    """
    nvars = len(names)
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            return MultiPoly.from_records(nvars, json.loads(stripped))
        except RecursionError:
            raise ValueError("polynomial records are nested too deeply") from None
        except json.JSONDecodeError:
            form = 'polynomial text or a JSON list of {"coeff", "exps"} records'
            raise ValueError(f"{flag} takes {form}, got {text!r}") from None
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None
    pos = {name: i for i, name in enumerate(names)}
    tokens: list[str] = []
    i = 0
    while i < len(stripped):
        if stripped[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(stripped, i)
        if m is None:
            raise ValueError(f"cannot read polynomial at {stripped[i:]!r}")
        tokens.append(m.group())
        i = m.end()
    if not tokens:
        raise ValueError("empty polynomial text")
    out = MultiPoly.zero(nvars)
    k = 0
    total = len(tokens)
    while k < total:
        sign = Fraction(1)
        while tokens[k] in ("+", "-"):
            if tokens[k] == "-":
                sign = -sign
            k += 1
            if k >= total:
                raise ValueError("dangling sign in polynomial text")
        coeff = sign
        exps = [0] * nvars
        while True:
            tok = tokens[k]
            if tok in pos:
                var = pos[tok]
                k += 1
                power = 1
                if k < total and tokens[k] == "^":
                    k += 1
                    if k >= total or not tokens[k].isdigit():
                        raise ValueError("'^' must be followed by an integer")
                    power = int(tokens[k])
                    k += 1
                exps[var] += power
            elif tok[0].isdigit():
                coeff *= parse_rational(tok)
                k += 1
            else:
                raise ValueError(
                    f"unexpected {tok!r}; variables are {', '.join(names)}"
                )
            if k < total and tokens[k] == "*":
                k += 1
                if k >= total:
                    raise ValueError("dangling '*' in polynomial text")
                continue
            break
        out = out + MultiPoly(nvars, {tuple(exps): coeff})
        if k < total and tokens[k] not in ("+", "-"):
            raise ValueError(f"expected '+' or '-' before {tokens[k]!r}")
    return out


# -- subcommand handlers -----------------------------------------------------


def _check_sides(n: int) -> None:
    if n > MAX_SIDES:
        raise ValueError(f"{n} sides exceed the limit of {MAX_SIDES} for per-point commands")


def _lengths(text: str) -> LengthVector:
    """Parse side lengths, rejecting more than MAX_SIDES before any 2^n work."""
    r = LengthVector.parse(text)
    _check_sides(r.n)
    return r


def _point(args: argparse.Namespace) -> tuple[LengthVector, Convention, ChamberSignature]:
    """--r, --convention (if the command has it) and the chamber of r, checked in that order."""
    r = _lengths(args.r)
    conv = Convention.parse(getattr(args, "convention", "homogeneous"))
    return r, conv, signature(r)


def _ints(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _cmd_analyze(args: argparse.Namespace) -> tuple[dict[str, object], int]:
    r, _, sig = _point(args)
    doc: dict[str, object] = {
        "n": r.n,
        "r": r.to_strings(),
        "perimeter": format_rational(r.perimeter),
        "signature": sig.to_lists(),
        "external": sig.is_external(),
        "empty": sig.is_empty(),
    }
    return doc, EXIT_OK


def _cmd_volume(args: argparse.Namespace) -> tuple[dict[str, object], int]:
    r, conv, sig = _point(args)
    vp = volume_polynomial(sig)
    names = _variable_names(r.n, conv, "r")
    doc: dict[str, object] = {
        "n": r.n,
        "r": r.to_strings(),
        "convention": str(conv),
        "variables": names,
        "poly": _poly_doc(presented_volume(vp, conv), names),
        "value_at_r": format_rational(vp.v.evaluate(tuple(r))),
        "scale": SCALE_NOTE,
    }
    return doc, EXIT_OK


def _cmd_intersect(args: argparse.Namespace) -> tuple[dict[str, object], int]:
    r, conv, sig = _point(args)
    alpha = MultiIndex(tuple(_ints(args.alpha, "--alpha")))
    doc: dict[str, object] = {
        "n": r.n,
        "r": r.to_strings(),
        "convention": str(conv),
        "alpha": list(alpha.exponents),
        "intersection_number": format_rational(intersection_number(sig, alpha, conv)),
    }
    return doc, EXIT_OK


def _cmd_betti(args: argparse.Namespace) -> tuple[dict[str, object], int]:
    r, conv, sig = _point(args)
    doc: dict[str, object] = {}
    if args.method in ("apolar", "both"):
        doc["apolar"] = list(betti_numbers(sig, conv))
    if args.method in ("wallcross", "both"):
        doc["wallcross"] = list(betti_via_path(r))
    if args.method == "both":
        doc["agree"] = doc["apolar"] == doc["wallcross"]
    return doc, EXIT_OK


def _cmd_ring(args: argparse.Namespace) -> tuple[dict[str, object], int]:
    r, conv, sig = _point(args)
    pres = presentation(sig, conv)
    names = _variable_names(r.n, conv, "x")
    doc: dict[str, object] = {
        "n": r.n,
        "r": r.to_strings(),
        "convention": str(conv),
        "variables": names,
        "betti": list(pres.betti),
        "generators": [
            {"degree": d, "classes": [_poly_doc(g, names) for g in polys]}
            for d, polys in pres.ann_generators
        ],
    }
    return doc, EXIT_OK


def _cmd_pairing(args: argparse.Namespace) -> tuple[dict[str, object], int]:
    r, conv, sig = _point(args)
    names = _variable_names(r.n, conv, "x")
    a = CohomologyClass(_parse_poly(args.a, names, "--a"))
    b = CohomologyClass(_parse_poly(args.b, names, "--b"))
    doc: dict[str, object] = {
        "n": r.n,
        "convention": str(conv),
        "a": _poly_doc(a.poly, names),
        "b": _poly_doc(b.poly, names),
        "pairing": format_rational(poincare_pairing(a, b, sig, conv)),
    }
    return doc, EXIT_OK


def _cmd_pd_class(args: argparse.Namespace) -> tuple[dict[str, object], int]:
    r = _lengths(args.r) if args.r else None
    if r is not None:
        n = r.n
        if args.n is not None and args.n != n:
            raise ValueError(f"--n {args.n} disagrees with --r of length {n}")
    elif args.n is not None:
        n = args.n
        _check_sides(n)
    else:
        raise ValueError("pd-class needs --n or --r")
    I = IndexSet.from_indices(n, _ints(args.set, "--set"))
    base = args.base if args.base is not None else I.indices[0]
    pd = pd_class(I, base)
    chern = normal_bundle_chern(I, base)
    names = [f"x{i}" for i in range(1, n + 1)]
    doc: dict[str, object] = {
        "n": n,
        "set": list(I.indices),
        "base": base,
        "degree": I.p - 1,
        "pd": _poly_doc(pd.poly, names),
        "normal_chern": _poly_doc(chern.poly, names),
    }
    if r is not None:
        sig = signature(r)
        hom = Convention.homogeneous()
        doc["set_is"] = "long" if epsilon(r, I) > 0 else "short"
        doc["is_zero_in_ring"] = is_zero_class(pd, sig, hom)
        doc["bases_agree"] = pd_bases_agree(I, sig, hom)
    return doc, EXIT_OK


def _cmd_wallcross(args: argparse.Namespace) -> tuple[dict[str, object], int]:
    r0 = _lengths(args.r_from)
    r1 = _lengths(args.r_to)
    crossings = segment_crossings(r0, r1)
    sig0 = sig = signature(r0)
    names = [f"x{i}" for i in range(1, r0.n + 1)]
    items: list[dict[str, object]] = []
    for t, wall in crossings:
        after = sig.flip(wall.index_set)
        report = crossing_report(sig, after)
        entry: dict[str, object] = {
            "t": format_rational(t),
            "wall_long_before": list(wall.index_set.indices),
            "p": wall.p,
            "q": wall.q,
            "signature_after": after.to_lists(),
            "dies": report.dies,
            "born": report.born,
            "betti_delta": list(report.betti_delta),
        }
        if report.pd_born is not None and report.normal_chern is not None:
            entry["pd_born"] = _poly_doc(report.pd_born.poly, names)
            entry["normal_chern"] = _poly_doc(report.normal_chern.poly, names)
            entry["decomposition"] = [
                {
                    "power": dc.power,
                    "class": _poly_doc(dc.cls.poly, names),
                    "is_zero": dc.is_zero,
                }
                for dc in report.decomposition_classes
            ]
        items.append(entry)
        sig = after
    if sig != signature(r1):
        raise RuntimeError("crossing walk did not land in the target chamber")
    doc: dict[str, object] = {
        "n": r0.n,
        "from": r0.to_strings(),
        "to": r1.to_strings(),
        "signature_from": sig0.to_lists(),
        "signature_to": sig.to_lists(),
        "count": len(items),
        "crossings": items,
    }
    return doc, EXIT_OK


def _cmd_chambers(args: argparse.Namespace) -> tuple[dict[str, object], int]:
    n = args.n
    reps, found = _walk(n, args.max_nodes)  # bitsets and integer points, no node objects
    singletons = sum(1 << (1 << i) for i in range(n))  # empty: one is long; external: one is maximal
    empty = sum(1 for s in reps if s & singletons != singletons)
    doc: dict[str, object] = {
        "n": n,
        "count": len(reps),
        "nonempty": len(reps) - empty,
        "empty": empty,
        "external": sum(1 for s in reps if _maximal(n, s) & singletons),
        "edge_count": len(found),
    }
    if not args.counts_only:
        order, edges = _indexed(n, reps, found)
        doc["nodes"] = [
            {
                "index": i,
                "signature": sig.to_lists(),
                "representative": [format_rational(Fraction(x, den)) for x in scaled],
                "empty": sig.is_empty(),
                "external": sig.is_external(),
            }
            for i, (sig, (scaled, den)) in enumerate((ChamberSignature._unchecked(n, s), reps[s]) for s in order)
        ]
        doc["edges"] = [
            {"source": a, "target": b, "wall_long_at_source": list(_index_set(n, mask).indices)}
            for a, b, mask in edges
        ]
    return doc, EXIT_OK


def _validation_doc(report: ChamberValidation) -> dict[str, object]:
    return {
        "signature": report.signature.to_lists(),
        "betti_apolar": list(report.betti_apolar),
        "betti_wallcross": list(report.betti_path),
        "betti_agree": report.betti_agree,
        "jump_checks": [
            {"wall": list(I.indices), "ok": ok} for I, ok in report.jump_checks
        ],
        "passed": report.passed,
    }


def _cmd_validate(args: argparse.Namespace) -> tuple[dict[str, object], int]:
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be at least 1, got {args.limit}")
    if args.r is not None:
        report = validate_chamber(signature(_lengths(args.r)))
        return _validation_doc(report), EXIT_OK if report.passed else EXIT_INTERNAL
    reps, _ = _walk(args.n)
    sigs = (ChamberSignature._unchecked(args.n, shorts) for shorts in _node_order(args.n, reps))
    chosen = {sig.shorts: sig for sig in islice((s for s in sigs if not s.is_empty()), args.limit)}
    validated = {s: validate_chamber(chosen[s]) for s in reps if s in chosen}  # walk order: neighbours stay cached
    reports = [validated[shorts] for shorts in chosen]
    failures = [rep for rep in reports if not rep.passed]
    doc: dict[str, object] = {
        "n": args.n,
        "checked": len(reports),
        "all_passed": not failures,
        "failures": [_validation_doc(rep) for rep in failures],
    }
    if args.full:
        doc["reports"] = [_validation_doc(rep) for rep in reports]
    return doc, EXIT_OK if not failures else EXIT_INTERNAL


# The first row whose kinds the error is an instance of gives the exit code.
_EXIT_CODES: tuple[tuple[type[Exception] | tuple[type[Exception], ...], int], ...] = (
    ((SingularLength, NonGenericSegment), EXIT_SINGULAR),
    (EmptyChamber, EXIT_EMPTY),
    (ValueError, EXIT_USAGE),
    (RuntimeError, EXIT_INTERNAL),  # BudgetExceeded and RecursionError among them
    (MemoryError, EXIT_INTERNAL),  # its own message is often empty, so run() names it
)


# -- argument parsing --------------------------------------------------------


@functools.cache  # built once: configuration only, every parse makes a fresh namespace
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="polygonspace",
        description=(
            "Exact chamber analysis of polygon spaces: volume polynomials, "
            "intersection numbers, Betti numbers, cohomology presentations, "
            "and wall-crossing reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, handler: Callable, help_text: str, point: bool = False) -> argparse.ArgumentParser:
        """A subcommand; a per-point one also takes the side lengths --r."""
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="output format (default: json)",
        )
        if point:
            p.add_argument("--r", required=True, help="comma-separated side lengths")
        return p

    def add_convention(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--convention",
            default="homogeneous",
            metavar="CONV",
            help='"homogeneous" (default) or "affine:J" (substitute the '
            "perimeter relation and drop variable J)",
        )

    def add_decimal(p: argparse.ArgumentParser, headline: str) -> None:
        """--decimal: run() renders the field `headline` as `<headline>_approx`."""
        p.set_defaults(headline=headline)
        p.add_argument(
            "--decimal",
            type=int,
            default=None,
            metavar="K",
            help="also render headline values as K-digit decimals, "
            "marked approximate",
        )

    add("analyze", _cmd_analyze, "Chamber signature, external and empty flags for r.", point=True)

    p = add("volume", _cmd_volume, "Volume polynomial of the chamber of r and its value.", point=True)
    add_convention(p)
    add_decimal(p, "value_at_r")

    p = add("intersect", _cmd_intersect, "Intersection number: signed mixed derivative of the volume.", point=True)
    p.add_argument(
        "--alpha",
        required=True,
        help="comma-separated multi-index of length n, total n-3",
    )
    add_convention(p)
    add_decimal(p, "intersection_number")

    p = add("betti", _cmd_betti, "Betti numbers by apolarity, wall-crossing, or both.", point=True)
    p.add_argument(
        "--method",
        choices=("apolar", "wallcross", "both"),
        default="both",
        help="computation route (default: both, with agreement flag)",
    )
    add_convention(p)

    p = add("ring", _cmd_ring, "Cohomology ring presentation: Betti numbers and annihilator generators.", point=True)
    add_convention(p)

    p = add("pairing", _cmd_pairing, "Poincare pairing of two classes of complementary degree.", point=True)
    p.add_argument("--a", required=True, help='first class, e.g. "x1+x3"')
    p.add_argument("--b", required=True, help='second class, e.g. "2*x3^2"')
    add_convention(p)
    add_decimal(p, "pairing")

    p = add("pd-class", _cmd_pd_class, "Poincare dual of a parallel-sides submanifold and its normal Chern class.")
    p.add_argument("--set", required=True, help="comma-separated 1-based indices of I")
    p.add_argument("--n", type=int, default=None, help="number of sides")
    p.add_argument(
        "--r",
        default=None,
        help="optional side lengths; adds vanishing status in that chamber",
    )
    p.add_argument(
        "--base",
        type=int,
        default=None,
        help="base index in I (default: smallest element)",
    )

    p = add("wallcross", _cmd_wallcross, "Ordered wall crossings along a straight segment, with crossing reports.")
    p.add_argument("--from", dest="r_from", required=True, help="start lengths")
    p.add_argument("--to", dest="r_to", required=True, help="end lengths")

    p = add("chambers", _cmd_chambers, "Enumerate every chamber for n sides with facet adjacency.")
    p.add_argument("--n", type=int, required=True,
                   help="number of sides (3..7; n = 7 takes about 20 s, 50 s without --counts-only)")
    p.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="abort if more chambers than this are found",
    )
    p.add_argument(
        "--counts-only",
        action="store_true",
        help="emit only the census, not the node and edge lists",
    )

    p = add("validate", _cmd_validate, "Cross-validate Betti routes and wall jumps; exit 1 on any failure.")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", default=None, help="validate the chamber of r")
    group.add_argument(
        "--n", type=int, default=None, help="validate every nonempty chamber for n (3..6; at 7 use --limit)"
    )
    p.add_argument(
        "--limit",
        type=int,
        default=None,
        help="with --n: stop after this many chambers (the whole chamber graph is still walked first)",
    )
    p.add_argument(
        "--full",
        action="store_true",
        help="with --n: include every report, not just failures",
    )
    # the usage as argparse wraps it at 80 columns on Python 3.10-3.12 (3.13 keeps
    # one line), whatever COLUMNS says; set after the subparsers take their prog
    parser.usage = "%(prog)s [-h]\n{0}{{{1}}}\n{0}...".format(" " * 20, ",".join(sub.choices))
    return parser


def run(
    argv: Sequence[str] | None = None,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    """Execute one invocation; returns the exit code instead of exiting."""
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    try:
        args = _build_parser().parse_args(argv)
    except _HelpRequested as exc:
        out.write(str(exc))
        return EXIT_OK
    except _UsageError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    try:
        doc, code = args.handler(args)
        if getattr(args, "decimal", None) is not None:
            doc[f"{args.headline}_approx"] = _decimal_text(Fraction(doc[args.headline]), args.decimal)
        _emit(doc, args.format, out)
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}", file=err)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    return code


def console_main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    console_main()
