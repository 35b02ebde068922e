"""End-to-end CLI tests: documents, formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygonspace import Convention, LengthVector, MultiPoly, signature, volume_polynomial
from polygonspace import cli

from conftest import apply_convention, direct_volume_value

CP2 = "3/20,3/20,2/5,3/20,3/20"
BLOWUP = "3/60,11/60,24/60,11/60,11/60"
R7 = "125/893,8/893,100/893,111/893,156/893,196/893,197/893"
R12 = "2275,1523,2519,1734,2628,2414,2930,2723,2515,2335,2888,2085"


def invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv: list[str]) -> dict:
    code, out, err = invoke(argv)
    assert code == 0, f"exit {code}: {err}"
    return json.loads(out)


# ----------------------------------------------------------------- documents


def test_analyze_reference_chamber() -> None:
    doc = invoke_json(["analyze", "--r", CP2])
    assert doc == {
        "n": 5,
        "r": ["3/20", "3/20", "2/5", "3/20", "3/20"],
        "perimeter": "1/1",
        "signature": [[3], [1, 2, 4], [1, 2, 5], [1, 4, 5], [2, 4, 5]],
        "external": True,
        "empty": False,
    }


def test_betti_both_methods_agree() -> None:
    doc = invoke_json(["betti", "--r", "1/20,11/60,2/5,11/60,11/60", "--method", "both"])
    assert doc == {"apolar": [1, 2, 1], "wallcross": [1, 2, 1], "agree": True}
    assert list(doc) == ["apolar", "wallcross", "agree"]
    only = invoke_json(["betti", "--r", CP2, "--method", "apolar"])
    assert only == {"apolar": [1, 1, 1]}


def test_volume_document_and_round_trip() -> None:
    doc = invoke_json(["volume", "--r", CP2])
    assert doc["n"] == 5
    assert doc["convention"] == "homogeneous"
    assert doc["variables"] == ["r1", "r2", "r3", "r4", "r5"]
    assert doc["value_at_r"] == "1/50"
    assert doc["scale"] == "(2pi)^(n-3)"
    v = volume_polynomial(signature(LengthVector.parse(CP2))).v
    assert MultiPoly.from_records(5, doc["poly"]["records"]) == v

    aff = invoke_json(["volume", "--r", CP2, "--convention", "affine:5"])
    assert aff["variables"] == ["r1", "r2", "r3", "r4"]
    assert aff["value_at_r"] == "1/50"  # value is convention-independent
    assert MultiPoly.from_records(4, aff["poly"]["records"]) == apply_convention(
        Convention.affine(5), v
    )


def test_volume_decimal_marked_approximate() -> None:
    doc = invoke_json(["volume", "--r", CP2, "--decimal", "3"])
    assert doc["value_at_r"] == "1/50"
    assert doc["value_at_r_approx"] == "0.020 (approx)"


def test_intersect_document() -> None:
    doc = invoke_json(
        ["intersect", "--r", CP2, "--alpha", "0,0,2,0,0", "--convention", "affine:5"]
    )
    assert doc["alpha"] == [0, 0, 2, 0, 0]
    assert doc["intersection_number"] == "4/1"
    doc = invoke_json(
        ["intersect", "--r", BLOWUP, "--alpha", "2,0,0,0,0", "--convention", "affine:5"]
    )
    assert doc["intersection_number"] == "-4/1"


def test_ring_document() -> None:
    doc = invoke_json(["ring", "--r", BLOWUP, "--convention", "affine:5"])
    assert doc["variables"] == ["x1", "x2", "x3", "x4"]
    assert doc["betti"] == [1, 2, 1]
    by_degree = {g["degree"]: [c["text"] for c in g["classes"]] for g in doc["generators"]}
    assert by_degree[1] == ["x2", "x4"]
    assert by_degree[2] == ["-x1^2 + x1*x3", "x3^2"]
    assert by_degree[3] == []
    # every generator re-parses and annihilates the presented polynomial
    v_aff = apply_convention(
        Convention.affine(5), volume_polynomial(signature(LengthVector.parse(BLOWUP))).v
    )
    for g in doc["generators"]:
        for c in g["classes"]:
            poly = MultiPoly.from_records(4, c["records"])
            assert poly.apply_operator(v_aff).is_zero


def test_pairing_text_and_record_inputs() -> None:
    doc = invoke_json(
        ["pairing", "--r", CP2, "--a", "x3", "--b", "x3", "--convention", "affine:5"]
    )
    assert doc["pairing"] == "4/1"
    assert doc["a"]["text"] == "x3"

    doc = invoke_json(["pairing", "--r", CP2, "--a", "x3", "--b", "x3"])
    assert doc["pairing"] == "1/1"

    records = json.dumps([{"coeff": "1/1", "exps": [0, 0, 1, 0, 0]}])
    doc = invoke_json(["pairing", "--r", BLOWUP, "--a", "x1 + x3", "--b", records])
    assert doc["pairing"] == "-2/1"
    assert doc["b"]["text"] == "x3"

    doc = invoke_json(
        ["pairing", "--r", CP2, "--a", "x3", "--b", "x3", "--decimal", "2"]
    )
    assert doc["pairing_approx"] == "1.00 (approx)"


def test_pairing_rejects_eliminated_variable() -> None:
    code, _, err = invoke(
        ["pairing", "--r", CP2, "--a", "x5", "--b", "x3", "--convention", "affine:5"]
    )
    assert code == 4
    assert "variables are x1, x2, x3, x4" in err


@pytest.mark.parametrize(
    "j, message", [(0, "affine index must be 1-based, got 0"), (6, "affine index 6 exceeds n = 5")]
)
def test_affine_index_outside_the_sides_exits_4(j: int, message: str) -> None:
    # Convention.nvars checks the index on every route: the catalecticant
    # columns, the multi-index, the class fold and the displayed volume
    for argv in (
        ["volume", "--r", BLOWUP],
        ["intersect", "--r", BLOWUP, "--alpha", "0,0,2,0,0"],
        ["betti", "--r", BLOWUP],
        ["ring", "--r", BLOWUP],
        ["pairing", "--r", BLOWUP, "--a", "x1", "--b", "x3"],
    ):
        assert invoke([*argv, "--convention", f"affine:{j}"]) == (4, "", f"error: {message}\n"), argv


def test_the_zero_class_pairs_to_zero() -> None:
    for conv in ("homogeneous", "affine:3"):
        doc = invoke_json(["pairing", "--r", "1,2,3,5,8", "--a", "0", "--b", "x1*x2", "--convention", conv])
        assert doc["a"] == {"text": "0", "records": []}
        assert doc["pairing"] == "0/1"
    assert invoke(["pairing", "--r", "1,2,3,5,8", "--a", "x3", "--b", "x1*x2"]) == (
        4, "", "error: degrees 1+2 != n-3 = 2\n"
    )


def test_pd_class_document() -> None:
    doc = invoke_json(["pd-class", "--set", "1,3", "--r", CP2])
    assert doc["n"] == 5
    assert doc["set"] == [1, 3]
    assert doc["base"] == 1
    assert doc["degree"] == 1
    assert doc["pd"]["text"] == "-x1 - x3"
    assert doc["normal_chern"]["text"] == "-2*x3"
    assert doc["set_is"] == "long"
    assert doc["is_zero_in_ring"] is True
    assert doc["bases_agree"] is True

    doc = invoke_json(["pd-class", "--set", "1,3", "--r", BLOWUP])
    assert doc["set_is"] == "short"
    assert doc["is_zero_in_ring"] is False

    bare = invoke_json(["pd-class", "--set", "1,3,4", "--n", "5", "--base", "3"])
    assert bare["base"] == 3
    assert bare["degree"] == 2
    assert "set_is" not in bare and "is_zero_in_ring" not in bare

    code, _, err = invoke(["pd-class", "--set", "1,3", "--n", "5", "--base", "2"])
    assert code == 4 and "base 2 not in {1,3}" in err
    code, _, err = invoke(["pd-class", "--set", "1,3"])
    assert code == 4 and "needs --n or --r" in err
    code, _, err = invoke(["pd-class", "--set", "1,3", "--n", "4", "--r", CP2])
    assert code == 4 and "disagrees" in err


def test_wallcross_document() -> None:
    doc = invoke_json(["wallcross", "--from", CP2, "--to", BLOWUP])
    assert doc["count"] == 1
    assert doc["signature_from"] == [[3], [1, 2, 4], [1, 2, 5], [1, 4, 5], [2, 4, 5]]
    assert doc["signature_to"] == [[1, 3], [1, 2, 4], [1, 2, 5], [1, 4, 5]]
    (crossing,) = doc["crossings"]
    assert crossing["t"] == "1/2"
    assert crossing["wall_long_before"] == [1, 3]
    assert crossing["p"] == 2 and crossing["q"] == 3
    assert crossing["signature_after"] == doc["signature_to"]
    assert crossing["dies"] == "M_{2,4,5} = CP^0 (present before, absent after)"
    assert crossing["born"] == "M_{1,3} = CP^1 (absent before, present after)"
    assert crossing["betti_delta"] == [0, 1, 0]
    assert crossing["pd_born"]["text"] == "-x1 - x3"
    assert crossing["normal_chern"]["text"] == "-2*x3"
    assert [d["power"] for d in crossing["decomposition"]] == [0, 1]
    assert [d["is_zero"] for d in crossing["decomposition"]] == [False, False]


def test_wallcross_errors() -> None:
    code, _, err = invoke(["wallcross", "--from", "1,1,1", "--to", "1,1,2"])
    assert code == 4 and "perimeter changes" in err
    code, _, err = invoke(["wallcross", "--from", "1,1,1,1/2", "--to", CP2])
    assert code == 4 and "mismatched lengths" in err
    code, _, err = invoke(["wallcross", "--from", "1,2,4,8", "--to", "2,1,8,4"])
    assert code == 2 and "at the same t" in err
    code, _, err = invoke(["wallcross", "--from", "1,1,1,1", "--to", "2,1,1/2,1/2"])
    assert code == 2 and "not generic" in err


def test_chambers_counts_and_listing() -> None:
    doc = invoke_json(["chambers", "--n", "4", "--counts-only"])
    assert doc == {
        "n": 4,
        "count": 12,
        "nonempty": 8,
        "empty": 4,
        "external": 4,
        "edge_count": 16,
    }
    full = invoke_json(["chambers", "--n", "3"])
    assert [node["index"] for node in full["nodes"]] == [0, 1, 2, 3]
    assert len(full["edges"]) == 3
    for edge in full["edges"]:
        assert set(edge) == {"source", "target", "wall_long_at_source"}


def test_chambers_budget_exit() -> None:
    code, _, err = invoke(["chambers", "--n", "5", "--max-nodes", "10"])
    assert code == 1
    assert "more than 10 chambers at n = 5" in err


@pytest.mark.parametrize("command", ["chambers", "validate"])
def test_whole_graph_commands_refuse_n_beyond_seven(command: str) -> None:
    # n = 8 has about 3.3e7 chambers: the walk would run out of memory
    code, out, err = invoke([command, "--n", "8"])
    assert code == 4 and out == ""
    assert err == "error: n = 8 outside the tractable range 3..7\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["chambers", "--n", "5", "--max-nodes", "0"],
        ["chambers", "--n", "5", "--max-nodes", "-3"],
        ["validate", "--n", "5", "--limit", "0"],
        ["validate", "--n", "5", "--limit", "-1"],
    ],
)
def test_counts_below_one_are_usage_errors(argv: list[str]) -> None:
    code, out, err = invoke(argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be at least 1" in err


def test_validate_single_and_exhaustive() -> None:
    doc = invoke_json(["validate", "--r", BLOWUP])
    assert doc["betti_apolar"] == [1, 2, 1]
    assert doc["betti_wallcross"] == [1, 2, 1]
    assert doc["betti_agree"] is True
    assert doc["passed"] is True
    assert all(check["ok"] for check in doc["jump_checks"])

    doc = invoke_json(["validate", "--n", "4", "--limit", "3"])
    assert doc["n"] == 4
    assert doc["checked"] == 3
    assert doc["all_passed"] is True
    assert doc["failures"] == []
    assert "reports" not in doc

    doc = invoke_json(["validate", "--n", "4", "--limit", "2", "--full"])
    assert len(doc["reports"]) == 2


def test_validate_n_builds_no_chamber_graph(monkeypatch) -> None:
    # validate --n reads the walk's bitsets alone: no node, point or edge list
    def forbidden(*args, **kwargs):
        raise AssertionError("validate --n needs no chamber graph")

    monkeypatch.setattr(cli, "enumerate_chambers", forbidden)
    doc = invoke_json(["validate", "--n", "5"])
    assert doc["checked"] == 76
    assert doc["all_passed"] is True


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["chambers", "--n", "4"],
         "a213c319ee031a97c1747920d99f990ff0df14d351bcb36c15cfcff8d9c98451"),
        (["chambers", "--n", "5"],
         "4108fed26ad87f918401b3baae69c54c0a1a8e335982c350bfec525bb04fe477"),
        (["chambers", "--n", "5", "--counts-only"],
         "0613f403904f827fda3c4e73a4016e480df672b2f428b326870698b442a80809"),
        (["validate", "--n", "5", "--full"],
         "87b8decbf5bf5f865ebba042756e043453e0f0660de3636d3ff1f17cac720bec"),
        # n = 6 is the smallest n with walls that carry no facet (2180
        # skipped by the walk's completeness test)
        (["chambers", "--n", "6"],
         "1cc0fb6159ed27fbc63b4c710fca59617a3e1849ebda3d16e95aff01856bc8c3"),
        (["chambers", "--n", "6", "--counts-only"],
         "463a436ebb42158f27900f7c82cf81d959a80329e6c93a7c56b2de297aa05104"),
        (["validate", "--n", "6", "--full"],
         "6ad3a8f988ebcf29c7484e382725f6bee51ff1a7c7f54e9f0390717ee90be0ff"),
    ],
)
def test_census_documents_are_byte_stable(argv: list[str], digest: str) -> None:
    # SHA-256 of stdout as the Fraction-based walk printed it: the integer
    # walk must reproduce every representative and edge byte for byte
    code, out, err = invoke(argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


RING_N6_CLASSES = ("1,2,2,2,2,6", "1,1,1,4,4,4", "1,1,1,2,2,4", "1,1,1,1,2,3", "1,1,1,1,1,2")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["ring", "--r", r, "--convention", conv], digest)
        for r, digests in zip(RING_N6_CLASSES, [
            ("661178aee8eaa3c2e398e3e91574fd7a4c9d78a9d46fb3018183a6f80f1e8b60",
             "40b743379841561ec8f622619ba76d5fa9cc4ed2d349e5d66e4c03649bafbc16"),
            ("83b6c53267794ecbefe95183b20b2e2cea5bb98171b136769c85d23ecbe2291b",
             "d398da9b3bfbdab5bd6b441f86405f1c216d555de48ce8bb4f9241b5fba52c2d"),
            ("f97af39e351f6fa469ed5f0e6b66b6db5a33909997f5544f6bd61d0500354464",
             "f09b8077b4dc4e07369e8ed654492e0ce145fc765fa58e82a73c4274909bb39d"),
            ("c4d65ad2f74238b5ed62bfcc449b528798d6b9d5bfa35e3a4ec62c6c92d2b38a",
             "921a8aee10919358bbab580b1a72ec66431e6b09aacc90e0d9d69bdee8793735"),
            ("fc053e0e1030311eba1c0f85e33569553b11f24dff9d13b336486223ac962c82",
             "1d6b7e95fcb44b37a5fb0e7bef8d65c7cd656840a371d64231b48b986b317d79"),
        ])
        for conv, digest in zip(("homogeneous", "affine:1"), digests)
    ] + [
        (["ring", "--r", R7],
         "f71c42448a0238eae71fad59ff1a5f2a750f6af535620cbcfc00d733b4083914"),
        (["ring", "--r", "94,150,15,130,55,10,23,112"],
         "e7fec1d8b6b73cbb4a7961345fba008d15f0b61c7a3011f287e1b5a021a047e4"),
    ],
)
def test_ring_documents_are_byte_stable(argv: list[str], digest: str) -> None:
    # SHA-256 of stdout as the Fraction-based annihilator reduction printed
    # it: one chamber of each n = 6 class with 2 <= b2 <= 6 in both
    # conventions, and one chamber each at n = 7 and n = 8
    code, out, err = invoke(argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


WRITER_ARGVS = (
    ["analyze", "--r", CP2],
    ["volume", "--r", BLOWUP, "--decimal", "3"],
    ["intersect", "--r", CP2, "--alpha", "0,0,2,0,0", "--convention", "affine:5"],
    ["betti", "--r", BLOWUP, "--method", "both"],
    ["ring", "--r", BLOWUP, "--convention", "affine:5"],
    ["pairing", "--r", CP2, "--a", "x3", "--b", "x3"],
    ["pd-class", "--set", "1,3", "--r", CP2],
    ["wallcross", "--from", CP2, "--to", BLOWUP],
    ["chambers", "--n", "4"],
    ["chambers", "--n", "4", "--counts-only"],
    ["validate", "--n", "4", "--full"],
    ["validate", "--r", BLOWUP],
)


def test_json_writer_is_json_dumps(monkeypatch) -> None:
    # the one-pass writer must print what json.dumps(doc, indent=2) prints,
    # on the document of every subcommand and on the corner cases of json
    docs = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc, fmt, out: docs.append(doc) or emit(doc, fmt, out))
    for argv in WRITER_ARGVS:
        assert invoke(argv)[0] == 0, argv
    assert [doc for doc in docs if not doc] == []
    assert len(docs) == len(WRITER_ARGVS) and len({argv[0] for argv in WRITER_ARGVS}) == 10
    docs += [{}, {"a": [], "b": {}, "c": [[], {}, [[]], {"d": {}}]}, {"é": "ü☃\n\"\\", "k": [None, True, False, 1.5]},
             {1: "int key", None: 0, 2.5: (1, 2)},
             {"ints": [3, -1, 0, 10**30], "one": [7], "bools": [True, False], "mixed": [1, True, 0, False],
              "first": [False, 2], "floats": [1, 2.0], "none": [1, None], "tuple": (4, 5), "pair": ((1,), ()),
              "empty": [], "nested": [[], [[]], [[], [1, 2]], ()], "deep": {"a": [[[3]]]}, "flags": (True, None)}]
    for doc in docs:
        out = io.StringIO()
        emit(doc, "json", out)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
    for bad in ({"a": {1, 2}}, {"a": [Fraction(1, 2)]}, {(1, 2): 0}):
        with pytest.raises(TypeError) as expected:
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError) as raised:
            emit(bad, "json", io.StringIO())
        assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------- exit codes


def test_exit_singular_names_the_pair() -> None:
    code, out, err = invoke(["volume", "--r", "1,1,1,1"])
    assert code == 2
    assert out == ""
    assert "I = {1,2}" in err


def test_exit_empty_space() -> None:
    code, _, err = invoke(["betti", "--r", "10,1,1,1"])
    assert code == 3 and "long singleton" in err
    code, _, err = invoke(["betti", "--r", "10,1,1,1", "--method", "wallcross"])
    assert code == 3 and "polygon space is empty" in err
    code, _, err = invoke(["validate", "--r", "10,1,1,1"])
    assert code == 3
    # volume of an empty chamber is fine: it is exactly zero
    doc = invoke_json(["volume", "--r", "10,1,1,1"])
    assert doc["value_at_r"] == "0/1"
    assert doc["poly"]["text"] == "0"


def test_exit_usage_errors() -> None:
    # the whole stderr line of each, not a fragment
    usage = [
        ([], "the following arguments are required: command"),
        (["frobnicate"], (
            "argument command: invalid choice: 'frobnicate' (choose from 'analyze', 'volume', "
            "'intersect', 'betti', 'ring', 'pairing', 'pd-class', 'wallcross', 'chambers', 'validate')"
        )),
        (["volume"], "the following arguments are required: --r"),
        (["volume", "--r", "1,2"], "need at least 3 side lengths, got 2"),
        (["volume", "--r", CP2, "--convention", "fancy"], "unknown convention 'fancy'"),
        (["intersect", "--r", CP2, "--alpha", "0,0,1,0,0"], "|alpha| = 1, expected n-3 = 2"),
        (["intersect", "--r", CP2, "--alpha", "0,0,0,0,2", "--convention", "affine:5"],
         "derivative in r_5 is not available under affine:5"),
        (["volume", "--r", CP2, "--decimal", "0"], "--decimal needs at least 1 digit"),
        (["validate", "--r", CP2, "--n", "4"], "argument --n: not allowed with argument --r"),
        (["validate"], "one of the arguments --r --n is required"),
        (["chambers", "--n", "77"], "n = 77 outside the tractable range 3..7"),
    ]
    for argv, message in usage:
        assert invoke(argv) == (4, "", f"error: {message}\n"), argv


@pytest.mark.parametrize(
    "argv, named",
    [
        (["analyze", "--r", "0,1,1"], "side lengths must be strictly positive: (0/1, 1/1, 1/1)"),
        (["analyze", "--r=-1/2,2,2"], "side lengths must be strictly positive: (-1/2, 2/1, 2/1)"),
        (["intersect", "--r", CP2, "--alpha", ""], "--alpha takes comma-separated integers, got ''"),
        (["intersect", "--r", CP2, "--alpha", "1,,1"], "--alpha takes comma-separated integers, got '1,,1'"),
        (["intersect", "--r", CP2, "--alpha", "0,0,2,0,0", "--convention", "affine:x"],
         "convention 'affine:x': expected affine:J with J an integer"),
        (["pd-class", "--set", "1,,2", "--n", "5"], "--set takes comma-separated integers, got '1,,2'"),
        (["pairing", "--r", BLOWUP, "--a", "[[", "--b", "x3"],
         """--a takes polynomial text or a JSON list of {"coeff", "exps"} records, got '[['"""),
        (["pairing", "--r", BLOWUP, "--a", "x3", "--b", "[["],
         """--b takes polynomial text or a JSON list of {"coeff", "exps"} records, got '[['"""),
        (["pairing", "--r", BLOWUP, "--a", "[null]", "--b", "x3"],
         "--a: a record needs exactly the keys 'coeff' and 'exps', got null"),
        (["pairing", "--r", BLOWUP, "--a", "x3", "--b", '[{"coeff": null, "exps": [0, 0, 1, 0, 0]}]'],
         "--b: 'coeff' must be a rational as text or an integer, got null"),
        (["pairing", "--r", BLOWUP, "--a", '[{"coeff": "1", "exps": [0, null, 1, 0, 0]}]', "--b", "x3"],
         "--a: 'exps' must be a list of 5 non-negative integers, got [0, null, 1, 0, 0]"),
    ],
)
def test_malformed_arguments_are_named_not_dumped(argv: list[str], named: str) -> None:
    # one line naming the argument and the expected form, with no Python
    # internals: no Fraction reprs, no int() literal message
    assert invoke(argv) == (4, "", f"error: {named}\n")


@pytest.mark.parametrize(
    "argv, headline",
    [
        (["volume", "--r", BLOWUP], "value_at_r"),
        (["intersect", "--r", BLOWUP, "--alpha", "2,0,0,0,0"], "intersection_number"),
        (["pairing", "--r", BLOWUP, "--a", "x1 + x3", "--b", "x3"], "pairing"),
    ],
)
def test_decimal_renders_the_headline_last(argv: list[str], headline: str) -> None:
    plain = invoke_json(argv)
    doc = invoke_json(argv + ["--decimal", "4"])
    assert list(doc) == list(plain) + [f"{headline}_approx"]
    assert doc[f"{headline}_approx"] == cli._decimal_text(Fraction(plain[headline]), 4)


# SHA-256 of each -h page at 80 columns, as the parser with a separate
# handler table printed it: declaring each command once changes no page
HELP_DIGESTS = {
    None: "41c52c7ede793596d3cfeb332cfab6d07e527006512c4aac5d888314c6844f68",
    "analyze": "9e7f14b53dbf793be46cd73e770c4af4a0057351cf21946585cad58604f41e50",
    "volume": "1f23eeafc75f5d97b75e993e4c4792d9903683011d0e486c129bd49c3e5176a2",
    "intersect": "6f42a6a57c205e48d7a1992c7e900ecdf93eccce3c8764b606e5d2589aa037b3",
    "betti": "db9fe5af4ddf06f5a919fc3ec7a16b86a1849a26a54ed6dc3392a64eebb6c885",
    "ring": "a5035d48adf76989b162cc2f4c4adf3081f039b64ab7fcfc7fe89d29946a18df",
    "pairing": "7d5535509007f1eb19f1359c7ac58212d4b52fc642763029c6c5d43f34805899",
    "pd-class": "189b8ecc3f817f54a50fe85158f6c1a1d6aa1467cbdb7dd240effca2f2724bb1",
    "wallcross": "6ecfe678cd5be5f02d57a22db67bb9de82f3d06b499c0b432a610e13739fc8a7",
    "chambers": "f4b0ee3b8f36d128168e66d067fb0912299821e472086e07f16b0c63baaf7646",
    "validate": "0239644210075c4996aa49ac555e1c1941a2dc5a331da3a8c92dccf576279b57",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS))
def test_help_pages_are_byte_stable(command: str | None, monkeypatch) -> None:
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(["-h"] if command is None else [command, "-h"])
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["ring", "-h"], ["ring", "--r", CP2, "--help"]])
def test_help_goes_to_the_given_stdout(argv: list[str], capsys) -> None:
    code, out, err = invoke(argv)
    assert code == 0 and not err
    assert out.startswith("usage: polygonspace ring" if "ring" in argv else "usage: polygonspace [-h]")
    assert capsys.readouterr() == ("", "")


def test_shared_parser_gives_the_same_answers_every_time() -> None:
    errors = {
        ("validate", "--r", "X", "--n", "5"): "error: argument --n: not allowed with argument --r\n",
        ("ring",): "error: the following arguments are required: --r\n",
        ("betti", "--r", CP2, "--method", "nope"): (
            "error: argument --method: invalid choice: 'nope' "
            "(choose from 'apolar', 'wallcross', 'both')\n"
        ),
    }
    valid = [["ring", "--r", CP2], ["validate", "--n", "4"], ["betti", "--r", BLOWUP, "--method", "apolar"]]
    first = {tuple(argv): invoke(argv) for argv in valid}
    assert all(code == 0 and out and not err for code, out, err in first.values())
    for _ in range(3):
        for (argv, message), good in zip(errors.items(), valid):
            assert invoke(list(argv)) == (cli.EXIT_USAGE, "", message)
            assert invoke(good) == first[tuple(good)]


def test_per_point_commands_cap_the_side_count() -> None:
    sides = ",".join(str(k) for k in range(1, 26))  # 25 sides, odd perimeter
    for argv in (
        ["validate", "--r", sides],
        ["analyze", "--r", sides],
        ["betti", "--r", sides, "--method", "wallcross"],
        ["wallcross", "--from", sides, "--to", sides],
        ["pd-class", "--set", "1,2", "--n", "25"],
    ):
        code, out, err = invoke(argv)
        assert code == 4 and out == ""
        assert err.startswith("error: 25 sides exceed the limit of") and err.count("\n") == 1
        assert "Traceback" not in err
    assert cli.MAX_SIDES >= 12  # the benchmark's path walks run at n = 12
    assert invoke(["analyze", "--r", ",".join(["1"] * (cli.MAX_SIDES - 1) + ["2"])])[0] == 0


def test_pairing_rejects_malformed_records() -> None:
    for records in ('[{"coef":"1","exps":[1,0,0,0,0]}]', "[1]"):
        code, out, err = invoke(["pairing", "--r", BLOWUP, "--a", records, "--b", "x3"])
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_inputs_too_large_to_build_exit_4() -> None:
    # each would otherwise build a huge integer (10^(10^12)) or recurse
    # past the interpreter's limit before any check could reject it
    for argv in (
        ["intersect", "--r", "1e999999999999,1,1", "--alpha", "0,0,0"],
        ["pairing", "--r", CP2, "--a", "x3", "--b", "x3", "--decimal", str(10**12)],
        ["pairing", "--r", BLOWUP, "--a", "[" * 100000, "--b", "x3"],
    ):
        code, out, err = invoke(argv)
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# Argv fragments for the per-point commands, n <= 7: lengths (generic,
# empty, singular and malformed), classes as text or JSON records, index
# sets, bases, conventions, multi-indices and Betti methods.
_LENGTHS = st.one_of(
    st.sampled_from([CP2, BLOWUP, R7, "1,1,1", "2,1,1,1", "3,4,4,4,4,4", "10,1,1,1"]),
    st.sampled_from(["1,1,2", "1,2", "0,1,1", "-1,2,2", "1/0,1,1", "a,b,c", "", ",", "1e5,1,1", "1_0,3,3"]),
    st.lists(st.integers(1, 40), min_size=3, max_size=7).map(lambda xs: ",".join(map(str, xs))),
)
_VARIABLES = ["x1", "x2", "x3", "x4", "x5", "x6", "x7"]
_HOMOGENEOUS = st.integers(0, 4).flatmap(
    lambda d: st.lists(
        st.tuples(
            st.sampled_from(["", "2*", "1/2*", "-", "-3/4*", "0*", "2.5*"]),
            st.lists(st.sampled_from(_VARIABLES), min_size=d, max_size=d),
        ),
        min_size=1,
        max_size=3,
    )
).map(lambda terms: " + ".join(c + ("*".join(vs) or "1") for c, vs in terms))
_POLY = st.one_of(
    _HOMOGENEOUS,
    st.lists(
        st.sampled_from(["x1", "x3", "x8", "x0", "y1", "+", "-", "*", "^", "2", "1/2", "1/0", "(", "[", "]", "{", "}", ":", ",", '"coeff"']),
        max_size=8,
    ).map("".join),
    st.lists(
        st.fixed_dictionaries({
            "coeff": st.one_of(st.sampled_from(["1", "-1/2", "0", "x", "1/0", "1e3"]), st.integers(-3, 3), st.none(), st.booleans()),
            "exps": st.lists(st.integers(-1, 2), min_size=4, max_size=7),
        }),
        max_size=3,
    ).map(json.dumps),
    st.sampled_from(["[", "[1]", "{}", "[[]]", "null", '["a"]', "[{}]", '[{"coeff": "1", "exps": [0, 0, 1, 0, 0], "x": 1}]']),
)
_INTS = st.lists(st.integers(-1, 9), max_size=7).map(lambda xs: ",".join(map(str, xs)))
_ALPHA = st.lists(st.integers(0, 3), min_size=3, max_size=7).map(lambda xs: ",".join(map(str, xs)))
_CONVENTION = st.sampled_from([
    "homogeneous", "affine:1", "affine:3", "affine:5", "affine:7", "affine:8",
    "affine:0", "affine:-1", "affine:", "affine:x", "fancy",
])
_DECIMAL = st.integers(-1, 6)
_FORMAT = st.sampled_from(["json", "text"])
_OPTIONS = {
    "pairing": {
        "--r": _LENGTHS, "--a": _POLY, "--b": _POLY,
        "--convention": _CONVENTION, "--decimal": _DECIMAL, "--format": _FORMAT,
    },
    "pd-class": {
        "--set": st.one_of(
            st.sets(st.integers(1, 7), min_size=1, max_size=6).map(lambda xs: ",".join(map(str, sorted(xs)))),
            _INTS,
            st.sampled_from(["1,,2", "a", "1.5"]),
        ),
        "--n": st.integers(-1, 8),
        "--r": _LENGTHS,
        "--base": st.integers(-2, 9),
        "--format": _FORMAT,
    },
    "intersect": {
        "--r": _LENGTHS,
        "--alpha": st.one_of(
            st.sampled_from(["0,0,0", "1,0,0,0", "0,0,1,1,0", "2,0,0,0,0", "0,1,0,2,0,1,0", "1,1,1,1,0,0,0"]),
            _ALPHA,
            _INTS,
            st.sampled_from(["", "1,a", "1.0,1,1,1,1"]),
        ),
        "--convention": _CONVENTION,
        "--decimal": _DECIMAL,
        "--format": _FORMAT,
    },
    "volume": {"--r": _LENGTHS, "--convention": _CONVENTION, "--decimal": _DECIMAL, "--format": _FORMAT},
    "ring": {"--r": _LENGTHS, "--convention": _CONVENTION, "--format": _FORMAT},
    "betti": {
        "--r": _LENGTHS,
        "--method": st.sampled_from(["apolar", "wallcross", "both", "", "fast"]),
        "--convention": _CONVENTION,
        "--format": _FORMAT,
    },
    "wallcross": {"--from": _LENGTHS, "--to": _LENGTHS, "--format": _FORMAT},
    "analyze": {"--r": _LENGTHS, "--format": _FORMAT},
    "validate": {"--r": _LENGTHS, "--format": _FORMAT},
}
# Valid invocations that the fuzzer then mutates.
_TEMPLATES = {
    "pairing": [
        {"--r": CP2, "--a": "x3", "--b": "x3"},
        {"--r": BLOWUP, "--a": "x1 + x3", "--b": "x3", "--decimal": "3"},
        {"--r": BLOWUP, "--a": "x1", "--b": "1/2*x2", "--convention": "affine:5"},
        {"--r": "3,4,4,4,4,4", "--a": "x1", "--b": "x2*x3 - x4^2"},
        {"--r": R7, "--a": "x1*x2", "--b": "x3^2", "--format": "text"},
    ],
    "pd-class": [
        {"--set": "1,3", "--r": CP2},
        {"--set": "1,2", "--n": "5"},
        {"--set": "1,2,3", "--r": "3,4,4,4,4,4", "--base": "2"},
        {"--set": "2,3,4", "--r": R7, "--base": "3", "--format": "text"},
    ],
    "intersect": [
        {"--r": CP2, "--alpha": "0,0,2,0,0"},
        {"--r": BLOWUP, "--alpha": "0,1,1,0,0", "--convention": "affine:5", "--decimal": "4"},
        {"--r": R7, "--alpha": "1,1,1,1,0,0,0", "--convention": "affine:7"},
    ],
    "volume": [
        {"--r": CP2},
        {"--r": BLOWUP, "--convention": "affine:2", "--decimal": "3", "--format": "text"},
        {"--r": R7, "--convention": "affine:7"},
    ],
    "ring": [
        {"--r": BLOWUP},
        {"--r": "3,4,4,4,4,4", "--convention": "affine:1"},
        {"--r": R7, "--format": "text"},
    ],
    "betti": [
        {"--r": CP2},
        {"--r": "3,4,4,4,4,4", "--method": "apolar", "--convention": "affine:2"},
        {"--r": R7, "--method": "wallcross"},
    ],
    "wallcross": [
        {"--from": CP2, "--to": BLOWUP},
        {"--from": "162/336,29/336,29/336,29/336,29/336,29/336,29/336", "--to": R7, "--format": "text"},
    ],
    "analyze": [{"--r": CP2}, {"--r": R7, "--format": "text"}],
    "validate": [{"--r": BLOWUP}, {"--r": R7}],
}


@st.composite
def _argv(draw: st.DrawFn) -> list[str]:
    """A template with up to three options replaced by fragments or dropped.

    Every value is passed as "--flag=value", so that it may start with "-".
    """
    command = draw(st.sampled_from(sorted(_TEMPLATES)))
    options = dict(draw(st.sampled_from(_TEMPLATES[command])))
    fragments = _OPTIONS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(fragments)), max_size=3)):
        value = draw(st.one_of(st.none(), fragments[flag]))
        if value is None:
            options.pop(flag, None)
        else:
            options[flag] = str(value)
    return [command] + [f"{flag}={value}" for flag, value in options.items()]


@settings(max_examples=900, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_fuzzed_argv_exits_with_one_line(argv: list[str]) -> None:
    code, out, err = invoke(argv)
    assert code in range(5), argv
    assert "Traceback" not in err
    if code == 0:
        assert out and not err
    else:
        assert not out and err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_ring_n7_regression() -> None:
    r = LengthVector.parse(R7)
    doc = invoke_json(["ring", "--r", R7])
    assert doc["betti"] == [1, 7, 12, 7, 1]
    groups = {g["degree"]: g["classes"] for g in doc["generators"]}
    assert len(groups[1]) == r.n - doc["betti"][1] == 0
    points = [r.lengths, tuple(Fraction(k, 3 + k * k) for k in range(1, 8))]
    gens = [MultiPoly.from_records(7, c["records"]) for cs in groups.values() for c in cs]
    assert gens
    for g in gens:
        for x in points:
            assert direct_volume_value(r, operator=g, at=x) == 0
    # the check can fail: no linear form annihilates v here
    x1 = MultiPoly.variable(7, 0)
    value = x1.apply_operator(volume_polynomial(signature(r)).v).evaluate(points[1])
    assert direct_volume_value(r, operator=x1, at=points[1]) == value != 0


@pytest.mark.parametrize("argv", [
    ["intersect", "--r", R12, "--alpha", "4,5,0,0,0,0,0,0,0,0,0,0"],
    ["pairing", "--r", R12, "--a", "x1^4", "--b", "x2^3*x3^2"],
    ["pd-class", "--set", "1,2,3", "--r", R12],
    ["betti", "--r", R7, "--method", "apolar"],
    ["ring", "--r", R7],
])
def test_walsh_reads_expand_no_polynomial(argv: list[str]) -> None:
    # these commands read the chamber's Walsh table alone: the record they
    # cached holds no expanded v afterwards
    volume_polynomial.cache_clear()
    invoke_json(argv)
    built = volume_polynomial.cache_info().misses
    vp = volume_polynomial(signature(LengthVector.parse(argv[argv.index("--r") + 1])))
    assert volume_polynomial.cache_info().misses == built  # the command's own record
    assert "v" not in vars(vp)


def test_the_volume_display_expands_v_once() -> None:
    volume_polynomial.cache_clear()
    invoke_json(["volume", "--r", R7])
    vp = volume_polynomial(signature(LengthVector.parse(R7)))
    assert "v" in vars(vp)
    assert vp.v is vp.v
    assert vp == type(vp)(vp.chamber, vp.walsh) and hash(vp) == hash(type(vp)(vp.chamber, vp.walsh))


# -------------------------------------------------------------- presentation


def test_byte_identical_repeat_invocations() -> None:
    for fmt in ("json", "text"):
        first = invoke(["volume", "--r", BLOWUP, "--format", fmt])
        second = invoke(["volume", "--r", BLOWUP, "--format", fmt])
        assert first == second
        assert first[0] == 0


def test_text_format_rendering() -> None:
    code, out, _ = invoke(["analyze", "--r", CP2, "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert "external: true" in lines
    assert "empty: false" in lines
    assert "signature: [[3], [1,2,4], [1,2,5], [1,4,5], [2,4,5]]" in lines

    code, out, _ = invoke(["volume", "--r", CP2, "--format", "text"])
    assert code == 0
    poly_lines = [l for l in out.splitlines() if l.startswith("poly:")]
    assert len(poly_lines) == 1
    assert "r1^2" in poly_lines[0]


def test_console_main_exits(monkeypatch) -> None:
    monkeypatch.setattr("sys.argv", ["polygonspace", "analyze", "--r", "1,1,1"])
    with pytest.raises(SystemExit) as info:
        cli.console_main()
    assert info.value.code == 0
