import contextlib
import functools
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uhfree import (
    cli,
    emptiness,
    morphisms,
    normalform,
    poly,
    presentation,
    stringbridge,
    superlie,
)
from uhfree.cli import main
from uhfree.normalform import ClassificationError, classify_sl11
from uhfree.poly import Poly
from uhfree.presentation import (
    Mat2,
    build_mas,
    build_mas_bar,
    conjugate,
    make_presentation,
    odd_positions,
    presentation_from_json,
    presentation_to_json,
    verified_report,
)

H = Poly.var(1, 0)
DATA = Path(__file__).parent / "data"


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "mod.json"
    path.write_text(presentation_to_json(build_mas(2, (1, 2), (1,))))
    return str(path)


def write(tmp_path, name, presentation):
    path = tmp_path / name
    path.write_text(presentation_to_json(presentation))
    return str(path)


def _with_long_integer(where):
    """An input file with a 5000-digit integer literal at `where`."""
    digits = "1" * 5000
    if where == "certificate-m":
        return (DATA / "cert_2x2.json").read_text().replace('"m": 2', '"m": ' + digits)
    text = presentation_to_json(build_mas(1, (1,), ()))
    if where == "presentation-m":
        return text.replace('"m": 1', '"m": ' + digits)
    data = json.loads(text)
    data["E"]["e[1,b1]"][0][1] = "h1 + " + digits
    return json.dumps(data)


class TestExitCodes:
    def test_verify_constructed_module(self, family_file, capsys):
        assert main(["verify", family_file]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_verify_pointwise(self, family_file, capsys):
        assert main(["verify", family_file, "--pointwise", "1"]) == 0
        assert "pointwise" in capsys.readouterr().out

    def test_verify_failure_is_exit_1(self, tmp_path, capsys):
        bad = make_presentation(1, 1, {(0, 1): Mat2.zero(1), (1, 0): Mat2.zero(1)})
        path = write(tmp_path, "bad.json", bad)
        assert main(["verify", path]) == 1

    def test_printed_violations_are_capped(self, tmp_path, capsys):
        w = Mat2.of(3, ((1, Poly.var(3, 0)), (0, 1)))
        bad = make_presentation(3, 1, {pos: w for pos in odd_positions(3, 1)})
        path = write(tmp_path, "bad.json", bad)
        out = tmp_path / "out.json"
        assert main(["verify", path, "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        payload = json.loads(out.read_text())
        assert len(payload["violations"]) == 60
        assert lines[1] == "FAIL: 60 of 78 relations violated"
        assert lines[2:22] == ["  " + t for t in payload["violations"][:20]]
        assert lines[22:] == ["  ... and 40 more (see --out)"]
        assert main(["classify", path]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-22] == "FAIL: 60 relation(s) violated"
        assert lines[-1] == "  ... and 40 more (see uhfree verify --out)"

    def test_missing_file_is_exit_2(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == 2

    def test_grammar_violation_is_exit_2(self, tmp_path, capsys):
        data = json.loads(presentation_to_json(build_mas(1, (1,), ())))
        data["E"]["e[1,b1]"][0][1] = "h1 +"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2

    def test_unknown_key_is_exit_2(self, tmp_path):
        data = json.loads(presentation_to_json(build_mas(1, (1,), ())))
        data["surprise"] = True
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2

    def test_key_check_is_bounded_by_the_file(self, tmp_path, capsys):
        # 2 * 10^6 generators announced, none given: 20 named, the rest counted
        path = tmp_path / "huge.json"
        path.write_text('{"m": 1000000, "n": 1, "grading": "ungraded", "E": {}}')
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 4096
        assert "missing generator keys: ['e[1,b1]', 'e[b1,1]'," in err
        assert err.rstrip().endswith("and 1999980 more")

    @pytest.mark.parametrize(
        "key, value", [("m", -3), ("m", 0), ("m", "1"), ("m", True), ("n", 1.0)]
    )
    def test_bad_size_is_exit_2(self, tmp_path, capsys, key, value):
        data = json.loads(presentation_to_json(build_mas(1, (1,), ())))
        data[key] = value
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {key} must be a positive integer, got {value!r}\n"

    def test_duplicate_key_is_exit_2(self, tmp_path, capsys):
        # the last "m" alone would make this a valid sl(1|1) module
        text = presentation_to_json(build_mas(1, (1,), ()))
        path = tmp_path / "dup.json"
        path.write_text(text.replace('"m": 1', '"m": 5,\n  "m": 1'))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == "error: duplicate key 'm'\n"

    NOT_STRINGS = "e[1,b1] must be an array of 2 items, each a string"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(E=5), "presentation: E must be an object, got int"),
            (lambda d: d.update(E=None), "presentation: E must be an object, got NoneType"),
            (lambda d: d["E"]["e[1,b1]"][0].__setitem__(1, 0), NOT_STRINGS),
            (lambda d: d["E"]["e[1,b1]"][1].__setitem__(0, None), NOT_STRINGS),
            (
                lambda d: d["E"].update({"e[1,b1]": "0"}),
                "e[1,b1] must be an array of 2 items, each an array",
            ),
            (lambda d: d.update(grading=1), "presentation: grading must be a string, got int"),
        ],
        ids=["number-E", "null-E", "number-entry", "null-entry", "string-matrix", "number-grading"],
    )
    def test_mistyped_presentation_field_is_exit_2(self, tmp_path, capsys, edit, message):
        data = json.loads(presentation_to_json(build_mas(1, (1,), ())))
        edit(data)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    NOT_RATIONAL = "--lambdas: {!r} is not a rational number"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["submodules", "{file}", "--lambdas", "a,b"], NOT_RATIONAL.format("a")),
            (["submodules", "{file}", "--lambdas", "1/0"], NOT_RATIONAL.format("1/0")),
            (["submodules", "{file}", "--lambdas", "1,"], NOT_RATIONAL.format("")),
            (
                ["submodules", "{file}", "--length", "-1"],
                "filtration length must be non-negative, got -1",
            ),
            (
                ["verify", "{file}", "--pointwise", "-1"],
                "--pointwise must be non-negative, got -1",
            ),
            (["string-check", "--max-deg", "-3"], "max degree must be non-negative, got -3"),
        ],
        ids=["lambdas-word", "lambdas-1/0", "lambdas-empty", "length", "pointwise", "max-deg"],
    )
    def test_bad_argument_is_exit_2(self, family_file, tmp_path, capsys, argv, message):
        out = tmp_path / "out.json"
        argv = [a.format(file=family_file) for a in argv] + ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "error",
        [
            poly.PolyError,
            presentation.PresentationError,
            normalform.ClassificationError,
            morphisms.MorphismError,
            stringbridge.StringBridgeError,
            emptiness.EmptinessError,
            superlie.SuperLieError,
        ],
    )
    def test_every_module_error_is_exit_2(self, monkeypatch, capsys, error):
        assert issubclass(error, poly.UhfreeError)

        def failing(args):
            raise error("bad input")

        monkeypatch.setattr(cli, "cmd_string_check", failing)
        assert main(["string-check"]) == 2
        assert capsys.readouterr().err == "error: bad input\n"

    TOO_LONG = "integer has more than 4300 digits"

    @pytest.mark.parametrize(
        "where, argv, message",
        [
            ("presentation-m", ["verify"], "invalid JSON: an " + TOO_LONG),
            ("certificate-m", ["empty-check", "--verify"], "invalid JSON: an " + TOO_LONG),
            ("matrix-coefficient", ["verify"], TOO_LONG + " (column 6)"),
        ],
        ids=["presentation-m", "certificate-m", "matrix-coefficient"],
    )
    def test_integer_past_the_conversion_limit_is_exit_2(
        self, tmp_path, capsys, where, argv, message
    ):
        # Python converts integer literals of at most 4300 digits
        path = tmp_path / "long.json"
        path.write_text(_with_long_integer(where))
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("with_out", [False, True], ids=["stdout", "out-file"])
    def test_printed_coefficient_past_the_conversion_limit_is_exit_2(
        self, tmp_path, capsys, with_out
    ):
        # sl(1|1) with two 3000-digit multiples of h1: the violation prints
        # their 6000-digit product
        data = json.loads(presentation_to_json(build_mas(1, (1,), ())))
        data["E"]["e[1,b1]"][0][1] = "7" * 3000 + "*h1"
        data["E"]["e[b1,1]"][1][0] = "3" + "1" * 2999 + "*h1"
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        argv = ["verify", str(path)] + (["--out", str(out)] if with_out else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: coefficient has more than 4300 digits to print\n"
        assert captured.out == ""
        assert not out.exists()

    def test_parser_is_built_once_per_process(self, monkeypatch, family_file, capsys):
        calls = []
        build = cli.build_parser

        def counting():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        for command in ("verify", "classify", "verify"):
            assert main([command, family_file]) == 0
        assert len(calls) <= 1

    def test_invariant_breach_is_not_a_user_error(self):
        assert not issubclass(presentation.InvariantBreach, poly.UhfreeError)

    NOT_UTF8 = "error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "{bad}"], NOT_UTF8),
            (["empty-check", "--verify", "{bad}"], NOT_UTF8),
            (["verify", "{dir}"], "error: {dir}: Is a directory\n"),
            (["empty-check", "--verify", "{dir}"], "error: {dir}: Is a directory\n"),
        ],
        ids=["verify-not-utf8", "cert-not-utf8", "verify-directory", "cert-directory"],
    )
    def test_unreadable_input_is_exit_2(self, tmp_path, capsys, argv, message):
        bad = tmp_path / "bom16.json"
        bad.write_bytes(b"\xff\xfe{}")
        paths = {"bad": str(bad), "dir": str(tmp_path)}
        assert main([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == message.format(**paths)
        assert captured.out == ""


class TestClassify:
    def test_family_parameters_printed(self, family_file, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        assert main(["classify", family_file, "--out", str(out_path)]) == 0
        human = capsys.readouterr().out
        assert "field:" in human
        payload = json.loads(out_path.read_text())
        assert payload["a"] == ["1", "2"]
        assert payload["S"] == [1]
        assert payload["bar"] is False

    def test_sl11_class_label(self, tmp_path, capsys):
        p = make_presentation(
            1,
            1,
            {
                (0, 1): Mat2.of(1, ((0, 1), (0, 0))),
                (1, 0): Mat2(((Poly.zero(1), Poly.zero(1)), (H, Poly.zero(1)))),
            },
        )
        path = write(tmp_path, "c1.json", p)
        out_path = tmp_path / "out.json"
        assert main(["classify", path, "--out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["class"] == "class-1"

    def test_failing_relations_exit_1(self, tmp_path):
        bad = make_presentation(1, 1, {(0, 1): Mat2.zero(1), (1, 0): Mat2.zero(1)})
        path = write(tmp_path, "bad.json", bad)
        assert main(["classify", path]) == 1


class TestIsoCommand:
    def test_iso_pair(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", build_mas(2, (1, 2), (1,)))
        b = write(tmp_path, "b.json", build_mas(2, (3, 6), (1,)))
        assert main(["iso", a, b]) == 0
        assert "gamma = 1/3" in capsys.readouterr().out

    def test_expect_iso_failure(self, tmp_path):
        a = write(tmp_path, "a.json", build_mas(2, (1, 2), (1,)))
        b = write(tmp_path, "b.json", build_mas(2, (1, 2), (2,)))
        assert main(["iso", a, b]) == 0
        assert main(["iso", a, b, "--expect-iso"]) == 1

    def test_graded_categories(self, tmp_path):
        a = write(tmp_path, "a.json", build_mas(2, (1, 1), ()))
        b = write(tmp_path, "b.json", build_mas_bar(2, (1, 1), ()))
        assert main(["iso", a, b, "--category", "M11even", "--expect-iso"]) == 1
        assert main(["iso", a, b, "--category", "M11", "--expect-iso"]) == 0


class TestRoundTripAndDeterminism:
    def test_presentation_files_round_trip(self, family_file):
        text = open(family_file).read()
        p = presentation_from_json(text)
        assert presentation_to_json(p) == text

    def test_machine_output_is_deterministic(self, family_file, tmp_path):
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        assert main(["classify", family_file, "--out", str(out1)]) == 0
        assert main(["classify", family_file, "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_stamp_only_touches_human_report(self, family_file, tmp_path, capsys):
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        main(["classify", family_file, "--stamp", "--out", str(out1)])
        human1 = capsys.readouterr().out
        main(["classify", family_file, "--out", str(out2)])
        assert "generated:" in human1
        assert out1.read_text() == out2.read_text()


class TestEmptyCheckCommand:
    def test_round_trip(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main(["empty-check", "--m", "2", "--n", "2", "--out", str(cert_path)]) == 0
        assert main(["empty-check", "--verify", str(cert_path)]) == 0
        out = capsys.readouterr().out
        assert "re-verified" in out

    def test_tampered_certificate_fails(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        main(["empty-check", "--m", "2", "--n", "2", "--out", str(cert_path)])
        data = json.loads(cert_path.read_text())
        data["surviving"]["routeA"]["mat"][0][0] += " + 1"
        cert_path.write_text(json.dumps(data))
        assert main(["empty-check", "--verify", str(cert_path)]) == 1

    def test_out_of_scope_sizes(self, capsys):
        assert main(["empty-check", "--m", "2", "--n", "1"]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"format": "uhfree-emptiness-cert/1", "m": 2}', "certificate: missing key 'n'"),
            ("[]", "certificate must be a JSON object"),
            (
                '{"format": "uhfree-emptiness-cert/1", "m": "x", "n": 2}',
                "certificate: m must be an integer, got str",
            ),
            (
                '{"format": "uhfree-emptiness-cert/1", "m": 2.0, "n": 2}',
                "certificate: m must be an integer, got float",
            ),
        ],
        ids=["missing-n", "top-level-array", "string-m", "float-m"],
    )
    def test_malformed_certificate_is_exit_2(self, tmp_path, capsys, text, message):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(text)
        assert main(["empty-check", "--verify", str(cert_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("unit_names",), 5, "certificate: unit_names must be an array, got int"),
            (
                ("unit_names",),
                ["a1", "a2", "a3", "b4"],
                "certificate: unit_names must be ['a1', 'a2', 'a3', 'a4'], "
                "got ['a1', 'a2', 'a3', 'b4']",
            ),
            (("surprise",), [1], "unknown keys in certificate: ['surprise']"),
            (("surviving", "extra"), 1, "unknown keys in surviving: ['extra']"),
            (("surviving", "routeA", "extra"), 1, "unknown keys in routeA: ['extra']"),
            (("surviving", "routeB", "extra"), 1, "unknown keys in routeB: ['extra']"),
            (("branch_log", 0, "extra"), 1, "unknown keys in branch_log entry: ['extra']"),
            (("branch_log", 0, "stage1", "extra"), 1, "unknown keys in stage1: ['extra']"),
            (("branch_log", 10, "stage2", "extra"), 1, "unknown keys in stage2: ['extra']"),
        ],
        ids=[
            "unit-names-int",
            "unit-names-renamed",
            "top-level",
            "surviving",
            "routeA",
            "routeB",
            "branch-log-entry",
            "stage1",
            "stage2",
        ],
    )
    def test_fields_the_replay_never_sees_are_exit_2(self, tmp_path, capsys, path, value, message):
        # the reader checks these; the replay would never look at them
        data = _replaced(CERT_DATA, path, value)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(data))
        assert main(["empty-check", "--verify", str(cert_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("surviving", "routeB", "mat", 0, 1), "hb1"),
            (("surviving", "eval_witness", "point", "h1"), "3"),
            (("branch_log", 0, "stage1", "detail", "rhs"), "h1"),
        ],
        ids=["route", "point", "branch"],
    )
    def test_tampered_values_still_fail_the_replay(self, tmp_path, capsys, path, value):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(_replaced(CERT_DATA, path, value)))
        assert main(["empty-check", "--verify", str(cert_path)]) == 1
        assert capsys.readouterr().out.startswith("FAIL: ")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(i=True), "certificate: i must be an integer, got bool"),
            (lambda d: d["surviving"].pop("routeB"), "surviving: missing key 'routeB'"),
            (
                lambda d: d["surviving"]["routeA"].update(den=[1, 0, 0]),
                "routeA.den must be an array of 4 items, each an integer",
            ),
            (
                lambda d: d["surviving"]["routeA"]["mat"][0].__setitem__(0, 7),
                "routeA.mat must be an array of 2 items, each a string",
            ),
            (lambda d: d["branch_log"].append(3), "branch_log entries must be objects"),
        ],
        ids=["bool-i", "missing-routeB", "short-den", "number-entry", "number-log-entry"],
    )
    def test_mistyped_certificate_field_is_exit_2(self, tmp_path, capsys, edit, message):
        cert_path = tmp_path / "cert.json"
        main(["empty-check", "--m", "2", "--n", "2", "--out", str(cert_path)])
        data = json.loads(cert_path.read_text())
        edit(data)
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["empty-check", "--verify", str(cert_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value", [1.0, True], ids=["float", "bool"])
    def test_index_of_another_type_fails_the_replay(self, tmp_path, capsys, value):
        # equal to the recorded 1 as Python values, but not as JSON text
        cert_path = tmp_path / "cert.json"
        data = json.loads((DATA / "cert_2x2.json").read_text())
        assert data["surviving"]["eval_witness"]["entries"][1] == [1, 1]
        data["surviving"]["eval_witness"]["entries"][1][0] = value
        cert_path.write_text(json.dumps(data))
        assert main(["empty-check", "--verify", str(cert_path)]) == 1
        assert capsys.readouterr().out == "FAIL: certificate does not match a fresh replay\n"

    def test_duplicate_certificate_key_is_exit_2(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        main(["empty-check", "--m", "2", "--n", "2", "--out", str(cert_path)])
        text = cert_path.read_text().replace('"m": 2', '"m": 3,\n  "m": 2')
        cert_path.write_text(text)
        capsys.readouterr()
        assert main(["empty-check", "--verify", str(cert_path)]) == 2
        assert capsys.readouterr().err == "error: duplicate key 'm'\n"


class TestOtherCommands:
    def test_endo(self, family_file, tmp_path):
        out = tmp_path / "endo.json"
        assert main(["endo", family_file, "--bound", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["solutions"]) == 2
        assert len(payload["idempotents"]) == 2
        bar = write(tmp_path, "bar.json", build_mas_bar(2, (1, 2), (1,)))
        assert main(["endo", bar, "--bound", "1", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["idempotents"]) == 2

    def test_submodules_family(self, family_file, capsys):
        assert main(["submodules", family_file, "--length", "4"]) == 0
        assert "F_4" in capsys.readouterr().out

    def test_submodules_sl11(self, tmp_path, capsys):
        p = make_presentation(
            1,
            1,
            {
                (0, 1): Mat2(((Poly.zero(1), H), (Poly.zero(1), Poly.zero(1)))),
                (1, 0): Mat2.of(1, ((0, 0), (1, 0))),
            },
        )
        path = write(tmp_path, "c2.json", p)
        assert main(["submodules", path, "--gen", "h1"]) == 0
        out = capsys.readouterr().out
        assert "hJ+J" in out

    def test_string_check(self, capsys):
        assert main(["string-check", "--max-deg", "3", "--N", "10"]) == 0
        assert main(["string-check", "--variant", "1", "--adjacency", "--max-deg", "2", "--N", "8"]) == 0
        assert "-x->" in capsys.readouterr().out
        # h . (h^2, 0) lands on u_8, so N = 7 is refused up front
        assert main(["string-check", "--variant", "1", "--max-deg", "2", "--N", "7"]) == 2
        assert capsys.readouterr().err == (
            "error: truncation N = 7 too small for max degree 2 (need N >= 8)\n"
        )

    def test_canon_sl11(self, tmp_path, capsys):
        p = make_presentation(
            1,
            1,
            {
                (0, 1): Mat2.of(1, ((0, 2), (0, 0))),
                (1, 0): Mat2(((Poly.zero(1), Poly.zero(1)), (Fraction(1, 2) * H, Poly.zero(1)))),
            },
        )
        path = write(tmp_path, "scaled.json", p)
        out = tmp_path / "canon.json"
        assert main(["canon-sl11", path, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["class"] == "class-1"
        assert payload["canonical"][0] == [["0", "1"], ["0", "0"]]


class TestVerifyOnce:
    """A presentation object is checked by verify_relations at most once."""

    @pytest.fixture
    def verify_calls(self, monkeypatch):
        calls = []
        original = presentation.verify_relations

        def counting(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(presentation, "verify_relations", counting)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "{m21}"],
            ["classify", "{m21}"],
            ["classify", "{m11}"],
            ["endo", "{m21}", "--bound", "1"],
            ["endo", "{m11}", "--bound", "1"],
            ["submodules", "{m21}", "--length", "2"],
            ["submodules", "{m11}"],
            ["canon-sl11", "{m11}"],
        ],
        ids=["verify", "classify", "classify-sl11", "endo", "endo-sl11",
             "submodules", "submodules-sl11", "canon-sl11"],
    )
    def test_one_verify_per_input_file(self, tmp_path, verify_calls, argv):
        paths = {
            "m21": write(tmp_path, "m21.json", build_mas(2, (1, 2), (1,))),
            "m11": write(tmp_path, "m11.json", build_mas(1, (1,), (1,))),
        }
        assert main([a.format(**paths) for a in argv]) == 0
        assert len(verify_calls) == 1

    def test_iso_verifies_each_side_once(self, tmp_path, verify_calls):
        a = write(tmp_path, "a.json", build_mas(2, (1, 2), (1,)))
        b = write(tmp_path, "b.json", build_mas(2, (3, 6), (1,)))
        assert main(["iso", a, b]) == 0
        assert len(verify_calls) == 2
        assert verify_calls[0] is not verify_calls[1]

    def test_endo_classifies_once(self, tmp_path, monkeypatch):
        calls = []
        original = normalform.classify_sl_m1
        monkeypatch.setattr(
            normalform, "classify_sl_m1", lambda p: calls.append(p) or original(p)
        )
        path = write(tmp_path, "bar.json", build_mas_bar(2, (1, 2), (1,)))
        assert main(["endo", path, "--bound", "1"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("m", [1, 2])
    def test_endo_solves_hom_once(self, tmp_path, monkeypatch, m):
        calls = []
        original = morphisms.solve_hom

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(morphisms, "solve_hom", counting)
        path = write(tmp_path, "m.json", build_mas(m, (1, 2)[:m], (1,)))
        assert main(["endo", path, "--bound", "2"]) == 0
        assert len(calls) == 1

    def test_failing_report_is_kept(self, tmp_path, capsys, verify_calls):
        bad = make_presentation(1, 1, {(0, 1): Mat2.identity(1), (1, 0): Mat2.zero(1)})
        first = verified_report(bad)
        assert not first.ok and len(first.violations) > 1
        assert verified_report(bad) is first
        for _ in range(2):
            with pytest.raises(ClassificationError) as exc:
                classify_sl11(bad)
            # the classification message names the first violation only
            assert str(exc.value).endswith(first.describe(1, 1)[0])
        assert verify_calls == [bad]
        path = write(tmp_path, "bad.json", bad)
        outputs = []
        for _ in range(2):
            assert main(["classify", path]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert f"FAIL: {len(first.violations)} relation(s) violated" in outputs[0]

    def test_conjugate_is_verified_afresh(self, verify_calls):
        p = build_mas(2, (1, 2), (1,))
        assert verified_report(p).ok
        w = Mat2.of(2, ((1, Poly.var(2, 0)), (0, 1)))
        q = conjugate(p, w)
        assert verified_report(q).ok
        assert verify_calls == [p, q]

    def test_equal_objects_each_get_their_verdict(self, verify_calls):
        good = [build_mas(2, (1, 2), (1,)) for _ in range(2)]
        bad = [
            make_presentation(1, 1, {(0, 1): Mat2.zero(1), (1, 0): Mat2.zero(1)})
            for _ in range(2)
        ]
        for pair, ok in ((good, True), (bad, False)):
            assert pair[0] == pair[1] and pair[0] is not pair[1]
            assert [verified_report(p).ok for p in pair] == [ok, ok]
        assert len(verify_calls) == 4


@pytest.mark.parametrize(
    "name, command, inputs, options, code",
    [
        ("verify_sl31_conjugate", "verify", ["sl31_conjugate"], [], 0),
        ("verify_sl31_perturbed", "verify", ["sl31_perturbed"], [], 1),
        ("classify_sl31_bar", "classify", ["sl31_bar"], [], 0),
        ("iso_sl21", "iso", ["sl21_src", "sl21_dst"], [], 0),
        ("endo_sl21_graded", "endo", ["sl21_graded"], ["--bound", "2"], 0),
    ],
)
def test_family_payloads_match_the_golden_files(tmp_path, name, command, inputs, options, code):
    # the golden files were written with the matrix-product brackets the closed form replaced
    files = [str(DATA / f"family_in_{i}.json") for i in inputs]
    out = tmp_path / "out.json"
    assert main([command, *files, *options, "--out", str(out)]) == code
    assert out.read_bytes() == (DATA / f"family_out_{name}.json").read_bytes()


def _json_paths(node, prefix=()):
    """The path to every object member and array item below node."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _replaced(data, path, value):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


PRESENTATION_DATA = json.loads(presentation_to_json(build_mas(2, (1, 2), (1,))))
CERT_DATA = json.loads((DATA / "cert_2x2.json").read_text())
# every field of a presentation is type-checked; these are the checked certificate fields
CERT_CHECKED = re.compile(
    r"(format|m|n|i|graded|unit_names(/\d)?|branch_log|surviving)"
    r"|branch_log/\d+(/choices|/stage1(/equal)?|/stage2/proportional)?"
    r"|surviving/(choices|support_witness|eval_witness)"
    r"|surviving/route[AB](/mat(/\d(/\d)?)?|/den(/\d)?)?"
)
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False),
    st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


class TestInputContractFuzz:
    """One field or matrix entry swapped for a JSON value of another type."""

    @staticmethod
    def _run(directory, command, data):
        path = directory / "input.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, str(path)])
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _swap(data, draw, paths):
        path = draw(st.sampled_from(paths))
        old = functools.reduce(lambda node, key: node[key], path, data)
        return path, _replaced(data, path, draw(JSON_VALUES.filter(lambda v: type(v) is not type(old))))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mistyped_checked_field_is_exit_2(self, tmp_path_factory, data):
        kind = data.draw(st.sampled_from(["presentation", "certificate"]))
        if kind == "presentation":
            source, command = PRESENTATION_DATA, ["verify"]
            paths = list(_json_paths(source))
        else:
            source, command = CERT_DATA, ["empty-check", "--verify"]
            paths = [
                p for p in _json_paths(source) if CERT_CHECKED.fullmatch("/".join(map(str, p)))
            ]
        _, broken = self._swap(source, data.draw, paths)
        code, out, err = self._run(tmp_path_factory.mktemp("fuzz"), command, broken)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_mistyped_certificate_value_keeps_the_contract(self, tmp_path_factory, data):
        # fields the reader does not check are caught by the replay (exit 1) or unused
        path, broken = self._swap(CERT_DATA, data.draw, list(_json_paths(CERT_DATA)))
        directory = tmp_path_factory.mktemp("fuzz")
        code, out, err = self._run(directory, ["empty-check", "--verify"], broken)
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code in (0, 1) and err == ""
