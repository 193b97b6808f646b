import argparse
import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uhfree import (
    cli,
    emptiness,
    mat2,
    morphisms,
    normalform,
    poly,
    presentation,
    stringbridge,
    superlie,
)
from uhfree.cli import main
from uhfree.normalform import ClassificationError, classify_sl11, verified_report
from uhfree.poly import Poly
from uhfree.presentation import (
    Mat2,
    act,
    build_mas,
    conjugate,
    make_presentation,
    odd_positions,
    presentation_from_json,
)

from .helpers import (
    build_mas_bar,
    family_entries,
    in_layer,
    presentation_to_dict,
    presentation_to_json,
    scaled_conjugates,
    time_limit,
)

H = Poly.var(1, 0)
DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "mod.json"
    path.write_text(presentation_to_json(build_mas(2, (1, 2), (1,))))
    return str(path)


def write(tmp_path, name, presentation):
    path = tmp_path / name
    path.write_text(presentation_to_json(presentation))
    return str(path)


def _set_entry(text):
    """An edit of presentation data: `text` becomes the upper-right entry of e[1,b1]."""
    return lambda d: d["E"]["e[1,b1]"][0].__setitem__(1, text)


def _odd_matrices(m, x):
    """sl(m|1), ungraded, every odd matrix [[x, 1], [0, x]]: not a module."""
    mat = Mat2.of(m, ((x, 1), (0, x)))
    return make_presentation(m, 1, {pos: mat for pos in odd_positions(m, 1)})


def _odd_powers(m, d):
    """Every odd matrix [[h1^d, 1], [0, h1^d]]."""
    return _odd_matrices(m, Poly.var(m, 0) ** d)


def _odd_sum_powers(m, k, shift=0):
    """Every odd matrix [[x, 1], [0, x]], x = (c + shift)^k, c = h1 + ... + hm."""
    return _odd_matrices(m, (sum((Poly.var(m, i) for i in range(m)), Poly.zero(m)) + shift) ** k)


WIDE_REFUSED = (
    "the relation check is estimated at 12700800 term products, over the budget of 100000 "
    "for an input that does not classify"
)


def _certificate_with_m(digits):
    """cert_2x2.json with m replaced by the integer literal `digits`."""
    return (DATA / "cert_2x2.json").read_text().replace('"m": 2', '"m": ' + digits)


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

    def test_verify_pointwise_failure_is_exit_1(self, family_file, capsys, monkeypatch):
        failing = presentation.RelationReport(False, (), 5)
        monkeypatch.setattr(presentation, "pointwise_check", lambda p, deg: failing)
        assert main(["verify", family_file, "--pointwise", "1"]) == 1
        assert "FAIL: pointwise cross-check on 5 sampled identities" in capsys.readouterr().out

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

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_iso_lists_the_failing_sides_violations(self, tmp_path, capsys, side):
        good = write(tmp_path, "good.json", build_mas(3, (1, 2, 3), (1,)))
        w = Mat2.of(3, ((1, Poly.var(3, 0)), (0, 1)))
        bad = write(
            tmp_path, "bad.json", make_presentation(3, 1, {pos: w for pos in odd_positions(3, 1)})
        )
        out = tmp_path / "out.json"
        pair = [bad, good] if side == "left" else [good, bad]
        assert main(["iso", *pair, "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert main(["verify", bad]) == 1
        violations = capsys.readouterr().out.splitlines()[2:22]
        assert lines[1] == f"FAIL: {side} presentation: 60 relation(s) violated"
        assert lines[2:22] == violations
        assert lines[22:] == ["  ... and 40 more (see uhfree verify --out)"]
        assert not out.exists()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_non_module_exits_1_from_every_command(self, tmp_path, capsys, m):
        good = write(tmp_path, "good.json", build_mas(m, range(1, m + 1), (1,)))
        for k, (_, mats) in enumerate(scaled_conjugates(m)):
            bad = write(tmp_path, f"bad{k}.json", make_presentation(m, 1, mats))
            for argv in (
                ["verify", bad],
                ["classify", bad],
                ["iso", bad, good],
                ["iso", good, bad],
                ["endo", bad, "--bound", "1"],
                ["submodules", bad, "--length", "2"],
            ):
                assert main(argv) == 1, argv
                assert "relation" in capsys.readouterr().out

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
            (lambda d: [], "presentation file must hold a JSON object"),
            (lambda d: d.__delitem__("n"), "missing key 'n'"),
            (lambda d: d.update(grading="g12"), "unknown grading 'g12'"),
            (_set_entry("h1 $"), "unexpected character '$' (column 4)"),
            (_set_entry("1/0"), "denominator must be positive (column 1)"),
            (_set_entry("h1 h1"), "expected '+' or '-', got 'h1' (column 4)"),
            (_set_entry("h1^x"), "expected integer, got 'x' (column 4)"),
        ],
        ids=[
            "number-E", "null-E", "number-entry", "null-entry", "string-matrix", "number-grading",
            "array-file", "no-n", "grading-g12", "entry-bad-character", "entry-zero-denominator",
            "entry-juxtaposed", "entry-bad-exponent",
        ],
    )
    def test_mistyped_presentation_field_is_exit_2(self, tmp_path, capsys, edit, message):
        data = json.loads(presentation_to_json(build_mas(1, (1,), ())))
        # an edit changes the data in place, or returns a replacement for it
        replaced = edit(data)
        data = data if replaced is None else replaced
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
            (["submodules", "{file}", "--lambdas="], NOT_RATIONAL.format("")),
            (
                ["submodules", "{file}", "--length", "-1"],
                "filtration length must be non-negative, got -1",
            ),
            (
                ["verify", "{file}", "--pointwise", "-1"],
                "--pointwise must be non-negative, got -1",
            ),
            (["string-check", "--max-deg", "-3"], "max degree must be non-negative, got -3"),
            (["endo", "{file}", "--bound", "-1"], "degree bound must be non-negative"),
            (["submodules", "{file}", "--gen", "h1"], "submodules on sl(2|1) takes no --gen"),
            (
                ["submodules", "{sl11}", "--lambdas", "1,2"],
                "submodules on sl(1|1) takes no --lambdas",
            ),
            (
                ["submodules", "{sl11}", "--gen", "h1^40000"],
                "total degree 40000 is over the limit of 32767 (column 1)",
            ),
            (
                ["submodules", "{sl11}", "--length", "4", "--lambdas", "1"],
                "submodules on sl(1|1) takes no --length or --lambdas",
            ),
            (
                ["empty-check", "--verify", "{cert}", "--m", "2"],
                "--verify takes no --m: the certificate gives m, n and the grading",
            ),
            (
                ["empty-check", "--verify", "{cert}", "--n", "0", "--graded"],
                "--verify takes no --n or --graded: the certificate gives m, n and the grading",
            ),
            (
                ["empty-check", "--verify", "", "--m", "2"],
                "--verify takes no --m: the certificate gives m, n and the grading",
            ),
            (
                ["classify", "{sl22}"],
                "classification applies to sl(m|1); see empty-check for m, n >= 2",
            ),
            # empty-check refuses m = 1, so it is not suggested
            (["classify", "{sl12}"], "classification applies to sl(m|1)"),
            (["canon-sl11", "{file}"], "canon-sl11 expects a presentation with m = n = 1"),
            (["empty-check", "--m", "2"], "empty-check needs --m and --n (or --verify FILE)"),
        ],
        ids=[
            "lambdas-word", "lambdas-1/0", "lambdas-empty", "lambdas-blank", "length",
            "pointwise", "max-deg", "endo-negative-bound", "gen-off-sl11", "lambdas-on-sl11",
            "gen-over-degree-limit", "length-on-sl11",
            "verify-with-m", "verify-with-n-graded", "verify-empty-path-with-m",
            "classify-sl22", "classify-sl12", "canon-sl11-on-sl21", "empty-check-without-n",
        ],
    )
    def test_bad_argument_is_exit_2(self, family_file, tmp_path, capsys, argv, message):
        out = tmp_path / "out.json"
        sl22 = make_presentation(2, 2, {pos: Mat2.zero(3) for pos in odd_positions(2, 2)})
        sl12 = make_presentation(1, 2, {pos: Mat2.zero(2) for pos in odd_positions(1, 2)})
        files = {
            "file": family_file,
            "sl11": write(tmp_path, "sl11.json", build_mas(1, (1,), (1,))),
            "sl22": write(tmp_path, "sl22.json", sl22),
            "sl12": write(tmp_path, "sl12.json", sl12),
            "cert": str(DATA / "cert_2x2.json"),
        }
        argv = [a.format(**files) for a in argv] + ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    SL_M1_ONLY = "endomorphisms and submodules are described over sl(m|1) only"

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (
                ["verify", "{f}"],
                0,
                "presentation over sl(1|2), grading ungraded\n"
                "PASS: all 21 generator relations hold\n",
                "",
            ),
            (["classify", "{f}"], 2, "", "classification applies to sl(m|1)"),
            (["iso", "{f}", "{f}"], 2, "", "classification applies to sl(m|1)"),
            (["endo", "{f}"], 2, "", SL_M1_ONLY),
            (["endo", "{f}", "--bound", "12"], 2, "", SL_M1_ONLY),
            (["submodules", "{f}"], 2, "", SL_M1_ONLY),
            (["canon-sl11", "{f}"], 2, "", "canon-sl11 expects a presentation with m = n = 1"),
        ],
        ids=["verify", "classify", "iso", "endo", "endo-bound-12", "submodules", "canon-sl11"],
    )
    def test_every_command_on_an_sl12_module(
        self, tmp_path, capsys, monkeypatch, argv, code, out, err
    ):
        # no command solves a hom system it then refuses
        solves = []
        monkeypatch.setattr(morphisms, "solve_hom", lambda *args, **kwargs: solves.append(args))
        # M((1, 3), {1}) over sl(2|1) read as a module over sl(1|2) = sl(2|1)
        # with the blocks swapped: position r goes to (1, 2, 0)[r], h1 <-> h2
        moved = (1, 2, 0)
        mats = {
            (moved[r], moved[c]): mat.permuted([1, 0])
            for (r, c), mat in build_mas(2, (1, 3), (1,)).odd
        }
        path = write(tmp_path, "sl12.json", make_presentation(1, 2, mats))
        assert main([a.format(f=path) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == (f"error: {err}\n" if err else "")
        assert solves == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["endo", "{file}", "--bound", "100000"],
                "degree bound 100000 is over the budget of 1500 unknowns per hom system",
            ),
            (
                ["submodules", "{file}", "--length", "3000"],
                "filtration length 3000 is over the budget of 200000 terms in the F_r(c + d)",
            ),
            (
                ["verify", "{file}", "--pointwise", "40"],
                "pointwise degree 40 is over the budget of 10000 (basis pair, sample) checks",
            ),
            (
                ["string-check", "--N", "4000004", "--max-deg", "2000000"],
                "max degree 2000000 is over the budget of 10000 degrees",
            ),
            (
                ["string-check", "--N", "20000004", "--max-deg", "10", "--adjacency"],
                "adjacency at N = 20000004 is over the budget of 100000 arrows per variant",
            ),
            (
                ["verify", "{deep}"],
                "e[1,b1] has an entry of total degree 800, over the budget of 24",
            ),
            (
                ["iso", "{file}", "{deep}"],
                "e[1,b1] has an entry of total degree 800, over the budget of 24",
            ),
            (["verify", "{wide}"], WIDE_REFUSED),
            (["classify", "{wide}"], WIDE_REFUSED),
            (["empty-check", "--m", "19999", "--n", "2"], "m + n is over the budget of 20000"),
            (["empty-check", "--m", "2", "--n", "1000000000"], "m + n is over the budget of 20000"),
            (["empty-check", "--verify", "{bigcert}"], "m + n is over the budget of 20000"),
            (["empty-check", "--verify", "{hugecert}"], "m + n is over the budget of 20000"),
        ],
        ids=[
            "endo-bound", "submodules-length", "verify-pointwise", "string-check-degree",
            "string-check-adjacency", "verify-degree", "iso-degree", "verify-terms",
            "classify-terms", "empty-check-size", "empty-check-huge-n", "certificate-size",
            "certificate-4300-digit-m",
        ],
    )
    def test_input_over_a_budget_is_exit_2_at_once(
        self, family_file, tmp_path, capsys, argv, message
    ):
        out = tmp_path / "out.json"
        files = {
            "file": family_file,
            "deep": write(tmp_path, "deep.json", _odd_powers(2, 800)),
            # 126 terms of degree 4: verify had run past 60 s when it was killed
            "wide": write(tmp_path, "wide.json", _odd_sum_powers(6, 4)),
            "bigcert": tmp_path / "bigcert.json",
            "hugecert": tmp_path / "hugecert.json",
        }
        files["bigcert"].write_text(_certificate_with_m("19999"))
        # m + n has 4301 digits, more than str() of an int may print
        files["hugecert"].write_text(_certificate_with_m("9" * 4300))
        start = time.perf_counter()
        argv = [a.format(**files) for a in argv]
        with time_limit(20):  # without its budget an input here runs for minutes
            assert main(argv + ["--out", str(out)]) == 2
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_work_at_the_budget_passes_and_one_more_is_refused(self, monkeypatch):
        p = _odd_sum_powers(6, 1)
        # 30 evens, each from two odd entries of 6 terms that shift to 7:
        # 30 * 8 * (6 * 7 + 6 * 7); then the 42 root vectors, 30 evens with
        # entries of 21 terms and 12 odds of 6, charge e_a e_b per pair
        e = [21] * 30 + [6] * 12
        work = 30 * 8 * (6 * 7 + 6 * 7) + (sum(e) ** 2 + sum(x * x for x in e)) // 2
        assert presentation.relation_work(p) == work == 273_393
        monkeypatch.setattr(presentation, "WORK_BUDGET", work)
        presentation.check_work_budget(p)
        monkeypatch.setattr(presentation, "WORK_BUDGET", work - 1)
        with pytest.raises(presentation.PresentationError, match="273393 term products, over"):
            presentation.check_work_budget(p)

    def test_a_budget_refusal_keeps_the_classifiers_refusal_as_context(self):
        with pytest.raises(presentation.PresentationError, match="over the budget") as info:
            verified_report(_odd_sum_powers(6, 1))
        assert isinstance(info.value.__context__, (ClassificationError, mat2.InvariantBreach))

    @pytest.mark.parametrize("command", ["verify", "classify"])
    @pytest.mark.parametrize("m, k, shift", [(6, 1, 0), (3, 4, 1)], ids=["sl61-c", "sl31-c1-4"])
    def test_non_modules_that_ran_for_seconds_are_refused_at_once(
        self, tmp_path, capsys, command, m, k, shift
    ):
        # without the work budget, verify ran 1.9 s and 3.3 s for the whole process
        path = write(tmp_path, "in.json", _odd_sum_powers(m, k, shift))
        start = time.perf_counter()
        assert main([command, path]) == 2
        assert time.perf_counter() - start < 0.5
        assert "over the budget of 100000 for an input that does not classify" in (
            capsys.readouterr().err
        )

    def test_no_suite_input_is_near_the_work_budget(self):
        largest = 0
        for path in sorted(DATA.glob("family_in_*.json")):
            p = presentation_from_json(path.read_text())
            largest = max(largest, presentation.relation_work(p))
        # the pairwise check of family_in_sl31_perturbed.json took 0.08 s
        assert largest == 12_855 < presentation.WORK_BUDGET // 5

    def test_degree_at_the_budget_is_checked(self, tmp_path, capsys):
        path = write(tmp_path, "deep.json", _odd_powers(2, presentation.DEGREE_BUDGET))
        assert main(["verify", path]) == 1
        assert "relations violated" in capsys.readouterr().out

    def test_the_degree_budget_is_checked_as_the_file_is_read(self, tmp_path, capsys):
        # e[1,b1], the first generator, is over the budget, and e[b1,2], the
        # last, is no polynomial: the reader stops at e[1,b1]
        data = presentation_to_dict(_odd_powers(2, presentation.DEGREE_BUDGET + 1))
        data["E"]["e[b1,2]"][0][0] = "h1 +"
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: e[1,b1] has an entry of total degree 25, over the budget of 24\n"
        )

    def test_no_generator_after_one_over_the_budget_is_parsed(self, tmp_path, monkeypatch):
        labels = []
        read = Mat2.from_strings
        monkeypatch.setattr(
            Mat2, "from_strings", lambda rows, *rest: labels.append(rest[1]) or read(rows, *rest)
        )
        path = write(tmp_path, "deep.json", _odd_powers(3, presentation.DEGREE_BUDGET + 1))
        assert main(["classify", path]) == 2
        assert labels == ["e[1,b1]"]

    def test_no_entry_after_one_over_the_budget_is_parsed(self, tmp_path, capsys, monkeypatch):
        # e[1,b1] is [[h1^25, 1], [0, h1^30]]: the reader stops at its first
        # entry and names that entry's degree
        data = presentation_to_dict(_odd_powers(2, presentation.DEGREE_BUDGET + 1))
        data["E"]["e[1,b1]"][1][1] = "h1^30"
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        texts = []
        read = mat2.parse_poly
        monkeypatch.setattr(mat2, "parse_poly", lambda text, names: texts.append(text) or read(text, names))
        assert main(["classify", str(path)]) == 2
        assert texts == ["h1^25"]
        assert capsys.readouterr().err == (
            "error: e[1,b1] has an entry of total degree 25, over the budget of 24\n"
        )

    @pytest.mark.parametrize("argv", [["verify"], ["empty-check", "--verify"]])
    def test_a_file_that_is_not_json_is_exit_2(self, tmp_path, capsys, argv):
        path = tmp_path / "in.json"
        path.write_text('{"m": 1,')
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: invalid JSON: [^\n]+\n", captured.err)

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

    PRINT_LIMIT = "coefficient has more than 4300 digits to print"
    BIG = 10**4000  # 4001 digits: readable, but its square is not printable

    @pytest.mark.parametrize(
        "argv, message",
        [
            # normalized_a = (1, BIG^2)
            (["classify", "{tiny_big}"], PRINT_LIMIT),
            # gamma = BIG^2 or its inverse
            (["iso", "{big}", "{tiny}"], PRINT_LIMIT),
            # F_2 = (X - L)^2 has the coefficient L^2
            (["submodules", "{file}", "--length", "2", "--lambdas", "{L},{L}"], PRINT_LIMIT),
            (
                ["submodules", "{file}", "--length", "1", "--lambdas", "1e5000"],
                NOT_RATIONAL.format("1e5000"),
            ),
            (
                ["submodules", "{file}", "--length", "1", "--lambdas", "1/{long}"],
                "--lambdas: an entry has more than 4300 digits",
            ),
        ],
        ids=["classify-parameters", "iso-gamma", "filtration", "exponent", "long-denominator"],
    )
    def test_rational_past_the_conversion_limit_is_exit_2(
        self, family_file, tmp_path, capsys, argv, message
    ):
        big = self.BIG
        files = {
            "file": family_file,
            "tiny_big": write(tmp_path, "a.json", build_mas(2, (Fraction(1, big), big), ())),
            "big": write(tmp_path, "b.json", build_mas(2, (big, 2 * big), ())),
            "tiny": write(tmp_path, "c.json", build_mas(2, (Fraction(1, big), Fraction(2, big)), ())),
            "L": "7" * 3000,
            "long": "1" * 5000,
        }
        out = tmp_path / "out.json"
        assert main([a.format(**files) for a in argv] + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_each_command_parser_is_built_once_per_process(self, monkeypatch, family_file, capsys):
        calls = []
        build = cli.build_parser

        def counting(command=None):
            calls.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        requests = [
            ["verify", family_file],
            ["classify", family_file],
            ["iso", family_file, family_file],
            ["endo", family_file, "--bound", "1"],
            ["submodules", family_file, "--length", "2"],
            ["string-check", "--N", "9", "--max-deg", "2"],
            ["empty-check", "--m", "2", "--n", "2"],
            # exit 2 (m = 2) once parsed
            ["canon-sl11", family_file],
        ]
        for argv in requests + requests:
            assert main(argv) == (2 if argv[0] == "canon-sl11" else 0)
        # a parse error is printed by the subcommand's own parser too
        for command in cli.SUBCOMMANDS:
            with pytest.raises(SystemExit) as exc:
                main([command, "--no-such-option"])
            assert exc.value.code == 2
        capsys.readouterr()
        # one parser per subcommand, and never the full one, which holds all eight
        assert sorted(calls) == sorted(cli.SUBCOMMANDS)

    @staticmethod
    def parser_argvs(command):
        """Help, parse errors and edge cases for one subcommand, read off its arguments."""
        arguments = cli.SUBCOMMANDS[command][1] + cli.COMMON_ARGUMENTS
        positionals = [flag for flag, _ in arguments if not flag.startswith("-")]
        ints = [flag for flag, options in arguments if options.get("type") is int]
        valid = [command] + ["x.json"] * len(positionals)
        missing = [valid[:-1]] if positionals else []
        return (
            [[command, "-h"]]
            + missing
            + [valid + [flag, "two"] for flag in ints]
            + [
                valid + ["--no-such-option"],
                valid + ["extra"],
                valid + ["--ou", "out.json"],  # a prefix of --out
                [command, "--"] + valid[1:],
            ]
        )

    @staticmethod
    def parse_outcome(parse, argv):
        """The namespace of a successful parse, else (exit code, stdout, stderr)."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                return vars(parse(argv))
            except SystemExit as exc:
                return exc.code, stdout.getvalue(), stderr.getvalue()

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
    def test_a_command_parser_prints_what_the_full_parser_prints(
        self, command, columns, monkeypatch
    ):
        # argparse wraps its text at $COLUMNS - 2
        monkeypatch.setenv("COLUMNS", columns)
        one, full = cli.build_parser(command), cli.build_parser()
        for argv in self.parser_argvs(command):
            want = self.parse_outcome(full.parse_args, argv)
            assert self.parse_outcome(one.parse_args, argv) == want, argv
            # and so does a request's one pass through the subcommand's parser
            assert self.parse_outcome(cli._parse_args, argv) == want, argv

    # each recorded from the parser that held all eight subparsers
    @pytest.mark.parametrize(
        "case",
        json.loads((DATA / "parser_messages.json").read_text()),
        ids=lambda case: " ".join(case["argv"]) or "no-arguments",
    )
    def test_help_and_parse_errors_print_what_the_full_parser_prints(
        self, case, monkeypatch, capsys
    ):
        # argparse wraps its text at $COLUMNS - 2
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(case["argv"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == (
            case["code"],
            case["stdout"],
            case["stderr"],
        )

    EMPTY_CHECK = ["empty-check", "--m", "2", "--n", "2"]

    def test_a_repeated_argv_is_parsed_once(self, monkeypatch, capsys):
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counting(parser, *args, **kwargs):
            calls.append(args)
            return parse(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        assert main(list(self.EMPTY_CHECK)) == 0
        assert main(list(self.EMPTY_CHECK)) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_a_handler_cannot_alter_a_kept_parse(self, monkeypatch, capsys):
        seen = []

        def handler(args):
            seen.append(dict(vars(args)))
            args.m = 99
            args.planted = True
            return 0, [], None

        monkeypatch.setattr(cli, "cmd_empty_check", handler)
        assert main(self.EMPTY_CHECK) == 0
        assert main(self.EMPTY_CHECK) == 0
        capsys.readouterr()
        assert seen[1] == seen[0]
        assert seen[1]["m"] == 2 and "planted" not in seen[1]

    @pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
    def test_help_and_parse_errors_print_on_every_call(self, command, monkeypatch):
        # each of these argv exits, so main never returns a code
        run = functools.partial(self.parse_outcome, main)
        for argv in self.parser_argvs(command):
            if isinstance(self.parse_outcome(cli._parse_args, argv), dict):
                continue  # parses: the command would run
            # argparse wraps its text at $COLUMNS - 2
            for columns in ("40", "200", "40"):
                monkeypatch.setenv("COLUMNS", columns)
                want = self.parse_outcome(cli.build_parser().parse_args, argv)
                assert run(argv) == want, (argv, columns)
                assert run(argv) == want, (argv, columns)
        assert cli._parsed.cache_info().currsize == 0

    def test_argv_from_sys_argv_shares_the_kept_parse(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["uhfree", *self.EMPTY_CHECK])
        assert main() == 0
        assert main(list(self.EMPTY_CHECK)) == 0
        capsys.readouterr()
        info = cli._parsed.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_invariant_breach_is_not_a_user_error(self):
        assert not issubclass(mat2.InvariantBreach, poly.UhfreeError)

    NOT_UTF8 = "error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "{bad}"], NOT_UTF8),
            (["empty-check", "--verify", "{bad}"], NOT_UTF8),
            (["verify", "{dir}"], "error: {dir}: Is a directory\n"),
            (["empty-check", "--verify", "{dir}"], "error: {dir}: Is a directory\n"),
            # an empty path reads as the current directory, as for verify
            (["empty-check", "--verify", ""], "error: .: Is a directory\n"),
            # and so does an empty --out, once the command has run
            (["empty-check", "--m", "2", "--n", "2", "--out", ""], "error: .: Is a directory\n"),
            (["classify", "{data}/family_in_sl31_bar.json", "--out", ""],
             "error: .: Is a directory\n"),
        ],
        ids=[
            "verify-not-utf8", "cert-not-utf8", "verify-directory", "cert-directory",
            "cert-empty-path", "cert-empty-out", "classify-empty-out",
        ],
    )
    def test_unreadable_input_is_exit_2(self, tmp_path, capsys, argv, message):
        bad = tmp_path / "bom16.json"
        bad.write_bytes(b"\xff\xfe{}")
        paths = {"bad": str(bad), "dir": str(tmp_path), "data": str(DATA)}
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

    def test_mislabelled_grading(self, tmp_path, capsys):
        # Mbar(a, S) is a module, but its file calls it g11
        text = presentation_to_json(build_mas_bar(2, (1, 2), (1,)))
        path = tmp_path / "mislabelled.json"
        path.write_text(text.replace('"g11bar"', '"g11"'))
        out_path = tmp_path / "out.json"
        assert main(["verify", str(path), "--out", str(out_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        failures = [
            "e[1,b1] is not strictly upper-right",
            "e[b1,1] is not strictly lower-left",
            "e[2,b1] is not strictly upper-right",
            "e[b1,2] is not strictly lower-left",
        ]
        assert lines[-5:] == ["FAIL: grading flag inconsistent"] + ["  " + f for f in failures]
        assert json.loads(out_path.read_text())["parity_failures"] == failures
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: grading flag contradicts the matrix shapes: " + "; ".join(failures) + "\n"
        )


    def test_conjugate_by_a_degree_four_witness_classifies_in_seconds(self, tmp_path):
        # M((2, 3, 4), {1}) over sl(3|1) conjugated by W = [[1, f], [0, 1]] [[1, 0], [g, 1]];
        # the gcd in nil_factor used to run the Euclidean content recursion
        # here, which had not finished after 120 s
        names = poly.default_names(3)
        f = poly.parse_poly("2*h1^3*h2 - 4/3*h1*h2*h3^2 + 3/2*h1*h2^2 + 4*h2^3", names)
        g = poly.parse_poly("2/3*h1*h2*h3^2 + 1/2*h1*h2*h3 - 5*h1*h3 + 5/2", names)
        w = Mat2.of(3, ((1, f), (0, 1))) * Mat2.of(3, ((1, 0), (g, 1)))
        path = write(tmp_path, "w4.json", conjugate(build_mas(3, (2, 3, 4), (1,)), w))
        out_path = tmp_path / "out.json"
        with time_limit(20):
            assert main(["classify", path, "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["S"] == [1]
        assert payload["normalized_a"] == ["1", "3/2", "2"]


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

    def test_ungraded_category_bridges_the_two_conventions(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", build_mas(2, (1, 2), (1,)))
        b = write(tmp_path, "b.json", build_mas_bar(2, (1, 2), (1,)))
        assert main(["iso", a, b, "--category", "M2"]) == 0
        assert "isomorphic in M2" in capsys.readouterr().out

    def test_presentations_over_different_algebras_are_exit_2(self, capsys):
        argv = ["iso", str(DATA / "family_in_sl21_src.json"), str(DATA / "family_in_sl31_bar.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: presentations live over different superalgebras\n"
        assert captured.out == ""


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

    def test_closed_stdout_ends_quietly_with_the_verdict(
        self, family_file, tmp_path, capsys, monkeypatch
    ):
        # `uhfree verify FILE | head -1`: the reader is gone before the report is written
        sink = tmp_path / "stdout"
        fd = os.open(sink, os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["verify", str(DATA / "family_in_sl31_perturbed.json")]) == 1
            assert main(["classify", family_file]) == 0
            # main pointed the stdout descriptor at devnull
            os.write(fd, b"after the reader left")
        finally:
            os.close(fd)
        assert sink.read_bytes() == b""
        assert capsys.readouterr().err == ""


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
        "path, code",
        [
            (("branch_log", 0, "stage2"), 0),
            (("branch_log", 0, "stage1", "detail"), 1),
            (("branch_log", 10, "stage2", "detail"), 1),
        ],
        ids=["stage2", "stage1-detail", "stage2-detail"],
    )
    def test_a_missing_stage2_or_detail_is_read_as_null(self, tmp_path, capsys, path, code):
        # the file holds null for the stage2 of a branch that dies at stage 1,
        # so leaving that out verifies; a recorded detail is never null, so
        # leaving one out fails the replay
        data = json.loads(json.dumps(CERT_DATA))
        node = data
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(data))
        assert main(["empty-check", "--verify", str(cert_path)]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        if code:
            assert captured.out == "FAIL: certificate does not match a fresh replay\n"
        else:
            assert captured.out.startswith("certificate for sl(2|2) re-verified:\n")

    @pytest.mark.parametrize("value", [5, True], ids=["number", "bool"])
    def test_stage2_that_is_no_object_is_exit_2(self, tmp_path, capsys, value):
        data = json.loads((DATA / "cert_2x2.json").read_text())
        entry = data["branch_log"][0]
        assert entry["stage1"]["equal"] is False and entry["stage2"] is None
        entry["stage2"] = value
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(data))
        assert main(["empty-check", "--verify", str(cert_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: branch_log entry: stage2 must be an object or null\n"
        assert captured.out == ""

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

    def test_route_text_that_is_not_canonical_verifies(self, tmp_path, capsys):
        # the replay compares the route's polynomials, so the same polynomial
        # with its terms and factors reordered and a written-out 1 passes
        cert_path = tmp_path / "cert.json"
        data = json.loads((DATA / "cert_3x5.json").read_text())
        row = data["surviving"]["routeA"]["mat"][0]
        assert row[0] == "h1*hb1*a2 - h3*hb1*a2 + hb1^2*a2 + hb1*a2"
        row[0] = "1*a2*hb1 + a2*hb1^2 - a2*hb1*h3 + hb1*h1*a2"
        cert_path.write_text(json.dumps(data))
        assert main(["empty-check", "--verify", str(cert_path)]) == 0
        assert "re-verified" in capsys.readouterr().out

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

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("form", ["plain", "conjugated", "bar"])
    def test_submodule_separators_are_vectors_of_the_input(self, tmp_path, m, form):
        # layer r of p is W image(D_{F_r}), D_F = diag(F(c + d), F(c)), with W
        # the classification witness and d = m - 1 (M(a, S)) or -(m - 1) (Mbar)
        a, s = tuple(range(2, m + 2)), (1,)
        h = [Poly.var(m, j) for j in range(m)]
        skew = Mat2.of(m, ((1, h[0] + 2 * h[-1]), (0, 1))) * Mat2.of(m, ((1, 0), (h[1], 1)))
        p = {
            "plain": build_mas(m, a, s),
            "conjugated": conjugate(build_mas(m, a, s), skew),
            "bar": build_mas_bar(m, a, s),
        }[form]
        lambdas = (0, 5, -1)
        out = tmp_path / "sub.json"
        argv = ["submodules", write(tmp_path, "p.json", p), "--length", "3", "--out", str(out)]
        assert main(argv + ["--lambdas", ",".join(map(str, lambdas))]) == 0
        seps = json.loads(out.read_text())["separators"]
        x = Poly.var(1, 0)
        chain = [Poly.one(1)]
        for lam in lambdas:
            chain.append(chain[-1] * (x - lam))
        params, w = normalform.classified_sl_m1(p)
        d = -(m - 1) if params.bar else m - 1
        winv = w.inverse_unimodular()
        names = poly.default_names(m, m)
        assert len(seps) == 3
        for r, (top, bottom) in enumerate(seps):
            v = winv * Mat2.column(poly.parse_poly(top, names), poly.parse_poly(bottom, names))
            assert in_layer(*family_entries(chain[r], m, d), v), (r, top, bottom)
            assert not in_layer(*family_entries(chain[r + 1], m, d), v), (r, top, bottom)
        # and each W image(D_F) is a submodule of p
        zero = Poly.zero(m)
        for f in chain:
            g1, g2 = family_entries(f, m, d)
            gens = w * Mat2(((g1, zero), (zero, g2)))
            for b in p.algebra.basis():
                assert in_layer(g1, g2, winv * act(p, b, gens))

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
    """A presentation object is checked by verify_relations at most once,
    and an sl(m|1) family shape (m, S) at most once per process."""

    @pytest.fixture
    def verify_calls(self, monkeypatch):
        calls = []
        original = presentation.verify_relations

        def counting(p):
            calls.append(p)
            return original(p)

        for module in (presentation, normalform):
            monkeypatch.setattr(module, "verify_relations", counting)
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
        # a second request on the same shape reuses the first one's check
        paths = {
            "m21": write(tmp_path, "m21.json", build_mas(2, (1, 2), (1,))),
            "m11": write(tmp_path, "m11.json", build_mas(1, (1,), (1,))),
        }
        for _ in range(2):
            assert main([a.format(**paths) for a in argv]) == 0
        assert len(verify_calls) == 1

    def test_iso_verifies_each_side_once(self, tmp_path, verify_calls):
        a = write(tmp_path, "a.json", build_mas(2, (1, 2), (1,)))
        b = write(tmp_path, "b.json", build_mas(2, (3, 6), (1,)))
        assert main(["iso", a, b]) == 0
        # both sides reach the shape (2, {1}), checked once on M((1, 1), {1})
        assert verify_calls == [build_mas(2, (1, 1), (1,))]

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
        # over sl(m|1), m >= 2, each object is classified afresh, and the
        # identities evaluated are those of the shape its classification reaches
        p = build_mas(2, (1, 2), (1,))
        assert verified_report(p).ok
        w = Mat2.of(2, ((1, Poly.var(2, 0)), (0, 1)))
        q = conjugate(p, w)
        assert verified_report(q).ok
        (params, wp), (qparams, wq) = (normalform.classified_sl_m1(x) for x in (p, q))
        assert params.s == qparams.s and wq != wp
        assert conjugate(q, wq).odd == qparams.family.odd
        assert verify_calls == [build_mas(2, (1, 1), (1,))]

    @pytest.mark.parametrize(
        "argv, runs",
        [
            (["verify", "{a}"], 1),
            (["classify", "{a}"], 1),
            (["iso", "{a}", "{b}"], 2),
            (["submodules", "{a}", "--length", "2"], 1),
        ],
        ids=["verify", "classify", "iso", "submodules"],
    )
    def test_one_classifier_run_per_input_file(self, tmp_path, monkeypatch, argv, runs):
        calls = []
        original = normalform.classify_sl_m1
        monkeypatch.setattr(
            normalform, "classify_sl_m1", lambda p: calls.append(p) or original(p)
        )
        paths = {
            "a": write(tmp_path, "a.json", build_mas(3, (1, 2, 3), (1,))),
            "b": write(tmp_path, "b.json", build_mas(3, (2, 4, 6), (1,))),
        }
        assert main([a.format(**paths) for a in argv]) == 0
        assert len(calls) == runs

    @pytest.mark.parametrize(
        "argv, runs",
        [
            (["classify", "{a}"], 1),
            (["iso", "{a}", "{a}"], 2),
            (["submodules", "{a}", "--length", "2"], 1),
        ],
        ids=["classify", "iso", "submodules"],
    )
    def test_a_refused_input_is_classified_once(self, tmp_path, monkeypatch, capsys, argv, runs):
        # a module with g11 shapes labelled g11bar: verified_report keeps the
        # classifier's refusal, and classified_sl_m1 raises it without a rerun
        calls = []
        original = normalform.classify_sl_m1
        monkeypatch.setattr(
            normalform, "classify_sl_m1", lambda p: calls.append(p) or original(p)
        )
        mislabelled = make_presentation(2, 1, dict(build_mas(2, (1, 2), (1,)).odd), "g11bar")
        path = write(tmp_path, "a.json", mislabelled)
        assert main([a.format(a=path) for a in argv]) == 2
        assert len(calls) == runs
        assert capsys.readouterr().err == (
            "error: grading flag contradicts the matrix shapes: "
            "e[1,b1] is not strictly lower-left; e[b1,1] is not strictly upper-right; "
            "e[2,b1] is not strictly lower-left; e[b1,2] is not strictly upper-right\n"
        )

    @pytest.mark.parametrize("pos", [(0, 3), (3, 2)], ids=["e[1,b1]", "e[b1,3]"])
    def test_a_checked_shape_admits_no_perturbed_input(self, tmp_path, capsys, pos):
        # M((1, 2, 3), {1}) checks the shape (3, {1}); a non-module near it,
        # one generator of its conjugate doubled, still fails with the
        # violations a fresh process lists
        member = write(tmp_path, "member.json", build_mas(3, (1, 2, 3), (1,)))
        perturbed = write(
            tmp_path, "perturbed.json", make_presentation(3, 1, dict(scaled_conjugates(3))[pos])
        )
        assert main(["verify", member]) == 0
        capsys.readouterr()
        assert main(["verify", perturbed]) == 1
        fresh = _run_python(["-m", "uhfree.cli", "verify", perturbed])
        assert fresh.returncode == 1
        assert capsys.readouterr().out == fresh.stdout
        assert "FAIL: 9 of 78 relations violated" in fresh.stdout

    def test_equal_objects_each_get_their_verdict(self, verify_calls):
        good = [build_mas(2, (1, 2), (1,)) for _ in range(2)]
        bad = [
            make_presentation(1, 1, {(0, 1): Mat2.zero(1), (1, 0): Mat2.zero(1)})
            for _ in range(2)
        ]
        for pair, ok in ((good, True), (bad, False)):
            assert pair[0] == pair[1] and pair[0] is not pair[1]
            assert [verified_report(p).ok for p in pair] == [ok, ok]
            assert pair[0]._memo["verdict"] is not pair[1]._memo["verdict"]
        # the two modules share their shape's check; each non-module is checked itself
        assert verify_calls[1:] == bad and all(a is b for a, b in zip(verify_calls[1:], bad))
        assert verify_calls[0] == build_mas(2, (1, 1), (1,))


LAYERS = ("presentation", "normalform", "morphisms", "stringbridge", "emptiness")

# Runs the CLI as `python -m uhfree.cli ARGV...` does, then prints which layers
# were executed: type() reads a module that cli loads on first use without
# loading it.
RUN_AND_LIST_LAYERS = f"""
import json, runpy, sys, types
try:
    runpy.run_module("uhfree.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = [n for n in {LAYERS!r} if type(sys.modules.get("uhfree." + n)) is types.ModuleType]
print(json.dumps({{
    "code": code,
    "loaded": loaded,
    "datetime": "datetime" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
}}))
"""


# cli must share one module object per layer with every other importer,
# whichever of them imports first, or a patch lands on a copy cli never calls
ONE_COPY_PER_LAYER = {
    "layers-first": f"""
import importlib, sys
first = {{n: importlib.import_module("uhfree." + n) for n in {LAYERS!r}}}
import uhfree.cli
for n, module in first.items():
    assert getattr(uhfree.cli, n) is module is sys.modules["uhfree." + n], n
""",
    "cli-first": f"""
import importlib, sys
import uhfree.cli
for n in {LAYERS!r}:
    module = importlib.import_module("uhfree." + n)
    assert getattr(uhfree, n) is module is getattr(uhfree.cli, n), n
""",
}


def _run_python(args, cwd=None):
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": pythonpath},
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestLayerLoading:
    @pytest.mark.parametrize("order", sorted(ONE_COPY_PER_LAYER))
    def test_one_module_object_per_layer(self, order):
        run = _run_python(["-c", ONE_COPY_PER_LAYER[order]])
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            # verify proves the relations of an sl(m|1) input through its classification
            (["verify", "{m21}"], ["presentation", "normalform"]),
            (["verify", "{m21}", "--stamp"], ["presentation", "normalform"]),
            (["verify", "{m11}"], ["presentation", "normalform"]),
            (["classify", "{m21}"], ["presentation", "normalform"]),
            (["canon-sl11", "{m11}"], ["presentation", "normalform"]),
            (["iso", "{m21}", "{m21}"], ["presentation", "normalform", "morphisms"]),
            (["endo", "{m21}", "--bound", "1"], ["presentation", "normalform", "morphisms"]),
            (["submodules", "{m21}", "--length", "2"], ["presentation", "normalform", "morphisms"]),
            (["submodules", "{m11}"], ["presentation", "normalform", "morphisms"]),
            (["string-check", "--N", "9", "--max-deg", "2"], ["presentation", "stringbridge"]),
            # an emptiness certificate reads no presentation
            (["empty-check", "--m", "2", "--n", "2"], ["emptiness"]),
            (["empty-check", "--verify", "{cert}"], ["emptiness"]),
        ],
        ids=[
            "verify", "verify-stamp", "verify-sl11", "classify", "canon-sl11", "iso", "endo", "submodules",
            "submodules-sl11", "string-check", "empty-check", "empty-check-verify",
        ],
    )
    def test_a_fresh_process_loads_only_the_layers_it_runs(self, tmp_path, argv, loaded):
        paths = {
            "m21": write(tmp_path, "m21.json", build_mas(2, (1, 2), (1,))),
            "m11": write(tmp_path, "m11.json", build_mas(1, (1,), (1,))),
            "cert": str(DATA / "cert_2x2.json"),
        }
        run = _run_python(
            ["-c", RUN_AND_LIST_LAYERS, *(a.format(**paths) for a in argv)], cwd=tmp_path
        )
        assert run.returncode == 0, run.stderr
        report = json.loads(run.stdout.splitlines()[-1])
        # no module imports dataclasses: it brings in inspect, about 6 ms of every cold start
        assert report == {
            "code": 0,
            "loaded": loaded,
            "datetime": "--stamp" in argv,
            "dataclasses": False,
        }

    def test_a_certificate_needs_no_presentation_module(self):
        run = _run_python([
            "-c",
            "import sys\n"
            "from uhfree.emptiness import emptiness_certificate\n"
            "emptiness_certificate(2, 2)\n"
            "print('uhfree.presentation' in sys.modules)",
        ])
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False\n"


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
