import ast
import hashlib
import itertools
import json
import sys
import types
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from uhfree.poly import Poly, UhfreeError, format_poly, parse_poly
from uhfree.mat2 import InvariantBreach, Mat2, dump_json, load_json
from uhfree import emptiness
from uhfree.cli import main
from uhfree.superlie import Root, algebra
from uhfree.emptiness import (
    CertRing,
    EmptinessError,
    RouteView,
    ScaledMat,
    _proportionality,
    _eval_scaled,
    _eval_witness,
    _support_witness,
    certificate_from_dict,
    emptiness_certificate,
    verify_certificate,
)

from .helpers import Foreign
from .oracles import eval_witness_oracle, from_sympy, to_sympy

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def cert22():
    return emptiness_certificate(2, 2)


class TestCertificate22(object):
    def test_every_branch_combination_dies(self, cert22):
        assert len(cert22.branch_log) == 16
        for entry in cert22.branch_log:
            if entry["stage1"]["equal"]:
                assert entry["stage2"]["proportional"] is False
            else:
                assert entry["stage2"] is None

    def test_exactly_one_branch_survives_stage_one(self, cert22):
        survivors = [e for e in cert22.branch_log if e["stage1"]["equal"]]
        assert len(survivors) == 1
        assert survivors[0]["choices"] == cert22.surviving_choices

    def test_surviving_branch_shapes(self, cert22):
        # constant raising generators towards i, polynomial ones towards m
        assert cert22.surviving_choices == {
            "i1": "O",
            "m1": "S",
            "in": "O",
            "mn": "S",
        }

    def test_routes_match_the_displayed_diagonals(self, cert22):
        ring = cert22.ring()
        names = ring.names
        h1, h2, hb1 = (Poly.var(ring.nvars, k) for k in range(3))
        a2, a4 = (Poly.var(ring.nvars, ring.base_nvars + k) for k in (1, 3))
        A = h1 + hb1 - h2
        z = Poly.zero(ring.nvars)
        # route through b1: alpha_{m,b1}/alpha_{i,b1} * diag(...)
        assert cert22.route_a.den == (1, 0, 0, 0)
        assert cert22.route_a.num[0, 0] == a2 * hb1 * (A + 1)
        assert cert22.route_a.num[1, 1] == a2 * (hb1 - 1) * A
        assert cert22.route_a.num[0, 1] == z and cert22.route_a.num[1, 0] == z
        # route through bn: alpha_{m,bn}/alpha_{i,bn} * diag(...)
        assert cert22.route_b.den == (0, 0, 1, 0)
        assert cert22.route_b.num[0, 0] == a4 * (h1 + 1) * h2
        assert cert22.route_b.num[1, 1] == a4 * h1 * (h2 - 1)

    def test_support_witness_names_the_barred_variable(self, cert22):
        assert cert22.support_witness["variable"] == "hb1"

    def test_full_verification(self, cert22):
        report = verify_certificate(cert22)
        assert any("derived independently" in line for line in report)
        assert any("evaluation witness" in line for line in report)

    def test_json_round_trip(self, cert22):
        text = dump_json(cert22.to_dict())
        again = certificate_from_dict(json.loads(text))
        assert again.to_dict() == cert22.to_dict()
        assert dump_json(again.to_dict()) == text


@pytest.mark.parametrize("m,n", [(2, 2), (3, 5)])
def test_unit_specialization_matches_sympy(m, n):
    # verification specializes at integer units; fractional ones exercise
    # the common denominator of the integer storage
    cert = emptiness_certificate(m, n)
    ring = cert.ring()
    syms = sympy.symbols(ring.names)
    base, unit_syms = syms[: ring.base_nvars], syms[ring.base_nvars :]
    units = (Fraction(2, 3), Fraction(-3), Fraction(5, 7), Fraction(-1, 2))
    at_units = {x: sympy.Rational(u.numerator, u.denominator) for x, u in zip(unit_syms, units)}
    for route in (cert.route_a, cert.route_b):
        scale = sympy.Integer(1)
        for x, d in zip(unit_syms, route.den):
            scale *= at_units[x] ** d
        got = _eval_scaled(ring, route.num, route.den, units)
        for r in range(2):
            for c in range(2):
                want = to_sympy(route.num[r, c], syms).subs(at_units) / scale
                assert got[r, c] == from_sympy(want, base)


@pytest.mark.parametrize(
    "m,n", [(2, 3), (3, 2), (3, 3), (2, 7), (7, 2), (40, 40), (4000, 4000), (9999, 9999)]
)
def test_other_sizes_certify_and_verify(m, n):
    cert = emptiness_certificate(m, n)
    assert len(cert.branch_log) == 16
    verify_certificate(cert)


@pytest.mark.parametrize(
    "name, m, n, graded",
    [("cert_2x2", 2, 2, False), ("cert_3x5", 3, 5, False), ("cert_7x7_graded", 7, 7, True)],
)
def test_certificates_match_the_golden_files(tmp_path, name, m, n, graded):
    # the files were written by the exhaustive grid scan the search replaced
    golden = DATA / f"{name}.json"
    assert dump_json(emptiness_certificate(m, n, graded).to_dict()) == golden.read_text()
    out = tmp_path / "cert.json"
    argv = ["empty-check", "--m", str(m), "--n", str(n), "--out", str(out)]
    assert main(argv + ["--graded"] * graded) == 0
    assert out.read_bytes() == golden.read_bytes()


def test_every_certificate_and_report_matches_its_digest():
    # sha256 of the JSON text and of the verify_certificate report, one line
    # each, for every (m, n) in {2..7}^2, graded and ungraded, as written
    # by the implementation that rebuilt every route per branch combination
    want = json.loads((DATA / "cert_digests.json").read_text())
    assert len(want) == 72

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    got = {}
    for key in want:
        size, _, graded = key.partition("_")
        m, n = map(int, size.split("x"))
        cert = emptiness_certificate(m, n, graded == "graded")
        got[key] = {
            "certificate": sha(dump_json(cert.to_dict())),
            "report": sha("\n".join(verify_certificate(cert)) + "\n"),
        }
    assert got == want


@pytest.mark.parametrize("m,n", [(2, 2), (3, 5)])
def test_certificate_builds_each_pair_matrix_and_route_once(monkeypatch, m, n):
    calls = {"pairs": [], "routes": 0}
    pair_matrices, route = emptiness._pair_matrices, emptiness._route

    def counted_pairs(ring, key, branch):
        calls["pairs"].append((key, branch))
        return pair_matrices(ring, key, branch)

    def counted_route(*args):
        calls["routes"] += 1
        return route(*args)

    monkeypatch.setattr(emptiness, "_pair_matrices", counted_pairs)
    monkeypatch.setattr(emptiness, "_route", counted_route)
    # start from an empty cache so the count covers the one enumeration
    emptiness._universal.cache_clear()
    for size in ((m, n), (7, 7)):
        emptiness_certificate(*size)
    # one sl(2|2) computation serves every size: 4 pairs x 2 branches; each
    # route depends on 2 pairs, so it has at most 4 distinct values, and
    # the 4 routes make at most 16
    assert sorted(calls["pairs"]) == sorted(
        (key, branch) for key in emptiness.PAIR_KEYS for branch in emptiness.BRANCHES
    )
    assert calls["routes"] <= 16


# sha256 of `empty-check --m M --n N [--graded] --out` at sizes outside
# {2..7}^2, as written by the implementation that enumerated the branch
# combinations at every size
OUT_DIGESTS = {
    (2, 40, False): "47f7fc2b64d940339354fbef3eeb1314d5c651fc96305b38cb66c2201fc02243",
    (2, 40, True): "f446f8aad71be0b89a9db385e7ecf8e478ef24557b653908ddc206ca2a35bce7",
    (40, 2, False): "f720b5736f65d0ab0fd381abde6d93ec78cd804e118d4076dd297e1a4a2f2fe5",
    (40, 2, True): "73f362359741a7d423749a2f9b0942d80569763aa3030f6c040520af9bc32ccb",
    (300, 200, False): "6a9daed81a06959a4e3e9848ce6aca928a1492148b425284f3b8cdc9a170a9bb",
    (300, 200, True): "0a50203af9579070e6c4fc5c2e3975ae286a23ec9c629bdbdcbe45bfe2cb0d8e",
}


@pytest.mark.parametrize("m, n, graded", sorted(OUT_DIGESTS))
def test_certificates_past_the_digest_grid_match_their_digests(tmp_path, capsys, m, n, graded):
    out = tmp_path / "cert.json"
    argv = ["empty-check", "--m", str(m), "--n", str(n), "--out", str(out)]
    assert main(argv + ["--graded"] * graded) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUT_DIGESTS[m, n, graded]
    assert main(["empty-check", "--verify", str(out)]) == 0
    assert "evaluation witness holds" in capsys.readouterr().out


# sha256 of the `empty-check --m M --n N [--graded] --out` bytes of every
# (M, N) in {2..12}^2, M outer, N inner, one digest per grading, as written
# by the implementation that printed every polynomial at its own size.  At
# M >= 10, h1 is a prefix of h{M}, so a renaming by text replacement breaks them.
GRID_DIGESTS = {
    False: "d2b0ca8a05f94cf65d6e6f86bf3f138ed7ad3c2349c4f46d58cf6b5803e9b26e",
    True: "9efc3ca773398d810789176e2f27db39bd2f0dd828ffdccce3a34501ddd9fa73",
}


@pytest.mark.parametrize("graded", sorted(GRID_DIGESTS))
def test_certificates_of_the_size_grid_match_their_digest(tmp_path, capsys, graded):
    digest = hashlib.sha256()
    out = tmp_path / "cert.json"
    for m, n in itertools.product(range(2, 13), repeat=2):
        argv = ["empty-check", "--m", str(m), "--n", str(n), "--out", str(out)]
        assert main(argv + ["--graded"] * graded) == 0
        digest.update(out.read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == GRID_DIGESTS[graded]


def _with_shift(monkeypatch, m, n, root, var, delta):
    """algebra(m, n) with `delta` added to coordinate `var` of root's weight shift."""
    alg = algebra(m, n)
    shift = list(alg.weight_shift(root))
    shift[var] += delta
    monkeypatch.setitem(alg._shifts, root, tuple(shift))


def test_a_wrong_active_shift_breaks_the_reduction(monkeypatch):
    # e[3,b1] of sl(3|5), the raising root of pair m1; hb1 (position 3) is active
    _with_shift(monkeypatch, 3, 5, Root(2, 3), 3, 1)
    with pytest.raises(InvariantBreach, match=r"root e\[3,b1\] of sl\(3\|5\) shifts"):
        emptiness_certificate(3, 5)
    # the other sizes keep their algebras
    emptiness_certificate(3, 4)


def test_an_inactive_shift_is_not_read(monkeypatch):
    # hb2 (position 4) occurs in no polynomial of the certificate
    want = dump_json(emptiness_certificate(3, 5).to_dict())
    _with_shift(monkeypatch, 3, 5, Root(2, 3), 4, 1)
    assert dump_json(emptiness_certificate(3, 5).to_dict()) == want


def test_a_wrong_pair_scalar_breaks_the_reduction(monkeypatch):
    real = CertRing.pair_scalar

    def planted(ring, key):
        p = real(ring, key)
        return p + 1 if (ring.m, ring.n, key) == (4, 3, "mn") else p

    monkeypatch.setattr(CertRing, "pair_scalar", planted)
    with pytest.raises(InvariantBreach, match=r"pair mn of sl\(4\|3\) is not the sl\(2\|2\) one"):
        emptiness_certificate(4, 3)
    emptiness_certificate(3, 4)


def test_the_size_keyed_caches_are_bounded():
    # 70 sizes: more algebras, certificate texts and replays than the
    # caches keep
    for m in range(2, 72):
        for graded in (False, True):
            verify_certificate(emptiness_certificate(m, 2, graded))
    caches = (
        (algebra, 70),
        (emptiness._rendered, 70),
        (emptiness._replay, 2 * 70),
    )
    for cache, keys in caches:
        info = cache.cache_info()
        assert keys > info.maxsize >= info.currsize


def test_the_emptiness_workload_fits_the_size_keyed_caches():
    # (m, n) in {2..7}^2 twice: the second pass finds every algebra and
    # certificate text
    sizes = list(itertools.product(range(2, 8), repeat=2))
    caches = (algebra, emptiness._rendered)
    for m, n in sizes:
        emptiness_certificate(m, n)
    misses = [cache.cache_info().misses for cache in caches]
    for m, n in sizes:
        verify_certificate(emptiness_certificate(m, n))
    assert [cache.cache_info().misses for cache in caches] == misses


# -- the verification memo: one replay and one run of the size-determined checks per size


def _verify_lines(capsys, path) -> tuple[int, str]:
    code = main(["empty-check", "--verify", str(path)])
    return code, capsys.readouterr().out


def test_verifying_three_certificates_of_one_size_replays_once(monkeypatch, capsys):
    calls = {"certificates": 0, "routes": 0, "re-derivations": 0}
    certificate, route = emptiness.emptiness_certificate, emptiness._route
    bracket = emptiness.twisted_bracket

    def counted_certificate(*args, **kwargs):
        calls["certificates"] += 1
        return certificate(*args, **kwargs)

    def counted_route(*args):
        calls["routes"] += 1
        return route(*args)

    def counted_bracket(*args):
        calls["re-derivations"] += 1
        return bracket(*args)

    monkeypatch.setattr(emptiness, "emptiness_certificate", counted_certificate)
    monkeypatch.setattr(emptiness, "_route", counted_route)
    monkeypatch.setattr(emptiness, "twisted_bracket", counted_bracket)
    path = DATA / "cert_3x5.json"
    first = _verify_lines(capsys, path)
    assert first[0] == 0 and "evaluation witness holds" in first[1]
    # the replay, with the one sl(2|2) enumeration it needs (at most 16
    # routes), and the size-determined checks: 2 routes at 2 specializations
    assert calls["certificates"] == 1 and 0 < calls["routes"] <= 16
    assert calls["re-derivations"] == 4
    once = dict(calls)
    for _ in range(2):
        assert _verify_lines(capsys, path) == first
    assert calls == once


def test_the_reduction_is_checked_once_per_size(monkeypatch):
    checked = []
    check = emptiness._check_reduction
    monkeypatch.setattr(emptiness, "_check_reduction", lambda ring: checked.append(ring) or check(ring))
    for graded in (False, True, False):
        verify_certificate(emptiness_certificate(3, 5, graded))
    emptiness_certificate(5, 3)
    assert checked == [CertRing(3, 5), CertRing(5, 3)]


def _tamper_route(cert: dict) -> None:
    route = cert["surviving"]["routeB"]["mat"]
    route[1][1] = route[1][1] + " + 1"


def _tamper_point(cert: dict) -> None:
    point = cert["surviving"]["eval_witness"]["point"]
    name = sorted(point)[-1]
    point[name] = str(int(point[name]) + 2)


def _tamper_branch(cert: dict) -> None:
    killed = [o for o in cert["branch_log"] if o["stage1"]["detail"] and "lhs" in o["stage1"]["detail"]]
    detail = killed[-1]["stage1"]["detail"]
    detail["rhs"] = detail["lhs"]


TAMPERS = {"route": _tamper_route, "point": _tamper_point, "branch": _tamper_branch}


@pytest.mark.parametrize("kind", sorted(TAMPERS))
def test_a_warm_size_still_rejects_a_tampered_certificate(tmp_path, capsys, kind):
    intact = DATA / "cert_3x5.json"
    data = json.loads(intact.read_text())
    TAMPERS[kind](data)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data, indent=2, sort_keys=True))
    rejected = (1, "FAIL: certificate does not match a fresh replay\n")
    assert _verify_lines(capsys, tampered) == rejected
    accepted = _verify_lines(capsys, intact)
    assert accepted[0] == 0
    assert _verify_lines(capsys, tampered) == rejected
    assert _verify_lines(capsys, intact) == accepted


def test_a_flipped_graded_flag_is_checked_against_its_own_grading(tmp_path, capsys):
    # the flag is the only difference between the two certificates of a size,
    # so a flipped file is the other grading's certificate: it passes with
    # that grading's report, also when both (3, 5, graded) entries are warm
    paths = {}
    for graded in (False, True):
        data = emptiness_certificate(3, 5, graded).to_dict()
        paths[graded] = tmp_path / f"graded_{graded}.json"
        paths[graded].write_text(dump_json(data))
        data["graded"] = not graded
        paths[graded, "flipped"] = tmp_path / f"flipped_{graded}.json"
        paths[graded, "flipped"].write_text(dump_json(data))
    reports = {graded: _verify_lines(capsys, paths[graded]) for graded in (False, True)}
    assert reports[False] != reports[True] and "graded annotation" in reports[True][1]
    for graded in (False, True):
        assert _verify_lines(capsys, paths[graded, "flipped"]) == reports[not graded]


# -- one text per certificate: the kept file form is compared before any parse


def _refuse(*args, **kwargs):
    raise AssertionError("parsed a certificate")


def test_a_warm_intact_file_is_verified_without_a_parse(monkeypatch, capsys):
    path = DATA / "cert_3x5.json"
    first = _verify_lines(capsys, path)
    assert first[0] == 0 and "evaluation witness holds" in first[1]
    # not even as JSON: the header lines give the size, then the bytes are compared
    monkeypatch.setattr(emptiness, "load_json", _refuse)
    monkeypatch.setattr(emptiness, "certificate_from_dict", _refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("uhfree") and hasattr(module, "parse_poly"):
            monkeypatch.setattr(module, "parse_poly", _refuse)
    assert _verify_lines(capsys, path) == first


def test_a_cold_intact_file_builds_no_certificate_object(monkeypatch, capsys):
    # the checks run once on the fresh certificate, with today's report
    want = verify_certificate(certificate_from_dict(json.loads((DATA / "cert_3x5.json").read_text())))
    emptiness._replay.cache_clear()
    monkeypatch.setattr(emptiness, "load_json", _refuse)
    monkeypatch.setattr(emptiness, "certificate_from_dict", _refuse)
    code, out = _verify_lines(capsys, DATA / "cert_3x5.json")
    assert code == 0
    assert out == "".join(f"{line}\n" for line in ["certificate for sl(3|5) re-verified:"] + ["  " + t for t in want])


@pytest.mark.parametrize("graded", [False, True])
def test_generate_then_verify_builds_and_encodes_the_certificate_once(
    monkeypatch, tmp_path, capsys, graded
):
    calls = {"certificates": 0, "encodings": 0}
    certificate, encode = emptiness.emptiness_certificate, dump_json

    def counted_certificate(*args, **kwargs):
        calls["certificates"] += 1
        return certificate(*args, **kwargs)

    def counted_encode(payload):
        calls["encodings"] += 1
        return encode(payload)

    monkeypatch.setattr(emptiness, "emptiness_certificate", counted_certificate)
    for name, module in list(sys.modules.items()):
        if name.startswith("uhfree") and hasattr(module, "dump_json"):
            monkeypatch.setattr(module, "dump_json", counted_encode)
    out = tmp_path / "cert.json"
    argv = ["empty-check", "--m", "3", "--n", "5", "--out", str(out)] + ["--graded"] * graded
    assert main(argv) == 0
    assert calls == {"certificates": 1, "encodings": 1}
    code, report = _verify_lines(capsys, out)
    assert code == 0 and "evaluation witness holds" in report
    assert ("graded annotation" in report) == graded
    assert calls == {"certificates": 1, "encodings": 1}
    if not graded:
        assert out.read_bytes() == (DATA / "cert_3x5.json").read_bytes()


def _ascending(text: str, names) -> str:
    """The polynomial of text, printed with its terms in ascending order."""
    p = parse_poly(text, names)
    out = ""
    for exps, c in reversed(p.sorted_terms()):
        term = format_poly(Poly(p.nvars, {exps: c}), names)
        out += (" - " + term[1:]) if term.startswith("-") else (" + " + term)
    return out[3:] if out.startswith(" + ") else "-" + out[3:]


def test_a_file_in_another_layout_or_route_text_still_verifies(tmp_path, capsys):
    intact = DATA / "cert_3x5.json"
    accepted = _verify_lines(capsys, intact)
    data = json.loads(intact.read_text())
    reformatted = tmp_path / "indent4.json"
    reformatted.write_text(json.dumps(data, indent=4))
    assert reformatted.read_text() != intact.read_text()
    names = CertRing(3, 5).names
    mat = data["surviving"]["routeA"]["mat"]
    entry = next(e for row in mat for e in row if " " in e)
    text = _ascending(entry, names)
    assert text != entry
    mat[:] = [[text if e == entry else e for e in row] for row in mat]
    rewritten = tmp_path / "route_text.json"
    rewritten.write_text(dump_json(data))
    for path in (reformatted, rewritten, reformatted, intact):
        assert _verify_lines(capsys, path) == accepted


def _with_m_line(text: str, m: int, value: int) -> str:
    """text with its top-level "m" line reading value in place of m."""
    line = f'\n  "m": {m},\n'
    assert text.count(line) == 1
    return text.replace(line, f'\n  "m": {value},\n')


@pytest.mark.parametrize("graded", [False, True])
def test_verify_text_answers_as_the_parse_path_does(graded):
    # the header read and the byte comparison change no outcome: the same
    # return value, or the same exception and message, as parsing each text
    def outcome(verify, text):
        try:
            return verify(text)
        except UhfreeError as exc:
            return type(exc), str(exc)

    def parsed(text):
        cert = certificate_from_dict(load_json(text, EmptinessError))
        return cert.m, cert.n, verify_certificate(cert)

    for m, n in itertools.product(range(2, 6), repeat=2):
        form = emptiness.certificate_text(m, n, graded)[0]
        texts = [form, form[:-1], json.dumps(json.loads(form), indent=4)]
        for tamper in TAMPERS.values():
            data = json.loads(form)
            tamper(data)
            texts.append(dump_json(data))
        # another size in scope, m = 1, m + n over the budget, and 6 digits
        texts += [_with_m_line(form, m, value) for value in (m % 5 + 2, 1, 20_001 - n, 100_000)]
        # each cut short, so no longer JSON
        texts += [text[:-2] for text in texts]
        for text in texts:
            assert outcome(emptiness.verify_text, text) == outcome(parsed, text), (m, n, text[-40:])


def test_a_float_in_a_branch_log_detail_is_rejected(tmp_path, capfd):
    data = json.loads((DATA / "cert_3x5.json").read_text())
    detail = next(o["stage1"]["detail"] for o in data["branch_log"] if "entries" in o["stage1"]["detail"])
    detail["entries"][0][0] = float(detail["entries"][0][0])
    path = tmp_path / "float.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True))
    for _ in range(2):
        assert main(["empty-check", "--verify", str(path)]) == 1
        assert capfd.readouterr() == ("FAIL: certificate does not match a fresh replay\n", "")


def _held_values(record):
    """The values a record holds, tuples opened."""
    for value in record:
        yield from _held_values(value) if type(value) is tuple else (value,)


def _assert_records_hold_only_text(keys):
    """The kept _replay records are those of keys, each str and tuples of str."""
    assert emptiness._replay.cache_info().currsize == len(keys)
    for key in keys:
        record = emptiness._replay(*key)
        assert type(record) is tuple and len(record) == 3
        assert all(type(value) is str for value in _held_values(record))


def test_a_replay_record_holds_only_text(tmp_path, capsys):
    # built whole from one fresh certificate, which it does not keep, so
    # generating and verifying intact, tampered, float and flipped files
    # leave every record as built: str and tuples of str
    out = tmp_path / "cert.json"
    argv = ["empty-check", "--m", "3", "--n", "5", "--out", str(out)]
    keys = [(3, 5, False), (3, 5, True)]
    for graded in (False, True):
        assert main(argv + ["--graded"] * graded) == 0
    _assert_records_hold_only_text(keys)
    intact = json.loads((DATA / "cert_3x5.json").read_text())
    variants = [dict(intact, graded=True)]
    for tamper in TAMPERS.values():
        variants.append(json.loads(json.dumps(intact)))
        tamper(variants[-1])
    variants.append(json.loads(json.dumps(intact)))
    details = (o["stage1"]["detail"] for o in variants[-1]["branch_log"])
    detail = next(d for d in details if "entries" in d)
    detail["entries"][0][0] = float(detail["entries"][0][0])
    paths = [DATA / "cert_3x5.json"]
    for k, data in enumerate(variants):
        paths.append(tmp_path / f"variant{k}.json")
        paths[-1].write_text(json.dumps(data, indent=2, sort_keys=True))
    for path, code in zip(paths, [0, 0, 1, 1, 1, 1], strict=True):
        assert _verify_lines(capsys, path)[0] == code
        _assert_records_hold_only_text(keys)


def _edit_everything(node):
    """Change every string, number and list in a JSON-like tree in place."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        if isinstance(value, (dict, list)):
            _edit_everything(value)
        elif isinstance(value, str):
            node[key] = value + " + 1"
        elif isinstance(value, int):
            node[key] = value + 1
    if isinstance(node, dict):
        node["edited"] = True
    else:
        node.append("edited")


def test_editing_a_rendered_certificate_leaves_the_next_unchanged():
    want = dump_json(emptiness_certificate(3, 5, graded=True).to_dict())
    cert = emptiness_certificate(3, 5, graded=True)
    for held in (cert.surviving_choices, cert.support_witness, cert.eval_witness):
        _edit_everything(held)
    for entry in cert.branch_log:
        _edit_everything(entry)
    _edit_everything(cert.to_dict())
    assert dump_json(cert.to_dict()) != want
    assert dump_json(emptiness_certificate(3, 5, graded=True).to_dict()) == want


def _reversed_terms(mat):
    """The same matrix with every entry's terms stored in reverse order."""

    def rev(p):
        return Poly._of(p.nvars, dict(reversed(list(p._num.items()))), p._den)

    return Mat2(tuple(tuple(rev(p) for p in row) for row in mat.rows))


def test_zero_route_is_not_proportional_to_a_nonzero_one():
    # every cross product of the two matrices is zero, so only the
    # zero-pattern comparison can tell them apart
    zero = Mat2.zero(2)
    nonzero = Mat2(((Poly.zero(2), Poly.var(2, 0)), (Poly.zero(2), Poly.zero(2))))
    delta = (1, 0, 0, -1)
    names = ("h1", "h2")
    for a, b in ((zero, nonzero), (nonzero, zero)):
        assert _proportionality(names, RouteView(delta, a), RouteView(delta, b)) == (
            False,
            None,
            {
                "entries": [[0, 1], [0, 1]],
                "lhs": format_poly(a[0, 1], names),
                "rhs": format_poly(b[0, 1], names),
            },
        )


@pytest.mark.parametrize("m,n", [(2, 2), (3, 5), (7, 7)])
def test_support_witness_ignores_term_storage_order(m, n):
    cert = emptiness_certificate(m, n)
    ring = cert.ring()
    # the routes' matrices over Q[h], read from the file form at the units 1
    a, b = (
        _eval_scaled(ring, route.num, route.den, (1, 1, 1, 1)) for route in (cert.route_a, cert.route_b)
    )
    names = ring.names[: ring.base_nvars]
    witness = _support_witness(names, a, b)
    assert witness == cert.support_witness
    assert _support_witness(names, _reversed_terms(a), _reversed_terms(b)) == witness
    assert _support_witness(names, _reversed_terms(a), b) == witness


def test_support_witness_skips_an_entry_whose_opposite_is_zero():
    # h1 at [0, 0] has no opposite entry to be absent from; h2 at [0, 1] has one
    h1, h2 = Poly.var(2, 0), Poly.var(2, 1)
    a = Mat2.of(2, ((h1, h2), (0, 0)))
    b = Mat2.of(2, ((0, 1), (0, 0)))
    assert _support_witness(("h1", "h2"), a, b) == {
        "entry": [0, 1],
        "variable": "h2",
        "monomial": "h2",
        "route": "A",
    }


# -- the evaluation witness against the exhaustive grid scan ------------------------------


def _vanishing(ring, v):
    """h(h-1)(h-2)(h-3) in base variable v: zero on the whole evaluation grid."""
    h = ring.hvar(v)
    return h * (h - 1) * (h - 2) * (h - 3)


@st.composite
def grid_polys(draw, ring):
    """Entries over Q[h] with degree up to 5 in one variable."""
    terms = {}
    for _ in range(draw(st.integers(0, 2))):
        exps = [draw(st.integers(0, 1)) for _ in range(ring.base_nvars)]
        exps[draw(st.integers(0, ring.base_nvars - 1))] = draw(st.integers(0, 5))
        terms[tuple(exps)] = Fraction(draw(st.integers(-3, 3)))
    p = Poly(ring.base_nvars, terms)
    if draw(st.booleans()):
        p = p * _vanishing(ring, draw(st.integers(0, ring.base_nvars - 1)))
    return p


@st.composite
def route_pairs(draw):
    """(ring, a, b, proportional on the grid): route matrices over at most
    four base variables."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5 - m))
    ring = CertRing(m, n)
    base_var = st.integers(0, ring.base_nvars - 1)

    def mat():
        c = [draw(grid_polys(ring)) for _ in range(4)]
        return [[c[0], c[1]], [c[2], c[3]]]

    a = mat()
    kind = draw(st.sampled_from(["free", "proportional", "off-grid"]))
    if kind == "free":
        b = mat()
    else:
        lam = Fraction(draw(st.sampled_from([-2, 1, 3])), draw(st.integers(1, 3)))
        b = [[lam * q for q in row] for row in a]
        if kind == "off-grid":
            # still proportional on the grid, but not as polynomials
            r, c = draw(st.integers(0, 1)), draw(st.integers(0, 1))
            b[r][c] += _vanishing(ring, draw(base_var)) * ring.hvar(draw(base_var))
    return ring, Mat2(tuple(map(tuple, a))), Mat2(tuple(map(tuple, b))), kind != "free"


def _vanishing_first_coordinate_case():
    # the cross-difference is V(h2) + h1*h2 + V(h2)*h1*h2 with V vanishing on
    # the grid: h1 = 0 leaves it nonzero as a polynomial but zero on the grid
    ring = CertRing(2, 1)
    one, zero = Poly.one(ring.base_nvars), Poly.zero(ring.base_nvars)
    a = Mat2(((one + _vanishing(ring, 1), zero), (zero, one)))
    b = Mat2(((one, zero), (zero, one + ring.hvar(0) * ring.hvar(1))))
    return ring, a, b, False


@settings(max_examples=80, deadline=None)
@example(_vanishing_first_coordinate_case())
@given(route_pairs())
def test_eval_witness_matches_the_grid_scan(case):
    ring, a, b, proportional_on_grid = case
    found = _eval_witness(ring.names[: ring.base_nvars], a, b)
    assert found == eval_witness_oracle(ring, a, b)
    if proportional_on_grid:
        assert found is None


@st.composite
def views_and_units(draw):
    """(ring, a^delta * mat with delta in {-2..2}^4, nonzero rational units)."""
    ring = CertRing(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    delta = tuple(draw(st.integers(-2, 2)) for _ in range(4))
    mat = Mat2(tuple(tuple(draw(grid_polys(ring)) for _ in range(2)) for _ in range(2)))
    nonzero = st.integers(-5, 5).filter(bool)
    units = tuple(Fraction(draw(nonzero), draw(st.integers(1, 5))) for _ in range(4))
    return ring, RouteView(delta, mat), units


@settings(max_examples=80, deadline=None)
@given(views_and_units())
def test_file_form_evaluates_to_the_view(case):
    ring, view, units = case
    form = view.file_form(ring.names)
    assert form.den == tuple(max(-d, 0) for d in view.delta)
    scale = prod(u**d for u, d in zip(units, view.delta))
    assert _eval_scaled(ring, form.num, form.den, units) == view.mat * scale


class TestScaledMat:
    """ScaledMat is an immutable NamedTuple whose num is the parse of its text."""

    RING = CertRing(2, 2)

    def matrix(self):
        names = self.RING.names
        entries = (("h1*a1 + 1/2", "0"), ("0", "hb1 - a4^2"))
        return Mat2._of(tuple(tuple(parse_poly(e, names) for e in row) for row in entries))

    def test_num_is_the_parsed_matrix_and_the_fields_define_the_form(self):
        mat = self.matrix()
        kept = ScaledMat.of(mat, (0, 1, 0, 2), self.RING.names)
        assert kept.num == mat
        form = ScaledMat(kept.text, kept.den, kept.names)
        assert form.num == mat
        assert form == kept and hash(form) == hash(kept) and repr(form) == repr(kept)
        assert repr(form) == f"ScaledMat(text={kept.text!r}, den={kept.den!r}, names={kept.names!r})"
        assert form != ScaledMat(kept.text, (0, 0, 0, 2), kept.names)
        assert form != ScaledMat(kept.text, kept.den, CertRing(2, 3).names)

    def test_a_foreign_operand_is_left_to_the_other_side(self):
        form = ScaledMat.of(self.matrix(), (0, 0, 0, 0), self.RING.names)
        assert not form == object() and form != object()
        assert form == Foreign()

    @pytest.mark.parametrize("name", ["text", "den", "names", "num", "other"])
    def test_every_attribute_is_read_only(self, name):
        form = ScaledMat.of(self.matrix(), (0, 0, 0, 0), self.RING.names)
        with pytest.raises(AttributeError):
            setattr(form, name, None)
        assert form.num == self.matrix()


class TestGraded:
    def test_graded_annotation(self):
        cert = emptiness_certificate(2, 2, graded=True)
        assert cert.graded
        report = verify_certificate(cert)
        assert any("graded" in line for line in report)

    def test_out_of_scope(self):
        with pytest.raises(EmptinessError):
            emptiness_certificate(2, 1, graded=True)
        with pytest.raises(EmptinessError):
            emptiness_certificate(1, 2)

    def test_size_budget(self):
        emptiness.check_size(2, emptiness.SIZE_BUDGET - 2)
        with pytest.raises(EmptinessError, match="m \\+ n is over the budget"):
            emptiness.check_size(2, emptiness.SIZE_BUDGET - 1)
        with pytest.raises(EmptinessError, match="m \\+ n is over the budget"):
            emptiness_certificate(emptiness.SIZE_BUDGET, 2)


class TestTampering:
    def test_format_mismatch_rejected(self, cert22):
        data = cert22.to_dict()
        data["format"] = "something-else"
        with pytest.raises(EmptinessError, match="format-version"):
            certificate_from_dict(data)

    def test_modified_route_fails_verification(self, cert22):
        data = json.loads(dump_json(cert22.to_dict()))
        mat = data["surviving"]["routeA"]["mat"]
        mat[0][0] = mat[0][0] + " + 1"
        cert = certificate_from_dict(data)
        with pytest.raises(EmptinessError):
            verify_certificate(cert)

    def test_modified_branch_log_fails_verification(self, cert22):
        data = json.loads(dump_json(cert22.to_dict()))
        data["branch_log"][0]["stage1"]["equal"] = not data["branch_log"][0][
            "stage1"
        ]["equal"]
        cert = certificate_from_dict(data)
        with pytest.raises(EmptinessError):
            verify_certificate(cert)

    @staticmethod
    def _identities(data):
        """The recorded branch-killing identities, in branch-log order."""
        for outcome in data["branch_log"]:
            for stage in (outcome["stage1"], outcome["stage2"]):
                detail = (stage or {}).get("detail") or {}
                if "lhs" in detail:
                    yield detail

    def test_identity_made_to_hold_fails_verification(self, cert22):
        data = json.loads(dump_json(cert22.to_dict()))
        detail = next(self._identities(data))
        detail["rhs"] = detail["lhs"]
        with pytest.raises(EmptinessError, match="fresh replay"):
            verify_certificate(certificate_from_dict(data))

    def test_identity_made_to_hold_fails_the_text_check(self, cert22, monkeypatch):
        # a replay that returns the tampered certificate itself reaches the
        # check of the recorded identities
        data = json.loads(dump_json(cert22.to_dict()))
        detail = next(self._identities(data))
        detail["rhs"] = detail["lhs"]
        cert = certificate_from_dict(data)
        monkeypatch.setattr(emptiness, "emptiness_certificate", lambda *a, **k: cert)
        with pytest.raises(EmptinessError, match="recorded failing identity holds"):
            verify_certificate(cert)

    def test_consistently_wrong_routes_fail_the_re_derivation(self, monkeypatch):
        # a generator that doubles every route agrees with its own replay,
        # and its witnesses and recorded identities still hold; only the
        # re-derivation through mat2.twisted_bracket sees it
        route = emptiness._route

        def doubled(*args):
            r = route(*args)
            return RouteView(r.delta, r.mat * 2)

        monkeypatch.setattr(emptiness, "_route", doubled)
        cert = emptiness_certificate(3, 2)
        with pytest.raises(EmptinessError, match="recorded route disagrees"):
            verify_certificate(cert)

    def test_reordered_identity_fails_the_replay(self, cert22):
        data = json.loads(dump_json(cert22.to_dict()))
        names = cert22.ring().names
        detail = next(d for d in self._identities(data) if " " in d["lhs"])
        text = _ascending(detail["lhs"], names)
        assert text != detail["lhs"] and parse_poly(text, names) == parse_poly(detail["lhs"], names)
        detail["lhs"] = text
        with pytest.raises(EmptinessError, match="fresh replay"):
            verify_certificate(certificate_from_dict(data))


def _without_check(message: str) -> types.ModuleType:
    """A fresh copy of uhfree.emptiness without the `if ...: raise` whose error names message."""
    dropped = []

    class Drop(ast.NodeTransformer):
        def visit_If(self, node):
            self.generic_visit(node)
            last = node.body[-1]
            if isinstance(last, ast.Raise) and message in ast.unparse(last):
                dropped.append(node.lineno)
                return None
            return node

    tree = ast.fix_missing_locations(Drop().visit(ast.parse(Path(emptiness.__file__).read_text())))
    assert len(dropped) == 1, dropped
    module = types.ModuleType("uhfree.emptiness_without_check")
    module.__package__ = "uhfree"
    exec(compile(tree, emptiness.__file__, "exec"), module.__dict__)
    return module


def _consistent_survivor(monkeypatch, module):
    # the second stage finds the surviving branch's E_{mi} routes proportional
    real = module._proportionality
    down1 = (-1, 1, 0, 0)  # the unit exponents of every route through b1 of E_{mi}
    monkeypatch.setattr(
        module,
        "_proportionality",
        lambda names, a, b: (True, Fraction(1), None) if a.delta == down1 else real(names, a, b),
    )


def _two_survivors(monkeypatch, module):
    # the first branch combination is let through the first stage as well
    real, calls = module._routes_reconcilable, itertools.count()
    monkeypatch.setattr(
        module,
        "_routes_reconcilable",
        lambda names, a, b: (None, "planted") if next(calls) == 0 else real(names, a, b),
    )


def _no_support_witness(monkeypatch, module):
    monkeypatch.setattr(module, "_support_witness", lambda names, a, b: None)


def _support_in_the_wrong_route(monkeypatch, module):
    # names the entry that lacks the variable as the one that has it
    real = module._support_witness

    def swapped(names, a, b):
        witness = real(names, a, b)
        return witness | {"route": "B" if witness["route"] == "A" else "A"}

    monkeypatch.setattr(module, "_support_witness", swapped)


def _agreeing_point(monkeypatch, module):
    # a point and an entry pair where the two cross products agree, recorded truthfully
    def agreeing(names, a, b):
        cells = [(r, c) for r in range(2) for c in range(2)]
        for coords in itertools.product(range(4), repeat=len(names)):
            for e1, e2 in itertools.combinations(cells, 2):
                lhs = a[e1].evaluate(coords) * b[e2].evaluate(coords)
                rhs = a[e2].evaluate(coords) * b[e1].evaluate(coords)
                if lhs == rhs:
                    return {
                        "point": {name: str(x) for name, x in zip(names, coords)},
                        "entries": [list(e1), list(e2)],
                        "lhs": str(lhs),
                        "rhs": str(rhs),
                    }

    monkeypatch.setattr(module, "_eval_witness", agreeing)


# (plant, the error message of the one check that catches it, the stage it runs in)
CHECK_MUTANTS = {
    "consistent-survivor": (_consistent_survivor, "admits a consistent module", "generate"),
    "two-survivors": (_two_survivors, "expected exactly one branch", "generate"),
    "no-support-witness": (_no_support_witness, "witnesses not found", "generate"),
    "support-wrong-route": (_support_in_the_wrong_route, "support witness does not hold", "verify"),
    "agreeing-point": (_agreeing_point, "evaluation witness does not hold", "verify"),
}


@pytest.mark.parametrize("name", sorted(CHECK_MUTANTS))
def test_each_certificate_check_rejects_its_mutant(monkeypatch, name):
    """Each mutant agrees with its own replay, so only its check rejects it."""
    plant, message, stage = CHECK_MUTANTS[name]
    plant(monkeypatch, emptiness)
    error = InvariantBreach if stage == "generate" else EmptinessError
    with pytest.raises(error, match=message):
        verify_certificate(emptiness_certificate(2, 2))
    # with that one check gone, the mutant is accepted
    mutant = _without_check(message)
    plant(monkeypatch, mutant)
    cert = mutant.emptiness_certificate(2, 2)
    if stage == "verify":
        assert mutant.verify_certificate(cert)


def test_verify_parses_only_the_route_entries(monkeypatch, capsys):
    """The first verify of a size parses the fresh certificate's 8 route
    entries once, for both unit specializations; a second parses nothing."""
    texts = []

    def counting(text, names):
        texts.append(text)
        return parse_poly(text, names)

    for name, module in list(sys.modules.items()):
        if name.startswith("uhfree") and hasattr(module, "parse_poly"):
            monkeypatch.setattr(module, "parse_poly", counting)
    path = DATA / "cert_3x5.json"
    first = _verify_lines(capsys, path)
    assert first[0] == 0
    data = json.loads(path.read_text())
    routes = [data["surviving"][r]["mat"] for r in ("routeA", "routeB")]
    assert texts == [entry for mat in routes for row in mat for entry in row]
    assert _verify_lines(capsys, path) == first
    assert len(texts) == 8


def test_a_generated_certificate_that_fails_a_check_is_not_written(monkeypatch, tmp_path, capfd):
    # generation runs the verification checks, and reports a failure as --verify does
    _support_in_the_wrong_route(monkeypatch, emptiness)
    out = tmp_path / "cert.json"
    assert main(["empty-check", "--m", "2", "--n", "2", "--out", str(out)]) == 1
    assert capfd.readouterr() == ("FAIL: support witness does not hold\n", "")
    assert not out.exists()


def test_support_witness_is_none_when_the_supports_agree():
    # each nonzero entry has the variables of its opposite entry
    h1, h2 = Poly.var(2, 0), Poly.var(2, 1)
    a = Mat2.of(2, ((h1 * h2, 0), (1, h2)))
    b = Mat2.of(2, ((h1 * h2 + h1, 0), (2, 3 * h2)))
    assert _support_witness(("h1", "h2"), a, b) is None
