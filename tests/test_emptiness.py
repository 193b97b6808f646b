import hashlib
import json
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from uhfree.poly import Poly, format_poly, parse_poly
from uhfree.presentation import Mat2, dump_json
from uhfree import emptiness
from uhfree.cli import main
from uhfree.emptiness import (
    CertRing,
    EmptinessError,
    RouteView,
    _eval_scaled,
    _eval_witness,
    _support_witness,
    certificate_from_dict,
    certificate_from_json,
    emptiness_certificate,
    verify_certificate,
)

from .oracles import eval_witness_oracle, from_sympy, to_sympy

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def cert22():
    return emptiness_certificate(2, 2)


class TestCertificate22(object):
    def test_every_branch_combination_dies(self, cert22):
        assert len(cert22.branch_log) == 16
        for outcome in cert22.branch_log:
            if outcome.stage1_equal:
                assert outcome.stage2_proportional is False
            else:
                assert outcome.stage2_proportional is None

    def test_exactly_one_branch_survives_stage_one(self, cert22):
        survivors = [o for o in cert22.branch_log if o.stage1_equal]
        assert len(survivors) == 1
        assert survivors[0].choices == cert22.surviving_choices

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
        got = _eval_scaled(ring, route, units)
        for r in range(2):
            for c in range(2):
                want = to_sympy(route.num[r, c], syms).subs(at_units) / scale
                assert got[r, c] == from_sympy(want, base)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 3), (2, 7), (7, 2), (40, 40)])
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
    emptiness_certificate(m, n)
    # 4 pairs x 2 branches; each route depends on 2 pairs, so it has at
    # most 4 distinct values, and the 4 routes make at most 16
    assert sorted(calls["pairs"]) == sorted(
        (key, branch) for key in emptiness.PAIR_KEYS for branch in emptiness.BRANCHES
    )
    assert calls["routes"] <= 16


def _reversed_terms(mat):
    """The same matrix with every entry's terms stored in reverse order."""

    def rev(p):
        return Poly._of(p.nvars, dict(reversed(list(p._num.items()))), p._den)

    return Mat2(tuple(tuple(rev(p) for p in row) for row in mat.rows))


@pytest.mark.parametrize("m,n", [(2, 2), (3, 5), (7, 7)])
def test_support_witness_ignores_term_storage_order(m, n):
    cert = emptiness_certificate(m, n)
    ring = cert.ring()
    # the routes' matrices over Q[h], read from the file form at the units 1
    a, b = (_eval_scaled(ring, route, (1, 1, 1, 1)) for route in (cert.route_a, cert.route_b))
    witness = _support_witness(ring, a, b)
    assert witness == cert.support_witness
    assert _support_witness(ring, _reversed_terms(a), _reversed_terms(b)) == witness
    assert _support_witness(ring, _reversed_terms(a), b) == witness


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
    found = _eval_witness(ring, a, b)
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
    form = view.file_form()
    assert form.den == tuple(max(-d, 0) for d in view.delta)
    scale = prod(u**d for u, d in zip(units, view.delta))
    assert _eval_scaled(ring, form, units) == view.mat * scale


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

    def test_reordered_identity_fails_the_replay(self, cert22):
        data = json.loads(dump_json(cert22.to_dict()))
        names = cert22.ring().names
        detail = next(d for d in self._identities(data) if " " in d["lhs"])
        p = parse_poly(detail["lhs"], names)
        # the same polynomial with its terms printed in ascending order
        text = ""
        for exps, c in reversed(p.sorted_terms()):
            term = format_poly(Poly(p.nvars, {exps: c}), names)
            text += (" - " + term[1:]) if term.startswith("-") else (" + " + term)
        text = text[3:] if text.startswith(" + ") else "-" + text[3:]
        assert text != detail["lhs"] and parse_poly(text, names) == p
        detail["lhs"] = text
        with pytest.raises(EmptinessError, match="fresh replay"):
            verify_certificate(certificate_from_dict(data))


def test_verify_parses_only_the_route_entries(monkeypatch):
    """Reading cert_3x5.json parses its 8 route entries; verifying parses none."""
    texts = []

    def counting(text, names):
        texts.append(text)
        return parse_poly(text, names)

    for name, module in list(sys.modules.items()):
        if name.startswith("uhfree") and hasattr(module, "parse_poly"):
            monkeypatch.setattr(module, "parse_poly", counting)
    text = (DATA / "cert_3x5.json").read_text()
    data = json.loads(text)
    cert = certificate_from_json(text)
    routes = [data["surviving"][r]["mat"] for r in ("routeA", "routeB")]
    assert texts == [entry for mat in routes for row in mat for entry in row]
    verify_certificate(cert)
    assert len(texts) == 8
