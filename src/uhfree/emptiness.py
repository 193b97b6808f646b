"""Machine-checkable emptiness certificates for rank 2 over sl(m|n), m, n >= 2.

A hypothetical rank-2 module would pin four generator pairs, up to
twisted conjugation and a free nonzero scalar each, to one of two
anti-triangular branches:

    (e_{i,b1}, e_{b1,i})   scalar a1,  pair polynomial h_i + hb_1 - h_m
    (e_{m,b1}, e_{b1,m})   scalar a2,  pair polynomial hb_1
    (e_{i,bn}, e_{bn,i})   scalar a3,  pair polynomial h_i
    (e_{m,bn}, e_{bn,m})   scalar a4,  pair polynomial h_m

(here i = 1; the branch decides which side of the pair carries the
polynomial).  The even matrices E_{im} and E_{mi} can each be computed
through the intermediate b1 or bn, and the two computations must agree.
The certificate enumerates all 2^4 branch combinations, treats the four
scalars as formal invertible variables, and records for every
combination a failed polynomial identity: either the two E_{im} routes
cannot be reconciled by any scalar choice, or the two E_{mi} routes are
non-proportional outright.  Non-proportionality is witnessed twice
over, by a monomial-support mismatch and by a rational evaluation
point, and the surviving combination's routes are re-derivable through
the presentation module's independent twisted-product path.

Every matrix is computed as a unit monomial a^delta times a matrix over
Q[h] (RouteView); the units are variables only in the file form (ScaledMat).

Each route depends on the branches of two pairs only (the route through
b1 on i1 and m1, the route through bn on in and mn; see ROUTES), so a
certificate is built from one branch table: the 8 (pair, branch) matrix
pairs, built once, and each route, built on first use under its two
pairs and their branches.  The support witness names the first entry
(row by row, route A before route B) and variable (in index order) that
separates the routes, with the grlex-largest monomial of that entry
containing the variable; term storage order never enters a certificate.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Mapping, Optional, Sequence

from .poly import (
    Poly,
    UhfreeError,
    default_names,
    format_poly,
)
from .presentation import (
    InvariantBreach,
    Mat2,
    derive_even,
    json_array,
    json_field,
    json_keys,
    load_json,
    make_presentation,
    odd_positions,
)
from .superlie import Root, algebra

FORMAT_CERT = "uhfree-emptiness-cert/1"

UNIT_NAMES = ("a1", "a2", "a3", "a4")
PAIR_KEYS = ("i1", "m1", "in", "mn")
BRANCHES = ("S", "O")
# The two computations of E_{im} ("up") and E_{mi} ("down"), through b1 or
# bn: the pair whose raising matrix comes first and the pair whose
# lowering matrix follows.
ROUTES = {
    "up1": ("i1", "m1"),
    "upn": ("in", "mn"),
    "down1": ("m1", "i1"),
    "downn": ("mn", "in"),
}


class EmptinessError(UhfreeError):
    """Out-of-scope sizes or an invalid certificate."""


# -- the ring and the route form --------------------------------------------------


@dataclass(frozen=True)
class CertRing:
    """Q[h] in the m+n-1 base variables; the file form adds a1..a4 after them."""

    m: int
    n: int

    @property
    def base_nvars(self) -> int:
        return self.m + self.n - 1

    @property
    def nvars(self) -> int:
        return self.base_nvars + 4

    @property
    def names(self) -> tuple[str, ...]:
        return default_names(self.base_nvars, self.m) + UNIT_NAMES

    def hvar(self, i: int) -> Poly:
        return Poly.var(self.base_nvars, i)

    def pair_positions(self, key: str) -> tuple[int, int]:
        """Positions (row of the raising generator, barred column)."""
        m, n = self.m, self.n
        row = 0 if key[0] == "i" else m - 1
        col = m if key[1] == "1" else m + n - 1
        return row, col

    def pair_scalar(self, key: str) -> Poly:
        m = self.m
        if key == "i1":
            return self.hvar(0) + self.hvar(m) - self.hvar(m - 1)
        if key == "m1":
            return self.hvar(m)
        if key == "in":
            return self.hvar(0)
        if key == "mn":
            return self.hvar(m - 1)
        raise EmptinessError(f"unknown pair {key!r}")


@dataclass(frozen=True)
class ScaledMat:
    """The file form of a route: num / (a1^d1 a2^d2 a3^d3 a4^d4), num over Q[h, a]."""

    num: Mat2
    den: tuple[int, int, int, int]


@dataclass(frozen=True)
class RouteView:
    """The matrix a1^d1 a2^d2 a3^d3 a4^d4 * mat, with mat over Q[h].

    Routes lose nothing in this form.  A pair matrix is a^(+-e_k) times a
    matrix over Q[h].  Weight shifts act on h only and fix a1..a4, so both
    terms of a twisted product E_x tau_x(E_y) + E_y tau_y(E_x) carry the
    one unit monomial a^(delta_x + delta_y).
    """

    delta: tuple[int, ...]
    mat: Mat2

    def file_form(self) -> ScaledMat:
        """a^max(delta, 0) * mat over Q[h, a], over the denominator a^max(-delta, 0)."""
        units = tuple(max(d, 0) for d in self.delta)

        def lift(p: Poly) -> Poly:
            terms = {exps + units: c for exps, c in p.terms.items()}
            return Poly(p.nvars + len(units), terms)

        num = Mat2._of(tuple(tuple(lift(p) for p in row) for row in self.mat.rows))
        return ScaledMat(num, tuple(max(-d, 0) for d in self.delta))


def _pair_matrices(ring: CertRing, key: str, branch: str) -> tuple[RouteView, RouteView]:
    """Action matrices (raising, lowering) of a pair in the chosen branch:
    a_k [[0, x], [0, 0]] and a_k^-1 [[0, 0], [y, 0]], with (x, y) = (phi, 1)
    in branch S and (1, phi) in branch O."""
    if branch not in BRANCHES:
        raise EmptinessError(f"unknown branch {branch!r}")
    k = PAIR_KEYS.index(key)
    unit = tuple(1 if j == k else 0 for j in range(4))
    nb = ring.base_nvars
    phi, one, zero = ring.pair_scalar(key), Poly.one(nb), Poly.zero(nb)
    upper, lower = (phi, one) if branch == "S" else (one, phi)
    return (
        RouteView(unit, Mat2._of(((zero, upper), (zero, zero)))),
        RouteView(tuple(-u for u in unit), Mat2._of(((zero, zero), (lower, zero)))),
    )


def _route(
    ring: CertRing,
    first: RouteView,
    first_pos: tuple[int, int],
    second: RouteView,
    second_pos: tuple[int, int],
) -> RouteView:
    """Twisted product E_first tau_first(E_second) + E_second tau_second(E_first)."""
    alg = algebra(ring.m, ring.n)
    tau1 = alg.weight_shift(Root(*first_pos))
    tau2 = alg.weight_shift(Root(*second_pos))
    a, b = first.mat, second.mat
    delta = tuple(x + y for x, y in zip(first.delta, second.delta))
    return RouteView(delta, a * b.shifted(tau1) + b * a.shifted(tau2))


# -- proportionality analysis -----------------------------------------------------------


@dataclass(frozen=True)
class MismatchWitness:
    """A cross-product identity that fails, recorded for re-verification."""

    entry_a: tuple[int, int]
    entry_b: tuple[int, int]
    lhs: Poly
    rhs: Poly

    def to_dict(self, names) -> dict:
        return {
            "entries": [list(self.entry_a), list(self.entry_b)],
            "lhs": format_poly(self.lhs, names),
            "rhs": format_poly(self.rhs, names),
        }


def _proportionality(
    a: RouteView, b: RouteView
) -> tuple[bool, Optional[Fraction], Optional[MismatchWitness]]:
    """Is mat_a = lambda * mat_b for some rational lambda != 0?"""
    cells = [(r, c) for r in range(2) for c in range(2)]
    for e1, e2 in itertools.combinations(cells, 2):
        lhs, rhs = a.mat[e1] * b.mat[e2], a.mat[e2] * b.mat[e1]
        if lhs != rhs:
            return False, None, MismatchWitness(e1, e2, lhs, rhs)
    for r, c in cells:
        if a.mat[r, c].is_zero != b.mat[r, c].is_zero:
            return False, None, MismatchWitness((r, c), (r, c), a.mat[r, c], b.mat[r, c])
    lam = None
    for r, c in cells:
        if not b.mat[r, c].is_zero:
            lam = a.mat[r, c].leading_coeff() / b.mat[r, c].leading_coeff()
            break
    return True, lam, None


def _routes_reconcilable(
    a: RouteView, b: RouteView
) -> tuple[bool, Optional[MismatchWitness], Optional[str]]:
    """Can scalars make the two routes literally equal?

    Requires mat_a = lambda mat_b; when the unit exponents coincide the
    ratio must be exactly 1, otherwise any ratio is realizable.
    """
    ok, lam, witness = _proportionality(a, b)
    if not ok:
        return False, witness, None
    if a.delta != b.delta:
        return True, None, _ratio_text(a.delta, b.delta, lam)
    if lam != 1:
        return False, None, f"forced ratio {lam} with no free scalar"
    return True, None, None


def _ratio_text(da, db, lam) -> str:
    parts = []
    for k in range(4):
        e = da[k] - db[k]
        if e:
            parts.append(f"{UNIT_NAMES[k]}^{e}" if e != 1 else UNIT_NAMES[k])
    mono = "*".join(parts) if parts else "1"
    return f"{mono} = {lam}"


# -- certificates ------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchOutcome:
    choices: dict
    stage1_equal: bool
    stage1_detail: Optional[dict]
    stage2_proportional: Optional[bool]
    stage2_detail: Optional[dict]


@dataclass(frozen=True)
class EmptinessCertificate:
    m: int
    n: int
    i: int
    graded: bool
    branch_log: tuple[BranchOutcome, ...]
    surviving_choices: dict
    route_a: ScaledMat
    route_b: ScaledMat
    support_witness: dict
    eval_witness: dict

    def ring(self) -> CertRing:
        return CertRing(self.m, self.n)

    def to_dict(self) -> dict:
        names = self.ring().names

        def sm_dict(sm: ScaledMat) -> dict:
            return {"den": list(sm.den), "mat": sm.num.to_strings(names)}

        return {
            "format": FORMAT_CERT,
            "m": self.m,
            "n": self.n,
            "i": self.i,
            "graded": self.graded,
            "unit_names": list(UNIT_NAMES),
            "branch_log": [
                {
                    "choices": o.choices,
                    "stage1": {"equal": o.stage1_equal, "detail": o.stage1_detail},
                    "stage2": (
                        None
                        if o.stage2_proportional is None
                        else {
                            "proportional": o.stage2_proportional,
                            "detail": o.stage2_detail,
                        }
                    ),
                }
                for o in self.branch_log
            ],
            "surviving": {
                "choices": self.surviving_choices,
                "routeA": sm_dict(self.route_a),
                "routeB": sm_dict(self.route_b),
                "support_witness": self.support_witness,
                "eval_witness": self.eval_witness,
            },
        }


def _support_witness(ring: CertRing, a: Mat2, b: Mat2) -> Optional[dict]:
    """A variable present in a route entry and absent from the other route's.

    Entries are scanned row by row, route A before route B, variables in
    index order; the recorded monomial is the grlex-largest one of the
    entry that contains the variable, so the witness does not depend on
    the order in which the entry's terms are stored.
    """
    nb = ring.base_nvars
    names = ring.names[:nb]
    for r in range(2):
        for c in range(2):
            ea, eb = a[r, c], b[r, c]
            for route, pa, pb in (("A", ea, eb), ("B", eb, ea)):
                if pb.is_zero:
                    continue
                for v in sorted(pa.variables()):
                    if pb.degree_in(v) <= 0:
                        exps = next(e for e, _ in pa.sorted_terms() if e[v])
                        mono = format_poly(Poly(nb, {exps: 1}), names)
                        return {
                            "entry": [r, c],
                            "variable": names[v],
                            "monomial": mono,
                            "route": route,
                        }
    return None


def _eval_witness(ring: CertRing, a: Mat2, b: Mat2) -> Optional[dict]:
    """A rational point at which no scalar matches the two routes.

    The point is the lexicographically first one of {0..3}^(m+n-1) where
    some cross-difference a[e1]*b[e2] - a[e2]*b[e1]
    is nonzero; None if there is none.  The scan runs over {0..3}^k in lex
    order for the k base variables that occur in some route entry, every
    other coordinate at 0.  It finds the same point: a variable absent
    from every entry changes no cross-difference, so zeroing it in the
    first hit gives a hit no later in lex order, and that hit is scanned.
    Certificates have k = 3 (h_1, h_m, hb_1), so at most 64 points.
    """
    nb = ring.base_nvars
    cells = [(r, c) for r in range(2) for c in range(2)]
    entries = [mat[e] for mat in (a, b) for e in cells]
    scanned = sorted({v for p in entries for v in p.variables()})
    # the entries as polynomials in the scanned variables
    values = [None if v in scanned else 0 for v in range(nb)]
    sa, sb = ({e: mat[e].specialize(values) for e in cells} for mat in (a, b))
    for coords in itertools.product(range(4), repeat=len(scanned)):
        va, vb = ({e: p.evaluate(coords) for e, p in s.items()} for s in (sa, sb))
        # (e2, e1) fails exactly when (e1, e2) does, so ordered pairs add nothing
        for e1, e2 in itertools.combinations(cells, 2):
            lhs, rhs = va[e1] * vb[e2], va[e2] * vb[e1]
            if lhs != rhs:
                point = dict(zip(scanned, coords))
                return {
                    "point": {ring.names[v]: str(point.get(v, 0)) for v in range(nb)},
                    "entries": [list(e1), list(e2)],
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                }
    return None


def emptiness_certificate(m: int, n: int, graded: bool = False) -> EmptinessCertificate:
    """Replay the two-route contradiction and certify emptiness for (m, n).

    Enumerates all 16 branch combinations of the four pinned pairs; each
    must die, either because the two computations of E_{im} cannot be
    made equal by any choice of the free scalars, or because the two
    computations of E_{mi} are non-proportional.  Exactly one
    combination reaches the second stage; its routes and both
    non-proportionality witnesses go into the certificate.
    """
    if m < 2 or n < 2:
        raise EmptinessError("the emptiness theorem applies to m, n >= 2")
    ring = CertRing(m, n)
    mats = {
        (key, branch): _pair_matrices(ring, key, branch)
        for key in PAIR_KEYS
        for branch in BRANCHES
    }
    routes: dict[tuple[str, str, str, str], RouteView] = {}

    def route(target: str, choices: Mapping[str, str]) -> RouteView:
        first, second = ROUTES[target]
        key = (first, choices[first], second, choices[second])
        if key not in routes:
            row, col = ring.pair_positions(second)
            routes[key] = _route(
                ring,
                mats[first, choices[first]][0],
                ring.pair_positions(first),
                mats[second, choices[second]][1],
                (col, row),
            )
        return routes[key]

    log: list[BranchOutcome] = []
    survivors = []
    names = ring.names[: ring.base_nvars]
    for combo in itertools.product(BRANCHES, repeat=4):
        choices = dict(zip(PAIR_KEYS, combo))
        equal, witness, constraint = _routes_reconcilable(
            route("up1", choices), route("upn", choices)
        )
        if not equal:
            detail = {"reason": constraint} if witness is None else witness.to_dict(names)
            log.append(BranchOutcome(choices, False, detail, None, None))
            continue
        da, db = route("down1", choices), route("downn", choices)
        ok, _, w2 = _proportionality(da, db)
        detail2 = None if ok else w2.to_dict(names)
        log.append(BranchOutcome(choices, True, {"scalar_constraint": constraint}, ok, detail2))
        if ok:
            raise InvariantBreach(
                f"branch {choices} admits a consistent module; emptiness fails"
            )
        survivors.append((choices, da, db))
    if len(survivors) != 1:
        raise InvariantBreach(
            f"expected exactly one branch to reach the second stage, got {len(survivors)}"
        )
    choices, da, db = survivors[0]
    support = _support_witness(ring, da.mat, db.mat)
    point = _eval_witness(ring, da.mat, db.mat)
    if support is None or point is None:
        raise InvariantBreach("non-proportionality witnesses not found")
    return EmptinessCertificate(
        m=m,
        n=n,
        i=1,
        graded=graded,
        branch_log=tuple(log),
        surviving_choices=choices,
        route_a=da.file_form(),
        route_b=db.file_form(),
        support_witness=support,
        eval_witness=point,
    )


# -- re-verification -----------------------------------------------------------------------


# the presentation module's JSON field and key checkers, raising EmptinessError
_field = functools.partial(json_field, error=EmptinessError)
_keys = functools.partial(json_keys, error=EmptinessError)


def certificate_from_dict(data: Mapping) -> EmptinessCertificate:
    """Read a certificate; malformed data raises EmptinessError."""
    if not isinstance(data, Mapping):
        raise EmptinessError("certificate must be a JSON object")
    if data.get("format") != FORMAT_CERT:
        raise EmptinessError(
            f"format-version mismatch: expected {FORMAT_CERT}, got {data.get('format')!r}"
        )
    top = ("format", "m", "n", "i", "graded", "unit_names", "branch_log", "surviving")
    _keys(data, top, "certificate")
    m = _field(data, "m", int, "certificate")
    n = _field(data, "n", int, "certificate")
    if m < 2 or n < 2:
        raise EmptinessError("the emptiness theorem applies to m, n >= 2")
    units = _field(data, "unit_names", list, "certificate")
    if units != list(UNIT_NAMES):
        raise EmptinessError(f"certificate: unit_names must be {list(UNIT_NAMES)}, got {units}")
    names = CertRing(m, n).names

    def parse_sm(d: Mapping, where: str) -> ScaledMat:
        _keys(d, ("den", "mat"), where)
        mat = Mat2.from_strings(d.get("mat"), names, f"{where}.mat", EmptinessError)
        den = json_array(d.get("den"), 4, int, f"{where}.den", EmptinessError)
        return ScaledMat(mat, tuple(den))

    log = []
    for entry in _field(data, "branch_log", list, "certificate"):
        if not isinstance(entry, dict):
            raise EmptinessError("branch_log entries must be objects")
        _keys(entry, ("choices", "stage1", "stage2"), "branch_log entry")
        stage1 = _field(entry, "stage1", dict, "branch_log entry")
        _keys(stage1, ("equal", "detail"), "stage1")
        stage2 = entry.get("stage2")
        if stage2 is not None:
            if not isinstance(stage2, dict):
                raise EmptinessError("branch_log entry: stage2 must be an object or null")
            _keys(stage2, ("proportional", "detail"), "stage2")
        log.append(
            BranchOutcome(
                _field(entry, "choices", dict, "branch_log entry"),
                _field(stage1, "equal", bool, "stage1"),
                stage1.get("detail"),
                None if stage2 is None else _field(stage2, "proportional", bool, "stage2"),
                None if stage2 is None else stage2.get("detail"),
            )
        )
    surv = _field(data, "surviving", dict, "certificate")
    _keys(surv, ("choices", "routeA", "routeB", "support_witness", "eval_witness"), "surviving")
    return EmptinessCertificate(
        m=m,
        n=n,
        i=_field(data, "i", int, "certificate"),
        graded=_field(data, "graded", bool, "certificate"),
        branch_log=tuple(log),
        surviving_choices=_field(surv, "choices", dict, "surviving"),
        route_a=parse_sm(_field(surv, "routeA", dict, "surviving"), "routeA"),
        route_b=parse_sm(_field(surv, "routeB", dict, "surviving"), "routeB"),
        support_witness=_field(surv, "support_witness", dict, "surviving"),
        eval_witness=_field(surv, "eval_witness", dict, "surviving"),
    )


def certificate_from_json(text: str) -> EmptinessCertificate:
    return certificate_from_dict(load_json(text, EmptinessError))


def _eval_scaled(ring: CertRing, sm: ScaledMat, units: Sequence[Fraction]) -> Mat2:
    """Specialize the unit variables to concrete scalars, over the base ring."""
    values = [None] * ring.base_nvars + list(units)
    rows = tuple(tuple(p.specialize(values) for p in row) for row in sm.num.rows)
    return Mat2._of(rows) * prod(Fraction(u) ** -d for u, d in zip(units, sm.den))


def _presentation_at_units(
    ring: CertRing, choices: Mapping[str, str], units: Sequence[Fraction]
):
    """A plain presentation carrying the branch matrices at concrete scalars.

    Generators outside the four pinned pairs are filled with zeros; only
    the derived products along the pinned routes are meaningful.
    """
    m, n = ring.m, ring.n
    mats = {pos: Mat2.zero(ring.base_nvars) for pos in odd_positions(m, n)}
    for key in PAIR_KEYS:
        row, col = ring.pair_positions(key)
        up, lo = _pair_matrices(ring, key, choices[key])
        for pos, view in (((row, col), up), ((col, row), lo)):
            mats[pos] = view.mat * prod(u**d for u, d in zip(units, view.delta))
    return make_presentation(m, n, mats)


def verify_certificate(cert: EmptinessCertificate) -> list[str]:
    """Independently re-check a certificate; returns a report, raises on failure.

    Checks: a fresh replay produces the same branch outcomes and routes;
    every recorded failing identity still fails; the surviving routes
    agree with the presentation module's derive_even along both
    intermediates at two scalar specializations; and both
    non-proportionality witnesses hold.

    The recorded identities are checked as text.  Once the replay
    matches, each recorded lhs/rhs pair is format_poly of a fresh witness
    whose two sides differ as polynomials, and parse_poly(format_poly(p))
    == p, so two different texts name two different polynomials: an
    identity re-fails exactly when its lhs and rhs texts differ.
    """
    report = []
    fresh = emptiness_certificate(cert.m, cert.n, graded=cert.graded)
    # compared as JSON text, since 1, 1.0 and true are equal as Python values;
    # compact text, since indentation sends json to its slower pure-Python encoder
    recorded, replayed = (json.dumps(c.to_dict(), sort_keys=True) for c in (cert, fresh))
    if recorded != replayed:
        raise EmptinessError("certificate does not match a fresh replay")
    report.append(f"replayed all {len(cert.branch_log)} branch combinations")

    for outcome in cert.branch_log:
        for detail in (outcome.stage1_detail, outcome.stage2_detail):
            if detail and "lhs" in detail and detail["lhs"] == detail["rhs"]:
                raise EmptinessError(
                    f"recorded failing identity holds for {outcome.choices}"
                )
    report.append("all recorded branch-killing identities re-fail")

    ring = cert.ring()
    names = ring.names
    m, n = cert.m, cert.n
    b1, bn = m, m + n - 1
    for units in ((1, 1, 1, 1), (2, 3, 5, 7)):
        units = tuple(Fraction(u) for u in units)
        pres = _presentation_at_units(ring, cert.surviving_choices, units)
        via1 = derive_even(pres, m - 1, 0, via=b1)
        vian = derive_even(pres, m - 1, 0, via=bn)
        for recorded, recomputed in ((cert.route_a, via1), (cert.route_b, vian)):
            if _eval_scaled(ring, recorded, units) != recomputed:
                raise EmptinessError(
                    "recorded route disagrees with the independent derivation"
                )
    report.append("routes re-derived independently at two scalar specializations")

    # the routes' matrices over Q[h]: their file forms at the units 1
    da, db = (_eval_scaled(ring, route, (1, 1, 1, 1)) for route in (cert.route_a, cert.route_b))
    sw = cert.support_witness
    v = names.index(sw["variable"])
    r, c = sw["entry"]
    pa = da[r, c] if sw["route"] == "A" else db[r, c]
    pb = db[r, c] if sw["route"] == "A" else da[r, c]
    if pa.degree_in(v) <= 0 or pb.degree_in(v) > 0 or pb.is_zero:
        raise EmptinessError("support witness does not hold")
    report.append(
        f"support witness holds: {sw['monomial']} in route {sw['route']} "
        f"entry {tuple(sw['entry'])}, variable {sw['variable']} absent opposite"
    )

    ew = cert.eval_witness
    nb = ring.base_nvars
    point = [Fraction(ew["point"][names[k]]) for k in range(nb)]
    (r1, c1), (r2, c2) = ew["entries"]
    lhs = da[r1, c1].evaluate(point) * db[r2, c2].evaluate(point)
    rhs = da[r2, c2].evaluate(point) * db[r1, c1].evaluate(point)
    if lhs == rhs or str(lhs) != ew["lhs"] or str(rhs) != ew["rhs"]:
        raise EmptinessError("evaluation witness does not hold")
    report.append("evaluation witness holds: routes are non-proportional at a point")
    if cert.graded:
        report.append(
            "graded annotation: a graded rank-(1|1) object would be an "
            "ungraded rank-2 object, so the graded categories are empty too"
        )
    return report
