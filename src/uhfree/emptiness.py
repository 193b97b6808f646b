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
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Mapping, Optional, Sequence

from .poly import (
    Poly,
    ShiftMap,
    UhfreeError,
    default_names,
    format_poly,
    parse_poly,
)
from .presentation import (
    InvariantBreach,
    Mat2,
    derive_even,
    dump_json,
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


# -- the extended ring --------------------------------------------------------------


@dataclass(frozen=True)
class CertRing:
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
        return Poly.var(self.nvars, i)

    def unit(self, k: int) -> Poly:
        return Poly.var(self.nvars, self.base_nvars + k)

    def extend_shift(self, s: ShiftMap) -> ShiftMap:
        return ShiftMap(tuple(s.shifts) + (0, 0, 0, 0))

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
    """A 2x2 matrix num / (a1^d1 a2^d2 a3^d3 a4^d4) over the extended ring."""

    num: Mat2
    den: tuple[int, int, int, int]


@dataclass(frozen=True)
class RouteView:
    """A route split as alpha^delta * mat (delta may have negative entries)."""

    delta: tuple[int, ...]
    mat: Mat2


def _pair_matrices(ring: CertRing, key: str, branch: str) -> tuple[ScaledMat, ScaledMat]:
    """Action matrices (raising, lowering) of a pair in the chosen branch."""
    k = PAIR_KEYS.index(key)
    alpha = ring.unit(k)
    phi = ring.pair_scalar(key)
    nv = ring.nvars
    zero = Poly.zero(nv)
    one = Poly.one(nv)
    unit_den = tuple(1 if j == k else 0 for j in range(4))
    if branch == "S":
        upper = ScaledMat(Mat2._of(((zero, alpha * phi), (zero, zero))), (0, 0, 0, 0))
        lower = ScaledMat(Mat2._of(((zero, zero), (one, zero))), unit_den)
    elif branch == "O":
        upper = ScaledMat(Mat2._of(((zero, alpha), (zero, zero))), (0, 0, 0, 0))
        lower = ScaledMat(Mat2._of(((zero, zero), (phi, zero))), unit_den)
    else:
        raise EmptinessError(f"unknown branch {branch!r}")
    return upper, lower


def _split(ring: CertRing, sm: ScaledMat) -> tuple[ScaledMat, RouteView]:
    """sm in lowest terms, and its view alpha^delta * mat.

    The numerator must carry one unit monomial alpha^gamma throughout.
    With delta = gamma - den, the lowest-terms matrix has the unit
    exponents max(delta, 0) in its numerator and max(-delta, 0) in its
    denominator, and the view keeps the h-part with the units dropped.
    """
    base = ring.base_nvars
    gammas = {exps[base:] for row in sm.num.rows for p in row for exps in p._num}
    if len(gammas) > 1:
        raise InvariantBreach("route matrix mixes unit monomials")
    gamma = gammas.pop() if gammas else (0, 0, 0, 0)
    delta = tuple(g - d for g, d in zip(gamma, sm.den))

    def with_units(units: tuple[int, ...]) -> Mat2:
        # one unit monomial throughout, so replacing it keeps keys distinct
        def replaced(p: Poly) -> Poly:
            return Poly._of(
                p.nvars, {exps[:base] + units: n for exps, n in p._num.items()}, p._den
            )

        return Mat2._of(tuple(tuple(replaced(p) for p in row) for row in sm.num.rows))

    lowest = ScaledMat(
        with_units(tuple(max(d, 0) for d in delta)), tuple(max(-d, 0) for d in delta)
    )
    return lowest, RouteView(delta, with_units((0, 0, 0, 0)))


def _route(
    ring: CertRing,
    first: ScaledMat,
    first_pos: tuple[int, int],
    second: ScaledMat,
    second_pos: tuple[int, int],
) -> tuple[ScaledMat, RouteView]:
    """Twisted product E_first tau_first(E_second) + E_second tau_second(E_first)."""
    alg = algebra(ring.m, ring.n)
    tau1 = ring.extend_shift(alg.weight_shift(Root(*first_pos)))
    tau2 = ring.extend_shift(alg.weight_shift(Root(*second_pos)))
    num = first.num * second.num.shifted(tau1) + second.num * first.num.shifted(tau2)
    den = tuple(a + b for a, b in zip(first.den, second.den))
    return _split(ring, ScaledMat(num, den))


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
    if a.delta == b.delta and lam != 1:
        return False, None, f"forced ratio {lam} with no free scalar"
    constraint = None
    if a.delta != b.delta:
        constraint = _ratio_text(a.delta, b.delta, lam)
    return True, None, constraint


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


def _support_witness(ring: CertRing, a: RouteView, b: RouteView) -> Optional[dict]:
    """A variable present in a route entry and absent from the other route's.

    Entries are scanned row by row, route A before route B, variables in
    index order; the recorded monomial is the grlex-largest one of the
    entry that contains the variable, so the witness does not depend on
    the order in which the entry's terms are stored.
    """
    names = ring.names
    for r in range(2):
        for c in range(2):
            ea, eb = a.mat[r, c], b.mat[r, c]
            for route, pa, pb in (("A", ea, eb), ("B", eb, ea)):
                if pb.is_zero:
                    continue
                for v in sorted(pa.variables()):
                    if pb.degree_in(v) <= 0:
                        exps = next(e for e, _ in pa.sorted_terms() if e[v])
                        mono = format_poly(Poly(ring.nvars, {exps: 1}), names)
                        return {
                            "entry": [r, c],
                            "variable": names[v],
                            "monomial": mono,
                            "route": route,
                        }
    return None


def _eval_witness(ring: CertRing, a: RouteView, b: RouteView) -> Optional[dict]:
    """A rational point at which no scalar matches the two routes.

    The point is the lexicographically first one of {0..3}^(m+n-1), with
    the units at 1, where some cross-difference a[e1]*b[e2] - a[e2]*b[e1]
    is nonzero; None if there is none.  The scan runs over {0..3}^k in lex
    order for the k base variables that occur in some route entry, every
    other coordinate at 0.  It finds the same point: a variable absent
    from every entry changes no cross-difference, so zeroing it in the
    first hit gives a hit no later in lex order, and that hit is scanned.
    Certificates have k = 3 (h_1, h_m, hb_1), so at most 64 points.
    """
    nb = ring.base_nvars
    cells = [(r, c) for r in range(2) for c in range(2)]
    entries = [mat[e] for mat in (a.mat, b.mat) for e in cells]
    scanned = sorted({v for p in entries for v in p.variables() if v < nb})
    # the entries as polynomials in the scanned variables
    values = [None if v in scanned else 0 for v in range(nb)] + [1, 1, 1, 1]
    sa, sb = ({e: mat[e].specialize(values) for e in cells} for mat in (a.mat, b.mat))
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
    routes: dict[tuple[str, str, str, str], tuple[ScaledMat, RouteView]] = {}

    def route(target: str, choices: Mapping[str, str]) -> tuple[ScaledMat, RouteView]:
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
    names = ring.names
    for combo in itertools.product(BRANCHES, repeat=4):
        choices = dict(zip(PAIR_KEYS, combo))
        (_, va), (_, vb) = route("up1", choices), route("upn", choices)
        equal, witness, constraint = _routes_reconcilable(va, vb)
        if not equal:
            detail = (
                witness.to_dict(names)
                if witness is not None
                else {"reason": constraint}
            )
            log.append(BranchOutcome(choices, False, detail, None, None))
            continue
        (down1, da), (downn, db) = route("down1", choices), route("downn", choices)
        ok, _, w2 = _proportionality(da, db)
        detail2 = None if ok else w2.to_dict(names)
        log.append(
            BranchOutcome(
                choices,
                True,
                {"scalar_constraint": constraint},
                ok,
                detail2,
            )
        )
        if ok:
            raise InvariantBreach(
                f"branch {choices} admits a consistent module; emptiness fails"
            )
        survivors.append((choices, down1, downn, da, db))
    if len(survivors) != 1:
        raise InvariantBreach(
            f"expected exactly one branch to reach the second stage, got {len(survivors)}"
        )
    choices, route_a, route_b, da, db = survivors[0]
    support = _support_witness(ring, da, db)
    point = _eval_witness(ring, da, db)
    if support is None or point is None:
        raise InvariantBreach("non-proportionality witnesses not found")
    return EmptinessCertificate(
        m=m,
        n=n,
        i=1,
        graded=graded,
        branch_log=tuple(log),
        surviving_choices=choices,
        route_a=route_a,
        route_b=route_b,
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
    nb = ring.base_nvars
    mats = {pos: Mat2.zero(nb) for pos in odd_positions(m, n)}
    for key in PAIR_KEYS:
        up, lo = _pair_matrices(ring, key, choices[key])
        row, col = ring.pair_positions(key)
        mats[(row, col)] = _eval_scaled(ring, up, units)
        mats[(col, row)] = _eval_scaled(ring, lo, units)
    return make_presentation(m, n, mats)


def verify_certificate(cert: EmptinessCertificate) -> list[str]:
    """Independently re-check a certificate; returns a report, raises on failure.

    Checks: a fresh replay produces the same branch outcomes and routes;
    every recorded failing identity still fails; the surviving routes
    agree with the presentation module's derive_even along both
    intermediates at two scalar specializations; and both
    non-proportionality witnesses hold.
    """
    report = []
    fresh = emptiness_certificate(cert.m, cert.n, graded=cert.graded)
    # compared as JSON text, since 1, 1.0 and true are equal as Python values
    recorded, replayed = (dump_json(c.to_dict()) for c in (cert, fresh))
    if recorded != replayed:
        raise EmptinessError("certificate does not match a fresh replay")
    report.append(f"replayed all {len(cert.branch_log)} branch combinations")

    ring = cert.ring()
    names = ring.names
    for outcome in cert.branch_log:
        for detail in (outcome.stage1_detail, outcome.stage2_detail):
            if detail and "lhs" in detail:
                lhs = parse_poly(detail["lhs"], names)
                rhs = parse_poly(detail["rhs"], names)
                if lhs == rhs:
                    raise EmptinessError(
                        f"recorded failing identity holds for {outcome.choices}"
                    )
    report.append("all recorded branch-killing identities re-fail")

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

    (_, da), (_, db) = _split(ring, cert.route_a), _split(ring, cert.route_b)
    sw = cert.support_witness
    v = names.index(sw["variable"])
    r, c = sw["entry"]
    pa = da.mat[r, c] if sw["route"] == "A" else db.mat[r, c]
    pb = db.mat[r, c] if sw["route"] == "A" else da.mat[r, c]
    if pa.degree_in(v) <= 0 or pb.degree_in(v) > 0 or pb.is_zero:
        raise EmptinessError("support witness does not hold")
    report.append(
        f"support witness holds: {sw['monomial']} in route {sw['route']} "
        f"entry {tuple(sw['entry'])}, variable {sw['variable']} absent opposite"
    )

    ew = cert.eval_witness
    nb = ring.base_nvars
    point = [Fraction(ew["point"][names[k]]) for k in range(nb)] + [Fraction(1)] * 4
    (r1, c1), (r2, c2) = ew["entries"]
    lhs = da.mat[r1, c1].evaluate(point) * db.mat[r2, c2].evaluate(point)
    rhs = da.mat[r2, c2].evaluate(point) * db.mat[r1, c1].evaluate(point)
    if lhs == rhs or str(lhs) != ew["lhs"] or str(rhs) != ew["rhs"]:
        raise EmptinessError("evaluation witness does not hold")
    report.append("evaluation witness holds: routes are non-proportional at a point")
    if cert.graded:
        report.append(
            "graded annotation: a graded rank-(1|1) object would be an "
            "ungraded rank-2 object, so the graded categories are empty too"
        )
    return report
