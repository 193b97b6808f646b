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
point, and the surviving combination's routes are re-derived by
`mat2.twisted_bracket`, independently of `_route`.

Every matrix is computed as a unit monomial a^delta times a matrix over
Q[h] (RouteView); the units are variables only in the file form (ScaledMat).

Each route depends on the branches of two pairs only (the route through
b1 on i1 and m1, the route through bn on in and mn; see ROUTES), so the
enumeration is built from one branch table: the 8 (pair, branch) matrix
pairs, built once, and each route, built on first use under its two
pairs and their branches.  The support witness names the first entry
(row by row, route A before route B) and variable (in index order) that
separates the routes, with the grlex-largest monomial of that entry
containing the variable; term storage order never enters a certificate.

The enumeration runs once per process, over sl(2|2) (`_universal`), and
the certificate for (m, n) is its image under the variable embedding
h1 -> h_1, h2 -> h_m, hb1 -> hb_1, a_k -> a_k.

Reduction lemma.  Every polynomial of the computation at (m, n) lies in
Q[h_1, h_m, hb_1]: the pair polynomials above do, products and sums keep
the subring, and so do weight shifts, since h_v -> h_v - s_v moves each
variable by a constant.  A shift therefore acts on such a polynomial only
through its coordinates at h_1, h_m and hb_1.  The embedding is monotone
(0 -> 0, 1 -> m-1, 2 -> m, units -> m+n-1..m+n+2), so it keeps the
variable index order and the grlex order of monomials, hence leading
terms, `variables()`, `sorted_terms()` and the printed text (the text
clause).  If the 4
pair polynomials at (m, n) are the embedded sl(2|2) ones and the 8 pinned
roots' shifts read at (h_1, h_m, hb_1) are the sl(2|2) shifts, every
step of the computation at (m, n) (pair matrices, routes, cross
products, proportionality, both witness scans) is the image of the
sl(2|2) step, so its certificate, text and witnesses included, is the
image of the sl(2|2) one; the evaluation point's other coordinates are
0, as in the lex-first scan.  `_check_reduction` checks both hypotheses
at a size in O(m + n), once per size per process, and raises
InvariantBreach if one fails.  Verification still re-derives the routes
at the real (m, n) through `mat2.twisted_bracket`, independently of the
lemma.

So no polynomial is built at (m, n): by the text clause, an embedded
polynomial prints as its sl(2|2) text with the names (h1, h{m}, hb1).
`_universal` prints the sl(2|2) texts once per process with h2 named
SLOT, `_rendered` fills the slot with "h{m}" once per size, after the
reduction check, and `emptiness_certificate` reads that text into fresh
dicts and pads the evaluation point with "0".

One text per certificate: its file form, `dump_json(cert.to_dict())`,
the bytes `empty-check --out` writes.  `_replay` builds each (m, n,
graded) record once per process, whole, from one fresh certificate that
it then drops: the file form, the report of the verification checks,
which depend on the size only (see `verify_certificate`) and so run on
the fresh certificate, and the `empty-check` report.  So `empty-check`
writes only a certificate that has passed the checks.  `verify_text`
compares a file's text with the kept form before it parses anything: it
reads (m, n, graded) off the text's top-level header lines, which every
file form has, and compares the text with that size's kept form.  Equal
text parses to the fresh certificate, so it gets the kept report; any
other file is parsed as JSON and its file form compared with the kept
one.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from fractions import Fraction
from math import prod
from typing import Mapping, NamedTuple, Optional, Sequence

from .poly import (
    Poly,
    UhfreeError,
    default_names,
    format_poly,
)
from .mat2 import (
    InvariantBreach,
    Mat2,
    dump_json,
    json_array,
    json_field,
    json_keys,
    load_json,
    twisted_bracket,
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


class CertificateRejected(EmptinessError):
    """A well-formed certificate that fails re-verification."""


# m + n of a certificate.  The file ring has m + n + 3 variables, the
# evaluation point names m + n - 1 of them and the re-derivation shifts
# in all of them, so time and file size grow with m + n.
SIZE_BUDGET = 20_000


def check_size(m: int, n: int) -> None:
    """Refuse sizes outside the theorem (m, n >= 2) and m + n over SIZE_BUDGET."""
    if m < 2 or n < 2:
        raise EmptinessError("the emptiness theorem applies to m, n >= 2")
    if m + n > SIZE_BUDGET:
        # the sum is not printed: it may have more digits than str() allows
        raise EmptinessError(f"m + n is over the budget of {SIZE_BUDGET}")


# -- the ring and the route form --------------------------------------------------


class CertRing(NamedTuple):
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
        """The pair's [e_IJ, e_JI], an element of h, as a polynomial in the base variables."""
        row, col = self.pair_positions(key)
        combo = algebra(self.m, self.n).super_bracket(Root(row, col), Root(col, row))
        return sum((self.hvar(b.var) * c for b, c in combo.items()), Poly.zero(self.base_nvars))


class ScaledMat(NamedTuple):
    """The file form of a route: num / (a1^d1 a2^d2 a3^d3 a4^d4), num over Q[h, a].

    It holds num's entries as text over `names`, and `num` parses them.
    """

    text: tuple[tuple[str, str], tuple[str, str]]
    den: tuple[int, int, int, int]
    names: tuple[str, ...]

    @property
    def num(self) -> Mat2:
        rows = [list(row) for row in self.text]
        return Mat2.from_strings(rows, self.names, "route", EmptinessError)

    @classmethod
    def of(cls, num: Mat2, den: tuple[int, int, int, int], names: tuple[str, ...]) -> ScaledMat:
        """The form of polynomial entries: their canonical text."""
        return cls(tuple(map(tuple, num.to_strings(names))), den, names)

    def to_dict(self) -> dict:
        return {"den": list(self.den), "mat": [list(row) for row in self.text]}


class RouteView(NamedTuple):
    """The matrix a1^d1 a2^d2 a3^d3 a4^d4 * mat, with mat over Q[h].

    Routes lose nothing in this form.  A pair matrix is a^(+-e_k) times a
    matrix over Q[h].  Weight shifts act on h only and fix a1..a4, so both
    terms of a twisted product E_x tau_x(E_y) + E_y tau_y(E_x) carry the
    one unit monomial a^(delta_x + delta_y).
    """

    delta: tuple[int, ...]
    mat: Mat2

    def file_form(self, names: tuple[str, ...]) -> ScaledMat:
        """a^max(delta, 0) * mat over Q[h, a], over the denominator a^max(-delta, 0)."""
        units = tuple(max(d, 0) for d in self.delta)

        def lift(p: Poly) -> Poly:
            terms = {exps + units: c for exps, c in p.terms.items()}
            return Poly(p.nvars + len(units), terms)

        num = Mat2._of(tuple(tuple(lift(p) for p in row) for row in self.mat.rows))
        return ScaledMat.of(num, tuple(max(-d, 0) for d in self.delta), names)


def _pair_matrices(ring: CertRing, key: str, branch: str) -> tuple[RouteView, RouteView]:
    """Action matrices (raising, lowering) of a pair in the chosen branch:
    a_k [[0, x], [0, 0]] and a_k^-1 [[0, 0], [y, 0]], with (x, y) = (phi, 1)
    in branch S and (1, phi) in branch O."""
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


def _mismatch(names: Sequence[str], entries, lhs: Poly, rhs: Poly) -> dict:
    """A cross-product identity lhs == rhs that fails, as the certificate records it."""
    return {
        "entries": [list(e) for e in entries],
        "lhs": format_poly(lhs, names),
        "rhs": format_poly(rhs, names),
    }


def _proportionality(
    names: Sequence[str], a: RouteView, b: RouteView
) -> tuple[bool, Optional[Fraction], Optional[dict]]:
    """Is mat_a = lambda * mat_b for some rational lambda != 0?

    If not, the third item is a failing cross-product identity, written
    over names.
    """
    cells = [(r, c) for r in range(2) for c in range(2)]
    for e1, e2 in itertools.combinations(cells, 2):
        lhs, rhs = a.mat[e1] * b.mat[e2], a.mat[e2] * b.mat[e1]
        if lhs != rhs:
            return False, None, _mismatch(names, (e1, e2), lhs, rhs)
    for e in cells:
        if a.mat[e].is_zero != b.mat[e].is_zero:
            return False, None, _mismatch(names, (e, e), a.mat[e], b.mat[e])
    lam = None
    for r, c in cells:
        if not b.mat[r, c].is_zero:
            lam = a.mat[r, c].leading_coeff() / b.mat[r, c].leading_coeff()
            break
    return True, lam, None


def _routes_reconcilable(
    names: Sequence[str], a: RouteView, b: RouteView
) -> tuple[Optional[dict], Optional[str]]:
    """Can scalars make the two routes of E_{im} literally equal?

    They can exactly when mat_a = lambda mat_b.  Returns a failing
    cross-product identity, written over names, and None if not, else
    None and the scalar constraint a^(delta_a - delta_b) = lambda.
    """
    ok, lam, witness = _proportionality(names, a, b)
    if not ok:
        return witness, None
    # ROUTES gives up1 and upn the unit deltas e1 - e2 and e3 - e4, which always
    # differ, so the free scalars realize any ratio
    return None, _ratio_text(a.delta, b.delta, lam)


def _ratio_text(da, db, lam) -> str:
    parts = []
    for k in range(4):
        e = da[k] - db[k]
        if e:
            parts.append(f"{UNIT_NAMES[k]}^{e}" if e != 1 else UNIT_NAMES[k])
    return f"{'*'.join(parts)} = {lam}"


# -- certificates ------------------------------------------------------------------------


class EmptinessCertificate(NamedTuple):
    """A certificate; a branch_log entry is its dict in the file, {"choices",
    "stage1": {"equal", "detail"}, "stage2": {"proportional", "detail"} or None}."""

    m: int
    n: int
    i: int
    graded: bool
    branch_log: tuple[dict, ...]
    surviving_choices: dict
    route_a: ScaledMat
    route_b: ScaledMat
    support_witness: dict
    eval_witness: dict

    def ring(self) -> CertRing:
        return CertRing(self.m, self.n)

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_CERT,
            "m": self.m,
            "n": self.n,
            "i": self.i,
            "graded": self.graded,
            "unit_names": list(UNIT_NAMES),
            "branch_log": list(self.branch_log),
            "surviving": {
                "choices": self.surviving_choices,
                "routeA": self.route_a.to_dict(),
                "routeB": self.route_b.to_dict(),
                "support_witness": self.support_witness,
                "eval_witness": self.eval_witness,
            },
        }


def _support_witness(names: Sequence[str], a: Mat2, b: Mat2) -> Optional[dict]:
    """A variable present in a route entry and absent from the other route's.

    Entries are scanned row by row, route A before route B, variables in
    index order; the recorded monomial is the grlex-largest one of the
    entry that contains the variable, so the witness does not depend on
    the order in which the entry's terms are stored.  Returns the
    certificate's dict over names, the base variables' names, or None.
    """
    for r in range(2):
        for c in range(2):
            ea, eb = a[r, c], b[r, c]
            for route, pa, pb in (("A", ea, eb), ("B", eb, ea)):
                if pb.is_zero:
                    continue
                for v in sorted(pa.variables()):
                    if pb.degree_in(v) <= 0:
                        exps = next(e for e, _ in pa.sorted_terms() if e[v])
                        return {
                            "entry": [r, c],
                            "variable": names[v],
                            "monomial": format_poly(Poly(len(names), {exps: 1}), names),
                            "route": route,
                        }
    return None


def _eval_witness(names: Sequence[str], a: Mat2, b: Mat2) -> Optional[dict]:
    """A rational point at which no scalar matches the two routes.

    The point is the lexicographically first one of {0..3}^(m+n-1) where
    some cross-difference a[e1]*b[e2] - a[e2]*b[e1]
    is nonzero; None if there is none.  The scan runs over {0..3}^k in lex
    order for the k base variables that occur in some route entry, every
    other coordinate at 0.  It finds the same point: a variable absent
    from every entry changes no cross-difference, so zeroing it in the
    first hit gives a hit no later in lex order, and that hit is scanned.
    Certificates have k = 3 (h_1, h_m, hb_1), so at most 64 points.
    Returns the certificate's dict over names, the base variables' names:
    the point, the entry pair and both sides.
    """
    nb = len(names)
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
                    "point": {name: str(point.get(v, 0)) for v, name in enumerate(names)},
                    "entries": [list(e1), list(e2)],
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                }
    return None


# -- the sl(2|2) computation and its image at (m, n) -----------------------------------


# the ring of the one computation: h1, h2, hb1, then a1..a4
UNIVERSAL = CertRing(2, 2)

# h_m's name in the sl(2|2) texts: a character no polynomial text contains,
# so filling it in touches nothing else, where replacing a name's text could
# also hit a longer name that starts with it, as h10 starts with h1
SLOT = "@"
SLOT_NAMES = ("h1", SLOT, "hb1") + UNIT_NAMES


@functools.cache
def _universal() -> str:
    """Enumerate the 16 branch combinations once per process, in UNIVERSAL.

    Each must die, either because the two computations of E_{im} cannot
    be made equal by any choice of the free scalars, or because the two
    computations of E_{mi} are non-proportional.  Exactly one combination
    reaches the second stage; its routes and both non-proportionality
    witnesses go into the certificate.

    Returns the sl(2|2) certificate's branch log (its entries as the
    certificate file writes them), surviving choices, routes A and B, and
    support and evaluation witnesses as one JSON text, written over
    SLOT_NAMES; the evaluation point names the three base variables only.
    """
    ring = UNIVERSAL
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

    base = SLOT_NAMES[: ring.base_nvars]
    log: list[dict] = []
    survivors = []
    for combo in itertools.product(BRANCHES, repeat=4):
        choices = dict(zip(PAIR_KEYS, combo))
        witness, constraint = _routes_reconcilable(
            base, route("up1", choices), route("upn", choices)
        )
        if witness is not None:
            stage1 = {"equal": False, "detail": witness}
            log.append({"choices": choices, "stage1": stage1, "stage2": None})
            continue
        da, db = route("down1", choices), route("downn", choices)
        ok, _, detail = _proportionality(base, da, db)
        log.append(
            {
                "choices": choices,
                "stage1": {"equal": True, "detail": {"scalar_constraint": constraint}},
                "stage2": {"proportional": ok, "detail": detail},
            }
        )
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
    support = _support_witness(base, da.mat, db.mat)
    point = _eval_witness(base, da.mat, db.mat)
    if support is None or point is None:
        raise InvariantBreach("non-proportionality witnesses not found")
    forms = [view.file_form(SLOT_NAMES).to_dict() for view in (da, db)]
    return json.dumps([log, choices, *forms, support, point])


def _pinned_roots(ring: CertRing, key: str) -> tuple[Root, Root]:
    """The pair's raising and lowering root vectors."""
    row, col = ring.pair_positions(key)
    return Root(row, col), Root(col, row)


def _check_reduction(ring: CertRing) -> None:
    """The reduction lemma's hypotheses at (m, n), in O(m + n).

    The 4 pair scalars print as UNIVERSAL's with the slot filled, so by
    the text clause they are the embedded ones, and the weight shifts of
    the 8 pinned roots, read at h_1, h_m and hb_1, are UNIVERSAL's.
    """
    m, n = ring.m, ring.n
    names, base = ring.names[: ring.base_nvars], SLOT_NAMES[: UNIVERSAL.base_nvars]
    alg, small = algebra(m, n), algebra(UNIVERSAL.m, UNIVERSAL.n)
    for key in PAIR_KEYS:
        text = format_poly(UNIVERSAL.pair_scalar(key), base).replace(SLOT, f"h{m}")
        if format_poly(ring.pair_scalar(key), names) != text:
            raise InvariantBreach(f"pair {key} of sl({m}|{n}) is not the sl(2|2) one")
        for root, image in zip(_pinned_roots(ring, key), _pinned_roots(UNIVERSAL, key)):
            shift = alg.weight_shift(root)
            if (shift[0], shift[m - 1], shift[m]) != small.weight_shift(image):
                raise InvariantBreach(
                    f"root {alg.show(root)} of sl({m}|{n}) shifts h_1, h_m, hb_1 "
                    "unlike its sl(2|2) image"
                )


# bounded like superlie.algebra; the `emptiness` workload uses 36 sizes
@functools.lru_cache(maxsize=64)
def _rendered(m: int, n: int) -> str:
    """`_universal()`'s text with SLOT filled by h_m's name, once the
    reduction lemma's hypotheses have been checked at (m, n)."""
    _check_reduction(CertRing(m, n))
    return _universal().replace(SLOT, f"h{m}")


def emptiness_certificate(m: int, n: int, graded: bool = False) -> EmptinessCertificate:
    """The certificate for (m, n): the sl(2|2) texts with SLOT filled by h_m's name.

    Every dict of the result is fresh, so a caller that edits one leaves
    the next certificate unchanged.
    """
    check_size(m, n)
    # json.loads makes every dict fresh
    log, choices, route_a, route_b, support, point = json.loads(_rendered(m, n))
    ring = CertRing(m, n)
    names = ring.names

    def route(form: dict) -> ScaledMat:
        return ScaledMat(tuple(map(tuple, form["mat"])), tuple(form["den"]), names)

    # the coordinates of the base variables the sl(2|2) point does not name are 0
    point["point"] = dict.fromkeys(names[: ring.base_nvars], "0") | point["point"]
    return EmptinessCertificate(
        m=m,
        n=n,
        i=1,
        graded=graded,
        branch_log=tuple(log),
        surviving_choices=choices,
        route_a=route(route_a),
        route_b=route(route_b),
        support_witness=support,
        eval_witness=point,
    )


def _generation_lines(cert: EmptinessCertificate) -> list[str]:
    """`empty-check`'s report of a generated certificate."""
    lines = [
        f"category of rank-2 modules over sl({cert.m}|{cert.n}) is empty",
        f"branch combinations examined: {len(cert.branch_log)}; "
        f"surviving to the final contradiction: 1",
        f"surviving branch: {json.dumps(cert.surviving_choices, sort_keys=True)}",
    ]
    for via, route in (("b1", cert.route_a), ("bn", cert.route_b)):
        lines.append(f"route through {via}:")
        lines.extend("    " + str(r) for r in route.to_dict()["mat"])
        lines.append(f"  divided by unit monomial exponents {list(route.den)}")
    lines.append(
        f"support witness: {cert.support_witness['monomial']} "
        f"(variable {cert.support_witness['variable']})"
    )
    lines.append("branch log:")
    for entry in cert.branch_log:
        choices = json.dumps(entry["choices"], sort_keys=True)
        if not entry["stage1"]["equal"]:
            lines.append(f"  {choices}: routes for the raising even matrix differ")
        else:
            lines.append(
                f"  {choices}: survives to the lowering even matrix, "
                "whose two routes are non-proportional"
            )
    if cert.graded:
        lines.append("graded categories annotated empty as well")
    return lines


def certificate_text(m: int, n: int, graded: bool = False) -> tuple[str, list[str]]:
    """The file form of the (m, n, graded) certificate and `empty-check`'s
    report of it, both kept by `_replay`, which raises CertificateRejected
    if the certificate fails the verification checks."""
    form, _, lines = _replay(m, n, graded)
    return form, list(lines)


# -- re-verification -----------------------------------------------------------------------


# mat2's JSON field and key checkers, raising EmptinessError
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
    check_size(m, n)
    units = _field(data, "unit_names", list, "certificate")
    if units != list(UNIT_NAMES):
        raise EmptinessError(f"certificate: unit_names must be {list(UNIT_NAMES)}, got {units}")
    names = CertRing(m, n).names

    def parse_sm(d: Mapping, where: str) -> ScaledMat:
        _keys(d, ("den", "mat"), where)
        mat = Mat2.from_strings(d.get("mat"), names, f"{where}.mat", EmptinessError)
        den = json_array(d.get("den"), 4, int, f"{where}.den", EmptinessError)
        return ScaledMat.of(mat, tuple(den), names)

    # a missing stage2 or detail is read as null, as the file writes it
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
            {
                "choices": _field(entry, "choices", dict, "branch_log entry"),
                "stage1": {
                    "equal": _field(stage1, "equal", bool, "stage1"),
                    "detail": stage1.get("detail"),
                },
                "stage2": None
                if stage2 is None
                else {
                    "proportional": _field(stage2, "proportional", bool, "stage2"),
                    "detail": stage2.get("detail"),
                },
            }
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


def _eval_scaled(ring: CertRing, num: Mat2, den: Sequence[int], units: Sequence[Fraction]) -> Mat2:
    """The file form num / a^den, num parsed, at the given units, over the base ring."""
    values = [None] * ring.base_nvars + list(units)
    rows = tuple(tuple(p.specialize(values) for p in row) for row in num.rows)
    return _scaled(Mat2._of(rows), units, [-d for d in den])


def _scaled(mat: Mat2, units: Sequence[Fraction], delta: Sequence[int]) -> Mat2:
    """mat times the unit monomial a^delta at the given units."""
    num = prod(u**d for u, d in zip(units, delta) if d > 0)
    den = prod(u**-d for u, d in zip(units, delta) if d < 0)
    return mat if num == den else mat * Fraction(num, den)


def _canonical(cert: EmptinessCertificate) -> Optional[str]:
    # The file form.  JSON text, since 1, 1.0 and true are equal as Python
    # values; dump_json sorts keys, and a parsed certificate's to_dict
    # re-prints its routes, so key order, layout and non-canonical route
    # text of the same polynomials do not count.  dump_json writes no
    # float, and no certificate holds one: such a file has no file form
    # (None) and matches no replay.
    try:
        return dump_json(cert.to_dict())
    except TypeError:
        return None


# the `emptiness` workload uses 72 keys
@functools.lru_cache(maxsize=128)
def _replay(m: int, n: int, graded: bool) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """The (m, n, graded) record, built whole from one fresh certificate,
    which it does not keep: the file form, the report of the checks
    after the file-form comparison (`verify_certificate`) and
    `empty-check`'s report.  A certificate that fails the checks raises
    CertificateRejected, and no record is kept."""
    cert = emptiness_certificate(m, n, graded=graded)
    return _canonical(cert), tuple(_size_checks(cert)), tuple(_generation_lines(cert))


# The top-level graded, i, m and n lines of a file form.  dump_json sorts
# keys and indents nested lines deeper, and a JSON string holds no raw
# newline, so in a file form these lines follow one another and their
# first match is the top-level one.  At most 5 digits: m + n <= SIZE_BUDGET.
_HEADER = re.compile(
    r'\n  "graded": (true|false),\n  "i": [^\n]*\n  "m": ([0-9]{1,5}),\n  "n": ([0-9]{1,5}),\n'
)


def _header_key(text: str) -> Optional[tuple[int, int, bool]]:
    """(m, n, graded) from a text's header lines, if it has them and the
    size is in scope (`check_size`), else None; nothing here raises."""
    header = _HEADER.search(text)
    if header is None:
        return None
    graded, m, n = header[1] == "true", int(header[2]), int(header[3])
    try:
        check_size(m, n)
    except EmptinessError:
        return None
    return m, n, graded


def verify_text(text: str) -> tuple[int, int, list[str]]:
    """Re-verify a certificate file's text; returns its m, n and report.

    Malformed text raises EmptinessError, with `certificate_from_dict`'s
    messages; a well-formed certificate that fails raises
    CertificateRejected.  Three steps: the size is read off the text's
    header lines (`_HEADER`, then `check_size`); a text equal to that
    size's kept file form gets the kept report without being parsed, as
    it is the fresh certificate's text; any other text, and one without
    such lines or out of scope, is parsed and goes through
    `verify_certificate`.  A file form of (m, n, graded) reads as (m, n,
    graded) in the first step, so every text equal to a kept form takes
    the second.  A malformed text whose header lines read as a size in
    scope builds that size's record before the parse refuses it.
    """
    key = _header_key(text)
    if key is not None:
        form, report, _ = _replay(*key)
        if text == form:
            return key[0], key[1], list(report)
    cert = certificate_from_dict(load_json(text, EmptinessError))
    return cert.m, cert.n, verify_certificate(cert)


def verify_certificate(cert: EmptinessCertificate) -> list[str]:
    """Independently re-check a certificate; returns a report, raises
    CertificateRejected on failure.

    Per certificate: its file form must equal that of a fresh replay,
    the sl(2|2) computation rendered at (m, n), with the reduction
    lemma's hypotheses checked there.  Per (m, n, graded), once per
    process (`_size_checks`): every recorded failing identity still
    fails; the surviving routes agree with `mat2.twisted_bracket` of the
    pinned matrices at the real (m, n), through b1 and through bn at two
    scalar specializations; and both non-proportionality witnesses hold
    at (m, n).  The re-derivation writes the twisted product apart from
    the generator's `_route` and does not use the lemma, so it catches a
    generator whose replay agrees with itself but whose routes are wrong.

    The checks read the certificate's branch log, choices, witness dicts
    and parsed routes.  Once the file forms match, each of these equals
    the replay's: a route's text is format_poly of its matrix, and
    parse_poly(format_poly(p)) == p.  So the checks give a matching
    certificate the outcome and report they give the fresh one, and
    `_replay` runs them on the fresh certificate when it builds the
    record.
    """
    form, report, _ = _replay(cert.m, cert.n, cert.graded)
    if _canonical(cert) != form:
        raise CertificateRejected("certificate does not match a fresh replay")
    return list(report)


def _size_checks(cert: EmptinessCertificate) -> list[str]:
    """The checks after the file-form comparison, and their report.

    The recorded identities are checked as text.  Once the replay
    matches, each recorded lhs/rhs pair is format_poly of a fresh witness
    whose two sides differ as polynomials, and parse_poly(format_poly(p))
    == p, so two different texts name two different polynomials: an
    identity re-fails exactly when its lhs and rhs texts differ.
    """
    report = [f"replayed all {len(cert.branch_log)} branch combinations"]
    for entry in cert.branch_log:
        for stage in (entry["stage1"], entry["stage2"]):
            detail = stage and stage["detail"]
            if detail and "lhs" in detail and detail["lhs"] == detail["rhs"]:
                raise CertificateRejected(f"recorded failing identity holds for {entry['choices']}")
    report.append("all recorded branch-killing identities re-fail")

    ring = cert.ring()
    names = ring.names
    m, n = cert.m, cert.n
    alg = algebra(m, n)
    # the pinned generators in the chosen branches, built once and scaled per specialization
    pinned = {}
    for key in PAIR_KEYS:
        views = _pair_matrices(ring, key, cert.surviving_choices[key])
        pinned.update(zip(_pinned_roots(ring, key), views))
    # E_{mi} through b1 (route A) and through bn (route B), each parsed once
    recorded = ((cert.route_a, m), (cert.route_b, m + n - 1))
    parsed = [(route.num, route.den, via) for route, via in recorded]
    at_one = []
    for units in ((1, 1, 1, 1), (2, 3, 5, 7)):
        for num, den, via in parsed:
            x, y = Root(m - 1, via), Root(via, 0)
            ex, ey = (_scaled(pinned[r].mat, units, pinned[r].delta) for r in (x, y))
            value = _eval_scaled(ring, num, den, units)
            if value != twisted_bracket(alg, x, ex, y, ey):
                raise CertificateRejected(
                    "recorded route disagrees with the independent derivation"
                )
            at_one.append(value)
    report.append("routes re-derived independently at two scalar specializations")

    # the routes' matrices over Q[h]: their file forms at the units 1
    da, db = at_one[:2]
    sw = cert.support_witness
    v = names.index(sw["variable"])
    r, c = sw["entry"]
    pa = da[r, c] if sw["route"] == "A" else db[r, c]
    pb = db[r, c] if sw["route"] == "A" else da[r, c]
    if pa.degree_in(v) <= 0 or pb.degree_in(v) > 0 or pb.is_zero:
        raise CertificateRejected("support witness does not hold")
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
        raise CertificateRejected("evaluation witness does not hold")
    report.append("evaluation witness holds: routes are non-proportional at a point")
    if cert.graded:
        report.append(
            "graded annotation: a graded rank-(1|1) object would be an "
            "ungraded rank-2 object, so the graded categories are empty too"
        )
    return report
