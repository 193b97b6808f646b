"""Homomorphisms, isomorphism testing, endomorphism rings, submodules.

A module map between rank-2 presentations is multiplication by a 2x2
polynomial matrix W subject to, for every odd generator g,

    W * E_g^src = (+/-) E_g^dst * tau_g(W),

with sign +1 for even maps and -1 for odd maps of graded modules.
`solve_hom` turns these identities into an exact linear system over the
unknown coefficients of W and returns a basis of solutions.  The
unknown h^mu at entry (r, c) of W enters the identity of g through two
blocks only, h^mu E_g^src[c, .] in row r and E_g^dst[., r] tau_g(h^mu)
in column c, so `_hom_rows` forms just those products and reads them
as integer rows (`poly.integer_rows`).  `_nullspace` takes those rows
as they are, eliminates them fraction-free, and divides only when it
writes the basis.  Every solution is then re-verified by
`check_intertwiner`, which multiplies whole matrices and shares no code
with that assembly.

Categories are the three of interest throughout:

    "M2"      ungraded modules, all W;
    "M11"     graded modules, graded maps: even (diagonal, unsigned)
              plus odd (antidiagonal, signed);
    "M11even" graded modules, even maps only.

Endomorphisms and submodules of a classified sl(m|1) presentation p
both come from one diagonal D_F = diag(F(c + d), F(c)), with
c = h_1 + ... + h_m, F univariate and d fixed by the family: with W the
classification witness of p, the endomorphisms are W D_F W^{-1} and the
submodules W image(D_F), each passed as its polynomial F, giving
strictly decreasing filtrations of any prescribed finite length.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Mapping, NamedTuple, Optional, Sequence

from .poly import (
    Poly,
    UhfreeError,
    apply_shift,
    compose_univariate,
    divides_exactly,
    integer_rows,
    monomials,
)
from .mat2 import InvariantBreach, Mat2
from .presentation import Presentation
from .normalform import classified_sl_m1
from .superlie import Root


class MorphismError(UhfreeError):
    """Incompatible presentations or invalid solver arguments."""


# -- exact linear algebra ----------------------------------------------------------


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The nonzero integer row over the gcd of its entries, positive at its leftmost column."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _eliminate(target: dict[int, int], p: int, row: dict[int, int]) -> dict[int, int]:
    """a * target - b * row with a > 0 as small as possible, so that column p drops out.

    row[p] > 0; a and b are row[p] and target[p] over their gcd.
    """
    a, b = row[p], target[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {c: a * x for c, x in target.items()} if a != 1 else dict(target)
    for c, x in row.items():
        y = out.get(c, 0) - b * x
        if y:
            out[c] = y
        else:
            del out[c]
    return out


def _nullspace(rows: Sequence[Mapping[int, int]], ncols: int) -> list[list[Fraction]]:
    """Basis of the solution space of a homogeneous system over Q.

    Fraction-free Gauss-Jordan on the sparse rows, one row at a time.
    Each given row is nonempty with nonzero int entries, as
    `poly.integer_rows` writes it; it is made primitive, and a row seen
    before is skipped.  `rref` maps each pivot column to a primitive
    integer row, positive at its pivot and 0 at every other pivot, that
    is a multiple of its row of the reduced row echelon form.  A new row
    is reduced against it by integer combinations (`_eliminate`), pivots
    at its leftmost column and is eliminated from the older rows, each
    made primitive again.  The RREF does not depend on row order, so
    neither does the basis, and division happens only there: 1 at each
    free column f and -rref[p][f] / rref[p][p] at each pivot p.
    """
    rref: dict[int, dict[int, int]] = {}
    seen = set()
    for given in rows:
        row = _primitive(given)
        key = frozenset(row.items())
        if key in seen:
            continue
        seen.add(key)
        for p in [c for c in row if c in rref]:
            row = _eliminate(row, p, rref[p])
        if not row:
            continue
        row = _primitive(row)
        pivot = min(row)
        for q, other in rref.items():
            if pivot in other:
                rref[q] = _primitive(_eliminate(other, pivot, row))
        rref[pivot] = row
    basis = []
    for fc in range(ncols):
        if fc not in rref:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for p, row in rref.items():
                x = row.get(fc)
                if x:
                    vec[p] = Fraction(-x, row[p])
            basis.append(vec)
    return basis


class HomSolution(NamedTuple):
    """One basis element of a hom space; parity records the map type."""

    w: Mat2
    parity: str  # "even" | "odd" | "mixed"


ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))
DIAG = ((0, 0), (1, 1))
ANTIDIAG = ((0, 1), (1, 0))
# the systems solve_hom solves per category: the entries of W that may be
# nonzero, the sign of the identity and the parity of the solutions
# (None: read off the shape of each solution)
SYSTEMS = {
    "M2": ((ENTRIES, 1, None),),
    "M11even": ((DIAG, 1, "even"),),
    "M11": ((DIAG, 1, "even"), (ANTIDIAG, -1, "odd")),
}
# unknowns in one hom system: (its entries) x C(bound + nvars, nvars)
UNKNOWNS_BUDGET = 1500


def check_intertwiner(
    src: Presentation, dst: Presentation, w: Mat2, sign: int = 1
) -> bool:
    """Exact re-verification of all intertwining identities for W.

    It compares W * E_g^src with sign * E_g^dst * tau_g(W) over whole
    `Mat2` products and shares no code with the solver's assembly.
    """
    alg = src.algebra
    for (row, col), e_src in src.odd:
        rhs = dst.E(row, col) * w.shifted(alg.weight_shift(Root(row, col)))
        if w * e_src != (rhs if sign == 1 else sign * rhs):
            return False
    return True


def _hom_rows(
    src: Presentation,
    dst: Presentation,
    monos: Sequence[tuple[int, ...]],
    entries: Sequence[tuple[int, int]],
    sign: int,
) -> list[dict[int, int]]:
    """The integer rows of the hom system; unknown k = i * len(monos) + j is h^monos[j] at entries[i].

    The unknown h^mu at (r, c) adds two blocks to the defect of generator
    g: h^mu E_g^src[c, j] at cell (r, j) for j = 0, 1, and -sign
    E_g^dst[i, r] tau_g(h^mu) at cell (i, c) for i = 0, 1.  So
    tau_g(h^mu) is formed once per (g, mu), and each block by `Poly`
    products, once per entry of E_g^src or E_g^dst and shared by every
    unknown that uses that entry.  Each (g, cell) gives its rows through
    `integer_rows`.
    """
    nv = src.nvars
    alg = src.algebra
    powers = [Poly(nv, {mu: 1}) for mu in monos]
    firsts = [(rc, i * len(monos)) for i, rc in enumerate(entries)]
    rows: list[dict[int, int]] = []
    for (row, col), e_src in src.odd:
        e_dst = dst.E(row, col)
        tau = alg.weight_shift(Root(row, col))
        taus = [apply_shift(tau, p) for p in powers]
        if sign == 1:
            taus = [-t for t in taus]
        # the blocks by the entry of E_g^src or E_g^dst they multiply
        left: dict[tuple[int, int], list[Poly]] = {}
        right: dict[tuple[int, int], list[Poly]] = {}
        cells: dict[tuple[int, int], list[tuple[int, Poly]]] = {cell: [] for cell in ENTRIES}
        for (r, c), first in firsts:
            # x is j in the first block and i in the second
            for x in (0, 1):
                f = e_src[c, x]
                if f:
                    if (c, x) not in left:
                        left[c, x] = [p * f for p in powers]
                    cells[r, x] += enumerate(left[c, x], first)
                f = e_dst[x, r]
                if f:
                    if (x, r) not in right:
                        right[x, r] = [f * t for t in taus]
                    cells[x, c] += enumerate(right[x, r], first)
        for parts in cells.values():
            rows += integer_rows(parts)
    return rows


def _solve_system(
    src: Presentation,
    dst: Presentation,
    bound: int,
    entries: Sequence[tuple[int, int]],
    sign: int,
) -> list[Mat2]:
    nv = src.nvars
    monos = list(monomials(nv, bound))
    mats = []
    for vec in _nullspace(_hom_rows(src, dst, monos, entries, sign), len(entries) * len(monos)):
        terms: dict = {}
        for k, x in enumerate(vec):
            if x:
                i, j = divmod(k, len(monos))
                terms.setdefault(entries[i], {})[monos[j]] = x
        mats.append(_placed(nv, terms))
    return mats


def _placed(nv: int, terms: dict[tuple[int, int], dict]) -> Mat2:
    """The matrix whose entry rc has the given terms (zero where none are given)."""
    return Mat2(
        tuple(tuple(Poly(nv, terms.get((r, c), {})) for c in range(2)) for r in range(2))
    )


def _shape_parity(w: Mat2) -> str:
    if w.is_diagonal():
        return "even"
    if w.is_antidiagonal():
        return "odd"
    return "mixed"


def resolve_category(src: Presentation, dst: Presentation, category: str) -> str:
    if category == "auto":
        return "M11even" if src.is_graded() and dst.is_graded() else "M2"
    if category not in ("M2", "M11", "M11even"):
        raise MorphismError(f"unknown category {category!r}")
    if category in ("M11", "M11even") and not (src.is_graded() and dst.is_graded()):
        raise MorphismError("graded categories need graded presentations")
    return category


def solve_hom(
    src: Presentation,
    dst: Presentation,
    degree_bound: int = 4,
    category: str = "auto",
) -> list[HomSolution]:
    """Spanning set of the hom space with entries of degree <= degree_bound.

    Completeness is relative to the bound: every hom whose matrix
    entries stay within it appears in the span.  Solutions are
    re-verified against the intertwining identities before returning.
    A bound past UNKNOWNS_BUDGET is refused before any monomial is built.
    """
    if (src.m, src.n) != (dst.m, dst.n):
        raise MorphismError("presentations live over different superalgebras")
    if degree_bound < 0:
        raise MorphismError("degree bound must be non-negative")
    systems = SYSTEMS[resolve_category(src, dst, category)]
    width = max(len(entries) for entries, _, _ in systems)
    if width * comb(degree_bound + src.nvars, src.nvars) > UNKNOWNS_BUDGET:
        raise MorphismError(
            f"degree bound {degree_bound} is over the budget of "
            f"{UNKNOWNS_BUDGET} unknowns per hom system"
        )
    sols: list[HomSolution] = []
    for entries, sign, parity in systems:
        for w in _solve_system(src, dst, degree_bound, entries, sign):
            if not check_intertwiner(src, dst, w, sign):
                raise InvariantBreach("solver produced a non-intertwining solution")
            sols.append(HomSolution(w, parity or _shape_parity(w)))
    return sols


# -- isomorphism testing ----------------------------------------------------------


class IsoWitness(NamedTuple):
    gamma: Fraction
    w: Mat2
    parity: str  # "even" | "odd"


def _family_bridge(nv: int, gamma: Fraction, bar: bool) -> Mat2:
    """Constant witness between family presentations with a_src = gamma a_dst."""
    d = 1 / gamma if bar else gamma
    return Mat2.of(nv, ((1, 0), (0, d)))


def iso_test(
    src: Presentation, dst: Presentation, category: str = "auto"
) -> Optional[IsoWitness]:
    """Decide isomorphism and produce the scaling and a verified witness.

    Isomorphy holds exactly when the subsets agree and the parameter
    vectors are proportional, a_src = gamma * a_dst; in the graded-even
    category the parity conventions must also match, while in the full
    graded category a mismatch is bridged by the constant odd map.
    The witness W satisfies E^src = (+/-) W^{-1} E^dst tau(W).
    """
    if (src.m, src.n) != (dst.m, dst.n):
        raise MorphismError("presentations live over different superalgebras")
    category = resolve_category(src, dst, category)
    ps, ws = classified_sl_m1(src)
    pd, wd = classified_sl_m1(dst)
    if ps.s != pd.s:
        return None
    gamma = ps.a[0] / pd.a[0]
    if any(x != gamma * y for x, y in zip(ps.a, pd.a)):
        return None
    nv = src.nvars
    if category == "M11even" and ps.bar != pd.bar:
        return None
    if category == "M11" and ps.bar != pd.bar:
        # full graded category: route through the constant odd intertwiner
        j = Mat2.of(nv, ((0, -1), (1, 0)))
        if ps.bar:
            bridge = _family_bridge(nv, gamma, False) * j
        else:
            bridge = _family_bridge(nv, gamma, True) * j.inverse_unimodular()
        parity, sign = "odd", -1
    else:
        # scale the source's family form; mismatched conventions (only in
        # M2 here) then swap the two corners
        bridge = _family_bridge(nv, gamma, ps.bar)
        if ps.bar != pd.bar:
            bridge = Mat2.swap(nv) * bridge
        parity, sign = "even", 1
    w = wd * bridge * ws.inverse_unimodular()
    if not w.is_unimodular() or not check_intertwiner(src, dst, w, sign):
        raise InvariantBreach("isomorphism witness failed re-verification")
    return IsoWitness(gamma, w, parity)


# -- endomorphism rings and idempotents ---------------------------------------------


class _Frame(NamedTuple):
    """The classification witness W of p, its inverse, and the diagonal
    D_X = diag(c + d, c) of the family form, c = h_1 + ... + h_m."""

    w: Mat2
    winv: Mat2
    upper: Poly
    lower: Poly

    def diagonal(self, f: Poly) -> Mat2:
        """D_F = diag(F(c + d), F(c))."""
        return _diagonal(compose_univariate(f, self.upper), compose_univariate(f, self.lower))


def _diagonal(upper: Poly, lower: Poly) -> Mat2:
    z = Poly.zero(upper.nvars)
    return Mat2(((upper, z), (z, lower)))


def check_sl_m1(p: Presentation) -> None:
    """Refuse a presentation over sl(m|n), n != 1, where the frame is not defined."""
    if p.n != 1:
        raise MorphismError("endomorphisms and submodules are described over sl(m|1) only")


def _family_frame(p: Presentation) -> _Frame:
    """The frame of p, made once per presentation and kept with its verdict.

    d = m - 1 for M(a, S) and d = -(m - 1) for Mbar(a, S); the
    endomorphisms of p are W D_F W^{-1} and its submodules W image(D_F).
    """
    frame = p._memo.get("frame")
    if frame is None:
        check_sl_m1(p)
        params, w = classified_sl_m1(p)
        nv = p.nvars
        c = sum((Poly.var(nv, j) for j in range(p.m)), Poly.zero(nv))
        d = -(p.m - 1) if params.bar else p.m - 1
        frame = p._memo["frame"] = _Frame(w, w.inverse_unimodular(), c + d, c)
    return frame


def endo_ring_basis(p: Presentation, degree_bound: int) -> list[Mat2]:
    """Basis W D_F W^{-1}, F = X^k, k <= degree_bound.

    W and d come from the classification of p (see _family_frame), so
    every basis element is an endomorphism of p.  The powers of c + d and
    c are running products.
    """
    frame = _family_frame(p)
    upper = lower = Poly.one(p.nvars)
    basis = []
    for k in range(degree_bound + 1):
        if k:
            upper, lower = upper * frame.upper, lower * frame.lower
        basis.append(frame.w * _diagonal(upper, lower) * frame.winv)
    return basis


def endo_f_polynomial(p: Presentation, w: Mat2) -> Poly:
    """Extract F with w = W D_F W^{-1}; breach if w is not of that shape."""
    frame = _family_frame(p)
    v = frame.winv * w * frame.w
    # F(c) with h_1 = X and every other variable at 0 is F(X)
    f = v[1, 1].specialize([None] + [0] * (p.nvars - 1))
    if v != frame.diagonal(f):
        raise InvariantBreach("endomorphism is not W diag(F(c+d), F(c)) W^-1")
    return f


def idempotent_scan(p: Presentation, sols: Sequence[HomSolution]) -> list[Mat2]:
    """All idempotents in the span of the endomorphisms `sols` of p.

    sols is `solve_hom(p, p, bound)`.  Endomorphisms of a classified
    presentation are W D_F W^{-1}; F(X)^2 = F(X) in the
    integral domain Q[X] forces F in {0, 1}, so the scan reduces to
    membership of the constants in the solved span.
    """
    fs = [endo_f_polynomial(p, s.w) for s in sols]
    nv = p.nvars
    out = [Mat2.zero(nv)]
    if _in_span(Poly.one(1), fs):
        out.append(Mat2.identity(nv))
    return out


def _in_span(target: Poly, basis: Sequence[Poly]) -> bool:
    """Is target a rational combination of basis?"""
    rows = integer_rows([*enumerate(basis), (len(basis), -target)])
    # solvable iff some nullspace vector has nonzero last coordinate
    return any(vec[-1] for vec in _nullspace(rows, len(basis) + 1))


# -- submodules and filtrations ----------------------------------------------------


# terms in all the F_r(c + d), r <= k: at most C(k + m + 1, m + 1)
TERMS_BUDGET = 200_000


def check_filtration_budget(p: Presentation, k: int) -> None:
    """Refuse a filtration length k whose F_r(c + d), r <= k, could pass TERMS_BUDGET terms.

    F_r(c + d) has degree r in h_1..h_m, so at most C(r + m, m) terms.
    """
    if k > 0 and comb(k + p.m + 1, p.m + 1) > TERMS_BUDGET:
        raise MorphismError(
            f"filtration length {k} is over the budget of {TERMS_BUDGET} terms in the F_r(c + d)"
        )


def filtration(lambdas: Sequence[Fraction], k: int) -> list[Poly]:
    """F_0, ..., F_k, F_k = prod (X - lambda_r), indexing M_{F_0} > ... > M_{F_k}."""
    if k < 0:
        raise MorphismError(f"filtration length must be non-negative, got {k}")
    if k > len(lambdas):
        raise MorphismError("not enough roots for the requested length")
    x = Poly.var(1, 0)
    out = [Poly.one(1)]
    for r in range(k):
        out.append(out[-1] * (x - Fraction(lambdas[r])))
    return out


def filtration_separators(p: Presentation, chain: Sequence[Poly]) -> list[Mat2]:
    """For each step a vector of p in the layer of F_r but not in that of F_{r+1}.

    The layer of F is W image(D_F), with W and d from `_family_frame`.
    Separator r is the column W (F_r(c + d), 0), which lies in the layer
    of F_{r+1} exactly when F_{r+1}(c + d) divides F_r(c + d), so that
    division is the strictness check.
    """
    frame = _family_frame(p)
    uppers = [compose_univariate(f, frame.upper) for f in chain]
    zero = Poly.zero(p.nvars)
    seps = []
    for r in range(len(chain) - 1):
        if divides_exactly(uppers[r + 1], uppers[r]) is not None:
            raise InvariantBreach("filtration step is not strict")
        seps.append(frame.w * Mat2.column(uppers[r], zero))
    return seps


# -- rank-2 sl(1|1) submodule taxonomy ------------------------------------------------


class Sl11Shape(NamedTuple):
    """A submodule shape g1 Q[h] (+) g2 Q[h] of a canonical sl(1|1) module."""

    label: str
    g1: Poly
    g2: Poly


def sl11_submodule_shape(label: int, gen: Poly) -> tuple[Sl11Shape, Sl11Shape]:
    """The two admissible submodule shapes for the given class and ideal J=(gen).

    Class 1 admits J(+)J and J(+)hJ; class 2 admits J(+)J and hJ(+)J.
    """
    if label not in (1, 2):
        raise MorphismError("class must be 1 or 2")
    if gen.nvars != 1 or gen.is_zero:
        raise MorphismError("the ideal generator must be a nonzero univariate polynomial")
    h = Poly.var(1, 0)
    both = Sl11Shape("J+J", gen, gen)
    if label == 1:
        return both, Sl11Shape("J+hJ", gen, gen * h)
    return both, Sl11Shape("hJ+J", gen * h, gen)
