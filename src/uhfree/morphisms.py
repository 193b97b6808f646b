"""Homomorphisms, isomorphism testing, endomorphism rings, submodules.

A module map between rank-2 presentations is multiplication by a 2x2
polynomial matrix W subject to, for every odd generator g,

    W * E_g^src = (+/-) E_g^dst * tau_g(W),

with sign +1 for even maps and -1 for odd maps of graded modules.
`solve_hom` turns these identities into an exact linear system over the
unknown coefficients of W and returns a basis of solutions.

Categories are the three of interest throughout:

    "M2"      ungraded modules, all W;
    "M11"     graded modules, graded maps: even (diagonal, unsigned)
              plus odd (antidiagonal, signed);
    "M11even" graded modules, even maps only.

Submodules of the classified family are the two-sided divisibility
conditions M_F = F(c + m - 1) Q[h] (+) F(c) Q[h] with c = h_1 + ... + h_m,
giving strictly decreasing filtrations of any prescribed finite length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .poly import Poly, UhfreeError, compose_univariate, divides_exactly
from .presentation import InvariantBreach, Mat2, Presentation, Vec2
from .normalform import classified_sl_m1, classify_sl_m1
from .superlie import Root


class MorphismError(UhfreeError):
    """Incompatible presentations or invalid solver arguments."""


# -- exact linear algebra ----------------------------------------------------------


def _subtract(target: dict[int, Fraction], f: Fraction, row: dict[int, Fraction]) -> None:
    """target -= f * row in place, dropping the entries that become zero."""
    for c, x in row.items():
        y = target.get(c, 0) - f * x
        if y:
            target[c] = y
        else:
            del target[c]


def _nullspace(rows: list[dict[int, Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the solution space of a homogeneous system over Q.

    Gauss-Jordan on the sparse rows, one row at a time: `rref` maps each
    pivot column to its row of the reduced row echelon form (entry 1 at
    the pivot, 0 at every other pivot). A new row is reduced against it,
    pivots at its leftmost column and is eliminated from the older rows.
    The RREF does not depend on row order, so neither does the basis: 1
    at each free column f and -RREF[p][f] at each pivot p.
    """
    rref: dict[int, dict[int, Fraction]] = {}
    for given in rows:
        row = {c: x for c, x in given.items() if x}
        for p in [c for c in row if c in rref]:
            _subtract(row, row[p], rref[p])
        if not row:
            continue
        pivot = min(row)
        inv = Fraction(1) / row[pivot]
        row = {c: x * inv for c, x in row.items()}
        for other in rref.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        rref[pivot] = row
    basis = []
    for fc in range(ncols):
        if fc not in rref:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for p, row in rref.items():
                vec[p] = -row.get(fc, Fraction(0))
            basis.append(vec)
    return basis


def _monomials_up_to(nvars: int, bound: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(bound + 1):
        for exps in itertools.product(range(total + 1), repeat=nvars):
            if sum(exps) == total:
                out.append(exps)
    return out


@dataclass(frozen=True)
class HomSolution:
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


def _defects(src: Presentation, dst: Presentation, w: Mat2, sign: int) -> Iterator[Mat2]:
    """W * E_g^src - sign * E_g^dst * tau_g(W) for each odd generator g, in `src.odd` order."""
    alg = src.algebra
    for (row, col), e_src in src.odd:
        tau = alg.weight_shift(Root(row, col))
        yield w * e_src - sign * (dst.E(row, col) * w.shifted(tau))


def check_intertwiner(
    src: Presentation, dst: Presentation, w: Mat2, sign: int = 1
) -> bool:
    """Exact re-verification of all intertwining identities for W."""
    return all(d.is_zero for d in _defects(src, dst, w, sign))


def _solve_system(
    src: Presentation,
    dst: Presentation,
    bound: int,
    entries: Sequence[tuple[int, int]],
    sign: int,
) -> list[Mat2]:
    nv = src.nvars
    unknowns = [(rc, mu) for rc in entries for mu in _monomials_up_to(nv, bound)]
    # the defect is linear in W: unknown (rc, mu) contributes the defects
    # of the matrix with the monomial h^mu at rc and zeros elsewhere
    defects = [
        list(_defects(src, dst, _placed(nv, {rc: {mu: 1}}), sign)) for rc, mu in unknowns
    ]
    rows: list[dict[int, Fraction]] = []
    for g in range(len(src.odd)):
        for cell in ENTRIES:
            by_exp: dict[tuple[int, ...], dict[int, Fraction]] = {}
            for k, per_gen in enumerate(defects):
                for exps, coeff in per_gen[g][cell].terms.items():
                    by_exp.setdefault(exps, {})[k] = coeff
            rows.extend(by_exp.values())
    mats = []
    for vec in _nullspace(rows, len(unknowns)):
        terms: dict = {}
        for k, (rc, mu) in enumerate(unknowns):
            if vec[k]:
                terms.setdefault(rc, {})[mu] = vec[k]
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
    """
    if (src.m, src.n) != (dst.m, dst.n):
        raise MorphismError("presentations live over different superalgebras")
    if degree_bound < 0:
        raise MorphismError("degree bound must be non-negative")
    sols: list[HomSolution] = []
    for entries, sign, parity in SYSTEMS[resolve_category(src, dst, category)]:
        for w in _solve_system(src, dst, degree_bound, entries, sign):
            if not check_intertwiner(src, dst, w, sign):
                raise InvariantBreach("solver produced a non-intertwining solution")
            sols.append(HomSolution(w, parity or _shape_parity(w)))
    return sols


# -- isomorphism testing ----------------------------------------------------------


@dataclass(frozen=True)
class IsoWitness:
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
    ps, ws = classify_sl_m1(src)
    pd, wd = classify_sl_m1(dst)
    if ps.s != pd.s:
        return None
    gamma = ps.a[0] / pd.a[0]
    if any(x != gamma * y for x, y in zip(ps.a, pd.a)):
        return None
    nv = src.nvars
    if category == "M11even" and ps.bar != pd.bar:
        return None
    if category == "M2" or ps.bar == pd.bar:
        # same convention: bridge between the two family forms directly
        if ps.bar == pd.bar:
            bridge = _family_bridge(nv, gamma, ps.bar)
            parity = "even"
        else:
            # ungraded category, mismatched corner conventions: swap first
            bridge = Mat2.swap(nv) * _family_bridge(nv, gamma, pd.bar)
            parity = "even"
        w = wd * bridge * ws.inverse_unimodular()
        sign = 1
    else:
        # full graded category: route through the constant odd intertwiner
        j = Mat2.of(nv, ((0, -1), (1, 0)))
        if ps.bar:
            bridge = _family_bridge(nv, gamma, False) * j
        else:
            bridge = _family_bridge(nv, gamma, True) * j.inverse_unimodular()
        w = wd * bridge * ws.inverse_unimodular()
        parity = "odd"
        sign = -1
    if not w.is_unimodular() or not check_intertwiner(src, dst, w, sign):
        raise InvariantBreach("isomorphism witness failed re-verification")
    return IsoWitness(gamma, w, parity)


# -- endomorphism rings and idempotents ---------------------------------------------


def _central_form(nv: int, m: int) -> Poly:
    c = Poly.zero(nv)
    for j in range(m):
        c = c + Poly.var(nv, j)
    return c


def _family_frame(p: Presentation) -> tuple[Mat2, int]:
    """Classification witness W of p and the offset d of its endomorphisms.

    Endomorphisms of the family form are diag(F(c+d), F(c)) with
    d = m - 1 for M(a, S) and d = -(m - 1) for Mbar(a, S); those of p
    are W diag(F(c+d), F(c)) W^{-1}.
    """
    if p.n != 1:
        raise MorphismError("endomorphism description applies to sl(m|1)")
    params, w = classified_sl_m1(p)
    return w, -(p.m - 1) if params.bar else p.m - 1


def endo_ring_basis(p: Presentation, degree_bound: int) -> list[Mat2]:
    """Basis W diag(F(c+d), F(c)) W^{-1}, F = X^k, k <= degree_bound.

    c = h_1 + ... + h_m; W and d come from the classification of p (see
    _family_frame), so every basis element is an endomorphism of p.
    """
    frame, offset = _family_frame(p)
    finv = frame.inverse_unimodular()
    nv = p.nvars
    c = _central_form(nv, p.m)
    out = []
    for k in range(degree_bound + 1):
        upper = (c + offset) ** k
        lower = c**k
        out.append(frame * Mat2(((upper, Poly.zero(nv)), (Poly.zero(nv), lower))) * finv)
    return out


def endo_f_polynomial(p: Presentation, w: Mat2) -> Poly:
    """Extract F with w = W diag(F(c+d), F(c)) W^{-1}; breach if not of that shape."""
    frame, offset = _family_frame(p)
    return _family_f(p, frame.inverse_unimodular() * w * frame, offset)


def _family_f(p: Presentation, v: Mat2, offset: int) -> Poly:
    """Extract F with v = diag(F(c+offset), F(c)) in family coordinates."""
    if not v.is_diagonal():
        raise InvariantBreach("endomorphism is not diagonal")
    lower = v[1, 1]
    # F(c) with h_1 = X and every other variable at 0 is F(X)
    f = lower.specialize([None] + [0] * (lower.nvars - 1))
    c = _central_form(p.nvars, p.m)
    if compose_univariate(f, c) != lower or compose_univariate(f, c + offset) != v[0, 0]:
        raise InvariantBreach("endomorphism is not a polynomial in the central form")
    return f


def endo_solutions(p: Presentation, degree_bound: int) -> tuple[HomSolution, ...]:
    """solve_hom(p, p, degree_bound), solved once per presentation and bound.

    The solutions are kept on the immutable presentation, the way
    `verified_report` keeps its relation check, so `uhfree endo` and
    `idempotent_scan` share one solve.
    """
    key = ("endo", degree_bound)
    sols = p._memo.get(key)
    if sols is None:
        sols = p._memo[key] = tuple(solve_hom(p, p, degree_bound))
    return sols


def idempotent_scan(p: Presentation, degree_bound: int) -> list[Mat2]:
    """All idempotents in the endomorphism span up to the degree bound.

    Endomorphisms of a classified presentation are W diag(F(c+d), F(c))
    W^{-1}; F(X)^2 = F(X) in the integral domain Q[X] forces F in {0, 1},
    so the scan reduces to membership of the constants in the solved span.
    """
    sols = endo_solutions(p, degree_bound)
    fs = [endo_f_polynomial(p, s.w) for s in sols if not s.w.is_zero]
    nv = p.nvars
    out = [Mat2.zero(nv)]
    if _in_span(Poly.one(1), fs):
        out.append(Mat2.identity(nv))
    for w in out:
        if w * w != w:
            raise InvariantBreach("idempotent scan returned a non-idempotent")
    return out


def _in_span(target: Poly, basis: Sequence[Poly]) -> bool:
    monos = sorted({e for f in list(basis) + [target] for e in f.terms})
    rows: list[dict[int, Fraction]] = []
    ncols = len(basis) + 1
    for e in monos:
        row = {k: f.terms.get(e, Fraction(0)) for k, f in enumerate(basis)}
        row[len(basis)] = -target.terms.get(e, Fraction(0))
        rows.append(row)
    # solvable iff some nullspace vector has nonzero last coordinate
    for vec in _nullspace(rows, ncols):
        if vec[-1]:
            return True
    return False


# -- submodules and filtrations ----------------------------------------------------


@dataclass(frozen=True)
class Submod:
    """The submodule F(c+m-1) Q[h] (+) F(c) Q[h], F univariate."""

    f: Poly

    def __post_init__(self):
        if self.f.nvars != 1:
            raise MorphismError("submodule data must be univariate")


def submodule_member(sub: Submod, m: int, v: Vec2) -> bool:
    """Exact divisibility test for membership in M_F."""
    nv = v.nvars
    if sub.f.is_zero:
        return v.f1.is_zero and v.f2.is_zero
    c = _central_form(nv, m)
    upper = compose_univariate(sub.f, c + (m - 1))
    lower = compose_univariate(sub.f, c)
    return (
        divides_exactly(upper, v.f1) is not None
        and divides_exactly(lower, v.f2) is not None
    )


def filtration(lambdas: Sequence[Fraction], k: int) -> list[Submod]:
    """The chain M_{F_0} > M_{F_1} > ... > M_{F_k}, F_k = prod (X - lambda_r)."""
    if k < 0:
        raise MorphismError(f"filtration length must be non-negative, got {k}")
    if k > len(lambdas):
        raise MorphismError("not enough roots for the requested length")
    x = Poly.var(1, 0)
    out = [Submod(Poly.one(1))]
    f = Poly.one(1)
    for r in range(k):
        f = f * (x - Fraction(lambdas[r]))
        out.append(Submod(f))
    return out


def filtration_separators(p: Presentation, chain: Sequence[Submod]) -> list[Vec2]:
    """For each step a vector in M_{F_r} but not in M_{F_{r+1}}."""
    nv, m = p.nvars, p.m
    c = _central_form(nv, m)
    seps = []
    for r in range(len(chain) - 1):
        upper = compose_univariate(chain[r].f, c + (m - 1))
        vec = Vec2(upper, Poly.zero(nv))
        if not submodule_member(chain[r], m, vec) or submodule_member(
            chain[r + 1], m, vec
        ):
            raise InvariantBreach("filtration step is not strict")
        seps.append(vec)
    return seps


# -- rank-2 sl(1|1) submodule taxonomy ------------------------------------------------


@dataclass(frozen=True)
class Sl11Shape:
    """A submodule shape g1 Q[h] (+) g2 Q[h] of a canonical sl(1|1) module."""

    label: str
    g1: Poly
    g2: Poly

    def member(self, v: Vec2) -> bool:
        return (
            divides_exactly(self.g1, v.f1) is not None
            and divides_exactly(self.g2, v.f2) is not None
        )


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
