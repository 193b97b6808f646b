"""Normal forms and classification of rank-2 presentations over sl(m|1).

The pipeline rests on two constructive facts about a shift automorphism
tau of Q[h] and 2x2 matrices over it:

  * nil_factor: the solutions of P * tau^{-1}(P) = 0 are exactly
        P = theta * [[beta*tau(alpha), -alpha*tau(alpha)],
                     [beta*tau(beta),  -alpha*tau(beta)]]
    with gcd(alpha, beta) = 1.

  * canonicalize_pair: a pair (P, Q) with P sigma(P) = Q sigma^{-1}(Q) = 0
    and P sigma(Q) + Q sigma^{-1}(P) = a I_2 (a the distinguished
    degree-one scalar fixed by sigma) is twisted-conjugate to
    ([0, u; 0, 0], [0, 0; v, 0]) with sigma^{-1}(u) v = a, by an
    explicitly constructed unimodular witness.

Witness convention, used consistently everywhere: a witness W realizes

    canonical_E = W^{-1} * E * tau(W)

for each generator, tau being that generator's weight shift.  This is
the intertwining identity of the map f |-> W f, so witnesses compose by
matrix multiplication on the right.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .poly import (
    Poly,
    UhfreeError,
    apply_shift,
    divides_exactly,
    format_rational,
    poly_gcd,
)
from .presentation import (
    InvariantBreach,
    Mat2,
    Presentation,
    PresentationError,
    RelationReport,
    _intermediate,
    build_mas,
    conjugate,
    parity_check,
    verify_relations,
)
from .superlie import Root


class ClassificationError(UhfreeError):
    """Input outside the operation's contract (relations fail, wrong size)."""


def _inverse(s: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse shift h_i -> h_i + s_i."""
    return tuple(-x for x in s)


# -- nilpotent factorization -----------------------------------------------------


class NilParams(NamedTuple):
    """Factorization data (theta, alpha, beta) of a twisted-square-zero matrix."""

    theta: Poly
    alpha: Poly
    beta: Poly


def reconstruct_nil(params: NilParams, tau: tuple[int, ...]) -> Mat2:
    theta, alpha, beta = params.theta, params.alpha, params.beta
    ta = apply_shift(tau, alpha)
    tb = apply_shift(tau, beta)
    return Mat2(
        (
            (theta * beta * ta, -theta * alpha * ta),
            (theta * beta * tb, -theta * alpha * tb),
        )
    )


def nil_factor(p: Mat2, tau: tuple[int, ...]) -> NilParams:
    """Factor a solution of P * tau^{-1}(P) = 0 through its kernel vector.

    The pair (alpha, beta) is primitive (gcd 1) with the first nonzero
    entry normalized monic; theta absorbs the remaining unit.  The zero
    matrix returns (0, 1, 0).

    The twisted square is tested only if the factorization fails, which
    gives the same outcome as testing it first.  Lemma: a factorization
    that passes its final check theta K = P proves P tau^{-1}(P) = 0.
    K = tau(k) r with the column k = (alpha, beta) and the row
    r = (beta, -alpha), so r k = 0 and K tau^{-1}(K) = tau(k) (r k)
    tau^{-1}(r) = 0; theta is a scalar, so P tau^{-1}(P) =
    theta tau^{-1}(theta) K tau^{-1}(K) = 0.
    """
    try:
        return _factor_nil(p, tau)
    except Exception:
        _check_twisted_square(p, tau)
        raise


def _check_twisted_square(p: Mat2, tau: tuple[int, ...]) -> None:
    if not (p * p.shifted(_inverse(tau))).is_zero:
        raise ClassificationError("matrix does not satisfy the twisted square identity")


def _factor_nil(p: Mat2, tau: tuple[int, ...]) -> NilParams:
    nv = p.nvars
    if p.is_zero:
        return NilParams(Poly.zero(nv), Poly.one(nv), Poly.zero(nv))
    row = p.rows[0] if not (p[0, 0].is_zero and p[0, 1].is_zero) else p.rows[1]
    alpha, beta = row[1], -row[0]
    g = poly_gcd(alpha, beta)
    alpha = divides_exactly(g, alpha)
    beta = divides_exactly(g, beta)
    if alpha is None or beta is None:
        raise InvariantBreach("kernel gcd does not divide the kernel vector")
    lead = (alpha if not alpha.is_zero else beta).leading_coeff()
    alpha = alpha * (1 / lead)
    beta = beta * (1 / lead)
    kmat = reconstruct_nil(NilParams(Poly.one(nv), alpha, beta), tau)
    theta = None
    for r in range(2):
        for c in range(2):
            if not kmat[r, c].is_zero:
                theta = divides_exactly(kmat[r, c], p[r, c])
                break
        if theta is not None:
            break
    if theta is None or kmat * theta != p:
        raise InvariantBreach("matrix is not of the factored form")
    return NilParams(theta, alpha, beta)


# -- canonicalization of a distinguished pair ----------------------------------------


def _check_pair_identities(p: Mat2, q: Mat2, sigma: tuple[int, ...], a: Poly):
    """P sigma(Q) + Q sigma^{-1}(P) = a I_2.  The twisted squares are zero
    for a strictly triangular pair under any twist, and `nil_factor` tests
    them on every other pair whose factorization fails."""
    if p * q.shifted(sigma) + q * p.shifted(_inverse(sigma)) != Mat2.scalar(a):
        raise ClassificationError("pair does not satisfy the scalar anticommutator identity")


def canonicalize_pair(
    p: Mat2, q: Mat2, sigma: tuple[int, ...], a: Poly
) -> tuple[tuple[Mat2, Mat2], Mat2]:
    """Bring a distinguished pair to anti-triangular normal form.

    sigma is the weight shift of the generator acting by P (so the
    identities are P sigma(P) = 0, Q sigma^{-1}(Q) = 0 and
    P sigma(Q) + Q sigma^{-1}(P) = a I_2).  Returns the canonical pair
    (P', Q') = ([0, u; 0, 0], [0, 0; v, 0]) and a witness W with

        (P', Q') = (W^{-1} P sigma(W), W^{-1} Q sigma^{-1}(W)),

    checked as P sigma(W) = W P' and Q sigma^{-1}(W) = W Q', the same
    equations since W is unimodular.  An already canonical pair passes
    through with the identity witness; otherwise u is normalized monic,
    putting it in {c, c*h} shape for the degree-one scalars that occur here.

    The three identities are tested only if the construction raises
    (anything): their ClassificationError, if they fail, replaces its
    exception, which is the outcome of testing them first.  Lemma: a
    construction that passes its final checks proves them.  Those checks
    give P' and Q' as above with sigma^{-1}(u) v = a, and sigma(a) = a
    was checked.  Then P' sigma(P') = Q' sigma^{-1}(Q') = 0 and
    P' sigma(Q') + Q' sigma^{-1}(P') = diag(sigma(sigma^{-1}(u) v),
    v sigma^{-1}(u)) = a I_2; twisted conjugation by the unimodular W
    carries each identity to the same identity for (P, Q), as the scalar
    a I_2 commutes with W.
    """
    nv = p.nvars
    if a.is_zero or a.total_degree() != 1:
        raise ClassificationError("the distinguished scalar must have degree one")
    if apply_shift(sigma, a) != a:
        raise ClassificationError("the distinguished scalar must be fixed by the twist")
    if p.is_strict_upper() and q.is_strict_lower():
        _check_pair_identities(p, q, sigma, a)
        return (p, q), Mat2.identity(nv)
    try:
        return _construct_pair(p, q, sigma, a)
    except Exception:
        _check_pair_identities(p, q, sigma, a)
        raise


def _construct_pair(p: Mat2, q: Mat2, sigma: tuple[int, ...], a: Poly):
    nv = p.nvars
    delta_map = _inverse(sigma)  # the untwist appearing in the factored forms

    def D(x: Poly) -> Poly:
        return apply_shift(delta_map, x)

    def Dinv(x: Poly) -> Poly:
        return apply_shift(sigma, x)

    npar = nil_factor(p, delta_map)
    nqar = nil_factor(q, sigma)
    theta, alpha, beta = npar.theta, npar.alpha, npar.beta
    omega, dgam, ggam = nqar.theta, nqar.alpha, nqar.beta  # (omega, delta, gamma)
    c = D(alpha) * Dinv(ggam) - Dinv(dgam) * D(beta)
    cval = c.constant_value()
    if cval is None or cval == 0:
        raise InvariantBreach("pivot scalar is not a nonzero constant")
    g = Mat2(((Dinv(ggam), -Dinv(dgam)), (D(beta), -D(alpha))))
    w = g.inverse_unimodular()
    u = cval * theta
    v = -cval * omega
    lead = 1 / u.leading_coeff()
    w = w * Mat2.of(nv, ((1, 0), (0, lead)))
    u = u * lead
    v = v * (1 / lead)
    canon_p = Mat2.of(nv, ((0, u), (0, 0)))
    canon_q = Mat2.of(nv, ((Poly.zero(nv), 0), (v, 0)))
    if p * w.shifted(sigma) != w * canon_p or q * w.shifted(delta_map) != w * canon_q:
        raise InvariantBreach("canonicalizing witness failed to reproduce the normal form")
    if apply_shift(delta_map, u) * v != a:
        raise InvariantBreach("normal form does not satisfy the product identity")
    return (canon_p, canon_q), w


# -- classification ------------------------------------------------------------------


class CanonParams:
    """Classification data: parameters a, subset S, parity convention.

    Immutable like Mat2.  Equality, hash and repr cover (a, s, bar) only,
    not the cached family member.
    """

    __slots__ = ("a", "s", "bar", "_family")

    def __init__(self, a: tuple[Fraction, ...], s: frozenset[int], bar: bool = False):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "bar", bar)
        object.__setattr__(self, "_family", None)

    def __setattr__(self, name, value):
        raise AttributeError("CanonParams is immutable")

    def __eq__(self, other):
        if not isinstance(other, CanonParams):
            return NotImplemented
        return (self.a, self.s, self.bar) == (other.a, other.s, other.bar)

    def __hash__(self):
        return hash((self.a, self.s, self.bar))

    def __repr__(self):
        return f"CanonParams(a={self.a!r}, s={self.s!r}, bar={self.bar!r})"

    @property
    def family(self) -> Presentation:
        """M(a, S), the member `check_family_form` compares with (also when bar), built once."""
        member = self._family
        if member is None:
            member = build_mas(len(self.a), self.a, self.s)
            object.__setattr__(self, "_family", member)
        return member

    def normalized(self) -> "CanonParams":
        """The unique representative with first parameter 1."""
        g = self.a[0]
        return CanonParams(tuple(x / g for x in self.a), self.s, self.bar)

    def to_dict(self) -> dict:
        return {
            "a": [format_rational(x) for x in self.a],
            "S": sorted(self.s),
            "bar": self.bar,
        }


class Sl11Class(NamedTuple):
    """Outcome of the rank-2 sl(1|1) dichotomy."""

    label: int  # 1 or 2
    witness: Mat2
    canonical: tuple[Mat2, Mat2]


def classify_sl11(p: Presentation) -> Sl11Class:
    """The sl(1|1) dichotomy, read off the classification of p.

    p must satisfy the module relations.  Class 1 is M((1,), {}) =
    ([0, 1; 0, 0], [0, 0; h, 0]) and class 2 is M((1,), {1}) =
    ([0, h; 0, 0], [0, 0; 1, 0]).  The witness conjugates the input
    exactly onto that canonical pair; for a bar input it is the
    classification witness without its final swap.
    """
    if (p.m, p.n) != (1, 1):
        raise ClassificationError("classify_sl11 expects m = n = 1")
    params, w = classified_sl_m1(p)
    member = params.family
    return Sl11Class(
        2 if params.s else 1,
        w * Mat2.swap(1) if params.bar else w,
        (member.E(0, 1), member.E(1, 0)),
    )


def _read_family_entry(upper: Poly, hi: Poly, i: int) -> tuple[Fraction, bool]:
    """Read (a_i, i in S) from the upper entry of the conjugated e[i,b1].

    A nonzero constant a_i gives (a_i, False) and a_i h_i gives
    (a_i, True).  No other entry is read: `check_family_form` compares
    the whole tuple with the family member afterwards.
    """
    uconst = upper.constant_value()
    if uconst is not None and uconst != 0:
        return uconst, False
    quo = divides_exactly(hi, upper)
    ai = quo.constant_value() if quo is not None else None
    if ai is None or ai == 0:
        raise InvariantBreach(f"generator {i} entry is neither constant nor c*h_{i}")
    return ai, True


def check_family_form(conj: Presentation, params: CanonParams) -> None:
    """Raise InvariantBreach unless conj equals params.family at every odd position.

    This exact equality is what makes a classification (params, W) with
    conj = conjugate(p, W) a proof about p (see `verified_report`).
    """
    if conj.odd != params.family.odd:
        raise InvariantBreach("classification witness fails to reach the family form")


def classify_sl_m1(p: Presentation) -> tuple[CanonParams, Mat2]:
    """Classify a rank-2 presentation over sl(m|1) as M(a, S) or Mbar(a, S).

    Pipeline: canonicalize the (m, b1) pair, conjugate the whole tuple
    by its witness, and read a_i and whether i is in S from the upper
    entry of each e[i,b1].  `check_family_form` then checks that this
    conjugate equals M(a, S) exactly; it is the only check of the shapes.
    Returns (params, witness).  For a g11bar input params.bar is set and
    the witness is W times the constant swap, so conjugate(p, witness)
    is Mbar(a, S), M(a, S) conjugated by the swap; otherwise it is W.

    This is the raw classifier at every m >= 1: it assumes nothing about
    p, and an input that violates the module relations raises
    ClassificationError or InvariantBreach.  At m = 1 the twist of the
    pair is the identity, so the pair identities are the three sl(1|1)
    relations.  `classified_sl_m1` is the verified entry point.
    """
    if p.n > 1:
        raise ClassificationError("classification applies to sl(m|1)")
    if p.is_graded():
        parity = parity_check(p)
        if not parity.ok:
            raise ClassificationError(
                "grading flag contradicts the matrix shapes: "
                + "; ".join(parity.failures)
            )
    m, nv = p.m, p.nvars
    sigma = p.algebra.weight_shift(Root(m - 1, m))
    _, w = canonicalize_pair(p.E(m - 1, m), p.E(m, m - 1), sigma, Poly.var(nv, m - 1))
    conj = conjugate(p, w)
    a: list[Fraction] = []
    s: set[int] = set()
    for i in range(1, m + 1):
        ai, in_s = _read_family_entry(conj.E(i - 1, m)[0, 1], Poly.var(nv, i - 1), i)
        a.append(ai)
        if in_s:
            s.add(i)
    # the changes of basis below are constant, so conjugating conj by one
    # conjugates p by w times it
    if m == 1 and a[0] != 1:
        # a canonical pair with u not monic passes canonicalize_pair as it is;
        # diag(1, 1/a_1) takes M((a_1,), S) to the sl(1|1) normal form M((1,), S)
        scale = Mat2.of(nv, ((1, 0), (0, 1 / a[0])))
        w, conj, a = w * scale, conjugate(conj, scale), [Fraction(1)]
    params = CanonParams(tuple(a), frozenset(s), p.grading == "g11bar")
    check_family_form(conj, params)
    return params, w * Mat2.swap(nv) if params.bar else w


def verified_report(p: Presentation) -> RelationReport:
    """The relation report of p, computed once per object.

    The report is kept on the immutable presentation, so the layers a
    presentation passes through (CLI, classification, isomorphism,
    endomorphisms) share one check.  `conjugate` and the parsers build
    new objects, which are checked afresh.

    Over sl(m|1) the relations are proved through the classification
    instead of evaluated on p:

    Lemma.  Write rho(x) = E_x tau_x for the operator of x on Q[h]^2.
    If E'_x = W^{-1} E_x tau_x(W) for every odd x, with W unimodular,
    then rho'(x) = W^{-1} rho(x) W.  Evens are derived from odds by the
    same `twisted_bracket`, so the same holds for them.  The relations
    are identities in End(Q[h]^2), hence invariant under conjugation by
    W, so p satisfies every relation that conjugate(p, W) satisfies.

    `classify_sl_m1` checks that conjugate(p, W) equals M(a, S) at every
    odd position.  M(a, S) passes exactly when M(1, S) does (torus
    rescaling), and M(1, S) exactly when the representative
    M(1, {1, ..., |S|}) does (index symmetry), so `verify_relations`
    runs on that representative alone, once per (m, |S|).  The proof
    trusts four checks: `conjugate`'s unimodularity test, that equality,
    the equalities of `_check_transport`, and the representative passing
    its check; none of the classifier's reasoning.  For a g11bar input
    the published witness is W times the constant swap, a change of
    basis that takes M(a, S) to Mbar(a, S) and plays no part in the
    proof.  On success the report is the representative's
    (`checked` = k(k+1)/2).

    Lemma (torus rescaling).  M(a, S) passes its check exactly when
    M(1, S) = M((1, ..., 1), S) does.
    Put t_i = a_i and t_b1 = 1.  `build_mas` gives e[i,b1] the factor
    a_i and e[b1,i] the factor 1/a_i, so M(a, S) is M(1, S) with each
    odd root vector e_IJ scaled by c(IJ) = t_I / t_J.  `twisted_bracket`
    derives e_ij from e[i,b1] and e[b1,j], so evens scale by a_i / a_j
    = c(ij) too.  The c are nonzero constants, which commute with every
    weight shift, so the left side of the identity of a root pair
    (x, y) scales by c(x) c(y).  If [x, y] is a root vector its right
    side scales by c(x + y) = c(x) c(y); if [x, y] lies in h then
    y = -x, c(x) c(y) = 1 and the right side, a Cartan term, does not
    scale.  So each identity holds at a exactly when it holds at 1,
    and a pass gives the same report (True, (), k(k+1)/2) at both.

    Lemma (index symmetry).  Let t = |S| and let sigma be the
    permutation of 1..m that maps S onto {1..t} and the other indices
    onto {t+1..m}, each in order, with sigma(b1) = b1.  Then M(1, S)
    passes its check exactly when R = M(1, {1..t}) does, with the same
    report.  phi(e_IJ) = e_sigma(I)sigma(J) is conjugation by a
    permutation matrix inside the even block, so it keeps parities and
    supercommutators and is an automorphism of sl(m|1) (Kac, "Lie
    superalgebras", Adv. Math. 26 (1977)); by `cartan_diag_pair`,
    h_i = e_ii + e_b1b1, so phi(h_i) = h_sigma(i).  Let psi be the ring
    automorphism h_sigma(i) -> h_i of Q[h].  Then N(x) = psi rho_R(phi x)
    psi^{-1} is a module exactly when R is: it is R pulled back along
    phi and renamed by psi, and each identity of N is the psi-image of
    an identity of R, the pairs (x, y) -> (phi x, phi y) running over
    all root pairs.  The root vector e_ij acts in N by
    psi(E_sigma(i)sigma(j)) psi tau_sigma(i)sigma(j) psi^{-1}.
    `_check_transport` checks, at the 2m odd root vectors, that the
    renamed shift is tau_ij and that the renamed matrix is M(1, S)'s,
    so N = M(1, S) at every odd generator; the evens of both are
    derived through b1, which sigma fixes.  A pass report
    (True, (), k(k+1)/2) depends on (m, n) alone, so
    `_shape_report` gives R's report for M(1, S).  A failing R proves
    nothing about M(1, S): the fallback below decides instead.

    Fallback: if the classifier raises ClassificationError or
    InvariantBreach, or the shape fails its check, `verify_relations(p)`
    decides, so the violations listed are those of p.  It evaluates the
    pairs on p's own entries, so an input whose estimated work is over
    the budget (`check_work_budget`) is refused first.  A non-module
    takes both exception routes.  A classifier InvariantBreach on an
    input that then passes is re-raised: it is a bug, not a verdict.
    """
    return _verdict(p)[0]


def _verdict(p: Presentation) -> tuple[RelationReport, object]:
    """p's one record, made once: its report, and the (params, W) that
    proved it or the exception that `classified_sl_m1` raises instead."""
    record = p._memo.get("verdict")
    if record is None:
        record = p._memo["verdict"] = _classified_report(p)
    return record


def _classified_report(p: Presentation) -> tuple[RelationReport, object]:
    """The classification route, else _evaluated_report(p) with the refusal."""
    try:
        params, w = classify_sl_m1(p)
    except ClassificationError as refusal:
        return _evaluated_report(p), refusal
    except InvariantBreach as refusal:
        report = _evaluated_report(p)
        if report.ok:
            raise
        return report, refusal
    report = _shape_report(p.m, params.s)
    if not report.ok:
        failed = InvariantBreach("a module's family member failed its relation check")
        return _evaluated_report(p), failed
    return report, (params, w)


def _evaluated_report(p: Presentation) -> RelationReport:
    """verify_relations(p), for an input within the work budget."""
    check_work_budget(p)
    return verify_relations(p)


# Term products of the pairwise relation check of an input that does not
# classify (`verified_report`'s fallback), as `relation_work` estimates
# them.  Measured on a 2-CPU machine at 3-35 us per estimated product:
# sl(6|1) with every odd matrix [[c, 1], [0, c]], c = h1 + ... + h6,
# estimated at 273 393, took 1.6 s; sl(3|1) with x = (h1 + h2 + h3 + 1)^4
# in place of c, at 117 600 for deriving its evens alone, 3.8 s; sl(6|1)
# with x = h1^24, at 153 063, 3.2 s.  The largest estimate of a test-suite
# input that reaches the check is 12 855 (family_in_sl31_perturbed.json,
# 0.08 s), and of one from perfbench/gen.py (seeds 1-100, 10 cycles each)
# 2 823.  A module proved by classification is not evaluated, and its
# entries may be larger.
WORK_BUDGET = 100_000


def relation_work(p: Presentation) -> int:
    """An estimate of the term products `verify_relations` makes on p.

    Deriving the even matrix of e[i,j] from x = e[i,k] and y = e[k,j]
    takes 8 products of an entry of E_x (at most t_x terms) with a
    shifted entry of E_y (at most s_y terms), and 8 the other way round.
    Shifting turns a monomial h^e into at most (e_1 + 1)...(e_v + 1)
    terms, and an entry of degree d into at most C(d + v, v).  If the
    evens' bound is within WORK_BUDGET, they are derived (once for p, as
    `verify_relations` would), and each pair (a, b) of root vectors is
    charged e_a e_b, the most terms of an entry of each action matrix.
    """
    alg, v = p.algebra, p.nvars
    sizes = {pos: _entry_sizes(mat, v) for pos, mat in p.odd}
    roots = alg.root_vectors()
    work = 0
    for r in roots:
        if not alg.parity(r):
            k = _intermediate(alg, r.row)
            (tx, sx), (ty, sy) = sizes[r.row, k], sizes[k, r.col]
            work += 8 * (tx * sy + ty * sx)
    if work > WORK_BUDGET:
        return work
    e = [max(f.term_count() for row in p.E(r.row, r.col).rows for f in row) for r in roots]
    return work + (sum(e) ** 2 + sum(x * x for x in e)) // 2


def _entry_sizes(mat: Mat2, v: int) -> tuple[int, int]:
    """The most terms of an entry of mat, and a bound on the terms of a shifted entry."""
    entries = [f for row in mat.rows for f in row]
    shifted = max(f.shift_bound() for f in entries)
    dense = comb(max(f.total_degree() for f in entries) + v, v)
    return max(f.term_count() for f in entries), min(shifted, dense)


def check_work_budget(p: Presentation) -> None:
    """Refuse a presentation whose relation_work is over WORK_BUDGET."""
    work = relation_work(p)
    if work > WORK_BUDGET:
        raise PresentationError(
            f"the relation check is estimated at {work} term products, over the "
            f"budget of {WORK_BUDGET} for an input that does not classify"
        )


# The family caches are bounded, so a long-lived caller that classifies
# inputs of many sizes keeps a fixed number of reports.  sl(m|1) for
# m = 1..6 has 27 classes (m, |S|) and 126 shapes (m, S), all kept.
@lru_cache(maxsize=64)
def _family_report(m: int, t: int) -> RelationReport:
    """The report of the representative M((1, ..., 1), {1..t}) over sl(m|1)."""
    return verify_relations(build_mas(m, (1,) * m, range(1, t + 1)))


@lru_cache(maxsize=256)
def _shape_report(m: int, s: frozenset[int]) -> RelationReport:
    """The report of M((1, ..., 1), S) over sl(m|1), cached per shape (m, S).

    By the lemmas of `verified_report` it is the report of M(a, S) for
    every nonzero a; on a pass it is the report of the representative
    of size |S|, once `_check_transport` has checked S.
    """
    report = _family_report(m, len(s))
    if report.ok:
        _check_transport(m, s)
    return report


def _check_transport(m: int, s: frozenset[int]) -> None:
    """The index-symmetry lemma's hypotheses for M(1, S), in O(m).

    back[k] = sigma^{-1}(k), 0-based.  Renamed by h_k -> h_back[k], the
    representative's matrix and weight shift at each odd root vector
    e[k,b1] and e[b1,k] must be M(1, S)'s at e[back[k],b1] and e[b1,back[k]].
    """
    back = [i - 1 for i in sorted(s) + sorted(set(range(1, m + 1)) - s)]
    rep = build_mas(m, (1,) * m, range(1, len(s) + 1))
    member = build_mas(m, (1,) * m, s)
    alg = member.algebra
    for k, i in enumerate(back):
        for src, dst in ((Root(k, m), Root(i, m)), (Root(m, k), Root(m, i))):
            target = alg.weight_shift(dst)
            if tuple(target[j] for j in back) != alg.weight_shift(src):
                raise InvariantBreach(f"index symmetry does not carry the weight of {alg.show(dst)}")
            if rep.E(src.row, src.col).permuted(back) != member.E(dst.row, dst.col):
                raise InvariantBreach(
                    f"M(1, S) at {alg.show(dst)} is not the renamed representative, S = {sorted(s)}"
                )


def classified_sl_m1(p: Presentation) -> tuple[CanonParams, Mat2]:
    """The classification that `verified_report` proved p's relations by.

    A presentation that violates the relations raises ClassificationError,
    and so does a module the classifier refused: one outside sl(m|1), or
    one whose grading flag contradicts its shapes.  The refusal is the
    one kept in p's record; the classifier does not run again.
    """
    report, outcome = _verdict(p)
    if not report.ok:
        raise ClassificationError(
            "presentation does not satisfy the module relations: "
            + report.describe(p.m, p.n)[0]
        )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
