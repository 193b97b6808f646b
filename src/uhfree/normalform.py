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

from dataclasses import dataclass
from fractions import Fraction

from .poly import (
    Poly,
    ShiftMap,
    UhfreeError,
    apply_shift,
    divides_exactly,
    poly_gcd,
)
from .presentation import (
    InvariantBreach,
    Mat2,
    Presentation,
    build_mas,
    build_mas_bar,
    conjugate,
    parity_check,
    verified_report,
)
from .superlie import Root


class ClassificationError(UhfreeError):
    """Input outside the operation's contract (relations fail, wrong size)."""


# -- nilpotent factorization -----------------------------------------------------


@dataclass(frozen=True)
class NilParams:
    """Factorization data (theta, alpha, beta) of a twisted-square-zero matrix."""

    theta: Poly
    alpha: Poly
    beta: Poly


def reconstruct_nil(params: NilParams, tau: ShiftMap) -> Mat2:
    theta, alpha, beta = params.theta, params.alpha, params.beta
    ta = apply_shift(tau, alpha)
    tb = apply_shift(tau, beta)
    return Mat2(
        (
            (theta * beta * ta, -theta * alpha * ta),
            (theta * beta * tb, -theta * alpha * tb),
        )
    )


def nil_factor(p: Mat2, tau: ShiftMap) -> NilParams:
    """Factor a solution of P * tau^{-1}(P) = 0 through its kernel vector.

    The pair (alpha, beta) is primitive (gcd 1) with the first nonzero
    entry normalized monic; theta absorbs the remaining unit.  The zero
    matrix returns (0, 1, 0).
    """
    nv = p.nvars
    if not (p * p.shifted(tau.inverse())).is_zero:
        raise ClassificationError("matrix does not satisfy the twisted square identity")
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
    if theta is None or reconstruct_nil(NilParams(theta, alpha, beta), tau) != p:
        raise InvariantBreach("matrix is not of the factored form")
    return NilParams(theta, alpha, beta)


# -- canonicalization of a distinguished pair ----------------------------------------


def _check_pair_identities(p: Mat2, q: Mat2, sigma: ShiftMap, a: Poly):
    inv = sigma.inverse()
    if not (p * p.shifted(sigma)).is_zero:
        raise ClassificationError("P does not square to zero under its twist")
    if not (q * q.shifted(inv)).is_zero:
        raise ClassificationError("Q does not square to zero under its twist")
    if p * q.shifted(sigma) + q * p.shifted(inv) != Mat2.scalar(a):
        raise ClassificationError("pair does not satisfy the scalar anticommutator identity")


def apply_witness_pair(
    p: Mat2, q: Mat2, sigma: ShiftMap, w: Mat2
) -> tuple[Mat2, Mat2]:
    """The twisted conjugation action of a witness on a (P, Q) pair."""
    winv = w.inverse_unimodular()
    return winv * p * w.shifted(sigma), winv * q * w.shifted(sigma.inverse())


def canonicalize_pair(
    p: Mat2, q: Mat2, sigma: ShiftMap, a: Poly
) -> tuple[tuple[Mat2, Mat2], Mat2]:
    """Bring a distinguished pair to anti-triangular normal form.

    sigma is the weight shift of the generator acting by P (so the
    identities are P sigma(P) = 0, Q sigma^{-1}(Q) = 0 and
    P sigma(Q) + Q sigma^{-1}(P) = a I_2).  Returns the canonical pair
    ([0, u; 0, 0], [0, 0; v, 0]) and a witness W with

        (canonical P, canonical Q) = (W^{-1} P sigma(W), W^{-1} Q sigma^{-1}(W)).

    An already canonical pair passes through with the identity witness;
    otherwise u is normalized monic, putting it in {c, c*h} shape for
    the degree-one scalars that occur here.
    """
    nv = p.nvars
    if a.is_zero or a.total_degree() != 1:
        raise ClassificationError("the distinguished scalar must have degree one")
    if apply_shift(sigma, a) != a:
        raise ClassificationError("the distinguished scalar must be fixed by the twist")
    _check_pair_identities(p, q, sigma, a)

    if p.is_strict_upper() and q.is_strict_lower():
        return (p, q), Mat2.identity(nv)

    delta_map = sigma.inverse()  # the untwist appearing in the factored forms

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
    if apply_witness_pair(p, q, sigma, w) != (canon_p, canon_q):
        raise InvariantBreach("canonicalizing witness failed to reproduce the normal form")
    if apply_shift(delta_map, u) * v != a:
        raise InvariantBreach("normal form does not satisfy the product identity")
    return (canon_p, canon_q), w


# -- classification ------------------------------------------------------------------


@dataclass(frozen=True)
class CanonParams:
    """Classification data: parameters a, subset S, parity convention."""

    a: tuple[Fraction, ...]
    s: frozenset[int]
    bar: bool = False

    def __post_init__(self):
        if any(x == 0 for x in self.a):
            raise ClassificationError("parameters must be nonzero")

    def normalized(self) -> "CanonParams":
        """The unique representative with first parameter 1."""
        g = self.a[0]
        return CanonParams(tuple(x / g for x in self.a), self.s, self.bar)

    def to_dict(self) -> dict:
        return {
            "a": [str(x) for x in self.a],
            "S": sorted(self.s),
            "bar": self.bar,
        }


@dataclass(frozen=True)
class Sl11Class:
    """Outcome of the rank-2 sl(1|1) dichotomy."""

    label: int  # 1 or 2
    witness: Mat2
    canonical: tuple[Mat2, Mat2]


def _require_verified(p: Presentation):
    report = verified_report(p)
    if not report.ok:
        raise ClassificationError(
            "presentation does not satisfy the module relations: "
            + report.describe(p.m, p.n)[0]
        )


def classify_sl11(p: Presentation) -> Sl11Class:
    """Decide which of the two sl(1|1) normal forms a presentation is.

    Class 1 is ([0, 1; 0, 0], [0, 0; h, 0]); class 2 carries h in the
    upper matrix.  The returned witness conjugates the input exactly
    onto the canonical pair.
    """
    if (p.m, p.n) != (1, 1):
        raise ClassificationError("classify_sl11 expects m = n = 1")
    _require_verified(p)
    h = Poly.var(1, 0)
    sigma = p.algebra.weight_shift(Root(0, 1))  # identity for sl(1|1)
    (cp, cq), w = canonicalize_pair(p.E(0, 1), p.E(1, 0), sigma, h)
    u = cp[0, 1]
    lead = u.leading_coeff()
    if lead != 1:
        scale = Mat2.of(1, ((1, 0), (0, Fraction(1) / lead)))
        w = w * scale
        (cp, cq) = apply_witness_pair(p.E(0, 1), p.E(1, 0), sigma, w)
        u = cp[0, 1]
    if u == Poly.one(1):
        label = 1
    elif u == h:
        label = 2
    else:
        raise InvariantBreach(f"canonical entry {u!r} is neither 1 nor h")
    return Sl11Class(label, w, (cp, cq))


def _read_family_entry(
    upper: Poly, lower: Poly, hi: Poly, i: int
) -> tuple[Fraction, bool]:
    """Recognize (a_i, i in S) from a canonical generator pair."""
    uconst = upper.constant_value()
    if uconst is not None and uconst != 0:
        ai, in_s = uconst, False
        expected_lower = (1 / ai) * hi
    else:
        quo = divides_exactly(hi, upper)
        ai = quo.constant_value() if quo is not None else None
        if ai is None or ai == 0:
            raise InvariantBreach(f"generator {i} entry is neither constant nor c*h_{i}")
        in_s = True
        expected_lower = Poly.const(upper.nvars, 1 / ai)
    if lower != expected_lower:
        raise InvariantBreach(f"generator {i} pair is outside the classified family")
    return Fraction(ai), in_s


def classify_sl_m1(p: Presentation) -> tuple[CanonParams, Mat2]:
    """Classify a verified rank-2 presentation over sl(m|1) as M(a, S).

    Pipeline: canonicalize the (m, b1) pair, conjugate the whole tuple
    by its witness, and read the forced anti-triangular shapes of the
    remaining generators.  Graded inputs keep their parity convention:
    for the bar convention the witness lands on the bar family.
    Returns (params, witness) with  conjugate(p, witness) equal to
    build_mas(...) (or build_mas_bar) at the returned parameters.
    """
    if p.n != 1:
        raise ClassificationError("classification applies to sl(m|1)")
    if p.is_graded():
        parity = parity_check(p)
        if not parity.ok:
            raise ClassificationError(
                "grading flag contradicts the matrix shapes: "
                + "; ".join(parity.failures)
            )
    bar = p.grading == "g11bar"
    if p.m == 1:
        cls = classify_sl11(p)
        s = frozenset({1} if cls.label == 2 else set())
        params = CanonParams((Fraction(1),), s, bar)
        w = cls.witness * Mat2.swap(1) if bar else cls.witness
        conj = conjugate(p, w)
    else:
        _require_verified(p)
        m, nv = p.m, p.nvars
        alg = p.algebra
        sigma = alg.weight_shift(Root(m - 1, m))
        hm = Poly.var(nv, m - 1)
        _, w = canonicalize_pair(p.E(m - 1, m), p.E(m, m - 1), sigma, hm)
        conj = conjugate(p, w)
        a: list[Fraction] = []
        s: set[int] = set()
        for i in range(1, m + 1):
            upper_mat = conj.E(i - 1, m)
            lower_mat = conj.E(m, i - 1)
            if not (upper_mat.is_strict_upper() and lower_mat.is_strict_lower()):
                raise InvariantBreach(
                    f"conjugated generator pair {i} is not anti-triangular"
                )
            ai, in_s = _read_family_entry(
                upper_mat[0, 1], lower_mat[1, 0], Poly.var(nv, i - 1), i
            )
            a.append(ai)
            if in_s:
                s.add(i)
        if bar:
            # the swap is constant, so conjugating conj by it conjugates p by w * swap
            swap = Mat2.swap(nv)
            w = w * swap
            conj = conjugate(conj, swap)
        params = CanonParams(tuple(a), frozenset(s), bar)
    target = (build_mas_bar if bar else build_mas)(p.m, params.a, params.s)
    for pos, mat in target.odd:
        if conj.E(*pos) != mat:
            raise InvariantBreach("classification witness fails to reach the family form")
    return params, w


def classified_sl_m1(p: Presentation) -> tuple[CanonParams, Mat2]:
    """classify_sl_m1(p), computed once per presentation object."""
    result = p._memo.get("sl_m1")
    if result is None:
        result = p._memo["sl_m1"] = classify_sl_m1(p)
    return result

