"""Rank-2 module presentations and their twisted matrix calculus.

A rank-2 U(h)-free module over sl(m|n) is identified with the column
space Q[h]^2: a Cartan element h_v acts by multiplication, and a root
vector e_IJ acts as

    e_IJ . f  =  E_IJ * (tau_IJ f),

where E_IJ is a 2x2 polynomial matrix and tau_IJ the root's weight
shift.  A presentation stores only the odd matrices; even ones are
reconstructed as twisted products because the odd root vectors generate
the superalgebra.  `verify_relations` establishes every
supercommutation relation among basis elements, which is equivalent to
the module axioms, by checking a generating set of them as exact
polynomial matrix identities.

Gradings: "ungraded" presentations carry no parity bookkeeping, while
"g11" / "g11bar" mark the two Z2-graded conventions (odd generators
strictly upper-right / strictly lower-left respectively, with the free
generators of the two parities in fixed positions).
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .mat2 import (
    Mat2,
    PresentationError,
    _is_json,
    json_field,
    json_keys,
    load_json,
    twisted_bracket,
)
from .poly import Poly, default_names, monomials
from .superlie import BasisElement, Cartan, Root, SuperAlgebra, algebra

GRADINGS = ("ungraded", "g11", "g11bar")

FORMAT_PRESENTATION = "uhfree-presentation/1"

# How many violations or keys a report names before it counts the rest.
MAX_SHOWN_VIOLATIONS = 20


# -- presentations ---------------------------------------------------------------


def odd_positions(m: int, n: int) -> Iterator[tuple[int, int]]:
    """The odd generator positions e[i,bj], e[bj,i] in canonical order, lazily."""
    for i in range(m):
        for j in range(n):
            yield (i, m + j)
            yield (m + j, i)


class Presentation:
    """Action data of a rank-2 presentation: the odd generators' matrices.

    Immutable like Mat2.  Equality, hash and repr cover (m, n, grading,
    odd) only; the two caches below do not take part.
    """

    # _lookup: action matrices by (row, col), the odd ones, then each even one
    # derive_even makes; _memo["verdict"]: the one record normalform keeps, the
    # report with (params, W) or the refusal; _memo["frame"]: morphisms' W,
    # W^{-1} and family diagonal
    __slots__ = ("m", "n", "grading", "odd", "_lookup", "_memo")

    def __init__(self, m: int, n: int, grading: str, odd: tuple):
        if grading not in GRADINGS:
            raise PresentationError(f"unknown grading {grading!r}")
        alg = algebra(m, n)
        expected = list(odd_positions(m, n))
        got = {pos: mat for pos, mat in odd}
        if sorted(got) != sorted(expected):
            raise PresentationError("odd generator set must be exactly e[i,bj], e[bj,i]")
        for pos, mat in odd:
            if mat.nvars != alg.nvars:
                raise PresentationError("matrix variable count does not match (m, n)")
        ordered = tuple((pos, got[pos]) for pos in expected)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "grading", grading)
        object.__setattr__(self, "odd", ordered)
        object.__setattr__(self, "_lookup", dict(ordered))
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and self.grading == other.grading
            and self.odd == other.odd
        )

    def __hash__(self):
        return hash((self.m, self.n, self.grading, self.odd))

    def __repr__(self):
        return (
            f"Presentation(m={self.m!r}, n={self.n!r}, grading={self.grading!r}, odd={self.odd!r})"
        )

    @property
    def algebra(self) -> SuperAlgebra:
        return algebra(self.m, self.n)

    @property
    def nvars(self) -> int:
        return self.m + self.n - 1

    def E(self, row: int, col: int) -> Mat2:
        """Action matrix of the root vector e at (row, col), deriving evens."""
        mat = self._lookup.get((row, col))
        if mat is not None:
            return mat
        return derive_even(self, row, col)

    def is_graded(self) -> bool:
        return self.grading != "ungraded"


def make_presentation(
    m: int,
    n: int,
    matrices: Mapping[tuple[int, int], Mat2],
    grading: str = "ungraded",
) -> Presentation:
    return Presentation(m, n, grading, tuple(matrices.items()))


def act(p: Presentation, b: BasisElement, v: Mat2) -> Mat2:
    """Action of a basis element on each column of v; each column is a module vector."""
    alg = p.algebra
    if isinstance(b, Cartan):
        return v * Poly.var(alg.nvars, b.var)
    return p.E(b.row, b.col) * v.shifted(alg.weight_shift(b))


def _intermediate(alg: SuperAlgebra, row: int) -> int:
    """derive_even's odd intermediate for a row: b1 if unbarred, 1 if barred."""
    return 0 if alg.is_barred(row) else alg.m


def derive_even(p: Presentation, row: int, col: int) -> Mat2:
    """Even action matrix: the twisted bracket of e[row,k] and e[k,col].

    k is `_intermediate(row)`, of the other parity, so both factors are
    stored odd matrices.  The result goes into the table `Presentation.E`
    reads first, so each even matrix is derived once per presentation.
    """
    alg = p.algebra
    if row == col:
        raise PresentationError("no root vector with equal indices")
    if alg.is_barred(row) != alg.is_barred(col):
        raise PresentationError("odd matrices are stored, not derived")
    k = _intermediate(alg, row)
    x, y = Root(row, k), Root(k, col)
    result = twisted_bracket(alg, x, p._lookup[row, k], y, p._lookup[k, col])
    p._lookup[row, col] = result
    return result


# -- relation verification ----------------------------------------------------------


class Violation(NamedTuple):
    left: BasisElement
    right: BasisElement
    lhs: Mat2
    rhs: Mat2

    def describe(self, alg: SuperAlgebra, names: Sequence[str]) -> str:
        return (
            f"[{alg.show(self.left)}, {alg.show(self.right)}]: "
            f"lhs {self.lhs.to_strings(names)} != rhs {self.rhs.to_strings(names)}"
        )


class RelationReport(NamedTuple):
    """Outcome of a relation check.

    `checked` counts the relations established, directly or by the
    generating-set lemma of `verify_relations`.
    """

    ok: bool
    violations: tuple[Violation, ...]
    checked: int

    def describe(self, m: int, n: int) -> list[str]:
        alg = algebra(m, n)
        names = default_names(alg.nvars, m)
        return [v.describe(alg, names) for v in self.violations]


def _bracket_matrix(p: Presentation, combo: Mapping[BasisElement, Fraction]) -> Mat2:
    """Representing matrix of a bracket value (Cartans act by multiplication)."""
    out = Mat2.zero(p.nvars)
    for b, c in combo.items():
        if isinstance(b, Cartan):
            out = out + Mat2.scalar(Poly.var(p.nvars, b.var) * c)
        else:
            out = out + p.E(b.row, b.col) * c
    return out


def _violation(p: Presentation, x: Root, y: Root) -> Optional[Violation]:
    """The twisted identity of the root pair (x, y): None if it holds."""
    alg = p.algebra
    lhs = twisted_bracket(alg, x, p.E(x.row, x.col), y, p.E(y.row, y.col))
    rhs = _bracket_matrix(p, alg.super_bracket(x, y))
    return None if lhs == rhs else Violation(x, y, lhs, rhs)


def _generating_pairs(alg: SuperAlgebra) -> list[tuple[Root, Root]]:
    """The root pairs whose relations imply all others (see verify_relations).

    (i) every odd x odd pair, x = y included, except each pair
    {e[i,k], e[k,j]} with i != j and k = `_intermediate(i)`, then (ii)
    every simple even root vector e[i,i+1], e[i+1,i] inside one block
    against every odd root vector.
    """
    odd = alg.odd_roots()

    def defines_even(x: Root, y: Root) -> bool:
        return x.row != y.col and x.col == y.row == _intermediate(alg, x.row)

    pairs = [
        (x, y)
        for a, x in enumerate(odd)
        for y in odd[a:]
        if not (defines_even(x, y) or defines_even(y, x))
    ]
    for i in range(alg.dim - 1):
        if alg.is_barred(i) == alg.is_barred(i + 1):
            for s in (Root(i, i + 1), Root(i + 1, i)):
                pairs.extend((s, c) for c in odd)
    return pairs


def verify_relations(p: Presentation) -> RelationReport:
    """Check every supercommutation relation as a twisted matrix identity.

    For root vectors x, y with weight shifts tau_x, tau_y the module
    axiom for the pair is

        E_x tau_x(E_y) - (-1)^{|x||y|} E_y tau_y(E_x) = E_{[x,y]},

    where the right side expands brackets in the fixed basis and evens
    are the derived matrices.  Relations involving a Cartan element hold
    by construction of the weight shifts and are not re-checked.

    Only the `_generating_pairs` are evaluated when they all hold.
    Write rho(x) = E_x tau_x for the operator of x on Q[h]^2.  The
    identity of (x, y) says [rho x, rho y] = rho [x, y] in End(Q[h]^2),
    because tau_x tau_y = tau_{x+y} is invertible.  Suppose (i) every
    odd x odd identity and (ii) every simple even x odd identity hold.
    The odd pairs {e[i,k], e[k,j]}, i != j, k = `_intermediate(i)`, hold
    without evaluation: their identity is twisted_bracket(e[i,k], e[k,j])
    == E[i,j], and derive_even defines the right side as the left side.
    The pairs with i = j are evaluated, since their bracket lies in h.

    - Every even e_ij equals [e_ik, e_kj] with k in the other block, so
      (i) gives rho(e) = [rho c, rho d] for odd c = e_ik, d = e_kj.
    - Let s be simple even and e = [c, d] even.  Super-Jacobi in
      End(Q[h]^2) gives [rho s, rho e] = [[rho s, rho c], rho d] +
      [rho c, [rho s, rho d]].  (ii) turns the inner brackets into rho
      of odd elements, (i) the outer ones, and super-Jacobi in sl(m|n)
      sums them to rho [s, e].
    - Induction on height.  A non-simple even root vector is e = [s, e']
      with s simple and e' of lower height, so rho e = [rho s, rho e']
      by the previous step.  For odd a, super-Jacobi gives [rho e, rho a]
      = [rho s, [rho e', rho a]] minus [rho e', [rho s, rho a]], and
      (ii) with the induction hypothesis makes that rho [e, a].  This
      gives every even x odd relation.
    - The same expansion of rho f = [rho c, rho d] for even f gives
      every even x even relation from even x odd and (i).
    - Cartan relations hold by construction of the weight shifts.

    The root structure used is that of sl(m|n) as in Kac, "Lie
    superalgebras", Adv. Math. 26 (1977).  So a pass establishes all
    k(k+1)/2 root-pair relations, which is what `checked` reports.
    (ii) is evaluated because the proof uses it: on random inputs (i)
    alone has also agreed with the full set, so no test tells them
    apart.  If any generating identity fails, every pair is checked in
    the fixed order, so the violations listed do not depend on the
    shortcut.
    """
    alg = p.algebra
    roots = alg.root_vectors()
    k = len(roots)
    checked = k * (k + 1) // 2
    for x, y in _generating_pairs(alg):
        if _violation(p, x, y) is not None:
            break
    else:
        return RelationReport(True, (), checked)
    violations: list[Violation] = []
    for a in range(k):
        for b in range(a, k):
            v = _violation(p, roots[a], roots[b])
            if v is not None:
                violations.append(v)
    return RelationReport(not violations, tuple(violations), checked)


# Term products of the pairwise relation check of an input that does not
# classify (`normalform.verified_report`'s fallback), as `relation_work`
# estimates them.  Measured on a 2-CPU machine at 3-35 us per estimated
# product: sl(6|1) with every odd matrix [[c, 1], [0, c]], c = h1 + ... + h6,
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


def pointwise_check(p: Presentation, max_deg: int = 2) -> RelationReport:
    """Cross-check of verify_relations by sampling vectors.

    Applies every pair of basis elements to every monomial vector of
    total degree <= max_deg and compares the supercommutator of the two
    actions against the action of the bracket.  Slower than the matrix
    identities but independent of them.  Each sample is mono * I, whose
    columns are the vectors (mono, 0) and (0, mono): `checked` counts
    both, and a violation records the two sides on the whole sample.
    """
    alg = p.algebra
    nv = alg.nvars
    samples = [Mat2.scalar(Poly(nv, {exps: 1})) for exps in monomials(nv, max_deg)]
    basis = alg.basis()
    violations = []
    checked = 0
    for x in basis:
        for y in basis:
            sign = -1 if alg.parity(x) and alg.parity(y) else 1
            combo = alg.super_bracket(x, y)
            for v in samples:
                lhs = act(p, x, act(p, y, v)) - sign * act(p, y, act(p, x, v))
                rhs = sum((c * act(p, b, v) for b, c in combo.items()), Mat2.zero(nv))
                checked += 2
                if lhs != rhs:
                    violations.append(Violation(x, y, lhs, rhs))
    return RelationReport(not violations, tuple(violations), checked)


# (basis pair, sample) checks of pointwise_check; each costs more as the degree grows
POINTWISE_BUDGET = 10_000


def check_pointwise_budget(p: Presentation, max_deg: int) -> None:
    """Refuse a pointwise_check degree past POINTWISE_BUDGET (pair, sample) checks.

    pointwise_check applies (dim g)^2 basis pairs to C(max_deg + v, v)
    monomial samples, v the number of variables.
    """
    pairs = len(p.algebra.basis()) ** 2
    if pairs * comb(max_deg + p.nvars, p.nvars) > POINTWISE_BUDGET:
        raise PresentationError(
            f"pointwise degree {max_deg} is over the budget of {POINTWISE_BUDGET} "
            "(basis pair, sample) checks"
        )


# Total degree of an odd generator's entries.  The relation checks multiply
# and shift pairs of entries, so their time and the violations they print
# grow with it: on a 2-CPU machine, sl(6|1) with every odd matrix
# [[h1^d, 1], [0, h1^d]] (no module) took 3.8 s at d = 24 and 24 s at d = 64.
DEGREE_BUDGET = 24


# -- the classified family M(a, S) ------------------------------------------------


def _check_family_params(m: int, a: Sequence[Fraction], s: Iterable[int]):
    a = [Fraction(x) for x in a]
    s = frozenset(int(i) for i in s)
    if len(a) != m:
        raise PresentationError(f"need {m} parameters, got {len(a)}")
    if any(x == 0 for x in a):
        raise PresentationError("family parameters must be nonzero")
    if not all(1 <= i <= m for i in s):
        raise PresentationError("subset entries must lie in 1..m")
    return a, s


def build_mas(m: int, a: Sequence[Fraction], s: Iterable[int]) -> Presentation:
    """The graded presentation M(a, S) over sl(m|1).

    For i in S the pair is ([0, a_i h_i; 0, 0], [0, 0; 1/a_i, 0]);
    otherwise the h_i factor moves to the lower generator.
    """
    a, s = _check_family_params(m, a, s)
    nv = m
    # every entry is a Poly over nv variables, so Mat2._of need not re-check them
    z = Poly.zero(nv)
    mats: dict[tuple[int, int], Mat2] = {}
    for i in range(1, m + 1):
        hi = Poly.var(nv, i - 1)
        ai = a[i - 1]
        if i in s:
            upper, lower = ai * hi, Poly.const(nv, 1 / ai)
        else:
            upper, lower = Poly.const(nv, ai), (1 / ai) * hi
        mats[(i - 1, m)] = Mat2._of(((z, upper), (z, z)))
        mats[(m, i - 1)] = Mat2._of(((z, z), (lower, z)))
    return make_presentation(m, 1, mats, grading="g11")


# -- grading bookkeeping -------------------------------------------------------------


class ParityReport(NamedTuple):
    ok: bool
    failures: tuple[str, ...]


def parity_check(p: Presentation) -> ParityReport:
    """Validate the grading flag against the matrix shapes.

    g11 requires every e[i,bj] strictly upper-right and e[bj,i] strictly
    lower-left (swapped for g11bar).  The derived even matrices need no
    check: each is the twisted bracket of a strictly upper and a strictly
    lower matrix (`derive_even`), a twist keeps those shapes, and both
    products of such a pair are diagonal.  Calling this on an ungraded
    presentation is an error.
    """
    if not p.is_graded():
        raise PresentationError("parity_check requires a graded presentation")
    alg = p.algebra
    bar = p.grading == "g11bar"
    failures = []
    for (row, col), mat in p.odd:
        raising = not alg.is_barred(row)
        want_upper = raising ^ bar
        ok = mat.is_strict_upper() if want_upper else mat.is_strict_lower()
        if not ok:
            failures.append(
                f"{alg.show(Root(row, col))} is not strictly "
                f"{'upper-right' if want_upper else 'lower-left'}"
            )
    return ParityReport(not failures, tuple(failures))


def conjugate(p: Presentation, w: Mat2) -> Presentation:
    """Twisted conjugation of the whole tuple: E -> W^-1 E tau(W).

    The grading flag follows the parity of W: diagonal keeps it,
    antidiagonal swaps g11 and g11bar, anything else drops to ungraded.
    """
    alg = p.algebra
    winv = w.inverse_unimodular()  # raises unless W is unimodular
    mats = {}
    for (row, col), mat in p.odd:
        tau = alg.weight_shift(Root(row, col))
        mats[(row, col)] = winv * mat * w.shifted(tau)
    if not p.is_graded():
        grading = "ungraded"
    elif w.is_diagonal():
        grading = p.grading
    elif w.is_antidiagonal():
        grading = "g11bar" if p.grading == "g11" else "g11"
    else:
        grading = "ungraded"
    return make_presentation(p.m, p.n, mats, grading=grading)


# -- interchange format ----------------------------------------------------------------


def _gen_label(alg: SuperAlgebra, row: int, col: int) -> str:
    return alg.show(Root(row, col))


_GEN_LABEL = re.compile(r"e\[(b?)([1-9][0-9]*),(b?)([1-9][0-9]*)\]")


def _gen_position(alg: SuperAlgebra, label: str) -> Optional[tuple[int, int]]:
    """The odd position that a generator label names; None if it names none."""
    match = _GEN_LABEL.fullmatch(label)
    if match is None or bool(match[1]) == bool(match[3]):
        return None
    pos = []
    for bar, digits in (match.group(1, 2), match.group(3, 4)):
        base, size = (alg.m, alg.n) if bar else (0, alg.m)
        # compare lengths first: int() refuses very long digit strings
        if len(digits) > len(str(size)) or int(digits) > size:
            return None
        pos.append(base + int(digits) - 1)
    return pos[0], pos[1]


def _some_keys(keys: Iterable[str], total: int) -> str:
    """The first MAX_SHOWN_VIOLATIONS keys, then a count of the rest."""
    text = str(list(itertools.islice(keys, MAX_SHOWN_VIOLATIONS)))
    if total > MAX_SHOWN_VIOLATIONS:
        text += f" and {total - MAX_SHOWN_VIOLATIONS} more"
    return text


def presentation_from_dict(data: Mapping) -> Presentation:
    if not isinstance(data, Mapping):
        raise PresentationError("presentation file must hold a JSON object")
    json_keys(data, ("format", "m", "n", "grading", "E"), "presentation", PresentationError)
    fmt = data.get("format", FORMAT_PRESENTATION)
    if fmt != FORMAT_PRESENTATION:
        raise PresentationError(
            f"format-version mismatch: expected {FORMAT_PRESENTATION}, got {fmt!r}"
        )
    try:
        m, n = data["m"], data["n"]
    except KeyError as exc:
        raise PresentationError(f"missing key {exc.args[0]!r}") from None
    for key, value in (("m", m), ("n", n)):
        if not _is_json(value, int) or value < 1:
            raise PresentationError(f"{key} must be a positive integer, got {value!r}")
    grading = json_field(data, "grading", str, "presentation", PresentationError)
    if grading not in GRADINGS:
        raise PresentationError(f"unknown grading {grading!r}")
    raw_e = json_field(data, "E", dict, "presentation", PresentationError)
    # The key checks take time and print text in proportion to the file,
    # not to the 2mn generators that m and n announce.
    alg = algebra(m, n)
    found = {label: _gen_position(alg, label) for label in raw_e}
    unknown = sorted(label for label, pos in found.items() if pos is None)
    if unknown:
        raise PresentationError(f"unknown generator keys: {_some_keys(unknown, len(unknown))}")
    given = set(found.values())
    if len(given) < 2 * m * n:
        missing = (_gen_label(alg, *pos) for pos in odd_positions(m, n) if pos not in given)
        raise PresentationError(
            f"missing generator keys: {_some_keys(missing, 2 * m * n - len(given))}"
        )
    names = default_names(alg.nvars, m)
    mats = {}
    # in generator order, each entry checked against DEGREE_BUDGET as soon as
    # it is read, so an input over the budget costs the parse of its first
    # such entry and of the entries before it
    for pos in odd_positions(m, n):
        label = _gen_label(alg, *pos)
        mats[pos] = Mat2.from_strings(raw_e[label], names, label, PresentationError, DEGREE_BUDGET)
    return make_presentation(m, n, mats, grading=grading)


def presentation_from_json(text: str) -> Presentation:
    return presentation_from_dict(load_json(text, PresentationError))
