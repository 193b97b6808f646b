"""Independent oracles used only by the test suite.

Polynomial identities are cross-checked through sympy (a separate code
base with its own expansion, substitution, gcd, and factorization);
Lie-superalgebra structure constants through a from-scratch supermatrix
commutator that shares no code with the package; relation checks
through the loop over every pair of root vectors; the hom system
through the whole `Mat2` defect of each unknown, with sympy's RREF as
the judge of row spaces; the emptiness evaluation witness through
an exhaustive scan of its grid; and the classifier's pair steps through
their eager order, every precondition tested before the construction;
and the polynomial parser through its former one-pass tokenizer, which
finds every column up front.
"""

import itertools
import re
import sys
from fractions import Fraction
from math import lcm

import sympy
from sympy.polys.matrices import DomainMatrix

from uhfree.normalform import ClassificationError, NilParams, reconstruct_nil
from uhfree.poly import (
    DEGREE_LIMIT,
    _OVER_LIMIT,
    Poly,
    PolyParseError,
    apply_shift,
    divides_exactly,
    monomials,
    poly_gcd,
)
from uhfree.presentation import InvariantBreach, Mat2, RelationReport, Violation
from uhfree.superlie import Cartan, Root


def to_sympy(p: Poly, symbols):
    expr = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, exps):
            if e:
                term *= s**e
        expr += term
    return sympy.expand(expr)


def from_sympy(expr, symbols) -> Poly:
    """The Poly of a polynomial expression, expanded by sympy's Poly.

    sympy's Poly is dense in its generators, so it gets only the symbols
    that occur: a 200-variable case stays fast.
    """
    expr = sympy.sympify(expr)
    nvars = len(symbols)
    used = [i for i, s in enumerate(symbols) if s in expr.free_symbols]
    if not used:
        q = sympy.Rational(sympy.expand(expr))
        return Poly.const(nvars, Fraction(int(q.p), int(q.q)))
    terms = {}
    for exps, coeff in sympy.Poly(expr, *[symbols[i] for i in used]).terms():
        q = sympy.Rational(coeff)
        full = [0] * nvars
        for i, e in zip(used, exps):
            full[i] = int(e)
        terms[tuple(full)] = Fraction(int(q.p), int(q.q))
    return Poly(nvars, terms)


def format_oracle(p: Poly, names) -> str:
    """The printed form of p built from its Fraction view and str(Fraction):
    graded-lex descending terms, a coefficient of magnitude 1 left off a
    non-constant monomial."""
    pieces = []
    order = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    for exps, coeff in order:
        sign = ("-" if coeff < 0 else "") if not pieces else (" - " if coeff < 0 else " + ")
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        pieces.append(sign + "*".join(factors))
    return "".join(pieces) or "0"


def sympy_text(text: str, names):
    """A polynomial text of the uhfree grammar read by sympy's own parser."""
    return sympy.expand(
        sympy.sympify(text.replace("^", "**"), locals={n: sympy.Symbol(n) for n in names})
    )


def shift_oracle(p: Poly, shifts, symbols) -> Poly:
    """Substitution h_i -> h_i - s_i performed entirely inside sympy."""
    expr = to_sympy(p, symbols)
    # xreplace substitutes every symbol at once, like subs(simultaneous=True), and faster
    return from_sympy(expr.xreplace({s: s - k for s, k in zip(symbols, shifts)}), symbols)


def specialize_oracle(p: Poly, values, symbols) -> Poly:
    """p with each variable whose value is not None substituted inside sympy."""
    fixed = {s: sympy.Rational(v.numerator, v.denominator) for s, v in zip(symbols, values) if v is not None}
    kept = [s for s, v in zip(symbols, values) if v is None]
    return from_sympy(to_sympy(p, symbols).xreplace(fixed), kept)


def division_oracle(d: Poly, p: Poly, symbols):
    """p / d when d divides p exactly, else None.  One polynomial is a
    Groebner basis of the ideal it generates, so sympy's division leaves
    remainder 0 exactly when d divides p."""
    q, r = sympy.div(to_sympy(p, symbols), to_sympy(d, symbols), *symbols)
    return from_sympy(q, symbols) if r == 0 else None


def gcd_oracle(p: Poly, q: Poly, symbols) -> Poly:
    g = sympy.gcd(to_sympy(p, symbols), to_sympy(q, symbols))
    return from_sympy(g, symbols)


def common_divisors_oracle(p: Poly, symbols):
    """Non-unit irreducible factors from sympy's factorization."""
    _, factors = sympy.factor_list(to_sympy(p, symbols))
    return [from_sympy(f, symbols) for f, _ in factors]


def integer_rows_oracle(parts, symbols):
    """The rows of sum_k x_k p_k built by sympy: per monomial {k: coefficient}
    times the lcm of the parts' coefficient denominators, zero entries and
    empty rows dropped, sorted so that the order of rows does not count."""
    den, sums = 1, {}
    for k, p in parts:
        expr = to_sympy(p, symbols)
        if expr != 0:
            den = sympy.ilcm(den, *(sympy.Rational(c).q for c in sympy.Poly(expr, *symbols).coeffs()))
        sums[k] = sums.get(k, 0) + expr
    rows = {}
    for k, expr in sums.items():
        expr = sympy.expand(expr)
        if expr != 0:
            for mono, c in sympy.Poly(expr, *symbols).terms():
                rows.setdefault(mono, {})[k] = int(c * den)
    return sorted(sorted(row.items()) for row in rows.values())


# -- independent supermatrix bracket ------------------------------------------------


def elementary(dim, i, j):
    return [[1 if (r, c) == (i, j) else 0 for c in range(dim)] for r in range(dim)]


def matmul(a, b):
    dim = len(a)
    return [
        [sum(a[r][k] * b[k][c] for k in range(dim)) for c in range(dim)]
        for r in range(dim)
    ]


def matsub(a, b, sign=1):
    dim = len(a)
    return [[a[r][c] - sign * b[r][c] for c in range(dim)] for r in range(dim)]


def supercommutator(x, y, parity_x, parity_y):
    sign = -1 if parity_x and parity_y else 1
    return matsub(matmul(x, y), matmul(y, x), sign)


# -- every root pair -------------------------------------------------------------------


def all_pairs_report(p) -> RelationReport:
    """Evaluate the twisted identity of every pair of root vectors, in order."""
    alg = p.algebra
    roots = alg.root_vectors()

    def bracket_matrix(combo):
        out = Mat2.zero(p.nvars)
        for b, c in combo.items():
            if isinstance(b, Cartan):
                out = out + Mat2.scalar(Poly.var(p.nvars, b.var) * c)
            else:
                out = out + p.E(b.row, b.col) * c
        return out

    violations = []
    checked = 0
    for a in range(len(roots)):
        for b in range(a, len(roots)):
            x, y = roots[a], roots[b]
            Ex, Ey = p.E(x.row, x.col), p.E(y.row, y.col)
            tx, ty = alg.weight_shift(x), alg.weight_shift(y)
            first, second = Ex * Ey.shifted(tx), Ey * Ex.shifted(ty)
            lhs = first + second if alg.parity(x) and alg.parity(y) else first - second
            rhs = bracket_matrix(alg.super_bracket(x, y))
            checked += 1
            if lhs != rhs:
                violations.append(Violation(x, y, lhs, rhs))
    return RelationReport(not violations, tuple(violations), checked, checked)


# -- the hom system, one unknown at a time ---------------------------------------------


def hom_rows_oracle(src, dst, bound, entries, sign):
    """The rows of the hom system for W with entries of degree <= bound at `entries`.

    Unknown k is h^mu at entries[k // C(bound + v, v)], mu running over
    `monomials`.  Its matrix W_k is multiplied out in full: the defect
    W_k E_g^src - sign E_g^dst tau_g(W_k) of every odd generator g, by
    `Mat2` products.  Each (g, cell, monomial) gives the row
    {k: coefficient}, read through the Fraction view `Poly.terms`.
    """
    nv = src.nvars
    alg = src.algebra
    zero = Poly.zero(nv)
    defects = []
    for rc in entries:
        for mu in monomials(nv, bound):
            w = Mat2(
                tuple(
                    tuple(Poly(nv, {mu: 1}) if (r, c) == rc else zero for c in range(2))
                    for r in range(2)
                )
            )
            defects.append([
                w * e_src - sign * (dst.E(row, col) * w.shifted(alg.weight_shift(Root(row, col))))
                for (row, col), e_src in src.odd
            ])
    rows = []
    for g in range(len(src.odd)):
        for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
            by_exp = {}
            for k, per_gen in enumerate(defects):
                for exps, coeff in per_gen[g][cell].terms.items():
                    by_exp.setdefault(exps, {})[k] = coeff
            rows.extend(by_exp.values())
    return rows


def rref_oracle(rows, ncols):
    """The nonzero rows of sympy's reduced row echelon form of the sparse rows."""
    if not rows:
        return ()
    dense = [[sympy.QQ(r.get(c, 0)) for c in range(ncols)] for r in rows]
    reduced, _ = DomainMatrix(dense, (len(rows), ncols), sympy.QQ).rref()
    return tuple(tuple(row) for row in reduced.to_Matrix().tolist() if any(row))


# -- brute-force evaluation witness ----------------------------------------------------


def eval_witness_oracle(ring, a, b):
    """The first point of {0..3}^(m+n-1), in itertools order, where the two
    route matrices a and b over Q[h] are non-proportional; found by
    evaluating every entry at every grid point in turn.
    """
    nb = ring.base_nvars
    names = ring.names
    cells = [(r, c) for r in range(2) for c in range(2)]
    for point in itertools.product((0, 1, 2, 3), repeat=nb):
        vals = {}
        for r, c in cells:
            vals[(r, c, "a")] = a[r, c].evaluate(point)
            vals[(r, c, "b")] = b[r, c].evaluate(point)
        for k1 in range(len(cells)):
            for k2 in range(len(cells)):
                if k1 == k2:
                    continue
                e1, e2 = cells[k1], cells[k2]
                lhs = vals[(*e1, "a")] * vals[(*e2, "b")]
                rhs = vals[(*e2, "a")] * vals[(*e1, "b")]
                if lhs != rhs:
                    return {
                        "point": {names[v]: str(point[v]) for v in range(nb)},
                        "entries": [list(e1), list(e2)],
                        "lhs": str(lhs),
                        "rhs": str(rhs),
                    }
    return None


# -- the classifier's pair steps, preconditions first ---------------------------------


def eager_nil_factor(p: Mat2, tau):
    """`nil_factor` with the twisted square tested before the factorization."""
    nv = p.nvars
    if not (p * p.shifted(tuple(-x for x in tau))).is_zero:
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


def eager_canonicalize_pair(p: Mat2, q: Mat2, sigma, a: Poly):
    """`canonicalize_pair` with the three pair identities tested first and
    the witness checked through W^{-1}."""
    nv = p.nvars
    inv = tuple(-x for x in sigma)
    if a.is_zero or a.total_degree() != 1:
        raise ClassificationError("the distinguished scalar must have degree one")
    if apply_shift(sigma, a) != a:
        raise ClassificationError("the distinguished scalar must be fixed by the twist")
    if p * q.shifted(sigma) + q * p.shifted(inv) != Mat2.scalar(a):
        raise ClassificationError("pair does not satisfy the scalar anticommutator identity")
    if p.is_strict_upper() and q.is_strict_lower():
        return (p, q), Mat2.identity(nv)

    def D(x):
        return apply_shift(inv, x)

    def Dinv(x):
        return apply_shift(sigma, x)

    theta, alpha, beta = eager_nil_factor(p, inv)
    omega, dgam, ggam = eager_nil_factor(q, sigma)
    cval = (D(alpha) * Dinv(ggam) - Dinv(dgam) * D(beta)).constant_value()
    if cval is None or cval == 0:
        raise InvariantBreach("pivot scalar is not a nonzero constant")
    w = Mat2(((Dinv(ggam), -Dinv(dgam)), (D(beta), -D(alpha)))).inverse_unimodular()
    u = cval * theta
    v = -cval * omega
    lead = 1 / u.leading_coeff()
    w = w * Mat2.of(nv, ((1, 0), (0, lead)))
    u = u * lead
    v = v * (1 / lead)
    canon_p = Mat2.of(nv, ((0, u), (0, 0)))
    canon_q = Mat2.of(nv, ((Poly.zero(nv), 0), (v, 0)))
    winv = w.inverse_unimodular()
    if (winv * p * w.shifted(sigma), winv * q * w.shifted(inv)) != (canon_p, canon_q):
        raise InvariantBreach("canonicalizing witness failed to reproduce the normal form")
    if apply_shift(inv, u) * v != a:
        raise InvariantBreach("normal form does not satisfy the product identity")
    return (canon_p, canon_q), w


# -- the polynomial grammar, columns found while tokenizing ---------------------------

# One token per match, after optional whitespace: an integer, a name, an
# operator, or (group 4) any other character, which is an error.
_TOKEN_ORACLE_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()])|(\S))")
_INT, _NAME, _OP, _BAD = 1, 2, 3, 4


def _to_int(value: str, col: int) -> int:
    try:
        return int(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise PolyParseError(f"integer has more than {limit} digits", col) from None


def parse_poly_oracle(text: str, names) -> Poly:
    """`parse_poly` as one `re.finditer` pass that lists (kind, text,
    column) tokens, every column found up front, then an index loop over
    them.  A character that starts no token is reported before any
    grammar error."""
    nvars = len(names)
    index = {name: i for i, name in enumerate(names)}
    toks = []
    for match in _TOKEN_ORACLE_RE.finditer(text):
        kind = match.lastindex
        col = match.start(kind) + 1
        if kind == _BAD:
            raise PolyParseError(f"unexpected character {match.group(kind)!r}", col)
        toks.append((kind, match.group(kind), col))
    if not toks:
        raise PolyParseError("empty polynomial", 1)
    end = len(toks)
    toks.append((0, "", len(text) + 1))  # the end of the text, read as "got ''"

    def integer(pos: int) -> int:
        kind, value, col = toks[pos]
        if kind != _INT:
            raise PolyParseError(f"expected integer, got {value!r}", col)
        return _to_int(value, col)

    # (key, numerator, denominator) of every term, summed at the end over
    # the lcm of the denominators
    top = nvars << 4
    terms = []
    pos, sign = 0, 1
    if toks[0][1] in ("+", "-"):
        pos, sign = 1, (-1 if toks[0][1] == "-" else 1)
    while True:
        key, deg, den = 0, 0, 1
        kind, value, start = toks[pos]
        if kind == _INT:
            coeff = sign * _to_int(value, start)
            pos += 1
            if toks[pos][1] == "/":
                den = integer(pos + 1)
                if den < 1:
                    raise PolyParseError("denominator must be positive", start)
                pos += 2
            factor = toks[pos][1] == "*"
            pos += factor
        elif kind == _NAME:
            coeff, factor = sign, True
        else:
            raise PolyParseError(f"expected coefficient or variable, got {value!r}", start)
        # a term that starts with a name starts with its first factor; every
        # other factor follows a "*"
        while factor:
            kind, value, col = toks[pos]
            if kind != _NAME:
                raise PolyParseError(f"expected variable after '*', got {value!r}", col)
            i = index.get(value)
            if i is None:
                raise PolyParseError(f"unknown variable {value!r}", col)
            power = 1
            pos += 1
            if toks[pos][1] == "^":
                power = integer(pos + 1)
                if power < 1:
                    raise PolyParseError("exponent must be positive", col)
                pos += 2
            # a field can overflow only when the degree is over the limit
            key += power << ((nvars - 1 - i) << 4)
            deg += power
            factor = toks[pos][1] == "*"
            pos += factor
        if deg >= DEGREE_LIMIT:
            raise PolyParseError(_OVER_LIMIT % deg, start)
        terms.append((key + (deg << top), coeff, den))
        if pos == end:
            break
        kind, value, col = toks[pos]
        if kind != _OP or value not in ("+", "-"):
            raise PolyParseError(f"expected '+' or '-', got {value!r}", col)
        pos, sign = pos + 1, (-1 if value == "-" else 1)
    den = lcm(*(d for _, _, d in terms))
    acc: dict[int, int] = {}
    for key, n, d in terms:
        acc[key] = acc.get(key, 0) + n * (den // d)
    return Poly._reduced(nvars, {key: n for key, n in acc.items() if n}, den)
