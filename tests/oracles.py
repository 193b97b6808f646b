"""Independent oracles used only by the test suite.

Polynomial identities are cross-checked through sympy (a separate code
base with its own expansion, substitution, gcd, and factorization);
Lie-superalgebra structure constants through a from-scratch supermatrix
commutator that shares no code with the package; relation checks
through the loop over every pair of root vectors; the hom system
through the whole `Mat2` defect of each unknown, with sympy's RREF as
the judge of row spaces; and the emptiness evaluation witness through
an exhaustive scan of its grid.
"""

import itertools
from fractions import Fraction

import sympy
from sympy.polys.matrices import DomainMatrix

from uhfree.poly import Poly, monomials
from uhfree.presentation import Mat2, RelationReport, Violation
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
