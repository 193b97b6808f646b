import hashlib
import itertools
import json
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
import sympy

from uhfree import morphisms
from uhfree.poly import (
    DEGREE_LIMIT,
    Poly,
    PolyError,
    apply_shift,
    compose_univariate,
    default_names,
    monomials,
)
from uhfree.mat2 import InvariantBreach, Mat2
from uhfree.presentation import (
    act,
    build_mas,
    conjugate,
    make_presentation,
)
from uhfree.morphisms import (
    ENTRIES,
    SYSTEMS,
    MorphismError,
    _in_span,
    _nullspace,
    check_filtration_budget,
    check_intertwiner,
    endo_f_polynomial,
    endo_ring_basis,
    filtration,
    filtration_separators,
    idempotent_scan,
    iso_test,
    sl11_submodule_shape,
    solve_hom,
)
from uhfree.superlie import Root

from .helpers import (
    build_mas_bar,
    family_entries,
    in_layer,
    random_nonzero_fraction,
    random_unimodular,
)
from .oracles import hom_rows_oracle, rref_oracle

DATA = Path(__file__).parent / "data"

C = lambda nv, m: sum((Poly.var(nv, j) for j in range(m)), Poly.zero(nv))


def span_matches(sols, expected):
    """Mutual containment of two spans of diagonal F-type matrices."""
    def key(mat):
        return mat

    got = [s.w for s in sols]
    assert len(got) == len(expected)
    # each expected basis vector solves the same system, and dimensions
    # agree, so comparing the generated F-polynomials suffices
    return True


def _random_system(rng, nrows, ncols, draw=random_nonzero_fraction):
    """Sparse rational rows: fresh ones (at most a random cap of them, so
    tall systems keep a kernel too), combinations of earlier ones, zero
    rows and empty rows.  draw(rng, 5) gives each fresh entry, draw(rng,
    4) each factor of a combination."""
    cap = rng.randint(0, min(nrows, ncols))
    rows, fresh = [], 0
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.2:
            rows.append({rng.randrange(ncols): Fraction(0)})
        elif fresh < cap and (kind < 0.7 or len(rows) < 2):
            fresh += 1
            cols = rng.sample(range(ncols), rng.randint(1, min(ncols, 6)))
            rows.append({c: draw(rng, 5) for c in cols})
        elif len(rows) >= 2:
            r1, r2 = rng.sample(rows, 2)
            f1, f2 = draw(rng, 4), draw(rng, 4)
            cols = set(r1) | set(r2)
            rows.append({c: f1 * r1.get(c, 0) + f2 * r2.get(c, 0) for c in cols})
        else:
            rows.append({})
    return rows


def _integer_rows(rows, rng=None):
    """A rational system as `poly.integer_rows` writes it: each row times a
    common multiple of its denominators (the least, or a random multiple of
    it with either sign), its zero entries and its empty rows left out."""
    out = []
    for r in rows:
        den = lcm(*(x.denominator for x in r.values()))
        if rng is not None:
            den *= rng.choice((-6, 1, 35))
        row = {c: int(x * den) for c, x in r.items() if x}
        if row:
            out.append(row)
    return out


def _sympy_nullspace(rows, ncols):
    dense = [[sympy.Rational(r.get(c, 0)) for c in range(ncols)] for r in rows]
    mat = sympy.Matrix(dense) if rows else sympy.zeros(0, ncols)
    return [[Fraction(int(x.p), int(x.q)) for x in vec] for vec in mat.nullspace()]


def _sympy_in_span(target, basis):
    """Is the sympy polynomial target in the span of basis?  By sympy.linsolve
    on the coefficient equations of sum c_k basis_k - target in x."""
    x = sympy.Symbol("x")
    cs = [sympy.Symbol(f"c{k}") for k in range(len(basis))]
    expr = sympy.expand(sum((c * f for c, f in zip(cs, basis)), -target))
    if expr == 0 or not cs:
        return expr == 0
    return sympy.linsolve(sympy.Poly(expr, x).all_coeffs(), cs) != sympy.S.EmptySet


class TestInSpan:
    @staticmethod
    def both(coeffs):
        """The univariate Poly and sympy polynomial with these coefficients, constant first."""
        x = sympy.Symbol("x")
        poly = Poly(1, {(k,): c for k, c in enumerate(coeffs)})
        return poly, sum((sympy.Rational(c) * x**k for k, c in enumerate(coeffs)), sympy.S.Zero)

    @staticmethod
    def random_coeffs(rng):
        return [
            random_nonzero_fraction(rng) if rng.random() < 0.6 else 0
            for _ in range(rng.randint(1, 5))
        ]

    def test_matches_sympy_linsolve(self, rng):
        for _ in range(120):
            members = [self.random_coeffs(rng) for _ in range(rng.randint(0, 4))]
            if members and rng.random() < 0.5:
                # a combination of the members, so the answer is yes
                coeffs = [0] * 5
                for member in members:
                    f = random_nonzero_fraction(rng, 3)
                    for k, c in enumerate(member):
                        coeffs[k] += f * c
            else:
                coeffs = self.random_coeffs(rng)
            basis, target = [self.both(cs) for cs in members], self.both(coeffs)
            want = _sympy_in_span(target[1], [q for _, q in basis])
            assert _in_span(target[0], [p for p, _ in basis]) == want

    def test_empty_basis_spans_only_zero(self):
        assert _in_span(Poly.zero(1), [])
        assert not _in_span(Poly.one(1), [])
        assert _sympy_in_span(sympy.S.Zero, []) and not _sympy_in_span(sympy.S.One, [])

    def test_zero_target_is_in_every_span(self, rng):
        for _ in range(10):
            basis = [self.both(self.random_coeffs(rng)) for _ in range(rng.randint(1, 3))]
            assert _in_span(Poly.zero(1), [p for p, _ in basis])
            assert _sympy_in_span(sympy.S.Zero, [q for _, q in basis])

    def test_cancelling_members(self):
        # f and -f cancel, and f + g - (f + g) does too: the span is that of f, g
        f, g = self.both([1, Fraction(1, 2)]), self.both([0, 0, 3])
        fg = self.both([1, Fraction(1, 2), 3])
        minus_f = self.both([-1, Fraction(-1, 2)])
        basis = [f, minus_f, g, fg]
        for coeffs, want in (([1, Fraction(1, 2)], True), ([2, 1, -6], True), ([0, 1], False)):
            target = self.both(coeffs)
            assert _sympy_in_span(target[1], [q for _, q in basis]) == want
            assert _in_span(target[0], [p for p, _ in basis]) == want


class TestNullspace:
    SHAPES = [(0, 3), (1, 1), (3, 1), (1, 5), (4, 4), (6, 12), (12, 6), (8, 30), (30, 8)]
    SHAPES += [(20, 20), (25, 40), (40, 25), (40, 40)]

    @pytest.mark.parametrize("nrows,ncols", SHAPES)
    def test_matches_sympy_vector_for_vector(self, rng, nrows, ncols):
        for _ in range(6):
            rows = _random_system(rng, nrows, ncols)
            want = _sympy_nullspace(rows, ncols)
            assert _nullspace(_integer_rows(rows), ncols) == want
            shuffled = _integer_rows(rows)
            rng.shuffle(shuffled)
            assert _nullspace(shuffled, ncols) == want

    def test_rows_are_not_modified(self, rng):
        rows = _integer_rows(_random_system(rng, 12, 10))
        before = [dict(r) for r in rows]
        _nullspace(rows, 10)
        assert rows == before

    @pytest.mark.parametrize("nrows,ncols", [(3, 5), (8, 8), (12, 20), (20, 12), (25, 25)])
    def test_thirty_digit_entries_match_sympy_vector_for_vector(self, rng, nrows, ncols):
        # fraction-free elimination multiplies rows by pivots; with 30-digit
        # numerators and denominators the basis must still be exact
        def draw(rng, _):
            num = rng.randrange(10**29, 10**30) * rng.choice((1, -1))
            return Fraction(num, rng.randrange(10**29, 10**30))

        biggest = 0
        for _ in range(4):
            rows = _random_system(rng, nrows, ncols, draw)
            biggest = max([biggest] + [abs(x.numerator) for r in rows for x in r.values()])
            want = _sympy_nullspace(rows, ncols)
            assert _nullspace(_integer_rows(rows), ncols) == want
            rng.shuffle(rows)
            assert _nullspace(_integer_rows(rows), ncols) == want
        assert biggest > 10**29

    def test_integer_and_fraction_rows_agree(self, rng):
        # each row times a common multiple of its denominators, not the least
        rows = _random_system(rng, 15, 12)
        scaled = _integer_rows(rows, rng)
        assert _nullspace(scaled, 12) == _nullspace(_integer_rows(rows), 12)
        assert _nullspace(scaled, 12) == _sympy_nullspace(rows, 12)


def test_every_hom_basis_matches_its_digest():
    # sha256 of the solve_hom output, one JSON line [parity, to_strings(W)]
    # per solution, for M(a, S), Mbar(a, S) and a polynomial conjugate of
    # M(a, S) with a = (2, -1/3, 5)[:m], S = {1}, as written by the solver
    # that eliminated a dense matrix
    want = json.loads((DATA / "hom_digests.json").read_text())
    assert len(want) == 156

    def inputs(m):
        a = (Fraction(2), Fraction(-1, 3), Fraction(5))[:m]
        plain = build_mas(m, a, (1,))
        poly = conjugate(plain, Mat2.of(m, ((1, Poly.var(m, 0)), (0, 1))))
        return {"plain": plain, "bar": build_mas_bar(m, a, (1,)), "poly": poly}

    presentations = {m: inputs(m) for m in (1, 2, 3)}
    got = {}
    for key in want:
        m, src, dst, category, bound = key.split("_")
        ps = presentations[int(m[1:])]
        sols = solve_hom(ps[src], ps[dst], int(bound[1:]), category)
        names = default_names(ps[src].nvars)
        lines = [json.dumps([s.parity, s.w.to_strings(names)]) for s in sols]
        got[key] = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert got == want
    # the odd (signed) system is covered: Hom(M, Mbar) has odd solutions
    assert any(s.parity == "odd" for s in solve_hom(
        presentations[2]["plain"], presentations[2]["bar"], 1, "M11"
    ))


def _hom_inputs(m):
    """Graded and ungraded presentations over sl(m|1), keyed by name.

    plain, bar and other are graded; poly and other_poly are polynomial
    conjugates.  other is not isomorphic to plain or bar in any category.
    """
    a = (Fraction(2), Fraction(-1, 3), Fraction(5))[:m]
    other_a = (Fraction(1, 2), Fraction(3), Fraction(-2))[:m]
    twist = Mat2.of(m, ((1, Poly.var(m, 0)), (0, 1)))
    plain = build_mas(m, a, (1,))
    other = build_mas(m, other_a, ())
    return {
        "plain": plain,
        "bar": build_mas_bar(m, a, (1,)),
        "poly": conjugate(plain, twist),
        "other": other,
        "other_poly": conjugate(other, twist.inverse_unimodular()),
    }


GRADED_PAIRS = [("plain", "plain"), ("bar", "bar"), ("plain", "bar"), ("bar", "other"), ("other", "plain")]
UNGRADED_PAIRS = [("poly", "poly"), ("poly", "plain"), ("other_poly", "poly"), ("bar", "other_poly")]


class TestHomRowsAgainstOracle:
    """The two-block integer rows span the row space of the whole per-unknown defects."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    def test_same_rref_as_the_mat2_defects(self, m, bound):
        ps = _hom_inputs(m)
        monos = list(monomials(ps["plain"].nvars, bound))
        cases = [(pair, system) for pair in GRADED_PAIRS for cats in ("M2", "M11") for system in SYSTEMS[cats]]
        cases += [(pair, system) for pair in UNGRADED_PAIRS for system in SYSTEMS["M2"]]
        assert {system for _, system in cases} == {s for systems in SYSTEMS.values() for s in systems}
        for (src, dst), (entries, sign, _) in cases:
            ncols = len(entries) * len(monos)
            got = morphisms._hom_rows(ps[src], ps[dst], monos, entries, sign)
            assert all(type(x) is int and x for row in got for x in row.values())
            want = hom_rows_oracle(ps[src], ps[dst], bound, entries, sign)
            assert rref_oracle(got, ncols) == rref_oracle(want, ncols), (src, dst, entries)

    def test_products_at_the_degree_limit(self):
        # sl(1|1) with an entry of degree 2^15 - 2: at bound 1 the products
        # reach degree 2^15 - 1 and the rows still match the oracle's; at
        # bound 2 a product would pass the limit and is refused
        nv = 1
        top = Poly(nv, {(DEGREE_LIMIT - 2,): 1})
        p = make_presentation(1, 1, {
            (0, 1): Mat2.of(nv, ((0, top), (0, 0))),
            (1, 0): Mat2.of(nv, ((0, 0), (1, 0))),
        })
        monos = list(monomials(nv, 1))
        got = morphisms._hom_rows(p, p, monos, ENTRIES, 1)
        want = hom_rows_oracle(p, p, 1, ENTRIES, 1)
        assert rref_oracle(got, 8) == rref_oracle(want, 8)
        sols = solve_hom(p, p, 1)
        assert max(e.total_degree() for s in sols for row in s.w.rows for e in row) <= 1
        with pytest.raises(PolyError, match="total degree 32768 is over the limit"):
            solve_hom(p, p, 2)


class TestSolveHom:
    def test_endomorphisms_of_the_family(self):
        p = build_mas(2, (1, 1), ())
        sols = solve_hom(p, p, 2)
        assert len(sols) == 3
        assert all(s.parity == "even" for s in sols)
        ws = {s.w for s in sols}
        nv = 2
        c = C(nv, 2)
        assert Mat2.identity(nv) in ws or any(
            not s.w.is_zero and s.w[0, 0].constant_value() is not None for s in sols
        )
        # the span contains the two prescribed elements
        expected1 = Mat2(((Poly.one(nv), Poly.zero(nv)), (Poly.zero(nv), Poly.one(nv))))
        expected2 = Mat2(((c + 1, Poly.zero(nv)), (Poly.zero(nv), c)))
        fs = [endo_f_polynomial(p, s.w) for s in sols]
        assert _in_span(Poly.one(1), fs)
        assert _in_span(Poly.var(1, 0), fs)

    def test_span_equals_predicted_basis(self):
        for m, a, s, bound in (
            (2, (1, 1), (), 3),
            (2, (2, 3), (1,), 2),
            (3, (1, 2, 3), (2,), 2),
        ):
            p = build_mas(m, a, s)
            sols = solve_hom(p, p, bound)
            assert len(sols) == bound + 1
            fs = [endo_f_polynomial(p, sol.w) for sol in sols]
            for k in range(bound + 1):
                assert _in_span(Poly(1, {(k,): 1}), fs)

    def test_unequal_subsets_admit_only_zero(self):
        p1 = build_mas(2, (1, 1), (1,))
        p2 = build_mas(2, (1, 1), (2,))
        assert solve_hom(p1, p2, 3) == []

    def test_scaled_parameters_give_constant_invertible_solution(self):
        src = build_mas(2, (2, 4), ())
        dst = build_mas(2, (1, 2), ())
        sols = solve_hom(src, dst, 0)
        assert len(sols) == 1
        w = sols[0].w
        assert w.is_unimodular()
        ratio = w[1, 1].constant_value() / w[0, 0].constant_value()
        assert ratio == 2

    def test_even_hom_lemma_on_random_family_pairs(self, rng):
        # every hom between family members is purely even
        for _ in range(4):
            m = rng.choice([1, 2, 3])
            a = tuple(random_nonzero_fraction(rng) for _ in range(m))
            b = tuple(random_nonzero_fraction(rng) for _ in range(m))
            s = frozenset(i for i in range(1, m + 1) if rng.random() < 0.5)
            src, dst = build_mas(m, a, s), build_mas(m, b, s)
            for sol in solve_hom(src, dst, 3, category="M2"):
                assert sol.parity == "even"
            for sol in solve_hom(src, dst, 3, category="M11"):
                if sol.parity == "odd":
                    assert sol.w.is_zero

    def test_endo_shape_invariant(self, rng):
        # w1 = Delta_i^{-1}(w4) for every i, for every even endomorphism
        p = build_mas(3, (1, 2, 3), (1,))
        alg = p.algebra
        for sol in solve_hom(p, p, 2):
            w1, w4 = sol.w[0, 0], sol.w[1, 1]
            for i in range(3):
                delta_i = alg.weight_shift(Root(i, 3))  # sigma_i Delta^{-1}
                assert w1 == apply_shift(delta_i, w4)

    def test_the_budget_counts_the_unknowns_of_the_widest_system(self, monkeypatch):
        # graded sl(3|1): 2 x C(14 + 3, 3) = 1 360 unknowns pass, 2 x C(18, 3) = 1 632 do not;
        # ungraded, 4 x C(11 + 3, 3) = 1 456 pass and 4 x C(15, 3) = 1 820 do not
        monkeypatch.setattr(morphisms, "_solve_system", lambda *args: [])
        graded = build_mas(3, (1, 2, 3), (1,))
        ungraded = make_presentation(3, 1, dict(graded.odd), grading="ungraded")
        for p, last in ((graded, 14), (ungraded, 11)):
            assert solve_hom(p, p, last) == []
            with pytest.raises(MorphismError, match="over the budget of 1500 unknowns"):
                solve_hom(p, p, last + 1)

    def test_graded_category_needs_graded_inputs(self):
        p = build_mas(2, (1, 1), ())
        q = conjugate(p, Mat2.of(2, ((1, Poly.var(2, 0)), (0, 1))))
        with pytest.raises(MorphismError):
            solve_hom(p, q, 1, category="M11")


def family_members(m, a):
    """M(a, S) and Mbar(a, S) over sl(m|1) for every S in 1..m."""
    for bits in range(2**m):
        s = [i for i in range(1, m + 1) if bits >> (i - 1) & 1]
        yield build_mas(m, a, s)
        yield build_mas_bar(m, a, s)


class TestInjectivity:
    """Every nonzero morphism between rank-2 U(h)-free modules is injective,
    det W != 0: a U(h)-torsion-free sl(m|1)-module of rank 1 is zero, so the
    image of a nonzero morphism has rank 2."""

    def test_every_nonzero_morphism_has_a_nonzero_determinant(self, rng):
        # every ordered pair of M and Mbar shapes, in M2, M11 and M11even, at
        # bounds 0..3 for m <= 2 and 0..1 for m = 3: 960 basis vectors, and a
        # random combination of the vectors of each parity in a basis
        solutions = 0
        for m, bounds in ((1, range(4)), (2, range(4)), (3, range(2))):
            members = list(family_members(m, (1, Fraction(-2), Fraction(1, 3))[:m]))
            for src, dst, category, bound in itertools.product(
                members, members, ("M2", "M11", "M11even"), bounds
            ):
                sols = solve_hom(src, dst, bound, category=category)
                solutions += len(sols)
                for parity in sorted({sol.parity for sol in sols}):
                    ws = [sol.w for sol in sols if sol.parity == parity]
                    combination = sum(
                        (w * random_nonzero_fraction(rng) for w in ws[1:]),
                        ws[0] * random_nonzero_fraction(rng),
                    )
                    for w in ws + [combination]:
                        assert not w.det().is_zero, (src, dst, category, bound)
        assert solutions == 960


class TestReverification:
    """solve_hom and iso_test re-verify what they return; a planted wrong answer is caught."""

    BAD = Mat2.of(2, ((1, 0), (0, 2)))  # diag(1, 2) is no endomorphism of M(a, S)

    def test_solve_hom_rejects_a_wrong_solution(self, monkeypatch):
        p = build_mas(2, (1, 2), (1,))
        monkeypatch.setattr(morphisms, "_solve_system", lambda *args: [self.BAD])
        with pytest.raises(InvariantBreach, match="non-intertwining"):
            solve_hom(p, p, 1)
        # without the check the wrong solution would be returned
        monkeypatch.setattr(morphisms, "check_intertwiner", lambda *args: True)
        [sol] = solve_hom(p, p, 1)
        assert sol.w == self.BAD and not check_intertwiner(p, p, sol.w)

    def test_iso_test_rejects_a_wrong_witness(self, monkeypatch):
        src = build_mas(2, (1, 2), (1,))
        dst = build_mas(2, (3, 6), (1,))
        real = morphisms.classified_sl_m1
        # dst's witness off by a unimodular factor: the iso witness stays unimodular
        skew = Mat2.of(2, ((1, 1), (0, 1)))
        monkeypatch.setattr(
            morphisms,
            "classified_sl_m1",
            lambda q: (real(q)[0], real(q)[1] * skew) if q is dst else real(q),
        )
        with pytest.raises(InvariantBreach, match="re-verification"):
            iso_test(src, dst)
        # without the check the wrong witness would be returned
        monkeypatch.setattr(morphisms, "check_intertwiner", lambda *args: True)
        witness = iso_test(src, dst)
        assert witness.w.is_unimodular() and not check_intertwiner(src, dst, witness.w)


class TestIso:
    def test_gamma_from_scaled_parameters(self):
        w = iso_test(build_mas(2, (1, 2), (1,)), build_mas(2, (3, 6), (1,)))
        assert w is not None and w.gamma == Fraction(1, 3)

    def test_different_subsets_never_isomorphic(self):
        assert iso_test(build_mas(2, (1, 2), (1,)), build_mas(2, (1, 2), (2,))) is None

    def test_self_iso_is_identity(self):
        p = build_mas(2, (1, 2), (1, 2))
        w = iso_test(p, p)
        assert w.gamma == 1 and w.w == Mat2.identity(2)

    def test_non_proportional_parameters(self):
        assert iso_test(build_mas(2, (1, 2), ()), build_mas(2, (1, 3), ())) is None

    def test_bar_mismatch_by_category(self):
        m_pres = build_mas(2, (1, 1), ())
        bar = build_mas_bar(2, (1, 1), ())
        assert iso_test(m_pres, bar, category="M11even") is None
        w = iso_test(m_pres, bar, category="M11")
        assert w is not None and w.parity == "odd"
        assert w.w == Mat2.of(2, ((0, -1), (1, 0)))
        # ungraded category identifies them too (via the plain swap)
        w2 = iso_test(m_pres, bar, category="M2")
        assert w2 is not None and check_intertwiner(m_pres, bar, w2.w, 1)

    @pytest.mark.parametrize("category", ["M2", "M11"])
    @pytest.mark.parametrize("src_bar", [False, True])
    @pytest.mark.parametrize("dst_bar", [False, True])
    def test_conventions_bridge_at_any_scale(self, category, src_bar, dst_bar):
        # the classified parameters of mismatched conventions differ by a
        # gamma with gamma^2 != 1, so a bridge scaled for the wrong side's
        # convention fails re-verification
        src = (build_mas_bar if src_bar else build_mas)(2, (1, 2), (1,))
        dst = (build_mas_bar if dst_bar else build_mas)(2, (3, 6), (1,))
        w = iso_test(src, dst, category=category)
        odd = category == "M11" and src_bar != dst_bar
        assert w is not None and (src_bar == dst_bar or w.gamma**2 != 1)
        assert w.parity == ("odd" if odd else "even")
        assert check_intertwiner(src, dst, w.w, -1 if odd else 1)

    def test_witnesses_reverify_on_conjugates(self, rng):
        # conjugation preserves the isomorphism class, so scaled pairs stay
        # isomorphic after random twisting; the recovered gamma relates the
        # classified parameters (the twist may absorb a scalar gauge)
        from uhfree.normalform import classify_sl_m1

        for _ in range(4):
            m = rng.choice([2, 3])
            a = tuple(random_nonzero_fraction(rng) for _ in range(m))
            s = frozenset(i for i in range(1, m + 1) if rng.random() < 0.5)
            gamma = random_nonzero_fraction(rng)
            src = conjugate(build_mas(m, a, s), random_unimodular(rng, m))
            dst = conjugate(
                build_mas(m, tuple(x / gamma for x in a), s),
                random_unimodular(rng, m),
            )
            w = iso_test(src, dst, category="M2")
            assert w is not None
            assert check_intertwiner(src, dst, w.w, 1)
            ps, _ = classify_sl_m1(src)
            pd, _ = classify_sl_m1(dst)
            assert w.gamma == ps.a[0] / pd.a[0]

    def test_agrees_with_the_direct_solver(self, rng):
        # cross-check mode: iso_test routes through classification, while
        # solving the intertwining system directly must find an invertible
        # solution exactly for the isomorphic pairs
        cases = [
            (build_mas(2, (1, 2), (1,)), build_mas(2, (3, 6), (1,)), True),
            (build_mas(2, (1, 2), (1,)), build_mas(2, (1, 2), (2,)), False),
            (build_mas(2, (1, 2), ()), build_mas(2, (1, 3), ()), False),
            (build_mas(3, (2, 2, 2), (3,)), build_mas(3, (1, 1, 1), (3,)), True),
        ]
        for src, dst, expect in cases:
            witness = iso_test(src, dst, category="M2")
            solved = solve_hom(src, dst, 1, category="M2")
            has_invertible = any(s.w.is_unimodular() for s in solved)
            assert (witness is not None) == expect == has_invertible

    def test_equivalence_relation(self, rng):
        a = (Fraction(1), Fraction(2))
        p1 = build_mas(2, a, (1,))
        p2 = build_mas(2, (2, 4), (1,))
        p3 = build_mas(2, (Fraction(1, 2), 1), (1,))
        w12 = iso_test(p1, p2)
        w23 = iso_test(p2, p3)
        w13 = iso_test(p1, p3)
        w21 = iso_test(p2, p1)
        assert w12.gamma * w23.gamma == w13.gamma
        assert w21.gamma == 1 / w12.gamma


class TestEndoRing:
    def test_degree_zero_is_identity(self):
        p = build_mas(2, (1, 1), ())
        assert endo_ring_basis(p, 0) == [Mat2.identity(2)]

    def test_degree_one_element(self):
        p = build_mas(2, (1, 1), ())
        b = endo_ring_basis(p, 1)[1]
        c = C(2, 2)
        assert b == Mat2(((c + 1, Poly.zero(2)), (Poly.zero(2), c)))

    def test_basis_elements_multiply_like_their_polynomials(self):
        p = build_mas(2, (1, 1), ())
        b0, b1, b2 = endo_ring_basis(p, 2)
        assert b1 * b1 == b2  # X * X = X^2, diagonal entries multiply

    def test_every_solution_lies_in_the_predicted_span(self):
        p = build_mas(2, (5, 7), (1, 2))
        sols = solve_hom(p, p, 3)
        fs = [endo_f_polynomial(p, s.w) for s in sols]
        # extraction succeeds exactly when each solution is diag(F(c+1), F(c))
        assert len(fs) == 4


class TestIdempotents:
    def test_family_modules_are_indecomposable(self):
        p = build_mas(2, (1, 1), ())
        assert sorted(
            (w.is_zero, w == Mat2.identity(2)) for w in idempotent_scan(p, solve_hom(p, p, 3))
        ) == [(False, True), (True, False)]

    def test_three_variable_case(self):
        p = build_mas(3, (1, 2, 3), (2,))
        ws = idempotent_scan(p, solve_hom(p, p, 2))
        assert len(ws) == 2

    def test_zero_map_always_present(self):
        p = build_mas(1, (1,), ())
        ws = idempotent_scan(p, solve_hom(p, p, 1))
        assert any(w.is_zero for w in ws)

    def test_bar_family_and_polynomial_conjugates(self, rng):
        # endomorphisms are diag(F(c-(m-1)), F(c)) on Mbar(a, S), and only
        # diagonal after conjugating back to the family form
        inputs = [build_mas_bar(2, (1, 2), (1,)), build_mas_bar(3, (1, 2, 3), (2,))]
        inputs += [
            conjugate(build_mas(2, (1, 3), (2,)), random_unimodular(rng, 2))
            for _ in range(8)
        ]
        for p in inputs:
            ws = idempotent_scan(p, solve_hom(p, p, 2))
            assert len(ws) == 2 and Mat2.identity(p.nvars) in ws
            for b in endo_ring_basis(p, 2):
                assert check_intertwiner(p, p, b)


class TestSubmodules:
    def test_unit_polynomial_gives_whole_module(self):
        layer = family_entries(Poly.one(1), 2, 1)
        assert in_layer(*layer, Mat2.column(Poly.var(2, 0), Poly.one(2)))

    def test_membership_examples(self):
        layer = family_entries(Poly.var(1, 0), 2, 1)  # F = X
        c1 = C(2, 2) + 1
        assert in_layer(*layer, Mat2.column(c1, Poly.zero(2)))
        assert not in_layer(*layer, Mat2.column(Poly.one(2), Poly.zero(2)))

    def test_filtration_length_zero(self):
        p = build_mas(2, (1, 1), ())
        chain = filtration([], 0)
        assert chain == [Poly.one(1)]

    def test_single_step_with_separator(self):
        p = build_mas(2, (1, 1), ())
        chain = filtration([Fraction(0)], 1)
        assert chain[1] == Poly.var(1, 0)
        [sep] = filtration_separators(p, chain)
        # F_0(c+1) = 1 lies in M_0 but not in M_1
        assert sep == Mat2.column(Poly.one(2), Poly.zero(2))
        assert not in_layer(*family_entries(chain[1], 2, 1), sep)

    def test_length_ten_strict(self):
        p = build_mas(2, (1, 1), ())
        lambdas = [Fraction(k % 3) for k in range(10)]  # repeats allowed
        chain = filtration(lambdas, 10)
        seps = filtration_separators(p, chain)
        assert len(seps) == 10

    def test_equal_steps_are_not_strict(self):
        p = build_mas(2, (1, 1), ())
        x = Poly.var(1, 0)
        with pytest.raises(InvariantBreach, match="not strict"):
            filtration_separators(p, [Poly.one(1), x, x])

    def test_the_budget_counts_the_terms_of_every_step(self):
        # C(k + m + 1, m + 1) terms: sl(3|1) passes at k = 44 (194 580), not at 45 (211 876);
        # the default length 10 passes up to sl(8|1) (92 378)
        check_filtration_budget(build_mas(3, (1, 2, 3), (1,)), 44)
        check_filtration_budget(build_mas(8, range(1, 9), (1,)), 10)
        with pytest.raises(MorphismError, match="over the budget of 200000 terms"):
            check_filtration_budget(build_mas(3, (1, 2, 3), (1,)), 45)

    def test_too_few_roots_rejected(self):
        p = build_mas(2, (1, 1), ())
        with pytest.raises(MorphismError):
            filtration([Fraction(0)], 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_action_closure_of_mf(self, m, rng):
        # acting by every generator on the two generators of M_F stays in M_F
        a = tuple(random_nonzero_fraction(rng) for _ in range(m))
        s = frozenset(i for i in range(1, m + 1) if rng.random() < 0.4)
        p = build_mas(m, a, s)
        nv = p.nvars
        c = C(nv, m)
        for coeffs in ((Fraction(0),), (Fraction(0), Fraction(-2))):
            x = Poly.var(1, 0)
            f = Poly.one(1)
            for lam in coeffs:
                f = f * (x - lam)
            layer = compose_univariate(f, c + (m - 1)), compose_univariate(f, c)
            # the columns of D_F are the two generators of M_F
            gens = Mat2(((layer[0], Poly.zero(nv)), (Poly.zero(nv), layer[1])))
            for b in p.algebra.basis():
                assert in_layer(*layer, act(p, b, gens))


class TestSl11Shapes:
    def test_class1_shapes(self):
        h = Poly.var(1, 0)
        both, mixed = sl11_submodule_shape(1, h)
        assert (both.g1, both.g2) == (h, h)
        assert (mixed.g1, mixed.g2) == (h, h * h)

    def test_class2_shapes(self):
        one = Poly.one(1)
        both, mixed = sl11_submodule_shape(2, one)
        assert (both.g1, both.g2) == (one, one)
        assert (mixed.g1, mixed.g2) == (Poly.var(1, 0), one)

    @pytest.mark.parametrize("label", [1, 2])
    def test_shapes_are_action_closed(self, label):
        from uhfree.stringbridge import canonical_presentation

        p = canonical_presentation(label)
        h = Poly.var(1, 0)
        for gen_poly in (Poly.one(1), h, h - 2):
            for shape in sl11_submodule_shape(label, gen_poly):
                gens = Mat2(((shape.g1, Poly.zero(1)), (Poly.zero(1), shape.g2)))
                for b in p.algebra.basis():
                    assert in_layer(shape.g1, shape.g2, act(p, b, gens)), (label, shape.label)
