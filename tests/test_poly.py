import sys
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from uhfree.poly import (
    Poly,
    PolyError,
    PolyParseError,
    ShiftMap,
    apply_shift,
    compose_univariate,
    default_names,
    divides_exactly,
    format_poly,
    parse_poly,
    poly_gcd,
)

from .oracles import (
    common_divisors_oracle,
    format_oracle,
    from_sympy,
    gcd_oracle,
    shift_oracle,
    sympy_text,
    to_sympy,
)

NAMES2 = default_names(2)
H1, H2 = Poly.var(2, 0), Poly.var(2, 1)
SYMS2 = sympy.symbols("h1 h2")


def P(text, names=NAMES2):
    return parse_poly(text, names)


class TestArithmetic:
    def test_additive_inverse(self):
        assert P("h1") + P("-h1") == Poly.zero(2)

    def test_disjoint_supports(self):
        assert P("h1 + 1") + P("h2") == P("h1 + h2 + 1")

    def test_rational_coefficient_combine(self):
        assert P("1/2*h1^2") + P("1/2*h1^2") == P("h1^2")

    def test_difference_of_squares(self):
        assert (H1 - 1) * (H1 + 1) == P("h1^2 - 1")

    def test_multiply_by_zero(self):
        assert P("3*h1*h2 - 7") * Poly.zero(2) == Poly.zero(2)

    def test_binomial_square(self):
        assert (H1 + H2) ** 2 == P("h1^2 + 2*h1*h2 + h2^2")

    def test_nvars_mismatch_is_an_error(self):
        with pytest.raises(PolyError):
            Poly.var(2, 0) + Poly.var(3, 0)
        with pytest.raises(PolyError):
            Poly.var(2, 0) * Poly.var(1, 0)

    def test_zero_polynomial_keeps_nvars(self):
        assert Poly.zero(3).nvars == 3
        assert (P("h1") - P("h1")).nvars == 2


class TestShifts:
    def test_sigma_shifts_its_own_variable(self):
        sigma1 = ShiftMap.sigma(2, 0)
        assert apply_shift(sigma1, H1) == P("h1 - 1")

    def test_sigma_fixes_other_variables(self):
        sigma1 = ShiftMap.sigma(2, 0)
        assert apply_shift(sigma1, H2) == H2

    def test_full_shift_on_product(self):
        delta = ShiftMap((1, 1))
        expected = shift_oracle(H1 * H2, (1, 1), SYMS2)
        assert expected == P("h1*h2 - h1 - h2 + 1")
        assert apply_shift(delta, H1 * H2) == expected

    def test_composition_adds(self):
        s, t = ShiftMap((1, -2)), ShiftMap((3, 1))
        p = P("h1^2*h2 - 2*h2 + 5")
        assert apply_shift(s, apply_shift(t, p)) == apply_shift(s * t, p)

    def test_inverse_round_trip(self):
        s = ShiftMap((2, -1))
        p = P("h1^3 - h2^2 + h1*h2")
        assert apply_shift(s.inverse(), apply_shift(s, p)) == p

    def test_length_mismatch(self):
        with pytest.raises(PolyError):
            apply_shift(ShiftMap((1,)), H1)


@st.composite
def polys(draw, nvars=2, max_deg=4, max_terms=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(0, max_deg)) for _ in range(nvars)
        )
        if sum(exps) > max_deg:
            continue
        terms[exps] = Fraction(draw(st.integers(-3, 3)))
    return Poly(nvars, terms)


SHIFTS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


class TestShiftAutomorphismLaws:
    @settings(max_examples=40, deadline=None)
    @given(polys(), polys(), SHIFTS)
    def test_preserves_products(self, p, q, s):
        smap = ShiftMap(s)
        assert apply_shift(smap, p * q) == apply_shift(smap, p) * apply_shift(smap, q)

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys(), SHIFTS)
    def test_preserves_sums(self, p, q, s):
        smap = ShiftMap(s)
        assert apply_shift(smap, p + q) == apply_shift(smap, p) + apply_shift(smap, q)

    @settings(max_examples=30, deadline=None)
    @given(polys(), SHIFTS)
    # degrees >= 60, where binomial weights exceed float precision
    @example(Poly(2, {(60, 0): 1}), (1, 0))
    @example(Poly(2, {(80, 0): 1}), (2, -1))
    @example(Poly(2, {(200, 3): 1}), (2, -1))
    def test_matches_substitution_oracle(self, p, s):
        assert apply_shift(ShiftMap(s), p) == shift_oracle(p, s, SYMS2)


@st.composite
def rational_polys(draw, nvars, max_deg=6, max_terms=5):
    """Coefficients n/d with d in 1..6, total degree <= max_deg."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        if sum(exps) > max_deg:
            continue
        terms[exps] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
    return Poly(nvars, terms)


@st.composite
def rational_cases(draw):
    """(p, q, scalar, shift) over a drawn number of variables, 1..6."""
    n = draw(st.integers(1, 6))
    scalar = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
    shift = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    return draw(rational_polys(n)), draw(rational_polys(n)), scalar, shift


def _sparse(nvars, terms):
    return Poly(nvars, {exps: Fraction(*c) for exps, c in terms.items()})


# sparse inputs of degree >= 64 in up to 6 variables, and a difference that
# cancels to zero only through the common denominator
RATIONAL_EXAMPLES = [
    (
        _sparse(6, {(64, 0, 0, 0, 0, 3): (1, 5), (0, 0, 70, 0, 0, 0): (-2, 3)}),
        _sparse(6, {(1, 0, 0, 0, 0, 0): (5, 6), (0, 65, 0, 0, 1, 0): (3, 4)}),
        Fraction(-4, 3),
        (1, -2, 0, 2, 0, -1),
    ),
    (
        _sparse(2, {(80, 0): (1, 6), (0, 2): (1, 2)}),
        _sparse(2, {(0, 64): (-5, 4), (0, 0): (2, 3)}),
        Fraction(6),
        (2, -1),
    ),
    (_sparse(2, {(1, 0): (1, 3)}), _sparse(2, {(1, 0): (1, 3)}), Fraction(3), (1, 1)),
]


def _canonical(p):
    """Integer numerators over a positive denominator, reduced; zero over 1."""
    assert p._den >= 1 and all(isinstance(n, int) and n for n in p._num.values())
    assert gcd(p._den, *p._num.values()) == 1
    return p


def _with_examples(test):
    for case in RATIONAL_EXAMPLES:
        test = example(case)(test)
    return test


class TestRationalKernelsAgainstSympy:
    @staticmethod
    def _syms(n):
        return sympy.symbols(f"h1:{n + 1}")

    @settings(max_examples=60, deadline=None)
    @given(rational_cases())
    @_with_examples
    def test_sum_and_difference(self, case):
        p, q, _, _ = case
        syms = self._syms(p.nvars)
        assert _canonical(p + q) == from_sympy(to_sympy(p, syms) + to_sympy(q, syms), syms)
        assert _canonical(p - q) == from_sympy(to_sympy(p, syms) - to_sympy(q, syms), syms)

    @settings(max_examples=60, deadline=None)
    @given(rational_cases())
    @_with_examples
    def test_products(self, case):
        p, q, c, _ = case
        syms = self._syms(p.nvars)
        assert _canonical(p * q) == from_sympy(to_sympy(p, syms) * to_sympy(q, syms), syms)
        want = from_sympy(to_sympy(p, syms) * sympy.Rational(c.numerator, c.denominator), syms)
        assert _canonical(p * c) == want
        assert _canonical(c * p) == want

    @settings(max_examples=60, deadline=None)
    @given(rational_cases())
    @_with_examples
    def test_shift(self, case):
        p, q, _, s = case
        syms = self._syms(p.nvars)
        for f in (p, q):
            assert _canonical(apply_shift(ShiftMap(s), f)) == shift_oracle(f, s, syms)

    @settings(max_examples=60, deadline=None)
    @given(rational_cases())
    @_with_examples
    def test_specialize(self, case):
        # the shift picks the variables: 0 keeps one, k sets it to k*scalar
        # (rational, negative, or zero with the scalar); the full point sets
        # the kept ones to -1/2, 0, 1/2, ... in turn
        p, q, c, s = case
        syms = self._syms(p.nvars)
        partial = [k * c if k else None for k in s]
        full = [k * c if k else Fraction(i - 1, 2) for i, k in enumerate(s)]
        kept = [x for x, v in zip(syms, partial) if v is None]

        def at(values):
            pairs = ((x, v) for x, v in zip(syms, values) if v is not None)
            return {x: sympy.Rational(v.numerator, v.denominator) for x, v in pairs}

        for f in (p, q):
            expr = to_sympy(f, syms)
            want = from_sympy(expr.subs(at(partial), simultaneous=True), kept)
            assert _canonical(f.specialize(partial)) == want
            value = sympy.Rational(expr.subs(at(full), simultaneous=True))
            assert f.evaluate(full) == Fraction(int(value.p), int(value.q))

    @settings(max_examples=60, deadline=None)
    @given(rational_cases())
    @_with_examples
    def test_exact_division(self, case):
        # {d} is a Groebner basis of (d) in any order, so sympy's remainder
        # is zero exactly when d divides; p*q + 1 is divisible only by a
        # constant q (dividing p itself sends sympy through a long reduction
        # on the degree-70 example)
        p, q, _, _ = case
        if q.is_zero:
            return
        syms = self._syms(p.nvars)
        for f in (p * q, p * q + 1):
            quo, rem = sympy.div(to_sympy(f, syms), to_sympy(q, syms), *syms)
            got = divides_exactly(q, f)
            if rem == 0:
                assert got is not None and _canonical(got) == from_sympy(quo, syms)
            else:
                assert got is None

    def test_cancels_to_zero_through_denominators(self):
        third = P("1/3*h1")
        assert _canonical(third - third) == Poly.zero(2)
        assert _canonical(P("1/3*h1") + P("2/3*h1")) == H1
        assert _canonical(P("1/6*h1 + 1/4*h2") * 12) == P("2*h1 + 3*h2")
        assert _canonical(P("1/2*h1") * Fraction(0)) == Poly.zero(2)


class TestCanonicalStorage:
    def test_four_constructions_agree(self):
        text = "3/4*h1^2*h2 - 1/6*h2 + 2"
        parsed = P(text)
        direct = Poly(2, {(2, 1): Fraction(3, 4), (0, 1): Fraction(-1, 6), (0, 0): 2})
        built = Fraction(3, 4) * H1**2 * H2 - H2 * Fraction(1, 6) + 2
        s = ShiftMap((3, -2))
        round_trip = apply_shift(s.inverse(), apply_shift(s, parsed))
        values = [parsed, direct, built, round_trip]
        for v in values:
            _canonical(v)
            assert v == parsed and hash(v) == hash(parsed)
            assert format_poly(v, NAMES2) == text

    def test_zero_is_unique_and_falsy(self):
        zeros = [
            P("1/3*h1") - P("1/3*h1"),
            P("1/2*h1 - 1/2*h2") + P("1/2*h2 - 1/2*h1"),
            P("2/3*h1") * Poly.zero(2),
            P("2/3*h1") * 0,
            Poly(2, {(1, 0): Fraction(0)}),
            parse_poly("0", NAMES2),
            -Poly.zero(2),
        ]
        for z in zeros:
            assert z == Poly.zero(2) and hash(z) == hash(Poly.zero(2))
            assert not z and z.is_zero and z.total_degree() == -1
            assert z == 0 and _canonical(z)._den == 1

    def test_terms_view_is_read_only(self):
        p = P("1/2*h1 + 3")
        with pytest.raises(TypeError):
            p.terms[(1, 0)] = Fraction(5)
        with pytest.raises(TypeError):
            del p.terms[(0, 0)]
        assert p.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(3)}
        assert p == P("1/2*h1 + 3")


class TestRingAxioms:
    @settings(max_examples=30, deadline=None)
    @given(polys(), polys(), polys())
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=30, deadline=None)
    @given(polys(), polys())
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p


class TestDivision:
    def test_exact_quotient(self):
        assert divides_exactly(P("h1 - 1"), P("h1^2 - 1")) == P("h1 + 1")

    def test_non_divisor_returns_none(self):
        assert divides_exactly(H1, H2) is None

    def test_square_by_linear(self):
        assert divides_exactly(H1 + H2, (H1 + H2) ** 2) == H1 + H2

    def test_zero_divisor_rejected(self):
        with pytest.raises(PolyError):
            divides_exactly(Poly.zero(2), H1)


class TestGcd:
    def test_linear_factor(self):
        assert poly_gcd(P("h1^2 - 1"), P("h1 - 1")) == P("h1 - 1")

    def test_coprime_variables(self):
        assert poly_gcd(H1, H2) == Poly.one(2)

    def test_cross_term(self):
        expected = gcd_oracle(P("h1*h2 + h2"), P("h1^2 - 1"), SYMS2)
        assert expected == P("h1 + 1")
        assert poly_gcd(P("h1*h2 + h2"), P("h1^2 - 1")) == expected

    def test_zero_conventions(self):
        assert poly_gcd(Poly.zero(2), P("2*h1")) == H1
        assert poly_gcd(P("3*h2"), Poly.zero(2)) == H2
        assert poly_gcd(Poly.zero(2), Poly.zero(2)) == Poly.zero(2)

    @settings(max_examples=25, deadline=None)
    @given(polys(max_deg=2, max_terms=3), polys(max_deg=2, max_terms=3))
    def test_divides_both_inputs(self, p, q):
        g = poly_gcd(p, q)
        if g.is_zero:
            assert p.is_zero and q.is_zero
            return
        assert divides_exactly(g, p) is not None
        assert divides_exactly(g, q) is not None

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_any_oracle_common_divisor_divides_it(self, data):
        # rational coefficients in 1..6 variables
        n = data.draw(st.integers(1, 6))
        p, q, c = (data.draw(rational_polys(n, max_deg=2, max_terms=3)) for _ in range(3))
        p, q = p * c, q * c
        if p.is_zero or q.is_zero:
            return
        g = poly_gcd(p, q)
        for d in common_divisors_oracle(p, sympy.symbols(f"h1:{n + 1}")):
            if divides_exactly(d, q) is not None:
                assert divides_exactly(d, g) is not None

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_oracle_on_structured_products(self, data):
        # a common factor c of degree <= 2, rational coefficients, 1..6 variables
        n = data.draw(st.integers(1, 6))
        a, b, c = (data.draw(rational_polys(n, max_deg=2, max_terms=3)) for _ in range(3))
        got = poly_gcd(a * c, b * c)
        assert _canonical(got) == gcd_oracle(a * c, b * c, sympy.symbols(f"h1:{n + 1}")).monic()


class TestGrammar:
    def test_documented_strings_round_trip(self):
        names = default_names(3, 2)
        for text in ("3/2*h1^2*h2 - 1", "h1 - h2 + hb1", "0", "-h1 - 1"):
            assert format_poly(parse_poly(text, names), names) == text

    def test_whitespace_insignificant(self):
        assert P(" h1+ h2 -1 ") == P("h1 + h2 - 1")

    def test_barred_names(self):
        names = default_names(3, 2)
        p = parse_poly("h1 + hb1 - h2", names)
        assert p == parse_poly("hb1+h1-h2", names)

    def test_errors_carry_columns(self):
        with pytest.raises(PolyParseError) as err:
            P("h1 + x3")
        assert err.value.column == 6
        with pytest.raises(PolyParseError):
            P("h1 ^ 0")
        with pytest.raises(PolyParseError):
            P("2*3")
        with pytest.raises(PolyParseError):
            P("")

    def test_canonical_order_is_graded_lex(self):
        p = P("h2 + h1^2 + h1*h2 + 1")
        assert format_poly(p, NAMES2) == "h1^2 + h1*h2 + h2 + 1"


@st.composite
def named_polys(draw):
    """(p, names): 1..6 variables, some of them barred, and rational
    coefficients whose numerators and denominators reach 30 digits."""
    nvars = draw(st.integers(1, 6))
    names = default_names(nvars, draw(st.integers(1, nvars)))
    big = st.integers(1, 10**30) | st.integers(1, 12)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        terms[exps] = Fraction(draw(big) * draw(st.sampled_from((-1, 1))), draw(big))
    return Poly(nvars, terms), names


@st.composite
def raw_texts(draw):
    """(text, names): a sum of drawn terms over a small pool of monomials, so
    monomials repeat and cancel; factors may repeat inside a term (h1*h1)."""
    nvars = draw(st.integers(1, 4))
    names = default_names(nvars, draw(st.integers(1, nvars)))
    pool = [
        [draw(st.sampled_from(names)) + draw(st.sampled_from(("", "^2")))
         for _ in range(draw(st.integers(0, 3)))]
        for _ in range(draw(st.integers(1, 3)))
    ]
    text = ""
    for k in range(draw(st.integers(1, 8))):
        factors = list(draw(st.sampled_from(pool)))
        if not factors or draw(st.booleans()):
            coeff = str(draw(st.integers(0, 9)))
            if draw(st.booleans()):
                coeff += "/" + str(draw(st.integers(1, 6)))
            factors.insert(0, coeff)
        sign = draw(st.sampled_from(("+", "-")))
        if k == 0:
            sign = draw(st.sampled_from(("", "-")))
        text += f" {sign} " + "*".join(factors)
    return text, names


class TestCodecProperties:
    """parse_poly(format_poly(p)) == p, the printer against the Fraction
    printer and sympy, and the parser against sympy's reading of the text."""

    @settings(max_examples=100, deadline=None)
    @given(named_polys())
    def test_round_trip(self, case):
        p, names = case
        assert _canonical(parse_poly(format_poly(p, names), names)) == p

    @settings(max_examples=100, deadline=None)
    @given(named_polys())
    def test_printer_matches_the_fraction_printer(self, case):
        p, names = case
        assert format_poly(p, names) == format_oracle(p, names)

    @settings(max_examples=60, deadline=None)
    @given(named_polys())
    def test_printer_matches_sympy(self, case):
        p, names = case
        syms = [sympy.Symbol(n) for n in names]
        assert sympy.expand(sympy_text(format_poly(p, names), names) - to_sympy(p, syms)) == 0

    @settings(max_examples=100, deadline=None)
    @given(raw_texts())
    def test_parser_matches_sympy(self, case):
        text, names = case
        syms = [sympy.Symbol(n) for n in names]
        p = _canonical(parse_poly(text, names))
        assert p == from_sympy(sympy_text(text, names), syms)

    def test_repeated_and_cancelling_monomials(self):
        names = default_names(2, 1)
        for text, printed in (
            ("h1 + h1", "2*h1"),
            ("h1 - h1", "0"),
            ("1/2*hb1 - 2/4*hb1 + 3", "3"),
            ("h1*h1 - h1^2 + 1/3*h1*hb1 + 1/6*hb1*h1", "1/2*h1*hb1"),
            ("-0*h1 + 0/5", "0"),
        ):
            p = _canonical(parse_poly(text, names))
            assert format_poly(p, names) == printed

    def test_coefficients_past_the_digit_limit_are_poly_errors(self):
        limit = sys.get_int_max_str_digits()
        widest = 10 ** (limit - 1)
        assert format_poly(Poly.const(1, widest), ("h1",)) == str(widest)
        for c in (10 * widest, Fraction(1, 10 * widest), Fraction(-3, 10 * widest)):
            with pytest.raises(PolyError, match=f"more than {limit} digits"):
                format_poly(Poly(1, {(1,): c}), ("h1",))


class TestCompose:
    def test_univariate_composition(self):
        f = Poly(1, {(2,): 1, (0,): -1})  # X^2 - 1
        c = H1 + H2
        assert compose_univariate(f, c) == (H1 + H2) ** 2 - 1

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_composition_matches_sympy(self, data):
        # outer degree up to 30 (sparse, so Horner runs through zero coefficients)
        # and an inner polynomial in up to 4 variables
        nvars = data.draw(st.integers(1, 4))
        outer = {
            (data.draw(st.integers(0, 30)),): Fraction(
                data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 6))
            )
            for _ in range(data.draw(st.integers(0, 4)))
        }
        f = Poly(1, outer)
        g = data.draw(rational_polys(nvars, max_deg=2, max_terms=3))
        syms = sympy.symbols(f"h1:{nvars + 1}")
        x = sympy.Symbol("X")
        want = to_sympy(f, (x,)).subs(x, to_sympy(g, syms))
        assert _canonical(compose_univariate(f, g)) == from_sympy(want, syms)
