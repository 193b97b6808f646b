import itertools
import sys
import time
from fractions import Fraction
from math import comb, gcd, prod

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from uhfree import poly
from uhfree.poly import (
    Poly,
    PolyError,
    PolyParseError,
    apply_shift,
    compose_univariate,
    default_names,
    divides_exactly,
    format_poly,
    integer_rows,
    monomials,
    parse_poly,
    poly_gcd,
    sum_of_products,
)

from .helpers import time_limit
from .oracles import (
    common_divisors_oracle,
    division_oracle,
    format_oracle,
    from_sympy,
    gcd_oracle,
    integer_rows_oracle,
    parse_poly_oracle,
    shift_oracle,
    specialize_oracle,
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
        assert apply_shift((1, 0), H1) == P("h1 - 1")

    def test_sigma_fixes_other_variables(self):
        assert apply_shift((1, 0), H2) == H2

    def test_full_shift_on_product(self):
        expected = shift_oracle(H1 * H2, (1, 1), SYMS2)
        assert expected == P("h1*h2 - h1 - h2 + 1")
        assert apply_shift((1, 1), H1 * H2) == expected

    def test_composition_adds(self):
        p = P("h1^2*h2 - 2*h2 + 5")
        assert apply_shift((1, -2), apply_shift((3, 1), p)) == apply_shift((4, -1), p)

    def test_inverse_round_trip(self):
        p = P("h1^3 - h2^2 + h1*h2")
        assert apply_shift((-2, 1), apply_shift((2, -1), p)) == p

    def test_length_mismatch(self):
        with pytest.raises(PolyError):
            apply_shift((1,), H1)


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
        assert apply_shift(s, p * q) == apply_shift(s, p) * apply_shift(s, q)

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys(), SHIFTS)
    def test_preserves_sums(self, p, q, s):
        assert apply_shift(s, p + q) == apply_shift(s, p) + apply_shift(s, q)

    @settings(max_examples=30, deadline=None)
    @given(polys(), SHIFTS)
    # degrees >= 60, where binomial weights exceed float precision
    @example(Poly(2, {(60, 0): 1}), (1, 0))
    @example(Poly(2, {(80, 0): 1}), (2, -1))
    @example(Poly(2, {(200, 3): 1}), (2, -1))
    def test_matches_substitution_oracle(self, p, s):
        assert apply_shift(s, p) == shift_oracle(p, s, SYMS2)


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
def wide_polys(draw, nvars, max_deg=4, max_terms=4):
    """Total degree <= max_deg spread over nvars variables; coefficients n/d
    whose numerators and denominators reach 30 digits."""
    big = st.integers(1, 10**30) | st.integers(1, 12)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [0] * nvars
        for _ in range(draw(st.integers(0, max_deg))):
            exps[draw(st.integers(0, nvars - 1))] += 1
        terms[tuple(exps)] = Fraction(draw(big) * draw(st.sampled_from((-1, 1))), draw(big))
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
            assert _canonical(apply_shift(s, f)) == shift_oracle(f, s, syms)

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


class TestPermuted:
    @staticmethod
    def _check(f, perm):
        """f.permuted(perm) against sympy's simultaneous h_i -> h_perm[i]."""
        syms = sympy.symbols(f"h1:{f.nvars + 1}")
        subs = {x: syms[j] for x, j in zip(syms, perm)}
        want = from_sympy(to_sympy(f, syms).subs(subs, simultaneous=True), syms)
        assert _canonical(f.permuted(perm)) == want

    @settings(max_examples=60, deadline=None)
    @given(rational_cases(), st.randoms(use_true_random=False))
    def test_matches_sympy_substitution(self, case, rng):
        p, q, _, _ = case
        perm = list(range(p.nvars))
        rng.shuffle(perm)
        for f in (p, q):
            self._check(f, perm)

    @pytest.mark.parametrize("case", RATIONAL_EXAMPLES)
    def test_high_degree_examples(self, case):
        # reversed, then rotated by one
        n = case[0].nvars
        for perm in (list(range(n))[::-1], [(i + 1) % n for i in range(n)]):
            for f in case[:2]:
                self._check(f, perm)

    def test_a_transposition_swaps_two_names(self):
        assert P("h1^2*h2 - 1/3*h2").permuted([1, 0]) == P("h2^2*h1 - 1/3*h1")

    @pytest.mark.parametrize("perm", [[0, 0], [0], [1, 2], [0, 1, 2]])
    def test_rejects_a_non_permutation(self, perm):
        with pytest.raises(PolyError, match="not a permutation of 2 variables"):
            P("h1 + h2").permuted(perm)


class TestCanonicalStorage:
    def test_four_constructions_agree(self):
        text = "3/4*h1^2*h2 - 1/6*h2 + 2"
        parsed = P(text)
        direct = Poly(2, {(2, 1): Fraction(3, 4), (0, 1): Fraction(-1, 6), (0, 0): 2})
        built = Fraction(3, 4) * H1**2 * H2 - H2 * Fraction(1, 6) + 2
        round_trip = apply_shift((-3, 2), apply_shift((3, -2), parsed))
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


class TestEqualityAndHash:
    @pytest.mark.parametrize("nvars", [0, 1, 3])
    @pytest.mark.parametrize(
        "c", [0, 1, -7, 10**30, Fraction(1, 2), Fraction(-5, 3), Fraction(4), Fraction(0)]
    )
    def test_a_constant_hashes_like_its_value(self, nvars, c):
        p = Poly.const(nvars, c)
        assert p == c and c == p and hash(p) == hash(c)
        assert len({p, c}) == 1 and {c: "value"}[p] == "value"

    def test_zero_hashes_like_zero(self):
        assert hash(Poly.zero(2)) == hash(0) == hash(P("h1 - h1"))

    def test_equal_polynomials_hash_alike_whatever_the_term_order(self):
        p = P("1/2*h1^2 - h2 + 3")
        q = Poly(2, dict(reversed(list(p.terms.items()))))
        assert p == q and hash(p) == hash(q)


class TestCoeff:
    def test_reads_one_coefficient(self):
        p = P("3/2*h1*h2 - h2^2 + 4")
        assert p.coeff((1, 1)) == Fraction(3, 2)
        assert p.coeff([0, 2]) == -1
        assert p.coeff((0, 0)) == 4 and p.coeff((2, 0)) == 0

    @pytest.mark.parametrize("exps", [(1,), (1, 1, 0), (), (-1, 2), (1.0, 1), ("1", 1)])
    def test_rejects_a_bad_exponent_vector(self, exps):
        # a wrong-length vector must not read another monomial's coefficient
        with pytest.raises(PolyError, match="bad exponent vector"):
            P("h1*h2 + h1").coeff(exps)


class TestDegreeLimit:
    def test_parse_refuses_the_limit(self):
        assert poly.DEGREE_LIMIT == 2**15
        assert parse_poly("h1^32767", ("h1",)).total_degree() == 32767
        with pytest.raises(PolyError, match="total degree 32768 is over the limit of 32767"):
            parse_poly("h1^32768", ("h1",))
        # the degree, not one exponent, is bounded; the column is the term's
        with pytest.raises(PolyParseError) as err:
            parse_poly("h1 + 2*h1^20000*h2^12768", NAMES2)
        assert err.value.column == 6

    def test_construction_refuses_the_limit(self):
        assert Poly(2, {(20000, 12767): 1}).total_degree() == 32767
        for exps in [(32768, 0), (20000, 12768), (0, 40000)]:
            with pytest.raises(PolyError, match="over the limit of 32767"):
                Poly(2, {exps: 1})

    def test_a_product_over_the_limit_raises_and_never_wraps(self):
        a, b = H1**16384, H1**16383
        assert (a * b).terms == {(32767, 0): 1}
        for x, y in [(a, a), (a * H2, b), (H1**32767, H1), (H2**32767, H1), (H1**30000, H2**3000)]:
            with pytest.raises(PolyError, match="over the limit of 32767"):
                x * y
        with pytest.raises(PolyError, match="over the limit of 32767"):
            H1**40000
        # the check reads the leading keys: a low-degree term beside a high one counts too
        with pytest.raises(PolyError):
            (H1**32000 + 1) * (H2**800 + H1)


@st.composite
def scale_polys(draw, nvars, max_deg=40, max_terms=4):
    """Up to max_terms terms, each of total degree <= max_deg on at most three
    of the nvars variables; coefficients n/d with d in 1..6."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [0] * nvars
        for i in draw(st.lists(st.integers(0, nvars - 1), max_size=3)):
            exps[i] += draw(st.integers(0, max_deg - sum(exps)))
        terms[tuple(exps)] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
    return Poly(nvars, terms)


@st.composite
def scale_cases(draw):
    """(p, q, shift, values) over 1..9 variables at total degree up to 40."""
    n = draw(st.integers(1, 9))
    shift = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    value = st.none() | st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    values = [draw(value) for _ in range(n)]
    return draw(scale_polys(n)), draw(scale_polys(n)), shift, values


def _wide_case():
    """A 200-variable case: the shift moves every variable, and a third of
    the values fix a variable, some at non-integers."""
    names = default_names(200)
    p = parse_poly("3*h1^2*h150^30*h200^8 - 2/3*h7^30*h8 + h99^40 + 5", names)
    q = parse_poly("h150 - 4*h1^2*h99 + 1/2*h200^3*h7", names)
    shift = tuple((-1, 1, 2)[i % 3] for i in range(200))
    values = [None if i % 3 else Fraction(i % 7 - 3, 1 + i % 4) for i in range(200)]
    return p, q, shift, values


def _at_scale(examples):
    def wrap(test):
        return settings(max_examples=examples, deadline=None)(
            given(scale_cases())(example(_wide_case())(test))
        )

    return wrap


class TestKernelsAgainstSympyAtScale:
    """The kernels on 1..9 variables and one 200-variable case, at total
    degree up to 40, against sympy through tests/oracles.py."""

    @staticmethod
    def _syms(p):
        return sympy.symbols(default_names(p.nvars))

    @_at_scale(25)
    def test_products(self, case):
        p, q, _, _ = case
        syms = self._syms(p)
        assert _canonical(p * q) == from_sympy(to_sympy(p, syms) * to_sympy(q, syms), syms)

    # a shifted term of degree 40 on three variables expands to up to 14^3 terms
    @_at_scale(10)
    def test_shift(self, case):
        p, _, shift, _ = case
        assert _canonical(apply_shift(shift, p)) == shift_oracle(p, shift, self._syms(p))

    @_at_scale(25)
    def test_specialize_and_evaluate(self, case):
        p, _, _, values = case
        syms = self._syms(p)
        assert _canonical(p.specialize(values)) == specialize_oracle(p, values, syms)
        point = [Fraction(1, 2) if v is None else v for v in values]
        assert p.evaluate(point) == specialize_oracle(p, point, syms).constant_value()

    @_at_scale(25)
    def test_exact_division(self, case):
        p, q, _, _ = case
        syms = self._syms(p)
        if not q.is_zero:
            assert divides_exactly(q, p * q) == p
            assert divides_exactly(q, p) == division_oracle(q, p, syms)

    @_at_scale(25)
    def test_term_order_is_graded_lex(self, case):
        p = case[0] * case[1] + case[0]
        want = sorted(p.terms, key=lambda e: (sum(e), e), reverse=True)
        assert [e for e, _ in p.sorted_terms()] == want
        assert [c for _, c in p.sorted_terms()] == [p.terms[e] for e in want]
        if want:
            assert p.leading() == (want[0], p.terms[want[0]])
            assert p.total_degree() == sum(want[0])

    @_at_scale(25)
    def test_print_parse_round_trip(self, case):
        p = case[0] * case[1] - case[0]
        names = default_names(p.nvars, max(1, p.nvars // 2))
        assert parse_poly(format_poly(p, names), names) == p

    @_at_scale(25)
    def test_terms_keys_stay_exponent_tuples(self, case):
        p = case[0] * case[1]
        for exps, c in p.terms.items():
            assert type(exps) is tuple and len(exps) == p.nvars
            assert all(type(e) is int and e >= 0 for e in exps)
            assert p.coeff(exps) == c
        assert Poly(p.nvars, p.terms) == p
        assert p.variables() == {i for exps in p.terms for i, e in enumerate(exps) if e}


class TestLinearInTheVariableCount:
    def test_kernels_on_20000_variables(self):
        # each step here takes well under 0.1 s on a 2-CPU machine; a kernel
        # that repacks every field once per field takes minutes
        n = 20_000
        names = default_names(n, n // 2)
        text = "h1*hb10000 + 3/2*h5^2*hb9999 - h10000^3*h2*h3 + 7 - hb1^40"
        start = time.perf_counter()
        with time_limit(20):
            p = parse_poly(text, names)
            assert format_poly(p, names) == (
                "-hb1^40 - h2*h3*h10000^3 + 3/2*h5^2*hb9999 + h1*hb10000 + 7"
            )
            q = apply_shift(tuple([1, -2] * (n // 2)), p)
            assert q.term_count() == 64 and parse_poly(format_poly(q, names), names) == q
            half = p.specialize([None if i % 2 else Fraction(i % 5, 3) for i in range(n)])
            assert half.nvars == n // 2 and half.term_count() == 2
            assert p.evaluate([Fraction(1, 2)] * n) == Fraction(8143257993215, 1099511627776)
            assert p.variables() == {0, 1, 2, 4, 9999, 10000, 19998, 19999}
        assert time.perf_counter() - start < 5


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


@st.composite
def division_cases(draw):
    """(d, q, r) over 1..9 variables at total degree up to 12: d nonzero,
    scaled by a rational of either sign whose numerator is a non-unit."""
    n = draw(st.integers(1, 9))
    d = draw(scale_polys(n, max_deg=12))
    if d.is_zero:
        d = Poly.var(n, n - 1) + 1
    scale = Fraction(draw(st.sampled_from((-1, 1))) * draw(st.integers(2, 12)), draw(st.integers(1, 7)))
    return d * scale, draw(scale_polys(n, max_deg=12)), draw(scale_polys(n, max_deg=12))


def _division_example(text_d, text_q, text_r, names=NAMES2):
    return example((P(text_d, names), P(text_q, names), P(text_r, names)))


class TestIntegerDivisionAgainstSympy:
    """`divides_exactly` long-divides integer numerators by the primitive
    part of the divisor; sympy divides the same pairs over Q."""

    @staticmethod
    def _syms(p):
        return sympy.symbols(default_names(p.nvars))

    @settings(max_examples=40, deadline=None)
    @given(division_cases())
    # negative leading coefficients, contents 2 and 6, and denominators
    @_division_example("-6*h1^2 + 4/5*h2 - 2", "3/7*h1*h2 - 1/2", "0")
    @_division_example("-12/5*h1*h2^3 + 18*h2", "h1^3 - 5/3*h2", "0")
    def test_divisible_pairs(self, case):
        d, q, _ = case
        p = d * q
        got = divides_exactly(d, p)
        assert _canonical(got) == q
        assert got == division_oracle(d, p, self._syms(p))

    @settings(max_examples=40, deadline=None)
    @given(division_cases())
    @_division_example("-6*h1^2 + 4/5*h2 - 2", "3/7*h1*h2 - 1/2", "h2")
    @_division_example("2*h1 + h2", "h1", "h1*h2")
    def test_any_pair(self, case):
        d, q, r = case
        p = d * q + r
        got = divides_exactly(d, p)
        assert got == division_oracle(d, p, self._syms(p))
        if got is not None:
            assert _canonical(got) * d == p

    @pytest.mark.parametrize("scale_d", [1, -1, Fraction(-3, 5), 4])
    @pytest.mark.parametrize("scale_p", [1, Fraction(7, 4), -2])
    def test_a_non_integral_step_is_no_quotient(self, scale_d, scale_p):
        # D = 2*h1 + h2 is primitive; dividing P = 2*h1^2 + 2*h1*h2 leaves
        # h1*h2 after the first step, whose coefficient 1 is not a multiple
        # of 2: over Q that step gives h2/2, and then -h2^2/2 is left over
        d, p = P("2*h1 + h2") * scale_d, P("2*h1^2 + 2*h1*h2") * scale_p
        assert divides_exactly(d, p) is None
        assert division_oracle(d, p, SYMS2) is None
        # with that term's coefficient even, every step is integral
        p = P("2*h1^2 + 3*h1*h2 + h2^2") * scale_p
        assert divides_exactly(d, p) == P("h1 + h2") * (Fraction(scale_p) / scale_d)

    def test_a_leading_monomial_the_divisor_does_not_divide(self):
        assert divides_exactly(P("-2*h1*h2 + 1"), P("2*h2^3")) is None
        assert divides_exactly(P("h1^2"), P("h1*h2 + h1^2")) is None

    def test_the_loop_builds_no_fraction_and_no_poly_arithmetic(self, monkeypatch):
        d, q = P("-4/3*h1^2 + 2*h1*h2 - 6"), P("5/2*h2^3 - h1 + 1/7")
        p = d * q
        off = p + 1

        def refuse(*args):
            raise AssertionError("divides_exactly built a Fraction or did Poly arithmetic")

        monkeypatch.setattr(poly, "Fraction", refuse)
        for name in ("__init__", "__mul__", "__add__", "__sub__", "__neg__", "_plus"):
            monkeypatch.setattr(Poly, name, refuse)
        got = divides_exactly(d, p)
        assert divides_exactly(d, off) is None
        monkeypatch.undo()
        assert got == q


class TestFieldReads:
    @_at_scale(25)
    def test_degree_in_reads_each_field(self, case):
        p = case[0] * case[1] + case[0]
        for i in range(p.nvars):
            assert p.degree_in(i) == max((e[i] for e in p.terms), default=-1)

    def test_degree_in_reads_the_whole_field(self):
        p = P("h1^20000*h2^12767 + h1^257 + h2^32767")
        assert (p.degree_in(0), p.degree_in(1)) == (20000, 32767)

    @pytest.mark.parametrize("i", [-1, 2, 3])
    def test_degree_in_refuses_a_bad_index(self, i):
        with pytest.raises(PolyError, match="out of range for 2 variables"):
            P("h1^2*h2").degree_in(i)

    @_at_scale(10)
    def test_shift_bound_is_the_product_of_exponents_plus_one(self, case):
        p, _, shift, _ = case
        bound = p.shift_bound()
        assert bound == sum(prod(e + 1 for e in exps) for exps in p.terms)
        assert apply_shift(shift, p).term_count() <= bound


class TestSumOfProducts:
    @_at_scale(25)
    def test_against_sympy(self, case):
        p, q, _, _ = case
        syms = sympy.symbols(default_names(p.nvars))
        x, y = to_sympy(p, syms), to_sympy(q, syms)
        r = q * Fraction(-3, 4) + 1
        z = to_sympy(r, syms)
        for sign in (1, -1):
            got = sum_of_products(p, q, r, p, sign)
            assert _canonical(got) == from_sympy(x * y + sign * z * x, syms)
        assert sum_of_products(p, Poly.zero(p.nvars), q, Poly.zero(p.nvars)).is_zero
        assert sum_of_products(p, q, p, -q).is_zero

    def test_checks_each_product_then_the_sum_in_order(self):
        h3 = Poly.var(3, 0)
        big, bigger = H1**16384, H2**20000
        cases = [
            (big, big, bigger, bigger),  # the first product's degree
            (H1, H1, bigger, bigger),  # the second's
            (Poly.zero(2), big, bigger, bigger),  # a zero factor skips its check
            (H1, h3, h3, H1),  # the first product's variable counts
            (H1, H2, h3, H1),  # the second's
            (H1, H2, h3, h3),  # the two products'
        ]
        for x1, y1, x2, y2 in cases:
            with pytest.raises(PolyError) as entrywise:
                x1 * y1 + x2 * y2
            with pytest.raises(PolyError) as fused:
                sum_of_products(x1, y1, x2, y2)
            assert str(fused.value) == str(entrywise.value)
        assert str(entrywise.value) == "variable-count mismatch: 2 vs 3"


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

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_oracle_on_wide_products(self, data):
        # past the sizes above: factors of degree <= 4 and coefficients n/d
        # with n and d up to 30 digits, 1..6 variables
        n = data.draw(st.integers(1, 6))
        a, b, c = (data.draw(wide_polys(n)) for _ in range(3))
        got = poly_gcd(a * c, b * c)
        assert _canonical(got) == gcd_oracle(a * c, b * c, sympy.symbols(f"h1:{n + 1}")).monic()

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_euclid_matches_oracle(self, data):
        # the fallback on its own, at small sizes: it is the reference the
        # heuristic is also compared against below
        n = data.draw(st.integers(1, 3))
        a, b, c = (data.draw(rational_polys(n, max_deg=2, max_terms=3)) for _ in range(3))
        got = poly._euclid_gcd(a * c, b * c)
        assert _canonical(got) == gcd_oracle(a * c, b * c, sympy.symbols(f"h1:{n + 1}")).monic()

    GIVE_UP_CASES = [
        ("h1^2 - 1", "h1^2 + 2*h1 + 1"),
        ("3/2*h1*h2^2 - 6*h1", "h1^2*h2 + 2*h1^2 + h2 + 2"),
        ("h1*h2 + h2", "h1^2 - 1"),
        ("2*h1 + 4/3", "h2"),
    ]

    @pytest.mark.parametrize("p, q", GIVE_UP_CASES)
    def test_fallback_answers_when_the_heuristic_gives_up(self, monkeypatch, p, q):
        monkeypatch.setattr(poly, "_heu_gcd", lambda f, g: None)
        assert poly_gcd(P(p), P(q)) == gcd_oracle(P(p), P(q), SYMS2).monic()

    def test_a_candidate_that_does_not_divide_is_refused(self):
        # the first point is xi = 2*1 + 2 = 4: f(4) = 3 and g(4) = -21 share
        # 3 = 4 - 1, so the first candidate is h1 - 1, which divides f but
        # not g; the next point, xi = 10, gives gcd(9, -177) = 3, a constant
        f, g = P("h1 - 1"), P("-2*h1^2 + 2*h1 + 3")
        assert poly._heu_gcd(f, g) == Poly.one(2)
        assert poly_gcd(f, g) == Poly.one(2) == gcd_oracle(f, g, SYMS2).monic()


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

    # (text, message, column) for every PolyParseError branch; a text that
    # ends early reports the column just past its end
    LIMIT = sys.get_int_max_str_digits()
    WIDE = "9" * (LIMIT + 1)
    ERRORS = [
        ("h1 + $", "unexpected character '$'", 6),
        ("h1 h2 + 2.5", "unexpected character '.'", 10),
        ("", "empty polynomial", 1),
        ("  \t", "empty polynomial", 1),
        ("1/h1", "expected integer, got 'h1'", 3),
        ("1/", "expected integer, got ''", 3),
        ("1/-2", "expected integer, got '-'", 3),
        ("h1^h2", "expected integer, got 'h2'", 4),
        ("h1^ ", "expected integer, got ''", 5),
        (WIDE, f"integer has more than {LIMIT} digits", 1),
        ("h1 + 2/" + WIDE, f"integer has more than {LIMIT} digits", 8),
        ("h1^" + WIDE, f"integer has more than {LIMIT} digits", 4),
        ("h1 + 3/0*h2", "denominator must be positive", 6),
        ("h1 + h2^0", "exponent must be positive", 6),
        ("2*h1^0", "exponent must be positive", 3),
        ("h1 + x3", "unknown variable 'x3'", 6),
        ("2*h1*hb2", "unknown variable 'hb2'", 6),
        ("*h1", "expected coefficient or variable, got '*'", 1),
        ("h1 + ^2", "expected coefficient or variable, got '^'", 6),
        ("h1 + +h2", "expected coefficient or variable, got '+'", 6),
        ("-", "expected coefficient or variable, got ''", 2),
        ("h1 -  ", "expected coefficient or variable, got ''", 7),
        ("2*3", "expected variable after '*', got '3'", 3),
        ("h1*", "expected variable after '*', got ''", 4),
        ("h1 h2", "expected '+' or '-', got 'h2'", 4),
        ("h1 + 1 2", "expected '+' or '-', got '2'", 8),
        ("h1 (", "expected '+' or '-', got '('", 4),
        ("h1 + 2/3/4", "expected '+' or '-', got '/'", 9),
    ]

    # ids by row: the digit-limit texts are thousands of characters long
    @pytest.mark.parametrize(
        "text, message, column", ERRORS, ids=list(map(str, range(len(ERRORS))))
    )
    def test_error_table(self, text, message, column):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, default_names(3, 2))
        assert str(err.value) == f"{message} (column {column})"
        assert err.value.column == column


# pieces of near-grammatical text: names known and unknown, integers (one
# over the degree limit, one a non-ASCII decimal digit), every operator,
# blanks, characters that start no token, and whole factors and terms
TEXT_PIECES = (
    "h1", "h2", "hb1", "hb2", "x3", "h", "0", "1", "3", "12", "32768", "\u0663",
    "+", "-", "*", "/", "^", "(", ")", " ", "\t", "$", ".", "\u00b2",
    " + h1^0", " - 3/0*h2", "*h2^2", " + 2/3*hb1", "h1*h2^32767",
)


def _parse_outcome(parse, text, names):
    try:
        return parse(text, names)
    except PolyParseError as exc:
        return str(exc), exc.column


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


class TestParserAgainstTheOnePassTokenizer:
    """Every text parses to the same polynomial, or fails with the same
    message and column, as under the tokenizer that found every column
    up front (tests/oracles.py)."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(TEXT_PIECES), max_size=14))
    @example(["h1", " ", "h2", " ", "$"])
    @example(["2", "/", "0", "*", "h1", "^", "32768", "."])
    @example(["h1", "^", "32768", "+", "h2", "^", "32768"])
    def test_same_result_or_error(self, pieces):
        names = default_names(3, 2)
        text = "".join(pieces)
        assert _parse_outcome(parse_poly, text, names) == _parse_outcome(
            parse_poly_oracle, text, names
        )

    @settings(max_examples=100, deadline=None)
    @given(raw_texts(), st.integers(0, 40), st.sampled_from(TEXT_PIECES))
    def test_one_piece_inserted_into_a_valid_text(self, case, at, piece):
        text, names = case
        at = min(at, len(text))
        text = text[:at] + piece + text[at:]
        assert _parse_outcome(parse_poly, text, names) == _parse_outcome(
            parse_poly_oracle, text, names
        )


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


class TestMonomials:
    @pytest.mark.parametrize("nvars", range(5))
    def test_enumeration_matches_the_filtered_product(self, nvars):
        # the oracle filters all (d + 1)^nvars tuples, then sorts by degree, then lexicographically
        for d in range(6):
            box = itertools.product(range(d + 1), repeat=nvars)
            want = sorted((e for e in box if sum(e) <= d), key=lambda e: (sum(e), e))
            got = list(monomials(nvars, d))
            assert got == want
            assert len(set(got)) == len(got) == comb(d + nvars, nvars)


@st.composite
def row_parts(draw):
    """(nvars, parts) for integer_rows: columns that repeat, mixed
    denominators, and parts followed by their negatives, so that entries
    and whole rows cancel."""
    nvars = draw(st.integers(1, 3))
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
            den = draw(st.sampled_from((1, 2, 3, 4, 6, 9, 10, 7 * 11 * 13)))
            terms[exps] = Fraction(draw(st.integers(-9, 9)), den)
        k, p = draw(st.integers(0, 3)), Poly(nvars, terms)
        parts.append((k, p))
        if draw(st.booleans()):
            parts.append((k, -p))
    return nvars, parts


class TestIntegerRows:
    @settings(max_examples=150, deadline=None)
    @given(row_parts())
    def test_matches_sympy(self, case):
        nvars, parts = case
        symbols = sympy.symbols(f"h1:{nvars + 1}")
        got = sorted(sorted(row.items()) for row in integer_rows(parts))
        assert got == integer_rows_oracle(parts, symbols)

    def test_parts_that_cancel_leave_no_row(self):
        p = P("1/2*h1^2 - 3*h2 + 5/6")
        q = P("h1^2 + 1/3")
        assert integer_rows([(0, p), (1, q), (0, -p), (1, -q)]) == []
        # column 0 cancels from every row; the others stay, over the lcm 6
        rows = integer_rows([(0, p), (2, H2), (0, -p), (1, q)])
        assert sorted(sorted(r.items()) for r in rows) == [[(1, 2)], [(1, 6)], [(2, 6)]]

    def test_one_denominator_for_the_block(self):
        # every row of a block is scaled by the same lcm, here 6
        rows = integer_rows([(0, P("1/2*h1 + 1/3")), (1, P("h1"))])
        assert sorted(sorted(r.items()) for r in rows) == [[(0, 2)], [(0, 3), (1, 6)]]
