import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from uhfree import normalform, presentation
from uhfree.poly import Poly, PolyError, apply_shift, default_names
from uhfree.presentation import (
    Mat2,
    Presentation,
    PresentationError,
    act,
    build_mas,
    check_pointwise_budget,
    conjugate,
    _generating_pairs,
    derive_even,
    make_presentation,
    odd_positions,
    parity_check,
    pointwise_check,
    presentation_from_json,
    twisted_bracket,
    verify_relations,
)
from uhfree.normalform import verified_report
from uhfree.superlie import Cartan, Root, algebra

from .helpers import (
    build_mas_bar,
    presentation_to_dict,
    presentation_to_json,
    random_nonzero_fraction,
    random_poly,
    random_unimodular,
)
from .oracles import all_pairs_report, from_sympy, to_sympy

H = Poly.var(1, 0)


def sl11(p_mat, q_mat, grading="ungraded"):
    return make_presentation(1, 1, {(0, 1): p_mat, (1, 0): q_mat}, grading=grading)


def canonical_class1():
    return sl11(Mat2.of(1, ((0, 1), (0, 0))), Mat2(((Poly.zero(1), Poly.zero(1)), (H, Poly.zero(1)))))


class TestMat2:
    def test_inverse_of_unimodular(self):
        w = Mat2.of(2, ((1, Poly.var(2, 0)), (0, Fraction(1, 2))))
        assert w.is_unimodular()
        assert w * w.inverse_unimodular() == Mat2.identity(2)

    def test_non_unimodular_rejected(self):
        w = Mat2.of(2, ((Poly.var(2, 0), 0), (0, 1)))
        assert not w.is_unimodular()
        with pytest.raises(PresentationError):
            w.inverse_unimodular()


@st.composite
def mat2_pairs(draw):
    """Two 2x2 matrices over 1..9 variables; each entry is zero, a constant
    or up to four terms of total degree <= 12 on at most three variables,
    with coefficients n/d, d in 1..6."""
    n = draw(st.integers(1, 9))

    def entry():
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            exps = [0] * n
            for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
                exps[i] += draw(st.integers(0, 12 - sum(exps)))
            terms[tuple(exps)] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
        return Poly(n, terms)

    return tuple(Mat2(((entry(), entry()), (entry(), entry()))) for _ in range(2))


def mat2_sympy(w, syms):
    return sympy.Matrix([[to_sympy(f, syms) for f in row] for row in w.rows])


class TestMat2AgainstSympy:
    """The fused entries of `Mat2.__mul__` and `Mat2.det` against sympy.Matrix."""

    @settings(max_examples=40, deadline=None)
    @given(mat2_pairs())
    def test_product_and_det(self, pair):
        x, y = pair
        syms = sympy.symbols(default_names(x.nvars))
        want = mat2_sympy(x, syms) * mat2_sympy(y, syms)
        got = x * y
        for r in range(2):
            for c in range(2):
                assert got[r, c] == from_sympy(sympy.expand(want[r, c]), syms)
        assert x.det() == from_sympy(sympy.expand(mat2_sympy(x, syms).det()), syms)
        assert (x * y).det() == x.det() * y.det()

    def test_zero_and_identity_factors(self):
        h1, h2 = Poly.var(2, 0), Poly.var(2, 1)
        x = Mat2.of(2, ((h1, 0), (Fraction(1, 3), h2 - 1)))
        assert x * Mat2.zero(2) == Mat2.zero(2) == Mat2.zero(2) * x
        assert x * Mat2.identity(2) == x == Mat2.identity(2) * x
        assert x * Mat2.swap(2) == Mat2.of(2, ((0, h1), (h2 - 1, Fraction(1, 3))))
        assert x.det() == h1 * h2 - h1 and Mat2.swap(2).det() == -1

    def test_an_entry_over_the_degree_limit_raises_as_the_entrywise_product(self):
        h1, h2 = Poly.var(2, 0), Poly.var(2, 1)
        top = Mat2.of(2, ((h1**16384, h2**20000), (0, 1)))
        cases = [
            # entry (0, 0): a*e reaches 2^15 before b*g reaches 40000
            (top, Mat2.of(2, ((h1**16384, 0), (h2**20000, 0)))),
            # a*e reaches exactly 2^15 - 1, b*g goes over
            (top, Mat2.of(2, ((h1**16383, 0), (h2**12768, 0)))),
            # only entry (1, 1) goes over, through d*h
            (Mat2.of(2, ((1, 0), (0, h2**16384))), Mat2.of(2, ((1, 0), (0, h1**16384)))),
        ]
        for x, y in cases:
            with pytest.raises(PolyError) as entrywise:
                (a, b), (c, d) = x.rows
                (e, f), (g, h) = y.rows
                (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            with pytest.raises(PolyError) as fused:
                x * y
            assert str(fused.value) == str(entrywise.value)
        assert str(entrywise.value) == "total degree 32768 is over the limit of 32767"
        with pytest.raises(PolyError, match="^total degree 32768 is over the limit of 32767$"):
            Mat2.of(2, ((h1**16384, 0), (0, h2**16384))).det()
        with pytest.raises(PolyError, match="^variable-count mismatch: 2 vs 3$"):
            Mat2.identity(2) * Mat2.identity(3)


class TestAct:
    def test_sl11_x_moves_the_odd_generator(self):
        p = canonical_class1()
        out = act(p, Root(0, 1), Mat2.column(Poly.zero(1), Poly.one(1)))
        assert out == Mat2.column(Poly.one(1), Poly.zero(1))

    def test_cartan_multiplies(self):
        p = canonical_class1()
        out = act(p, Cartan(0), Mat2.column(Poly.one(1), Poly.zero(1)))
        assert out == Mat2.column(H, Poly.zero(1))

    def test_sl21_twisted_action(self):
        p = build_mas(2, (1, 1), ())
        h2 = Poly.var(2, 1)
        out = act(p, Root(0, 2), Mat2.column(Poly.zero(2), h2))
        assert out == Mat2.column(h2 + 1, Poly.zero(2))

    def test_uh_linearity_with_twist(self, rng):
        from .helpers import random_poly

        p = build_mas(2, (Fraction(2), Fraction(1, 3)), (2,))
        alg = p.algebra
        for b in alg.root_vectors():
            tau = alg.weight_shift(b)
            for _ in range(3):
                g = random_poly(rng, 2, 2)
                v = Mat2.column(random_poly(rng, 2, 2), random_poly(rng, 2, 2))
                assert act(p, b, v * g) == act(p, b, v) * apply_shift(tau, g)


class TestDeriveEven:
    def test_sl21_family_even_matrix(self):
        # twisted-product value for M((1,1), {}) -- frozen from the
        # product E_{1,b1} tau(E_{b1,2}) + E_{b1,2} tau(E_{1,b1})
        p = build_mas(2, (1, 1), ())
        h2 = Poly.var(2, 1)
        e12 = derive_even(p, 0, 1)
        assert e12 == Mat2(((h2 + 1, Poly.zero(2)), (Poly.zero(2), h2)))

    def test_sl21_scaled_family(self):
        p = build_mas(2, (Fraction(3), Fraction(2)), ())
        h2 = Poly.var(2, 1)
        ratio = Fraction(3, 2)
        e12 = derive_even(p, 0, 1)
        assert e12 == Mat2(((ratio * (h2 + 1), Poly.zero(2)), (Poly.zero(2), ratio * h2)))

    def test_sl11_has_no_even_roots(self):
        p = canonical_class1()
        with pytest.raises(PresentationError):
            derive_even(p, 0, 0)

    def test_sl22_hypothetical_tuple_reproduces_displayed_diagonal(self):
        # the branch tuple of the emptiness argument, scalars at 1
        nv = 3
        names = default_names(nv, 2)
        z = Poly.zero(nv)
        h1, h2, hb1 = (Poly.var(nv, k) for k in range(3))
        A = h1 + hb1 - h2
        mats = {
            (0, 2): Mat2(((z, Poly.one(nv)), (z, z))),
            (2, 0): Mat2(((z, z), (A, z))),
            (1, 2): Mat2(((z, hb1), (z, z))),
            (2, 1): Mat2(((z, z), (Poly.one(nv), z))),
            (0, 3): Mat2(((z, Poly.one(nv)), (z, z))),
            (3, 0): Mat2(((z, z), (h1, z))),
            (1, 3): Mat2(((z, h2), (z, z))),
            (3, 1): Mat2(((z, z), (Poly.one(nv), z))),
        }
        p = make_presentation(2, 2, mats)
        alg = p.algebra

        def route(via):
            x, y = Root(1, via), Root(via, 0)
            return twisted_bracket(alg, x, mats[x.row, x.col], y, mats[y.row, y.col])

        via_b1 = route(2)
        expected = Mat2(((hb1 * (A + 1), z), (z, (hb1 - 1) * A)))
        assert via_b1 == expected
        # the other route disagrees, which is the emptiness obstruction
        via_bn = route(3)
        assert via_bn == Mat2((((h1 + 1) * h2, z), (z, h1 * (h2 - 1))))
        assert via_b1 != via_bn
        assert not verify_relations(p).ok


class TestVerifyRelations:
    def test_canonical_sl11_passes(self):
        assert verify_relations(canonical_class1()).ok

    def test_zero_pair_fails_on_the_scalar_identity(self):
        p = sl11(Mat2.zero(1), Mat2.zero(1))
        report = verify_relations(p)
        assert not report.ok
        [violation] = report.violations
        assert violation.rhs == Mat2.scalar(H)

    def test_family_passes(self):
        assert verify_relations(build_mas(2, (1, 2), (1,))).ok

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_family_exhaustive_over_subsets(self, m, rng):
        import itertools

        for bits in itertools.product((0, 1), repeat=m):
            s = frozenset(i + 1 for i in range(m) if bits[i])
            a = tuple(random_nonzero_fraction(rng) for _ in range(m))
            p = build_mas(m, a, s)
            assert verify_relations(p).ok
            assert parity_check(p).ok
            pb = build_mas_bar(m, a, s)
            assert verify_relations(pb).ok
            assert parity_check(pb).ok

    def test_pointwise_sampler_agrees(self):
        good = build_mas(2, (1, 1), (1,))
        assert pointwise_check(good, 2).ok
        bad = sl11(Mat2.zero(1), Mat2.zero(1))
        assert not pointwise_check(bad, 2).ok

    @pytest.mark.parametrize("m, passes", [(1, 1110), (2, 16), (3, 4), (4, 2)])
    def test_the_pointwise_budget_counts_pairs_times_samples(self, m, passes):
        # (dim g)^2 * C(D + m, m) <= 10 000 holds at D = passes, not at passes + 1
        p = build_mas(m, tuple(range(1, m + 1)), (1,))
        check_pointwise_budget(p, passes)
        with pytest.raises(PresentationError, match="over the budget"):
            check_pointwise_budget(p, passes + 1)

    def test_bracket_action_identity_on_monomials(self):
        # act(x, act(y, v)) - (-1)^{|x||y|} act(y, act(x, v)) = act([x,y], v)
        p = build_mas(2, (Fraction(1, 2), 3), (1,))
        alg = p.algebra
        report = pointwise_check(p, 3)
        assert report.ok and report.checked > 0
        # spot check one pair explicitly against the bracket's expansion
        x, y = Root(0, 2), Root(2, 0)
        v = Mat2.column(Poly.var(2, 0) ** 2, Poly.var(2, 1))
        lhs = act(p, x, act(p, y, v)) + act(p, y, act(p, x, v))
        rhs = Mat2.zero(2)
        for b, c in alg.super_bracket(x, y).items():
            rhs = rhs + c * act(p, b, v)
        assert lhs == rhs


@st.composite
def family_cases(draw):
    """M(a, S) or Mbar(a, S) over sl(m|1), m = 1..4: plain, conjugated by
    a polynomial unimodular matrix, with one entry perturbed, or both."""
    rng = draw(st.randoms(use_true_random=False))
    m = draw(st.integers(1, 4))
    a = [random_nonzero_fraction(rng) for _ in range(m)]
    s = [i for i in range(1, m + 1) if rng.random() < 0.5]
    build = build_mas_bar if draw(st.booleans()) else build_mas
    p = build(m, a, s)
    variant = draw(st.sampled_from(["plain", "conjugate", "perturbed", "both"]))
    if variant in ("conjugate", "both"):
        p = conjugate(p, random_unimodular(rng, m))
    if variant in ("perturbed", "both"):
        pos = rng.choice(list(odd_positions(m, 1)))
        r, c = rng.randrange(2), rng.randrange(2)
        rows = [list(row) for row in p.E(*pos).rows]
        rows[r][c] = rows[r][c] + random_poly(rng, m, 1, allow_zero=False)
        p = make_presentation(m, 1, {**dict(p.odd), pos: Mat2(rows)})
    return p


@st.composite
def random_cases(draw):
    """Random odd matrices over sl(1|1), sl(2|2) or sl(3|2): dense entries
    of degree <= 1, or the M(a, S) pattern with raising generators
    upper-right and lowering ones lower-left."""
    rng = draw(st.randoms(use_true_random=False))
    m, n = draw(st.sampled_from([(1, 1), (2, 2), (3, 2)]))
    nv = m + n - 1
    family_shape = draw(st.booleans())
    z = Poly.zero(nv)
    mats = {}
    for row, col in odd_positions(m, n):
        if family_shape:
            h = Poly.var(nv, min(row, col))
            if rng.random() < 0.5:
                upper, lower = random_nonzero_fraction(rng) * h, Poly.one(nv)
            else:
                upper, lower = Poly.one(nv), random_nonzero_fraction(rng) * h
            raising = row < col
            mats[(row, col)] = Mat2(((z, upper), (z, z)) if raising else ((z, z), (lower, z)))
        else:
            mats[(row, col)] = Mat2(
                [[random_poly(rng, nv, 1, max_terms=2) for _ in range(2)] for _ in range(2)]
            )
    return make_presentation(m, n, mats)


def assert_agrees_with_every_root_pair(p):
    report = verify_relations(p)
    oracle = all_pairs_report(p)
    assert (report.ok, report.checked) == (oracle.ok, oracle.checked)
    if not oracle.ok:
        assert report.violations == oracle.violations
    return report


class TestGeneratingSet:
    """verify_relations evaluates a generating set and falls back to every
    pair; the oracle evaluates every pair.  The simple even x odd part of
    the generating set is there because the proof needs it: odd x odd
    alone has also agreed with every pair on random perturbations, so no
    test here shows what dropping it would break."""

    @staticmethod
    def evaluated(monkeypatch, p):
        """verify_relations(p) and the number of identities it evaluated."""
        real, calls = presentation._violation, []

        def counting(q, x, y):
            calls.append((x, y))
            return real(q, x, y)

        monkeypatch.setattr(presentation, "_violation", counting)
        return verify_relations(p), len(calls)

    @pytest.mark.parametrize(
        "m, evaluated, checked",
        [(3, 39, 78), (6, 168, 903), (8, 304, 2628), (10, 480, 6105)],
    )
    def test_pass_evaluates_the_generating_set_and_counts_every_pair(
        self, monkeypatch, m, evaluated, checked
    ):
        p = build_mas(m, range(1, m + 1), range(1, m + 1, 2))
        report, calls = self.evaluated(monkeypatch, p)
        assert report.ok
        assert (calls, report.checked) == (evaluated, checked)

    @pytest.mark.parametrize("m, n, size", [(3, 1, 39), (2, 2, 64), (3, 2, 142), (1, 3, 39)])
    def test_size_leaves_out_only_the_pairs_that_define_evens(self, m, n, size):
        # all odd x odd pairs, less the m(m-1) + n(n-1) that define an
        # even matrix (the i = j pairs stay), plus the simple even x odd pairs
        big_n = 2 * m * n
        expected = big_n * (big_n + 1) // 2 - m * (m - 1) - n * (n - 1) + 2 * (m + n - 2) * big_n
        assert len(_generating_pairs(algebra(m, n))) == expected == size

    def test_left_out_pairs_hold_even_on_random_data(self):
        # the left-out identities restate derive_even, so the all-pairs
        # oracle never lists them, however many others fail
        rng = random.Random(7)
        m, n, nv = 3, 2, 4
        mats = {
            pos: Mat2([[random_poly(rng, nv, 1, max_terms=2) for _ in range(2)] for _ in range(2)])
            for pos in odd_positions(m, n)
        }
        p = make_presentation(m, n, mats)
        alg = p.algebra
        odd = alg.odd_roots()
        kept = set(_generating_pairs(alg))
        left_out = {(x, y) for a, x in enumerate(odd) for y in odd[a:]} - kept
        assert len(left_out) == m * (m - 1) + n * (n - 1)
        report = all_pairs_report(p)
        assert not report.ok
        assert not left_out & {(v.left, v.right) for v in report.violations}

    def test_failure_counts_the_tried_identities_and_the_full_loop(self, monkeypatch):
        # odd x odd in order: [x, x] holds, [x, y] = h fails, then all 3 pairs
        report, calls = self.evaluated(monkeypatch, sl11(Mat2.zero(1), Mat2.zero(1)))
        assert (report.ok, report.checked, calls) == (False, 3, 2 + 3)

    @settings(max_examples=60, deadline=None)
    @given(family_cases())
    def test_agrees_with_every_root_pair_on_the_family(self, p):
        assert_agrees_with_every_root_pair(p)

    @settings(max_examples=40, deadline=None)
    @given(random_cases())
    def test_agrees_with_every_root_pair_on_random_data(self, p):
        report = assert_agrees_with_every_root_pair(p)
        if p.n > 1:
            # emptiness theorem: no rank-2 U(h)-free module for m, n >= 2
            assert not report.ok


class TestBuilders:
    def test_family_matrices(self):
        p = build_mas(2, (1, 1), ())
        h1, h2 = Poly.var(2, 0), Poly.var(2, 1)
        z = Poly.zero(2)
        assert p.E(0, 2) == Mat2(((z, Poly.one(2)), (z, z)))
        assert p.E(2, 0) == Mat2(((z, z), (h1, z)))
        assert p.E(1, 2) == Mat2(((z, Poly.one(2)), (z, z)))
        assert p.E(2, 1) == Mat2(((z, z), (h2, z)))

    def test_m1_special_cases(self):
        p = build_mas(1, (1,), (1,))
        assert p.E(0, 1) == Mat2(((Poly.zero(1), H), (Poly.zero(1), Poly.zero(1))))
        assert p.E(1, 0) == Mat2(((Poly.zero(1), Poly.zero(1)), (Poly.one(1), Poly.zero(1))))

    def test_zero_parameter_rejected(self):
        with pytest.raises(PresentationError):
            build_mas(2, (1, 0), ())

    def test_bar_variant(self):
        p = build_mas_bar(1, (1,), (1,))
        z = Poly.zero(1)
        assert p.E(0, 1) == Mat2(((z, z), (H, z)))
        assert p.E(1, 0) == Mat2(((z, Poly.one(1)), (z, z)))
        assert verify_relations(build_mas_bar(2, (1, 1), (1, 2))).ok
        assert parity_check(build_mas_bar(1, (2,), ())).ok


class TestPresentationRecord:
    """Presentation is immutable; its two caches stay out of equality, hash and repr."""

    def test_filled_caches_keep_equality_and_hash(self):
        p = build_mas(3, (1, 2, 3), (2,))
        assert verified_report(p).ok
        p.E(0, 1)  # an even matrix, derived into the lookup table
        assert p._memo and len(p._lookup) > len(p.odd)
        fresh = build_mas(3, (1, 2, 3), (2,))
        assert not fresh._memo and len(fresh._lookup) == len(fresh.odd)
        assert p == fresh and fresh == p and hash(p) == hash(fresh)
        assert len({p, fresh}) == 1 and repr(p) == repr(fresh)

    def test_each_defining_field_takes_part_in_equality(self):
        p = build_mas(2, (1, 2), (1,))
        assert Presentation(2, 1, "ungraded", p.odd) != p
        assert build_mas(2, (1, 3), (1,)) != p
        assert p != (p.m, p.n, p.grading, p.odd)

    @pytest.mark.parametrize("name", ["m", "n", "grading", "odd", "_lookup", "_memo", "other"])
    def test_every_attribute_is_read_only(self, name):
        p = build_mas(2, (1, 2), (1,))
        with pytest.raises(AttributeError):
            setattr(p, name, None)
        assert p == build_mas(2, (1, 2), (1,))


class TestParity:
    def test_family_is_consistently_graded(self):
        assert parity_check(build_mas(2, (1, 1), ())).ok

    def test_diagonal_odd_matrix_breaks_grading(self):
        bad = make_presentation(
            1,
            1,
            {(0, 1): Mat2.of(1, ((1, 0), (0, 0))), (1, 0): Mat2.zero(1)},
            grading="g11",
        )
        assert not parity_check(bad).ok

    def test_failures_name_only_the_odd_generators_at_fault(self):
        # a full e[1,b1] makes the derived e[1,2] non-diagonal as well; the
        # report names the generator, from which that follows
        mats = dict(build_mas(2, (1, 1), ()).odd)
        mats[(0, 2)] = Mat2.of(2, ((1, 1), (1, 1)))
        bad = make_presentation(2, 1, mats, grading="g11")
        assert not bad.E(0, 1).is_diagonal()
        assert parity_check(bad).failures == ("e[1,b1] is not strictly upper-right",)

    def test_ungraded_input_is_an_error(self):
        with pytest.raises(PresentationError):
            parity_check(canonical_class1())


class TestConjugation:
    def test_diagonal_keeps_grading(self, rng):
        p = build_mas(2, (1, 2), (1,))
        w = Mat2.of(2, ((2, 0), (0, Fraction(1, 3))))
        assert conjugate(p, w).grading == "g11"

    def test_antidiagonal_swaps_grading(self):
        p = build_mas(2, (1, 2), (1,))
        w = Mat2.of(2, ((0, 1), (1, 0)))
        q = conjugate(p, w)
        assert q.grading == "g11bar"
        assert parity_check(q).ok

    def test_generic_witness_drops_grading_but_keeps_relations(self, rng):
        p = build_mas(2, (1, 2), (1,))
        w = random_unimodular(rng, 2)
        q = conjugate(p, w)
        assert q.grading == "ungraded"
        assert verify_relations(q).ok

    def test_conjugation_composes(self, rng):
        p = build_mas(2, (1, 1), (2,))
        w1 = random_unimodular(rng, 2)
        w2 = random_unimodular(rng, 2)
        assert conjugate(conjugate(p, w1), w2) == conjugate(p, w1 * w2)

    def test_non_unimodular_witness_rejected(self):
        p = build_mas(2, (1, 2), (1,))
        with pytest.raises(PresentationError, match="not a nonzero constant"):
            conjugate(p, Mat2.of(2, ((Poly.var(2, 0), 0), (0, 1))))


def plant_shape_report(monkeypatch, member, check=verify_relations):
    """Seed the cached report of the representative (m, |S|) = (2, 1) with check(member)."""
    normalform._family_report.cache_clear()
    normalform._shape_report.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(normalform, "build_mas", lambda m, a, s: member)
        patch.setattr(normalform, "verify_relations", check)
        return normalform._family_report(2, 1)


class TestRelationReportFallback:
    """verified_report falls back to p's own check when the family representative fails its check."""

    @pytest.fixture
    def planted(self, monkeypatch):
        # the representative of (2, 1), for the shapes (2, {1}) and (2, {2}), is
        # reported from a member that is no module: M((1, 1), {1}) with one odd
        # generator doubled
        member = build_mas(2, (1, 1), (1,))
        broken = make_presentation(
            2, 1, {pos: 2 * mat if pos == (0, 2) else mat for pos, mat in member.odd}, "g11"
        )
        assert not plant_shape_report(monkeypatch, broken).ok
        return build_mas(2, (1, 2), (1,)), broken

    def test_failing_member_is_not_the_verdict(self, planted):
        p, broken = planted
        report = verified_report(p)
        assert report.ok and report.violations == ()
        # p's one record keeps the report and no (params, w)
        ((kept, outcome),) = p._memo.values()
        assert kept is report and not isinstance(outcome, tuple)

    def test_classifying_such_a_module_is_a_breach(self, planted):
        # p passes although the shape it reaches fails: no classification is kept
        p, _ = planted
        assert verified_report(p).ok
        with pytest.raises(presentation.InvariantBreach, match="family member failed"):
            normalform.classified_sl_m1(p)

    def test_without_the_check_the_member_would_be_reported(self, planted, monkeypatch):
        p, broken = planted
        passing = plant_shape_report(
            monkeypatch, broken, lambda q: verify_relations(q)._replace(ok=True)
        )
        report = verified_report(p)
        assert report is passing and report.violations == verify_relations(broken).violations != ()

    def test_the_plant_stays_on_its_shape(self, planted):
        # the cache is keyed by m and |S|: (2, {}), (2, {1, 2}) and (3, {1}) are checked afresh
        for m, s in ((2, ()), (2, (1, 2)), (3, (1,))):
            q = build_mas(m, range(1, m + 1), s)
            assert verified_report(q).ok
            params, _ = normalform.classified_sl_m1(q)
            assert params.s == frozenset(s)

    def test_the_plant_covers_every_shape_of_its_size(self, planted):
        # (2, {2}) has the planted representative too, so p falls back to its own check
        q = build_mas(2, (1, 2), (2,))
        assert verified_report(q).ok
        with pytest.raises(presentation.InvariantBreach, match="family member failed"):
            normalform.classified_sl_m1(q)


class TestInterchange:
    def test_round_trip_bit_exact(self):
        p = build_mas(3, (Fraction(2, 3), 5, Fraction(-1, 7)), (1, 3))
        text = presentation_to_json(p)
        again = presentation_from_json(text)
        assert again == p
        assert presentation_to_json(again) == text

    def test_unknown_keys_rejected(self):
        data = presentation_to_dict(build_mas(1, (1,), ()))
        data["extra"] = 1
        with pytest.raises(PresentationError, match="unknown keys"):
            presentation_from_json(json.dumps(data))

    def test_unknown_generator_rejected(self):
        data = presentation_to_dict(build_mas(1, (1,), ()))
        data["E"]["e[2,b1]"] = [["0", "0"], ["0", "0"]]
        with pytest.raises(PresentationError, match="unknown generator"):
            presentation_from_json(json.dumps(data))

    def test_missing_generator_rejected(self):
        data = presentation_to_dict(build_mas(1, (1,), ()))
        del data["E"]["e[1,b1]"]
        with pytest.raises(PresentationError, match="missing generator"):
            presentation_from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "label",
        # out of range, leading zero, zero, even, and too long for int()
        ["e[2,b1]", "e[1,b2]", "e[01,b1]", "e[0,b1]", "e[1,1]", "e[b1,b1]"]
        + ["e[1,b" + "9" * 5000 + "]"],
    )
    def test_labels_outside_the_algebra_are_unknown(self, label):
        data = presentation_to_dict(build_mas(1, (1,), ()))
        data["E"][label] = [["0", "0"], ["0", "0"]]
        with pytest.raises(PresentationError, match="unknown generator keys"):
            presentation_from_json(json.dumps(data))

    def test_named_unknown_keys_are_capped(self):
        data = presentation_to_dict(build_mas(1, (1,), ()))
        for k in range(30):
            data["E"][f"x{k:02}"] = [["0", "0"], ["0", "0"]]
        with pytest.raises(PresentationError) as info:
            presentation_from_json(json.dumps(data))
        names = [f"x{k:02}" for k in range(20)]
        assert str(info.value) == f"unknown generator keys: {names} and 10 more"

    def test_format_version_checked(self):
        data = presentation_to_dict(build_mas(1, (1,), ()))
        data["format"] = "uhfree-presentation/999"
        with pytest.raises(PresentationError, match="format-version"):
            presentation_from_json(json.dumps(data))

    def test_grammar_violation_carries_position(self):
        data = presentation_to_dict(build_mas(1, (1,), ()))
        data["E"]["e[1,b1]"] = [["0", "h1 +"], ["0", "0"]]
        with pytest.raises(Exception, match="column"):
            presentation_from_json(json.dumps(data))

    def test_generator_set_validated_at_construction(self):
        with pytest.raises(PresentationError):
            make_presentation(2, 1, {(0, 2): Mat2.zero(2)})


# -- the JSON writer against json -----------------------------------------------------

json_texts = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
        st.characters(max_codepoint=0x7F),
        st.characters(min_codepoint=0x80),
    ),
    max_size=12,
)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**40, max_value=10**400),
    st.integers(min_value=-(10**400), max_value=-(10**40)),
    json_texts,
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_texts, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_dump_json_writes_what_json_writes(value):
    assert presentation.dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        Fraction(1, 2),
        0.5,
        {1: "a"},
        {"a": [Fraction(1)]},
        [{"a": {2: None}}],
        {"a": 1.0},
        {"a": [Root(0, 1)]},
    ],
    ids=[
        "fraction",
        "float",
        "int-key",
        "nested-fraction",
        "nested-int-key",
        "nested-float",
        "nested-record",
    ],
)
def test_dump_json_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        presentation.dump_json(value)
