from fractions import Fraction

import pytest

from uhfree.poly import Poly, ShiftMap, apply_shift
from uhfree.presentation import (
    Mat2,
    build_mas,
    build_mas_bar,
    conjugate,
    make_presentation,
    verify_relations,
)
from uhfree.normalform import (
    CanonParams,
    ClassificationError,
    NilParams,
    Sl11Class,
    apply_witness_pair,
    canonicalize_pair,
    classify_sl11,
    classify_sl_m1,
    nil_factor,
    reconstruct_nil,
)
from uhfree.morphisms import check_intertwiner, iso_test
from uhfree.superlie import Root

from .helpers import random_nonzero_fraction, random_poly, random_unimodular

H = Poly.var(1, 0)
ID1 = ShiftMap.identity(1)


def sl11(p_mat, q_mat, grading="ungraded"):
    return make_presentation(1, 1, {(0, 1): p_mat, (1, 0): q_mat}, grading=grading)


CLASS1 = (
    Mat2.of(1, ((0, 1), (0, 0))),
    Mat2(((Poly.zero(1), Poly.zero(1)), (H, Poly.zero(1)))),
)
CLASS2 = (
    Mat2(((Poly.zero(1), H), (Poly.zero(1), Poly.zero(1)))),
    Mat2.of(1, ((0, 0), (1, 0))),
)


class TestNilFactor:
    def test_zero_matrix(self):
        params = nil_factor(Mat2.zero(1), ID1)
        assert (params.theta, params.alpha, params.beta) == (
            Poly.zero(1),
            Poly.one(1),
            Poly.zero(1),
        )

    def test_elementary_nilpotent(self):
        for tau in (ID1, ShiftMap((2,))):
            params = nil_factor(Mat2.of(1, ((0, 1), (0, 0))), tau)
            assert (params.theta, params.alpha, params.beta) == (
                Poly.const(1, -1),
                Poly.one(1),
                Poly.zero(1),
            )

    def test_round_trip_recovers_parameters(self):
        delta = ShiftMap((1, 1))
        h1, h2 = Poly.var(2, 0), Poly.var(2, 1)
        built = reconstruct_nil(NilParams(h1, h2, Poly.one(2)), delta)
        params = nil_factor(built, delta)
        assert (params.theta, params.alpha, params.beta) == (h1, h2, Poly.one(2))

    def test_random_round_trips_up_to_unit(self, rng):
        delta = ShiftMap((1, 1))
        trials = 0
        while trials < 15:
            theta = random_poly(rng, 2, 2)
            alpha = random_poly(rng, 2, 2)
            beta = random_poly(rng, 2, 2)
            if theta.is_zero or (alpha.is_zero and beta.is_zero):
                continue
            from uhfree.poly import poly_gcd, divides_exactly

            g = poly_gcd(alpha, beta)
            if not g.is_zero:
                alpha = divides_exactly(g, alpha)
                beta = divides_exactly(g, beta)
            built = reconstruct_nil(NilParams(theta, alpha, beta), delta)
            params = nil_factor(built, delta)
            assert reconstruct_nil(params, delta) == built
            # primitive kernel vector matches up to the unit normalization
            lead = (alpha if not alpha.is_zero else beta).leading_coeff()
            assert params.alpha == alpha * (1 / lead)
            assert params.beta == beta * (1 / lead)
            trials += 1

    def test_rejects_non_solutions(self):
        with pytest.raises(ClassificationError):
            nil_factor(Mat2.identity(1), ID1)


class TestCanonicalizePair:
    def test_case1_example(self):
        alpha = Fraction(2)
        v = H
        p = Mat2.of(1, ((0, alpha), (0, 0)))
        q = Mat2(((H * v, -alpha * H * v * v), ((1 / alpha) * H, -(H * v))))
        (cp, cq), w = canonicalize_pair(p, q, ID1, H)
        assert (cp, cq) == CLASS1
        # the constructed witness is the direct one up to a constant
        direct = Mat2(((Poly.one(1), v), (Poly.zero(1), Poly.const(1, 1 / alpha))))
        ratio = w[0, 0].constant_value() / direct[0, 0].constant_value()
        assert w == direct * ratio

    def test_already_canonical_passthrough(self):
        p = Mat2.of(1, ((0, 3), (0, 0)))
        q = Mat2(((Poly.zero(1), Poly.zero(1)), (Fraction(1, 3) * H, Poly.zero(1))))
        (cp, cq), w = canonicalize_pair(p, q, ID1, H)
        assert w == Mat2.identity(1)
        assert (cp, cq) == (p, q)

    def test_conjugated_class2_recovered(self):
        w0 = Mat2.of(1, ((1, H * H), (0, 1)))
        p = w0 * CLASS2[0] * w0.inverse_unimodular()
        q = w0 * CLASS2[1] * w0.inverse_unimodular()
        (cp, cq), w = canonicalize_pair(p, q, ID1, H)
        assert (cp, cq) == CLASS2
        assert apply_witness_pair(p, q, ID1, w) == (cp, cq)

    def test_output_identities_always_hold(self, rng):
        for _ in range(10):
            w0 = random_unimodular(rng, 1)
            base = CLASS1 if rng.random() < 0.5 else CLASS2
            p = w0 * base[0] * w0.inverse_unimodular()
            q = w0 * base[1] * w0.inverse_unimodular()
            (cp, cq), w = canonicalize_pair(p, q, ID1, H)
            u, v = cp[0, 1], cq[1, 0]
            assert u * v == H
            assert apply_witness_pair(p, q, ID1, w) == (cp, cq)
            assert w.is_unimodular()

    def test_twisted_variant_over_two_variables(self, rng):
        # the (m, b1) pair of a family presentation, canonicalized with
        # its own weight shift
        p0 = build_mas(2, (Fraction(5), Fraction(3)), (2,))
        sigma = p0.algebra.weight_shift(Root(1, 2))
        hm = Poly.var(2, 1)
        w0 = random_unimodular(rng, 2)
        conj = conjugate(p0, w0)
        (cp, cq), w = canonicalize_pair(conj.E(1, 2), conj.E(2, 1), sigma, hm)
        u, v = cp[0, 1], cq[1, 0]
        assert apply_shift(sigma.inverse(), u) * v == hm
        assert apply_witness_pair(conj.E(1, 2), conj.E(2, 1), sigma, w) == (cp, cq)

    def test_preconditions_enforced(self):
        with pytest.raises(ClassificationError):
            canonicalize_pair(Mat2.zero(1), Mat2.zero(1), ID1, H)
        with pytest.raises(ClassificationError):
            canonicalize_pair(CLASS1[0], CLASS1[1], ID1, H * H)


class TestClassifySl11:
    def test_canonical_class1_identity_witness(self):
        result = classify_sl11(sl11(*CLASS1))
        assert result.label == 1
        assert result.witness == Mat2.identity(1)

    def test_scaled_class1(self):
        p = sl11(
            Mat2.of(1, ((0, 3), (0, 0))),
            Mat2(((Poly.zero(1), Poly.zero(1)), (Fraction(1, 3) * H, Poly.zero(1)))),
        )
        assert classify_sl11(p).label == 1

    def test_scaled_class2(self):
        p = sl11(
            Mat2(((Poly.zero(1), 2 * H), (Poly.zero(1), Poly.zero(1)))),
            Mat2.of(1, ((0, 0), (Fraction(1, 2), 0))),
        )
        assert classify_sl11(p).label == 2

    def test_witness_reaches_exact_canonical_pair(self, rng):
        for _ in range(8):
            label = rng.choice([1, 2])
            base = CLASS1 if label == 1 else CLASS2
            w0 = random_unimodular(rng, 1)
            p = sl11(
                w0 * base[0] * w0.inverse_unimodular(),
                w0 * base[1] * w0.inverse_unimodular(),
            )
            result = classify_sl11(p)
            assert result.label == label
            assert result.canonical == base
            got = apply_witness_pair(p.E(0, 1), p.E(1, 0), ID1, result.witness)
            assert got == base

    def test_relations_required(self):
        with pytest.raises(ClassificationError):
            classify_sl11(sl11(Mat2.zero(1), Mat2.zero(1)))


class TestClassifySlM1:
    def test_family_is_fixed_by_classification(self):
        params, w = classify_sl_m1(build_mas(2, (1, 2), (2,)))
        assert params.a == (Fraction(1), Fraction(2))
        assert params.s == frozenset({2})
        assert not params.bar
        assert w == Mat2.identity(2)

    def test_scalar_conjugate_recovers_up_to_gamma(self, rng):
        base_a = (Fraction(1), Fraction(3))
        p = conjugate(build_mas(2, base_a, (1,)), Mat2.of(2, ((2, 0), (0, 2))))
        params, _ = classify_sl_m1(p)
        gamma = params.a[0] / base_a[0]
        assert tuple(x / gamma for x in params.a) == base_a
        assert params.s == frozenset({1})

    def test_bar_family(self):
        params, w = classify_sl_m1(build_mas_bar(2, (1, 1), ()))
        assert params.bar
        assert params.a == (Fraction(1), Fraction(1))
        assert params.s == frozenset()

    def test_random_twisted_conjugates(self, rng):
        for _ in range(6):
            m = rng.choice([2, 3])
            a = tuple(random_nonzero_fraction(rng) for _ in range(m))
            s = frozenset(i for i in range(1, m + 1) if rng.random() < 0.5)
            p = conjugate(build_mas(m, a, s), random_unimodular(rng, m))
            params, w = classify_sl_m1(p)
            gamma = params.a[0] / a[0]
            assert params.s == s
            assert all(x == gamma * y for x, y in zip(params.a, a))
            # witness soundness: the conjugated tuple is the family form
            target = build_mas(m, params.a, params.s)
            reached = conjugate(p, w)
            for pos, mat in target.odd:
                assert reached.E(*pos) == mat

    def test_m1_delegates_to_the_dichotomy(self):
        params, _ = classify_sl_m1(build_mas(1, (7,), (1,)))
        assert params.s == frozenset({1})
        params2, _ = classify_sl_m1(build_mas(1, (7,), ()))
        assert params2.s == frozenset()

    def test_normalized_representative(self):
        params = CanonParams((Fraction(2), Fraction(6)), frozenset({1}), False)
        norm = params.normalized()
        assert norm.a == (Fraction(1), Fraction(3))

    def test_wrong_size_rejected(self):
        with pytest.raises(ClassificationError):
            classify_sl_m1(_fake_n2())


def _fake_n2():
    from uhfree.presentation import odd_positions

    mats = {pos: Mat2.zero(3) for pos in odd_positions(2, 2)}
    return make_presentation(2, 2, mats)


class TestGradedEquivalence:
    # M(a, S) and its bar twin are isomorphic in M11 through an odd map
    def test_constant_odd_map(self):
        iso = iso_test(build_mas(2, (1, 1), (1,)), build_mas_bar(2, (1, 1), (1,)), "M11")
        assert iso.parity == "odd"
        assert iso.w == Mat2.of(2, ((0, -1), (1, 0)))

    def test_intertwines_for_various_parameters(self, rng):
        for _ in range(3):
            m = rng.choice([1, 2, 3])
            a = tuple(random_nonzero_fraction(rng) for _ in range(m))
            s = frozenset(i for i in range(1, m + 1) if rng.random() < 0.5)
            src, dst = build_mas(m, a, s), build_mas_bar(m, a, s)
            iso = iso_test(src, dst, "M11")
            assert iso is not None and iso.parity == "odd"
            assert check_intertwiner(src, dst, iso.w, -1)
