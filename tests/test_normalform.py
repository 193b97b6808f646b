import traceback
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from uhfree import normalform
from uhfree.cli import main
from uhfree.poly import Poly, apply_shift
from uhfree.mat2 import InvariantBreach, Mat2
from uhfree.presentation import (
    RelationReport,
    build_mas,
    conjugate,
    make_presentation,
    verify_relations,
)
from uhfree.normalform import (
    CanonParams,
    ClassificationError,
    NilParams,
    Sl11Class,
    canonicalize_pair,
    classified_sl_m1,
    classify_sl11,
    classify_sl_m1,
    nil_factor,
    verified_report,
)
from uhfree.morphisms import check_intertwiner, iso_test
from uhfree.superlie import Root, algebra

from .oracles import eager_canonicalize_pair, eager_nil_factor
from .helpers import (
    apply_witness_pair,
    build_mas_bar,
    presentation_to_json,
    random_nonzero_fraction,
    random_poly,
    random_unimodular,
    reconstruct_nil,
    scaled_conjugates,
)

H = Poly.var(1, 0)
ID1 = (0,)


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
        for tau in (ID1, (2,)):
            params = nil_factor(Mat2.of(1, ((0, 1), (0, 0))), tau)
            assert (params.theta, params.alpha, params.beta) == (
                Poly.const(1, -1),
                Poly.one(1),
                Poly.zero(1),
            )

    def test_round_trip_recovers_parameters(self):
        delta = (1, 1)
        h1, h2 = Poly.var(2, 0), Poly.var(2, 1)
        built = reconstruct_nil(NilParams(h1, h2, Poly.one(2)), delta)
        params = nil_factor(built, delta)
        assert (params.theta, params.alpha, params.beta) == (h1, h2, Poly.one(2))

    def test_random_round_trips_up_to_unit(self, rng):
        delta = (1, 1)
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

    def test_no_polynomial_is_multiplied_by_one(self, rng, monkeypatch):
        # round-trip inputs whose theta, alpha and beta are not constant, so a
        # product with the constant one is one that K = tau(k) r need not make
        delta = (1, 1)
        h1, h2 = Poly.var(2, 0), Poly.var(2, 1)
        inputs = [reconstruct_nil(NilParams(h1 + 1, h2, h1 - h2), delta)]
        while len(inputs) < 15:
            params = [random_poly(rng, 2, 2) for _ in range(3)]
            if all(f.total_degree() > 0 for f in params):
                inputs.append(reconstruct_nil(NilParams(*params), delta))
        ones = []
        real = Poly.__mul__

        def spy(a, b):
            ones.extend(x for x in (a, b) if isinstance(x, Poly) and x == Poly.one(x.nvars))
            return real(a, b)

        monkeypatch.setattr(Poly, "__mul__", spy)
        for built in inputs:
            nil_factor(built, delta)
        assert ones == []

    def test_rejects_non_solutions(self):
        with pytest.raises(ClassificationError):
            nil_factor(Mat2.identity(1), ID1)


class TestPlantedFaults:
    """Checks that no valid input reaches: each is reached through a fault
    planted in the step before it, and would let that fault through with
    its `raise` gone."""

    def test_nil_factor_re_raises_a_failed_factorization(self, monkeypatch):
        # the twisted square of CLASS1[0] is zero, so the check before the
        # re-raise passes and only the re-raise reports the failure
        def failing(p, tau):
            raise InvariantBreach("planted factorization failure")

        monkeypatch.setattr(normalform, "_factor_nil", failing)
        with pytest.raises(InvariantBreach, match="planted factorization failure"):
            nil_factor(CLASS1[0], ID1)

    def test_factor_nil_checks_the_kernel_gcd(self, monkeypatch):
        # a gcd that divides no entry of the kernel vector (h, 0)
        monkeypatch.setattr(normalform, "poly_gcd", lambda a, b: H + 7)
        with pytest.raises(InvariantBreach, match="kernel gcd does not divide the kernel vector"):
            normalform._factor_nil(CLASS2[0], ID1)

    def test_construct_pair_checks_its_witness(self, monkeypatch):
        # theta doubled and omega halved leave the normal form (u, v) and the
        # product identity as they are, but halve the witness's second column
        real, scales = nil_factor, [2, Fraction(1, 2)]

        def planted(p, tau):
            params = real(p, tau)
            return params._replace(theta=params.theta * scales.pop(0))

        monkeypatch.setattr(normalform, "nil_factor", planted)
        w0 = Mat2.of(1, ((1, H * H), (0, 1)))
        p = w0 * CLASS2[0] * w0.inverse_unimodular()
        q = w0 * CLASS2[1] * w0.inverse_unimodular()
        with pytest.raises(InvariantBreach, match="canonicalizing witness failed"):
            canonicalize_pair(p, q, ID1, H)
        assert scales == []


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
        assert apply_shift(tuple(-x for x in sigma), u) * v == hm
        assert apply_witness_pair(conj.E(1, 2), conj.E(2, 1), sigma, w) == (cp, cq)

    def test_preconditions_enforced(self):
        with pytest.raises(ClassificationError):
            canonicalize_pair(Mat2.zero(1), Mat2.zero(1), ID1, H)
        with pytest.raises(ClassificationError):
            canonicalize_pair(CLASS1[0], CLASS1[1], ID1, H * H)
        # h1 -> h1 - 1 moves the scalar h1
        with pytest.raises(ClassificationError, match="fixed by the twist"):
            canonicalize_pair(CLASS1[0], CLASS1[1], (1,), H)


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def distinguished_pair(mats, m):
    """The (m, b1) pair of an sl(m|1) tuple, with its twist and scalar h_m."""
    sigma = algebra(m, 1).weight_shift(Root(m - 1, m))
    return mats[m - 1, m], mats[m, m - 1], sigma, Poly.var(m, m - 1)


def assert_eager_outcome(p, q, sigma, a):
    """canonicalize_pair and the nil_factor calls it makes agree with the eager order."""
    assert outcome(canonicalize_pair, p, q, sigma, a) == outcome(
        eager_canonicalize_pair, p, q, sigma, a
    )
    inv = tuple(-x for x in sigma)
    for mat, tau in ((p, inv), (q, sigma)):
        assert outcome(nil_factor, mat, tau) == outcome(eager_nil_factor, mat, tau)


class TestDeferredPreconditions:
    """The pair identities are tested only when the construction fails; every
    input keeps the result or exception of the eager order (tests/oracles.py)."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_scaled_conjugates(self, m):
        for _, mats in scaled_conjugates(m):
            assert_eager_outcome(*distinguished_pair(mats, m))
            p = make_presentation(m, 1, mats)
            got = outcome(classify_sl_m1, p)
            with mock.patch.object(normalform, "canonicalize_pair", eager_canonicalize_pair):
                assert outcome(classify_sl_m1, make_presentation(m, 1, mats)) == got

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 5), st.randoms(use_true_random=False))
    def test_perturbed_conjugates(self, m, kind, rng):
        a = tuple(random_nonzero_fraction(rng) for _ in range(m))
        s = [i for i in range(1, m + 1) if rng.random() < 0.5]
        mats = dict(conjugate(build_mas(m, a, s), random_unimodular(rng, m)).odd)
        p, q, sigma, hm = distinguished_pair(mats, m)
        if kind == 0:  # one entry of P or Q plus a random polynomial
            bump = [[Poly.zero(m)] * 2 for _ in range(2)]
            bump[rng.randrange(2)][rng.randrange(2)] = random_poly(rng, m, 2)
            if rng.random() < 0.5:
                p = p + Mat2(bump)
            else:
                q = q + Mat2(bump)
        elif kind == 1:  # P scaled: the twisted squares hold, the anticommutator fails
            p = p * random_nonzero_fraction(rng)
        elif kind == 2:  # Q times h_m
            q = q * hm
        elif kind == 3:  # the pair swapped
            p, q = q, p
        elif kind == 4:  # the wrong scalar
            hm = hm * 2
        # kind 5 keeps the module's own pair
        assert_eager_outcome(p, q, sigma, hm)

    def test_zero_p_with_a_non_triangular_q(self):
        z = Poly.zero(1)
        for q in (
            Mat2(((H, Poly.one(1)), (-(H * H), -H))),
            Mat2(((H, Poly.one(1)), (z, z))),
            Mat2.identity(1),
        ):
            assert_eager_outcome(Mat2.zero(1), q, ID1, H)
            with pytest.raises(ClassificationError, match="anticommutator"):
                canonicalize_pair(Mat2.zero(1), q, ID1, H)

    def test_non_nilpotent_p(self):
        for p, q in (
            (Mat2.identity(1), Mat2.scalar(H * Fraction(1, 2))),
            (Mat2.of(1, ((1, 0), (0, 0))), CLASS1[1]),
            (Mat2.of(1, ((1, 1), (0, 1))), CLASS2[1]),
        ):
            assert_eager_outcome(p, q, ID1, H)
        with pytest.raises(ClassificationError, match="twisted square"):
            canonicalize_pair(Mat2.identity(1), Mat2.scalar(H * Fraction(1, 2)), ID1, H)

    def test_nilpotent_pair_failing_the_anticommutator(self):
        w0 = Mat2.of(1, ((1, H * H), (0, 1)))
        conj = [w0 * x * w0.inverse_unimodular() for x in CLASS2]
        for p, q in (
            (CLASS1[0], 2 * CLASS1[1]),
            (CLASS1[0], CLASS2[1]),
            (conj[0], H * conj[1]),
            (Fraction(1, 3) * conj[0], conj[1]),
        ):
            assert_eager_outcome(p, q, ID1, H)
            with pytest.raises(ClassificationError, match="anticommutator"):
                canonicalize_pair(p, q, ID1, H)

    def test_a_module_classifies_without_the_precondition_checks(self, rng):
        for m in (1, 2, 3):
            w = Mat2.of(m, ((1, 0), (Poly.var(m, 0), 1))) * random_unimodular(rng, m)
            p = conjugate(build_mas(m, range(1, m + 1), (1,)), w)
            assert not p.E(m - 1, m).is_strict_upper()
            expected = classify_sl_m1(p)
            with mock.patch.object(
                normalform, "_check_pair_identities", side_effect=AssertionError
            ), mock.patch.object(normalform, "_check_twisted_square", side_effect=AssertionError):
                assert classify_sl_m1(p) == expected


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

    def test_canonical_pair_with_non_monic_entry_is_scaled(self):
        # canonicalize_pair passes this pair through; diag(1, 1/3) makes u monic
        p = sl11(
            Mat2.of(1, ((0, 3), (0, 0))),
            Mat2(((Poly.zero(1), Poly.zero(1)), (Fraction(1, 3) * H, Poly.zero(1)))),
            grading="g11",
        )
        witness = Mat2.of(1, ((1, 0), (0, Fraction(1, 3))))
        assert classify_sl11(p) == Sl11Class(1, witness, CLASS1)

    def test_bar_input_gets_the_witness_before_the_swap(self):
        params, w = classified_sl_m1(build_mas_bar(1, (5,), (1,)))
        assert params == CanonParams((Fraction(1),), frozenset({1}), True)
        assert w == Mat2.of(1, ((Fraction(-1, 5), 0), (0, -1)))
        witness = Mat2.of(1, ((0, Fraction(-1, 5)), (-1, 0)))
        assert classify_sl11(build_mas_bar(1, (5,), (1,))) == Sl11Class(2, witness, CLASS2)

    def test_reads_the_sl_m1_classification(self):
        p = sl11(*CLASS2)
        classified_sl_m1(p)
        with mock.patch.object(normalform, "canonicalize_pair", side_effect=AssertionError):
            assert classify_sl11(p).label == 2


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


class TestCanonParams:
    """CanonParams is immutable; its repr and hash are those of (a, s, bar)."""

    def test_equal_params_hash_alike(self):
        a = (Fraction(1), Fraction(2))
        first = CanonParams(a, frozenset({1}))
        second = CanonParams(tuple(a), frozenset([1]), False)
        assert first == second and hash(first) == hash(second)
        assert first.family == build_mas(2, a, {1})
        assert hash(first) == hash((a, frozenset({1}), False))
        assert repr(first) == (
            "CanonParams(a=(Fraction(1, 1), Fraction(2, 1)), s=frozenset({1}), bar=False)"
        )
        assert first != CanonParams(a, frozenset({1}), True)
        assert first != CanonParams(a, frozenset())

    @pytest.mark.parametrize("name", ["a", "s", "bar", "family", "_family", "other"])
    def test_every_attribute_is_read_only(self, name):
        params = CanonParams((Fraction(1),), frozenset({1}))
        with pytest.raises(AttributeError):
            setattr(params, name, None)
        assert params == CanonParams((Fraction(1),), frozenset({1}))


def _fake_n2():
    from uhfree.presentation import odd_positions

    mats = {pos: Mat2.zero(3) for pos in odd_positions(2, 2)}
    return make_presentation(2, 2, mats)


@st.composite
def classified_modules(draw):
    """M(a, S) or Mbar(a, S), m = 2..5, conjugated by a unimodular W of degree <= 2
    (ungraded) or by a constant diagonal one, which keeps the g11 or g11bar label."""
    rng = draw(st.randoms(use_true_random=False))
    m = draw(st.integers(2, 5))
    a = tuple(random_nonzero_fraction(rng) for _ in range(m))
    s = frozenset(i for i in range(1, m + 1) if draw(st.booleans()))
    build = build_mas_bar if draw(st.booleans()) else build_mas
    if draw(st.booleans()):
        w = Mat2.of(m, ((random_nonzero_fraction(rng), 0), (0, random_nonzero_fraction(rng))))
    else:
        w = random_unimodular(rng, m)
    return conjugate(build(m, a, s), w)


class TestRelationsThroughClassification:
    """verified_report proves the relations of an sl(m|1) input, m >= 1,
    by classifying it and checking the family member it reaches."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """The presentations verify_relations is run on, in call order."""
        calls = []
        real = normalform.verify_relations
        monkeypatch.setattr(normalform, "verify_relations", lambda q: calls.append(q) or real(q))
        return calls

    def test_sl11_verify_evaluates_the_member(self, tmp_path, capsys, checked):
        # a conjugate of M((3,), {1}) reaches the class-2 member M((1,), {1})
        p = conjugate(build_mas(1, (3,), (1,)), Mat2.of(1, ((1, H), (0, 1))))
        path = tmp_path / "p.json"
        path.write_text(presentation_to_json(p))
        assert main(["verify", str(path)]) == 0
        assert "PASS: all 3 generator relations hold" in capsys.readouterr().out
        assert checked == [build_mas(1, (1,), (1,))] and checked[0] != p

    def test_a_bar_input_checks_the_unbarred_member(self, checked):
        # the swap to Mbar(a, S) only changes the basis of the published witness;
        # the classifier scales a to a_m = 1, and its shape (3, {2}) is checked on
        # the unbarred representative of (m, |S|) = (3, 1), M((1, 1, 1), {1})
        p = build_mas_bar(3, (1, 2, 3), (2,))
        assert verified_report(p).ok
        assert checked == [build_mas(3, (1, 1, 1), (1,))]
        params, w = classified_sl_m1(p)
        assert params.bar
        assert params.family == build_mas(3, (Fraction(1, 3), Fraction(2, 3), 1), (2,))
        assert conjugate(p, w).odd == build_mas_bar(3, params.a, params.s).odd

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.randoms(use_true_random=False))
    def test_torus_rescaling_keeps_the_report(self, m, rng):
        # the lemma behind the one check per shape: M(a, S) and M(1, S) give equal reports
        a = tuple(random_nonzero_fraction(rng, lim=9) for _ in range(m))
        for bits in range(2**m):
            s = [i for i in range(1, m + 1) if bits >> (i - 1) & 1]
            at_one = verify_relations(build_mas(m, (1,) * m, s))
            assert verify_relations(build_mas(m, a, s)) == at_one

    def test_sl11_non_module_lists_its_own_violations(self, checked):
        for _, mats in scaled_conjugates(1):
            p = make_presentation(1, 1, mats)
            report = verified_report(p)
            assert checked[-1] is p
            full = verify_relations(make_presentation(1, 1, mats))
            assert not full.ok and report.violations
            assert (report.ok, report.checked) == (full.ok, full.checked)
            assert report.describe(1, 1) == full.describe(1, 1)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_non_module_gets_the_report_of_the_full_check(self, monkeypatch, m):
        routes = []
        original = normalform.classify_sl_m1

        def recording(p):
            try:
                return original(p)
            except (ClassificationError, InvariantBreach) as exc:
                routes.append(type(exc))
                raise

        monkeypatch.setattr(normalform, "classify_sl_m1", recording)
        for _, mats in scaled_conjugates(m):
            report = verified_report(make_presentation(m, 1, mats))
            full = verify_relations(make_presentation(m, 1, mats))
            assert not full.ok
            assert (report.ok, report.checked) == (full.ok, full.checked)
            assert report.describe(m, 1) == full.describe(m, 1)
        assert len(routes) == 2 * m
        assert set(routes) == {ClassificationError, InvariantBreach}

    def test_classifier_breach_on_a_module_is_not_hidden(self, monkeypatch):
        def breach(p):
            raise InvariantBreach("planted breach")

        monkeypatch.setattr(normalform, "classify_sl_m1", breach)
        with pytest.raises(InvariantBreach, match="planted breach"):
            verified_report(build_mas(3, (1, 2, 3), (2,)))

    def test_a_kept_refusal_does_not_grow_its_traceback(self):
        # a module whose g11bar flag contradicts its shapes: the record keeps
        # the classifier's refusal, and each call raises that one exception
        p = make_presentation(2, 1, dict(build_mas(2, (1, 2), (1,)).odd), "g11bar")
        lengths = []
        for _ in range(5):
            with pytest.raises(ClassificationError, match="grading flag") as info:
                classified_sl_m1(p)
            lengths.append(len(traceback.extract_tb(info.value.__traceback__)))
        assert lengths == [lengths[0]] * 5

    @settings(max_examples=30, deadline=None)
    @given(classified_modules())
    def test_module_passes_and_keeps_its_classification(self, p):
        report = verified_report(p)
        k = len(p.algebra.root_vectors())
        assert report.ok and not report.violations
        assert report.checked == k * (k + 1) // 2
        with mock.patch.object(normalform, "classify_sl_m1", side_effect=AssertionError):
            params, w = classified_sl_m1(p)
        member = (build_mas_bar if params.bar else build_mas)(p.m, params.a, params.s)
        assert conjugate(p, w).odd == member.odd

    @pytest.mark.parametrize("drop_final, code", [(False, 1), (True, 0)])
    def test_the_proof_rests_on_the_family_checks(self, tmp_path, monkeypatch, drop_final, code):
        # e[1,b1] of a conjugate of M(a, S) over sl(3|1), times 2: check_family_form
        # rejects it, and without it the input passes as a module
        mats = dict(scaled_conjugates(3))[(0, 3)]
        path = tmp_path / "scaled.json"
        path.write_text(presentation_to_json(make_presentation(3, 1, mats)))
        if drop_final:
            monkeypatch.setattr(normalform, "check_family_form", lambda conj, params: None)
        assert main(["verify", str(path)]) == code


def subsets(m):
    """Every S in 1..m, in the order of the bit masks 0 .. 2^m - 1."""
    return [frozenset(i for i in range(1, m + 1) if bits >> (i - 1) & 1) for bits in range(2**m)]


class TestIndexSymmetry:
    """One relation check per (m, |S|): the representative M(1, {1..t}) stands
    for every S of size t (the index-symmetry lemma of verified_report)."""

    def test_each_shape_gets_the_report_of_its_own_check(self):
        # independent of the cache: a fresh check of each member, m = 1..6
        for m in range(1, 7):
            for s in subsets(m):
                fresh = verify_relations(build_mas(m, (1,) * m, s))
                assert normalform._shape_report(m, s) == fresh
        # the family workload's 126 shapes fit: nothing was evicted
        assert normalform._shape_report.cache_info().currsize == 126

    def test_one_check_per_size_of_s(self, monkeypatch):
        calls = []
        real = normalform.verify_relations
        monkeypatch.setattr(normalform, "verify_relations", lambda q: calls.append(q) or real(q))
        a = (2, Fraction(-1, 3), 5, 7, Fraction(1, 2))
        for s in subsets(5):
            p = build_mas(5, a, s)
            assert verified_report(p).ok
            assert classified_sl_m1(p)[0].s == s
        # 6 checks for 32 shapes, each on the representative M(1, {1..t})
        assert calls == [build_mas(5, (1,) * 5, range(1, t + 1)) for t in range(6)]

    def test_a_member_off_the_transport_is_a_breach(self, monkeypatch):
        # M(1, {2, 3}) over sl(3|1) with e[3,b1] times 2: the representative
        # M(1, {1, 2}) passes, and renamed it differs from the member at e[3,b1]
        real = normalform.build_mas

        def sabotaged(m, a, s):
            p = real(m, a, s)
            if frozenset(s) != {2, 3} or any(x != 1 for x in a):
                return p
            mats = {pos: 2 * mat if pos == (2, 3) else mat for pos, mat in p.odd}
            return make_presentation(m, 1, mats, p.grading)

        monkeypatch.setattr(normalform, "build_mas", sabotaged)
        with pytest.raises(InvariantBreach, match=r"M\(1, S\) at e\[3,b1\] is not the renamed"):
            normalform._shape_report(3, frozenset({2, 3}))
        # an input of that shape is refused as a bug, not given a verdict
        with pytest.raises(InvariantBreach, match="not the renamed representative"):
            verified_report(real(3, (1, 2, 3), (2, 3)))
        assert normalform._shape_report(3, frozenset({1, 3})).ok

    def test_a_weight_off_the_transport_is_a_breach(self, monkeypatch):
        # e[3,b1] of sl(3|1) with a wrong h_1 entry: the renamed shift of e[2,b1] misses it
        alg = algebra(3, 1)
        shift = list(alg.weight_shift(Root(2, 3)))
        shift[0] += 1
        monkeypatch.setitem(alg._shifts, Root(2, 3), tuple(shift))
        with pytest.raises(InvariantBreach, match=r"does not carry the weight of e\[3,b1\]"):
            normalform._check_transport(3, frozenset({2, 3}))

    def test_the_caches_are_bounded(self, monkeypatch):
        # a failing stub keeps each check cheap and skips the transport:
        # 592 shapes, the 90 representatives (m, {1..t}) for m = 1..12 and
        # 512 shapes at m = 9
        monkeypatch.setattr(
            normalform, "verify_relations", lambda q: RelationReport(False, (), 0)
        )
        for m in range(1, 13):
            for t in range(m + 1):
                normalform._shape_report(m, frozenset(range(1, t + 1)))
        for s in subsets(9):
            normalform._shape_report(9, s)
        info = normalform._shape_report.cache_info()
        assert info.misses >= 592 > info.maxsize >= info.currsize


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
