import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uhfree.poly import Poly, apply_shift, default_names
from uhfree.presentation import (
    Mat2,
    Presentation,
    PresentationError,
    Vec2,
    act,
    act_combo,
    build_mas,
    build_mas_bar,
    conjugate,
    derive_even,
    make_presentation,
    odd_positions,
    parity_check,
    pointwise_check,
    presentation_from_json,
    presentation_to_dict,
    presentation_to_json,
    verify_relations,
)
from uhfree.superlie import Cartan, Root, algebra

from .helpers import random_nonzero_fraction, random_poly, random_unimodular
from .oracles import all_pairs_report

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


class TestAct:
    def test_sl11_x_moves_the_odd_generator(self):
        p = canonical_class1()
        out = act(p, Root(0, 1), Vec2(Poly.zero(1), Poly.one(1)))
        assert (out.f1, out.f2) == (Poly.one(1), Poly.zero(1))

    def test_cartan_multiplies(self):
        p = canonical_class1()
        out = act(p, Cartan(0), Vec2(Poly.one(1), Poly.zero(1)))
        assert (out.f1, out.f2) == (H, Poly.zero(1))

    def test_sl21_twisted_action(self):
        p = build_mas(2, (1, 1), ())
        h2 = Poly.var(2, 1)
        out = act(p, Root(0, 2), Vec2(Poly.zero(2), h2))
        assert (out.f1, out.f2) == (h2 + 1, Poly.zero(2))

    def test_uh_linearity_with_twist(self, rng):
        from .helpers import random_poly

        p = build_mas(2, (Fraction(2), Fraction(1, 3)), (2,))
        alg = p.algebra
        for b in alg.odd_roots() + alg.even_roots():
            tau = alg.weight_shift(b)
            for _ in range(3):
                g = random_poly(rng, 2, 2)
                v = Vec2(random_poly(rng, 2, 2), random_poly(rng, 2, 2))
                gv = Vec2(g * v.f1, g * v.f2)
                lhs = act(p, b, gv)
                tg = apply_shift(tau, g)
                rhs_inner = act(p, b, v)
                rhs = Vec2(tg * rhs_inner.f1, tg * rhs_inner.f2)
                assert (lhs.f1, lhs.f2) == (rhs.f1, rhs.f2)


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
        via_b1 = derive_even(p, 1, 0, via=2)
        expected = Mat2(((hb1 * (A + 1), z), (z, (hb1 - 1) * A)))
        assert via_b1 == expected
        # the other route disagrees, which is the emptiness obstruction
        via_bn = derive_even(p, 1, 0, via=3)
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

    def test_bracket_action_identity_on_monomials(self):
        # act(x, act(y, v)) - (-1)^{|x||y|} act(y, act(x, v)) = act([x,y], v)
        p = build_mas(2, (Fraction(1, 2), 3), (1,))
        alg = p.algebra
        report = pointwise_check(p, 3)
        assert report.ok and report.checked > 0
        # spot check one pair explicitly against act_combo
        x, y = Root(0, 2), Root(2, 0)
        v = Vec2(Poly.var(2, 0) ** 2, Poly.var(2, 1))
        lhs = act(p, x, act(p, y, v)) + act(p, y, act(p, x, v))
        rhs = act_combo(p, alg.super_bracket(x, y), v)
        assert (lhs.f1, lhs.f2) == (rhs.f1, rhs.f2)


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

    @pytest.mark.parametrize(
        "m, direct, checked",
        [(3, 45, 78), (6, 198, 903), (8, 360, 2628), (10, 570, 6105)],
    )
    def test_pass_evaluates_the_generating_set_and_counts_every_pair(self, m, direct, checked):
        report = verify_relations(build_mas(m, range(1, m + 1), range(1, m + 1, 2)))
        assert report.ok
        assert (report.direct, report.checked) == (direct, checked)

    def test_failure_counts_the_tried_identities_and_the_full_loop(self):
        # odd x odd in order: [x, x] holds, [x, y] = h fails, then all 3 pairs
        report = verify_relations(sl11(Mat2.zero(1), Mat2.zero(1)))
        assert (report.ok, report.checked, report.direct) == (False, 3, 2 + 3)

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
