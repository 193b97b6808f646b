"""Acceptance suite: one test per headline guarantee, exact arithmetic only.

Each test prints a single verdict line (run pytest with -s to see them)
and enforces its runtime budget.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from uhfree.poly import Poly, apply_shift, poly_gcd, divides_exactly
from uhfree.presentation import (
    Mat2,
    act,
    build_mas,
    conjugate,
    make_presentation,
    parity_check,
    verify_relations,
)
from uhfree.normalform import (
    NilParams,
    classify_sl11,
    classify_sl_m1,
    nil_factor,
)
from uhfree.morphisms import (
    check_intertwiner,
    endo_f_polynomial,
    filtration,
    filtration_separators,
    idempotent_scan,
    iso_test,
    sl11_submodule_shape,
    solve_hom,
    _in_span,
)
from uhfree import stringbridge
from uhfree.stringbridge import StringModule, canonical_presentation, check_intertwining
from uhfree.emptiness import emptiness_certificate, verify_certificate
from uhfree.superlie import algebra

from .helpers import (
    apply_witness_pair,
    build_mas_bar,
    in_layer,
    random_nonzero_fraction,
    random_poly,
    random_unimodular,
    reconstruct_nil,
)
from .oracles import shift_oracle

import sympy


class Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None and elapsed < self.seconds:
            print(
                f"\n[acceptance] criterion {self.number} ({self.name}): "
                f"PASS ({elapsed:.2f}s < {self.seconds}s)"
            )
            return False
        print(f"\n[acceptance] criterion {self.number} ({self.name}): FAIL")
        assert elapsed < self.seconds, f"budget exceeded: {elapsed:.2f}s"
        return False


H = Poly.var(1, 0)
CLASS1 = (
    Mat2.of(1, ((0, 1), (0, 0))),
    Mat2(((Poly.zero(1), Poly.zero(1)), (H, Poly.zero(1)))),
)
CLASS2 = (
    Mat2(((Poly.zero(1), H), (Poly.zero(1), Poly.zero(1)))),
    Mat2.of(1, ((0, 0), (1, 0))),
)


def test_criterion_1_sl11_dichotomy():
    rng = random.Random(101)
    with Budget(1, "rank-2 sl(1|1) dichotomy", 5):
        for label, base in ((1, CLASS1), (2, CLASS2)):
            for _ in range(50):
                w0 = random_unimodular(rng, 1, factor_deg=1)
                assert max(e.total_degree() for r in w0.rows for e in r) <= 2
                p_mat = w0 * base[0] * w0.inverse_unimodular()
                q_mat = w0 * base[1] * w0.inverse_unimodular()
                pres = make_presentation(1, 1, {(0, 1): p_mat, (1, 0): q_mat})
                result = classify_sl11(pres)
                assert result.label == label
                assert result.canonical == base
                got = apply_witness_pair(
                    p_mat, q_mat, (0,), result.witness
                )
                assert got == base


def test_criterion_2_family_soundness():
    rng = random.Random(202)
    with Budget(2, "M(a, S) soundness and recovery", 30):
        for m in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=m):
                s = frozenset(i + 1 for i in range(m) if bits[i])
                for _ in range(5):
                    a = tuple(random_nonzero_fraction(rng) for _ in range(m))
                    p = build_mas(m, a, s)
                    assert verify_relations(p).ok
                    params, witness = classify_sl_m1(p)
                    assert params.s == s
                    gamma = params.a[0] / a[0]
                    assert all(x == gamma * y for x, y in zip(params.a, a))


def test_criterion_3_isomorphism_criterion():
    rng = random.Random(303)
    with Budget(3, "isomorphism criterion", 10):
        pairs = []
        for k in range(10):  # isomorphic pairs: equal S, scaled parameters
            m = rng.choice([2, 3])
            a = tuple(random_nonzero_fraction(rng) for _ in range(m))
            s = frozenset(i for i in range(1, m + 1) if rng.random() < 0.5)
            gamma = random_nonzero_fraction(rng)
            b = tuple(x / gamma for x in a)
            pairs.append((build_mas(m, a, s), build_mas(m, b, s), gamma))
        for k in range(10):  # non-isomorphic pairs: different subsets
            m = rng.choice([2, 3])
            a = tuple(random_nonzero_fraction(rng) for _ in range(m))
            subsets = list(
                itertools.combinations(range(1, m + 1), rng.randint(0, m))
            )
            s1 = frozenset(rng.choice(subsets))
            s2 = s1 ^ {rng.randint(1, m)}
            pairs.append((build_mas(m, a, s1), build_mas(m, a, s2), None))
        assert len(pairs) == 20
        for src, dst, gamma in pairs:
            witness = iso_test(src, dst, category="M2")
            if gamma is None:
                assert witness is None
            else:
                assert witness is not None and witness.gamma == gamma
                assert witness.w.is_unimodular()
                assert check_intertwiner(src, dst, witness.w, 1)


def test_criterion_4_endomorphisms_and_indecomposability():
    rng = random.Random(404)
    with Budget(4, "endomorphism rings and indecomposability", 30):
        for m in (1, 2, 3):
            bound = 3 if m <= 2 else 2
            a = tuple(random_nonzero_fraction(rng) for _ in range(m))
            s = frozenset(i for i in range(1, m + 1) if rng.random() < 0.5)
            p = build_mas(m, a, s)
            sols = solve_hom(p, p, bound)
            # span equality with {diag(F(c+m-1), F(c)) : deg F <= bound}
            assert len(sols) == bound + 1
            fs = [endo_f_polynomial(p, sol.w) for sol in sols]
            assert all(f.total_degree() <= bound for f in fs)
            for k in range(bound + 1):
                assert _in_span(Poly(1, {(k,): 1}), fs)
            assert all(sol.parity == "even" for sol in sols)
            idems = idempotent_scan(p, sols)
            assert sorted(
                (w.is_zero, w == Mat2.identity(p.nvars)) for w in idems
            ) == [(False, True), (True, False)]


def test_criterion_5_submodule_lattice():
    rng = random.Random(505)
    with Budget(5, "submodule lattice", 10):
        p = build_mas(2, (Fraction(2), Fraction(3)), (1,))
        lambdas = [Fraction(k, 2) for k in range(10)]
        chain = filtration(lambdas, 10)
        seps = filtration_separators(p, chain)  # raises unless strictly decreasing
        assert len(seps) == 10
        nv, m = p.nvars, p.m
        c = sum((Poly.var(nv, j) for j in range(m)), Poly.zero(nv))
        from uhfree.poly import compose_univariate

        for f in chain[:4]:
            layer = compose_univariate(f, c + (m - 1)), compose_univariate(f, c)
            gens = Mat2(((layer[0], Poly.zero(nv)), (Poly.zero(nv), layer[1])))
            for b in p.algebra.basis():
                assert in_layer(*layer, act(p, b, gens))
        # rank-2 sl(1|1) taxonomy
        h = Poly.var(1, 0)
        both1, mixed1 = sl11_submodule_shape(1, h)
        assert (mixed1.g1, mixed1.g2) == (h, h * h)
        both2, mixed2 = sl11_submodule_shape(2, h)
        assert (mixed2.g1, mixed2.g2) == (h * h, h)
        for label in (1, 2):
            pres = canonical_presentation(label)
            for shape in sl11_submodule_shape(label, h):
                gens = Mat2(((shape.g1, Poly.zero(1)), (Poly.zero(1), shape.g2)))
                for b in pres.algebra.basis():
                    assert in_layer(shape.g1, shape.g2, act(pres, b, gens))


def test_criterion_6_string_bridge(monkeypatch):
    with Budget(6, "string-module bridge", 5):
        for variant in (1, 2):
            report = check_intertwining(variant, 25, 10)
            assert report.ok
        # against the string with swapped arrow labels the bridge must fail
        monkeypatch.setattr(stringbridge, "StringModule", lambda v, n: StringModule(3 - v, n))
        negative = check_intertwining(1, 25, 10)
        assert not negative.ok


def test_criterion_7_emptiness():
    with Budget(7, "emptiness certificates", 10):
        for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
            cert = emptiness_certificate(m, n)
            verify_certificate(cert)  # derive_even route + evaluation re-checks
        cert22 = emptiness_certificate(2, 2)
        ring = cert22.ring()
        h1, h2, hb1 = (Poly.var(ring.nvars, k) for k in range(3))
        a2, a4 = (Poly.var(ring.nvars, ring.base_nvars + k) for k in (1, 3))
        A = h1 + hb1 - h2
        assert cert22.route_a.num[0, 0] == a2 * hb1 * (A + 1)
        assert cert22.route_a.num[1, 1] == a2 * (hb1 - 1) * A
        assert cert22.route_a.den == (1, 0, 0, 0)
        assert cert22.route_b.num[0, 0] == a4 * (h1 + 1) * h2
        assert cert22.route_b.num[1, 1] == a4 * h1 * (h2 - 1)
        assert cert22.route_b.den == (0, 0, 1, 0)
        verify_certificate(emptiness_certificate(2, 2, graded=True))


def test_criterion_8_property_suites():
    rng = random.Random(808)
    with Budget(8, "property suites", 60):
        # shift automorphisms are ring maps, and match the sympy oracle
        syms = sympy.symbols("h1 h2 h3")
        for _ in range(30):
            p = random_poly(rng, 3, 4)
            q = random_poly(rng, 3, 4)
            shifts = tuple(rng.randint(-2, 2) for _ in range(3))
            back = tuple(-s for s in shifts)
            assert apply_shift(shifts, p * q) == apply_shift(shifts, p) * apply_shift(shifts, q)
            assert apply_shift(shifts, p + q) == apply_shift(shifts, p) + apply_shift(shifts, q)
            assert apply_shift(shifts, p) == shift_oracle(p, shifts, syms)
            assert apply_shift(back, apply_shift(shifts, p)) == p

        # super Jacobi identity against the bracket structure
        for m, n in ((1, 1), (2, 1), (3, 1), (2, 2)):
            alg = algebra(m, n)
            basis = alg.basis()
            def bracket(c1, c2):
                out = {}
                for b1, x1 in c1.items():
                    for b2, x2 in c2.items():
                        for b, x in alg.super_bracket(b1, b2).items():
                            out[b] = out.get(b, Fraction(0)) + x1 * x2 * x
                return {b: x for b, x in out.items() if x}
            triples = 0
            for x in basis:
                for y in basis:
                    sign = Fraction(-1 if alg.parity(x) and alg.parity(y) else 1)
                    for z in basis:
                        lhs = bracket({x: Fraction(1)}, alg.super_bracket(y, z))
                        rhs = bracket(alg.super_bracket(x, y), {z: Fraction(1)})
                        for b, c in bracket({y: Fraction(1)}, alg.super_bracket(x, z)).items():
                            rhs[b] = rhs.get(b, Fraction(0)) + sign * c
                        rhs = {b: c for b, c in rhs.items() if c}
                        assert lhs == rhs
                        triples += 1
            assert triples == len(basis) ** 3

        # nil_factor round trips
        delta = (1, 1)
        done = 0
        while done < 20:
            theta = random_poly(rng, 2, 2)
            alpha = random_poly(rng, 2, 2)
            beta = random_poly(rng, 2, 2)
            if theta.is_zero or (alpha.is_zero and beta.is_zero):
                continue
            g = poly_gcd(alpha, beta)
            alpha, beta = divides_exactly(g, alpha), divides_exactly(g, beta)
            built = reconstruct_nil(NilParams(theta, alpha, beta), delta)
            params = nil_factor(built, delta)
            assert reconstruct_nil(params, delta) == built
            done += 1

        # graded bookkeeping: the odd equivalence exists in the full graded
        # category and disappears in the parity-preserving one
        for _ in range(5):
            m = rng.choice([1, 2, 3])
            a = tuple(random_nonzero_fraction(rng) for _ in range(m))
            s = frozenset(i for i in range(1, m + 1) if rng.random() < 0.5)
            mm, mb = build_mas(m, a, s), build_mas_bar(m, a, s)
            assert parity_check(mm).ok and parity_check(mb).ok
            assert iso_test(mm, mb, category="M11even") is None
            odd = iso_test(mm, mb, category="M11")
            assert odd is not None and odd.parity == "odd"
            assert check_intertwiner(mm, mb, odd.w, -1)  # the signed identities
