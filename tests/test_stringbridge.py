from fractions import Fraction

import pytest

from uhfree.poly import Poly
from uhfree.presentation import Mat2, verify_relations
from uhfree import stringbridge
from uhfree.stringbridge import (
    StringBridgeError,
    StringModule,
    canonical_presentation,
    check_intertwining,
    phi_map,
)

H = Poly.var(1, 0)


def sv(mapping):
    return {k: Fraction(v) for k, v in mapping.items()}


class TestStringModule:
    def test_arrow_actions_variant1(self):
        s = StringModule(1, 10)
        assert s.act("x", 1) == sv({2: 1})
        assert s.act("x", 2) == sv({})
        assert s.act("y", 2) == sv({3: 1})
        assert s.act("y", 1) == sv({})

    def test_central_element_climbs_two(self):
        s = StringModule(1, 10)
        assert s.act("h", 1) == sv({3: 1})
        assert s.act("h", 4) == sv({6: 1})

    def test_variant2_swaps_labels(self):
        s = StringModule(2, 10)
        assert s.act("y", 1) == sv({2: 1})
        assert s.act("x", 1) == sv({})

    def test_leaving_the_window_raises(self):
        s = StringModule(1, 3)
        assert s.act("y", 3) == sv({})
        with pytest.raises(StringBridgeError, match="truncation overflow: u_4 beyond N = 3"):
            s.act("x", 3)
        with pytest.raises(StringBridgeError, match="truncation overflow: u_4 beyond N = 3"):
            s.act("h", 2)
        with pytest.raises(StringBridgeError, match="truncation overflow: u_4 beyond N = 3"):
            s.act_vector("x", sv({1: 1, 3: 2}))

    def test_index_range_checked(self):
        with pytest.raises(StringBridgeError):
            StringModule(1, 5).act("x", 6)

    def test_adjacency_listing(self):
        s = StringModule(1, 6)
        assert s.adjacency() == [
            (1, "x", 2),
            (2, "y", 3),
            (3, "x", 4),
            (4, "y", 5),
            (5, "x", 6),
        ]


class TestPhi:
    def test_variant1_base_points(self):
        assert phi_map(1, Mat2.column(Poly.zero(1), Poly.one(1)), 25) == sv({1: 1})
        assert phi_map(1, Mat2.column(H, Poly.zero(1)), 25) == sv({4: 1})

    def test_variant2_base_points(self):
        assert phi_map(2, Mat2.column(H * H, Poly.zero(1)), 25) == sv({5: 1})

    def test_linearity(self):
        v = Mat2.column(2 * H, Poly.one(1) * Fraction(1, 3))
        assert phi_map(1, v, 25) == sv({4: 2, 1: Fraction(1, 3)})

    def test_truncation_overflow_raises(self):
        with pytest.raises(StringBridgeError, match="overflow"):
            phi_map(1, Mat2.column(H ** 13, Poly.zero(1)), 25)

    def test_bijection_onto_prefixes(self):
        # distinct monomials hit distinct u's and every index <= N is hit
        n = 21
        hit = set()
        for k in range(5):
            for which in (0, 1):
                # column `which` of h^k * I is (h^k, 0) or (0, h^k)
                image = phi_map(1, Mat2.scalar(H**k), n, which)
                [(idx, coeff)] = image.items()
                assert coeff == 1
                assert idx not in hit
                hit.add(idx)
        assert hit == set(range(1, 11))


class TestIntertwining:
    def test_both_variants_pass(self):
        for variant in (1, 2):
            report = check_intertwining(variant, 25, 10)
            assert report.ok and report.checked == 66

    def test_swapped_arrows_fail_at_the_bottom(self, monkeypatch):
        # the other variant's string carries the swapped arrow labels
        monkeypatch.setattr(stringbridge, "StringModule", lambda v, n: StringModule(3 - v, n))
        report = check_intertwining(1, 25, 10)
        assert not report.ok
        assert any("u1" in f or "h^0" in f for f in report.failures)

    def test_a_swapped_arrow_failure_reads_verbatim(self, monkeypatch):
        monkeypatch.setattr(stringbridge, "StringModule", lambda v, n: StringModule(3 - v, n))
        report = check_intertwining(1, 25, 10)
        assert report.failures[0] == (
            "phi(x . (h^0 in column 1)) = 0 but x . phi(h^0 in column 1) = u3"
        )

    def test_failure_text_lists_the_terms_in_index_order(self):
        assert stringbridge._describe({}) == "0"
        assert stringbridge._describe(sv({5: 2, 3: 1, 1: Fraction(-1, 2)})) == "-1/2*u1 + u3 + 2*u5"

    @pytest.mark.parametrize("variant", [1, 2])
    def test_the_guard_keeps_every_image_in_the_window(self, variant):
        # at the smallest N the guard accepts, h . (h^d, 0) lands on u_N itself
        for d in range(9):
            report = check_intertwining(variant, 2 * d + 4, d)
            assert report.ok and report.checked == 6 * (d + 1)

    def test_truncation_guard(self):
        with pytest.raises(StringBridgeError):
            check_intertwining(1, 10, 10)

    def test_the_request_budgets(self):
        d, n = stringbridge.DEGREE_BUDGET, stringbridge.ARROWS_BUDGET + 1
        stringbridge.check_string_budget(n, d, True)
        with pytest.raises(StringBridgeError, match="max degree"):
            stringbridge.check_string_budget(n, d + 1, False)
        with pytest.raises(StringBridgeError, match="arrows per variant"):
            stringbridge.check_string_budget(n + 1, d, True)
        # without --adjacency N costs nothing
        stringbridge.check_string_budget(n + 1, d, False)

    def test_canonical_presentations_verify(self):
        for label in (1, 2):
            assert verify_relations(canonical_presentation(label)).ok

    def test_central_action_transports_multiplication_by_h(self):
        # (xy + yx) . u_i equals the image of h . phi^{-1}(u_i)
        n, variant = 25, 1
        module = canonical_presentation(variant)
        strings = StringModule(variant, n)
        for k in range(4):
            v = Mat2.scalar(H**k)
            for which in (0, 1):
                image = phi_map(variant, v, n, which)
                assert strings.act_vector("h", image) == phi_map(variant, v * H, n, which)

