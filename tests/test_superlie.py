from fractions import Fraction

import pytest

from uhfree.superlie import (
    Cartan,
    Root,
    SuperAlgebra,
    SuperLieError,
    algebra,
)

from .oracles import elementary, supercommutator

# the acceptance sizes, then sizes past them: unequal blocks both ways,
# equal blocks of three, and the largest sl(m|1) the benchmark reaches
SIZES = [(1, 1), (2, 1), (3, 1), (2, 2), (4, 2), (2, 4), (3, 3), (6, 1)]


def combo_to_matrix(alg, combo):
    """Independent synthesis of a basis combination as a supermatrix."""
    dim = alg.dim
    acc = [[Fraction(0)] * dim for _ in range(dim)]

    def add(mat, c):
        for r in range(dim):
            for s in range(dim):
                acc[r][s] += c * mat[r][s]

    for b, c in combo.items():
        if isinstance(b, Cartan):
            p1, p2 = alg.cartan_diag_pair(b.var)
            add(elementary(dim, p1, p1), c)
            add(elementary(dim, p2, p2), c)
        else:
            add(elementary(dim, b.row, b.col), c)
    return acc


class TestCartanExpr:
    def test_unbarred_pairs_with_last_barred(self):
        alg = algebra(3, 2)
        for i in range(3):
            assert alg.cartan_diag_pair(i) == (i, 4)

    def test_barred_pairs_with_m(self):
        alg = algebra(3, 2)
        assert alg.cartan_diag_pair(3) == (3, 2)

    def test_last_barred_rejected(self):
        alg = algebra(3, 2)
        with pytest.raises(SuperLieError):
            alg.cartan_diag_pair(4)


class TestParity:
    def test_mixed_roots_are_odd(self):
        alg = algebra(2, 2)
        assert alg.parity(Root(0, 2)) == 1
        assert alg.parity(Root(3, 1)) == 1

    def test_block_roots_are_even(self):
        alg = algebra(2, 2)
        assert alg.parity(Root(0, 1)) == 0
        assert alg.parity(Root(2, 3)) == 0
        assert alg.parity(Cartan(0)) == 0


class TestWeightShift:
    def test_sl_m1_raising_generator(self):
        # e_{i,b1} twists by sigma_i Delta^{-1}: every other variable moves up
        for m in (2, 3):
            alg = algebra(m, 1)
            for i in range(m):
                shifts = alg.weight_shift(Root(i, m)).shifts
                assert shifts == tuple(0 if j == i else -1 for j in range(m))

    def test_lowering_is_negated(self):
        alg = algebra(3, 1)
        for i in range(3):
            up = alg.weight_shift(Root(i, 3))
            down = alg.weight_shift(Root(3, i))
            assert down == up.inverse()

    def test_sl22_action_list(self):
        alg = algebra(2, 2)
        # order of variables: h1, h2, hb1
        assert alg.weight_shift(Root(1, 3)).shifts == (-1, 0, 1)  # e[m,bn]
        assert alg.weight_shift(Root(1, 2)).shifts == (0, 1, 0)  # e[m,b1]
        assert alg.weight_shift(Root(0, 2)).shifts == (1, 0, -1)  # e[i,b1]
        assert alg.weight_shift(Root(0, 3)).shifts == (0, -1, 0)  # e[i,bn]
        assert alg.weight_shift(Root(3, 0)).shifts == (0, 1, 0)  # e[bn,i]

    def test_cartan_has_no_weight(self):
        with pytest.raises(SuperLieError):
            algebra(2, 1).weight_shift(Cartan(0))

    def test_eigenvalue_consistency_with_matrix_oracle(self):
        # ad(h_v) x = lambda x with lambda the stored shift entry
        for (m, n) in SIZES:
            alg = algebra(m, n)
            for x in alg.root_vectors():
                shifts = alg.weight_shift(x).shifts
                xmat = elementary(alg.dim, x.row, x.col)
                for v in range(alg.nvars):
                    hmat = combo_to_matrix(alg, {Cartan(v): Fraction(1)})
                    br = supercommutator(hmat, xmat, 0, alg.parity(x))
                    expected = [
                        [shifts[v] * e for e in row] for row in xmat
                    ]
                    assert br == expected


class TestSuperBracket:
    def test_h_from_opposite_odd_pair(self):
        alg = algebra(3, 1)
        for i in range(3):
            combo = alg.super_bracket(Root(i, 3), Root(3, i))
            assert combo == {Cartan(i): Fraction(1)}

    def test_odd_square_vanishes(self):
        alg = algebra(3, 1)
        assert alg.super_bracket(Root(2, 3), Root(2, 3)) == {}

    def test_even_root_from_odd_pair(self):
        alg = algebra(3, 1)
        assert alg.super_bracket(Root(0, 3), Root(3, 1)) == {Root(0, 1): Fraction(1)}

    def test_hand_checked_goldens(self):
        # [e12, e21] = h1 - h2 over sl(2|1): e11 + e_b1b1 - (e22 + e_b1b1)
        alg21 = algebra(2, 1)
        assert alg21.super_bracket(Root(0, 1), Root(1, 0)) == {
            Cartan(0): Fraction(1),
            Cartan(1): Fraction(-1),
        }
        # {x, y} = h over sl(1|1)
        alg11 = algebra(1, 1)
        assert alg11.super_bracket(Root(0, 1), Root(1, 0)) == {Cartan(0): Fraction(1)}
        # {e_{1,b1}, e_{b1,1}} = e11 + e_b1b1 = h1 + hb1 - h2 over sl(2|2)
        alg22 = algebra(2, 2)
        assert alg22.super_bracket(Root(0, 2), Root(2, 0)) == {
            Cartan(0): Fraction(1),
            Cartan(2): Fraction(1),
            Cartan(1): Fraction(-1),
        }

    @pytest.mark.parametrize("m,n", SIZES)
    def test_matches_matrix_oracle(self, m, n):
        alg = algebra(m, n)
        basis = alg.basis()
        # integer entries keep the O(dim^3) oracle products cheap
        mats = {
            x: [[int(e) for e in row] for row in combo_to_matrix(alg, {x: 1})]
            for x in basis
        }
        for x in basis:
            for y in basis:
                combo = alg.super_bracket(x, y)
                direct = supercommutator(mats[x], mats[y], alg.parity(x), alg.parity(y))
                assert combo_to_matrix(alg, combo) == direct

    @pytest.mark.parametrize("m,n", SIZES)
    def test_anti_supersymmetry(self, m, n):
        alg = algebra(m, n)
        basis = alg.basis()
        for x in basis:
            for y in basis:
                sign = -1 if alg.parity(x) and alg.parity(y) else 1
                left = alg.super_bracket(x, y)
                right = {b: -sign * c for b, c in alg.super_bracket(y, x).items()}
                assert left == right

    def test_bad_elements_rejected(self):
        alg = algebra(2, 1)
        bad = ((Root(0, 0), Root(0, 2)), (Root(0, 2), Root(3, 0)), (Cartan(2), Root(0, 1)))
        for x, y in bad:
            with pytest.raises(SuperLieError):
                alg.super_bracket(x, y)


class TestCaches:
    def test_filled_lazily_one_key_at_a_time(self):
        # creating an algebra tabulates nothing; each key is filled on first use
        alg = SuperAlgebra(7, 7)
        assert alg._brackets == {} and alg._shifts == {}
        alg.super_bracket(Root(0, 7), Root(7, 0))
        assert list(alg._brackets) == [(Root(0, 7), Root(7, 0))]
        assert alg._shifts == {}
        alg.weight_shift(Root(0, 7))
        assert list(alg._shifts) == [Root(0, 7)]

    def test_cached_results_are_shared_and_read_only(self):
        alg = SuperAlgebra(3, 1)
        combo = alg.super_bracket(Root(0, 3), Root(3, 0))
        with pytest.raises(TypeError):
            combo[Cartan(1)] = Fraction(5)
        assert alg.super_bracket(Root(0, 3), Root(3, 0)) is combo
        assert combo == {Cartan(0): Fraction(1)}
        shift = alg.weight_shift(Root(0, 3))
        with pytest.raises(AttributeError):
            shift.shifts = (0, 0, 0)
        assert alg.weight_shift(Root(0, 3)) is shift


def bracket_combo(alg, combo1, combo2):
    out = {}
    for b1, c1 in combo1.items():
        for b2, c2 in combo2.items():
            for b, c in alg.super_bracket(b1, b2).items():
                out[b] = out.get(b, Fraction(0)) + c1 * c2 * c
    return {b: c for b, c in out.items() if c}


@pytest.mark.parametrize("m,n", SIZES)
def test_super_jacobi_identity(m, n):
    alg = algebra(m, n)
    basis = alg.basis()
    singles = {b: {b: Fraction(1)} for b in basis}
    for x in basis:
        px = alg.parity(x)
        for y in basis:
            py = alg.parity(y)
            sign = Fraction(-1 if px and py else 1)
            for z in basis:
                lhs = bracket_combo(alg, singles[x], alg.super_bracket(y, z))
                rhs1 = bracket_combo(alg, alg.super_bracket(x, y), singles[z])
                rhs2 = {
                    b: sign * c
                    for b, c in bracket_combo(
                        alg, singles[y], alg.super_bracket(x, z)
                    ).items()
                }
                total = dict(rhs1)
                for b, c in rhs2.items():
                    total[b] = total.get(b, Fraction(0)) + c
                total = {b: c for b, c in total.items() if c}
                assert lhs == total, (alg.show(x), alg.show(y), alg.show(z))

