"""Basis, parity, weights, and brackets of sl(m|n).

The fixed basis consists of the root vectors e_IJ (I != J) together
with the Cartan elements

    h_i    = e_ii + e_{bn,bn}        for i = 1..m,
    h_bj   = e_{bj,bj} + e_mm        for j = 1..n-1,

where barred indices bj label the odd block.  Positions are encoded
0-based: unbarred i -> i-1, barred bj -> m + j - 1.  The Cartan
position space coincides with the variable space of the polynomial
ring, so a weight is directly the integer shift vector of `poly.apply_shift`.

Brackets use the closed form of the supermatrix realization,

    [e_ij, e_kl] = delta_jk e_il - (-1)^{|ij||kl|} delta_li e_kj,
    [h_v, e_IJ]  = lambda_v(IJ) e_IJ,        [h_v, h_w] = 0,

where lambda_v(IJ) = [I in pair_v] - [J in pair_v] is the h_v-eigenvalue
(pair_v being the two diagonal positions of h_v).  A diagonal result
e_ii -/+ e_jj is re-expressed on the Cartan basis.  Brackets and weight
shifts are computed on first use and cached on the algebra, one entry
per key; the supermatrix products themselves serve only as the test
oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Union

from .poly import UhfreeError


class SuperLieError(UhfreeError):
    """Invalid basis index or decomposition failure."""


class Cartan(NamedTuple):
    """Cartan basis element h_iota; var is the 0-based variable index."""

    var: int


class Root(NamedTuple):
    """Root vector e_IJ; row/col are 0-based supermatrix positions."""

    row: int
    col: int


BasisElement = Union[Cartan, Root]
Combo = Mapping  # BasisElement -> Fraction; read-only when cached


class SuperAlgebra:
    """Indexing and bracket structure of sl(m|n) in the fixed basis."""

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise SuperLieError("m and n must be at least 1")
        self.m = m
        self.n = n
        self.dim = m + n
        self.nvars = m + n - 1
        self._shifts: dict = {}
        self._brackets: dict = {}

    # -- index helpers -------------------------------------------------------

    def is_barred(self, pos: int) -> bool:
        if not 0 <= pos < self.dim:
            raise SuperLieError(f"position {pos} out of range")
        return pos >= self.m

    def position_name(self, pos: int) -> str:
        return f"b{pos - self.m + 1}" if self.is_barred(pos) else str(pos + 1)

    def parity(self, b: BasisElement) -> int:
        """0 for even, 1 for odd."""
        if isinstance(b, Cartan):
            return 0
        return int(self.is_barred(b.row) != self.is_barred(b.col))

    def basis(self) -> list[BasisElement]:
        return [Cartan(v) for v in range(self.nvars)] + self.root_vectors()

    def root_vectors(self) -> list[Root]:
        return [
            Root(i, j)
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        ]

    def odd_roots(self) -> list[Root]:
        return [b for b in self.root_vectors() if self.parity(b)]

    def show(self, b: BasisElement) -> str:
        if isinstance(b, Cartan):
            return f"h[{self.position_name(b.var)}]"
        return f"e[{self.position_name(b.row)},{self.position_name(b.col)}]"

    # -- Cartan realization ----------------------------------------------------

    def cartan_diag_pair(self, pos: int) -> tuple[int, int]:
        """The two diagonal positions whose elementary matrices sum to h_pos.

        Valid for every Cartan position (all unbarred, barred except bn).
        """
        if not 0 <= pos < self.dim:
            raise SuperLieError(f"position {pos} out of range")
        if pos == self.dim - 1:
            raise SuperLieError("the last barred index does not label a Cartan element")
        if pos < self.m:
            return (pos, self.dim - 1)
        return (pos, self.m - 1)

    def _check_root(self, b: Root) -> None:
        if b.row == b.col or not (0 <= b.row < self.dim and 0 <= b.col < self.dim):
            raise SuperLieError(f"bad root indices ({b.row}, {b.col})")

    # -- weights ----------------------------------------------------------------

    def weight_shift(self, b: Root) -> tuple[int, ...]:
        """The shift applied to the argument when the root vector acts.

        The entry at variable v is the h_v-eigenvalue of ad on e_IJ, so
        the induced substitution is h_v -> h_v - eigenvalue.
        """
        shift = self._shifts.get(b)
        if shift is None:
            if not isinstance(b, Root):
                raise SuperLieError("weight shifts are defined for root vectors only")
            self._check_root(b)
            pairs = [self.cartan_diag_pair(v) for v in range(self.nvars)]
            shift = tuple((b.row in pair) - (b.col in pair) for pair in pairs)
            self._shifts[b] = shift
        return shift

    # -- brackets ----------------------------------------------------------------

    def _cartan_combo(self, diag: Mapping[int, int]) -> dict:
        """Express a supertraceless diagonal {position: entry} in the Cartan basis.

        The diagonal of sum c_v h_v is c_v off positions m and bn, c_m plus
        the barred c_v at m, and the unbarred c_v's sum at bn.  The entries
        off bn fix c; bn then matches exactly when the supertrace is 0, as it
        is for the e_ii - e_jj (one block) and e_ii + e_jj (two blocks) that
        `_bracket` passes, so the span needs no check.
        """
        coeffs = [diag.get(v, 0) for v in range(self.nvars)]
        # position m-1 collects h_m plus every barred Cartan element
        coeffs[self.m - 1] -= sum(coeffs[self.m :])
        return {Cartan(v): Fraction(c) for v, c in enumerate(coeffs) if c}

    def _bracket(self, b1: BasisElement, b2: BasisElement) -> dict:
        for b in (b1, b2):
            if isinstance(b, Root):
                self._check_root(b)
            else:
                self.cartan_diag_pair(b.var)
        if isinstance(b1, Cartan):
            if isinstance(b2, Cartan):
                return {}
            c = self.weight_shift(b2)[b1.var]
            return {b2: Fraction(c)} if c else {}
        if isinstance(b2, Cartan):
            c = -self.weight_shift(b1)[b2.var]
            return {b1: Fraction(c)} if c else {}
        (i, j), (k, l) = (b1.row, b1.col), (b2.row, b2.col)
        sign = -1 if self.parity(b1) and self.parity(b2) else 1
        if j == k and l == i:
            return self._cartan_combo({i: 1, j: -sign})
        if j == k:
            return {Root(i, l): Fraction(1)}
        if l == i:
            return {Root(k, j): Fraction(-sign)}
        return {}

    def super_bracket(self, b1: BasisElement, b2: BasisElement) -> Combo:
        """Supercommutator [b1, b2] expanded in the fixed basis (read-only)."""
        key = (b1, b2)
        combo = self._brackets.get(key)
        if combo is None:
            combo = MappingProxyType(self._bracket(b1, b2))
            self._brackets[key] = combo
        return combo


# Bounded, so a long-lived caller that works at many sizes keeps a fixed
# number of bracket and weight-shift tables; one emptiness run over
# (m, n) in {2..7}^2 uses 37 algebras, sl(2|2) included.
@lru_cache(maxsize=64)
def algebra(m: int, n: int) -> SuperAlgebra:
    return SuperAlgebra(m, n)

