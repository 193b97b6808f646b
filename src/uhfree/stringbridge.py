"""The sl(1|1) <-> string module dictionary.

U(sl(1|1)) is the quotient of the two-loop path algebra on generators
x, y by the two-sided ideal (x^2, y^2); its center is Q[h] with
h = xy + yx.  The two canonical rank-2 presentations correspond to the
infinite alternating-arrow string modules

    M1:  u_1 -x-> u_2 -y-> u_3 -x-> u_4 -> ...
    M2:  u_1 -y-> u_2 -x-> u_3 -y-> u_4 -> ...

under the degree-doubling maps phi.  The modules are materialized up to
a truncation length N; actions that would leave the window set a flag
instead of silently vanishing, so verification degrees stay honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .poly import Poly, UhfreeError
from .presentation import Presentation, Vec2, act, build_mas
from .superlie import Root


class StringBridgeError(UhfreeError):
    """Invalid index, truncation overflow, or malformed request."""


# -- truncated string modules ----------------------------------------------------


@dataclass(frozen=True)
class StringVector:
    """Finite combination of basis vectors u_i, with a truncation flag."""

    coeffs: tuple[tuple[int, Fraction], ...]
    truncated: bool = False

    @classmethod
    def of(cls, mapping: Mapping[int, Fraction], truncated: bool = False):
        items = tuple(
            (i, Fraction(c)) for i, c in sorted(mapping.items()) if c
        )
        return cls(items, truncated)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "StringVector") -> "StringVector":
        acc = dict(self.coeffs)
        for i, c in other.coeffs:
            acc[i] = acc.get(i, Fraction(0)) + c
        return StringVector.of(acc, self.truncated or other.truncated)

    def describe(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in self.coeffs:
            parts.append(f"u{i}" if c == 1 else f"{c}*u{i}")
        text = " + ".join(parts)
        return text + (" (+ dropped terms)" if self.truncated else "")


class StringModule:
    """Truncation of one of the two alternating string modules."""

    def __init__(self, variant: int, n: int):
        if variant not in (1, 2):
            raise StringBridgeError("variant must be 1 or 2")
        if n < 1:
            raise StringBridgeError("truncation length must be positive")
        self.variant = variant
        self.n = n

    def arrow_label(self, i: int) -> str:
        """Generator labelling the arrow u_i -> u_{i+1}."""
        first_x = self.variant == 1
        if i % 2 == 1:
            return "x" if first_x else "y"
        return "y" if first_x else "x"

    def act(self, gen: str, i: int) -> StringVector:
        """Action of x, y, or h = xy + yx on a basis vector."""
        if not 1 <= i <= self.n:
            raise StringBridgeError(f"basis index {i} outside 1..{self.n}")
        if gen in ("x", "y"):
            if self.arrow_label(i) != gen:
                return StringVector.of({})
            if i + 1 > self.n:
                return StringVector.of({}, truncated=True)
            return StringVector.of({i + 1: Fraction(1)})
        if gen == "h":
            first = self.act_vector(self.arrow_label(i), StringVector.of({i: Fraction(1)}))
            other = "y" if self.arrow_label(i) == "x" else "x"
            second = self.act_vector(other, first)
            return second
        raise StringBridgeError(f"unknown generator {gen!r}")

    def act_vector(self, gen: str, v: StringVector) -> StringVector:
        out = StringVector.of({}, truncated=v.truncated)
        for i, c in v.coeffs:
            step = self.act(gen, i)
            out = out + StringVector.of(
                {j: c * cc for j, cc in step.coeffs}, step.truncated
            )
        return out

    def adjacency(self) -> list[tuple[int, str, int]]:
        """All arrows (u_i, generator, u_{i+1}) inside the truncation."""
        return [(i, self.arrow_label(i), i + 1) for i in range(1, self.n)]


# -- the bridge -------------------------------------------------------------------


def canonical_presentation(label: int) -> Presentation:
    """The canonical sl(1|1) presentation of class 1 or 2: M((1,), S), S = {} or {1}."""
    if label not in (1, 2):
        raise StringBridgeError("class must be 1 or 2")
    return build_mas(1, (1,), () if label == 1 else (1,))


def phi_map(variant: int, v: Vec2, n: int) -> StringVector:
    """The degree-doubling identification of a module vector with u's.

    Variant 1 sends (0, h^i) to u_{2i+1} and (h^i, 0) to u_{2i+2};
    variant 2 swaps which column hits the odd positions.  Images beyond
    the truncation raise instead of dropping terms.
    """
    if variant not in (1, 2):
        raise StringBridgeError("variant must be 1 or 2")
    if v.nvars != 1:
        raise StringBridgeError("bridge vectors are univariate")
    acc: dict[int, Fraction] = {}

    def place(poly: Poly, base: int):
        for (e,), coeff in poly.terms.items():
            target = 2 * e + base
            if target > n:
                raise StringBridgeError(
                    f"truncation overflow: u_{target} beyond N = {n}"
                )
            acc[target] = acc.get(target, Fraction(0)) + coeff

    if variant == 1:
        place(v.f2, 1)
        place(v.f1, 2)
    else:
        place(v.f1, 1)
        place(v.f2, 2)
    return StringVector.of(acc)


@dataclass(frozen=True)
class IntertwiningReport:
    ok: bool
    failures: tuple[str, ...]
    checked: int


def check_intertwining(variant: int, n: int, max_deg: int) -> IntertwiningReport:
    """Verify phi(g . v) = g . phi(v) on all monomial vectors up to max_deg.

    The module side is the canonical presentation matching the variant;
    the string side is the truncated diagram action.  N must leave room
    for the images: h . (h^max_deg, 0) lands on u_{2*max_deg+4}, so
    N >= 2*max_deg + 4.  Failures are reported per (generator, vector)
    pair.
    """
    if max_deg < 0:
        raise StringBridgeError(f"max degree must be non-negative, got {max_deg}")
    if n < 2 * max_deg + 4:
        raise StringBridgeError(
            f"truncation N = {n} too small for max degree {max_deg} "
            f"(need N >= {2 * max_deg + 4})"
        )
    module = canonical_presentation(variant)
    strings = StringModule(variant, n)
    gens = {"x": Root(0, 1), "y": Root(1, 0), "h": None}
    h = Poly.var(1, 0)
    failures = []
    checked = 0
    for k in range(max_deg + 1):
        for which in (0, 1):
            hk = h**k
            v = Vec2(hk, Poly.zero(1)) if which == 0 else Vec2(Poly.zero(1), hk)
            image = phi_map(variant, v, n)
            for gen, root in gens.items():
                if root is None:
                    gv = Vec2(h * v.f1, h * v.f2)
                else:
                    gv = act(module, root, v)
                lhs = phi_map(variant, gv, n)
                rhs = strings.act_vector(gen, image)
                checked += 1
                if rhs.truncated or lhs != rhs:
                    desc = f"(h^{k} in column {which + 1})"
                    failures.append(
                        f"phi({gen} . {desc}) = {lhs.describe()} but "
                        f"{gen} . phi{desc} = {rhs.describe()}"
                    )
    return IntertwiningReport(not failures, tuple(failures), checked)

