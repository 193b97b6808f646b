"""The sl(1|1) <-> string module dictionary.

U(sl(1|1)) is the quotient of the two-loop path algebra on generators
x, y by the two-sided ideal (x^2, y^2); its center is Q[h] with
h = xy + yx.  The two canonical rank-2 presentations correspond to the
infinite alternating-arrow string modules

    M1:  u_1 -x-> u_2 -y-> u_3 -x-> u_4 -> ...
    M2:  u_1 -y-> u_2 -x-> u_3 -y-> u_4 -> ...

under the degree-doubling maps phi.  The modules are materialized up to
a truncation length N, and a string vector is a dict {i: coefficient of
u_i} with no zero entries.  An arrow or an image of phi that would leave
u_1..u_N raises instead of silently vanishing, so verification degrees
stay honest.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .poly import Poly, UhfreeError
from .mat2 import Mat2
from .presentation import Presentation, act, build_mas
from .superlie import Root


class StringBridgeError(UhfreeError):
    """Invalid index, truncation overflow, or malformed request."""


def _in_window(j: int, n: int) -> int:
    """The index j of u_j, which must lie in the truncation u_1..u_N."""
    if j > n:
        raise StringBridgeError(f"truncation overflow: u_{j} beyond N = {n}")
    return j


def _describe(v: dict[int, Fraction]) -> str:
    """0, u3 or 2*u5 + ..., in index order."""
    parts = [f"u{i}" if c == 1 else f"{c}*u{i}" for i, c in sorted(v.items())]
    return " + ".join(parts) or "0"


# -- string modules up to u_N -----------------------------------------------------


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

    def act(self, gen: str, i: int) -> dict[int, Fraction]:
        """Action of x, y, or h = xy + yx on u_i; an arrow out of u_N raises."""
        if not 1 <= i <= self.n:
            raise StringBridgeError(f"basis index {i} outside 1..{self.n}")
        if gen in ("x", "y"):
            if self.arrow_label(i) != gen:
                return {}
            return {_in_window(i + 1, self.n): Fraction(1)}
        if gen == "h":
            first = self.arrow_label(i)
            return self.act_vector("y" if first == "x" else "x", self.act(first, i))
        raise StringBridgeError(f"unknown generator {gen!r}")

    def act_vector(self, gen: str, v: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, c in v.items():
            for j, cj in self.act(gen, i).items():
                out[j] = out.get(j, 0) + c * cj
        return {j: c for j, c in out.items() if c}

    def adjacency(self) -> list[tuple[int, str, int]]:
        """All arrows (u_i, generator, u_{i+1}) inside the truncation."""
        return [(i, self.arrow_label(i), i + 1) for i in range(1, self.n)]


# -- the bridge -------------------------------------------------------------------


def canonical_presentation(label: int) -> Presentation:
    """The canonical sl(1|1) presentation of class 1 or 2: M((1,), S), S = {} or {1}."""
    if label not in (1, 2):
        raise StringBridgeError("class must be 1 or 2")
    return build_mas(1, (1,), () if label == 1 else (1,))


def phi_map(variant: int, v: Mat2, n: int, col: int = 0) -> dict[int, Fraction]:
    """The degree-doubling identification of the module vector in column col of v with u's.

    Variant 1 sends (0, h^i) to u_{2i+1} and (h^i, 0) to u_{2i+2};
    variant 2 swaps which entry hits the odd positions.  Images beyond
    the truncation raise instead of dropping terms.
    """
    if variant not in (1, 2):
        raise StringBridgeError("variant must be 1 or 2")
    if v.nvars != 1:
        raise StringBridgeError("bridge vectors are univariate")
    top, bottom = v[0, col], v[1, col]
    odd, even = (bottom, top) if variant == 1 else (top, bottom)
    # the odd and even targets are distinct, so no two terms meet
    return {
        _in_window(2 * e + base, n): coeff
        for base, poly in ((1, odd), (2, even))
        for (e,), coeff in poly.terms.items()
    }


# check_intertwining takes about 0.11 ms per degree and variant
DEGREE_BUDGET = 10_000
# --adjacency prints N - 1 arrows per variant, about 21 bytes each
ARROWS_BUDGET = 100_000


def check_string_budget(n: int, max_deg: int, adjacency: bool) -> None:
    """Refuse a string-check request past DEGREE_BUDGET or ARROWS_BUDGET, before any work."""
    if max_deg > DEGREE_BUDGET:
        raise StringBridgeError(
            f"max degree {max_deg} is over the budget of {DEGREE_BUDGET} degrees"
        )
    if adjacency and n - 1 > ARROWS_BUDGET:
        raise StringBridgeError(
            f"adjacency at N = {n} is over the budget of {ARROWS_BUDGET} arrows per variant"
        )


class IntertwiningReport(NamedTuple):
    ok: bool
    failures: tuple[str, ...]
    checked: int


def check_intertwining(variant: int, n: int, max_deg: int) -> IntertwiningReport:
    """Verify phi(g . v) = g . phi(v) on all monomial vectors up to max_deg.

    The module side is the canonical presentation matching the variant;
    the string side is the diagram action on u_1..u_N.  N must leave room
    for the images: h . (h^max_deg, 0) lands on u_{2*max_deg+4}, so
    N >= 2*max_deg + 4, and under that guard neither side leaves the
    window.  Failures are reported per (generator, vector) pair.
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
    power = Poly.one(1)
    failures = []
    checked = 0
    for k in range(max_deg + 1):
        # the columns of h^k * I are the vectors (h^k, 0) and (0, h^k)
        v = Mat2.scalar(power)
        power = power * h
        moved = {
            gen: v * h if root is None else act(module, root, v) for gen, root in gens.items()
        }
        for which in (0, 1):
            image = phi_map(variant, v, n, which)
            for gen, gv in moved.items():
                lhs = phi_map(variant, gv, n, which)
                rhs = strings.act_vector(gen, image)
                checked += 1
                if lhs != rhs:
                    desc = f"(h^{k} in column {which + 1})"
                    failures.append(
                        f"phi({gen} . {desc}) = {_describe(lhs)} but "
                        f"{gen} . phi{desc} = {_describe(rhs)}"
                    )
    return IntertwiningReport(not failures, tuple(failures), checked)
