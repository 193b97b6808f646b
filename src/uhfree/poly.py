"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[h_1, ..., h_m, hb_1, ..., hb_{n-1}] with a fixed
variable order h_1 > ... > h_m > hb_1 > ...  A polynomial is stored as
integer numerators over one positive common denominator: a map from
packed monomial keys to nonzero ints, and den >= 1 with gcd(den, every
numerator) == 1 (the zero polynomial has den == 1).  That form is
canonical, so equal polynomials have equal storage and equality compares
ints.  A key packs an exponent vector into 16-bit fields of one int, the
total degree in the top field and e_1, ..., e_v below it, e_1 most
significant (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007, LNCS 4770).  So
multiplying two monomials adds their keys, and the graded lexicographic
order (h_1 largest) is the order of the keys.  Every total degree stays
below DEGREE_LIMIT = 2^15, checked when a polynomial is built or parsed
and before each product, so no field carries into its neighbour.
Exponent tuples appear only at the public boundary: `Poly(nvars, {tuple:
c})`, `Poly.terms`, `coeff`, `sorted_terms` and `monomials`.
Packing and unpacking go through the bytes of the key, the parser adds
one shifted power per factor, and shifts and `specialize` visit only the
nonzero fields of a key, so no kernel does work quadratic in the number
of variables for a monomial of few factors.

The kernels add, multiply, shift and specialize integer term maps and
reduce by one gcd per result (`sum_of_products` forms x1 y1 + x2 y2, an
entry of a 2x2 product, with one reduction); `Poly.terms` is a read-only view
{exponents: Fraction} of the same value, built on each access, so a
caller that reads it more than once keeps the view.  The module also
provides the shift automorphisms h_i -> h_i - s_i that encode the weights
of root-vector actions, exact division on the integer numerators
(`divides_exactly`), and a gcd: the heuristic GCDHEU
(integer gcds at evaluation points, each candidate checked by exact
division), with a primitive-part Euclidean gcd as its fallback.
`integer_rows` reads a linear combination of polynomials straight from
the integer storage as one integer row per monomial, for the hom
solver's exact linear algebra.  All values are immutable.

The text grammar (used by every file format and the CLI):

    poly   := term (("+"|"-") term)*
    term   := coeff ("*" factor)* | factor ("*" factor)*
    coeff  := integer ("/" positive-integer)?
    factor := var ("^" positive-integer)?
    var    := "h" digits | "hb" digits

Whitespace is insignificant.  Examples: "3/2*h1^2*h2 - 1", "h1 + hb1 - h2".
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from struct import Struct
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence, Union

Scalar = Union[int, Fraction]

_new = object.__new__
_set = object.__setattr__


class UhfreeError(ValueError):
    """Base of every error that a bad input or argument raises (CLI exit 2).

    It lives here, in the lowest layer, so every module can derive from it.
    Broken internal invariants raise mat2.InvariantBreach instead.
    """


class PolyError(UhfreeError):
    """Ill-formed polynomial operation (mismatched variables, bad input)."""


class PolyParseError(PolyError):
    """Grammar violation; carries the 1-based column of the offender."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise PolyError(f"coefficients must be exact rationals, got {type(c).__name__}")


# Every total degree stays below this, so a sum of two keys carries no
# field into its neighbour.
DEGREE_LIMIT = 1 << 15
_OVER_LIMIT = "total degree %%d is over the limit of %d" % (DEGREE_LIMIT - 1)


@lru_cache(maxsize=64)
def _codec(nvars: int):
    """(pack, unpack) between (degree, *exponents) and the big-endian bytes of a key."""
    return Struct(">%dH" % (nvars + 1)).pack, Struct(">2x%dH" % nvars).unpack


def _key(exps: Sequence[int], nvars: int) -> int:
    """The key of an exponent vector, checked."""
    if len(exps) != nvars or any(not isinstance(e, int) or e < 0 for e in exps):
        raise PolyError(f"bad exponent vector {tuple(exps)!r} for {nvars} variables")
    d = sum(exps)
    if d >= DEGREE_LIMIT:
        raise PolyError(_OVER_LIMIT % d)
    return int.from_bytes(_codec(nvars)[0](d, *exps), "big")


def _exps(key: int, nvars: int) -> tuple[int, ...]:
    return _codec(nvars)[1](key.to_bytes(2 * nvars + 2, "big"))


def _over_den(clean: dict) -> tuple[dict, int]:
    """{key: nonzero Fraction} as numerators over the lcm of the denominators."""
    # Lowest-terms coefficients over that lcm already have
    # gcd(den, numerators) == 1.
    den = lcm(*(c.denominator for c in clean.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in clean.items()}, den


def monomials(nvars: int, max_deg: int) -> Iterator[tuple[int, ...]]:
    """The C(max_deg + nvars, nvars) exponent tuples of total degree <= max_deg, in graded lex order."""
    for total in range(max_deg + 1):
        yield from _of_degree(nvars, total)


def _of_degree(nvars: int, total: int) -> Iterator[tuple[int, ...]]:
    """The exponent tuples of nvars variables that sum to total, lexicographically."""
    if nvars == 0:
        if total == 0:
            yield ()
    elif nvars == 1:
        yield (total,)
    else:
        for e in range(total + 1):
            for rest in _of_degree(nvars - 1, total - e):
                yield (e, *rest)


# -- term maps -------------------------------------------------------------------
#
# A term map sends packed keys to nonzero int numerators.  The helpers
# below are the hot inner loops of the whole package.


def _add_terms(a: dict, b: dict, k: int = 1) -> dict:
    """a + k*b."""
    out = dict(a)
    get = out.get
    for key, n in b.items():
        acc = get(key)
        if acc is None:
            out[key] = k * n
        else:
            acc += k * n
            if acc:
                out[key] = acc
            else:
                del out[key]
    return out


def _mul_terms(a: dict, b: dict, nv: int) -> dict:
    """a*b for nonzero term maps over nv variables, after the degree check."""
    # the degree field of the sum of the leading keys is the product's degree
    d = (max(a) + max(b)) >> (nv << 4)
    if d >= DEGREE_LIMIT:
        raise PolyError(_OVER_LIMIT % d)
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            acc = get(key)
            if acc is None:
                out[key] = ca * cb
            else:
                acc += ca * cb
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return out


# A workload needs few (e, s) pairs (weights are small) but looks them up
# once per shifted factor of every monomial.
@lru_cache(maxsize=1024)
def _binomial_row(e: int, s: int) -> tuple[int, ...]:
    """Coefficients of (x - s)^e, constant term first (exact ints)."""
    return tuple(comb(e, k) * (-s) ** (e - k) for k in range(e + 1))


def _shift_terms(terms: dict, shifts: tuple[int, ...]) -> dict:
    """Substitute h_i -> h_i - shifts[i] into a term map."""
    last = len(shifts) - 1
    top = (last + 1) << 4
    low = (1 << top) - 1
    out: dict = {}
    get = out.get
    for key, coeff in terms.items():
        # Expand each shifted factor (h_i - s)^e of the monomial by the
        # binomial theorem, replacing exponent e of field i by k in every
        # key, so the keys of one monomial's expansion never collide.  Only
        # the nonzero fields are visited, the highest first.
        partial = {key: coeff}
        bits = key & low
        while bits:
            off = (bits.bit_length() - 1) & ~15
            e = bits >> off
            bits ^= e << off
            s = shifts[last - (off >> 4)]
            if s:
                # the key of one more h_i: its field and the degree field
                step = (1 << off) + (1 << top)
                nxt = {}
                for k2, c2 in partial.items():
                    k2 -= e * step
                    for w in _binomial_row(e, s):
                        nxt[k2] = w * c2
                        k2 += step
                partial = nxt
        for k2, c2 in partial.items():
            acc = get(k2)
            if acc is None:
                out[k2] = c2
            else:
                acc += c2
                if acc:
                    out[k2] = acc
                else:
                    del out[k2]
    return out


class Poly:
    """Immutable multivariate polynomial with rational coefficients."""

    __slots__ = ("nvars", "_num", "_den")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[int, Fraction] = {}
        for exps, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff:
                clean[_key(exps, nvars)] = coeff
        num, den = _over_den(clean)
        _set(self, "nvars", nvars)
        _set(self, "_num", num)
        _set(self, "_den", den)

    @classmethod
    def _of(cls, nvars: int, num: dict, den: int) -> "Poly":
        """Wrap canonical integer storage without validation (kernel results)."""
        p = _new(cls)
        _set(p, "nvars", nvars)
        _set(p, "_num", num)
        _set(p, "_den", den)
        return p

    @classmethod
    def _reduced(cls, nvars: int, num: dict, den: int) -> "Poly":
        """Wrap integer storage after dividing out gcd(den, numerators)."""
        if den != 1:
            if not num:
                den = 1
            else:
                g = gcd(den, *num.values())
                if g != 1:
                    num = {k: n // g for k, n in num.items()}
                    den //= g
        return cls._of(nvars, num, den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._of(nvars, {}, 1)

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "Poly":
        c = _as_fraction(c)
        if not c:
            return cls.zero(nvars)
        return cls._of(nvars, {0: c.numerator}, c.denominator)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.const(nvars, 1)

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise PolyError(f"variable index {i} out of range for {nvars} variables")
        return cls._of(nvars, {(1 << (nvars << 4)) + (1 << ((nvars - 1 - i) << 4)): 1}, 1)

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only {exponents: nonzero Fraction} view, built on each access."""
        den, nv = self._den, self.nvars
        return MappingProxyType({_exps(k, nv): Fraction(n, den) for k, n in self._num.items()})

    @property
    def is_zero(self) -> bool:
        return not self._num

    def term_count(self) -> int:
        return len(self._num)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(self._num) >> (self.nvars << 4)

    def degree_in(self, i: int) -> int:
        """The degree in h_i, read from its field of each key; -1 for zero."""
        if not 0 <= i < self.nvars:
            raise PolyError(f"variable index {i} out of range for {self.nvars} variables")
        off = (self.nvars - 1 - i) << 4
        return max(((k >> off) & 0xFFFF for k in self._num), default=-1)

    def shift_bound(self) -> int:
        """A bound on the terms of any shift of self: the sum over its
        monomials h^e of (e_1 + 1)...(e_v + 1), read from the nonzero fields
        of each key as `_shift_terms` reads them."""
        low = (1 << (self.nvars << 4)) - 1
        total = 0
        for key in self._num:
            bits, n = key & low, 1
            while bits:
                off = (bits.bit_length() - 1) & ~15
                e = bits >> off
                bits ^= e << off
                n *= e + 1
            total += n
        return total

    def leading_coeff(self) -> Fraction:
        if not self._num:
            raise PolyError("zero polynomial has no leading term")
        return Fraction(self._num[max(self._num)], self._den)

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is 1; zero stays zero."""
        if not self._num:
            return self
        return self * (1 / self.leading_coeff())

    def constant_value(self) -> Optional[Fraction]:
        """The value of a constant polynomial, None if non-constant."""
        if not self._num:
            return Fraction(0)
        if len(self._num) == 1 and 0 in self._num:
            return Fraction(self._num[0], self._den)
        return None

    def coeff(self, exps: Sequence[int]) -> Fraction:
        """The coefficient of one monomial; PolyError for a bad exponent vector."""
        return Fraction(self._num.get(_key(exps, self.nvars), 0), self._den)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """The terms in descending graded lex order."""
        num, den, nv = self._num, self._den, self.nvars
        return [(_exps(k, nv), Fraction(num[k], den)) for k in sorted(num, reverse=True)]

    def variables(self) -> set[int]:
        acc = 0
        for k in self._num:
            acc |= k
        return {i for i, e in enumerate(_exps(acc, self.nvars)) if e}

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> Optional["Poly"]:
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise PolyError(
                    f"variable-count mismatch: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.nvars, other)
        return None

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other; other is already coerced."""
        b = other._num
        if not b:
            return self
        a = self._num
        if not a:
            return other if sign == 1 else -other
        da, db = self._den, other._den
        if da == db:
            return Poly._reduced(self.nvars, _add_terms(a, b, sign), da)
        den = lcm(da, db)
        fa = den // da
        a = {k: fa * n for k, n in a.items()} if fa != 1 else a
        return Poly._reduced(self.nvars, _add_terms(a, b, sign * (den // db)), den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        if not self._num:
            return self
        return Poly._of(self.nvars, {k: -n for k, n in self._num.items()}, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            nv = self.nvars
            if other.nvars != nv:
                raise PolyError(f"variable-count mismatch: {nv} vs {other.nvars}")
            a, b = self._num, other._num
            if not a:
                return self
            if not b:
                return other
            return Poly._reduced(nv, _mul_terms(a, b, nv), self._den * other._den)
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero(self.nvars)
            p, q = other.numerator, other.denominator
            num = {k: n * p for k, n in self._num.items()}
            return Poly._reduced(self.nvars, num, self._den * q)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise PolyError("exponent must be a non-negative integer")
        result = Poly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        # A constant hashes like its value, so a Poly equal to an int or
        # a Fraction hashes like it; zero hashes like 0.
        c = self.constant_value()
        return hash((self.nvars, self._den, frozenset(self._num.items())) if c is None else c)

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        return f"Poly({format_poly(self, default_names(self.nvars))!r})"

    # -- substitution and evaluation ------------------------------------------

    def specialize(self, values: Sequence[Optional[Scalar]]) -> "Poly":
        """Set variable i to values[i] wherever that is not None.

        The variables left at None become the result's variables, in order.
        Each term visits only its nonzero fields: a fixed one scales the
        numerator, which stays an int unless a value is not an integer, and
        a kept one moves down past the fixed fields below it.
        """
        nv = self.nvars
        if len(values) != nv:
            raise PolyError("wrong number of values")
        # by the offset of its field, the value of a fixed variable and the
        # new offset of a kept one
        fixed, down = {}, {}
        for off, v in zip(range(0, nv << 4, 16), reversed(values)):
            if v is None:
                down[off] = len(down) << 4
            else:
                if not isinstance(v, int):
                    v = _as_fraction(v)
                    v = v.numerator if v.denominator == 1 else v
                fixed[off] = v
        nk = len(down)
        if not self._num:
            return Poly.zero(nk)
        top, new_top = nv << 4, nk << 4
        low = (1 << top) - 1
        out: dict = {}
        get = out.get
        for key, n in self._num.items():
            bits, new = key & low, (key >> top) << new_top
            while bits:
                # the highest nonzero field first
                off = (bits.bit_length() - 1) & ~15
                e = bits >> off
                bits ^= e << off
                if off in down:
                    new += e << down[off]
                else:
                    n *= fixed[off] ** e
                    new -= e << new_top
            out[new] = get(new, 0) + n
        out = {k: n for k, n in out.items() if n}
        if all(isinstance(v, int) for v in fixed.values()):
            return Poly._reduced(nk, out, self._den)
        return Poly._of(nk, *_over_den({k: Fraction(n) / self._den for k, n in out.items()}))

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        """The value at a point: `specialize` with every variable set."""
        return self.specialize(values).constant_value()

    def permuted(self, perm: Sequence[int]) -> "Poly":
        """The image under the substitution h_i -> h_perm[i], perm a permutation of the variables.

        Renaming variables moves exponents and keeps every coefficient, so
        the storage stays canonical.
        """
        n = self.nvars
        if sorted(perm) != list(range(n)):
            raise PolyError(f"{list(perm)} is not a permutation of {n} variables")
        source = [0] * n
        for i, j in enumerate(perm):
            source[j] = i
        num = {}
        for k, c in self._num.items():
            exps = _exps(k, n)
            num[_key([exps[i] for i in source], n)] = c
        return Poly._of(n, num, self._den)


# -- products ------------------------------------------------------------------


def sum_of_products(x1: Poly, y1: Poly, x2: Poly, y2: Poly, sign: int = 1) -> Poly:
    """x1*y1 + sign*x2*y2 for sign = 1 or -1, summed on the term maps and reduced once.

    Each entry of a 2x2 product and a determinant is one such sum.  The
    checks and their messages are those of `x1 * y1 + x2 * y2`: each
    product's variable counts and degree in turn, then the two products'
    variable counts.
    """
    nv = x1.nvars
    if y1.nvars != nv or x2.nvars != nv or y2.nvars != nv:
        # the entrywise sum raises the variable-count error
        return x1 * y1 + sign * (x2 * y2)
    # Most entries of the classifier's matrices are zero: a zero factor
    # costs one test, and a zero sum of zero products is a zero factor.
    a1, b1, a2, b2 = x1._num, y1._num, x2._num, y2._num
    first = _mul_terms(a1, b1, nv) if a1 and b1 else None
    da = x1._den * y1._den
    if not (a2 and b2):
        return (x1 if not a1 else y1) if first is None else Poly._reduced(nv, first, da)
    second, db = _mul_terms(a2, b2, nv), x2._den * y2._den
    if first is None:
        first, da = {}, db
    den = lcm(da, db)
    fa = den // da
    first = {k: fa * n for k, n in first.items()} if fa != 1 else first
    return Poly._reduced(nv, _add_terms(first, second, sign * (den // db)), den)


# -- shift automorphisms ------------------------------------------------------


def apply_shift(s: tuple[int, ...], p: Poly) -> Poly:
    """Apply the ring automorphism h_i -> h_i - s_i to p.

    A shift is its integer vector s: shifts compose by adding the
    vectors, invert by negating them, and the zero vector is the identity.
    """
    if len(s) != p.nvars:
        raise PolyError("shift length does not match variable count")
    if not any(s) or not p._num:
        return p
    # An integer shift is an automorphism of Z[h], so it keeps the content
    # of the numerators and the result needs no reduction.
    return Poly._of(p.nvars, _shift_terms(p._num, s), p._den)


# -- divisibility and gcd ------------------------------------------------------


def divides_exactly(d: Poly, p: Poly) -> Optional[Poly]:
    """Return q with p = d*q when d divides p exactly, else None.

    The division runs on the integer numerators.  Write d = (c/e) D and
    p = P/f, with P in Z[h], D in Z[h] primitive, and c, e, f positive
    integers.  d divides p in Q[h] exactly when D divides P there, and
    then q = (e/(c f)) P/D.

    If D divides P in Q[h], the quotient Q = P/D lies in Z[h] (Gauss's
    lemma; Geddes, Czapor and Labahn, Algorithms for Computer Algebra,
    1992, ch. 2).  Write Q = (r/s) Q0 with Q0 primitive, s >= 1 and
    gcd(r, s) = 1: then s P = r D Q0, and D Q0 is primitive, so the
    contents give s cont(P) = |r|, s divides r, and s = 1.  Long division
    finds the terms of Q from the highest down.  Before each step the
    remainder is R = P - D Q' = D (Q - Q'), with Q' the terms found so far
    and Q - Q' in Z[h]; the leading term of a product is the product of
    the leading terms, so lt(R) = lt(D) lt(Q - Q').  Hence the leading
    monomial of D divides R's and its leading coefficient divides R's in
    Z.  A step where either fails proves that D does not divide P, and
    the division stops there with None; no step leaves Z.
    """
    if d.nvars != p.nvars:
        raise PolyError("variable-count mismatch")
    if d.is_zero:
        raise PolyError("division by the zero polynomial")
    if p.is_zero:
        return p
    nv, dn = p.nvars, d._num
    d_key = max(dn)
    c = gcd(*dn.values())
    lead = dn[d_key] // c
    # the other terms of D, each as its key's offset from the leading key
    tail = [(k - d_key, n // c) for k, n in dn.items() if k != d_key]
    # The top bit of every field, degree included, is zero in a key.  Set
    # in r, it stays set in r - d_key exactly where r's field is at least
    # d_key's, and no field borrows from its neighbour.
    guards = int.from_bytes(b"\x80\0" * (nv + 1), "big")
    quo = {}
    rem = dict(p._num)
    get = rem.get
    while rem:
        r_key = max(rem)
        if ((r_key | guards) - d_key) & guards != guards:
            return None
        q, r = divmod(rem.pop(r_key), lead)
        if r:
            return None
        quo[r_key - d_key] = q
        for off, n in tail:
            key = r_key + off
            acc = get(key, 0) - q * n
            if acc:
                rem[key] = acc
            else:
                del rem[key]
    e = d._den
    return Poly._reduced(nv, {k: e * q for k, q in quo.items()}, c * p._den)


def _max_active_var(*polys: Poly) -> Optional[int]:
    active = set()
    for p in polys:
        active |= p.variables()
    return max(active) if active else None


def _as_univariate(p: Poly, x: int) -> dict[int, Poly]:
    """View p as a polynomial in h_x with coefficients free of h_x."""
    off, top = (p.nvars - 1 - x) << 4, p.nvars << 4
    coeffs: dict[int, dict[int, int]] = {}
    for key, n in p._num.items():
        k = (key >> off) & 0xFFFF
        coeffs.setdefault(k, {})[key - (k << off) - (k << top)] = n
    return {k: Poly._reduced(p.nvars, t, p._den) for k, t in coeffs.items()}


def _content_in(p: Poly, x: int) -> Poly:
    """Gcd of the coefficients of p viewed as univariate in h_x."""
    cont = Poly.zero(p.nvars)
    for c in _as_univariate(p, x).values():
        cont = _euclid_gcd(cont, c)
    return cont


def _primitive_in(p: Poly, x: int) -> Poly:
    cont = _content_in(p, x)
    pp = divides_exactly(cont, p)
    if pp is None:
        raise PolyError("content does not divide its polynomial")
    return pp


def _pseudo_rem(a: Poly, b: Poly, x: int) -> Poly:
    """Pseudo-remainder of a by b with respect to h_x (deg_x b >= 1)."""
    db = b.degree_in(x)
    lb = _as_univariate(b, x)[db]
    r = a
    while not r.is_zero and r.degree_in(x) >= db:
        dr = r.degree_in(x)
        lr = _as_univariate(r, x)[dr]
        shift = Poly.var(a.nvars, x) ** (dr - db)
        r = lb * r - lr * shift * b
    return r


def _euclid_gcd(p: Poly, q: Poly) -> Poly:
    """The primitive-part Euclidean gcd, recursing on the last active variable.

    It is `poly_gcd`'s fallback and the in-package reference for it; its
    content recursion calls only itself.
    """
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    x = _max_active_var(p, q)
    if x is None:
        return Poly.one(p.nvars)
    cont = _euclid_gcd(_content_in(p, x), _content_in(q, x))
    a = _primitive_in(p, x)
    b = _primitive_in(q, x)
    while not b.is_zero and b.degree_in(x) > 0:
        r = _pseudo_rem(a, b, x)
        a, b = b, (r if r.is_zero else _primitive_in(r, x))
    g = a if b.is_zero else Poly.one(p.nvars)
    return (cont * g).monic()


# Evaluation points tried per level before the heuristic gives up; each
# point is the last one times 73794/27011 (both as in sympy's heugcd).
HEU_GCD_MAX = 6


def _primitive(p: Poly) -> tuple[int, Poly]:
    """(content, primitive part) of a nonzero polynomial with integer coefficients."""
    c = gcd(*p._num.values())
    if c == 1:
        return 1, p
    return c, Poly._of(p.nvars, {k: n // c for k, n in p._num.items()}, 1)


def _xi_adic(h: Poly, x: int, xi: int) -> Poly:
    """The polynomial whose coefficients in a new variable h_x, inserted at
    index x, are the symmetric base-xi digits (in (-xi/2, xi/2]) of h's."""
    half = xi // 2
    # the fields from h_x down stay where they are; the ones above, degree
    # included, move up one field to make room for the new h_x
    low = (h.nvars - x) << 4
    step = (1 << low) + (1 << ((h.nvars + 1) << 4))
    digits = {}
    for key, n in h._num.items():
        key += (key >> low << low) * 0xFFFF
        while n:
            d = n % xi
            if d > half:
                d -= xi
            if d:
                digits[key] = d
            n = (n - d) // xi
            key += step
    return Poly._of(h.nvars + 1, digits, 1)


def _heu_gcd(f: Poly, g: Poly) -> Optional[Poly]:
    """GCDHEU: the gcd in Z[h] of nonzero f, g with integer coefficients, or None.

    The contents split off first.  The last active variable h_x is set
    to an integer xi >= 2 min(|f|, |g|) + 2 (max norms of the primitive
    parts), the recursion returns gcd(f(xi), g(xi)) in one variable less,
    and its symmetric xi-adic digits are the coefficients of a candidate
    in h_x.  If the candidate's primitive part divides both inputs, it is
    their gcd (Char, Geddes and Gonnet, "GCDHEU: Heuristic polynomial GCD
    algorithm based on integer GCD computation", J. Symbolic Comput. 7
    (1989); Geddes, Czapor and Labahn, Algorithms for Computer Algebra
    (1992), section 7.7); `divides_exactly` checks that at every level.
    Otherwise the next point is tried, HEU_GCD_MAX per level; None means
    that every point failed at some level.
    """
    cf, f = _primitive(f)
    cg, g = _primitive(g)
    c = gcd(cf, cg)
    x = _max_active_var(f, g)
    if x is None or f.constant_value() is not None or g.constant_value() is not None:
        return Poly.const(f.nvars, c)
    at = [None] * f.nvars
    xi = 2 * min(max(map(abs, f._num.values())), max(map(abs, g._num.values()))) + 2
    for _ in range(HEU_GCD_MAX):
        at[x] = xi
        ff, gg = f.specialize(at), g.specialize(at)
        if ff and gg:
            h = _heu_gcd(ff, gg)
            if h is None:
                return None
            _, h = _primitive(_xi_adic(h, x, xi))
            if divides_exactly(h, f) is not None and divides_exactly(h, g) is not None:
                return h * c
        xi = xi * 73794 // 27011
    return None


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor, normalized monic under graded lex.

    gcd(p, 0) is the monic normalization of p; gcd(0, 0) = 0.  The
    heuristic `_heu_gcd` runs on the integer numerators of p and q and
    answers whenever an evaluation point gives a candidate that
    `divides_exactly` shows to divide both; by the GCDHEU theorem (Char,
    Geddes and Gonnet, J. Symbolic Comput. 7 (1989); Geddes, Czapor and
    Labahn, Algorithms for Computer Algebra (1992), section 7.7) such a
    candidate is the gcd.  When it gives up, the primitive-part Euclidean
    `_euclid_gcd` answers.  The gcd over Q is unique up to a constant
    factor, so both give the same monic polynomial.

    The proofs do not rest on this function.  Its one caller,
    `normalform.nil_factor`, factors a kernel vector with it, and a verdict
    trusts only the witness's unimodularity (`conjugate`), the exact
    equality of `check_family_form` and the family shape's relation report
    (`normalform._shape_report`); a common divisor that is not the
    greatest could make the classifier fail, never give a wrong verdict.
    """
    if p.nvars != q.nvars:
        raise PolyError("variable-count mismatch")
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    h = _heu_gcd(Poly._of(p.nvars, p._num, 1), Poly._of(q.nvars, q._num, 1))
    if h is None:
        return _euclid_gcd(p, q)
    return h.monic()


def integer_rows(parts: Sequence[tuple[int, Poly]]) -> list[dict[int, int]]:
    """The coefficient rows of sum_k x_k p_k for the (column k, p_k) pairs of parts.

    One row per monomial: {k: coefficient of that monomial in the sum of
    column k's parts}, scaled by the lcm of the parts' denominators, so
    each row is an integer multiple of its rational row.  A column may
    occur in several parts; entries that cancel are left out, and so are
    rows that cancel to nothing.
    """
    den = lcm(*(p._den for _, p in parts))
    rows: dict[int, dict[int, int]] = {}
    for k, p in parts:
        f = den // p._den
        for key, n in p._num.items():
            row = rows.get(key)
            if row is None:
                rows[key] = {k: n * f}
            else:
                row[k] = row.get(k, 0) + n * f
    out = []
    for row in rows.values():
        if 0 in row.values():
            row = {k: n for k, n in row.items() if n}
        if row:
            out.append(row)
    return out


def compose_univariate(f: Poly, g: Poly) -> Poly:
    """Evaluate a univariate polynomial f at the polynomial g (Horner's scheme)."""
    if f.nvars != 1:
        raise PolyError("composition expects a univariate outer polynomial")
    out = Poly.zero(g.nvars)
    for e in range(f.total_degree(), -1, -1):
        out = out * g + f.coeff((e,))
    return out


# -- text grammar ---------------------------------------------------------------


def default_names(nvars: int, m: Optional[int] = None) -> tuple[str, ...]:
    """Variable names h1..hm, hb1..hb(nvars-m); all unbarred if m is None."""
    if m is None:
        m = nvars
    if not 1 <= m <= nvars:
        raise PolyError("bad variable split")
    return tuple(f"h{i + 1}" for i in range(m)) + tuple(
        f"hb{j + 1}" for j in range(nvars - m)
    )


# One token per match, after optional whitespace: an integer, a name, an
# operator, or (group 4) any other character, which is an error.
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()])|(\S))")
_BAD = 4
_END = ("", "", "", "")  # the end of the text, read as "got ''"


@lru_cache(maxsize=64)
def _name_index(names: tuple[str, ...]) -> dict[str, int]:
    return {name: i for i, name in enumerate(names)}


def _parse_error(text: str, message: str, pos: int) -> PolyParseError:
    """The error at token pos of text, with its column, found by a second
    scan; a character that starts no token is reported first, wherever it is."""
    col = len(text) + 1
    for k, match in enumerate(_TOKEN_RE.finditer(text)):
        kind = match.lastindex
        if kind == _BAD:
            return PolyParseError(f"unexpected character {match.group(kind)!r}", match.start(kind) + 1)
        if k == pos:
            col = match.start(kind) + 1
    return PolyParseError(message, col)


def parse_poly(text: str, names: Sequence[str]) -> Poly:
    """Parse the polynomial grammar; variable names give the index map.

    One `re.findall` pass lists the tokens, each an (integer, name,
    operator, other) tuple with one group set, and an index loop over
    them reads the terms.  Only an error needs columns: `_parse_error`
    scans again, so a character that starts no token is reported before
    any grammar error.
    """
    nvars = len(names)
    index = _name_index(tuple(names))
    toks = _TOKEN_RE.findall(text)
    if not toks:
        raise PolyParseError("empty polynomial", 1)
    end = len(toks)
    toks.append(_END)

    def got(pos: int) -> str:
        return repr("".join(toks[pos]))

    def integer(pos: int) -> int:
        digits = toks[pos][0]
        if not digits:
            raise _parse_error(text, f"expected integer, got {got(pos)}", pos)
        try:
            return int(digits)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise _parse_error(text, f"integer has more than {limit} digits", pos) from None

    # (key, numerator, denominator) of every term, summed at the end over
    # the lcm of the denominators
    top = nvars << 4
    terms = []
    pos, sign = 0, 1
    if toks[0][2] in ("+", "-"):
        pos, sign = 1, (-1 if toks[0][2] == "-" else 1)
    while True:
        key, deg, den, start = 0, 0, 1, pos
        if toks[pos][0]:
            coeff = sign * integer(pos)
            pos += 1
            if toks[pos][2] == "/":
                den = integer(pos + 1)
                if den < 1:
                    raise _parse_error(text, "denominator must be positive", start)
                pos += 2
            factor = toks[pos][2] == "*"
            pos += factor
        elif toks[pos][1]:
            coeff, factor = sign, True
        else:
            raise _parse_error(text, f"expected coefficient or variable, got {got(pos)}", pos)
        # a term that starts with a name starts with its first factor; every
        # other factor follows a "*"
        while factor:
            name = toks[pos][1]
            if not name:
                raise _parse_error(text, f"expected variable after '*', got {got(pos)}", pos)
            i = index.get(name)
            if i is None:
                raise _parse_error(text, f"unknown variable {name!r}", pos)
            power = 1
            pos += 1
            if toks[pos][2] == "^":
                power = integer(pos + 1)
                if power < 1:
                    raise _parse_error(text, "exponent must be positive", pos - 1)
                pos += 2
            # a field can overflow only when the degree is over the limit
            key += power << ((nvars - 1 - i) << 4)
            deg += power
            factor = toks[pos][2] == "*"
            pos += factor
        if deg >= DEGREE_LIMIT:
            raise _parse_error(text, _OVER_LIMIT % deg, start)
        terms.append((key + (deg << top), coeff, den))
        if pos == end:
            break
        op = toks[pos][2]
        if op not in ("+", "-"):
            raise _parse_error(text, f"expected '+' or '-', got {got(pos)}", pos)
        pos, sign = pos + 1, (-1 if op == "-" else 1)
    den = lcm(*(d for _, _, d in terms))
    acc: dict[int, int] = {}
    for key, n, d in terms:
        acc[key] = acc.get(key, 0) + n * (den // d)
    return Poly._reduced(nvars, {key: n for key, n in acc.items() if n}, den)


def format_rational(q: Scalar) -> str:
    """str(q), or PolyError for more digits than sys.get_int_max_str_digits()."""
    try:
        return str(q)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise PolyError(f"coefficient has more than {limit} digits to print") from None


def format_poly(p: Poly, names: Sequence[str]) -> str:
    """Canonical printer: graded-lex descending, stable for golden tests.

    Each coefficient n/den is printed in lowest terms by `format_rational`.
    """
    if len(names) != p.nvars:
        raise PolyError("name list does not match variable count")
    num, den = p._num, p._den
    if not num:
        return "0"
    unpack, size = _codec(p.nvars)[1], 2 * p.nvars + 2
    pieces: list[str] = []
    for key in sorted(num, reverse=True):
        n = num[key]
        if pieces:
            sign = " - " if n < 0 else " + "
        else:
            sign = "-" if n < 0 else ""
        n = abs(n)
        d = den
        if d != 1:
            g = gcd(n, d)
            n //= g
            d //= g
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, unpack(key.to_bytes(size, "big")))
            if e
        ]
        if d == 1 and n == 1 and factors:
            body = "*".join(factors)
        else:
            mag = format_rational(n) if d == 1 else f"{format_rational(n)}/{format_rational(d)}"
            body = "*".join([mag] + factors)
        pieces.append(sign + body)
    return "".join(pieces)
