"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[h_1, ..., h_m, hb_1, ..., hb_{n-1}] with a fixed
variable order h_1 > ... > h_m > hb_1 > ...  A polynomial is stored as
integer numerators over one positive common denominator: a map from
exponent tuples to nonzero ints, and den >= 1 with gcd(den, every
numerator) == 1 (the zero polynomial has den == 1).  That form is
canonical, so equal polynomials have equal storage and equality compares
ints.  The kernels add, multiply, shift and specialize integer term maps
and reduce by one gcd per result; `Poly.terms` is a read-only view
{exponents: Fraction} of the same value, built on first use.  It also
provides the shift automorphisms h_i -> h_i - s_i that encode the weights
of root-vector actions, a primitive-part Euclidean gcd and exact division.
All values are immutable.

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
from operator import add
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

Scalar = Union[int, Fraction]

_new = object.__new__
_set = object.__setattr__


class UhfreeError(ValueError):
    """Base of every error that a bad input or argument raises (CLI exit 2).

    It lives here, in the lowest layer, so every module can derive from it.
    Broken internal invariants raise presentation.InvariantBreach instead.
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


def grlex_key(exps: tuple[int, ...]) -> tuple:
    """Sort key for the graded lexicographic order (h_1 largest)."""
    return (sum(exps), exps)


# -- term maps -------------------------------------------------------------------
#
# A term map sends exponent tuples to nonzero int numerators.  The helpers
# below are the hot inner loops of the whole package.


def _add_terms(a: dict, b: dict, k: int = 1) -> dict:
    """a + k*b."""
    out = dict(a)
    get = out.get
    for exps, n in b.items():
        acc = get(exps)
        if acc is None:
            out[exps] = k * n
        else:
            acc += k * n
            if acc:
                out[exps] = acc
            else:
                del out[exps]
    return out


def _mul_terms(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
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
    moved = [(i, s) for i, s in enumerate(shifts) if s]
    out: dict = {}
    get = out.get
    for exps, coeff in terms.items():
        # Expand each shifted factor (h_i - s)^e of the monomial by the
        # binomial theorem, replacing exponent i by k in every key, so the
        # keys of one monomial's expansion never collide.
        partial = None
        for i, s in moved:
            e = exps[i]
            if not e:
                continue
            row = _binomial_row(e, s)
            nxt = {}
            for ex2, c2 in (partial or {exps: coeff}).items():
                head, tail = ex2[:i], ex2[i + 1 :]
                for k, w in enumerate(row):
                    nxt[head + (k,) + tail] = w * c2
            partial = nxt
        items = ((exps, coeff),) if partial is None else partial.items()
        for exps2, c2 in items:
            acc = get(exps2)
            if acc is None:
                out[exps2] = c2
            else:
                acc += c2
                if acc:
                    out[exps2] = acc
                else:
                    del out[exps2]
    return out


class Poly:
    """Immutable multivariate polynomial with rational coefficients."""

    # _view and _hash stay unset until first asked for
    __slots__ = ("nvars", "_num", "_den", "_view", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if not coeff:
                continue
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise PolyError(f"bad exponent vector {exps!r} for {nvars} variables")
            clean[tuple(exps)] = coeff
        # Lowest-terms coefficients over the lcm of their denominators
        # already have gcd(den, numerators) == 1.
        den = lcm(*(c.denominator for c in clean.values()))
        num = {exps: c.numerator * (den // c.denominator) for exps, c in clean.items()}
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
                    num = {exps: n // g for exps, n in num.items()}
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
        return cls._of(nvars, {(0,) * nvars: c.numerator}, c.denominator)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.const(nvars, 1)

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise PolyError(f"variable index {i} out of range for {nvars} variables")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._of(nvars, {exps: 1}, 1)

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only {exponents: nonzero Fraction} view, built once on demand."""
        try:
            return self._view
        except AttributeError:
            den = self._den
            view = MappingProxyType({e: Fraction(n, den) for e, n in self._num.items()})
            _set(self, "_view", view)
            return view

    @property
    def is_zero(self) -> bool:
        return not self._num

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(map(sum, self._num))

    def degree_in(self, i: int) -> int:
        if not self._num:
            return -1
        return max(e[i] for e in self._num)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponents, coefficient) under graded lex; zero is an error."""
        if not self._num:
            raise PolyError("zero polynomial has no leading term")
        exps = max(self._num, key=grlex_key)
        return exps, Fraction(self._num[exps], self._den)

    def leading_coeff(self) -> Fraction:
        return self.leading()[1]

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is 1; zero stays zero."""
        if not self._num:
            return self
        return self * (1 / self.leading_coeff())

    def constant_value(self) -> Optional[Fraction]:
        """The value of a constant polynomial, None if non-constant."""
        if not self._num:
            return Fraction(0)
        if len(self._num) == 1:
            exps, n = next(iter(self._num.items()))
            if not any(exps):
                return Fraction(n, self._den)
        return None

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self._num.get(tuple(exps), 0), self._den)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        den = self._den
        return [
            (exps, Fraction(self._num[exps], den))
            for exps in sorted(self._num, key=grlex_key, reverse=True)
        ]

    def variables(self) -> set[int]:
        return {i for exps in self._num for i, e in enumerate(exps) if e}

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
        a = {exps: fa * n for exps, n in a.items()} if fa != 1 else a
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
        return Poly._of(self.nvars, {exps: -n for exps, n in self._num.items()}, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise PolyError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")
            a, b = self._num, other._num
            if not a:
                return self
            if not b:
                return other
            return Poly._reduced(self.nvars, _mul_terms(a, b), self._den * other._den)
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero(self.nvars)
            p, q = other.numerator, other.denominator
            num = {exps: n * p for exps, n in self._num.items()}
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
        try:
            return self._hash
        except AttributeError:
            # the hash of the sorted (exponents, Fraction) items; an int hashes
            # like the equal Fraction
            den = self._den
            items = sorted(self._num.items())
            if den != 1:
                items = [(exps, Fraction(n, den)) for exps, n in items]
            h = hash((self.nvars, tuple(items)))
            _set(self, "_hash", h)
            return h

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        return f"Poly({format_poly(self, default_names(self.nvars))!r})"

    # -- substitution and evaluation ------------------------------------------

    def specialize(self, values: Sequence[Optional[Scalar]]) -> "Poly":
        """Set variable i to values[i] wherever that is not None.

        The variables left at None become the result's variables, in order.
        The kernel stays on ints: a value p/q of a variable whose largest
        exponent is top enters a term of exponent e as p^e * q^(top - e),
        and q^top joins the common denominator.
        """
        if len(values) != self.nvars:
            raise PolyError("wrong number of values")
        keep, fixed, den = [], [], self._den
        for i, v in enumerate(values):
            if v is None:
                keep.append(i)
                continue
            v = v if isinstance(v, int) else _as_fraction(v)
            q = v.denominator
            top = max((e[i] for e in self._num), default=0) if q != 1 else 0
            den *= q**top
            fixed.append((i, v.numerator, q, top))
        out: dict = {}
        for exps, n in self._num.items():
            for i, p, q, top in fixed:
                e = exps[i]
                if top:
                    n *= p**e * q ** (top - e)
                elif e:
                    n *= p**e
            key = tuple([exps[i] for i in keep])
            out[key] = out.get(key, 0) + n
        return Poly._reduced(len(keep), {k: n for k, n in out.items() if n}, den)

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        """The value at a point: `specialize` with every variable set."""
        return self.specialize(values).constant_value()


# -- shift automorphisms ------------------------------------------------------


class ShiftMap:
    """Composite of the shift automorphisms sigma_i: h_i -> h_i - 1.

    The stored vector s means h_i -> h_i - s_i.  Composition adds the
    vectors, inversion negates, and the zero vector is the identity.
    """

    __slots__ = ("shifts",)

    def __init__(self, shifts: Iterable[int]):
        object.__setattr__(self, "shifts", tuple(int(s) for s in shifts))

    def __setattr__(self, name, value):
        raise AttributeError("ShiftMap is immutable")

    @classmethod
    def identity(cls, nvars: int) -> "ShiftMap":
        return cls((0,) * nvars)

    @classmethod
    def sigma(cls, nvars: int, i: int, power: int = 1) -> "ShiftMap":
        return cls(tuple(power if j == i else 0 for j in range(nvars)))

    @property
    def nvars(self) -> int:
        return len(self.shifts)

    @property
    def is_identity(self) -> bool:
        return not any(self.shifts)

    def __mul__(self, other: "ShiftMap") -> "ShiftMap":
        if len(self.shifts) != len(other.shifts):
            raise PolyError("shift-map length mismatch")
        return ShiftMap(a + b for a, b in zip(self.shifts, other.shifts))

    def inverse(self) -> "ShiftMap":
        return ShiftMap(-s for s in self.shifts)

    def __pow__(self, k: int) -> "ShiftMap":
        return ShiftMap(k * s for s in self.shifts)

    def __eq__(self, other):
        return isinstance(other, ShiftMap) and self.shifts == other.shifts

    def __hash__(self):
        return hash(self.shifts)

    def __repr__(self):
        return f"ShiftMap{self.shifts}"

    def __call__(self, p: Poly) -> Poly:
        return apply_shift(self, p)


def apply_shift(s: ShiftMap, p: Poly) -> Poly:
    """Apply the ring automorphism h_i -> h_i - s_i to p."""
    if len(s.shifts) != p.nvars:
        raise PolyError("shift-map length does not match variable count")
    if s.is_identity or not p._num:
        return p
    # An integer shift is an automorphism of Z[h], so it keeps the content
    # of the numerators and the result needs no reduction.
    num = _shift_terms(p._num, s.shifts)
    return Poly._of(p.nvars, num, p._den)


# -- divisibility and gcd ------------------------------------------------------


def divides_exactly(d: Poly, p: Poly) -> Optional[Poly]:
    """Return q with p = d*q when d divides p exactly, else None."""
    if d.nvars != p.nvars:
        raise PolyError("variable-count mismatch")
    if d.is_zero:
        raise PolyError("division by the zero polynomial")
    if p.is_zero:
        return p
    d_exps, d_coeff = d.leading()
    quo: dict[tuple[int, ...], Fraction] = {}
    rem = p
    while not rem.is_zero:
        r_exps, r_coeff = rem.leading()
        q_exps = tuple(a - b for a, b in zip(r_exps, d_exps))
        if any(e < 0 for e in q_exps):
            return None
        q_coeff = r_coeff / d_coeff
        quo[q_exps] = q_coeff
        mono = Poly._of(p.nvars, {q_exps: q_coeff.numerator}, q_coeff.denominator)
        rem = rem - mono * d
    return Poly(p.nvars, quo)


def _max_active_var(*polys: Poly) -> Optional[int]:
    active = set()
    for p in polys:
        active |= p.variables()
    return max(active) if active else None


def _as_univariate(p: Poly, x: int) -> dict[int, Poly]:
    """View p as a polynomial in h_x with coefficients free of h_x."""
    coeffs: dict[int, dict[tuple[int, ...], int]] = {}
    for exps, n in p._num.items():
        k = exps[x]
        rest = exps[:x] + (0,) + exps[x + 1 :]
        coeffs.setdefault(k, {})[rest] = n
    return {k: Poly._reduced(p.nvars, t, p._den) for k, t in coeffs.items()}


def _content_in(p: Poly, x: int) -> Poly:
    """Gcd of the coefficients of p viewed as univariate in h_x."""
    cont = Poly.zero(p.nvars)
    for c in _as_univariate(p, x).values():
        cont = poly_gcd(cont, c)
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


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor, normalized monic under graded lex.

    Primitive-part Euclidean algorithm, recursing on the last active
    variable.  gcd(p, 0) is the monic normalization of p; gcd(0, 0) = 0.
    """
    if p.nvars != q.nvars:
        raise PolyError("variable-count mismatch")
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    x = _max_active_var(p, q)
    if x is None:
        return Poly.one(p.nvars)
    cont = poly_gcd(_content_in(p, x), _content_in(q, x))
    a = _primitive_in(p, x)
    b = _primitive_in(q, x)
    while not b.is_zero and b.degree_in(x) > 0:
        r = _pseudo_rem(a, b, x)
        a, b = b, (r if r.is_zero else _primitive_in(r, x))
    g = a if b.is_zero else Poly.one(p.nvars)
    return (cont * g).monic()


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


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == match.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                return
            col = len(text) - len(stripped) + 1
            raise PolyParseError(f"unexpected character {stripped[0]!r}", col)
        col = match.start(1 if match.group(1) else 2 if match.group(2) else 3) + 1
        if match.group(1):
            yield ("int", match.group(1), col)
        elif match.group(2):
            yield ("name", match.group(2), col)
        else:
            yield ("op", match.group(3), col)
        pos = match.end()


def parse_poly(text: str, names: Sequence[str]) -> Poly:
    """Parse the polynomial grammar; variable names give the index map."""
    nvars = len(names)
    index = {name: i for i, name in enumerate(names)}
    tokens = list(_tokenize(text))
    if not tokens:
        raise PolyParseError("empty polynomial", 1)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", "", len(text) + 1)

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def to_int(value: str, col: int) -> int:
        try:
            return int(value)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise PolyParseError(f"integer has more than {limit} digits", col) from None

    def parse_int() -> int:
        kind, value, col = take()
        if kind != "int":
            raise PolyParseError(f"expected integer, got {value!r}", col)
        return to_int(value, col)

    def parse_factor_tail(name: str, col: int) -> tuple[int, int]:
        i = index.get(name)
        if i is None:
            raise PolyParseError(f"unknown variable {name!r}", col)
        power = 1
        if peek()[:2] == ("op", "^"):
            take()
            power = parse_int()
            if power < 1:
                raise PolyParseError("exponent must be positive", col)
        return i, power

    # every term is added into one map, and one Poly is built from it
    acc: dict[tuple[int, ...], Scalar] = {}

    def parse_term(sign: int) -> None:
        exps = [0] * nvars
        coeff = sign
        kind, value, col = take()
        if kind == "int":
            coeff *= to_int(value, col)
            if peek()[:2] == ("op", "/"):
                take()
                den = parse_int()
                if den < 1:
                    raise PolyParseError("denominator must be positive", col)
                coeff = Fraction(coeff, den)
        elif kind == "name":
            i, power = parse_factor_tail(value, col)
            exps[i] += power
        else:
            raise PolyParseError(f"expected coefficient or variable, got {value!r}", col)
        while peek()[:2] == ("op", "*"):
            take()
            kind, value, col = take()
            if kind != "name":
                raise PolyParseError(
                    f"expected variable after '*', got {value!r}", col
                )
            i, power = parse_factor_tail(value, col)
            exps[i] += power
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + coeff

    sign = 1
    kind, value, col = peek()
    if kind == "op" and value in "+-":
        take()
        sign = -1 if value == "-" else 1
    parse_term(sign)
    while pos < len(tokens):
        kind, value, col = take()
        if kind != "op" or value not in "+-":
            raise PolyParseError(f"expected '+' or '-', got {value!r}", col)
        parse_term(-1 if value == "-" else 1)
    return Poly(nvars, acc)


def format_poly(p: Poly, names: Sequence[str]) -> str:
    """Canonical printer: graded-lex descending, stable for golden tests.

    Each coefficient n/den is printed in lowest terms, as str(Fraction)
    prints it.  Python converts at most sys.get_int_max_str_digits()
    digits of an int to text; a longer numerator or denominator raises
    PolyError.
    """
    if len(names) != p.nvars:
        raise PolyError("name list does not match variable count")
    num, den = p._num, p._den
    if not num:
        return "0"
    pieces: list[str] = []
    for exps in sorted(num, key=grlex_key, reverse=True):
        n = num[exps]
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
            for name, e in zip(names, exps)
            if e
        ]
        if d == 1 and n == 1 and factors:
            body = "*".join(factors)
        else:
            try:
                mag = str(n) if d == 1 else f"{n}/{d}"
            except ValueError:
                limit = sys.get_int_max_str_digits()
                raise PolyError(f"coefficient has more than {limit} digits to print") from None
            body = "*".join([mag] + factors)
        pieces.append(sign + body)
    return "".join(pieces)
