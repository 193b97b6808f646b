"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[h_1, ..., h_m, hb_1, ..., hb_{n-1}] with a fixed
variable order h_1 > ... > h_m > hb_1 > ... and are kept canonical: no
zero terms are ever stored, so equality is plain term-map equality.
The module also provides the shift automorphisms h_i -> h_i - s_i that
encode the weights of root-vector actions, a primitive-part Euclidean
gcd, and exact division.  All values are immutable.

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
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

Scalar = Union[int, Fraction]


class PolyError(ValueError):
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
# A term map sends exponent tuples to nonzero Fraction coefficients.  The
# helpers below are the hot inner loops of the whole package.


def _add_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    for exps, coeff in b.items():
        acc = out.get(exps)
        if acc is None:
            out[exps] = coeff
        else:
            acc = acc + coeff
            if acc:
                out[exps] = acc
            else:
                del out[exps]
    return out


def _mul_terms(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = acc + c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return out


def _shift_terms(terms: dict, shifts: tuple[int, ...]) -> dict:
    """Substitute h_i -> h_i - shifts[i] into a term map."""
    out: dict = {}
    for exps, coeff in terms.items():
        # Seed with the unshifted part of the monomial, then expand each
        # shifted factor (h_i - s)^e by the binomial theorem.  Exponent i
        # is 0 in every seed key, so the expanded keys never collide.  The
        # binomial weights are Python ints, so every coefficient is exact.
        base = tuple(0 if shifts[i] else e for i, e in enumerate(exps))
        partial = {base: coeff}
        for i, s in enumerate(shifts):
            e = exps[i]
            if s == 0 or e == 0:
                continue
            nxt = {}
            for k in range(e + 1):
                c = comb(e, k) * (-s) ** (e - k)
                for ex2, c2 in partial.items():
                    nxt[ex2[:i] + (k,) + ex2[i + 1 :]] = c * c2
            partial = nxt
        for exps2, c2 in partial.items():
            acc = out.get(exps2)
            if acc is None:
                out[exps2] = c2
            else:
                acc = acc + c2
                if acc:
                    out[exps2] = acc
                else:
                    del out[exps2]
    return out


class Poly:
    """Immutable multivariate polynomial with Fraction coefficients."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if not coeff:
                continue
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise PolyError(f"bad exponent vector {exps!r} for {nvars} variables")
            clean[tuple(exps)] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "Poly":
        c = _as_fraction(c)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.const(nvars, 1)

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise PolyError(f"variable index {i} out of range for {nvars} variables")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponents, coefficient) under graded lex; zero is an error."""
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def leading_coeff(self) -> Fraction:
        return self.leading()[1]

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is 1; zero stays zero."""
        if not self.terms:
            return self
        return self * (1 / self.leading_coeff())

    def constant_value(self) -> Optional[Fraction]:
        """The value of a constant polynomial, None if non-constant."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            exps, coeff = next(iter(self.terms.items()))
            if not any(exps):
                return coeff
        return None

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def variables(self) -> set[int]:
        return {i for exps in self.terms for i, e in enumerate(exps) if e}

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

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly(self.nvars, _add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {exps: -coeff for exps, coeff in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return Poly(self.nvars, {exps: coeff * c for exps, coeff in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly(self.nvars, _mul_terms(self.terms, other.terms))

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
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Poly({format_poly(self, default_names(self.nvars))!r})"

    # -- evaluation and composition ------------------------------------------

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        if len(values) != self.nvars:
            raise PolyError("wrong number of values")
        vals = [_as_fraction(v) for v in values]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return total

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
    if s.is_identity:
        return p
    return Poly(p.nvars, _shift_terms(p.terms, s.shifts))


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
        rem = rem - Poly(p.nvars, {q_exps: q_coeff}) * d
    return Poly(p.nvars, quo)


def _max_active_var(*polys: Poly) -> Optional[int]:
    active = set()
    for p in polys:
        active |= p.variables()
    return max(active) if active else None


def _as_univariate(p: Poly, x: int) -> dict[int, Poly]:
    """View p as a polynomial in h_x with coefficients free of h_x."""
    coeffs: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for exps, coeff in p.terms.items():
        k = exps[x]
        rest = exps[:x] + (0,) + exps[x + 1 :]
        coeffs.setdefault(k, {})[rest] = coeff
    return {k: Poly(p.nvars, t) for k, t in coeffs.items()}


def _from_univariate(coeffs: Mapping[int, Poly], x: int, nvars: int) -> Poly:
    out = Poly.zero(nvars)
    for k, c in coeffs.items():
        xk = Poly.var(nvars, x) ** k
        out = out + c * xk
    return out


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
    """Evaluate a univariate polynomial f at the polynomial g."""
    if f.nvars != 1:
        raise PolyError("composition expects a univariate outer polynomial")
    out = Poly.zero(g.nvars)
    for (e,), coeff in f.terms.items():
        out = out + coeff * g**e
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

    def parse_int() -> int:
        kind, value, col = take()
        if kind != "int":
            raise PolyParseError(f"expected integer, got {value!r}", col)
        return int(value)

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

    def parse_term(sign: int) -> Poly:
        exps = [0] * nvars
        coeff = Fraction(sign)
        kind, value, col = take()
        if kind == "int":
            coeff *= int(value)
            if peek()[:2] == ("op", "/"):
                take()
                den = parse_int()
                if den < 1:
                    raise PolyParseError("denominator must be positive", col)
                coeff /= den
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
        return Poly(nvars, {tuple(exps): coeff})

    sign = 1
    kind, value, col = peek()
    if kind == "op" and value in "+-":
        take()
        sign = -1 if value == "-" else 1
    result = parse_term(sign)
    while pos < len(tokens):
        kind, value, col = take()
        if kind != "op" or value not in "+-":
            raise PolyParseError(f"expected '+' or '-', got {value!r}", col)
        result = result + parse_term(-1 if value == "-" else 1)
    return result


def format_poly(p: Poly, names: Sequence[str]) -> str:
    """Canonical printer: graded-lex descending, stable for golden tests."""
    if len(names) != p.nvars:
        raise PolyError("name list does not match variable count")
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for k, (exps, coeff) in enumerate(p.sorted_terms()):
        if k == 0:
            sign = "-" if coeff < 0 else ""
        else:
            sign = " - " if coeff < 0 else " + "
        mag = abs(coeff)
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, exps)
            if e
        ]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        pieces.append(sign + body)
    return "".join(pieces)
