"""2x2 polynomial matrices, the twisted bracket, and the JSON codec of every uhfree file.

Everything here needs only `poly`, so a command that never reads a
presentation (empty-check) loads this module and not `presentation`.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

from .poly import (
    Poly,
    UhfreeError,
    apply_shift,
    default_names,
    format_poly,
    parse_poly,
    sum_of_products,
)


class PresentationError(UhfreeError):
    """Malformed presentation data or invalid operation on one."""


class InvariantBreach(RuntimeError):
    """An identity the theory guarantees failed; indicates an internal bug."""


# -- 2x2 polynomial matrices -----------------------------------------------------


class Mat2:
    """Immutable 2x2 matrix of polynomials sharing one variable count."""

    __slots__ = ("rows", "nvars")

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise PresentationError("Mat2 needs a 2x2 array")
        entries = tuple(tuple(r) for r in rows)
        nv = entries[0][0].nvars
        for r in entries:
            for p in r:
                if not isinstance(p, Poly) or p.nvars != nv:
                    raise PresentationError("Mat2 entries must be Poly with equal nvars")
        object.__setattr__(self, "rows", entries)
        object.__setattr__(self, "nvars", nv)

    @classmethod
    def _of(cls, rows: tuple) -> "Mat2":
        """Wrap a 2x2 tuple of Polys with equal nvars without re-checking it."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "rows", rows)
        object.__setattr__(mat, "nvars", rows[0][0].nvars)
        return mat

    def __setattr__(self, name, value):
        raise AttributeError("Mat2 is immutable")

    @classmethod
    def zero(cls, nvars: int) -> "Mat2":
        z = Poly.zero(nvars)
        return cls._of(((z, z), (z, z)))

    @classmethod
    def identity(cls, nvars: int) -> "Mat2":
        one = Poly.one(nvars)
        z = Poly.zero(nvars)
        return cls._of(((one, z), (z, one)))

    @classmethod
    def swap(cls, nvars: int) -> "Mat2":
        """The constant antidiagonal [[0, 1], [1, 0]].

        Conjugating by it turns M(a, S) into Mbar(a, S).
        """
        one = Poly.one(nvars)
        z = Poly.zero(nvars)
        return cls._of(((z, one), (one, z)))

    @classmethod
    def scalar(cls, p: Poly) -> "Mat2":
        z = Poly.zero(p.nvars)
        return cls(((p, z), (z, p)))

    @classmethod
    def column(cls, f1: Poly, f2: Poly) -> "Mat2":
        """The module vector (f1, f2) of Q[h]^2 as the matrix [[f1, 0], [f2, 0]].

        A module vector is a column of a Mat2: left multiplication, shifts
        and sums act on each column, so they act on vectors unchanged.
        """
        z = Poly.zero(f1.nvars)
        return cls(((f1, z), (f2, z)))

    @classmethod
    def of(cls, nvars: int, entries) -> "Mat2":
        """Build from scalars/Polys given row-major."""

        def lift(x):
            if isinstance(x, Poly):
                return x
            return Poly.const(nvars, x)

        (a, b), (c, d) = entries
        return cls(((lift(a), lift(b)), (lift(c), lift(d))))

    def __getitem__(self, rc: tuple[int, int]) -> Poly:
        return self.rows[rc[0]][rc[1]]

    def __add__(self, other: "Mat2") -> "Mat2":
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return Mat2._of(((a + e, b + f), (c + g, d + h)))

    def __sub__(self, other: "Mat2") -> "Mat2":
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return Mat2._of(((a - e, b - f), (c - g, d - h)))

    def __mul__(self, other):
        if isinstance(other, Mat2):
            (a, b), (c, d) = self.rows
            (e, f), (g, h) = other.rows
            return Mat2._of(
                (
                    (sum_of_products(a, e, b, g), sum_of_products(a, f, b, h)),
                    (sum_of_products(c, e, d, g), sum_of_products(c, f, d, h)),
                )
            )
        if isinstance(other, (int, Fraction, Poly)):
            return Mat2._of(tuple(tuple(a * other for a in r) for r in self.rows))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return Mat2._of(tuple(tuple(other * a for a in r) for r in self.rows))
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, Mat2) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Mat2({self.to_strings(default_names(self.nvars))})"

    def to_strings(self, names: Sequence[str]) -> list[list[str]]:
        """The rows as polynomial strings, the form every uhfree file uses."""
        return [[format_poly(q, names) for q in r] for r in self.rows]

    @classmethod
    def from_strings(
        cls,
        rows,
        names: Sequence[str],
        where: str,
        error: type[ValueError],
        max_degree: int | None = None,
    ) -> "Mat2":
        """Read a 2x2 JSON array of polynomial strings; any other shape raises `error`.

        So does an entry of total degree over max_degree, as soon as it is
        read, so the entries after it are not parsed.
        """

        def entry(text: str) -> Poly:
            p = parse_poly(text, names)
            if max_degree is not None and p.total_degree() > max_degree:
                raise error(
                    f"{where} has an entry of total degree {p.total_degree()}, "
                    f"over the budget of {max_degree}"
                )
            return p

        return cls._of(
            tuple(
                tuple(entry(s) for s in json_array(r, 2, str, where, error))
                for r in json_array(rows, 2, list, where, error)
            )
        )

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for r in self.rows for p in r)

    def shifted(self, s: tuple[int, ...]) -> "Mat2":
        (a, b), (c, d) = self.rows
        return Mat2._of(((apply_shift(s, a), apply_shift(s, b)), (apply_shift(s, c), apply_shift(s, d))))

    def permuted(self, perm: Sequence[int]) -> "Mat2":
        """Each entry under the substitution h_i -> h_perm[i] (`Poly.permuted`)."""
        return Mat2._of(tuple(tuple(f.permuted(perm) for f in row) for row in self.rows))

    def det(self) -> Poly:
        (a, b), (c, d) = self.rows
        return sum_of_products(a, d, b, c, -1)

    def is_unimodular(self) -> bool:
        v = self.det().constant_value()
        return v is not None and v != 0

    def inverse_unimodular(self) -> "Mat2":
        """Inverse of a matrix whose determinant is a nonzero constant."""
        v = self.det().constant_value()
        if v is None or v == 0:
            raise PresentationError("matrix determinant is not a nonzero constant")
        (a, b), (c, d) = self.rows
        inv = Fraction(1) / v
        return Mat2._of(((d * inv, -b * inv), (-c * inv, a * inv)))

    def is_strict_upper(self) -> bool:
        return self[0, 0].is_zero and self[1, 0].is_zero and self[1, 1].is_zero

    def is_strict_lower(self) -> bool:
        return self[0, 0].is_zero and self[0, 1].is_zero and self[1, 1].is_zero

    def is_diagonal(self) -> bool:
        return self[0, 1].is_zero and self[1, 0].is_zero

    def is_antidiagonal(self) -> bool:
        return self[0, 0].is_zero and self[1, 1].is_zero


def twisted_bracket(alg, x, ex: Mat2, y, ey: Mat2) -> Mat2:
    """E_x tau_x(E_y) -+ E_y tau_y(E_x), with + when x and y are both odd.

    This is the supercommutator of the actions of the roots x and y of
    the `superlie.SuperAlgebra` alg on Q[h]^2.
    """
    first, second = ex * ey.shifted(alg.weight_shift(x)), ey * ex.shifted(alg.weight_shift(y))
    return first + second if alg.parity(x) and alg.parity(y) else first - second


# -- the JSON codec shared by every uhfree file ------------------------------------------


def dump_json(payload) -> str:
    """The one encoding of every file uhfree writes: indent 2, sorted keys, final newline.

    The text is json.dumps(payload, indent=2, sort_keys=True) + "\\n", written
    in one pass: json's indent sends it to its pure-Python encoder, which
    took about 2.5x as long on a certificate.  Objects (dict) with str keys,
    arrays (list or tuple), str, int, bool and None are written; any other
    value or key, subclasses included, raises TypeError, as json does for
    what it cannot encode.
    """
    out: list[str] = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append value's text to out, its nested lines indented after `newline`.

    A str or int inside a container is written in the container's loop,
    which saves a call per leaf.
    """
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = sep + encode_basestring_ascii(key) + ": "
            if type(item) is str:
                out.append(head + encode_basestring_ascii(item))
            elif type(item) is int:
                out.append(head + int.__repr__(item))
            else:
                out.append(head)
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            if type(item) is str:
                out.append(sep + encode_basestring_ascii(item))
            elif type(item) is int:
                out.append(sep + int.__repr__(item))
            else:
                out.append(sep)
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None or value is True or value is False:
        out.append(_JSON_CONSTANTS[value])
    elif kind is int:
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def load_json(text: str, error: type[ValueError]):
    """Parse JSON text; bad syntax and repeated object keys raise `error`."""

    def unique_keys(pairs):
        data = {}
        for key, value in pairs:
            if key in data:
                raise error(f"duplicate key {key!r}")
            data[key] = value
        return data

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc}") from None
    except error:
        raise
    except ValueError:
        # json's other ValueError: a number past the int-conversion limit
        limit = sys.get_int_max_str_digits()
        raise error(f"invalid JSON: an integer has more than {limit} digits") from None


_JSON_KINDS = {
    int: "an integer",
    bool: "a boolean",
    str: "a string",
    list: "an array",
    dict: "an object",
}


def _is_json(value, kind: type) -> bool:
    """Is value a JSON value of the given kind (a boolean is not an integer)?"""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def json_field(obj: Mapping, key: str, kind: type, where: str, error: type[ValueError]):
    """obj[key], which must be present and a JSON value of the given kind, else `error`."""
    if key not in obj:
        raise error(f"{where}: missing key {key!r}")
    value = obj[key]
    if not _is_json(value, kind):
        raise error(f"{where}: {key} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def json_keys(obj: Mapping, allowed: Sequence[str], where: str, error: type[ValueError]):
    """Reject keys of obj outside `allowed`: a reader that skips a key cannot check it."""
    unknown = set(obj) - set(allowed)
    if unknown:
        raise error(f"unknown keys in {where}: {sorted(unknown)}")


def json_array(value, length: int, kind: type, where: str, error: type[ValueError]) -> list:
    """value, which must be a JSON array of `length` values of the given kind, else `error`."""
    if (
        not isinstance(value, list)
        or len(value) != length
        or not all(_is_json(v, kind) for v in value)
    ):
        raise error(f"{where} must be an array of {length} items, each {_JSON_KINDS[kind]}")
    return value
