"""Exact calculator for rank-2 U(h)-free modules over sl(m|n).

Everything is computed over the rationals with exact arithmetic: the
polynomial ring Q[h] carrying the Cartan action, the shift-twisted 2x2
matrix presentations of rank-2 modules, their normal forms and
classification by (a, S) data, homomorphism and submodule analysis, the
string-module picture for sl(1|1), and machine-checkable emptiness
certificates for m, n >= 2.
"""

from .poly import Poly, ShiftMap, apply_shift, divides_exactly, poly_gcd

__all__ = [
    "Poly",
    "ShiftMap",
    "apply_shift",
    "divides_exactly",
    "poly_gcd",
]
