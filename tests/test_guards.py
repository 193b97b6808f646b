"""The argument guards of the library API, one case each: the call, the
exception it raises and the exact message.

The file readers and the CLI check their input before they call these
functions, so no other test reaches these guards: a guard whose `raise`
became `pass` would fail no test but its case here.
"""

import pytest

from uhfree.mat2 import InvariantBreach, Mat2, PresentationError
from uhfree.morphisms import (
    MorphismError,
    endo_f_polynomial,
    resolve_category,
    sl11_submodule_shape,
    solve_hom,
)
from uhfree.normalform import ClassificationError, classify_sl11
from uhfree.poly import (
    Poly,
    PolyError,
    compose_univariate,
    default_names,
    divides_exactly,
    format_poly,
    poly_gcd,
)
from uhfree.presentation import Presentation, build_mas, derive_even, make_presentation
from uhfree.stringbridge import (
    StringBridgeError,
    StringModule,
    canonical_presentation,
    phi_map,
)
from uhfree.superlie import SuperAlgebra, SuperLieError, algebra

Z1, Z2 = Poly.zero(1), Poly.zero(2)
SL11 = build_mas(1, (1,), ())
SL21 = build_mas(2, (1, 2), (1,))

GUARDS = {
    # mat2
    "mat2-not-2x2": (
        lambda: Mat2(((Z1,), (Z1,))),
        PresentationError,
        "Mat2 needs a 2x2 array",
    ),
    "mat2-mixed-nvars": (
        lambda: Mat2(((Z1, Z2), (Z1, Z1))),
        PresentationError,
        "Mat2 entries must be Poly with equal nvars",
    ),
    "mat2-assignment": (
        lambda: setattr(Mat2.zero(1), "nvars", 2),
        AttributeError,
        "Mat2 is immutable",
    ),
    # poly
    "poly-float-coefficient": (
        lambda: Poly(1, {(0,): 0.5}),
        PolyError,
        "coefficients must be exact rationals, got float",
    ),
    "poly-var-index": (
        lambda: Poly.var(2, 2),
        PolyError,
        "variable index 2 out of range for 2 variables",
    ),
    "poly-leading-coeff-of-zero": (
        lambda: Z1.leading_coeff(),
        PolyError,
        "zero polynomial has no leading term",
    ),
    "poly-negative-power": (
        lambda: Poly.var(1, 0) ** -1,
        PolyError,
        "exponent must be a non-negative integer",
    ),
    "poly-specialize-length": (
        lambda: Poly.var(2, 0).specialize([1]),
        PolyError,
        "wrong number of values",
    ),
    "divides-exactly-nvars": (
        lambda: divides_exactly(Poly.one(1), Poly.one(2)),
        PolyError,
        "variable-count mismatch",
    ),
    "poly-gcd-nvars": (
        lambda: poly_gcd(Poly.one(1), Poly.one(2)),
        PolyError,
        "variable-count mismatch",
    ),
    "compose-bivariate-outer": (
        lambda: compose_univariate(Poly.var(2, 0), Poly.var(1, 0)),
        PolyError,
        "composition expects a univariate outer polynomial",
    ),
    "default-names-split": (
        lambda: default_names(2, 3),
        PolyError,
        "bad variable split",
    ),
    "format-poly-names": (
        lambda: format_poly(Poly.one(2), ("h1",)),
        PolyError,
        "name list does not match variable count",
    ),
    "poly-assignment": (
        lambda: setattr(Poly.one(1), "nvars", 2),
        AttributeError,
        "Poly is immutable",
    ),
    # presentation
    "presentation-grading": (
        lambda: Presentation(1, 1, "g12", SL11.odd),
        PresentationError,
        "unknown grading 'g12'",
    ),
    "presentation-nvars": (
        lambda: make_presentation(1, 1, {(0, 1): Mat2.zero(2), (1, 0): Mat2.zero(2)}),
        PresentationError,
        "matrix variable count does not match (m, n)",
    ),
    "derive-even-on-odd": (
        lambda: derive_even(SL11, 0, 1),
        PresentationError,
        "odd matrices are stored, not derived",
    ),
    "build-mas-parameter-count": (
        lambda: build_mas(2, (1,), ()),
        PresentationError,
        "need 2 parameters, got 1",
    ),
    "build-mas-subset-range": (
        lambda: build_mas(2, (1, 1), (3,)),
        PresentationError,
        "subset entries must lie in 1..m",
    ),
    # superlie
    "superalgebra-size": (
        lambda: SuperAlgebra(0, 1),
        SuperLieError,
        "m and n must be at least 1",
    ),
    "is-barred-range": (
        lambda: algebra(1, 1).is_barred(2),
        SuperLieError,
        "position 2 out of range",
    ),
    "cartan-diag-pair-range": (
        lambda: algebra(1, 1).cartan_diag_pair(-1),
        SuperLieError,
        "position -1 out of range",
    ),
    # morphisms
    "resolve-category": (
        lambda: resolve_category(SL21, SL21, "M3"),
        MorphismError,
        "unknown category 'M3'",
    ),
    "solve-hom-two-algebras": (
        lambda: solve_hom(SL11, SL21),
        MorphismError,
        "presentations live over different superalgebras",
    ),
    # a planted solution that is not W D_F W^-1: the swap is not diagonal
    # in the frame of M(1, {}), whose witness is diagonal
    "endo-f-polynomial-not-in-the-frame": (
        lambda: endo_f_polynomial(SL11, Mat2.swap(1)),
        InvariantBreach,
        "endomorphism is not W diag(F(c+d), F(c)) W^-1",
    ),
    "sl11-shape-class": (
        lambda: sl11_submodule_shape(3, Poly.one(1)),
        MorphismError,
        "class must be 1 or 2",
    ),
    "sl11-shape-generator": (
        lambda: sl11_submodule_shape(1, Z1),
        MorphismError,
        "the ideal generator must be a nonzero univariate polynomial",
    ),
    # normalform
    "classify-sl11-off-sl11": (
        lambda: classify_sl11(SL21),
        ClassificationError,
        "classify_sl11 expects m = n = 1",
    ),
    # stringbridge
    "string-module-variant": (
        lambda: StringModule(3, 4),
        StringBridgeError,
        "variant must be 1 or 2",
    ),
    "string-module-length": (
        lambda: StringModule(1, 0),
        StringBridgeError,
        "truncation length must be positive",
    ),
    "string-module-generator": (
        lambda: StringModule(1, 4).act("z", 1),
        StringBridgeError,
        "unknown generator 'z'",
    ),
    "canonical-presentation-class": (
        lambda: canonical_presentation(3),
        StringBridgeError,
        "class must be 1 or 2",
    ),
    "phi-map-variant": (
        lambda: phi_map(3, Mat2.zero(1), 4),
        StringBridgeError,
        "variant must be 1 or 2",
    ),
    "phi-map-univariate": (
        lambda: phi_map(1, Mat2.zero(2), 4),
        StringBridgeError,
        "bridge vectors are univariate",
    ),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
