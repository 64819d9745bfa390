"""Exact Hilbert series of polarized orbifolds.

A computer-algebra toolkit for graded rings with cyclic quotient
singularities: exact Laurent-polynomial arithmetic over Q, inverses modulo
cyclotomic-type factors in prescribed support windows, generalized
Dedekind sums, ice cream functions (the integral Gorenstein-symmetric
orbifold contributions), the parse of a Hilbert series into initial plus
orbifold parts, and the Calabi-Yau 3-fold decompositions with curve
orbifold locus.  All arithmetic is exact; there is no floating point.
"""

from .cy3 import (
    CurveIcePart,
    CurveStratum,
    CY3IceParts,
    CY3Parts,
    cy3_ice_parts,
    cy3_rr_fit,
    cy3_rr_parts,
    iv_numerator,
)
from .dedekind import (
    OrbifoldType,
    SigmaVector,
    delta,
    sigma,
    sigma_surface_closed,
)
from .exactpoly import (
    DenomSpec,
    ExactDivisionError,
    InputError,
    LaurentPoly,
    MathCheckError,
    Rational,
    RationalFn,
    SeriesExpansionError,
    SeriesWindow,
    divides,
    exact_div,
    expand,
    fn_sum,
    is_gorenstein_symmetric,
    is_palindromic,
    poly_divmod,
    poly_ext_gcd,
    poly_gcd,
    reduce_to_window,
    times_binomials,
)
from .hilbert import (
    Basket,
    Decomposition,
    DecompositionError,
    binom_decompose,
    binom_reassemble,
    degree_from_decomposition,
    fano3_series,
    hilbert_ci,
    initial_from_plurigenera,
    k3_series,
    normalize_basket,
    parse_main,
)
from .icecream import OrbifoldPart, p_orb, p_orb_general, porb_minus_dedekind
from .invmod import (
    ModulusData,
    NotCoprimeError,
    build_modulus,
    integer_inverse,
    inv_mod,
)

__version__ = "0.1.0"
