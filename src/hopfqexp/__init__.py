"""Exact computations with finite-dimensional Hopf algebras.

Quasi-exponents, exponents, antipode-square orders, Drinfeld doubles
and Drinfeld twists, all over cyclotomic fields with no floating point.
"""

from .scalars import CyclotomicNumber, Rational, as_scalar, lift_conductor
from .poly import ExactPolynomial, cyclotomic_polynomial, poly_gcd, squarefree_part, root_of_unity_order
from .linalg import ExactMatrix, SpanSolver, minimal_polynomial
from .hopf import (
    AlgebraElement,
    GrouplikeSet,
    HopfAlgebraData,
    OrderSearchExhausted,
    TensorElement,
    dual,
    element_order,
    is_grouplike,
    lift_algebra,
    s2_order,
    subalgebra_closure,
    tensor,
    validate,
    variant,
)
from .double import (
    QuasitriangularData,
    drinfeld_double,
    drinfeld_element,
    r_inverse,
    u_inverse,
    verify_quasitriangular,
    verify_s2_conjugation,
)
from .qexp import (
    QexpReport,
    check_corollary_24,
    is_unipotent_element,
    quasi_exponent,
    r_n,
    t_map,
    u_min_poly_via_regular,
    u_min_poly_via_t,
    unipotency_index,
)
from .twist import (
    TwistData,
    grouplike_from_twist,
    grouplike_subgroup_twist,
    is_twist,
    make_twist,
    q_elements,
    twist_hopf,
    twisted_drinfeld_element,
    verify_eq4,
)
from .presets import ZOO, get_preset, parse_preset_name, preset_grouplikes
from .io import SchemaError, read_algebra, read_twist, write_algebra
from .suite import SuiteItem, format_suite, run_suite

__all__ = [
    "CyclotomicNumber", "Rational", "as_scalar", "lift_conductor",
    "ExactPolynomial", "cyclotomic_polynomial", "poly_gcd",
    "squarefree_part", "root_of_unity_order",
    "ExactMatrix", "SpanSolver", "minimal_polynomial",
    "HopfAlgebraData", "AlgebraElement", "TensorElement",
    "GrouplikeSet", "OrderSearchExhausted",
    "validate", "dual", "variant", "tensor", "lift_algebra",
    "subalgebra_closure", "s2_order", "is_grouplike", "element_order",
    "QuasitriangularData", "drinfeld_double", "drinfeld_element",
    "r_inverse", "u_inverse", "verify_quasitriangular",
    "verify_s2_conjugation",
    "QexpReport", "quasi_exponent", "u_min_poly_via_t",
    "u_min_poly_via_regular", "unipotency_index", "t_map", "r_n",
    "check_corollary_24", "is_unipotent_element",
    "TwistData", "is_twist", "make_twist", "twist_hopf", "q_elements",
    "verify_eq4", "twisted_drinfeld_element", "grouplike_from_twist",
    "grouplike_subgroup_twist",
    "ZOO", "get_preset", "parse_preset_name", "preset_grouplikes",
    "SchemaError", "read_algebra", "read_twist", "write_algebra",
    "SuiteItem", "run_suite", "format_suite",
]

__version__ = "0.1.0"
