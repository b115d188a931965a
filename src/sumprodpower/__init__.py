"""Exact solvers and generators for the Diophantine system
n = a_1 + ... + a_{s-1} with a_1 * a_2 * ... * a_{s-1} * n = b^s.

All arithmetic is exact (Python integers and fractions.Fraction); there is no
floating point in the mathematical core.
"""

from .elliptic import (
    INFINITY,
    MAZUR_TORSION_BOUND,
    Point,
    WeierstrassCurve,
    add,
    certify_infinite_order,
    discriminant,
    nagell_lutz_candidates,
    negate,
    on_curve,
    scalar_mul,
)
from .exactmath import Poly, divisors, int_nth_root, perfect_sth_power, poly_divrem
from .family import (
    b1_roots,
    base_point,
    doubled_point,
    FamilyParams,
    general_solution,
    leading_triple,
    positivity_classify,
    positivity_discriminant,
    positivity_value,
    PositivitySplit,
    quadrupled_point,
    quartic_curve,
    quartic_discriminant_t,
    quartic_to_weierstrass,
    QuarticCurve,
    QuarticPoint,
    remainder_certificate,
    s5_polynomial_family,
    S5Substitution,
    weierstrass_model,
    weierstrass_to_quartic,
)
from .search import MembershipReport, SearchSpec, check_table_membership, enumerate_solutions
from .transforms import (
    BVector,
    DioSolution,
    clear_denominators,
    primitive_reduce,
    s3_curve,
    s3_trace_back,
    s4_curve,
    s4_forward,
    s4_in_positive_region,
    s4_inverse,
)

__version__ = "0.1.0"
