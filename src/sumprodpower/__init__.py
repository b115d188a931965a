"""Exact solvers and generators for the Diophantine system
n = a_1 + ... + a_{s-1} with a_1 * a_2 * ... * a_{s-1} * n = b^s.

All arithmetic is exact and runs on Python integers; there is no floating
point in the mathematical core.  A rational (a --tail entry, --t0, a
--from-point coordinate, family's D) is a pair (numerator, denominator) of
ints; the package builds no fractions.Fraction, which only the tests'
oracles use.
"""

from .elliptic import on_curve
from .exactmath import int_nth_root, perfect_sth_power
from .family import FamilyParams, general_solution, s5_polynomial_family
from .search import SearchSpec, enumerate_solutions
from .transforms import DioSolution

__version__ = "0.1.0"
