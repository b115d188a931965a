"""Parametric solution families for s >= 5.

Splitting a normalized vector as (b1, b2, b3, tail) with u = prod(tail) and
v = sum(tail), the constraint prod * sum = 1 becomes
b1*b2*b3*u*(b1+b2+b3+v) = 1.  Writing b3 = t*b2 turns it into a quadratic in
b1 whose discriminant must be a rational square, i.e. a point search on the
quartic curve

    w^2 = u^2 t^2 (t+1)^2 y^4 + 2 u^2 v (t+1) t^2 y^3 + u^2 v^2 t^2 y^2 + 4 t u

which is birational to the Weierstrass model
Y^2 = X (X^2 + u^2 v^2 t^2 X - 16 u^3 t^3 (t+1)^2).  Specializing t = u*t0^2
makes a rational base point appear, and the reflection of its double yields a
closed-form positive triple (b1, b2, b3) whenever the quadratic
D = 4*u*t0^2 - u*v^2*t0 + 4 is positive.  For s = 5 everything collapses to
plain polynomials in the two integer parameters (t1, t2) = (t0, b4).

This module keeps only the closed forms the command line evaluates:
leading_triple, positivity_value, general_solution and
s5_polynomial_family.  The chain that derives them (quartic, model, base,
doubled and quadrupled points, the maps between them, the remainder
certificate and the classification of D's sign) is a test reference, in
tests/certificates.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .exactmath import format_decimal, format_fraction
from .transforms import DioSolution, clear_denominators

__all__ = [
    "FamilyParams",
    "general_solution",
    "leading_triple",
    "positivity_value",
    "s5_polynomial_family",
    "S5Substitution",
]


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (s, tail, t0) of one member of the s >= 5 family.

    tail holds the freely chosen positive values b4 .. b_{s-1}; u and v are
    their product and sum, t = u * t0**2 is the specialized slope and d is
    the positivity quadratic D (see positivity_value).
    """

    s: int
    tail: tuple[Fraction, ...]
    t0: Fraction
    u: Fraction = field(init=False)
    v: Fraction = field(init=False)
    t: Fraction = field(init=False)
    d: Fraction = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tail", tuple(Fraction(e) for e in self.tail))
        object.__setattr__(self, "t0", Fraction(self.t0))
        if self.s < 5:
            raise ValueError("the family needs s >= 5")
        if len(self.tail) != self.s - 4:
            raise ValueError(f"expected {self.s - 4} tail entries, got {len(self.tail)}")
        if any(e <= 0 for e in self.tail):
            raise ValueError("tail entries must be positive")
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
        object.__setattr__(self, "u", prod(self.tail, start=Fraction(1)))
        object.__setattr__(self, "v", sum(self.tail, start=Fraction(0)))
        object.__setattr__(self, "t", self.u * self.t0 ** 2)
        object.__setattr__(self, "d", positivity_value(self))


@dataclass(frozen=True)
class S5Substitution:
    """Integer substitution (t1, t2) = (t0, b4) for the closed s=5 family."""

    t1: int
    t2: int

    def __post_init__(self) -> None:
        if self.t1 < 1 or self.t2 < 1:
            raise ValueError("t1 and t2 must be positive integers")


def leading_triple(params: FamilyParams) -> tuple[Fraction, Fraction, Fraction]:
    """Closed-form (b1, b2, b3) from the reflected double of the base point.

    With D = 4*u*t0^2 - u*v^2*t0 + 4:
        b1 = u v^3 t0 / (2D),  b2 = D / (2 u v t0 (u t0^2 + 1)),
        b3 = D t0 / (2 v (u t0^2 + 1)).
    All three are positive exactly when D > 0, and they satisfy
    b1*b2*b3*u*(b1+b2+b3+v) = 1 (a property test pins this; general_solution
    leaves the final check on the cleared integers to DioSolution).
    """
    u, v, t0, d = params.u, params.v, params.t0, params.d
    if d == 0:
        raise ValueError("degenerate parameters: positivity quadratic vanishes")
    k = u * t0 ** 2 + 1
    return u * v ** 3 * t0 / (2 * d), d / (2 * u * v * t0 * k), d * t0 / (2 * v * k)


def positivity_value(params: FamilyParams) -> Fraction:
    """The quadratic D = 4*u*t0^2 - u*v^2*t0 + 4 gating positive solutions."""
    u, v, t0 = params.u, params.v, params.t0
    return 4 * u * t0 ** 2 - u * v * v * t0 + 4


def general_solution(params: FamilyParams) -> DioSolution:
    """Assemble and clear a full solution vector (b1, b2, b3, tail) for s >= 5.

    The vector has prod * sum = 1 (leading_triple) and, with D > 0, positive
    entries, so DioSolution's test of the cleared integers is the only one.
    """
    if params.d <= 0:
        raise ValueError(f"positivity quadratic is not positive: D = {format_fraction(params.d)}")
    return clear_denominators((*leading_triple(params), *params.tail))


def s5_polynomial_family(sub: S5Substitution) -> DioSolution:
    """Closed polynomial form of the s = 5 family at u = v = t2, t0 = t1.

    parts = (t1^2 t2^6 (t1^2 t2 + 1), D^2, t1^2 t2 D^2, 2 t1 t2^3 (t1^2 t2 + 1) D)
    with D = 4 t1^2 t2 - t1 t2^3 + 4, and b = 2 t1 t2^2 (t1^2 t2 + 1) D, which
    is 2 u v t0 (u t0^2 + 1) D under the substitution.
    """
    t1, t2 = sub.t1, sub.t2
    d = 4 * t1 * t1 * t2 - t1 * t2 ** 3 + 4
    if d <= 0:
        raise ValueError(f"positivity quadratic is not positive: D = {format_decimal(d)}")
    kernel = t1 * t1 * t2 + 1
    parts = (
        t1 * t1 * t2 ** 6 * kernel,
        d * d,
        t1 * t1 * t2 * d * d,
        2 * t1 * t2 ** 3 * kernel * d,
    )
    b = 2 * t1 * t2 ** 2 * kernel * d
    return DioSolution(5, parts, sum(parts), b)
