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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, prod

from .elliptic import Point, WeierstrassCurve, on_curve
from .exactmath import Poly, format_decimal, format_fraction, poly_divrem
from .transforms import DioSolution, clear_denominators

__all__ = [
    "b1_roots",
    "base_point",
    "doubled_point",
    "FamilyParams",
    "general_solution",
    "leading_triple",
    "positivity_classify",
    "positivity_discriminant",
    "positivity_value",
    "PositivitySplit",
    "quadrupled_point",
    "quartic_curve",
    "quartic_discriminant_t",
    "quartic_to_weierstrass",
    "QuarticCurve",
    "QuarticPoint",
    "remainder_certificate",
    "s5_polynomial_family",
    "S5Substitution",
    "weierstrass_model",
    "weierstrass_to_quartic",
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
class QuarticCurve:
    """w^2 = a4*y^4 + a3*y^3 + a2*y^2 + a1*y + a0 with rational coefficients."""

    a4: Fraction
    a3: Fraction
    a2: Fraction
    a1: Fraction
    a0: Fraction

    def value_at(self, y: Fraction) -> Fraction:
        return (((self.a4 * y + self.a3) * y + self.a2) * y + self.a1) * y + self.a0

    def contains(self, pt: "QuarticPoint") -> bool:
        return pt.w * pt.w == self.value_at(pt.y)


@dataclass(frozen=True)
class QuarticPoint:
    y: Fraction
    w: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", Fraction(self.y))
        object.__setattr__(self, "w", Fraction(self.w))


@dataclass(frozen=True)
class S5Substitution:
    """Integer substitution (t1, t2) = (t0, b4) for the closed s=5 family."""

    t1: int
    t2: int

    def __post_init__(self) -> None:
        if self.t1 < 1 or self.t2 < 1:
            raise ValueError("t1 and t2 must be positive integers")


def quartic_discriminant_t(params: FamilyParams) -> Fraction:
    """Discriminant of the quartic as a function of t; non-zero for u, v, t0 > 0."""
    u, v, t = params.u, params.v, params.t
    return 256 * (t + 1) ** 4 * (64 * t * t + (128 + v ** 4 * u) * t + 64) * u ** 9 * t ** 9


def quartic_curve(params: FamilyParams) -> QuarticCurve:
    """The quartic whose square values of the discriminant drive the family."""
    u, v, t = params.u, params.v, params.t
    return QuarticCurve(
        a4=u * u * t * t * (t + 1) ** 2,
        a3=2 * u * u * v * (t + 1) * t * t,
        a2=u * u * v * v * t * t,
        a1=Fraction(0),
        a0=4 * t * u,
    )


def weierstrass_model(params: FamilyParams) -> WeierstrassCurve:
    """Weierstrass model at t = u*t0^2: Y^2 = X^3 + u^4 v^2 t0^4 X^2 - 16 u^6 t0^6 (u t0^2 + 1)^2 X."""
    u, v, t0 = params.u, params.v, params.t0
    return WeierstrassCurve(
        a=u ** 4 * v ** 2 * t0 ** 4,
        b=-16 * u ** 6 * t0 ** 6 * (u * t0 ** 2 + 1) ** 2,
        c=Fraction(0),
    )


def base_point(params: FamilyParams) -> Point:
    """The rational point (4u^3 t0^3 (u t0^2 + 1), 4v u^5 t0^5 (u t0^2 + 1))."""
    u, v, t0 = params.u, params.v, params.t0
    k = u * t0 ** 2 + 1
    return Point(4 * u ** 3 * t0 ** 3 * k, 4 * v * u ** 5 * t0 ** 5 * k)


def doubled_point(params: FamilyParams) -> Point:
    """Closed form of twice the base point."""
    u, v, t0 = params.u, params.v, params.t0
    k = u * t0 ** 2 + 1
    return Point(
        16 * u ** 2 * t0 ** 2 * k ** 2 / v ** 2,
        -64 * u ** 3 * t0 ** 3 * k ** 3 / v ** 3,
    )


def quadrupled_point(params: FamilyParams) -> Point:
    """Closed form of four times the base point; its X-coordinate carries the
    non-polynomiality certificate (see remainder_certificate)."""
    u, v, t0 = params.u, params.v, params.t0
    k = u * t0 ** 2 + 1
    s = 16 * u ** 2 * t0 ** 4 + (32 * u + v ** 4 * u ** 2) * t0 ** 2 + 16
    big = (
        256 * u ** 4 * t0 ** 8
        + (1024 * u ** 3 - 64 * u ** 4 * v ** 4) * t0 ** 6
        + (-(u ** 4) * v ** 8 - 128 * u ** 3 * v ** 4 + 1536 * u ** 2) * t0 ** 4
        + (-64 * v ** 4 * u ** 2 + 1024 * u) * t0 ** 2
        + 256
    )
    x = u ** 2 * t0 ** 2 * s ** 2 / (64 * v ** 2 * k ** 2)
    y = -(u ** 3 * t0 ** 3 * s * big) / (512 * v ** 3 * k ** 3)
    return Point(x, y)


def remainder_certificate(u: Fraction | int, v: Fraction | int) -> Poly:
    """Remainder of the quadrupled point's X-numerator modulo its denominator.

    Both are polynomials in t0:
        numerator   u^2 t0^2 (16 u^2 t0^4 + (32u + v^4 u^2) t0^2 + 16)^2
        denominator 64 v^2 (u t0^2 + 1)^2
    The remainder comes out as u^3 v^8 (3 u t0^2 + 2), non-zero for u, v > 0,
    so the X-coordinate is not a polynomial in t0 and the quadrupled point has
    infinite order in the function field.  The remainder is computed by actual
    long division and cross-checked against that closed form.
    """
    u, v = Fraction(u), Fraction(v)
    if u <= 0 or v <= 0:
        raise ValueError("u and v must be positive")
    inner = Poly([16, 0, 32 * u + u * u * v ** 4, 0, 16 * u * u])
    numer = Poly([0, 0, u * u]) * inner * inner
    denom = Poly([64 * v * v, 0, 128 * u * v * v, 0, 64 * u * u * v * v])
    _, rem = poly_divrem(numer, denom)
    expected = Poly([2 * u ** 3 * v ** 8, 0, 3 * u ** 4 * v ** 8])
    if rem != expected:
        raise ArithmeticError("remainder certificate failed its closed-form cross-check")
    return rem


def weierstrass_to_quartic(params: FamilyParams, point: Point) -> QuarticPoint:
    """Pull a Weierstrass point back to the quartic (undefined at X = 0)."""
    if not on_curve(weierstrass_model(params), point):
        raise ValueError("point is not on the family Weierstrass model")
    if point.is_infinity or point.x == 0:
        raise ValueError("exceptional point: the map needs an affine point with X != 0")
    u, v, t = params.u, params.v, params.t
    big_x, big_y = point.x, point.y
    y = (big_y - u * v * t * big_x) / (2 * u * t * (t + 1) * big_x)
    w = (big_y ** 2 - u * u * v * v * t * t * big_x ** 2 - 2 * big_x ** 3) / (
        4 * u * t * (t + 1) * big_x ** 2
    )
    return QuarticPoint(y, w)


def quartic_to_weierstrass(params: FamilyParams, qpt: QuarticPoint) -> Point:
    """Push a quartic point to the Weierstrass model (inverse of the pullback).

    X = 2ut(t+1)(ut(t+1)y^2 + uvty - w); on the model Y/X = ut(2(t+1)y + v),
    so Y = X * ut * (2(t+1)y + v).
    """
    if not quartic_curve(params).contains(qpt):
        raise ValueError("point is not on the quartic")
    u, v, t = params.u, params.v, params.t
    y, w = qpt.y, qpt.w
    big_x = 2 * u * t * (t + 1) * (u * t * (t + 1) * y * y + u * v * t * y - w)
    big_y = big_x * u * t * (2 * (t + 1) * y + v)
    return Point(big_x, big_y)


def b1_roots(params: FamilyParams, qpt: QuarticPoint) -> list[Fraction]:
    """Both solutions b1 of t*u*y^2*b1^2 + u*t*((t+1)y + v)*y^2*b1 - 1 = 0.

    The quartic value w^2 is exactly y^-2 times the quadratic's discriminant,
    so the roots are rational; each root, with b2 = y and b3 = t*y, satisfies
    b1*b2*b3*u*(b1+b2+b3+v) = 1 (a test pins this).
    """
    if qpt.y == 0:
        raise ValueError("degenerate quartic point: y = 0 yields no solutions")
    if not quartic_curve(params).contains(qpt):
        raise ValueError("point is not on the quartic")
    u, v, t = params.u, params.v, params.t
    y, w = qpt.y, qpt.w
    lead = t * u * y * y
    mid = u * t * ((t + 1) * y + v) * y * y
    return [(-mid + y * w) / (2 * lead), (-mid - y * w) / (2 * lead)]


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


def positivity_discriminant(u: Fraction | int, v: Fraction | int) -> Fraction:
    """Discriminant delta = u*(u*v^4 - 64) of the positivity quadratic in t0."""
    u, v = Fraction(u), Fraction(v)
    return u * (u * v ** 4 - 64)


@dataclass(frozen=True)
class PositivitySplit:
    """Where the positivity quadratic is positive, as a function of t0 > 0.

    kind == "always-positive": every t0 > 0 works (negative discriminant).
    kind == "two-intervals": t0 must lie in (0, L) or (H, inf) where L <= H
    are the quadratic's roots; lower_root and upper_root bracket them with
    rationals of denominator at most 10**6.
    """

    kind: str
    delta: Fraction
    lower_root: tuple[Fraction, Fraction] | None = None
    upper_root: tuple[Fraction, Fraction] | None = None


_ROOT_SCALE = 10 ** 6


def _sqrt_bounds(value: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    # lo <= sqrt(value) <= hi with hi - lo <= 1/scale; exact if value is a
    # rational square.
    if value < 0:
        raise ValueError("negative value has no real square root")
    p, q = value.numerator, value.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        exact = Fraction(rp, rq)
        return exact, exact
    # isqrt(floor(x)) == floor(sqrt(x)) (the nested-floor identity), so
    # r**2 * q <= p * scale**2 < (r + 1)**2 * q.
    r = isqrt(p * scale * scale // q)
    return Fraction(r, scale), Fraction(r + 1, scale)


def _round_out(lo: Fraction, hi: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    lo_out = Fraction((lo.numerator * scale) // lo.denominator, scale)
    hi_num = -((-hi.numerator * scale) // hi.denominator)  # ceil
    return lo_out, Fraction(hi_num, scale)


def positivity_classify(u: Fraction | int, v: Fraction | int) -> PositivitySplit:
    """Classify the admissible t0 > 0 for given positive u, v."""
    u, v = Fraction(u), Fraction(v)
    if u <= 0 or v <= 0:
        raise ValueError("u and v must be positive")
    delta = positivity_discriminant(u, v)
    if delta < 0:
        return PositivitySplit(kind="always-positive", delta=delta)
    # Roots (u v^2 -+ sqrt(delta)) / (8u); isolate sqrt(delta) much tighter
    # than the reported resolution, then round outward.
    s_lo, s_hi = _sqrt_bounds(delta, _ROOT_SCALE ** 2)
    lower = _round_out((u * v * v - s_hi) / (8 * u), (u * v * v - s_lo) / (8 * u), _ROOT_SCALE)
    upper = _round_out((u * v * v + s_lo) / (8 * u), (u * v * v + s_hi) / (8 * u), _ROOT_SCALE)
    return PositivitySplit(
        kind="two-intervals", delta=delta, lower_root=lower, upper_root=upper
    )


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
