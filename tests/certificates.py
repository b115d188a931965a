"""The paper's certificates, kept as test references next to the oracles.

The command line runs none of this; the tests use it to prove what the
package's integer paths take as given:

  - curves ``y^2 = x^3 + a*x^2 + b*x + c`` with rational coefficients
    (``WeierstrassCurve``, with the exact membership test
    ``WeierstrassCurve.contains`` and the cubic's ``discriminant``) and
    their points in ``Fraction`` coordinates (``Point``, with the point at
    infinity ``INFINITY``); the package's s=3 report checks points of
    one Mordell curve on integers (``sumprodpower.elliptic``);
  - the chord-and-tangent group law on ``WeierstrassCurve``, and
    ``certify_infinite_order``: (235, 8) has infinite order on the s=4 curve,
    so ``gen4`` never runs dry;
  - ``nagell_lutz_candidates``, the integral torsion candidates of
    ``y^2 = x^3 + c`` (with ``divisors``, the trial division it runs): for
    c = 16 they are the s=3 report's constant ``cli._S3_CANDIDATES``;
  - the s >= 5 closed form in Fraction arithmetic (``family_uvt``,
    ``positivity_value``, ``leading_triple``, ``clear_denominators`` and
    ``fraction_general_solution``), the oracle that
    ``family.general_solution``'s integer form is tested against, with
    ``family_params``, which builds a FamilyParams from Fractions and ints,
    and ``fraction``, which reads one of its (p, q) pairs back;
  - ``primitive_reduce``, which divides a record by the gcd of its parts
    and b: the tests prove with it that the records the package clears
    (gen4's, and family's general form) are primitive, and that the s = 5
    polynomial reduces to the general form's record;
  - the s >= 5 chain behind ``leading_triple``: the quartic, its
    Weierstrass model, the base point with its closed-form double and
    quadruple, the maps between quartic and model and the roots b1 of the
    quadratic;
  - ``remainder_certificate``: the quadrupled point's X-coordinate is not a
    polynomial in t0, re-derived by long division of ``Poly`` values;
  - ``positivity_classify``: where the positivity quadratic D is positive
    as a function of t0;
  - ``check_table_membership``: which reference rows a bounded search
    reproduces.

All arithmetic is exact: Python integers and ``Fraction``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from sumprodpower import DioSolution, FamilyParams, SearchSpec, enumerate_solutions
from sumprodpower.exactmath import format_rational, int_nth_root

# ---------------------------------------------------------------------------
# Curves and points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """Affine point, or the point at infinity when both coordinates are None."""

    x: Fraction | None
    y: Fraction | None

    def __post_init__(self) -> None:
        if (self.x is None) != (self.y is None):
            raise ValueError("affine points need both coordinates")
        if self.x is not None:
            object.__setattr__(self, "x", Fraction(self.x))
            object.__setattr__(self, "y", Fraction(self.y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x}, {self.y})"


INFINITY = Point(None, None)


@dataclass(frozen=True)
class WeierstrassCurve:
    """Non-singular curve ``y^2 = x^3 + a*x^2 + b*x + c`` with rational coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        if discriminant(self) == 0:
            raise ValueError("singular cubic: discriminant is zero")

    @property
    def has_integer_coefficients(self) -> bool:
        return all(f.denominator == 1 for f in (self.a, self.b, self.c))

    def rhs(self, x: Fraction) -> Fraction:
        """The cubic ``x^3 + a*x^2 + b*x + c`` evaluated at ``x``."""
        return ((x + self.a) * x + self.b) * x + self.c

    def contains(self, point: Point) -> bool:
        """Exact membership test; the point at infinity is always on the curve."""
        return point.is_infinity or point.y * point.y == self.rhs(point.x)

    def __repr__(self) -> str:
        return f"WeierstrassCurve(a={self.a}, b={self.b}, c={self.c})"


def discriminant(curve: WeierstrassCurve) -> Fraction:
    """Discriminant of the cubic x^3 + a x^2 + b x + c, the squared product
    of its root differences (non-zero on a constructed curve)."""
    a, b, c = curve.a, curve.b, curve.c
    return -4 * a ** 3 * c + a * a * b * b + 18 * a * b * c - 4 * b ** 3 - 27 * c * c


# ---------------------------------------------------------------------------
# Group law
# ---------------------------------------------------------------------------

# Largest possible order of a rational torsion point (Mazur's theorem);
# makes the torsion test below terminate.
MAZUR_TORSION_BOUND = 12


def is_integral(point: Point) -> bool:
    """True for affine points with both coordinates in Z."""
    if point.is_infinity:
        return False
    return point.x.denominator == 1 and point.y.denominator == 1


def negate(point: Point) -> Point:
    """Reflection across the x-axis (the group inverse)."""
    if point.is_infinity:
        return point
    return Point(point.x, -point.y)


def _add_unchecked(curve: WeierstrassCurve, p: Point, q: Point) -> Point:
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return INFINITY
        # doubling; p.y != 0 here since otherwise p == -p was caught above
        lam = (3 * p.x * p.x + 2 * curve.a * p.x + curve.b) / (2 * p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - curve.a - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return Point(x3, y3)


def add(curve: WeierstrassCurve, p: Point, q: Point) -> Point:
    """Group law sum of two points on ``curve``."""
    if not curve.contains(p) or not curve.contains(q):
        raise ValueError("point is not on the curve")
    return _add_unchecked(curve, p, q)


def scalar_mul(curve: WeierstrassCurve, k: int, point: Point) -> Point:
    """``k``-th multiple of ``point`` by double-and-add; ``k`` may be negative."""
    if not curve.contains(point):
        raise ValueError("point is not on the curve")
    if k < 0:
        k, point = -k, negate(point)
    result = INFINITY
    base = point
    while k:
        if k & 1:
            result = _add_unchecked(curve, result, base)
        k >>= 1
        if k:
            base = _add_unchecked(curve, base, base)
    return result


def certify_infinite_order(curve: WeierstrassCurve, point: Point) -> bool:
    """Certify that ``point`` has infinite order on an integral-model curve.

    Torsion points of an integral model have integer coordinates, and the
    order of a rational torsion point is at most MAZUR_TORSION_BOUND.  So it
    is enough to walk the multiples [k]P for k up to that bound: reaching a
    non-integral coordinate proves infinite order immediately, reaching the
    point at infinity proves torsion, and surviving all multiples with no
    infinity also proves infinite order.
    """
    if not curve.has_integer_coefficients:
        raise ValueError("integral model required: coefficients must be integers")
    if point.is_infinity:
        raise ValueError("the point at infinity is trivially torsion")
    if not curve.contains(point):
        raise ValueError("point is not on the curve")
    multiple = point
    for _ in range(MAZUR_TORSION_BOUND):
        if multiple.is_infinity:
            return False
        if not is_integral(multiple):
            return True
        multiple = _add_unchecked(curve, multiple, point)
    return True


# ---------------------------------------------------------------------------
# Torsion candidates on the Mordell curves y^2 = x^3 + c
# ---------------------------------------------------------------------------

# The cubic x^3 + c has discriminant -27c^2, so every rational torsion point
# is an integral point (x, y) with y = 0 or y | 27c^2 (Nagell-Lutz;
# Silverman-Tate, Rational Points on Elliptic Curves, II.4).  That finite set
# is a candidate filter, not a torsion computation: it may hold points of
# infinite order too.  For a fixed y, x^3 = y^2 - c has at most one integer
# root, since x -> x^3 is strictly increasing, so the candidates take one
# signed integer cube root per divisor of 27c^2.  For c = 16 they are the
# s=3 report's constant cli._S3_CANDIDATES.


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n``, ascending, by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def nagell_lutz_candidates(c: int) -> list[tuple[int, int]]:
    """The integral points ``(x, y)`` of ``y^2 = x^3 + c`` with ``y == 0`` or
    ``y`` dividing ``27c^2``, sorted (c non-zero)."""
    points = []
    for y in (0, *divisors(27 * c * c)):
        rhs = y * y - c
        x = int_nth_root(rhs, 3) if rhs >= 0 else -int_nth_root(-rhs, 3)
        if x ** 3 == rhs:
            points += [(x, y), (x, -y)] if y else [(x, 0)]
    return sorted(points)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending by degree with trailing zeros trimmed;
    the zero polynomial is the empty coefficient tuple.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(out)


def poly_divrem(numer: Poly, denom: Poly) -> tuple[Poly, Poly]:
    """Exact long division: ``numer == q * denom + r`` with ``deg r < deg denom``."""
    if denom.is_zero:
        raise ValueError("division by the zero polynomial")
    rem = list(numer.coeffs)
    dcs = denom.coeffs
    lead = dcs[-1]
    q = [Fraction(0)] * max(len(rem) - len(dcs) + 1, 0)
    while len(rem) >= len(dcs) and rem:
        shift = len(rem) - len(dcs)
        c = rem[-1] / lead
        q[shift] = c
        for i, d in enumerate(dcs):
            rem[i + shift] -= c * d
        while rem and rem[-1] == 0:
            rem.pop()
    return Poly(q), Poly(rem)


# ---------------------------------------------------------------------------
# The s >= 5 closed form in Fraction arithmetic
# ---------------------------------------------------------------------------

# family.general_solution evaluates the closed form in integers; these take
# the same steps on Fraction values, and the tests compare the two.
# FamilyParams holds each rational as a pair (p, q) of ints: family_params
# builds one from Fractions and ints, and the oracles read each pair back
# through fraction.


def family_params(s: int, tail: Iterable[Fraction | int], t0: Fraction | int) -> FamilyParams:
    """FamilyParams(s, tail, t0) with each Fraction or int passed as its
    pair (numerator, denominator)."""
    return FamilyParams(s, (e.as_integer_ratio() for e in tail), t0.as_integer_ratio())


def fraction(pair: tuple[int, int]) -> Fraction:
    """The Fraction p/q of a FamilyParams pair (p, q)."""
    return Fraction(*pair)


def family_uvt(params: FamilyParams) -> tuple[Fraction, Fraction, Fraction]:
    """u = prod(tail), v = sum(tail) and the specialized slope t = u * t0**2."""
    tail = [fraction(e) for e in params.tail]
    u = prod(tail, start=Fraction(1))
    return u, sum(tail, start=Fraction(0)), u * fraction(params.t0) ** 2


def positivity_value(params: FamilyParams) -> Fraction:
    """The quadratic D = 4*u*t0^2 - u*v^2*t0 + 4 gating positive solutions."""
    (u, v, _), t0 = family_uvt(params), fraction(params.t0)
    return 4 * u * t0 ** 2 - u * v * v * t0 + 4


def leading_triple(params: FamilyParams) -> tuple[Fraction, Fraction, Fraction]:
    """Closed-form (b1, b2, b3) from the reflected double of the base point.

    With D = 4*u*t0^2 - u*v^2*t0 + 4:
        b1 = u v^3 t0 / (2D),  b2 = D / (2 u v t0 (u t0^2 + 1)),
        b3 = D t0 / (2 v (u t0^2 + 1)).
    All three are positive exactly when D > 0, and they satisfy
    b1*b2*b3*u*(b1+b2+b3+v) = 1 (a property test pins this).
    """
    (u, v, _), t0, d = family_uvt(params), fraction(params.t0), positivity_value(params)
    if d == 0:
        raise ValueError("degenerate parameters: positivity quadratic vanishes")
    k = u * t0 ** 2 + 1
    return u * v ** 3 * t0 / (2 * d), d / (2 * u * v * t0 * k), d * t0 / (2 * v * k)


def clear_denominators(entries: tuple[Fraction, ...]) -> DioSolution:
    """Scale normalized entries (b_1 .. b_{s-1}) by their least common
    denominator.

    With b* = lcm of the denominators, the parts a_i = b_i * b* are integers
    and prod(a) * sum(a) = (b*)**s * prod(b) * sum(b), which is (b*)**s
    exactly when prod(b) * sum(b) = 1.  DioSolution tests that equation and
    the parts' positivity, so this raises ValueError when the entries are
    not a positive solution vector.
    """
    scale = lcm(*(e.denominator for e in entries))
    parts = tuple(int(e * scale) for e in entries)
    return DioSolution(parts, scale)


def primitive_reduce(sol: DioSolution) -> DioSolution:
    """Divide out the largest common factor d with d | gcd(parts) and d | b.

    Scaling every part by 1/d scales prod * sum by d**(-s) and b**s by the
    same factor, so the reduced tuple is again a solution.
    """
    d = gcd(gcd(*sol.parts), sol.b)
    if d == 1:
        return sol
    parts = tuple(a // d for a in sol.parts)
    return DioSolution(parts, sol.b // d)


def fraction_general_solution(params: FamilyParams) -> DioSolution:
    """family.general_solution in Fraction arithmetic: the same record, or
    the same ValueError when D is not positive."""
    d = positivity_value(params)
    if d <= 0:
        raise ValueError("positivity quadratic is not positive: "
                         f"D = {format_rational(d.numerator, d.denominator)}")
    return clear_denominators((*leading_triple(params), *map(fraction, params.tail)))


# ---------------------------------------------------------------------------
# The s >= 5 family chain
# ---------------------------------------------------------------------------


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


def quartic_discriminant_t(params: FamilyParams) -> Fraction:
    """Discriminant of the quartic as a function of t; non-zero for u, v, t0 > 0."""
    u, v, t = family_uvt(params)
    return 256 * (t + 1) ** 4 * (64 * t * t + (128 + v ** 4 * u) * t + 64) * u ** 9 * t ** 9


def quartic_curve(params: FamilyParams) -> QuarticCurve:
    """The quartic whose square values of the discriminant drive the family."""
    u, v, t = family_uvt(params)
    return QuarticCurve(
        a4=u * u * t * t * (t + 1) ** 2,
        a3=2 * u * u * v * (t + 1) * t * t,
        a2=u * u * v * v * t * t,
        a1=Fraction(0),
        a0=4 * t * u,
    )


def weierstrass_model(params: FamilyParams) -> WeierstrassCurve:
    """Weierstrass model at t = u*t0^2: Y^2 = X^3 + u^4 v^2 t0^4 X^2 - 16 u^6 t0^6 (u t0^2 + 1)^2 X."""
    (u, v, _), t0 = family_uvt(params), fraction(params.t0)
    return WeierstrassCurve(
        a=u ** 4 * v ** 2 * t0 ** 4,
        b=-16 * u ** 6 * t0 ** 6 * (u * t0 ** 2 + 1) ** 2,
        c=Fraction(0),
    )


def base_point(params: FamilyParams) -> Point:
    """The rational point (4u^3 t0^3 (u t0^2 + 1), 4v u^5 t0^5 (u t0^2 + 1))."""
    (u, v, _), t0 = family_uvt(params), fraction(params.t0)
    k = u * t0 ** 2 + 1
    return Point(4 * u ** 3 * t0 ** 3 * k, 4 * v * u ** 5 * t0 ** 5 * k)


def doubled_point(params: FamilyParams) -> Point:
    """Closed form of twice the base point."""
    (u, v, _), t0 = family_uvt(params), fraction(params.t0)
    k = u * t0 ** 2 + 1
    return Point(
        16 * u ** 2 * t0 ** 2 * k ** 2 / v ** 2,
        -64 * u ** 3 * t0 ** 3 * k ** 3 / v ** 3,
    )


def quadrupled_point(params: FamilyParams) -> Point:
    """Closed form of four times the base point; its X-coordinate carries the
    non-polynomiality certificate (see remainder_certificate)."""
    (u, v, _), t0 = family_uvt(params), fraction(params.t0)
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
    if not weierstrass_model(params).contains(point):
        raise ValueError("point is not on the family Weierstrass model")
    if point.is_infinity or point.x == 0:
        raise ValueError("exceptional point: the map needs an affine point with X != 0")
    u, v, t = family_uvt(params)
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
    u, v, t = family_uvt(params)
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
    u, v, t = family_uvt(params)
    y, w = qpt.y, qpt.w
    lead = t * u * y * y
    mid = u * t * ((t + 1) * y + v) * y * y
    return [(-mid + y * w) / (2 * lead), (-mid - y * w) / (2 * lead)]


# ---------------------------------------------------------------------------
# Positivity of D = 4*u*t0^2 - u*v^2*t0 + 4
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Table membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MembershipReport:
    """Per-row membership of reference solutions in an enumeration run."""

    spec: SearchSpec
    rows: tuple[tuple[DioSolution, bool], ...]

    @property
    def all_present(self) -> bool:
        return all(found for _, found in self.rows)

    @property
    def missing(self) -> tuple[DioSolution, ...]:
        return tuple(row for row, found in self.rows if not found)


def check_table_membership(rows: list[DioSolution], spec: SearchSpec) -> MembershipReport:
    """Report which of the given verified rows the enumeration reproduces."""
    found = {(sol.sorted_parts, sol.b) for sol in enumerate_solutions(spec)}
    checked = tuple(
        (row, (row.sorted_parts, row.b) in found and row.s == spec.s) for row in rows
    )
    return MembershipReport(spec=spec, rows=checked)
