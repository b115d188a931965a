"""Elliptic curves ``y^2 = x^3 + a*x^2 + b*x + c`` over the exact rationals.

Affine chord-and-tangent group law, integral torsion candidates (points with
integer coordinates whose y is zero or divides the cubic discriminant), and a
certificate of infinite order based on coordinate integrality.  All points are
kept in exact ``Fraction`` coordinates, whose size grows like k^2 along the
multiples kP: on the s=4 curve the x-numerator of k * (235, 8) has 396
digits at k = 25, 2269 at k = 60 and 4035 at k = 80.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import divisors

__all__ = [
    "INFINITY",
    "MAZUR_TORSION_BOUND",
    "Point",
    "WeierstrassCurve",
    "add",
    "certify_infinite_order",
    "discriminant",
    "nagell_lutz_candidates",
    "negate",
    "on_curve",
    "scalar_mul",
]

# Largest possible order of a rational torsion point (Mazur's theorem);
# makes the torsion test below terminate.
MAZUR_TORSION_BOUND = 12


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

    @property
    def is_integral(self) -> bool:
        """True for affine points with both coordinates in Z."""
        if self.is_infinity:
            return False
        return self.x.denominator == 1 and self.y.denominator == 1

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

    def __repr__(self) -> str:
        return f"WeierstrassCurve(a={self.a}, b={self.b}, c={self.c})"


def discriminant(curve: WeierstrassCurve) -> Fraction:
    """Discriminant of the cubic x^3 + a x^2 + b x + c, the squared product
    of its root differences (non-zero on a constructed curve)."""
    a, b, c = curve.a, curve.b, curve.c
    return -4 * a ** 3 * c + a * a * b * b + 18 * a * b * c - 4 * b ** 3 - 27 * c * c


def on_curve(curve: WeierstrassCurve, point: Point) -> bool:
    """Exact membership test; the point at infinity is always on the curve."""
    if point.is_infinity:
        return True
    return point.y * point.y == curve.rhs(point.x)


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
    if not on_curve(curve, p) or not on_curve(curve, q):
        raise ValueError("point is not on the curve")
    return _add_unchecked(curve, p, q)


def scalar_mul(curve: WeierstrassCurve, k: int, point: Point) -> Point:
    """``k``-th multiple of ``point`` by double-and-add; ``k`` may be negative."""
    if not on_curve(curve, point):
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


def _integer_roots(a: int, b: int, c: int) -> set[int]:
    # Integer roots of x^3 + a x^2 + b x + c.  A zero constant term gives the
    # root 0; dividing out x until the constant term is non-zero leaves the
    # other roots, and each divides that term (rational root theorem).
    low = c or b or a
    roots = set() if c else {0}
    if low:
        for d in divisors(abs(low)):
            for x in (d, -d):
                if ((x + a) * x + b) * x + c == 0:
                    roots.add(x)
    return roots


def nagell_lutz_candidates(curve: WeierstrassCurve) -> list[Point]:
    """All integral points with ``y == 0`` or ``y`` dividing the discriminant.

    Every rational torsion point lies in this finite set, but the set may
    contain points of infinite order too: this is a candidate filter, not a
    torsion computation.
    """
    if not curve.has_integer_coefficients:
        raise ValueError("integral model required: coefficients must be integers")
    a, b, c = int(curve.a), int(curve.b), int(curve.c)
    disc = abs(int(discriminant(curve)))
    points: set[Point] = set()
    for y in (0, *divisors(disc)):
        for x in _integer_roots(a, b, c - y * y):
            points.add(Point(x, y))
            if y:
                points.add(Point(x, -y))
    return sorted(points, key=lambda p: (p.x, p.y))


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
    if not on_curve(curve, point):
        raise ValueError("point is not on the curve")
    multiple = point
    for _ in range(MAZUR_TORSION_BOUND):
        if multiple.is_infinity:
            return False
        if not multiple.is_integral:
            return True
        multiple = _add_unchecked(curve, multiple, point)
    return True
