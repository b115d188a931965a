"""Elliptic curves ``y^2 = x^3 + a*x^2 + b*x + c`` over the exact rationals.

Curves and points in exact ``Fraction`` coordinates, the exact membership
test, the cubic's discriminant, and the integral torsion candidates (points
with integer coordinates whose y is zero or divides the discriminant) that
the s=3 report traces back.  The group law and the certificate of infinite
order are test references (tests/certificates.py): the s=4 walk reads its
multiples off division polynomials in integers instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import divisors

__all__ = ["Point", "WeierstrassCurve", "discriminant", "nagell_lutz_candidates", "on_curve"]


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

