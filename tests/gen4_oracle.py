"""The Fraction s=4 charts and two earlier gen4 walks, kept as test-only
oracles.

s4_curve, s4_forward, s4_inverse and s4_in_positive_region are the s=4
chart on Fraction points, derived from its own formulas: the fiber through
the seed solution (1, 2, 24) has prod = 2/9 and sum = 9/2, and the chart
u = b2/b1, v = 1/b1 with x = -32v + 243, y = 384u - 864v + 192 carries it
onto y^2 = x^3 - 166779x + 26215254.  The package's integer chart
(transforms._s4_solution over (X/e^2, Y/e^3)) is tested against them.

signed_multiples and oracle_walk are the walk as the CLI ran it before
transforms.s4_solutions.  It walks every multiple kP of the seed point with
the checked group law, tests both kP and -kP against the positive region,
and drops a solution whose sorted parts it has already emitted.  So it
rediscovers at run time what the odd-multiple walk takes as proven: exactly
the odd k land in the region, and -kP repeats the solution of kP.  Its
Fraction arithmetic stops at ORACLE_MAX_MULTIPLE.

mixed_addition_walk is the integer walk that transforms._s4_odd_multiples
ran before division polynomials: one addition of 2P per step, then a gcd
and two exact divisions.  It reaches far past the Fraction walk.

short_model_psi_seed and extend_short_model_psi are the division
polynomials psi_j of the short model at the seed point, which the walk ran
before it moved to the scaled psi'_j = psi_j / 2^(j^2 - 1) of the 2-minimal
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from typing import Iterator

from certificates import Point, WeierstrassCurve, add, clear_denominators, negate, primitive_reduce
from sumprodpower import DioSolution

# The s=4 analysis works on the fiber through the seed solution (1, 2, 24).
S4_FIBER_PRODUCT = Fraction(2, 9)
S4_FIBER_SUM = Fraction(9, 2)

_S4_CURVE = WeierstrassCurve(0, -166779, 26215254)


@dataclass(frozen=True)
class BVector:
    """Normalized rational vector (b_1 .. b_{s-1}) with prod * sum = 1 exactly."""

    s: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(Fraction(e) for e in self.entries))
        if self.s < 3:
            raise ValueError("s must be >= 3")
        if len(self.entries) != self.s - 1:
            raise ValueError(f"expected {self.s - 1} entries, got {len(self.entries)}")
        if prod(self.entries) * sum(self.entries) != 1:
            raise ValueError("entries must satisfy prod * sum = 1")

    @classmethod
    def from_solution(cls, sol: DioSolution) -> "BVector":
        return cls(sol.s, tuple(Fraction(a, sol.b) for a in sol.parts))

    @property
    def is_positive(self) -> bool:
        return all(e > 0 for e in self.entries)


def s4_curve() -> WeierstrassCurve:
    """The curve y^2 = x^3 - 166779x + 26215254 carrying the s=4 fiber."""
    return _S4_CURVE


def s4_forward(bvec: BVector) -> Point:
    """Map a fiber BVector (s=4, prod=2/9, sum=9/2) to a curve point by the
    chart u = b2/b1, v = 1/b1, x = -32v + 243, y = 384u - 864v + 192.

    b1 != 0 because a BVector has prod * sum = 1.  With b1 = 1/v, b2 = u/v
    and b3 = 9/2 - (1 + u)/v, the fiber equation prod = 2/9 times 18v^3 is
    the cubic 18u + 18u^2 - 81uv + 4v^3 = 0, and under the substitution
    y^2 - (x^3 - 166779x + 26215254) is 8192 times that cubic.  So every
    fiber point lands on the curve, and the point is returned untested
    (test_curve_is_8192_times_fiber_cubic proves the identity).
    """
    if bvec.s != 4:
        raise ValueError("s=4 chart needs a BVector with s == 4")
    if prod(bvec.entries) != S4_FIBER_PRODUCT or sum(bvec.entries) != S4_FIBER_SUM:
        raise ValueError("BVector is not on the fiber prod=2/9, sum=9/2")
    b1, b2, _ = bvec.entries
    u, v = b2 / b1, 1 / b1
    return Point(-32 * v + 243, 384 * u - 864 * v + 192)


def s4_inverse(point: Point) -> tuple[Fraction, Fraction, Fraction]:
    """Invert the s=4 chart: curve point -> (b1, b2, b3) on the fiber.

    From the forward map, v = (243 - x)/32 and u = (y - 27x + 6369)/384;
    then b1 = 1/v, b2 = u/v and b3 closes the sum to 9/2.  The result always
    has prod = 2/9 and sum = 9/2 (hence prod * sum = 1), with signs
    depending on the point.
    """
    if not _S4_CURVE.contains(point) or point.is_infinity:
        raise ValueError("point is not an affine point of the s=4 curve")
    if point.x == 243:
        raise ValueError("degenerate point: x = 243 has no chart preimage")
    v = (243 - point.x) / 32
    u = (point.y - 27 * point.x + 6369) / 384
    b1, b2 = 1 / v, u / v
    return b1, b2, S4_FIBER_SUM - b1 - b2


def s4_in_positive_region(point: Point) -> bool:
    """True iff the chart preimage (b1, b2, b3) of the point is strictly positive.

    Equivalent inequality form: x < 243 and |y| < 6369 - 27x.  On the curve
    y^2 - (6369 - 27x)^2 = (x - 243)^3, so the region is exactly the bounded
    real component x in [e1, e2] ~ [-471.6, 235.06]: there x < 243 makes
    y^2 < (6369 - 27x)^2 with 6369 - 27x > 0, while the unbounded component
    starts at e3 ~ 236.5, where 6369 - 27x is already negative.
    """
    if not _S4_CURVE.contains(point):
        raise ValueError("point is not on the s=4 curve")
    if point.is_infinity:
        return False
    x, y = point.x, point.y
    return x < 243 and abs(y) < 6369 - 27 * x


SEED = Point(235, 8)


def signed_multiples(max_multiple: int) -> Iterator[tuple[int, Point]]:
    """(k, kP) then (k, -kP) for k = 1 .. max_multiple."""
    curve = s4_curve()
    multiple = SEED
    for k in range(1, max_multiple + 1):
        yield k, multiple
        yield k, negate(multiple)
        multiple = add(curve, multiple, SEED)


# The largest multiple any test asks for; the walk runs once, up to it.
ORACLE_MAX_MULTIPLE = 81


@lru_cache(maxsize=None)
def _signed_solutions() -> tuple[tuple[int, Point, DioSolution | None], ...]:
    return tuple(
        (k, point, clear_denominators(s4_inverse(point))
         if s4_in_positive_region(point) else None)
        for k, point in signed_multiples(ORACLE_MAX_MULTIPLE)
    )


def signed_solutions(max_multiple: int) -> tuple[tuple[int, Point, DioSolution | None], ...]:
    """(k, point, solution) along signed_multiples; the solution is None
    outside the positive region."""
    if max_multiple > ORACLE_MAX_MULTIPLE:
        raise ValueError(f"the oracle walk stops at {ORACLE_MAX_MULTIPLE}")
    return _signed_solutions()[: 2 * max_multiple]


def oracle_walk(max_multiple: int, primitive: bool) -> list[tuple[int, DioSolution]]:
    """(k, record) for every record the walk emits up to max_multiple, in
    order; `gen4 --count c` printed the first c of them."""
    emitted: set[tuple[int, ...]] = set()
    records = []
    for k, _, sol in signed_solutions(max_multiple):
        if sol is None:
            continue
        if primitive:
            sol = primitive_reduce(sol)
        if sol.sorted_parts in emitted:
            continue
        emitted.add(sol.sorted_parts)
        records.append((k, sol))
    return records


# 2 * SEED: the tangent at (235, 8) has slope (3 * 235^2 - 166779)/16 = -69.
DOUBLE_SEED = (4291, 279856)


def mixed_addition_walk(max_multiple: int) -> Iterator[tuple[int, int, int]]:
    """Lowest-terms triples (X, Y, e) of kP = (X/e^2, Y/e^3) for the odd
    k <= max_multiple, stepping kP -> (k+2)P by a mixed addition of the
    integral 2P = (x2, y2).

    With N = y2 e^3 - Y and H = x2 e^2 - X, e' = eH, X' = N^2 - (X + x2 e^2) H^2
    and Y' = N(X H^2 - X') - Y H^3 (H > 0, as x(kP) < 243 < x2).  This is
    the lowest triple of (k+2)P times (d^2, d^3, d), and f = gcd(X', e')
    is d: a p-adic expansion of x2 - x((k+2)P - 2P) shows that only the
    primes of 2 y2 = 2^5 * 17491 could make f larger, and neither divides
    an odd multiple's denominator.
    """
    x2, y2 = DOUBLE_SEED
    X, Y, e = SEED.x.numerator, SEED.y.numerator, 1
    for k in range(1, max_multiple + 1, 2):
        if k > 1:
            e2 = e * e
            n, h = y2 * e2 * e - Y, x2 * e2 - X
            hh = h * h
            X2 = n * n - (X + x2 * e2) * hh
            Y2 = n * (X * hh - X2) - Y * h * hh
            f = gcd(X2, e * h)
            X, Y, e = X2 // (f * f), Y2 // (f * f * f), e * h // f
        yield X, Y, e


_S4_A, _S4_B = -166779, 26215254


def short_model_psi_seed() -> list[int]:
    """psi_0 .. psi_4 of the division polynomials of y^2 = x^3 + Ax + B
    (Silverman, The Arithmetic of Elliptic Curves, Ex. 3.7) at the seed
    point (x, y)."""
    x, y = SEED.x.numerator, SEED.y.numerator
    a, b = _S4_A, _S4_B
    return [
        0,
        1,
        2 * y,
        3 * x**4 + 6 * a * x**2 + 12 * b * x - a**2,
        4 * y * (x**6 + 5 * a * x**4 + 20 * b * x**3 - 5 * a**2 * x**2
                 - 4 * a * b * x - 8 * b**2 - a**3),
    ]


def extend_short_model_psi(psi: list[int], n: int) -> None:
    """Append psi_j to psi = [psi_0, psi_1, ...] for every j up to n, by
    psi_{2m+1} = psi_{m+2} psi_m^3 - psi_{m-1} psi_{m+1}^3 and
    psi_{2m} = psi_m (psi_{m+2} psi_{m-1}^2 - psi_{m-2} psi_{m+1}^2) / 2y,
    where 2y = 16.  Needs psi_0 .. psi_4 already."""
    for j in range(len(psi), n + 1):
        m = j >> 1
        if j & 1:
            psi.append(psi[m + 2] * psi[m] ** 3 - psi[m - 1] * psi[m + 1] ** 3)
        else:
            bracket = psi[m + 2] * psi[m - 1] ** 2 - psi[m - 2] * psi[m + 1] ** 2
            psi.append(psi[m] * bracket // 16)
