"""Two earlier gen4 walks, kept as test-only oracles.

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
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterator

from sumprodpower.elliptic import Point, add, negate
from sumprodpower.transforms import (
    DioSolution,
    clear_denominators,
    primitive_reduce,
    s4_curve,
    s4_in_positive_region,
    s4_inverse,
)

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
