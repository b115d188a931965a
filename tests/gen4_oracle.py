"""The gen4 walk as the CLI ran it before transforms.s4_solutions, kept as a
test-only oracle.

It walks every multiple kP of the seed point with the checked group law,
tests both kP and -kP against the positive region, and drops a solution
whose sorted parts it has already emitted.  So it rediscovers at run time
what the odd-multiple walk takes as proven: exactly the odd k land in the
region, and -kP repeats the solution of kP.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from sumprodpower.elliptic import Point, add, negate
from sumprodpower.transforms import (
    BVector,
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
        (k, point, clear_denominators(BVector(4, s4_inverse(point)))
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
