"""The original last-slot scan of the search, kept as a test-only oracle.

For every prefix it tries each possible last part a and looks up
prod * a * (sum + a) in a dict of s-th powers.  It is slow but has no
number theory in it, which makes it a good reference for the
divisibility-stepped kernel in sumprodpower.search.
"""

from __future__ import annotations


def _power_table(s: int, n_max: int) -> dict[int, int]:
    # b**s -> b for every value prod * sum can reach under the bounds.
    k = s - 1
    limit = n_max * (n_max // k + 1) ** k
    table: dict[int, int] = {}
    b = 1
    while b ** s <= limit:
        table[b ** s] = b
        b += 1
    return table


def _scan(
    s: int,
    n_max: int,
    a_max: int,
    parts: tuple[int, ...],
    total: int,
    product: int,
    powers: dict[int, int],
    out: list[tuple[tuple[int, ...], int, int]],
) -> None:
    last = parts[-1]
    remaining = s - 1 - len(parts)
    if remaining == 1:
        get = powers.get
        hi = min(a_max, n_max - total)
        for a in range(last, hi + 1):
            b = get(product * a * (total + a))
            if b is not None:
                out.append((parts + (a,), total + a, b))
        return
    hi = min(a_max, (n_max - total) // remaining)
    for a in range(last, hi + 1):
        _scan(s, n_max, a_max, parts + (a,), total + a, product * a, powers, out)


def oracle_solutions(
    s: int, n_max: int, a_max: int | None = None
) -> list[tuple[tuple[int, ...], int, int]]:
    """(parts, n, b) of every solution with nondecreasing parts, sum <= n_max
    and parts <= a_max, sorted by (n, parts)."""
    a_max = n_max if a_max is None else min(a_max, n_max)
    powers = _power_table(s, n_max)
    out: list[tuple[tuple[int, ...], int, int]] = []
    for a1 in range(1, min(a_max, n_max // (s - 1)) + 1):
        _scan(s, n_max, a_max, (a1,), a1, a1, powers, out)
    out.sort(key=lambda item: (item[1], item[0]))
    return out
