"""Test-only oracles for sumprodpower.search.

- oracle_solutions: the original last-slot scan.  For every prefix it tries
  each possible last part a and looks up prod * a * (sum + a) in a dict of
  s-th powers.  It is slow but has no number theory in it, which makes it a
  good reference for the divisibility-stepped kernel.
- recursive_search: the upper levels as one recursive call per prefix, with
  one prime-exponent map that is changed on the way down and restored on the
  way back, and the exact prefix cut on every node.  It hands every
  last-level prefix that passes the cut to search._divisor_walk, or the
  empty prefix of s = 3 to search._s3_last_level.  The explicit-stack walk
  in search._search, with its one cap on b per state, hands on the same
  prefixes and a few more, whose ranges of b are empty.
- last_two_parts: the last level of one prefix by brute force.  It scans
  every pair of last parts and looks the product up in a dict of s-th
  powers, with no r(P) and no divisors, which makes it the reference for
  search._divisor_walk.
- uncapped_divisor_walk: the last level's walk over the divisors of b**s / P
  with the divisors generated up to hi and not up to the per-b cap.
- parent_divisor_walk: search._divisor_walk before it had a per-b floor and
  held back a prime: every divisor of b**s / P up to the per-b cap is built,
  and those below lo are passed over one by one.
"""

from __future__ import annotations

from math import isqrt

from sumprodpower import search


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


def _factor(lpf: list[int], m: int) -> list[tuple[int, int]]:
    # (p, f) for each prime power p**f exactly dividing m, largest p first.
    out = []
    while m > 1:
        p = lpf[m]
        m //= p
        f = 1
        while lpf[m] == p:
            m //= p
            f += 1
        out.append((p, f))
    return out


def _extend(tables, parts, total, product, r, exps, lo, hi, out) -> None:
    # Hand every last-level prefix that starts with `parts` and continues
    # with a next part in [lo, hi] to the last level.  r = r(product); exps
    # maps each prime to its exponent in product and is restored before
    # returning.
    s, n_max, a_max, lpf, powers = tables
    remaining = s - 2 - len(parts)  # parts still to choose after the next one
    if remaining > 1:
        for a in range(lo, hi + 1):
            ra = r
            factors = _factor(lpf, a)
            for p, f in factors:
                e = exps.get(p, 0)
                ra *= p ** ((e + f + s - 1) // s - (e + s - 1) // s)
                exps[p] = e + f
            t = total + a
            pa = product * a
            if ra ** s * remaining ** remaining <= pa * (n_max - t) ** remaining * n_max:
                _extend(tables, parts + (a,), t, pa, ra, exps, a,
                        min(a_max, (n_max - t) // remaining), out)
            for p, f in factors:
                exps[p] -= f
        return
    if parts:
        search._divisor_walk(tables, parts, total, product, r, exps, lo, hi, out)
    else:
        search._s3_last_level(tables, lo, hi, out)


def recursive_search(tables, lo: int, hi: int) -> list[tuple[tuple[int, ...], int, int]]:
    """search._search by recursion: all solutions whose smallest part lies
    in [lo, hi], with the same last-level calls."""
    out: list[tuple[tuple[int, ...], int, int]] = []
    _extend(tables, (), 0, 1, 1, {}, lo, hi, out)
    return out


def last_two_parts(tables, parts, total, product, r, exps, lo, hi):
    """The (parts, n, b) rows of a last-level prefix with product P = product
    and sum T = total, by a scan: every second-to-last part a in [lo, hi] and
    last part x in [a, min(a_max, n_max - T - a)] whose P * a * x * (T + a + x)
    is an s-th power.  r and exps are not read; they keep the signature of
    search._divisor_walk."""
    s, n_max, a_max, lpf, powers = tables
    get = {power: b for b, power in enumerate(powers)}.get
    out = []
    for a in range(lo, hi + 1):
        pa = product * a
        for x in range(a, min(a_max, n_max - total - a) + 1):
            b = get(pa * x * (total + a + x))
            if b is not None:
                out.append((parts + (a, x), total + a + x, b))
    return out


def uncapped_divisor_walk(tables, parts, total, product, r, exps, lo, hi):
    """search._divisor_walk with each b's divisors generated up to hi:
    {b: sorted (parts, n, b) rows} for every b of search._b_range."""
    s, n_max, a_max, lpf, powers = tables
    found = {}
    for b in search._b_range(tables, total, product, r, lo, hi):
        q = powers[b] // product
        divisors = [1]
        m = b
        while m > 1:
            p = lpf[m]
            m //= p
            e = 1
            while lpf[m] == p:
                m //= p
                e += 1
            f = s * e - exps.get(p, 0)
            for d in divisors[:]:
                for _ in range(f):
                    d *= p
                    if d > hi:
                        break
                    divisors.append(d)
        rows = []
        for a in divisors:
            if a < lo:
                continue
            t = total + a
            disc = t * t + 4 * (q // a)
            root = isqrt(disc)
            if root * root == disc:
                x = (root - t) >> 1
                if a <= x <= a_max and t + x <= n_max:
                    rows.append((parts + (a, x), t + x, b))
        found[b] = sorted(rows)
    return found


def parent_divisor_walk(tables, parts, total, product, r, exps, lo, hi, out) -> None:
    """search._divisor_walk with the divisors of Q = b**s / P built from 1 up
    to the per-b cap and no floor but lo; the same signature and rows."""
    s, n_max, a_max, lpf, powers = tables
    t_lo = total + 2 * lo
    for b in search._b_range(tables, total, product, r, lo, hi):
        q = powers[b] // product
        # x >= a >= lo gives a**2 * (T + 2 * lo) <= Q (search module docstring).
        cap = isqrt(q // t_lo)
        if cap > hi:
            cap = hi
        divisors = [1]
        m = b
        while m > 1:
            p = lpf[m]
            m //= p
            e = 1
            while lpf[m] == p:
                m //= p
                e += 1
            # p**(s * e - exps[p]) exactly divides Q.
            f = s * e - exps.get(p, 0)
            for d in divisors[:]:
                for _ in range(f):
                    d *= p
                    if d > cap:
                        break
                    divisors.append(d)
        for a in divisors:
            if a < lo:
                continue
            t = total + a
            disc = t * t + 4 * (q // a)
            root = isqrt(disc)
            if root * root == disc:
                x = (root - t) >> 1
                if a <= x <= a_max and t + x <= n_max:
                    out.append((parts + (a, x), t + x, b))
