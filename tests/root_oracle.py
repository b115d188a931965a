"""The original k-th root, perfect-power and decimal printing kernels, kept as
test-only oracles.

Integer Newton from the power of two just above the root, then two
correction loops.  It does about a dozen full-width divisions on a large
input, against one or two per precision level in
sumprodpower.exactmath.int_nth_root, but it uses neither the isqrt route
nor the precision doubling, which makes it an independent reference.
oracle_perfect_power is the floor root and one power at every size, where
sumprodpower.exactmath.perfect_sth_power reads a large root from two
half-size problems.

oracle_format_decimal is the original printer: str() up to 4000 digits, and
above, the halves of one divmod by a power of ten computed afresh, where
sumprodpower.exactmath.format_decimal splits at cached powers from 600
digits and goes through decimal past 19,500.
"""

from __future__ import annotations


def oracle_nth_root(m: int, k: int) -> int:
    """Return ``floor(m ** (1/k))`` computed exactly with integer Newton steps.

    The result ``r`` satisfies ``r**k <= m < (r + 1)**k``.
    """
    if k < 1:
        raise ValueError("root index k must be >= 1")
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return 0
    if k == 1:
        return m
    # Start above the true root, then Newton steps decrease monotonically.
    x = 1 << ((m.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > m:
        x -= 1
    while (x + 1) ** k <= m:
        x += 1
    return x


def oracle_perfect_power(m: int, s: int) -> int | None:
    """Return ``b`` with ``b**s == m``, or ``None``: the floor root, then one power."""
    b = oracle_nth_root(m, s)
    return b if b ** s == m else None


def oracle_format_decimal(value: int) -> str:
    """Exact ``str(value)`` for an int of any size, in 4000-digit chunks."""
    if value < 0:
        return "-" + oracle_format_decimal(-value)
    digits = value.bit_length() * 30103 // 100000 + 1  # never an underestimate
    if digits <= 4000:
        return str(value)
    low = digits // 2
    high, rest = divmod(value, 10 ** low)
    return oracle_format_decimal(high) + oracle_format_decimal(rest).zfill(low)
