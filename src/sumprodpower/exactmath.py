"""Exact integer and rational primitives shared by every other module.

Everything here is arbitrary precision: integer k-th roots, perfect-power
detection, divisor enumeration by trial division, decimal conversion of
integers and rationals of any length, and dense univariate polynomials with
``Fraction`` coefficients (needed for the non-polynomiality remainder
certificate).  No floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "Poly",
    "divisors",
    "format_decimal",
    "format_fraction",
    "int_nth_root",
    "parse_decimal",
    "parse_fraction",
    "perfect_sth_power",
    "poly_divrem",
    "poly_eval",
]


def int_nth_root(m: int, k: int) -> int:
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


def perfect_sth_power(m: int, s: int) -> int | None:
    """Return ``b`` with ``b**s == m``, or ``None`` if ``m`` is not an s-th power."""
    if m < 1:
        raise ValueError("m must be positive")
    if s < 2:
        raise ValueError("exponent s must be >= 2")
    b = int_nth_root(m, s)
    return b if b ** s == m else None


# int() and str() refuse more than 4300 digits by default (the process-wide
# sys.set_int_max_str_digits limit); longer decimals go through in chunks
# that stay well below it.
_DECIMAL_CHUNK = 4000


def parse_decimal(text: str) -> int:
    """Exact ``int(text)`` for a decimal of any length.

    Short texts go straight to ``int()``.  Longer ones must be ASCII digits
    with an optional sign and surrounding whitespace; they are converted in
    chunks.  Raises ``ValueError`` like ``int()``.
    """
    if len(text) <= _DECIMAL_CHUNK:
        return int(text)
    body = text.strip()
    sign = -1 if body[:1] == "-" else 1
    if body[:1] in "+-":
        body = body[1:]
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"invalid decimal literal of {len(text)} characters")
    if len(body) <= _DECIMAL_CHUNK:
        return sign * int(body)
    low = len(body) // 2
    return sign * (parse_decimal(body[:-low]) * 10 ** low + parse_decimal(body[-low:]))


def format_decimal(value: int) -> str:
    """Exact ``str(value)`` for an int of any size."""
    if value < 0:
        return "-" + format_decimal(-value)
    digits = value.bit_length() * 30103 // 100000 + 1  # never an underestimate
    if digits <= _DECIMAL_CHUNK:
        return str(value)
    low = digits // 2
    high, rest = divmod(value, 10 ** low)
    return format_decimal(high) + format_decimal(rest).zfill(low)


_LONG_RATIONAL = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*", re.ASCII)


def parse_fraction(text: str) -> Fraction:
    """Exact ``Fraction(text)`` for a rational of any length.

    Short texts go straight to ``Fraction()``.  Longer ones must be ``p`` or
    ``p/q`` in ASCII digits, with an optional sign on ``p`` and surrounding
    whitespace; both sides go through parse_decimal.  Raises ``ValueError``
    like ``Fraction()``, and ``ZeroDivisionError`` when ``q`` is zero.
    """
    if len(text) <= _DECIMAL_CHUNK:
        return Fraction(text)
    match = _LONG_RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid rational literal of {len(text)} characters")
    num, den = match.groups()
    q = 1 if den is None else parse_decimal(den)
    if q == 0:  # Fraction's own message would print the long numerator
        raise ZeroDivisionError(f"zero denominator in a rational of {len(text)} characters")
    return Fraction(parse_decimal(num), q)


def format_fraction(value: Fraction | int) -> str:
    """Exact ``str(value)`` for a Fraction (or int) of any size: ``p`` or ``p/q``."""
    num = format_decimal(value.numerator)
    return num if value.denominator == 1 else f"{num}/{format_decimal(value.denominator)}"


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


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending by degree with trailing zeros trimmed;
    the zero polynomial is the empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

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

    def scaled(self, factor: Fraction | int) -> "Poly":
        f = Fraction(factor)
        return Poly(f * c for c in self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def poly_divrem(numer: Poly, denom: Poly) -> tuple[Poly, Poly]:
    """Exact long division: ``numer == q * denom + r`` with ``deg r < deg denom``."""
    if denom.is_zero:
        raise ValueError("division by the zero polynomial")
    rem = list(numer.coeffs)
    dcs: Sequence[Fraction] = denom.coeffs
    lead = dcs[-1]
    qlen = max(len(rem) - len(dcs) + 1, 0)
    q = [Fraction(0)] * qlen
    while len(rem) >= len(dcs) and rem:
        shift = len(rem) - len(dcs)
        c = rem[-1] / lead
        q[shift] = c
        for i, d in enumerate(dcs):
            rem[i + shift] -= c * d
        while rem and rem[-1] == 0:
            rem.pop()
    return Poly(q), Poly(rem)


def poly_eval(p: Poly, x: Fraction | int) -> Fraction:
    """Evaluate ``p`` at ``x`` by Horner's rule, exactly."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc
