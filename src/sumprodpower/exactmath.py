"""Exact integer and rational primitives shared by every other module.

Everything here is arbitrary precision: integer k-th roots, perfect-power
detection, decimal conversion of integers and rationals of any length, and
lowest_terms, the package's one reduction of a rational pair (p, q) by gcd.
No floating point is used anywhere.

Numbers are read in one grammar at every length: ASCII digits with an
optional sign, and ``p/q`` for a rational.  The forms that ``int()`` and
``Fraction()`` accept beyond it (``1_000``, ``1e3``, ``1.5``, non-ASCII
digits) are refused, however short; only the conversion of a valid text
depends on its length.

The k-th root rests on two facts.  For a continuous increasing f that takes
integer values only at integers, such as x ** (1/j), floor(f(floor(x))) ==
floor(f(x)) (Graham, Knuth and Patashnik, Concrete Mathematics, 3.2); so
floor(floor(sqrt(m)) ** (1/j)) == floor(m ** (1/2j)), and the root of
``m >> k*h`` is the root of ``m`` with its low ``h`` bits dropped.  Integer
Newton for x**k = m started at or above the root decreases strictly to the
floor of the root and stops there; seeding it from the root of the top half
of ``m``'s digits doubles the precision at each level (Brent and
Zimmermann, Modern Computer Arithmetic, 1.5.2).

Above _SPLIT_BITS bits, perfect_sth_power reads its candidate root from
two half-size problems, and ``b**s == m`` still decides every answer.  The
high half is a floor root and the low half a 2-adic Newton (Bernstein,
Detecting perfect powers in essentially linear time, Math. Comp. 67, 1998).
The facts it rests on:

- Write m = 2**v * a with a odd.  If m = b**s, then s | v and a = r**s
  with r = b >> (v/s).
- Write s = 2**j * o with o odd.  An odd 2**j-th power is 1 mod 2**(j+2).
- With rb = ceil(bits(a) / s) and h = rb // 2, the floor root
  ``int_nth_root(a >> s*(h-1), s)`` is floor(r / 2**(h-1)): the nested-floor
  identity above, on a number half the size of m.
- Inverse-root Newton y <- y + y (1 - a y**s) / s runs mod 2**(h+j) with
  only multiplications and masks.  For odd s its precision goes p -> 2p
  from p = 1; for even s it goes p -> 2p - j - 1 from p = j + 2.  Then
  x = a y**(s-1) is +-r mod 2**h: x**s = r**s mod 2**(h+j), and the
  2**j-torsion of the units mod 2**K is +-1 mod 2**(K-j).
- x and 2**h - x differ in bit h-1, since x is odd, and that bit of r is
  the low bit of the floor root above.  So r = (hi >> 1) << h | lo.

format_decimal prints an int by divide and conquer (Brent and Zimmermann,
Modern Computer Arithmetic, 1.7).  CPython 3.10 and 3.11 take quadratic
time both for str() of an int, which divides the whole number by 10**9 once
per nine digits, and for an int divmod.  Halving the number first leaves
str() and divmod shorter operands.  There are three ranges, by the digit
count that bit_length bounds from above; the crossovers were timed on
random ints under CPython 3.11 and 3.13 on 2 cores:

- Up to _STR_DIGITS = 600 digits, str().  Split in halves, 1,000 digits
  take 0.91x to 0.99x the time of str(), and 3,300 digits 0.73x to 0.77x.
- Up to _DECIMAL_DIGITS = 19,500, the halves of one divmod by 10**low are
  printed the same way, the low half padded to low digits.  low is
  digits // 2 rounded down to a multiple of _SPLIT_GRID = 64, and 10**low
  is cached, so the cache holds at most _DECIMAL_DIGITS // 128 powers
  whatever lengths are printed.  Rounding to the grid costs nothing
  measurable against exact halves; a split at 10**(300 * 2**j), with fewer
  cached powers, timed the same on gen4's numbers and 1.5% to 2.7% slower
  between 10,000 and 19,500 digits.
- Past that, decimal, imported at the first such number.  The int is split
  in halves by bits down to 2,048-bit leaves, each read with Decimal(n), and
  the halves are joined as high * 2**h + low by one fma with the exact
  Decimal 2**h, computed once per call.  Every operand is an integer of
  exponent 0, and every result has fewer digits than the context's
  prec = MAX_PREC, so no operation rounds (Inexact is trapped all the same),
  and str() of the integral Decimal is its plain digits.  libmpdec
  multiplies products of more than 1,024 words (19,456 digits) by a
  number-theoretic transform.  From there the decimal route wins: 0.76x the
  int split at 19,500 digits and 0.57x at 37,000 under 3.11, 0.96x at
  20,000 and 0.65x at 100,000 under 3.13; between 10,000 and 19,000 digits
  it takes 1.02x to 1.08x under 3.11 and 1.1x to 1.2x under 3.13.
"""

import re
from functools import cache
from math import gcd, isqrt

__all__ = [
    "format_decimal",
    "format_rational",
    "int_nth_root",
    "lowest_terms",
    "parse_decimal",
    "parse_rational",
    "perfect_sth_power",
]


def int_nth_root(m: int, k: int) -> int:
    """Return ``floor(m ** (1/k))`` computed exactly in integers.

    The result ``r`` satisfies ``r**k <= m < (r + 1)**k``.  Each factor 2 of
    ``k`` is one ``math.isqrt``: ``floor(floor(sqrt(m)) ** (1/j)) ==
    floor(m ** (1/2j))``.  The odd rest of ``k`` is integer Newton started
    above the root, seeded from the root of ``m`` with its low bits cut off
    (see ``_odd_root``).
    """
    if k < 1:
        raise ValueError("root index k must be >= 1")
    if m < 0:
        raise ValueError("m must be non-negative")
    while k % 2 == 0:
        m = isqrt(m)
        k //= 2
    return m if k == 1 or m == 0 else _odd_root(m, k)


# Below this many bits per unit of k, _odd_root starts Newton at a power of
# two instead of refining the root of a shorter number, for k below
# _SHORT_ROOT_K; perfect_sth_power does not split a root shorter than this
# either.
_SEED_BITS = 64

# From this k up, _odd_root seeds a root of at most _SEED_BITS bits from
# its top bits, found one at a time, instead of the power of two above it.
# Timed on uniform roots of 8 to 64 bits (CPython 3.11), the seed takes
# 0.58x to 0.90x the time of the power of two at k = 17, 1.16x to 2.3x at
# k = 3, and 1.07x at k = 5 on 40-bit roots, the length verify-family meets;
# between k = 7 and 15 it wins on long roots and loses on short ones.
_SHORT_ROOT_K = 16


def _odd_root(m: int, k: int) -> int:
    # floor(m ** (1/k)) for m >= 1 and k >= 2.  The Newton step
    # floor(((k-1) x + m / x**(k-1)) / k) is x + (m - x**k) // (k x**(k-1)).
    # From any start x >= r it decreases strictly while x > r (x**k > m) and
    # never drops below r (AM-GM: (k-1) x + m / x**(k-1) >= k m**(1/k)), so
    # the first x with x**k <= m is r, and checking that costs no division.
    # The start is (r' + 1) << h, where r' = floor((m >> k h) ** (1/k)) =
    # floor(r / 2**h) by the nested-floor identity: above r by at most 2**h.
    # With h about half of r's bits, each level takes one or two divisions.
    # A root of at most _SEED_BITS bits starts at the power of two above it,
    # up to twice the root.  While x**k is far above m a step lowers x by
    # only about x / k, so that start takes about k ln 2 steps: a few for
    # small k, thousands for k in the thousands.  From _SHORT_ROOT_K up,
    # such a root is seeded from an r' of q = bits(k) + 2 bits instead,
    # found bit by bit (_top_down_root).  r has rb bits, so the start is
    # above r by at most 2**h <= r / 2**(q-1) < r / (2k), and from there
    # each Newton step about doubles the correct bits.
    bits = m.bit_length()
    rb = (bits + k - 1) // k  # r < 2**rb
    if bits <= _SEED_BITS * k and k < _SHORT_ROOT_K:
        x = 1 << rb
    else:
        if bits > _SEED_BITS * k:
            h = bits // (2 * k)
        else:
            h = rb - k.bit_length() - 2
            if h <= 0:
                return _top_down_root(m, k, rb)
        x = (_odd_root(m >> (k * h), k) + 1) << h
    while True:
        p = x ** (k - 1)
        d = m - p * x
        if d >= 0:
            return x
        x += d // (k * p)


def _top_down_root(m: int, k: int, rb: int) -> int:
    # floor(m ** (1/k)) for a root below 2**rb, one bit at a time from the
    # top: rb powers, each of at most k rb bits.
    r = 0
    for i in range(rb - 1, -1, -1):
        x = r | 1 << i
        if x ** k <= m:
            r = x
    return r


# Above this many bits of m, perfect_sth_power reads its candidate root
# from two half-size problems instead of the floor root of m.
_SPLIT_BITS = 4096


def perfect_sth_power(m: int, s: int) -> int | None:
    """Return ``b`` with ``b**s == m``, or ``None`` if ``m`` is not an s-th power.

    The one test ``b**s == m`` decides every answer.  Up to _SPLIT_BITS bits
    of ``m`` the candidate b is ``int_nth_root(m, s)``.  Above, m = 2**v * a
    with a odd, and b is r << (v/s), with the root r of a read from a floor
    root of half the size and a 2-adic Newton (Bernstein 1998; module
    docstring); an m whose v is not a multiple of s, or whose a is not
    1 mod 2**(j+2) for even s = 2**j * o, is refused before any root.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if s < 2:
        raise ValueError("exponent s must be >= 2")
    if m.bit_length() <= _SPLIT_BITS:
        b = int_nth_root(m, s)
    else:
        v = (m & -m).bit_length() - 1
        if v % s:
            return None
        a, j = m >> v, (s & -s).bit_length() - 1
        if j and a & ((4 << j) - 1) != 1:
            return None
        b = _odd_power_root(a, s, j) << (v // s)
    return b if b ** s == m else None


def _odd_power_root(a: int, s: int, j: int) -> int:
    # The root r of an odd a = r**s, where s = 2**j * o with o odd, and some
    # integer for any other odd a.  A root of fewer than _SEED_BITS bits is
    # the floor root.  Otherwise its top rb - h + 1 bits are the floor root
    # hi of a >> s*(h-1), and its low h bits are x or 2**h - x, for the
    # 2-adic x = +-r mod 2**h: the one whose bit h-1 is hi's low bit.
    rb = -(-a.bit_length() // s)
    if rb < _SEED_BITS:
        return int_nth_root(a, s)
    h = rb // 2
    hi = int_nth_root(a >> s * (h - 1), s)
    x = _two_adic_root(a, s, j, h)
    lo = x if (x >> (h - 1)) & 1 == hi & 1 else (1 << h) - x
    return (hi >> 1) << h | lo


def _two_adic_root(a: int, s: int, j: int, h: int) -> int:
    # x = a * y**(s-1) mod 2**h, where a * y**s == 1 mod 2**(h+j) by Newton
    # on the inverse root, for odd a that is 1 mod 2**(j+2) when j > 0.
    # Precision p goes to 2p - c per step from p = c + 1, so each modulus
    # 2**k is reached from (k + c + 1) // 2, with the precisions taken from
    # the top down.  The division by s = 2**j * o is a shift by j and a
    # product with the inverse of o; it leaves y right mod 2**(k-j), which
    # fixes y**s mod 2**k.
    c = j + 1 if j else 0
    k = h + j
    steps = []
    while k > c + 1:
        steps.append(k)
        k = (k + c + 1) // 2
    inverse = pow(s >> j, -1, 1 << (h + j))
    y = 1
    for k in reversed(steps):
        mask = (1 << k) - 1
        e = (1 - (a & mask) * _low_power(y, s, mask)) & mask
        y = (y + y * ((e >> j) * (inverse & mask) & mask)) & mask
    mask = (1 << h) - 1
    return (a & mask) * _low_power(y, s - 1, mask) & mask


def _low_power(y: int, n: int, mask: int) -> int:
    # y**n & mask for n >= 1 and a mask 2**k - 1, by squaring and masking;
    # pow(y, n, mask + 1) divides at each step, several times slower.
    power = 1
    while True:
        if n & 1:
            power = power * y & mask
        n >>= 1
        if not n:
            return power
        y = y * y & mask


# int() refuses more than 4300 digits by default (the process-wide
# sys.set_int_max_str_digits limit); longer texts are parsed in chunks that
# stay well below it.
_DECIMAL_CHUNK = 4000

# format_decimal's ranges, grid and decimal leaves (module docstring).
# _SPLIT_GRID <= _STR_DIGITS // 2 keeps every split point positive.
_STR_DIGITS = 600
_SPLIT_GRID = 64
_DECIMAL_DIGITS = 19_500
_DECIMAL_LEAF_BITS = 2048

# The one grammar of numbers: an integer p, or a rational p/q, in ASCII
# digits with an optional sign on p and surrounding ASCII whitespace.
_NUMBER = re.compile(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)
_INTEGER = re.compile(r"\s*[-+]?[0-9]+\s*", re.ASCII)  # its integer form p


def _digits_value(digits: str) -> int:
    # int(digits) for a signed ASCII digit string of any length.
    if len(digits) <= _DECIMAL_CHUNK:
        return int(digits)
    low = len(digits) // 2  # the sign stays with the high half
    rest = _digits_value(digits[-low:])
    return _digits_value(digits[:-low]) * 10 ** low + (-rest if digits[0] == "-" else rest)


def parse_decimal(text: str) -> int:
    """The integer ``p`` that ``text`` writes, at any length: ASCII digits
    with an optional sign and surrounding ASCII whitespace.  Anything else,
    such as ``1_000``, ``1e3``, ``1.5`` or non-ASCII digits, raises
    ``ValueError``."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"invalid decimal literal of {len(text)} characters")
    # int() itself strips the ASCII whitespace that the grammar allows.
    return int(text) if len(text) <= _DECIMAL_CHUNK else _digits_value(text.strip())


def format_decimal(value: int) -> str:
    """Exact ``str(value)`` for an int of any size, without the interpreter's
    digit limit.  Up to _STR_DIGITS digits it is ``str(value)``; up to
    _DECIMAL_DIGITS the halves of a ``divmod`` by a cached power of ten,
    printed the same way; past it an exact conversion through ``decimal``,
    which is imported only then (module docstring)."""
    if value < 0:
        return "-" + format_decimal(-value)
    digits = value.bit_length() * 30103 // 100000 + 1  # never an underestimate
    if digits <= _STR_DIGITS:
        return str(value)
    if digits > _DECIMAL_DIGITS:
        return _decimal_string(value)
    # At most digits // 2 and at least _STR_DIGITS // 2 rounded down to the
    # grid, so 0 < 10**low <= value, and at most _DECIMAL_DIGITS // 2: the
    # cache holds at most _DECIMAL_DIGITS // (2 * _SPLIT_GRID) powers.
    low = digits // 2 // _SPLIT_GRID * _SPLIT_GRID
    high, rest = divmod(value, _power_of_ten(low))
    return format_decimal(high) + format_decimal(rest).zfill(low)


@cache
def _power_of_ten(n: int) -> int:
    return 10 ** n


def _decimal_string(value: int) -> str:
    # str(value) for value >= 0 through decimal, exactly (module docstring).
    import decimal

    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                              traps=[decimal.Inexact])
    powers = {}  # w -> Decimal 2**w

    def power(w: int) -> "decimal.Decimal":
        # Decimal 2**w; the halves of a split differ by at most one bit, so
        # the width just below is often cached, and one addition doubles it.
        p = powers.get(w)
        if p is None:
            if w <= _DECIMAL_LEAF_BITS:
                p = decimal.Decimal(1 << w)
            elif w - 1 in powers:
                p = context.add(powers[w - 1], powers[w - 1])
            else:
                p = context.multiply(power(w >> 1), power(w - (w >> 1)))
            powers[w] = p
        return p

    def convert(n: int, w: int) -> "decimal.Decimal":
        # Decimal(n) for 0 <= n < 2**w.
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(n)
        h = w >> 1
        high = n >> h
        low = convert(n - (high << h), h)  # first, so the high half finds its powers cached
        return context.fma(convert(high, w - h), power(h), low)

    return str(convert(value, value.bit_length()))


def parse_rational(text: str) -> tuple[int, int]:
    """The rational ``p`` or ``p/q`` that ``text`` writes, as the pair
    ``(p, q)`` it was written as (``q = 1`` for ``p``, and no reduction), at
    any length, in the grammar of parse_decimal with an optional ``/q`` of
    unsigned ASCII digits.  Anything else raises ``ValueError``; a zero
    ``q`` raises ``ZeroDivisionError``."""
    match = _NUMBER.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid rational literal of {len(text)} characters")
    num, den = match.groups()
    q = 1 if den is None else _digits_value(den)
    if q == 0:  # as Fraction(p, 0) would, but without printing p
        raise ZeroDivisionError(f"zero denominator in a rational of {len(text)} characters")
    return _digits_value(num), q


def lowest_terms(rational: "tuple[int, int]") -> "tuple[int, int]":
    """The pair ``(p, q)`` reduced by gcd, the one place a rational is put
    in lowest terms; ``ValueError`` for ``q < 1``."""
    p, q = rational
    if q < 1:
        raise ValueError("a denominator is not positive")
    g = gcd(p, q)
    return p // g, q // g


def format_rational(p: int, q: int) -> str:
    """Exact ``str(Fraction(p, q))`` for ``q >= 1``, at any size, with no
    Fraction: the pair in lowest terms, as ``p`` or ``p/q``, with the sign
    on ``p``; ``ValueError`` for ``q < 1``."""
    p, q = lowest_terms((p, q))
    return format_decimal(p) + ("" if q == 1 else f"/{format_decimal(q)}")
