"""The Mordell curves ``y^2 = x^3 + c`` (c a non-zero integer) on integers.

The s=3 report needs two of them: ``y^2 = x^3 + 16``, which carries the s=3
chart (transforms), and ``y^2 = x^3 + 64``, the curve of the paper's erratum.
The cubic ``x^3 + c`` has discriminant ``-27c^2``, so every rational torsion
point is an integral point ``(x, y)`` with ``y = 0`` or ``y | 27c^2``
(Nagell-Lutz; Silverman-Tate, Rational Points on Elliptic Curves, II.4).
That finite set is a candidate filter, not a torsion computation: it may
hold points of infinite order too.

For a fixed y, ``x^3 = y^2 - c`` has at most one integer root, since
``x -> x^3`` is strictly increasing.  So the candidates take one signed
integer cube root per divisor of ``27c^2``, with no rational-root scan.

The curves, points and group law in ``Fraction`` coordinates are test
references (tests/certificates.py): the s=4 walk reads its multiples off
division polynomials in integers instead.
"""

from .exactmath import divisors, int_nth_root

__all__ = ["nagell_lutz_candidates", "on_curve"]


def on_curve(c: int, x: int, y: int) -> bool:
    """Exact membership of ``(x, y)`` in ``y^2 = x^3 + c``."""
    return y * y == x ** 3 + c


def nagell_lutz_candidates(c: int) -> list[tuple[int, int]]:
    """The integral points ``(x, y)`` of ``y^2 = x^3 + c`` with ``y == 0`` or
    ``y`` dividing ``27c^2``, sorted (c non-zero)."""
    points = []
    for y in (0, *divisors(27 * c * c)):
        rhs = y * y - c
        x = int_nth_root(rhs, 3) if rhs >= 0 else -int_nth_root(-rhs, 3)
        if x ** 3 == rhs:
            points += [(x, y), (x, -y)] if y else [(x, 0)]
    return sorted(points)
