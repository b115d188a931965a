"""The Mordell curves ``y^2 = x^3 + c`` (c a non-zero integer) on integers.

The s=3 report checks five points of ``y^2 = x^3 + 64``, the curve of the
paper's erratum, with ``on_curve``.  Its torsion candidates on
``y^2 = x^3 + 16``, which carries the s=3 chart (transforms), are a fixed
constant of the report (``cli._S3_CANDIDATES``); tests/certificates.py
derives them by Nagell-Lutz.

The curves, points and group law in ``Fraction`` coordinates are test
references (tests/certificates.py): the s=4 walk reads its multiples off
division polynomials in integers instead.
"""

__all__ = ["on_curve"]


def on_curve(c: int, x: int, y: int) -> bool:
    """Exact membership of ``(x, y)`` in ``y^2 = x^3 + c``."""
    return y * y == x ** 3 + c
