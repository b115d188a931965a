"""Parametric solution families for s >= 5.

Splitting a normalized vector as (b1, b2, b3, tail) with u = prod(tail) and
v = sum(tail), the constraint prod * sum = 1 becomes
b1*b2*b3*u*(b1+b2+b3+v) = 1.  Writing b3 = t*b2 turns it into a quadratic in
b1 whose discriminant must be a rational square, i.e. a point search on the
quartic curve

    w^2 = u^2 t^2 (t+1)^2 y^4 + 2 u^2 v (t+1) t^2 y^3 + u^2 v^2 t^2 y^2 + 4 t u

which is birational to the Weierstrass model
Y^2 = X (X^2 + u^2 v^2 t^2 X - 16 u^3 t^3 (t+1)^2).  Specializing t = u*t0^2
makes a rational base point appear, and the reflection of its double yields
the closed-form triple

    b1 = u v^3 t0 / (2D),  b2 = D / (2 u v t0 k),  b3 = D t0 / (2 v k)

with k = u t0^2 + 1 and D = 4*u*t0^2 - u*v^2*t0 + 4; it is positive exactly
when D > 0.  For s = 5 everything collapses to plain polynomials in the two
integer parameters (t1, t2) = (t0, b4).

general_solution evaluates that triple in integers.  With tail entries
p_i/q_i in lowest terms, W = prod(q_i), U = prod(p_i) and
V = sum(p_i * W/q_i), so that u = U/W and v = V/W, and with t0 = a/c:

    K  = U a^2 + W c^2                                   k = K / (W c^2)
    Dn = 4 U W^2 a^2 - U V^2 a c + 4 W^3 c^2 = 4 W^2 K - U V^2 a c
                                                         D = Dn / (W^3 c^2)
    b1 = U V^3 a c / (2 W Dn)
    b2 = Dn c / (2 U V a K)
    b3 = Dn a / (2 W c V K)

and the tail stays p_i/q_i.  W^3 c^2 > 0, so D > 0 exactly when Dn > 0.
Each b_i is reduced by one gcd, and the record is b = the lcm of the
reduced denominators, part_i = num_i * (b / den_i).  For entries N_i / M
over any common denominator M, the reduced denominators are M / x_i with
x_i = gcd(M, N_i), and

    lcm(M / x_1, ..., M / x_k) = M / gcd(x_1, ..., x_k) = M / gcd(M, N_1, ..., N_k),

since at each prime p both sides have v_p(M) - min v_p(x_i).  So the parts
and b are the integers that clearing the rational entries by their least
common denominator gives: part_i = N_i / g and b = M / g with
g = gcd(M, N_1, ..., N_k), which share no factor; a --tail record is
already primitive.  That needs the tail entries in lowest terms, and
FamilyParams stores every rational so: as a pair (p, q) of ints, with
q >= 1, however it was written.  Lowest terms come from one place,
exactmath.lowest_terms, for the tail, t0 and each b_i alike.

s5_polynomial_family(t1, t2) clears the same vector as general_solution
at tail (t2,) and t0 = t1, so u = v = t2, but by the common denominator
b = 2 t1 t2^2 (t1^2 t2 + 1) D, not the least one; only general_solution's
clearing is primitive (at t1 = 2, t2 = 1 the polynomial's b is 360, the
general form's 90).  Divided by the gcd of its parts and b, the
polynomial record is general_solution's, parts in order and b alike
(tests/test_family.py proves it), so `family --t1/--t2 --primitive`
prints general_solution's record and takes no gcd.

The chain that derives the triple (quartic, model, base, doubled and
quadrupled points, the maps between them, the remainder certificate and the
classification of D's sign) and the same closed form in Fraction
arithmetic, which general_solution is tested against, are test references
in tests/certificates.py.
"""

from math import lcm, prod

from ._value import Value
from .exactmath import format_decimal, format_rational, lowest_terms
from .transforms import DioSolution

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Iterable

__all__ = [
    "FamilyParams",
    "general_solution",
    "s5_polynomial_family",
]


class FamilyParams(Value):
    """Parameters (s, tail, t0) of one member of the s >= 5 family.

    tail holds the freely chosen positive values b4 .. b_{s-1}, as a tuple;
    t0 is the positive parameter of the specialized slope t = u * t0**2.
    Each rational is given as a pair (p, q) of ints with q >= 1, in any
    terms, and kept in lowest terms, so that two spellings of one member
    are equal and hash alike.
    """

    __slots__ = ("s", "tail", "t0")
    s: int
    tail: "tuple[tuple[int, int], ...]"
    t0: "tuple[int, int]"

    def __init__(self, s: int, tail: "Iterable[tuple[int, int]]", t0: "tuple[int, int]") -> None:
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "tail", tuple(map(lowest_terms, tail)))
        object.__setattr__(self, "t0", lowest_terms(t0))
        if s < 5:
            raise ValueError("the family needs s >= 5")
        if len(self.tail) != s - 4:
            raise ValueError(f"expected {format_decimal(s - 4)} tail entries, "
                             f"got {len(self.tail)}")
        if any(p <= 0 for p, _ in self.tail):
            raise ValueError("tail entries must be positive")
        if self.t0[0] <= 0:
            raise ValueError("t0 must be positive")


def general_solution(params: FamilyParams) -> DioSolution:
    """The cleared solution (b1, b2, b3, tail) of one family member for
    s >= 5, in integers (module docstring); ValueError naming D when the
    positivity quadratic D is not positive.

    The vector has prod * sum = 1 and, with D > 0, positive entries, so
    DioSolution's test of the cleared integers is the only one.
    """
    tail = params.tail
    W = prod(q for _, q in tail)
    U = prod(p for p, _ in tail)
    V = sum(p * (W // q) for p, q in tail)
    a, c = params.t0
    K = U * a * a + W * c * c
    uvvac = U * V * V * a * c
    dn = 4 * W * W * K - uvvac
    if dn <= 0:
        raise ValueError("positivity quadratic is not positive: "
                         f"D = {format_rational(dn, W * W * W * c * c)}")
    VK = V * K
    triple = (uvvac * V, 2 * W * dn), (dn * c, 2 * U * a * VK), (dn * a, 2 * W * c * VK)
    entries = [*map(lowest_terms, triple), *tail]
    b = lcm(*(den for _, den in entries))
    parts = tuple(num * (b // den) for num, den in entries)
    return DioSolution(parts, b)


def s5_polynomial_family(t1: int, t2: int) -> DioSolution:
    """Closed polynomial form of the s = 5 family at u = v = t2, t0 = t1,
    for positive integers t1 and t2 (ValueError otherwise).

    parts = (t1^2 t2^6 (t1^2 t2 + 1), D^2, t1^2 t2 D^2, 2 t1 t2^3 (t1^2 t2 + 1) D)
    with D = 4 t1^2 t2 - t1 t2^3 + 4, and b = 2 t1 t2^2 (t1^2 t2 + 1) D, which
    is 2 u v t0 (u t0^2 + 1) D under the substitution.
    """
    if t1 < 1 or t2 < 1:
        raise ValueError("t1 and t2 must be positive integers")
    d = 4 * t1 * t1 * t2 - t1 * t2 ** 3 + 4
    if d <= 0:
        raise ValueError(f"positivity quadratic is not positive: D = {format_decimal(d)}")
    kernel = t1 * t1 * t2 + 1
    parts = (
        t1 * t1 * t2 ** 6 * kernel,
        d * d,
        t1 * t1 * t2 * d * d,
        2 * t1 * t2 ** 3 * kernel * d,
    )
    b = 2 * t1 * t2 ** 2 * kernel * d
    return DioSolution(parts, b)
