"""Verified solutions, and the s=3 and s=4 charts between solutions and
curve points.

``DioSolution`` is a verified integer solution of the sum/product system.
It holds the parts and b alone: s is the number of parts plus one and n is
their sum, so only prod(parts) * n == b^s and positivity need a test.
The system is homogeneous of degree s: scaling every part by k scales n by
k and prod(parts) * n by k^s, so b becomes kb, and every solution is a
multiple of a primitive one.  Conversely, with g > 0 a common divisor of
the parts and a_i = g a'_i, prod(parts) * n = g^s m' with m' = prod(a') *
sum(a'), and m' has the sign of the whole.  If the whole is b^s, then m' =
(b/g)^s, and an integer that is the s-th power of a rational is the s-th
power of an integer (a rational root of the monic x^s - m' is an
integer), so the whole is an s-th power exactly when m' is, and then
b = g b'.
DioSolution.from_parts takes its root of m', s log2(g) bits shorter, with
g = gcd(parts) unless the parts are long and their leading bits show no
large common factor (_common_factor).

Divided by b, a solution is a normalized vector b_i = a_i / b with
prod(b) * sum(b) = 1; scaled by a common denominator, such a vector gives
a solution back.  For s = 3 the chart u = b1/b2, v = 1/b2 turns that
constraint into u^2 + u = v^3, which the substitution x = 4v, y = 8u + 4
carries onto the Mordell curve y^2 = x^3 + 16, since
(8u+4)^2 - (4v)^3 - 16 = 64(u^2 + u - v^3).  Its inverse b1 = u/v =
(y - 4)/2x, b2 = 1/v = 4/x is defined off the fiber x = 0.  The s=3 report
traces back the integral torsion candidates of that curve, the constant
cli._S3_CANDIDATES that tests/certificates.py proves; they are (0, 4) and
(0, -4), both on the fiber, so the report states that no candidate gives a
pair (b1, b2) and runs no inverse.  For s = 4 the fiber
through the seed solution (1, 2, 24) has prod = 2/9 and sum = 9/2; the chart
u = b2/b1, v = 1/b1 with x = -32v + 243, y = 384u - 864v + 192 carries it
onto y^2 = x^3 - 166779x + 26215254.  Its inverse is v = (243 - x)/32,
u = (y - 27x + 6369)/384, b1 = 1/v, b2 = u/v and b3 = 9/2 - b1 - b2, so the
entries sum to 9/2 at every point.  Under the substitution, y^2 minus the
curve's cubic is 8192 (18u + 18u^2 - 81uv + 4v^3) = -8192 * 18v^3 (prod - 2/9),
so their product is 2/9 exactly on the curve (the 8192 identity).  The
preimage is positive iff x < 243 and |y| < 6369 - 27x.  On the curve
y^2 - (6369 - 27x)^2 = (x - 243)^3, so that is exactly the bounded real
component x in [e1, e2] ~ [-471.6, 235.06]: the unbounded component starts
at e3 ~ 236.5, where 6369 - 27x is already negative.  The same charts on
Fraction points are test oracles (tests/gen4_oracle.py).

The s=4 pipeline behind gen4 runs on integers.  On an integral Weierstrass
model a rational point in lowest terms is (X/e^2, Y/e^3) with
gcd(X, e) = gcd(Y, e) = 1 (Silverman-Tate, Rational Points on Elliptic
Curves, II.4), and Y^2 = X^3 - 166779 X e^4 + 26215254 e^6.  Over the
common denominator den = 12e(243e^2 - X) the chart preimage is
b_i = N_i / den with N1 = 384e^3, N2 = 6369e^3 - 27Xe + Y and
N3 = 6369e^3 - 27Xe - Y.  Clearing denominators divides (N1, N2, N3, den)
by g = gcd(N1, N2, N3, den), and g divides 384: a prime dividing e and g
would divide N2, hence Y, and gcd(Y, e) = 1; so g is prime to e and
divides N1 = 384e^3.  Hence g = gcd(384, N2, N3, den), and the cleared
record has no common factor left: gen4 records are primitive.  One
function, _s4_solution, takes (X, Y, e) to its record: the curve test, the
chart numerators, the region test and the clearing.  So each record gets one
exact test, and it is the same for every point: the curve equation on
(X, Y, e), before the region test, and in the region that settles the
record's identity too (the 8192 identity), so the record is built with no
test of its own.  A walk point and a point from outside the
program (gen4 --from-point, s4_point_solution, after its lowest-terms test)
take that one path.  The curve test runs on numbers about half as long as
the record's prod(parts) * n == b^4.  The walk behind s4_solutions reads kP
off the division polynomials of P, with no gcd: only 2 can divide both the
numerator and the denominator of x(kP), and one shift strips it
(_s4_odd_multiples has the reason).  It runs them scaled by 2^(1 - k^2), as
the division polynomials psi'_k of the 2-minimal model [1, -46, -16, -9718,
564964] at P' = (74, -28), which x = 4x' - 61, y = 8y' + 4x' - 64 carries
onto the curve and P (_s4_extend_psi).  The scaling changes only the power
of 2 that the shift strips, so the walk yields the same triples (X, Y, e) on
numbers about 40% shorter.
"""

from math import gcd, isqrt, prod

from ._value import Value
from .exactmath import format_decimal, lowest_terms, perfect_sth_power

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Iterator

__all__ = [
    "DioSolution",
    "S4_SEED_POINT",
    "s4_point_solution",
    "s4_solutions",
]

# The leading bits of the first two parts that _common_factor compares.
_LEAD_BITS = 128


def _common_factor(parts: tuple[int, ...] | list[int]) -> int:
    """A common divisor of parts: gcd(parts), or 1 for long parts whose
    leading bits show no large common factor.

    math.gcd is quadratic, and on long coprime parts it would cost a
    verify more than it saves.  It runs left to right, so when one of the
    first two parts has at most 128 bits it takes linear time, and it is
    taken at once.  Otherwise a large common factor shows in the leading
    bits.  Let x >= y be the first two |parts|, X and Y their top bits
    shifted alike (Y of _LEAD_BITS = 128 bits), and x / y = P / Q in lowest
    terms.  Floor truncation gives |X Q - Y P| < max(P, Q).  If Q < 2^46
    and P < 2^48, then |X/Y - P/Q| < 1/(2 Q^2), so P/Q is a convergent of
    X/Y (Legendre).  Euclid's remainders on (X, Y) are |X q_k - Y p_k| over
    the convergents p_k/q_k: the one at P/Q is below 2^48, and every one
    before it is above Y / (2Q) > 2^80.  So the loop below, which runs
    while the remainder is at least 2^48, stops on a previous remainder
    above 2^80, and the gcd is taken.  Coprime parts give such a jump only
    on a partial quotient of X/Y above 2^31, and then take the gcd too.
    Any common divisor, 1 included, keeps from_parts exact."""
    if len(parts) < 2 or parts[0].bit_length() <= _LEAD_BITS or parts[1].bit_length() <= _LEAD_BITS:
        return gcd(*parts)
    y, x = sorted((abs(parts[0]), abs(parts[1])))
    shift = y.bit_length() - _LEAD_BITS
    x, y = x >> shift, y >> shift
    while y >> 48:
        x, y = y, x % y
    return gcd(*parts) if x >> 80 else 1


class DioSolution(Value):
    """Verified positive integer solution: parts a_1 .. a_{s-1} and b with
    prod(parts) * n == b**s, where s = len(parts) + 1 and n = sum(parts).

    The constructor tests that identity in __post_init__.  The callers
    that have settled it already build through _proven, which skips
    __post_init__ and keeps only the constructor's checks of count and
    sign: from_parts, whose perfect_sth_power decides by one test b'**s ==
    m', whether its candidate root b' is the floor root or, for a long
    value, read from two half-size problems (exactmath), and
    _s4_solution, behind both the s=4 walk (s4_solutions) and
    s4_point_solution, whose curve test implies it (the 8192 identity,
    module docstring).  Here m' is the value prod(parts) * sum(parts) of
    the parts divided by a common divisor g (_common_factor), and b = g *
    b': the system is homogeneous of degree s (module docstring), so the
    value of the parts is g**s * m' and is an s-th power exactly when m'
    is."""

    __slots__ = ("parts", "b")
    parts: tuple[int, ...]
    b: int

    def __init__(self, parts: tuple[int, ...] | list[int], b: int) -> None:
        self._set_fields(parts, b)
        self.__post_init__()

    # A method of its own, unlike the checks of the package's other values:
    # perfbench's transforms.DioSolution.check span wraps this hook.
    def __post_init__(self) -> None:
        if prod(self.parts) * self.n != self.b ** self.s:
            raise ValueError("prod(parts) * n is not b**s")

    def _set_fields(self, parts: tuple[int, ...] | list[int], b: int) -> None:
        # The one store of the fields, parts as a tuple, with the checks of
        # count and sign that every construction runs.
        object.__setattr__(self, "parts", tuple(parts))
        object.__setattr__(self, "b", b)
        if len(self.parts) < 2:
            raise ValueError("need at least two parts (s >= 3)")
        if any(a < 1 for a in self.parts) or self.b < 1:
            raise ValueError("parts and b must be positive")

    @classmethod
    def _proven(cls, parts: tuple[int, ...] | list[int], b: int) -> "DioSolution":
        # The caller has proven prod(parts) * n == b**s; see the class docstring.
        sol = object.__new__(cls)
        sol._set_fields(parts, b)
        return sol

    @classmethod
    def from_parts(cls, parts: tuple[int, ...] | list[int]) -> "DioSolution":
        """Build a solution from parts alone, computing b; raises if
        prod(parts) * sum(parts) is not a perfect s-th power.

        The root is taken of the primitive solution when it can be found
        cheaply.  g = _common_factor(parts) is gcd(parts), or 1 when the
        parts are long and their leading bits show no large common factor.
        With g > 1 and a'_i = a_i / g, the value is m = prod(parts) *
        sum(parts) = g^s m' with m' = prod(a') * sum(a'), so m' has the sign
        of m, and m is an s-th power exactly when m' is: if m = b^s, then m'
        = (b/g)^s, and an integer that is the s-th power of a rational is
        the s-th power of an integer.  Then b = g b'.  g = 0 (no parts, or
        all zero) and g = 1 keep the parts as given.
        perfect_sth_power's one test b'^s == m' decides every answer, and a
        rejection names m, the value of the parts as given."""
        s = len(parts) + 1
        g = _common_factor(parts)
        primitive = parts if g <= 1 else [a // g for a in parts]
        value = prod(primitive) * sum(primitive)
        b = perfect_sth_power(value, s)
        if b is None:
            if g > 1:
                value = prod(parts) * sum(parts)
            raise ValueError(f"{format_decimal(value)} is not a perfect {s}-th power")
        return cls._proven(parts, g * b)

    @property
    def s(self) -> int:
        return len(self.parts) + 1

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def sorted_parts(self) -> tuple[int, ...]:
        return tuple(sorted(self.parts))


# ---------------------------------------------------------------------------
# s = 4
# ---------------------------------------------------------------------------

_S4_B, _S4_C = -166779, 26215254
# Image of the seed b-vector (4, 1/3, 1/6) = (1, 2, 24)/6; it has infinite order.
S4_SEED_POINT = (235, 8)


def _s4_solution(X: int, Y: int, e: int) -> DioSolution | None:
    """The cleared chart preimage of the point P = (X/e^2, Y/e^3) in lowest
    terms (e >= 1), in integers only; None when P is outside the positive
    region (x = 243 included), ValueError when P is not on the curve.

    This is the one path from a point to a record, and its one exact test
    is the curve equation Y^2 = X^3 - 166779 X e^4 + 26215254 e^6, run
    before the region test, in Horner form X^3 + e2^2 (-166779 X +
    26215254 e2) with e2 = e^2.  The chart's inverse at x = X/e^2, y = Y/e^3,
    numerator and denominator times e^3, is b_i = N_i / den with
    den = 12e(243e^2 - X), N1 = 384e^3 and N2, N3 = 6369e^3 - 27Xe +- Y.
    All three b_i are positive iff N2, N3 and den are (N1 > 0 already);
    on the curve N2 N3 = (243e^2 - X)^3, so den > 0 follows from the other
    two, and its test only keeps the region's definition whole.
    The b_i sum to 9/2 at every (X, Y, e), and their product is 2/9
    exactly on the curve (the 8192 identity, module docstring), so in the
    region the curve test settles prod(parts) * n == b^4 too, and the
    record is built with no test of its own.  The gcd g of the numerators
    and den divides 384 (module docstring), so the clearing costs no big
    gcd and leaves the record primitive."""
    e2 = e * e
    if Y * Y != X * X * X + e2 * e2 * (_S4_B * X + _S4_C * e2):
        raise ValueError("point is not on the s=4 curve")
    e3 = e2 * e
    mid = 6369 * e3 - 27 * X * e
    n2, n3, den = mid + Y, mid - Y, 12 * e * (243 * e2 - X)
    if n2 <= 0 or n3 <= 0 or den <= 0:
        return None
    g = gcd(384, n2, n3, den)
    return DioSolution._proven((384 * e3 // g, n2 // g, n3 // g), den // g)


def s4_point_solution(x: tuple[int, int], y: tuple[int, int]) -> DioSolution | None:
    """The cleared chart preimage of the point (x, y) in the positive
    region, None for one outside it; ValueError when the point is not on
    the curve.  Each coordinate is a pair (numerator, denominator > 0) in
    any terms, as the command line wrote it.

    The point comes from outside the program, so its form (X/e^2, Y/e^3)
    in lowest terms is tested first (module docstring).  Written as X/e^2
    with gcd(X, e) = 1 and Y/e^3, x is in lowest terms, and so is y once
    the point is on the curve: a prime dividing e and Y would divide X^3.
    That costs one gcd of X and e; any other spelling is put in lowest
    terms first (exactmath.lowest_terms).  Then _s4_solution runs the curve test and builds the record."""
    (X, d), (Y, t) = x, y
    if d < 1 or t < 1:
        raise ValueError("a denominator of the point is not positive")
    e = isqrt(d)
    if e * e != d or t != d * e or gcd(X, e) != 1:
        (X, d), (Y, t) = lowest_terms(x), lowest_terms(y)
        e = isqrt(d)
        if e * e != d or t != d * e:  # see module docstring
            raise ValueError("point is not on the s=4 curve")
    return _s4_solution(X, Y, e)


# psi'_0 .. psi'_4 of the 2-minimal model at P' = (74, -28) (_s4_extend_psi).
_S4_PSI_SEED = (0, 1, 2, -4056, 1119424)


def _s4_extend_psi(psi: list[int], n: int) -> None:
    """Append psi'_j to psi = [psi'_0, psi'_1, ...] for every j up to n.

    psi'_j = psi_j / 2^(j^2 - 1) scales the division polynomial psi_j of
    y^2 = x^3 - 166779x + 26215254 at P = S4_SEED_POINT (Silverman, The
    Arithmetic of Elliptic Curves, Ex. 3.7).  It is the division polynomial
    of the 2-minimal model [a1, a2, a3, a4, a6] = [1, -46, -16, -9718,
    564964] at P' = (74, -28): x = 4x' - 61, y = 8y' + 4x' - 64 carries that
    model onto the short one and P' onto P, and psi_j has weight j^2 - 1.
    The recurrences are psi'_{2m+1} = psi'_{m+2} psi'_m^3 -
    psi'_{m-1} psi'_{m+1}^3 and psi'_{2m} = psi'_m (psi'_{m+2} psi'_{m-1}^2 -
    psi'_{m-2} psi'_{m+1}^2) / psi'_2; both terms of each have the weight of
    the left side, so only the division changes, from 2y = 16 to psi'_2 = 2.
    Each psi'_j is an integer at the integral point P' (a polynomial in x',
    y', a1 .. a6 with integer coefficients), so the division is exact.
    Needs psi'_0 .. psi'_4 already (_S4_PSI_SEED)."""
    for j in range(len(psi), n + 1):
        m = j >> 1
        if j & 1:
            psi.append(psi[m + 2] * psi[m] ** 3 - psi[m - 1] * psi[m + 1] ** 3)
        else:
            bracket = psi[m + 2] * psi[m - 1] ** 2 - psi[m - 2] * psi[m + 1] ** 2
            psi.append(psi[m] * bracket // 2)


def _s4_odd_multiples(max_multiple: int) -> "Iterator[tuple[int, int, int]]":
    """Lowest-terms triples (X, Y, e) of kP = (X/e^2, Y/e^3) for the odd
    k = 1, 3, 5, ... <= max_multiple, P = S4_SEED_POINT = (x, y).

    kP = (phi_k / psi_k^2, omega_k / psi_k^3) with the division
    polynomials psi_k of P, phi_k = x psi_k^2 - psi_{k-1} psi_{k+1} and
    omega_k = (psi_{k+2} psi_{k-1}^2 - psi_{k-2} psi_{k+1}^2) / 4y
    (Silverman, Ex. 3.7).

    Lowest terms: a prime dividing both phi_k and psi_k makes P singular
    mod p (Ayad, Points S-entiers des courbes elliptiques, Manuscripta
    Math. 76, 1992), which needs p | 2y = 16.  So with psi_k = +-2^v e,
    e odd, x(kP) = phi_k / (2^(2v) e^2) and gcd(phi_k, e) = 1.  2 divides
    no odd multiple's denominator (the multiples whose denominator it
    divides are 12Z), so 2^(2v) | phi_k, X = phi_k / 2^(2v) and e is the
    lowest denominator.  Then y(kP) = Y/e^3 (module docstring) gives
    omega_k = +-2^(3v) Y, with the sign of psi_k.

    The walk runs on the scaled psi'_j = psi_j / 2^(j^2 - 1) of
    _s4_extend_psi, whose numbers are about 40% shorter.  With
    v' = v_2(psi'_k), so v = k^2 - 1 + v', and the weights of the terms,
    phi_k = 2^(2k^2 - 2) (x psi'_k^2 - 4 psi'_{k-1} psi'_{k+1}) and
    omega_k = 2^(3k^2 - 2) W, W = psi'_{k+2} psi'_{k-1}^2 -
    psi'_{k-2} psi'_{k+1}^2 (psi'_{-1} = -psi'_1).  So
    X = (x psi'_k^2 - 4 psi'_{k-1} psi'_{k+1}) >> 2v', Y = +-(2W >> 3v') and
    e = |psi'_k| >> v': the same integers as from psi_k, since psi'_k and
    psi_k share their odd part.  The walk needs no gcd, and its only
    division is the exact halving in _s4_extend_psi.  The list of psi'
    grows lazily, to psi'_{k+2} at k, so a caller that stops early pays
    for no more.
    """
    x = S4_SEED_POINT[0]
    psi = list(_S4_PSI_SEED)
    before_sq = 0  # psi'_0^2; at k, psi'_{k-1}^2 is the psi'_{k+1}^2 of k - 2
    for k in range(1, max_multiple + 1, 2):
        _s4_extend_psi(psi, k + 2)
        before2 = psi[k - 2] if k > 1 else -1  # psi'_{-1} = -psi'_1
        before, p, after, after2 = psi[k - 1], psi[k], psi[k + 1], psi[k + 2]
        after_sq = after * after
        phi = x * p * p - 4 * before * after
        w = after2 * before_sq - before2 * after_sq
        v = (p & -p).bit_length() - 1
        Y = 2 * w >> 3 * v
        yield phi >> 2 * v, Y if p > 0 else -Y, abs(p) >> v
        before_sq = after_sq


def s4_solutions(max_multiple: int) -> "Iterator[DioSolution]":
    """Solutions from the odd multiples P, 3P, 5P, ... (up to max_multiple) of
    P = S4_SEED_POINT, one per multiple, in that order.

    No region test is needed: P lies on the bounded real component, which is
    the positive region (module docstring) and a coset of the
    identity component, so exactly the odd multiples land in it.  -kP only
    swaps b2 and b3, so it would repeat kP's solution.

    Everything runs on integers.  The walk yields kP in lowest terms as
    (X/e^2, Y/e^3), read off the division polynomials psi_k of P with a
    shift by a power of 2 in place of a gcd (_s4_odd_multiples);
    _s4_solution tests each multiple on the curve, which in the region
    settles its record's equation (the 8192 identity), and clears the
    chart's denominators by a gcd that divides 384 (module docstring).
    """
    for X, Y, e in _s4_odd_multiples(max_multiple):
        sol = _s4_solution(X, Y, e)
        if sol is None:
            raise ArithmeticError("an odd multiple of the seed point left the positive region")
        yield sol
