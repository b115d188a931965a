import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certificates import Poly, divisors, poly_divrem
from root_oracle import oracle_format_decimal, oracle_nth_root, oracle_perfect_power
from sumprodpower import int_nth_root, perfect_sth_power
from sumprodpower.exactmath import (
    _DECIMAL_CHUNK,
    _DECIMAL_DIGITS,
    _SEED_BITS,
    _SHORT_ROOT_K,
    _SPLIT_BITS,
    _SPLIT_GRID,
    _STR_DIGITS,
    _power_of_ten,
    format_decimal,
    format_rational,
    lowest_terms,
    parse_decimal,
    parse_rational,
)


# The package reads and prints a rational only as its pair (p, q); these
# build the Fraction of that pair here, so that TestFraction holds the pair
# functions to Fraction's own reading and printing.
def parse_fraction(text: str) -> Fraction:
    return Fraction(*parse_rational(text))


def format_fraction(value: Fraction | int) -> str:
    return format_rational(value.numerator, value.denominator)


class TestIntNthRoot:
    @pytest.mark.parametrize(
        "m, k, expected",
        [
            (7776, 5, 6),  # 1*2*12*12 * 27 = 7776 = 6^5
            (0, 3, 0),
            (26, 3, 2),  # 2^3 = 8 <= 26 < 27 = 3^3
            (1, 1, 1),
            (10**30, 2, 10**15),
            (2**100 - 1, 100, 1),
        ],
    )
    def test_examples(self, m, k, expected):
        assert int_nth_root(m, k) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            int_nth_root(10, 0)
        with pytest.raises(ValueError):
            int_nth_root(-1, 2)

    def test_floor_property_random(self, rng):
        for _ in range(300):
            m = rng.randint(0, 10 ** rng.randint(1, 40))
            k = rng.randint(1, 12)
            r = int_nth_root(m, k)
            assert r >= 0
            assert r ** k <= m < (r + 1) ** k


# Root indices 1..16: powers of two (isqrt only), odd (Newton only) and
# mixed such as 6 and 12 (isqrt, then Newton).
ROOT_INDICES = st.integers(1, 16)
# Zero, or a number of 1..6000 digits with the length drawn first.
ROOT_INPUTS = st.just(0) | st.integers(1, 6000).flatmap(
    lambda d: st.integers(10 ** (d - 1), 10 ** d - 1))


class TestIntNthRootOracle:
    @settings(max_examples=100, deadline=None)
    @given(m=ROOT_INPUTS, k=ROOT_INDICES)
    def test_matches_oracle(self, m, k):
        assert int_nth_root(m, k) == oracle_nth_root(m, k)

    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(1, 10 ** 350), k=ROOT_INDICES)
    def test_power_boundaries(self, r, k):
        # The root steps from r - 1 to r at r**k and from r to r + 1 at (r+1)**k.
        assert int_nth_root(r ** k - 1, k) == r - 1
        assert int_nth_root(r ** k, k) == r
        assert int_nth_root((r + 1) ** k - 1, k) == r

    @pytest.mark.parametrize("k", [3, 5, 6, 12])
    def test_around_the_seed_size(self, k):
        # Inputs where Newton stops starting at a power of two and starts
        # from the root of the top half, and where one more level begins.
        # Each isqrt halves both the bits of m and k, so the edges scale by k.
        for edge in (_SEED_BITS * k, 2 * _SEED_BITS * k):
            for bits in (edge - 1, edge, edge + 1):
                for m in (1 << (bits - 1), (1 << bits) - 1, (1 << bits) - (1 << (bits // 2))):
                    assert int_nth_root(m, k) == oracle_nth_root(m, k)

    @pytest.mark.parametrize("k", [3, 5, _SHORT_ROOT_K - 1, _SHORT_ROOT_K + 1, 1000, 4097])
    @pytest.mark.parametrize("bits", [2, 3, 8, 13, 14, 15, 16, 17, 24, 31, 48, 63, 64])
    def test_short_roots(self, k, bits):
        # Roots of at most _SEED_BITS bits, from the power of two above them
        # below _SHORT_ROOT_K and seeded from their top bits from it on: the
        # largest and smallest root of each length, and one in between.
        for r in ((1 << bits) - 1, 1 << (bits - 1), (5 << bits) // 8 | 1):
            for m in (r ** k - 1, r ** k, (r + 1) ** k - 1):
                root = int_nth_root(m, k)
                assert root ** k <= m < (root + 1) ** k

    @pytest.mark.parametrize("r", [(1 << 16) + 1, 7 << 45])
    def test_short_roots_at_k_4097(self, r):
        # Each took seconds from the power of two above the root.
        assert int_nth_root(r ** 4097, 4097) == r
        assert int_nth_root(r ** 4097 - 1, 4097) == r - 1

    @pytest.mark.parametrize(
        "m, k, message",
        [(10, -2, "root index"), (-1, 3, "non-negative"), (-16, 4, "non-negative")],
    )
    def test_errors_before_any_root(self, m, k, message):
        with pytest.raises(ValueError, match=message):
            int_nth_root(m, k)


class TestPerfectSthPower:
    @pytest.mark.parametrize(
        "m, s, expected",
        [
            (1296, 4, 6),  # 1*2*24 * 27 = 1296 = 6^4
            (1, 7, 1),
            (100, 3, None),  # 4^3 < 100 < 5^3
            (7776, 5, 6),
        ],
    )
    def test_examples(self, m, s, expected):
        assert perfect_sth_power(m, s) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            perfect_sth_power(0, 3)
        with pytest.raises(ValueError):
            perfect_sth_power(8, 1)

    @settings(max_examples=60, deadline=None)
    @given(b=st.integers(2, 10 ** 600), s=st.integers(2, 16))
    def test_neighbours_of_a_power(self, b, s):
        assert perfect_sth_power(b ** s, s) == b
        assert perfect_sth_power(b ** s - 1, s) is None
        assert perfect_sth_power(b ** s + 1, s) is None

    def test_roundtrip_random(self, rng):
        for _ in range(200):
            b = rng.randint(1, 10 ** 6)
            s = rng.randint(3, 8)
            assert perfect_sth_power(b ** s, s) == b

    @pytest.mark.parametrize("s", [4097, 5000])
    @pytest.mark.parametrize("b", range(2, 8))
    def test_short_roots_above_the_split_size(self, s, b):
        # Roots whose odd part has 1 to 3 bits, too few to split: 3 * 2**s
        # (b = 2) would split a root of one bit, and m << 1 has a power of
        # two that s does not divide.
        m = b ** s
        assert m.bit_length() > _SPLIT_BITS
        assert perfect_sth_power(m, s) == b
        for other in (m - 1, m + 1, 3 * m, m << 1):
            assert perfect_sth_power(other, s) is None is oracle_perfect_power(other, s)

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 12, 16, 64])
    def test_around_the_split_size(self, s):
        # Inputs on both sides of _SPLIT_BITS: powers of two, all ones, the
        # largest s-th power of each length and its neighbours.
        for bits in (_SPLIT_BITS - 1, _SPLIT_BITS, _SPLIT_BITS + 1):
            power = int_nth_root((1 << bits) - 1, s) ** s
            for m in (1 << (bits - 1), (1 << bits) - 1, power - 1, power, power + 1):
                assert perfect_sth_power(m, s) == oracle_perfect_power(m, s)


# Exponents of every 2-adic kind in 2..16, and a few in the thousands, whose
# roots stay short.
SPLIT_EXPONENTS = st.integers(2, 16) | st.sampled_from([1000, 2048, 4097, 5000])


@st.composite
def perfect_power_inputs(draw) -> tuple[int, int]:
    # An s-th power of b * 2**t, with b of up to 1,500 digits for s <= 16,
    # or that power plus or minus 1, or a non-power whose odd part is
    # 1 mod 2**(j+2) (s = 2**j * o), changed at any bit from j + 2 up.
    s = draw(SPLIT_EXPONENTS)
    if s <= 16:
        digits = st.integers(1, 1500) | st.integers(600, 1500)  # half of them split at s = 2
        b = draw(digits.flatmap(lambda d: st.integers(10 ** (d - 1), 10 ** d - 1)))
        t = draw(st.integers(0, 64))
    else:
        b, t = draw(st.integers(1, 7)), draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["power", "plus one", "minus one", "odd part changed"]))
    if kind == "odd part changed":
        j = (s & -s).bit_length() - 1
        odd = (b | 1) ** s
        change = draw(st.integers(1, 2 ** 64)) << draw(st.integers(j + 2, j + 2 + odd.bit_length()))
        return (odd + change) << (s * t), s
    m = (b << t) ** s
    return max(1, m + {"power": 0, "plus one": 1, "minus one": -1}[kind]), s


@settings(max_examples=200, deadline=None)
@given(case=perfect_power_inputs())
@example(case=(3 * 2 ** 4097, 4097))
@example(case=(2 ** 5000 * 4999, 5000))
@example(case=((5 ** 1500 << 7) ** 4, 4))
@example(case=(5 ** 3000, 2))
def test_perfect_power_matches_the_oracle(case):
    m, s = case
    assert perfect_sth_power(m, s) == oracle_perfect_power(m, s)


class TestDecimal:
    # Lengths on both sides of the 4000-digit chunk and the 4300-digit limit.
    LENGTHS = [1, 2, 17, 3999, 4000, 4001, 4300, 4301, 8001, 12345]

    @pytest.mark.parametrize("length", LENGTHS)
    def test_roundtrip_of_digit_strings(self, rng, length):
        digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(length - 1))
        value = parse_decimal(digits)
        assert format_decimal(value) == digits
        assert format_decimal(-value) == "-" + digits
        assert parse_decimal(f" -{digits}\n") == -value
        assert parse_decimal("+" + digits) == value

    @pytest.mark.parametrize("pad", [3997, 3998, 3999, 4000])
    def test_whitespace_padding_across_the_chunk(self, pad):
        # int() reads texts of up to 4000 characters, whitespace included.
        assert parse_decimal(" " * pad + "-12") == -12
        assert parse_decimal("+12" + "\t" * pad) == 12
        assert parse_decimal("\n" * pad + "9" * 4001 + " ") == 10 ** 4001 - 1

    def test_matches_int_and_str_below_the_limit(self, rng):
        for _ in range(200):
            value = rng.randint(-10 ** 4200, 10 ** 4200)
            assert format_decimal(value) == str(value)
            assert parse_decimal(str(value)) == value
        assert format_decimal(0) == "0" and parse_decimal("0") == 0

    @pytest.mark.parametrize("text", ["", "x", "1,2", "1" * 4000 + "x", "1_" * 3000, "1 " * 2501,
                                      "--" + "1" * 5000, "\u0661" * 5000])
    def test_rejects_what_is_not_a_decimal(self, text):
        with pytest.raises(ValueError):
            parse_decimal(text)

    def test_leaves_the_interpreter_limit_alone(self):
        limit = sys.get_int_max_str_digits()
        format_decimal(parse_decimal("7" * 9000))
        assert sys.get_int_max_str_digits() == limit


@contextmanager
def no_digit_limit():
    """The interpreter's int/str digit limit lifted, and restored after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def digit_estimate(value: int) -> int:
    return value.bit_length() * 30103 // 100000 + 1


# The digit counts at which format_decimal, its oracle or the interpreter
# changes what it does: the end of str(), the oracle's chunk, the default
# digit limit and the start of the decimal range.
BOUNDARIES = [_STR_DIGITS, _DECIMAL_CHUNK, 4300, _DECIMAL_DIGITS]
# Per boundary, the first bit length whose digit estimate is past it.
BOUNDARY_BITS = [next(b for b in range(d * 3, d * 4) if b * 30103 // 100000 + 1 > d)
                 for d in BOUNDARIES]
LENGTHS_NEAR = st.sampled_from(BOUNDARIES).flatmap(lambda d: st.integers(d - 2, d + 2))


def value_of_length(length: int) -> st.SearchStrategy[int]:
    return st.integers(10 ** (length - 1), 10 ** length - 1)


PRINTED = st.one_of(
    st.builds(lambda k, d: 10 ** k + d, LENGTHS_NEAR, st.integers(-1, 1)),
    st.builds(lambda j, d: 2 ** j + d, st.sampled_from(BOUNDARY_BITS).flatmap(
        lambda b: st.integers(b - 2, b + 1)), st.integers(-1, 0)),
    LENGTHS_NEAR.flatmap(value_of_length),
    st.integers(-10 ** 30, 10 ** 30),
)


class TestDecimalRanges:
    def test_the_boundary_powers_straddle_each_boundary(self):
        for d, b in zip(BOUNDARIES, BOUNDARY_BITS):
            assert digit_estimate(2 ** (b - 1) - 1) <= d < digit_estimate(2 ** (b - 1))

    @settings(max_examples=150, deadline=None)
    @given(value=PRINTED, negative=st.booleans())
    @example(value=0, negative=False)
    @example(value=10 ** 100_000 - 1, negative=False)
    @example(value=10 ** 100_001 + 1, negative=True)
    @example(value=2 ** 400_000 - 1, negative=False)
    @example(value=3 ** 250_000, negative=True)
    def test_matches_the_oracle_and_str(self, value, negative):
        value = -value if negative else value
        printed = format_decimal(value)
        with no_digit_limit():
            expected = str(value)
        assert printed == expected == oracle_format_decimal(value)

    def test_no_split_leaves_a_high_half_of_zero(self):
        # 10**L - 1 has L digits and a digit estimate of L + 1, so a split at
        # any L on the grid would leave it a high half of 0 and print "09...".
        for length in range(_STR_DIGITS - _STR_DIGITS % _SPLIT_GRID, _DECIMAL_DIGITS, _SPLIT_GRID):
            assert digit_estimate(10 ** length - 1) == length + 1
            assert format_decimal(10 ** length - 1) == "9" * length

    def test_split_cache_stays_within_its_bound(self):
        # 500 lengths across the split range and into the decimal one.
        _power_of_ten.cache_clear()
        for length in range(_STR_DIGITS + 1, _DECIMAL_DIGITS + 2001, 40)[:500]:
            format_decimal(10 ** length - 1)
        assert 0 < _power_of_ten.cache_info().currsize <= _DECIMAL_DIGITS // (2 * _SPLIT_GRID)


class TestFraction:
    @pytest.mark.parametrize("length", TestDecimal.LENGTHS)
    def test_roundtrip_of_long_rationals(self, rng, length):
        num, den = rng.randint(10 ** (length - 1), 10 ** length), rng.randint(1, 10 ** length)
        value = Fraction(num, den)
        text = format_fraction(value)
        assert parse_fraction(text) == value and parse_fraction(f" -{text}\n") == -value
        assert format_fraction(-value) == "-" + text
        assert parse_fraction(f"{format_decimal(num)}/{format_decimal(den)}") == value
        assert parse_fraction(format_decimal(num)) == num
        assert format_fraction(num) == format_decimal(num)

    def test_matches_fraction_below_the_limit(self, rng):
        for _ in range(100):
            value = Fraction(rng.randint(-10 ** 1900, 10 ** 1900), rng.randint(1, 10 ** 1900))
            assert format_fraction(value) == str(value)
            assert parse_fraction(str(value)) == value
        for text in [" 3/4 ", "-2/6", "+07/21"]:
            assert parse_fraction(text) == Fraction(text)

    @pytest.mark.parametrize("length", TestDecimal.LENGTHS)
    def test_format_rational_is_the_reduced_fraction(self, rng, length):
        # Unreduced pairs of each sign, at every length the decimals test.
        for _ in range(5):
            m = rng.randint(1, 10 ** length)
            p, q = rng.randint(-10 ** length, 10 ** length), rng.randint(1, 10 ** length)
            assert format_rational(p * m, q * m) == format_fraction(Fraction(p, q))
        assert format_rational(0, 7) == "0" and format_rational(-12, 4) == "-3"

    @pytest.mark.parametrize("pair, lowest", [
        ((6, 4), (3, 2)), ((-6, 4), (-3, 2)), ((0, 5), (0, 1)), ((0, 1), (0, 1)),
        ((7, 1), (7, 1)), ((10 ** 5000 * 3, 10 ** 5000 * 9), (1, 3)),
    ])
    def test_lowest_terms_is_the_fraction(self, pair, lowest):
        assert lowest_terms(pair) == lowest == Fraction(*pair).as_integer_ratio()

    @pytest.mark.parametrize("pair", [(1, 0), (0, 0), (1, -2), (-3, -1)])
    def test_a_denominator_below_one_is_refused(self, pair):
        # Every pair the package builds has q >= 1; Fraction would move a
        # negative q's sign to p, lowest_terms refuses it.
        for reduce in (lowest_terms, lambda pair: format_rational(*pair)):
            with pytest.raises(ValueError, match="^a denominator is not positive$"):
                reduce(pair)

    @pytest.mark.parametrize("text", [
        "", "x", "1/", "/2", "1/-2", "1 /2", "1//2", "1" * 4001 + ".5", "1" * 4001 + "/-2",
        "1/" + "2" * 4000 + "x", "1/2" + "0" * 4000 + "e3", "\u0661" * 5000,
    ])
    def test_rejects_what_is_not_a_rational(self, text):
        with pytest.raises(ValueError):
            parse_fraction(text)

    @pytest.mark.parametrize("text", ["1/0", "1" * 5000 + "/0", "1/" + "0" * 5000])
    def test_zero_denominator(self, text):
        with pytest.raises(ZeroDivisionError):
            parse_fraction(text)

    def test_rational_is_the_pair_as_written(self):
        # parse_fraction is Fraction(*parse_rational(text)); the pair is not reduced.
        for text, pair in [("3", (3, 1)), (" -2/6\n", (-2, 6)), ("+07/021", (7, 21)),
                           ("0/5", (0, 5))]:
            assert parse_rational(text) == pair
            assert parse_fraction(text) == Fraction(*pair)
        long = "4" * 5000
        assert parse_rational(f"-{long}/{long}") == (-parse_decimal(long), parse_decimal(long))

    @pytest.mark.parametrize("text, error", [
        ("1/", ValueError), ("1" * 4001 + "/-2", ValueError), ("1_000/3", ValueError),
        ("1/0", ZeroDivisionError), ("1" * 5000 + "/0", ZeroDivisionError),
    ])
    def test_rational_raises_what_parse_fraction_raises(self, text, error):
        for parse in (parse_rational, parse_fraction):
            with pytest.raises(error):
                parse(text)


# Forms that int() or Fraction() accept but the grammar does not, short and
# padded past the 4000-character chunk with leading zeros.
@pytest.mark.parametrize("parse", [parse_decimal, parse_fraction])
@pytest.mark.parametrize("pad", [0, 4001])
@pytest.mark.parametrize("token", ["1_000", "1e3", "0.5", "\u0661", "1_000/3"])
def test_rejects_lenient_forms_at_every_length(parse, pad, token):
    with pytest.raises(ValueError):
        parse("0" * pad + token)


class TestDivisors:
    def test_small(self):
        assert divisors(8) == [1, 2, 4, 8]
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors(0)

    def test_against_brute_force(self):
        n = 110592  # 2^12 * 3^3
        brute = [d for d in range(1, n + 1) if n % d == 0]
        result = divisors(n)
        assert result == brute
        assert len(result) == 52


class TestPoly:
    def test_trims_trailing_zeros(self):
        assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert Poly([0, 0]).is_zero
        assert Poly().degree == -1

    def test_arithmetic(self):
        p = Poly([1, 1])  # 1 + t
        q = Poly([-1, 1])  # -1 + t
        assert p * q == Poly([-1, 0, 1])
        assert p + q == Poly([0, 2])

    def test_divrem_textbook(self):
        # (t^2 + 1) / (t + 1) = (t - 1) remainder 2
        q, r = poly_divrem(Poly([1, 0, 1]), Poly([1, 1]))
        assert q == Poly([-1, 1])
        assert r == Poly([2])

    def test_divrem_unit_divisor(self):
        p = Poly([3, 0, Fraction(5, 7), 2])
        q, r = poly_divrem(p, Poly([1]))
        assert q == p and r.is_zero

    def test_divrem_zero_divisor(self):
        with pytest.raises(ValueError):
            poly_divrem(Poly([1]), Poly())

    def test_divrem_roundtrip_random(self, rng):
        for _ in range(100):
            numer = Poly(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 8))]
            )
            denom = Poly(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))]
            )
            if denom.is_zero:
                continue
            q, r = poly_divrem(numer, denom)
            assert q * denom + r == numer
            assert r.degree < denom.degree

    def test_quadrupled_x_remainder_at_unit_parameters(self):
        # numerator / denominator of the quadrupled point's X at u = v = 1;
        # remainder must match 3*t^2 + 2.
        inner = Poly([16, 0, 33, 0, 16])
        numer = Poly([0, 0, 1]) * inner * inner
        denom = Poly([64, 0, 128, 0, 64])
        _, r = poly_divrem(numer, denom)
        assert r == Poly([2, 0, 3])
