from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from certificates import (
    Point,
    Poly,
    _sqrt_bounds,
    b1_roots,
    base_point,
    doubled_point,
    family_params,
    family_uvt,
    fraction_general_solution,
    leading_triple,
    negate,
    positivity_classify,
    positivity_discriminant,
    positivity_value,
    primitive_reduce,
    quadrupled_point,
    quartic_curve,
    quartic_discriminant_t,
    quartic_to_weierstrass,
    QuarticPoint,
    remainder_certificate,
    scalar_mul,
    weierstrass_model,
    weierstrass_to_quartic,
)
from conftest import random_positive_fraction
from sumprodpower import (
    DioSolution,
    FamilyParams,
    general_solution,
    s5_polynomial_family,
)

UNIT = family_params(5, (Fraction(1),), Fraction(1))

SMALL_POSITIVE = st.builds(Fraction, st.integers(1, 40), st.integers(1, 10))
ENTRY = SMALL_POSITIVE | st.builds(Fraction, st.integers(1, 10 ** 12), st.integers(1, 10 ** 12))
# Past Python's 4300-digit int/str limit, as numerator or as denominator.
HUGE = st.integers(10 ** 4300, 10 ** 4301)
HUGE_ENTRY = st.builds(Fraction, HUGE, st.integers(1, 9)) | st.builds(Fraction, st.integers(1, 9), HUGE)
# Members with D = 0: the roots of D(t0) are rational where u (u v^4 - 64)
# is a square (a search of small rational tails found none at s = 5).
DEGENERATE = [
    (6, (1, 2), Fraction(2)),
    (6, (1, 2), Fraction(1, 4)),
    (7, (1, Fraction(2, 3), Fraction(4, 3)), Fraction(3, 2)),
    (7, (1, Fraction(2, 3), Fraction(4, 3)), Fraction(3, 4)),
    (8, (1, 3, Fraction(1, 3), Fraction(2, 3)), Fraction(6)),
    (9, (1, 1, 1, Fraction(1, 2), Fraction(1, 2)), Fraction(2)),
]


@st.composite
def family_members(draw) -> FamilyParams:
    """Members with D > 0, D < 0 (t0 = v^2 / 8 for large u v^4) and D = 0,
    now and then with one tail entry past 4300 digits."""
    if draw(st.integers(0, 9)) == 0:
        return family_params(*draw(st.sampled_from(DEGENERATE)))
    s = draw(st.integers(5, 9))
    if draw(st.integers(0, 19)) == 0:  # small neighbours keep the record short
        tail = draw(st.lists(SMALL_POSITIVE, min_size=s - 5, max_size=s - 5))
        tail.insert(draw(st.integers(0, s - 5)), draw(HUGE_ENTRY))
        return family_params(s, tuple(tail), draw(SMALL_POSITIVE))
    tail = draw(st.lists(ENTRY, min_size=s - 4, max_size=s - 4))
    # D = u t0 (4 t0 - v^2) + 4 is smallest, 4 - u v^4 / 16, at t0 = v^2 / 8
    # and positive for every t0 > v^2 / 4.
    v = sum(tail)
    t0 = draw(ENTRY | st.just(v * v / 8) | ENTRY.map(lambda e: v * v / 4 + e))
    return family_params(s, tuple(tail), t0)


def random_params(rng, s: int | None = None) -> FamilyParams:
    s = s or rng.randint(5, 9)
    tail = tuple(random_positive_fraction(rng) for _ in range(s - 4))
    return family_params(s, tail, random_positive_fraction(rng))


class TestFamilyParams:
    def test_derived_values(self):
        params = family_params(6, (Fraction(2), Fraction(3, 2)), Fraction(1, 2))
        assert family_uvt(params) == (3, Fraction(7, 2), 3 * Fraction(1, 4))
        assert positivity_value(params) == (
            4 * 3 * Fraction(1, 4) - 3 * Fraction(7, 2) ** 2 * Fraction(1, 2) + 4
        )

    @pytest.mark.parametrize(
        "args",
        [
            (4, ((1, 1),), (1, 1)),  # s too small
            (5, (), (1, 1)),  # wrong tail arity
            (5, ((-1, 1),), (1, 1)),  # non-positive tail
            (5, ((0, 1),), (1, 1)),  # zero tail
            (5, ((1, 1),), (0, 1)),  # non-positive t0
            (5, ((1, 0),), (1, 1)),  # zero denominator
            (5, ((1, 1),), (1, -1)),  # negative denominator
        ],
    )
    def test_invalid_rejected(self, args):
        with pytest.raises(ValueError):
            FamilyParams(*args)

    def test_keeps_its_rationals_in_lowest_terms(self):
        # general_solution's clearing needs the tail in lowest terms (module
        # docstring); two spellings of one member are one value.
        params = FamilyParams(6, ((2, 4), (6, 2)), (14, 6))
        lowest = FamilyParams(6, ((1, 2), (3, 1)), (7, 3))
        assert params == lowest and hash(params) == hash(lowest)
        assert (params.tail, params.t0) == (((1, 2), (3, 1)), (7, 3))


class TestQuarticCurve:
    def test_unit_coefficients(self):
        q = quartic_curve(UNIT)
        assert (q.a4, q.a3, q.a2, q.a1, q.a0) == (4, 4, 1, 0, 4)

    def test_linear_term_always_zero(self, rng):
        for _ in range(10):
            assert quartic_curve(random_params(rng)).a1 == 0

    def test_discriminant_formula_at_unit_uv(self):
        for t0 in (Fraction(1), Fraction(2), Fraction(1, 3)):
            params = family_params(5, (Fraction(1),), t0)
            _, _, t = family_uvt(params)
            expected = 256 * (t + 1) ** 4 * (64 * t * t + 129 * t + 64) * t ** 9
            assert quartic_discriminant_t(params) == expected

    def test_discriminant_nonzero_random(self, rng):
        for _ in range(10):
            assert quartic_discriminant_t(random_params(rng)) != 0


class TestEprimeCurve:
    def test_unit_curve(self):
        curve = weierstrass_model(UNIT)
        assert (curve.a, curve.b, curve.c) == (1, -64, 0)
        assert curve.contains(Point(8, 8))

    def test_constant_term_always_zero(self, rng):
        for _ in range(10):
            assert weierstrass_model(random_params(rng)).c == 0

    def test_matches_general_model_at_specialized_t(self, rng):
        # same curve written in t: a = u^2 v^2 t^2, b = -16 u^3 t^3 (t+1)^2
        for _ in range(10):
            params = random_params(rng)
            u, v, t = family_uvt(params)
            curve = weierstrass_model(params)
            assert curve.a == u * u * v * v * t * t
            assert curve.b == -16 * u ** 3 * t ** 3 * (t + 1) ** 2


class TestClosedFormPoints:
    def test_unit_values(self):
        assert base_point(UNIT) == Point(8, 8)
        assert doubled_point(UNIT) == Point(64, -512)
        assert quadrupled_point(UNIT).x == Fraction(4225, 256)

    def test_points_lie_on_curve(self, rng):
        for _ in range(10):
            params = random_params(rng)
            curve = weierstrass_model(params)
            for point in (base_point(params), doubled_point(params), quadrupled_point(params)):
                assert curve.contains(point)

    def test_closed_forms_match_group_law(self, rng):
        for _ in range(10):
            params = random_params(rng)
            curve = weierstrass_model(params)
            p = base_point(params)
            assert doubled_point(params) == scalar_mul(curve, 2, p)
            assert quadrupled_point(params) == scalar_mul(curve, 4, p)


class TestRemainderCertificate:
    @pytest.mark.parametrize(
        "u, v, expected",
        [
            (1, 1, Poly([2, 0, 3])),
            (2, 3, Poly([104976, 0, 314928])),
            (1, 2, Poly([512, 0, 768])),  # 256 * (3 t^2 + 2)
        ],
    )
    def test_examples(self, u, v, expected):
        assert remainder_certificate(u, v) == expected

    def test_closed_form_random(self, rng):
        for _ in range(10):
            u = random_positive_fraction(rng)
            v = random_positive_fraction(rng)
            rem = remainder_certificate(u, v)
            assert rem == Poly([2 * u ** 3 * v ** 8, 0, 3 * u ** 4 * v ** 8])
            assert not rem.is_zero

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            remainder_certificate(0, 1)


class TestBirationalMaps:
    def test_pullback_of_reflected_double_unit(self):
        qpt = weierstrass_to_quartic(UNIT, Point(64, 512))
        assert (qpt.y, qpt.w) == (Fraction(7, 4), Fraction(-65, 8))
        # (65/8)^2 = 4 (7/4)^4 + 4 (7/4)^3 + (7/4)^2 + 4
        assert quartic_curve(UNIT).value_at(Fraction(7, 4)) == Fraction(4225, 64)

    def test_pullback_of_base_point_has_zero_y(self):
        qpt = weierstrass_to_quartic(UNIT, Point(8, 8))
        assert qpt.y == 0
        assert quartic_curve(UNIT).contains(qpt)
        # downstream the y = 0 point is degenerate for solution extraction
        with pytest.raises(ValueError):
            b1_roots(UNIT, qpt)

    def test_exceptional_points_rejected(self):
        with pytest.raises(ValueError):
            weierstrass_to_quartic(UNIT, Point(0, 0))
        with pytest.raises(ValueError):
            weierstrass_to_quartic(UNIT, Point(1, 1))

    def test_pushforward_unit(self):
        point = quartic_to_weierstrass(UNIT, QuarticPoint(Fraction(7, 4), Fraction(-65, 8)))
        assert point == Point(64, 512)

    def test_branch_symmetry(self):
        # w -> -w is the other sheet of the quartic; it maps to a different
        # curve point.
        other = quartic_to_weierstrass(UNIT, QuarticPoint(Fraction(7, 4), Fraction(65, 8)))
        assert weierstrass_model(UNIT).contains(other)
        assert other != Point(64, 512)

    def test_roundtrip_on_random_points(self, rng):
        for _ in range(10):
            params = random_params(rng)
            curve = weierstrass_model(params)
            p = base_point(params)
            k = rng.choice([1, 2, 3, -1, -2])
            q = scalar_mul(curve, k, p)
            if q.is_infinity or q.x == 0:
                continue
            qpt = weierstrass_to_quartic(params, q)
            assert quartic_to_weierstrass(params, qpt) == q
            # and the quartic relation holds exactly
            assert quartic_curve(params).contains(qpt)


class TestB1Roots:
    def test_unit_roots(self):
        roots = b1_roots(UNIT, QuarticPoint(Fraction(7, 4), Fraction(65, 8)))
        assert Fraction(1, 14) in roots
        assert Fraction(-32, 7) in roots

    def test_roots_satisfy_identity(self, rng):
        for _ in range(8):
            params = random_params(rng)
            qpt = weierstrass_to_quartic(params, negate(doubled_point(params)))
            u, v, t = family_uvt(params)
            for root in b1_roots(params, qpt):
                z = t * qpt.y
                assert root * qpt.y * z * u * (root + qpt.y + z + v) == 1

    def test_rejects_zero_y(self):
        with pytest.raises(ValueError):
            b1_roots(UNIT, QuarticPoint(0, -2))


class TestLeadingTriple:
    def test_unit_triple(self):
        assert leading_triple(UNIT) == (
            Fraction(1, 14),
            Fraction(7, 4),
            Fraction(7, 4),
        )

    def test_t0_two(self):
        params = family_params(5, (Fraction(1),), Fraction(2))
        assert leading_triple(params) == (
            Fraction(1, 18),
            Fraction(9, 10),
            Fraction(18, 5),
        )

    def test_consistent_with_birational_map(self, rng):
        # b2 must be the quartic pullback of the reflected double, b3 = t*b2,
        # and b1 one of the quadratic roots.
        for _ in range(8):
            params = random_params(rng)
            b1, b2, b3 = leading_triple(params)
            qpt = weierstrass_to_quartic(params, negate(doubled_point(params)))
            assert b2 == qpt.y
            assert b3 == family_uvt(params)[2] * qpt.y
            assert b1 in b1_roots(params, qpt)

    @pytest.mark.parametrize("sign", [1, -1])
    @settings(max_examples=40, deadline=None)
    @given(s=st.integers(5, 9), data=st.data())
    def test_product_sum_identity(self, sign, s, data):
        # D = u t0 (4 t0 - v^2) + 4 is smallest, 4 - u v^4 / 16, at t0 = v^2 / 8
        # and positive for every t0 > v^2 / 4.
        tail = tuple(data.draw(st.lists(SMALL_POSITIVE, min_size=s - 4, max_size=s - 4)))
        v = sum(tail)
        t0 = data.draw(
            SMALL_POSITIVE | st.just(v * v / 8) | SMALL_POSITIVE.map(lambda e: v * v / 4 + e)
        )
        params = family_params(s, tail, t0)
        assume(positivity_value(params) * sign > 0)
        b1, b2, b3 = leading_triple(params)
        u, v, _ = family_uvt(params)
        assert b1 * b2 * b3 * u * (b1 + b2 + b3 + v) == 1

    def test_degenerate_rejected(self):
        # tail (2, 1) gives u = 2, v = 3, whose delta = 196 is a square, so
        # the quadratic has the rational root t0 = 2: D = 32 - 36 + 4 = 0.
        params = family_params(6, (2, 1), 2)
        assert positivity_value(params) == 0
        with pytest.raises(ValueError):
            leading_triple(params)


class TestPositivity:
    def test_unit_always_positive(self):
        assert positivity_value(UNIT) > 0
        assert positivity_discriminant(1, 1) == -63
        split = positivity_classify(1, 1)
        assert split.kind == "always-positive"
        assert split.delta == -63

    def test_value_both_signs(self):
        # tail (1, 3): u = 3, v = 4, D(t0) = 12 t0^2 - 48 t0 + 4
        assert positivity_value(family_params(6, (1, 3), 2)) == -44
        assert positivity_value(family_params(6, (1, 3), 4)) == 4
        assert not positivity_value(family_params(6, (1, 3), 2)) > 0
        assert positivity_value(family_params(6, (1, 3), 4)) > 0

    def test_interval_branch_u1_v4(self):
        # tail (1, 1, 1, 4): u = 4, v = 7 is awkward; use direct classify calls
        split = positivity_classify(1, 4)
        assert split.kind == "two-intervals"
        assert split.delta == 192
        lo_lo, lo_hi = split.lower_root
        hi_lo, hi_hi = split.upper_root
        # true roots are 2 -+ sqrt(3)
        for bound, below in ((lo_lo, True), (lo_hi, False)):
            # bound <= 2 - sqrt(3)  <=>  (2 - bound)^2 >= 3 (with bound < 2)
            assert bound < 2
            assert ((2 - bound) ** 2 >= 3) == below
        for bound, below in ((hi_lo, True), (hi_hi, False)):
            # bound <= 2 + sqrt(3)  <=>  (bound - 2)^2 <= 3 (with bound > 2)
            assert bound > 2
            assert ((bound - 2) ** 2 <= 3) == below
        for bound in (lo_lo, lo_hi, hi_lo, hi_hi):
            assert bound.denominator <= 10 ** 6
        assert lo_hi - lo_lo <= Fraction(2, 10 ** 6)
        assert hi_hi - hi_lo <= Fraction(2, 10 ** 6)

    def test_double_root_case(self):
        # u = 64, v = 1: delta = 0, both roots collapse to v^2/8 = 1/8
        split = positivity_classify(64, 1)
        assert split.kind == "two-intervals"
        assert split.delta == 0
        assert split.lower_root == split.upper_root == (Fraction(1, 8), Fraction(1, 8))

    def test_rational_roots_isolated_exactly(self):
        # u = 2, v = 3: delta = 196 = 14^2, roots (18 -+ 14)/16 = 1/4 and 2.
        split = positivity_classify(2, 3)
        assert split.kind == "two-intervals"
        assert split.delta == 196
        assert split.lower_root == (Fraction(1, 4), Fraction(1, 4))
        assert split.upper_root == (Fraction(2), Fraction(2))

    def test_positivity_iff_triple_positive(self, rng):
        checked_negative = False
        for _ in range(30):
            params = random_params(rng)
            d = positivity_value(params)
            if d == 0:
                continue
            all_positive = all(b > 0 for b in leading_triple(params))
            assert (positivity_value(params) > 0) == all_positive
            checked_negative = checked_negative or not all_positive
        # make sure the negative branch is exercised at least once
        params = family_params(8, (1, 1, 1, 4), 2)  # u = 4, v = 7, D = -324
        assert positivity_value(params) < 0
        assert leading_triple(params)[0] < 0


class TestSqrtBounds:
    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(0, 10 ** 60), q=st.integers(1, 10 ** 60), scale=st.integers(1, 10 ** 12))
    def test_brackets_the_root(self, p, q, scale):
        lo, hi = _sqrt_bounds(Fraction(p, q), scale)
        value = Fraction(p, q)
        if lo == hi:
            assert lo * lo == value
        else:
            r = lo * scale
            assert r.denominator == 1 and hi == lo + Fraction(1, scale)
            assert r * r * value.denominator <= value.numerator * scale * scale
            assert value.numerator * scale * scale < (r + 1) ** 2 * value.denominator


class TestGeneralSolution:
    def test_s5_unit(self):
        sol = general_solution(family_params(5, (1,), 1))
        assert (sol.parts, sol.b, sol.n) == ((2, 49, 49, 28), 28, 128)

    def test_s5_t0_two_clears_directly_to_reduced_form(self):
        sol = general_solution(family_params(5, (1,), 2))
        assert (sol.parts, sol.b, sol.n) == ((5, 81, 324, 90), 90, 500)
        assert primitive_reduce(sol) == sol

    def test_s6_unit_tail(self):
        sol = general_solution(family_params(6, (1, 1), 1))
        assert sol.sorted_parts == (1, 1, 2, 2, 2)
        assert (sol.b, sol.n) == (2, 8)

    def test_positivity_error(self):
        with pytest.raises(ValueError, match="positivity"):
            general_solution(family_params(5, (4,), 2))  # u = v = 4: D = 64 - 128 + 4 < 0

    def test_identity_random(self, rng):
        for _ in range(40):
            s = rng.randint(5, 9)
            tail = tuple(random_positive_fraction(rng, upper=4) for _ in range(s - 4))
            t0 = random_positive_fraction(rng, upper=4)
            params = family_params(s, tail, t0)
            if positivity_value(params) <= 0:
                continue
            sol = general_solution(params)
            assert prod(sol.parts) * sol.n == sol.b ** sol.s


    @settings(max_examples=300, deadline=None)
    @given(params=family_members())
    @example(params=family_params(*DEGENERATE[0]))
    @example(params=family_params(6, (1, 3), 2))  # D = -44
    def test_matches_the_fraction_oracle(self, params):
        # The integer closed form gives the Fraction chain's record, or its
        # ValueError text; the record is primitive (module docstring).
        try:
            expected = fraction_general_solution(params)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                general_solution(params)
            assert str(info.value) == str(exc)
        else:
            assert general_solution(params) == expected
            assert gcd(*expected.parts, expected.b) == 1

    @settings(max_examples=40, deadline=None)
    @given(s=st.integers(5, 9), data=st.data())
    def test_output_verifies_whenever_d_positive(self, s, data):
        # s = 6 and 8 take the isqrt route of the root, s = 5, 7 and 9 Newton.
        tail = data.draw(st.lists(SMALL_POSITIVE, min_size=s - 4, max_size=s - 4))
        # D = u t0 (4 t0 - v^2) + 4, so every t0 > v^2 / 4 has D > 0.
        v = sum(tail)
        t0 = data.draw(SMALL_POSITIVE | SMALL_POSITIVE.map(lambda e: v * v / 4 + e))
        params = family_params(s, tuple(tail), t0)
        assume(positivity_value(params) > 0)
        sol = general_solution(params)
        assert DioSolution.from_parts(sol.parts).b == sol.b


def s5_member(t1: int, t2: int) -> FamilyParams:
    """The family member that s5_polynomial_family(t1, t2) clears."""
    return FamilyParams(5, ((t2, 1),), (t1, 1))


def reduced_polynomial_and_general(t1: int, t2: int) -> tuple[DioSolution | str, DioSolution | str]:
    """The reduced polynomial record and the general form's record of one
    member, each as its ValueError text when it raises."""
    def outcome(build):
        try:
            return build()
        except ValueError as exc:
            return str(exc)

    return (outcome(lambda: primitive_reduce(s5_polynomial_family(t1, t2))),
            outcome(lambda: general_solution(s5_member(t1, t2))))


class TestS5PolynomialFamily:
    @pytest.mark.parametrize(
        "t1, t2, parts, b",
        [
            (1, 1, (2, 49, 49, 28), 28),
            (2, 1, (20, 324, 1296, 360), 360),
            (1, 2, (192, 16, 32, 192), 96),
        ],
    )
    def test_examples(self, t1, t2, parts, b):
        sol = s5_polynomial_family(t1, t2)
        assert (sol.parts, sol.b) == (parts, b)

    def test_positivity_error(self):
        # 4*1*3 - 1*27 + 4 = -11
        with pytest.raises(ValueError, match="positivity"):
            s5_polynomial_family(1, 3)

    def test_substitution_validation(self):
        for t1, t2 in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="must be positive"):
                s5_polynomial_family(t1, t2)

    @pytest.mark.parametrize("t1, t2", [(1, 1), (2, 1), (1, 2), (3, 2), (4, 1)])
    def test_matches_general_solution_after_reduction(self, t1, t2):
        # The polynomial and the general form clear one vector, the member at
        # u = v = t2, t0 = t1, by two common denominators; the general form's
        # is the least, so reducing the polynomial gives its record exactly,
        # parts in order and b (family docstring).  `family --t1/--t2
        # --primitive` prints general_solution on this fact.
        assert primitive_reduce(s5_polynomial_family(t1, t2)) == general_solution(s5_member(t1, t2))

    def test_reduces_to_the_general_form_on_a_grid(self):
        outcomes = [reduced_polynomial_and_general(t1, t2)
                    for t1 in range(1, 60) for t2 in range(1, 60)]
        assert all(polynomial == general for polynomial, general in outcomes)
        assert sum(isinstance(general, DioSolution) for _, general in outcomes) == 584

    @settings(max_examples=60, deadline=None)
    @given(t1=st.integers(1, 200) | st.integers(1, 10 ** 4400), t2=st.integers(1, 10 ** 60))
    @example(t1=10 ** 4400 + 1, t2=7)
    def test_reduces_to_the_general_form(self, t1, t2):
        polynomial, general = reduced_polynomial_and_general(t1, t2)
        assert polynomial == general

    @settings(max_examples=40, deadline=None)
    @given(t2=st.integers(3, 100) | st.integers(3, 10 ** 2300), k=st.integers(0, 10 ** 4400))
    @example(t2=3, k=0)  # (1, 3): D = -11
    def test_same_error_when_d_is_not_positive(self, t2, k):
        # D = t1 t2 (4 t1 - t2^2) + 4 <= 0 for 1 <= t1 < t2^2 / 4 (t2 >= 3).
        t1 = 1 + k % ((t2 * t2 - 1) // 4)
        polynomial, general = reduced_polynomial_and_general(t1, t2)
        assert isinstance(polynomial, str) and polynomial.startswith("positivity quadratic")
        assert polynomial == general

    @settings(max_examples=60, deadline=None)
    @given(t2=st.integers(1, 100), data=st.data())
    def test_output_verifies_whenever_d_positive(self, t2, data):
        # D = t1 t2 (4 t1 - t2^2) + 4 > 0 about where t1 >= t2^2 / 4.
        t1 = data.draw(st.integers(max(1, t2 * t2 // 4 - 2), t2 * t2 // 4 + 200))
        assume(4 * t1 * t1 * t2 - t1 * t2 ** 3 + 4 > 0)
        sol = s5_polynomial_family(t1, t2)
        assert DioSolution.from_parts(sol.parts).b == sol.b
