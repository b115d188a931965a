from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificates import (
    INFINITY,
    Point,
    WeierstrassCurve,
    add,
    certify_infinite_order,
    discriminant,
    nagell_lutz_candidates,
    negate,
    scalar_mul,
)
from gen4_oracle import s4_curve
from sumprodpower import on_curve
from sumprodpower.exactmath import int_nth_root

MORDELL_16 = WeierstrassCurve(0, 0, 16)
MORDELL_64 = WeierstrassCurve(0, 0, 64)
E4 = s4_curve()
WITNESS = Point(Fraction(30507, 121), Fraction(-584592, 1331))
# k * (235, 8) for |k| <= 12 (k = 0 is INFINITY), and the multiples of the
# order-3 point (0, 4) of y^2 = x^3 + 16.
SEED_MULTIPLES = {k: scalar_mul(E4, k, Point(235, 8)) for k in range(-12, 13)}
ORDER_3 = (INFINITY, Point(0, 4), Point(0, -4))


class TestDiscriminant:
    def test_mordell_curves(self):
        assert discriminant(MORDELL_16) == -6912  # -27 * 16^2
        assert discriminant(MORDELL_64) == -110592  # -27 * 64^2
        assert discriminant(WeierstrassCurve(0, -1, 0)) == 4  # y^2 = x^3 - x

    def test_matches_squared_root_differences(self, rng):
        # For a monic cubic with known roots the discriminant equals
        # prod_{i<j} (r_i - r_j)^2.
        for _ in range(50):
            roots = rng.sample(range(-12, 13), 3)
            a = -sum(roots)
            b = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
            c = -roots[0] * roots[1] * roots[2]
            expected = 1
            for r1, r2 in combinations(roots, 2):
                expected *= (r1 - r2) ** 2
            assert discriminant(WeierstrassCurve(a, b, c)) == expected

    def test_singular_curves_rejected(self):
        with pytest.raises(ValueError):
            WeierstrassCurve(0, 0, 0)  # y^2 = x^3
        with pytest.raises(ValueError):
            WeierstrassCurve(0, -3, 2)  # double root at x = 1


class TestOnCurve:
    def test_known_points(self):
        assert on_curve(16, 0, 4) and on_curve(16, 0, -4)
        assert on_curve(64, 8, -24) and on_curve(64, -4, 0)
        assert not on_curve(16, 4, 12)
        assert not on_curve(64, 0, 4)
        assert E4.contains(Point(235, 8))
        assert E4.contains(WITNESS)
        assert not E4.contains(Point(235, 9))
        assert E4.contains(INFINITY)


class TestGroupLaw:
    def test_identity_and_inverse(self):
        p = Point(235, 8)
        assert add(E4, p, INFINITY) == p
        assert add(E4, INFINITY, p) == p
        assert add(E4, p, negate(p)) == INFINITY

    def test_tangent_doubling(self):
        assert scalar_mul(E4, 2, Point(235, 8)) == Point(4291, 279856)
        # on Y^2 = X^3 + X^2 - 64X
        curve = WeierstrassCurve(1, -64, 0)
        assert scalar_mul(curve, 2, Point(8, 8)) == Point(64, -512)

    def test_rejects_points_off_curve(self):
        with pytest.raises(ValueError):
            add(E4, Point(235, 9), Point(235, 8))
        with pytest.raises(ValueError):
            scalar_mul(E4, 3, Point(1, 1))

    def test_results_stay_on_curve(self):
        p = Point(235, 8)
        for k in range(-6, 7):
            assert E4.contains(scalar_mul(E4, k, p))

    def test_commutative_and_associative(self):
        p = Point(235, 8)
        mults = [scalar_mul(E4, k, p) for k in (1, 2, 3)]
        for a in mults:
            for b in mults:
                assert add(E4, a, b) == add(E4, b, a)
        for a in mults:
            for b in mults:
                for c in mults:
                    left = add(E4, add(E4, a, b), c)
                    right = add(E4, a, add(E4, b, c))
                    assert left == right

    @settings(max_examples=200, deadline=None)
    @given(ks=st.tuples(*[st.integers(-12, 12)] * 3))
    def test_add_is_associative_on_seed_multiples(self, ks):
        a, b, c = (SEED_MULTIPLES[k] for k in ks)
        left = add(E4, add(E4, a, b), c)
        assert left == add(E4, a, add(E4, b, c))
        if abs(sum(ks)) <= 12:
            assert left == SEED_MULTIPLES[sum(ks)]

    def test_add_is_associative_on_order_3_points(self):
        # Every triple, so P + (-P), doubling and INFINITY all come up.
        for a in ORDER_3:
            for b in ORDER_3:
                for c in ORDER_3:
                    left = add(MORDELL_16, add(MORDELL_16, a, b), c)
                    assert left == add(MORDELL_16, a, add(MORDELL_16, b, c))
        assert add(MORDELL_16, ORDER_3[1], ORDER_3[1]) == ORDER_3[2]

    def test_scalar_mul_is_additive(self, rng):
        p = Point(235, 8)
        for _ in range(20):
            m, n = rng.randint(-8, 8), rng.randint(-8, 8)
            combined = scalar_mul(E4, m + n, p)
            split = add(E4, scalar_mul(E4, m, p), scalar_mul(E4, n, p))
            assert combined == split


class TestNagellLutzCandidates:
    def test_known_candidate_sets(self):
        assert nagell_lutz_candidates(16) == [(0, -4), (0, 4)]
        assert nagell_lutz_candidates(64) == [(-4, 0), (0, -8), (0, 8), (8, -24), (8, 24)]

    def test_candidates_on_curve_with_divisibility(self):
        # 27c^2 is the absolute discriminant of x^3 + c.
        for c in (16, 64, -2, 1, -27):
            curve = WeierstrassCurve(0, 0, c)
            disc = int(discriminant(curve))
            assert disc == -27 * c * c
            for x, y in nagell_lutz_candidates(c):
                assert on_curve(c, x, y) and curve.contains(Point(x, y))
                assert y == 0 or disc % y == 0

    def test_matches_boxed_brute_force(self):
        # Independent oracle: integral points in |x| <= 1000 whose y is zero
        # or divides the discriminant.
        disc = 110592
        expected = set()
        for x in range(-1000, 1001):
            rhs = x ** 3 + 64
            if rhs < 0:
                continue
            y = isqrt(rhs)
            if y * y == rhs and (y == 0 or disc % y == 0):
                expected.add((x, y))
                if y:
                    expected.add((x, -y))
        assert set(nagell_lutz_candidates(64)) == expected

    @settings(max_examples=200, deadline=None)
    @given(c=st.integers(-200, 200).filter(bool))
    def test_matches_a_scan(self, c):
        # A candidate has |y| <= 27c^2, so x^3 = y^2 - c <= 729c^4 + |c|, which
        # is below (9c^(4/3) + 1)^3: x < 9 floor(c^(4/3)) + 10.  And
        # x^3 >= -|c| >= -200 gives x >= -5.
        disc = 27 * c * c
        scan = []
        for x in range(-6, 9 * int_nth_root(c ** 4, 3) + 10):
            rhs = x ** 3 + c
            if rhs < 0:
                continue
            y = isqrt(rhs)
            if y * y == rhs and (y == 0 or disc % y == 0):
                scan += [(x, y), (x, -y)] if y else [(x, 0)]
        assert nagell_lutz_candidates(c) == sorted(scan)


class TestCertifyInfiniteOrder:
    def test_non_integral_witness_is_infinite(self):
        assert certify_infinite_order(E4, WITNESS)

    def test_integral_seed_is_infinite(self):
        # [3](235, 8) already leaves Z.
        assert certify_infinite_order(E4, Point(235, 8))

    def test_torsion_points_are_rejected(self):
        # (0, 8) has order 3 on y^2 = x^3 + 64; (8, 24) order 6; (-4, 0) order 2.
        assert scalar_mul(MORDELL_64, 3, Point(0, 8)) == INFINITY
        assert not certify_infinite_order(MORDELL_64, Point(0, 8))
        assert not certify_infinite_order(MORDELL_64, Point(8, 24))
        assert not certify_infinite_order(MORDELL_64, Point(-4, 0))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            certify_infinite_order(E4, INFINITY)
        with pytest.raises(ValueError):
            certify_infinite_order(E4, Point(1, 1))
        with pytest.raises(ValueError):
            certify_infinite_order(WeierstrassCurve(0, 0, Fraction(1, 4)), Point(0, Fraction(1, 2)))
