import copy
import pickle
from dataclasses import make_dataclass
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certificates import (
    INFINITY,
    Point,
    clear_denominators,
    family_params,
    nagell_lutz_candidates,
    negate,
    primitive_reduce,
    scalar_mul,
)
from conftest import TABLE_S5
from gen4_oracle import BVector, s4_curve, s4_forward, s4_in_positive_region, s4_inverse
from root_oracle import oracle_nth_root
from sumprodpower import DioSolution, SearchSpec
from sumprodpower.exactmath import format_decimal

SEED = Point(235, 8)
# The second worked s=4 point: equals [3](235, 8).
EXAMPLE_POINT = Point(Fraction(60266587, 257049), Fraction(3852230624, 130323843))
EXAMPLE_PARTS = (781943058, 138991832, 18609625)
WITNESS = Point(Fraction(30507, 121), Fraction(-584592, 1331))


def oracle_from_parts(parts) -> DioSolution:
    """DioSolution.from_parts by way of the constructor: b is the s-th root
    of prod(parts) * sum(parts), and DioSolution(parts, b) tests the identity
    again, with the error texts of from_parts."""
    s = len(parts) + 1
    value = prod(parts) * sum(parts)
    if value < 1:
        raise ValueError("m must be positive")
    b = oracle_nth_root(value, s)
    if b ** s != value:
        raise ValueError(f"{format_decimal(value)} is not a perfect {s}-th power")
    return DioSolution(tuple(parts), b)


def outcome(build, parts) -> DioSolution | str:
    try:
        return build(parts)
    except ValueError as exc:
        return str(exc)


@st.composite
def solution_like(draw) -> list[int]:
    # A known solution scaled to up to about 1500 digits a part, then as
    # drawn: kept, one part moved by a little, one part set to 0, or some
    # signs flipped (flipping all three parts of an s = 4 one keeps prod * n).
    parts, _ = draw(st.sampled_from([((1, 2, 24), 6)] + [row[:2] for row in TABLE_S5]))
    scale = draw(st.integers(1, 10 ** draw(st.integers(0, 1497))))
    parts = draw(st.permutations([a * scale for a in parts]))
    i = draw(st.integers(0, len(parts) - 1))
    change = draw(st.sampled_from(["none", "nudge", "zero", "signs"]))
    if change == "nudge":
        parts[i] += draw(st.integers(-3, 3))
    elif change == "zero":
        parts[i] = 0
    elif change == "signs":
        flips = draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
        parts = [-a if flip else a for a, flip in zip(parts, flips)]
    return parts


class TestDioSolution:
    def test_seed_solution(self):
        sol = DioSolution((1, 2, 24), 6)
        assert sol.sorted_parts == (1, 2, 24)
        assert (sol.s, sol.n) == (4, 27)

    def test_from_parts(self):
        sol = DioSolution.from_parts((1, 2, 24))
        assert (sol.s, sol.n, sol.b) == (4, 27, 6)
        with pytest.raises(ValueError):
            DioSolution.from_parts((1, 2, 25))

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=6) | solution_like())
    @example(parts=(-9, -8, -1))  # prod * n = 1296 = 6^4
    @example(parts=(-6, -2, 8, 9))  # prod * n = 7776 = 6^5
    @example(parts=(5,))
    @example(parts=())
    def test_from_parts_matches_the_constructor_oracle(self, parts):
        assert outcome(DioSolution.from_parts, parts) == outcome(oracle_from_parts, parts)

    @pytest.mark.parametrize("parts", [(-9, -8, -1), (-6, -2, 8, 9)])
    def test_from_parts_refuses_negative_parts_of_a_perfect_power(self, parts):
        assert prod(parts) * sum(parts) == 6 ** (len(parts) + 1)
        with pytest.raises(ValueError) as info:
            DioSolution.from_parts(parts)
        assert str(info.value) == "parts and b must be positive"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(parts=(1, 2, 24), b=7),  # wrong power
            dict(parts=(1, 2, 25), b=6),  # wrong sum, so wrong power
            dict(parts=(1, 2), b=1),  # s = 3: 6 is not a cube
            dict(parts=(1,), b=1),  # s = 2 is too small
            dict(parts=(1, -2, 24), b=6),  # negative part
            dict(parts=(1, 2, 24), b=-6),  # negative b
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DioSolution(**kwargs)


# Each value with its repr, which is the one @dataclass(frozen=True) wrote.
VALUES = [
    pytest.param(DioSolution((1, 2, 24), 6), "DioSolution(parts=(1, 2, 24), b=6)",
                 id="DioSolution"),
    pytest.param(SearchSpec(4, 100), "SearchSpec(s=4, n_max=100, a_max=None, jobs=1)",
                 id="SearchSpec-defaults"),
    pytest.param(SearchSpec(5, 800, 30, jobs=2), "SearchSpec(s=5, n_max=800, a_max=30, jobs=2)",
                 id="SearchSpec"),
    pytest.param(family_params(6, [Fraction(1, 2), 3], Fraction(7, 3)),
                 "FamilyParams(s=6, tail=((1, 2), (3, 1)), t0=(7, 3))",
                 id="FamilyParams"),
]
CLONES = {
    **{f"pickle{p}": lambda v, p=p: pickle.loads(pickle.dumps(v, p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}
# A field of each value as a protocol-0 pickle writes it, and a value for it
# that the class's check refuses.
TAMPERED = [
    pytest.param(DioSolution((1, 2, 24), 6), b"I6\n", b"I7\n", id="DioSolution-b"),
    pytest.param(SearchSpec(4, 100), b"I4\n", b"I2\n", id="SearchSpec-s"),
    pytest.param(family_params(6, (Fraction(1, 2), 3), Fraction(7, 3)), b"I6\n", b"I5\n",
                 id="FamilyParams-s"),
]


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


@pytest.mark.parametrize("value, text", VALUES)
class TestValueSemantics:
    """DioSolution, SearchSpec and FamilyParams behave as the frozen
    dataclasses they replace."""

    def test_repr_and_hash_are_the_dataclass_ones(self, value, text):
        cls = type(value)
        twin = make_dataclass(cls.__name__, cls.__slots__, frozen=True)(*fields(value))
        assert repr(value) == repr(twin) == text
        assert hash(value) == hash(twin)

    def test_equality_is_by_fields_within_one_class(self, value, text):
        same = type(value)(*fields(value))
        assert value == same and len({value, same}) == 1
        assert value != fields(value)

    def test_assignment_and_deletion_raise(self, value, text):
        for name in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert repr(value) == text

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
    def test_pickle_and_copy_round_trip(self, value, text, clone):
        back = clone(value)
        assert type(back) is type(value) and back == value and repr(back) == text


def test_family_params_keeps_its_tail_as_a_tuple():
    params = family_params(6, iter([Fraction(1, 2), 3]), Fraction(1))
    assert params.tail == ((1, 2), (3, 1))
    assert params == family_params(6, (Fraction(1, 2), 3), Fraction(1))


@pytest.mark.parametrize("build", [DioSolution, DioSolution._proven], ids=["checked", "proven"])
def test_dio_solution_keeps_its_parts_as_a_tuple(build):
    given = [1, 2, 24]
    sol = build(given, 6)
    assert sol == DioSolution((1, 2, 24), 6) and hash(sol) == hash(DioSolution((1, 2, 24), 6))
    assert repr(sol) == "DioSolution(parts=(1, 2, 24), b=6)"
    given.append(5)
    given[0] = 7
    assert sol.parts == (1, 2, 24) and (sol.s, sol.n) == (4, 27)


@pytest.mark.parametrize("value, field, refused", TAMPERED)
def test_a_tampered_pickle_runs_the_check(value, field, refused):
    payload = pickle.dumps(value, 0)
    assert pickle.loads(payload) == value and payload.count(field) == 1
    with pytest.raises(ValueError):
        pickle.loads(payload.replace(field, refused))


class TestBVector:
    def test_product_sum_identity_enforced(self):
        BVector(4, (Fraction(1, 6), Fraction(1, 3), Fraction(4)))
        with pytest.raises(ValueError):
            BVector(4, (Fraction(1), Fraction(1), Fraction(1)))
        with pytest.raises(ValueError):
            BVector(3, (Fraction(1), Fraction(1)))

    @settings(max_examples=50, deadline=None)
    @given(s=st.integers(3, 9), data=st.data())
    def test_rejects_a_zero_entry(self, s, data):
        # prod * sum = 1 leaves no entry 0, so s4_forward needs no b1 != 0 test.
        entries = data.draw(st.lists(st.fractions(max_denominator=50), min_size=s - 1,
                                     max_size=s - 1))
        entries[data.draw(st.integers(0, s - 2))] = Fraction(0)
        with pytest.raises(ValueError, match="prod \\* sum = 1"):
            BVector(s, tuple(entries))

    def test_from_solution(self):
        sol = DioSolution((1, 2, 24), 6)
        bvec = BVector.from_solution(sol)
        assert bvec.entries == (Fraction(1, 6), Fraction(1, 3), Fraction(4))
        assert bvec.is_positive


class TestClearDenominators:
    def test_seed_fiber(self):
        bvec = BVector(4, (Fraction(1, 6), Fraction(1, 3), Fraction(4)))
        sol = clear_denominators(bvec.entries)
        assert (sol.parts, sol.b, sol.n) == ((1, 2, 24), 6, 27)

    def test_s5_vector(self):
        bvec = BVector(5, (Fraction(1, 14), Fraction(7, 4), Fraction(7, 4), Fraction(1)))
        sol = clear_denominators(bvec.entries)
        assert (sol.parts, sol.b, sol.n) == ((2, 49, 49, 28), 28, 128)

    def test_power_identity_always_holds(self, rng):
        # scaled-down integer solutions give positive b-vectors of any s
        for parts, b in [((1, 2, 24), 6), ((1, 2, 12, 12), 6), ((1, 1, 2, 2, 2), 2)]:
            s = len(parts) + 1
            bvec = BVector(s, tuple(Fraction(a, b) for a in parts))
            sol = clear_denominators(bvec.entries)
            assert prod(sol.parts) * sol.n == sol.b ** sol.s

    def test_rejects_non_positive(self):
        entries = s4_inverse(Point(Fraction(30507, 121), Fraction(-584592, 1331)))
        bvec = BVector(4, entries)  # mixed signs still satisfy prod*sum = 1
        assert not bvec.is_positive
        with pytest.raises(ValueError):
            clear_denominators(bvec.entries)

    def test_rejects_positive_entries_off_the_identity(self):
        # DioSolution is the only check: prod * sum = 3 here.
        with pytest.raises(ValueError, match="is not b\\*\\*s"):
            clear_denominators((Fraction(1), Fraction(1), Fraction(1)))


class TestPrimitiveReduce:
    def test_reduces_known_solution(self):
        sol = DioSolution((20, 324, 1296, 360), 360)
        reduced = primitive_reduce(sol)
        assert (reduced.parts, reduced.b, reduced.n) == ((5, 81, 324, 90), 90, 500)

    def test_primitive_fixed_point(self):
        sol = DioSolution((1, 2, 24), 6)
        assert primitive_reduce(sol) is sol

    def test_scale_then_reduce_roundtrip(self):
        base = DioSolution((1, 2, 24), 6)
        scaled = DioSolution(tuple(3 * a for a in base.parts), 3 * base.b)
        assert primitive_reduce(scaled) == base


class TestS3:
    def test_curve_and_candidates(self):
        assert nagell_lutz_candidates(16) == [(0, -4), (0, 4)]

    @settings(max_examples=100, deadline=None)
    @given(u=st.fractions(max_denominator=10 ** 6), v=st.fractions(max_denominator=10 ** 6))
    def test_chart_identity(self, u, v):
        # x = 4v, y = 8u + 4 carries u^2 + u = v^3 onto y^2 = x^3 + 16.
        assert (8 * u + 4) ** 2 - (4 * v) ** 3 - 16 == 64 * (u * u + u - v ** 3)


class TestS4Maps:
    def test_curve_membership_examples(self):
        curve = s4_curve()
        assert curve.contains(Point(235, 8))
        assert curve.contains(Point(51, -4224))
        assert curve.contains(Point(243, 192))

    @pytest.mark.parametrize(
        "entries, expected",
        [
            ((Fraction(1, 6), Fraction(1, 3), Fraction(4)), Point(51, -4224)),
            ((Fraction(4), Fraction(1, 3), Fraction(1, 6)), Point(235, 8)),
            ((Fraction(1, 3), Fraction(1, 6), Fraction(4)), Point(147, -2208)),
        ],
    )
    def test_forward(self, entries, expected):
        point = s4_forward(BVector(4, entries))
        assert point == expected
        assert s4_curve().contains(point)

    def test_forward_rejects_off_fiber(self):
        # (1, 8, 9) with b = 6 is a solution on a different fiber: prod = 1/3.
        bvec = BVector(4, (Fraction(1, 6), Fraction(4, 3), Fraction(3, 2)))
        with pytest.raises(ValueError):
            s4_forward(bvec)

    def test_forward_rejects_other_s(self):
        s5 = BVector(5, (Fraction(1, 14), Fraction(7, 4), Fraction(7, 4), Fraction(1)))
        # No rational s=3 BVector exists (y^2 = x^3 + 16 has no rational
        # point with x != 0), so this one skips BVector's own check.
        s3 = object.__new__(BVector)
        object.__setattr__(s3, "s", 3)
        object.__setattr__(s3, "entries", (Fraction(1), Fraction(1)))
        for bvec in (s3, s5):
            with pytest.raises(ValueError, match="s=4 chart needs a BVector with s == 4"):
                s4_forward(bvec)

    def test_inverse_examples(self):
        assert s4_inverse(Point(51, -4224)) == (Fraction(1, 6), Fraction(1, 3), Fraction(4))
        assert s4_inverse(Point(235, 8)) == (Fraction(4), Fraction(1, 3), Fraction(1, 6))

    def test_inverse_fiber_values(self):
        for k in (1, 2, 3, 5):
            point = scalar_mul(s4_curve(), k, SEED)
            triple = s4_inverse(point)
            assert prod(triple) == Fraction(2, 9)
            assert sum(triple) == Fraction(9, 2)

    def test_inverse_degenerate_point(self):
        with pytest.raises(ValueError):
            s4_inverse(Point(243, 192))

    def test_example_point_is_third_multiple(self):
        assert scalar_mul(s4_curve(), 3, SEED) == EXAMPLE_POINT

    def test_example_point_clears_to_published_parts(self):
        for point in (EXAMPLE_POINT, negate(EXAMPLE_POINT)):
            triple = s4_inverse(point)
            assert all(b > 0 for b in triple)
            sol = primitive_reduce(clear_denominators(triple))
            assert sol.sorted_parts == tuple(sorted(EXAMPLE_PARTS))

    def test_witness_point_is_outside_region(self):
        # The non-integral witness certifies infinite order but sits off the
        # bounded component: x > 243, so its preimage has negative entries.
        assert s4_curve().contains(WITNESS)
        assert not s4_in_positive_region(WITNESS)
        assert not all(b > 0 for b in s4_inverse(WITNESS))

    def test_roundtrip_random_multiples(self):
        curve = s4_curve()
        for k in range(1, 9):
            for point in (scalar_mul(curve, k, SEED), negate(scalar_mul(curve, k, SEED))):
                if point.x == 243:
                    continue
                triple = s4_inverse(point)
                assert s4_forward(BVector(4, triple)) == point

    def test_chart_roundtrip(self):
        bvec = BVector(4, (Fraction(1, 6), Fraction(1, 3), Fraction(4)))
        assert s4_forward(bvec) == Point(51, -4224)

    def test_curve_is_8192_times_fiber_cubic(self):
        # Under x = -32v + 243, y = 384u - 864v + 192.  Both sides have
        # degree <= 3 in u and in v, so a 4 x 4 grid proves the identity.
        for u in range(4):
            for v in range(4):
                x, y = -32 * v + 243, 384 * u - 864 * v + 192
                cubic = 18 * u + 18 * u * u - 81 * u * v + 4 * v ** 3
                assert y * y - s4_curve().rhs(x) == 8192 * cubic


class TestPositiveRegion:
    def test_examples(self):
        assert s4_in_positive_region(Point(235, 8))
        assert s4_in_positive_region(Point(51, -4224))
        assert not s4_in_positive_region(Point(4291, 279856))

    def test_equivalent_to_positive_inverse(self):
        curve = s4_curve()
        for k in range(1, 13):
            point = scalar_mul(curve, k, SEED)
            if point.x == 243:
                continue
            for candidate in (point, negate(point)):
                positive = all(b > 0 for b in s4_inverse(candidate))
                assert s4_in_positive_region(candidate) == positive

    def test_cube_identity_behind_region(self):
        # On the curve, y^2 - (6369 - 27x)^2 = (x - 243)^3; this is why the
        # whole bounded component lies in the region.
        curve = s4_curve()
        for k in (1, 2, 3, 4):
            p = scalar_mul(curve, k, SEED)
            assert p.y ** 2 - (6369 - 27 * p.x) ** 2 == (p.x - 243) ** 3

    def test_infinity_not_in_region(self):
        assert not s4_in_positive_region(INFINITY)
