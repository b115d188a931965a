"""The odd-multiple s=4 walk against the two-sign walk of gen4_oracle.

transforms.s4_solutions takes two facts as proven instead of testing every
point at run time: exactly the odd multiples of (235, 8) land in the
positive region, and -kP repeats the solution of kP.  These tests pin both
facts for k <= 80 and check that gen4 prints what the oracle walk printed.
They also check the integer pipeline (lowest-terms triples (X, Y, e) with
x = X/e^2, y = Y/e^3) against the oracle's Fraction points and charts, the
division-polynomial facts the walk takes as proven, its scaled sequence psi'
against the short model's psi and the 2-minimal model, and the walk against
the older mixed-addition walk well past the Fraction oracle's reach.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificates import Point, clear_denominators, primitive_reduce
from gen4_oracle import (
    ORACLE_MAX_MULTIPLE,
    BVector,
    extend_short_model_psi,
    mixed_addition_walk,
    oracle_walk,
    s4_curve,
    s4_forward,
    s4_in_positive_region,
    s4_inverse,
    short_model_psi_seed,
    signed_solutions,
)
from sumprodpower import cli
from sumprodpower.exactmath import format_decimal, format_rational, parse_decimal
from sumprodpower.transforms import (
    _S4_PSI_SEED,
    DioSolution,
    _s4_extend_psi,
    _s4_odd_multiples,
    _s4_solution,
    s4_point_solution,
    s4_solutions,
)

MAX_MULTIPLE = 80
# Where the walk is checked against mixed_addition_walk; the coordinates
# there pass 4300 digits.
LONG_WALK = 121
FLAG_SETS = [[], ["--primitive"], ["--format", "tsv"], ["--primitive", "--format", "tsv"]]
# The 2-minimal model [a1, a2, a3, a4, a6] that the walk's psi' belong to,
# its point P' and the change of variables onto the short model and P.
MINIMAL_MODEL = (1, -46, -16, -9718, 564964)
MINIMAL_SEED = (74, -28)


def to_short_model(x: int, y: int) -> tuple[int, int]:
    return 4 * x - 61, 8 * y + 4 * x - 64


@pytest.fixture(scope="module")
def walk():
    return list(s4_solutions(MAX_MULTIPLE))


@pytest.fixture(scope="module")
def psi():
    """psi'_0 .. psi'_{LONG_WALK + 2}, every value the walk to LONG_WALK reads."""
    values = list(_S4_PSI_SEED)
    _s4_extend_psi(values, LONG_WALK + 2)
    return values


def weierstrass_psi_seed(model, x, y) -> list[int]:
    """psi_0 .. psi_4 of the general Weierstrass model [a1, a2, a3, a4, a6]
    at (x, y), from b2, b4, b6 and b8 (Silverman, AEC, III.1 and Ex. 3.7)."""
    a1, a2, a3, a4, a6 = model
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    psi2 = 2 * y + a1 * x + a3
    psi3 = 3 * x**4 + b2 * x**3 + 3 * b4 * x**2 + 3 * b6 * x + b8
    psi4 = psi2 * (2 * x**6 + b2 * x**5 + 5 * b4 * x**4 + 10 * b6 * x**3 + 10 * b8 * x**2
                   + (b2 * b8 - b4 * b6) * x + b4 * b8 - b6 * b6)
    return [0, 1, psi2, psi3, psi4]


def weierstrass_value(model, x, y) -> int:
    """y^2 + a1 xy + a3 y - (x^3 + a2 x^2 + a4 x + a6); zero on the model."""
    a1, a2, a3, a4, a6 = model
    return y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)


def run_gen4(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(["gen4", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_line(line: str, fmt: str) -> tuple[int, tuple[int, ...], int, int]:
    """(s, parts, n, b) of one output record."""
    if fmt == "tsv":
        *parts, b, n = (parse_decimal(v) for v in line.split("\t"))
        return len(parts) + 1, tuple(parts), n, b
    obj = json.loads(line, parse_int=parse_decimal)
    assert list(obj) == ["s", "parts", "n", "b", "source"] and obj["source"] == "gen4"
    return obj["s"], tuple(obj["parts"]), obj["n"], obj["b"]


class TestWalkFacts:
    def test_region_holds_exactly_the_odd_multiples(self):
        for k, _, sol in signed_solutions(MAX_MULTIPLE):
            assert (sol is not None) == (k % 2 == 1), k

    def test_negation_swaps_b2_and_b3(self):
        signed = signed_solutions(MAX_MULTIPLE)
        for (k, plus, sol_p), (_, minus, sol_m) in zip(signed[::2], signed[1::2]):
            b1, b2, b3 = s4_inverse(plus)
            assert s4_inverse(minus) == (b1, b3, b2), k
            if sol_p is not None:
                a1, a2, a3 = sol_p.parts
                assert sol_m.parts == (a1, a3, a2) and sol_m.b == sol_p.b, k

    def test_sorted_parts_are_distinct_raw_and_primitive(self):
        sols = [sol for _, _, sol in signed_solutions(MAX_MULTIPLE)[::2] if sol is not None]
        assert len(sols) == MAX_MULTIPLE // 2
        assert len({sol.sorted_parts for sol in sols}) == len(sols)
        assert len({primitive_reduce(sol).sorted_parts for sol in sols}) == len(sols)


class TestWalkAgainstOracle:
    def test_generator_yields_the_oracle_records(self, walk):
        assert walk == [sol for _, sol in oracle_walk(MAX_MULTIPLE, False)]
        assert walk[0].sorted_parts == (1, 2, 24)

    def test_generator_stops_at_max_multiple(self, walk):
        for m in range(1, 41):
            assert list(s4_solutions(m)) == walk[: (m + 1) // 2], m

    @pytest.mark.parametrize("flags", FLAG_SETS, ids=" ".join)
    def test_cli_prints_the_oracle_output(self, capsys, monkeypatch, walk, flags):
        # Replay the real walk, so that every (--count, --max-multiple) pair
        # is cheap; the tests above pin the replayed list to the oracle.
        monkeypatch.setattr(cli, "s4_solutions", lambda m: iter(walk[: (m + 1) // 2]))
        fmt = "tsv" if "tsv" in flags else "jsonl"
        oracle = oracle_walk(MAX_MULTIPLE, "--primitive" in flags)
        _, out, _ = run_gen4(capsys, "--count", "41", "--max-multiple", "80", *flags)
        lines = out.splitlines(keepends=True)
        assert [parse_line(line.rstrip("\n"), fmt) for line in lines] == [
            (sol.s, sol.sorted_parts, sol.n, sol.b) for _, sol in oracle
        ]
        # The grid checks the count and budget logic; the run above checked
        # rendering, so reuse its results.
        monkeypatch.setattr(cli, "render", cache(cli.render))
        for m in range(1, MAX_MULTIPLE + 1):
            available = sum(k <= m for k, _ in oracle)
            # Every count up to the default --max-multiple and at the largest
            # one; elsewhere the counts around the budget boundary.
            every = m <= 25 or m == MAX_MULTIPLE
            for count in range(1, available + 2) if every else (1, available, available + 1):
                argv = ["--count", str(count), "--max-multiple", str(m), *flags]
                code, out, err = run_gen4(capsys, *argv)
                found = min(count, available)
                assert out == "".join(lines[:found]), argv
                if count <= available:
                    assert (code, err) == (0, ""), argv
                else:
                    assert code == 3, argv
                    assert err == (f"budget exhausted: found {found} of {count} solutions "
                                   f"within {m} multiples\n"), argv


# Every integral point (x, y > 0) of the s=4 curve with x < 4300.
INTEGRAL_POINTS = [(51, 4224), (147, 2208), (235, 8), (243, 192), (4291, 279856)]


def pairs(point) -> tuple[tuple[int, int], tuple[int, int]]:
    """The coordinates of a Fraction point as the (numerator, denominator)
    pairs that s4_point_solution takes."""
    return point.x.as_integer_ratio(), point.y.as_integer_ratio()


def weighted(point) -> tuple[int, int, int]:
    """(X, Y, e) of a curve point in lowest terms: x = X/e^2, y = Y/e^3."""
    e = isqrt(point.x.denominator)
    assert e * e == point.x.denominator and point.y.denominator == e ** 3
    return point.x.numerator, point.y.numerator, e


def in_region(X: int, Y: int, e: int) -> bool:
    """Whether (X/e^2, Y/e^3), on the curve or not, satisfies the positive
    region's definition x < 243 and |y| < 6369 - 27x."""
    x, y = Fraction(X, e * e), Fraction(Y, e ** 3)
    return x < 243 and abs(y) < 6369 - 27 * x


class TestIntegerKernel:
    def test_kernel_is_the_fraction_chart_and_clearing(self):
        # Both signs of every k <= 81; the even k check the None branch.
        for k, point, sol in signed_solutions(ORACLE_MAX_MULTIPLE):
            assert s4_point_solution(*pairs(point)) == sol, k
        # The integral points with x < 4300, where 3 divides the clearing gcd
        # when it divides y.
        for x, y in INTEGRAL_POINTS:
            for point in (Point(x, y), Point(x, -y)):
                sol = (clear_denominators(s4_inverse(point))
                       if s4_in_positive_region(point) else None)
                assert s4_point_solution(*pairs(point)) == sol, point

    def test_clearing_gcd_divides_384(self):
        # The chart numerators over den = 12e(243e^2 - X), from the oracle's
        # Fraction chart (transforms module docstring); x = 243 has none.
        gcds = set()
        points = [point for _, point, _ in signed_solutions(ORACLE_MAX_MULTIPLE)]
        for point in points + [Point(x, y) for x, y in INTEGRAL_POINTS]:
            if point.x == 243:
                continue
            X, _, e = weighted(point)
            den = 12 * e * (243 * e * e - X)
            numerators = [b * den for b in s4_inverse(point)]
            assert all(n.denominator == 1 for n in numerators), point
            g = gcd(*(n.numerator for n in numerators), den)
            assert 384 % g == 0, point
            gcds.add(g)
        assert 384 in gcds and len(gcds) > 2

    def test_numerators_of_a_curve_point_fix_the_sign_of_den(self):
        # N2 N3 = (243e^2 - X)^3 on the curve, so N2, N3 > 0 imply den > 0:
        # _s4_solution without its den test gives the same records.
        points = [point for _, point, _ in signed_solutions(ORACLE_MAX_MULTIPLE)]
        for point in points + [Point(x, y) for x, y in INTEGRAL_POINTS if x != 243]:
            X, _, e = weighted(point)
            den = 12 * e * (243 * e * e - X)
            _, b2, b3 = s4_inverse(point)
            assert b2 * den * b3 * den == (243 * e * e - X) ** 3, point

    def test_records_are_primitive(self):
        # _s4_solution divides by the whole common factor (transforms module
        # docstring), so gen4 --primitive has nothing left to reduce.
        for k, sol in enumerate(s4_solutions(LONG_WALK)):
            assert gcd(*sol.parts, sol.b) == 1, 2 * k + 1
        points = [point for k, point, _ in signed_solutions(ORACLE_MAX_MULTIPLE) if k % 2]
        points += [Point(x, sign * y) for x, y in INTEGRAL_POINTS for sign in (1, -1)]
        records = [s4_point_solution(*pairs(point)) for point in points]
        assert {sol.parts[1] > sol.parts[2] for sol in records if sol} == {True, False}
        for point, sol in zip(points, records):
            assert sol is None or gcd(*sol.parts, sol.b) == 1, point

    def test_walk_triples_are_the_multiples_in_lowest_terms(self):
        odd = [point for k, point, _ in signed_solutions(ORACLE_MAX_MULTIPLE)[::2] if k % 2]
        triples = list(_s4_odd_multiples(ORACLE_MAX_MULTIPLE))
        assert len(triples) == len(odd) == 41
        for k, ((X, Y, e), point) in enumerate(zip(triples, odd)):
            assert gcd(X, e) == gcd(Y, e) == 1, 2 * k + 1
            assert (X, Y, e) == weighted(point), 2 * k + 1

    def test_two_and_17491_divide_only_denominators_of_even_multiples(self):
        # The multiples whose denominator a prime divides form a subgroup of
        # Z; these first 12 multiples pin 12Z for 2 and 4Z for 17491.  The
        # first is why the walk's shift by v_2(psi_k) leaves an odd multiple
        # in lowest terms; the second kept mixed_addition_walk's gcd whole.
        denominators = [weighted(point)[2] for _, point, _ in signed_solutions(12)[::2]]
        assert [k for k, e in enumerate(denominators, 1) if e % 2 == 0] == [12]
        assert [k for k, e in enumerate(denominators, 1) if e % 17491 == 0] == [4, 8, 12]

    def test_phi_and_psi_share_only_powers_of_two(self, psi):
        # 235 psi'_k^2 - 4 psi'_{k-1} psi'_{k+1} is phi_k / 2^(2k^2 - 2).
        for k in range(1, ORACLE_MAX_MULTIPLE + 1, 2):
            g = gcd(235 * psi[k] ** 2 - 4 * psi[k - 1] * psi[k + 1], psi[k])
            assert g & (g - 1) == 0, k

    def test_psi_halving_and_w_shift_are_exact(self, psi):
        for j in range(6, LONG_WALK + 3, 2):
            m = j // 2
            bracket = psi[m + 2] * psi[m - 1] ** 2 - psi[m - 2] * psi[m + 1] ** 2
            assert psi[m] * bracket % 2 == 0, j
        for k in range(1, LONG_WALK + 1, 2):
            before2 = psi[k - 2] if k > 1 else -1
            w = psi[k + 2] * psi[k - 1] ** 2 - before2 * psi[k + 1] ** 2
            v = (psi[k] & -psi[k]).bit_length() - 1
            assert (2 * w) % (1 << 3 * v) == 0, k

    def test_psi_is_the_short_model_psi_scaled(self, psi):
        # psi'_j = psi_j / 2^(j^2 - 1): the walk's sequence against the
        # short-model sequence it replaced.
        short = short_model_psi_seed()
        extend_short_model_psi(short, LONG_WALK + 2)
        assert len(short) == len(psi) == LONG_WALK + 3
        for j, (value, scaled) in enumerate(zip(short, psi)):
            assert value == scaled << max(j * j - 1, 0), j

    def test_seeds_are_the_division_polynomials_of_the_2_minimal_model(self):
        assert list(_S4_PSI_SEED) == weierstrass_psi_seed(MINIMAL_MODEL, *MINIMAL_SEED)
        # The general formulas give the short model's seeds at (235, 8).
        short = (0, 0, 0, -166779, 26215254)
        assert weierstrass_psi_seed(short, 235, 8) == short_model_psi_seed()

    def test_change_of_variables_carries_the_2_minimal_model_onto_the_curve(self):
        assert weierstrass_value(MINIMAL_MODEL, *MINIMAL_SEED) == 0
        assert to_short_model(*MINIMAL_SEED) == (235, 8)
        # Both sides are polynomials of degree <= 3 in x and <= 2 in y, so
        # agreeing on a 4 x 3 grid makes them equal; u = 2 gives the 2^6.
        for x in range(-2, 2):
            for y in range(-1, 2):
                sx, sy = to_short_model(x, y)
                short = sy * sy - (sx**3 - 166779 * sx + 26215254)
                assert short == 64 * weierstrass_value(MINIMAL_MODEL, x, y), (x, y)

    def test_psi_takes_both_signs_at_odd_k(self, psi):
        # The sign of Y follows the sign of psi_k, so both branches run.
        signs = {psi[k] > 0 for k in range(1, ORACLE_MAX_MULTIPLE + 1, 2)}
        assert signs == {True, False}

    def test_in_region_triple_gives_a_record_iff_on_the_curve(self):
        # _s4_solution's curve test is the record's one exact test: in the
        # region DioSolution's equation holds exactly on the curve.  The odd
        # multiples and their perturbations in Y that the chart still maps
        # into the region.
        on, off = 0, 0
        for X, Y, e in _s4_odd_multiples(41):
            for dy in (0, -1, 1, 2):
                if not in_region(X, Y + dy, e):
                    continue
                point = Point(Fraction(X, e * e), Fraction(Y + dy, e ** 3))
                if s4_curve().contains(point):
                    assert _s4_solution(X, Y + dy, e) is not None, (X, Y + dy, e)
                    on += 1
                else:
                    with pytest.raises(ValueError, match="^point is not on the s=4 curve$"):
                        _s4_solution(X, Y + dy, e)
                    off += 1
        assert (on, off) == (21, 3 * 21)

    def test_walk_records_pass_the_record_tests_they_skip(self):
        # The walk builds each record with no test of prod(parts) * n == b^4,
        # which its curve test implies; both checking constructors agree.
        walk = list(s4_solutions(ORACLE_MAX_MULTIPLE))
        assert len(walk) == (ORACLE_MAX_MULTIPLE + 1) // 2
        for sol in walk:
            assert DioSolution(sol.parts, sol.b) == sol, sol.parts
            assert DioSolution.from_parts(sol.parts) == sol, sol.parts

    def test_walk_is_the_mixed_addition_walk(self):
        assert list(_s4_odd_multiples(LONG_WALK)) == list(mixed_addition_walk(LONG_WALK))

    @pytest.mark.parametrize("code, lines", [
        ("from sumprodpower.cli import main; raise SystemExit(main("
         "['gen4', '--count', '3', '--max-multiple', '1000000000000']))", 3),
        ("from sumprodpower.transforms import _s4_odd_multiples; "
         "print(next(_s4_odd_multiples(10**12)))", 1),
    ], ids=["gen4", "next"])
    def test_walk_is_lazy(self, code, lines):
        # A walk that built psi up to max_multiple first would not return.
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(proc.stdout.splitlines()) == lines

    def test_region_failure_in_the_walk_is_loud(self, monkeypatch):
        monkeypatch.setattr("sumprodpower.transforms._s4_odd_multiples",
                            lambda m: iter([(235, 8, 1), (243, 192, 1)]))
        walk = s4_solutions(3)
        assert next(walk).sorted_parts == (1, 2, 24)
        with pytest.raises(ArithmeticError):
            next(walk)

    def test_off_curve_point_in_the_walk_is_loud(self, monkeypatch):
        # (235, 9) is in the region next to P: only the walk's curve test
        # keeps it from giving a record.
        monkeypatch.setattr("sumprodpower.transforms._s4_odd_multiples",
                            lambda m: iter([(235, 8, 1), (235, 9, 1)]))
        walk = s4_solutions(3)
        assert next(walk).sorted_parts == (1, 2, 24)
        with pytest.raises(ValueError, match="^point is not on the s=4 curve$"):
            next(walk)

    @pytest.mark.parametrize("text, reason", [
        ("1,1", "is not on the s=4 curve"),
        ("300,1", "is not on the s=4 curve"),  # and outside the region: membership first
        ("1/4,1/8", "is not on the s=4 curve"),  # of the form (X/e^2, Y/e^3)
        ("1/2,1/3", "is not on the s=4 curve"),  # not of that form
        # 3 * (235, 8) with y's denominator dropped.
        ("60266587/257049,3852230624", "is not on the s=4 curve"),
        ("243,192", "is outside the positive region (needs x < 243 and |y| < 6369 - 27x)"),
    ])
    def test_from_point_rejections(self, capsys, text, reason):
        code, out, err = run_gen4(capsys, f"--from-point={text}")
        assert (code, out) == (1, "")
        assert err == f"point ({text.replace(',', ', ')}) {reason}\n"

    def test_from_point_off_the_curve_in_the_region_next_to_on_it_outside(self, capsys):
        # The curve test runs on every point, before the region test: in the
        # region it rejects an off-curve point before any record is built,
        # and the on-curve (243, 192) passes it and reads "outside the
        # positive region".
        off = [Point(235, 7), Point(235, -9), Point(0, 0), Point(-400, 1),
               Point(Fraction(1, 4), Fraction(1, 8))]
        for point in off:
            assert point.x < 243 and abs(point.y) < 6369 - 27 * point.x
            assert not s4_curve().contains(point)
            with pytest.raises(ValueError, match="^point is not on the s=4 curve$"):
                s4_point_solution(*pairs(point))
        outside = Point(243, 192)
        assert s4_curve().contains(outside) and s4_point_solution(*pairs(outside)) is None
        for point in [*off, outside]:
            text = ",".join(format_rational(*c) for c in pairs(point))
            reason = ("is outside the positive region (needs x < 243 and |y| < 6369 - 27x)"
                      if point is outside else "is not on the s=4 curve")
            code, out, err = run_gen4(capsys, f"--from-point={text}")
            assert (code, out, err) == (1, "", f"point ({text.replace(',', ', ')}) {reason}\n")


def signed_text(value: int) -> str:
    """value with leading zeros and an explicit sign."""
    return f"+00{format_decimal(value)}" if value >= 0 else f"-00{format_decimal(-value)}"


def respellings(point, m: int) -> list[str]:
    """--from-point texts of point that are not its lowest-terms text: x
    scaled by m^2/m^2, y by m^3/m^3, both, x alone by m/m, y alone by m/m,
    and the lowest terms with leading zeros and '+'."""
    (X, d), (Y, t) = x, y = pairs(point)
    x2, y3 = (X * m * m, d * m * m), (Y * m ** 3, t * m ** 3)
    x1, y1 = (X * m, d * m), (Y * m, t * m)
    texts = [",".join(f"{format_decimal(p)}/{format_decimal(q)}" for p, q in coords)
             for coords in ((x2, y), (x, y3), (x2, y3), (x1, y), (x, y1))]
    texts.append(",".join(f"{signed_text(p)}/00{format_decimal(q)}" for p, q in (x, y)))
    return texts


class TestFromPoint:
    """gen4 --from-point reads the point as the pairs it was written as and
    tests it once, by the curve equation, before the region test."""

    def test_every_spelling_gives_the_lowest_terms_output(self, capsys):
        # Written in lowest terms with gcd(X, e) = 1, a point takes
        # s4_point_solution's one-gcd path; every other spelling is reduced
        # first, and must print the same bytes.
        # Both signs of each odd k <= 81 share one m, and m runs through
        # 2..9 along k, so each m, square or not, meets both signs.
        points = [point for k, point, _ in signed_solutions(ORACLE_MAX_MULTIPLE) if k % 2]
        assert len(points) == 82
        for i, point in enumerate(points):
            lowest = ",".join(format_rational(*c) for c in pairs(point))
            expected = run_gen4(capsys, f"--from-point={lowest}")
            assert expected[0] == 0 and expected[1].count("\n") == 1, lowest
            for text in respellings(point, 2 + i // 2 % 8):
                assert run_gen4(capsys, f"--from-point={text}") == expected, text

    @pytest.mark.parametrize("text, shown", [
        ("4/16,8/64", "1/4, 1/8"),  # reduced by gcd, then off the curve
        ("1/4,2/8", "1/4, 1/4"),  # x in lowest terms, y not: off the curve
    ])
    def test_unreduced_spellings_print_the_reduced_point(self, capsys, text, shown):
        code, out, err = run_gen4(capsys, f"--from-point={text}")
        assert (code, out, err) == (1, "", f"point ({shown}) is not on the s=4 curve\n")

    @pytest.mark.parametrize("x, y", [((1, 0), (1, 0)), ((235, -1), (8, 1)), ((235, 1), (-8, -1)),
                                      ((235, 1), (8, 0))])
    def test_a_denominator_below_one_is_refused(self, x, y):
        # The command line writes no such pair; (1/0, 1/0) would pass the
        # curve test with e = 0 and read as outside the region.
        with pytest.raises(ValueError, match="^a denominator of the point is not positive$"):
            s4_point_solution(x, y)

    def test_the_curve_test_alone_rejects_a_point_next_to_a_multiple(self, capsys):
        # +-kP with Y moved by -1, +1 or +2 stays in the region, so only the
        # curve test stands between these points and a record: no record
        # that s4_point_solution builds is tested again.
        rejected = 0
        for k, point, _ in signed_solutions(ORACLE_MAX_MULTIPLE):
            if k % 2 == 0:
                continue
            X, Y, e = weighted(point)
            for dy in (-1, 1, 2):
                if not in_region(X, Y + dy, e):
                    continue
                x, y = point.x, Fraction(Y + dy, e ** 3)  # y may be unreduced as written
                with pytest.raises(ValueError, match="^point is not on the s=4 curve$"):
                    s4_point_solution((X, e * e), (Y + dy, e ** 3))
                x, y = (format_rational(*c.as_integer_ratio()) for c in (x, y))
                text = f"{x},{format_decimal(Y + dy)}/{format_decimal(e ** 3)}"
                shown = f"{x}, {y}"
                assert run_gen4(capsys, f"--from-point={text}") == (
                    1, "", f"point ({shown}) is not on the s=4 curve\n"), text
                rejected += 1
        assert rejected == 3 * 82


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(max_multiple=st.integers(1, ORACLE_MAX_MULTIPLE), count=st.integers(1, 42),
           flags=st.sampled_from(FLAG_SETS))
    def test_gen4_output_verifies(self, max_multiple, count, flags):
        fmt = "tsv" if "tsv" in flags else "jsonl"
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["gen4", "--count", str(count), "--max-multiple", str(max_multiple),
                             *flags])
        out, err = out.getvalue(), err.getvalue()
        available = (max_multiple + 1) // 2
        records = [parse_line(line, fmt) for line in out.splitlines()]
        assert len(records) == min(count, available)
        assert code == (0 if count <= available else 3)
        assert err.count("\n") == (code == 3)
        for s, parts, n, b in records:
            assert s == 4 and min(parts) > 0 and n == sum(parts)
            assert prod(parts) * n == b ** 4
        assert len({parts for _, parts, _, _ in records}) == len(records)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(0, ORACLE_MAX_MULTIPLE // 2).map(lambda i: 2 * i + 1),
           sign=st.sampled_from((1, -1)), primitive=st.booleans())
    def test_chart_round_trips(self, k, sign, primitive):
        _, point, _ = signed_solutions(k)[2 * k - 1 if sign < 0 else 2 * k - 2]
        sol = s4_point_solution(*pairs(point))
        if primitive:
            sol = primitive_reduce(sol)
        assert s4_forward(BVector.from_solution(sol)) == point
