"""Acceptance suite: one test per criterion, each ending in a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
stream; without -s they appear in the captured output of failing tests only.
"""

import json
import random
import time
from fractions import Fraction
from math import prod

from certificates import (
    INFINITY,
    Point,
    Poly,
    WeierstrassCurve,
    base_point,
    certify_infinite_order,
    check_table_membership,
    clear_denominators,
    doubled_point,
    family_params,
    family_uvt,
    negate,
    primitive_reduce,
    quadrupled_point,
    quartic_to_weierstrass,
    remainder_certificate,
    scalar_mul,
    weierstrass_model,
    weierstrass_to_quartic,
)
from conftest import TABLE_S5, TABLE_S6, random_positive_fraction, table_rows
from gen4_oracle import BVector, s4_curve, s4_forward, s4_in_positive_region, s4_inverse
from sumprodpower import DioSolution, SearchSpec, general_solution
from sumprodpower.cli import main

# The two worked s=4 points: the non-integral infinite-order witness and the
# example point (equal to three times the seed (235, 8)) that maps to the
# large published solution.
WITNESS_POINT = Point(Fraction(30507, 121), Fraction(-584592, 1331))
EXAMPLE_POINT = Point(Fraction(60266587, 257049), Fraction(3852230624, 130323843))
EXAMPLE_PARTS = (18609625, 138991832, 781943058)


def _report(number: int, label: str, elapsed: float | None = None) -> None:
    timing = f" [{elapsed:.4f} s]" if elapsed is not None else ""
    print(f"criterion {number:2d}: PASS - {label}{timing}")


def _run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_01_seed_verification(capsys):
    code, out = _run_cli(capsys, "verify", "--s", "4", "--parts", "1,2,24")
    assert code == 0
    record = json.loads(out)
    assert record["b"] == 6 and record["n"] == 27
    times = []
    for _ in range(5):
        start = time.perf_counter()
        code = main(["verify", "--s", "4", "--parts", "1,2,24"])
        times.append(time.perf_counter() - start)
        assert code == 0
    capsys.readouterr()
    elapsed = min(times)
    assert elapsed < 0.001, f"verification took {elapsed:.6f} s"
    _report(1, "verify accepts (1, 2, 24) with b = 6 in under 1 ms", elapsed)


def test_criterion_02_table_verification(capsys):
    start = time.perf_counter()
    for s, table in ((5, TABLE_S5), (6, TABLE_S6)):
        for parts, b, n in table:
            sol = DioSolution.from_parts(parts)
            assert (sol.s, sol.b, sol.n) == (s, b, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.010, f"20-row verification took {elapsed:.6f} s"
    # the CLI surface agrees row by row
    for s, table in ((5, TABLE_S5), (6, TABLE_S6)):
        for parts, b, n in table:
            code, out = _run_cli(
                capsys, "verify", "--s", str(s), "--parts", ",".join(map(str, parts))
            )
            assert code == 0
            record = json.loads(out)
            assert (record["b"], record["n"]) == (b, n)
    _report(2, "all 20 table rows verify with the printed b and n", elapsed)


def test_criterion_03_table_search_reproduction():
    start = time.perf_counter()
    report6 = check_table_membership(table_rows(6), SearchSpec(6, 96))
    elapsed6 = time.perf_counter() - start
    assert report6.all_present, f"missing s=6 rows: {report6.missing}"
    assert elapsed6 < 60, f"s=6 serial search took {elapsed6:.1f} s"

    start = time.perf_counter()
    report5 = check_table_membership(table_rows(5), SearchSpec(5, 288, jobs=4))
    elapsed5 = time.perf_counter() - start
    assert report5.all_present, f"missing s=5 rows: {report5.missing}"
    assert elapsed5 < 120, f"s=5 search with jobs=4 took {elapsed5:.1f} s"
    _report(3, "search reproduces every table row (s=6 within 96, s=5 within 288)",
            elapsed6 + elapsed5)


def test_criterion_04_s3_negative_result(capsys):
    start = time.perf_counter()
    code, out = _run_cli(capsys, "s3", "--brute-max", "10000")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "integral candidates (y = 0 or y | disc): (0, -4), (0, 4)" in out
    assert "positive preimages among candidates: 0" in out
    assert "brute force a1 + a2 <= 10000: 0 solutions" in out
    assert out.count("on y^2 = x^3 + 64: yes") == 5
    assert elapsed < 60, f"s=3 analysis took {elapsed:.1f} s"
    _report(4, "s=3 analysis: candidates {(0, +-4)}, no positive trace-back, "
               "no brute-force solution up to 10^4", elapsed)


def test_criterion_05_s4_generator(capsys):
    curve = s4_curve()
    # k = 1 gives the seed solution
    seed_sol = primitive_reduce(clear_denominators(s4_inverse(Point(235, 8))))
    assert seed_sol.sorted_parts == (1, 2, 24)

    # the published example point: on the curve, inside the region, and it
    # clears (after primitive reduction, as a multiset) to the printed parts
    assert curve.contains(EXAMPLE_POINT)
    assert s4_in_positive_region(EXAMPLE_POINT)
    example_sol = primitive_reduce(clear_denominators(s4_inverse(EXAMPLE_POINT)))
    assert example_sol.sorted_parts == EXAMPLE_PARTS

    # the non-integral witness is on the curve (its role is the infinite-order
    # certificate; it sits outside the positive region, x > 243)
    assert curve.contains(WITNESS_POINT)
    assert not s4_in_positive_region(WITNESS_POINT)

    # the generator reaches three distinct verified solutions within 25 multiples
    code, out = _run_cli(capsys, "gen4", "--count", "3", "--max-multiple", "25")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 3
    assert len({tuple(r["parts"]) for r in records}) == 3
    assert records[0]["parts"] == [1, 2, 24]
    assert records[1]["parts"] == list(EXAMPLE_PARTS)
    for r in records:
        sol = DioSolution.from_parts(tuple(r["parts"]))
        assert (sol.n, sol.b) == (r["n"], r["b"])
    _report(5, "s=4 generator: k=1 gives {1, 2, 24}; example point maps to the "
               "published triple; 3 distinct solutions within k <= 25")


def test_criterion_06_infinite_order_certificates():
    assert certify_infinite_order(s4_curve(), WITNESS_POINT)
    mordell64 = WeierstrassCurve(0, 0, 64)
    torsion = Point(0, 8)
    assert scalar_mul(mordell64, 3, torsion) == INFINITY
    assert not certify_infinite_order(mordell64, torsion)
    _report(6, "infinite order certified for the witness point; (0, 8) on "
               "y^2 = x^3 + 64 is 3-torsion")


def test_criterion_07_closed_forms_match_group_law():
    rng = random.Random(7)
    start = time.perf_counter()
    for _ in range(10):
        s = rng.randint(5, 8)
        tail = tuple(random_positive_fraction(rng) for _ in range(s - 4))
        params = family_params(s, tail, random_positive_fraction(rng))
        curve = weierstrass_model(params)
        p = base_point(params)
        p2, p4 = doubled_point(params), quadrupled_point(params)
        assert curve.contains(p) and curve.contains(p2) and curve.contains(p4)
        assert p2 == scalar_mul(curve, 2, p)
        assert p4 == scalar_mul(curve, 4, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"closed-form check took {elapsed:.1f} s"
    _report(7, "closed doubled/quadrupled points equal the group-law multiples "
               "for 10 random parameter choices", elapsed)


def test_criterion_08_remainder_certificate():
    rng = random.Random(8)
    start = time.perf_counter()
    for _ in range(10):
        u = random_positive_fraction(rng)
        v = random_positive_fraction(rng)
        rem = remainder_certificate(u, v)
        assert rem == Poly([2 * u ** 3 * v ** 8, 0, 3 * u ** 4 * v ** 8])
        assert not rem.is_zero
    elapsed = time.perf_counter() - start
    assert elapsed < 1, f"remainder certificates took {elapsed:.1f} s"
    _report(8, "division remainder equals u^3 v^8 (3 u t0^2 + 2) for 10 random "
               "positive (u, v)", elapsed)


def test_criterion_09_s5_family(capsys):
    start = time.perf_counter()
    code, out = _run_cli(capsys, "family", "--s", "5", "--t1", "1", "--t2", "1")
    assert code == 0
    record = json.loads(out)
    assert record["parts"] == [2, 28, 49, 49] and record["b"] == 28 and record["n"] == 128

    code, out = _run_cli(capsys, "family", "--s", "5", "--t1", "2", "--t2", "1")
    assert code == 0
    record = json.loads(out)
    assert record["n"] == 2000 and record["b"] == 360
    assert record["parts"] == [20, 324, 360, 1296]

    code, out = _run_cli(capsys, "family", "--s", "5", "--t1", "2", "--t2", "1", "--primitive")
    assert code == 0
    record = json.loads(out)
    assert record["parts"] == [5, 81, 90, 324] and record["b"] == 90 and record["n"] == 500
    elapsed = time.perf_counter() - start
    assert elapsed < 0.010, f"family instantiation took {elapsed:.6f} s"
    _report(9, "s=5 family gives 128 = 2+49+49+28 (b=28) and the 2000 "
               "decomposition reducing to 500 = 5+81+324+90 (b=90)", elapsed)


def test_criterion_10_structural_identities():
    rng = random.Random(10)
    # 100 random family solutions across s in {5..9} satisfy the power identity
    produced = 0
    while produced < 100:
        s = rng.randint(5, 9)
        tail = tuple(random_positive_fraction(rng, upper=5) for _ in range(s - 4))
        t0 = random_positive_fraction(rng, upper=5)
        params = family_params(s, tail, t0)
        u, v, _ = family_uvt(params)
        if 4 * u * t0 ** 2 - u * v ** 2 * t0 + 4 <= 0:
            continue
        sol = general_solution(params)
        assert prod(sol.parts) * sol.n == sol.b ** sol.s
        produced += 1

    # s=4 chart roundtrip on random multiples of the seed
    curve = s4_curve()
    seed = Point(235, 8)
    for k in range(1, 9):
        point = scalar_mul(curve, k, seed)
        if point.x == 243:
            continue
        for q in (point, negate(point)):
            assert s4_forward(BVector(4, s4_inverse(q))) == q

    # birational roundtrip on random non-exceptional points
    for _ in range(10):
        s = rng.randint(5, 7)
        tail = tuple(random_positive_fraction(rng) for _ in range(s - 4))
        params = family_params(s, tail, random_positive_fraction(rng))
        curve = weierstrass_model(params)
        q = scalar_mul(curve, rng.choice([1, 2, 3, -2]), base_point(params))
        if q.is_infinity or q.x == 0:
            continue
        assert quartic_to_weierstrass(params, weierstrass_to_quartic(params, q)) == q
    _report(10, "power identity on 100 random family solutions; chart and "
                "birational roundtrips are exact")
