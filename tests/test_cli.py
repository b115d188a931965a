import argparse
import inspect
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certificates import (
    add,
    family_params,
    fraction_general_solution,
    nagell_lutz_candidates,
    positivity_value,
)
from conftest import TABLE_S5, TABLE_S6
from gen4_oracle import SEED, oracle_walk, s4_curve, signed_solutions
from root_oracle import oracle_format_decimal
from sumprodpower import DioSolution, cli, family, search, transforms
from sumprodpower.cli import main
from sumprodpower.exactmath import _DECIMAL_DIGITS, format_decimal, format_rational, parse_decimal
from test_exactmath import no_digit_limit
from test_imports import RUN_CLI, cold_run

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(out: str) -> list[dict]:
    return [json.loads(line) for line in out.strip().splitlines()]


class TestVerify:
    def test_seed_solution(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--s", "4", "--parts", "1,2,24")
        assert code == 0
        (record,) = parse_jsonl(out)
        assert record == {"s": 4, "parts": [1, 2, 24], "n": 27, "b": 6, "source": "verify"}

    def test_table_row(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--s", "6", "--parts", "1,9,12,18,24")
        assert code == 0
        (record,) = parse_jsonl(out)
        assert (record["b"], record["n"]) == (12, 64)

    def test_not_a_solution(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--s", "4", "--parts", "1,2,25")
        assert (code, out, err) == (1, "", "not a solution: 1400 is not a perfect 4-th power\n")

    def test_s_in_the_thousands_is_one_line(self, capsys):
        # prod(parts) * n = 2**5000 * 4999 is past exactmath's split size,
        # with an odd part of 13 bits and a root of one bit at most.
        code, out, err = run_cli(capsys, "verify", "--s", "5000", "--parts", ",".join(["2"] * 4999))
        value = format_decimal(2 ** 5000 * 4999)
        assert (code, out, err) == (1, "", f"not a solution: {value} is not a perfect 5000-th power\n")

    def test_accepted_verify_evaluates_the_identity_once(self, capsys, monkeypatch):
        # from_parts tests prod(parts) * n == b**s from the root alone; the
        # constructor's check would take a second prod of the parts.
        calls = []

        def counted(parts):
            calls.append(tuple(parts))
            return prod(parts)

        monkeypatch.setattr(transforms, "prod", counted)
        code, out, err = run_cli(capsys, "verify", "--s", "5", "--parts", "1,4,20,25")
        assert (code, err) == (0, "") and parse_jsonl(out)[0]["b"] == 10
        assert calls == [(1, 4, 20, 25)]

    def test_rejected_verify_evaluates_the_identity_once(self, capsys, monkeypatch):
        # With gcd(parts) = 1 the value whose root was refused is the one the
        # message names, so the rejection takes no second prod either.
        calls = []

        def counted(parts):
            calls.append(tuple(parts))
            return prod(parts)

        monkeypatch.setattr(transforms, "prod", counted)
        code, out, err = run_cli(capsys, "verify", "--s", "4", "--parts", "1,2,25")
        assert (code, out, err) == (1, "", "not a solution: 1400 is not a perfect 4-th power\n")
        assert calls == [(1, 2, 25)]

    def test_verify_takes_the_root_of_the_primitive_solution(self, capsys, monkeypatch):
        # The parts of a scaled solution are divided by their gcd before the
        # root: the root is taken of the seed's 1296 = 6^4, not of
        # 1296 * lam^4, and b comes back as 6 * lam.
        roots, root = [], transforms.perfect_sth_power

        def recorded(m, s):
            roots.append((m, s))
            return root(m, s)

        monkeypatch.setattr(transforms, "perfect_sth_power", recorded)
        lam = 10 ** 999 + 7
        parts = ",".join(str(k * lam) for k in (1, 2, 24))
        code, out, err = run_cli(capsys, "verify", "--s", "4", "--parts", parts, "--format", "tsv")
        assert (code, err) == (0, "")
        assert out == f"{lam}\t{2 * lam}\t{24 * lam}\t{6 * lam}\t{27 * lam}\n"
        assert roots == [(1296, 4)]

    def test_long_primitive_verify_takes_no_gcd(self, capsys, monkeypatch):
        # A gen4 record is primitive: the leading bits of its parts show no
        # large common factor, so from_parts takes no gcd, whose cost is
        # quadratic, and roots the whole value.
        *_, sol = transforms.s4_solutions(13)
        gcds, roots, root = [], [], transforms.perfect_sth_power

        def recorded(m, s):
            roots.append((m, s))
            return root(m, s)

        monkeypatch.setattr(transforms, "gcd", lambda *parts: gcds.append(parts) or gcd(*parts))
        monkeypatch.setattr(transforms, "perfect_sth_power", recorded)
        parts = ",".join(map(str, sol.sorted_parts))
        code, out, err = run_cli(capsys, "verify", "--s", "4", "--parts", parts, "--format", "tsv")
        assert (code, err) == (0, "")
        assert out == "\t".join(map(str, (*sol.sorted_parts, sol.b, sol.n))) + "\n"
        assert min(sol.parts).bit_length() > 500
        assert (gcds, roots) == ([], [(prod(sol.parts) * sol.n, 4)])

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--s", "4", "--parts", "1,2")
        assert code == 2
        assert "expected 3 parts" in err

    def test_malformed_parts_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--s", "4", "--parts", "1,x,3")
        assert code == 2

    def test_nonpositive_part_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--s", "4", "--parts", "1,-2,24")
        assert code == 2

    @pytest.mark.parametrize("argv, flag", [
        (("verify", "--s", "4", "--parts", "1,,2,24"), "--parts"),
        (("verify", "--s", "4", "--parts", "1,2,24,"), "--parts"),
        (("gen4", "--from-point", "235,,8"), "--from-point"),
        (("family", "--s", "6", "--tail", ",1,1", "--t0", "1"), "--tail"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_empty_list_entry_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and f"error: argument {flag}: " in err

    def test_tsv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--s", "4", "--parts", "24,2,1", "--format", "tsv")
        assert code == 0
        assert out.strip() == "1\t2\t24\t6\t27"

    @pytest.mark.parametrize("parts, b, n", TABLE_S5 + TABLE_S6)
    def test_all_table_rows(self, capsys, parts, b, n):
        s = len(parts) + 1
        code, out, _ = run_cli(capsys, "verify", "--s", str(s), "--parts", ",".join(map(str, parts)))
        assert code == 0
        (record,) = parse_jsonl(out)
        assert (record["b"], record["n"]) == (b, n)


class TestBeyondTheDigitLimit:
    """Decimals longer than Python's default 4300-digit int<->str limit."""

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    def test_verify_accepts_long_parts(self, capsys, fmt):
        scale = parse_decimal("9" * 5000)
        parts = (24 * scale, scale, 2 * scale)
        code, out, err = run_cli(capsys, "verify", "--s", "4", "--format", fmt,
                                 "--parts", ",".join(map(format_decimal, parts)))
        assert (code, err) == (0, "")
        if fmt == "tsv":
            fields = [parse_decimal(v) for v in out.rstrip("\n").split("\t")]
        else:
            record = json.loads(out, parse_int=parse_decimal)
            fields = [*record["parts"], record["b"], record["n"]]
        assert fields == [scale, 2 * scale, 24 * scale, 6 * scale, 27 * scale]

    def test_verify_rejection_prints_a_long_value(self, capsys):
        scale = 10 ** 1100 + 1
        parts = ",".join(map(format_decimal, (scale, 2 * scale, 25 * scale)))
        code, out, err = run_cli(capsys, "verify", "--s", "4", "--parts", parts)
        assert (code, out) == (1, "")
        value = err.removeprefix("not a solution: ").removesuffix(" is not a perfect 4-th power\n")
        assert parse_decimal(value) == 1400 * scale ** 4

    def test_gen4_prints_long_records(self, capsys):
        code, out, err = run_cli(capsys, "gen4", "--count", "40", "--max-multiple", "80")
        assert (code, err) == (0, "")
        records = [json.loads(line, parse_int=parse_decimal) for line in out.splitlines()]
        assert [(r["parts"], r["n"], r["b"]) for r in records] == [
            (list(sol.sorted_parts), sol.n, sol.b) for _, sol in oracle_walk(80, False)
        ]
        assert len(out.splitlines()[-1]) > 4300

    def test_gen4_records_past_the_decimal_range_read_back_with_int(self, capsys):
        # The numbers of the last three records have 19,870 to 20,983 digits,
        # past _DECIMAL_DIGITS, where format_decimal turns to decimal.  The
        # lines are read back with int() under a lifted digit limit, not with
        # the package.
        code, out, err = run_cli(capsys, "gen4", "--count", "75", "--max-multiple", "150",
                                 "--format", "tsv")
        assert (code, err) == (0, "")
        with no_digit_limit():
            records = [[int(column) for column in line.split("\t")] for line in out.splitlines()]
        assert len(records) == 75
        for *parts, b, n in records:
            assert len(parts) == 3 and prod(parts) * n == b ** 4
        assert max(map(len, out.split())) > _DECIMAL_DIGITS

    def test_cold_gen4_at_the_probe_size_loads_no_decimal(self):
        # Its longest numbers are past the interpreter's digit limit and
        # inside format_decimal's split range.
        lines, err, loaded = cold_run(RUN_CLI, "gen4", "--count", "40", "--max-multiple", "80")
        assert (len(lines), lines[-1], err) == (41, "0", "")
        record = json.loads(lines[-2], parse_int=len)  # each number's digit count
        assert 4300 < max(*record["parts"], record["n"], record["b"]) < _DECIMAL_DIGITS
        # From Python 3.12, a divmod of ints this long goes through the
        # interpreter's _pylong, which imports decimal itself.
        by_divmod = cold_run("divmod(10 ** 5900, 10 ** 2944)")[2]
        assert "decimal" not in loaded - by_divmod

    def test_cold_verify_past_the_split_range_prints_the_oracle_bytes(self):
        scale = 10 ** _DECIMAL_DIGITS + 7
        parts = [oracle_format_decimal(a * scale) for a in (1, 2, 24)]
        lines, err, loaded = cold_run(RUN_CLI, "verify", "--s", "4", "--parts", ",".join(parts))
        n, b = oracle_format_decimal(27 * scale), oracle_format_decimal(6 * scale)
        record = f'{{"s": 4, "parts": [{", ".join(parts)}], "n": {n}, "b": {b}, "source": "verify"}}'
        assert (lines, err) == ([record, "0"], "")
        assert "decimal" in loaded

    def test_from_point_of_a_long_multiple(self, capsys):
        # 85 * (235, 8), whose x-numerator has 4554 digits; the walk of
        # gen4 --max-multiple 85 generates it last.
        _, point, _ = signed_solutions(81)[-2]
        double = add(s4_curve(), SEED, SEED)
        point = add(s4_curve(), add(s4_curve(), point, double), double)
        assert len(format_decimal(point.x.numerator)) == 4554
        code, out, err = run_cli(capsys, "gen4", "--count", "43", "--max-multiple", "85")
        assert (code, err) == (0, "")
        last = out.splitlines(keepends=True)[-1]
        text = ",".join(format_rational(*c.as_integer_ratio()) for c in (point.x, point.y))
        assert run_cli(capsys, "gen4", "--from-point", text) == (0, last, "")

    @pytest.mark.parametrize("x", ["1" * 5000, "1/" + "3" * 5000])
    def test_from_point_off_curve_with_a_long_coordinate(self, capsys, x):
        code, out, err = run_cli(capsys, "gen4", "--from-point", f"{x},1")
        assert (code, out) == (1, "")
        assert err == f"point ({x}, 1) is not on the s=4 curve\n"

    def test_family_names_a_long_positivity_value(self, capsys):
        tail = "1" * 5000
        code, out, err = run_cli(capsys, "family", "--s", "5", "--tail", tail, "--t0", "1")
        assert (code, out) == (1, "")
        d = positivity_value(family_params(5, (parse_decimal(tail),), 1))
        shown = format_rational(*d.as_integer_ratio())
        assert d < 0 and len(shown) > 4300
        assert err == f"positivity quadratic is not positive: D = {shown}\n"

    def test_gen4_names_a_long_count(self, capsys):
        count = "9" * 5000
        code, out, err = run_cli(capsys, "gen4", "--count", count, "--max-multiple", "3")
        assert (code, len(out.splitlines())) == (3, 2)
        assert err == f"budget exhausted: found 2 of {count} solutions within 3 multiples\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "--parts", "1,2"), "expected {s_minus_1} parts for s={s}, got 2"),
            (("search", "--max-n", "10"), "--max-n must be at least {s_minus_1}"),
            (("family", "--tail", "1", "--t0", "1"), "expected {s_minus_4} tail entries, got 1"),
        ],
        ids=["verify", "search", "family"],
    )
    def test_usage_error_names_a_long_s(self, capsys, argv, message):
        s = "9" * 5000
        code, out, err = run_cli(capsys, argv[0], "--s", s, *argv[1:])
        assert (code, out) == (2, "")
        fields = {"s": s, "s_minus_1": s[:-1] + "8", "s_minus_4": s[:-1] + "5"}
        assert err == f"error: {message.format(**fields)}\n"


class TestGen4:
    def test_first_three_solutions(self, capsys):
        code, out, _ = run_cli(capsys, "gen4", "--count", "3")
        assert code == 0
        records = parse_jsonl(out)
        assert len(records) == 3
        assert records[0]["parts"] == [1, 2, 24] and records[0]["b"] == 6
        assert records[1]["parts"] == sorted([781943058, 138991832, 18609625])
        assert all(r["source"] == "gen4" for r in records)
        # distinct multisets
        assert len({tuple(r["parts"]) for r in records}) == 3

    def test_records_feed_back_through_verify(self, capsys):
        code, out, _ = run_cli(capsys, "gen4", "--count", "3", "--primitive")
        assert code == 0
        for record in parse_jsonl(out):
            code, out2, _ = run_cli(
                capsys,
                "verify",
                "--s",
                str(record["s"]),
                "--parts",
                ",".join(str(a) for a in record["parts"]),
            )
            assert code == 0
            (check,) = parse_jsonl(out2)
            assert check["b"] == record["b"] and check["n"] == record["n"]
        # The last record of a 40-record walk, whose parts run past Python's
        # 4300-digit int/str limit, goes back through verify as tsv.
        code, out, _ = run_cli(capsys, "gen4", "--count", "40", "--max-multiple", "80",
                               "--format", "tsv")
        assert code == 0
        *parts, b, _ = out.splitlines()[-1].split("\t")
        assert len(",".join(parts)) > 13000
        code, out, err = run_cli(capsys, "verify", "--s", "4", "--parts", ",".join(parts),
                                 "--format", "tsv")
        assert (code, err) == (0, "")
        assert out.rstrip("\n").split("\t")[3] == b

    def test_from_point_inside_region(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen4", "--from-point", "60266587/257049,3852230624/130323843"
        )
        assert code == 0
        (record,) = parse_jsonl(out)
        assert record["parts"] == sorted([781943058, 138991832, 18609625])
        # 3P is the walk's second record, byte for byte.
        code, walk, _ = run_cli(capsys, "gen4", "--count", "2")
        assert (code, walk.splitlines(keepends=True)[-1]) == (0, out)

    def test_from_point_outside_region(self, capsys):
        code, out, err = run_cli(capsys, "gen4", "--from-point", "30507/121,-584592/1331")
        assert code == 1
        assert out == ""
        assert "outside the positive region" in err

    def test_from_point_off_curve(self, capsys):
        code, out, err = run_cli(capsys, "gen4", "--from-point", "1,1")
        assert (code, out, err) == (1, "", "point (1, 1) is not on the s=4 curve\n")

    def test_budget_exhausted(self, capsys):
        code, out, err = run_cli(capsys, "gen4", "--count", "5", "--max-multiple", "1")
        assert code == 3
        assert len(parse_jsonl(out)) == 1  # partial output: the seed solution
        assert "budget exhausted" in err

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 25])
    @pytest.mark.parametrize("c", [1, 2, 3, 5, 13])
    def test_count_stops_the_walk_at_multiple_2c_minus_1(self, capsys, c, m, fmt):
        # One record per odd multiple: --count c needs the multiples up to
        # 2c - 1, and --max-multiple m holds ceil(m / 2) of them.
        code, out, err = run_cli(capsys, "gen4", "--count", str(c), "--max-multiple", str(m),
                                 "--format", fmt)
        found = min(c, (m + 1) // 2)
        assert out == "".join(cli.render(sol, "gen4", fmt) + "\n"
                              for sol in list(transforms.s4_solutions(m))[:found])
        if 2 * c - 1 <= m:
            assert (code, err) == (0, "")
        else:
            assert code == 3
            assert err == f"budget exhausted: found {found} of {c} solutions within {m} multiples\n"

    def test_count_required(self, capsys):
        code, _, err = run_cli(capsys, "gen4")
        assert code == 2
        assert "--count" in err

    @pytest.mark.parametrize("argv", [
        ("--from-point=235,8", "--count", "5"),
        ("--count=1", "--from-point", "235,8"),
        ("--from-point=1,1", "--count", "1"),  # refused before the point is mapped
    ])
    def test_count_and_from_point_are_mutually_exclusive(self, capsys, argv):
        assert run_cli(capsys, "gen4", *argv) == (
            2, "", "error: --count and --from-point are mutually exclusive\n")


class TestFamily:
    def test_closed_form_unit(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--s", "5", "--t1", "1", "--t2", "1")
        assert code == 0
        (record,) = parse_jsonl(out)
        assert record["parts"] == [2, 28, 49, 49] and record["b"] == 28 and record["n"] == 128

    def test_closed_form_reduces_to_500(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--s", "5", "--t1", "2", "--t2", "1")
        (record,) = parse_jsonl(out)
        assert record["n"] == 2000 and record["b"] == 360
        code, out, _ = run_cli(
            capsys, "family", "--s", "5", "--t1", "2", "--t2", "1", "--primitive"
        )
        (record,) = parse_jsonl(out)
        assert record["parts"] == [5, 81, 90, 324] and record["b"] == 90 and record["n"] == 500

    def test_general_pipeline_s6(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--s", "6", "--tail", "1,1", "--t0", "1")
        assert code == 0
        (record,) = parse_jsonl(out)
        assert record["parts"] == [1, 1, 2, 2, 2] and record["b"] == 2

    def test_rational_t0(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--s", "5", "--tail", "1/2", "--t0", "3/2")
        assert code == 0
        (record,) = parse_jsonl(out)
        assert record["source"] == "family"

    def test_positivity_failure_names_the_value(self, capsys):
        for argv, d in ((("--s", "5", "--t1", "1", "--t2", "3"), "-11"),
                        (("--s", "6", "--tail", "1,3", "--t0", "2"), "-44")):
            code, out, err = run_cli(capsys, "family", *argv)
            assert (code, out, err) == (1, "", f"positivity quadratic is not positive: D = {d}\n")

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    @pytest.mark.parametrize("t1, t2, code", [(2, 1, 0), (7, 3, 0), (1, 3, 1), (2, 5, 1)])
    def test_primitive_closed_form_is_the_tail_member(self, capsys, t1, t2, code, fmt):
        # --t1 A --t2 B --primitive is the member --tail B --t0 A, byte for byte.
        expected = run_cli(capsys, "family", "--s", "5", "--tail", str(t2), "--t0", str(t1),
                           "--format", fmt)
        assert expected[0] == code
        assert run_cli(capsys, "family", "--s", "5", "--t1", str(t1), "--t2", str(t2),
                       "--primitive", "--format", fmt) == expected

    @pytest.mark.parametrize("spelled, lowest, code", [
        (("--s", "6", "--tail", "2/4,6/2", "--t0", "14/6"),  # D = -149/24
         ("--s", "6", "--tail", "1/2,3", "--t0", "7/3"), 1),
        (("--s", "6", "--tail", "2/2,+6/2", "--t0", "8/4"),  # D = -44
         ("--s", "6", "--tail", "1,3", "--t0", "2"), 1),
        (("--s", "7", "--tail", "3/6,+4/2,06/10", "--t0", "14/6", "--format", "tsv"),
         ("--s", "7", "--tail", "1/2,2,3/5", "--t0", "7/3", "--format", "tsv"), 0),
    ])
    def test_any_spelling_of_a_member_gives_its_bytes(self, capsys, spelled, lowest, code):
        expected = run_cli(capsys, "family", *lowest)
        assert expected[0] == code
        assert run_cli(capsys, "family", *spelled) == expected

    def test_one_tail_op_runs_no_fraction_arithmetic(self, capsys, monkeypatch):
        # The closed form runs in integers: one FamilyParams, one DioSolution
        # and no Fraction operator, while the record is the Fraction chain's.
        argv = ("--s", "7", "--tail", "1/2,2,3/5", "--t0", "7/3")
        params = family_params(7, (Fraction(1, 2), Fraction(2), Fraction(3, 5)), Fraction(7, 3))
        expected = cli.render(fraction_general_solution(params), "family", "jsonl") + "\n"
        calls = {"FamilyParams": 0, "DioSolution": 0}

        def counted(cls, name):
            init = cls.__init__

            def counting_init(self, *args):
                calls[name] += 1
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting_init)

        counted(family.FamilyParams, "FamilyParams")
        counted(transforms.DioSolution, "DioSolution")

        def refuse(*args):
            raise AssertionError("Fraction arithmetic ran")

        for op in ("add", "sub", "mul", "truediv", "pow"):
            monkeypatch.setattr(Fraction, f"__{op}__", refuse)
            monkeypatch.setattr(Fraction, f"__r{op}__", refuse)
        assert run_cli(capsys, "family", *argv) == (0, expected, "")
        assert calls == {"FamilyParams": 1, "DioSolution": 1}

    def test_lenient_number_is_a_prompt_usage_error(self, capsys):
        # Fraction("1e1000000") would be 10**1000000, and the record that
        # follows from it takes minutes to compute and print.
        for t0 in ("1e3", "1e1000000"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "family", "--s", "5", "--tail", "1", "--t0", t0)
            elapsed = time.perf_counter() - start
            assert (code, out) == (2, "")
            assert [line for line in err.splitlines() if "error:" in line] == [
                f"sumprodpower family: error: argument --t0: not a rational p/q: '{t0}'"
            ]
            assert elapsed < 1.0

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "family", "--s", "5", "--t1", "1")[0] == 2
        assert run_cli(capsys, "family", "--s", "6", "--t1", "1", "--t2", "1")[0] == 2
        assert run_cli(capsys, "family", "--s", "5")[0] == 2
        assert run_cli(capsys, "family", "--s", "6", "--tail", "1", "--t0", "1")[0] == 2
        assert (
            run_cli(capsys, "family", "--s", "5", "--t1", "1", "--t2", "1", "--tail", "1")[0] == 2
        )


class TestSearch:
    def test_tsv_rows_up_to_50(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--s", "5", "--max-n", "50")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[-1] == "1\t4\t20\t25\t10\t50"

    def test_s6_rows_up_to_36(self, capsys):
        # The reference table lists four rows with n <= 36, but it is not
        # exhaustive: the full enumeration also finds scaled copies of the
        # n = 8 seed and further primitive solutions such as (2, 2, 6, 8, 9).
        code, out, _ = run_cli(capsys, "search", "--s", "6", "--max-n", "36")
        assert code == 0
        lines = out.strip().splitlines()
        table_rows_36 = {
            "1\t1\t2\t2\t2\t2\t8",
            "1\t6\t6\t6\t8\t6\t27",
            "1\t1\t9\t9\t16\t6\t36",
            "1\t2\t3\t12\t18\t6\t36",
        }
        assert table_rows_36 <= set(lines)
        assert "2\t2\t6\t8\t9\t6\t27" in lines
        # Up to 100, --jobs 2 prints the serial run's bytes.
        serial = run_cli(capsys, "search", "--s", "6", "--max-n", "100")
        assert serial[0] == 0 and serial[1]
        assert run_cli(capsys, "search", "--s", "6", "--max-n", "100", "--jobs", "2") == serial

    # Bounds past the reach of tests/search_oracle.py, with their record and
    # primitive record counts.  The counts are the program's own output,
    # pinned as a regression check; what shows that no record is missing is
    # the closure below.  The system is homogeneous: scaling the parts by k
    # scales b and n by k, and g = gcd(parts) divides b.  A lower sum bound
    # and a part bound must select records from the full run, in its order:
    # these runs prune differently, so each checks the others' pruning.
    @pytest.mark.parametrize("s, max_n, records, primitive", [
        (4, 3000, 350, 25), (5, 3000, 2765, 854), (6, 600, 1555, 907), (7, 400, 2069, 1690),
    ])
    def test_at_scale_the_records_are_complete(self, capsys, s, max_n, records, primitive):
        argv = ("search", "--s", str(s), "--max-n", str(max_n), "--format", "tsv")
        serial = run_cli(capsys, *argv, "--jobs", "1")
        assert serial[0] == 0 and serial[1]
        assert run_cli(capsys, *argv, "--jobs", "2") == serial
        # Read back with int() and math alone, not with the package.
        rows = [tuple(int(column) for column in line.split("\t")) for line in serial[1].splitlines()]
        for *parts, b, n in rows:
            assert len(parts) == s - 1 and parts == sorted(parts)
            assert sum(parts) == n <= max_n
            assert prod(parts) * n == b ** s
        multiples = {(*(k * a for a in parts), k * b, k * n)
                     for *parts, b, n in rows for k in range(2, max_n // n + 1)}
        reductions = {(*(a // g for a in parts), b // g, n // g)
                      for *parts, b, n in rows if (g := gcd(*parts)) > 1}
        assert multiples | reductions <= set(rows)
        assert (len(rows), sum(gcd(*row[:-2]) == 1 for row in rows)) == (records, primitive)
        lines = serial[1].splitlines(keepends=True)
        half, quarter = max_n // 2, max_n // 4
        assert run_cli(capsys, *argv[:4], str(half), *argv[5:]) == (
            0, "".join(line for line, row in zip(lines, rows) if row[-1] <= half), "")
        assert run_cli(capsys, *argv, "--max-part", str(quarter)) == (
            0, "".join(line for line, row in zip(lines, rows) if max(row[:-2]) <= quarter), "")

    @pytest.mark.parametrize("s, max_n, jobs", [
        ("1000", "999", "1"), ("300", "598", "2"), ("1000", "1998", "2")])
    def test_large_s_runs_to_the_end(self, capsys, s, max_n, jobs):
        # The prefix walk keeps its prefixes on an explicit stack, not on the
        # interpreter's, so a thousand parts are no deeper than five.  No
        # bound has a solution: at --max-n s - 1 every part is 1, and s - 1
        # is no s-th power; at --max-n 2 (s - 1) the parts are k twos and
        # s - 1 - k ones, so b = 2 and n = s - 1 + k would have to be
        # 2**(s - k).  That bound leaves two leading parts, so --jobs 2 takes
        # the pool on two or more usable cores.  At s = 1000 it runs in well
        # under a second: a state works out its cap on b, a power of degree
        # up to s - 2, only at its first node that brings a new prime or
        # raises r, about 2,000 times for the walk's 34,000 nodes.
        assert run_cli(capsys, "search", "--s", s, "--max-n", max_n, "--jobs", jobs) == (
            0, "", "")

    @pytest.mark.parametrize(
        "argv",
        [("search", "--s", "4", "--max-n"), ("search", "--s", "4", "--jobs", "2", "--max-n"),
         ("s3", "--brute-max")],
    )
    def test_n_max_above_the_limit_is_a_one_line_usage_error(self, capsys, argv):
        # Fails before any table is built: no MemoryError, and s3 prints no
        # curve analysis first.
        limit = search.N_MAX_LIMIT
        code, out, err = run_cli(capsys, *argv, str(limit + 1))
        assert (code, out, err) == (2, "", f"error: {argv[-1]} must be at most {limit}\n")

    def test_s3_at_a_lowered_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(search, "N_MAX_LIMIT", 50)
        assert run_cli(capsys, "s3", "--brute-max", "51") == (
            2, "", "error: --brute-max must be at most 50\n"
        )
        code, out, _ = run_cli(capsys, "s3", "--brute-max", "50")
        assert code == 0
        assert "brute force a1 + a2 <= 50: 0 solutions" in out

    def test_s3_empty(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--s", "3", "--max-n", "500")
        assert code == 0
        assert out.strip() == ""

    def test_tsv_roundtrip(self, capsys):
        # columns are a_1 .. a_{s-1}, b, n; parts feed back through verify
        code, out, _ = run_cli(capsys, "search", "--s", "6", "--max-n", "27")
        assert code == 0
        for line in out.strip().splitlines():
            cols = line.split("\t")
            parts, b, n = cols[:-2], int(cols[-2]), int(cols[-1])
            code, out2, _ = run_cli(
                capsys, "verify", "--s", str(len(parts) + 1), "--parts", ",".join(parts)
            )
            assert code == 0
            record = parse_jsonl(out2)[0]
            assert (record["b"], record["n"]) == (b, n)

    def test_jsonl_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--s", "5", "--max-n", "50", "--format", "jsonl", "--jobs", "2"
        )
        assert code == 0
        for record in parse_jsonl(out):
            assert record["source"] == "search"
            code, out2, _ = run_cli(
                capsys,
                "verify",
                "--s",
                str(record["s"]),
                "--parts",
                ",".join(str(a) for a in record["parts"]),
            )
            assert code == 0


class TestS3Report:
    def test_report_content(self, capsys):
        code, out, _ = run_cli(capsys, "s3", "--brute-max", "500")
        assert code == 0
        assert "curve: y^2 = x^3 + 16" in out
        assert "integral candidates (y = 0 or y | disc): (0, -4), (0, 4)" in out
        assert out.count("degenerate, no (b1, b2)") == 2
        assert "positive preimages among candidates: 0" in out
        assert "brute force a1 + a2 <= 500: 0 solutions" in out
        assert "erratum" in out
        assert out.count("on y^2 = x^3 + 64: yes") == 5

    @pytest.mark.parametrize("bound", ["50", "100", "10000"])
    def test_whole_report(self, capsys, bound):
        code, out, err = run_cli(capsys, "s3", "--brute-max", bound)
        assert (code, err) == (0, "")
        assert out == (
            "curve: y^2 = x^3 + 16\n"
            "integral candidates (y = 0 or y | disc): (0, -4), (0, 4)\n"
            "trace back (0, -4): v = 0, degenerate, no (b1, b2)\n"
            "trace back (0, 4): v = 0, degenerate, no (b1, b2)\n"
            "positive preimages among candidates: 0\n"
            f"brute force a1 + a2 <= {bound}: 0 solutions\n"
            "erratum: the scaling x = 4v, y = 16u + 8 does not land on y^2 = x^3 + 64"
            " ((16u+8)^2 - (4v)^3 - 64 = 192(u^2+u) is not identically 0);"
            " the consistent scaling is x = 4v, y = 8u + 4 onto y^2 = x^3 + 16\n"
            "point (8, 24) on y^2 = x^3 + 64: yes\n"
            "point (8, -24) on y^2 = x^3 + 64: yes\n"
            "point (0, 8) on y^2 = x^3 + 64: yes\n"
            "point (0, -8) on y^2 = x^3 + 64: yes\n"
            "point (-4, 0) on y^2 = x^3 + 64: yes\n"
        )

    def test_candidates_are_the_proven_torsion_candidates(self):
        # Nagell-Lutz on y^2 = x^3 + 16 derives the constant, and each
        # candidate lies on the fiber x = 0 (v = 0), which has no preimage.
        assert cli._S3_CANDIDATES == tuple(nagell_lutz_candidates(16))
        assert all(x == 0 for x, _ in cli._S3_CANDIDATES)

    @pytest.mark.parametrize(
        "argv", [("s3", "--brute-max", "1"), ("search", "--s", "3", "--max-n", "1")]
    )
    def test_bound_below_two_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {argv[-2]} must be at least 2\n"


def readme_examples() -> list[tuple[str, str]]:
    """(command, output) of every README example whose comment is literal
    output: JSON records or TSV rows."""
    examples = []
    lines = README.read_text().splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("sumprodpower "):
            continue
        comment = []
        for follow in lines[i + 1:]:
            if not follow.startswith("# "):
                break
            comment.append(follow[2:] + "\n")
        if comment and comment[0][0] in "{0123456789":
            examples.append((line, "".join(comment)))
    return examples


# The README's verify example in --flag=value spelling prints the same line.
SPELLINGS = [("sumprodpower verify --s=4 --parts=1,2,24",
              dict(readme_examples())["sumprodpower verify --s 4 --parts 1,2,24"])]


class TestReadmeExamples:
    def test_examples_are_found(self):
        assert [cmd.split()[1] for cmd, _ in readme_examples()] == [
            "verify", "family", "family", "search"
        ]

    @pytest.mark.parametrize("command, output", readme_examples() + SPELLINGS)
    def test_output_matches_the_comment(self, capsys, command, output):
        code, out, err = run_cli(capsys, *shlex.split(command)[1:])
        assert (code, out, err) == (0, output, "")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sumprodpower.cli", "verify", "--s", "4", "--parts", "1,2,24"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["b"] == 6

    def test_usage_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sumprodpower.cli", "verify"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        # No subcommand: main reads sys.argv and falls back to the top-level
        # parser.  Help goes to stdout, a usage error only to stderr.
        for argv, code, usage in (
            ([], 2, ""),
            (["bogus"], 2, ""),
            (["--help"], 0, "usage: sumprodpower [-h]"),
            (["verify", "-h"], 0, "usage: sumprodpower verify [-h] --s S --parts PARTS"),
        ):
            proc = subprocess.run([sys.executable, "-m", "sumprodpower.cli", *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == code, argv
            assert proc.stdout.startswith(usage) and bool(proc.stdout) == (code == 0), argv

    def test_import_leaves_multiprocessing_out(self):
        # search imports it only for a --jobs run.
        code = "import sys, sumprodpower.cli; print('multiprocessing' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_math_failure_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sumprodpower.cli", "verify", "--s", "3", "--parts", "1,1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1

    def test_closed_pipe_exits_141_with_nothing_on_stderr(self, tmp_path):
        # About 405 KB of records, more than a pipe buffer holds, so the
        # writer meets the closed pipe while it still has records to print.
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "sumprodpower.cli", "gen4", "--count", "40",
                 "--max-multiple", "80"],
                stdout=subprocess.PIPE, stderr=err,
            )
            try:
                assert proc.stdout.read(10) == b'{"s": 4, "'
                proc.stdout.close()
                code = proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert (code, (tmp_path / "stderr").read_bytes()) == (141, b"")


COMMANDS = ("verify", "gen4", "family", "search", "s3")
FLAGS = ("--s", "--parts", "--format", "--count", "--max-multiple", "--primitive",
         "--from-point", "--tail", "--t0", "--t1", "--t2", "--max-n", "--max-part", "--jobs",
         "--brute-max", "-h", "--help", "--", "--format=tsv", "--from-point=-235,8", "--count=3",
         "--t1=2", "--max-n=100", "--primitive=1", "--s=", "--tail=1/2,2")
VALUES = ("4", "5", "1,2,24", "235,8", "1/2", "jsonl", "tsv", "2,3")
MALFORMED = ("0", "-3", "1,,2", "1/0", "x", "", "xml", "1.5", "--bogus", "-", "--s=4",
             "--par", "--parts=1,2,24", "-s", "bogus", "verify")
TOKENS = st.one_of(st.sampled_from(COMMANDS + FLAGS + VALUES + MALFORMED),
                   st.integers(-10, 10 ** 6).map(str), st.text(max_size=4))
WELL_FORMED = (
    ("verify", "--s", "4", "--parts", "1,2,24"),
    ("verify", "--format", "tsv", "--s", "5", "--parts", "1,2,3,4"),
    ("gen4", "--count", "3", "--max-multiple", "9", "--primitive"),
    ("gen4", "--from-point", "235,8", "--format", "tsv"),
    ("family", "--s", "5", "--t1", "2", "--t2", "3"),
    ("family", "--s", "6", "--tail", "1/2,2", "--t0", "1/3", "--primitive"),
    ("search", "--s", "4", "--max-n", "100", "--max-part", "50", "--jobs", "2"),
    ("s3", "--brute-max", "100"),
)


@st.composite
def edited_well_formed(draw) -> list[str]:
    """A well-formed argv with up to two tokens after the subcommand
    replaced, inserted or deleted."""
    argv = list(draw(st.sampled_from(WELL_FORMED)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, len(argv)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(TOKENS))
        elif edit == "replace":
            argv[i] = draw(TOKENS)
        else:
            del argv[i]
    return argv


ARGVS = st.one_of(
    edited_well_formed(),
    st.builds(lambda command, rest: [command, *rest], st.sampled_from(COMMANDS),
              st.lists(TOKENS, max_size=8)),
    st.lists(TOKENS, max_size=6),
)


@cache
def top_level_parser():
    return cli._build_parser()[0]


def parse_outcome(parse, argv) -> tuple[dict | None, int | None, str, str]:
    """(vars of the Namespace or None, SystemExit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace, code = vars(parse(argv)), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, code, out.getvalue(), err.getvalue()


class TestDispatch:
    @settings(max_examples=300, deadline=None)
    @given(argv=ARGVS)
    @example(argv=["verify", "--parts", "1,2,24", "--", "--s", "4"])
    @example(argv=["--", "verify", "--s", "4", "--parts", "1,2,24"])
    @example(argv=["verify", "--s=4", "--par", "1,2,24", "--bogus"])
    @example(argv=["family", "--s", "5", "--t1", "2", "--t2", "3", "-h", "--bogus"])
    def test_matches_the_top_level_parse(self, argv):
        fast = parse_outcome(cli._parse, argv)
        if argv[:1] == ["--"]:
            # Refused on every version, where the top-level parse depends on
            # it: Python 3.13's argparse parses the command after a leading --.
            error = "sumprodpower: error: the first argument must be a command, not '--'\n"
            assert fast == (None, 2, "", top_level_parser().format_usage() + error)
            return
        namespace, code, out, err = parse_outcome(top_level_parser().parse_args, argv)
        if namespace is not None:
            assert namespace.pop("command") == argv[0]
        assert fast[:3] == (namespace, code, out)
        if fast[3] != err:
            # Only an unrecognized argument after a subcommand differs: it
            # reports the subcommand's usage and prog.
            message = err.rpartition("\nsumprodpower: error: ")[2]
            assert message.startswith("unrecognized arguments: ")
            assert fast[3].startswith(f"usage: sumprodpower {argv[0]} [-h]")
            assert fast[3].endswith(f"\nsumprodpower {argv[0]}: error: {message}")

    def test_unrecognized_argument_reports_the_subcommand_usage(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--s", "4", "--parts", "1,2,24", "--bogus")
        assert (code, out) == (2, "")
        assert err.startswith("usage: sumprodpower verify [-h] --s S --parts PARTS")
        assert err.endswith("\nsumprodpower verify: error: unrecognized arguments: --bogus\n")
        # So does an unknown choice, whose wording after "invalid choice: "
        # differs between Python versions.
        code, out, err = run_cli(capsys, "verify", "--s", "4", "--parts", "1,2,24",
                                 "--format", "xml")
        assert (code, out) == (2, "")
        assert err.startswith("usage: sumprodpower verify [-h] --s S --parts PARTS")
        assert err.splitlines()[-1].startswith(
            "sumprodpower verify: error: argument --format: invalid choice: ")

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        def run_argv(*argv):
            monkeypatch.setattr(sys, "argv", ["sumprodpower", *argv])
            code = main()
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        code, out, err = run_argv("verify", "--s", "4", "--parts", "1,2,24")
        assert (code, json.loads(out)["b"], err) == (0, 6, "")
        code, out, err = run_argv()
        assert (code, out) == (2, "")
        assert err.endswith("\nsumprodpower: error: the following arguments are required: command\n")
        code, out, err = run_argv("--help")
        assert (code, err) == (0, "") and out.startswith("usage: sumprodpower [-h]")


class ArgparseCalled(Exception):
    pass


def refuse_to_parse(*args, **kwargs):
    raise ArgparseCalled


# The argv shapes of the benchmark's ops: --from-point=X,Y with a negative y,
# --format tsv with --primitive, a long --parts, and --tail/--t0.
BENCHMARK_SHAPES = (
    ("gen4", "--from-point=60266587/257049,-3852230624/130323843", "--primitive",
     "--format", "tsv"),
    ("family", "--s", "5", "--t1", "3", "--t2", "7", "--primitive", "--format", "tsv"),
    ("verify", "--s", "4", "--parts", ",".join(str(a * (10 ** 1400 - 3)) for a in (24, 1, 2))),
    ("family", "--s", "7", "--tail", "1/2,2,3/5", "--t0", "7/3", "--format", "tsv"),
)


class TestFlagScan:
    @pytest.mark.parametrize("argv", WELL_FORMED + BENCHMARK_SHAPES)
    def test_well_formed_argv_never_reaches_argparse(self, monkeypatch, argv):
        expected = vars(top_level_parser().parse_args(argv))
        assert expected.pop("command") == argv[0]
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse_to_parse)
        assert vars(cli._parse(argv)) == expected

    @pytest.mark.parametrize("argv", [
        ["verify", "-h"],
        ["verify", "--s=x", "--parts", "1,2,24"],
        ["verify", "--s", "4", "--s", "4", "--parts", "1,2,24"],
        ["verify", "--s", "4", "--par", "1,2,24"],
        ["verify", "--s", "3", "--parts", "-1,2"],
        ["verify", "--s", "4", "--parts", "1,2,24", "--format", "xml"],
        ["verify", "--s", "4"],
        ["verify", "--s", "4", "--parts"],
        ["verify", "--", "--s", "4", "--parts", "1,2,24"],
        ["gen4", "--count", "3", "--primitive=1"],
        ["gen4", "--primitive", "--count", "3", "--primitive"],
        ["search", "--s", "4", "--max-n", "100", "extra"],
    ])
    def test_argparse_reads_every_other_argv(self, monkeypatch, argv):
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse_to_parse)
        with pytest.raises(ArgparseCalled):
            cli._parse(argv)

    def test_a_repeated_flag_keeps_its_last_value(self, capsys):
        assert run_cli(capsys, "verify", "--s", "4", "--parts", "1,2,24", "--format", "jsonl",
                       "--format", "tsv") == (0, "1\t2\t24\t6\t27\n", "")
        argv = ("search", "--s", "4", "--max-n", "30", "--jobs", "2", "--jobs", "1")
        assert cli._parse(argv).jobs == 1
        assert run_cli(capsys, *argv) == (0, "1\t8\t9\t6\t18\n1\t2\t24\t6\t27\n", "")


# The help text of the top-level parser and of each subcommand at 80 columns,
# as argparse writes it from cli's flag table on Python 3.10 to 3.13.  The
# usage text is its first paragraph.  TestDispatch and TestFlagScan compare
# the scan with a parser built from the same table, so a metavar, a flag's
# place, a default or an order of choices that drifts shows only in
# TestFlagTable.
HELP_TEXT = {
    None: """\
usage: sumprodpower [-h] {verify,gen4,family,search,s3} ...

Construct, generate, search and verify solutions of n = a_1 + ... + a_{s-1}
with a_1 * ... * a_{s-1} * n = b^s.

positional arguments:
  {verify,gen4,family,search,s3}
    verify              verify one candidate solution
    gen4                generate s=4 solutions from curve multiples
    family              instantiate the s>=5 solution family
    search              enumerate all solutions within bounds
    s3                  report the s=3 non-existence analysis

options:
  -h, --help            show this help message and exit
""",
    "verify": """\
usage: sumprodpower verify [-h] --s S --parts PARTS [--format {jsonl,tsv}]

options:
  -h, --help            show this help message and exit
  --s S                 number of terms s (>= 3)
  --parts PARTS         comma-separated parts a_1,...,a_{s-1}
  --format {jsonl,tsv}
""",
    "gen4": """\
usage: sumprodpower gen4 [-h] [--count COUNT] [--max-multiple MAX_MULTIPLE]
                         [--primitive] [--from-point X,Y]
                         [--format {jsonl,tsv}]

options:
  -h, --help            show this help message and exit
  --count COUNT         number of distinct solutions
  --max-multiple MAX_MULTIPLE
                        largest multiple of the seed point to try (default 25)
  --primitive           reduce each solution by its common factor
  --from-point X,Y      map one explicit curve point instead of walking
                        multiples
  --format {jsonl,tsv}
""",
    "family": """\
usage: sumprodpower family [-h] --s S [--tail TAIL] [--t0 T0] [--t1 T1]
                           [--t2 T2] [--primitive] [--format {jsonl,tsv}]

options:
  -h, --help            show this help message and exit
  --s S                 number of terms s (>= 5)
  --tail TAIL           comma-separated positive rationals b4,...,b_{s-1}
  --t0 T0               positive rational parameter
  --t1 T1               closed s=5 form: first integer
  --t2 T2               closed s=5 form: second integer
  --primitive           reduce the solution by its common factor
  --format {jsonl,tsv}
""",
    "search": """\
usage: sumprodpower search [-h] --s S --max-n MAX_N [--max-part MAX_PART]
                           [--jobs JOBS] [--format {tsv,jsonl}]

options:
  -h, --help            show this help message and exit
  --s S                 number of terms s (>= 3)
  --max-n MAX_N         largest allowed sum n
  --max-part MAX_PART   largest allowed part (default: max-n)
  --jobs JOBS           worker processes, capped at the usable cores (default
                        1)
  --format {tsv,jsonl}
""",
    "s3": """\
usage: sumprodpower s3 [-h] [--brute-max BRUTE_MAX]

options:
  -h, --help            show this help message and exit
  --brute-max BRUTE_MAX
                        brute-force bound on a1 + a2 (default 10000)
""",
}


class TestFlagTable:
    @pytest.mark.parametrize("name", HELP_TEXT, ids=str)
    def test_help_text_is_pinned(self, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        parser, commands = cli._build_parser()
        command = parser if name is None else commands[name]
        usage = HELP_TEXT[name].partition("\n\n")[0] + "\n"
        assert (command.format_usage(), command.format_help()) == (usage, HELP_TEXT[name])

    # Each subcommand's namespace with only its required flags: the defaults
    # of the flag table, which no help text shows.
    @pytest.mark.parametrize(("argv", "expected"), [
        (["verify", "--s", "4", "--parts", "1,2,24"], dict(s=4, parts=[1, 2, 24], format="jsonl")),
        (["gen4"],
         dict(count=None, max_multiple=25, primitive=False, from_point=None, format="jsonl")),
        (["family", "--s", "5"],
         dict(s=5, tail=None, t0=None, t1=None, t2=None, primitive=False, format="jsonl")),
        (["search", "--s", "4", "--max-n", "9"],
         dict(s=4, max_n=9, max_part=None, jobs=1, format="tsv")),
        (["s3"], dict(brute_max=10000)),
    ], ids=COMMANDS)
    def test_defaults_are_pinned(self, argv, expected):
        args = vars(cli._parse(argv))
        assert args.pop("func") is getattr(cli, f"cmd_{argv[0]}")
        assert args == expected


# One argv for each of cli's _usage_error sites: a check that a subcommand
# makes on well-formed flags, reported as one `error: ...` line.
USAGE_ERRORS = [
    ("verify --s 2 --parts 1", "--s must be at least 3"),
    ("verify --s 4 --parts 1,2", "expected 3 parts for s=4, got 2"),
    ("verify --s 4 --parts 1,0,24", "parts must be positive integers"),
    ("gen4 --count 1 --from-point 235,8", "--count and --from-point are mutually exclusive"),
    ("gen4", "--count is required unless --from-point is given"),
    ("family --t1 1 --s 5", "--t1 and --t2 must be given together"),
    ("family --s 5 --t1 1 --t2 1 --t0 1", "--t1/--t2 and --tail/--t0 are mutually exclusive"),
    ("family --s 6 --t1 1 --t2 1", "the closed form --t1/--t2 is only defined for --s 5"),
    ("family --s 5 --tail 1", "either --t1/--t2 or --tail/--t0 must be given"),
    ("family --s 5 --tail 1,2 --t0 1", "expected 1 tail entries, got 2"),
    ("search --s 4 --max-n 10000001", "--max-n must be at most 10000000"),
    ("s3 --brute-max 10000001", "--brute-max must be at most 10000000"),
]

# One bad value for each flag type: argparse reports it after the usage line.
BAD_VALUES = [
    ("verify --s x --parts 1", "argument --s: not an integer: 'x'"),
    ("verify --s 4 --parts 1,x", "argument --parts: not a comma-separated integer list: '1,x'"),
    ("family --s 5 --tail 1 --t0 x", "argument --t0: not a rational p/q: 'x'"),
    ("family --s 5 --tail 1 --t0 1/0", "argument --t0: not a rational p/q: '1/0'"),
    ("family --s 5 --tail 1,1/0 --t0 1",
     "argument --tail: not a comma-separated rational list: '1,1/0'"),
    ("gen4 --from-point 1,2,3",
     "argument --from-point: a point needs exactly two coordinates: '1,2,3'"),
]


class TestUsageErrorForms:
    @pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[a for a, _ in USAGE_ERRORS])
    def test_a_subcommand_check_prints_one_error_line(self, capsys, argv, message):
        assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")

    def test_every_usage_error_site_has_a_case(self):
        # One more site than cases: _out_of_memory, whose cases are in
        # TestOutOfMemory.
        assert inspect.getsource(cli).count("return _usage_error(") == len(USAGE_ERRORS) + 1

    @pytest.mark.parametrize("argv, message", BAD_VALUES, ids=[a for a, _ in BAD_VALUES])
    def test_a_bad_value_prints_the_usage_then_one_error(self, capsys, argv, message):
        command = argv.split()[0]
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: sumprodpower {command} [-h]")
        assert err.endswith(f"\nsumprodpower {command}: error: {message}\n")
        assert err.count("error:") == 1


# Bounded argv for every subcommand.  Each value flag takes a valid value
# from a small range or, in about one argv in four, one malformed token.
BAD_TOKENS = ("1e1000000", "1_0", "1.5", "\u0661", "1/0", "", "1,,2")
S_VALUE = st.integers(-1, 9).map(str)
SMALL_BOUND = st.integers(1, 60).map(str)
DIGITS20 = st.integers(1, 10 ** 20 - 1)
POSITIVE_RATIONAL = st.one_of(DIGITS20.map(str), st.builds("{}/{}".format, DIGITS20, DIGITS20))
RATIONAL = st.one_of(POSITIVE_RATIONAL, st.integers(-9, 0).map(str))
KNOWN_PARTS = [parts for parts, _, _ in TABLE_S5 + TABLE_S6] + [(1, 2, 24), (2, 4, 48)]
PARTS = st.one_of(
    st.builds(lambda parts, k: [k * a for a in parts], st.sampled_from(KNOWN_PARTS),
              st.integers(1, 1000)),
    st.lists(st.integers(-1, 10 ** 6), min_size=1, max_size=8),
)
POINT = st.one_of(
    st.sampled_from(["235,8", "60266587/257049,3852230624/130323843",
                     "60266587/257049,-3852230624/130323843", "300,1"]),
    st.builds("{},{}".format, RATIONAL, RATIONAL),
)


def join(values) -> str:
    return ",".join(map(str, values))


@st.composite
def bounded_argv(draw) -> list[str]:
    def maybe(flag, values):
        return [(flag, draw(values))] if draw(st.booleans()) else []

    command = draw(st.sampled_from(COMMANDS))
    if command == "verify":
        parts = draw(PARTS)
        s = draw(st.one_of(st.just(str(len(parts) + 1)), S_VALUE))
        pairs = [("--s", s), ("--parts", join(parts))]
    elif command == "gen4":
        pairs = [*maybe("--count", st.integers(0, 5).map(str)),
                 *maybe("--max-multiple", st.integers(0, 9).map(str)),
                 *maybe("--from-point", POINT)]
    elif command == "family":
        form = draw(st.sampled_from(["closed", "tail", "mixed"]))
        s = draw(st.integers(3 if form == "mixed" else 5, 9))
        tail = st.lists(POSITIVE_RATIONAL, min_size=max(s - 4, 1), max_size=max(s - 4, 1))
        t1 = st.integers(0 if form == "mixed" else 1, 10 ** 6).map(str)
        if form == "closed":
            pairs = [("--s", "5"), ("--t1", draw(t1)), ("--t2", draw(t1))]
        elif form == "tail":
            pairs = [("--s", str(s)), ("--tail", join(draw(tail))), ("--t0", draw(RATIONAL))]
        else:
            pairs = [("--s", str(s)), *maybe("--t1", t1), *maybe("--tail", tail.map(join)),
                     *maybe("--t0", RATIONAL)]
    elif command == "search":
        pairs = [("--s", draw(S_VALUE)), ("--max-n", draw(SMALL_BOUND)),
                 *maybe("--max-part", SMALL_BOUND)]
    else:
        pairs = maybe("--brute-max", SMALL_BOUND)
    if pairs and draw(st.integers(0, 3)) == 3:
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], draw(st.sampled_from(BAD_TOKENS)))
    flags = [] if command == "s3" else draw(st.sampled_from(
        [[], ["--format", "jsonl"], ["--format", "tsv"]]))
    if command in ("gen4", "family") and draw(st.booleans()):
        flags.append("--primitive")
    return [command, *(tok for pair in pairs for tok in pair), *flags]


def rebuilt_record(line: str) -> tuple[DioSolution, int, int]:
    """The DioSolution of one jsonl or tsv record, with the s and n it prints."""
    if line.startswith("{"):
        record = json.loads(line, parse_int=parse_decimal)
        return DioSolution(tuple(record["parts"]), record["b"]), record["s"], record["n"]
    *parts, b, n = map(parse_decimal, line.split("\t"))
    return DioSolution(tuple(parts), b), len(parts) + 1, n


class TestMainContract:
    @settings(max_examples=200, deadline=None)
    @given(argv=bounded_argv())
    @example(argv=["family", "--s", "5", "--tail", "1", "--t0", "1e1000000"])
    @example(argv=["verify", "--s", "0", "--parts", "1,2,24"])
    @example(argv=["gen4", "--count", "5", "--max-multiple", "7", "--format", "tsv"])
    @example(argv=["family", "--s", "7", "--tail", "1/2,2,3/5", "--t0", "7/3", "--format", "tsv"])
    @example(argv=["family", "--s", "5", "--t1", "2", "--t2", "1", "--primitive"])
    def test_exit_codes_and_records(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert out == "" and len(err.splitlines()) == 1
        if code == 2:
            assert out == ""
        if argv[0] != "s3":
            for line in out.splitlines():
                sol, s, n = rebuilt_record(line)
                assert (sol.s, sol.n) == (s, n)


class TestOutOfMemory:
    """A search whose tables do not fit under the child's address-space
    limit exits 2 with one stderr line that names the bound, and no
    traceback; with --jobs 2 the workers' MemoryError reaches the parent.
    10^7 is N_MAX_LIMIT, so the bound itself is accepted."""

    LIMIT = 200 << 20  # bytes; the tables need more at n_max = 10^7, for s = 3 and s = 4

    @classmethod
    def limit_address_space(cls) -> None:
        import resource  # POSIX only, as is preexec_fn
        resource.setrlimit(resource.RLIMIT_AS, (cls.LIMIT, cls.LIMIT))

    @pytest.mark.parametrize("flag, argv", [
        ("--max-n", "search --s 5 --max-n 50"),
        ("--brute-max", "s3 --brute-max 50"),
    ], ids=["search", "s3"])
    def test_in_process(self, capsys, monkeypatch, flag, argv):
        def out_of_memory(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "enumerate_solutions", out_of_memory)
        assert run_cli(capsys, *argv.split()) == (
            2, "", f"error: {flag} 50: the search tables do not fit in memory\n")

    @pytest.mark.parametrize("flag, argv", [
        ("--max-n", ("search", "--s", "3", "--max-n", "10000000")),
        ("--max-n", ("search", "--s", "4", "--max-n", "10000000", "--jobs", "2")),
        ("--brute-max", ("s3", "--brute-max", "10000000")),
    ], ids=["search", "search-jobs2", "s3"])
    def test_exit_2_with_one_line(self, flag, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "sumprodpower.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=self.limit_address_space, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # a pool that restarts failed workers hangs
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert (proc.returncode, out, err) == (
            2, "", f"error: {flag} 10000000: the search tables do not fit in memory\n")


class TestInterrupt:
    def test_run_maps_ctrl_c_to_one_line_and_exit_130(self, capsys, monkeypatch):
        def interrupted(spec):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "enumerate_solutions", interrupted)
        monkeypatch.setattr(sys, "argv", ["sumprodpower", "search", "--s", "5", "--max-n", "50"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 130
        assert capsys.readouterr() == ("", "interrupted\n")

    def test_ctrl_c_during_a_jobs_run(self):
        # Ctrl-C signals the whole foreground process group, so the workers
        # get SIGINT too; none of the three processes may print a traceback.
        if search._usable_cores() < 2:
            pytest.skip("--jobs 2 runs serially on one usable core: no workers to wait for")
        proc = subprocess.Popen(
            # A search of about 3 s, so that it is still running after the
            # 0.2 s wait below on a slow host.
            [sys.executable, "-m", "sumprodpower.cli", "search", "--s", "7", "--max-n", "600",
             "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
            # A shell starts a background job with SIGINT ignored, and a
            # child inherits that: the test runs the child as Ctrl-C finds it.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline and proc.poll() is None:
                try:
                    if len(children.read_text().split()) >= 2:
                        break
                except FileNotFoundError:
                    pytest.skip("no /proc children list to see the pool start")
                time.sleep(0.02)
            assert proc.poll() is None, "the search finished before it was interrupted"
            time.sleep(0.2)  # the workers' initializer ignores SIGINT
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert "Traceback" not in err
        assert (proc.returncode, out, err) == (130, "", "interrupted\n")


# A shell line that runs the command line: the installed script, or the
# package's cli module.
RUNS_THE_CLI = re.compile(r"(?:^|[;&|(]|\$\(|-m)\s*sumprodpower(?:\.cli)?(?:\s|$)")


def workflow_steps() -> dict[str, list[str]]:
    """Each step of the CI workflow, by its name (its first line when it has
    none): its lines, comments left out."""
    steps = {}
    body = WORKFLOW.read_text().partition("\n    steps:\n")[2]
    for step in re.split(r"^ *- ", body, flags=re.M)[1:]:
        lines = [re.sub(r"^run:", "", line.strip()) for line in step.splitlines()]
        steps[lines[0].removeprefix("name: ")] = [line for line in lines if line[:1] != "#"]
    return steps


class TestWorkflow:
    """CI runs the suite; a check of the command line's behaviour goes in it.

    The workflow is read as text.  Only "Console script" runs the command
    line itself, because it checks the installed entry point, which only an
    install makes."""

    def test_no_inline_script(self):
        assert "<<" not in WORKFLOW.read_text()

    def test_only_the_console_script_step_runs_the_command_line(self):
        running = [name for name, lines in workflow_steps().items()
                   if any(RUNS_THE_CLI.search(line) for line in lines)]
        assert running == ["Console script"]

    @pytest.mark.parametrize("line, runs", [
        ('sumprodpower search --s "$s" --max-n "$n" --jobs 1 > "$RUNNER_TEMP/jobs1.tsv"', True),
        ('actual="$(sumprodpower verify --s 4 --parts 1,2,24)"', True),
        ("code=0; sumprodpower >/dev/null 2>&1 || code=$?", True),
        ("python -m sumprodpower.cli gen4 --count 75", True),
        ("python -c 'import sumprodpower; print(sumprodpower.__file__)'", False),
        ("python tests/code_lines.py src/sumprodpower", False),
    ])
    def test_the_pattern_finds_a_run(self, line, runs):
        assert bool(RUNS_THE_CLI.search(line)) == runs
