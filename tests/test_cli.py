import json
import subprocess
import sys

import pytest

from conftest import TABLE_S5, TABLE_S6
from sumprodpower.cli import main


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
        assert code == 1
        assert out == ""
        assert "1400" in err and "4-th power" in err

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

    def test_from_point_inside_region(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen4", "--from-point", "60266587/257049,3852230624/130323843"
        )
        assert code == 0
        (record,) = parse_jsonl(out)
        assert record["parts"] == sorted([781943058, 138991832, 18609625])

    def test_from_point_outside_region(self, capsys):
        code, out, err = run_cli(capsys, "gen4", "--from-point", "30507/121,-584592/1331")
        assert code == 1
        assert out == ""
        assert "outside the positive region" in err

    def test_from_point_off_curve(self, capsys):
        code, _, err = run_cli(capsys, "gen4", "--from-point", "1,1")
        assert code == 1
        assert "not on the s=4 curve" in err

    def test_budget_exhausted(self, capsys):
        code, out, err = run_cli(capsys, "gen4", "--count", "5", "--max-multiple", "1")
        assert code == 3
        assert len(parse_jsonl(out)) == 1  # partial output: the seed solution
        assert "budget exhausted" in err

    def test_count_required(self, capsys):
        code, _, err = run_cli(capsys, "gen4")
        assert code == 2
        assert "--count" in err


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
        code, out, err = run_cli(capsys, "family", "--s", "5", "--t1", "1", "--t2", "3")
        assert code == 1
        assert out == ""
        assert "D = -11" in err

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

    @pytest.mark.parametrize(
        "argv", [("s3", "--brute-max", "1"), ("search", "--s", "3", "--max-n", "1")]
    )
    def test_bound_below_two_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: n_max must be at least s - 1\n"


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

    def test_math_failure_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sumprodpower.cli", "verify", "--s", "3", "--parts", "1,1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
