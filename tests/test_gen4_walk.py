"""The odd-multiple s=4 walk against the two-sign walk of gen4_oracle.

transforms.s4_solutions takes two facts as proven instead of testing every
point at run time: exactly the odd multiples of (235, 8) land in the
positive region, and -kP repeats the solution of kP.  These tests pin both
facts for k <= 80 and check that gen4 prints what the oracle walk printed.
"""

from __future__ import annotations

import json
from functools import cache

import pytest

from gen4_oracle import oracle_walk, signed_solutions
from sumprodpower import cli
from sumprodpower.exactmath import parse_decimal
from sumprodpower.transforms import primitive_reduce, s4_inverse, s4_solutions

MAX_MULTIPLE = 80
FLAG_SETS = [[], ["--primitive"], ["--format", "tsv"], ["--primitive", "--format", "tsv"]]


@pytest.fixture(scope="module")
def walk():
    return list(s4_solutions(MAX_MULTIPLE))


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
        # reduction and rendering, so reuse their results.
        monkeypatch.setattr(cli, "primitive_reduce", cache(cli.primitive_reduce))
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
