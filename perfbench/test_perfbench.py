"""Tests of the benchmark itself, on its smoke inputs.

    python3 -m pytest perfbench

Run from the repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_decimals_past_the_digit_limit_round_trip():
    rng = random.Random(5)
    for digits in (1, 4000, 4301, 12345):
        text = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(digits - 1))
        value = gate.parse_int(text)
        assert value.bit_length() > (digits - 1) * 3
        assert gate.int_to_str(value) == text
        assert gate.int_to_str(-value) == "-" + text


def test_gate_rejects_a_wrong_record():
    op = workloads.Op(("verify",), "jsonl", rc=0, records=1)
    good = '{"s": 4, "parts": [1, 2, 24], "n": 27, "b": 6, "source": "verify"}\n'
    assert gate.check(op, 0, good, None, {}) == (None, 1)
    assert gate.check(op, 0, good.replace("24", "25"), None, {})[0] is not None
    assert gate.check(op, 1, good, None, {})[0] is not None
    assert gate.check(op, 0, good, ValueError("boom"), {})[0] is not None


def test_inputs_depend_only_on_the_seed():
    def argvs(seed):
        return [op.argv for op in workloads.round_ops("verify-family", seed, "smoke")]

    assert argvs(3) == argvs(3)
    assert argvs(3) != argvs(4)
    assert workloads.probe_ops(3) == workloads.probe_ops(3)


def test_search_space_counts_the_last_slot_candidates():
    for s, n_max in ((3, 40), (4, 30), (5, 25)):
        k = s - 1

        def tuples(prefix, total):
            if len(prefix) == k:
                return 1
            low = prefix[-1] if prefix else 1
            return sum(tuples(prefix + (a,), total + a)
                       for a in range(low, n_max - total + 1)
                       if total + a * (k - len(prefix)) <= n_max)

        assert workloads.search_space(s, n_max) == tuples((), 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "search", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
