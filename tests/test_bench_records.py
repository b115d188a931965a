"""The committed benchmark records at the root of the checkout.

Each BENCH_<workload>.json holds the entries that back a speed-up claim:
the host (Python version and core count), what changed, and the medians of
alternating parent/change perfbench pairs.  These tests check that every
entry can still be read as such a claim; BENCHMARK.json, which names the
workloads and the end-to-end metrics, is only read.
"""

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
ENTRIES = {f"{path.name}[{i}]": entry for path in RECORDS
           for i, entry in enumerate(json.loads(path.read_text())["entries"])}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_its_workload(path):
    record = json.loads(path.read_text())
    assert record["workload"] in WORKLOADS
    assert path.name == f"BENCH_{record['workload']}.json"
    assert record["entries"]


@pytest.mark.parametrize("name", ENTRIES)
def test_entry_holds_a_claim(name):
    entry = ENTRIES[name]
    assert isinstance(entry["python"], str) and entry["python"]
    assert isinstance(entry["cores"], int) and entry["cores"] >= 1
    assert isinstance(entry["change"], str) and entry["change"]
    bench = entry["perfbench"]
    assert len(bench["seeds"]) == bench["pairs"] >= 1
    assert bench["all_correct"] is True
    listed = [metric for metric in END_TO_END if metric in bench]
    assert listed
    for metric in listed:
        for side in ("parent", "change"):
            assert isinstance(bench[metric][side]["median"], Real), (metric, side)
