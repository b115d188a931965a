"""Capture reference.json: exit code and stdout digest of every pinned op.

    python3 perfbench/make_reference.py

Run from the repository root at a commit whose output is known to be right.
Every captured output must pass the rest of the correctness gate first.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import gate
import workloads
from run import BENCH_DIR, ROOT, run_op


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from sumprodpower import cli

    reference = {}
    failures = 0
    for op in workloads.reference_ops():
        rc, out, exc, _ = run_op(cli, op.argv)
        reason, _ = gate.check(replace(op, reference=False), rc, out, exc, {})
        if reason is not None:
            failures += 1
            print(f"{' '.join(op.argv)[:80]}: {reason}", file=sys.stderr)
        reference[gate.op_key(op.argv)] = [rc, gate.digest(out)]
    if failures:
        print(f"{failures} ops failed the gate; reference not written", file=sys.stderr)
        return 1
    path = BENCH_DIR / "reference.json"
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(reference.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reference)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
