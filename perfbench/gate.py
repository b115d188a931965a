"""Correctness gate: re-verify every emitted record with plain integers.

Records are parsed without Python's int<->str digit limit (decimals are
converted in chunks), so parts of any length can be checked.  An op fails
the gate when it raises, exits with the wrong code, differs from its
reference output, or emits a record that is not a solution.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import prod

# Well below the default limit of 4300 digits.
_CHUNK = 4000
_DECIMAL = re.compile(r"-?[0-9]+")
_RECORD_KEYS = {"s", "parts", "n", "b", "source"}


def parse_int(text: str) -> int:
    """Exact int from a decimal string of any length."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    if text[0] == "-":
        return -parse_int(text[1:])
    if len(text) <= _CHUNK:
        return int(text)
    low = len(text) // 2
    return parse_int(text[:-low]) * 10 ** low + parse_int(text[-low:])


def int_to_str(value: int) -> str:
    """Decimal string of an int of any size."""
    if value < 0:
        return "-" + int_to_str(-value)
    digits = value.bit_length() * 30103 // 100000 + 1  # never an underestimate
    if digits <= _CHUNK:
        return str(value)
    low = digits // 2
    high, rest = divmod(value, 10 ** low)
    return int_to_str(high) + int_to_str(rest).zfill(low)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def op_key(argv: tuple[str, ...]) -> str:
    return digest("\0".join(argv))


def parse_records(out: str, fmt: str) -> list[tuple[int, tuple[int, ...], int, int]]:
    """(s, parts, n, b) of every line of a jsonl or tsv record stream."""
    records = []
    for line in out.splitlines():
        if fmt == "tsv":
            values = [parse_int(field) for field in line.split("\t")]
            if len(values) < 4:
                raise ValueError(f"too few columns: {line[:60]!r}")
            records.append((len(values) - 1, tuple(values[:-2]), values[-1], values[-2]))
            continue
        obj = json.loads(line, parse_int=parse_int)
        if not isinstance(obj, dict) or set(obj) != _RECORD_KEYS:
            raise ValueError(f"unexpected record keys: {line[:60]!r}")
        ints = [obj["s"], obj["n"], obj["b"], *obj["parts"]]
        if not all(type(v) is int for v in ints):
            raise ValueError(f"non-integer field: {line[:60]!r}")
        records.append((obj["s"], tuple(obj["parts"]), obj["n"], obj["b"]))
    return records


def record_problem(s: int, parts: tuple[int, ...], n: int, b: int) -> str | None:
    """Why (s, parts, n, b) is not a solution in documented form, or None."""
    if len(parts) != s - 1:
        return f"{len(parts)} parts for s={s}"
    if any(a < 1 for a in parts) or b < 1:
        return "a part or b is not positive"
    if list(parts) != sorted(parts):
        return "parts are not ascending"
    if n != sum(parts):
        return "n is not the sum of the parts"
    if prod(parts) * n != b ** s:
        return "prod(parts) * n is not b**s"
    return None


def check(op, rc, out: str, exc: BaseException | None, reference: dict) -> tuple[str | None, int]:
    """(reason the op failed or None, number of records it emitted)."""
    if exc is not None:
        return f"raised {type(exc).__name__}: {str(exc)[:120]}", 0
    if op.rc is not None and rc != op.rc:
        return f"exit code {rc}, expected {op.rc}", 0
    if op.reference and reference.get(op_key(op.argv)) != [rc, digest(out)]:
        return "exit code or stdout differs from the reference", 0
    if op.fmt == "text":
        return None, 0
    try:
        records = parse_records(out, op.fmt)
    except ValueError as err:
        return f"unparsable record: {err}", 0
    if op.records is not None and len(records) != op.records:
        return f"{len(records)} records, expected {op.records}", len(records)
    for s, parts, n, b in records:
        problem = record_problem(s, parts, n, b)
        if problem is None and op.search is not None:
            if s != op.search[0] or n > op.search[1]:
                problem = "record outside the search bounds"
        if problem is None and op.solution is not None and parts + (b,) != op.solution:
            problem = "record is not the verified input"
        if problem is not None:
            return problem, len(records)
    return None, len(records)
