"""In-memory spans around the calls into each layer of the package.

Wrappers are installed from here at the import sites the callers use (for
example ``cli.add`` and ``elliptic.on_curve`` as ``elliptic.add`` sees it),
so nothing under ``src/`` changes.  Each span records its name, start and end,
the span that caused it and the CLI invocation (op) it belongs to.  Forked
``--jobs`` workers are not traced.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import statistics
import time
from collections import Counter, defaultdict

from gate import int_to_str


def _point_ints(point) -> list[int]:
    if point.x is None:
        return []
    return [point.x.numerator, point.x.denominator, point.y.numerator, point.y.denominator]


class Tracer:
    """Collects spans while installed (``with tracer:``); uninstalling
    restores every patched site."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, op, name, start_ns, end_ns, value)
        self.op: int | None = None
        self.max_coord = 0
        self.sites: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, value=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end,
                              value(args, result) if value else None))

        return traced

    def _add_height(self, args, result) -> int:
        # Input height in bits; also tracks the largest coordinate seen.
        inputs = _point_ints(args[1]) + _point_ints(args[2])
        seen = inputs + (_point_ints(result) if result is not None else [])
        self.max_coord = max([self.max_coord, *map(abs, seen)])
        return max((v.bit_length() for v in inputs), default=0)

    def install(self) -> None:
        """Patch every site that exists; sites a refactor removed are skipped."""
        count = lambda args, result: len(result) if result is not None else 0
        sites = [
            ("cli", "main", "cli.main", None),
            ("cli", "enumerate_solutions", "search.enumerate_solutions", count),
            ("cli", "add", "elliptic.add", self._add_height),
            ("cli", "negate", "elliptic.negate", None),
            ("cli", "nagell_lutz_candidates", "elliptic.nagell_lutz_candidates", None),
            ("cli", "on_curve", "elliptic.on_curve", None),
            ("elliptic", "on_curve", "elliptic.on_curve", None),
            ("transforms", "on_curve", "elliptic.on_curve", None),
            ("family", "on_curve", "elliptic.on_curve", None),
            ("cli", "s3_trace_back", "transforms.s3_trace_back", None),
            ("cli", "s4_inverse", "transforms.s4_inverse", None),
            ("cli", "s4_in_positive_region", "transforms.s4_in_positive_region", None),
            ("cli", "clear_denominators", "transforms.clear_denominators", None),
            ("family", "clear_denominators", "transforms.clear_denominators", None),
            ("cli", "primitive_reduce", "transforms.primitive_reduce", None),
            ("cli", "perfect_sth_power", "exactmath.perfect_sth_power", None),
            ("transforms", "perfect_sth_power", "exactmath.perfect_sth_power", None),
            ("exactmath", "int_nth_root", "exactmath.int_nth_root", None),
            ("cli", "general_solution", "family.general_solution", None),
            ("cli", "s5_polynomial_family", "family.s5_polynomial_family", None),
            ("cli", "positivity_value", "family.positivity_value", None),
            ("family", "positivity_value", "family.positivity_value", None),
        ]
        for module_name, attr, name, value in sites:
            module = importlib.import_module(f"sumprodpower.{module_name}")
            if hasattr(module, attr):
                self._patch(module, attr, self._wrap(name, getattr(module, attr), value))
                self.sites.append(f"{module_name}.{attr}")
        transforms = importlib.import_module("sumprodpower.transforms")
        cls = getattr(transforms, "DioSolution", None)
        if cls is not None and "__post_init__" in vars(cls):
            hook = vars(cls)["__post_init__"]
            self._patch(cls, "__post_init__", self._wrap("transforms.DioSolution.check", hook))
            self.sites.append("transforms.DioSolution.__post_init__")

    def _patch(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, with their self time."""
        child = self._child_ns()
        with gzip.open(path, "wt") as fh:
            for sid, parent, op, name, start, end, value in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name, "start_ns": start,
                    "dur_ns": end - start, "self_ns": end - start - child[sid], "value": value,
                }) + "\n")

    def _child_ns(self) -> dict[int, int]:
        child: dict[int, int] = defaultdict(int)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return child

    def layer_totals(self) -> dict[str, float]:
        """Per-layer totals over all spans recorded so far (times in s)."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        value: Counter = Counter()
        child = self._child_ns()
        mains = set()
        main_self = 0
        adds = []
        for sid, parent, _, name, start, end, v in self.spans:
            calls[name] += 1
            busy[name] += end - start
            value[name] += v or 0
            if name == "cli.main":
                mains.add(sid)
                main_self += end - start - child[sid]
            elif name == "elliptic.add":
                adds.append((v, end - start))
        family_calls = sum(1 for _, parent, _, name, *_ in self.spans
                           if name.startswith("family.") and parent in mains)
        # Median add time over the tenth of calls with the tallest inputs.
        top = sorted(adds)[-max(len(adds) // 10, 1):] if adds else []
        top_us = statistics.median(d for _, d in top) / 1e3 if top else 0.0
        s = lambda name: busy[name] / 1e9
        return {
            "search.enumerate_s": s("search.enumerate_solutions"),
            "search.solutions": value["search.enumerate_solutions"],
            "elliptic.add_calls": calls["elliptic.add"],
            "elliptic.add_s": s("elliptic.add"),
            "elliptic.on_curve_calls": calls["elliptic.on_curve"],
            "elliptic.on_curve_s": s("elliptic.on_curve"),
            "elliptic.add_us_top_decile": top_us,
            "transforms.s4_inverse_s": s("transforms.s4_inverse"),
            "transforms.positive_region_s": s("transforms.s4_in_positive_region"),
            "transforms.clear_denominators_s": s("transforms.clear_denominators"),
            "transforms.primitive_reduce_s": s("transforms.primitive_reduce"),
            "transforms.solution_checks": calls["transforms.DioSolution.check"],
            "transforms.solution_check_s": s("transforms.DioSolution.check"),
            "exactmath.perfect_sth_power_calls": calls["exactmath.perfect_sth_power"],
            "exactmath.perfect_sth_power_s": s("exactmath.perfect_sth_power"),
            "exactmath.int_nth_root_s": s("exactmath.int_nth_root"),
            "family.calls": family_calls,
            "family.general_solution_s": s("family.general_solution"),
            "family.s5_polynomial_family_s": s("family.s5_polynomial_family"),
            "family.positivity_value_s": s("family.positivity_value"),
            "cli.calls": calls["cli.main"],
            "cli.self_s": main_self / 1e9,
        }

    def max_coord_digits(self) -> int:
        return len(int_to_str(self.max_coord)) if self.max_coord else 0
