"""Benchmark of the sumprodpower command line, end to end and layer by layer.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload
    python3 perfbench/run.py --workload gen4 --smoke --seconds 1     # seconds-long check

Run it from the root of a checkout: the package is imported from ./src.
BENCHMARK.json lists search, gen4 and verify-family.  search-jobs2 (the
search specs with --jobs 2) runs on demand only: two worker processes on a
shared 2-core host spread about 10% between runs even at the reference
speed, too much for a 25% bound.
Each workload replays one seeded round of CLI invocations, calling
``sumprodpower.cli.main(argv)`` in this process, one at a time (a closed loop
with one client), with stdout and stderr captured.  Every output passes the
correctness gate in gate.py.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  Details go
to perfbench/out/.

End-to-end metrics (untraced).  Every op of the round runs once per round,
and its latency is its 10th percentile over the rounds of the run.  Rounds
are short (about a second), so each op has many samples in a run.

The speed of a shared host swings by up to 1.7x within seconds, so times
are given at a reference speed: a fixed piece of pure-Python work (see
calibration_work) is timed between ops throughout the run, and every time
below is multiplied by CALIBRATION_REF_S over the 10th percentile of those
samples.  A change to the program moves these times as it moves the raw
ones; a change in the host's speed during or between runs cancels out.  The
raw factor is in the result file as ``speed_factor``.
  wall_s          one round: the sum of the ops' latencies
  records_per_s   records one round emits / wall_s
  op_p50_ms       median over the ops of the round of their latency
  op_p99_ms       99th percentile (nearest rank) of the same sample
  setup_s         median time of a fresh ``python3`` that imports the CLI,
                  builds its parser and verifies (1, 2, 24); the samples
                  are spread over the run
  peak_rss_mib    peak resident set of this process plus its largest child

Per-layer metrics (``--trace 1``) are per round, from spans recorded by the
wrappers in spans.py; trace.overhead_s is the traced minus the untraced
wall_s of the same run.

The probes in workloads.probe_ops run before the timed rounds in every run.
They feed inputs past Python's 4300-digit int<->str limit, which the package
does not handle yet.  Their outcome goes into ``error_rate`` (failed over
attempted ops, probes included) in the report and the result file, not into
``failed``, which counts the timed ops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import gate
import spans
import workloads

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = {"full": 15, "smoke": 1}
# Op latencies and calibration samples are reduced to this quantile: the
# host's fast state, which every run reaches, rather than the share of slow
# spells the run happened to meet.
LOW_QUANTILE = 0.1
# About calibration_work's 10th-percentile time on a 2-core Xeon VM with
# Python 3.11.7; reported times are scaled to that speed.
CALIBRATION_REF_S = 0.003
CALIBRATION_SPACING_S = 0.04
SETUP_ARGV = ["verify", "--s", "4", "--parts", "1,2,24"]
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from sumprodpower.cli import main
raise SystemExit(main(sys.argv[2:]))
"""

END_TO_END_UNITS = {
    "wall_s": "s", "records_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
    "setup_s": "s", "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "search.enumerate_s": "s", "search.space": "count", "search.ns_per_candidate": "ns",
    "search.hit_ratio": "ratio", "search.jobs2_speedup": "ratio",
    "elliptic.add_calls": "count", "elliptic.add_s": "s", "elliptic.on_curve_calls": "count",
    "elliptic.on_curve_s": "s", "elliptic.max_coord_digits": "digits",
    "elliptic.add_us_top_decile": "us",
    "transforms.s4_inverse_s": "s", "transforms.positive_region_s": "s",
    "transforms.clear_denominators_s": "s", "transforms.primitive_reduce_s": "s",
    "transforms.solution_checks": "count", "transforms.solution_check_s": "s",
    "exactmath.perfect_sth_power_calls": "count", "exactmath.perfect_sth_power_s": "s",
    "exactmath.int_nth_root_s": "s",
    "family.calls": "count", "family.general_solution_s": "s",
    "family.s5_polynomial_family_s": "s", "family.positivity_value_s": "s",
    "cli.calls": "count", "cli.stdout_bytes": "bytes", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    """Counts attempted and failed ops; keeps the first failure reasons."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{' '.join(op.argv)[:80]}: {reason}")


def run_op(cli, argv):
    """One in-process invocation: (exit code, stdout, exception, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(list(argv))
        except Exception as caught:  # a crash is a failed op, not a benchmark error
            exc = caught
        elapsed = time.perf_counter_ns() - start
    return rc, out.getvalue(), exc, elapsed / 1e9


def low_quantile(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[int(LOW_QUANTILE * (len(ordered) - 1))]


_CAL_NUM = 3 ** 301
_CAL_DEN = 2 ** 401
_CAL_POWERS = {k ** 5: k for k in range(1, 3000)}


def calibration_work() -> int:
    """A fixed piece of the kinds of work the CLI does: Fractions of
    hundred-digit integers (gcds), int<->str conversion and dicts, then a
    loop of small-integer products looked up in a table of powers."""
    total = 0
    for i in range(1, 150):
        f = Fraction(_CAL_NUM + i, _CAL_DEN - i) * Fraction(i + 1, 3) + Fraction(1, i)
        row = {"s": i % 7, "n": str(f.numerator % 10 ** 60)}
        total += len(row["n"]) + row["s"]
    get = _CAL_POWERS.get
    for p in range(1, 46):
        product = p * 7919
        for a in range(p, p + 400):
            if get(product * a * (p + a)) is not None:
                total += 1
    return total


class Calibration:
    """Times calibration_work between ops, at most once per spacing, for the
    speed of the host over the run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.last = -math.inf

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATION_SPACING_S:
            start = time.perf_counter_ns()
            calibration_work()
            self.times.append((time.perf_counter_ns() - start) / 1e9)
            self.last = time.perf_counter()

    def factor(self) -> float:
        """Multiply a time measured in this run by this for the reference speed."""
        return CALIBRATION_REF_S / low_quantile(self.times)


class Rounds:
    """Replays a round of ops; checks the first pass of each op in full and
    requires every later pass to produce the same exit code and stdout.
    calibration, if given, samples the host's speed between ops."""

    def __init__(self, cli, ops, tally: Tally, tracer: spans.Tracer | None = None,
                 calibration: Calibration | None = None) -> None:
        self.cli, self.ops, self.tally, self.tracer = cli, ops, tally, tracer
        self.calibration = calibration
        # Per op: ((exit code, stdout digest, completed), failure reason, records).
        self.first: list[tuple | None] = [None] * len(ops)
        # Latency of each pass; flat doubles, so that peak_rss_mib hardly
        # depends on how many rounds a run fits in.
        self.per_op = [array("d") for _ in ops]
        self.rounds = 0
        self.records = 0  # per round
        self.stdout_bytes = 0

    def run_round(self) -> None:
        records = 0
        for i, op in enumerate(self.ops):
            if self.tracer is not None:
                self.tracer.op = self.rounds * len(self.ops) + i  # one id per invocation
            rc, out, exc, seconds = run_op(self.cli, op.argv)
            self.per_op[i].append(seconds)
            self.stdout_bytes += len(out)
            seen = (rc, gate.digest(out), exc is None)
            if self.first[i] is None:
                reason, count = gate.check(op, rc, out, exc, self.tally.reference)
                self.first[i] = (seen, reason, count)
            elif seen != self.first[i][0]:
                self.first[i] = (seen, "output differs between rounds", 0)
            _, reason, count = self.first[i]
            self.tally.record(op, reason)
            records += count
            if self.calibration is not None:
                self.calibration.maybe_sample()
        self.records = records
        self.rounds += 1

    def run_for(self, seconds: float, between=None) -> None:
        """At least one round; another only while it fits in the time left.
        between() runs after each round, outside the op timings."""
        start = time.perf_counter()
        while True:
            self.run_round()
            if between is not None:
                between()
            elapsed = time.perf_counter() - start
            if elapsed * (self.rounds + 1) / self.rounds > seconds:
                return

    @property
    def typical(self) -> list[float]:
        """Each op's low-quantile latency over the passes of this run."""
        return [low_quantile(samples) for samples in self.per_op]

    @property
    def wall(self) -> float:
        """Time of one round: the sum of each op's typical latency."""
        return sum(self.typical)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


class Setup:
    """Wall time of a fresh interpreter that imports the CLI, builds its parser
    and verifies one solution: what every command-line user pays."""

    OP = workloads.Op(tuple(SETUP_ARGV), "jsonl", rc=0, records=1, solution=(1, 2, 24, 6))

    def __init__(self, tally: Tally, samples: int, seconds: float) -> None:
        self.tally = tally
        self.samples = samples
        self.spacing = seconds / samples
        self.times: list[float] = []
        self.sample()  # the first run may compile bytecode
        self.times.clear()
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Take a sample if the run has moved on by one spacing since the last."""
        if len(self.times) < self.samples and time.perf_counter() - self.last >= self.spacing:
            self.sample()
            self.last = time.perf_counter()

    def sample(self) -> None:
        cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(ROOT / "src"), *SETUP_ARGV]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        self.times.append(time.perf_counter() - start)
        reason, _ = gate.check(self.OP, proc.returncode, proc.stdout, None, {})
        self.tally.record(self.OP, reason)

    def median(self) -> float:
        while len(self.times) < self.samples:
            self.sample()
        return statistics.median(self.times)


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "git_commit": git_commit(),
    }


def run_probes(cli, seed: int, reference: dict) -> dict:
    results = {}
    for name, op in workloads.probe_ops(seed).items():
        rc, out, exc, seconds = run_op(cli, op.argv)
        reason, _ = gate.check(op, rc, out, exc, reference)
        results[name] = {"passed": reason is None, "exit_code": rc, "problem": reason,
                         "seconds": seconds}
    return results


def layer_metrics(tracer: spans.Tracer, traced: Rounds, untraced: Rounds,
                  other_tracer: spans.Tracer | None) -> dict:
    """Per-layer metrics of one traced round; other_tracer traced one round
    of the other search variant, for search.jobs2_speedup."""
    ops = traced.ops
    rounds = traced.rounds
    totals = {name: value / rounds for name, value in tracer.layer_totals().items()}
    space = sum(workloads.search_space(*op.search) for op in ops if op.search is not None)
    enumerate_s = totals["search.enumerate_s"]
    speedup = 0.0
    if other_tracer is not None:
        other_s = other_tracer.layer_totals()["search.enumerate_s"]
        jobs2 = any("--jobs" in op.argv for op in ops)
        serial, parallel = (other_s, enumerate_s) if jobs2 else (enumerate_s, other_s)
        speedup = serial / parallel
    metrics = {
        "search.enumerate_s": enumerate_s,
        "search.space": space,
        "search.ns_per_candidate": enumerate_s * 1e9 / space if space else 0.0,
        "search.hit_ratio": totals["search.solutions"] / space if space else 0.0,
        "search.jobs2_speedup": speedup,
        "elliptic.max_coord_digits": tracer.max_coord_digits(),
        "cli.stdout_bytes": traced.stdout_bytes / rounds,
        "trace.overhead_s": traced.wall - untraced.wall,
    }
    for name in PER_LAYER_UNITS:
        if name not in metrics:
            metrics[name] = totals[name]
    return metrics


def result_stem(workload: str, args) -> str:
    return f"{workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"


def run_workload(args) -> int:
    size = "smoke" if args.smoke else "full"
    if not (ROOT / "src" / "sumprodpower" / "cli.py").is_file():
        print(f"error: no src/sumprodpower/cli.py under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from sumprodpower import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported {cli.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    ops = workloads.round_ops(args.workload, args.seed, size)
    tally = Tally(reference)
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    stem = result_stem(args.workload, args)

    probes = run_probes(cli, args.seed, reference)
    calibration = Calibration()
    untraced = Rounds(cli, ops, tally, calibration=calibration)
    setup = None
    traced_sites: list[str] = []
    if args.trace:
        # Untraced, traced, untraced again: a drift in machine speed during
        # the run then cancels out of trace.overhead_s.
        tracer = spans.Tracer()
        traced = Rounds(cli, ops, tally, tracer)
        untraced.run_for(args.seconds / 4)
        with tracer:
            traced.run_for(args.seconds / 2)
        untraced.run_for(args.seconds / 4)
        other_tracer = None
        if args.workload in ("search", "search-jobs2"):
            # Both variants of the same specs, for search.jobs2_speedup.
            variant = "search" if args.workload == "search-jobs2" else "search-jobs2"
            other_tracer = spans.Tracer()
            other = Rounds(cli, workloads.round_ops(variant, args.seed, size), tally, other_tracer)
            with other_tracer:
                other.run_round()
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl.gz")
        metrics = layer_metrics(tracer, traced, untraced, other_tracer)
        units = PER_LAYER_UNITS
        samples = len(ops)
        traced_sites = tracer.sites
    else:
        setup = Setup(tally, SETUP_SAMPLES[size], args.seconds)
        untraced.run_for(args.seconds, setup.maybe_sample)
        speed_factor = calibration.factor()
        typical = [t * speed_factor for t in untraced.typical]
        wall = sum(typical)
        metrics = {
            "wall_s": wall,
            "records_per_s": untraced.records / wall,
            "op_p50_ms": statistics.median(typical) * 1e3,
            "op_p99_ms": percentile(typical, 0.99) * 1e3,
            "setup_s": setup.median() * speed_factor,
            "peak_rss_mib": peak_rss_mib(),
        }
        units = END_TO_END_UNITS
        samples = len(typical)

    probe_failures = sum(not p["passed"] for p in probes.values())
    errors = tally.failed + probe_failures
    attempted = tally.attempted + len(probes)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size, "environment": env,
        "rounds": untraced.rounds, "ops_per_round": len(ops), "latency_samples": samples,
        "setup_samples": len(setup.times) if setup else 0,
        "speed_factor": calibration.factor(), "calibration_samples": len(calibration.times),
        "traced_sites": traced_sites,
        "error_rate": {"value": errors / attempted, "failed": errors, "attempted": attempted},
        "probes": probes, "failure_reasons": tally.reasons, "result": result,
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(details, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  ({size}, trace {args.trace})  "
          f"python {env['python']}  cpus {env['cpu_count']}  "
          f"int digit limit {env['int_max_str_digits']}  commit {env['git_commit'][:12]}")
    print(f"  {untraced.rounds} untraced rounds of {len(ops)} ops; "
          f"op latencies are each op's 10th percentile over the rounds ({samples} ops)")
    if not args.trace:
        print(f"  times at the reference speed: raw times x {calibration.factor():.4f} "
              f"({len(calibration.times)} calibration samples)")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    print(f"  {'error_rate':36s} {errors / attempted:14.6g} ratio "
          f"({errors} of {attempted} ops: {tally.failed} timed, {probe_failures} probes)")
    for name, probe in probes.items():
        status = "pass" if probe["passed"] else f"FAIL ({probe['problem']})"
        print(f"  probe {name}: {status}")
    for reason in tally.reasons:
        print(f"  failed: {reason}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    rows = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[name] = json.loads((OUT_DIR / f"result-{result_stem(name, args)}.json").read_text())
    units = dict(PER_LAYER_UNITS if args.trace else END_TO_END_UNITS, error_rate="ratio")
    values = {}
    for w, r in rows.items():
        values[w] = {m: v["value"] for m, v in r["result"]["metrics"].items()}
        values[w]["error_rate"] = r["error_rate"]["value"]
    width = max(len(w) for w in rows) + 6
    print("\n" + "metric".ljust(36) + "unit".ljust(8) + "".join(w.rjust(width) for w in rows))
    for metric, unit in units.items():
        print(metric.ljust(36) + unit.ljust(8)
              + "".join(f"{values[w][metric]:{width}.5g}" for w in rows))
    (OUT_DIR / f"summary-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rows, indent=2) + "\n")
    return 0 if all(r["result"]["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
