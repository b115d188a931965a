"""Seeded inputs for the benchmark workloads.

Everything here is computed by the benchmark itself, never by the program
under test: the same seed always gives the same operations.  One *round* is
the list of CLI invocations a workload replays in a closed loop.  Each round
is stratified (fixed counts per kind of input, with the seed choosing the
values and the order), so that rounds of different seeds cost about the same
and the run-to-run spread stays small.

Seeded family and ``--from-point`` inputs are drawn from fixed pools, so that
every one of them has a reference output captured once in ``reference.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from gate import int_to_str, parse_int

WORKLOADS = ("search", "search-jobs2", "gen4", "verify-family")

# (s, max-n) of the search cases.  The s = 3 case goes through `s3
# --brute-max` when serial and through `search --s 3` with --jobs 2.
SEARCH_BOUNDS = {
    "full": ((3, 2400), (4, 400), (5, 170), (6, 100), (7, 64)),
    "smoke": ((3, 200), (4, 60), (5, 40), (6, 30), (7, 24)),
}
# gen4 walks: (--count, --max-multiple).  Only odd multiples of (235, 8) map
# into the positive region, so --count c needs --max-multiple 2c.
GEN4_WALK = {"full": (30, 60), "smoke": (3, 6)}
# verify-family round composition.
VERIFY_FAMILY = {
    "full": {"big": 90, "s5": 705, "t12": 375, "tail": 75},
    "smoke": {"big": 2, "s5": 8, "t12": 4, "tail": 1},
}
BIG_DIGITS = (800, 1400)
PROBE_DIGITS = (4400, 4600)
FLAG_SETS = ((), ("--primitive",), ("--format", "tsv"), ("--primitive", "--format", "tsv"))
FAMILY_S = (5, 6, 7, 8, 9)
POOL_SEED = 13097537
POOL_TAIL_PER_SIGN = 24

# Known solutions (parts, b), checked with integer arithmetic at import.
S5_BASE = (
    ((1, 2, 12, 12), 6), ((1, 4, 4, 18), 6), ((1, 4, 20, 25), 10),
    ((3, 3, 16, 32), 12), ((1, 3, 32, 36), 12), ((1, 4, 12, 64), 12),
    ((9, 25, 30, 36), 30), ((1, 3, 8, 96), 12), ((1, 27, 36, 64), 24),
    ((1, 1, 18, 108), 12), ((10, 10, 24, 81), 30), ((1, 4, 27, 256), 24),
)
S4_BASE = (((1, 2, 24), 6), ((18609625, 138991832, 781943058), 208787670))

# The s = 4 curve y^2 = x^3 + S4_B x + S4_C and its seed point.
S4_B, S4_C = -166779, 26215254
S4_SEED = (Fraction(235), Fraction(8))


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the correctness gate expects of it.

    rc and solution are known to the benchmark independently of the program;
    reference marks ops whose exit code and stdout must match the output
    captured in reference.json.
    """

    argv: tuple[str, ...]
    fmt: str  # "jsonl", "tsv" or "text" (text emits no records)
    rc: int | None = None
    records: int | None = None
    reference: bool = False
    solution: tuple[int, ...] | None = None  # expected sorted parts then b
    search: tuple[int, int] | None = None  # (s, n_max) of the enumeration run


def _is_solution(parts: tuple[int, ...], b: int) -> bool:
    s = len(parts) + 1
    return all(a > 0 for a in parts) and prod(parts) * sum(parts) == b ** s


for _parts, _b in S5_BASE + S4_BASE:
    if not _is_solution(_parts, _b):
        raise AssertionError(f"base table entry {_parts} is not a solution")


def iroot(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 0 by integer Newton steps."""
    if m < 2:
        return m
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _fmt_of(flags: tuple[str, ...], default: str = "jsonl") -> str:
    return "tsv" if "tsv" in flags else default


def _digits(rng: random.Random, count: int) -> str:
    return str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(count - 1))


# ---------------------------------------------------------------------------
# search and search-jobs2
# ---------------------------------------------------------------------------

def search_ops(jobs: int, size: str) -> list[Op]:
    ops = []
    for s, n in SEARCH_BOUNDS[size]:
        if s == 3 and jobs == 1:
            argv = ("s3", "--brute-max", str(n))
        else:
            argv = ("search", "--s", str(s), "--max-n", str(n))
            if jobs > 1:
                argv += ("--jobs", str(jobs))
        fmt = "text" if argv[0] == "s3" else "tsv"
        ops.append(Op(argv, fmt, rc=0, reference=True, search=(s, n)))
    return ops


def search_space(s: int, n_max: int) -> int:
    """Candidates the naive last-slot loop visits: nondecreasing (s-1)-tuples
    of positive integers with sum <= n_max, counted by partitions into
    exactly s-1 parts."""
    k = s - 1
    # p[j][m]: partitions of m into exactly j parts.
    p = [[0] * (n_max + 1) for _ in range(k + 1)]
    p[0][0] = 1
    for j in range(1, k + 1):
        for m in range(j, n_max + 1):
            p[j][m] = p[j - 1][m - 1] + p[j][m - j]
    return sum(p[k])


# ---------------------------------------------------------------------------
# gen4
# ---------------------------------------------------------------------------

_MULTIPLES: dict[int, tuple[Fraction, Fraction]] = {}


def s4_multiple(k: int) -> tuple[Fraction, Fraction]:
    """k * (235, 8) on the s = 4 curve, by the benchmark's own chord law."""
    if not _MULTIPLES:
        _MULTIPLES[1] = S4_SEED
    top = max(_MULTIPLES)
    x1, y1 = S4_SEED
    while top < k:
        x2, y2 = _MULTIPLES[top]
        # Tangent for 2P, chord otherwise (kP != P for k > 1: P has infinite order).
        lam = (3 * x1 * x1 + S4_B) / (2 * y1) if top == 1 else (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        top += 1
        _MULTIPLES[top] = (x3, lam * (x1 - x3) - y1)
    x, y = _MULTIPLES[k]
    if y * y != x ** 3 + S4_B * x + S4_C:
        raise AssertionError(f"multiple {k} left the curve")
    return x, y


def _frac_str(f: Fraction) -> str:
    num = int_to_str(f.numerator)
    return num if f.denominator == 1 else f"{num}/{int_to_str(f.denominator)}"


def from_point_op(k: int, sign: int, flags: tuple[str, ...]) -> Op:
    x, y = s4_multiple(k)
    if not (x < 243 and abs(y) < 6369 - 27 * x):
        raise AssertionError(f"multiple {k} is outside the positive region")
    # The --opt=value form keeps argparse from reading a leading '-' as a flag.
    point = f"--from-point={_frac_str(x)},{_frac_str(sign * y)}"
    return Op(("gen4", point) + flags, _fmt_of(flags), rc=0, records=1, reference=True)


def gen4_walk_ops(size: str) -> list[Op]:
    count, multiples = GEN4_WALK[size]
    base = ("gen4", "--count", str(count), "--max-multiple", str(multiples))
    return [Op(base + flags, _fmt_of(flags), rc=0, records=count, reference=True)
            for flags in FLAG_SETS]


def gen4_ops(rng: random.Random, size: str) -> list[Op]:
    ops = gen4_walk_ops(size)
    # Every odd multiple the walk reaches with every flag set, once per round;
    # the seed picks the signs.  The flags hardly change the cost, so each
    # multiple gives four ops of one cost, and op_p50_ms rests on several ops
    # rather than on the sampling noise of one.
    for k in range(1, GEN4_WALK[size][1], 2):
        for flags in FLAG_SETS:
            ops.append(from_point_op(k, rng.choice((1, -1)), flags))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify-family
# ---------------------------------------------------------------------------

def _verify_op(parts: list[int], b: int, accept: bool, rng: random.Random) -> Op:
    s = len(parts) + 1
    expected = tuple(sorted(parts)) + (b,)
    if not accept:
        while True:
            i = rng.randrange(len(parts))
            bad = parts[:i] + [parts[i] + rng.randint(1, 1000)] + parts[i + 1:]
            value = prod(bad) * sum(bad)
            if iroot(value, s) ** s != value:
                break
        parts = bad
    rng.shuffle(parts)
    argv = ("verify", "--s", str(s), "--parts", ",".join(int_to_str(a) for a in parts))
    if accept:
        return Op(argv, "jsonl", rc=0, records=1, solution=expected)
    return Op(argv, "jsonl", rc=1, records=0)


def family_d(tail: tuple[Fraction, ...], t0: Fraction) -> Fraction:
    """The positivity quadratic D = 4 u t0^2 - u v^2 t0 + 4 of the family."""
    u, v = prod(tail), sum(tail)
    return 4 * u * t0 * t0 - u * v * v * t0 + 4


def _family_op(argv: tuple[str, ...], positive: bool, flags: tuple[str, ...]) -> Op:
    return Op(argv + flags, _fmt_of(flags), rc=0 if positive else 1,
              records=1 if positive else 0, reference=True)


_POOL: dict[str, list[Op]] = {}


def family_pool() -> dict[str, list[Op]]:
    """Fixed family inputs by kind and sign of D; a seed only picks among them."""
    if _POOL:
        return _POOL
    rng = random.Random(POOL_SEED)
    for t1 in range(1, 13):
        for t2 in range(1, 13):
            positive = 4 * t1 * t1 * t2 - t1 * t2 ** 3 + 4 > 0
            argv = ("family", "--s", "5", "--t1", str(t1), "--t2", str(t2))
            key = "t12+" if positive else "t12-"
            _POOL.setdefault(key, []).append(_family_op(argv, positive, rng.choice(FLAG_SETS)))
    values = [Fraction(v) for v in
              ("1/4", "1/3", "1/2", "2/3", "1", "3/2", "2", "5/2", "3", "4", "6")]
    for s in FAMILY_S:
        seen: set[tuple[str, ...]] = set()
        pos: list[Op] = []
        neg: list[Op] = []
        for _ in range(100_000):
            if len(pos) == len(neg) == POOL_TAIL_PER_SIGN:
                break
            tail = tuple(rng.choice(values) for _ in range(s - 4))
            t0 = rng.choice(values)
            argv = ("family", "--s", str(s), "--tail", ",".join(map(str, tail)), "--t0", str(t0))
            positive = family_d(tail, t0) > 0
            bucket = pos if positive else neg
            if argv in seen or len(bucket) >= POOL_TAIL_PER_SIGN:
                continue
            seen.add(argv)
            bucket.append(_family_op(argv, positive, rng.choice(FLAG_SETS)))
        else:
            raise AssertionError(f"too few distinct family inputs for s={s}")
        _POOL[f"tail{s}+"] = pos
        _POOL[f"tail{s}-"] = neg
    return _POOL


def verify_family_ops(rng: random.Random, size: str) -> list[Op]:
    mix = VERIFY_FAMILY[size]
    pool = family_pool()
    ops = []
    lo, hi = BIG_DIGITS
    n = mix["big"]
    for i in range(n):
        # Accepted only: rejecting these prints prod * n, which passes the
        # 4300-digit limit; probe_ops covers that case.
        digits = lo + (hi - lo) * i // max(n - 1, 1)
        scale = rng.randrange(10 ** (digits - 1), 10 ** digits)
        parts, b = rng.choice(S4_BASE)
        ops.append(_verify_op([a * scale for a in parts], b * scale, True, rng))
    for accept in (True, False):
        for _ in range(mix["s5"]):
            scale = rng.randint(1, 10 ** 12)
            parts, b = rng.choice(S5_BASE)
            ops.append(_verify_op([a * scale for a in parts], b * scale, accept, rng))
    for sign in "+-":
        ops.extend(rng.choice(pool["t12" + sign]) for _ in range(mix["t12"]))
        for s in FAMILY_S:
            ops.extend(rng.choice(pool[f"tail{s}{sign}"]) for _ in range(mix["tail"]))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def round_ops(workload: str, seed: int, size: str) -> list[Op]:
    """The invocations of one round of a workload, in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("search", "search-jobs2"):
        ops = search_ops(2 if workload == "search-jobs2" else 1, size)
        rng.shuffle(ops)
        return ops
    if workload == "gen4":
        return gen4_ops(rng, size)
    if workload == "verify-family":
        return verify_family_ops(rng, size)
    raise ValueError(f"unknown workload {workload!r}")


def probe_ops(seed: int) -> dict[str, Op]:
    """Inputs past Python's 4300-digit int<->str limit, which a correct
    program handles: a verify of >4300-digit parts, a rejected verify whose
    prod * n has >4300 digits, and a gen4 walk whose parts pass 4300 digits."""
    rng = random.Random(f"probe:{seed}")
    scale = parse_int(_digits(rng, rng.randint(*PROBE_DIGITS)))
    parts, b = S4_BASE[0]
    scaled = [int_to_str(a * scale) for a in parts]
    rng.shuffle(scaled)
    verify = Op(("verify", "--s", "4", "--parts", ",".join(scaled)), "jsonl", rc=0, records=1,
                solution=tuple(sorted(a * scale for a in parts)) + (b * scale,))
    scale = rng.randrange(10 ** (BIG_DIGITS[1] - 1), 10 ** BIG_DIGITS[1])
    reject = _verify_op([a * scale for a in parts], b * scale, False, rng)
    walk = Op(("gen4", "--count", "40", "--max-multiple", "80"), "jsonl", rc=0, records=40)
    return {"verify-4300-digits": verify, "verify-reject-4300-digits": reject,
            "gen4-count-40": walk}


def reference_ops() -> list[Op]:
    """Every op whose output is pinned by reference.json."""
    ops: list[Op] = []
    for size in ("full", "smoke"):
        ops += search_ops(1, size) + search_ops(2, size) + gen4_walk_ops(size)
    for k in range(1, GEN4_WALK["full"][1], 2):
        for sign in (1, -1):
            ops += [from_point_op(k, sign, flags) for flags in FLAG_SETS]
    for group in family_pool().values():
        ops += group
    return ops
