"""Bounded exhaustive enumeration of solutions with nondecreasing parts.

The enumeration walks nondecreasing prefixes (a_1 <= ... <= a_{s-3}) whose sum
leaves room for the parts still to come, pruning a prefix as soon as the
remaining slots cannot fit (each remaining part is at least as large as the
current one).  The last two parts a <= x are never both scanned.  With P and
T the product and sum of a prefix, a solution needs

    P * a * x * (T + a + x) = b**s,

and P divides b**s exactly when b is a multiple of

    r(P) = prod p**ceil(e/s)  over the prime powers p**e exactly dividing P.

No sum can exceed (s - 1) times the part bound, so n_max below stands for the
sum bound min(n_max, (s - 1) * a_max).  r(P) and the factors of b come from a
smallest-prime-factor sieve over [0, n_max]: the prime-exponent map exps of
the prefix is carried down the upper levels, and r is multiplied by
p**(ceil((e + f)/s) - ceil(e/s)) for each prime power p**f of a new part.
All of it is integer arithmetic.  Solutions are re-verified exactly when they
are materialized as DioSolution values.

The upper levels (every part before the last two) are walked from an explicit
stack of prefix states (parts, total, product, r, exps, lo, hi), where the
next part lies in [lo, hi].  Popping a state loops over that part, factors
it from the sieve inline, and either pushes the child state or, when the
child holds all s - 3 parts, hands it to the last level.  A child whose part
is above 1 gets its own copy of exps, so no state changes once it is pushed
and nothing is undone on the way back.  The depth of the walk is a list's
length, not the interpreter's stack, so any s runs.

For s >= 4 the prefix is not empty, and the last level walks b.  The
second-to-last part a lies in [lo, hi], with hi <= (n_max - T) / 2, and
a <= x <= top(a) = min(a_max, n_max - T - a).  P * a * x * (T + a + x) rises
in a and in x, so it is least at a = x = lo.  At x = top(a) it still rises
in a while a <= (n_max - T) / 2, so it is greatest at a = hi, x = top(hi).
A sorted list of s-th powers, bisected, gives the b range between the two,
and in it only the multiples of r(P) are visited.  For each such b:
  - Q = b**s / P is exact, because r(P) | b gives P | b**s.
  - For each prime power p**e exactly dividing b, p**(s*e - exps[p]) exactly
    divides Q, and s*e - exps[p] >= 0 because P | b**s.  Q divides b**s,
    so b's primes are all of Q's.  b < n <= n_max (see _divisor_walk), so
    b's factors come from the sieve.
  - a | Q is the same condition as P * a | b**s, so the divisors of Q in
    [lo, hi] are the only second-to-last parts to try, with no r(P * a).
  - x >= a >= lo gives Q = a * x * (T + a + x) >= a**2 * (T + 2 * a) >=
    a**2 * (T + 2 * lo), so a <= cap = min(hi, isqrt(Q // (T + 2 * lo)))
    (a**2 is an integer, so flooring Q / (T + 2 * lo) loses nothing).  The
    divisors are generated only up to cap.
  - x then solves x * (t + x) = Q / a with t = T + a: the discriminant
    t**2 + 4 * Q / a must be a perfect square root**2, and root = t (mod 2)
    since root**2 = t**2 (mod 4), so x = (root - t) / 2 is an integer.  The
    pair is kept when a <= x <= a_max and t + x <= n_max.
There are two last levels, one per arity: _divisor_walk for s >= 4 and
_s3_last_level for s = 3.  For s = 3 the prefix is empty, every b up to
about 0.63 * n_max is a multiple of r(1) = 1, and Q = b**3 has many
divisors, so walking b is slow: at s = 3 the divisor walk ran 4 to 5 times
slower than a loop over the first part a, which is what _s3_last_level
does.  With an empty prefix, r(a) = prod p**ceil(f/3) over a's prime powers
p**f needs no exponent map.  Each step takes the smallest prime p of m,
what is left of a, and divides m by gcd(m, p**3), that is by up to three
factors p; so p is taken ceil(f/3) times, and their product is r(a).
With x in [a, top], top = min(a_max, n_max - a), the kernel bisects the b
range from b**3 >= 2 * a**3 (x = a) to b**3 <= a * top * (a + top)
(x = top), visits only the multiples of r(a) in it, and recovers x from
the same quadratic with T = 0: disc = a**2 + 4 * b**3 / a.

Whole prefixes are cut at the upper levels by the same r.  Take a prefix with
product P * a and sum t, and m parts still to choose.
  - r(P * a) | r(P * a * Q) for every product Q of further parts, since
    ceil(e/s) <= ceil((e + f)/s); so every completion has b >= r(P * a).
  - The m parts sum to at most n_max - t, so by AM-GM their product is at
    most ((n_max - t)/m)**m, and n <= n_max; so b**s <= P * a *
    ((n_max - t)/m)**m * n_max.
A prefix with r(P * a)**s * m**m > P * a * (n_max - t)**m * n_max therefore
has no completion, and its subtree is skipped.

The tables take memory in proportion to n_max.  Resident memory (the growth
of ru_maxrss across _tables, each in a fresh process, at n_max = 10**6 on
CPython 3.11, x86-64 Linux) grows by 77.7 bytes per unit of n_max for s = 3
and 52.3 for s = 7.  That is more than tracemalloc's peak of 40 bytes per
unit, which counts live objects only: the sieve holds an int object and a
list slot per entry while it is built, and for small s the powers list is
long (about 0.63 n_max big ints at s = 3).  SearchSpec refuses an n_max above
N_MAX_LIMIT = 10**7, where at these figures one run's tables take about
780 MB resident for s = 3 and 520 MB for s = 7.  Each --jobs worker builds
its own tables.

Parallel runs split the leading part into blocks of consecutive values for at
most one worker per usable core; each worker builds the sieve and the power
list once, workers share nothing and the merged result is sorted, so output
is a function of the spec alone.  multiprocessing and signal (each worker
ignores SIGINT) are imported only by such runs, so a serial run and every
other subcommand start without them.
"""

import os
from bisect import bisect_left, bisect_right
from math import gcd, isqrt

from ._value import Value
from .exactmath import format_decimal, int_nth_root
from .transforms import DioSolution

__all__ = ["SearchSpec", "enumerate_solutions"]

# The largest n_max a search accepts; sized in the module docstring.
N_MAX_LIMIT = 10**7


class SearchSpec(Value):
    """Bounds for one enumeration run: s, sum bound, optional part bound, workers."""

    __slots__ = ("s", "n_max", "a_max", "jobs")
    s: int
    n_max: int
    a_max: int | None
    jobs: int

    def __init__(self, s: int, n_max: int, a_max: int | None = None, jobs: int = 1) -> None:
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "a_max", a_max)
        object.__setattr__(self, "jobs", jobs)
        if s < 3:
            raise ValueError("s must be >= 3")
        if n_max < s - 1:
            raise ValueError(f"n_max must be at least {format_decimal(s - 1)}")
        if n_max > N_MAX_LIMIT:
            raise ValueError(f"n_max must be at most {N_MAX_LIMIT}")
        if a_max is not None and a_max < 1:
            raise ValueError("a_max must be positive")
        if jobs < 1:
            raise ValueError("jobs must be positive")

    @property
    def part_bound(self) -> int:
        return self.n_max if self.a_max is None else min(self.a_max, self.n_max)

    @property
    def sum_bound(self) -> int:
        # s - 1 parts of at most part_bound each.
        return min(self.n_max, (self.s - 1) * self.part_bound)


# The bounds and lookup tables of one run: s, n_max, a_max, spf, powers.
_Tables = tuple[int, int, int, list[int], list[int]]


def _tables(s: int, n_max: int, a_max: int) -> _Tables:
    """Per-run lookup tables: a smallest-prime-factor sieve over [0, n_max]
    and powers[b] = b**s for every b that prod * sum can reach."""
    spf = list(range(n_max + 1))
    # Descending, so each m keeps the smallest p with p | m and p * p <= m.
    # That p is prime: whatever a composite p marks, its smallest prime
    # factor marks again later.
    for p in range(isqrt(n_max), 1, -1):
        spf[p * p :: p] = [p] * len(range(p * p, n_max + 1, p))
    # AM-GM: prod(parts) <= (n / (s - 1))**(s - 1) for parts summing to n.
    k = s - 1
    b_max = int_nth_root(n_max * (n_max // k + 1) ** k, s)
    return s, n_max, a_max, spf, [b ** s for b in range(b_max + 1)]


def _search(tables: _Tables, lo: int, hi: int) -> list[tuple[tuple[int, ...], int, int]]:
    # All solutions whose smallest part lies in [lo, hi].
    s, n_max, a_max, spf, powers = tables
    out: list[tuple[tuple[int, ...], int, int]] = []
    if s == 3:  # the prefix is empty, so the first part is the last level's
        _s3_last_level(tables, lo, hi, out)
        return out
    s1 = s - 1
    # The upper levels (module docstring).  In a prefix state the next part
    # lies in [lo, hi], r = r(product), and exps maps each prime to its
    # exponent in product; no state changes once it is on the stack.
    stack = [((), 0, 1, 1, {}, lo, hi)]
    while stack:
        parts, total, product, r, exps, lo, hi = stack.pop()
        remaining = s - 2 - len(parts)  # parts still to choose after the next one
        room = remaining ** remaining
        last = remaining == 2  # the children are last-level prefixes
        for a in range(lo, hi + 1):
            ra = r
            child = exps
            if a > 1:
                child = exps.copy()
                m = a
                while m > 1:  # a's prime powers p**f from the sieve
                    p = spf[m]
                    m //= p
                    f = 1
                    while spf[m] == p:
                        m //= p
                        f += 1
                    e = child.get(p, 0)
                    ra *= p ** ((e + f + s1) // s - (e + s1) // s)
                    child[p] = e + f
            t = total + a
            pa = product * a
            rest = n_max - t
            # The prefix cut (module docstring): r(pa)**s > pa times the
            # AM-GM bound on the rest leaves no completion.
            if ra ** s * room <= pa * rest ** remaining * n_max:
                child_hi = rest // remaining
                if child_hi > a_max:
                    child_hi = a_max
                if last:
                    _divisor_walk(tables, parts + (a,), t, pa, ra, child, a, child_hi, out)
                else:
                    stack.append((parts + (a,), t, pa, ra, child, a, child_hi))
    return out


def _s3_last_level(
    tables: _Tables, lo: int, hi: int, out: list[tuple[tuple[int, ...], int, int]]
) -> None:
    # The last level for s = 3 by its first part a (module docstring).  The
    # second part x in [a, top] needs a * x * (a + x) = b**3, and a divides
    # b**3 exactly when r(a) divides b.
    s, n_max, a_max, spf, powers = tables
    for a in range(lo, hi + 1):
        ra = 1
        m = a
        while m > 1:  # ra = r(a) when m reaches 1 (module docstring)
            p = spf[m]
            ra *= p
            m //= gcd(m, p * p * p)
        top = n_max - a
        if top > a_max:
            top = a_max
        b_lo = -(-bisect_left(powers, 2 * a * a * a) // ra) * ra
        b_end = bisect_right(powers, a * top * (a + top))
        for b in range(b_lo, b_end, ra):
            # x * (a + x) = b**3 / a.  root**2 = disc = a**2 (mod 4) forces
            # root = a (mod 2), so x = (root - a) / 2 is an integer.
            disc = a * a + 4 * (powers[b] // a)
            root = isqrt(disc)
            if root * root == disc:
                out.append(((a, (root - a) >> 1), (root + a) >> 1, b))


def _b_range(tables: _Tables, total: int, product: int, r: int, lo: int, hi: int) -> range:
    # The multiples of r = r(product) that can be b for a prefix with this
    # product and sum and a second-to-last part a in [lo, hi]: from a = x = lo
    # to a = hi, x = top(hi) (module docstring).
    s, n_max, a_max, spf, powers = tables
    top = min(a_max, n_max - total - hi)
    b_lo = bisect_left(powers, product * lo * lo * (total + 2 * lo))
    b_end = bisect_right(powers, product * hi * top * (total + hi + top))
    return range(-(-b_lo // r) * r, b_end, r)


def _divisor_walk(
    tables: _Tables,
    parts: tuple[int, ...],
    total: int,
    product: int,
    r: int,
    exps: dict[int, int],
    lo: int,
    hi: int,
    out: list[tuple[tuple[int, ...], int, int]],
) -> None:
    # The last level by b (module docstring), for a non-empty prefix `parts`
    # with product P = product and sum T = total: for each b, every divisor
    # a of Q = b**s / P from lo up to the per-b cap, then x from
    # x * (T + a + x) = Q / a.
    s, n_max, a_max, spf, powers = tables
    t_lo = total + 2 * lo
    for b in _b_range(tables, total, product, r, lo, hi):
        # b**s <= P * hi * top * (T + hi + top), which is prod * n for s - 1
        # parts of sum n = T + hi + top <= n_max, each below n.  So b**s < n**s
        # and b < n <= n_max: b is inside the sieve.
        q = powers[b] // product
        # x >= a >= lo gives a**2 * (T + 2 * lo) <= Q (module docstring).
        cap = isqrt(q // t_lo)
        if cap > hi:
            cap = hi
        divisors = [1]
        m = b
        while m > 1:
            p = spf[m]
            m //= p
            e = 1
            while spf[m] == p:
                m //= p
                e += 1
            # p**(s * e - exps[p]) exactly divides Q.
            f = s * e - exps.get(p, 0)
            for d in divisors[:]:
                for _ in range(f):
                    d *= p
                    if d > cap:
                        break
                    divisors.append(d)
        for a in divisors:
            if a < lo:
                continue
            t = total + a
            disc = t * t + 4 * (q // a)
            root = isqrt(disc)
            if root * root == disc:
                x = (root - t) >> 1
                if a <= x <= a_max and t + x <= n_max:
                    out.append((parts + (a, x), t + x, b))


_worker_tables: _Tables | None = None  # set in each pool worker by _init_worker


def _init_worker(s: int, n_max: int, a_max: int) -> None:
    # Ctrl-C reaches the whole process group.  Only the parent acts on it:
    # leaving the pool's with-block terminates the workers.
    import signal  # here, with multiprocessing: only --jobs runs need it

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _worker_tables
    _worker_tables = _tables(s, n_max, a_max)


def _leading_block(leads: tuple[int, int]) -> list[tuple[tuple[int, ...], int, int]]:
    # All solutions whose smallest part lies in leads = (lo, hi), in a pool worker.
    return _search(_worker_tables, *leads)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def enumerate_solutions(spec: SearchSpec) -> list[DioSolution]:
    """All solutions with nondecreasing parts, sum <= n_max and parts <= a_max,
    sorted by (n, parts); identical output for any jobs value."""
    a_max = spec.part_bound
    n_max = spec.sum_bound
    lead_hi = min(a_max, n_max // (spec.s - 1))
    workers = min(spec.jobs, _usable_cores())
    if workers == 1 or lead_hi <= 1:
        raw = _search(_tables(spec.s, n_max, a_max), 1, lead_hi)
    else:
        # About four blocks of consecutive leading parts per worker.  Small
        # leading parts cost the most, so blocks come out in falling order of
        # cost and the pool's first-free-worker dispatch keeps loads even.
        step = -(-lead_hi // (4 * workers))
        blocks = [(lo, min(lo + step - 1, lead_hi)) for lo in range(1, lead_hi + 1, step)]
        import multiprocessing  # here, so that serial runs skip its import

        raw = []
        with multiprocessing.Pool(
            min(workers, len(blocks)),
            initializer=_init_worker,
            initargs=(spec.s, n_max, a_max),
        ) as pool:
            for chunk in pool.imap_unordered(_leading_block, blocks):
                raw.extend(chunk)
    raw.sort(key=lambda item: (item[1], item[0]))
    return [DioSolution(parts, b) for parts, _, b in raw]

