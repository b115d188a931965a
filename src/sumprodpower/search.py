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
sum bound min(n_max, (s - 1) * a_max).  Every value the walk factors is
factored from one table, lpf, the largest prime factor of each m in
[0, n_max // 2] (lpf[0] = lpf[1] = 0): m's primes come largest first, each
from lpf of what is left of m.  The table holds every index the walk reads:
  - an s = 3 first part is at most n_max // 2, since the second is as large;
  - a part before the last two is at most n_max // 3, since at least two
    parts as large follow it;
  - a b visited for s >= 4 has b**s = prod(parts) * n <= (n / (s - 1))**(s - 1)
    * n by AM-GM, for s - 1 parts summing to n <= n_max (see _b_range), so
    b <= n_max / 3**(3/4) < n_max / 2;
and factoring m reads only divisors of m.  The prime-exponent map exps of
the prefix is carried down the upper levels, and r is multiplied by
p**(ceil((e + f)/s) - ceil(e/s)) for each prime power p**f of a new part.
All of it is integer arithmetic.  Solutions are re-verified exactly when they
are materialized as DioSolution values.

The upper levels (every part before the last two) are walked from an explicit
stack of prefix states (parts, total, product, r, exps, lo, hi), where the
next part lies in [lo, hi].  Popping a state loops over that part, factors
it from the table inline, and either pushes the child state or, when the
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
    so b's primes are all of Q's, and they come from the table.
  - a | Q is the same condition as P * a | b**s, so the divisors of Q in
    [lo, hi] are the only second-to-last parts to try, with no r(P * a).
  - x >= a >= lo gives Q = a * x * (T + a + x) >= a**2 * (T + 2 * a) >=
    a**2 * (T + 2 * lo), so a <= cap = min(hi, isqrt(Q // (T + 2 * lo)))
    (a**2 is an integer, so flooring Q / (T + 2 * lo) loses nothing).
  - x <= n_max - T - a < n_max - T and T + a + x <= n_max give Q <=
    a * (n_max - T) * n_max, so a >= a_lo = max(lo, ceil(Q / ((n_max - T) *
    n_max))).
  - The divisors of Q in [a_lo, cap] are built in two steps.  b is
    factored largest prime first, and each prime's layer of divisors
    d <= cap is built when the next prime is found, so the smallest prime
    p0 of b, with p0**f0 exactly dividing Q, is left held back: the
    divisors d <= cap of Q / p0**f0 are built, then each d is stepped
    through d * p0**k for k = 0 .. f0, past those below a_lo, and tested
    while d * p0**k <= cap.  A divisor of Q that is at most cap has its
    p0-free part d at most cap too, so this reaches each divisor of Q in
    [a_lo, cap] once, and no other value.  b = 1 builds only d = 1 and
    holds no prime back.
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
p**f needs no exponent map.  Each step takes the largest prime p of m,
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

Most cut prefixes are skipped before a is factored, exps copied or the cut
evaluated.  Take a state with product P, sum T and r = r(P), whose next
part a lies in [lo, hi] with m parts after it, and let L = n_max - T.
  - If a prime p of a does not divide P, then r(P * a) >= r * p: r gains
    p**(ceil((e + f)/s) - ceil(e/s)) for each prime power p**f of a, and
    with e = 0 that exponent is ceil(f/s) >= 1.
  - a * (L - a)**m is at most F, its largest value over [lo, hi].  Over the
    reals it rises up to a = L / (m + 1) and falls after it, so F is at one
    of the two integers around that point, each clamped to [lo, hi].
So a node with such a p and (r * p)**s * m**m > P * F * n_max fails the cut.
With z = P * F * n_max // m**m, that is every p above p_max =
floor(floor(z**(1/s)) / r), and the floor root comes from bisecting the
powers list.  z never passes the list: the prefix's parts, a, and m copies
of (L - a) / m are s - 1 values summing to n_max, so by AM-GM
z <= n_max * (n_max / (s - 1))**(s - 1) < (b_max + 1)**s, where b_max is the
list's last b.  A node is skipped when lpf[a] > p_max and lpf[a] is not in
exps.  p_max is computed once per state, at its first node whose lpf is a
new prime, so a state whose nodes all reuse its primes pays nothing for it.
The root state never tries the skip: there P = 1 and p_max >= hi (checked
for s = 5 to 11).  s = 3 and s = 4 have no other state.

The tables take memory in proportion to n_max.  Resident memory (the growth
of ru_maxrss across _tables, each in a fresh process, at n_max = 10**6 on
CPython 3.11, x86-64 Linux) grows by 42.3 bytes per unit of n_max for s = 3,
31.6 for s = 4 and 17.8 for s = 7, of which the lpf list's n_max / 2 slots
take about 4.  That is more than tracemalloc's peak of 33 bytes per unit
at s = 3, which counts live objects only and not what the allocator keeps
once the sieve's temporary lists and the powers list's regrowths are freed.
For small s the powers list is long (about 0.63 n_max big ints at s = 3).
SearchSpec refuses an n_max above
N_MAX_LIMIT = 10**7, where at these figures one run's tables take about
420 MB resident for s = 3 and 180 MB for s = 7.  Each --jobs worker builds
its own tables.

Parallel runs split the leading part into blocks of consecutive values for at
most one worker per usable core; each worker builds its tables once, for its
first block (so a MemoryError reaches the parent and the command line),
workers share nothing and the merged result is sorted, so output is a
function of the spec alone.  multiprocessing and signal (each worker
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


# The bounds and lookup tables of one run: s, n_max, a_max, lpf, powers.
_Tables = tuple[int, int, int, list[int], list[int]]


def _tables(s: int, n_max: int, a_max: int) -> _Tables:
    """Per-run lookup tables: the largest prime factor of every m in
    [0, n_max // 2], which covers every value the walk factors (module
    docstring), and powers[b] = b**s for every b that prod * sum can reach."""
    # Ascending, so each m keeps the largest prime that marks it; a p that
    # no smaller prime marked is prime.  lpf[0] = lpf[1] = 0.
    lpf = [0] * (n_max // 2 + 1)
    for p in range(2, len(lpf)):
        if not lpf[p]:
            lpf[p::p] = [p] * len(range(p, len(lpf), p))
    # AM-GM: prod(parts) <= (n / (s - 1))**(s - 1) for parts summing to n.
    k = s - 1
    b_max = int_nth_root(n_max * (n_max // k + 1) ** k, s)
    return s, n_max, a_max, lpf, [b ** s for b in range(b_max + 1)]


def _search(tables: _Tables, lo: int, hi: int) -> list[tuple[tuple[int, ...], int, int]]:
    # All solutions whose smallest part lies in [lo, hi].
    s, n_max, a_max, lpf, powers = tables
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
        p_max = 0  # the skip's prime cap: 0 until a node needs it, then at least 1
        for a in range(lo, hi + 1):
            # The skip (module docstring): a largest prime of a that is new
            # to the product and above p_max fails the cut.  The root state,
            # the only one for s < 5, never tries it.  lpf[1] = 0, so a = 1
            # neither computes p_max nor is skipped.
            if parts:
                p = lpf[a]
                if p > p_max and p not in exps:
                    if not p_max:
                        # A cap of 0 skips the same primes as a cap of 1.
                        p_max = _prime_cap(tables, total, product, r, lo, hi, remaining) or 1
                    if p > p_max:
                        continue
            ra = r
            child = exps
            if a > 1:
                child = exps.copy()
                m = a
                while m > 1:  # a's prime powers p**f from the table
                    p = lpf[m]
                    m //= p
                    f = 1
                    while lpf[m] == p:
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


def _prime_cap(
    tables: _Tables, total: int, product: int, r: int, lo: int, hi: int, m: int
) -> int:
    # p_max of the skip (module docstring): the largest p with
    # (r * p)**s * m**m <= P * F * n_max, for the product P and sum T of a
    # prefix whose next part lies in [lo, hi] with m parts after it.
    s, n_max, a_max, lpf, powers = tables
    z = product * _peak(n_max - total, m, lo, hi) * n_max // m ** m
    # z < (b_max + 1)**s (module docstring), so the bisect gives the floor root.
    return (bisect_right(powers, z) - 1) // r


def _peak(rest: int, m: int, lo: int, hi: int) -> int:
    # F = max of a * (rest - a)**m over a in [lo, hi].  Over the reals it
    # rises up to a = rest / (m + 1) and falls after, so the max is at one
    # of the two integers around that point, each clamped to [lo, hi].
    a = rest // (m + 1)
    return max(c * (rest - c) ** m for c in (min(max(a, lo), hi), min(max(a + 1, lo), hi)))


def _s3_last_level(
    tables: _Tables, lo: int, hi: int, out: list[tuple[tuple[int, ...], int, int]]
) -> None:
    # The last level for s = 3 by its first part a (module docstring).  The
    # second part x in [a, top] needs a * x * (a + x) = b**3, and a divides
    # b**3 exactly when r(a) divides b.
    s, n_max, a_max, lpf, powers = tables
    for a in range(lo, hi + 1):
        ra = 1
        m = a
        while m > 1:  # ra = r(a) when m reaches 1 (module docstring)
            p = lpf[m]
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
    s, n_max, a_max, lpf, powers = tables
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
    # a of Q = b**s / P from the per-b floor up to the per-b cap, then x
    # from x * (T + a + x) = Q / a.
    s, n_max, a_max, lpf, powers = tables
    t_lo = total + 2 * lo
    span = (n_max - total) * n_max
    for b in _b_range(tables, total, product, r, lo, hi):
        q = powers[b] // product
        # x < n_max - T and T + a + x <= n_max give Q <= a * span, and
        # x >= a >= lo gives a**2 * (T + 2 * lo) <= Q (module docstring).
        a_lo = -(-q // span)
        if a_lo < lo:
            a_lo = lo
        cap = isqrt(q // t_lo)
        if cap > hi:
            cap = hi
        # b's primes come from the table largest first, each with p**f
        # exactly dividing Q, f = s * e - exps[p].  A prime's layer joins
        # divisors (those up to cap) when the next prime is found, so the
        # smallest prime p0 is left held back, to be stepped through below
        # (b = 1 holds none back: f0 = 0 steps nothing).
        divisors = [1]
        p0 = f0 = 0
        m = b
        while m > 1:
            p = lpf[m]
            m //= p
            e = 1
            while lpf[m] == p:
                m //= p
                e += 1
            if f0:  # 0 before the first prime, or for an empty layer
                for d in divisors[:]:
                    for _ in range(f0):
                        d *= p0
                        if d > cap:
                            break
                        divisors.append(d)
            p0 = p
            f0 = s * e - exps.get(p, 0)
        for a in divisors:
            # a runs through d * p0**j for j = 0 .. f0, and k counts the
            # steps left.  Below the floor a only rises; from there it is
            # tested while a <= cap.  The else runs when a reached the floor
            # within the layer.
            k = f0
            while a < a_lo:
                if not k:
                    break
                a *= p0
                k -= 1
            else:
                while a <= cap:
                    t = total + a
                    disc = t * t + 4 * (q // a)
                    root = isqrt(disc)
                    if root * root == disc:
                        x = (root - t) >> 1
                        if a <= x <= a_max and t + x <= n_max:
                            out.append((parts + (a, x), t + x, b))
                    if not k:
                        break
                    a *= p0
                    k -= 1


_worker_bounds: tuple[int, int, int] = (0, 0, 0)  # set in each pool worker by _init_worker
_worker_tables: _Tables | None = None  # built by the worker's first block


def _init_worker(s: int, n_max: int, a_max: int) -> None:
    # Ctrl-C reaches the whole process group.  Only the parent acts on it:
    # leaving the pool's with-block terminates the workers.
    import signal  # here, with multiprocessing: only --jobs runs need it

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _worker_bounds, _worker_tables
    _worker_bounds = (s, n_max, a_max)
    _worker_tables = None


def _leading_block(leads: tuple[int, int]) -> list[tuple[tuple[int, ...], int, int]]:
    # All solutions whose smallest part lies in leads = (lo, hi), in a pool
    # worker.  The tables are built here and not in _init_worker: a pool
    # replaces a worker whose initializer raises, forever, while what a
    # block raises (MemoryError when the tables do not fit) reaches the
    # parent.
    global _worker_tables
    if _worker_tables is None:
        _worker_tables = _tables(*_worker_bounds)
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

