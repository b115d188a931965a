import multiprocessing
import os
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from collections.abc import Iterator
from functools import cache
from itertools import combinations_with_replacement
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificates import check_table_membership
from conftest import table_rows
from search_oracle import (
    last_two_parts, oracle_solutions, parent_divisor_walk, recursive_search,
    uncapped_divisor_walk)
from sumprodpower import DioSolution, SearchSpec, enumerate_solutions
from sumprodpower import search
from sumprodpower.exactmath import int_nth_root
from sumprodpower.search import _tables


def brute_force(s: int, n_max: int) -> set[tuple[tuple[int, ...], int]]:
    """Independent oracle: plain itertools enumeration with a scan-up power test."""
    found = set()
    for parts in combinations_with_replacement(range(1, n_max + 1), s - 1):
        n = sum(parts)
        if n > n_max:
            continue
        m = prod(parts) * n
        b = 1
        while b ** s < m:
            b += 1
        if b ** s == m:
            found.add((parts, b))
    return found


def root_bound(m: int, s: int) -> int:
    """r(m) = prod p**ceil(e/s) over p**e || m, by trial division."""
    r, p = 1, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        r *= p ** -(-e // s)
        p += 1
    return r * m  # what is left of m is 1 or a prime


def rows(spec: SearchSpec) -> list[tuple[tuple[int, ...], int, int]]:
    return [(r.parts, r.n, r.b) for r in enumerate_solutions(spec)]


# (s, n_max) pairs for the oracle grid: the smallest allowed bound, small
# bounds with few solutions, and the largest the scan oracle runs quickly.
ORACLE_GRID = [
    (s, n)
    for s, bounds in {
        3: (2, 3, 97, 600),
        4: (3, 27, 100, 240),
        5: (4, 27, 64, 120),
        6: (5, 8, 36, 72),
        7: (6, 24, 40, 56),
    }.items()
    for n in bounds
]


class TestSearchSpec:
    def test_defaults(self):
        spec = SearchSpec(5, 100)
        assert spec.part_bound == 100
        assert SearchSpec(5, 100, a_max=7).part_bound == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s=2, n_max=10),
            dict(s=5, n_max=3),
            dict(s=5, n_max=10, jobs=0),
            dict(s=5, n_max=10, a_max=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SearchSpec(**kwargs)

    def test_n_max_limit(self):
        # Building a spec builds no tables, so the limit itself is cheap to try.
        assert SearchSpec(3, search.N_MAX_LIMIT).n_max == search.N_MAX_LIMIT
        with pytest.raises(ValueError, match=f"n_max must be at most {search.N_MAX_LIMIT}"):
            SearchSpec(3, search.N_MAX_LIMIT + 1)

    @pytest.mark.parametrize("s", [3, 4, 5, 6, 7])
    def test_table_bytes_per_unit_of_n_max(self, s):
        # The sizing of N_MAX_LIMIT in the module docstring: at most 36 bytes
        # of tables per unit of n_max, at their peak.
        n_max = 20000
        tracemalloc.start()
        try:
            _tables(s, n_max, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * n_max

    @pytest.mark.parametrize("s, bound", [(3, 55), (7, 30)])
    def test_resident_bytes_per_unit_of_n_max(self, s, bound):
        # The resident sizing in the module docstring (about 42 and 18 bytes
        # per unit of n_max): the growth of ru_maxrss across _tables at
        # n_max = 10**6, each in a fresh interpreter.  Linux carries a
        # process's peak into the processes it starts, so the interpreter
        # is started from a small one, not from pytest, whose peak would
        # hide the growth.  ru_maxrss counts KiB on Linux and bytes on macOS.
        pytest.importorskip("resource")
        code = ("import resource\n"
                "from sumprodpower.search import _tables\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                f"_tables({s}, 10**6, 10**6)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
        starter = "import subprocess, sys; raise SystemExit(subprocess.run(sys.argv[1:]).returncode)"
        proc = subprocess.run([sys.executable, "-c", starter, sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        growth = int(proc.stdout) * (1 if sys.platform == "darwin" else 1024)
        assert growth <= bound * 10**6


class TestEnumerateSolutions:
    def test_smallest_s6_solution(self):
        rows = enumerate_solutions(SearchSpec(6, 8))
        assert len(rows) == 1
        assert (rows[0].parts, rows[0].b, rows[0].n) == ((1, 1, 2, 2, 2), 2, 8)

    def test_s5_up_to_27(self):
        rows = enumerate_solutions(SearchSpec(5, 27))
        keys = {(r.parts, r.b) for r in rows}
        assert ((1, 2, 12, 12), 6) in keys
        assert ((1, 4, 4, 18), 6) in keys

    def test_s3_is_empty(self):
        assert enumerate_solutions(SearchSpec(3, 200)) == []

    @pytest.mark.parametrize("s, n_max", [(3, 60), (4, 40), (5, 36), (6, 20)])
    def test_matches_itertools_oracle(self, s, n_max):
        rows = enumerate_solutions(SearchSpec(s, n_max))
        assert {(r.parts, r.b) for r in rows} == brute_force(s, n_max)

    def test_sorted_and_verified(self):
        rows = enumerate_solutions(SearchSpec(5, 60))
        assert rows == sorted(rows, key=lambda r: (r.n, r.parts))
        for row in rows:
            assert list(row.parts) == sorted(row.parts)
            assert prod(row.parts) * row.n == row.b ** row.s

    def test_part_bound_respected(self):
        rows = enumerate_solutions(SearchSpec(5, 27, a_max=12))
        assert {r.parts for r in rows} == {(1, 2, 12, 12)}

    def test_parallel_matches_serial(self):
        serial = enumerate_solutions(SearchSpec(5, 80))
        for jobs in (2, 4):
            assert enumerate_solutions(SearchSpec(5, 80, jobs=jobs)) == serial

    def test_doubling_jobs_does_not_change_results(self):
        assert enumerate_solutions(SearchSpec(4, 60, jobs=2)) == enumerate_solutions(
            SearchSpec(4, 60, jobs=4)
        )


@pytest.fixture
def pool_sizes(monkeypatch) -> Iterator[list[int]]:
    """Swap multiprocessing.Pool, which search imports only for a parallel
    run, for an in-process fake; the list collects the number of processes
    each pool was asked for.  The fake runs the blocks in this process, so
    the tables they build are dropped before and after the test."""
    sizes: list[int] = []

    class FakePool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            self.sigint = signal.getsignal(signal.SIGINT)
            initializer(*initargs)  # ignores SIGINT

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            signal.signal(signal.SIGINT, self.sigint)

        def imap_unordered(self, func, blocks):
            return map(func, reversed(blocks))  # finishing order must not matter

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    search._block_tables.cache_clear()
    yield sizes
    search._block_tables.cache_clear()


class TestJobsCap:
    """--jobs asks for at most one process per usable core."""

    @pytest.mark.parametrize(
        "cores, jobs, sizes",
        [(1, 5000, []), (2, 5000, [2]), (3, 5000, [3]), (16, 5000, [16]), (16, 2, [2])],
    )
    def test_pool_is_capped_at_affinity(self, pool_sizes, monkeypatch, cores, jobs, sizes):
        serial = enumerate_solutions(SearchSpec(4, 300))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        assert enumerate_solutions(SearchSpec(4, 300, jobs=jobs)) == serial
        assert pool_sizes == sizes

    def test_this_machine(self, pool_sizes):
        serial = enumerate_solutions(SearchSpec(4, 300))
        assert enumerate_solutions(SearchSpec(4, 300, jobs=5000)) == serial
        assert all(size <= search._usable_cores() for size in pool_sizes)

    @pytest.mark.parametrize("count, sizes", [(3, [3]), (None, [])])
    def test_cpu_count_fallback(self, pool_sizes, monkeypatch, count, sizes):
        # Where os.sched_getaffinity is missing, os.cpu_count() or 1 is used.
        serial = enumerate_solutions(SearchSpec(4, 300))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert enumerate_solutions(SearchSpec(4, 300, jobs=5000)) == serial
        assert pool_sizes == sizes


class TestHomogeneity:
    """Relations the search's own output must satisfy, with no oracle.

    The system is homogeneous of degree s: scaling the parts by k scales n
    by k and prod(parts) * n by k^s, so b becomes k b; and g = gcd(parts)
    divides b, since g^s | b^s.  So the records are closed under scaling
    while k n <= n_max and under division by the gcd.  A lower sum bound or
    a part bound selects records, in the same (n, parts) order."""

    # Sum bounds up to which one example stays within a few hundredths of
    # a second (s = 8 at 120 takes about 0.02 s).
    SUM_BOUNDS = {3: 400, 4: 400, 5: 240, 6: 200, 7: 160, 8: 120}

    @settings(max_examples=100, deadline=None)
    @given(s=st.integers(3, 8), data=st.data())
    def test_property(self, s, data):
        n_max = data.draw(st.integers(s - 1, self.SUM_BOUNDS[s]), label="n_max")
        records = enumerate_solutions(SearchSpec(s, n_max))
        keys = {(r.parts, r.b) for r in records}
        for r in records:
            # (a) closure under scaling while k n <= n_max
            for k in range(2, n_max // r.n + 1):
                assert (tuple(k * a for a in r.parts), k * r.b) in keys
            # (b) closure under division by the gcd
            if (g := gcd(*r.parts)) > 1:
                assert (tuple(a // g for a in r.parts), r.b // g) in keys
        # (c) a lower sum bound gives the records with n <= n_low
        n_low = data.draw(st.integers(s - 1, n_max), label="n_low")
        assert enumerate_solutions(SearchSpec(s, n_low)) == [r for r in records if r.n <= n_low]
        # (d) a part bound gives the records with every part <= a_max
        a_max = data.draw(st.integers(1, n_max), label="a_max")
        assert enumerate_solutions(SearchSpec(s, n_max, a_max)) == [
            r for r in records if max(r.parts) <= a_max]


class TestAgainstScanOracle:
    """The divisibility-stepped kernel against the original last-slot scan."""

    @pytest.mark.parametrize("a_max", [None, 1, 5, 18])
    @pytest.mark.parametrize("s, n_max", ORACLE_GRID)
    def test_serial(self, s, n_max, a_max):
        assert rows(SearchSpec(s, n_max, a_max)) == oracle_solutions(s, n_max, a_max)

    @pytest.mark.parametrize("a_max", [None, 12])
    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("s, n_max", [(3, 600), (4, 120), (5, 81), (6, 48), (7, 40)])
    def test_parallel(self, s, n_max, a_max, jobs):
        spec = SearchSpec(s, n_max, a_max, jobs=jobs)
        assert rows(spec) == oracle_solutions(s, n_max, a_max)

    def test_jobs_above_block_count(self):
        # s = 5, n_max = 8 has two possible leading parts.
        assert rows(SearchSpec(5, 8, jobs=3)) == oracle_solutions(5, 8)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.integers(3, 7),
        n_max=st.integers(2, 60),
        a_max=st.none() | st.integers(1, 60),
    )
    def test_property(self, s, n_max, a_max):
        n_max = max(n_max, s - 1)
        assert rows(SearchSpec(s, n_max, a_max)) == oracle_solutions(s, n_max, a_max)


def last_level_calls(spec: SearchSpec) -> list[tuple]:
    """Run the search with a recording wrapper around search._divisor_walk
    and return (tables, parts, total, product, r, exps, lo, hi) for every
    prefix that reaches the last level with a non-empty prefix (s >= 4).
    The wrapper is removed before returning, so the caller's own
    search._divisor_walk calls are not recorded."""
    calls = []
    walk = search._divisor_walk

    def recording(tables, parts, total, product, r, exps, lo, hi, out):
        calls.append((tables, parts, total, product, r, dict(exps), lo, hi))
        walk(tables, parts, total, product, r, exps, lo, hi, out)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(search, "_divisor_walk", recording)
        enumerate_solutions(spec)
    return calls


def bounded_prefixes(spec: SearchSpec) -> set[tuple[int, ...]]:
    """Every nondecreasing prefix of 1 to s - 3 parts that the upper levels
    would loop over with no prefix cut: after a prefix of L parts with sum t,
    the next part runs from the last one (or 1) to
    min(part bound, (sum bound - t) // (s - 1 - L))."""
    s, n_max, a_max = spec.s, spec.sum_bound, spec.part_bound
    found = set()

    def extend(parts: tuple[int, ...], total: int) -> None:
        for a in range(parts[-1] if parts else 1,
                       min(a_max, (n_max - total) // (s - 1 - len(parts))) + 1):
            found.add(parts + (a,))
            if len(parts) + 1 < s - 3:
                extend(parts + (a,), total + a)

    extend((), 0)
    return found


def pruned_prefixes(spec: SearchSpec) -> set[tuple[int, ...]]:
    """The prefixes the upper-level cut skipped: those of bounded_prefixes
    that no prefix handed to the last level starts with.  Without the cut
    every bounded prefix extends to a last-level one, since the next part's
    range always holds the last part."""
    reached = {parts for _, parts, *_ in last_level_calls(spec)}
    bounded = bounded_prefixes(spec)
    assert reached <= bounded
    return bounded - {parts[:k] for parts in reached for k in range(1, len(parts) + 1)}


class TestPrefixCut:
    """The upper levels' cap on b (search._b_cap) skips only prefixes that
    no solution starts with."""

    @pytest.mark.parametrize("a_max", [None, 5, 18])
    # (6, 8) has one solution, (1, 1, 2, 2, 2), at equality in the cut.
    @pytest.mark.parametrize(
        "s, n_max",
        [(4, 60), (4, 240), (5, 64), (5, 120), (6, 8), (6, 36), (6, 72), (6, 100), (7, 40),
         (7, 64)],
    )
    def test_no_pruned_prefix_has_a_completion(self, s, n_max, a_max):
        pruned = pruned_prefixes(SearchSpec(s, n_max, a_max))
        for parts, _, _ in oracle_solutions(s, n_max, a_max):
            for k in range(1, s - 2):
                assert parts[:k] not in pruned

    def test_the_cut_fires(self):
        assert pruned_prefixes(SearchSpec(6, 100))


def stub_last_level(monkeypatch) -> list[tuple]:
    """Swap both last-level kernels for stubs that only record the prefix
    state they are handed: ("walk", parts, total, product, r, exps, lo, hi),
    with exps as the sorted tuple of its nonzero entries, for
    search._divisor_walk, and ("s3", lo, hi) for search._s3_last_level."""
    calls: list[tuple] = []

    def walk(tables, parts, total, product, r, exps, lo, hi, out):
        entries = tuple(sorted((p, e) for p, e in exps.items() if e))
        calls.append(("walk", parts, total, product, r, entries, lo, hi))

    def s3(tables, lo, hi, out):
        calls.append(("s3", lo, hi))

    monkeypatch.setattr(search, "_divisor_walk", walk)
    monkeypatch.setattr(search, "_s3_last_level", s3)
    return calls


class TestStackWalk:
    """The upper levels walked from an explicit stack, with one cap on b per
    state, against the recursive walk with the exact prefix cut
    (search_oracle.recursive_search).  Every prefix state that the recursive
    walk hands to the last level, the stack walk hands on as often.  The cap
    keeps a few more; each of those fails the exact cut, so its range of b
    is empty (search module docstring).  A prefix whose r is above the cap
    of the state it came from is handed on only unchecked: its r is that
    state's own, and no node before it made the state work out its cap."""

    @staticmethod
    def check(s: int, n_max: int, a_max: int | None, lo: int, hi: int) -> int:
        # Returns the number of the recursive walk's last-level calls.
        spec = SearchSpec(s, n_max, a_max)
        tables = _tables(s, spec.sum_bound, spec.part_bound)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = stub_last_level(monkeypatch)
            assert search._search(tables, lo, hi) == []
            stacked = Counter(calls)
            calls.clear()
            recursive_search(tables, lo, hi)
            exact = Counter(calls)
        assert not exact - stacked
        for _, parts, total, product, r, _, walk_lo, walk_hi in stacked - exact:
            assert not search._b_range(tables, total, product, r, walk_lo, walk_hi)
        lpf = tables[3]
        for call in stacked:
            if call[0] == "walk":
                _, parts, total, product, r, entries, *_ = call
                a = parts[-1]
                # The state the prefix came from: the root, or a state whose
                # next part has two parts after it.
                up_hi = hi if len(parts) == 1 else min(
                    spec.part_bound, (spec.sum_bound - total + a) // 3)
                if r > search._b_cap(tables, total - a, product // a, up_hi, 2):
                    up_exps = Counter(dict(entries)) - prime_powers(a)
                    up_r = product_and_root(up_exps, s)[1]
                    assert r == up_r
                    # The state's lo is parts[-2]: the root has r <= cap.
                    # a = 1 is not factored, so it makes no state work out
                    # its cap.
                    for before in range(max(parts[-2], 2), a):
                        assert lpf[before] in up_exps
                        assert product_and_root(up_exps + prime_powers(before), s)[1] == up_r
        return len(calls)

    @pytest.mark.parametrize(
        "s, n_max", [(3, 2400), (4, 400), (5, 170), (6, 100), (7, 64), (8, 60)])
    def test_benchmark_bounds(self, s, n_max):
        assert self.check(s, n_max, None, 1, n_max // (s - 1))

    @settings(max_examples=80, deadline=None)
    @given(
        s=st.integers(4, 8),
        n_max=st.integers(3, 160),
        a_max=st.none() | st.integers(1, 160),
        data=st.data(),
    )
    def test_property(self, s, n_max, a_max, data):
        # Any block [lo, hi] of leading parts, as a --jobs worker gets one.
        n_max = max(n_max, s - 1)
        lead_hi = min(n_max if a_max is None else a_max, n_max // (s - 1))
        lo = data.draw(st.integers(1, lead_hi))
        self.check(s, n_max, a_max, lo, data.draw(st.integers(lo, lead_hi)))


def prime_powers(a: int) -> Counter:
    """{p: e} for each prime power p**e exactly dividing a, by trial division."""
    found: Counter = Counter()
    p = 2
    while a > 1:
        if p * p > a:
            p = a
        while a % p == 0:
            a //= p
            found[p] += 1
        p += 1
    return found


def product_and_root(exps: Counter, s: int) -> tuple[int, int]:
    """P and r(P) = prod p**ceil(e/s) for the prime exponents exps of P."""
    return prod(p ** e for p, e in exps.items()), prod(p ** -(-e // s) for p, e in exps.items())


def cut_keeps(s: int, n_max: int, total: int, exps: Counter, m: int) -> bool:
    """The prefix cut for a prefix with sum total, prime exponents exps and
    m parts still to choose: r**s * m**m <= P * (n_max - total)**m * n_max."""
    product, r = product_and_root(exps, s)
    return r ** s * m ** m <= product * (n_max - total) ** m * n_max


def upper_states(spec: SearchSpec) -> list[tuple[int, Counter, int, int, int]]:
    """(total, exps, lo, hi, m) of every upper-level state below the root
    that the walk with the cut alone reaches, with exps the prime exponents
    of its product and m the parts that follow its next part in [lo, hi]."""
    s, n_max, a_max = spec.s, spec.sum_bound, spec.part_bound
    states = []

    def extend(total: int, exps: Counter, lo: int, hi: int, m: int) -> None:
        for a in range(lo, hi + 1):
            t, child = total + a, exps + prime_powers(a)
            if m > 2 and cut_keeps(s, n_max, t, child, m):
                state = (t, child, a, min(a_max, (n_max - t) // m), m - 1)
                states.append(state)
                extend(*state)

    extend(0, Counter(), 1, min(a_max, n_max // (s - 1)), s - 2)
    return states


def path_states(s: int, n_max: int, parts: tuple[int, ...]) -> list[tuple[int, Counter, int, int, int]]:
    """The states of upper_states(SearchSpec(s, n_max)) along one prefix:
    the state after each of its parts, each checked to be one that the walk
    with the cut alone reaches."""
    states = []
    total, exps, lo, hi, m = 0, Counter(), 1, n_max // (s - 1), s - 2
    for a in parts:
        assert lo <= a <= hi and m > 2
        total, exps = total + a, exps + prime_powers(a)
        assert cut_keeps(s, n_max, total, exps, m)
        lo, hi, m = a, (n_max - total) // m, m - 1
        states.append((total, exps, lo, hi, m))
    return states


def state_args(s: int, state: tuple[int, Counter, int, int, int]) -> tuple:
    """(total, product, r, lo, hi, m) of a state of upper_states."""
    total, exps, lo, hi, m = state
    return total, *product_and_root(exps, s), lo, hi, m


def peak_bound(n_max: int, total: int, product: int, hi: int, m: int) -> int:
    """P * F * n_max with F = hi * (n_max - total - hi)**m: at least
    b**s * m**m for every completion of the state (search module docstring)."""
    return product * hi * (n_max - total - hi) ** m * n_max


class TestPrimeSkip:
    """The upper levels drop a node when r(P * a) is above the state's cap
    on b (search._b_cap), and a node whose largest prime is new to the
    product when r * p is above it, before factoring it: every such node
    fails the exact prefix cut."""

    @staticmethod
    def check(s: int, n_max: int, a_max: int | None) -> int:
        # Returns the number of nodes the cap drops.
        spec = SearchSpec(s, n_max, a_max)
        tables = _tables(s, spec.sum_bound, spec.part_bound)
        lpf = tables[3]
        dropped = 0
        for total, exps, lo, hi, m in upper_states(spec):
            product, r = product_and_root(exps, s)
            cap = search._b_cap(tables, total, product, hi, m)
            for a in range(lo, hi + 1):
                child = exps + prime_powers(a)
                ra = product_and_root(child, s)[1]
                if lpf[a] not in exps:  # a new largest prime: r(P * a) >= r * p
                    assert ra >= r * lpf[a]
                if ra > cap:
                    dropped += 1
                    assert not cut_keeps(s, spec.sum_bound, total + a, child, m)
        # The search itself keeps every node that the cut keeps.
        TestStackWalk.check(s, n_max, a_max, 1, min(spec.part_bound, spec.sum_bound // (s - 1)))
        return dropped

    @pytest.mark.parametrize("s, n_max", [(5, 170), (6, 100), (7, 64), (8, 60)])
    def test_benchmark_bounds(self, s, n_max):
        assert self.check(s, n_max, None)

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.integers(5, 8),
        n_max=st.integers(4, 160),
        a_max=st.none() | st.integers(1, 160),
    )
    def test_property(self, s, n_max, a_max):
        self.check(s, max(n_max, s - 1), a_max)

    @pytest.mark.parametrize("s, n_max", [(5, 170), (6, 100), (7, 64), (8, 60), (1000, 1998)])
    def test_p_max_is_the_threshold(self, s, n_max):
        # The state's cap on b, which took over from the prime cap p_max of
        # the name (kept, with its test ids), is the largest b with
        # b**s * m**m <= P * F * n_max, at the states of a run.  s = 1000 is
        # too deep for upper_states: it takes the states along the prefixes
        # 1, ..., 1 and 1, 2, 2, 2.
        tables = _tables(s, n_max, n_max)
        if s > 8:
            states = path_states(s, n_max, (1,) * (s - 4)) + path_states(
                s, n_max, (1, 2, 2, 2))
        else:
            states = upper_states(SearchSpec(s, n_max))
        assert states
        for state in states:
            total, product, r, lo, hi, m = state_args(s, state)
            bound = peak_bound(n_max, total, product, hi, m)
            cap = search._b_cap(tables, total, product, hi, m)
            assert cap ** s * m ** m <= bound < (cap + 1) ** s * m ** m

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.integers(5, 9),
        n_max=st.integers(4, 160),
        a_max=st.none() | st.integers(1, 160),
    )
    def test_z_stays_in_the_powers_list(self, s, n_max, a_max):
        # z = P * F * n_max // m**m < (b_max + 1)**s at every state (module
        # docstring), so bisecting the powers list gives floor(z**(1/s)),
        # which is at least 1.
        spec = SearchSpec(s, max(n_max, s - 1), a_max)
        tables = _tables(s, spec.sum_bound, spec.part_bound)
        powers = tables[4]
        for state in upper_states(spec):
            total, product, r, lo, hi, m = state_args(s, state)
            z = peak_bound(spec.sum_bound, total, product, hi, m) // m ** m
            assert z < len(powers) ** s
            assert search._b_cap(tables, total, product, hi, m) == int_nth_root(z, s) >= 1

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.integers(4, 9),
        n_max=st.integers(3, 160),
        a_max=st.none() | st.integers(1, 160),
    )
    def test_peak_is_the_largest_value(self, s, n_max, a_max):
        # a * (L - a)**m rises up to a = L / (m + 1), and no state's hi
        # passes that turn, so F = hi * (L - hi)**m is its largest value over
        # [lo, hi] (search module docstring).
        spec = SearchSpec(s, max(n_max, s - 1), a_max)
        for total, exps, lo, hi, m in upper_states(spec):
            rest = spec.sum_bound - total
            assert hi <= rest // (m + 1)
            if lo <= hi:
                assert max(a * (rest - a) ** m for a in range(lo, hi + 1)) == hi * (rest - hi) ** m

    @pytest.mark.parametrize("s", [5, 6, 7])
    def test_largest_prime_factor_list(self, s):
        for n_max in (2000, 2003):
            lpf = _tables(s, n_max, n_max)[3]
            assert len(lpf) == n_max // 2 + 1
            assert lpf[:2] == [0, 0]
            for a in range(2, len(lpf)):
                assert lpf[a] == max(prime_powers(a))

    @pytest.mark.parametrize("s", [3, 4])
    def test_no_list_below_s5(self, s):
        # No s has a prime list of its own: s = 3, with no upper level, and
        # s = 4, whose only state is the root, factor from the same table as
        # s >= 5.
        tables = _tables(s, 2000, 2000)
        assert len(tables) == 5
        assert tables[3] == _tables(5, 2000, 2000)[3]

    @pytest.mark.parametrize("s", range(5, 12))
    @pytest.mark.parametrize("n_max, a_max", [
        (0, None), (100, None), (101, 3), (600, None), (1000, 10), (3000, None)])
    def test_the_root_would_skip_nothing(self, s, n_max, a_max):
        # The root state, with P = 1, drops no node: its cap is at least its
        # hi, and r(a) <= a <= hi.  n_max = 0 stands for the smallest bound,
        # s - 1.
        spec = SearchSpec(s, max(n_max, s - 1), a_max)
        tables = _tables(s, spec.sum_bound, spec.part_bound)
        hi = min(spec.part_bound, spec.sum_bound // (s - 1))
        assert search._b_cap(tables, 0, 1, hi, s - 2) >= hi


def last_level(kernel, tables, parts, total, product, r, exps, lo, hi):
    out: list[tuple[tuple[int, ...], int, int]] = []
    kernel(tables, parts, total, product, r, dict(exps), lo, hi, out)
    return sorted(out)


# The TestDivisorWalk grid: (s, n_max) pairs, and a_max values for each.
DIVISOR_WALK_GRID = [
    (4, 12), (4, 60), (4, 150), (5, 12), (5, 64), (5, 150), (6, 12), (6, 72), (6, 120),
    (7, 12), (7, 40), (7, 90)]
DIVISOR_WALK_A_MAX = [None, 3, 5, 18, 40]


def walk_bounds(call: tuple) -> list[tuple[int, int]]:
    """The prefix's own range of second-to-last parts, an empty range, and
    [a, a] for each solution (a, x) of the prefix.  For a solution with
    a = x the last range makes the per-b cap exactly a."""
    tables, parts, total, product, r, exps, lo, hi = call
    found = last_two_parts(*call)
    return [(lo, hi), (hi + 1, hi)] + [(row[0][-2],) * 2 for row in found]


class TestDivisorWalk:
    """The last level's walk over the divisors of b**s / P against a scan of
    the last two parts (search_oracle.last_two_parts), prefix by prefix."""

    @pytest.mark.parametrize("a_max", DIVISOR_WALK_A_MAX)
    @pytest.mark.parametrize("s, n_max", DIVISOR_WALK_GRID)
    def test_matches_the_last_slot_loop(self, s, n_max, a_max):
        # The last-slot loop of the name is the scan of the last two parts
        # (last_two_parts); the name keeps this grid's 60 test ids stable.
        spec = SearchSpec(s, n_max, a_max)
        calls = last_level_calls(spec)
        assert calls
        for call in calls:
            for bounds in walk_bounds(call):
                args = (*call[:-2], *bounds)
                assert last_level(search._divisor_walk, *args) == sorted(
                    last_two_parts(*args))

    @pytest.mark.parametrize("a_max", DIVISOR_WALK_A_MAX)
    @pytest.mark.parametrize("s, n_max", DIVISOR_WALK_GRID)
    def test_cap_matches_the_uncapped_walk(self, s, n_max, a_max):
        # Divisors above isqrt(Q // (T + 2 * lo)) give x < a: capping each b's
        # divisors there loses no solution, b by b.
        for call in last_level_calls(SearchSpec(s, n_max, a_max)):
            for bounds in walk_bounds(call):
                args = (*call[:-2], *bounds)
                uncapped = uncapped_divisor_walk(*args)
                capped = {b: [] for b in uncapped}
                for row in last_level(search._divisor_walk, *args):
                    capped[row[2]].append(row)
                assert capped == uncapped

    def test_the_grid_reaches_the_edges(self):
        # Prefixes with hi = a_max, and a solution with a = x.
        calls = last_level_calls(SearchSpec(5, 150, 18))
        assert any(hi == 18 for *_, hi in calls)
        found = [row for call in calls for row in last_level(search._divisor_walk, *call)]
        assert ((1, 2, 12, 12), 27, 6) in found


def below_the_floor(call: tuple) -> tuple[int, int]:
    """For one last-level call, every divisor a of Q = b**s / P with
    lo <= a < max(lo, ceil(Q / ((n_max - T) * n_max))) and a <= hi, over
    the b of search._b_range, must give no row that keeps t + x <= n_max:
    its discriminant is not a square, or its x has T + a + x > n_max.
    Returns (b visited, divisors below the floor)."""
    tables, parts, total, product, r, exps, lo, hi = call
    s, n_max, a_max, lpf, powers = tables
    span = (n_max - total) * n_max
    visited = below = 0
    for b in search._b_range(tables, total, product, r, lo, hi):
        visited += 1
        q = powers[b] // product
        a_lo = max(lo, -(-q // span))
        for a in range(lo, min(a_lo, hi + 1)):
            if q % a:
                continue
            below += 1
            t = total + a
            disc = t * t + 4 * (q // a)
            root = isqrt(disc)
            if root * root == disc:
                assert t + ((root - t) >> 1) > n_max, (call[1:], b, a)
    return visited, below


class TestLastLevelWindow:
    """The last level builds only the divisors of Q = b**s / P in
    [a_lo, cap] (search module docstring): node by node, it gives the rows
    of the walk that built every divisor up to cap
    (search_oracle.parent_divisor_walk), and no divisor below a_lo could
    have given a row."""

    @staticmethod
    def check(spec: SearchSpec) -> int:
        # Returns the number of last-level calls.
        calls = last_level_calls(spec)
        for call in calls:
            assert last_level(search._divisor_walk, *call) == last_level(
                parent_divisor_walk, *call)
        return len(calls)

    @pytest.mark.parametrize("s, n_max", [(4, 400), (5, 170), (6, 100), (7, 64), (8, 60)])
    def test_benchmark_bounds(self, s, n_max):
        assert self.check(SearchSpec(s, n_max))

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.integers(4, 8),
        n_max=st.integers(3, 300),
        a_max=st.none() | st.integers(1, 300),
    )
    def test_property(self, s, n_max, a_max):
        self.check(SearchSpec(s, max(n_max, s - 1), a_max))

    @pytest.mark.parametrize("a_max", [None, 5, 40])
    @pytest.mark.parametrize("s, n_max", [(4, 150), (5, 150), (6, 120), (7, 90), (8, 60)])
    def test_nothing_below_the_floor(self, s, n_max, a_max):
        visited = below = 0
        for call in last_level_calls(SearchSpec(s, n_max, a_max)):
            for bounds in walk_bounds(call):
                counts = below_the_floor((*call[:-2], *bounds))
                visited += counts[0]
                below += counts[1]
        assert visited
        assert below or a_max == 5  # the floor is above lo for some b


def s3_discriminants(n_max: int, a_max: int, lo: int, hi: int) -> Counter:
    """The discriminants a**2 + 4 * b**3 / a that the s = 3 last level must
    test, by brute force: every first part a in [lo, hi] and every b >= 1
    with 2 * a**3 <= b**3 <= a * top * (a + top), top = min(a_max, n_max - a),
    and a | b**3.  These are the b of a <= x <= top, since a * x * (a + x)
    rises in x."""
    found: Counter = Counter()
    for a in range(lo, hi + 1):
        top = min(a_max, n_max - a)
        b = 1
        while b ** 3 <= a * top * (a + top):
            if b ** 3 >= 2 * a ** 3 and b ** 3 % a == 0:
                found[a * a + 4 * b ** 3 // a] += 1
            b += 1
    return found


class TestS3LastLevel:
    """s = 3 has no solutions, so its output cannot show a kernel that skips
    candidates: the discriminants the kernel tests must be the brute-force
    ones, each as often."""

    @staticmethod
    def check(n_max: int, a_max: int | None, lo: int, hi: int) -> None:
        spec = SearchSpec(3, n_max, a_max)
        tables = _tables(3, spec.sum_bound, spec.part_bound)
        tested: Counter = Counter()

        def recording(m: int) -> int:
            tested[m] += 1
            return isqrt(m)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(search, "isqrt", recording)
            out: list[tuple[tuple[int, ...], int, int]] = []
            search._s3_last_level(tables, lo, hi, out)
        assert out == []
        assert tested == s3_discriminants(spec.sum_bound, spec.part_bound, lo, hi)

    @pytest.mark.parametrize(
        "n_max, a_max, lo, hi", [(300, 300, 1, 150), (300, 40, 1, 40), (500, 500, 7, 90),
                                 (2, 2, 1, 1)])
    def test_grid(self, n_max, a_max, lo, hi):
        self.check(n_max, a_max, lo, hi)

    @settings(max_examples=60, deadline=None)
    @given(n_max=st.integers(2, 400), a_max=st.none() | st.integers(1, 400), data=st.data())
    def test_property(self, n_max, a_max, data):
        # Any block [lo, hi] of first parts, as a --jobs worker gets one, or
        # an empty one.
        lead_hi = min(n_max if a_max is None else a_max, n_max // 2)
        lo = data.draw(st.integers(1, lead_hi + 1))
        self.check(n_max, a_max, lo, data.draw(st.integers(lo - 1, lead_hi)))

    @pytest.mark.parametrize("a, n_max, a_max", [(1, 40, 40), (8, 100, 100), (12, 100, 60),
                                                 (16, 50, 50)])
    def test_rows_of_made_up_powers(self, a, n_max, a_max):
        # With powers[b] = a * b * (a + b) in place of b**3, every b the
        # kernel visits solves its quadratic with x = b, so each is a row.
        # The visited b are those in [a, top] with a | b**3.
        s, n_max, a_max, lpf, _ = _tables(3, n_max, a_max)
        powers = [a * b * (a + b) for b in range(n_max + 1)]
        out: list[tuple[tuple[int, ...], int, int]] = []
        search._s3_last_level((s, n_max, a_max, lpf, powers), a, a, out)
        top = min(a_max, n_max - a)
        expected = [((a, x), a + x, x) for x in range(a, top + 1) if x ** 3 % a == 0]
        assert len(expected) > 1
        assert out == expected


class ReadIndices(list):
    """A list that records every index read from it."""

    def __init__(self, items: list[int]) -> None:
        super().__init__(items)
        self.read: set[int] = set()

    def __getitem__(self, index):
        self.read.add(index)
        return super().__getitem__(index)


def table_reads(spec: SearchSpec) -> set[int]:
    """The indices that a serial search for spec reads from its prime
    table, whose rows must be those of the plain table."""
    s, n_max, a_max, lpf, powers = _tables(spec.s, spec.sum_bound, spec.part_bound)
    lead = min(a_max, n_max // (s - 1))
    recorded = ReadIndices(lpf)
    found = search._search((s, n_max, a_max, recorded, powers), 1, lead)
    assert found == search._search((s, n_max, a_max, lpf, powers), 1, lead)
    return recorded.read


class TestWalkInsideSieve:
    """Every value the walk factors is an index of the prime table, whose
    length is sum_bound // 2 + 1: each b the walk visits, each part before
    the last two, and for s = 3 each first part (search module docstring)."""

    @staticmethod
    def check(spec: SearchSpec) -> int:
        # Returns the number of b visited.
        size = spec.sum_bound // 2 + 1
        assert all(0 <= m < size for m in table_reads(spec))
        count = 0
        for tables, parts, total, product, r, exps, lo, hi in last_level_calls(spec):
            assert len(tables[3]) == size
            assert max(parts) < size
            visited = search._b_range(tables, total, product, r, lo, hi)
            assert not visited or visited[-1] < size
            count += len(visited)
        return count

    @pytest.mark.parametrize("a_max", [None, 1, 3, 18])
    @pytest.mark.parametrize("s, n_max", [(4, 3), (4, 300), (5, 4), (5, 200), (6, 100), (7, 64)])
    def test_grid(self, s, n_max, a_max):
        visited = self.check(SearchSpec(s, n_max, a_max))
        assert visited or n_max < 10 or a_max == 1

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.integers(4, 7),
        n_max=st.integers(3, 150),
        a_max=st.none() | st.integers(1, 150),
    )
    def test_property(self, s, n_max, a_max):
        self.check(SearchSpec(s, max(n_max, s - 1), a_max))

    @pytest.mark.parametrize("n_max, a_max", [(2, None), (3, None), (97, None), (600, None),
                                              (600, 40)])
    def test_s3_first_parts(self, n_max, a_max):
        # s = 3 factors its first parts a <= min(a_max, n_max // 2) and
        # nothing else, so with no part bound it reads the table's last
        # index: the table is no longer than the walk needs.
        spec = SearchSpec(3, n_max, a_max)
        lead = min(spec.part_bound, n_max // 2)
        assert table_reads(spec) == set(range(2, lead + 1))


class TestSumBound:
    """No sum exceeds (s - 1) * part_bound, so the tables are sized by it:
    the prime table stops at half of it."""

    @pytest.fixture
    def sieve_lengths(self, monkeypatch) -> list[int]:
        lengths: list[int] = []
        tables = search._tables

        def recording(s, n_max, a_max):
            built = tables(s, n_max, a_max)
            lengths.append(len(built[3]))
            return built

        monkeypatch.setattr(search, "_tables", recording)
        monkeypatch.setattr(search, "_block_tables", cache(recording))  # a pool worker's
        return lengths

    @pytest.mark.parametrize("a_max, records", [(1, 0), (30, 4)])
    def test_sieve_stops_at_the_sum_bound(self, sieve_lengths, a_max, records):
        spec = SearchSpec(5, search.N_MAX_LIMIT, a_max)
        assert spec.sum_bound == 4 * a_max
        found = rows(spec)
        assert sieve_lengths == [4 * a_max // 2 + 1]
        assert len(found) == records
        assert found == rows(SearchSpec(5, 4 * a_max, a_max))
        assert found == oracle_solutions(5, 4 * a_max, a_max)

    def test_parallel_workers_too(self, sieve_lengths, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        found = rows(SearchSpec(5, search.N_MAX_LIMIT, 30, jobs=2))
        assert pool_sizes == [2]
        assert sieve_lengths == [120 // 2 + 1]
        assert found == oracle_solutions(5, 120, 30)

    def test_no_part_bound(self):
        assert SearchSpec(5, 100).sum_bound == 100
        assert SearchSpec(5, 100, a_max=25).sum_bound == 100
        assert SearchSpec(5, 100, a_max=24).sum_bound == 96


class TestDivisibilityStep:
    @pytest.mark.parametrize("s, n_max", [(4, 300), (5, 200), (6, 100), (7, 64)])
    def test_b_is_a_multiple_of_r_of_the_prefix(self, s, n_max):
        found = enumerate_solutions(SearchSpec(s, n_max))
        assert found
        for row in found:
            assert row.b % root_bound(prod(row.parts[:-1]), s) == 0

    @given(m=st.integers(1, 10**6), b=st.integers(1, 10**4), s=st.integers(3, 8))
    def test_prefix_divides_power_iff_r_divides_b(self, m, b, s):
        assert (b ** s % m == 0) == (b % root_bound(m, s) == 0)

    @given(t=st.integers(1, 10**6), x=st.integers(1, 10**6), d=st.integers(0, 100))
    def test_last_part_recovered_from_the_discriminant(self, t, x, d):
        # The kernel takes (root - t) / 2 without a parity check: a square
        # t**2 + 4q always has root = t (mod 2).
        q = x * (t + x) + d
        disc = t * t + 4 * q
        root = isqrt(disc)
        if root * root == disc:
            assert (root - t) % 2 == 0
            y = (root - t) // 2
            assert y * (t + y) == q

    @pytest.mark.parametrize("n_max", [2, 3, 4, 49, 50, 1000])
    def test_smallest_prime_factor_sieve(self, n_max):
        # Walking m down the largest-prime table gives m's primes largest
        # first, so the last one is its smallest prime factor: the prime
        # that the s >= 4 last level holds back.
        lpf = _tables(3, n_max, n_max)[3]
        assert len(lpf) == n_max // 2 + 1
        for m in range(2, len(lpf)):
            primes = []
            k = m
            while k > 1:
                primes.append(lpf[k])
                k //= lpf[k]
            assert prod(primes) == m
            assert primes == sorted(primes, reverse=True)
            assert primes[-1] == next(p for p in range(2, m + 1) if m % p == 0)


class TestTableMembership:
    def test_individual_row(self):
        # 1 * 4 * 20 * 25 * 50 = 100000 = 10^5
        row = DioSolution((1, 4, 20, 25), 10)
        assert prod(row.parts) * row.n == 10 ** 5

    def test_s5_rows_up_to_81(self):
        rows = [r for r in table_rows(5) if r.n <= 81]
        report = check_table_membership(rows, SearchSpec(5, 81))
        assert report.all_present
        assert report.missing == ()

    def test_missing_row_reported(self):
        rows = table_rows(6)
        report = check_table_membership(rows, SearchSpec(6, 30))
        assert not report.all_present
        assert {r.n for r in report.missing} == {36, 64, 72, 81, 96}
