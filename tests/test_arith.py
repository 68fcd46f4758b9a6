"""Tests for the exact integer arithmetic kernel."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadprimes.arith
from oracles import (_ceil_sqrt, dense_lambda, integer_nth_root, is_prime, isqrt_array,
                     kronecker, perfect_power_base, sieve_window_full, von_mangoldt)
from quadprimes.arith import (INT63_CAP, SEGMENT_SIZE, PrimeTable, euler_phi, mobius,
                              primes_array, primes_up_to, sieve_window)

# the largest r with r^2 <= 2^63 - 1
ROOT_CAP = math.isqrt(INT63_CAP)


def legendre_brute(a: int, p: int) -> int:
    """Quadratic-residue search oracle for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


def factor_oracle(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# kronecker
# ---------------------------------------------------------------------------

def test_kronecker_trivial_cases():
    assert kronecker(7, 1) == 1          # empty product over prime factors
    assert kronecker(3, 9) == 0          # shared factor 3
    assert kronecker(0, 5) == 0
    assert kronecker(1, 0) == 1
    assert kronecker(5, 0) == 0


def test_kronecker_matches_brute_legendre():
    assert kronecker(-1, 5) == legendre_brute(-1, 5) == 1
    rng = random.Random(1)
    primes = [int(p) for p in primes_up_to(300).primes if p > 2]
    for _ in range(500):
        p = rng.choice(primes)
        a = rng.randint(-200, 200)
        assert kronecker(a, p) == legendre_brute(a, p), (a, p)


# odd primes: every one below 10^4, and a few large ones up to the int64 cap
odd_primes = (st.sampled_from([int(p) for p in primes_up_to(10**4).primes[1:]])
              | st.sampled_from([10**9 + 7, 2**31 - 1, 2**61 - 1,
                                 9223372036854775783]))   # largest below 2^63


@settings(max_examples=300, deadline=None)
@given(st.integers(-2**64, 2**64), odd_primes)
def test_kronecker_matches_euler_criterion(a, p):
    euler = pow(a % p, (p - 1) // 2, p)        # 0, 1 or p - 1
    assert kronecker(a, p) == {0: 0, 1: 1, p - 1: -1}[euler]


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12),
       st.integers(1, 10**6))
def test_kronecker_multiplicative_in_a(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_kronecker_example_composite():
    assert kronecker(2, 15) == legendre_brute(2, 3) * legendre_brute(2, 5) == 1


def test_kronecker_multiplicative_in_top_argument():
    rng = random.Random(2)
    for _ in range(500):
        n = rng.randrange(1, 10**4, 2)
        a = rng.randint(-10**4, 10**4)
        b = rng.randint(-10**4, 10**4)
        assert kronecker(a, n) * kronecker(b, n) == kronecker(a * b, n)


def test_kronecker_multiplicative_in_modulus():
    rng = random.Random(3)
    for _ in range(300):
        n1 = rng.randint(1, 200)
        n2 = rng.randint(1, 200)
        a = rng.randint(-100, 100)
        assert kronecker(a, n1) * kronecker(a, n2) == kronecker(a, n1 * n2)


def test_kronecker_zero_iff_common_factor():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 2000)
        a = rng.randint(-2000, 2000)
        assert (kronecker(a, n) == 0) == (math.gcd(a, n) > 1)


# ---------------------------------------------------------------------------
# multiplicative functions
# ---------------------------------------------------------------------------

def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(30) == -1  # three distinct prime factors


def test_mobius_against_factorization():
    for n in range(1, 2000):
        fac = factor_oracle(n)
        expect = 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)
        assert mobius(n) == expect


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(97) == 96
    assert euler_phi(12) == 4


def test_euler_phi_gcd_count():
    for n in range(1, 300):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_multiplicativity_on_coprime_pairs():
    rng = random.Random(5)
    count = 0
    while count < 200:
        m = rng.randint(1, 500)
        n = rng.randint(1, 500)
        if math.gcd(m, n) != 1:
            continue
        count += 1
        assert mobius(m * n) == mobius(m) * mobius(n)
        assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_integer_nth_root():
    assert integer_nth_root(0, 5) == 0
    assert integer_nth_root(1, 7) == 1
    rng = random.Random(7)
    for _ in range(400):
        e = rng.randint(2, 20)
        n = rng.randint(0, 2**60)
        r = integer_nth_root(n, e)
        assert r**e <= n < (r + 1) ** e


# perfect powers r^e and their neighbours, capped at 2^63 - 1
near_powers = st.builds(lambda e, x, d: (e, min(max(integer_nth_root(x, e) ** e + d, 0),
                                                INT63_CAP)),
                        st.integers(2, 63), st.integers(0, INT63_CAP),
                        st.integers(-1, 1))


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 64), st.integers(0, INT63_CAP)) | near_powers)
@example((2, INT63_CAP))
@example((3, 2097151**3))
@example((62, 2**62))
def test_integer_nth_root_brackets_n(case):
    e, n = case
    r = integer_nth_root(n, e)
    assert r**e <= n < (r + 1) ** e


def test_isqrt_array_exact():
    rng = np.random.default_rng(8)
    x = rng.integers(0, 2**62, size=2000)
    x = np.concatenate((x, np.array([0, 1, 2, 3, 4, 2**62 - 1, 2**62])))
    s = isqrt_array(x)
    for xi, si in zip(x.tolist(), s.tolist()):
        assert si == math.isqrt(xi)


# squares and their neighbours at the top of the int64 range, where the
# +-1 corrections once overflowed
near_cap_squares = st.builds(lambda r, d: r * r + d,
                             st.integers(ROOT_CAP - 1000, ROOT_CAP),
                             st.integers(-2, 2))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, INT63_CAP) | near_cap_squares, min_size=1,
                max_size=20))
@example([INT63_CAP, ROOT_CAP**2, ROOT_CAP**2 - 1, ROOT_CAP**2 + 1,
          (ROOT_CAP - 1) ** 2, 0, 1, 2, 3])
def test_isqrt_array_matches_math_isqrt(values):
    got = isqrt_array(np.array(values, dtype=np.int64)).tolist()
    assert got == [math.isqrt(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10**6, INT63_CAP) | near_cap_squares, min_size=1,
                max_size=20))
@example([ROOT_CAP**2, ROOT_CAP**2 + 1, ROOT_CAP**2 - 1, INT63_CAP, -5, 0, 1, 2])
def test_ceil_sqrt_matches_math_isqrt(values):
    expect = []
    for v in values:
        r = math.isqrt(max(v, 0))
        expect.append(r + (r * r < v))
    assert _ceil_sqrt(np.array(values, dtype=np.int64)).tolist() == expect


# ---------------------------------------------------------------------------
# primality and von Mangoldt
# ---------------------------------------------------------------------------

def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(97)
    assert not is_prime(3215031751)     # 151 * 751 * 28351
    assert 3215031751 % 151 == 0


def test_is_prime_small_range():
    flags = primes_up_to(10**4)
    primeset = set(flags.primes.tolist())
    for n in range(10**4 + 1):
        assert is_prime(n) == (n in primeset)


def test_is_prime_strong_pseudoprimes():
    # classic strong-pseudoprime trip-ups for small witness sets
    for n in (25326001, 3215031751, 2152302898747, 341550071728321,
              3825123056546413051):
        assert not is_prime(n)
    for p in (2**61 - 1, 67280421310721):
        assert is_prime(p)


def test_perfect_power_base():
    assert perfect_power_base(8) == (2, 3)
    assert perfect_power_base(36) == (6, 2)
    assert perfect_power_base(2**10) == (2, 10)
    assert perfect_power_base(97) == (97, 1)
    assert perfect_power_base(3**12) == (3, 12)


def test_von_mangoldt_examples():
    assert von_mangoldt(1) == 0.0
    assert von_mangoldt(8) == pytest.approx(math.log(2), rel=1e-12)
    assert von_mangoldt(6) == 0.0
    assert von_mangoldt(101) == pytest.approx(math.log(101), rel=1e-12)


def test_von_mangoldt_full_sweep_against_oracle():
    # independent oracle: mark Lambda by walking prime powers directly
    N = 10**5
    lam = np.zeros(N + 1)
    for p in primes_up_to(N).primes.tolist():
        lp = math.log(p)
        pe = p
        while pe <= N:
            lam[pe] = lp
            pe *= p
    for n in range(1, N + 1):
        assert von_mangoldt(n) == pytest.approx(lam[n], rel=1e-12, abs=1e-15)


def test_chebyshev_psi_ratio():
    table = primes_up_to(1100)
    ratio = float(dense_lambda(sieve_window(2, 10**6 + 1, table)).sum()) / 10**6
    assert 0.99 <= ratio <= 1.01


# ---------------------------------------------------------------------------
# sieve windows and prime tables
# ---------------------------------------------------------------------------

def test_sieve_window_small_example():
    lam = dense_lambda(sieve_window(2, 12, primes_up_to(4)))
    primes = {2, 3, 5, 7, 11}
    nonzero = {2, 3, 4, 5, 7, 8, 9, 11}
    for n in range(2, 12):
        assert (lam[n - 2] == pytest.approx(math.log(n), rel=1e-12)) == (n in primes)
        assert (lam[n - 2] > 0) == (n in nonzero)
    assert lam[4 - 2] == pytest.approx(math.log(2), rel=1e-12)
    assert lam[9 - 2] == pytest.approx(math.log(3), rel=1e-12)


def test_sieve_window_composite_singleton():
    lam = dense_lambda(sieve_window(100, 101, primes_up_to(11)))
    assert len(lam) == 1
    assert lam[0] == 0.0


def test_sieve_window_invariants():
    table = primes_up_to(1000)
    lam = dense_lambda(sieve_window(500, 1500, table))
    assert len(lam) == 1000
    for i in range(len(lam)):
        n = 500 + i
        assert (lam[i] == pytest.approx(math.log(n), rel=1e-12)) == is_prime(n)
        if lam[i] > 0:
            base, _ = perfect_power_base(n)
            assert is_prime(base)
            assert lam[i] == pytest.approx(math.log(base), rel=1e-12)


def test_sieve_window_split_law():
    table = primes_up_to(4000)
    rng = random.Random(9)
    for _ in range(25):
        a = rng.randint(2, 10**6)
        b = a + rng.randint(1, 3000)
        c = b + rng.randint(1, 3000)
        whole = sieve_window(a, c, table)
        left = sieve_window(a, b, table)
        right = sieve_window(b, c, table)
        assert np.array_equal(whole.m, np.concatenate((left.m, right.m)))
        assert np.array_equal(whole.val, np.concatenate((left.val, right.val)))


def test_sieve_window_matches_von_mangoldt_on_random_windows():
    table = primes_up_to(40000)
    rng = random.Random(10)
    for _ in range(300):
        lo = rng.randint(2, 10**9)
        hi = lo + rng.randint(1, 1500)
        lam = dense_lambda(sieve_window(lo, hi, table))
        for i in rng.sample(range(hi - lo), min(20, hi - lo)):
            assert lam[i] == pytest.approx(von_mangoldt(lo + i), rel=1e-12, abs=1e-15)
        total = sum(von_mangoldt(n) for n in range(lo, hi))
        assert float(lam.sum()) == pytest.approx(total, rel=1e-9, abs=1e-9)


def _bit_identity_windows():
    rng = random.Random(11)
    random_317 = [(lo, lo + 317) for lo in (rng.randint(10**8 + 1, 2 * 10**8 - 317)
                                            for _ in range(40))]
    # p^2 and p^e (e >= 3) inside, at the edges and as single cells
    powers = [(max(2, p**e - 40), p**e + 40)
              for p, e in ((3, 2), (3, 5), (3, 13), (5, 7), (7, 6), (101, 2), (101, 3),
                           (9973, 2), (211, 3), (3, 19))]
    powers += [(p**e, p**e + 1) for p, e in ((3, 3), (5, 4), (10007, 2))]
    powers += [(p**e - 5, p**e + 1) for p, e in ((7, 3), (13, 5))]
    twos = [(2**e - 3, 2**e + 4) for e in (3, 10, 17, 27, 33)]
    twos += [(2**e, 2**e + 1) for e in (2, 5, 30)] + [(2, 2**14)]
    small_lo = [(lo, hi) for lo in (2, 3, 4) for hi in range(lo + 1, lo + 40)]
    single = [(m, m + 1) for m in (5, 6, 9, 15, 25, 27, 49, 10**8 + 7, 10**8 + 8,
                                   999_999_937, 2**31 - 1)]
    # at most 3 odd cells, so every odd prime p >= 3 strikes at most once
    one_shot = [(lo, lo + rng.randint(1, 6))
                for lo in (rng.randint(10**6, 10**9) for _ in range(60))]
    # hi = (L + 1)^2 - 1 with L = isqrt(hi), the top of primes_up_to(L)'s range,
    # holding p^2 for p = L or an odd p^e (e >= 3) just below it
    edge = [(p * p - 3, (p + 1) ** 2 - 1) for p in (3, 5, 101, 9973, 10007, 46337)]
    edge += [(m - 20, (math.isqrt(m) + 1) ** 2 - 1)
             for m in (3**3, 3**5, 5**5, 13**3, 43**3, 109**3, 23**5, 3**15)]
    return {"random_317": random_317, "prime_powers": powers, "powers_of_two": twos,
            "lo_2_3_4": small_lo, "single_cell": single, "one_shot": one_shot,
            "table_edge": edge}


@pytest.mark.parametrize("kind", sorted(_bit_identity_windows()))
def test_sieve_window_bit_identical_to_full_cell_oracle(kind):
    large = primes_up_to(10**5)
    for lo, hi in _bit_identity_windows()[kind]:
        # a large table and the smallest one sieve_window accepts
        for table in (large, primes_up_to(max(2, math.isqrt(hi)))):
            win = sieve_window(lo, hi, table)
            if kind == "one_shot":
                assert len(range(lo | 1, hi, 2)) <= 3
            full = sieve_window_full(lo, hi, table)
            where = (lo, hi, table.limit)
            cells = np.flatnonzero(full)
            assert np.array_equal(win.m, cells + lo), where
            assert np.array_equal(win.val.view(np.int64), full[cells].view(np.int64)), where


@pytest.mark.parametrize("lo", [2**53 - 2**20, 2**53 + 1, 2**54 + 3, 2**62 + 513])
def test_sieve_window_values_round_each_cell_once_above_2_53(lo):
    # a table whose limit admits the window but which holds only the primes up
    # to 1000 and no p^e: every unstruck odd cell is kept, and val is plain log m.
    # Below 2^54 log hides a one-ulp slip in m; the two windows above it show
    # thousands of slipped logs when m is rounded twice.  The only even m is 2^53.
    hi = lo + SEGMENT_SIZE
    empty = np.zeros(0, dtype=np.int64)
    table = PrimeTable(limit=math.isqrt(hi), primes=primes_array(1000),
                       powers=empty, bases=empty)
    win = sieve_window(lo, hi, table)
    odd = win.m % 2 == 1
    expected = np.log(win.m[odd].astype(np.float64))
    assert odd.sum() > 10**5
    assert np.array_equal(win.val[odd].view(np.int64), expected.view(np.int64))
    assert win.m[~odd].tolist() == ([2**53] if lo < 2**53 else [])
    assert win.val[~odd].tolist() == ([math.log(2)] if lo < 2**53 else [])


def test_sieve_window_holds_no_piece_sized_temporary():
    lo = 150_000_001
    table = primes_up_to(math.isqrt(lo + SEGMENT_SIZE) + 1)
    tracemalloc.start()
    try:
        win = sieve_window(lo, lo + SEGMENT_SIZE, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    flag_bytes = SEGMENT_SIZE // 2          # one byte per odd cell
    assert peak <= flag_bytes + 8 * win.m.size + 128 * 1024


def test_prime_table_powers_cover_the_sieve_range():
    # every odd p^e with e >= 3 up to (limit + 1)^2 - 1, ascending, with its p
    for limit in [*range(2, 120), 1000, 10**4]:
        table = primes_up_to(limit)
        top = (limit + 1) ** 2 - 1
        want = sorted((p**e, p) for p in table.primes[1:].tolist()
                      for e in range(3, top.bit_length()) if p**e <= top)
        assert list(zip(table.powers.tolist(), table.bases.tolist())) == want, limit


def test_sieve_window_rejects_small_table():
    with pytest.raises(ValueError):
        sieve_window(2, 400, primes_up_to(10))
    with pytest.raises(ValueError):
        sieve_window(5, 4, primes_up_to(10))


def test_primes_up_to_examples():
    assert primes_up_to(10).primes.tolist() == [2, 3, 5, 7]
    assert primes_up_to(2).primes.tolist() == [2]


def test_prime_table_over_the_cap_is_refused(monkeypatch):
    monkeypatch.setattr(quadprimes.arith, "MAX_PRIME_LIMIT", 1000)
    assert primes_up_to(1000).primes[-1] == 997
    with pytest.raises(ValueError, match="exceeds the cap"):
        primes_up_to(1001)


def test_prime_cap_admits_the_documented_runs():
    # constant's default P, and moment1 --z=1e10 --K=1e5; not the table of z = 1e18
    cap = quadprimes.arith.MAX_PRIME_LIMIT
    assert 10**6 <= cap and math.isqrt(2 * 10**10 + 10**5) + 1 <= cap
    assert math.isqrt(2 * 10**18 + 10**5) + 1 > cap


def test_primes_up_to_million_count():
    table = primes_up_to(10**6)
    assert len(table.primes) == 78498
    # independent bitset sieve
    sieve = bytearray(b"\x01") * (10**6 + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(10**3) + 1):
        if sieve[i]:
            start = i * i
            sieve[start:: i] = b"\x00" * ((10**6 - start) // i + 1)
    assert sum(sieve) == 78498


def test_prime_table_invariants():
    table = primes_up_to(2000)
    assert all(is_prime(int(p)) for p in table.primes)
    missing = [n for n in range(2, 2001)
               if is_prime(n) and n not in set(table.primes.tolist())]
    assert missing == []
