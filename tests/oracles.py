"""Independent oracles for the test suite.

Each routine recomputes a production quantity by a slower, more literal
route (or is a validation mode that only the tests run), so the two can be
compared.  identity_at alone is no oracle: it runs the production
identity_check at one t, for the tests that check it window by window.
"""

import math
from dataclasses import dataclass

import numpy as np

from quadprimes import ScanConfig
from quadprimes.arith import (INT63_CAP, PrimeTable, SieveWindow, euler_phi, factorize,
                              primes_array, primes_up_to)
from quadprimes.characters import Character, CharacterTable, build_character_group
from quadprimes.dispersion import DispersionSample, identity_check
from quadprimes.scan import ScanColumns, progression_sums
from quadprimes.singular import (CONSTANT_TRUNCATION, DEFAULT_TRUNCATION,
                                 batch_singular_values, main_term_constant)

# ---------------------------------------------------------------------------
# primality and von Mangoldt, one integer at a time
# ---------------------------------------------------------------------------

# Deterministic Miller-Rabin witnesses; this set is correct for every
# n < 3.317e24, which covers the full 64-bit range used here.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = tuple(p for p in range(2, 200) if all(p % d for d in range(2, p)))


def integer_nth_root(n: int, e: int) -> int:
    """Exact floor(n^(1/e)) for n >= 0, e >= 1."""
    if n < 0 or e < 1:
        raise ValueError("require n >= 0 and e >= 1")
    if e == 1 or n < 2:
        return n
    if e == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / e)))
    while r > 0 and r**e > n:
        r -= 1
    while (r + 1) ** e <= n:
        r += 1
    return r


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def perfect_power_base(n: int) -> tuple[int, int]:
    """Write n >= 2 as base^exp with base not a perfect power; exp may be 1."""
    base, exp = n, 1
    e = 2
    while (1 << e) <= base:
        r = integer_nth_root(base, e)
        if r**e == base:
            base, exp = r, exp * e
        else:
            e += 1
    return base, exp


def von_mangoldt(n: int) -> float:
    """Lambda(n): log p if n = p^e for a prime p, else 0."""
    if n < 2:
        return 0.0
    for p in _SMALL_PRIMES:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return math.log(p) if n == 1 else 0.0
    base, _ = perfect_power_base(n)
    return math.log(base) if is_prime(base) else 0.0


# ---------------------------------------------------------------------------
# full-cell sieve and the progression scan built on it
# ---------------------------------------------------------------------------

def sieve_window_full(lo: int, hi: int, table: PrimeTable) -> np.ndarray:
    """Lambda(lo + i) for every cell of [lo, hi), sieving even cells too."""
    root = math.isqrt(hi - 1)
    size = hi - lo
    flags = np.ones(size, dtype=bool)
    primes = table.primes
    cut = int(np.searchsorted(primes, root, side="right"))
    for p in primes[:cut]:
        p = int(p)
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            flags[start - lo:: p] = False
    lam = np.zeros(size, dtype=np.float64)
    idx = np.flatnonzero(flags)
    if idx.size:
        lam[idx] = np.log((idx + lo).astype(np.float64))
    for p in primes[:cut]:
        p = int(p)
        lp = math.log(p)
        pe = p * p
        while pe < hi:
            if pe >= lo:
                lam[pe - lo] = lp
            pe *= p
    return lam


def dense_lambda(win: SieveWindow) -> np.ndarray:
    """Lambda(win.lo + i) for every cell of [win.lo, win.hi), from win.m and win.val."""
    out = np.zeros(win.hi - win.lo, dtype=np.float64)
    out[win.m - win.lo] = win.val
    return out


def progression_sums_full(t: int, delta: int, K: int, table: PrimeTable) -> np.ndarray:
    """A_k for k = 1..K over (t, t+delta]: one full-cell sieve of the whole
    window, each n's cells added in ascending n into one accumulator."""
    lambda_sums = np.zeros(K, dtype=np.float64)
    top = t + delta
    lam = sieve_window_full(t + 1, top + 1, table)
    for n in range(1, math.isqrt(max(top - 1, 0)) + 1):
        nn = n * n
        a, b = max(t + 1, nn + 1), min(top, nn + K)
        if a <= b:
            lambda_sums[a - nn - 1: b - nn] += lam[a - t - 1: b - t]
    return lambda_sums


# ---------------------------------------------------------------------------
# Kronecker symbol, by binary reciprocity
# ---------------------------------------------------------------------------

def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 0.

    Equals the Legendre symbol when n is an odd prime, is completely
    multiplicative in n, and is 0 iff gcd(a, n) > 1 (for n >= 1).
    The factor (a/2) follows the standard convention: 0 for even a,
    +1 for a = +-1 mod 8, -1 for a = +-3 mod 8.
    """
    if n < 0:
        raise ValueError("modulus must be non-negative")
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # Jacobi symbol for the remaining odd n, by binary reciprocity.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------

def evaluate(chi: Character, n: int) -> complex:
    """chi(n), periodic in n with period q."""
    return complex(chi.values()[n % chi.modulus])


def conductors_by_induction(table: CharacterTable) -> list[int]:
    """Each character's conductor as the smallest divisor d of q such that
    the character is 1, to a float tolerance, on every unit n = 1 mod d."""
    q = table.modulus
    values = np.stack([chi.values() for chi in table.characters])
    units = np.array([n for n in range(q) if math.gcd(n, q) == 1])
    divisors = [1]
    for p, e in factorize(q) if q > 1 else []:
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    conductor = np.zeros(len(values), dtype=np.int64)
    for d in sorted(divisors, reverse=True):
        cols = units[units % d == 1 % d]
        conductor[np.all(np.abs(values[:, cols] - 1.0) < 1e-9, axis=1)] = d
    return conductor.tolist()

# ---------------------------------------------------------------------------
# singular series
# ---------------------------------------------------------------------------


def reduced_form_class_numbers(K: int) -> list[int]:
    """h(-4k) for k = 0..K by listing every primitive reduced form (a, 2b, c)."""
    h = [0] * (K + 1)
    a = 1
    while 3 * a * a <= 4 * K:
        for b in range(-(a // 2), a // 2 + 1):
            c = a
            while a * c - b * b <= K:
                reduced = b >= 0 or (-2 * b != a and c != a)
                if reduced and math.gcd(math.gcd(a, 2 * b), c) == 1:
                    h[a * c - b * b] += 1
                c += 1
        a += 1
    return h


def _legendre_table(p: int) -> np.ndarray:
    """(-k/p) + 1, indexed by k mod p."""
    leg = np.zeros(p, dtype=np.int64)           # (-k/p) = -1
    leg[0] = 1                                  # p | k
    squares = np.arange(1, (p + 1) // 2, dtype=np.int64) ** 2 % p
    leg[p - squares] = 2                        # -k = s^2 (mod p)
    return leg


def _per_prime_log_sums(K: int, P: int, factor_log) -> np.ndarray:
    """sum over odd p <= P of factor_log(s, p) at s = (-k/p), k = 0..K, one
    Legendre table of length p per prime (O(p) work each), primes ascending."""
    acc = np.zeros(K + 1)
    ks = np.arange(K + 1)
    symbols = np.array([-1.0, 0.0, 1.0])
    for p in primes_array(P)[1:].tolist():
        acc += factor_log(symbols, p)[_legendre_table(p)[ks % p]]
    return acc


def per_prime_table_batch(K: int, P: int) -> np.ndarray:
    """The truncated Euler product prod_{p <= P} (1 - (-k/p)/(p-1)), k = 1..K."""
    logs = _per_prime_log_sums(K, P, lambda s, p: np.log1p(-s / (p - 1.0)))
    return np.exp(logs[1:])


def class_number_formula_batch(K: int, P: int) -> np.ndarray:
    """w sqrt(4k) / (2 pi h(-4k)) * prod_{p <= P} f_p(k), k = 1..K, with h from
    reduced_form_class_numbers; the float operations follow the production
    evaluator's order, so the values agree bit for bit."""
    acc = _per_prime_log_sums(
        K, P, lambda s, p: np.log1p(-s / (p - 1.0)) - np.log1p(-s / p))
    h = np.array(reduced_form_class_numbers(K)[1:])
    k = np.arange(1, K + 1)
    units = np.where(k == 1, 4.0, 2.0)
    return units * np.sqrt(4.0 * k) / (2 * math.pi * h) * np.exp(acc[1:])


def legendre_symbols(a: int, primes: np.ndarray) -> np.ndarray:
    """(a/p) for odd primes p < 2^31, by Euler's criterion in int64."""
    base = np.mod(a, primes)
    exponent = (primes - 1) // 2
    result = np.ones_like(primes)
    while exponent.any():
        odd = (exponent & 1) == 1
        result = np.where(odd, result * base % primes, result)
        base = base * base % primes
        exponent >>= 1
    return np.where(result == primes - 1, -1, result)


def correction_log_sum(k: int, lo: int, hi: int) -> float:
    """sum over odd primes lo < p <= hi of log f_p(k), f_p = (1 - s/(p-1))/(1 - s/p)."""
    primes = primes_array(hi)[1:]
    primes = primes[primes > lo]
    s = legendre_symbols(-k, primes).astype(np.float64)
    return math.fsum(np.log1p(-s / (primes - 1.0)) - np.log1p(-s / primes))


def lower_bound_diagnostic(K: int, P: int) -> float:
    """min over 1 <= k <= K of S(k) * log(k + 2); positive, non-increasing in K."""
    if K < 1:
        raise ValueError("K must be positive")
    values = batch_singular_values(K, P)
    ks = np.arange(1, K + 1, dtype=np.float64)
    return float((values * np.log(ks + 2.0)).min())


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def isqrt_array(x: np.ndarray) -> np.ndarray:
    """Exact elementwise floor(sqrt) for a non-negative int64 array.

    float64 sqrt gets within 1 of the truth for the full int64 range, so a
    single +-1 correction pass makes the result exact.  It compares s with
    x // s, since squares near 2^63 overflow int64.  The scan's c_k is
    checked against isqrt(t + delta - k) - isqrt(t - k) built on it.
    """
    x = np.asarray(x, dtype=np.int64)
    if x.size and int(x.min()) < 0:
        raise ValueError("negative input")
    s = np.sqrt(x.astype(np.float64)).astype(np.int64)
    s -= s > x // np.maximum(s, 1)      # s^2 > x
    s += s + 1 <= x // (s + 1)          # (s+1)^2 <= x
    return s


def window_count(k: int, t: int, delta: int) -> int:
    """#{n >= 1 : t < n^2 + k <= t + delta}, exact."""
    if k < 1 or t < 0 or delta < 0:
        raise ValueError("require k >= 1, t >= 0, delta >= 0")
    top = t + delta - k
    if top < 0:
        return 0
    return math.isqrt(top) - math.isqrt(max(t - k, 0))


def window_lambda_sum(k: int, t: int, delta: int) -> float:
    """Sum of Lambda(n^2 + k) over the same n-range, one term at a time."""
    if t + delta + k >= INT63_CAP:
        raise OverflowError("window top exceeds the 2^63-1 cap")
    if k < 1 or t < 0 or delta < 0:
        raise ValueError("require k >= 1, t >= 0, delta >= 0")
    n_lo = math.isqrt(max(t - k, 0)) + 1
    n_hi = math.isqrt(t + delta - k) if t + delta - k >= 0 else 0
    return sum(von_mangoldt(n * n + k) for n in range(n_lo, n_hi + 1))


def theorem2_exact_integral(config: ScanConfig, P: int = DEFAULT_TRUNCATION,
                            z_cap: int = 10**6) -> float:
    """Exact int_z^{2z} sum_k |A_k - S(k) c_k|^2 dt (validation mode).

    The integrand is a step function constant on [j, j+1) for integer j, so
    the integral is the plain sum of the inner sums at j = z .. 2z-1.  Only
    offered at small z; the sampled estimator covers desk scale.
    """
    z, K, delta = config.z, config.K, config.delta
    if z > z_cap:
        raise ValueError(f"exact integration is capped at z <= {z_cap}")
    table = primes_up_to(math.isqrt(2 * z + delta) + 1)
    lam_all = sieve_window_full(z + 1, 2 * z + delta + 1, table)
    sing = batch_singular_values(K, P)
    lam = progression_sums_full(z, delta, K, table)
    counts = np.array([window_count(k, z, delta) for k in range(1, K + 1)],
                      dtype=np.float64)
    total = 0.0
    for t in range(z, 2 * z):
        resid = lam - sing * counts
        total += float((resid * resid).sum())
        # slide the window from (t, t+delta] to (t+1, t+1+delta]
        for m, sign in ((t + 1, -1.0), (t + 1 + delta, 1.0)):
            n_hi = math.isqrt(m - 1)
            n_lo = math.isqrt(max(m - K - 1, 0)) + 1
            for n in range(n_lo, n_hi + 1):
                k = m - n * n
                lam[k - 1] += sign * lam_all[m - z - 1]
                counts[k - 1] += sign
    return total


# ---------------------------------------------------------------------------
# dispersion terms at one t
# ---------------------------------------------------------------------------

MAIN_TERM_CONSTANT = main_term_constant(CONSTANT_TRUNCATION)


def identity_at(config: ScanConfig, t: int, singular: np.ndarray) -> DispersionSample:
    """identity_check at one t on the columns of (t, t+delta] that scan_all_k
    would return, with S(k) the first K values of singular: one batch serves
    every call, since values do not depend on the batch's K."""
    lam, counts, stats = progression_sums(t, config.delta, config.K)
    sing = singular[:config.K]
    scan = ScanColumns(lambda_sum=lam, count=counts, singular=sing,
                       residual=lam - sing * counts, stats=stats)
    return identity_check(config, t, scan, MAIN_TERM_CONSTANT)


# ---------------------------------------------------------------------------
# lemmas
# ---------------------------------------------------------------------------

def mean_square_exact(z: int, delta_exp: float, M_frac: float,
                      z_cap: int = 10**7) -> float:
    """Exact (1/z) int_z^{2z} |psi(t+M)-psi(t)-M|^2 dt (validation mode).

    The integrand is constant on [j, j+1) for integer j, so the integral is
    a plain sum; only offered at small z.
    """
    if z > z_cap:
        raise ValueError(f"exact mode is capped at z <= {z_cap}")
    delta = int(round(z**delta_exp))
    M = int(round(M_frac * delta))
    if M == 0:
        return 0.0
    table = primes_up_to(math.isqrt(2 * z + M) + 1)
    lam = sieve_window_full(z + 1, 2 * z + M + 1, table)
    cum = np.concatenate(([0.0], np.cumsum(lam)))
    inc = cum[M: M + z] - cum[:z]  # psi(j+M) - psi(j) for j = z .. 2z-1
    return float(((inc - M) ** 2).mean())


def polya_vinogradov_max(q: int) -> float:
    """max |sum_{M < n <= M+N} chi(n)| over every non-principal chi mod q and
    every window 0 <= M < q, 1 <= N <= q, searching every character."""
    observed = 0.0
    for chi in build_character_group(q).characters:
        if chi.is_principal:
            continue
        row = chi.values()
        vals = np.concatenate((row, row))
        prefix = np.concatenate(([0.0], np.cumsum(vals[1: 2 * q + 1])))
        windows = np.lib.stride_tricks.sliding_window_view(prefix, q)[1: q + 1]
        observed = max(observed, float(np.abs(windows - prefix[:q, None]).max()))
    return observed


# ---------------------------------------------------------------------------
# dispersion main term
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MTildeParams(ScanConfig):
    """ScanConfig plus the moduli range of m_tilde; C is the log-power
    in the cutoff L."""
    C: float = 2.0

    @property
    def L(self) -> float:
        return math.log(self.z) ** self.C

    @property
    def D1(self) -> float:
        return self.delta / (8 * self.L * math.sqrt(self.z))

    @property
    def D2(self) -> float:
        return self.delta / (2 * math.sqrt(self.z))


def _ceil_sqrt(x: np.ndarray) -> np.ndarray:
    """Exact elementwise ceil(sqrt(max(x, 0))) for int64 input."""
    x = np.maximum(x, 0)
    r = isqrt_array(x)
    return r + (r * r < x)


def m_tilde(params: MTildeParams, t: int) -> float:
    """Direct triple sum 2 sum_q phi(4q)^-1 sum_m1 #I(t, m1, q), which shares
    the main term (Delta^2 K / 4t) * prod_{p>2}(1 + 1/(p(p-1))) of U, V, W.

    I(t, m, q) = (m - 4q(sqrt(m)-q), m - 4q(sqrt(m-K)-q)] intersected with
    (t, t+Delta].  Integer counts come from exact floor/ceil of 4q sqrt(x) =
    sqrt(16 q^2 x), so no floating-point slack is needed.
    """
    if t + 1 - params.K < 0:
        raise ValueError("window contains m with m - K < 0")
    q_lo = max(1, math.ceil(params.D1))
    q_hi = math.floor(params.D2)
    if q_hi < q_lo or params.delta == 0:
        return 0.0
    top = t + params.delta
    if 16 * q_hi * q_hi * top >= 2**63:
        raise OverflowError("16 q^2 m exceeds the int64 range")
    m = np.arange(t + 1, top + 1, dtype=np.int64)
    total = 0.0
    for q in range(q_lo, q_hi + 1):
        c16 = 16 * q * q
        base = m + 4 * q * q
        floor_lo = base - _ceil_sqrt(c16 * m)            # floor of the open end
        floor_hi = base - _ceil_sqrt(c16 * (m - params.K))
        lo = np.maximum(floor_lo, t)
        hi = np.minimum(floor_hi, top)
        count = int(np.maximum(hi - lo, 0).sum())
        total += 2.0 * count / euler_phi(4 * q)
    return total
