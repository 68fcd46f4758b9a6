"""Independent oracles for the test suite.

Each routine recomputes a production quantity by a slower, more literal
route (or is a validation mode that only the tests run), so the two can be
compared.
"""

import math

import numpy as np

from quadprimes.arith import shared_prime_table, sieve_window
from quadprimes.scan import ScanConfig, progression_sums
from quadprimes.singular import (DEFAULT_TRUNCATION, _odd_primes_up_to,
                                 cached_singular_values)

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
    for p in _odd_primes_up_to(P).tolist():
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
    primes = _odd_primes_up_to(hi)
    primes = primes[primes > lo]
    s = legendre_symbols(-k, primes).astype(np.float64)
    return math.fsum(np.log1p(-s / (primes - 1.0)) - np.log1p(-s / primes))


def lower_bound_diagnostic(K: int, P: int) -> float:
    """min over 1 <= k <= K of S(k) * log(k + 2); positive, non-increasing in K."""
    if K < 1:
        raise ValueError("K must be positive")
    values = cached_singular_values(K, P)
    ks = np.arange(1, K + 1, dtype=np.float64)
    return float((values * np.log(ks + 2.0)).min())


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def theorem2_exact_integral(config: ScanConfig, P: int = DEFAULT_TRUNCATION,
                            z_cap: int = 10**6) -> float:
    """Exact int_z^{2z} sum_k |A_k - S(k) c_k|^2 dt (validation mode).

    The integrand is a step function constant on [j, j+1) for integer j, so
    the integral is the plain sum of the inner sums at j = z .. 2z-1.  Only
    offered at small z; the sampled estimator covers desk scale.
    """
    if config.delta is None:
        raise ValueError("exact integration requires delta")
    z, K, delta = config.z, config.K, config.delta
    if z > z_cap:
        raise ValueError(f"exact integration is capped at z <= {z_cap}")
    table = shared_prime_table(max(2, math.isqrt(2 * z + delta) + 1))
    lam_all = sieve_window(z + 1, 2 * z + delta + 1, table).lam
    sing = cached_singular_values(K, P)
    lam, counts, _ = progression_sums(z, delta, K, table=table)
    counts = counts.astype(np.float64)
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
