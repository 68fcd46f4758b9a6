"""Singular series for the quadratic progressions n^2 + k.

S(k) is the Euler product over odd primes of (1 - (-k/p)/(p-1)); factors
with p | k equal 1.  The product converges only conditionally, so truncation
control is empirical: double the prime cutoff until successive values settle.
Products are accumulated in log-space to avoid drift for large cutoffs.

Also computes the main-term constant prod_{p>2} (1 + 1/(p(p-1))).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .arith import kronecker, shared_prime_table

DEFAULT_TRUNCATION = 10**5      # moment computations default to this cutoff
CONSTANT_TRUNCATION = 10**6     # main-term constant default cutoff
STABILIZATION_CAP = 10**8       # adaptive doubling gives up past this


@dataclass(frozen=True)
class SingularValue:
    """A truncated evaluation of S(k).

    tail_estimate is the last observed doubling delta (0.0 when the value
    was computed by a single fixed truncation); stabilized is False only
    when adaptive doubling hit its cap without settling.
    """
    k: int
    truncation_p: int
    value: float
    tail_estimate: float
    stabilized: bool = True


def _odd_primes_up_to(limit: int) -> np.ndarray:
    primes = shared_prime_table(limit).primes
    cut = int(np.searchsorted(primes, limit, side="right"))
    return primes[1:cut]  # drop p = 2


def _symbol_mod_table(k: int) -> np.ndarray:
    """(-k/p) for odd p depends only on p mod 4k; table over that period."""
    period = 4 * k
    return np.array([kronecker(-k, r) for r in range(period)], dtype=np.float64)


def _factor_log_sum(k: int, primes: np.ndarray) -> float:
    """Sum of log(1 - (-k/p)/(p-1)) over the given odd primes."""
    if primes.size == 0:
        return 0.0
    pf = primes.astype(np.float64)
    if 4 * k <= 64 * primes.size:
        table = _symbol_mod_table(k)
        sym = table[primes % (4 * k)]
    else:
        sym = np.array([kronecker(-k, int(p)) for p in primes], dtype=np.float64)
    return float(np.log1p(-sym / (pf - 1.0)).sum())


def truncated_singular_series(k: int, P: int) -> SingularValue:
    """Exact product of factors 1 - (-k/p)/(p-1) over odd primes p <= P."""
    if k < 1:
        raise ValueError("k must be positive")
    if P < 3:
        raise ValueError("P must be >= 3")
    logsum = _factor_log_sum(k, _odd_primes_up_to(P))
    return SingularValue(k=k, truncation_p=P, value=math.exp(logsum),
                         tail_estimate=0.0)


def _tail_scale(P: int) -> float:
    """Statistical size of the remaining tail of the log-product past P.

    The tail is a +-1/(p-1) random walk over primes, so its scale is
    sqrt(sum_{p>P} p^-2) ~ sqrt(1/(P log P)).  A single doubling delta can
    dip far below this by cancellation, so stopping needs both signals.
    """
    return math.sqrt(1.0 / (P * math.log(P)))


def singular_series(k: int, stabilization_tol: float,
                    p_start: int = 10**3, p_cap: int = STABILIZATION_CAP) -> SingularValue:
    """Adaptive evaluation: double P until the product stabilizes.

    Stops once a doubling changes the value by < tol and the analytic tail
    scale has dropped below tol/2; reports non-stabilization
    (stabilized=False) if the cap is reached first.
    """
    if stabilization_tol <= 0:
        raise ValueError("tolerance must be positive")
    P = max(3, p_start)
    logsum = _factor_log_sum(k, _odd_primes_up_to(P))
    value = math.exp(logsum)
    delta = math.inf
    while P < p_cap:
        nxt = min(2 * P, p_cap)
        primes = shared_prime_table(nxt).primes
        lo = int(np.searchsorted(primes, P, side="right"))
        hi = int(np.searchsorted(primes, nxt, side="right"))
        logsum += _factor_log_sum(k, primes[lo:hi])
        new_value = math.exp(logsum)
        delta = abs(new_value - value)
        value, P = new_value, nxt
        if delta < stabilization_tol and _tail_scale(P) <= stabilization_tol / 2:
            return SingularValue(k=k, truncation_p=P, value=value,
                                 tail_estimate=max(delta, _tail_scale(P)))
    return SingularValue(k=k, truncation_p=P, value=value,
                         tail_estimate=max(delta, _tail_scale(P)), stabilized=False)


def batch_singular_values(K: int, P: int) -> np.ndarray:
    """S(k) for k = 1..K truncated at P, as a float array.

    One pass per odd prime p <= P: the factor log depends only on k mod p,
    so a p-periodic pattern is tiled across the k-axis.  Elementwise equal
    to truncated_singular_series (same arithmetic order).
    """
    if K < 1:
        raise ValueError("K must be positive")
    if P < 3:
        raise ValueError("P must be >= 3")
    logacc = np.zeros(K, dtype=np.float64)
    for p in _odd_primes_up_to(P):
        p = int(p)
        # Legendre symbols mod p via the quadratic-residue table.
        leg = np.full(p, -1.0)
        leg[0] = 0.0
        sq = (np.arange(1, (p - 1) // 2 + 1, dtype=np.int64) ** 2) % p
        leg[sq] = 1.0
        flog = np.log1p(-leg / (p - 1.0))       # indexed by (-k) mod p
        # pattern over k = 1, 2, ...: (-k) mod p walks p-1, p-2, ..., 1, 0
        pattern = np.concatenate((flog[:0:-1], flog[:1]))
        logacc += np.resize(pattern, K)
    return np.exp(logacc)


# Prefix cache: values for k <= K are independent of K, so one big batch per
# truncation P serves every smaller request by slicing.
_batch_lock = threading.Lock()
_batch_cache: dict[int, np.ndarray] = {}


def cached_singular_values(K: int, P: int) -> np.ndarray:
    with _batch_lock:
        have = _batch_cache.get(P)
        if have is None or have.size < K:
            _batch_cache[P] = batch_singular_values(max(K, 128), P)
        return _batch_cache[P][:K].copy()


_const_lock = threading.Lock()
_const_cache: dict[int, float] = {}


def main_term_constant(P: int = CONSTANT_TRUNCATION) -> float:
    """prod over odd primes p <= P of (1 + 1/(p(p-1))).

    Converges absolutely (monotone increasing in P) to
    zeta(2) zeta(3) / zeta(6) divided by the p=2 factor 3/2.
    """
    if P < 3:
        raise ValueError("P must be >= 3")
    with _const_lock:
        if P not in _const_cache:
            p = _odd_primes_up_to(P).astype(np.float64)
            _const_cache[P] = math.exp(float(np.log1p(1.0 / (p * (p - 1.0))).sum()))
        return _const_cache[P]


def lower_bound_diagnostic(K: int, P: int) -> float:
    """min over 1 <= k <= K of S(k) * log(k + 2); positive, non-increasing in K."""
    if K < 1:
        raise ValueError("K must be positive")
    values = cached_singular_values(K, P)
    ks = np.arange(1, K + 1, dtype=np.float64)
    return float((values * np.log(ks + 2.0)).min())
