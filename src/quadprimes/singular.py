"""Singular series for the quadratic progressions n^2 + k.

S(k) is the Euler product over odd primes of (1 - (-k/p)/(p-1)); factors
with p | k equal 1.  The product converges only conditionally.
batch_singular_values truncates it at a prime cutoff P for every k <= K in
one pass, accumulating the factors in log-space to avoid drift for large
cutoffs; cached_singular_values serves repeated requests from a prefix cache.

Also computes the main-term constant prod_{p>2} (1 + 1/(p(p-1))).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .arith import shared_prime_table

DEFAULT_TRUNCATION = 10**5      # moment computations default to this cutoff
CONSTANT_TRUNCATION = 10**6     # main-term constant default cutoff


def _odd_primes_up_to(limit: int) -> np.ndarray:
    primes = shared_prime_table(limit).primes
    cut = int(np.searchsorted(primes, limit, side="right"))
    return primes[1:cut]  # drop p = 2


# (-k/p) takes these values; one log1p call gives a prime's three factor logs.
_SYMBOLS = np.array([-1.0, 0.0, 1.0])

# Residue tables plus one block of primes may take this many bytes per unit
# of the cutoff P, so memory grows with P as the pattern path's does.
_BLOCK_BYTES_PER_P = 32
# With fewer primes per block, the per-block numpy calls can cost more than
# the pattern path they replace (K = 1500, P = 1e4: 10 primes per block).
_MIN_BLOCK = 16


def _factor_logs(p: int) -> np.ndarray:
    """log(1 - s/(p-1)) for s = (-k/p) = -1, 0, 1."""
    return np.log1p(-_SYMBOLS / (p - 1.0))


def _add_patterns(acc: np.ndarray, primes: np.ndarray) -> None:
    """acc[k] += factor log at p for k = 0..K, through the period-p pattern.

    The buffers are sized for the largest prime and reused, so no prime
    allocates (and page-faults) arrays of its own.
    """
    if not primes.size:
        return
    top = int(primes[-1])
    squares = np.arange(1, (top + 1) // 2, dtype=np.int64) ** 2
    plus_buf = np.empty_like(squares)
    pattern_buf = np.empty(top)
    for p in primes.tolist():
        logs = _factor_logs(p)
        sq = squares[:(p - 1) // 2]
        plus = plus_buf[:sq.size]
        np.floor_divide(sq, p, out=plus)        # faster than np.remainder
        plus += 1
        plus *= p
        plus -= sq                              # k = -s^2 (mod p): (-k/p) = +1
        pattern = pattern_buf[:p]
        pattern.fill(logs[0])
        pattern[plus] = logs[2]
        pattern[0] = logs[1]                    # p | k
        m = acc.size // p
        periods = acc[:m * p].reshape(m, p)
        periods += pattern
        acc[m * p:] += pattern[:acc.size - m * p]


def _reciprocity_block(K: int, P: int) -> int:
    """Primes per block on the reciprocity path; 0 when its tables do not fit."""
    qs = _odd_primes_up_to(K)
    fixed = int(qs.sum()) + 32 * (K + 1)        # residue tables, spf levels
    # per prime: (k/p) for every k, level temporaries and the transposed
    # rows; p mod q and (p/q) for every odd q <= K
    block = (_BLOCK_BYTES_PER_P * P - fixed) // (4 * (K + 1) + 18 * qs.size)
    return block if block >= _MIN_BLOCK else 0


class _Reciprocity:
    """(-k/p) for k = 0..K and primes p > K, a block of primes at a time.

    (2/p) comes from p mod 8, and (q/p) for an odd prime q <= K from
    reciprocity: (q/p) = (p/q) (-1/p)^[q = 3 mod 4], with (p/q) read from
    q's residue table.  Composite k take (k/p) = (spf(k)/p) (k/spf(k) / p),
    one range [2^j, 2^(j+1)) at a time: every cofactor k/spf(k) < 2^j is
    filled by then.
    """

    def __init__(self, K: int):
        self.K = K
        self.qs = qs = _odd_primes_up_to(K)
        self.q3 = qs % 4 == 3
        self.offsets = np.cumsum(qs) - qs
        self.tables = np.full(int(qs.sum()), -1, dtype=np.int8)  # (r/q) at offset + r
        for q, off in zip(qs.tolist(), self.offsets.tolist()):
            s = np.arange(1, (q + 1) // 2, dtype=np.int64)
            self.tables[off + s * s % q] = 1
        spf = np.zeros(K + 1, dtype=np.int64)
        for q in _odd_primes_up_to(math.isqrt(K))[::-1].tolist():
            spf[q * q::q] = q
        spf[4::2] = 2
        composites = np.flatnonzero(spf)
        cuts = np.searchsorted(composites, 1 << np.arange(K.bit_length() + 1))
        self.levels = [(ks, spf[ks], ks // spf[ks])
                       for ks in np.split(composites, cuts) if ks.size]

    def add_logs(self, acc: np.ndarray, ps: np.ndarray) -> None:
        """acc[k] += log(1 - (-k/p)/(p-1)) for each p in ps, in order."""
        for p, row in zip(ps.tolist(), self._rows(ps)):
            acc += _factor_logs(p).take(row)

    def _rows(self, ps: np.ndarray) -> np.ndarray:
        """Row i holds (-k/ps[i]) + 1 for k = 0..K: indices into _factor_logs."""
        minus_one = np.where(ps % 4 == 1, 1, -1).astype(np.int8)
        chi = np.empty((self.K + 1, ps.size), dtype=np.int8)  # chi[k, i] = (k/ps[i])
        chi[0], chi[1] = 0, 1
        if self.K >= 2:
            chi[2] = np.where((ps % 8 == 1) | (ps % 8 == 7), 1, -1)
        leg = self.tables[ps % self.qs[:, None] + self.offsets[:, None]]
        leg[self.q3] *= minus_one
        chi[self.qs] = leg
        for ks, f, c in self.levels:
            chi[ks] = chi[f] * chi[c]
        chi *= minus_one                # (-k/p) = (-1/p) (k/p)
        chi += 1
        return np.ascontiguousarray(chi.T)


def _add_factor_logs(acc: np.ndarray, primes: np.ndarray, P: int) -> None:
    """acc[k] += log(1 - (-k/p)/(p-1)) for k = 0..K, one odd prime at a time.

    primes ascend and lie in [3, P].  Each acc[k] receives the same float
    sequence in the same order on either path, so sums are bit-identical.
    """
    K = acc.size - 1
    split = int(np.searchsorted(primes, K, side="right"))
    block = _reciprocity_block(K, P) if split < primes.size else 0
    if not block:
        split = primes.size
    _add_patterns(acc, primes[:split])
    if block:
        reciprocity = _Reciprocity(K)
        for start in range(split, primes.size, block):
            reciprocity.add_logs(acc, primes[start:start + block])


def _singular_values(K: int, cutoffs: tuple[int, ...]) -> list[np.ndarray]:
    """S(k) for k = 1..K truncated at each ascending cutoff, in one pass."""
    if K < 1:
        raise ValueError("K must be positive")
    if min(cutoffs) < 3:
        raise ValueError("P must be >= 3")
    primes = _odd_primes_up_to(cutoffs[-1])
    acc = np.zeros(K + 1)
    values, done = [], 0
    for P in cutoffs:
        upto = int(np.searchsorted(primes, P, side="right"))
        _add_factor_logs(acc, primes[done:upto], P)
        values.append(np.exp(acc[1:]))
        done = upto
    return values


def batch_singular_values(K: int, P: int) -> np.ndarray:
    """S(k) for k = 1..K truncated at P, as a float array.

    The odd primes p <= P add their factor logs one at a time, in ascending
    order, at O(K) cost each rather than O(p):
    - p <= K: the factor log depends only on k mod p, so a float pattern of
      period p is added through an (m, p) view of the accumulator.
    - p > K: (-k/p) for k <= K comes from (-1/p), (2/p) and (q/p) for the
      odd primes q <= K by complete multiplicativity, a block of primes at
      a time, with (q/p) from quadratic reciprocity and q's residue table.
      Tables and block stay within 32 bytes per unit of P; where the
      tables leave no room for a block, these primes take the pattern
      path instead, at O(p) each.
    Both paths add the same floats in the same order, so the values do not
    depend on the path.
    """
    return _singular_values(K, (P,))[0]


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
