"""Singular series for the quadratic progressions n^2 + k.

S(k) is the Euler product over odd primes of (1 - chi(p)/(p-1)), where
chi = (D/.) is the quadratic character of D = -4k; on odd p it equals (-k/p).
That product converges only conditionally.  Dividing each factor by
(1 - chi(p)/p) leaves factors f_p = 1 - 1/(p-1)^2, 1 or 1 + 1/(p^2-1), whose
product converges absolutely, and what was divided out is 1/L(1, chi).  The
class-number formula L(1, chi) = 2 pi h(D) / (w sqrt|D|) holds for every
negative discriminant, fundamental or not (Shanks, Math. Comp. 14 (1960);
Cohen, GTM 138, 5.3-5.4), with w = 4 at D = -4 and w = 2 for the other D = -4k.
So

    S(k) = w sqrt(4k) / (2 pi h(-4k)) * prod_{p > 2} f_p(k).

batch_singular_values evaluates this for every k <= K with h(-4k) counted
exactly (class_numbers) and the product cut at P; singular_error_bound proves
how far the result can be from S(k).

Also computes the main-term constant prod_{p>2} (1 + 1/(p(p-1))).
"""

from __future__ import annotations

import math

import numpy as np

from .arith import factorize, primes_array

DEFAULT_TRUNCATION = 10**4      # correction-product cutoff P
CONSTANT_TRUNCATION = 10**6     # main-term constant default cutoff

_UNIT_ROUNDOFF = 2.0**-53

# batch_singular_values refuses (K, P) estimated to update more accumulator
# cells than this.  An estimated cell took 0.5 ns (K = P = 1e5) to 1.6 ns
# (K = 1, P = 2e5) on a 2-core x86 box, so the cap is a few seconds of work.
MAX_BATCH_CELLS = 4 * 10**9
# A cell of class_numbers' strided slices took 4.6 ns (K = 1e6) to 8.4 ns
# (K = 1e5) on the same box, so each counts as this many cells.
_STRIDED_CELL_WEIGHT = 4


# chi(p) takes these values; one pair of log1p calls gives a prime's three
# factor logs.
_SYMBOLS = np.array([-1.0, 0.0, 1.0])


def _factor_logs(p: int) -> np.ndarray:
    """log f_p = log(1 - s/(p-1)) - log(1 - s/p) for s = chi(p) = -1, 0, 1."""
    return np.log1p(-_SYMBOLS / (p - 1.0)) - np.log1p(-_SYMBOLS / p)


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


def class_numbers(K: int) -> np.ndarray:
    """h(-4k) for k = 0..K (entry 0 unused), exact, as int64.

    Counts the primitive reduced forms (a, 2b, c) with ac - b^2 = k:
    |2b| <= a <= c, b >= 0 when |2b| = a or a = c, gcd(a, 2b, c) = 1; such
    a form has 3a^2 <= 4k.  For fixed (a, b) the forms with c = a, a+1, ...
    sit at k = a^2 - b^2 + a (c - a), a stride-a slice of h, which (a, 2b)
    and (a, -2b) share when 0 < 2b < a.  Adding mu(d) along the stride-ad
    slice for each squarefree d | gcd(a, 2b) keeps only the c prime to
    gcd(a, 2b); each such d divides a, so every slice starts at c = a.
    """
    h = np.zeros(K + 1, dtype=np.int64)
    for a in range(1, math.isqrt(4 * K // 3) + 1):
        mobius_divisors = [(1, 1)]              # (d, mu(d)), squarefree d | a
        for q, _ in factorize(a):
            mobius_divisors += [(d * q, -mu) for d, mu in mobius_divisors]
        for b in range(a // 2 + 1):
            k0 = a * a - b * b                  # c = a
            if k0 > K:
                continue
            g = math.gcd(a, 2 * b)
            weight = 2 if 0 < 2 * b < a else 1
            if weight == 2 and g == 1:
                h[k0] -= 1                      # (a, -2b, a) is not reduced
            for d, mu in mobius_divisors:
                if g % d == 0:
                    h[k0::a * d] += mu * weight
    return h


def _check_batch(K: int, P: int) -> None:
    """Refuse the (K, P) that batch_singular_values refuses, allocating nothing."""
    if K < 1:
        raise ValueError("K must be positive")
    if P < 3:
        raise ValueError("P must be >= 3")
    cells = (1.25506 * P / math.log(P) * max(P, K + 1)
             + _STRIDED_CELL_WEIGHT * K**1.5 / math.sqrt(3))
    if cells > MAX_BATCH_CELLS:
        raise ValueError(f"S(k) for K={K} with P={P} needs about {cells:.2e} cell "
                         f"updates, over the cap of {MAX_BATCH_CELLS:.0e}; lower K or P")


def batch_singular_values(K: int, P: int) -> np.ndarray:
    """S(k) for k = 1..K with the correction product cut at P, as a float array.

    The odd primes p <= P add their factor logs log f_p one at a time, in
    ascending order, through a float pattern of period p (the log depends
    only on k mod p) added across an (m, p) view of the accumulator: O(K)
    work per prime p <= K and O(p) per prime p > K.  Their sum over p <= P is
    at most pi(P) max(P, K + 1), with pi(P) < 1.25506 P / log P (Rosser and
    Schoenfeld, Illinois J. Math. 6 (1962)).  class_numbers adds, for each
    of its about K/3 pairs (a, b), a stride-a slice of about K/a cells:
    K^(3/2) / sqrt(3) in all.  Calls over MAX_BATCH_CELLS are refused before
    anything is allocated.
    """
    _check_batch(K, P)
    acc = np.zeros(K + 1)
    _add_patterns(acc, primes_array(P)[1:])   # the odd primes
    k = np.arange(1, K + 1)
    units = np.where(k == 1, 4.0, 2.0)        # w(-4k)
    inverse_l = units * np.sqrt(4.0 * k) / (2 * math.pi * class_numbers(K)[1:])
    return inverse_l * np.exp(acc[1:])


def singular_error_bound(P: int) -> float:
    """Proven bound on |value / S(k) - 1| for batch_singular_values(K, P), any k.

    Tail: |log f_p| <= 1/((p-1)^2 - 1) = 1/((p-2) p), and summed over every
    odd n > P instead of the primes this telescopes to 1/(2(n0 - 2)), with
    n0 the least odd n > P.
    Rounding, in units of u = 2^-53, with log1p and exp within 4 ulp (numpy's
    vector loops need not round correctly) and sqrt correctly rounded: each
    factor log is off by at most 37u/(p-2); the sequential sum of the n logs
    adds at most 0.51 n u, their absolute sum being at most 1/2; exp, sqrt,
    the float 2 pi, its product with h, the division and the last product
    add at most 14u.
    The sum lam of these log errors gives |value / S(k) - 1| <= e^lam - 1,
    rounded up past the float error of this evaluation.
    """
    if P < 3:
        raise ValueError("P must be >= 3")
    primes = primes_array(P)[1:]
    least_odd_above = P + 1 + P % 2
    tail = 0.5 / (least_odd_above - 2)
    rounding = _UNIT_ROUNDOFF * (37.0 * float((1.0 / (primes - 2.0)).sum())
                                 + 0.51 * primes.size + 14.0)
    return math.expm1(tail + rounding) * (1.0 + 1e-9)


def main_term_constant(P: int = CONSTANT_TRUNCATION) -> float:
    """prod over odd primes p <= P of (1 + 1/(p(p-1))).

    Converges absolutely (monotone increasing in P) to
    zeta(2) zeta(3) / zeta(6) divided by the p=2 factor 3/2.  p (p - 1), its
    reciprocal and log1p of that run in one float buffer beside the primes.
    """
    if P < 3:
        raise ValueError("P must be >= 3")
    p = primes_array(P)[1:]
    x = p - 1.0
    x *= p
    np.divide(1.0, x, out=x)
    np.log1p(x, out=x)
    return math.exp(float(x.sum()))
